//! Named atomic event counters.
//!
//! A fixed enum (rather than string keys) keeps the hot path to one bounds-
//! free array index plus a relaxed `fetch_add` — exact under any concurrency
//! because each increment is a single atomic RMW.

use std::sync::atomic::{AtomicU64, Ordering};

/// The discrete events the pipeline tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Counter {
    /// GEMM kernel invocations (`matmul` family entry points).
    GemmCalls,
    /// Multiply-accumulate operations dispatched to the GEMM kernels.
    GemmMacs,
    /// Bytes written into packed GEMM operand layouts (A blocks + B panels),
    /// including one-time `prepack_*` packs. Prepacked entry points skip the
    /// weight-side pack, so this counter makes the saving observable.
    GemmPackBytes,
    /// GEMM calls served from a persistent prepacked operand
    /// (`remix_tensor::PackedOperand`) instead of re-packing the weight side.
    PrepackHits,
    /// Jobs posted to the persistent worker pool.
    PoolJobs,
    /// Tasks fanned out across pool jobs (claimed by workers or the poster).
    PoolTasks,
    /// Perturbed inputs evaluated by the XAI batched engine.
    XaiPerturbations,
    /// Batched model sweeps the XAI engine issued.
    XaiBatches,
    /// `Remix::predict` calls.
    Predictions,
    /// Predictions resolved by the unanimous fast path (no XAI run).
    FastPathHits,
    /// Predictions that disagreed and ran the full five-stage pipeline.
    Disagreements,
    /// Mini-batches processed by `Trainer::fit`.
    TrainBatches,
    /// Training samples processed by `Trainer::fit` (sum of batch sizes).
    TrainSamples,
    /// Span records discarded because the registry hit its size cap.
    SpansDropped,
}

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; 14] = [
        Counter::GemmCalls,
        Counter::GemmMacs,
        Counter::GemmPackBytes,
        Counter::PrepackHits,
        Counter::PoolJobs,
        Counter::PoolTasks,
        Counter::XaiPerturbations,
        Counter::XaiBatches,
        Counter::Predictions,
        Counter::FastPathHits,
        Counter::Disagreements,
        Counter::TrainBatches,
        Counter::TrainSamples,
        Counter::SpansDropped,
    ];

    /// Stable snake_case name used in exported records.
    pub fn name(self) -> &'static str {
        match self {
            Counter::GemmCalls => "gemm_calls",
            Counter::GemmMacs => "gemm_macs",
            Counter::GemmPackBytes => "gemm_pack_bytes",
            Counter::PrepackHits => "prepack_hits",
            Counter::PoolJobs => "pool_jobs",
            Counter::PoolTasks => "pool_tasks",
            Counter::XaiPerturbations => "xai_perturbations",
            Counter::XaiBatches => "xai_batches",
            Counter::Predictions => "predictions",
            Counter::FastPathHits => "fast_path_hits",
            Counter::Disagreements => "disagreements",
            Counter::TrainBatches => "train_batches",
            Counter::TrainSamples => "train_samples",
            Counter::SpansDropped => "spans_dropped",
        }
    }
}

const NCOUNTERS: usize = Counter::ALL.len();

static COUNTERS: [AtomicU64; NCOUNTERS] = [const { AtomicU64::new(0) }; NCOUNTERS];

/// Adds `n` to `counter` (no-op while tracing is disabled).
#[inline]
pub fn add(counter: Counter, n: u64) {
    if crate::enabled() {
        force_add(counter, n);
    }
}

/// Adds 1 to `counter` (no-op while tracing is disabled).
#[inline]
pub fn incr(counter: Counter) {
    add(counter, 1);
}

/// Adds unconditionally; internal bookkeeping (e.g. drop counts) that must
/// register even on paths that already checked the enabled flag.
pub(crate) fn force_add(counter: Counter, n: u64) {
    COUNTERS[counter as usize].fetch_add(n, Ordering::Relaxed);
}

/// Current value of `counter`.
pub fn counter(counter: Counter) -> u64 {
    COUNTERS[counter as usize].load(Ordering::Relaxed)
}

/// All non-zero counters as `(name, value)` pairs, in declaration order.
pub(crate) fn counter_values() -> Vec<(&'static str, u64)> {
    Counter::ALL
        .iter()
        .filter_map(|&c| {
            let v = counter(c);
            (v > 0).then(|| (c.name(), v))
        })
        .collect()
}

/// Zeroes every counter.
pub(crate) fn reset_counters() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil;

    #[test]
    fn add_respects_enabled_flag_and_is_exact() {
        let _guard = testutil::lock();
        crate::set_enabled(false);
        crate::reset();
        add(Counter::GemmCalls, 5);
        assert_eq!(counter(Counter::GemmCalls), 0);
        crate::set_enabled(true);
        for _ in 0..100 {
            incr(Counter::GemmCalls);
        }
        add(Counter::GemmMacs, 1 << 40);
        crate::set_enabled(false);
        assert_eq!(counter(Counter::GemmCalls), 100);
        assert_eq!(counter(Counter::GemmMacs), 1 << 40);
        let values = counter_values();
        assert_eq!(
            values,
            vec![("gemm_calls", 100), ("gemm_macs", 1 << 40)],
            "only non-zero counters are exported"
        );
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Counter::ALL.len());
    }
}
