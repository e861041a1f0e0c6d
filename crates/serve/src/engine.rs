//! The inference engine: each shard runs one of these on its own thread,
//! owning an ensemble replica and turning micro-batches of requests into
//! replies.
//!
//! The ReMIX pipeline itself is [`Remix::predict_batch`], the code
//! [`Remix::predict`] runs as a batch of one, so every non-degraded served
//! verdict is bit-identical to `Remix::predict` for the same input — the
//! property the bench gate asserts byte for byte on the wire. Around it the
//! engine keeps only what belongs to serving:
//!
//! * **Pricing** — the batch's latency budget becomes a sweep-unit budget
//!   through a running ns-per-unit estimate, refreshed from the XAI time
//!   each batch reports.
//! * **Replies** — for every answer, in the order `predict_batch` emits it
//!   (fast-path and deadline fallbacks before the XAI sweep starts), the
//!   engine counts it, caches the rendered fragment when eligible, replies,
//!   and folds its features into the drift detector.

use crate::batcher::{BatchQueue, EngineReply, PendingRequest};
use crate::cache::{generation_key, VerdictCache};
use crate::drift::{verdict_features, EngineDrift};
use crate::protocol;
use crate::server::ServeStats;
use remix_core::{Query, Remix};
use remix_ensemble::TrainedEnsemble;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Smoothing factor for the engine's running ns-per-sweep-unit estimate:
/// each measured XAI stage contributes 30 %, so the estimate tracks load
/// shifts within a few batches without whipsawing on one outlier.
const COST_EWMA_ALPHA: f64 = 0.3;

/// A prepared replacement ensemble waiting for one engine shard to adopt it
/// (already `prepare_ensemble`d off-path by the swap coordinator).
pub(crate) struct PendingSwap {
    /// The frozen replica for this shard.
    pub ensemble: TrainedEnsemble,
    /// Integrity hash of the artifact it came from (the cache generation).
    pub artifact_hash: u64,
}

/// The per-shard hot-swap mailbox. The swap coordinator deposits a
/// [`PendingSwap`] and bumps `generation`; the engine checks the counter
/// between batches (one relaxed-ish atomic load on the hot path) and adopts
/// the replacement *before* processing the next batch, so in-flight batches
/// drain on the old version and everything popped after the deposit runs on
/// the new one.
#[derive(Default)]
pub(crate) struct SwapSlot {
    /// The replacement, if one is waiting. A second swap before adoption
    /// simply replaces it — the engine only ever wants the latest.
    pub pending: Mutex<Option<PendingSwap>>,
    /// Bumped (Release) after each deposit; the engine compares (Acquire)
    /// against the generation it last adopted.
    pub generation: AtomicU64,
}

pub(crate) struct Engine {
    pub remix: Remix,
    pub ensemble: TrainedEnsemble,
    pub cache: Arc<VerdictCache>,
    pub stats: Arc<ServeStats>,
    /// Wall-clock allowance for one batch's XAI stage; zero disables
    /// pressure downgrades.
    pub latency_budget: Duration,
    /// EWMA of measured nanoseconds per sweep unit (see
    /// [`remix_xai::XaiBudget::sweep_units`]); `0.0` until first measured.
    /// Only consulted to *price* levels — never to pick them — so verdict
    /// content stays deterministic; only which requests get downgraded under
    /// pressure depends on it.
    pub ns_per_unit: f64,
    /// This shard's hot-swap mailbox (shared with the coordinator).
    pub swap: Arc<SwapSlot>,
    /// Artifact hash of the ensemble currently held; keys cache inserts so
    /// a verdict is only ever findable under the generation that produced
    /// it (`0` for a locally-constructed, non-registry ensemble).
    pub artifact_hash: u64,
    /// The swap generation last adopted.
    pub seen_generation: u64,
    /// The streaming drift detector for this shard, when enabled. Strictly
    /// passive: features are folded *after* each verdict is formed and
    /// delivered, so the reply bytes are bit-identical with the detector on
    /// or off.
    pub drift: Option<EngineDrift>,
}

impl Engine {
    /// Runs until the queue closes and drains.
    pub(crate) fn run(mut self, queue: Arc<BatchQueue>) {
        while let Some(batch) = queue.next_batch() {
            self.adopt_pending_swap();
            if !batch.is_empty() {
                self.process(batch);
            }
        }
    }

    /// Adopts a deposited hot-swap, if any. Called between batches, so the
    /// flip is invisible to any batch already being processed.
    fn adopt_pending_swap(&mut self) {
        let generation = self.swap.generation.load(Ordering::Acquire);
        if generation == self.seen_generation {
            return;
        }
        self.seen_generation = generation;
        let pending = self
            .swap
            .pending
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        if let Some(swap) = pending {
            self.ensemble = swap.ensemble;
            self.artifact_hash = swap.artifact_hash;
            // A new model generation invalidates the drift baseline: clear
            // the latch and re-learn the reference under the new weights.
            if let Some(drift) = &mut self.drift {
                drift.reset();
            }
        }
    }

    fn process(&mut self, batch: Vec<PendingRequest>) {
        let _span = remix_trace::span("serve_batch");
        self.stats.bump_batch(batch.len());
        let queries: Vec<Query> = batch
            .iter()
            .map(|request| Query {
                image: &request.image,
                deadline: Some(request.deadline),
            })
            .collect();
        // The latency budget in sweep units, once the cost model is warm.
        let sweep_budget = (!self.latency_budget.is_zero() && self.ns_per_unit > 0.0)
            .then(|| (self.latency_budget.as_nanos() as f64 / self.ns_per_unit) as u64);
        let (stats, cache, drift) = (&self.stats, &self.cache, &mut self.drift);
        let artifact_hash = self.artifact_hash;
        let spend =
            self.remix
                .predict_batch(&mut self.ensemble, &queries, sweep_budget, |k, answer| {
                    let request = &batch[k];
                    let verdict = &answer.verdict;
                    let fragment: Arc<str> = if answer.degraded {
                        stats.degraded.fetch_add(1, Ordering::Relaxed);
                        protocol::degraded_fragment(&verdict.prediction).into()
                    } else {
                        stats.bump_level(verdict.xai_level);
                        protocol::verdict_fragment(verdict).into()
                    };
                    if answer.downgraded {
                        stats.downgraded.fetch_add(1, Ordering::Relaxed);
                    }
                    // Degraded and downgraded verdicts depend on load, not
                    // only on the input, so they are never cached. The key
                    // is *this engine's* artifact hash — not the group's
                    // currently-published one — so a verdict prepared under
                    // version A but finishing after a flip to B can never
                    // surface on B's lookups.
                    if !answer.degraded && !answer.downgraded && !request.no_cache {
                        cache.insert(
                            generation_key(request.key, artifact_hash),
                            request.image.data(),
                            Arc::clone(&fragment),
                        );
                    }
                    request.reply.respond(EngineReply::verdict(
                        fragment,
                        answer.degraded,
                        verdict.unanimous,
                    ));
                    if let Some(drift) = drift {
                        drift.fold(&verdict_features(&answer));
                    }
                });
        // Refresh the cost model from what the XAI stage actually took. It
        // prices future downgrade decisions only, never the verdicts.
        if spend.sweep_units > 0 {
            let measured = spend.elapsed.as_nanos() as f64 / spend.sweep_units as f64;
            self.ns_per_unit = if self.ns_per_unit > 0.0 {
                COST_EWMA_ALPHA * measured + (1.0 - COST_EWMA_ALPHA) * self.ns_per_unit
            } else {
                measured
            };
        }
    }
}
