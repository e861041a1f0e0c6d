//! Perf-regression gate backing the `bench_check` binary (CI).
//!
//! Compares fresh bench records (`results/bench_gemm.json`,
//! `results/bench_inference.json`, `results/bench_serve.json`,
//! `results/bench_xai_sched.json`, `results/bench_swap.json`,
//! `results/bench_drift.json`) against the
//! committed baselines under
//! `crates/bench/baselines/` and fails on a >20 % wall-time regression or on
//! any bitwise-verdict divergence.
//!
//! CI runners do not run at the speed of the machine that produced the
//! committed baselines, so absolute wall times are not comparable across
//! machines. Every gated timing metric is therefore a *within-run ratio*
//! (the optimized path's wall time against its reference path, both measured
//! in the same process): the machine constant cancels, and a >20 % drop in
//! the ratio is exactly a >20 % wall-time regression of the optimized path
//! at fixed reference speed. Correctness flags (`bit_identical`,
//! `weights_bit_identical`, `verdicts_identical`) are gated absolutely —
//! they must be `true` in the fresh record, no tolerance.

use serde::Value;

/// Allowed relative wall-time regression before the gate fails (20 %).
pub const DEFAULT_TOLERANCE: f64 = 0.20;

/// Outcome of one gate run: every comparison performed, plus the subset that
/// failed. The gate passes iff `failures` is empty.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Human-readable line per comparison performed ("ok ..." lines).
    pub checks: Vec<String>,
    /// Human-readable line per failed comparison.
    pub failures: Vec<String>,
}

impl GateReport {
    /// True when no comparison failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Folds another report's lines into this one.
    pub fn merge(&mut self, other: GateReport) {
        self.checks.extend(other.checks);
        self.failures.extend(other.failures);
    }

    fn ok(&mut self, line: String) {
        self.checks.push(line);
    }

    fn fail(&mut self, line: String) {
        self.failures.push(line);
    }

    /// Gates one within-run speedup: fresh must retain at least
    /// `1 / (1 + tolerance)` of the baseline ratio.
    fn gate_speedup(&mut self, label: &str, baseline: f64, fresh: f64, tolerance: f64) {
        let floor = baseline / (1.0 + tolerance);
        if fresh >= floor {
            self.ok(format!(
                "ok   {label}: speedup {fresh:.3} (baseline {baseline:.3}, floor {floor:.3})"
            ));
        } else {
            self.fail(format!(
                "FAIL {label}: speedup {fresh:.3} fell below {floor:.3} \
                 (baseline {baseline:.3}, tolerance {:.0} %)",
                tolerance * 100.0
            ));
        }
    }

    /// Gates a correctness flag: it must be present and `true` in the fresh
    /// record.
    fn gate_flag(&mut self, label: &str, fresh: Option<bool>) {
        match fresh {
            Some(true) => self.ok(format!("ok   {label}: bitwise identical")),
            Some(false) => self.fail(format!("FAIL {label}: bitwise divergence")),
            None => self.fail(format!("FAIL {label}: correctness flag missing")),
        }
    }
}

/// Field lookup on an object `Value`; `None` for non-objects/missing keys.
pub fn get<'a>(value: &'a Value, name: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
}

/// Numeric coercion across the shim's three number variants.
fn num(value: &Value) -> Option<f64> {
    match value {
        Value::UInt(u) => Some(*u as f64),
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

fn get_num(value: &Value, name: &str) -> Option<f64> {
    num(get(value, name)?)
}

/// A boolean field of an object `Value`.
pub fn get_bool(value: &Value, name: &str) -> Option<bool> {
    match get(value, name)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

/// A non-negative integer field of an object `Value`.
pub fn get_u64(value: &Value, name: &str) -> Option<u64> {
    match get(value, name)? {
        Value::UInt(u) => Some(*u),
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        _ => None,
    }
}

/// A string field of an object `Value`.
pub fn get_str<'a>(value: &'a Value, name: &str) -> Option<&'a str> {
    match get(value, name)? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

/// Minimum acceptable prepacked-vs-per-call aggregate speedup over the dense
/// stack's XAI-sweep GEMMs, gated absolutely: the dense products are where
/// the weight pack is a large fraction of the work, so a frozen weight that
/// stops paying it must show a real aggregate win there.
pub const PREPACK_MIN_DENSE_AGGREGATE_SPEEDUP: f64 = 1.1;

/// Minimum fraction of per-sweep GEMM pack traffic the frozen model must
/// eliminate, gated absolutely. The counter is deterministic (same shapes →
/// same byte counts on any machine), so unlike the wall-time ratios this
/// gate carries no measurement noise.
pub const PREPACK_MIN_PACK_ELIMINATION: f64 = 0.15;

/// Gates `bench_gemm.json`: per shape, the blocked kernel must stay
/// bit-identical to the reference and keep its within-run speedup; per
/// prepack-sweep row, the prepacked entry must stay bit-identical to per-call
/// packing (row wall times are recorded but not gated — at XAI-sweep scale
/// the conv rows are near 1.0× and their run-to-run noise exceeds the
/// tolerance); the dense-stack aggregate must keep its speedup relative to
/// the baseline *and* clear [`PREPACK_MIN_DENSE_AGGREGATE_SPEEDUP`]; the
/// frozen XAI sweep must stay bit-identical, keep hitting prepacked operands,
/// and keep eliminating at least [`PREPACK_MIN_PACK_ELIMINATION`] of the
/// sweep's pack traffic; per training row, batched updates must stay
/// weight-bit-identical and keep the batched-vs-per-sample ratio.
pub fn check_gemm(baseline: &Value, fresh: &Value, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    let empty: &[Value] = &[];
    let fresh_gemm = get(fresh, "gemm")
        .and_then(Value::as_array)
        .unwrap_or(empty);
    for base_row in get(baseline, "gemm")
        .and_then(Value::as_array)
        .unwrap_or(empty)
    {
        let Some(shape) = get_str(base_row, "shape") else {
            continue;
        };
        let label = format!("gemm/{shape}");
        let Some(fresh_row) = fresh_gemm
            .iter()
            .find(|r| get_str(r, "shape") == Some(shape))
        else {
            report.fail(format!("FAIL {label}: missing from fresh record"));
            continue;
        };
        report.gate_flag(&label, get_bool(fresh_row, "bit_identical"));
        match (get_num(base_row, "speedup"), get_num(fresh_row, "speedup")) {
            (Some(b), Some(f)) => report.gate_speedup(&label, b, f, tolerance),
            _ => report.fail(format!("FAIL {label}: speedup field missing")),
        }
    }
    let fresh_sweep = get(fresh, "prepack_sweep")
        .and_then(Value::as_array)
        .unwrap_or(empty);
    for base_row in get(baseline, "prepack_sweep")
        .and_then(Value::as_array)
        .unwrap_or(empty)
    {
        let Some(shape) = get_str(base_row, "shape") else {
            continue;
        };
        let label = format!("prepack/{shape}");
        let Some(fresh_row) = fresh_sweep
            .iter()
            .find(|r| get_str(r, "shape") == Some(shape))
        else {
            report.fail(format!("FAIL {label}: missing from fresh record"));
            continue;
        };
        report.gate_flag(&label, get_bool(fresh_row, "prepack_identical"));
    }
    if get(baseline, "prepack_sweep").is_some() {
        match (
            get_num(baseline, "prepack_sweep_aggregate_speedup"),
            get_num(fresh, "prepack_sweep_aggregate_speedup"),
        ) {
            (Some(b), Some(f)) => report.gate_speedup("prepack/sweep_aggregate", b, f, tolerance),
            _ => report.fail("FAIL prepack/sweep_aggregate: speedup field missing".into()),
        }
        match (
            get_num(baseline, "prepack_dense_aggregate_speedup"),
            get_num(fresh, "prepack_dense_aggregate_speedup"),
        ) {
            (Some(b), Some(f)) => {
                report.gate_speedup("prepack/dense_aggregate", b, f, tolerance);
                if f >= PREPACK_MIN_DENSE_AGGREGATE_SPEEDUP {
                    report.ok(format!(
                        "ok   prepack/dense_min_speedup: {f:.3} >= absolute floor \
                         {PREPACK_MIN_DENSE_AGGREGATE_SPEEDUP}"
                    ));
                } else {
                    report.fail(format!(
                        "FAIL prepack/dense_min_speedup: {f:.3} below absolute floor \
                         {PREPACK_MIN_DENSE_AGGREGATE_SPEEDUP}"
                    ));
                }
            }
            _ => report.fail("FAIL prepack/dense_aggregate: speedup field missing".into()),
        }
    }
    if let Some(base_xai) = get(baseline, "xai_sweep") {
        let label = "prepack/xai_sweep";
        match get(fresh, "xai_sweep") {
            Some(fresh_xai) => {
                report.gate_flag(label, get_bool(fresh_xai, "prepack_identical"));
                match get_num(fresh_xai, "prepack_hits_per_sweep") {
                    Some(hits) if hits > 0.0 => report.ok(format!(
                        "ok   {label}: frozen sweep hit {hits:.0} prepacked operands"
                    )),
                    Some(_) => report.fail(format!(
                        "FAIL {label}: frozen sweep never hit a prepacked operand"
                    )),
                    None => report.fail(format!("FAIL {label}: prepack_hits field missing")),
                }
                match (
                    get_num(base_xai, "pack_bytes_eliminated_fraction"),
                    get_num(fresh_xai, "pack_bytes_eliminated_fraction"),
                ) {
                    (Some(b), Some(f)) => {
                        report.gate_speedup("prepack/pack_bytes_eliminated", b, f, tolerance);
                        if f >= PREPACK_MIN_PACK_ELIMINATION {
                            report.ok(format!(
                                "ok   prepack/min_pack_elimination: {f:.3} >= absolute floor \
                                 {PREPACK_MIN_PACK_ELIMINATION}"
                            ));
                        } else {
                            report.fail(format!(
                                "FAIL prepack/min_pack_elimination: {f:.3} below absolute floor \
                                 {PREPACK_MIN_PACK_ELIMINATION}"
                            ));
                        }
                    }
                    _ => report
                        .fail("FAIL prepack/pack_bytes_eliminated: fraction field missing".into()),
                }
            }
            None => report.fail(format!("FAIL {label}: missing from fresh record")),
        }
    }
    let fresh_training = get(fresh, "training")
        .and_then(Value::as_array)
        .unwrap_or(empty);
    for base_row in get(baseline, "training")
        .and_then(Value::as_array)
        .unwrap_or(empty)
    {
        let (Some(model), Some(size)) =
            (get_str(base_row, "model"), get_num(base_row, "input_size"))
        else {
            continue;
        };
        let label = format!("training/{model}@{size}");
        let Some(fresh_row) = fresh_training
            .iter()
            .find(|r| get_str(r, "model") == Some(model) && get_num(r, "input_size") == Some(size))
        else {
            report.fail(format!("FAIL {label}: missing from fresh record"));
            continue;
        };
        report.gate_flag(&label, get_bool(fresh_row, "weights_bit_identical"));
        match (get_num(base_row, "speedup"), get_num(fresh_row, "speedup")) {
            (Some(b), Some(f)) => report.gate_speedup(&label, b, f, tolerance),
            _ => report.fail(format!("FAIL {label}: speedup field missing")),
        }
    }
    if report.checks.is_empty() && report.failures.is_empty() {
        report.fail("FAIL gemm: baseline record has no gemm/training rows".into());
    }
    report
}

/// Gates `bench_inference.json`: the traced/batched engine must keep its
/// verdicts bit-identical to the per-sample engine and must not lose more
/// than `tolerance` of its within-run batched-vs-per-sample speedup.
pub fn check_inference(baseline: &Value, fresh: &Value, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    report.gate_flag("inference/verdicts", get_bool(fresh, "verdicts_identical"));
    match (
        get_num(baseline, "speedup_batched_vs_per_sample"),
        get_num(fresh, "speedup_batched_vs_per_sample"),
    ) {
        (Some(b), Some(f)) => report.gate_speedup("inference/batched_engine", b, f, tolerance),
        _ => report.fail("FAIL inference/batched_engine: speedup field missing".into()),
    }
    report
}

/// Minimum acceptable micro-batched-vs-serial serving speedup, gated
/// absolutely (independent of the committed baseline): the serving layer
/// must keep delivering the throughput gain it was built for.
pub const SERVE_MIN_SPEEDUP: f64 = 1.3;

/// Minimum acceptable 1-shard→N-shard serving speedup, gated absolutely —
/// but only when the fresh record was measured on a multi-core host
/// (`host_cores >= 2`). A single-core machine cannot run engine shards in
/// parallel, so its honest ratio is ~1.0 and the floor would only punish the
/// hardware; the relative gate against the baseline still applies there.
pub const SHARD_MIN_SCALING: f64 = 1.25;

/// Gates `bench_serve.json`: served verdicts (plain, cached, degraded, and
/// sharded) must keep their bitwise contracts; the micro-batched engine must
/// keep its within-run throughput gain over the serial (one-at-a-time)
/// engine — both relative to the baseline and above the absolute
/// [`SERVE_MIN_SPEEDUP`] floor; and the sharded backend must keep its
/// 1-shard→N-shard scaling, with the absolute [`SHARD_MIN_SCALING`] floor
/// enforced on multi-core hosts.
pub fn check_serve(baseline: &Value, fresh: &Value, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    report.gate_flag("serve/verdicts", get_bool(fresh, "verdicts_identical"));
    report.gate_flag("serve/cache", get_bool(fresh, "cache_identical"));
    report.gate_flag("serve/degraded", get_bool(fresh, "degraded_deterministic"));
    report.gate_flag(
        "serve/shard_verdicts",
        get_bool(fresh, "shard_verdicts_identical"),
    );
    match (
        get_num(baseline, "speedup_batched_vs_serial"),
        get_num(fresh, "speedup_batched_vs_serial"),
    ) {
        (Some(b), Some(f)) => {
            report.gate_speedup("serve/micro_batching", b, f, tolerance);
            if f >= SERVE_MIN_SPEEDUP {
                report.ok(format!(
                    "ok   serve/min_speedup: {f:.3} >= absolute floor {SERVE_MIN_SPEEDUP}"
                ));
            } else {
                report.fail(format!(
                    "FAIL serve/min_speedup: {f:.3} below absolute floor {SERVE_MIN_SPEEDUP}"
                ));
            }
        }
        _ => report.fail("FAIL serve/micro_batching: speedup field missing".into()),
    }
    match (
        get_num(baseline, "speedup_shards_vs_one"),
        get_num(fresh, "speedup_shards_vs_one"),
    ) {
        (Some(b), Some(f)) => {
            report.gate_speedup("serve/shard_scaling", b, f, tolerance);
            let cores = get_num(fresh, "host_cores").unwrap_or(1.0);
            if cores < 2.0 {
                report.ok(format!(
                    "ok   serve/shard_min_scaling: skipped ({cores:.0}-core host cannot scale)"
                ));
            } else if f >= SHARD_MIN_SCALING {
                report.ok(format!(
                    "ok   serve/shard_min_scaling: {f:.3} >= absolute floor {SHARD_MIN_SCALING} \
                     ({cores:.0} cores)"
                ));
            } else {
                report.fail(format!(
                    "FAIL serve/shard_min_scaling: {f:.3} below absolute floor \
                     {SHARD_MIN_SCALING} on a {cores:.0}-core host"
                ));
            }
        }
        _ => report.fail("FAIL serve/shard_scaling: speedup field missing".into()),
    }
    report
}

/// Minimum acceptable adaptive-vs-all-Full p99 latency speedup, gated
/// absolutely: the scheduler exists to cut the tail, and a within-run ratio
/// below this means it stopped paying for itself.
pub const XAI_SCHED_MIN_P99_SPEEDUP: f64 = 2.0;

/// Maximum balanced-accuracy cost (percentage points, adaptive vs all-Full)
/// the scheduler may pay for its tail-latency win, gated absolutely.
pub const XAI_SCHED_MAX_BA_COST_PTS: f64 = 0.5;

/// Gates `bench_xai_sched.json`: the Full-pinned rung must stay bit-identical
/// to the scheduler-less pipeline; the adaptive scheduler must keep its
/// within-run p99 speedup over all-Full — relative to the baseline *and*
/// above the absolute [`XAI_SCHED_MIN_P99_SPEEDUP`] floor — while its
/// balanced-accuracy cost stays within [`XAI_SCHED_MAX_BA_COST_PTS`] points.
pub fn check_xai_sched(baseline: &Value, fresh: &Value, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    report.gate_flag(
        "xai_sched/full_pinned",
        get_bool(fresh, "full_pinned_identical"),
    );
    match (
        get_num(baseline, "speedup_p99_adaptive_vs_full"),
        get_num(fresh, "speedup_p99_adaptive_vs_full"),
    ) {
        (Some(b), Some(f)) => {
            report.gate_speedup("xai_sched/p99_tail", b, f, tolerance);
            if f >= XAI_SCHED_MIN_P99_SPEEDUP {
                report.ok(format!(
                    "ok   xai_sched/min_p99_speedup: {f:.3} >= absolute floor \
                     {XAI_SCHED_MIN_P99_SPEEDUP}"
                ));
            } else {
                report.fail(format!(
                    "FAIL xai_sched/min_p99_speedup: {f:.3} below absolute floor \
                     {XAI_SCHED_MIN_P99_SPEEDUP}"
                ));
            }
        }
        _ => report.fail("FAIL xai_sched/p99_tail: speedup field missing".into()),
    }
    match get_num(fresh, "ba_cost_pts") {
        Some(cost) if cost <= XAI_SCHED_MAX_BA_COST_PTS => report.ok(format!(
            "ok   xai_sched/ba_cost: {cost:.3} pts <= ceiling {XAI_SCHED_MAX_BA_COST_PTS}"
        )),
        Some(cost) => report.fail(format!(
            "FAIL xai_sched/ba_cost: adaptive pays {cost:.3} balanced-accuracy points, \
             ceiling is {XAI_SCHED_MAX_BA_COST_PTS}"
        )),
        None => report.fail("FAIL xai_sched/ba_cost: ba_cost_pts field missing".into()),
    }
    report
}

/// Maximum acceptable p99 pointer-flip stall for a hot swap, in
/// microseconds, gated absolutely: the flip is a per-shard deposit plus an
/// atomic store, so a stall past this ceiling means the swap path started
/// blocking the serving path.
pub const SWAP_MAX_FLIP_P99_US: f64 = 100_000.0;

/// Minimum fraction of steady-state throughput the server must retain while
/// hot swaps are interleaved with the load, gated absolutely: "zero
/// downtime" is hollow if churn halves the service rate.
pub const SWAP_MIN_CHURN_THROUGHPUT: f64 = 0.5;

/// Gates `bench_swap.json`: the hot-swap soak must drop and error zero
/// requests (absolute — a lost request under churn is an outage, not a
/// regression); every byte-identity flag (`noop_identical`, `v1_identical`,
/// `v2_identical`, `churn_identical`, `cache_generation_isolated`) must
/// hold; the flip-stall p99 must stay under [`SWAP_MAX_FLIP_P99_US`]; and
/// the churn-vs-steady throughput ratio must keep its baseline level *and*
/// clear the absolute [`SWAP_MIN_CHURN_THROUGHPUT`] floor.
pub fn check_swap(baseline: &Value, fresh: &Value, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    report.gate_flag("swap/noop_identity", get_bool(fresh, "noop_identical"));
    report.gate_flag("swap/v1_identity", get_bool(fresh, "v1_identical"));
    report.gate_flag("swap/v2_identity", get_bool(fresh, "v2_identical"));
    report.gate_flag("swap/churn_identity", get_bool(fresh, "churn_identical"));
    report.gate_flag(
        "swap/cache_generations",
        get_bool(fresh, "cache_generation_isolated"),
    );
    for counter in ["dropped_requests", "errored_requests"] {
        match get_num(fresh, counter) {
            Some(0.0) => report.ok(format!("ok   swap/{counter}: 0")),
            Some(n) => report.fail(format!(
                "FAIL swap/{counter}: {n:.0} requests lost during hot swaps"
            )),
            None => report.fail(format!("FAIL swap/{counter}: counter missing")),
        }
    }
    match get_num(fresh, "swap_flip_p99_us") {
        Some(p99) if p99 <= SWAP_MAX_FLIP_P99_US => report.ok(format!(
            "ok   swap/flip_p99: {p99:.0} us <= ceiling {SWAP_MAX_FLIP_P99_US:.0} us"
        )),
        Some(p99) => report.fail(format!(
            "FAIL swap/flip_p99: {p99:.0} us over ceiling {SWAP_MAX_FLIP_P99_US:.0} us"
        )),
        None => report.fail("FAIL swap/flip_p99: swap_flip_p99_us field missing".into()),
    }
    match (
        get_num(baseline, "speedup_churn_vs_steady"),
        get_num(fresh, "speedup_churn_vs_steady"),
    ) {
        (Some(b), Some(f)) => {
            report.gate_speedup("swap/churn_throughput", b, f, tolerance);
            if f >= SWAP_MIN_CHURN_THROUGHPUT {
                report.ok(format!(
                    "ok   swap/min_churn_throughput: {f:.3} >= absolute floor \
                     {SWAP_MIN_CHURN_THROUGHPUT}"
                ));
            } else {
                report.fail(format!(
                    "FAIL swap/min_churn_throughput: {f:.3} below absolute floor \
                     {SWAP_MIN_CHURN_THROUGHPUT}"
                ));
            }
        }
        _ => report.fail("FAIL swap/churn_throughput: speedup field missing".into()),
    }
    report
}

/// Maximum verdicts the drift detector may take to trip after a mid-stream
/// fault injection, gated absolutely: the detector exists to catch the
/// paper's faulty-data shift while it is still cheap to act on, and a
/// latency past this budget means it stopped doing its job.
pub const DRIFT_MAX_DETECTION_VERDICTS: f64 = 512.0;

/// Minimum detection headroom (budget / detection latency), gated absolutely
/// alongside the relative gate: 1.0 is detection exactly at the budget.
pub const DRIFT_MIN_DETECTION_HEADROOM: f64 = 1.0;

/// Gates `bench_drift.json`: the detector must raise zero alerts on the
/// clean prefix and zero new alerts on clean post-swap traffic (absolute — a
/// false trip triggers a pointless swap); detector-on verdicts must stay
/// byte-identical to detector-off (`detector_verdicts_identical`) and
/// post-swap verdicts to the local reference (`post_swap_identical`); the
/// injected shift must be detected within [`DRIFT_MAX_DETECTION_VERDICTS`]
/// (`detected_within_budget`, with `detection_headroom` also gated relative
/// to the baseline and floored at [`DRIFT_MIN_DETECTION_HEADROOM`]); the trip
/// must promote the swap target (`swap_promoted`) and reset the detector
/// (`detector_reset_after_swap`); and the whole soak must drop and error
/// zero requests.
pub fn check_drift(baseline: &Value, fresh: &Value, tolerance: f64) -> GateReport {
    let mut report = GateReport::default();
    report.gate_flag(
        "drift/bit_identity",
        get_bool(fresh, "detector_verdicts_identical"),
    );
    report.gate_flag(
        "drift/detected_within_budget",
        get_bool(fresh, "detected_within_budget"),
    );
    report.gate_flag("drift/swap_promoted", get_bool(fresh, "swap_promoted"));
    report.gate_flag(
        "drift/detector_reset",
        get_bool(fresh, "detector_reset_after_swap"),
    );
    report.gate_flag(
        "drift/post_swap_identity",
        get_bool(fresh, "post_swap_identical"),
    );
    for counter in [
        "clean_false_trips",
        "post_swap_false_trips",
        "dropped_requests",
        "errored_requests",
    ] {
        match get_num(fresh, counter) {
            Some(0.0) => report.ok(format!("ok   drift/{counter}: 0")),
            Some(n) => report.fail(format!("FAIL drift/{counter}: {n:.0} (must be 0)")),
            None => report.fail(format!("FAIL drift/{counter}: counter missing")),
        }
    }
    match get_num(fresh, "detection_verdicts") {
        Some(v) if v <= DRIFT_MAX_DETECTION_VERDICTS => report.ok(format!(
            "ok   drift/detection_latency: {v:.0} verdicts <= budget \
             {DRIFT_MAX_DETECTION_VERDICTS:.0}"
        )),
        Some(v) => report.fail(format!(
            "FAIL drift/detection_latency: {v:.0} verdicts over budget \
             {DRIFT_MAX_DETECTION_VERDICTS:.0}"
        )),
        None => report.fail("FAIL drift/detection_latency: detection_verdicts missing".into()),
    }
    match (
        get_num(baseline, "detection_headroom"),
        get_num(fresh, "detection_headroom"),
    ) {
        (Some(b), Some(f)) => {
            report.gate_speedup("drift/detection_headroom", b, f, tolerance);
            if f >= DRIFT_MIN_DETECTION_HEADROOM {
                report.ok(format!(
                    "ok   drift/min_headroom: {f:.3} >= absolute floor \
                     {DRIFT_MIN_DETECTION_HEADROOM}"
                ));
            } else {
                report.fail(format!(
                    "FAIL drift/min_headroom: {f:.3} below absolute floor \
                     {DRIFT_MIN_DETECTION_HEADROOM}"
                ));
            }
        }
        _ => report.fail("FAIL drift/detection_headroom: field missing".into()),
    }
    report
}

/// Multiplies every within-run speedup field by `factor`, recursively. Used
/// by the self-test to synthesize a wall-time regression (`factor < 1`)
/// without re-running the benchmarks.
pub fn scale_speedups(value: &mut Value, factor: f64) {
    match value {
        Value::Object(pairs) => {
            for (key, v) in pairs.iter_mut() {
                if key == "speedup"
                    || key == "speedup_batched_vs_per_sample"
                    || key == "speedup_batched_vs_serial"
                    || key == "speedup_shards_vs_one"
                    || key == "speedup_p99_adaptive_vs_full"
                    || key == "speedup_churn_vs_steady"
                    || key == "detection_headroom"
                    || key == "prepack_sweep_aggregate_speedup"
                    || key == "prepack_dense_aggregate_speedup"
                    || key == "pack_bytes_eliminated_fraction"
                {
                    if let Some(n) = num(v) {
                        *v = Value::Float(n * factor);
                    }
                } else {
                    scale_speedups(v, factor);
                }
            }
        }
        Value::Array(items) => {
            for v in items.iter_mut() {
                scale_speedups(v, factor);
            }
        }
        _ => {}
    }
}

/// Flips every correctness flag to `false`, recursively. Used by the
/// self-test to synthesize a bitwise-verdict divergence.
pub fn flip_verdict_flags(value: &mut Value) {
    match value {
        Value::Object(pairs) => {
            for (key, v) in pairs.iter_mut() {
                if key == "bit_identical"
                    || key == "weights_bit_identical"
                    || key == "verdicts_identical"
                    || key == "cache_identical"
                    || key == "degraded_deterministic"
                    || key == "shard_verdicts_identical"
                    || key == "full_pinned_identical"
                    || key == "prepack_identical"
                    || key == "noop_identical"
                    || key == "v1_identical"
                    || key == "v2_identical"
                    || key == "churn_identical"
                    || key == "cache_generation_isolated"
                    || key == "detector_verdicts_identical"
                    || key == "detected_within_budget"
                    || key == "swap_promoted"
                    || key == "detector_reset_after_swap"
                    || key == "post_swap_identical"
                {
                    *v = Value::Bool(false);
                } else {
                    flip_verdict_flags(v);
                }
            }
        }
        Value::Array(items) => {
            for v in items.iter_mut() {
                flip_verdict_flags(v);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gemm_record() -> Value {
        serde_json::from_str(
            r#"{
              "gemm": [
                {"shape": "a", "speedup": 2.0, "bit_identical": true},
                {"shape": "b", "speedup": 1.5, "bit_identical": true}
              ],
              "training": [
                {"model": "ConvNet", "input_size": 16, "speedup": 1.0,
                 "weights_bit_identical": true}
              ]
            }"#,
        )
        .expect("valid test record")
    }

    /// A gemm record carrying the prepacked-weight sections (the committed
    /// baseline's shape); the plain [`gemm_record`] checks that records
    /// predating them still gate cleanly.
    fn gemm_record_with_prepack() -> Value {
        serde_json::from_str(
            r#"{
              "gemm": [
                {"shape": "a", "speedup": 2.0, "bit_identical": true}
              ],
              "prepack_sweep": [
                {"shape": "fc1_fwd", "dense": true, "speedup": 1.6,
                 "prepack_identical": true},
                {"shape": "conv1_fwd", "dense": false, "speedup": 0.97,
                 "prepack_identical": true}
              ],
              "prepack_sweep_aggregate_speedup": 1.1,
              "prepack_dense_aggregate_speedup": 1.9,
              "xai_sweep": {
                "speedup": 1.1, "prepack_identical": true,
                "pack_bytes_eliminated_fraction": 0.22,
                "prepack_hits_per_sweep": 18
              },
              "training": [
                {"model": "ConvNet", "input_size": 16, "speedup": 1.0,
                 "weights_bit_identical": true}
              ]
            }"#,
        )
        .expect("valid test record")
    }

    fn inference_record() -> Value {
        serde_json::from_str(
            r#"{"speedup_batched_vs_per_sample": 0.93, "verdicts_identical": true}"#,
        )
        .expect("valid test record")
    }

    fn serve_record() -> Value {
        serde_json::from_str(
            r#"{"speedup_batched_vs_serial": 1.6, "verdicts_identical": true,
                "cache_identical": true, "degraded_deterministic": true,
                "speedup_shards_vs_one": 1.8, "shard_verdicts_identical": true,
                "host_cores": 4}"#,
        )
        .expect("valid test record")
    }

    fn xai_sched_record() -> Value {
        serde_json::from_str(
            r#"{"speedup_p99_adaptive_vs_full": 4.0, "ba_cost_pts": 0.2,
                "full_pinned_identical": true}"#,
        )
        .expect("valid test record")
    }

    fn swap_record() -> Value {
        serde_json::from_str(
            r#"{"speedup_churn_vs_steady": 0.9,
                "swap_flip_p99_us": 1200.0,
                "dropped_requests": 0, "errored_requests": 0,
                "noop_identical": true, "v1_identical": true,
                "v2_identical": true, "churn_identical": true,
                "cache_generation_isolated": true}"#,
        )
        .expect("valid test record")
    }

    fn drift_record() -> Value {
        serde_json::from_str(
            r#"{"clean_false_trips": 0, "post_swap_false_trips": 0,
                "detector_verdicts_identical": true,
                "detection_verdicts": 40, "detection_headroom": 12.8,
                "detected_within_budget": true,
                "swap_promoted": true, "detector_reset_after_swap": true,
                "post_swap_identical": true,
                "dropped_requests": 0, "errored_requests": 0}"#,
        )
        .expect("valid test record")
    }

    #[test]
    fn identical_records_pass() {
        let base = gemm_record();
        let report = check_gemm(&base, &base, DEFAULT_TOLERANCE);
        assert!(report.passed(), "failures: {:?}", report.failures);
        // 2 flags + 2 speedups for gemm, 1 flag + 1 speedup for training
        assert_eq!(report.checks.len(), 6);
        let base = inference_record();
        let report = check_inference(&base, &base, DEFAULT_TOLERANCE);
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert_eq!(report.checks.len(), 2);
        let base = serve_record();
        let report = check_serve(&base, &base, DEFAULT_TOLERANCE);
        assert!(report.passed(), "failures: {:?}", report.failures);
        // 4 flags + (relative speedup + absolute floor) for both the
        // micro-batching ratio and the shard-scaling ratio
        assert_eq!(report.checks.len(), 8);
        let base = xai_sched_record();
        let report = check_xai_sched(&base, &base, DEFAULT_TOLERANCE);
        assert!(report.passed(), "failures: {:?}", report.failures);
        // 1 flag + relative p99 speedup + absolute floor + BA ceiling
        assert_eq!(report.checks.len(), 4);
        let base = swap_record();
        let report = check_swap(&base, &base, DEFAULT_TOLERANCE);
        assert!(report.passed(), "failures: {:?}", report.failures);
        // 5 flags + 2 zero-counters + flip p99 ceiling
        // + churn ratio (relative + absolute floor)
        assert_eq!(report.checks.len(), 10);
        let base = drift_record();
        let report = check_drift(&base, &base, DEFAULT_TOLERANCE);
        assert!(report.passed(), "failures: {:?}", report.failures);
        // 5 flags + 4 zero-counters + latency budget
        // + headroom (relative + absolute floor)
        assert_eq!(report.checks.len(), 12);
    }

    #[test]
    fn drift_gate_enforces_zero_trips_and_the_detection_budget() {
        // A single false trip on the clean prefix fails regardless of every
        // other metric.
        let mut noisy = drift_record();
        if let Value::Object(pairs) = &mut noisy {
            for (k, v) in pairs.iter_mut() {
                if k == "clean_false_trips" {
                    *v = Value::UInt(1);
                }
            }
        }
        let report = check_drift(&noisy, &noisy, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("clean_false_trips")));

        // Detection past the absolute budget fails even when the baseline
        // was equally slow (headroom below the 1.0 floor trips too).
        let mut slow = drift_record();
        if let Value::Object(pairs) = &mut slow {
            for (k, v) in pairs.iter_mut() {
                if k == "detection_verdicts" {
                    *v = Value::Float(DRIFT_MAX_DETECTION_VERDICTS * 2.0);
                } else if k == "detection_headroom" {
                    *v = Value::Float(0.5);
                }
            }
        }
        let report = check_drift(&slow, &slow, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("detection_latency")));
        assert!(report.failures.iter().any(|f| f.contains("min_headroom")));
    }

    #[test]
    fn swap_gate_enforces_zero_drops_and_its_absolute_floors() {
        // One lost request under churn fails regardless of every ratio.
        let mut lossy = swap_record();
        if let Value::Object(pairs) = &mut lossy {
            for (k, v) in pairs.iter_mut() {
                if k == "dropped_requests" {
                    *v = Value::UInt(1);
                }
            }
        }
        let report = check_swap(&lossy, &lossy, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("dropped_requests")));

        // A flip stall over the ceiling fails even when it matches baseline.
        let mut stalled = swap_record();
        if let Value::Object(pairs) = &mut stalled {
            for (k, v) in pairs.iter_mut() {
                if k == "swap_flip_p99_us" {
                    *v = Value::Float(SWAP_MAX_FLIP_P99_US * 2.0);
                }
            }
        }
        let report = check_swap(&stalled, &stalled, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("flip_p99")));

        // Churn throughput under half of steady fails even with an equally
        // bad baseline (zero downtime must not be bought with throughput).
        let mut slow = swap_record();
        if let Value::Object(pairs) = &mut slow {
            for (k, v) in pairs.iter_mut() {
                if k == "speedup_churn_vs_steady" {
                    *v = Value::Float(0.4);
                }
            }
        }
        let report = check_swap(&slow, &slow, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("min_churn_throughput")));
    }

    #[test]
    fn xai_sched_gate_enforces_its_absolute_floors() {
        // Tail speedup below 2x fails even when it matches the baseline.
        let weak: Value = serde_json::from_str(
            r#"{"speedup_p99_adaptive_vs_full": 1.5, "ba_cost_pts": 0.2,
                "full_pinned_identical": true}"#,
        )
        .unwrap();
        let report = check_xai_sched(&weak, &weak, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("min_p99_speedup")));

        // A balanced-accuracy bill over 0.5 pts fails regardless of speedup.
        let costly: Value = serde_json::from_str(
            r#"{"speedup_p99_adaptive_vs_full": 4.0, "ba_cost_pts": 1.3,
                "full_pinned_identical": true}"#,
        )
        .unwrap();
        let report = check_xai_sched(&costly, &costly, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("ba_cost")));
    }

    #[test]
    fn prepack_sections_pass_clean_and_catch_doctoring() {
        let base = gemm_record_with_prepack();
        let report = check_gemm(&base, &base, DEFAULT_TOLERANCE);
        assert!(report.passed(), "failures: {:?}", report.failures);
        // gemm (1 flag + 1 speedup) + training (1 + 1) + 2 sweep-row flags
        // + sweep aggregate + dense aggregate (relative + absolute)
        // + xai flag + prepack hits + pack elimination (relative + absolute)
        assert_eq!(report.checks.len(), 13);

        // A synthetic wall regression must trip the aggregates and the
        // pack-elimination ratio alongside the plain gemm rows.
        let mut slow = gemm_record_with_prepack();
        scale_speedups(&mut slow, 1.0 / 1.5);
        let report = check_gemm(&base, &slow, DEFAULT_TOLERANCE);
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("prepack/sweep_aggregate")));
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("prepack/dense_aggregate")));
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("pack_bytes_eliminated")));

        // Flipping the verdict flags must trip every prepack_identical row.
        let mut diverged = gemm_record_with_prepack();
        flip_verdict_flags(&mut diverged);
        let report = check_gemm(&base, &diverged, DEFAULT_TOLERANCE);
        let prepack_flag_failures = report
            .failures
            .iter()
            .filter(|f| f.contains("prepack/") && f.contains("divergence"))
            .count();
        assert_eq!(prepack_flag_failures, 3); // two sweep rows + the xai sweep
    }

    #[test]
    fn prepack_gate_enforces_its_absolute_floors() {
        // A dense aggregate below 1.1x fails even when it matches the
        // baseline exactly (the freeze stopped paying for itself).
        let mut weak = gemm_record_with_prepack();
        if let Value::Object(pairs) = &mut weak {
            for (k, v) in pairs.iter_mut() {
                if k == "prepack_dense_aggregate_speedup" {
                    *v = Value::Float(1.05);
                }
            }
        }
        let report = check_gemm(&weak, &weak, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("dense_min_speedup")));

        // Likewise a sweep that stops eliminating pack traffic.
        let mut stale = gemm_record_with_prepack();
        if let Value::Object(pairs) = &mut stale {
            for (k, v) in pairs.iter_mut() {
                if k == "xai_sweep" {
                    if let Value::Object(xai) = v {
                        for (xk, xv) in xai.iter_mut() {
                            if xk == "pack_bytes_eliminated_fraction" {
                                *xv = Value::Float(0.05);
                            }
                        }
                    }
                }
            }
        }
        let report = check_gemm(&stale, &stale, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("min_pack_elimination")));
    }

    #[test]
    fn regression_within_tolerance_passes() {
        let base = gemm_record();
        let mut fresh = gemm_record();
        scale_speedups(&mut fresh, 1.0 / 1.15); // 15 % slower: inside 20 %
        assert!(check_gemm(&base, &fresh, DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn synthetic_regression_fails_the_gate() {
        let base = gemm_record();
        let mut fresh = gemm_record();
        scale_speedups(&mut fresh, 1.0 / 1.5); // 50 % slower: over 20 %
        let report = check_gemm(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(report.failures.len(), 3); // every speedup row trips
        let base = inference_record();
        let mut fresh = inference_record();
        scale_speedups(&mut fresh, 1.0 / 1.5);
        assert!(!check_inference(&base, &fresh, DEFAULT_TOLERANCE).passed());
        let base = serve_record();
        let mut fresh = serve_record();
        scale_speedups(&mut fresh, 1.0 / 1.5);
        assert!(!check_serve(&base, &fresh, DEFAULT_TOLERANCE).passed());
        let base = xai_sched_record();
        let mut fresh = xai_sched_record();
        scale_speedups(&mut fresh, 1.0 / 1.5);
        assert!(!check_xai_sched(&base, &fresh, DEFAULT_TOLERANCE).passed());
        let base = swap_record();
        let mut fresh = swap_record();
        scale_speedups(&mut fresh, 1.0 / 1.5);
        assert!(!check_swap(&base, &fresh, DEFAULT_TOLERANCE).passed());
        let base = drift_record();
        let mut fresh = drift_record();
        scale_speedups(&mut fresh, 1.0 / 1.5);
        assert!(!check_drift(&base, &fresh, DEFAULT_TOLERANCE).passed());
    }

    #[test]
    fn serve_speedup_below_absolute_floor_fails_even_with_a_weak_baseline() {
        // A baseline that itself sits at the floor: a fresh run inside the
        // relative tolerance but below 1.3 must still fail.
        let base: Value = serde_json::from_str(
            r#"{"speedup_batched_vs_serial": 1.35, "verdicts_identical": true,
                "cache_identical": true, "degraded_deterministic": true}"#,
        )
        .unwrap();
        let mut fresh = base.clone();
        scale_speedups(&mut fresh, 1.2 / 1.35); // 1.2: within 20 % of 1.35
        let report = check_serve(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report.failures.iter().any(|f| f.contains("min_speedup")));
    }

    #[test]
    fn verdict_divergence_fails_the_gate() {
        let base = gemm_record();
        let mut fresh = gemm_record();
        flip_verdict_flags(&mut fresh);
        let report = check_gemm(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(report.failures.len(), 3); // every flag row trips
        let base = inference_record();
        let mut fresh = inference_record();
        flip_verdict_flags(&mut fresh);
        let report = check_inference(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(report.failures.len(), 1);
        let base = serve_record();
        let mut fresh = serve_record();
        flip_verdict_flags(&mut fresh);
        let report = check_serve(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(report.failures.len(), 4); // all four serve flags trip
        let base = xai_sched_record();
        let mut fresh = xai_sched_record();
        flip_verdict_flags(&mut fresh);
        let report = check_xai_sched(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(report.failures.len(), 1); // the full-pinned flag trips
        let base = swap_record();
        let mut fresh = swap_record();
        flip_verdict_flags(&mut fresh);
        let report = check_swap(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(report.failures.len(), 5); // all five swap flags trip
        let base = drift_record();
        let mut fresh = drift_record();
        flip_verdict_flags(&mut fresh);
        let report = check_drift(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(report.failures.len(), 5); // all five drift flags trip
    }

    #[test]
    fn shard_scaling_floor_applies_only_on_multicore_hosts() {
        // A single-core host honestly scales at ~1.0; the absolute floor is
        // skipped (and recorded as skipped), the relative gate still runs.
        let single: Value = serde_json::from_str(
            r#"{"speedup_batched_vs_serial": 1.6, "verdicts_identical": true,
                "cache_identical": true, "degraded_deterministic": true,
                "speedup_shards_vs_one": 1.0, "shard_verdicts_identical": true,
                "host_cores": 1}"#,
        )
        .unwrap();
        let report = check_serve(&single, &single, DEFAULT_TOLERANCE);
        assert!(report.passed(), "failures: {:?}", report.failures);
        assert!(report
            .checks
            .iter()
            .any(|c| c.contains("shard_min_scaling") && c.contains("skipped")));

        // The same non-scaling record from a multi-core host must trip the
        // floor even when the baseline is equally bad (relative gate passes).
        let multi: Value = serde_json::from_str(
            r#"{"speedup_batched_vs_serial": 1.6, "verdicts_identical": true,
                "cache_identical": true, "degraded_deterministic": true,
                "speedup_shards_vs_one": 1.0, "shard_verdicts_identical": true,
                "host_cores": 4}"#,
        )
        .unwrap();
        let report = check_serve(&multi, &multi, DEFAULT_TOLERANCE);
        assert!(!report.passed());
        assert!(report
            .failures
            .iter()
            .any(|f| f.contains("shard_min_scaling")));
    }

    #[test]
    fn missing_fresh_rows_fail_the_gate() {
        let base = gemm_record();
        let fresh: Value = serde_json::from_str(r#"{"gemm": [], "training": []}"#).unwrap();
        let report = check_gemm(&base, &fresh, DEFAULT_TOLERANCE);
        assert_eq!(report.failures.len(), 3); // two gemm shapes + one training row
    }

    #[test]
    fn committed_baselines_pass_against_themselves() {
        for name in [
            "bench_gemm.json",
            "bench_inference.json",
            "bench_serve.json",
            "bench_xai_sched.json",
            "bench_swap.json",
            "bench_drift.json",
        ] {
            let path = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/");
            let text = std::fs::read_to_string(format!("{path}{name}"))
                .expect("committed baseline readable");
            let record: Value = serde_json::from_str(&text).expect("baseline parses");
            let report = if name.contains("gemm") {
                check_gemm(&record, &record, DEFAULT_TOLERANCE)
            } else if name.contains("inference") {
                check_inference(&record, &record, DEFAULT_TOLERANCE)
            } else if name.contains("xai_sched") {
                check_xai_sched(&record, &record, DEFAULT_TOLERANCE)
            } else if name.contains("swap") {
                check_swap(&record, &record, DEFAULT_TOLERANCE)
            } else if name.contains("drift") {
                check_drift(&record, &record, DEFAULT_TOLERANCE)
            } else {
                check_serve(&record, &record, DEFAULT_TOLERANCE)
            };
            assert!(report.passed(), "{name} failures: {:?}", report.failures);
        }
    }
}
