//! `bench_xai_sched`: latency/accuracy Pareto sweep for the adaptive XAI
//! budget scheduler (DESIGN.md §6i).
//!
//! The workload is the mislabelled-ensemble stream the paper targets: three
//! MLPs trained on 0 %/30 %/50 % corrupted labels, evaluated over the full
//! test set (unanimous *and* disagreeing inputs, in their natural mix). For
//! every rung of the budget ladder — Skip, Light, Standard, Full pinned —
//! plus the adaptive Fano-triage scheduler, the bench measures:
//!
//! * **per-request latency** of [`Remix::predict`] (p50/p99 over the stream,
//!   best-of-`ROUNDS` per request so scheduler noise doesn't smear the tail),
//! * **balanced accuracy** against the clean test labels (mean per-class
//!   recall; undecided verdicts count as wrong),
//! * the ladder rung's **sweep-unit price** (`Explainer::sweep_units_at`).
//!
//! Two properties are gated by `bench_check` against the committed baseline:
//!
//! * `speedup_p99_adaptive_vs_full` — the adaptive scheduler must cut tail
//!   latency at least [`remix_bench::check::XAI_SCHED_MIN_P99_SPEEDUP`]-fold
//!   versus spending the full budget on every disagreement (within-run
//!   ratio, so the machine constant cancels);
//! * `ba_cost_pts` — the accuracy it pays for that tail must stay within
//!   [`remix_bench::check::XAI_SCHED_MAX_BA_COST_PTS`] balanced-accuracy
//!   points of all-Full;
//!
//! plus `full_pinned_identical`: a Full-pinned scheduler must be
//! byte-identical to the scheduler-less pipeline — the ladder's top rung *is*
//! the historical code path, not an approximation of it.
//!
//! Writes `results/bench_xai_sched.json`.

use remix_bench::harness::{percentile, trained, ZOO, ZOO_NOISE};
use remix_core::{Remix, TriageScheduler};
use remix_ensemble::{Prediction, TrainedEnsemble};
use remix_serve::verdict_fragment;
use remix_tensor::Tensor;
use remix_xai::XaiLevel;
use std::io::Write;
use std::time::Instant;

/// Per-request best-of rounds: the tail must reflect the work level, not a
/// descheduled thread.
const ROUNDS: usize = 3;

/// A production-weight XAI budget (32 SmoothGrad samples, the regime where
/// scheduling pays): the ladder's rungs then cost ~1/4/8/32 sweeps per
/// model, so the latency spread between Light and Full is real work, not
/// fixed pipeline overhead.
fn remix_with(scheduler: Option<TriageScheduler>) -> Remix {
    let config = remix_xai::ExplainerConfig {
        budget: remix_xai::XaiBudget {
            sg_samples: 32,
            ..remix_xai::XaiBudget::default()
        },
        ..remix_xai::ExplainerConfig::default()
    };
    let builder = Remix::builder()
        .seed(11)
        .threads(1)
        .explainer_config(config);
    match scheduler {
        Some(s) => builder.scheduler(s).build(),
        None => builder.build(),
    }
}

/// Mean per-class recall; `Undecided` (safe disengagement) counts as a miss
/// for the class it was supposed to hit.
fn balanced_accuracy(predictions: &[Prediction], labels: &[usize], num_classes: usize) -> f64 {
    let mut hits = vec![0usize; num_classes];
    let mut totals = vec![0usize; num_classes];
    for (pred, &label) in predictions.iter().zip(labels) {
        totals[label] += 1;
        if matches!(pred, Prediction::Decided(c) if *c == label) {
            hits[label] += 1;
        }
    }
    let mut recall_sum = 0.0;
    let mut classes = 0usize;
    for (h, t) in hits.iter().zip(&totals) {
        if *t > 0 {
            recall_sum += *h as f64 / *t as f64;
            classes += 1;
        }
    }
    recall_sum / classes.max(1) as f64
}

/// One sweep of the stream under one scheduling policy: per-request
/// best-of-[`ROUNDS`] latency, verdict fragments (for the bit-identity
/// flag), per-level counts, and predictions (for balanced accuracy).
struct SweepResult {
    latencies_ns: Vec<u64>,
    predictions: Vec<Prediction>,
    fragments: Vec<String>,
    level_counts: [u64; 4],
}

fn sweep(remix: &Remix, ensemble: &mut TrainedEnsemble, images: &[Tensor]) -> SweepResult {
    let mut latencies_ns = vec![u64::MAX; images.len()];
    let mut predictions = Vec::new();
    let mut fragments = Vec::new();
    let mut level_counts = [0u64; 4];
    for round in 0..ROUNDS {
        for (k, image) in images.iter().enumerate() {
            let started = Instant::now();
            let verdict = remix.predict(ensemble, image);
            let elapsed = started.elapsed().as_nanos() as u64;
            latencies_ns[k] = latencies_ns[k].min(elapsed);
            if round == 0 {
                level_counts[verdict.xai_level as usize] += 1;
                predictions.push(verdict.prediction);
                fragments.push(verdict_fragment(&verdict));
            }
        }
    }
    SweepResult {
        latencies_ns,
        predictions,
        fragments,
        level_counts,
    }
}

fn fmt_f(v: f64) -> String {
    format!("{v:.4}")
}

fn main() {
    // `REMIX_SCALE=paper` doubles the stream.
    let (scale_name, test_size) = remix_bench::scale::select(256, 512);
    println!("bench_xai_sched [{scale_name}]: {test_size} requests x {ROUNDS} rounds");

    // The faulty-training-data zoo `bench_serve` serves, keeping the clean
    // test labels for the accuracy axis of the Pareto sweep.
    let (mut ensemble, _, test) = trained(ZOO, ZOO_NOISE, test_size);
    let (images, labels, num_classes) = (test.images, test.labels, test.num_classes);
    let plain = remix_with(None);
    let disagreements = images
        .iter()
        .filter(|image| {
            let outs = ensemble.outputs(image);
            outs.iter().any(|o| o.pred != outs[0].pred)
        })
        .count();
    println!(
        "stream: {} inputs, {} disagreements ({:.0}%), {} classes",
        images.len(),
        disagreements,
        100.0 * disagreements as f64 / images.len() as f64,
        num_classes
    );
    // Triage-signal deciles over the disagreements: where the Fano bound
    // actually lands on this workload, i.e. what the thresholds cut through.
    let mut bounds: Vec<f32> = images
        .iter()
        .filter_map(|image| {
            let outs = ensemble.outputs(image);
            outs.iter()
                .any(|o| o.pred != outs[0].pred)
                .then(|| TriageScheduler::signals(&outs).predicted_error)
        })
        .collect();
    bounds.sort_by(|a, b| a.total_cmp(b));
    let deciles: Vec<String> = (0..=10)
        .map(|d| {
            let idx = ((bounds.len() - 1) * d) / 10;
            format!("{:.2}", bounds[idx])
        })
        .collect();
    println!(
        "predicted-error deciles over disagreements: [{}]",
        deciles.join(", ")
    );

    // The ladder sweep: each pinned rung, then the adaptive scheduler.
    let policies: [(&str, Option<TriageScheduler>); 5] = [
        ("skip", Some(TriageScheduler::pinned(XaiLevel::Skip))),
        ("light", Some(TriageScheduler::pinned(XaiLevel::Light))),
        (
            "standard",
            Some(TriageScheduler::pinned(XaiLevel::Standard)),
        ),
        ("full", Some(TriageScheduler::pinned(XaiLevel::Full))),
        ("adaptive", Some(TriageScheduler::adaptive())),
    ];
    let mut rows = Vec::new();
    let mut p99_by_name = std::collections::BTreeMap::new();
    let mut ba_by_name = std::collections::BTreeMap::new();
    let mut adaptive_levels = [0u64; 4];
    let mut full_fragments = Vec::new();
    for (name, scheduler) in policies {
        let remix = remix_with(scheduler);
        let result = sweep(&remix, &mut ensemble, &images);
        let mut sorted = result.latencies_ns.clone();
        sorted.sort_unstable();
        let p50 = percentile(&sorted, 0.50) as f64 / 1_000.0;
        let p99 = percentile(&sorted, 0.99) as f64 / 1_000.0;
        let ba = balanced_accuracy(&result.predictions, &labels, num_classes);
        let units = match name {
            "adaptive" => None,
            _ => Some(
                remix
                    .explainer()
                    .sweep_units_at(XaiLevel::parse(name).expect("pinned rung name")),
            ),
        };
        println!(
            "{name:>8}: p50 {p50:.1} us, p99 {p99:.1} us, balanced accuracy {:.2}% \
             (levels skip/light/standard/full = {:?})",
            ba * 100.0,
            result.level_counts
        );
        if name == "adaptive" {
            adaptive_levels = result.level_counts;
        }
        if name == "full" {
            full_fragments = result.fragments.clone();
        }
        p99_by_name.insert(name, p99);
        ba_by_name.insert(name, ba);
        rows.push(format!(
            "    {{\"level\": \"{name}\", \"p50_us\": {}, \"p99_us\": {}, \
             \"balanced_accuracy\": {}, \"sweep_units_per_model\": {}, \
             \"levels\": {{\"skip\": {}, \"light\": {}, \"standard\": {}, \"full\": {}}}}}",
            fmt_f(p50),
            fmt_f(p99),
            fmt_f(ba),
            units.map_or("null".into(), |u| u.to_string()),
            result.level_counts[0],
            result.level_counts[1],
            result.level_counts[2],
            result.level_counts[3],
        ));
    }

    // Bit-identity: the Full-pinned rung must reproduce the scheduler-less
    // pipeline byte-for-byte (fragments carry `xai_level`, which is `full`
    // on both sides for disagreements and `skip` on both for unanimity).
    let (mut local, _, _) = trained(ZOO, ZOO_NOISE, test_size);
    let full_pinned_identical = images
        .iter()
        .zip(&full_fragments)
        .all(|(image, fragment)| verdict_fragment(&plain.predict(&mut local, image)) == *fragment);
    println!("full-pinned bit-identity vs unscheduled predict: {full_pinned_identical}");

    let speedup_p99 = p99_by_name["full"] / p99_by_name["adaptive"];
    let ba_cost_pts = (ba_by_name["full"] - ba_by_name["adaptive"]) * 100.0;
    println!(
        "adaptive vs full: p99 speedup {speedup_p99:.2}x, \
         balanced-accuracy cost {ba_cost_pts:.2} pts"
    );

    let record = format!(
        "{{\n  \"benchmark\": \"bench_xai_sched\",\n  \"scale\": \"{}\",\n  \"models\": 3,\n  \"requests\": {},\n  \"rounds\": {ROUNDS},\n  \"num_classes\": {num_classes},\n  \"disagreements\": {disagreements},\n  \"ladder\": [\n{}\n  ],\n  \"adaptive_levels\": {{\"skip\": {}, \"light\": {}, \"standard\": {}, \"full\": {}}},\n  \"balanced_accuracy_full\": {},\n  \"balanced_accuracy_adaptive\": {},\n  \"ba_cost_pts\": {},\n  \"speedup_p99_adaptive_vs_full\": {},\n  \"full_pinned_identical\": {full_pinned_identical}\n}}\n",
        scale_name,
        images.len(),
        rows.join(",\n"),
        adaptive_levels[0],
        adaptive_levels[1],
        adaptive_levels[2],
        adaptive_levels[3],
        fmt_f(ba_by_name["full"]),
        fmt_f(ba_by_name["adaptive"]),
        fmt_f(ba_cost_pts),
        fmt_f(speedup_p99),
    );
    std::fs::create_dir_all("results").expect("create results dir");
    let mut file = std::fs::File::create("results/bench_xai_sched.json")
        .expect("create results/bench_xai_sched.json");
    file.write_all(record.as_bytes())
        .expect("write results/bench_xai_sched.json");
    println!("Record written to results/bench_xai_sched.json");

    assert!(
        full_pinned_identical,
        "Full-pinned verdicts diverged from the scheduler-less pipeline"
    );
}
