//! The traced run: per-layer metrics from timing calls into each layer's
//! public functions.
//!
//! A verdict is decomposed into the public calls `Remix::predict` makes —
//! `TrainedEnsemble::outputs_with_threads`, `TriageScheduler::assess`,
//! `Explainer::explain` per member (with `Remix::xai_rng`), and
//! `Remix::resolve_disagreement` — and the decomposed verdict must match
//! `Remix::predict` byte for byte. The program's own `remix-trace` counters
//! are read around a separate traced `Remix::predict` pass; no span or
//! counter is added inside the program.

use crate::report::{RunReport, Tracer};
use crate::stats::median;
use remix_core::{Remix, RemixVerdict, StageTimings, TriageScheduler};
use remix_drift::{DriftConfig, DriftDetector, VerdictFeatures};
use remix_ensemble::{majority_with_weights, ModelOutput, Prediction, TrainedEnsemble};
use remix_nn::InputSpec;
use remix_registry::{EnsembleArtifact, Registry};
use remix_serve::{content_key, http, protocol, verdict_fragment, VerdictCache};
use remix_tensor::Tensor;
use remix_trace::Counter;
use remix_xai::{XaiBudget, XaiLevel};
use std::path::Path;
use std::time::{Duration, Instant};

/// Per-member metric suffixes: members are named by ensemble position, so
/// the same metric names hold for the conv and the MLP ensembles.
pub const MEMBERS: [&str; 3] = ["m0", "m1", "m2"];

/// Wall time of one public call.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Layer times of one decomposed verdict.
pub struct VerdictTimes {
    pub outputs: Duration,
    pub triage: Option<Duration>,
    /// `(member, time)` for each member explained.
    pub explain: Vec<(usize, Duration)>,
    pub resolve: Option<Duration>,
    /// Wall time of the whole decomposition.
    pub wall: Duration,
}

impl VerdictTimes {
    /// Time covered by the named layer calls.
    pub fn attributed(&self) -> Duration {
        self.outputs
            + self.triage.unwrap_or_default()
            + self.explain.iter().map(|(_, d)| *d).sum::<Duration>()
            + self.resolve.unwrap_or_default()
    }
}

/// Recomputes `remix.predict(ensemble, image)` through the public calls it
/// is made of, recording one span per call under one request id.
pub fn decompose(
    remix: &Remix,
    ensemble: &mut TrainedEnsemble,
    image: &Tensor,
    threads: usize,
    tracer: &mut Tracer,
    request: u64,
) -> (RemixVerdict, VerdictTimes) {
    let start = Instant::now();
    let root = tracer.reserve();
    let (outputs, outputs_time) = timed(|| ensemble.outputs_with_threads(image, threads));
    tracer.record(
        "ensemble.outputs",
        root,
        request,
        start,
        start + outputs_time,
    );
    let mut times = VerdictTimes {
        outputs: outputs_time,
        triage: None,
        explain: Vec::new(),
        resolve: None,
        wall: Duration::ZERO,
    };
    let first = outputs[0].pred;
    let verdict = if remix.fast_path_enabled() && outputs.iter().all(|o| o.pred == first) {
        RemixVerdict {
            prediction: Prediction::Decided(first),
            unanimous: true,
            details: Vec::new(),
            xai_level: XaiLevel::Skip,
            timings: StageTimings::default(),
        }
    } else {
        let level = match remix.scheduler() {
            Some(scheduler) => {
                let t = Instant::now();
                let (level, _) = scheduler.assess(&outputs);
                let d = t.elapsed();
                tracer.record("core.triage", root, request, t, t + d);
                times.triage = Some(d);
                level
            }
            None => XaiLevel::Full,
        };
        if level == XaiLevel::Skip {
            RemixVerdict {
                prediction: majority_with_weights(
                    outputs.iter().map(|o| (o.pred, 1.0)),
                    outputs.len() as f32,
                ),
                unanimous: false,
                details: Vec::new(),
                xai_level: XaiLevel::Skip,
                timings: StageTimings::default(),
            }
        } else {
            let explainer = remix.explainer().at_level(level);
            let mut matrices = Vec::with_capacity(outputs.len());
            for (i, model) in ensemble.models.iter_mut().enumerate() {
                let t = Instant::now();
                let mut rng = remix.xai_rng(&model.name);
                matrices.push(explainer.explain(model, image, outputs[i].pred, &mut rng));
                let d = t.elapsed();
                let name = format!("xai.explain.{}", MEMBERS[i]);
                tracer.record(name, root, request, t, t + d);
                times.explain.push((i, d));
            }
            let t = Instant::now();
            let mut verdict = remix.resolve_disagreement(ensemble, &outputs, &matrices);
            verdict.xai_level = level;
            let d = t.elapsed();
            tracer.record("core.resolve", root, request, t, t + d);
            times.resolve = Some(d);
            verdict
        }
    };
    times.wall = start.elapsed();
    tracer.record_as(root, "verdict", 0, request, start, start + times.wall);
    (verdict, times)
}

/// The bytes a client sends for one `/predict` request, as
/// `remix_serve::Client` writes them.
pub fn request_body(image: &[f32], no_cache: bool) -> String {
    let mut body = String::from("{\"image\":[");
    for (i, f) in image.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str(&f.to_string());
    }
    body.push(']');
    if no_cache {
        body.push_str(",\"no_cache\":true");
    }
    body.push('}');
    body
}

fn drift_features(verdict: &RemixVerdict, outputs: &[ModelOutput]) -> VerdictFeatures {
    if verdict.unanimous {
        return VerdictFeatures::unanimous();
    }
    let signals = TriageScheduler::signals(outputs);
    let rung = XaiLevel::LADDER
        .iter()
        .position(|l| *l == verdict.xai_level)
        .unwrap_or(0) as u8;
    VerdictFeatures {
        disagreement: true,
        margin: Some(signals.margin),
        entropy: Some(signals.entropy),
        weight_spread: (rung > 0).then(|| verdict.weight_spread()),
        xai_rung: rung,
        degraded: false,
        downgraded: false,
    }
}

/// Publishes `ensemble` to a throwaway registry under `dir` and loads it
/// back (decode + integrity verify) into a copy of its structure. Returns
/// the loaded ensemble, its artifact hash, and the publish and load times.
pub fn registry_roundtrip(
    ensemble: &mut TrainedEnsemble,
    spec: InputSpec,
    budget: XaiBudget,
    dir: &Path,
) -> (TrainedEnsemble, u64, Duration, Duration) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the throwaway registry directory");
    let registry = Registry::open(dir);
    let archs: Vec<String> = ensemble.models.iter().map(|m| m.name.clone()).collect();
    let weights = vec![1.0f32; archs.len()];
    let (info, publish) = timed(|| {
        let artifact =
            EnsembleArtifact::capture("bench", "1.0.0", spec, ensemble, archs, weights, budget);
        registry
            .publish(&artifact)
            .expect("publish to the throwaway registry")
    });
    let (loaded, load) = timed(|| {
        registry
            .load(&info.name, None)
            .expect("load from the throwaway registry")
    });
    let mut copy = ensemble.clone();
    loaded
        .artifact
        .apply_to(&mut copy)
        .expect("the loaded artifact fits the ensemble it was captured from");
    (copy, loaded.hash, publish, load)
}

/// Everything the traced run needs from a workload.
pub struct LayerRun<'a> {
    pub remix: &'a Remix,
    pub ensemble: &'a mut TrainedEnsemble,
    /// Workload inputs in stream order.
    pub images: Vec<&'a Tensor>,
    pub spec: InputSpec,
    pub threads: usize,
    /// How long the decomposition loop runs.
    pub budget: Duration,
    /// Per-member training time and data/freeze time from set-up.
    pub train: Vec<Duration>,
    pub data: Duration,
    pub freeze: Duration,
    pub registry_dir: &'a Path,
}

/// Times every layer on the workload's inputs and appends the per-layer
/// metrics (in the order `BENCHMARK.json` lists them) to `report`.
/// Returns the median in-process compute per input (µs), keyed by position
/// in `images`, for the serve hand-off replay.
pub fn run(run: LayerRun<'_>, report: &mut RunReport, tracer: &mut Tracer) -> Vec<f64> {
    let LayerRun {
        remix,
        ensemble,
        images,
        spec,
        threads,
        budget,
        train,
        data,
        freeze,
        registry_dir,
    } = run;
    let members = ensemble.models.len();
    assert_eq!(
        members,
        MEMBERS.len(),
        "the benchmark ensembles have 3 members"
    );

    // 1. Verdict decomposition, an untraced and a traced Remix::predict on
    //    each input, until the budget is spent (every input at least once
    //    when the pool is small).
    let mut outputs_ms = Vec::new();
    let mut triage_us = Vec::new();
    let mut resolve_us = Vec::new();
    let mut explain_ms: Vec<Vec<f64>> = vec![Vec::new(); members];
    let mut predict_ms = Vec::new();
    let (mut untraced_wall, mut traced_wall) = (Duration::ZERO, Duration::ZERO);
    let (mut attributed, mut decomposed_wall) = (Duration::ZERO, Duration::ZERO);
    let mut verdicts: Vec<(RemixVerdict, Vec<ModelOutput>)> = Vec::new();
    let mut compute_us = vec![f64::NAN; images.len()];
    let mut level_counts = [0u64; 4];
    let mut mismatched = 0u64;
    let was_enabled = remix_trace::enabled();
    remix_trace::reset();
    let (mut macs, mut pack_bytes, mut prepack_hits, mut perturbations, mut batches) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let started = Instant::now();
    let min_inputs = images.len().min(24);
    let mut n = 0usize;
    while n < images.len() && (n < min_inputs || started.elapsed() < budget) {
        let image = images[n];
        remix_trace::set_enabled(false);
        let (reference, d) = timed(|| remix.predict(ensemble, image));
        untraced_wall += d;
        predict_ms.push(ms(d));
        let before = Counter::ALL.map(remix_trace::counter);
        remix_trace::set_enabled(true);
        let (_, d) = timed(|| remix.predict(ensemble, image));
        remix_trace::set_enabled(false);
        traced_wall += d;
        let delta = |c: Counter| remix_trace::counter(c) - before[c as usize];
        macs += delta(Counter::GemmMacs);
        pack_bytes += delta(Counter::GemmPackBytes);
        prepack_hits += delta(Counter::PrepackHits);
        perturbations += delta(Counter::XaiPerturbations);
        batches += delta(Counter::XaiBatches);

        let (verdict, times) = decompose(remix, ensemble, image, threads, tracer, n as u64 + 1);
        if verdict_fragment(&verdict) != verdict_fragment(&reference) {
            mismatched += 1;
        }
        outputs_ms.push(ms(times.outputs));
        if let Some(d) = times.triage {
            triage_us.push(us(d));
        }
        if let Some(d) = times.resolve {
            resolve_us.push(us(d));
        }
        for &(i, d) in &times.explain {
            explain_ms[i].push(ms(d));
        }
        attributed += times.attributed();
        decomposed_wall += times.wall;
        compute_us[n] = us(times.wall);
        level_counts[XaiLevel::LADDER
            .iter()
            .position(|l| *l == verdict.xai_level)
            .unwrap_or(0)] += 1;
        let outputs = ensemble.outputs_with_threads(image, threads);
        verdicts.push((verdict, outputs));
        n += 1;
    }
    let program_gemm_ns = gemm_span_ns(&remix_trace::snapshot().spans);
    remix_trace::set_enabled(was_enabled);
    report.attempted += n as u64;
    report.failed += mismatched;
    report.mismatched += mismatched;
    let verdict_count = n as f64;
    let disagreements = verdicts.iter().filter(|(v, _)| !v.unanimous).count();

    // 2. The nn layer at the XAI batch width, per member.
    let budget_cfg = remix.explainer().config.budget;
    let width = budget_cfg
        .sg_samples
        .min(budget_cfg.effective_batch_size())
        .max(1);
    let batch: Vec<Tensor> = (0..width)
        .map(|j| images[j % images.len()].clone())
        .collect();
    let mut forward_ms = Vec::new();
    let mut grad_ms = Vec::new();
    for model in &mut ensemble.models {
        let probs = model
            .predict_proba_batch(&batch)
            .expect("batch matches the model's input spec");
        let classes: Vec<usize> = probs
            .iter()
            .map(|p| p.argmax().expect("non-empty probabilities"))
            .collect();
        let reps = 15;
        let f: Vec<f64> = (0..reps)
            .map(|_| ms(timed(|| model.predict_proba_batch(&batch)).1))
            .collect();
        let g: Vec<f64> = (0..reps)
            .map(|_| ms(timed(|| model.input_gradient_batch(&batch, &classes)).1))
            .collect();
        forward_ms.push(median(&f));
        grad_ms.push(median(&g));
    }
    for (i, name) in MEMBERS.iter().enumerate() {
        report.metric(format!("nn.forward_ms.{name}"), forward_ms[i], "ms");
    }
    for (i, name) in MEMBERS.iter().enumerate() {
        report.metric(format!("nn.input_grad_ms.{name}"), grad_ms[i], "ms");
    }
    for (i, name) in MEMBERS.iter().enumerate() {
        report.metric(format!("nn.train_s.{name}"), train[i].as_secs_f64(), "s");
    }

    // 3. tensor: exact GEMM counts per verdict, achieved rate under the
    //    program's own `gemm` spans.
    report.metric(
        "tensor.gemm_macs_per_verdict",
        macs as f64 / verdict_count,
        "count",
    );
    report.metric(
        "tensor.gemm_pack_bytes_per_verdict",
        pack_bytes as f64 / verdict_count,
        "bytes",
    );
    report.metric(
        "tensor.prepack_hits_per_verdict",
        prepack_hits as f64 / verdict_count,
        "count",
    );
    report.metric(
        "tensor.gemm_gmacs",
        if program_gemm_ns > 0 {
            macs as f64 / program_gemm_ns as f64
        } else {
            0.0
        },
        "GMAC/s",
    );

    // 4. xai
    for (i, name) in MEMBERS.iter().enumerate() {
        let v = if explain_ms[i].is_empty() {
            0.0
        } else {
            median(&explain_ms[i])
        };
        report.metric(format!("xai.explain_ms.{name}"), v, "ms");
    }
    report.metric(
        "xai.perturbations_per_verdict",
        perturbations as f64 / verdict_count,
        "count",
    );
    report.metric(
        "xai.batches_per_verdict",
        batches as f64 / verdict_count,
        "count",
    );

    // 5. ensemble and core
    report.metric("ensemble.outputs_ms", median(&outputs_ms), "ms");
    report.metric("core.predict_ms", median(&predict_ms), "ms");
    report.metric("core.resolve_us", median_or_zero(&resolve_us), "us");
    report.metric(
        "core.disagreement_share",
        disagreements as f64 / verdict_count,
        "ratio",
    );
    // Measured only where the workload exercises them, so they are not
    // result-line metrics: triage needs a scheduler, and a path or XAI
    // level the workload's verdicts never take is left out.
    if !triage_us.is_empty() {
        report.extra("core.triage_us", median(&triage_us), "us");
    }
    let unanimous = verdicts.iter().filter(|(v, _)| v.unanimous).count();
    if unanimous > 0 {
        report.extra(
            "core.fast_path_share",
            unanimous as f64 / verdict_count,
            "ratio",
        );
    }
    for (level, count) in XaiLevel::LADDER.iter().zip(level_counts) {
        if count > 0 {
            report.extra(
                format!("core.xai_level_share.{}", level.as_str()),
                count as f64 / verdict_count,
                "ratio",
            );
        }
    }

    // 6. serve front door, protocol and cache functions on this workload's
    //    inputs and verdicts.
    let mut http_parse = Vec::new();
    let mut http_render = Vec::new();
    let mut proto_parse = Vec::new();
    let mut proto_render = Vec::new();
    let mut key_us = Vec::new();
    let mut get_us = Vec::new();
    let mut insert_us = Vec::new();
    let cache = VerdictCache::new(verdicts.len().max(1), 8);
    const REPS: u32 = 8;
    let per_call = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        for _ in 0..REPS {
            f();
        }
        us(t.elapsed()) / f64::from(REPS)
    };
    for (j, (verdict, _)) in verdicts.iter().enumerate() {
        let pixels = images[j].data();
        let body = request_body(pixels, false);
        let wire = format!(
            "POST /predict HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        http_parse.push(per_call(&mut || {
            std::hint::black_box(
                http::try_parse_request(std::hint::black_box(wire.as_bytes())).ok(),
            );
        }));
        proto_parse.push(per_call(&mut || {
            std::hint::black_box(
                protocol::parse_predict(std::hint::black_box(body.as_bytes())).ok(),
            );
        }));
        let mut envelope = String::new();
        proto_render.push(per_call(&mut || {
            let fragment = verdict_fragment(std::hint::black_box(verdict));
            envelope = protocol::envelope(&fragment, false, 1000);
        }));
        http_render.push(per_call(&mut || {
            std::hint::black_box(http::render_response(200, &envelope, false));
        }));
        let mut key = 0;
        key_us.push(per_call(&mut || {
            key = content_key(std::hint::black_box(pixels))
        }));
        let fragment: std::sync::Arc<str> = verdict_fragment(verdict).into();
        let (_, d) = timed(|| cache.insert(key, pixels, fragment));
        insert_us.push(us(d));
        get_us.push(per_call(&mut || {
            std::hint::black_box(cache.get(key, pixels));
        }));
    }
    report.metric("serve.http.parse_us", median(&http_parse), "us");
    report.metric("serve.http.render_us", median(&http_render), "us");
    report.metric("serve.protocol.parse_us", median(&proto_parse), "us");
    report.metric("serve.protocol.render_us", median(&proto_render), "us");
    report.metric("serve.cache.key_us", median(&key_us), "us");
    report.metric("serve.cache.get_us", median(&get_us), "us");
    report.metric("serve.cache.insert_us", median(&insert_us), "us");

    // 7. drift: the detector folding this workload's verdict features.
    let mut detector = DriftDetector::new(DriftConfig::default());
    let mut observe_us = Vec::new();
    for _ in 0..4 {
        for (verdict, outputs) in &verdicts {
            let features = drift_features(verdict, outputs);
            observe_us.push(us(timed(|| detector.observe(&features)).1));
        }
    }
    report.metric("drift.observe_us", median(&observe_us), "us");

    // 8. registry round trip of this workload's ensemble.
    let (_, _, publish, load) = registry_roundtrip(ensemble, spec, budget_cfg, registry_dir);
    let _ = std::fs::remove_dir_all(registry_dir);
    report.metric("registry.publish_ms", ms(publish), "ms");
    report.metric("registry.load_ms", ms(load), "ms");

    // 9. set-up layers and the trace's own accounting.
    report.metric("setup.data_s", data.as_secs_f64(), "s");
    report.metric("setup.freeze_ms", ms(freeze), "ms");
    report.metric(
        "trace.unattributed_share",
        1.0 - attributed.as_secs_f64() / decomposed_wall.as_secs_f64(),
        "ratio",
    );
    // A ratio around 1 (1.02 = tracing costs 2 %), never a difference
    // around 0, so that relative comparisons against it mean something.
    report.metric(
        "trace.overhead_share",
        traced_wall.as_secs_f64() / untraced_wall.as_secs_f64(),
        "ratio",
    );
    report.property("traced.verdicts", n);
    report.property("traced.decomposition_mismatches", mismatched);
    report.property("traced.xai_batch_width", width);
    compute_us
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

/// Summed time of the program's `gemm` spans anywhere in the span tree.
fn gemm_span_ns(nodes: &[remix_trace::SpanNode]) -> u64 {
    nodes
        .iter()
        .map(|n| {
            if n.name == "gemm" {
                n.total_ns
            } else {
                gemm_span_ns(&n.children)
            }
        })
        .sum()
}
