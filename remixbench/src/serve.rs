//! `serve-disagree` and `serve-mixed`: open-loop HTTP load against an
//! in-process `remix-serve` server hosting a 3-MLP tabular ensemble.
//!
//! * `serve-disagree` — `Server::start`, a request pool of disagreement
//!   inputs only, `no_cache` on every request and a long deadline: every
//!   request pays the prediction sweep, XAI and resolution, and the front
//!   door, batch window and hand-offs are a large share of its latency.
//! * `serve-mixed` — the ensemble is published to and loaded from a
//!   throwaway `remix-registry` and served by `Server::start_models` with an
//!   adaptive `TriageScheduler`, drift detection in observe mode, the
//!   verdict cache on and the default deadline. Traffic is a Zipf-like
//!   stream over every test input: cache hits, the inserts misses cause,
//!   the unanimous fast path and triaged disagreements.
//!
//! Every served verdict fragment is compared byte for byte with
//! `Remix::predict` on a local replica built during set-up (untimed);
//! cache hits must replay those same bytes, and deadline fallbacks must
//! equal the majority-vote fragment.

use crate::layers::{self, LayerRun};
use crate::loadgen::{self, Outcome, Plan, Reply, Rounds};
use crate::report::{RunReport, Tracer};
use crate::stats::median;
use crate::{common_metrics, nproc, phase_properties, Args};
use rand::{rngs::StdRng, Rng, SeedableRng};
use remix_core::{Remix, TriageScheduler};
use remix_data::{Dataset, SyntheticSpec};
use remix_ensemble::metrics::balanced_accuracy;
use remix_ensemble::{majority_with_weights, TrainedEnsemble};
use remix_nn::layers::{Dense, Flatten, Relu};
use remix_nn::{InputSpec, Model, Sequential, Trainer, TrainerConfig};
use remix_registry::Registry;
use remix_serve::{
    degraded_fragment, verdict_fragment, Client, DriftConfig, NamedModel, ServeConfig, Server,
    StatsSnapshot,
};
use remix_xai::{ExplainerConfig, XaiBudget};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Disagree,
    Mixed,
}

/// Counts pinned so the host cannot change them.
pub const SHARDS: usize = 1;
pub const XAI_THREADS: usize = 1;
/// The `max_batch = 0` derivation (the XAI sweep width, 64), pinned.
pub const MAX_BATCH: usize = 64;
/// `serve-mixed` verdict-cache capacity: three quarters of the 2048 inputs,
/// so the skewed stream keeps missing and inserting (about one request in
/// fourteen). A miss holds its connection about 1 ms, five times a hit, and
/// the requests due behind it on that connection wait. At 1024 entries one
/// request in eight missed, misses and the requests queued behind them came
/// close to a quarter, and the p75 flipped between hit and miss latency
/// from run to run.
pub const MIXED_CACHE_CAPACITY: usize = 1536;
const LONG_DEADLINE_MS: u64 = 60_000;
const TRAIN_SIZE: usize = 400;
const TEST_SIZE: usize = 2048;
const ZIPF_EXPONENT: f64 = 1.0;
const WARMUP_REQUESTS: usize = 64;
/// Set-ups, and measuring rounds, per run; `setup_s` is their median.
const ROUNDS: usize = 5;
/// Requests of each round's closed loop and light and heavy steps, and of
/// each `slo_rps` probe: 110 leave 27 beyond the p75.
const MIN_REQUESTS: u64 = 110;
const STREAM_SALT: u64 = 0x7365_7276_6531;

/// Fixed load plans; see `BENCHMARK.json` and the README.
const DISAGREE: Rates = Rates {
    light_rps: 300.0,
    heavy_rps: 500.0,
    limit_ms: 10.0,
    ceiling_rps: 1800.0,
};
/// With at most two connections a 1 ms miss holds up the requests due
/// behind it on its connection; at 2000/s those were a quarter of all
/// requests and the p75 measured that queueing. At 400/s the server idled
/// between requests and the p75 swung with how fast its threads woke.
const MIXED: Rates = Rates {
    light_rps: 800.0,
    heavy_rps: 1200.0,
    limit_ms: 10.0,
    ceiling_rps: 16000.0,
};

struct Rates {
    light_rps: f64,
    heavy_rps: f64,
    limit_ms: f64,
    ceiling_rps: f64,
}

/// Hidden widths and label-noise fraction of the three members: the same
/// MLPs trained on increasingly mislabelled labels, so they disagree.
const MEMBERS: [(&str, &[usize], f32); 3] = [
    ("MLP-wide", &[128], 0.0),
    ("MLP-deep", &[96, 64], 0.3),
    ("MLP-drop", &[96], 0.5),
];

fn remix(kind: Kind) -> Remix {
    let config = ExplainerConfig {
        budget: XaiBudget {
            sg_samples: 8,
            batch_size: 64,
            ..XaiBudget::default()
        },
        ..ExplainerConfig::default()
    };
    let builder = Remix::builder()
        .seed(11)
        .threads(XAI_THREADS)
        .explainer_config(config);
    match kind {
        Kind::Disagree => builder.build(),
        Kind::Mixed => builder.scheduler(TriageScheduler::adaptive()).build(),
    }
}

fn serve_config(kind: Kind) -> ServeConfig {
    ServeConfig {
        max_batch: MAX_BATCH,
        shards: SHARDS,
        cache_capacity: match kind {
            Kind::Disagree => ServeConfig::default().cache_capacity,
            Kind::Mixed => MIXED_CACHE_CAPACITY,
        },
        drift: (kind == Kind::Mixed).then(DriftConfig::default),
        ..ServeConfig::default()
    }
}

fn corrupt_labels(labels: &[usize], num_classes: usize, fraction: f32, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    labels
        .iter()
        .map(|&label| {
            if rng.gen::<f32>() < fraction {
                rng.gen_range(0..num_classes)
            } else {
                label
            }
        })
        .collect()
}

fn member(spec: InputSpec, index: usize) -> Model {
    let (name, hidden, _) = MEMBERS[index];
    let mut init = StdRng::seed_from_u64(index as u64 + 1);
    let mut net = Sequential::new();
    net.push(Flatten::new());
    let mut dim = spec.channels * spec.size * spec.size;
    for &h in hidden {
        net.push(Dense::new(dim, h, &mut init));
        net.push(Relu::new());
        dim = h;
    }
    net.push(Dense::new(dim, spec.num_classes, &mut init));
    Model::named(net, spec, name)
}

struct Setup {
    server: Server,
    replica: TrainedEnsemble,
    test: Dataset,
    spec: InputSpec,
    data: Duration,
    train: Vec<Duration>,
    freeze: Duration,
    publish: Option<Duration>,
    load: Option<Duration>,
}

/// Data, training, (registry publish + load), server start and warm-up:
/// what `setup_s` times. The replica is a copy of the served ensemble.
fn set_up(kind: Kind, remix: &Remix, registry_dir: &Path) -> Setup {
    let t = Instant::now();
    let (train, test) = SyntheticSpec::tabular_like()
        .train_size(TRAIN_SIZE)
        .test_size(TEST_SIZE)
        .generate();
    let labels: Vec<Vec<usize>> = MEMBERS
        .iter()
        .enumerate()
        .map(|(i, (_, _, noise))| {
            corrupt_labels(&train.labels, train.num_classes, *noise, 70 + i as u64)
        })
        .collect();
    let data = t.elapsed();
    let spec = InputSpec {
        channels: train.channels,
        size: train.size,
        num_classes: train.num_classes,
    };
    let mut train_times = Vec::new();
    let models = (0..MEMBERS.len())
        .map(|i| {
            let t = Instant::now();
            let mut model = member(spec, i);
            Trainer::new(TrainerConfig {
                epochs: 8,
                lr: 0.03,
                seed: i as u64,
                ..TrainerConfig::default()
            })
            .fit(&mut model, &train.images, &labels[i]);
            train_times.push(t.elapsed());
            model
        })
        .collect();
    let mut ensemble = TrainedEnsemble::new(models);
    let budget = remix.explainer().config.budget;
    let (server, served, publish, load) = match kind {
        Kind::Disagree => {
            let server = Server::start(ensemble.clone(), remix.clone(), serve_config(kind))
                .expect("start the benchmark server");
            (server, ensemble, None, None)
        }
        Kind::Mixed => {
            let (loaded, hash, publish, load) =
                layers::registry_roundtrip(&mut ensemble, spec, budget, registry_dir);
            let server = Server::start_models(
                vec![NamedModel {
                    name: "bench".to_string(),
                    version: "1.0.0".to_string(),
                    hash,
                    ensemble: loaded.clone(),
                }],
                Some(Registry::open(registry_dir)),
                remix.clone(),
                serve_config(kind),
            )
            .expect("start the benchmark server");
            (server, loaded, Some(publish), Some(load))
        }
    };
    let mut replica = served;
    let t = Instant::now();
    remix.prepare_ensemble(&mut replica);
    let freeze = t.elapsed();
    let mut client = Client::connect(server.addr()).expect("connect for warm-up");
    for image in test.images.iter().take(WARMUP_REQUESTS) {
        client
            .predict(image.data(), Some(LONG_DEADLINE_MS), true)
            .expect("warm-up request");
    }
    Setup {
        server,
        replica,
        test,
        spec,
        data,
        train: train_times,
        freeze,
        publish,
        load,
    }
}

/// Reference bytes for every pool input, from the local replica.
struct Pool {
    /// Test-set index of each pool input.
    items: Vec<usize>,
    pixels: Vec<Vec<f32>>,
    reference: Vec<String>,
    degraded: Vec<Option<String>>,
    unanimous: Vec<bool>,
    balanced_accuracy: f64,
}

fn pool(kind: Kind, remix: &Remix, replica: &mut TrainedEnsemble, test: &Dataset) -> Pool {
    let mut p = Pool {
        items: Vec::new(),
        pixels: Vec::new(),
        reference: Vec::new(),
        degraded: Vec::new(),
        unanimous: Vec::new(),
        balanced_accuracy: 0.0,
    };
    let mut preds = Vec::new();
    let mut labels = Vec::new();
    for (i, image) in test.images.iter().enumerate() {
        let outputs = replica.outputs(image);
        let unanimous = outputs.iter().all(|o| o.pred == outputs[0].pred);
        if kind == Kind::Disagree && unanimous {
            continue;
        }
        let verdict = remix.predict(replica, image);
        p.items.push(i);
        p.pixels.push(image.data().to_vec());
        p.reference.push(verdict_fragment(&verdict));
        p.degraded.push((!unanimous).then(|| {
            degraded_fragment(&majority_with_weights(
                outputs.iter().map(|o| (o.pred, 1.0)),
                outputs.len() as f32,
            ))
        }));
        p.unanimous.push(unanimous);
        preds.push(verdict.prediction);
        labels.push(test.labels[i]);
    }
    p.balanced_accuracy = f64::from(balanced_accuracy(&preds, &labels, test.num_classes));
    p
}

/// `(pool input, server latency in µs, cached)` of each served request.
type ServedLog = Mutex<Vec<(usize, f64, bool)>>;

/// One load-generator connection; call `i` carries stream position
/// `offset + i`. Served items are appended to `served` when given.
fn http_worker<'a>(
    addr: SocketAddr,
    kind: Kind,
    pool: &'a Pool,
    stream: &'a [usize],
    offset: u64,
    served: Option<&'a ServedLog>,
) -> impl FnMut(u64) -> Reply + Send + 'a {
    let mut client = Client::connect(addr).ok();
    let (deadline, no_cache) = match kind {
        Kind::Disagree => (Some(LONG_DEADLINE_MS), true),
        Kind::Mixed => (None, false),
    };
    move |i| {
        let k = stream[(offset + i) as usize % stream.len()];
        if client.is_none() {
            client = Client::connect(addr).ok();
        }
        let Some(c) = client.as_mut() else {
            return Reply::local(Outcome::Failed);
        };
        match c.predict(&pool.pixels[k], deadline, no_cache) {
            Ok(r) if r.status == 200 => {
                let outcome = if r.verdict_json == pool.reference[k] {
                    Outcome::Ok
                } else if r.degraded && pool.degraded[k].as_deref() == Some(&r.verdict_json) {
                    Outcome::Degraded
                } else {
                    Outcome::Mismatch
                };
                if let Some(served) = served {
                    served.lock().expect("served log is never poisoned").push((
                        k,
                        r.latency_us as f64,
                        r.cached,
                    ));
                }
                Reply {
                    outcome,
                    cached: r.cached,
                    server_us: Some(r.latency_us as f64),
                }
            }
            Ok(_) => Reply::local(Outcome::Failed),
            Err(_) => {
                client = None;
                Reply::local(Outcome::Failed)
            }
        }
    }
}

/// Server counters accumulated over the measured stretches of a run.
#[derive(Debug, Default)]
struct Served {
    requests: u64,
    cache_hits: u64,
    shed: u64,
    degraded: u64,
    batches: u64,
    batched_requests: u64,
    levels: [u64; 4],
    downgraded: u64,
    drift_alerts: u64,
}

impl Served {
    fn add(&mut self, after: &StatsSnapshot, before: &StatsSnapshot) {
        self.requests += after.requests - before.requests;
        self.cache_hits += after.cache_hits - before.cache_hits;
        self.shed += after.shed - before.shed;
        self.degraded += after.degraded - before.degraded;
        self.batches += after.batches - before.batches;
        self.batched_requests += after.batched_requests - before.batched_requests;
        self.levels[0] += after.xai_skip - before.xai_skip;
        self.levels[1] += after.xai_light - before.xai_light;
        self.levels[2] += after.xai_standard - before.xai_standard;
        self.levels[3] += after.xai_full - before.xai_full;
        self.downgraded += after.downgraded - before.downgraded;
        self.drift_alerts += after.drift_alerts - before.drift_alerts;
    }

    fn hit_share(&self) -> f64 {
        self.cache_hits as f64 / self.requests.max(1) as f64
    }

    fn occupancy(&self) -> f64 {
        self.batched_requests as f64 / self.batches.max(1) as f64
    }

    fn report(&self, report: &mut RunReport, workers: usize) {
        report.property("server.requests", self.requests);
        report.property("cache_hit_share", self.hit_share());
        let [skip, light, standard, full] = self.levels;
        report.property(
            "xai_level_mix",
            format!("skip={skip} light={light} standard={standard} full={full} (verdicts the engine produced, cache hits not counted; unanimous and triage-skipped inputs are skip)"),
        );
        report.property(
            "batch_occupancy",
            format!(
                "{:.3} (batched_requests / batches; at most {workers}, the load generator's connections)",
                self.occupancy()
            ),
        );
        report.property("server.shed", self.shed);
        report.property("server.degraded", self.degraded);
        report.property("server.downgraded", self.downgraded);
        report.property("server.drift_alerts", self.drift_alerts);
    }
}

pub fn run(kind: Kind, args: &Args, report: &mut RunReport, tracer: &mut Tracer) {
    let remix = remix(kind);
    let registry_dir = crate::out_dir().join(format!("registry-{}", std::process::id()));
    let rates = match kind {
        Kind::Disagree => DISAGREE,
        Kind::Mixed => MIXED,
    };
    let workers = nproc().min(2);
    report.property("pinned.shards", SHARDS);
    report.property("pinned.max_batch", MAX_BATCH);
    report.property("pinned.xai_threads", XAI_THREADS);
    report.property(
        "pinned.batch_window_us",
        serve_config(kind).batch_window.as_micros(),
    );
    report.property("pinned.cache_capacity", serve_config(kind).cache_capacity);
    report.property("pinned.loadgen_workers", workers);
    let plan = Plan {
        seconds: args.seconds,
        light_rps: rates.light_rps,
        heavy_rps: rates.heavy_rps,
        limit_ms: rates.limit_ms,
        ceiling_rps: rates.ceiling_rps,
        workers,
        min_requests: MIN_REQUESTS,
    };
    let seed = args.seed ^ STREAM_SALT;
    let make_stream = |pool: &Pool| match kind {
        Kind::Disagree => crate::stream::permutation_stream(pool.items.len(), 1 << 16, seed),
        Kind::Mixed => crate::stream::zipf_stream(pool.items.len(), ZIPF_EXPONENT, 1 << 17, seed),
    };

    if args.trace {
        let mut setup = set_up(kind, &remix, &registry_dir);
        let pool = pool(kind, &remix, &mut setup.replica, &setup.test);
        let stream = make_stream(&pool);
        report.property("pool.inputs", pool.items.len());
        trace_run(
            kind, args, &remix, &mut setup, &pool, &stream, &plan, report, tracer,
        );
        setup.server.shutdown();
        let _ = std::fs::remove_dir_all(&registry_dir);
        return;
    }

    // Each round starts a fresh server from a fresh set-up (timed: `setup_s`
    // is the median) and measures its share of every phase against it. The
    // references come from the first round's replica; later rounds' servers
    // must reproduce them, which also checks that set-up is deterministic.
    let mut rounds = Rounds::new(&plan, ROUNDS);
    let mut setup_s = Vec::new();
    let mut served = Served::default();
    let mut reference: Option<(Pool, Vec<usize>)> = None;
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let mut setup = set_up(kind, &remix, &registry_dir);
        setup_s.push(t.elapsed().as_secs_f64());
        if let (Some(p), Some(l)) = (setup.publish, setup.load) {
            report.property(
                "setup.registry_publish_ms",
                format!("{:.3}", p.as_secs_f64() * 1e3),
            );
            report.property(
                "setup.registry_load_ms",
                format!("{:.3}", l.as_secs_f64() * 1e3),
            );
        }
        let (pool, stream) = reference.get_or_insert_with(|| {
            let pool = pool(kind, &remix, &mut setup.replica, &setup.test);
            let stream = make_stream(&pool);
            (pool, stream)
        });
        let addr = setup.server.addr();
        let before = setup.server.stats();
        rounds.round(|_, offset| http_worker(addr, kind, pool, stream, offset, None));
        served.add(&setup.server.stats(), &before);
        setup.server.shutdown();
    }
    let _ = std::fs::remove_dir_all(&registry_dir);
    let phases = rounds.finish();
    let (pool, stream) = reference.expect("at least one round");
    let sent: u64 = phases.steps().map(|(_, s)| s.sent).sum();
    let unanimous = (0..sent)
        .filter(|&i| pool.unanimous[stream[i as usize % stream.len()]])
        .count();
    report.property("pool.inputs", pool.items.len());
    report.property(
        "setup_s.samples",
        format!(
            "{:?}",
            setup_s
                .iter()
                .map(|s| (s * 1e3).round() / 1e3)
                .collect::<Vec<_>>()
        ),
    );
    report.property("disagreement_share", 1.0 - unanimous as f64 / sent as f64);
    report.property("fast_path_share", unanimous as f64 / sent as f64);
    served.report(report, workers);
    report.property("balanced_accuracy.inputs", pool.items.len());
    phase_properties(report, &plan, &phases);
    common_metrics(report, &plan, &phases, &setup_s, pool.balanced_accuracy);
}

#[allow(clippy::too_many_arguments)]
fn trace_run(
    kind: Kind,
    args: &Args,
    remix: &Remix,
    setup: &mut Setup,
    pool: &Pool,
    stream: &[usize],
    plan: &Plan,
    report: &mut RunReport,
    tracer: &mut Tracer,
) {
    let images = stream
        .iter()
        .map(|&k| &setup.test.images[pool.items[k]])
        .collect();
    let layer_dir = crate::out_dir().join(format!("registry-layers-{}", std::process::id()));
    let compute_us = layers::run(
        LayerRun {
            remix,
            ensemble: &mut setup.replica,
            images,
            spec: setup.spec,
            threads: XAI_THREADS,
            budget: Duration::from_secs_f64(args.seconds * 0.6),
            train: setup.train.clone(),
            data: setup.data,
            freeze: setup.freeze,
            registry_dir: &layer_dir,
        },
        report,
        tracer,
    );
    // In-process compute of each pool input, from the decomposition (the
    // stream's first positions, which the traced step below replays).
    let mut compute: Vec<Vec<f64>> = vec![Vec::new(); pool.items.len()];
    for (position, &c) in compute_us.iter().enumerate() {
        if c.is_finite() {
            compute[stream[position]].push(c);
        }
    }
    let hit_cost = report
        .metrics
        .iter()
        .filter(|m| m.name == "serve.cache.key_us" || m.name == "serve.cache.get_us")
        .map(|m| m.value)
        .sum::<f64>();

    // One light step against the server, recording each request's item.
    let served = Mutex::new(Vec::new());
    let before = setup.server.stats();
    let mut stats = Served::default();
    let step = {
        let mut workers: Vec<_> = (0..plan.workers)
            .map(|_| http_worker(setup.server.addr(), kind, pool, stream, 0, Some(&served)))
            .collect();
        loadgen::open_loop(
            plan.light_rps,
            Duration::from_secs_f64(args.seconds * 0.3),
            &mut workers,
        )
    };
    stats.add(&setup.server.stats(), &before);
    report.attempted += step.sent;
    report.failed += step.failed;
    report.mismatched += step.mismatched;
    let served = served.into_inner().expect("served log is never poisoned");
    let handoff: Vec<f64> = served
        .iter()
        .filter_map(|&(k, server_us, cached)| {
            if cached {
                Some(server_us - hit_cost)
            } else {
                (!compute[k].is_empty()).then(|| server_us - median(&compute[k]))
            }
        })
        .collect();
    report.extra("serve.frontdoor_us", median(&step.frontdoor_us), "us");
    report.extra("serve.server_us", median(&step.server_us), "us");
    if !handoff.is_empty() {
        report.extra("serve.handoff_us", median(&handoff), "us");
    }
    report.extra("serve.cache.hit_share", stats.hit_share(), "ratio");
    report.extra("serve.batcher.occupancy", stats.occupancy(), "count");
    report.extra("serve.batcher.shed", stats.shed as f64, "count");
    report.extra("loadgen.late_ms", step.median_late_ms(), "ms");
    report.extra("loadgen.sent", step.sent as f64, "count");
    report.extra("loadgen.succeeded", step.succeeded as f64, "count");
    report.extra("loadgen.failed", step.failed as f64, "count");
    report.property("traced.handoff_samples", handoff.len());
    stats.report(report, plan.workers);
    if let (Some(p), Some(l)) = (setup.publish, setup.load) {
        report.extra("setup.registry_publish_ms", p.as_secs_f64() * 1e3, "ms");
        report.extra("setup.registry_load_ms", l.as_secs_f64() * 1e3, "ms");
    }
}
