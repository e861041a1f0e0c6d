//! Shared pieces of the serving benchmarks (`bench_serve`, `bench_swap`,
//! `bench_drift`, `bench_xai_sched`): label corruption, the three-MLP
//! ensemble they all train, the served ReMIX configuration, the registry
//! round trip, the closed-loop load phase and the percentile rule.

use rand::{rngs::StdRng, Rng, SeedableRng};
use remix_core::Remix;
use remix_data::{Dataset, SyntheticSpec};
use remix_ensemble::TrainedEnsemble;
use remix_nn::layers::{Dense, Flatten, Relu};
use remix_nn::{InputSpec, Model, Sequential, Trainer, TrainerConfig};
use remix_registry::{EnsembleArtifact, Registry};
use remix_serve::{Client, ClientReply};
use remix_xai::{ExplainerConfig, XaiBudget};
use std::net::SocketAddr;
use std::thread;
use std::time::{Duration, Instant};

/// The registry model name the swap and drift benchmarks publish under.
pub const MODEL: &str = "tabular-mlp";

/// Relabels a seeded `fraction` of `labels` uniformly at random — the
/// faulty training data that makes the benchmark ensembles disagree.
pub fn corrupt_labels(
    labels: &[usize],
    num_classes: usize,
    fraction: f32,
    seed: u64,
) -> Vec<usize> {
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

/// Member names of the ensemble the swap and drift soaks publish (the
/// artifact's architectures, see [`capture`]).
pub const PUBLISHED: [&str; 3] = ["MLP-0", "MLP-1", "MLP-2"];

/// Member names of the faulty-training-data zoo `bench_serve` and
/// `bench_xai_sched` serve, trained on [`ZOO_NOISE`].
pub const ZOO: [&str; 3] = ["MLP-wide", "MLP-deep", "MLP-drop"];

/// Per-member label noise of [`ZOO`]: 0 %, 30 % and 50 % mislabelled.
pub const ZOO_NOISE: [f32; 3] = [0.0, 0.3, 0.5];

/// Trains the three-MLP ensemble (hidden layers 128, 96-64 and 96) on 400
/// tabular samples, member `i` named `names[i]` with `noise[i]` of its labels
/// corrupted, and generates `test_size` test samples. Fully seeded, so a
/// second call yields a bit-identical replica. Names matter beyond display:
/// they seed each member's SmoothGrad noise. The structure never changes, so
/// v1 (30 % mislabelled) and v2 (re-cleaned) publish as two versions of one
/// model.
pub fn trained(
    names: [&str; 3],
    noise: [f32; 3],
    test_size: usize,
) -> (TrainedEnsemble, Dataset, Dataset) {
    let (train, test) = SyntheticSpec::tabular_like()
        .train_size(400)
        .test_size(test_size)
        .generate();
    let spec = InputSpec {
        channels: 1,
        size: 4,
        num_classes: train.num_classes,
    };
    let hidden: [&[usize]; 3] = [&[128], &[96, 64], &[96]];
    let models = hidden
        .iter()
        .enumerate()
        .map(|(i, hidden)| {
            let mut init = StdRng::seed_from_u64(i as u64 + 1);
            let mut net = Sequential::new();
            net.push(Flatten::new());
            let mut dim = spec.channels * spec.size * spec.size;
            for &h in *hidden {
                net.push(Dense::new(dim, h, &mut init));
                net.push(Relu::new());
                dim = h;
            }
            net.push(Dense::new(dim, train.num_classes, &mut init));
            let mut model = Model::named(net, spec, names[i]);
            let labels = corrupt_labels(&train.labels, train.num_classes, noise[i], 70 + i as u64);
            Trainer::new(TrainerConfig {
                epochs: 8,
                lr: 0.03,
                seed: i as u64,
                ..TrainerConfig::default()
            })
            .fit(&mut model, &train.images, &labels);
            model
        })
        .collect();
    (TrainedEnsemble::new(models), train, test)
}

/// The ReMIX configuration served and replicated locally. Must be built
/// identically in both places for the byte-identity comparison to be fair.
/// Eight SmoothGrad samples against a 64-wide budget: a lone request can
/// only fill an eighth of a gradient sweep, so coalesced requests run
/// markedly wider sweeps than the serial baseline can.
pub fn remix() -> Remix {
    let config = ExplainerConfig {
        budget: XaiBudget {
            sg_samples: 8,
            batch_size: 64,
            ..XaiBudget::default()
        },
        ..ExplainerConfig::default()
    };
    Remix::builder()
        .seed(11)
        .threads(1)
        .explainer_config(config)
        .build()
}

/// Captures an ensemble as a registry artifact for [`MODEL`].
pub fn capture(version: &str, spec: InputSpec, ensemble: &mut TrainedEnsemble) -> EnsembleArtifact {
    let archs: Vec<String> = (0..ensemble.models.len())
        .map(|i| format!("MLP-{i}"))
        .collect();
    let weights = vec![1.0f32; ensemble.models.len()];
    EnsembleArtifact::capture(
        MODEL,
        version,
        spec,
        ensemble,
        archs,
        weights,
        XaiBudget::default(),
    )
}

/// Loads `MODEL@version` and applies it onto a clone of `template` — the
/// exact path the server's swap coordinator takes, so the result is
/// bit-identical to what the server serves after swapping to `version`.
pub fn load_into(
    registry: &Registry,
    version: &str,
    template: &TrainedEnsemble,
) -> (TrainedEnsemble, u64) {
    let loaded = registry.load(MODEL, Some(version)).expect(version);
    let mut ensemble = template.clone();
    loaded
        .artifact
        .apply_to(&mut ensemble)
        .expect("same structure");
    (ensemble, loaded.hash)
}

/// What one load phase saw: its wall time, every `(pool_index, reply)`
/// answered 200, and the requests that failed.
pub struct Phase {
    /// Wall time from the first connect to the last reply.
    pub wall: Duration,
    /// The 200 replies, tagged with the pool index each request sent.
    pub replies: Vec<(usize, ClientReply)>,
    /// Requests answered with a status other than 200.
    pub dropped: u64,
    /// Requests that failed in transport (including a failed connect, which
    /// counts every request that client would have sent).
    pub errored: u64,
}

impl Phase {
    /// The wall time and replies, for a caller that needs every request
    /// answered 200.
    ///
    /// # Panics
    ///
    /// Panics if any request was dropped or errored.
    pub fn all_ok(self) -> (Duration, Vec<(usize, ClientReply)>) {
        assert_eq!(
            (self.dropped, self.errored),
            (0, 0),
            "bench requests failed (non-200, transport)"
        );
        (self.wall, self.replies)
    }
}

/// One closed-loop load phase: `concurrency` keep-alive clients, each
/// sending `requests_per_client` requests round-robin over `pool` (client
/// `c`'s `r`-th request sends `pool[(c + 7r) % len]`). Failures are counted,
/// not raised, so a caller decides whether they are the measurement or an
/// error.
pub fn run_phase(
    addr: SocketAddr,
    pool: &[Vec<f32>],
    concurrency: usize,
    requests_per_client: usize,
    deadline_ms: Option<u64>,
    no_cache: bool,
) -> Phase {
    let started = Instant::now();
    let workers: Vec<_> = (0..concurrency)
        .map(|c| {
            let pool = pool.to_vec();
            thread::spawn(move || {
                let mut replies = Vec::with_capacity(requests_per_client);
                let (mut dropped, mut errored) = (0u64, 0u64);
                let Ok(mut client) = Client::connect(addr) else {
                    return (replies, dropped, requests_per_client as u64);
                };
                for r in 0..requests_per_client {
                    let idx = (c + r * 7) % pool.len();
                    match client.predict(&pool[idx], deadline_ms, no_cache) {
                        Ok(reply) if reply.status == 200 => replies.push((idx, reply)),
                        Ok(_) => dropped += 1,
                        Err(_) => errored += 1,
                    }
                }
                (replies, dropped, errored)
            })
        })
        .collect();
    let mut phase = Phase {
        wall: Duration::ZERO,
        replies: Vec::new(),
        dropped: 0,
        errored: 0,
    };
    for worker in workers {
        let (replies, dropped, errored) = worker.join().expect("bench client panicked");
        phase.replies.extend(replies);
        phase.dropped += dropped;
        phase.errored += errored;
    }
    phase.wall = started.elapsed();
    phase
}

/// Nearest-rank percentile of an ascending slice: the element at
/// `round((len - 1) · q)`; `T::default()` for an empty slice.
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}
