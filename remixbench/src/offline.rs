//! `offline-gtsrb`: in-process ReMIX verdicts on the GTSRB analogue.
//!
//! A 3-member conv ensemble (ConvNet, MobileNet, ResNet18) is trained on
//! 16×16×3 GTSRB-analogue images with 30 % pattern-driven mislabelling and
//! frozen; `Remix::predict` then runs the paper's configuration (SmoothGrad
//! at the full budget, no scheduler) on a seeded stream over the test set.
//! Every verdict's fragment bytes are checked against the reference stored
//! in `reference/offline-gtsrb.txt`.

use crate::layers::{self, LayerRun};
use crate::loadgen::{Outcome, Plan, Reply, Rounds};
use crate::report::{RunReport, Tracer};
use crate::{common_metrics, phase_properties, Args};
use rand::{rngs::StdRng, SeedableRng};
use remix_core::Remix;
use remix_data::{Dataset, SyntheticSpec};
use remix_ensemble::metrics::balanced_accuracy;
use remix_ensemble::{train_zoo, Prediction, TrainedEnsemble};
use remix_faults::{inject, pattern, FaultConfig, FaultType};
use remix_nn::{Arch, InputSpec};
use remix_registry::Fnv1a64;
use remix_serve::verdict_fragment;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker threads of `Remix::predict`, pinned (not derived from the host).
pub const XAI_THREADS: usize = 1;
const ARCHS: [Arch; 3] = [Arch::ConvNet, Arch::MobileNet, Arch::ResNet18];
const EPOCHS: usize = 8;
/// Half the analogue's default training split: set-up runs three times
/// per run, and ResNet18 training dominates it.
const TRAIN_SIZE: usize = 430;
const MISLABELLED: f32 = 0.3;
/// Seeds of the program under test (data, fault injection, training). The
/// workload seed only picks the request stream.
const FAULT_SEED: u64 = 100;
const TRAIN_SEED: u64 = 100;
const WARMUP_VERDICTS: usize = 4;
/// Set-ups, and measuring rounds, per run; `setup_s` is their median.
/// Three, not more: each set-up trains three conv networks.
const ROUNDS: usize = 3;
const STREAM_SALT: u64 = 0x6f66_666c_696e_6531;

/// Fixed load plan; see `BENCHMARK.json` and the README.
pub const LIGHT_RPS: f64 = 12.0;
pub const HEAVY_RPS: f64 = 24.0;
pub const LIMIT_MS: f64 = 100.0;
const CEILING_RPS: f64 = 80.0;
/// Requests per step and round: 60 leave 15 beyond the p75.
const MIN_REQUESTS: u64 = 60;

/// The reference fragment hash of every test input, for the seeds the
/// stream can draw (all of them: the stream only reorders the test set).
const REFERENCE: &str = include_str!("../reference/offline-gtsrb.txt");

fn remix() -> Remix {
    Remix::builder().threads(XAI_THREADS).build()
}

struct Setup {
    ensemble: TrainedEnsemble,
    test: Dataset,
    spec: InputSpec,
    data: Duration,
    train: Vec<Duration>,
    freeze: Duration,
}

/// Data generation, fault injection, training, freeze and warm-up: what
/// `setup_s` times.
fn set_up(remix: &Remix) -> Setup {
    let t = Instant::now();
    let (train, test) = SyntheticSpec::gtsrb_like()
        .train_size(TRAIN_SIZE)
        .generate();
    let confusion = pattern::extract(&train, 3, 5);
    let mut rng = StdRng::seed_from_u64(FAULT_SEED);
    let faulty = inject(
        &train,
        FaultConfig::new(FaultType::Mislabelling, MISLABELLED),
        &confusion,
        &mut rng,
    );
    let data = t.elapsed();
    let mut times = Vec::new();
    let models = ARCHS
        .iter()
        .map(|&arch| {
            let t = Instant::now();
            let model = train_zoo(&[arch], &faulty.dataset, EPOCHS, TRAIN_SEED)
                .pop()
                .expect("one model per architecture");
            times.push(t.elapsed());
            model
        })
        .collect();
    let mut ensemble = TrainedEnsemble::new(models);
    let t = Instant::now();
    remix.prepare_ensemble(&mut ensemble);
    let freeze = t.elapsed();
    for image in test.images.iter().take(WARMUP_VERDICTS) {
        remix.predict(&mut ensemble, image);
    }
    Setup {
        ensemble,
        spec: InputSpec {
            channels: test.channels,
            size: test.size,
            num_classes: test.num_classes,
        },
        test,
        data,
        train: times,
        freeze,
    }
}

fn fragment_hash(fragment: &str) -> u64 {
    let mut h = Fnv1a64::new();
    h.update(fragment.as_bytes());
    h.finish()
}

fn parse_reference() -> HashMap<usize, u64> {
    REFERENCE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let index = parts.next()?.parse().ok()?;
            let hash = u64::from_str_radix(parts.next()?, 16).ok()?;
            Some((index, hash))
        })
        .collect()
}

/// Regenerates `reference/offline-gtsrb.txt` from the current program.
pub fn write_reference(path: &std::path::Path) -> std::io::Result<()> {
    let remix = remix();
    let mut setup = set_up(&remix);
    let mut out = String::from(
        "# offline-gtsrb: FNV-1a-64 of each test input's verdict fragment\n# <test index> <hash>\n",
    );
    for (i, image) in setup.test.images.iter().enumerate() {
        let v = remix.predict(&mut setup.ensemble, image);
        out.push_str(&format!(
            "{i} {:016x}\n",
            fragment_hash(&verdict_fragment(&v))
        ));
    }
    std::fs::write(path, out)
}

/// Runs the verdicts and checks them; the tallies outlive one round.
struct Caller<'a> {
    remix: &'a Remix,
    ensemble: &'a mut TrainedEnsemble,
    images: &'a [remix_tensor::Tensor],
    stream: &'a [usize],
    reference: &'a HashMap<usize, u64>,
    tally: &'a mut Tally,
}

struct Tally {
    predictions: Vec<Option<Prediction>>,
    unanimous: u64,
    verdicts: u64,
}

impl Caller<'_> {
    fn call(&mut self, position: u64) -> Reply {
        let index = self.stream[position as usize % self.stream.len()];
        let verdict = self.remix.predict(self.ensemble, &self.images[index]);
        let hash = fragment_hash(&verdict_fragment(&verdict));
        self.tally.verdicts += 1;
        self.tally.unanimous += u64::from(verdict.unanimous);
        self.tally.predictions[index] = Some(verdict.prediction);
        Reply::local(if self.reference.get(&index) == Some(&hash) {
            Outcome::Ok
        } else {
            Outcome::Mismatch
        })
    }
}

pub fn run(args: &Args, report: &mut RunReport, tracer: &mut Tracer) {
    let remix = remix();
    report.property("pinned.xai_threads", XAI_THREADS);
    report.property("pinned.loadgen_workers", 1);
    if args.trace {
        let mut setup = set_up(&remix);
        let pool = setup.test.images.len();
        let stream = crate::stream::permutation_stream(pool, pool * 64, args.seed ^ STREAM_SALT);
        let images = stream.iter().map(|&i| &setup.test.images[i]).collect();
        let registry_dir = crate::out_dir().join(format!("registry-{}", std::process::id()));
        layers::run(
            LayerRun {
                remix: &remix,
                ensemble: &mut setup.ensemble,
                images,
                spec: setup.spec,
                threads: XAI_THREADS,
                budget: Duration::from_secs_f64(args.seconds * 0.8),
                train: setup.train.clone(),
                data: setup.data,
                freeze: setup.freeze,
                registry_dir: &registry_dir,
            },
            report,
            tracer,
        );
        return;
    }

    let reference = parse_reference();
    let plan = Plan {
        seconds: args.seconds,
        light_rps: LIGHT_RPS,
        heavy_rps: HEAVY_RPS,
        limit_ms: LIMIT_MS,
        ceiling_rps: CEILING_RPS,
        workers: 1,
        min_requests: MIN_REQUESTS,
    };
    let mut rounds = Rounds::new(&plan, ROUNDS);
    let mut setup_s = Vec::new();
    let mut tally: Option<Tally> = None;
    let mut stream = Vec::new();
    let mut test = None;
    // Each round sets up from scratch (timed: `setup_s` is the median) and
    // then measures its share of every phase on the fresh ensemble.
    for _ in 0..ROUNDS {
        let t = Instant::now();
        let mut setup = set_up(&remix);
        setup_s.push(t.elapsed().as_secs_f64());
        let pool = setup.test.images.len();
        if stream.is_empty() {
            stream = crate::stream::permutation_stream(pool, pool * 64, args.seed ^ STREAM_SALT);
        }
        let tally = tally.get_or_insert_with(|| Tally {
            predictions: vec![None; pool],
            unanimous: 0,
            verdicts: 0,
        });
        let caller = Mutex::new(Caller {
            remix: &remix,
            ensemble: &mut setup.ensemble,
            images: &setup.test.images,
            stream: &stream,
            reference: &reference,
            tally,
        });
        rounds.round(|_, offset| {
            let caller = &caller;
            move |i: u64| {
                caller
                    .lock()
                    .expect("the verdict caller is never poisoned")
                    .call(offset + i)
            }
        });
        test = Some(setup.test);
    }
    let phases = rounds.finish();
    let tally = tally.expect("at least one round");
    let test = test.expect("at least one round");
    // Balanced accuracy over the test inputs the run covered: the stream is
    // back-to-back permutations of the test set, so every input once the
    // run has made 430 verdicts.
    let (preds, labels): (Vec<Prediction>, Vec<usize>) = tally
        .predictions
        .iter()
        .zip(&test.labels)
        .filter_map(|(p, &l)| p.map(|p| (p, l)))
        .unzip();
    let ba = f64::from(balanced_accuracy(&preds, &labels, test.num_classes));
    report.property("pool.inputs", test.images.len());
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
    report.property("verdicts", tally.verdicts);
    let fast = tally.unanimous as f64 / tally.verdicts as f64;
    report.property("disagreement_share", 1.0 - fast);
    report.property("fast_path_share", fast);
    report.property(
        "xai_level_mix",
        format!(
            "skip={fast:.4} full={:.4} (no scheduler: every disagreement runs full)",
            1.0 - fast
        ),
    );
    report.property("cache_hit_share", "n/a (no cache in process)");
    report.property("batch_occupancy", "n/a (one verdict per call)");
    report.property("balanced_accuracy.inputs", preds.len());
    phase_properties(report, &plan, &phases);
    common_metrics(report, &plan, &phases, &setup_s, ba);
}
