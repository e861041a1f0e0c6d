//! Shared pieces of the serving benchmarks (`bench_serve`, `bench_swap`,
//! `bench_drift`, `bench_xai_sched`): label corruption, the ensemble the
//! swap and drift soaks publish, the served ReMIX configuration, and the
//! registry round trip.

use rand::{rngs::StdRng, Rng, SeedableRng};
use remix_core::Remix;
use remix_data::{Dataset, SyntheticSpec};
use remix_ensemble::TrainedEnsemble;
use remix_nn::layers::{Dense, Flatten, Relu};
use remix_nn::{InputSpec, Model, Sequential, Trainer, TrainerConfig};
use remix_registry::{EnsembleArtifact, Registry};
use remix_xai::{ExplainerConfig, XaiBudget};

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

/// Trains the three-MLP ensemble with per-member label noise `fraction` —
/// the same structure either way, so v1 (30 % mislabelled) and v2
/// (re-cleaned) publish as two versions of one model. Fully seeded.
pub fn trained(noise: f32) -> (TrainedEnsemble, Dataset, Dataset) {
    let (train, test) = SyntheticSpec::tabular_like()
        .train_size(400)
        .test_size(128)
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
            let mut model = Model::named(net, spec, format!("MLP-{i}"));
            let labels = corrupt_labels(&train.labels, train.num_classes, noise, 70 + i as u64);
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
