//! The served `Remix`'s `threads` setting (`remix serve --threads`) reaches
//! the engine: with two threads a served batch fans its prediction sweep out
//! over the worker pool, with one thread it posts no pool job at all.
//!
//! This is its own test binary because it reads the process-global trace
//! counters, which concurrently running tests would disturb.

use rand::{rngs::StdRng, SeedableRng};
use remix_core::Remix;
use remix_ensemble::TrainedEnsemble;
use remix_nn::layers::{Dense, Flatten};
use remix_nn::{InputSpec, Model, Sequential};
use remix_serve::{Client, ServeConfig, Server};
use remix_trace::Counter;

/// Three copies of one untrained linear model: they always agree, so every
/// verdict takes the fast path and the prediction sweep is the only stage
/// that can use the pool.
fn identical_ensemble() -> TrainedEnsemble {
    let spec = InputSpec {
        channels: 1,
        size: 4,
        num_classes: 3,
    };
    let models = (0..3)
        .map(|i| {
            let mut net = Sequential::new();
            net.push(Flatten::new());
            net.push(Dense::new(16, 3, &mut StdRng::seed_from_u64(11)));
            Model::named(net, spec, format!("linear-{i}"))
        })
        .collect();
    TrainedEnsemble::new(models)
}

/// Pool jobs posted while a server built with `threads` answers one request.
fn pool_jobs_per_request(threads: usize) -> u64 {
    let remix = Remix::builder().seed(7).threads(threads).build();
    let server = Server::start(identical_ensemble(), remix, ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let image: Vec<f32> = (0..16).map(|i| i as f32 / 16.0).collect();
    let before = remix_trace::counter(Counter::PoolJobs);
    let reply = client.predict(&image, Some(10_000), false).unwrap();
    assert_eq!(reply.status, 200);
    assert!(reply.unanimous);
    remix_trace::counter(Counter::PoolJobs) - before
}

#[test]
fn threads_setting_reaches_the_engine() {
    remix_trace::set_enabled(true);
    assert_eq!(pool_jobs_per_request(1), 0);
    assert!(pool_jobs_per_request(2) > 0);
    remix_trace::set_enabled(false);
}
