//! `bench_swap`: hot-swap soak test for the registry-backed model server.
//!
//! The scenario the registry exists for: v1 of an ensemble was trained on
//! 30 % mislabelled data (the paper's faulty-training-data lever), v2 is the
//! re-cleaned retrain. Both are published to a registry; a live server
//! starts on v1 and is driven with keep-alive load while the bench swaps
//! v1 → v2 → v1 between rounds. Measured contracts (DESIGN.md §6j):
//!
//! * **zero downtime** — every request sent while swaps are in flight must
//!   complete with 200 and serve bytes that are *exactly* v1's or v2's
//!   reference verdict (`dropped_requests == 0`, `errored_requests == 0`);
//! * **byte identity** — steady-state verdicts match a local
//!   [`remix_core::Remix::predict`] over the same registry round-trip,
//!   before the first swap (`v1_identical`), after swapping to v2
//!   (`v2_identical`), and across a no-op swap (`noop_identical`);
//! * **cache generations** — a verdict cached under v1 must be unreachable
//!   under v2 and reachable again (original bytes, no recompute) after
//!   swapping back (`cache_generation_isolated`);
//! * **swap latency** — the server's own `prepare_us` (off-path load +
//!   freeze) and `flip_us` (pointer flip across shards) from each swap
//!   report, summarized as p50/p99;
//! * **throughput under churn** — `speedup_churn_vs_steady`, the same
//!   stream's throughput with swaps interleaved over without; the gate
//!   floors it at [`remix_bench::check::SWAP_MIN_CHURN_THROUGHPUT`].
//!
//! Writes `results/bench_swap.json`; `bench_check` gates the flags, the
//! zero-drop counters, the flip-stall p99, and the churn ratio against the
//! committed baseline.

use remix_bench::harness::{
    capture, load_into, percentile, remix, run_phase, trained, Phase, MODEL, PUBLISHED,
};
use remix_nn::InputSpec;
use remix_registry::Registry;
use remix_serve::{verdict_fragment, Client, ClientReply, NamedModel, ServeConfig, Server};
use serde::Value;
use std::io::Write;
use std::net::SocketAddr;
use std::thread;
use std::time::Duration;

/// Load profile: concurrent keep-alive clients, requests per client, and
/// rounds per phase.
struct LoadScale {
    concurrency: usize,
    requests_per_client: usize,
    rounds: usize,
}

/// One load phase (see [`run_phase`]) with `no_cache`, so every reply is a
/// fresh computation. Failures are *the measurement* here: the caller sums
/// `dropped` (non-200 replies) and `errored` (transport failures).
fn load(addr: SocketAddr, pool: &[Vec<f32>], concurrency: usize, per_client: usize) -> Phase {
    run_phase(addr, pool, concurrency, per_client, Some(60_000), true)
}

/// Issues one swap and returns the server-measured `(prepare_us, flip_us)`.
fn swap_to(client: &mut Client, version: &str) -> (f64, f64) {
    let reply = client.swap(MODEL, Some(version)).expect("swap request");
    assert_eq!(
        reply.status, 200,
        "swap to {version} failed: {}",
        reply.body
    );
    let report: Value = serde_json::from_str(&reply.body).expect("swap report parses");
    let field = |name: &str| -> f64 {
        report
            .as_object()
            .and_then(|pairs| pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v))
            .and_then(|v| match v {
                Value::UInt(u) => Some(*u as f64),
                Value::Int(i) => Some(*i as f64),
                Value::Float(f) => Some(*f),
                _ => None,
            })
            .unwrap_or_else(|| panic!("swap report missing {name}: {}", reply.body))
    };
    (field("prepare_us"), field("flip_us"))
}

fn fmt_f(v: f64) -> String {
    format!("{v:.3}")
}

fn main() {
    // `REMIX_SCALE=paper` doubles the stream.
    let (scale_name, scale) = remix_bench::scale::select(
        LoadScale {
            concurrency: 6,
            requests_per_client: 20,
            rounds: 4,
        },
        LoadScale {
            concurrency: 8,
            requests_per_client: 40,
            rounds: 6,
        },
    );
    println!(
        "bench_swap [{}]: {} clients x {} requests x {} rounds",
        scale_name, scale.concurrency, scale.requests_per_client, scale.rounds
    );

    // v1: trained on 30 % mislabelled labels; v2: the re-cleaned retrain.
    let (mut v1, _, test) = trained(PUBLISHED, [0.3; 3], 128);
    let (mut v2, _, _) = trained(PUBLISHED, [0.0; 3], 128);
    let test_images = test.images;
    let spec = InputSpec {
        channels: 1,
        size: 4,
        num_classes: 6,
    };
    let registry_root =
        std::env::temp_dir().join(format!("remix_bench_swap_{}", std::process::id()));
    std::fs::remove_dir_all(&registry_root).ok();
    let registry = Registry::open(&registry_root);
    let v1_info = registry
        .publish(&capture("1.0.0", spec, &mut v1))
        .expect("publish v1");
    let v2_info = registry
        .publish(&capture("2.0.0", spec, &mut v2))
        .expect("publish v2");
    println!(
        "published {MODEL} 1.0.0 (hash {:016x}) and 2.0.0 (hash {:016x}) to {}",
        v1_info.hash,
        v2_info.hash,
        registry_root.display()
    );

    // Local references over the same registry round-trip the server takes.
    let (mut local_v1, hash_v1) = load_into(&registry, "1.0.0", &v1);
    let (mut local_v2, _) = load_into(&registry, "2.0.0", &v1);
    let reference = remix();

    // Pool: inputs v1's constituents disagree on — they pay the XAI cost, so
    // the stream actually exercises the engines the swap must not stall.
    let mut pool: Vec<Vec<f32>> = Vec::new();
    let mut ref_v1: Vec<String> = Vec::new();
    let mut ref_v2: Vec<String> = Vec::new();
    for image in &test_images {
        let outs = local_v1.outputs(image);
        let first = outs[0].pred;
        if outs.iter().all(|o| o.pred == first) {
            continue;
        }
        ref_v1.push(verdict_fragment(&reference.predict(&mut local_v1, image)));
        ref_v2.push(verdict_fragment(&reference.predict(&mut local_v2, image)));
        pool.push(image.data().to_vec());
    }
    assert!(
        pool.len() >= 8,
        "only {} disagreement inputs — retune the ensemble",
        pool.len()
    );
    assert_ne!(ref_v1, ref_v2, "v1 and v2 must disagree somewhere");
    println!(
        "pool: {} disagreement inputs out of {} test images",
        pool.len(),
        test_images.len()
    );

    let (served, _) = load_into(&registry, "1.0.0", &v1);
    let config = ServeConfig {
        max_batch: 16,
        batch_window: Duration::from_micros(500),
        queue_capacity: 4096,
        shards: 2,
        ..ServeConfig::default()
    };
    let server = Server::start_models(
        vec![NamedModel {
            name: MODEL.to_string(),
            version: "1.0.0".to_string(),
            hash: hash_v1,
            ensemble: served,
        }],
        Some(Registry::open(&registry_root)),
        remix(),
        config,
    )
    .expect("start swap server");
    let addr = server.addr();
    let mut control = Client::connect(addr).expect("control connection");

    let matches_v1 = |replies: &[(usize, ClientReply)]| {
        replies
            .iter()
            .all(|(idx, r)| !r.degraded && r.verdict_json == ref_v1[*idx])
    };
    let matches_either = |replies: &[(usize, ClientReply)]| {
        replies.iter().all(|(idx, r)| {
            !r.degraded && (r.verdict_json == ref_v1[*idx] || r.verdict_json == ref_v2[*idx])
        })
    };

    let mut dropped_requests = 0u64;
    let mut errored_requests = 0u64;
    let mut prepare_us: Vec<f64> = Vec::new();
    let mut flip_us: Vec<f64> = Vec::new();

    // Byte-identity gates before any churn.
    // No-op swap: same version; the verdict bytes before and after must be
    // identical (the swap is real — replicas reload — but the bits are not
    // allowed to change).
    let probe = pool[0].clone();
    let before = control.predict(&probe, Some(60_000), true).expect("probe");
    let (p, f) = swap_to(&mut control, "1.0.0");
    prepare_us.push(p);
    flip_us.push(f);
    let after = control.predict(&probe, Some(60_000), true).expect("probe");
    let noop_identical = before.status == 200
        && after.status == 200
        && before.verdict_json == ref_v1[0]
        && after.verdict_json == before.verdict_json;
    println!("no-op swap byte-identical: {noop_identical}");

    // Cache generations: warm the probe under v1, swap to v2 (the entry must
    // be unreachable: a miss that recomputes v2's bytes), swap back (the v1
    // entry must be reachable again — a hit replaying the original bytes).
    let cold = control.predict(&probe, Some(60_000), false).expect("probe");
    let warm = control.predict(&probe, Some(60_000), false).expect("probe");
    let (p, f) = swap_to(&mut control, "2.0.0");
    prepare_us.push(p);
    flip_us.push(f);
    let crossed = control.predict(&probe, Some(60_000), false).expect("probe");
    let (p, f) = swap_to(&mut control, "1.0.0");
    prepare_us.push(p);
    flip_us.push(f);
    let revived = control.predict(&probe, Some(60_000), false).expect("probe");
    let cache_generation_isolated = !cold.cached
        && warm.cached
        && warm.verdict_json == ref_v1[0]
        && !crossed.cached
        && crossed.verdict_json == ref_v2[0]
        && revived.cached
        && revived.verdict_json == ref_v1[0];
    println!("cache generations isolated across swap and swap-back: {cache_generation_isolated}");

    // Steady phase: `rounds` rounds of pure load on v1, no swaps. The summed
    // wall is the churn phase's denominator.
    let mut steady_wall = Duration::ZERO;
    let mut v1_identical = true;
    for _ in 0..scale.rounds {
        let phase = load(addr, &pool, scale.concurrency, scale.requests_per_client);
        v1_identical &= matches_v1(&phase.replies);
        steady_wall += phase.wall;
        dropped_requests += phase.dropped;
        errored_requests += phase.errored;
    }
    let phase_requests = (scale.concurrency * scale.requests_per_client * scale.rounds) as f64;
    let steady_rps = phase_requests / steady_wall.as_secs_f64();
    println!(
        "steady: {} requests in {steady_wall:?} = {steady_rps:.1} rps, v1-identical: {v1_identical}",
        phase_requests as u64
    );

    // Churn phase: the same stream, but every round runs with a concurrent
    // v1 → v2 → v1 double swap in flight. Every reply must still be 200 and
    // byte-exact for *some* published version — a request caught mid-flip
    // legitimately drains on the old replicas or lands on the new ones, but
    // nothing in between exists.
    let mut churn_wall = Duration::ZERO;
    let mut churn_identical = true;
    for _ in 0..scale.rounds {
        let churn = {
            let pool = pool.clone();
            let (concurrency, per_client) = (scale.concurrency, scale.requests_per_client);
            thread::spawn(move || load(addr, &pool, concurrency, per_client))
        };
        let (p, f) = swap_to(&mut control, "2.0.0");
        prepare_us.push(p);
        flip_us.push(f);
        let (p, f) = swap_to(&mut control, "1.0.0");
        prepare_us.push(p);
        flip_us.push(f);
        let phase = churn.join().expect("churn load panicked");
        churn_identical &= matches_either(&phase.replies);
        churn_wall += phase.wall;
        dropped_requests += phase.dropped;
        errored_requests += phase.errored;
    }
    let churn_rps = phase_requests / churn_wall.as_secs_f64();
    let speedup_churn_vs_steady = churn_rps / steady_rps;
    println!(
        "churn:  {} requests in {churn_wall:?} = {churn_rps:.1} rps \
         ({:.2}x of steady), every reply a published version: {churn_identical}",
        phase_requests as u64, speedup_churn_vs_steady
    );

    // Post-churn: the server is back on v1; swap to v2 and verify
    // steady-state v2 byte-identity against the local reference.
    let (p, f) = swap_to(&mut control, "2.0.0");
    prepare_us.push(p);
    flip_us.push(f);
    let phase = load(
        addr,
        &pool,
        scale.concurrency.min(4),
        scale.requests_per_client,
    );
    let v2_identical = !phase.replies.is_empty()
        && phase
            .replies
            .iter()
            .all(|(idx, r)| !r.degraded && r.verdict_json == ref_v2[*idx]);
    dropped_requests += phase.dropped;
    errored_requests += phase.errored;
    println!("post-swap v2 byte-identical: {v2_identical}");

    prepare_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    flip_us.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let swaps = flip_us.len();
    println!(
        "{swaps} swaps: prepare p50 {:.0} us / p99 {:.0} us, flip p50 {:.0} us / p99 {:.0} us",
        percentile(&prepare_us, 0.50),
        percentile(&prepare_us, 0.99),
        percentile(&flip_us, 0.50),
        percentile(&flip_us, 0.99),
    );
    println!("dropped: {dropped_requests}, errored: {errored_requests}");

    let host_cores = remix_parallel::num_threads();
    let record = format!(
        "{{\n  \"benchmark\": \"bench_swap\",\n  \"scale\": \"{}\",\n  \"model\": \"{MODEL}\",\n  \"pool_inputs\": {},\n  \"concurrency\": {},\n  \"rounds\": {},\n  \"requests_per_phase\": {},\n  \"host_cores\": {host_cores},\n  \"swaps\": {swaps},\n  \"steady\": {{\"wall_secs\": {}, \"rps\": {}}},\n  \"churn\": {{\"wall_secs\": {}, \"rps\": {}}},\n  \"speedup_churn_vs_steady\": {},\n  \"swap_prepare_p50_us\": {},\n  \"swap_prepare_p99_us\": {},\n  \"swap_flip_p50_us\": {},\n  \"swap_flip_p99_us\": {},\n  \"dropped_requests\": {dropped_requests},\n  \"errored_requests\": {errored_requests},\n  \"noop_identical\": {noop_identical},\n  \"v1_identical\": {v1_identical},\n  \"v2_identical\": {v2_identical},\n  \"churn_identical\": {churn_identical},\n  \"cache_generation_isolated\": {cache_generation_isolated}\n}}\n",
        scale_name,
        pool.len(),
        scale.concurrency,
        scale.rounds,
        phase_requests as u64,
        fmt_f(steady_wall.as_secs_f64()),
        fmt_f(steady_rps),
        fmt_f(churn_wall.as_secs_f64()),
        fmt_f(churn_rps),
        fmt_f(speedup_churn_vs_steady),
        fmt_f(percentile(&prepare_us, 0.50)),
        fmt_f(percentile(&prepare_us, 0.99)),
        fmt_f(percentile(&flip_us, 0.50)),
        fmt_f(percentile(&flip_us, 0.99)),
    );
    std::fs::create_dir_all("results").expect("create results dir");
    let mut file =
        std::fs::File::create("results/bench_swap.json").expect("create results/bench_swap.json");
    file.write_all(record.as_bytes())
        .expect("write results/bench_swap.json");
    println!("Record written to results/bench_swap.json");

    drop(server);
    std::fs::remove_dir_all(&registry_root).ok();

    assert_eq!(dropped_requests, 0, "requests dropped during swaps");
    assert_eq!(errored_requests, 0, "transport errors during swaps");
    assert!(noop_identical, "no-op swap changed verdict bytes");
    assert!(
        v1_identical,
        "steady v1 verdicts diverged from Remix::predict"
    );
    assert!(
        v2_identical,
        "post-swap v2 verdicts diverged from Remix::predict"
    );
    assert!(
        churn_identical,
        "a mid-swap verdict matched neither version"
    );
    assert!(
        cache_generation_isolated,
        "cache generations leaked across swaps"
    );
}
