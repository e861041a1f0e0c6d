//! End-to-end tests against a live server on an ephemeral port.
//!
//! Each test trains its own small tabular ensemble (deterministic seeds, so
//! two `setup()` calls produce bit-identical weights), starts a real
//! [`Server`], and drives it over TCP with [`Client`]. The load-bearing
//! assertions are the resilience contracts from DESIGN.md §6h:
//!
//! * cached replies are **byte-identical** to the cold run that produced
//!   them;
//! * every non-degraded served verdict is **byte-identical** to what
//!   [`Remix::predict`] returns for the same input;
//! * a disagreement past its deadline degrades to the deterministic
//!   majority-vote fallback, tagged `degraded` and never cached;
//! * a full queue sheds with `429` instead of queueing without bound.

use rand::{rngs::StdRng, Rng, SeedableRng};
use remix_core::{Remix, TriageScheduler, TriageThresholds};
use remix_data::SyntheticSpec;
use remix_ensemble::{majority_with_weights, Prediction, TrainedEnsemble};
use remix_nn::layers::{Dense, Flatten, Relu};
use remix_nn::{InputSpec, Model, Sequential, Trainer, TrainerConfig};
use remix_serve::{verdict_fragment, Client, ServeConfig, Server};
use remix_tensor::Tensor;
use remix_xai::XaiLevel;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

/// Relabels a seeded fraction of the training labels — the paper's faulty
/// training data, and the lever that makes the constituents disagree.
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

/// Trains three small MLPs on increasingly corrupted labels. Fully seeded:
/// calling this twice yields bit-identical ensembles, which lets one copy
/// run inside the server while a local replica supplies expected verdicts.
fn setup() -> (TrainedEnsemble, Vec<Tensor>) {
    let (train, test) = SyntheticSpec::tabular_like()
        .train_size(240)
        .test_size(96)
        .generate();
    let spec = InputSpec {
        channels: 1,
        size: 4,
        num_classes: train.num_classes,
    };
    let configs: [(&str, &[usize], f32); 3] = [
        ("mlp-clean", &[24], 0.0),
        ("mlp-noisy", &[16, 12], 0.3),
        ("mlp-noisier", &[12], 0.5),
    ];
    let models = configs
        .iter()
        .enumerate()
        .map(|(i, (name, hidden, noise))| {
            let mut init = StdRng::seed_from_u64(40 + i as u64);
            let mut net = Sequential::new();
            net.push(Flatten::new());
            let mut dim = spec.channels * spec.size * spec.size;
            for &h in *hidden {
                net.push(Dense::new(dim, h, &mut init));
                net.push(Relu::new());
                dim = h;
            }
            net.push(Dense::new(dim, train.num_classes, &mut init));
            let mut model = Model::named(net, spec, *name);
            let labels = corrupt_labels(&train.labels, train.num_classes, *noise, 90 + i as u64);
            Trainer::new(TrainerConfig {
                epochs: 4,
                lr: 0.05,
                seed: i as u64,
                ..TrainerConfig::default()
            })
            .fit(&mut model, &train.images, &labels);
            model
        })
        .collect();
    (TrainedEnsemble::new(models), test.images)
}

fn remix() -> Remix {
    Remix::builder().seed(7).threads(1).build()
}

/// Finds one test input the ensemble is unanimous on and one it splits on.
fn split_inputs(ensemble: &mut TrainedEnsemble, images: &[Tensor]) -> (Tensor, Tensor) {
    let mut unanimous = None;
    let mut split = None;
    for image in images {
        let outs = ensemble.outputs(image);
        let first = outs[0].pred;
        if outs.iter().all(|o| o.pred == first) {
            unanimous.get_or_insert_with(|| image.clone());
        } else {
            split.get_or_insert_with(|| image.clone());
        }
        if unanimous.is_some() && split.is_some() {
            break;
        }
    }
    (
        unanimous.expect("no unanimous test input — retune the ensemble seeds"),
        split.expect("no disagreeing test input — retune the ensemble seeds"),
    )
}

#[test]
fn cached_reply_is_byte_identical_to_the_cold_run() {
    let (ensemble, images) = setup();
    let server = Server::start(ensemble, remix(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let image = images[0].data().to_vec();

    let cold = client.predict(&image, Some(10_000), false).unwrap();
    assert_eq!(cold.status, 200);
    assert!(!cold.cached);
    assert!(!cold.verdict_json.is_empty());

    let warm = client.predict(&image, Some(10_000), false).unwrap();
    assert!(warm.cached, "second identical request must hit the cache");
    assert_eq!(
        warm.verdict_json, cold.verdict_json,
        "cached reply must replay the cold fragment byte-for-byte"
    );

    // `no_cache` bypasses the cache but, being deterministic, recomputes the
    // exact same bytes.
    let bypass = client.predict(&image, Some(10_000), true).unwrap();
    assert!(!bypass.cached);
    assert_eq!(bypass.verdict_json, cold.verdict_json);

    let stats = server.stats();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.cache_hits, 1);
    // The bypass request never consulted the cache, so exactly one miss.
    assert_eq!(stats.cache_misses, 1);
}

#[test]
fn served_verdicts_match_remix_predict_byte_for_byte() {
    let (ensemble, images) = setup();
    let (mut local, _) = setup();
    let (unanimous, split) = split_inputs(&mut local, &images);
    let server = Server::start(ensemble, remix(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reference = remix();

    let reply = client
        .predict(unanimous.data(), Some(10_000), true)
        .unwrap();
    assert_eq!(reply.status, 200);
    assert!(reply.unanimous && !reply.degraded);
    let expected = verdict_fragment(&reference.predict(&mut local, &unanimous));
    assert_eq!(reply.verdict_json, expected);

    let reply = client.predict(split.data(), Some(10_000), true).unwrap();
    assert_eq!(reply.status, 200);
    assert!(!reply.unanimous && !reply.degraded);
    let expected = verdict_fragment(&reference.predict(&mut local, &split));
    assert_eq!(
        reply.verdict_json, expected,
        "served disagreement verdict must be byte-identical to Remix::predict"
    );
}

#[test]
fn threads_setting_fans_out_without_changing_a_byte() {
    // The served Remix's `threads` setting (`remix serve --threads`) fans
    // each batch's prediction and XAI stages out over the models; the
    // verdicts must still match a sequential local predict byte for byte.
    let (ensemble, images) = setup();
    let (mut local, _) = setup();
    let (_, split) = split_inputs(&mut local, &images);
    let two_threads = Remix::builder().seed(7).threads(2).build();
    let server = Server::start(ensemble, two_threads, ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reference = remix();
    for image in images.iter().take(12).chain([&split]) {
        let reply = client.predict(image.data(), Some(10_000), true).unwrap();
        assert_eq!(reply.status, 200);
        assert!(!reply.degraded);
        let expected = verdict_fragment(&reference.predict(&mut local, image));
        assert_eq!(reply.verdict_json, expected);
    }
}

#[test]
fn zero_deadline_disagreement_degrades_to_majority_vote() {
    let (ensemble, images) = setup();
    let (mut local, _) = setup();
    let (_, split) = split_inputs(&mut local, &images);
    let outs = local.outputs(&split);
    let expected = majority_with_weights(outs.iter().map(|o| (o.pred, 1.0)), outs.len() as f32);

    let server = Server::start(ensemble, remix(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reply = client.predict(split.data(), Some(0), false).unwrap();
    assert_eq!(reply.status, 200);
    assert!(reply.degraded, "a zero deadline must force the fallback");
    assert!(!reply.cached);
    match expected {
        Prediction::Decided(class) => assert_eq!(reply.prediction, Some(class as u64)),
        Prediction::NoMajority => assert_eq!(reply.prediction, None),
    }

    // Degraded verdicts are load artifacts and must never be cached: the
    // same request again recomputes (and degrades) instead of hitting.
    let again = client.predict(split.data(), Some(0), false).unwrap();
    assert!(again.degraded && !again.cached);
    assert_eq!(again.verdict_json, reply.verdict_json);
    let stats = server.stats();
    assert_eq!(stats.degraded, 2);
    assert_eq!(stats.cache_hits, 0);
}

#[test]
fn full_queue_sheds_with_429() {
    let (ensemble, images) = setup();
    let config = ServeConfig {
        queue_capacity: 1,
        max_batch: 8,
        // A long window keeps the first request parked in the queue while
        // the second one arrives and finds it full. One shard, so both
        // requests contend for the same capacity-1 queue (identical inputs
        // would route to the same shard anyway — this just makes it
        // explicit).
        shards: 1,
        batch_window: Duration::from_millis(1000),
        ..ServeConfig::default()
    };
    let server = Server::start(ensemble, remix(), config).unwrap();
    let addr = server.addr();
    let image = images[0].data().to_vec();

    let holder = {
        let image = image.clone();
        thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.predict(&image, Some(10_000), true).unwrap()
        })
    };
    thread::sleep(Duration::from_millis(200));
    let mut client = Client::connect(addr).unwrap();
    let shed = client.predict(&image, Some(10_000), true).unwrap();
    assert_eq!(shed.status, 429, "queue at capacity must shed, not wait");
    assert!(shed.body.contains("overloaded"));

    let held = holder.join().unwrap();
    assert_eq!(held.status, 200, "the queued request still completes");
    assert_eq!(server.stats().shed, 1);
}

/// Reads exactly one HTTP response (status, headers, `Content-Length` body)
/// from a keep-alive connection, leaving any follow-up intact.
fn read_one_response(reader: &mut impl BufRead) -> (u16, Vec<String>, String) {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    let status: u16 = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    let mut headers = Vec::new();
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).unwrap();
        let header = header.trim_end().to_string();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().unwrap();
            }
        }
        headers.push(header);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).unwrap();
    (status, headers, String::from_utf8(body).unwrap())
}

#[test]
fn connection_close_is_echoed_framed_and_honored() {
    let (ensemble, _) = setup();
    let server = Server::start(ensemble, remix(), ServeConfig::default()).unwrap();

    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write!(stream, "GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    // read_to_string only returns once the server actually closes the
    // socket — the old front door advertised keep-alive and kept it open.
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK"));
    assert!(
        text.contains("Connection: close\r\n"),
        "response must echo the close, not advertise keep-alive: {text}"
    );
    assert!(!text.contains("keep-alive"));
    // The framing is still exact: Content-Length matches the body.
    let (head, body) = text.split_once("\r\n\r\n").unwrap();
    let advertised: usize = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .unwrap()
        .parse()
        .unwrap();
    assert_eq!(body.len(), advertised);
    // And the socket is really closed for writing too.
    let mut probe = [0u8; 1];
    assert_eq!(stream.read(&mut probe).unwrap(), 0);
}

#[test]
fn keepalive_connection_survives_an_interleaved_400() {
    let (ensemble, images) = setup();
    let server = Server::start(ensemble, remix(), ServeConfig::default()).unwrap();
    let stream = TcpStream::connect(server.addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);

    // 1: a well-formed request with a non-JSON body — a 400 that must not
    // desync the connection (the body was fully framed and consumed).
    write!(
        writer,
        "POST /predict HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot json"
    )
    .unwrap();
    let (status, headers, body) = read_one_response(&mut reader);
    assert_eq!(status, 400);
    assert!(body.contains("invalid json"));
    assert!(headers.iter().any(|h| h == "Connection: keep-alive"));

    // 2: a wrong-method probe on a known path answers 405, not 404.
    write!(writer, "GET /predict HTTP/1.1\r\n\r\n").unwrap();
    let (status, _, _) = read_one_response(&mut reader);
    assert_eq!(status, 405);

    // 3: the very same connection then serves a real prediction.
    let mut predict_body = String::from("{\"image\":[");
    for (i, f) in images[0].data().iter().enumerate() {
        if i > 0 {
            predict_body.push(',');
        }
        predict_body.push_str(&f.to_string());
    }
    predict_body.push_str("],\"deadline_ms\":10000}");
    write!(
        writer,
        "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{predict_body}",
        predict_body.len()
    )
    .unwrap();
    let (status, _, body) = read_one_response(&mut reader);
    assert_eq!(status, 200, "connection desynced after the 400: {body}");
    assert!(body.starts_with("{\"verdict\":"));

    // 4: and plain pipelined traffic still flows.
    write!(writer, "GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let (status, _, body) = read_one_response(&mut reader);
    assert_eq!(status, 200);
    assert_eq!(body, "{\"status\":\"ok\"}");
}

#[test]
fn sharded_server_stays_byte_identical_and_aggregates_stats() {
    let (ensemble, images) = setup();
    let (mut local, _) = setup();
    let config = ServeConfig {
        shards: 3,
        ..ServeConfig::default()
    };
    let server = Server::start(ensemble, remix(), config).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let reference = remix();

    // Distinct inputs spread across the shards; every shard owns a
    // bit-identical ensemble replica, so every verdict must still match the
    // serial Remix::predict bytes.
    for image in images.iter().take(6) {
        let reply = client.predict(image.data(), Some(10_000), true).unwrap();
        assert_eq!(reply.status, 200);
        assert!(!reply.degraded);
        let expected = verdict_fragment(&reference.predict(&mut local, image));
        assert_eq!(
            reply.verdict_json, expected,
            "shard-routed verdict must be byte-identical to Remix::predict"
        );
    }

    // Cache hits are shard-local: the repeat lands on the same shard by
    // construction (same content key), so it must hit.
    let cold = client
        .predict(images[0].data(), Some(10_000), false)
        .unwrap();
    assert!(!cold.cached);
    let warm = client
        .predict(images[0].data(), Some(10_000), false)
        .unwrap();
    assert!(warm.cached);
    assert_eq!(warm.verdict_json, cold.verdict_json);

    // /stats sums the per-shard atomics into one view.
    let stats = server.stats();
    assert_eq!(stats.shards, 3);
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(
        stats.batched_requests, 7,
        "6 bypasses + 1 cold run computed"
    );
    assert!(stats.batches >= 1 && stats.batches <= 7);

    // Per-level accounting: without a scheduler, every computed verdict is
    // either a fast-path Skip (unanimous) or a full-budget disagreement —
    // tallies the local replica can predict exactly.
    let mut expected_skip = 0u64;
    let mut expected_full = 0u64;
    for image in images.iter().take(6).chain(std::iter::once(&images[0])) {
        let outs = local.outputs(image);
        if outs.iter().all(|o| o.pred == outs[0].pred) {
            expected_skip += 1;
        } else {
            expected_full += 1;
        }
    }
    assert_eq!(stats.xai_skip, expected_skip);
    assert_eq!(stats.xai_full, expected_full);
    assert_eq!(stats.xai_skip + stats.xai_full, 7);
    assert_eq!(stats.xai_light, 0);
    assert_eq!(stats.xai_standard, 0);
    assert_eq!(stats.downgraded, 0);
    assert_eq!(stats.degraded, 0);

    let wire = client.stats().unwrap();
    let pairs = wire.as_object().expect("/stats is a JSON object");
    match pairs.iter().find(|(k, _)| k == "shards") {
        Some((_, serde::Value::UInt(3))) => {}
        other => panic!("`/stats` must report the shard count: {other:?}"),
    }
    // The scheduler counters are first-class wire fields, not just internal
    // snapshot sums.
    for name in [
        "xai_skip",
        "xai_light",
        "xai_standard",
        "xai_full",
        "downgraded",
        "degraded",
    ] {
        let got = match pairs.iter().find(|(k, _)| k == name) {
            Some((_, serde::Value::UInt(n))) => *n,
            other => panic!("`/stats` must carry {name}: {other:?}"),
        };
        let expected = match name {
            "xai_skip" => expected_skip,
            "xai_full" => expected_full,
            _ => 0,
        };
        assert_eq!(got, expected, "{name}");
    }
}

/// A scheduler-enabled pipeline mirroring [`remix`]'s seed and threading.
fn scheduled_remix() -> Remix {
    Remix::builder()
        .seed(7)
        .threads(1)
        .scheduler(TriageScheduler::adaptive())
        .build()
}

#[test]
fn triage_levels_are_deterministic_across_shard_counts() {
    // Same input + seed => same budget level and byte-identical verdict,
    // whether the request lands on a 1-shard or a 3-shard server, and both
    // must equal the local scheduled Remix::predict exactly.
    let (ensemble_a, images) = setup();
    let (ensemble_b, _) = setup();
    let (mut local, _) = setup();
    let reference = scheduled_remix();
    let one = Server::start(
        ensemble_a,
        scheduled_remix(),
        ServeConfig {
            shards: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let many = Server::start(
        ensemble_b,
        scheduled_remix(),
        ServeConfig {
            shards: 3,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client_one = Client::connect(one.addr()).unwrap();
    let mut client_many = Client::connect(many.addr()).unwrap();

    let mut seen_levels = std::collections::BTreeSet::new();
    for image in images.iter().take(12) {
        let a = client_one
            .predict(image.data(), Some(10_000), true)
            .unwrap();
        let b = client_many
            .predict(image.data(), Some(10_000), true)
            .unwrap();
        assert_eq!(a.status, 200);
        assert_eq!(b.status, 200);
        assert!(
            XaiLevel::parse(&a.xai_level).is_some(),
            "every verdict must carry a ladder level, got {:?}",
            a.xai_level
        );
        assert_eq!(a.xai_level, b.xai_level, "level diverged across shards");
        assert_eq!(
            a.verdict_json, b.verdict_json,
            "verdict bytes diverged across shard counts"
        );
        let expected = verdict_fragment(&reference.predict(&mut local, image));
        assert_eq!(
            a.verdict_json, expected,
            "served scheduled verdict must match Remix::predict bytes"
        );
        seen_levels.insert(a.xai_level.clone());
    }
    // The sweep must actually exercise the scheduler: at least Skip (the
    // unanimous inputs) plus some non-Skip level.
    assert!(seen_levels.contains("skip"), "levels seen: {seen_levels:?}");
    assert!(seen_levels.len() >= 2, "levels seen: {seen_levels:?}");
}

#[test]
fn latency_pressure_downgrades_instead_of_degrading() {
    let (ensemble, images) = setup();
    let (mut local, _) = setup();
    let (_, split) = split_inputs(&mut local, &images);
    // Thresholds that send every disagreement to Full, plus a 1 ns latency
    // budget: once the engine's cost model is warm, the planner can only fit
    // the batch by downgrading all the way to Skip.
    let force_full = TriageThresholds {
        skip_max: 0.0,
        light_max: 0.0,
        standard_max: 0.0,
    };
    let remix_forced = Remix::builder()
        .seed(7)
        .threads(1)
        .scheduler(TriageScheduler::with_thresholds(force_full))
        .build();
    let server = Server::start(
        ensemble,
        remix_forced,
        ServeConfig {
            shards: 1,
            latency_budget: Duration::from_nanos(1),
            ..ServeConfig::default()
        },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Cold cost model: the first disagreement runs at its assigned level.
    let first = client.predict(split.data(), Some(10_000), true).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.xai_level, "full");
    assert!(!first.degraded);

    // Warm cost model: the same request now exceeds the 1 ns budget and is
    // planned down to Skip — served, not degraded, and tagged accordingly.
    let second = client.predict(split.data(), Some(10_000), true).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.xai_level, "skip");
    assert!(
        !second.degraded,
        "downgrade must not masquerade as degraded"
    );
    // A pressure downgrade yields exactly the verdict the scheduler would
    // have produced at the lower level.
    let skip_local = Remix::builder()
        .seed(7)
        .threads(1)
        .scheduler(TriageScheduler::pinned(XaiLevel::Skip))
        .build();
    let expected = verdict_fragment(&skip_local.predict(&mut local, &split));
    assert_eq!(second.verdict_json, expected);

    let stats = server.stats();
    assert!(stats.downgraded >= 1, "stats: {stats:?}");
    assert_eq!(stats.degraded, 0);
    assert_eq!(stats.xai_full, 1);
    assert!(stats.xai_skip >= 1);
}

#[test]
fn out_of_range_pixels_are_rejected_with_400() {
    let (ensemble, images) = setup();
    let server = Server::start(ensemble, remix(), ServeConfig::default()).unwrap();
    let len = images[0].data().len();
    // 1e39 is a valid JSON number but overflows f32 to ±inf.
    for bad in ["1e39", "-1e39"] {
        let mut pixels = vec!["0.5"; len];
        pixels[len / 2] = bad;
        let body = format!("{{\"image\":[{}],\"no_cache\":true}}", pixels.join(","));
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(
            stream,
            "POST /predict HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let (status, _, reply) = read_one_response(&mut BufReader::new(stream));
        assert_eq!(status, 400, "{bad}: {reply}");
        assert_eq!(
            reply, "{\"error\":\"`image` entries must be finite f32 numbers\"}",
            "{bad}"
        );
    }
    // Rejected before accounting: nothing reached the ensemble.
    assert_eq!(server.stats().requests, 0);
}

#[test]
fn deadline_beyond_one_hour_is_rejected_with_400() {
    let (ensemble, images) = setup();
    let server = Server::start(ensemble, remix(), ServeConfig::default()).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let image = images[0].data();
    // A deadline that large would mean "never degrade".
    let reply = client.predict(image, Some(3_600_001), true).unwrap();
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains("deadline_ms"), "{}", reply.body);
    assert_eq!(server.stats().requests, 0);
    // One hour exactly is still accepted.
    let reply = client.predict(image, Some(3_600_000), true).unwrap();
    assert_eq!(reply.status, 200, "{}", reply.body);
}

/// Reads one unsigned integer field of a JSON object.
fn uint(pairs: &[(String, serde::Value)], name: &str) -> u64 {
    match pairs.iter().find(|(k, _)| k == name) {
        Some((_, serde::Value::UInt(n))) => *n,
        other => panic!("missing numeric field {name}: {other:?}"),
    }
}

#[test]
fn drift_alerts_are_counted_once_and_leave_verdicts_unchanged() {
    // A reference window of unanimous verdicts, then a run of
    // disagreements: the disagreement-rate test trips within a few.
    let (ensemble, images) = setup();
    let (mut local, _) = setup();
    let (unanimous, split) = split_inputs(&mut local, &images);
    let drift = remix_serve::DriftConfig {
        reference_window: 16,
        min_feature_support: 4,
        ..Default::default()
    };
    let config = ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    };
    let watched = Server::start(
        ensemble,
        remix(),
        ServeConfig {
            drift: Some(drift),
            ..config.clone()
        },
    )
    .unwrap();
    let plain = Server::start(local, remix(), config).unwrap();
    let mut watched_client = Client::connect(watched.addr()).unwrap();
    let mut plain_client = Client::connect(plain.addr()).unwrap();
    let stream = std::iter::repeat_n(&unanimous, 16).chain(std::iter::repeat_n(&split, 24));
    for image in stream {
        let got = watched_client
            .predict(image.data(), Some(10_000), true)
            .unwrap();
        let want = plain_client
            .predict(image.data(), Some(10_000), true)
            .unwrap();
        assert_eq!((got.status, want.status), (200, 200));
        assert_eq!(
            got.verdict_json, want.verdict_json,
            "drift detection must not change a verdict byte"
        );
    }

    // The engine folds a verdict after replying, so wait for the alert.
    let mut alerts = 0;
    for _ in 0..500 {
        let drift = watched_client.drift().unwrap();
        let models = drift
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "models");
        let Some((_, serde::Value::Array(models))) = models else {
            panic!("/drift has no models array: {drift:?}");
        };
        alerts = models
            .iter()
            .map(|m| uint(m.as_object().unwrap(), "alerts"))
            .sum::<u64>();
        if alerts > 0 {
            break;
        }
        thread::sleep(Duration::from_millis(10));
    }
    assert!(alerts >= 1, "the shifted stream must trip the detector");
    let stats = watched_client.stats().unwrap();
    assert_eq!(uint(stats.as_object().unwrap(), "drift_alerts"), alerts);
    assert_eq!(plain.stats().drift_alerts, 0);
}

#[test]
fn health_stats_and_error_paths() {
    let (ensemble, images) = setup();
    let server = Server::start(ensemble, remix(), ServeConfig::default()).unwrap();

    // /healthz over a raw close-delimited connection.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write!(stream, "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 200 OK"));
    assert!(text.ends_with("{\"status\":\"ok\"}"));

    // A syntactically valid request with a non-JSON body is a 400, and the
    // connection stays usable afterwards.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write!(
        stream,
        "POST /predict HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot json"
    )
    .unwrap();
    write!(stream, "GET /nowhere HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 400 Bad Request"));
    assert!(text.contains("HTTP/1.1 404 Not Found"));

    let mut client = Client::connect(server.addr()).unwrap();
    // Wrong image length: rejected before it ever reaches the queue.
    let reply = client.predict(&[0.0; 3], None, false).unwrap();
    assert_eq!(reply.status, 400);
    assert!(reply.body.contains("image"), "error names the bad field");

    let good = client
        .predict(images[0].data(), Some(10_000), false)
        .unwrap();
    assert_eq!(good.status, 200);
    let stats = client.stats().unwrap();
    let pairs = stats.as_object().expect("/stats is a JSON object");
    let get = |name: &str| -> u64 {
        match pairs.iter().find(|(k, _)| k == name) {
            Some((_, serde::Value::UInt(n))) => *n,
            other => panic!("missing numeric stat {name}: {other:?}"),
        }
    };
    // Only the well-formed /predict counts; the malformed ones were
    // rejected before accounting.
    assert_eq!(get("requests"), 1);
    assert_eq!(get("cache_misses"), 1);
    assert_eq!(get("cached_verdicts"), 1);
    assert_eq!(get("shed"), 0);
}
