//! `remixbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path remixbench/Cargo.toml -- \
//!     --workload <offline-gtsrb|serve-disagree|serve-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics; with
//! `--trace 1` it times calls into each layer instead and writes a per-layer
//! record to `remixbench/out/`. Either way the last line of standard output
//! is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Any verdict byte mismatch makes the run exit nonzero. See README.md.

mod layers;
mod loadgen;
mod offline;
mod report;
mod serve;
mod stats;
mod stream;

use loadgen::{across_rounds, Phases, Plan, Step};
use report::{RunReport, Tracer};
use stats::{median, Summary};
use std::path::PathBuf;
use std::process::ExitCode;

/// Tail percentile reported for every latency (`p75_ms*`). Not p99 or p90:
/// on a shared 2-core host the served p90 swung by up to 3.5x between
/// runs (one-off stalls from outside the process), the p75 stayed within a
/// tenth, and offline a p99 would need 1000 verdicts per step.
pub const TAIL_Q: f64 = 0.75;
const TAIL_NAME: &str = "p75";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Regenerate the stored offline reference instead of measuring.
    pub write_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        write_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-reference" {
            args.write_reference = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Where traced records and throwaway registries go: `out/` inside the
/// benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Host parallelism, recorded with every result that depends on threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order, plus attempted/failed over every phase.
pub fn common_metrics(
    report: &mut RunReport,
    plan: &Plan,
    phases: &Phases,
    setup_s: &[f64],
    balanced_accuracy: f64,
) {
    let p50 = |s: &Step| Some(Summary::of(&s.latency_ms, TAIL_Q).p50);
    let tail = |s: &Step| Summary::of(&s.latency_ms, TAIL_Q).tail;
    let per_round = |steps: &[Step], stat: &dyn Fn(&Step) -> Option<f64>| {
        across_rounds(steps, stat).unwrap_or(f64::NAN)
    };
    report.metric("setup_s", median(setup_s), "s");
    report.metric(
        "verdicts_per_s",
        per_round(&phases.closed, &|s| Some(s.rate)),
        "1/s",
    );
    report.metric("p50_ms", per_round(&phases.closed, &p50), "ms");
    report.metric(
        format!("{TAIL_NAME}_ms"),
        per_round(&phases.closed, &tail),
        "ms",
    );
    report.metric("p50_ms.light", per_round(&phases.light, &p50), "ms");
    report.metric(
        format!("{TAIL_NAME}_ms.light"),
        per_round(&phases.light, &tail),
        "ms",
    );
    report.metric("p50_ms.heavy", per_round(&phases.heavy, &p50), "ms");
    report.metric(
        format!("{TAIL_NAME}_ms.heavy"),
        per_round(&phases.heavy, &tail),
        "ms",
    );
    report.metric("slo_rps", phases.slo_rps, "1/s");
    report.metric("balanced_accuracy", balanced_accuracy, "ratio");
    report.metric(
        "peak_rss_mb",
        report::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
    let (mut attempted, mut failed, mut mismatched, mut degraded) = (0, 0, 0, 0);
    for (_, step) in phases.steps() {
        attempted += step.sent;
        failed += step.failed;
        mismatched += step.mismatched;
        degraded += step.degraded;
    }
    report.attempted += attempted;
    report.failed += failed;
    report.mismatched += mismatched;
    report.property("failed_share", failed as f64 / attempted.max(1) as f64);
    report.property("degraded_share", degraded as f64 / attempted.max(1) as f64);
    report.property("limit", format!("{TAIL_NAME} <= {} ms", plan.limit_ms));
}

/// Per-step load-generator report: sent/succeeded/failed, lateness, tails.
pub fn phase_properties(report: &mut RunReport, plan: &Plan, phases: &Phases) {
    report.property("nproc", nproc());
    report.property(
        "loadgen",
        format!(
            "{} open-loop worker(s), one connection or caller each; limit {TAIL_NAME} <= {} ms",
            plan.workers, plan.limit_ms
        ),
    );
    for (name, step) in phases.steps() {
        let s = Summary::of(&step.latency_ms, TAIL_Q);
        report.property(
            format!("step.{name}@{:.1}", step.rate),
            format!(
                "sent={} succeeded={} failed={} degraded={} cached={} p50_ms={:.3} {TAIL_NAME}_ms={} late_ms.p50={:.3} late_growth_ms={:.3} passed={}",
                step.sent,
                step.succeeded,
                step.failed,
                step.degraded,
                step.cached,
                s.p50,
                s.tail.map_or("n/a".to_string(), |t| format!("{t:.3}")),
                step.median_late_ms(),
                step.late_growth_ms,
                name == "closed" || step.passes(TAIL_Q, plan.limit_ms),
            ),
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("remixbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_reference {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("reference/offline-gtsrb.txt");
        return match offline::write_reference(&path) {
            Ok(()) => {
                println!("wrote {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("remixbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let mut report = RunReport::default();
    let mut tracer = Tracer::new();
    match args.workload.as_str() {
        "offline-gtsrb" => offline::run(&args, &mut report, &mut tracer),
        "serve-disagree" => serve::run(serve::Kind::Disagree, &args, &mut report, &mut tracer),
        "serve-mixed" => serve::run(serve::Kind::Mixed, &args, &mut report, &mut tracer),
        other => {
            eprintln!(
                "remixbench: unknown --workload `{other}` (offline-gtsrb | serve-disagree | serve-mixed)"
            );
            return ExitCode::from(2);
        }
    }
    println!(
        "# workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for (k, v) in &report.properties {
        println!("# {k}: {v}");
    }
    for m in &report.extra {
        println!("# {}: {} {}", m.name, report::json_number(m.value), m.unit);
    }
    if args.trace {
        let path = out_dir().join(format!("{}.trace.json", args.workload));
        let program = remix_trace::snapshot().to_json_string();
        match report::write_trace_record(
            &path,
            &args.workload,
            args.seed,
            &report,
            &tracer,
            &program,
        ) {
            Ok(()) => println!("# trace record: {}", path.display()),
            Err(e) => {
                eprintln!("remixbench: writing {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    let incomplete = report.metrics.iter().any(|m| !m.value.is_finite());
    if incomplete {
        eprintln!(
            "remixbench: a metric could not be measured (see the `# error.*` lines); run longer"
        );
        return ExitCode::from(3);
    }
    println!("{}", report.result_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "remixbench: {} failed operations, {} verdict byte mismatches",
            report.failed, report.mismatched
        );
        ExitCode::from(1)
    }
}
