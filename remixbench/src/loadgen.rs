//! Load generation: closed loops, open-loop rate steps and the `slo_rps`
//! search.
//!
//! An open-loop step schedules request `i` at `i / rate` seconds after the
//! step starts, whatever happened to earlier requests, and times it from
//! that *due* time: a stall that delays later sends is charged to them.
//! Requests are dealt round-robin to a fixed set of workers, each of which
//! owns one connection (or one in-process caller), so at most
//! `workers.len()` requests are in flight. A worker that falls behind sends
//! late; the lateness is recorded, and a step whose lateness keeps growing
//! has a backlog and does not pass.

use crate::stats::Summary;
use crate::TAIL_Q;
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered with the reference verdict bytes.
    Ok,
    /// Answered by the deadline majority-vote fallback (its reference bytes
    /// too). Counted as succeeded and, separately, as degraded.
    Degraded,
    /// Non-200 status, transport error or shed.
    Failed,
    /// Answered, but the verdict bytes differ from the reference.
    Mismatch,
}

/// One request's result as a worker reports it.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub outcome: Outcome,
    pub cached: bool,
    /// Server-measured latency (the envelope's `latency_us`), if served.
    pub server_us: Option<f64>,
}

impl Reply {
    pub fn local(outcome: Outcome) -> Reply {
        Reply {
            outcome,
            cached: false,
            server_us: None,
        }
    }
}

/// Everything measured over one closed loop or one open-loop rate step.
#[derive(Debug, Clone, Default)]
pub struct Step {
    /// Offered rate (open loop) or achieved rate (closed loop), per second.
    pub rate: f64,
    pub wall_s: f64,
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
    pub mismatched: u64,
    pub degraded: u64,
    pub cached: u64,
    /// Per request: due time (open loop) or send time (closed loop) until
    /// the reply was complete.
    pub latency_ms: Vec<f64>,
    /// Per request: send time minus due time.
    pub late_ms: Vec<f64>,
    /// Client latency minus the server's own `latency_us`, per served reply.
    pub frontdoor_us: Vec<f64>,
    pub server_us: Vec<f64>,
    /// Mean lateness of the last quarter of requests minus that of the
    /// first quarter: positive and large when a backlog builds.
    pub late_growth_ms: f64,
}

struct Sample {
    i: u64,
    late_ms: f64,
    latency_ms: f64,
    client_us: f64,
    reply: Reply,
}

impl Step {
    fn from_samples(mut samples: Vec<Sample>, rate: f64, wall: Duration) -> Step {
        samples.sort_by_key(|s| s.i);
        let mut step = Step {
            rate,
            wall_s: wall.as_secs_f64(),
            ..Step::default()
        };
        for s in &samples {
            step.sent += 1;
            match s.reply.outcome {
                Outcome::Ok => step.succeeded += 1,
                Outcome::Degraded => {
                    step.succeeded += 1;
                    step.degraded += 1;
                }
                Outcome::Failed => step.failed += 1,
                Outcome::Mismatch => {
                    step.failed += 1;
                    step.mismatched += 1;
                }
            }
            step.cached += u64::from(s.reply.cached);
            step.latency_ms.push(s.latency_ms);
            step.late_ms.push(s.late_ms);
            if let Some(server_us) = s.reply.server_us {
                step.server_us.push(server_us);
                step.frontdoor_us.push(s.client_us - server_us);
            }
        }
        let quarter = samples.len() / 4;
        if quarter > 0 {
            let mean = |xs: &[Sample]| xs.iter().map(|s| s.late_ms).sum::<f64>() / xs.len() as f64;
            step.late_growth_ms =
                mean(&samples[samples.len() - quarter..]) - mean(&samples[..quarter]);
        }
        step
    }

    /// Whether the step meets a latency limit on the `tail_q` percentile
    /// with nothing failed and no growing backlog. A tail without enough
    /// samples beyond it does not pass.
    pub fn passes(&self, tail_q: f64, limit_ms: f64) -> bool {
        self.failed == 0
            && self.late_growth_ms <= limit_ms
            && Summary::of(&self.latency_ms, tail_q)
                .tail
                .is_some_and(|t| t <= limit_ms)
    }

    pub fn median_late_ms(&self) -> f64 {
        if self.late_ms.is_empty() {
            0.0
        } else {
            crate::stats::median(&self.late_ms)
        }
    }
}

/// Offset of request `i` from the start of an open-loop step.
fn due_offset(i: u64, rate: f64) -> Duration {
    Duration::from_secs_f64(i as f64 / rate)
}

/// Runs one open-loop step at `rate` requests/s for `duration`. Worker `w`
/// handles requests `w, w + k, w + 2k, ...` of the schedule, `k` being the
/// worker count; `call(i)` performs request `i`.
pub fn open_loop<W>(rate: f64, duration: Duration, workers: &mut [W]) -> Step
where
    W: FnMut(u64) -> Reply + Send,
{
    assert!(rate > 0.0 && !workers.is_empty());
    let k = workers.len() as u64;
    let total = (duration.as_secs_f64() * rate).round().max(1.0) as u64;
    let start = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .enumerate()
            .map(|(w, call)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = w as u64;
                    while i < total {
                        let due = start + due_offset(i, rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let reply = call(i);
                        let done = Instant::now();
                        out.push(Sample {
                            i,
                            late_ms: ms(sent.saturating_duration_since(due)),
                            latency_ms: ms(done.saturating_duration_since(due)),
                            client_us: (done - sent).as_secs_f64() * 1e6,
                            reply,
                        });
                        i += k;
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load generator worker panicked"))
            .collect()
    });
    Step::from_samples(samples, rate, start.elapsed())
}

/// Runs one caller back to back for `duration` (at least `min_requests`
/// requests): each request is sent when the previous one completed.
pub fn closed_loop<W>(duration: Duration, min_requests: u64, call: &mut W) -> Step
where
    W: FnMut(u64) -> Reply,
{
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut i = 0u64;
    while i < min_requests || start.elapsed() < duration {
        let sent = Instant::now();
        let reply = call(i);
        let elapsed = sent.elapsed();
        samples.push(Sample {
            i,
            late_ms: 0.0,
            latency_ms: ms(elapsed),
            client_us: elapsed.as_secs_f64() * 1e6,
            reply,
        });
        i += 1;
    }
    let wall = start.elapsed();
    Step::from_samples(samples, i as f64 / wall.as_secs_f64(), wall)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Bisection for the highest rate that passes, between `ok` (a floor) and
/// `bad` (a ceiling above capacity), one probe at a time.
#[derive(Debug, Clone)]
pub struct Bisection {
    ok: f64,
    bad: f64,
    /// Highest probed rate that passed.
    best: Option<f64>,
}

impl Bisection {
    pub fn new(ok: f64, bad: f64) -> Bisection {
        Bisection {
            ok,
            bad,
            best: None,
        }
    }

    /// The rate to probe next.
    pub fn next_rate(&self) -> f64 {
        0.5 * (self.ok + self.bad)
    }

    /// Records the outcome of a probe at `next_rate()`.
    pub fn record(&mut self, passed: bool) {
        let rate = self.next_rate();
        if passed {
            self.ok = rate;
            self.best = Some(rate);
        } else {
            self.bad = rate;
        }
    }

    /// The highest probed rate that passed, if any did.
    pub fn best(&self) -> Option<f64> {
        self.best
    }
}

/// The fixed load plan of one workload; every number is absolute.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Measured seconds of the whole run, split across the phases.
    pub seconds: f64,
    pub light_rps: f64,
    pub heavy_rps: f64,
    /// Latency limit on the tail percentile, from due time.
    pub limit_ms: f64,
    /// Upper end of the `slo_rps` bisection (above capacity); the heavy
    /// rate is its lower end.
    pub ceiling_rps: f64,
    /// Open-loop workers (each its own connection or caller).
    pub workers: usize,
    /// Fewest requests of each round's closed loop, light step and heavy
    /// step, and of every `slo_rps` probe: a step at a low rate runs longer
    /// than its share of `seconds` until it has them, so its tail keeps ten
    /// samples beyond it.
    pub min_requests: u64,
}

/// Probes of each round's `slo_rps` bisection.
pub const PROBES_PER_ROUND: usize = 5;
/// Closed-loop windows of each round.
pub const CLOSED_WINDOWS: usize = 3;
/// Shares of `Plan::seconds` for: the closed loop, the light step, the
/// heavy step, and all `slo_rps` probes together.
pub const SPLIT: [f64; 4] = [0.3, 0.2, 0.15, 0.35];

/// Every step of one run: per round, `CLOSED_WINDOWS` closed-loop windows,
/// a light and a heavy step and an `slo_rps` bisection.
pub struct Phases {
    pub closed: Vec<Step>,
    pub light: Vec<Step>,
    pub heavy: Vec<Step>,
    pub slo_rps: f64,
    pub probes: Vec<Step>,
}

impl Phases {
    pub fn steps(&self) -> impl Iterator<Item = (&'static str, &Step)> {
        self.closed
            .iter()
            .map(|s| ("closed", s))
            .chain(self.light.iter().map(|s| ("light", s)))
            .chain(self.heavy.iter().map(|s| ("heavy", s)))
            .chain(self.probes.iter().map(|s| ("slo-probe", s)))
    }
}

/// Median over rounds of a per-round statistic; `None` if any round lacks
/// it.
pub fn across_rounds(steps: &[Step], stat: impl Fn(&Step) -> Option<f64>) -> Option<f64> {
    let values: Option<Vec<f64>> = steps.iter().map(stat).collect();
    values
        .filter(|v| !v.is_empty())
        .map(|v| crate::stats::median(&v))
}

/// Runs a workload's phases in `rounds` interleaved rounds: each round runs
/// closed-loop windows (worker 0 alone), a light and a heavy step, and a
/// bisection for its own `slo_rps`, and the workload sets up afresh before
/// each round. Metrics are medians over rounds, so a burst of contention
/// from outside the process that spoils one round does not move them; a
/// single search over the whole run would follow one spoiled probe down.
pub struct Rounds<'p> {
    plan: &'p Plan,
    rounds: usize,
    closed: Vec<Step>,
    light: Vec<Step>,
    heavy: Vec<Step>,
    /// Each round's `slo_rps`.
    slo: Vec<f64>,
    probes: Vec<Step>,
    offset: u64,
}

impl<'p> Rounds<'p> {
    pub fn new(plan: &'p Plan, rounds: usize) -> Rounds<'p> {
        assert!(rounds > 0);
        Rounds {
            plan,
            rounds,
            closed: Vec::new(),
            light: Vec::new(),
            heavy: Vec::new(),
            slo: Vec::new(),
            probes: Vec::new(),
            offset: 0,
        }
    }

    /// Runs the next round. `make(w, offset)` builds worker `w`, whose call
    /// `i` carries stream position `offset + i`, so steps continue the
    /// stream instead of replaying it.
    pub fn round<W, F>(&mut self, mut make: F)
    where
        W: FnMut(u64) -> Reply + Send,
        F: FnMut(usize, u64) -> W,
    {
        let plan = self.plan;
        let rounds = self.rounds as f64;
        let secs = |share: f64| Duration::from_secs_f64(plan.seconds * share / rounds);
        let min = plan.min_requests;
        let mut offset = self.offset;
        // `rate: None` runs a closed loop on worker 0 alone.
        let mut step_at = |rate: Option<f64>, duration: Duration| {
            let step = match rate {
                None => closed_loop(duration, min, &mut make(0, offset)),
                Some(rate) => {
                    let duration = duration.max(Duration::from_secs_f64(min as f64 / rate));
                    let mut workers: Vec<W> = (0..plan.workers).map(|w| make(w, offset)).collect();
                    open_loop(rate, duration, &mut workers)
                }
            };
            offset += step.sent;
            step
        };
        // The closed loop runs in windows between the other steps, so its
        // median over windows follows the state the host was in for most
        // of the round, not for one stretch of it.
        let window = secs(SPLIT[0]) / CLOSED_WINDOWS as u32;
        self.closed.push(step_at(None, window));
        let light = step_at(Some(plan.light_rps), secs(SPLIT[1]));
        self.closed.push(step_at(None, window));
        let heavy = step_at(Some(plan.heavy_rps), secs(SPLIT[2]));
        self.closed.push(step_at(None, window));
        // The round's `slo_rps` is its highest passing probe; when none
        // passed, the heavy or else the light rate if its step passed,
        // else 0.
        let mut search = Bisection::new(plan.heavy_rps, plan.ceiling_rps);
        let probe_time = secs(SPLIT[3]) / PROBES_PER_ROUND as u32;
        for _ in 0..PROBES_PER_ROUND {
            let step = step_at(Some(search.next_rate()), probe_time);
            search.record(step.passes(TAIL_Q, plan.limit_ms));
            self.probes.push(step);
        }
        let passes = |s: &Step| s.passes(TAIL_Q, plan.limit_ms);
        self.slo.push(search.best().unwrap_or(if passes(&heavy) {
            plan.heavy_rps
        } else if passes(&light) {
            plan.light_rps
        } else {
            0.0
        }));
        self.light.push(light);
        self.heavy.push(heavy);
        self.offset = offset;
    }

    /// Ends the run; `slo_rps` is the median of the rounds' values.
    pub fn finish(self) -> Phases {
        Phases {
            closed: self.closed,
            light: self.light,
            heavy: self.heavy,
            slo_rps: crate::stats::median(&self.slo),
            probes: self.probes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_sends_on_schedule_and_times_from_due() {
        // Two workers, 200/s for 0.25 s: 50 requests due every 5 ms, each
        // taking 1 ms — nobody falls behind.
        let mut workers: Vec<_> = (0..2)
            .map(|_| {
                |_i: u64| {
                    std::thread::sleep(Duration::from_millis(1));
                    Reply::local(Outcome::Ok)
                }
            })
            .collect();
        let step = open_loop(200.0, Duration::from_millis(250), &mut workers);
        assert_eq!(step.sent, 50);
        assert_eq!(step.succeeded, 50);
        assert!(
            step.latency_ms.iter().all(|&l| l >= 1.0),
            "{:?}",
            step.latency_ms
        );
        assert!(step.median_late_ms() < 1.0);
        assert!(step.passes(0.5, 20.0));
    }

    #[test]
    fn a_stall_is_charged_to_the_requests_due_behind_it() {
        // One worker, 100/s: request 0 stalls 50 ms, so requests 1..5 were
        // due while it was stuck and their latency counts from their due
        // times, not from when they finally went out.
        let mut workers = vec![|i: u64| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(50));
            }
            Reply::local(Outcome::Ok)
        }];
        let step = open_loop(100.0, Duration::from_millis(200), &mut workers);
        assert_eq!(step.sent, 20);
        assert!(step.latency_ms[0] >= 50.0);
        // Request 1 was due at 10 ms and sent at ~50 ms.
        assert!(step.late_ms[1] >= 35.0, "{:?}", step.late_ms);
        assert!(step.latency_ms[1] >= 35.0);
        // The backlog drains: by the end nothing is late.
        assert!(*step.late_ms.last().unwrap() < 5.0);
    }

    #[test]
    fn a_growing_backlog_fails_the_step() {
        // 2 ms of work per request offered at 1000/s on one worker.
        let mut workers = vec![|_i: u64| {
            std::thread::sleep(Duration::from_millis(2));
            Reply::local(Outcome::Ok)
        }];
        let step = open_loop(1000.0, Duration::from_millis(200), &mut workers);
        assert!(step.late_growth_ms > 50.0, "{}", step.late_growth_ms);
        assert!(!step.passes(0.5, 10.0));
    }

    #[test]
    fn failures_and_mismatches_fail_the_step() {
        let mut workers = vec![|i: u64| {
            Reply::local(if i == 3 {
                Outcome::Mismatch
            } else {
                Outcome::Ok
            })
        }];
        let step = open_loop(1000.0, Duration::from_millis(50), &mut workers);
        assert_eq!((step.failed, step.mismatched), (1, 1));
        assert!(!step.passes(0.5, 1000.0));
    }

    #[test]
    fn closed_loop_rate_is_requests_over_wall() {
        let mut call = |_i: u64| {
            std::thread::sleep(Duration::from_millis(2));
            Reply::local(Outcome::Ok)
        };
        let step = closed_loop(Duration::from_millis(40), 5, &mut call);
        assert!(step.sent >= 5);
        assert!(step.rate > 100.0 && step.rate <= 500.0, "{}", step.rate);
    }

    #[test]
    fn slo_search_returns_a_rate_whose_step_passed() {
        let capacity = 730.0;
        let mut search = Bisection::new(100.0, 2000.0);
        let mut passed_rates = Vec::new();
        for _ in 0..6 {
            let rate = search.next_rate();
            let passed = rate <= capacity;
            if passed {
                passed_rates.push(rate);
            }
            search.record(passed);
        }
        let slo = search.best().expect("some probe passed");
        assert!(
            passed_rates.contains(&slo),
            "{slo} was never a passing probe"
        );
        assert!(slo <= capacity && capacity - slo <= 1900.0 / 64.0);
        // Nothing passes: no rate is claimed.
        let mut none = Bisection::new(100.0, 2000.0);
        for _ in 0..4 {
            none.record(false);
        }
        assert_eq!(none.best(), None);
    }

    #[test]
    fn rounds_pool_every_phase_and_search_in_each_round() {
        let plan = Plan {
            seconds: 0.3,
            light_rps: 1000.0,
            heavy_rps: 2000.0,
            limit_ms: 50.0,
            ceiling_rps: 4000.0,
            workers: 2,
            min_requests: 110,
        };
        let mut rounds = Rounds::new(&plan, 3);
        for _ in 0..3 {
            rounds.round(|_, _| |_i: u64| Reply::local(Outcome::Ok));
        }
        let phases = rounds.finish();
        assert_eq!(phases.closed.len(), 3 * CLOSED_WINDOWS);
        for step in phases
            .closed
            .iter()
            .chain(&phases.light)
            .chain(&phases.heavy)
        {
            assert!(step.sent >= 110, "{}", step.sent);
        }
        assert_eq!(phases.probes.len(), 3 * PROBES_PER_ROUND);
        // Instant replies pass every probe: each round's search climbs
        // toward the ceiling, and the median of three is a probed rate.
        let probed: Vec<f64> = phases.probes.iter().map(|s| s.rate).collect();
        assert!(probed.contains(&phases.slo_rps));
        assert!(phases.slo_rps > plan.heavy_rps);
    }
}
