//! Run output: named metrics, the workload-property report, the benchmark's
//! own spans, and the final one-line JSON result.

use std::fmt::Write as _;
use std::time::Instant;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one run produced.
#[derive(Debug, Default)]
pub struct RunReport {
    pub attempted: u64,
    pub failed: u64,
    /// Verdict byte mismatches (also counted in `failed`).
    pub mismatched: u64,
    /// The metrics of the requested mode, printed in the final JSON line.
    pub metrics: Vec<Metric>,
    /// Measurements that only some workloads have; printed and written to
    /// the trace record, not part of the final line.
    pub extra: Vec<Metric>,
    /// Workload-property report lines.
    pub properties: Vec<(String, String)>,
}

impl RunReport {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn extra(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.extra.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn property(&mut self, key: impl Into<String>, value: impl ToString) {
        self.properties.push((key.into(), value.to_string()));
    }

    /// Every checked output matched its reference.
    pub fn correct(&self) -> bool {
        self.mismatched == 0
    }

    /// The final result line.
    pub fn result_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Full-precision JSON number; non-finite values (never expected) as null.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `VmHWM` (peak resident set) of this process in MB, from
/// `/proc/self/status`.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One span the benchmark recorded around a call into a layer.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Request (verdict) the span belongs to; 0 outside any request.
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    next_id: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            next_id: 1,
        }
    }

    /// Reserves the id of a span that encloses spans recorded before it
    /// closes; record it with [`Tracer::record_as`].
    pub fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under a reserved id.
    pub fn record_as(
        &mut self,
        id: u64,
        name: impl Into<String>,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(SpanRecord {
            id,
            parent,
            request,
            name: name.into(),
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
        });
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }
}

/// Writes the traced run's record: the per-layer metrics, the
/// server-only measurements, the properties, the benchmark's spans and the
/// program's own counter/span snapshot.
pub fn write_trace_record(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    report: &RunReport,
    tracer: &Tracer,
    program_trace: &str,
) -> std::io::Result<()> {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": {}, \"seed\": {seed}, \"metrics\": {{",
        json_string(workload)
    );
    for (i, m) in report.metrics.iter().chain(&report.extra).enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            json_number(m.value),
            json_string(m.unit)
        );
    }
    out.push_str("}, \"properties\": {");
    for (i, (k, v)) in report.properties.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: {}", json_string(k), json_string(v));
    }
    out.push_str("}, \"spans\": [");
    for (i, s) in tracer.spans().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            s.id,
            s.parent,
            s.request,
            json_string(&s.name),
            s.start_ns,
            s.end_ns
        );
    }
    let _ = write!(out, "\n], \"program_trace\": {program_trace}}}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = RunReport {
            attempted: 10,
            ..RunReport::default()
        };
        r.metric("p50_ms", 1.25, "ms");
        r.metric("setup_s", 0.5, "s");
        assert_eq!(
            r.result_json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.failed = 1;
        assert!(r
            .result_json()
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 1"));
        r.failed = 2;
        r.mismatched = 1;
        assert!(r.result_json().starts_with("{\"correct\": false"));
    }
}
