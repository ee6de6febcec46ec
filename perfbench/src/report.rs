//! The result of one run: metrics, correctness checks, the environment,
//! and the one-line JSON result that ends standard output.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free-form provenance (e.g. which percentile a tail is and over how
    /// many samples); printed in the summary, not in the result line.
    pub note: String,
}

/// Outcome of a run: what was attempted, what failed, what was measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics under their benchmark names (`--trace 0`) or
    /// per-layer metrics (`--trace 1`): the result line carries these.
    pub metrics: Vec<Metric>,
    /// The same quantities under the names of the path they measure
    /// (`iteration_p50_ms`, `visible_tail_ms`, …), for the summary.
    pub named: Vec<Metric>,
    /// Failed correctness checks, one line each.
    pub check_failures: Vec<String>,
    /// Correctness checks that ran.
    pub checks_run: u64,
}

impl Outcome {
    pub fn metric_noted(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.named.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    /// Record a correctness check; a failing one counts as a failed
    /// operation and makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks_run += 1;
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    /// Whether every check passed, nothing failed and every metric is a
    /// finite number.
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.check_failures.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A finite f64 as a JSON number with all its digits (Rust's shortest
/// round-trip form, which is valid JSON for every finite value).
pub fn json_number(v: f64) -> String {
    format!("{v:?}")
}

/// Escape a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where and how a run executed.
#[derive(Debug, Clone)]
pub struct Environment {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub commit: String,
    pub nproc: usize,
    /// Threads the engine's parallel regions use (the rayon shim's
    /// `available_parallelism` pool).
    pub rayon_threads: usize,
    /// Threads the workload keeps busy at once (driver threads, or the
    /// parallel region when that is wider).
    pub worker_threads: usize,
}

impl Environment {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"commit\": {}, \"nproc\": {}, \"rayon_threads\": {}, \"worker_threads\": {}}}",
            json_string(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            json_string(&self.commit),
            self.nproc,
            self.rayon_threads,
            self.worker_threads
        )
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.metric_noted("latency_p50_ms", 1.25, "ms", String::new());
        o.metric_noted("setup_s", 2.0, "s", String::new());
        assert_eq!(
            o.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        o.check(false, || "probs diverged".to_string());
        assert_eq!((o.attempted, o.failed, o.checks_run), (2, 1, 2));
        assert!(!o.correct());
        assert!(o.result_line().starts_with("{\"correct\": false"));
    }

    #[test]
    fn non_finite_metrics_make_the_run_incorrect() {
        let mut o = Outcome::default();
        o.metric_noted("x", f64::NAN, "ms", String::new());
        assert!(!o.correct());
        assert!(o.result_line().contains("\"value\": 0.0"));
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(json_number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e300), "1e300");
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
