//! The benchmark's metric vocabulary: the end-to-end metrics every
//! untraced run reports and the per-layer metrics every traced run
//! reports, in the order `BENCHMARK.json` lists them.
//!
//! Every workload reports every metric. An end-to-end metric names a role
//! (the workload's request, its answer read, its cold start) that each
//! workload fills with its own path; `README.md` maps each role to the
//! path it measures per workload, and says why the answer read has no
//! bounded tail. A per-layer metric of a layer that a workload does not
//! exercise reads 0: the prediction for it there is "flat".

use crate::report::Outcome;
use std::collections::BTreeMap;

/// `cold_start_ms` of `serve_mixed` is this quantile of a run's cold
/// starts, not their median. On the reference machine memory
/// speed swings over seconds: bursts of `TruthServer::new` a second apart
/// read medians from 2.7 to 3.9 ms, and the median of a run's cold starts
/// spreads by a quarter to a third across runs. The low decile of many
/// cold starts spread over the run repeats within a few percent, and code
/// that makes every cold start slower moves it as much as the median.
pub const COLD_START_QUANTILE: f64 = 0.1;

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("answer_p50_us", "us"),
    ("cold_start_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("guidance.rank_ms", "ms"),
    ("crf.infer_ms", "ms"),
    ("crf.em_iterations", "count"),
    ("crf.tron_iterations", "count"),
    ("crf.gibbs_sweeps", "count"),
    ("crf.tron_coords_moved", "count"),
    ("crf.components", "count"),
    ("crf.largest_component", "count"),
    ("crf.cache_rebuilds", "count"),
    ("core.ground_ms", "ms"),
    ("core.entropy_ms", "ms"),
    ("validate.precision_at_end", "fraction"),
    ("validate.unattributed_ms", "ms"),
    ("stream.arrive_p50_us", "us"),
    ("stream.arrive_p99_us", "us"),
    ("stream.model_copies", "1/arrival"),
    ("stream.unpinned_model_copies", "1/arrival"),
    ("stream.compact_arrive_ms", "ms"),
    ("stream.retired_claims", "count"),
    ("stream.compactions", "count"),
    ("serve.publish_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.truth_batch_us", "us"),
    ("serve.top_k_us", "us"),
    ("serve.trust_us", "us"),
    ("serve.stale_arrivals", "count"),
    ("serve.generator_late_ms", "ms"),
    ("serve.reader_late_us", "us"),
    ("serve.initial_publish_ms", "ms"),
    ("serve.unattributed_us", "us"),
    ("durability.wal_overhead_us", "us"),
    ("durability.full_ckpt_arrival_ms", "ms"),
    ("durability.incr_ckpt_arrival_ms", "ms"),
    ("durability.fsyncs", "1/arrival"),
    ("durability.bytes_written", "B/arrival"),
    ("durability.recover_ms", "ms"),
    ("durability.bytes_read", "B"),
    ("durability.replayed_records", "count"),
    ("durability.chain_len", "count"),
    ("trace.overhead_pct", "%"),
];

fn unit_of(list: &[(&'static str, &'static str)], name: &str) -> &'static str {
    list.iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("{name} is not a benchmark metric"))
        .1
}

/// Values of one run's metrics from `list`, emitted in list order.
#[derive(Debug)]
pub struct MetricSet {
    list: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, (f64, String)>,
    /// Value of a metric never set: NaN for an end-to-end metric (which
    /// makes the run incorrect), 0 for a layer the workload does not use.
    unset: f64,
}

impl MetricSet {
    pub fn end_to_end() -> Self {
        MetricSet {
            list: END_TO_END,
            values: BTreeMap::new(),
            unset: f64::NAN,
        }
    }

    pub fn per_layer() -> Self {
        MetricSet {
            list: PER_LAYER,
            values: BTreeMap::new(),
            unset: 0.0,
        }
    }

    /// Set `name` (which must be in the list).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.set_noted(name, value, String::new());
    }

    pub fn set_noted(&mut self, name: &'static str, value: f64, note: String) {
        unit_of(self.list, name);
        self.values.insert(name, (value, note));
    }

    /// Move the values into `out` in list order.
    pub fn emit(self, out: &mut Outcome) {
        for &(name, unit) in self.list {
            let (value, note) = self
                .values
                .get(name)
                .cloned()
                .unwrap_or((self.unset, String::new()));
            out.metric_noted(name, value, unit, note);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for list in [END_TO_END, PER_LAYER] {
            let mut seen = std::collections::BTreeSet::new();
            for &(name, unit) in list {
                assert!(seen.insert(name), "{name} listed twice");
                assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
                assert!(name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
                assert!(unit.len() <= 16);
                assert!(unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            }
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let listed: Vec<&str> = json
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s.split('"').next().unwrap())
            .collect();
        let ours: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|&(n, _)| n)
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        // Workload names come first in the file; every other name is ours.
        let metric_names: Vec<&str> = listed
            .iter()
            .copied()
            .filter(|n| !crate::WORKLOADS.contains(n))
            .collect();
        assert_eq!(metric_names, ours);
    }

    #[test]
    fn metrics_come_out_in_list_order() {
        let mut set = MetricSet::end_to_end();
        set.set("cold_start_ms", 2.5);
        let mut out = Outcome::default();
        set.emit(&mut out);
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(names, want);
        assert_eq!(out.metrics[5].value, 2.5);
    }

    #[test]
    fn an_unset_end_to_end_metric_fails_the_run_an_unused_layer_reads_zero() {
        let mut out = Outcome::default();
        MetricSet::end_to_end().emit(&mut out);
        assert!(out.metrics.iter().all(|m| m.value.is_nan()));
        assert!(!out.correct());
        let mut out = Outcome::default();
        MetricSet::per_layer().emit(&mut out);
        assert!(out.metrics.iter().all(|m| m.value == 0.0));
        assert!(out.correct());
    }

    #[test]
    #[should_panic(expected = "not a benchmark metric")]
    fn unknown_metrics_are_rejected() {
        MetricSet::per_layer().set("crf.nope", 1.0);
    }
}
