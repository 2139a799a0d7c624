//! The metric catalogue and the result line.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit. An untraced run prints exactly the end-to-end set, a traced run
//! exactly the per-layer set, and `BENCHMARK.json` at the repository root
//! lists the same names (a test keeps the three in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: what a user of a campaign, the experiment grid or
/// the daemon sees. Printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("tests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("coverage_points", "count"),
    ("detections", "count"),
    ("campaign_ms_p50", "ms"),
    ("campaign_ms_p90", "ms"),
];

/// Per-layer metrics, measured from outside each layer by timing calls into
/// it. Printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.test.us_p50", "us"),
    ("core.test.us_p99", "us"),
    ("core.round_gap.us_p50", "us"),
    ("core.arm_resets", "count"),
    ("core.assemble.ms_p50", "ms"),
    ("isa_sim.decode.us_p50", "us"),
    ("isa_sim.decode.hit_ratio", "ratio"),
    ("isa_sim.decode.lookups", "count"),
    ("proc_sim.dut.us_p50", "us"),
    ("proc_sim.dut.us_p99", "us"),
    ("proc_sim.dut.commits_per_test", "count"),
    ("proc_sim.dut.ns_per_commit", "ns"),
    ("proc_sim.dut.share", "ratio"),
    ("isa_sim.golden.us_p50", "us"),
    ("isa_sim.golden.commits_per_test", "count"),
    ("isa_sim.golden.ns_per_commit", "ns"),
    ("isa_sim.golden.reset_units_per_test", "count"),
    ("fuzzer.diff.us_p50", "us"),
    ("fuzzer.diff.mismatch_ratio", "ratio"),
    ("coverage.fold.ns_p50", "ns"),
    ("coverage.novel_ratio", "ratio"),
    ("fuzzer.mutate.us_p50", "us"),
    ("fuzzer.seed.us_p50", "us"),
    ("mab.select.ns_p50", "ns"),
    ("mab.update.ns_p50", "ns"),
    ("analysis.facts.us_p50", "us"),
    ("coverage.edge_map.us_p50", "us"),
    ("fuzzer.harness.us_p50", "us"),
    ("replay.programs", "count"),
    ("replay.stage_sum_ratio", "ratio"),
    ("replay.harness_to_campaign_ratio", "ratio"),
    ("bench.grid.cells", "count"),
    ("bench.grid.cell_ms_p50", "ms"),
    ("bench.grid.cell_ms_p90", "ms"),
    ("bench.grid.busy_ratio", "ratio"),
    ("service.submit.ms_p50", "ms"),
    ("service.first_event.ms_p50", "ms"),
    ("service.stream.ms_p50", "ms"),
    ("service.report.ms_p50", "ms"),
    ("service.delete.ms_p50", "ms"),
    ("service.bytes_per_test", "B"),
    ("service.requests_per_connection", "count"),
    ("trace.clock_read.ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// Whether `name` is a legal metric name: 1 to 64 letters, digits, `_`,
/// `.` and `-`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The metrics one run measured, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `value` for `name`.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in either catalogue, or was already set —
    /// both are benchmark bugs.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric `{name}` is not in the catalogue"
        );
        let previous = self.values.insert(name, value);
        assert!(previous.is_none(), "metric `{name}` set twice");
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Renders the result line: `correct`, `attempted`, `failed` and the
    /// metrics of `catalogue`, in catalogue order.
    ///
    /// # Errors
    ///
    /// Names every catalogue metric that was not measured, and every
    /// measured value that is not a finite number.
    pub fn result_line(
        &self,
        catalogue: &[(&'static str, &'static str)],
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        let mut metrics = String::new();
        for (index, (name, unit)) in catalogue.iter().enumerate() {
            if !valid_name(name) {
                return Err(format!("illegal metric name `{name}`"));
            }
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric `{name}` was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric `{name}` is not a finite number ({value})"));
            }
            if index > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            );
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{metrics}}}}}",
            failed == 0
        ))
    }
}

/// The unit of catalogue metric `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| *unit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mabfuzz::json_value::{self, Value};

    #[test]
    fn every_catalogue_name_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "illegal metric name `{name}`");
            assert!(seen.insert(*name), "metric `{name}` declared twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "illegal unit `{unit}` for `{name}`"
            );
        }
    }

    #[test]
    fn name_rule_rejects_bad_names() {
        for bad in [
            "",
            ".lead",
            "_lead",
            "sp ace",
            "slash/name",
            "q\"uote",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "`{bad}` must be rejected");
        }
        for good in [
            "a",
            "9lives",
            "core.test.us_p50",
            "a-b_c.d",
            &"x".repeat(64),
        ] {
            assert!(valid_name(good), "`{good}` must be accepted");
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = json_value::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Some(Value::Array(entries)) = doc.get(key) else {
                panic!("`{key}` is a list")
            };
            entries
                .iter()
                .map(|entry| {
                    let field = |f: &str| entry.get(f).and_then(|v| v.as_str(f).ok()).unwrap();
                    (field("name").to_owned(), field("unit").to_owned())
                })
                .collect()
        };
        let declared = |catalogue: &[(&str, &str)]| -> Vec<(String, String)> {
            catalogue
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), declared(END_TO_END));
        assert_eq!(listed("per_layer"), declared(PER_LAYER));
    }

    #[test]
    fn result_line_requires_every_metric() {
        let mut metrics = Metrics::default();
        let catalogue: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s")];
        metrics.set("setup_s", 0.25);
        assert!(metrics.result_line(catalogue, 3, 0).is_err());
        metrics.set("wall_s", 1.5);
        let line = metrics.result_line(catalogue, 3, 1).expect("complete");
        assert_eq!(
            line,
            "{\"correct\":false,\"attempted\":3,\"failed\":1,\"metrics\":{\"setup_s\":{\"value\":0.25,\
             \"unit\":\"s\"},\"wall_s\":{\"value\":1.5,\"unit\":\"s\"}}}"
        );
        json_value::parse(&line).expect("the result line is JSON");
    }
}
