//! Deterministic JSON rendering of the experiment results.
//!
//! The serial-versus-parallel contract of the experiment engine is
//! *byte-identical output*; these renderers are the bytes being compared (and
//! what `experiments --json` emits for downstream tooling). Rendering is by
//! hand — no serde machinery — so field order and number formatting are
//! explicit and stable: floats use Rust's shortest-round-trip `Display`,
//! `None` renders as `null`.

use crate::ablation::AblationSweep;
use crate::fig3::Fig3Result;
use crate::fig4::Fig4Result;
use crate::table1::Table1Result;
use crate::ExperimentBudget;

/// Escapes a string for embedding in JSON (the workspace's shared escaping
/// conventions, delegated to `mabfuzz::report::json_string` so the report,
/// spec, event-stream and service renderers cannot drift apart).
pub fn escape(text: &str) -> String {
    mabfuzz::report::json_string(text)
}

fn float(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn opt_float(value: Option<f64>) -> String {
    value.map_or_else(|| "null".to_owned(), float)
}

fn budget(budget: &ExperimentBudget) -> String {
    format!(
        "{{\"coverage_tests\":{},\"detection_cap\":{},\"repetitions\":{},\"base_seed\":{}}}",
        budget.coverage_tests, budget.detection_cap, budget.repetitions, budget.base_seed
    )
}

/// Renders a Table I result.
pub fn table1(result: &Table1Result) -> String {
    let rows: Vec<String> = result
        .rows
        .iter()
        .map(|row| {
            let mabfuzz: Vec<String> = row
                .mabfuzz
                .iter()
                .map(|(kind, cell)| {
                    format!(
                        "{{\"algorithm\":{},\"mean_tests\":{},\"detected_in\":{},\"repetitions\":{},\"speedup\":{}}}",
                        escape(kind.name()),
                        float(cell.mean_tests),
                        cell.detected_in,
                        cell.repetitions,
                        opt_float(row.speedup(*kind))
                    )
                })
                .collect();
            format!(
                "{{\"vulnerability\":{},\"cwe\":{},\"core\":{},\"thehuzz\":{{\"mean_tests\":{},\"detected_in\":{},\"repetitions\":{}}},\"mabfuzz\":[{}]}}",
                escape(row.vulnerability.id()),
                row.vulnerability.cwe(),
                escape(row.vulnerability.native_core()),
                float(row.thehuzz.mean_tests),
                row.thehuzz.detected_in,
                row.thehuzz.repetitions,
                mabfuzz.join(",")
            )
        })
        .collect();
    format!(
        "{{\"experiment\":\"table1\",\"budget\":{},\"best_speedup\":{},\"rows\":[{}]}}",
        budget(&result.budget),
        opt_float(result.best_speedup()),
        rows.join(",")
    )
}

/// Renders a Fig. 3 result.
pub fn fig3(result: &Fig3Result) -> String {
    let processors: Vec<String> = result
        .processors
        .iter()
        .map(|curves| {
            let series: Vec<String> = curves
                .curves
                .iter()
                .map(|(fuzzer, curve)| {
                    let points: Vec<String> = curve
                        .points()
                        .iter()
                        .map(|p| format!("[{},{}]", p.tests, p.covered))
                        .collect();
                    format!(
                        "{{\"fuzzer\":{},\"final_coverage\":{},\"points\":[{}]}}",
                        escape(&fuzzer.name()),
                        curve.final_coverage(),
                        points.join(",")
                    )
                })
                .collect();
            format!(
                "{{\"processor\":{},\"space_len\":{},\"curves\":[{}]}}",
                escape(curves.processor.name()),
                curves.space_len,
                series.join(",")
            )
        })
        .collect();
    format!(
        "{{\"experiment\":\"fig3\",\"budget\":{},\"processors\":[{}]}}",
        budget(&result.budget),
        processors.join(",")
    )
}

/// Renders a Fig. 4 result.
pub fn fig4(result: &Fig4Result) -> String {
    let processors: Vec<String> = result
        .processors
        .iter()
        .map(|speedups| {
            let cells: Vec<String> = speedups
                .cells
                .iter()
                .map(|cell| {
                    format!(
                        "{{\"fuzzer\":{},\"coverage_speedup\":{},\"coverage_increment_percent\":{}}}",
                        escape(&cell.fuzzer.name()),
                        opt_float(cell.coverage_speedup),
                        float(cell.coverage_increment_percent)
                    )
                })
                .collect();
            format!(
                "{{\"processor\":{},\"baseline_final_coverage\":{},\"baseline_tests_to_final\":{},\"cells\":[{}]}}",
                escape(speedups.processor.name()),
                speedups.baseline_final_coverage,
                speedups.baseline_tests_to_final,
                cells.join(",")
            )
        })
        .collect();
    format!(
        "{{\"experiment\":\"fig4\",\"budget\":{},\"best_speedup\":{},\"processors\":[{}]}}",
        budget(&result.budget),
        opt_float(result.best_speedup()),
        processors.join(",")
    )
}

/// Renders one ablation sweep.
pub fn ablation(sweep: &AblationSweep) -> String {
    let points: Vec<String> = sweep
        .points
        .iter()
        .map(|point| {
            format!(
                "{{\"setting\":{},\"final_coverage\":{},\"resets\":{}}}",
                escape(&point.setting),
                float(point.final_coverage),
                float(point.resets)
            )
        })
        .collect();
    format!(
        "{{\"experiment\":\"ablation\",\"parameter\":{},\"processor\":{},\"points\":[{}]}}",
        escape(&sweep.parameter),
        escape(sweep.processor.name()),
        points.join(",")
    )
}

/// Renders several ablation sweeps as one JSON array.
pub fn ablations(sweeps: &[AblationSweep]) -> String {
    let rendered: Vec<String> = sweeps.iter().map(ablation).collect();
    format!("[{}]", rendered.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        assert_eq!(escape("plain"), "\"plain\"");
        assert_eq!(escape("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escape("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn floats_render_shortest_and_null() {
        assert_eq!(float(600.0), "600");
        assert_eq!(float(13.25), "13.25");
        assert_eq!(float(f64::NAN), "null");
        assert_eq!(opt_float(None), "null");
    }

    #[test]
    fn budget_renders_all_fields() {
        let text = budget(&ExperimentBudget::smoke());
        assert!(text.contains("\"coverage_tests\":120"));
        assert!(text.contains("\"base_seed\":7"));
    }
}
