//! Fig. 4 — coverage speedup (×) and coverage increment (%) of each MABFuzz
//! algorithm over the TheHuzz baseline.

use proc_sim::ProcessorKind;
use serde::{Deserialize, Serialize};

use crate::fig3::Fig3Result;
use crate::report::{format_speedup, TextTable};
use crate::{ExperimentBudget, FuzzerKind};

/// Fig. 4 numbers for one (processor, algorithm) pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedupCell {
    /// The MABFuzz variant.
    pub fuzzer: FuzzerKind,
    /// Coverage speedup: tests the baseline needed to reach its own final
    /// coverage divided by the tests this variant needed to reach the same
    /// coverage. `None` when the variant never reached it within the budget.
    pub coverage_speedup: Option<f64>,
    /// Coverage increment in percent:
    /// `(variant final − baseline final) / baseline final × 100`.
    pub coverage_increment_percent: f64,
}

/// Fig. 4 numbers for one processor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessorSpeedups {
    /// The processor.
    pub processor: ProcessorKind,
    /// The baseline's final coverage (the target the speedup is measured
    /// against).
    pub baseline_final_coverage: usize,
    /// Tests the baseline needed to reach its own final coverage.
    pub baseline_tests_to_final: u64,
    /// One cell per MABFuzz variant.
    pub cells: Vec<SpeedupCell>,
}

/// The full Fig. 4 reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Per-processor speedups, in paper order.
    pub processors: Vec<ProcessorSpeedups>,
    /// The budget the underlying coverage campaigns ran under.
    pub budget: ExperimentBudget,
}

impl Fig4Result {
    /// Returns the speedups of one processor.
    pub fn processor(&self, kind: ProcessorKind) -> Option<&ProcessorSpeedups> {
        self.processors.iter().find(|p| p.processor == kind)
    }

    /// Returns the largest coverage speedup across all processors and
    /// algorithms (the paper's headline "up to 5× faster coverage").
    pub fn best_speedup(&self) -> Option<f64> {
        self.processors
            .iter()
            .flat_map(|p| p.cells.iter().filter_map(|c| c.coverage_speedup))
            .fold(None, |best, s| Some(best.map_or(s, |b: f64| b.max(s))))
    }

    /// Renders the figure's data as a table (one row per processor ×
    /// algorithm).
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(&[
            "Processor",
            "Algorithm",
            "Coverage speedup",
            "Coverage increment (%)",
        ]);
        for processor in &self.processors {
            for cell in &processor.cells {
                table.row(vec![
                    processor.processor.name().to_owned(),
                    cell.fuzzer.name().into_owned(),
                    format_speedup(cell.coverage_speedup),
                    format!("{:+.2}", cell.coverage_increment_percent),
                ]);
            }
        }
        table
    }
}

/// Derives the Fig. 4 metrics from an already-run Fig. 3 experiment.
pub fn from_fig3(fig3: &Fig3Result) -> Fig4Result {
    let processors = fig3
        .processors
        .iter()
        .map(|curves| {
            let baseline = curves
                .curve(FuzzerKind::TheHuzz)
                .expect("the baseline curve is always present");
            let baseline_final = baseline.final_coverage();
            let baseline_tests = baseline.tests_to_reach(baseline_final).unwrap_or(0);
            let cells = FuzzerKind::MABFUZZ
                .iter()
                .map(|&fuzzer| {
                    let curve = curves.curve(fuzzer).expect("every fuzzer has a curve");
                    let speedup = curve
                        .tests_to_reach(baseline_final)
                        .filter(|tests| *tests > 0)
                        .map(|tests| baseline_tests as f64 / tests as f64);
                    let increment = if baseline_final == 0 {
                        0.0
                    } else {
                        (curve.final_coverage() as f64 - baseline_final as f64)
                            / baseline_final as f64
                            * 100.0
                    };
                    SpeedupCell {
                        fuzzer,
                        coverage_speedup: speedup,
                        coverage_increment_percent: increment,
                    }
                })
                .collect();
            ProcessorSpeedups {
                processor: curves.processor,
                baseline_final_coverage: baseline_final,
                baseline_tests_to_final: baseline_tests,
                cells,
            }
        })
        .collect();
    Fig4Result { processors, budget: fig3.budget.clone() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fig3, LocalRunner, Parallelism, ShardPlan};

    #[test]
    fn metrics_derive_from_fig3_curves() {
        let budget = ExperimentBudget::smoke();
        let runner = LocalRunner::new(Parallelism::default());
        let fig3_result =
            fig3::run_for_on(&[ProcessorKind::Rocket], &budget, &ShardPlan::serial(), &runner)
                .expect("local cell execution cannot fail");
        let fig4_result = from_fig3(&fig3_result);
        let rocket = fig4_result.processor(ProcessorKind::Rocket).expect("rocket row");
        assert_eq!(rocket.cells.len(), 3);
        assert!(rocket.baseline_final_coverage > 0);
        for cell in &rocket.cells {
            // The speedup may be None (variant never caught up within a tiny
            // smoke budget) but the increment is always defined.
            assert!(cell.coverage_increment_percent.is_finite());
        }
        let table = fig4_result.to_table();
        assert_eq!(table.len(), 3);
        assert!(table.render().contains("rocket"));
    }

    #[test]
    fn speedup_is_relative_to_the_baselines_own_final_coverage() {
        // Hand-build curves: baseline reaches 100 points after 80 tests,
        // the variant reaches 100 points after 20 tests and 120 by the end.
        use coverage::CoverageSeries;
        let mut baseline = CoverageSeries::new("TheHuzz on rocket");
        baseline.record(40, 60);
        baseline.record(80, 100);
        baseline.record(100, 100);
        let mut variant = CoverageSeries::new("MABFuzz: UCB on rocket");
        variant.record(20, 100);
        variant.record(100, 120);
        let curves = fig3::ProcessorCurves {
            processor: ProcessorKind::Rocket,
            space_len: 500,
            curves: vec![
                (FuzzerKind::TheHuzz, baseline),
                (FuzzerKind::MabFuzz(mab::BanditKind::EpsilonGreedy), variant.clone()),
                (FuzzerKind::MabFuzz(mab::BanditKind::Ucb1), variant.clone()),
                (FuzzerKind::MabFuzz(mab::BanditKind::Exp3), variant),
            ],
        };
        let fig3_result = Fig3Result {
            processors: vec![curves],
            budget: ExperimentBudget::smoke(),
        };
        let fig4_result = from_fig3(&fig3_result);
        let rocket = fig4_result.processor(ProcessorKind::Rocket).unwrap();
        assert_eq!(rocket.baseline_final_coverage, 100);
        assert_eq!(rocket.baseline_tests_to_final, 80);
        let cell = &rocket.cells[1];
        assert!((cell.coverage_speedup.unwrap() - 4.0).abs() < 1e-9);
        assert!((cell.coverage_increment_percent - 20.0).abs() < 1e-9);
        assert!((fig4_result.best_speedup().unwrap() - 4.0).abs() < 1e-9);
    }
}
