//! Fig. 3 — branch coverage achieved versus number of tests, per processor
//! and per fuzzer.

use coverage::CoverageSeries;
use mabfuzz::{BugSpec, CampaignSummary, ProcessorSpec};
use proc_sim::ProcessorKind;
use serde::{Deserialize, Serialize};

use crate::report::TextTable;
use crate::runner::CellRunner;
use crate::{campaign_config, processor_with_native_bugs, ExperimentBudget, FuzzerKind, ShardPlan};

/// The coverage curves of every fuzzer on one processor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProcessorCurves {
    /// The processor the curves belong to.
    pub processor: ProcessorKind,
    /// Size of the processor's coverage space (the curve asymptote).
    pub space_len: usize,
    /// One averaged curve per fuzzer, in [`FuzzerKind::ALL`] order.
    pub curves: Vec<(FuzzerKind, CoverageSeries)>,
}

impl ProcessorCurves {
    /// Returns the curve of a specific fuzzer.
    pub fn curve(&self, fuzzer: FuzzerKind) -> Option<&CoverageSeries> {
        self.curves.iter().find(|(k, _)| *k == fuzzer).map(|(_, c)| c)
    }

    /// Returns the final coverage of a specific fuzzer.
    pub fn final_coverage(&self, fuzzer: FuzzerKind) -> usize {
        self.curve(fuzzer).map_or(0, CoverageSeries::final_coverage)
    }
}

/// The full Fig. 3 reproduction: one set of curves per processor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig3Result {
    /// Curves per processor, in paper order (CVA6, Rocket, BOOM).
    pub processors: Vec<ProcessorCurves>,
    /// The budget the experiment ran under.
    pub budget: ExperimentBudget,
}

impl Fig3Result {
    /// Returns the curves of one processor.
    pub fn processor(&self, kind: ProcessorKind) -> Option<&ProcessorCurves> {
        self.processors.iter().find(|p| p.processor == kind)
    }

    /// Renders the curves as a table of sampled points (one row per sampled
    /// test count, one column per fuzzer) for the given processor.
    pub fn to_table(&self, kind: ProcessorKind, samples: usize) -> TextTable {
        let mut header = vec!["#Tests".to_owned()];
        header.extend(FuzzerKind::ALL.iter().map(|f| f.name().into_owned()));
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut table = TextTable::new(&header_refs);
        let Some(curves) = self.processor(kind) else {
            return table;
        };
        // Use the baseline's sample positions as the x axis.
        let reference = curves.curves[0].1.downsample(samples);
        for point in reference.points() {
            let mut row = vec![point.tests.to_string()];
            for (_, curve) in &curves.curves {
                row.push(curve.coverage_at(point.tests).to_string());
            }
            table.row(row);
        }
        table
    }
}

/// Runs the Fig. 3 experiment for the given processors, every MABFuzz
/// campaign sharded intra-campaign under `plan` (the TheHuzz baseline stays
/// serial), with cell execution delegated to `runner`: a
/// [`LocalRunner`](crate::LocalRunner) spreads cells across in-process
/// threads, `experiments dispatch` farms them out to remote workers.
///
/// Each (processor, fuzzer) pair runs `budget.repetitions` campaigns of
/// `budget.coverage_tests` tests; the reported curve is the per-sample mean.
/// Results are byte-identical for every runner that executes the specs
/// faithfully, every [`Parallelism`](crate::Parallelism) mode and every
/// shard count at a fixed batch size: each cell's RNG seed is
/// `base_seed + repetition` and the curve averaging folds the repetitions
/// in order. Callers composing thread budgets should pre-divide the
/// runner's parallelism with
/// [`Parallelism::with_shard_budget`](crate::Parallelism::with_shard_budget)
/// — the grid itself only spreads cells.
///
/// # Errors
///
/// Whatever error the runner reports (e.g. a dispatch failure); local
/// runners never fail.
pub fn run_for_on(
    processors: &[ProcessorKind],
    budget: &ExperimentBudget,
    plan: &ShardPlan,
    runner: &dyn CellRunner,
) -> Result<Fig3Result, String> {
    let mut specs = Vec::new();
    for &processor in processors {
        for &fuzzer in &FuzzerKind::ALL {
            for repetition in 0..budget.repetitions {
                let config = campaign_config(budget.coverage_tests);
                let mut spec =
                    crate::campaign_spec(fuzzer, config, budget.base_seed + repetition, plan);
                spec.processor =
                    Some(ProcessorSpec { core: processor, bugs: BugSpec::Native });
                specs.push(spec);
            }
        }
    }

    let summaries = runner.run_cells(&specs)?;

    // Reduce per (processor, fuzzer) group, folding repetitions in order
    // (the loop nesting here must mirror the cell-construction loops above).
    let mut next_group = crate::grid::result_groups(&summaries, budget.repetitions);
    let processor_curves = processors
        .iter()
        .map(|&kind| {
            let space_len = processor_with_native_bugs(kind).coverage_space().len();
            let curves = FuzzerKind::ALL
                .iter()
                .map(|&fuzzer| (fuzzer, averaged_curve(fuzzer, kind, next_group())))
                .collect();
            ProcessorCurves { processor: kind, space_len, curves }
        })
        .collect();
    Ok(Fig3Result { processors: processor_curves, budget: budget.clone() })
}

fn averaged_curve(
    fuzzer: FuzzerKind,
    kind: ProcessorKind,
    runs: &[CampaignSummary],
) -> CoverageSeries {
    // Average the cumulative coverage at the sample positions of the first run.
    let label = format!("{} on {}", fuzzer.name(), kind.name());
    let mut series = CoverageSeries::new(label);
    let Some(reference) = runs.first() else {
        return series;
    };
    for point in reference.series.points() {
        let mean: f64 = runs
            .iter()
            .map(|summary| summary.series.coverage_at(point.tests) as f64)
            .sum::<f64>()
            / runs.len() as f64;
        series.record(point.tests, mean.round() as usize);
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalRunner, Parallelism};

    fn run_for(processors: &[ProcessorKind], budget: &ExperimentBudget) -> Fig3Result {
        run_for_on(processors, budget, &ShardPlan::serial(), &LocalRunner::new(Parallelism::default()))
            .expect("local cell execution cannot fail")
    }

    #[test]
    fn smoke_run_produces_curves_for_every_fuzzer() {
        let budget = ExperimentBudget::smoke();
        let result = run_for(&[ProcessorKind::Rocket], &budget);
        let curves = result.processor(ProcessorKind::Rocket).expect("rocket curves exist");
        assert_eq!(curves.curves.len(), 4);
        for (fuzzer, series) in &curves.curves {
            assert!(series.final_coverage() > 0, "{fuzzer} covered nothing");
            assert!(series.final_coverage() <= curves.space_len);
        }
        assert!(result.processor(ProcessorKind::Boom).is_none());
        let table = result.to_table(ProcessorKind::Rocket, 6);
        assert!(!table.is_empty());
        assert!(table.render().contains("TheHuzz"));
    }

    #[test]
    fn curves_are_monotone() {
        let budget = ExperimentBudget::smoke();
        let result = run_for(&[ProcessorKind::Cva6], &budget);
        let curves = result.processor(ProcessorKind::Cva6).unwrap();
        for (fuzzer, series) in &curves.curves {
            let points = series.points();
            assert!(
                points.windows(2).all(|w| w[1].covered >= w[0].covered),
                "{fuzzer} coverage curve must be non-decreasing"
            );
        }
    }
}
