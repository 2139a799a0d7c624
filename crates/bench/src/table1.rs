//! Table I — vulnerability-detection speedup of MABFuzz over TheHuzz.

use mab::BanditKind;
use mabfuzz::{BugSpec, CampaignSpec, ProcessorSpec};
use proc_sim::{ProcessorKind, Vulnerability};
use serde::{Deserialize, Serialize};

use crate::report::{format_speedup, TextTable};
use crate::runner::CellRunner;
use crate::{campaign_config, ExperimentBudget, FuzzerKind};

/// Detection statistics of one fuzzer for one vulnerability.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionCell {
    /// Mean number of tests until the first architectural mismatch, averaged
    /// over the repetitions. Censored at the detection cap when a repetition
    /// never detected the bug.
    pub mean_tests: f64,
    /// How many repetitions detected the bug within the cap.
    pub detected_in: u64,
    /// Total repetitions run.
    pub repetitions: u64,
}

impl DetectionCell {
    /// Returns `true` when at least one repetition detected the bug.
    pub fn detected(&self) -> bool {
        self.detected_in > 0
    }
}

/// One row of Table I: a vulnerability, the baseline's tests-to-detection and
/// each MABFuzz algorithm's speedup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Row {
    /// The vulnerability under test.
    pub vulnerability: Vulnerability,
    /// Baseline (TheHuzz) detection statistics.
    pub thehuzz: DetectionCell,
    /// Per-algorithm detection statistics, in [`BanditKind::ALL`] order.
    pub mabfuzz: Vec<(BanditKind, DetectionCell)>,
}

impl Table1Row {
    /// Returns the speedup of `kind` over the baseline
    /// (`baseline mean tests / algorithm mean tests`).
    pub fn speedup(&self, kind: BanditKind) -> Option<f64> {
        let cell = self.mabfuzz.iter().find(|(k, _)| *k == kind).map(|(_, c)| c)?;
        if cell.mean_tests <= 0.0 {
            return None;
        }
        Some(self.thehuzz.mean_tests / cell.mean_tests)
    }
}

/// The full Table I reproduction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Result {
    /// One row per vulnerability, in paper order.
    pub rows: Vec<Table1Row>,
    /// The budget the experiment ran under.
    pub budget: ExperimentBudget,
}

impl Table1Result {
    /// Renders the result in the shape of the paper's Table I.
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(&[
            "Vulnerability",
            "CWE",
            "Core",
            "TheHuzz #Tests",
            "eps-greedy speedup",
            "UCB speedup",
            "EXP3 speedup",
        ]);
        for row in &self.rows {
            table.row(vec![
                row.vulnerability.id().to_owned(),
                row.vulnerability.cwe().to_string(),
                row.vulnerability.native_core().to_owned(),
                format!("{:.1}", row.thehuzz.mean_tests),
                format_speedup(row.speedup(BanditKind::EpsilonGreedy)),
                format_speedup(row.speedup(BanditKind::Ucb1)),
                format_speedup(row.speedup(BanditKind::Exp3)),
            ]);
        }
        table
    }

    /// Returns the best (largest) speedup achieved across all rows and
    /// algorithms — the paper's headline "up to N× speedup" number.
    pub fn best_speedup(&self) -> Option<f64> {
        self.rows
            .iter()
            .flat_map(|row| BanditKind::ALL.iter().filter_map(|k| row.speedup(*k)))
            .fold(None, |best, s| Some(best.map_or(s, |b: f64| b.max(s))))
    }
}

/// Builds the self-contained spec of one Table I cell: `fuzzer` hunting
/// `vulnerability` (alone) on its native core, in detection mode, seeded
/// `base_seed + repetition`.
fn cell_spec(
    vulnerability: Vulnerability,
    fuzzer: FuzzerKind,
    repetition: u64,
    budget: &ExperimentBudget,
    plan: &crate::ShardPlan,
) -> CampaignSpec {
    let core = ProcessorKind::parse(vulnerability.native_core()).expect("known core name");
    let config = campaign_config(budget.detection_cap).detection_mode();
    let mut spec = crate::campaign_spec(fuzzer, config, budget.base_seed + repetition, plan);
    spec.processor = Some(ProcessorSpec { core, bugs: BugSpec::Only(vulnerability) });
    spec
}

/// Runs the detection experiment for a chosen subset of vulnerabilities,
/// every MABFuzz campaign sharded intra-campaign under `plan` (the TheHuzz
/// baseline stays serial), with cell execution delegated to `runner`:
/// a [`LocalRunner`](crate::LocalRunner) spreads cells across in-process
/// threads, `experiments dispatch` farms them out to remote workers.
///
/// The result is byte-identical for every runner that executes the specs
/// faithfully, every [`Parallelism`](crate::Parallelism) mode and every
/// shard count at a fixed batch size: cells are deterministic and the
/// reduction (means over repetitions) folds in repetition order.
///
/// # Errors
///
/// Whatever error the runner reports (e.g. a dispatch failure); local
/// runners never fail.
pub fn run_for_on(
    vulnerabilities: &[Vulnerability],
    budget: &ExperimentBudget,
    plan: &crate::ShardPlan,
    runner: &dyn CellRunner,
) -> Result<Table1Result, String> {
    let fuzzers: Vec<FuzzerKind> = std::iter::once(FuzzerKind::TheHuzz)
        .chain(BanditKind::ALL.iter().map(|&kind| FuzzerKind::MabFuzz(kind)))
        .collect();
    let mut specs = Vec::new();
    for &vulnerability in vulnerabilities {
        for &fuzzer in &fuzzers {
            for repetition in 0..budget.repetitions {
                specs.push(cell_spec(vulnerability, fuzzer, repetition, budget, plan));
            }
        }
    }

    let summaries = runner.run_cells(&specs)?;
    let detections: Vec<Option<u64>> =
        summaries.iter().map(|summary| summary.first_detection).collect();

    // Reduce per (vulnerability, fuzzer) group, folding repetitions in order
    // (the loop nesting here must mirror the cell-construction loops above).
    let mut next_group = crate::grid::result_groups(&detections, budget.repetitions);
    let mut rows = Vec::with_capacity(vulnerabilities.len());
    for &vulnerability in vulnerabilities {
        let mut cells_by_fuzzer =
            fuzzers.iter().map(|_| reduce_detection(next_group(), budget)).collect::<Vec<_>>().into_iter();
        let thehuzz = cells_by_fuzzer.next().expect("baseline cell present");
        let mabfuzz = BanditKind::ALL.iter().copied().zip(cells_by_fuzzer).collect();
        rows.push(Table1Row { vulnerability, thehuzz, mabfuzz });
    }
    Ok(Table1Result { rows, budget: budget.clone() })
}

fn reduce_detection(first_detections: &[Option<u64>], budget: &ExperimentBudget) -> DetectionCell {
    let mut total_tests = 0.0;
    let mut detected_in = 0;
    for detection in first_detections {
        match detection {
            Some(tests) => {
                total_tests += *tests as f64;
                detected_in += 1;
            }
            None => total_tests += budget.detection_cap as f64,
        }
    }
    DetectionCell {
        mean_tests: total_tests / budget.repetitions.max(1) as f64,
        detected_in,
        repetitions: budget.repetitions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalRunner, Parallelism, ShardPlan};

    #[test]
    fn easy_vulnerability_is_detected_quickly_by_every_fuzzer() {
        let budget = ExperimentBudget { detection_cap: 300, repetitions: 1, ..ExperimentBudget::smoke() };
        let runner = LocalRunner::new(Parallelism::default());
        let result =
            run_for_on(&[Vulnerability::V5MissingAccessFault], &budget, &ShardPlan::serial(), &runner)
                .expect("local cell execution cannot fail");
        assert_eq!(result.rows.len(), 1);
        let row = &result.rows[0];
        assert!(row.thehuzz.detected(), "V5 is the paper's trivially detected bug");
        assert!(row.thehuzz.mean_tests <= 300.0);
        for (kind, cell) in &row.mabfuzz {
            assert!(cell.detected(), "{kind} should detect V5 within the cap");
        }
        let table = result.to_table().render();
        assert!(table.contains("V5"));
        assert!(table.contains("1252"));
    }

    #[test]
    fn speedup_is_baseline_over_algorithm() {
        let row = Table1Row {
            vulnerability: Vulnerability::V1FenceiDecode,
            thehuzz: DetectionCell { mean_tests: 600.0, detected_in: 3, repetitions: 3 },
            mabfuzz: vec![
                (BanditKind::Ucb1, DetectionCell { mean_tests: 46.0, detected_in: 3, repetitions: 3 }),
                (BanditKind::Exp3, DetectionCell { mean_tests: 0.0, detected_in: 0, repetitions: 3 }),
            ],
        };
        let speedup = row.speedup(BanditKind::Ucb1).unwrap();
        assert!((speedup - 600.0 / 46.0).abs() < 1e-9);
        assert_eq!(row.speedup(BanditKind::Exp3), None);
        assert_eq!(row.speedup(BanditKind::EpsilonGreedy), None);
    }

    #[test]
    fn best_speedup_scans_all_rows() {
        let result = Table1Result {
            rows: vec![Table1Row {
                vulnerability: Vulnerability::V6UnimplCsrJunk,
                thehuzz: DetectionCell { mean_tests: 100.0, detected_in: 1, repetitions: 1 },
                mabfuzz: vec![(
                    BanditKind::EpsilonGreedy,
                    DetectionCell { mean_tests: 10.0, detected_in: 1, repetitions: 1 },
                )],
            }],
            budget: ExperimentBudget::smoke(),
        };
        assert!((result.best_speedup().unwrap() - 10.0).abs() < 1e-9);
    }
}
