//! `paper_grid`: the `experiments all` pipeline through the library —
//! Table I, Fig. 3, Fig. 4 from Fig. 3, and the four ablation sweeps — on a
//! two-worker grid, at a reduced fixed budget.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use mabfuzz::{CampaignSpec, CampaignSummary};
use mabfuzz_bench::{ablation, fig3, fig4, json, run_grid, table1, CellRunner, ExperimentBudget};
use mabfuzz_bench::{Parallelism, ShardPlan};
use proc_sim::{ProcessorKind, Vulnerability};

use crate::check::{fnv64, Checker};
use crate::trace::{self, Span, Tracer};
use crate::{Pass, Workload};

/// What `experiments all --tests 120 --cap 250 --repeats 1 --seed 7 --json`
/// prints; the smoke-budget pass must reproduce it byte for byte.
const SMOKE_GOLDEN: &str = include_str!("../../tests/golden/experiments_smoke.json");

/// Grid workers of a timed pass: the host's two cores.
pub const WORKERS: usize = 2;

/// Which budget a grid runs at.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// The workload's reduced fixed budget.
    Workload,
    /// The CI smoke budget with two repetitions: the probe traced runs of
    /// other workloads use for the grid layer.
    Probe,
}

/// The set-up workload.
pub struct PaperGrid {
    budget: ExperimentBudget,
}

impl PaperGrid {
    /// Renders the smoke budget once (the untimed warm-up, on one worker so
    /// that set-up time does not hinge on getting both cores) and compares
    /// it with the repository's golden `experiments all` output.
    pub fn setup(seed: u64, budget: Budget, checker: &mut Checker) -> PaperGrid {
        let smoke = ExperimentBudget::smoke();
        let (rendered, _) = render(&smoke, 1, None, checker);
        checker.same_bytes(
            "smoke-budget grid vs tests/golden/experiments_smoke.json",
            rendered.as_bytes(),
            SMOKE_GOLDEN.as_bytes(),
        );
        let budget = match budget {
            Budget::Workload => ExperimentBudget {
                coverage_tests: 800,
                detection_cap: 1200,
                repetitions: 2,
                base_seed: seed,
            },
            Budget::Probe => ExperimentBudget {
                repetitions: 2,
                base_seed: seed,
                ..smoke
            },
        };
        PaperGrid { budget }
    }
}

impl Workload for PaperGrid {
    fn pass(&mut self, tracer: Option<&Arc<Tracer>>, checker: &mut Checker) -> Pass {
        let start = Instant::now();
        let (rendered, mut pass) = render(&self.budget, WORKERS, tracer, checker);
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.digests.push(fnv64(rendered.as_bytes()));
        pass
    }
}

/// Runs every experiment of `experiments all` at `budget` and renders its
/// four JSON documents exactly as `experiments all --json` prints them.
fn render(
    budget: &ExperimentBudget,
    workers: usize,
    tracer: Option<&Arc<Tracer>>,
    checker: &mut Checker,
) -> (String, Pass) {
    let pass_span = tracer.map(|t| (t.id(), t.now()));
    let runner = GridRunner {
        workers: Parallelism::Threads(workers.try_into().expect("at least one worker")),
        tracer: tracer.cloned(),
        pass_span: pass_span.map_or(0, |(id, _)| id),
        cells: Mutex::default(),
    };
    let plan = ShardPlan::serial();
    let cores = ProcessorKind::ALL;
    let rendered = (|| -> Result<(String, u64), String> {
        let table1 = table1::run_for_on(&Vulnerability::ALL, budget, &plan, &runner)?;
        let fig3 = fig3::run_for_on(&cores, budget, &plan, &runner)?;
        let fig4 = fig4::from_fig3(&fig3);
        let sweeps = [
            ablation::alpha_sweep_on(cores[0], budget, &plan, &runner)?,
            ablation::gamma_sweep_on(cores[0], budget, &plan, &runner)?,
            ablation::arms_sweep_on(cores[0], budget, &plan, &runner)?,
            ablation::reset_ablation_on(cores[0], budget, &plan, &runner)?,
        ];
        let detected: u64 = table1
            .rows
            .iter()
            .map(|row| {
                row.thehuzz.detected_in
                    + row.mabfuzz.iter().map(|(_, c)| c.detected_in).sum::<u64>()
            })
            .sum();
        let rendered = format!(
            "{}\n{}\n{}\n{}\n",
            json::table1(&table1),
            json::fig3(&fig3),
            json::fig4(&fig4),
            json::ablations(&sweeps)
        );
        Ok((rendered, detected))
    })();
    if let (Some(tracer), Some((id, start))) = (tracer, pass_span) {
        tracer.push(Span {
            id,
            parent: 0,
            name: "bench.grid.pass",
            campaign: 0,
            start,
            end: tracer.now(),
        });
    }
    let mut pass = Pass::default();
    for cell in runner.cells.into_inner().expect("cell log poisoned") {
        match cell {
            Cell::Ran {
                ms,
                tests,
                coverage,
                resets,
            } => {
                checker.attempted += 1;
                pass.campaign_ms.push(ms);
                pass.tests += tests;
                pass.coverage_points += coverage;
                pass.arm_resets += resets;
            }
            Cell::Failed(error) => {
                checker.attempted += 1;
                checker.fail(&format!("grid cell: {error}"));
            }
        }
    }
    match rendered {
        Ok((rendered, detected)) => {
            pass.detections = detected;
            (rendered, pass)
        }
        Err(error) => {
            checker.fail(&format!("grid: {error}"));
            (String::new(), pass)
        }
    }
}

enum Cell {
    Ran {
        ms: f64,
        tests: u64,
        coverage: u64,
        resets: u64,
    },
    Failed(String),
}

/// A timing [`CellRunner`] over `run_grid`: executes cells exactly like
/// `LocalRunner` (`Campaign::from_spec` + `execute` per cell on the grid's
/// workers) and logs each cell's turnaround; traced, it also records the
/// cell, its assembly and its per-test folds as spans.
struct GridRunner {
    workers: Parallelism,
    tracer: Option<Arc<Tracer>>,
    pass_span: u64,
    cells: Mutex<Vec<Cell>>,
}

impl CellRunner for GridRunner {
    fn run_cells(&self, specs: &[CampaignSpec]) -> Result<Vec<CampaignSummary>, String> {
        let results = run_grid(self.workers, specs, |spec| {
            let start = Instant::now();
            let summary = trace::execute(
                spec,
                Vec::new(),
                self.tracer.as_ref(),
                "bench.grid.cell",
                self.pass_span,
            )
            .map(|outcome| CampaignSummary::from_outcome(&outcome));
            (
                start.elapsed().as_secs_f64() * 1e3,
                summary.map_err(|e| e.to_string()),
            )
        });
        let mut cells = self.cells.lock().expect("cell log poisoned");
        let mut summaries = Vec::with_capacity(results.len());
        let mut first_error = None;
        for (ms, result) in results {
            match result {
                Ok(summary) => {
                    cells.push(Cell::Ran {
                        ms,
                        tests: summary.tests_executed,
                        coverage: summary.final_coverage as u64,
                        resets: summary.total_resets,
                    });
                    summaries.push(summary);
                }
                Err(error) => {
                    cells.push(Cell::Failed(error.clone()));
                    first_error.get_or_insert(error);
                }
            }
        }
        match first_error {
            None => Ok(summaries),
            Some(error) => Err(error),
        }
    }
}
