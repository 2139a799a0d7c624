//! Parameter ablations (§IV-A choices and the reset-arm feature of §III-C).
//!
//! The paper fixes `α = 0.25`, `γ = 3` and 10 arms based on preliminary
//! experiments and motivates the arm-reset modification qualitatively. The
//! ablation harness sweeps those choices so the reproduction can show *why*
//! they are reasonable: final coverage as a function of α, γ and the number
//! of arms, plus a head-to-head of MABFuzz with and without arm resets.


use mab::BanditKind;
use mabfuzz::{BugSpec, CampaignSpec, CampaignSpecBuilder, ProcessorSpec};
use proc_sim::ProcessorKind;
use serde::{Deserialize, Serialize};

use crate::report::TextTable;
use crate::runner::CellRunner;
use crate::{campaign_config, ExperimentBudget, ShardPlan};

/// One ablation data point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationPoint {
    /// Human-readable parameter setting, e.g. `"alpha=0.25"`.
    pub setting: String,
    /// Mean final coverage over the repetitions.
    pub final_coverage: f64,
    /// Mean number of arm resets over the repetitions.
    pub resets: f64,
}

/// A parameter sweep: several settings of one knob, everything else at the
/// paper defaults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AblationSweep {
    /// The knob being swept (`"alpha"`, `"gamma"`, `"arms"`, `"reset"`).
    pub parameter: String,
    /// The processor the sweep ran on.
    pub processor: ProcessorKind,
    /// The data points, in sweep order.
    pub points: Vec<AblationPoint>,
}

impl AblationSweep {
    /// Renders the sweep as a table.
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(&["Setting", "Final coverage", "Arm resets"]);
        for point in &self.points {
            table.row(vec![
                point.setting.clone(),
                format!("{:.1}", point.final_coverage),
                format!("{:.1}", point.resets),
            ]);
        }
        table
    }

    /// Returns the best-performing setting.
    pub fn best(&self) -> Option<&AblationPoint> {
        self.points
            .iter()
            .max_by(|a, b| a.final_coverage.total_cmp(&b.final_coverage))
    }
}

/// Runs one sweep: each setting is a declarative [`CampaignSpec`] expanded
/// into `budget.repetitions` independent campaign cells (the cell spec is
/// the setting re-seeded with `base_seed + repetition`), the flat cell list
/// goes to `runner` — in-process threads for a [`LocalRunner`], remote
/// workers under `experiments dispatch` — and the means fold the
/// repetitions in order, so results are byte-identical for every
/// [`Parallelism`](crate::Parallelism) mode and every faithful runner.
fn run_sweep_on(
    parameter: &str,
    settings: Vec<(String, CampaignSpec)>,
    processor: ProcessorKind,
    budget: &ExperimentBudget,
    plan: &ShardPlan,
    runner: &dyn CellRunner,
) -> Result<AblationSweep, String> {
    let mut specs = Vec::new();
    for (_, setting) in &settings {
        for repetition in 0..budget.repetitions {
            let mut spec = setting.clone();
            spec.rng_seed = budget.base_seed + repetition;
            spec.shards = plan.shards();
            spec.batch_size = plan.batch_size();
            spec.processor = Some(ProcessorSpec { core: processor, bugs: BugSpec::Native });
            specs.push(spec);
        }
    }

    let summaries = runner.run_cells(&specs)?;
    let outcomes: Vec<(f64, f64)> = summaries
        .iter()
        .map(|summary| (summary.final_coverage as f64, summary.total_resets as f64))
        .collect();

    // One group per setting, in construction order.
    let n = budget.repetitions.max(1) as f64;
    let mut next_group = crate::grid::result_groups(&outcomes, budget.repetitions);
    let points = settings
        .into_iter()
        .map(|(setting, _)| {
            let group = next_group();
            let total_coverage: f64 = group.iter().map(|(coverage, _)| coverage).sum();
            let total_resets: f64 = group.iter().map(|(_, resets)| resets).sum();
            AblationPoint {
                setting,
                final_coverage: total_coverage / n,
                resets: total_resets / n,
            }
        })
        .collect();
    Ok(AblationSweep { parameter: parameter.to_owned(), processor, points })
}

fn base_spec(budget: &ExperimentBudget) -> CampaignSpecBuilder {
    CampaignSpec::builder()
        .algorithm(BanditKind::Ucb1)
        .campaign(campaign_config(budget.coverage_tests))
}

/// Sweeps the reward weight α, every campaign sharded intra-campaign under
/// `plan`, with cell execution delegated to `runner`.
///
/// # Errors
///
/// Whatever error the runner reports; local runners never fail.
pub fn alpha_sweep_on(
    processor: ProcessorKind,
    budget: &ExperimentBudget,
    plan: &ShardPlan,
    runner: &dyn CellRunner,
) -> Result<AblationSweep, String> {
    let settings = [0.0, 0.25, 0.5, 1.0]
        .iter()
        .map(|&alpha| {
            (
                format!("alpha={alpha}"),
                base_spec(budget).alpha(alpha).build().expect("valid alpha setting"),
            )
        })
        .collect();
    run_sweep_on("alpha", settings, processor, budget, plan, runner)
}

/// Sweeps the reset threshold γ, every campaign sharded intra-campaign
/// under `plan`, with cell execution delegated to `runner`.
///
/// # Errors
///
/// Whatever error the runner reports; local runners never fail.
pub fn gamma_sweep_on(
    processor: ProcessorKind,
    budget: &ExperimentBudget,
    plan: &ShardPlan,
    runner: &dyn CellRunner,
) -> Result<AblationSweep, String> {
    let settings = [1usize, 3, 10]
        .iter()
        .map(|&gamma| {
            (
                format!("gamma={gamma}"),
                base_spec(budget).gamma(gamma).build().expect("valid gamma setting"),
            )
        })
        .collect();
    run_sweep_on("gamma", settings, processor, budget, plan, runner)
}

/// Sweeps the number of arms, every campaign sharded intra-campaign under
/// `plan`, with cell execution delegated to `runner`.
///
/// # Errors
///
/// Whatever error the runner reports; local runners never fail.
pub fn arms_sweep_on(
    processor: ProcessorKind,
    budget: &ExperimentBudget,
    plan: &ShardPlan,
    runner: &dyn CellRunner,
) -> Result<AblationSweep, String> {
    let settings = [4usize, 10, 20]
        .iter()
        .map(|&arms| {
            (
                format!("arms={arms}"),
                base_spec(budget).arms(arms).build().expect("valid arm setting"),
            )
        })
        .collect();
    run_sweep_on("arms", settings, processor, budget, plan, runner)
}

/// Compares MABFuzz with the paper's arm-reset feature against a variant
/// whose γ is effectively infinite (arms are never reset), every campaign
/// sharded intra-campaign under `plan`, with cell execution delegated to
/// `runner`.
///
/// # Errors
///
/// Whatever error the runner reports; local runners never fail.
pub fn reset_ablation_on(
    processor: ProcessorKind,
    budget: &ExperimentBudget,
    plan: &ShardPlan,
    runner: &dyn CellRunner,
) -> Result<AblationSweep, String> {
    let never = usize::MAX / 2;
    let settings = vec![
        (
            "reset(gamma=3)".to_owned(),
            base_spec(budget).gamma(3).build().expect("valid reset setting"),
        ),
        (
            "no-reset".to_owned(),
            base_spec(budget).gamma(never).build().expect("valid no-reset setting"),
        ),
    ];
    run_sweep_on("reset", settings, processor, budget, plan, runner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalRunner, Parallelism};

    fn local() -> LocalRunner {
        LocalRunner::new(Parallelism::default())
    }

    #[test]
    fn sweeps_produce_one_point_per_setting() {
        let budget = ExperimentBudget { coverage_tests: 40, repetitions: 1, ..ExperimentBudget::smoke() };
        let sweep = gamma_sweep_on(ProcessorKind::Rocket, &budget, &ShardPlan::serial(), &local())
            .expect("local cell execution cannot fail");
        assert_eq!(sweep.points.len(), 3);
        assert!(sweep.points.iter().all(|p| p.final_coverage > 0.0));
        assert!(sweep.best().is_some());
        let table = sweep.to_table();
        assert_eq!(table.len(), 3);
        assert!(table.render().contains("gamma=3"));
    }

    #[test]
    fn reset_ablation_disables_resets_in_the_no_reset_arm() {
        let budget = ExperimentBudget { coverage_tests: 60, repetitions: 1, ..ExperimentBudget::smoke() };
        let sweep =
            reset_ablation_on(ProcessorKind::Rocket, &budget, &ShardPlan::serial(), &local())
                .expect("local cell execution cannot fail");
        assert_eq!(sweep.points.len(), 2);
        let no_reset = &sweep.points[1];
        assert_eq!(no_reset.resets, 0.0, "gamma=∞ must never reset an arm");
    }
}
