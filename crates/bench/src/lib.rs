//! Experiment harness regenerating the MABFuzz paper's tables and figures.
//!
//! Every experiment in the paper's evaluation section has a corresponding
//! module here:
//!
//! | Paper artefact | Module | What it reports |
//! |---|---|---|
//! | Table I  | [`table1`] | tests-to-detection per vulnerability, and the speedup of each MABFuzz algorithm over TheHuzz |
//! | Fig. 3   | [`fig3`]   | branch-coverage-versus-tests curves per processor and fuzzer |
//! | Fig. 4   | [`fig4`]   | coverage speedup (×) and coverage increment (%) per algorithm and processor |
//! | §IV-A parameter choices | [`ablation`] | α, γ and arm-count sweeps plus the reset-feature ablation |
//!
//! The modules are plain library code so that the `experiments` binary, the
//! Criterion benches and the integration tests all drive exactly the same
//! implementations. Campaign budgets are parameters everywhere: the paper ran
//! 50 000 tests per campaign on a simulation farm, the defaults here are
//! laptop-sized, and the shapes (who wins, by roughly what factor) are what
//! the reproduction checks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod analyze;
pub mod fig3;
pub mod fig4;
pub mod grid;
pub mod json;
pub mod report;
pub mod runner;
pub mod table1;

use std::borrow::Cow;
use std::sync::Arc;

pub use grid::{run_grid, Parallelism};
pub use fuzzer::ShardPlan;
pub use mabfuzz::{Campaign, CampaignObserver, CampaignSpec, EventLog, PolicySpec, ProgressMonitor};
pub use runner::{CellRunner, LocalRunner};

use fuzzer::{CampaignConfig, CampaignStats};
use mab::BanditKind;
use proc_sim::{BugSet, Processor, ProcessorKind};

/// Which fuzzer a campaign uses: the baseline or MABFuzz with one of the
/// three algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum FuzzerKind {
    /// The TheHuzz-style baseline (static FIFO scheduling).
    TheHuzz,
    /// MABFuzz with the given bandit algorithm.
    MabFuzz(BanditKind),
}

impl FuzzerKind {
    /// The four fuzzers compared throughout the paper.
    pub const ALL: [FuzzerKind; 4] = [
        FuzzerKind::TheHuzz,
        FuzzerKind::MabFuzz(BanditKind::EpsilonGreedy),
        FuzzerKind::MabFuzz(BanditKind::Ucb1),
        FuzzerKind::MabFuzz(BanditKind::Exp3),
    ];

    /// The three MABFuzz variants.
    pub const MABFUZZ: [FuzzerKind; 3] = [
        FuzzerKind::MabFuzz(BanditKind::EpsilonGreedy),
        FuzzerKind::MabFuzz(BanditKind::Ucb1),
        FuzzerKind::MabFuzz(BanditKind::Exp3),
    ];

    /// Returns the display name used in tables.
    ///
    /// Borrowed from precomputed labels for the paper's fuzzers — `name()`
    /// sits in hot bench loops (benchmark ids, per-row table rendering), so
    /// the built-in variants must not allocate. Custom registered policies
    /// (outside every hot loop) render as `MABFuzz: <registered name>`.
    pub fn name(self) -> Cow<'static, str> {
        Cow::Borrowed(match self {
            FuzzerKind::TheHuzz => "TheHuzz",
            FuzzerKind::MabFuzz(BanditKind::EpsilonGreedy) => "MABFuzz: epsilon-greedy",
            FuzzerKind::MabFuzz(BanditKind::Ucb1) => "MABFuzz: UCB",
            FuzzerKind::MabFuzz(BanditKind::Exp3) => "MABFuzz: EXP3",
            FuzzerKind::MabFuzz(custom) => return Cow::Owned(format!("MABFuzz: {custom}")),
        })
    }

    /// The policy this fuzzer corresponds to in a [`CampaignSpec`].
    pub fn policy(self) -> PolicySpec {
        match self {
            FuzzerKind::TheHuzz => PolicySpec::Baseline,
            FuzzerKind::MabFuzz(kind) => PolicySpec::Bandit(kind),
        }
    }
}

impl std::fmt::Display for FuzzerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.name())
    }
}

/// Shared experiment sizing parameters.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentBudget {
    /// Tests per coverage campaign (Fig. 3 / Fig. 4).
    pub coverage_tests: u64,
    /// Maximum tests per vulnerability-detection campaign (Table I).
    pub detection_cap: u64,
    /// Independent repetitions averaged per data point.
    pub repetitions: u64,
    /// Base RNG seed; repetition `r` uses `base_seed + r`.
    pub base_seed: u64,
}

impl Default for ExperimentBudget {
    fn default() -> Self {
        ExperimentBudget { coverage_tests: 2000, detection_cap: 3000, repetitions: 3, base_seed: 2024 }
    }
}

impl ExperimentBudget {
    /// A very small budget used by the Criterion benches and the integration
    /// tests so they finish in seconds.
    pub fn smoke() -> ExperimentBudget {
        ExperimentBudget { coverage_tests: 120, detection_cap: 250, repetitions: 1, base_seed: 7 }
    }
}

/// Builds the [`CampaignSpec`] describing one grid cell: `fuzzer_kind` with
/// the paper-default reward/reset parameters over `campaign`, seeded
/// `rng_seed`, sharded per `plan`.
///
/// This is the construction every experiment cell goes through — the grid
/// is a consumer of specs, and a cell's spec serializes
/// ([`CampaignSpec::to_json`]) into exactly what `experiments run --spec`
/// would replay.
///
/// # Panics
///
/// Panics when the combination is invalid (a zero test budget, say) —
/// grid callers construct cells programmatically, so an invalid cell is a
/// harness bug, not user input.
pub fn campaign_spec(
    fuzzer_kind: FuzzerKind,
    campaign: CampaignConfig,
    rng_seed: u64,
    plan: &ShardPlan,
) -> CampaignSpec {
    CampaignSpec::builder()
        .policy(fuzzer_kind.policy())
        .campaign(campaign)
        .rng_seed(rng_seed)
        .plan(plan)
        .build()
        .expect("grid cells are valid by construction")
}

/// Runs one campaign of `fuzzer_kind` against `processor` under a
/// [`ShardPlan`] and returns its statistics.
///
/// The cell is described by a [`CampaignSpec`] (see [`campaign_spec`]) and
/// executed through the [`Campaign`] session type. MABFuzz campaigns
/// simulate each bandit round's batch across the plan's shard workers
/// (reports are byte-identical for every shard count at a fixed batch size;
/// see the determinism contract in `fuzzer::shard`). The TheHuzz baseline
/// has no round structure to batch, so it ignores the plan and stays
/// serial — callers composing thread budgets should still reserve only one
/// thread for its cells. Pass [`ShardPlan::serial`] for the published
/// serial stream.
pub fn run_campaign(
    fuzzer_kind: FuzzerKind,
    processor: Arc<dyn Processor>,
    campaign: CampaignConfig,
    rng_seed: u64,
    plan: &ShardPlan,
) -> CampaignStats {
    let spec = campaign_spec(fuzzer_kind, campaign, rng_seed, plan);
    Campaign::from_spec_on(processor, &spec)
        .expect("grid specs are valid by construction")
        .execute()
        .stats
}

/// Builds a processor with its paper-native bugs enabled.
pub fn processor_with_native_bugs(kind: ProcessorKind) -> Arc<dyn Processor> {
    Arc::from(kind.build_with_native_bugs())
}

/// Builds a bug-free processor (used by the coverage experiments, where
/// vulnerability detection is not the point).
pub fn processor_without_bugs(kind: ProcessorKind) -> Arc<dyn Processor> {
    Arc::from(kind.build(BugSet::none()))
}

/// The default campaign configuration used by the experiments, scaled to a
/// given test budget.
///
/// The seed-generation profile is slightly more conservative than the library
/// default: rare instruction classes (fences, system instructions, wild or
/// unimplemented-CSR accesses) are generated less often, so the deep
/// vulnerability triggers are reached through mutation chains rather than
/// plain seed luck — which is the regime where seed *selection* (the paper's
/// contribution) matters.
pub fn campaign_config(max_tests: u64) -> CampaignConfig {
    let mut generator = riscv::gen::GeneratorConfig::default();
    generator.weights.fence = 1;
    generator.weights.system = 1;
    generator.weights.csr = 3;
    generator.unimplemented_csr_prob = 0.05;
    generator.wild_memory_prob = 0.02;
    CampaignConfig {
        max_tests,
        max_steps_per_test: 300,
        num_seeds: 10,
        mutations_per_interesting_test: 4,
        sample_interval: (max_tests / 100).max(1),
        generator,
        ..CampaignConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzzer_kind_names() {
        assert_eq!(FuzzerKind::TheHuzz.name(), "TheHuzz");
        assert_eq!(FuzzerKind::MabFuzz(BanditKind::Ucb1).name(), "MABFuzz: UCB");
        assert_eq!(FuzzerKind::ALL.len(), 4);
        assert_eq!(FuzzerKind::MABFUZZ.len(), 3);
    }

    #[test]
    fn run_campaign_dispatches_to_both_fuzzers() {
        let config = campaign_config(15);
        let baseline = run_campaign(
            FuzzerKind::TheHuzz,
            processor_without_bugs(ProcessorKind::Rocket),
            config.clone(),
            1,
            &ShardPlan::serial(),
        );
        let mabfuzz = run_campaign(
            FuzzerKind::MabFuzz(BanditKind::Ucb1),
            processor_without_bugs(ProcessorKind::Rocket),
            config,
            1,
            &ShardPlan::serial(),
        );
        assert_eq!(baseline.tests_executed(), 15);
        assert_eq!(mabfuzz.tests_executed(), 15);
        assert!(baseline.label().contains("TheHuzz"));
        assert!(mabfuzz.label().contains("MABFuzz"));
    }

    #[test]
    fn budgets_have_sane_defaults() {
        let default = ExperimentBudget::default();
        assert!(default.coverage_tests > ExperimentBudget::smoke().coverage_tests);
        assert!(default.repetitions >= 1);
    }
}
