//! The campaign session type: spec in, outcome out.
//!
//! [`Campaign`] is the single execution entry point behind every fuzzing
//! run in the workspace. It is built from a declarative
//! [`CampaignSpec`] — either self-contained
//! ([`Campaign::from_spec`]) or against a caller-supplied processor
//! ([`Campaign::from_spec_on`]) — optionally decorated with streaming
//! [`CampaignObserver`]s, and consumed by [`execute`](Campaign::execute).
//! The experiment grid, the `experiments` binary, the campaign service and
//! the examples all reach it through specs; custom bandit policies plug in
//! by name through [`mab::register_policy`].
//!
//! # One loop, two schedules
//!
//! Every campaign runs the same simulate–compare–mutate loop (§I-B, Fig. 2
//! of the paper); the spec's [`PolicySpec`] only picks how that loop
//! schedules its tests:
//!
//! * [`PolicySpec::Baseline`] is TheHuzz's static FIFO schedule (§II-A):
//!   every seed queues in one pool, tests run strictly first in, first out,
//!   an empty pool gets a fresh random seed, and there is no bandit to
//!   select, reward or reset. One test runs per step whatever the spec's
//!   batch size, and the outcome's arm summary is empty;
//! * [`PolicySpec::Bandit`] is MABFuzz: one arm per seed, a bandit that
//!   picks the arm of each round, γ-window resets of saturated arms, and
//!   one test or one batch per round per the spec's plan.
//!
//! Both stream the [`CampaignObserver`] event protocol in fold order (the
//! FIFO schedule's conventions are documented in
//! [`observer`](crate::observer)), with the determinism contract of
//! `fuzzer::shard` intact: attaching observers never changes a single byte
//! of the report.

use std::sync::Arc;

use coverage::CoverageMap;
use fuzzer::shard::derive_stream_seed;
use fuzzer::{
    CampaignStats, DiffReport, ExecScratch, FuzzHarness, MutationEngine, SeedGenerator, TestCase,
};
use mab::Bandit;
use proc_sim::Processor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::arm::Arm;
use crate::cancel::CancelToken;
use crate::monitor::SaturationMonitor;
use crate::observer::{
    ArmReset, ArmSelected, BatchFolded, CampaignFinished, CampaignObserver, CoverageMilestone,
    DecileTracker, DetectionObserved, TestFolded,
};
use crate::reward::RewardParams;
use crate::spec::{CampaignSpec, PolicySpec, SpecError};

/// Per-arm summary included in the campaign outcome.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArmSummary {
    /// Arm index.
    pub index: usize,
    /// Total pulls across the campaign.
    pub pulls: u64,
    /// Number of times the arm was reset.
    pub resets: u64,
    /// Coverage points reached by the arm's final seed family.
    pub final_local_coverage: usize,
}

/// The result of one MABFuzz campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MabFuzzOutcome {
    /// The shared campaign statistics (coverage curve, detections, …).
    pub stats: CampaignStats,
    /// Per-arm activity summary.
    pub arms: Vec<ArmSummary>,
    /// Total number of arm resets across the campaign.
    pub total_resets: u64,
}

/// How the campaign loop schedules its tests — the one thing a
/// [`PolicySpec`] decides.
enum Schedule {
    /// TheHuzz: all seeds queue in arm 0's FIFO pool, an empty pool gets a
    /// fresh seed, one test per step, no bandit and no resets. Arm 0 never
    /// resets, so its local novelty is the campaign's global novelty — the
    /// count TheHuzz gates mutation on.
    Fifo,
    /// MABFuzz: one arm per seed, the bandit selects each round's arm, an
    /// empty pool gets a mutant of the arm's seed, and saturated arms reset.
    Bandit(Box<dyn Bandit>),
}

/// One fuzzing campaign, assembled and ready to
/// [`execute`](Campaign::execute).
///
/// A MABFuzz campaign is a multi-armed-bandit seed scheduler wrapped around
/// the same simulate–compare–mutate loop as the baseline. One fuzzing
/// iteration (one "pull") follows Fig. 2 of the paper:
///
/// 1. the bandit selects an arm,
/// 2. the next test from that arm's pool is simulated on the DUT and the
///    golden model (differential testing),
/// 3. the test's coverage is folded into the arm-local and global coverage,
///    yielding `|cov_L|` and `|cov_G|`,
/// 4. if the test found new coverage it is mutated and its children join the
///    arm's pool,
/// 5. the reward `α·|cov_L| + (1 − α)·|cov_G|` (normalised for EXP3) updates
///    the bandit,
/// 6. the γ-window monitor decides whether the arm is depleted; if so the arm
///    is reset: fresh seed, cleared pool and local coverage, and re-initialised
///    bandit statistics.
///
/// Under a batched plan each round pulls a batch of tests from the selected
/// arm, simulates it in place on the campaign thread and folds the
/// observations in `test_index` order (see the determinism contract in
/// [`fuzzer::shard`]). A baseline campaign runs steps 2–4 alone, over one
/// FIFO pool.
///
/// # Example
///
/// A custom policy registered at runtime drives a full campaign through a
/// spec, with no edit to any core type:
///
/// ```
/// use mab::{register_policy, BanditKind, EpsilonGreedy, PolicyParams};
/// use mabfuzz::{BugSpec, Campaign, CampaignSpec};
/// use proc_sim::ProcessorKind;
///
/// // A "custom" policy (here simply uniform-random exploration).
/// register_policy("doc-uniform", |params: &PolicyParams| {
///     Box::new(EpsilonGreedy::new(params.arms, 1.0))
/// })
/// .expect("fresh name");
///
/// let spec = CampaignSpec::builder()
///     .policy_named("doc-uniform")
///     .arms(4)
///     .max_tests(16)
///     .processor(ProcessorKind::Rocket, BugSpec::None)
///     .rng_seed(3)
///     .build()
///     .unwrap();
/// let outcome = Campaign::from_spec(&spec).unwrap().execute();
/// assert_eq!(outcome.stats.tests_executed(), 16);
/// assert!(outcome.stats.label().contains("doc-uniform"));
/// ```
pub struct Campaign {
    harness: FuzzHarness,
    spec: CampaignSpec,
    schedule: Schedule,
    observers: Vec<Box<dyn CampaignObserver>>,
    cancel: Option<CancelToken>,
}

impl Campaign {
    /// Assembles a self-contained campaign: the spec names the processor.
    ///
    /// # Errors
    ///
    /// [`SpecError::MissingProcessor`] when the spec has no processor
    /// section, or any validation error of the spec.
    pub fn from_spec(spec: &CampaignSpec) -> Result<Campaign, SpecError> {
        spec.validate()?;
        let processor = spec.processor.ok_or(SpecError::MissingProcessor)?;
        Campaign::assemble(Arc::from(processor.build()), spec)
    }

    /// Assembles a campaign from a spec against a caller-supplied processor
    /// (the experiment grid's path — cells build their processors once and
    /// reuse the spec).
    ///
    /// # Errors
    ///
    /// Any validation error of the spec.
    pub fn from_spec_on(
        processor: Arc<dyn Processor>,
        spec: &CampaignSpec,
    ) -> Result<Campaign, SpecError> {
        spec.validate()?;
        Campaign::assemble(processor, spec)
    }

    /// Assembles a campaign from an already-validated spec (both `from_spec`
    /// entry points funnel through here, so validation runs exactly once per
    /// construction and error ordering cannot drift between them).
    fn assemble(processor: Arc<dyn Processor>, spec: &CampaignSpec) -> Result<Campaign, SpecError> {
        let schedule = match spec.policy {
            PolicySpec::Baseline => Schedule::Fifo,
            PolicySpec::Bandit(kind) => {
                let bandit = kind.build_with(&spec.policy_params(kind));
                if bandit.arms() != spec.arms() {
                    return Err(SpecError::ArmCountMismatch {
                        bandit: bandit.arms(),
                        spec: spec.arms(),
                    });
                }
                Schedule::Bandit(bandit)
            }
        };
        let mut harness = FuzzHarness::new(processor, spec.campaign.max_steps_per_test);
        // `coverage_space_len` then sizes the stats and arms for the selected
        // space automatically.
        harness.set_coverage_signal(spec.coverage_signal);
        Ok(Campaign { harness, spec: spec.clone(), schedule, observers: Vec::new(), cancel: None })
    }

    /// Attaches a streaming observer (builder style). Observers receive the
    /// campaign's event stream in deterministic fold order and cannot affect
    /// the outcome.
    pub fn with_observer(mut self, observer: Box<dyn CampaignObserver>) -> Campaign {
        self.observers.push(observer);
        self
    }

    /// Attaches a streaming observer in place.
    pub fn attach_observer(&mut self, observer: Box<dyn CampaignObserver>) {
        self.observers.push(observer);
    }

    /// Attaches a cooperative cancellation token (builder style). Any clone
    /// of the token may request cancellation from any thread; the campaign
    /// stops at the next deterministic fold boundary — between bandit rounds
    /// for MABFuzz campaigns, between FIFO tests for the baseline. An
    /// interrupted campaign finalises its statistics over the tests it
    /// folded and does **not** emit [`CampaignFinished`], so its event
    /// stream is a strict prefix of the uncancelled run's stream; check
    /// [`CancelToken::was_interrupted`] after [`execute`](Campaign::execute)
    /// to learn whether the run was cut short.
    pub fn with_cancellation(mut self, token: CancelToken) -> Campaign {
        self.cancel = Some(token);
        self
    }

    /// Returns the campaign's report label (`"TheHuzz on rocket"`,
    /// `"MABFuzz: UCB on cva6"`, …).
    pub fn label(&self) -> String {
        format!("{} on {}", self.spec.label(), self.harness.processor().name())
    }

    /// Returns the size of the processor's coverage space — what the
    /// campaign's [`CoverageMilestone`] deciles and coverage percentages
    /// (e.g. a [`ProgressMonitor`](crate::ProgressMonitor)) are measured
    /// against.
    pub fn coverage_space_len(&self) -> usize {
        self.harness.coverage_space_len()
    }

    /// Runs the campaign to completion: select an arm, assemble the round's
    /// batch, simulate each test in place and fold it, in `test_index`
    /// order (Fig. 2 of the paper, batched). The FIFO schedule skips the
    /// selection and runs one test per round.
    ///
    /// Baseline campaigns return an outcome with an empty arm summary (there
    /// are no bandit arms to report); MABFuzz campaigns produce the full
    /// per-arm report. Both stream the complete event protocol to attached
    /// observers (see the baseline vocabulary in
    /// [`observer`](crate::observer)). Reports — and event streams — are a
    /// pure function of the spec, independent of attached observers.
    pub fn execute(self) -> MabFuzzOutcome {
        let label = self.label();
        let Campaign { harness, spec, schedule, observers, cancel } = self;
        let config = &spec.campaign;
        let space_len = harness.coverage_space_len();
        let max_tests = config.max_tests;
        let campaign_seed = spec.rng_seed;
        let batch_size = match schedule {
            Schedule::Fifo => 1,
            Schedule::Bandit(_) => spec.plan().batch_size(),
        };
        // Per-test derived RNG streams are a batched-mode feature; the
        // batch-size-1 plan keeps every draw on the main RNG so serial
        // campaigns reproduce the unbatched stream byte for byte.
        let legacy_stream = batch_size == 1;
        let mut scratch = ExecScratch::new();

        let mut fold = CampaignFold {
            stats: CampaignStats::new(label, space_len, config.sample_interval),
            arms: Vec::new(),
            monitor: SaturationMonitor::new(spec.arms(), spec.gamma),
            schedule,
            rng: StdRng::seed_from_u64(campaign_seed),
            seeds: SeedGenerator::new(config.generator.clone()),
            mutator: MutationEngine::new(config.generator.clone()),
            reward_params: RewardParams::new(spec.alpha),
            space_len,
            mutations_per_interesting_test: config.mutations_per_interesting_test,
            stop_on_first_detection: config.stop_on_first_detection,
            total_resets: 0,
            pending_rewards: Vec::with_capacity(batch_size),
            arm_index: 0,
            round: 0,
            round_tests: 0,
            deciles: DecileTracker::new(space_len),
            observers,
        };
        let mut seeds = fold.seeds.generate_seeds(&mut fold.rng, spec.arms()).into_iter();
        fold.arms = match fold.schedule {
            // TheHuzz queues every seed in one global pool.
            Schedule::Fifo => {
                let mut arm = Arm::new(0, seeds.next().expect("a valid spec has seeds"), space_len);
                arm.pool_mut().extend(seeds);
                vec![arm]
            }
            // One seed per arm (Fig. 2: "Given a seed pool with each seed
            // corresponding to an arm").
            Schedule::Bandit(_) => {
                seeds.enumerate().map(|(index, seed)| Arm::new(index, seed, space_len)).collect()
            }
        };

        let mut round: u64 = 0;
        while fold.stats.tests_executed() < max_tests {
            // Cooperative cancellation cuts the campaign at a round (fold)
            // boundary: every round that started folds completely, so the
            // event stream so far is a strict prefix of the uncancelled
            // stream.
            if let Some(token) = &cancel {
                if token.is_cancelled() {
                    token.mark_interrupted();
                    break;
                }
            }
            let remaining =
                usize::try_from(max_tests - fold.stats.tests_executed()).unwrap_or(usize::MAX);
            let batch_len = batch_size.min(remaining);

            // 1. Select the round's arm.
            fold.begin_round(round, batch_len);

            // Derived per-test streams for this round (batched mode only).
            let mut lanes: Vec<StdRng> = if legacy_stream {
                Vec::new()
            } else {
                (0..batch_len as u64)
                    .map(|index| derive_stream_seed(campaign_seed, round, index))
                    .map(StdRng::seed_from_u64)
                    .collect()
            };

            // 2. Assemble the whole batch before any fold: folding pushes
            //    mutants into the arm's pool, so interleaving the two would
            //    change which tests the batch holds.
            let batch = fold.assemble_batch(batch_len, &mut lanes);

            // 3. Simulate each test in place and 4. fold it, in test order.
            let mut stopped = false;
            for (slot, test) in batch.iter().enumerate() {
                let view = harness.run_program_into(&test.program, &mut scratch);
                if fold.fold_test(test, view.coverage, view.diff, lanes.get_mut(slot)) {
                    stopped = true;
                    break;
                }
            }
            fold.flush_rewards();
            fold.finish_round();
            if stopped {
                break;
            }
            round += 1;
        }

        fold.stats.finish();
        let arm_summaries = match fold.schedule {
            Schedule::Fifo => Vec::new(),
            Schedule::Bandit(_) => fold
                .arms
                .iter()
                .map(|arm| ArmSummary {
                    index: arm.index(),
                    pulls: arm.total_pulls(),
                    resets: arm.resets(),
                    final_local_coverage: arm.local_coverage().count(),
                })
                .collect(),
        };
        // An interrupted campaign's stream stays a strict prefix of the full
        // run's stream: the finished event is withheld (see `cancel`).
        if !cancel.as_ref().is_some_and(CancelToken::was_interrupted) {
            let finished = CampaignFinished {
                tests_executed: fold.stats.tests_executed(),
                final_coverage: fold.stats.final_coverage(),
                total_resets: fold.total_resets,
            };
            for observer in &mut fold.observers {
                observer.campaign_finished(&finished);
            }
        }
        MabFuzzOutcome { stats: fold.stats, arms: arm_summaries, total_resets: fold.total_resets }
    }
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field("label", &self.label())
            .field("observers", &self.observers.len())
            .finish()
    }
}

/// Everything the ordered reduction of a campaign round mutates.
///
/// The fold *is* the built-in observer: its direct `stats` bookkeeping
/// performs exactly what `impl CampaignObserver for CampaignStats` performs,
/// and every attached observer receives the corresponding event right after
/// the reduction step it describes.
struct CampaignFold {
    stats: CampaignStats,
    arms: Vec<Arm>,
    monitor: SaturationMonitor,
    schedule: Schedule,
    rng: StdRng,
    seeds: SeedGenerator,
    mutator: MutationEngine,
    reward_params: RewardParams,
    space_len: usize,
    mutations_per_interesting_test: usize,
    stop_on_first_detection: bool,
    total_resets: u64,
    pending_rewards: Vec<f64>,
    arm_index: usize,
    round: u64,
    round_tests: usize,
    deciles: DecileTracker,
    observers: Vec<Box<dyn CampaignObserver>>,
}

impl CampaignFold {
    /// Starts a round: the bandit picks the arm the whole batch pulls (the
    /// FIFO schedule stays on arm 0 and draws nothing).
    fn begin_round(&mut self, round: u64, batch_len: usize) {
        self.round = round;
        self.round_tests = 0;
        let Schedule::Bandit(bandit) = &mut self.schedule else {
            return;
        };
        self.arm_index = bandit.select(&mut self.rng);
        if !self.observers.is_empty() {
            let event = ArmSelected { round, arm: self.arm_index, batch_len };
            for observer in &mut self.observers {
                observer.arm_selected(&event);
            }
        }
    }

    /// Ends a round after its rewards were flushed.
    fn finish_round(&mut self) {
        if matches!(self.schedule, Schedule::Bandit(_)) && !self.observers.is_empty() {
            let event =
                BatchFolded { round: self.round, arm: self.arm_index, tests: self.round_tests };
            for observer in &mut self.observers {
                observer.batch_folded(&event);
            }
        }
    }

    /// Pops the round's batch from the selected arm's pool. An empty pool
    /// gets a fresh seed under the FIFO schedule and a mutant of the arm's
    /// seed under a bandit. Refill randomness comes from the slot's derived
    /// lane when one exists (batched rounds) and from the main RNG otherwise
    /// (the legacy batch-size-1 stream).
    fn assemble_batch(&mut self, batch_len: usize, lanes: &mut [StdRng]) -> Vec<TestCase> {
        let mut batch = Vec::with_capacity(batch_len);
        for slot in 0..batch_len {
            let arm = &mut self.arms[self.arm_index];
            let test = match (arm.next_test(), &self.schedule) {
                (Some(test), _) => test,
                (None, Schedule::Fifo) => self.seeds.generate_seed(&mut self.rng),
                (None, Schedule::Bandit(_)) => {
                    let rng = match lanes.get_mut(slot) {
                        Some(lane) => lane,
                        None => &mut self.rng,
                    };
                    let (mutant, _) = self.mutator.mutate(&arm.seed().program, rng);
                    let child = self.seeds.adopt_child(arm.seed(), mutant);
                    arm.pool_mut().push(child);
                    arm.next_test().expect("pool was just refilled")
                }
            };
            batch.push(test);
        }
        batch
    }

    /// Folds one simulated test into the campaign state, in `test_index`
    /// order. Returns `true` when the campaign must stop (detection mode
    /// hit a mismatch); the rest of the round's batch is then never
    /// simulated.
    fn fold_test(
        &mut self,
        test: &TestCase,
        coverage: &CoverageMap,
        diff: &DiffReport,
        lane: Option<&mut StdRng>,
    ) -> bool {
        // Global novelty first (cov_G), then the arm-local novelty
        // (cov_L ⊇ cov_G). Only the counts are needed for the reward, so no
        // id vectors are materialised.
        let detected = !diff.is_clean();
        let global_new = self.stats.record_test_count(test.id, coverage, diff);
        let local_new = self.arms[self.arm_index].absorb_coverage(coverage);
        self.round_tests += 1;

        if self.stop_on_first_detection && detected {
            self.emit_test_events(test, coverage, diff, local_new, global_new, 0.0, detected);
            return true;
        }

        // Mutate interesting tests into the arm's pool.
        if local_new > 0 {
            let mutation_count = self.mutations_per_interesting_test;
            let CampaignFold { rng, seeds, mutator, arms, arm_index, .. } = self;
            let rng = match lane {
                Some(lane) => lane,
                None => rng,
            };
            for _ in 0..mutation_count {
                let (mutant, _) = mutator.mutate(&test.program, rng);
                let child = seeds.adopt_child(test, mutant);
                arms[*arm_index].pool_mut().push(child);
            }
        }

        let Schedule::Bandit(bandit) = &self.schedule else {
            // The FIFO schedule rewards nothing and never resets.
            self.emit_test_events(test, coverage, diff, local_new, global_new, 0.0, detected);
            return false;
        };
        // Queue the reward; the round flush (or a reset) folds the pending
        // rewards into the bandit in order via `update_batch`.
        let reward =
            self.reward_params.policy_reward(bandit.kind(), local_new, global_new, self.space_len);
        self.pending_rewards.push(reward);
        self.emit_test_events(test, coverage, diff, local_new, global_new, reward, detected);

        if self.monitor.record(self.arm_index, local_new) {
            self.reset_arm();
        }
        false
    }

    /// Resets the saturated selected arm. Pending rewards are flushed first
    /// so the bandit observes update-then-reset in the same order as a
    /// serial campaign.
    fn reset_arm(&mut self) {
        self.flush_rewards();
        let fresh = self.seeds.generate_seed(&mut self.rng);
        self.arms[self.arm_index].reset(fresh);
        if let Schedule::Bandit(bandit) = &mut self.schedule {
            bandit.reset_arm(self.arm_index);
        }
        self.monitor.reset_arm(self.arm_index);
        self.total_resets += 1;
        if !self.observers.is_empty() {
            let event = ArmReset {
                arm: self.arm_index,
                test_number: self.stats.tests_executed(),
                total_resets: self.total_resets,
            };
            for observer in &mut self.observers {
                observer.arm_reset(&event);
            }
        }
    }

    /// Streams the per-test events (test folded, detection, coverage
    /// milestone) to the attached observers.
    #[allow(clippy::too_many_arguments)]
    fn emit_test_events(
        &mut self,
        test: &TestCase,
        coverage: &CoverageMap,
        diff: &DiffReport,
        local_new: usize,
        global_new: usize,
        reward: f64,
        detected: bool,
    ) {
        // Observer-less campaigns (the whole experiment grid, the golden
        // runs, the benches) skip all event bookkeeping: observers can only
        // attach before `execute()` consumes the campaign, so nothing can
        // ever observe state tracked while this list is empty.
        if self.observers.is_empty() {
            return;
        }
        let covered = self.stats.final_coverage();
        let crossed = self.deciles.crossed(covered);
        let test_number = self.stats.tests_executed();
        let event = TestFolded {
            test_number,
            test_id: test.id,
            arm: self.arm_index,
            local_new,
            global_new,
            covered,
            reward,
            detected,
            coverage,
            diff,
        };
        for observer in &mut self.observers {
            observer.test_folded(&event);
        }
        if detected {
            let event = DetectionObserved {
                test_number,
                test_id: test.id,
                arm: self.arm_index,
                diff,
            };
            for observer in &mut self.observers {
                observer.detection(&event);
            }
        }
        for decile in crossed {
            let event = CoverageMilestone {
                decile,
                covered,
                space_len: self.space_len,
                test_number,
            };
            for observer in &mut self.observers {
                observer.coverage_milestone(&event);
            }
        }
    }

    /// Folds the queued rewards of the current round into the bandit, in
    /// `test_index` order (the FIFO schedule never queues any).
    fn flush_rewards(&mut self) {
        if let Schedule::Bandit(bandit) = &mut self.schedule {
            if !self.pending_rewards.is_empty() {
                bandit.update_batch(self.arm_index, &self.pending_rewards);
                self.pending_rewards.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    use mab::BanditKind;
    use proc_sim::cores::{Cva6Core, RocketCore};
    use proc_sim::{BugSet, Processor, ProcessorKind, Vulnerability};

    use crate::spec::BugSpec;

    fn quick_spec(kind: BanditKind, max_tests: u64) -> CampaignSpec {
        CampaignSpec::builder()
            .algorithm(kind)
            .arms(4)
            .max_tests(max_tests)
            .max_steps_per_test(200)
            .mutations_per_interesting_test(2)
            .sample_interval(5)
            .rng_seed(3)
            .build()
            .expect("valid spec")
    }

    fn rocket() -> Arc<dyn Processor> {
        Arc::new(RocketCore::new(BugSet::none()))
    }

    #[test]
    fn campaign_runs_to_the_test_budget_for_every_algorithm() {
        for kind in BanditKind::ALL {
            let outcome = Campaign::from_spec_on(rocket(), &quick_spec(kind, 25)).unwrap().execute();
            assert_eq!(outcome.stats.tests_executed(), 25, "{kind}");
            assert!(outcome.stats.final_coverage() > 100, "{kind}");
            assert_eq!(outcome.arms.len(), 4);
            let pulls: u64 = outcome.arms.iter().map(|a| a.pulls).sum();
            assert!(pulls >= 25, "every executed test is a pull of some arm");
        }
    }

    #[test]
    fn campaigns_are_reproducible_per_rng_seed() {
        let mut spec = quick_spec(BanditKind::Ucb1, 20);
        spec.rng_seed = 11;
        let a = Campaign::from_spec_on(rocket(), &spec).unwrap().execute();
        let b = Campaign::from_spec_on(rocket(), &spec).unwrap().execute();
        assert_eq!(a.stats.final_coverage(), b.stats.final_coverage());
        assert_eq!(a.stats.cumulative().history(), b.stats.cumulative().history());
        assert_eq!(a.total_resets, b.total_resets);
    }

    #[test]
    fn saturated_arms_get_reset_in_long_campaigns() {
        let mut spec = quick_spec(BanditKind::EpsilonGreedy, 120);
        spec.gamma = 2;
        spec.campaign.mutations_per_interesting_test = 1;
        spec.rng_seed = 5;
        let outcome = Campaign::from_spec_on(rocket(), &spec).unwrap().execute();
        assert!(outcome.total_resets > 0, "a 120-test campaign with gamma=2 must reset arms");
        let resets_from_arms: u64 = outcome.arms.iter().map(|a| a.resets).sum();
        assert_eq!(resets_from_arms, outcome.total_resets);
    }

    /// Detection mode on CVA6 with V5, one test (`batch_size == 1`) or one
    /// batch per round.
    fn detection_outcome(batch_size: usize) -> MabFuzzOutcome {
        let mut spec = quick_spec(BanditKind::Ucb1, 400);
        spec.campaign.stop_on_first_detection = true;
        spec.rng_seed = 2;
        spec.batch_size = batch_size;
        let processor = Arc::new(Cva6Core::new(BugSet::only(Vulnerability::V5MissingAccessFault)));
        Campaign::from_spec_on(processor, &spec).unwrap().execute()
    }

    #[test]
    fn detection_mode_stops_on_the_first_mismatch() {
        let outcome = detection_outcome(1);
        let detection = outcome.stats.first_detection().expect("V5 triggers quickly");
        assert_eq!(outcome.stats.tests_executed(), detection);
    }

    #[test]
    fn batched_detection_mode_stops_on_the_first_mismatch() {
        let outcome = detection_outcome(8);
        let detection = outcome.stats.first_detection().expect("V5 triggers quickly");
        assert_eq!(
            outcome.stats.tests_executed(),
            detection,
            "the rest of the detecting round is never recorded"
        );
    }

    /// The Table I shape at batch size 5: the detecting test number is part
    /// of the deterministic outcome, and the campaign stops right on it.
    #[test]
    fn batched_detection_campaigns_are_reproducible() {
        let run = || {
            let spec = CampaignSpec::builder()
                .algorithm(BanditKind::Ucb1)
                .arms(4)
                .max_tests(600)
                .max_steps_per_test(200)
                .stop_on_first_detection(true)
                .rng_seed(3)
                .batch_size(5)
                .build()
                .unwrap();
            let processor = Arc::new(Cva6Core::new(BugSet::only(Vulnerability::V5MissingAccessFault)));
            Campaign::from_spec_on(processor, &spec).unwrap().execute()
        };
        let reference = run();
        let detection =
            reference.stats.first_detection().expect("V5 must be detected within the budget");
        assert_eq!(reference.stats.tests_executed(), detection);
        assert_eq!(reference, run(), "the same batched spec reproduces the same outcome");
    }

    /// The same campaign at two different batch sizes is *not* expected to
    /// match — batching is a deliberate change of the RNG contract. This
    /// guard documents that asymmetry so nobody "fixes" a batched golden by
    /// comparing across batch sizes.
    #[test]
    fn equivalence_holds_per_batch_size_not_across() {
        let run = |batch: usize| {
            let spec = CampaignSpec::builder()
                .algorithm(BanditKind::EpsilonGreedy)
                .arms(4)
                .max_tests(40)
                .max_steps_per_test(200)
                .rng_seed(11)
                .batch_size(batch)
                .build()
                .unwrap();
            Campaign::from_spec_on(rocket(), &spec).unwrap().execute()
        };
        let small = run(2);
        let large = run(8);
        assert_eq!(small.stats.tests_executed(), large.stats.tests_executed());
        assert_ne!(
            small.stats.cumulative().history(),
            large.stats.cumulative().history(),
            "different batch sizes are different campaigns by design"
        );
    }

    #[test]
    fn a_registered_round_robin_policy_drives_a_campaign() {
        /// A deliberately naive policy: round-robin over the arms.
        struct RoundRobin {
            kind: BanditKind,
            next: usize,
            pulls: Vec<u64>,
        }
        impl Bandit for RoundRobin {
            fn kind(&self) -> BanditKind {
                self.kind
            }
            fn arms(&self) -> usize {
                self.pulls.len()
            }
            fn select(&mut self, _rng: &mut dyn rand::RngCore) -> usize {
                let arm = self.next;
                self.next = (self.next + 1) % self.pulls.len();
                arm
            }
            fn update(&mut self, arm: usize, _reward: f64) {
                self.pulls[arm] += 1;
            }
            fn reset_arm(&mut self, arm: usize) {
                self.pulls[arm] = 0;
            }
            fn value(&self, _arm: usize) -> f64 {
                0.0
            }
            fn pulls(&self, arm: usize) -> u64 {
                self.pulls[arm]
            }
        }

        let kind = mab::register_policy("campaign-test-round-robin", |params: &mab::PolicyParams| {
            Box::new(RoundRobin { kind: params.kind, next: 0, pulls: vec![0; params.arms] })
        })
        .expect("fresh name");
        let mut spec = quick_spec(kind, 12);
        spec.rng_seed = 4;
        let outcome = Campaign::from_spec_on(rocket(), &spec).unwrap().execute();
        assert_eq!(outcome.stats.tests_executed(), 12);
        assert!(outcome.stats.label().contains("campaign-test-round-robin"));
        // Round-robin spreads the twelve pulls evenly over the four arms.
        assert!(outcome.arms.iter().all(|a| a.pulls == 3));
    }

    #[test]
    fn a_policy_with_the_wrong_arm_count_is_rejected() {
        let kind = mab::register_policy("campaign-test-two-arms", |_: &mab::PolicyParams| {
            Box::new(mab::Ucb1::new(2))
        })
        .expect("fresh name");
        let error = Campaign::from_spec_on(rocket(), &quick_spec(kind, 5))
            .expect_err("a 2-arm bandit cannot schedule 4 seeds");
        assert_eq!(error, SpecError::ArmCountMismatch { bandit: 2, spec: 4 });
        let message = error.to_string();
        assert!(message.contains("2 arms") && message.contains("declares 4"), "got: {message}");
    }

    #[test]
    fn self_contained_specs_build_their_processor() {
        let spec = CampaignSpec::builder()
            .arms(4)
            .max_tests(10)
            .processor(ProcessorKind::Rocket, BugSpec::None)
            .build()
            .unwrap();
        let outcome = Campaign::from_spec(&spec).unwrap().execute();
        assert_eq!(outcome.stats.tests_executed(), 10);
        assert!(outcome.stats.label().contains("rocket"));
    }

    #[test]
    fn specs_without_a_processor_require_from_spec_on() {
        let spec = CampaignSpec::builder().build().unwrap();
        assert_eq!(
            Campaign::from_spec(&spec).err(),
            Some(SpecError::MissingProcessor),
            "self-contained execution needs a processor section"
        );
    }

    #[test]
    fn baseline_specs_run_thehuzz() {
        let spec = CampaignSpec::builder()
            .baseline()
            .max_tests(15)
            .processor(ProcessorKind::Rocket, BugSpec::None)
            .rng_seed(1)
            .build()
            .unwrap();
        let campaign = Campaign::from_spec(&spec).unwrap();
        assert!(campaign.label().starts_with("TheHuzz on rocket"), "{}", campaign.label());
        let outcome = campaign.execute();
        assert_eq!(outcome.stats.tests_executed(), 15);
        assert!(outcome.arms.is_empty(), "the baseline has no bandit arms");
        assert_eq!(outcome.total_resets, 0);
        assert!(outcome.stats.label().contains("TheHuzz"));
    }

    #[test]
    fn baseline_campaigns_stream_the_per_test_event_protocol() {
        let spec = CampaignSpec::builder()
            .baseline()
            .max_tests(30)
            .max_steps_per_test(200)
            .sample_interval(5)
            .rng_seed(1)
            .build()
            .unwrap();
        let plain = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .execute();

        let log = Arc::new(Mutex::new(Vec::new()));
        let observed = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .with_observer(Box::new(Recorder { log: Arc::clone(&log) }))
            .execute();
        assert_eq!(plain, observed, "observers must never change the baseline campaign");

        let log = log.lock().unwrap();
        let tests = log.iter().filter(|l| l.starts_with("test:")).count();
        assert_eq!(tests, 30, "one TestFolded per executed FIFO test");
        assert!(
            !log.iter().any(|l| l.starts_with("select:") || l.starts_with("batch:")),
            "the baseline has no bandit rounds: {log:?}"
        );
        assert!(
            log.iter().any(|l| l.starts_with("decile:")),
            "baseline coverage crosses deciles too"
        );
        assert_eq!(log.last().unwrap(), &format!("finish:{}", observed.stats.tests_executed()));
    }

    #[test]
    fn routed_baseline_matches_the_legacy_wrapper_in_detection_mode() {
        // TheHuzz breaks out of the loop after recording the detecting test
        // but before enqueuing mutants; the FIFO schedule must reproduce
        // that ordering draw for draw against the reference loop.
        let spec = CampaignSpec::builder()
            .baseline()
            .max_tests(400)
            .max_steps_per_test(200)
            .mutations_per_interesting_test(2)
            .arms(4)
            .sample_interval(5)
            .stop_on_first_detection(true)
            .rng_seed(3)
            .build()
            .unwrap();
        let cva6 = || Arc::new(Cva6Core::new(BugSet::only(Vulnerability::V5MissingAccessFault)));
        let legacy = crate::thehuzz::reference_campaign(cva6(), &spec);

        let log = Arc::new(Mutex::new(Vec::new()));
        let routed = Campaign::from_spec_on(cva6(), &spec)
            .unwrap()
            .with_observer(Box::new(Recorder { log: Arc::clone(&log) }))
            .execute();

        assert_eq!(legacy, routed.stats, "routed baseline diverged from the reference loop");
        let detection = legacy.first_detection().expect("V5 is easy to trigger");
        assert_eq!(legacy.tests_executed(), detection, "the campaign stops on the detecting test");
        assert_eq!(routed.stats.tests_executed(), detection);
        let log = log.lock().unwrap();
        assert!(
            log.contains(&format!("detect:{detection}")),
            "the stopping detection streams as an event: {log:?}"
        );
        assert_eq!(
            log.iter().filter(|l| l.starts_with("test:")).count() as u64,
            detection,
            "the detecting test is the last TestFolded"
        );
    }

    /// Records every event category, to pin dispatch order and content.
    #[derive(Default)]
    struct Recorder {
        log: Arc<Mutex<Vec<String>>>,
    }

    impl CampaignObserver for Recorder {
        fn arm_selected(&mut self, event: &ArmSelected) {
            self.log.lock().unwrap().push(format!("select:{}:{}", event.round, event.arm));
        }
        fn test_folded(&mut self, event: &TestFolded<'_>) {
            self.log.lock().unwrap().push(format!("test:{}", event.test_number));
        }
        fn batch_folded(&mut self, event: &BatchFolded) {
            self.log.lock().unwrap().push(format!("batch:{}:{}", event.round, event.tests));
        }
        fn detection(&mut self, event: &DetectionObserved<'_>) {
            self.log.lock().unwrap().push(format!("detect:{}", event.test_number));
        }
        fn arm_reset(&mut self, event: &ArmReset) {
            self.log.lock().unwrap().push(format!("reset:{}", event.arm));
        }
        fn coverage_milestone(&mut self, event: &CoverageMilestone) {
            self.log.lock().unwrap().push(format!("decile:{}", event.decile));
        }
        fn campaign_finished(&mut self, event: &CampaignFinished) {
            self.log.lock().unwrap().push(format!("finish:{}", event.tests_executed));
        }
    }

    #[test]
    fn observers_stream_the_campaign_without_changing_it() {
        let spec = quick_spec(BanditKind::Ucb1, 30);
        let plain = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .execute();

        let log = Arc::new(Mutex::new(Vec::new()));
        let shadow_stats = CampaignStats::new(
            plain.stats.label().to_owned(),
            RocketCore::new(BugSet::none()).coverage_space().len(),
            spec.campaign.sample_interval,
        );
        let shadow = Arc::new(Mutex::new(Some(shadow_stats)));

        /// Routes events into a shared `CampaignStats` — the "shadow stats"
        /// monitoring pattern from the module docs.
        struct Shadow(Arc<Mutex<Option<CampaignStats>>>);
        impl CampaignObserver for Shadow {
            fn test_folded(&mut self, event: &TestFolded<'_>) {
                self.0.lock().unwrap().as_mut().unwrap().test_folded(event);
            }
            fn campaign_finished(&mut self, event: &CampaignFinished) {
                self.0.lock().unwrap().as_mut().unwrap().campaign_finished(event);
            }
        }

        let observed = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .with_observer(Box::new(Recorder { log: Arc::clone(&log) }))
            .with_observer(Box::new(Shadow(Arc::clone(&shadow))))
            .execute();

        assert_eq!(plain, observed, "observers must never change the campaign");

        let log = log.lock().unwrap();
        let selects = log.iter().filter(|l| l.starts_with("select:")).count();
        let tests = log.iter().filter(|l| l.starts_with("test:")).count();
        let batches = log.iter().filter(|l| l.starts_with("batch:")).count();
        assert_eq!(tests, 30, "one test event per executed test");
        assert_eq!(selects, 30, "batch size 1: one selection per test");
        assert_eq!(batches, selects, "every round closes with a batch event");
        assert!(log.iter().any(|l| l.starts_with("decile:")), "coverage crosses deciles");
        assert_eq!(log.last().unwrap(), &format!("finish:{}", observed.stats.tests_executed()));

        // The shadow stats replayed from events match the built-in collection.
        let shadow = shadow.lock().unwrap().take().unwrap();
        assert_eq!(shadow, observed.stats, "CampaignStats-as-observer replays the campaign");
    }

    #[test]
    fn detection_events_fire_in_detection_mode() {
        let spec = CampaignSpec::builder()
            .algorithm(BanditKind::Ucb1)
            .arms(4)
            .max_tests(400)
            .max_steps_per_test(200)
            .mutations_per_interesting_test(2)
            .sample_interval(5)
            .stop_on_first_detection(true)
            .rng_seed(2)
            .build()
            .unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        let outcome = Campaign::from_spec_on(
            Arc::new(Cva6Core::new(BugSet::only(Vulnerability::V5MissingAccessFault))),
            &spec,
        )
        .unwrap()
        .with_observer(Box::new(Recorder { log: Arc::clone(&log) }))
        .execute();
        let detection = outcome.stats.first_detection().expect("V5 triggers quickly");
        let log = log.lock().unwrap();
        assert!(
            log.contains(&format!("detect:{detection}")),
            "the stopping detection streams as an event"
        );
    }

    #[test]
    fn cancellation_cuts_a_mab_campaign_to_a_stream_prefix() {
        let spec = quick_spec(BanditKind::Ucb1, 400);
        // The full reference stream of the uncancelled campaign.
        let full = {
            let buffer = crate::SharedBuffer::new();
            Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
                .unwrap()
                .with_observer(Box::new(crate::EventLog::new(buffer.clone())))
                .execute();
            buffer.contents()
        };
        // A token flipped by an observer mid-stream cuts at the next round.
        struct CancelAt {
            token: CancelToken,
            at: u64,
        }
        impl CampaignObserver for CancelAt {
            fn test_folded(&mut self, event: &TestFolded<'_>) {
                if event.test_number == self.at {
                    self.token.cancel();
                }
            }
        }
        let token = CancelToken::new();
        let buffer = crate::SharedBuffer::new();
        let outcome = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .with_observer(Box::new(CancelAt { token: token.clone(), at: 37 }))
            .with_observer(Box::new(crate::EventLog::new(buffer.clone())))
            .with_cancellation(token.clone())
            .execute();
        assert!(token.was_interrupted(), "the campaign observed the request");
        assert_eq!(outcome.stats.tests_executed(), 37, "batch size 1: cut right after the fold");
        let partial = buffer.contents();
        assert!(partial.len() < full.len(), "the cut stream is shorter");
        assert!(full.starts_with(&partial), "the cut stream is a strict prefix");
        assert!(
            !partial.contains("campaign_finished"),
            "an interrupted campaign withholds the finished event"
        );
    }

    #[test]
    fn cancellation_cuts_a_baseline_campaign_to_a_stream_prefix() {
        let spec = CampaignSpec::builder()
            .baseline()
            .max_tests(200)
            .max_steps_per_test(200)
            .sample_interval(5)
            .rng_seed(1)
            .build()
            .unwrap();
        let full = {
            let buffer = crate::SharedBuffer::new();
            Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
                .unwrap()
                .with_observer(Box::new(crate::EventLog::new(buffer.clone())))
                .execute();
            buffer.contents()
        };
        let token = CancelToken::new();
        struct CancelAt {
            token: CancelToken,
            at: u64,
        }
        impl CampaignObserver for CancelAt {
            fn test_folded(&mut self, event: &TestFolded<'_>) {
                if event.test_number == self.at {
                    self.token.cancel();
                }
            }
        }
        let buffer = crate::SharedBuffer::new();
        let outcome = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .with_observer(Box::new(CancelAt { token: token.clone(), at: 11 }))
            .with_observer(Box::new(crate::EventLog::new(buffer.clone())))
            .with_cancellation(token.clone())
            .execute();
        assert!(token.was_interrupted());
        assert_eq!(outcome.stats.tests_executed(), 11, "the FIFO loop stops at a test boundary");
        let partial = buffer.contents();
        assert!(full.starts_with(&partial) && partial.len() < full.len());
        assert!(!partial.contains("campaign_finished"));
    }

    #[test]
    fn late_cancellation_leaves_the_campaign_complete() {
        let spec = quick_spec(BanditKind::Exp3, 20);
        let plain = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .execute();
        let token = CancelToken::new();
        let buffer = crate::SharedBuffer::new();
        let observed = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .with_observer(Box::new(crate::EventLog::new(buffer.clone())))
            .with_cancellation(token.clone())
            .execute();
        // Never cancelled: the token is inert and the stream is complete.
        assert_eq!(plain, observed, "an unused token cannot perturb the campaign");
        assert!(!token.was_interrupted());
        assert!(buffer.contents().contains("campaign_finished"));
        // A request landing after execute() changes nothing retroactively.
        token.cancel();
        assert!(!token.was_interrupted());
    }

    #[test]
    fn edge_signal_campaigns_measure_the_edge_space() {
        use fuzzer::CoverageSignal;
        let spec = CampaignSpec::builder()
            .algorithm(BanditKind::Ucb1)
            .arms(4)
            .max_tests(42)
            .max_steps_per_test(200)
            .mutations_per_interesting_test(2)
            .sample_interval(5)
            .rng_seed(9)
            .batch_size(5)
            .coverage_signal(CoverageSignal::Edge)
            .build()
            .unwrap();
        let campaign = Campaign::from_spec_on(rocket(), &spec).unwrap();
        assert_eq!(
            campaign.coverage_space_len(),
            coverage::EdgeSpace::DEFAULT_LEN,
            "edge campaigns measure against the fixed edge space"
        );
        let outcome = campaign.execute();
        assert_eq!(outcome.stats.tests_executed(), 42);
        assert!(outcome.stats.final_coverage() > 0, "the edge signal observes coverage");
    }
}
