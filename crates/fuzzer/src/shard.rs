//! Batched bandit rounds and their deterministic per-test RNG streams.
//!
//! A bandit round (MABFuzz §III: select arm → generate batch → simulate →
//! reward) is a *map* over the batch's test programs followed by an
//! order-sensitive *reduce* into the campaign and arm state. This module
//! provides the [`ShardPlan`] describing how many tests one round pulls and
//! the [`derive_stream_seed`] per-test RNG derivation. The round loop itself
//! — assembly, in-place simulation on the campaign thread and the ordered
//! fold — lives in `mabfuzz::Campaign::execute`, which reads its plan from
//! the campaign spec.
//!
//! # Determinism contract
//!
//! A batched campaign report is a pure function of the spec: the same spec
//! reproduces the same report, and the same event stream, byte for byte.
//! The contract has three rules; everything else follows from them:
//!
//! 1. **Seed derivation.** Randomness consumed on behalf of an individual
//!    test of a batched round — refilling an empty pool, mutating an
//!    interesting test — comes from a per-test stream seeded with
//!    [`derive_stream_seed`]`(campaign_seed, round, test_index)` (a
//!    SplitMix64 chain). The stream depends only on those three values,
//!    never on pool/fold history. Round-level randomness (arm selection,
//!    replacement seeds for reset arms) stays on the campaign's main RNG,
//!    which is only ever drawn from in batch assembly and the ordered fold.
//! 2. **Pure map.** Simulating one program is a pure function of the
//!    program: `FuzzHarness::run_program_into` writes the same trace,
//!    coverage bitmap and diff whichever scratch buffers it reuses and
//!    whatever the scratch simulated before (the harness tests pin this).
//!    The scratch's decode cache preserves the rule: it only memoises the
//!    program→decoded-image function, so a hit and a miss produce identical
//!    outcomes. The snapshot/dirty reset (`isa_sim::snapshot`) preserves it
//!    the same way: the dirty state a restore cleans is a function only of
//!    the previous test, and a restored simulator is byte-identical to a
//!    freshly reinitialised one (pinned by the restore-equivalence tests and
//!    the `MABFUZZ_SNAPSHOT_RESET=off` oracle in CI) — so *which* test ran
//!    before is as unobservable as whether the decode cache hit.
//! 3. **Ordered reduce.** Batch outcomes are folded in ascending
//!    `test_index` order: global coverage absorption
//!    ([`CoverageMap::merge_counting`](coverage::CoverageMap::merge_counting)
//!    — associative, so the union is order-free, while the novelty *deltas*
//!    the rewards are made of are recovered by the ordered fold), arm-local
//!    absorption, detection recording, mutation of interesting tests, bandit
//!    reward updates (`mab::Bandit::update_batch`) and saturation/reset
//!    checks.
//!
//! A batch size of **1** additionally reproduces the unbatched campaign
//! draw-for-draw (all randomness stays on the main RNG in that degenerate
//! case), which is why the default spec plan — the path every published
//! paper artefact goes through — is the `ShardPlan::serial()` special case
//! of the batched loop. Larger batches are a *different* deterministic
//! campaign, pinned by their own goldens.
//!
//! ## Edge-coverage folds
//!
//! The contract is stated over coverage *maps*, not over the point signal
//! specifically, and the edge signal ([`crate::CoverageSignal::Edge`])
//! satisfies it with no new rules. Rule 2 holds because the static CFG an
//! edge bitmap is keyed by is itself a pure function of the program's text
//! bytes (`analysis::ProgramFacts::analyze`, pinned by the purity proptest
//! in `isa_sim::decoded`), and the decode cache memoises the facts alongside
//! the decoded image — a hit and a miss hand the harness the same edge ids.
//! Rule 3 holds because an edge map is a fixed-length
//! [`coverage::EdgeSpace`] bitmap folded with the same associative
//! `merge_counting` union as the point bitmap; the ordered fold recovers the
//! novelty deltas identically.

/// How many tests each bandit round of a campaign pulls.
///
/// `batch_size` is how many tests one arm pull simulates before the ordered
/// fold runs. It **changes the campaign's RNG contract** (see the module
/// docs): batch size 1 is the unbatched serial stream, batch sizes above 1
/// use the derived per-test streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    batch_size: usize,
}

impl ShardPlan {
    /// The serial plan: one test per round. This is the default plan of a
    /// campaign spec and the reference behaviour of every published
    /// experiment artefact.
    pub fn serial() -> ShardPlan {
        ShardPlan { batch_size: 1 }
    }

    /// Returns a copy with a different per-round batch size (clamped to at
    /// least one test).
    pub fn with_batch_size(mut self, batch_size: usize) -> ShardPlan {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Tests simulated per bandit round.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// Returns `true` for the one-test-per-round plan.
    pub fn is_serial(&self) -> bool {
        self.batch_size == 1
    }
}

impl Default for ShardPlan {
    fn default() -> Self {
        ShardPlan::serial()
    }
}

impl std::fmt::Display for ShardPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} test(s)/round", self.batch_size)
    }
}

/// SplitMix64 finalizer: the statistically strong 64-bit mix underneath
/// [`derive_stream_seed`].
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG stream seed of one test of one batched round:
/// `splitmix(splitmix(splitmix(campaign_seed) ^ round) ^ test_index)`.
///
/// The derivation is the first rule of the determinism contract (module
/// docs): a test's generation randomness is a function of the campaign
/// seed, the round number and the test's index within the round — nothing
/// else. The chained SplitMix64 finalizer decorrelates neighbouring
/// `(round, test_index)` pairs, which plain XOR-ing into the seed would not.
pub fn derive_stream_seed(campaign_seed: u64, round: u64, test_index: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(campaign_seed) ^ round) ^ test_index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{ExecScratch, FuzzHarness, TestOutcome};

    #[test]
    fn plan_builders_clamp_and_report() {
        let plan = ShardPlan::serial();
        assert!(plan.is_serial());
        assert_eq!(plan, ShardPlan::default());
        assert_eq!(plan.batch_size(), 1);
        let batched = ShardPlan::serial().with_batch_size(16);
        assert_eq!(batched.batch_size(), 16);
        assert!(!batched.is_serial(), "a batched plan is not the serial plan");
        assert_eq!(batched.with_batch_size(0), ShardPlan::serial(), "zero clamps to one test");
        assert_eq!(batched.to_string(), "16 test(s)/round");
    }

    #[test]
    fn derived_streams_depend_on_every_input() {
        let base = derive_stream_seed(1, 2, 3);
        assert_eq!(base, derive_stream_seed(1, 2, 3), "derivation is a pure function");
        assert_ne!(base, derive_stream_seed(2, 2, 3));
        assert_ne!(base, derive_stream_seed(1, 3, 3));
        assert_ne!(base, derive_stream_seed(1, 2, 4));
        // Neighbouring rounds/indices must not collide the way raw XOR
        // chains do (seed ^ round ^ index is symmetric in round and index).
        assert_ne!(derive_stream_seed(1, 2, 3), derive_stream_seed(1, 3, 2));
    }

    #[test]
    fn campaign_state_is_send() {
        // Compile-time Send checks for everything a campaign moves across
        // threads (grid cells and service workers run campaigns off the
        // thread that built them).
        fn assert_send<T: Send>() {}
        assert_send::<FuzzHarness>();
        assert_send::<ExecScratch>();
        assert_send::<TestOutcome>();
        assert_send::<ShardPlan>();
    }
}
