//! Arms: the seed families the bandit chooses between.

use coverage::CoverageMap;
use fuzzer::{TestCase, TestPool};
use serde::{Deserialize, Serialize};

/// One bandit arm: a seed, the pool of tests derived from it by mutation, and
/// the arm-local cumulative coverage used for the `cov_L` reward term.
#[derive(Debug, Clone)]
pub struct Arm {
    index: usize,
    seed: TestCase,
    pool: TestPool,
    local_coverage: CoverageMap,
    pulls_since_reset: u64,
    total_pulls: u64,
    resets: u64,
}

/// Summary statistics of an arm, exposed for reporting and ablations.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArmStats {
    /// The arm's index.
    pub index: usize,
    /// Pulls since the last reset.
    pub pulls_since_reset: u64,
    /// Total pulls across all seeds this arm has held.
    pub total_pulls: u64,
    /// How many times the arm has been reset (replaced by a fresh seed).
    pub resets: u64,
    /// Number of coverage points the current seed family has reached.
    pub local_coverage: usize,
    /// Pending tests in the arm's pool.
    pub pending_tests: usize,
}

impl Arm {
    /// Creates an arm from its initial seed; the seed is the first (and so
    /// far only) entry of the arm's test pool.
    pub fn new(index: usize, seed: TestCase, coverage_space_len: usize) -> Arm {
        let mut pool = TestPool::new();
        pool.push(seed.clone());
        Arm {
            index,
            seed,
            pool,
            local_coverage: CoverageMap::with_len(coverage_space_len),
            pulls_since_reset: 0,
            total_pulls: 0,
            resets: 0,
        }
    }

    /// Returns the arm's index (the bandit's arm id).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Returns the arm's current seed.
    pub fn seed(&self) -> &TestCase {
        &self.seed
    }

    /// Returns the arm's pending test pool.
    pub fn pool(&self) -> &TestPool {
        &self.pool
    }

    /// Returns a mutable reference to the pool (the orchestrator pushes
    /// mutants into it).
    pub fn pool_mut(&mut self) -> &mut TestPool {
        &mut self.pool
    }

    /// Pops the next test to simulate. Returns `None` when the pool is empty;
    /// the orchestrator then refills it by mutating the seed.
    pub fn next_test(&mut self) -> Option<TestCase> {
        let test = self.pool.pop();
        if test.is_some() {
            self.pulls_since_reset += 1;
            self.total_pulls += 1;
        }
        test
    }

    /// Merges a test's coverage map into the arm-local cumulative coverage
    /// and returns how many points were new *for this arm*.
    ///
    /// Uses the associative [`CoverageMap::merge_counting`]; the campaign
    /// fold calls it in `test_index` order so the per-test novelty counts
    /// (the `cov_L` reward term) are deterministic.
    ///
    /// # Panics
    ///
    /// Panics if the coverage map belongs to a different space.
    pub fn absorb_coverage(&mut self, test_coverage: &CoverageMap) -> usize {
        self.local_coverage.merge_counting(test_coverage)
    }

    /// Returns the arm-local cumulative coverage.
    pub fn local_coverage(&self) -> &CoverageMap {
        &self.local_coverage
    }

    /// Replaces the arm's seed with a fresh one, clearing the pool, the local
    /// coverage and the per-seed pull counter (the paper's arm reset).
    pub fn reset(&mut self, fresh_seed: TestCase) {
        self.seed = fresh_seed.clone();
        self.pool.clear();
        self.pool.push(fresh_seed);
        self.local_coverage.clear();
        self.pulls_since_reset = 0;
        self.resets += 1;
    }

    /// Returns how many times this arm has been reset.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Returns the pulls since the last reset.
    pub fn pulls_since_reset(&self) -> u64 {
        self.pulls_since_reset
    }

    /// Returns the total pulls across the arm's lifetime.
    pub fn total_pulls(&self) -> u64 {
        self.total_pulls
    }

    /// Returns the arm's summary statistics.
    pub fn stats(&self) -> ArmStats {
        ArmStats {
            index: self.index,
            pulls_since_reset: self.pulls_since_reset,
            total_pulls: self.total_pulls,
            resets: self.resets,
            local_coverage: self.local_coverage.count(),
            pending_tests: self.pool.len(),
        }
    }
}

impl std::fmt::Display for Arm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "arm {} (seed {}, {} pending tests, {} local points, {} resets)",
            self.index,
            self.seed.id,
            self.pool.len(),
            self.local_coverage.count(),
            self.resets
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coverage::CoverPointId;
    use fuzzer::TestId;
    use riscv::{Instr, Program};

    fn seed(id: u64) -> TestCase {
        TestCase::seed(TestId(id), Program::from_instrs(vec![Instr::nop()]))
    }

    fn coverage(len: usize, ids: &[u32]) -> CoverageMap {
        let mut map = CoverageMap::with_len(len);
        for &i in ids {
            map.cover(CoverPointId(i));
        }
        map
    }

    #[test]
    fn new_arm_holds_its_seed_in_the_pool() {
        let mut arm = Arm::new(3, seed(1), 64);
        assert_eq!(arm.index(), 3);
        assert_eq!(arm.pool().len(), 1);
        let test = arm.next_test().expect("seed is pending");
        assert_eq!(test.id, TestId(1));
        assert_eq!(arm.pulls_since_reset(), 1);
        assert!(arm.next_test().is_none());
    }

    #[test]
    fn absorb_coverage_tracks_arm_local_novelty() {
        let mut arm = Arm::new(0, seed(1), 64);
        assert_eq!(arm.absorb_coverage(&coverage(64, &[1, 2, 3])), 3);
        assert_eq!(arm.absorb_coverage(&coverage(64, &[2, 3, 4])), 1);
        assert_eq!(arm.local_coverage().count(), 4);
    }

    #[test]
    fn reset_replaces_the_seed_and_clears_state() {
        let mut arm = Arm::new(0, seed(1), 32);
        arm.next_test();
        arm.absorb_coverage(&coverage(32, &[5]));
        arm.pool_mut().push(seed(7));
        arm.reset(seed(9));
        assert_eq!(arm.seed().id, TestId(9));
        assert_eq!(arm.pool().len(), 1, "pool holds only the fresh seed");
        assert_eq!(arm.local_coverage().count(), 0);
        assert_eq!(arm.pulls_since_reset(), 0);
        assert_eq!(arm.total_pulls(), 1, "lifetime pulls survive resets");
        assert_eq!(arm.resets(), 1);
    }

    #[test]
    fn stats_snapshot_reflects_the_arm() {
        let mut arm = Arm::new(2, seed(4), 16);
        arm.next_test();
        arm.absorb_coverage(&coverage(16, &[0, 1]));
        let stats = arm.stats();
        assert_eq!(stats.index, 2);
        assert_eq!(stats.total_pulls, 1);
        assert_eq!(stats.local_coverage, 2);
        assert_eq!(stats.pending_tests, 0);
        assert!(arm.to_string().contains("arm 2"));
    }
}
