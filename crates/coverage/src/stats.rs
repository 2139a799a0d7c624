//! Campaign-level coverage accumulation.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::map::CoverageMap;
use crate::space::CoverPointId;

/// Cumulative coverage across an entire fuzzing campaign.
///
/// The fuzzer feeds every per-test [`CoverageMap`] into
/// [`absorb`](CumulativeCoverage::absorb), which returns the *globally new*
/// points that test contributed — exactly the `cov_G` term of the MABFuzz
/// reward — and updates the running union.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CumulativeCoverage {
    union: CoverageMap,
    tests_absorbed: u64,
    history: Vec<usize>,
}

impl CumulativeCoverage {
    /// Creates an empty accumulator for a coverage space with `len` points.
    pub fn new(len: usize) -> CumulativeCoverage {
        CumulativeCoverage { union: CoverageMap::with_len(len), tests_absorbed: 0, history: Vec::new() }
    }

    /// Returns the union coverage map accumulated so far.
    pub fn map(&self) -> &CoverageMap {
        &self.union
    }

    /// Returns the number of distinct points covered so far.
    pub fn count(&self) -> usize {
        self.union.count()
    }

    /// Returns the covered fraction of the space.
    pub fn ratio(&self) -> f64 {
        self.union.ratio()
    }

    /// Returns the number of per-test maps absorbed.
    pub fn tests_absorbed(&self) -> u64 {
        self.tests_absorbed
    }

    /// Returns the points in `test_map` that were not covered by any earlier
    /// test, then merges `test_map` into the accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `test_map` belongs to a space of a different size.
    pub fn absorb(&mut self, test_map: &CoverageMap) -> Vec<CoverPointId> {
        let new_points = test_map.newly_covered(&self.union);
        self.union.union_with(test_map);
        self.tests_absorbed += 1;
        self.history.push(self.union.count());
        new_points
    }

    /// Like [`absorb`](CumulativeCoverage::absorb) but only returns *how
    /// many* points were globally new, without materialising their ids.
    ///
    /// This is the fuzzing hot path: the MABFuzz reward needs only the
    /// count (`|cov_G|`), so the union and the delta count are computed in a
    /// single pass over the bitmap words with no per-test allocation. The
    /// underlying [`CoverageMap::merge_counting`] is the same associative
    /// merge the batched campaign uses, so absorbing tests one by one in
    /// `test_index` order is exactly the ordered reduction of the campaign
    /// determinism contract.
    ///
    /// # Panics
    ///
    /// Panics if `test_map` belongs to a space of a different size.
    pub fn absorb_count(&mut self, test_map: &CoverageMap) -> usize {
        let new_points = self.union.merge_counting(test_map);
        self.tests_absorbed += 1;
        self.history.push(self.union.count());
        new_points
    }

    /// Returns the points in `test_map` not yet covered globally, *without*
    /// absorbing the map.
    pub fn peek_new(&self, test_map: &CoverageMap) -> Vec<CoverPointId> {
        test_map.newly_covered(&self.union)
    }

    /// Returns the cumulative coverage count after each absorbed test.
    pub fn history(&self) -> &[usize] {
        &self.history
    }

    /// Returns the smallest number of absorbed tests after which the
    /// cumulative count reached `target`, or `None` if it never did.
    ///
    /// This is the primitive behind the paper's *coverage speedup* metric
    /// (Fig. 4): speedup = tests the baseline needed / tests this campaign
    /// needed to reach the same coverage.
    pub fn tests_to_reach(&self, target: usize) -> Option<u64> {
        self.history.iter().position(|&c| c >= target).map(|i| i as u64 + 1)
    }
}

impl fmt::Display for CumulativeCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} points after {} tests ({:.2}%)",
            self.count(),
            self.tests_absorbed,
            self.ratio() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn map_with(len: usize, ids: &[u32]) -> CoverageMap {
        let mut map = CoverageMap::with_len(len);
        for &i in ids {
            map.cover(CoverPointId(i));
        }
        map
    }

    #[test]
    fn absorb_reports_only_globally_new_points() {
        let mut cumulative = CumulativeCoverage::new(64);
        let first = cumulative.absorb(&map_with(64, &[1, 2, 3]));
        assert_eq!(first.len(), 3);
        let second = cumulative.absorb(&map_with(64, &[2, 3, 4]));
        assert_eq!(second, vec![CoverPointId(4)]);
        assert_eq!(cumulative.count(), 4);
        assert_eq!(cumulative.tests_absorbed(), 2);
    }

    #[test]
    fn peek_does_not_mutate() {
        let mut cumulative = CumulativeCoverage::new(16);
        cumulative.absorb(&map_with(16, &[0]));
        let peeked = cumulative.peek_new(&map_with(16, &[0, 5]));
        assert_eq!(peeked, vec![CoverPointId(5)]);
        assert_eq!(cumulative.count(), 1, "peek must not absorb");
    }

    #[test]
    fn history_tracks_cumulative_counts() {
        let mut cumulative = CumulativeCoverage::new(32);
        cumulative.absorb(&map_with(32, &[0, 1]));
        cumulative.absorb(&map_with(32, &[1]));
        cumulative.absorb(&map_with(32, &[9]));
        assert_eq!(cumulative.history(), &[2, 2, 3]);
        assert_eq!(cumulative.tests_to_reach(2), Some(1));
        assert_eq!(cumulative.tests_to_reach(3), Some(3));
        assert_eq!(cumulative.tests_to_reach(4), None);
    }

    #[test]
    fn display_summarises_progress() {
        let mut cumulative = CumulativeCoverage::new(10);
        cumulative.absorb(&map_with(10, &[0, 1, 2, 3, 4]));
        assert!(cumulative.to_string().contains("5 points after 1 tests"));
        assert!((cumulative.ratio() - 0.5).abs() < 1e-12);
    }

    proptest! {
        /// The cumulative count is monotonically non-decreasing and never
        /// exceeds the space size.
        #[test]
        fn cumulative_count_is_monotone(
            tests in proptest::collection::vec(proptest::collection::vec(0u32..200, 0..32), 1..20)
        ) {
            let mut cumulative = CumulativeCoverage::new(200);
            let mut previous = 0;
            for ids in &tests {
                cumulative.absorb(&map_with(200, ids));
                let now = cumulative.count();
                prop_assert!(now >= previous);
                prop_assert!(now <= 200);
                previous = now;
            }
        }

        /// The sum of per-test new points equals the final cumulative count.
        #[test]
        fn new_points_sum_to_total(
            tests in proptest::collection::vec(proptest::collection::vec(0u32..100, 0..16), 0..16)
        ) {
            let mut cumulative = CumulativeCoverage::new(100);
            let mut total_new = 0;
            for ids in &tests {
                total_new += cumulative.absorb(&map_with(100, ids)).len();
            }
            prop_assert_eq!(total_new, cumulative.count());
        }
    }
}
