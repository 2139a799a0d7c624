//! Per-test coverage bitmaps.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::space::{CoverPointId, CoverageSpace};

/// A fixed-size bitmap recording which coverage points one simulation hit.
///
/// Maps are only meaningfully comparable when they were created for the same
/// [`CoverageSpace`]; the length is fixed at creation.
///
/// The map maintains an incremental population count, so
/// [`count`](CoverageMap::count) is O(1) — the fuzzing hot loop queries the
/// count after every absorbed test and must not rescan the bitmap each time.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CoverageMap {
    words: Vec<u64>,
    len: usize,
    ones: usize,
}

impl CoverageMap {
    /// Creates an all-zero map with capacity for `len` coverage points.
    pub fn with_len(len: usize) -> CoverageMap {
        CoverageMap { words: vec![0; len.div_ceil(64)], len, ones: 0 }
    }

    /// Creates an all-zero map sized for `space`.
    pub fn for_space(space: &CoverageSpace) -> CoverageMap {
        CoverageMap::with_len(space.len())
    }

    /// Returns the number of coverage points the map can record.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the map has no capacity (an empty space).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Marks a coverage point as hit. Out-of-range ids are ignored, so a map
    /// built for a smaller space never panics when replaying foreign ids.
    #[inline]
    pub fn cover(&mut self, id: CoverPointId) {
        let index = id.index();
        if index < self.len {
            let word = &mut self.words[index / 64];
            let bit = 1 << (index % 64);
            self.ones += usize::from(*word & bit == 0);
            *word |= bit;
        }
    }

    /// Returns whether a coverage point has been hit.
    #[inline]
    pub fn is_covered(&self, id: CoverPointId) -> bool {
        let index = id.index();
        index < self.len && (self.words[index / 64] >> (index % 64)) & 1 == 1
    }

    /// Returns the number of points hit. O(1): the count is maintained
    /// incrementally.
    #[inline]
    pub fn count(&self) -> usize {
        self.ones
    }

    /// Returns the fraction of the space covered, in `0.0..=1.0`.
    pub fn ratio(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.count() as f64 / self.len as f64
        }
    }

    /// Merges another map into this one (set union).
    ///
    /// # Panics
    ///
    /// Panics if the maps were created with different lengths.
    pub fn union_with(&mut self, other: &CoverageMap) {
        self.union_count_new(other);
    }

    /// Merges another map into this one (set union) and returns how many of
    /// `other`'s points were new to `self` — the fused form of
    /// [`count_new`](CoverageMap::count_new) + [`union_with`](CoverageMap::union_with)
    /// the fuzzers' reward path uses (one pass over the words instead of two,
    /// no intermediate id vector).
    ///
    /// Alias of [`merge_counting`](CoverageMap::merge_counting).
    ///
    /// # Panics
    ///
    /// Panics if the maps were created with different lengths.
    pub fn union_count_new(&mut self, other: &CoverageMap) -> usize {
        self.merge_counting(other)
    }

    /// Merges another map into this one (set union) and returns how many of
    /// `other`'s points were new to `self`.
    ///
    /// This is the **associative reduce** of a batched campaign round:
    /// per-test coverage maps are folded into cumulative maps with it, and
    /// because set union is associative and commutative the final union is
    /// independent of fold order. (The *return value* — the novelty delta —
    /// is order-sensitive, which is why the campaign folds observations in
    /// `test_index` order; see the determinism contract in `fuzzer::shard`.)
    ///
    /// # Panics
    ///
    /// Panics if the maps were created with different lengths.
    pub fn merge_counting(&mut self, other: &CoverageMap) -> usize {
        assert_eq!(self.len, other.len, "coverage maps belong to different spaces");
        let mut new_points = 0usize;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            new_points += (b & !*a).count_ones() as usize;
            *a |= b;
        }
        self.ones += new_points;
        new_points
    }

    /// Returns the ids set in `self` but not in `baseline` — the *new* points
    /// this test contributed relative to the baseline.
    ///
    /// # Panics
    ///
    /// Panics if the maps were created with different lengths.
    pub fn newly_covered(&self, baseline: &CoverageMap) -> Vec<CoverPointId> {
        assert_eq!(self.len, baseline.len, "coverage maps belong to different spaces");
        let mut new_points = Vec::new();
        for (word_idx, (a, b)) in self.words.iter().zip(&baseline.words).enumerate() {
            let mut fresh = a & !b;
            while fresh != 0 {
                let bit = fresh.trailing_zeros() as usize;
                new_points.push(CoverPointId((word_idx * 64 + bit) as u32));
                fresh &= fresh - 1;
            }
        }
        new_points
    }

    /// Returns the number of points set in `self` but not in `baseline`.
    pub fn count_new(&self, baseline: &CoverageMap) -> usize {
        assert_eq!(self.len, baseline.len, "coverage maps belong to different spaces");
        self.words
            .iter()
            .zip(&baseline.words)
            .map(|(a, b)| (a & !b).count_ones() as usize)
            .sum()
    }

    /// Returns an iterator over the covered point ids, in increasing order.
    pub fn iter_covered(&self) -> impl Iterator<Item = CoverPointId> + '_ {
        self.words.iter().enumerate().flat_map(|(word_idx, word)| {
            let mut word = *word;
            std::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(CoverPointId((word_idx * 64 + bit) as u32))
                }
            })
        })
    }

    /// Clears every bit, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Reshapes the map for a space with `len` points and clears it, reusing
    /// the existing allocation whenever it is large enough.
    pub fn reset_for_len(&mut self, len: usize) {
        self.clear();
        self.len = len;
        self.words.resize(len.div_ceil(64), 0);
    }
}

impl fmt::Display for CoverageMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} points covered ({:.2}%)", self.count(), self.len, self.ratio() * 100.0)
    }
}

impl FromIterator<CoverPointId> for CoverageMap {
    /// Builds a map just large enough to hold the maximum id in the iterator,
    /// growing the bitmap in a single pass (no intermediate id vector).
    fn from_iter<T: IntoIterator<Item = CoverPointId>>(iter: T) -> Self {
        let mut map = CoverageMap::with_len(0);
        for id in iter {
            let index = id.index();
            if index >= map.len {
                map.len = index + 1;
                let words_needed = map.len.div_ceil(64);
                if map.words.len() < words_needed {
                    map.words.resize(words_needed, 0);
                }
            }
            map.cover(id);
        }
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(i: u32) -> CoverPointId {
        CoverPointId(i)
    }

    #[test]
    fn cover_and_query() {
        let mut map = CoverageMap::with_len(130);
        assert_eq!(map.len(), 130);
        map.cover(id(0));
        map.cover(id(64));
        map.cover(id(129));
        assert!(map.is_covered(id(0)));
        assert!(map.is_covered(id(64)));
        assert!(map.is_covered(id(129)));
        assert!(!map.is_covered(id(1)));
        assert_eq!(map.count(), 3);
        assert!((map.ratio() - 3.0 / 130.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_ids_are_ignored() {
        let mut map = CoverageMap::with_len(10);
        map.cover(id(1000));
        assert_eq!(map.count(), 0);
        assert!(!map.is_covered(id(1000)));
    }

    #[test]
    fn union_accumulates() {
        let mut a = CoverageMap::with_len(70);
        let mut b = CoverageMap::with_len(70);
        a.cover(id(3));
        b.cover(id(3));
        b.cover(id(69));
        a.union_with(&b);
        assert_eq!(a.count(), 2);
    }

    #[test]
    #[should_panic(expected = "different spaces")]
    fn union_of_mismatched_maps_panics() {
        let mut a = CoverageMap::with_len(10);
        let b = CoverageMap::with_len(20);
        a.union_with(&b);
    }

    #[test]
    fn newly_covered_reports_the_delta() {
        let mut cumulative = CoverageMap::with_len(100);
        cumulative.cover(id(5));
        cumulative.cover(id(40));
        let mut test = CoverageMap::with_len(100);
        test.cover(id(5));
        test.cover(id(41));
        test.cover(id(99));
        let new_points = test.newly_covered(&cumulative);
        assert_eq!(new_points, vec![id(41), id(99)]);
        assert_eq!(test.count_new(&cumulative), 2);
        assert_eq!(cumulative.count_new(&test), 1);
    }

    #[test]
    fn iter_covered_is_sorted_and_complete() {
        let mut map = CoverageMap::with_len(200);
        for i in [0u32, 63, 64, 65, 128, 199] {
            map.cover(id(i));
        }
        let covered: Vec<u32> = map.iter_covered().map(|p| p.0).collect();
        assert_eq!(covered, vec![0, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut map = CoverageMap::with_len(32);
        map.cover(id(7));
        map.clear();
        assert_eq!(map.count(), 0);
    }

    #[test]
    fn from_iterator_sizes_to_max_id() {
        let map: CoverageMap = [id(2), id(17)].into_iter().collect();
        assert_eq!(map.len(), 18);
        assert_eq!(map.count(), 2);
        let empty: CoverageMap = std::iter::empty().collect();
        assert!(empty.is_empty());
    }

    #[test]
    fn display_reports_percentages() {
        let mut map = CoverageMap::with_len(4);
        map.cover(id(1));
        assert_eq!(map.to_string(), "1/4 points covered (25.00%)");
    }

    proptest! {
        /// count() equals the number of distinct covered ids.
        #[test]
        fn count_matches_distinct_ids(ids in proptest::collection::vec(0u32..500, 0..100)) {
            let mut map = CoverageMap::with_len(500);
            for i in &ids {
                map.cover(id(*i));
            }
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            prop_assert_eq!(map.count(), distinct.len());
        }

        /// newly_covered against an empty baseline returns exactly the covered set.
        #[test]
        fn delta_against_empty_is_identity(ids in proptest::collection::vec(0u32..256, 0..64)) {
            let mut map = CoverageMap::with_len(256);
            for i in &ids {
                map.cover(id(*i));
            }
            let empty = CoverageMap::with_len(256);
            let delta: Vec<_> = map.newly_covered(&empty);
            let covered: Vec<_> = map.iter_covered().collect();
            prop_assert_eq!(delta, covered);
        }

        /// merge_counting is associative and order-insensitive in the final
        /// union (the property the batched campaign's ordered fold rests
        /// on), and its novelty deltas always account for exactly the final
        /// population count.
        #[test]
        fn merge_counting_is_associative_and_accounts_novelty(
            a_ids in proptest::collection::vec(0u32..192, 0..40),
            b_ids in proptest::collection::vec(0u32..192, 0..40),
            c_ids in proptest::collection::vec(0u32..192, 0..40),
        ) {
            let build = |ids: &[u32]| {
                let mut map = CoverageMap::with_len(192);
                for i in ids { map.cover(id(*i)); }
                map
            };
            let (a, b, c) = (build(&a_ids), build(&b_ids), build(&c_ids));

            // Fold left-to-right and in a permuted order.
            let mut ordered = CoverageMap::with_len(192);
            let delta_sum = ordered.merge_counting(&a)
                + ordered.merge_counting(&b)
                + ordered.merge_counting(&c);
            let mut permuted = CoverageMap::with_len(192);
            permuted.merge_counting(&c);
            permuted.merge_counting(&a);
            permuted.merge_counting(&b);
            prop_assert_eq!(&ordered, &permuted);
            prop_assert_eq!(delta_sum, ordered.count());

            // Associativity: (a ∪ b) ∪ c == a ∪ (b ∪ c).
            let mut left = a.clone();
            left.merge_counting(&b);
            left.merge_counting(&c);
            let mut bc = b.clone();
            bc.merge_counting(&c);
            let mut right = a.clone();
            right.merge_counting(&bc);
            prop_assert_eq!(left, right);
        }

        /// union is idempotent and monotone in coverage count.
        #[test]
        fn union_is_monotone(
            a_ids in proptest::collection::vec(0u32..128, 0..40),
            b_ids in proptest::collection::vec(0u32..128, 0..40),
        ) {
            let mut a = CoverageMap::with_len(128);
            for i in &a_ids { a.cover(id(*i)); }
            let mut b = CoverageMap::with_len(128);
            for i in &b_ids { b.cover(id(*i)); }
            let before = a.count();
            a.union_with(&b);
            prop_assert!(a.count() >= before);
            prop_assert!(a.count() >= b.count());
            let snapshot = a.clone();
            a.union_with(&b);
            prop_assert_eq!(a, snapshot);
        }
    }
}
