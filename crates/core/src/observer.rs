//! Streaming campaign observation.
//!
//! A MABFuzz campaign is a stream of decisions and measurements: the bandit
//! selects an arm, a batch of that arm's tests is simulated, each outcome is
//! folded into the campaign in `test_index` order, saturated arms are reset.
//! [`CampaignObserver`] exposes that stream as typed events so tooling —
//! live dashboards, log shippers, custom reward researchers, the future
//! service layer — can watch a campaign *while it runs* instead of waiting
//! for the final [`MabFuzzOutcome`](crate::MabFuzzOutcome).
//!
//! The built-in statistics collection is itself expressed against the same
//! vocabulary: [`CampaignStats`] implements [`CampaignObserver`], and the
//! campaign fold's own bookkeeping performs exactly what that implementation
//! performs. (The fold keeps a direct handle to its stats because the
//! per-test reward depends on the global-novelty count the stats fold
//! returns; attached observers receive the finished event *after* that
//! reduction, with the novelty counts already filled in.)
//!
//! Observers must not — and cannot, the events are immutable borrows —
//! influence the campaign: attaching any number of observers leaves every
//! campaign report byte-identical.
//!
//! # Event-ordering contract
//!
//! Events fire on the campaign thread, in the exact order the deterministic
//! fold processes them:
//!
//! 1. per round: [`ArmSelected`], then for each test of the batch in
//!    ascending `test_index` order a [`TestFolded`] — followed immediately
//!    by [`DetectionObserved`] when that test mismatched, the
//!    [`CoverageMilestone`]s it crossed, and [`ArmReset`] when its fold
//!    saturated the arm — then one [`BatchFolded`] after the round's rewards
//!    were flushed;
//! 2. one final [`CampaignFinished`] after the statistics are finalised.
//!
//! Because the fold itself is deterministic (rule 3 of the determinism
//! contract in `fuzzer::shard`: outcomes always reduce in `test_index`
//! order), **the event stream is a byte-for-byte function of the spec** —
//! the same spec, batched or not, always writes the same `EventLog`.
//!
//! # Baseline campaigns
//!
//! Baseline ([`PolicySpec::Baseline`](crate::spec::PolicySpec)) campaigns
//! run the same fold under TheHuzz's FIFO schedule, one test per step:
//! [`TestFolded`], [`DetectionObserved`] and [`CoverageMilestone`] fire per
//! executed test in FIFO order, and [`CampaignFinished`] closes the stream.
//! The schedule has no bandit, so [`ArmSelected`], [`BatchFolded`] and
//! [`ArmReset`] never fire, and its [`TestFolded`] events use the
//! conventions documented on the fields: `arm` is always 0 (the one global
//! pool), `local_new == global_new` (that arm never resets), and `reward`
//! is 0.0 (no bandit is rewarded).
//!
//! # Example
//!
//! ```
//! use std::sync::{Arc, Mutex};
//! use mabfuzz::{CampaignObserver, CampaignSpec, Campaign, TestFolded};
//! use proc_sim::{cores::RocketCore, BugSet};
//!
//! /// Counts detections as they stream by.
//! #[derive(Default)]
//! struct DetectionCounter(Arc<Mutex<u64>>);
//! impl CampaignObserver for DetectionCounter {
//!     fn test_folded(&mut self, event: &TestFolded<'_>) {
//!         if event.detected {
//!             *self.0.lock().unwrap() += 1;
//!         }
//!     }
//! }
//!
//! let spec = CampaignSpec::builder().max_tests(20).build().unwrap();
//! let seen = Arc::new(Mutex::new(0));
//! let outcome = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
//!     .unwrap()
//!     .with_observer(Box::new(DetectionCounter(Arc::clone(&seen))))
//!     .execute();
//! assert_eq!(*seen.lock().unwrap(), outcome.stats.mismatching_tests());
//! ```

use coverage::CoverageMap;
use fuzzer::{CampaignStats, DiffReport, TestId};

/// The bandit selected the arm a round's batch will pull (Fig. 2 step 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmSelected {
    /// 0-based bandit round number.
    pub round: u64,
    /// The selected arm.
    pub arm: usize,
    /// Number of tests the round will simulate for the arm.
    pub batch_len: usize,
}

/// One simulated test was folded into the campaign state, in `test_index`
/// order.
#[derive(Debug)]
pub struct TestFolded<'a> {
    /// 1-based number of the test within the campaign.
    pub test_number: u64,
    /// Id of the test case.
    pub test_id: TestId,
    /// The arm the test was pulled from. Baseline campaigns queue every test
    /// in one FIFO pool and always report 0.
    pub arm: usize,
    /// Coverage points new to the arm (the `|cov_L|` reward term). Baseline
    /// campaigns have one global pool that never resets, so this equals
    /// `global_new` — the novelty count that gates TheHuzz's mutation.
    pub local_new: usize,
    /// Coverage points new to the whole campaign (the `|cov_G|` term).
    pub global_new: usize,
    /// Cumulative campaign coverage after this test.
    pub covered: usize,
    /// The reward handed to the bandit for this pull.
    ///
    /// Exceptions: when a detection-mode campaign stops on this test, the
    /// campaign halts before a reward is computed or handed to the bandit,
    /// and this field is `0.0` (`detected` is `true` in that case); baseline
    /// campaigns have no bandit to reward and always report `0.0`.
    pub reward: f64,
    /// Whether the test exposed an architectural mismatch.
    pub detected: bool,
    /// The test's coverage bitmap.
    pub coverage: &'a CoverageMap,
    /// The differential-testing report.
    pub diff: &'a DiffReport,
}

/// A round's batch finished folding: every outcome has been reduced and the
/// queued rewards were handed to the bandit via `update_batch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchFolded {
    /// 0-based bandit round number.
    pub round: u64,
    /// The arm the batch pulled.
    pub arm: usize,
    /// Number of tests folded (may be short of the plan's batch size at the
    /// end of the budget or after a stopping detection).
    pub tests: usize,
}

/// A test exposed an architectural mismatch (a potential vulnerability).
#[derive(Debug)]
pub struct DetectionObserved<'a> {
    /// 1-based number of the detecting test.
    pub test_number: u64,
    /// Id of the detecting test case.
    pub test_id: TestId,
    /// The arm that produced the test.
    pub arm: usize,
    /// The full differential report of the mismatching test.
    pub diff: &'a DiffReport,
}

impl DetectionObserved<'_> {
    /// The one-line summary of the first mismatch — the same convention
    /// `CampaignStats` records in its `Detection` entries, shared by every
    /// consumer (`EventLog`'s golden-pinned stream, `ProgressMonitor`'s flag
    /// lines) so the rendered summaries cannot drift apart. Empty for a
    /// clean report, which a detection event never carries in practice.
    pub fn summary(&self) -> String {
        self.diff.first().map_or_else(String::new, |mismatch| mismatch.to_string())
    }
}

/// The γ-window monitor declared an arm saturated and the campaign reset it
/// (fresh seed, cleared pool, re-initialised bandit statistics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArmReset {
    /// The reset arm.
    pub arm: usize,
    /// 1-based number of the test whose fold triggered the saturation.
    pub test_number: u64,
    /// Total resets across the campaign so far, including this one.
    pub total_resets: u64,
}

/// Cumulative coverage crossed a decile of the coverage space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverageMilestone {
    /// The decile crossed, `1..=10` (i.e. `decile * 10` percent of the
    /// space).
    pub decile: u32,
    /// Cumulative covered points at the crossing.
    pub covered: usize,
    /// Size of the coverage space.
    pub space_len: usize,
    /// 1-based number of the test that crossed the threshold.
    pub test_number: u64,
}

/// The campaign finished (budget exhausted or stopped by a detection).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignFinished {
    /// Total tests executed.
    pub tests_executed: u64,
    /// Final cumulative coverage.
    pub final_coverage: usize,
    /// Total arm resets.
    pub total_resets: u64,
}

/// A streaming observer of one campaign's event stream.
///
/// Every method has a no-op default, so an observer implements only the
/// events it cares about. Events arrive on the campaign thread, in the exact
/// deterministic order the fold processes them (see the determinism contract
/// in `fuzzer::shard`); an observer therefore sees the same stream every
/// time the same spec runs.
///
/// Observers are `Send` so a campaign carrying them can still be dispatched
/// to a worker thread by the experiment grid.
pub trait CampaignObserver: Send {
    /// The bandit selected the round's arm.
    fn arm_selected(&mut self, event: &ArmSelected) {
        let _ = event;
    }

    /// One test was folded into the campaign state.
    fn test_folded(&mut self, event: &TestFolded<'_>) {
        let _ = event;
    }

    /// A round's batch finished folding.
    fn batch_folded(&mut self, event: &BatchFolded) {
        let _ = event;
    }

    /// A test exposed an architectural mismatch.
    fn detection(&mut self, event: &DetectionObserved<'_>) {
        let _ = event;
    }

    /// A saturated arm was reset.
    fn arm_reset(&mut self, event: &ArmReset) {
        let _ = event;
    }

    /// Cumulative coverage crossed a decile of the space.
    fn coverage_milestone(&mut self, event: &CoverageMilestone) {
        let _ = event;
    }

    /// The campaign finished.
    fn campaign_finished(&mut self, event: &CampaignFinished) {
        let _ = event;
    }
}

/// Tracks which coverage deciles a campaign has crossed so each
/// [`CoverageMilestone`] fires exactly once, shared by the MABFuzz fold and
/// the baseline event path — one implementation, so the two streams cannot
/// drift.
#[derive(Debug)]
pub(crate) struct DecileTracker {
    space_len: usize,
    last_decile: u32,
}

impl DecileTracker {
    /// A fresh tracker over a coverage space of `space_len` points.
    pub(crate) fn new(space_len: usize) -> DecileTracker {
        DecileTracker { space_len, last_decile: 0 }
    }

    /// Returns the deciles newly crossed when cumulative coverage reaches
    /// `covered`, advancing the tracker (an empty range when none were).
    pub(crate) fn crossed(&mut self, covered: usize) -> std::ops::RangeInclusive<u32> {
        let decile =
            (covered * 10).checked_div(self.space_len).map_or(0, |d| d.min(10) as u32);
        let crossed = (self.last_decile + 1)..=decile;
        self.last_decile = self.last_decile.max(decile);
        crossed
    }
}

/// The built-in statistics collection, re-expressed as an observer: a
/// [`CampaignStats`] fed the event stream accumulates exactly what the
/// campaign's own stats accumulate (the fold's direct bookkeeping *is* this
/// implementation — `record_test_count` per folded test, `finish` at the
/// end).
///
/// Attach a fresh `CampaignStats` (created with the campaign's label, space
/// length and sample interval) to maintain an independent, concurrently
/// readable shadow copy of the statistics, e.g. behind an `Arc<Mutex<_>>`
/// for a monitoring endpoint.
impl CampaignObserver for CampaignStats {
    fn test_folded(&mut self, event: &TestFolded<'_>) {
        self.record_test_count(event.test_id, event.coverage, event.diff);
    }

    fn campaign_finished(&mut self, _event: &CampaignFinished) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_methods_are_no_ops() {
        struct Silent;
        impl CampaignObserver for Silent {}
        let mut observer = Silent;
        observer.arm_selected(&ArmSelected { round: 0, arm: 0, batch_len: 1 });
        observer.batch_folded(&BatchFolded { round: 0, arm: 0, tests: 1 });
        observer.arm_reset(&ArmReset { arm: 0, test_number: 1, total_resets: 1 });
        observer.coverage_milestone(&CoverageMilestone {
            decile: 1,
            covered: 10,
            space_len: 100,
            test_number: 1,
        });
        observer.campaign_finished(&CampaignFinished {
            tests_executed: 1,
            final_coverage: 10,
            total_resets: 0,
        });
    }

    #[test]
    fn decile_tracker_reports_each_crossing_once() {
        let mut tracker = DecileTracker::new(100);
        assert_eq!(tracker.crossed(5).count(), 0, "below the first decile");
        assert_eq!(tracker.crossed(10).collect::<Vec<_>>(), vec![1]);
        assert_eq!(tracker.crossed(12).count(), 0, "decile 1 already reported");
        assert_eq!(tracker.crossed(47).collect::<Vec<_>>(), vec![2, 3, 4], "jumps report each");
        assert_eq!(tracker.crossed(100).collect::<Vec<_>>(), vec![5, 6, 7, 8, 9, 10]);
        assert_eq!(tracker.crossed(100).count(), 0, "saturated");
        let mut empty_space = DecileTracker::new(0);
        assert_eq!(empty_space.crossed(0).count(), 0, "an empty space has no deciles");
    }

    #[test]
    fn campaign_stats_replays_the_event_stream() {
        let mut map = CoverageMap::with_len(64);
        map.cover(coverage::CoverPointId(3));
        map.cover(coverage::CoverPointId(9));
        let diff = DiffReport::default();
        let mut stats = CampaignStats::new("shadow", 64, 1);
        stats.test_folded(&TestFolded {
            test_number: 1,
            test_id: TestId(0),
            arm: 0,
            local_new: 2,
            global_new: 2,
            covered: 2,
            reward: 2.0,
            detected: false,
            coverage: &map,
            diff: &diff,
        });
        stats.campaign_finished(&CampaignFinished {
            tests_executed: 1,
            final_coverage: 2,
            total_resets: 0,
        });
        assert_eq!(stats.tests_executed(), 1);
        assert_eq!(stats.final_coverage(), 2);
    }
}
