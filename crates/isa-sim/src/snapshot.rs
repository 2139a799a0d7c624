//! Snapshot/dirty-reset of execution state: restore only what a test dirtied.
//!
//! The campaign loop re-simulates tens of thousands of tiny programs, and the
//! per-test cost is dominated by state *setup*, not execution: a full
//! [`Memory::reset_with_program`](crate::Memory::reset_with_program) zeroes
//! every allocated page and a fresh [`ArchState`] rebuilds its CSR map, even
//! though a short program touches a handful of pages and a handful of CSRs.
//! This module provides the pieces that make per-test setup O(touched state):
//!
//! * [`Snapshot`] — a handle on the pristine architectural baseline every
//!   test starts from. Today that is always the reset state
//!   ([`Snapshot::pristine`]); the handle exists so stateful / test-reuse
//!   campaigns (ReFuzz-style) can later [`capture`](Snapshot::capture) a
//!   mid-campaign state and resume from it instead of cold-starting.
//! * [`DirtyTracker`] — a reusable touched-unit list with saturating
//!   first-touch marking. [`Memory`](crate::Memory) uses one with pages as
//!   units; the `proc-sim` pipeline components use the same idea with
//!   per-component dirty flags and per-set touched lists.
//! * [`ResetPolicy`] — the campaign-wide switch between the dirty-restore
//!   path and the full-reinit path, read from
//!   [`MABFUZZ_SNAPSHOT_RESET`](ResetPolicy::ENV_VAR).
//!
//! # The soundness invariant
//!
//! Dirty-reset is only correct if **clean implies pristine**: any unit the
//! tracker does not list must already be in its reset state. Each tracked
//! structure maintains this by induction —
//!
//! * it starts pristine (fresh allocation or a full reset),
//! * every mutation path marks the unit it touches *before or at* the
//!   mutation (for `Memory`, the single choke point is
//!   [`write_byte`](crate::Memory::write_byte); for a cache model it is
//!   `access`), and
//! * the restore path re-pristinizes exactly the listed units and clears the
//!   list.
//!
//! A restore is therefore byte-equivalent to a full reinit — which is pinned
//! by proptests here and in `proc-sim`, by the harness differential tests,
//! and end-to-end by `tests/snapshot_reset_equivalence.rs` comparing whole
//! campaign reports. The full-reinit path stays alive as the differential
//! oracle (`MABFUZZ_SNAPSHOT_RESET=off`), exactly like the interpreted fetch
//! path does for the decode cache.
//!
//! # Determinism
//!
//! Restoring instead of reinitialising is invisible to results by
//! construction: both paths hand the simulator the same memory image and the
//! same architectural state, so traces, coverage and every downstream
//! campaign artefact are byte-identical. The determinism contract in
//! `fuzzer::shard` extends to this path for the same reason the decode cache
//! satisfies it — the tracker is private to its campaign's scratch and holds
//! no cross-test information that could leak into outcomes.

use serde::{Deserialize, Serialize};

use crate::state::ArchState;

/// How a simulator scratch returns to the test-start state between runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ResetPolicy {
    /// Restore only the units the previous test dirtied (the production
    /// default): zero dirty memory pages, restore the architectural baseline
    /// in place, dirty-reset the pipeline components.
    #[default]
    SnapshotReset,
    /// Rebuild everything from scratch exactly as the pre-snapshot code did:
    /// zero every allocated page, construct a fresh [`ArchState`], full-reset
    /// every component. Kept as the differential oracle the snapshot path is
    /// byte-compared against.
    FullReinit,
}

impl ResetPolicy {
    /// The environment variable [`ResetPolicy::from_env`] reads.
    pub const ENV_VAR: &'static str = "MABFUZZ_SNAPSHOT_RESET";

    /// Reads the policy from [`MABFUZZ_SNAPSHOT_RESET`](ResetPolicy::ENV_VAR):
    /// `on`/`1`/`true` (also unset or empty) select
    /// [`SnapshotReset`](ResetPolicy::SnapshotReset), `off`/`0`/`false` select
    /// [`FullReinit`](ResetPolicy::FullReinit), anything else panics loudly
    /// (mirroring `MABFUZZ_DECODE_CACHE`).
    pub fn from_env() -> ResetPolicy {
        match std::env::var(ResetPolicy::ENV_VAR) {
            Err(std::env::VarError::NotPresent) => ResetPolicy::SnapshotReset,
            Err(error) => panic!("{}: {error}", ResetPolicy::ENV_VAR),
            Ok(raw) => match raw.trim().to_ascii_lowercase().as_str() {
                "" | "on" | "1" | "true" => ResetPolicy::SnapshotReset,
                "off" | "0" | "false" => ResetPolicy::FullReinit,
                other => panic!(
                    "{}: expected on/off (or 1/0, true/false), got {other:?}",
                    ResetPolicy::ENV_VAR
                ),
            },
        }
    }

    /// Returns `true` for the dirty-restore path.
    pub fn is_snapshot(self) -> bool {
        self == ResetPolicy::SnapshotReset
    }
}

/// A handle on the architectural state a test starts from.
///
/// Every simulator scratch owns one. Today it is always the reset state, so
/// restoring from it is equivalent to building `ArchState::new()` — just
/// without reallocating the CSR map. The handle is deliberately a value the
/// scratch carries (rather than a hard-coded constant) because it is the seam
/// stateful/test-reuse campaigns resume from: swap in a
/// [`captured`](Snapshot::capture) mid-campaign state and every test the
/// scratch runs afterwards starts there instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Snapshot {
    baseline: ArchState,
}

impl Snapshot {
    /// The reset-state snapshot: what `ArchState::new()` builds.
    pub fn pristine() -> Snapshot {
        Snapshot { baseline: ArchState::new() }
    }

    /// Captures an arbitrary architectural state as the new baseline (the
    /// ReFuzz-style test-reuse seam; nothing in the repo swaps this in yet).
    pub fn capture(state: &ArchState) -> Snapshot {
        Snapshot { baseline: state.clone() }
    }

    /// Returns the baseline state.
    pub fn baseline(&self) -> &ArchState {
        &self.baseline
    }

    /// Restores `state` to the baseline in place, reusing its allocations
    /// (see [`ArchState::restore_from`]).
    pub fn restore(&self, state: &mut ArchState) {
        state.restore_from(&self.baseline);
    }
}

impl Default for Snapshot {
    fn default() -> Snapshot {
        Snapshot::pristine()
    }
}

/// Counters describing the work the dirty-reset path performed, for tests and
/// benches (the campaign artefacts never see them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResetStats {
    /// First-touch marks recorded (one per unit per dirty window).
    pub marks: u64,
    /// Dirty restores performed.
    pub restores: u64,
    /// Total units re-pristinized across all restores.
    pub units_restored: u64,
}

/// A reusable list of dirtied units (pages, sets, …) with restore counters.
///
/// The owner is responsible for first-touch dedup (usually via a per-unit
/// flag stored next to the unit, so marking stays O(1) without a hash set)
/// and for actually re-pristinizing each unit in the
/// [`restore_units`](DirtyTracker::restore_units) callback — the tracker only
/// remembers *which* units need it. See the module docs for the
/// clean-implies-pristine invariant this protocol maintains.
#[derive(Debug, Clone, Default)]
pub struct DirtyTracker {
    touched: Vec<u64>,
    stats: ResetStats,
}

impl DirtyTracker {
    /// Creates an empty tracker.
    pub fn new() -> DirtyTracker {
        DirtyTracker::default()
    }

    /// Records the first touch of `unit` in the current dirty window. The
    /// caller must guarantee it is a *first* touch (checked by its own
    /// per-unit flag); double-marking would only cost a redundant restore,
    /// not correctness, but would skew the stats.
    pub fn mark(&mut self, unit: u64) {
        self.touched.push(unit);
        self.stats.marks += 1;
    }

    /// The units marked since the last restore or clear, in mark order.
    pub fn touched(&self) -> &[u64] {
        &self.touched
    }

    /// Number of currently dirty units.
    pub fn len(&self) -> usize {
        self.touched.len()
    }

    /// Returns `true` when nothing is dirty.
    pub fn is_empty(&self) -> bool {
        self.touched.is_empty()
    }

    /// Runs `restore` on every dirty unit and empties the list, keeping its
    /// allocation. The callback must return the unit to its pristine state
    /// (and clear the caller's per-unit dirty flag).
    pub fn restore_units(&mut self, mut restore: impl FnMut(u64)) {
        self.stats.restores += 1;
        self.stats.units_restored += self.touched.len() as u64;
        for unit in self.touched.drain(..) {
            restore(unit);
        }
    }

    /// Drops all marks without restoring anything — the full-reinit path
    /// calls this after it has re-pristinized everything wholesale.
    pub fn clear(&mut self) {
        self.touched.clear();
    }

    /// Returns the work counters.
    pub fn stats(&self) -> ResetStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_defaults_to_snapshot_reset() {
        assert_eq!(ResetPolicy::default(), ResetPolicy::SnapshotReset);
        assert!(ResetPolicy::SnapshotReset.is_snapshot());
        assert!(!ResetPolicy::FullReinit.is_snapshot());
    }

    #[test]
    fn pristine_snapshot_restores_to_the_reset_state() {
        let snapshot = Snapshot::pristine();
        let mut state = ArchState::new();
        state.pc = 0x8000_0040;
        state.set_reg(riscv::Gpr::A0, 77);
        state.set_csr(riscv::CsrAddr::MSCRATCH, 0xdead);
        state.retire();
        snapshot.restore(&mut state);
        assert_eq!(state, ArchState::new());
        assert_eq!(snapshot.baseline(), &ArchState::new());
    }

    #[test]
    fn captured_snapshot_restores_to_the_captured_state() {
        let mut mid = ArchState::new();
        mid.set_reg(riscv::Gpr::S1, 5);
        mid.set_csr(riscv::CsrAddr::MSCRATCH, 9);
        let snapshot = Snapshot::capture(&mid);
        let mut state = ArchState::new();
        state.set_reg(riscv::Gpr::T0, 123);
        snapshot.restore(&mut state);
        assert_eq!(state, mid);
    }

    #[test]
    fn tracker_restores_exactly_the_marked_units() {
        let mut tracker = DirtyTracker::new();
        tracker.mark(3);
        tracker.mark(11);
        assert_eq!(tracker.touched(), &[3, 11]);
        assert_eq!(tracker.len(), 2);
        let mut restored = Vec::new();
        tracker.restore_units(|unit| restored.push(unit));
        assert_eq!(restored, vec![3, 11]);
        assert!(tracker.is_empty());
        let stats = tracker.stats();
        assert_eq!(stats, ResetStats { marks: 2, restores: 1, units_restored: 2 });
    }

    #[test]
    fn clear_drops_marks_without_counting_a_restore() {
        let mut tracker = DirtyTracker::new();
        tracker.mark(7);
        tracker.clear();
        assert!(tracker.is_empty());
        assert_eq!(tracker.stats().restores, 0);
        assert_eq!(tracker.stats().marks, 1);
    }
}
