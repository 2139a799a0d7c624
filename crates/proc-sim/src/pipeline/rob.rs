//! Re-order buffer and rename model (BOOM-style out-of-order back-end).

use coverage::{CoverPointId, CoverageMap, CoverageSpace};
use riscv::{Instr, OpClass};

use super::{bucket, class_slots};

/// Re-order buffer, rename and issue model for the superscalar core.
///
/// The model approximates an out-of-order window: instructions enter the ROB
/// at dispatch and leave `latency(class)` instructions later, so occupancy
/// reflects the latency mix of the recent instruction stream.
///
/// Coverage points:
/// * per-ROB-entry allocation (`rob_entries`, only reachable when the window
///   actually fills that far),
/// * occupancy buckets,
/// * free-physical-register pressure buckets,
/// * issue-lane utilisation (`lanes × classes`),
/// * flush events (branch redirect / exception) crossed with occupancy,
/// * load-store-queue occupancy buckets.
#[derive(Debug, Clone)]
pub struct RobModel {
    rob_entries: usize,
    lanes: usize,
    entry_ids: Vec<CoverPointId>,
    occupancy_ids: Vec<CoverPointId>,
    free_reg_ids: Vec<CoverPointId>,
    lane_class_ids: Vec<CoverPointId>,
    flush_occupancy_ids: Vec<CoverPointId>,
    lsq_ids: Vec<CoverPointId>,
    // Runtime.
    in_flight: Vec<usize>,
    lsq_len: usize,
    dispatched: u64,
}

const LANE_CLASSES: [OpClass; 6] = [
    OpClass::Arith,
    OpClass::Mul,
    OpClass::Div,
    OpClass::Load,
    OpClass::Store,
    OpClass::Branch,
];

/// Position of each class in [`LANE_CLASSES`], by [`OpClass::index`].
const LANE_SLOTS: [Option<usize>; OpClass::ALL.len()] = class_slots(LANE_CLASSES);

impl RobModel {
    /// Creates a ROB model with `rob_entries` entries and `lanes` issue lanes.
    pub fn new(space: &mut CoverageSpace, rob_entries: usize, lanes: usize) -> RobModel {
        assert!(rob_entries > 0 && lanes > 0, "rob must have entries and lanes");
        let module = "rob";
        let entry_ids = (0..rob_entries)
            .map(|i| space.register_branch(module, format!("entry{i}_allocated"), true))
            .collect();
        let occupancy_ids = (0..8)
            .map(|i| space.register_branch(module, format!("occupancy_bucket{i}"), true))
            .collect();
        let free_reg_ids = (0..6)
            .map(|i| space.register_branch(module, format!("free_regs_bucket{i}"), true))
            .collect();
        let mut lane_class_ids = Vec::new();
        for lane in 0..lanes {
            for class in LANE_CLASSES {
                lane_class_ids.push(space.register_branch(module, format!("lane{lane}_issue_{class}"), true));
            }
        }
        let flush_occupancy_ids = (0..8)
            .map(|i| space.register_branch(module, format!("flush_at_occupancy_bucket{i}"), true))
            .collect();
        let lsq_ids = (0..6)
            .map(|i| space.register_branch(module, format!("lsq_bucket{i}"), true))
            .collect();
        RobModel {
            rob_entries,
            lanes,
            entry_ids,
            occupancy_ids,
            free_reg_ids,
            lane_class_ids,
            flush_occupancy_ids,
            lsq_ids,
            in_flight: Vec::new(),
            lsq_len: 0,
            dispatched: 0,
        }
    }

    /// Clears the window state.
    pub fn reset(&mut self) {
        self.in_flight.clear();
        self.lsq_len = 0;
        self.dispatched = 0;
    }

    /// Records the dispatch of an instruction into the out-of-order window.
    pub fn on_dispatch(&mut self, instr: &Instr, map: &mut CoverageMap) {
        self.dispatched += 1;
        // Age the window: decrement remaining latencies and retire finished entries.
        for remaining in &mut self.in_flight {
            *remaining = remaining.saturating_sub(1);
        }
        self.in_flight.retain(|r| *r > 0);

        let class = instr.op.class();
        let latency = match class {
            OpClass::Div => 16,
            OpClass::Mul => 4,
            OpClass::Load => 6,
            OpClass::Store => 3,
            OpClass::Csr | OpClass::System | OpClass::Fence => 8,
            _ => 2,
        };
        if self.in_flight.len() < self.rob_entries {
            let slot = self.in_flight.len();
            map.cover(self.entry_ids[slot]);
            self.in_flight.push(latency);
        }
        let occupancy = self.in_flight.len();
        map.cover(self.occupancy_ids[bucket(occupancy, self.occupancy_ids.len())]);
        // Physical-register pressure mirrors occupancy (one allocation per
        // in-flight destination).
        let free_regs = self.rob_entries.saturating_sub(occupancy);
        map.cover(self.free_reg_ids[bucket(free_regs, self.free_reg_ids.len())]);

        // Issue-lane utilisation: the lane is picked round-robin per dispatch,
        // which approximates a banked issue queue.
        if let Some(class_index) = LANE_SLOTS[class.index()] {
            let lane = (self.dispatched as usize) % self.lanes;
            map.cover(self.lane_class_ids[lane * LANE_CLASSES.len() + class_index]);
        }

        if matches!(class, OpClass::Load | OpClass::Store) {
            self.lsq_len = (self.lsq_len + 1).min(63);
            map.cover(self.lsq_ids[bucket(self.lsq_len, self.lsq_ids.len())]);
        } else if self.lsq_len > 0 {
            self.lsq_len -= 1;
        }
    }

    /// Records a pipeline flush (taken branch redirect or exception) and the
    /// occupancy at which it happened.
    pub fn on_flush(&mut self, map: &mut CoverageMap) {
        let occupancy = self.in_flight.len();
        map.cover(self.flush_occupancy_ids[bucket(occupancy, self.flush_occupancy_ids.len())]);
        self.in_flight.clear();
    }

    /// Returns the current window occupancy.
    pub fn occupancy(&self) -> usize {
        self.in_flight.len()
    }

    /// Returns the number of issue lanes.
    pub fn lanes(&self) -> usize {
        self.lanes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv::{Gpr, Op};

    fn setup(entries: usize, lanes: usize) -> (CoverageSpace, RobModel) {
        let mut space = CoverageSpace::new("test");
        let rob = RobModel::new(&mut space, entries, lanes);
        (space, rob)
    }

    #[test]
    fn registers_expected_number_of_points() {
        let (space, _rob) = setup(32, 2);
        // 32 entries + 8 occupancy + 6 free regs + 2×6 lanes + 8 flush + 6 lsq.
        assert_eq!(space.len(), 32 + 8 + 6 + 12 + 8 + 6);
    }

    #[test]
    fn occupancy_grows_with_long_latency_instructions() {
        let (space, mut rob) = setup(16, 2);
        let mut map = CoverageMap::for_space(&space);
        let div = Instr::rtype(Op::Div, Gpr::A0, Gpr::A1, Gpr::A2);
        for _ in 0..8 {
            rob.on_dispatch(&div, &mut map);
        }
        assert!(rob.occupancy() >= 4, "divides should pile up in the window");
        assert!(map.is_covered(space.lookup("rob", "entry4_allocated", true).unwrap()));
        // Short-latency streams keep the window small.
        let (space2, mut rob2) = setup(16, 2);
        let mut map2 = CoverageMap::for_space(&space2);
        let addi = Instr::itype(Op::Addi, Gpr::A0, Gpr::Zero, 1);
        for _ in 0..8 {
            rob2.on_dispatch(&addi, &mut map2);
        }
        assert!(rob2.occupancy() <= 2);
        assert!(!map2.is_covered(space2.lookup("rob", "entry8_allocated", true).unwrap()));
    }

    #[test]
    fn flush_records_occupancy_and_empties_the_window() {
        let (space, mut rob) = setup(8, 1);
        let mut map = CoverageMap::for_space(&space);
        let load = Instr::itype(Op::Ld, Gpr::A0, Gpr::Gp, 0);
        rob.on_dispatch(&load, &mut map);
        rob.on_dispatch(&load, &mut map);
        rob.on_flush(&mut map);
        assert_eq!(rob.occupancy(), 0);
        assert!(map.is_covered(space.lookup("rob", "flush_at_occupancy_bucket2", true).unwrap()));
    }

    #[test]
    fn issue_lanes_round_robin_across_classes() {
        let (space, mut rob) = setup(8, 2);
        let mut map = CoverageMap::for_space(&space);
        let mul = Instr::rtype(Op::Mul, Gpr::A0, Gpr::A1, Gpr::A2);
        rob.on_dispatch(&mul, &mut map);
        rob.on_dispatch(&mul, &mut map);
        assert!(map.is_covered(space.lookup("rob", "lane0_issue_mul", true).unwrap()));
        assert!(map.is_covered(space.lookup("rob", "lane1_issue_mul", true).unwrap()));
        assert_eq!(rob.lanes(), 2);
    }

    #[test]
    fn lsq_buckets_track_memory_pressure() {
        let (space, mut rob) = setup(8, 1);
        let mut map = CoverageMap::for_space(&space);
        let store = Instr::store(Op::Sd, Gpr::A0, Gpr::Gp, 0);
        for _ in 0..4 {
            rob.on_dispatch(&store, &mut map);
        }
        assert!(map.is_covered(space.lookup("rob", "lsq_bucket3", true).unwrap()));
        rob.reset();
        assert_eq!(rob.occupancy(), 0);
    }
}
