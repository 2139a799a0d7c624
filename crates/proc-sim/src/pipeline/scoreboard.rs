//! In-order scoreboard model (Rocket and CVA6 back-ends).

use coverage::{CoverPointId, CoverageMap, CoverageSpace};
use riscv::{Gpr, Instr, OpClass};

use super::{bucket, class_slots};

/// Scoreboard / hazard-tracking model for in-order issue cores.
///
/// The model tracks, per destination register, how many instructions ago it
/// was last written, and derives hazard coverage from the distance between a
/// producer and its consumers — the same information a real scoreboard uses
/// to decide stalls and forwarding paths.
///
/// Coverage points:
/// * per-register RAW-hazard observed (`32`),
/// * RAW distance buckets (producer→consumer distance 1, 2, 4, 8, …),
/// * WAW-hazard distance buckets,
/// * per-functional-unit busy crosses (consumer class × producer class),
/// * long-latency (div/load) shadow stalls.
#[derive(Debug, Clone)]
pub struct ScoreboardModel {
    raw_per_reg: Vec<CoverPointId>,
    raw_distance: Vec<CoverPointId>,
    waw_distance: Vec<CoverPointId>,
    unit_cross: Vec<CoverPointId>,
    long_latency_shadow: (CoverPointId, CoverPointId),
    distance_buckets: usize,
    // Runtime: for each register, (sequence number, class) of the last writer.
    last_writer: Vec<Option<(u64, OpClass)>>,
    seq: u64,
    // Dirty-reset flag (see `isa_sim::snapshot`): `last_writer` is only
    // written in `on_issue` (non-zero destinations); unset means it is still
    // all-`None`. `seq` is O(1) and resets unconditionally.
    dirty: bool,
}

const UNIT_CLASSES: [OpClass; 5] =
    [OpClass::Arith, OpClass::Mul, OpClass::Div, OpClass::Load, OpClass::Csr];

/// Position of each class in [`UNIT_CLASSES`], by [`OpClass::index`].
const UNIT_SLOTS: [Option<usize>; OpClass::ALL.len()] = class_slots(UNIT_CLASSES);

impl ScoreboardModel {
    /// Creates a scoreboard model and registers its coverage points.
    pub fn new(space: &mut CoverageSpace, distance_buckets: usize) -> ScoreboardModel {
        let module = "scoreboard";
        let raw_per_reg = (0..32)
            .map(|i| space.register_branch(module, format!("raw_on_x{i}"), true))
            .collect();
        let raw_distance = (0..distance_buckets)
            .map(|i| space.register_branch(module, format!("raw_distance_bucket{i}"), true))
            .collect();
        let waw_distance = (0..distance_buckets)
            .map(|i| space.register_branch(module, format!("waw_distance_bucket{i}"), true))
            .collect();
        let mut unit_cross = Vec::new();
        for producer in UNIT_CLASSES {
            for consumer in UNIT_CLASSES {
                unit_cross.push(space.register_branch(
                    module,
                    format!("forward_{producer}_to_{consumer}"),
                    true,
                ));
            }
        }
        let long_latency_shadow = space.register_site(module, "long_latency_shadow");
        ScoreboardModel {
            raw_per_reg,
            raw_distance,
            waw_distance,
            unit_cross,
            long_latency_shadow,
            distance_buckets,
            last_writer: vec![None; 32],
            seq: 0,
            dirty: false,
        }
    }

    /// Clears hazard-tracking state (the full-reinit differential oracle).
    pub fn reset(&mut self) {
        self.last_writer.fill(None);
        self.seq = 0;
        self.dirty = false;
    }

    /// Like [`reset`](ScoreboardModel::reset), but clears the writer table
    /// only when something was written to it since the last reset.
    pub fn reset_dirty(&mut self) {
        if self.dirty {
            self.last_writer.fill(None);
            self.dirty = false;
        }
        self.seq = 0;
    }

    /// Records the issue of an instruction, deriving hazard coverage from its
    /// source and destination registers.
    pub fn on_issue(&mut self, instr: &Instr, map: &mut CoverageMap) {
        self.seq += 1;
        let class = instr.op.class();

        for src in instr.sources() {
            if src.is_zero() {
                continue;
            }
            if let Some((writer_seq, writer_class)) = self.last_writer[src.index() as usize] {
                let distance = (self.seq - writer_seq) as usize;
                map.cover(self.raw_per_reg[src.index() as usize]);
                map.cover(self.raw_distance[bucket(distance, self.distance_buckets)]);
                if let Some(cross) = Self::cross_index(writer_class, class) {
                    map.cover(self.unit_cross[cross]);
                }
                let (shadow_t, shadow_f) = self.long_latency_shadow;
                let long_latency = matches!(writer_class, OpClass::Div | OpClass::Load) && distance <= 2;
                map.cover(if long_latency { shadow_t } else { shadow_f });
            }
        }

        if let Some(dest) = instr.dest() {
            if !dest.is_zero() {
                if let Some((writer_seq, _)) = self.last_writer[dest.index() as usize] {
                    let distance = (self.seq - writer_seq) as usize;
                    map.cover(self.waw_distance[bucket(distance, self.distance_buckets)]);
                }
                self.last_writer[dest.index() as usize] = Some((self.seq, class));
                self.dirty = true;
            }
        }
    }

    fn cross_index(producer: OpClass, consumer: OpClass) -> Option<usize> {
        let p = UNIT_SLOTS[producer.index()]?;
        let c = UNIT_SLOTS[consumer.index()]?;
        Some(p * UNIT_CLASSES.len() + c)
    }

    /// Returns the register numbers that currently have an in-flight writer
    /// (used by tests).
    pub fn busy_registers(&self) -> Vec<Gpr> {
        self.last_writer
            .iter()
            .enumerate()
            .filter_map(|(i, w)| w.map(|_| Gpr::from_index(i as u8)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv::{Gpr, Op};

    fn setup() -> (CoverageSpace, ScoreboardModel) {
        let mut space = CoverageSpace::new("test");
        let scoreboard = ScoreboardModel::new(&mut space, 6);
        (space, scoreboard)
    }

    #[test]
    fn registers_expected_number_of_points() {
        let (space, _sb) = setup();
        // 32 RAW + 6 RAW distance + 6 WAW distance + 25 unit crosses + 2 shadow.
        assert_eq!(space.len(), 32 + 6 + 6 + 25 + 2);
    }

    #[test]
    fn back_to_back_dependency_covers_raw_points() {
        let (space, mut sb) = setup();
        let mut map = CoverageMap::for_space(&space);
        sb.on_issue(&Instr::itype(Op::Addi, Gpr::A0, Gpr::Zero, 1), &mut map);
        sb.on_issue(&Instr::rtype(Op::Add, Gpr::A1, Gpr::A0, Gpr::Zero), &mut map);
        assert!(map.is_covered(space.lookup("scoreboard", "raw_on_x10", true).unwrap()));
        assert!(map.is_covered(space.lookup("scoreboard", "raw_distance_bucket1", true).unwrap()));
        assert!(map.is_covered(space.lookup("scoreboard", "forward_arith_to_arith", true).unwrap()));
    }

    #[test]
    fn long_latency_shadow_requires_close_consumer_of_div_or_load() {
        let (space, mut sb) = setup();
        let mut map = CoverageMap::for_space(&space);
        sb.on_issue(&Instr::rtype(Op::Div, Gpr::A0, Gpr::A1, Gpr::A2), &mut map);
        sb.on_issue(&Instr::rtype(Op::Add, Gpr::A3, Gpr::A0, Gpr::Zero), &mut map);
        assert!(map.is_covered(space.lookup("scoreboard", "long_latency_shadow", true).unwrap()));
        // A far-away consumer covers the other direction.
        let (space2, mut sb2) = setup();
        let mut map2 = CoverageMap::for_space(&space2);
        sb2.on_issue(&Instr::rtype(Op::Div, Gpr::A0, Gpr::A1, Gpr::A2), &mut map2);
        for i in 0..5 {
            sb2.on_issue(&Instr::itype(Op::Addi, Gpr::T0, Gpr::Zero, i), &mut map2);
        }
        sb2.on_issue(&Instr::rtype(Op::Add, Gpr::A3, Gpr::A0, Gpr::Zero), &mut map2);
        assert!(map2.is_covered(space2.lookup("scoreboard", "long_latency_shadow", false).unwrap()));
    }

    #[test]
    fn waw_hazards_are_bucketed_by_distance() {
        let (space, mut sb) = setup();
        let mut map = CoverageMap::for_space(&space);
        sb.on_issue(&Instr::itype(Op::Addi, Gpr::S0, Gpr::Zero, 1), &mut map);
        sb.on_issue(&Instr::itype(Op::Addi, Gpr::S0, Gpr::Zero, 2), &mut map);
        assert!(map.is_covered(space.lookup("scoreboard", "waw_distance_bucket1", true).unwrap()));
    }

    #[test]
    fn dirty_reset_is_equivalent_to_full_reset() {
        let (space, mut sb) = setup();
        let mut map = CoverageMap::for_space(&space);
        sb.on_issue(&Instr::itype(Op::Addi, Gpr::A0, Gpr::Zero, 1), &mut map);
        assert!(sb.dirty);
        sb.reset_dirty();
        assert!(sb.busy_registers().is_empty());
        assert_eq!(sb.seq, 0);
        assert!(!sb.dirty);
        // Issuing only x0-destination instructions leaves the table clean, so
        // the next dirty reset skips the fill entirely.
        sb.on_issue(&Instr::itype(Op::Addi, Gpr::Zero, Gpr::Zero, 1), &mut map);
        assert!(!sb.dirty);
        sb.reset_dirty();
        assert!(sb.busy_registers().is_empty());
    }

    #[test]
    fn x0_never_tracks_hazards() {
        let (space, mut sb) = setup();
        let mut map = CoverageMap::for_space(&space);
        sb.on_issue(&Instr::itype(Op::Addi, Gpr::Zero, Gpr::Zero, 1), &mut map);
        sb.on_issue(&Instr::rtype(Op::Add, Gpr::A0, Gpr::Zero, Gpr::Zero), &mut map);
        assert!(!map.is_covered(space.lookup("scoreboard", "raw_on_x0", true).unwrap()));
        assert!(sb.busy_registers().contains(&Gpr::A0));
        sb.reset();
        assert!(sb.busy_registers().is_empty());
    }
}
