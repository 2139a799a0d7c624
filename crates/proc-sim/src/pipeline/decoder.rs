//! Decode-stage model with per-opcode and cross-product coverage points.

use coverage::{CoverPointId, CoverageMap, CoverageSpace};
use riscv::{Instr, Op, OpClass};

/// Decode-unit model.
///
/// Coverage points:
/// * per-operation decode (`|Op| × 2`: this op decoded / another op of the
///   same class decoded),
/// * per-class crosses with operand shapes (`rd == x0`, `rs1 == rs2`,
///   negative immediate), which need specific operand patterns to reach,
/// * illegal-instruction path (split by major-opcode bucket, so different
///   kinds of garbage words reach different points),
/// * compressed-instruction and privilege-violation sites that the modelled
///   ISA can never reach — deliberately unreachable points that keep total
///   coverage below 100 % like on the real designs.
#[derive(Debug, Clone)]
pub struct DecoderModel {
    // Indexed by `Op::index()`.
    op_seen: Vec<CoverPointId>,
    // Indexed by `OpClass::index()`: each class's ops with their "another
    // op decoded" id, and its rd/rs/imm cross sites.
    class_others: Vec<Vec<(Op, CoverPointId)>>,
    class_crosses: Vec<[(CoverPointId, CoverPointId); 3]>,
    illegal_buckets: Vec<CoverPointId>,
    legal_id: CoverPointId,
    #[allow(dead_code)]
    unreachable_ids: Vec<CoverPointId>,
    depth_ids: Vec<CoverPointId>,
    decoded_count: usize,
}

impl DecoderModel {
    /// Creates a decoder model and registers its coverage points.
    ///
    /// `depth_sites` controls how many "consecutive-decode depth" points are
    /// registered; larger values add points only long runs of instructions can
    /// reach, which is one of the knobs the cores use to differentiate how
    /// hard full coverage is.
    pub fn new(space: &mut CoverageSpace, depth_sites: usize) -> DecoderModel {
        let module = "decoder";
        let op_ids: Vec<_> = Op::ALL
            .iter()
            .map(|op| space.register_site(module, format!("op_{}", op.mnemonic())))
            .collect();
        let op_seen = op_ids.iter().map(|&(seen, _)| seen).collect();
        let class_others = OpClass::ALL
            .iter()
            .map(|&class| Op::of_class(class).map(|op| (op, op_ids[op.index()].1)).collect())
            .collect();
        let class_crosses = OpClass::ALL
            .iter()
            .map(|class| {
                [
                    space.register_site(module, format!("{class}_rd_is_x0")),
                    space.register_site(module, format!("{class}_rs1_eq_rs2")),
                    space.register_site(module, format!("{class}_imm_negative")),
                ]
            })
            .collect();
        let mut illegal_buckets = Vec::new();
        for bucket in 0..8 {
            illegal_buckets.push(space.register_branch(module, format!("illegal_major{bucket}"), true));
        }
        let legal_id = space.register_branch(module, "illegal_any", false);
        // Deliberately unreachable sites (compressed ISA, supervisor/user
        // privilege checks) mirroring logic the real decoders contain but the
        // fuzzer's bare-metal machine-mode programs cannot reach.
        let mut unreachable_ids = Vec::new();
        for site in ["rvc_quadrant0", "rvc_quadrant1", "rvc_quadrant2", "smode_csr", "umode_csr", "vector_cfg"] {
            let (t, _) = space.register_site(module, site);
            unreachable_ids.push(t);
        }
        let mut depth_ids = Vec::new();
        for i in 0..depth_sites {
            depth_ids.push(space.register_branch(module, format!("decode_depth_{}", 8 * (i + 1)), true));
        }
        DecoderModel {
            op_seen,
            class_others,
            class_crosses,
            illegal_buckets,
            legal_id,
            unreachable_ids,
            depth_ids,
            decoded_count: 0,
        }
    }

    /// Clears the per-test decode counter.
    pub fn reset(&mut self) {
        self.decoded_count = 0;
    }

    /// Records the decode of a legal instruction.
    pub fn on_decode(&mut self, instr: &Instr, map: &mut CoverageMap) {
        map.cover(self.legal_id);
        map.cover(self.op_seen[instr.op.index()]);
        let class = instr.op.class().index();
        // The "other direction" of each op's site is reachable by decoding a
        // different op of the same class, mirroring the else-branches of a
        // per-class decode tree.
        for &(op, other) in &self.class_others[class] {
            if op != instr.op {
                map.cover(other);
            }
        }
        let [(zero_t, zero_f), (same_t, same_f), (neg_t, neg_f)] = self.class_crosses[class];
        map.cover(if instr.rd.is_zero() { zero_t } else { zero_f });
        map.cover(if instr.rs1 == instr.rs2 { same_t } else { same_f });
        map.cover(if instr.imm < 0 { neg_t } else { neg_f });

        self.decoded_count += 1;
        let depth_bucket = self.decoded_count / 8;
        if depth_bucket >= 1 && depth_bucket <= self.depth_ids.len() {
            map.cover(self.depth_ids[depth_bucket - 1]);
        }
    }

    /// Records the decode of an illegal instruction word.
    pub fn on_illegal(&mut self, word: u32, map: &mut CoverageMap) {
        let bucket = (word & 0x7f) as usize % self.illegal_buckets.len();
        map.cover(self.illegal_buckets[bucket]);
    }

    /// Returns how many legal instructions have been decoded in this test.
    pub fn decoded_count(&self) -> usize {
        self.decoded_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv::Gpr;

    fn setup(depth: usize) -> (CoverageSpace, DecoderModel) {
        let mut space = CoverageSpace::new("test");
        let decoder = DecoderModel::new(&mut space, depth);
        (space, decoder)
    }

    #[test]
    fn registers_per_op_and_cross_points() {
        let (space, _decoder) = setup(4);
        // 74 ops × 2 + 10 classes × 3 crosses × 2 + 8 illegal + 1 legal
        // + 6 unreachable × 2 + 4 depth.
        assert_eq!(space.len(), 74 * 2 + 10 * 6 + 8 + 1 + 12 + 4);
    }

    #[test]
    fn decoding_an_op_covers_its_point_and_class_crosses() {
        let (space, mut decoder) = setup(0);
        let mut map = CoverageMap::for_space(&space);
        let instr = Instr::rtype(Op::Add, Gpr::Zero, Gpr::A0, Gpr::A0);
        decoder.on_decode(&instr, &mut map);
        assert!(map.is_covered(space.lookup("decoder", "op_add", true).unwrap()));
        assert!(map.is_covered(space.lookup("decoder", "op_sub", false).unwrap()));
        assert!(!map.is_covered(space.lookup("decoder", "op_sub", true).unwrap()));
        assert!(map.is_covered(space.lookup("decoder", "arith_rd_is_x0", true).unwrap()));
        assert!(map.is_covered(space.lookup("decoder", "arith_rs1_eq_rs2", true).unwrap()));
        assert!(map.is_covered(space.lookup("decoder", "arith_imm_negative", false).unwrap()));
        assert_eq!(decoder.decoded_count(), 1);
    }

    #[test]
    fn illegal_words_map_to_major_opcode_buckets() {
        let (space, mut decoder) = setup(0);
        let mut map = CoverageMap::for_space(&space);
        decoder.on_illegal(0xffff_ffff, &mut map);
        decoder.on_illegal(0x0000_0000, &mut map);
        let covered: Vec<_> = (0..8)
            .filter(|b| {
                map.is_covered(space.lookup("decoder", &format!("illegal_major{b}"), true).unwrap())
            })
            .collect();
        assert_eq!(covered.len(), 2);
    }

    #[test]
    fn depth_points_need_long_instruction_runs() {
        let (space, mut decoder) = setup(3);
        let mut map = CoverageMap::for_space(&space);
        let instr = Instr::nop();
        for _ in 0..7 {
            decoder.on_decode(&instr, &mut map);
        }
        assert!(!map.is_covered(space.lookup("decoder", "decode_depth_8", true).unwrap()));
        decoder.on_decode(&instr, &mut map);
        assert!(map.is_covered(space.lookup("decoder", "decode_depth_8", true).unwrap()));
        assert!(!map.is_covered(space.lookup("decoder", "decode_depth_16", true).unwrap()));
        decoder.reset();
        assert_eq!(decoder.decoded_count(), 0);
    }

    #[test]
    fn unreachable_sites_exist_but_are_never_covered() {
        let (space, mut decoder) = setup(0);
        let mut map = CoverageMap::for_space(&space);
        for op in Op::ALL {
            let instr = Instr { op, rd: Gpr::A0, rs1: Gpr::A1, rs2: Gpr::A2, imm: -4 }.normalize();
            decoder.on_decode(&instr, &mut map);
        }
        assert!(!map.is_covered(space.lookup("decoder", "rvc_quadrant0", true).unwrap()));
        assert!(!map.is_covered(space.lookup("decoder", "smode_csr", true).unwrap()));
    }

    #[test]
    fn every_op_covers_exactly_its_named_points() {
        let (space, mut decoder) = setup(0);
        let point = |site: String, direction| space.lookup("decoder", &site, direction).unwrap();
        for op in Op::ALL {
            let instr =
                Instr { op, rd: Gpr::Zero, rs1: Gpr::A1, rs2: Gpr::A2, imm: -4 }.normalize();
            let mut map = CoverageMap::for_space(&space);
            decoder.on_decode(&instr, &mut map);
            for other in Op::ALL {
                let site = format!("op_{}", other.mnemonic());
                let same_class = other != op && other.class() == op.class();
                let seen = map.is_covered(point(site.clone(), true));
                assert_eq!(seen, other == op, "{op:?}: {site}");
                let other_seen = map.is_covered(point(site.clone(), false));
                assert_eq!(other_seen, same_class, "{op:?}: {site}");
            }
            for class in OpClass::ALL {
                let crosses = [
                    (format!("{class}_rd_is_x0"), instr.rd.is_zero()),
                    (format!("{class}_rs1_eq_rs2"), instr.rs1 == instr.rs2),
                    (format!("{class}_imm_negative"), instr.imm < 0),
                ];
                for (site, direction) in crosses {
                    let own = class == op.class();
                    let hit = map.is_covered(point(site.clone(), direction));
                    assert_eq!(hit, own, "{op:?}: {site}");
                    assert!(!map.is_covered(point(site.clone(), !direction)), "{op:?}: {site}");
                }
            }
        }
    }
}
