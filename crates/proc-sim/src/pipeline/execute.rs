//! Execute-stage model: ALU, multiplier/divider and branch-unit coverage.

use coverage::{CoverPointId, CoverageMap, CoverageSpace};
use riscv::{Instr, Op, OpClass};

/// Execute-unit model.
///
/// Coverage points:
/// * per-class result properties (zero / negative / all-ones results),
/// * adder carry/overflow events,
/// * shifter amount buckets (0, 1–7, 8–31, 32–63),
/// * multiplier operand sign crosses and high-half-non-zero events,
/// * divider special cases (divide-by-zero, signed overflow, exact division),
/// * branch-comparator equal/less cross outcomes.
#[derive(Debug, Clone)]
pub struct ExecuteModel {
    // Indexed by `OpClass::index()`.
    result_zero: Vec<(CoverPointId, CoverPointId)>,
    result_negative: Vec<(CoverPointId, CoverPointId)>,
    adder_overflow: (CoverPointId, CoverPointId),
    shift_buckets: Vec<CoverPointId>,
    mul_sign_cross: Vec<CoverPointId>,
    mul_high_nonzero: (CoverPointId, CoverPointId),
    div_by_zero: (CoverPointId, CoverPointId),
    div_overflow: (CoverPointId, CoverPointId),
    div_exact: (CoverPointId, CoverPointId),
    cmp_equal: (CoverPointId, CoverPointId),
    cmp_signed_less: (CoverPointId, CoverPointId),
}

impl ExecuteModel {
    /// Creates an execute model and registers its coverage points.
    pub fn new(space: &mut CoverageSpace) -> ExecuteModel {
        let module = "execute";
        let mut result_zero = Vec::new();
        let mut result_negative = Vec::new();
        for class in OpClass::ALL {
            result_zero.push(space.register_site(module, format!("{class}_result_zero")));
            result_negative.push(space.register_site(module, format!("{class}_result_negative")));
        }
        let adder_overflow = space.register_site(module, "adder_overflow");
        let shift_buckets = (0..4)
            .map(|i| space.register_branch(module, format!("shift_amount_bucket{i}"), true))
            .collect();
        let mul_sign_cross = (0..4)
            .map(|i| space.register_branch(module, format!("mul_sign_cross{i}"), true))
            .collect();
        let mul_high_nonzero = space.register_site(module, "mul_high_nonzero");
        let div_by_zero = space.register_site(module, "div_by_zero");
        let div_overflow = space.register_site(module, "div_overflow");
        let div_exact = space.register_site(module, "div_exact");
        let cmp_equal = space.register_site(module, "cmp_equal");
        let cmp_signed_less = space.register_site(module, "cmp_signed_less");
        ExecuteModel {
            result_zero,
            result_negative,
            adder_overflow,
            shift_buckets,
            mul_sign_cross,
            mul_high_nonzero,
            div_by_zero,
            div_overflow,
            div_exact,
            cmp_equal,
            cmp_signed_less,
        }
    }

    /// No per-test state; present for interface symmetry with the other
    /// components.
    pub fn reset(&mut self) {}

    /// Records the execution of an instruction given its source operand
    /// values and its result (the destination write-back value, if any).
    pub fn on_execute(
        &self,
        instr: &Instr,
        rs1: u64,
        rs2: u64,
        result: Option<u64>,
        map: &mut CoverageMap,
    ) {
        let class = instr.op.class().index();
        if let Some(value) = result {
            let (zero_t, zero_f) = self.result_zero[class];
            map.cover(if value == 0 { zero_t } else { zero_f });
            let (neg_t, neg_f) = self.result_negative[class];
            map.cover(if (value as i64) < 0 { neg_t } else { neg_f });
        }

        match instr.op {
            Op::Add | Op::Addi | Op::Addw | Op::Addiw | Op::Sub | Op::Subw => {
                let b = if matches!(instr.op, Op::Addi | Op::Addiw) { instr.imm as u64 } else { rs2 };
                let (sum, carry) = rs1.overflowing_add(b);
                let overflow = carry || ((rs1 as i64).checked_add(b as i64)).is_none();
                let _ = sum;
                let (t, f) = self.adder_overflow;
                map.cover(if overflow { t } else { f });
            }
            Op::Sll | Op::Srl | Op::Sra | Op::Slli | Op::Srli | Op::Srai | Op::Sllw | Op::Srlw
            | Op::Sraw | Op::Slliw | Op::Srliw | Op::Sraiw => {
                let amount = if matches!(instr.op.format(), riscv::op::Format::IShift) {
                    instr.imm as u64
                } else {
                    rs2 & 0x3f
                };
                let bucket = match amount {
                    0 => 0,
                    1..=7 => 1,
                    8..=31 => 2,
                    _ => 3,
                };
                map.cover(self.shift_buckets[bucket]);
            }
            Op::Mul | Op::Mulh | Op::Mulhsu | Op::Mulhu | Op::Mulw => {
                let cross = (usize::from((rs1 as i64) < 0) << 1) | usize::from((rs2 as i64) < 0);
                map.cover(self.mul_sign_cross[cross]);
                let wide = (rs1 as u128).wrapping_mul(rs2 as u128);
                let (t, f) = self.mul_high_nonzero;
                map.cover(if (wide >> 64) != 0 { t } else { f });
            }
            Op::Div | Op::Divu | Op::Rem | Op::Remu | Op::Divw | Op::Divuw | Op::Remw | Op::Remuw => {
                let (zero_t, zero_f) = self.div_by_zero;
                map.cover(if rs2 == 0 { zero_t } else { zero_f });
                let (ovf_t, ovf_f) = self.div_overflow;
                let overflow = rs1 == i64::MIN as u64 && rs2 as i64 == -1;
                map.cover(if overflow { ovf_t } else { ovf_f });
                if rs2 != 0 {
                    let (exact_t, exact_f) = self.div_exact;
                    map.cover(if rs1.is_multiple_of(rs2) { exact_t } else { exact_f });
                }
            }
            Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu | Op::Slt | Op::Sltu
            | Op::Slti | Op::Sltiu => {
                let b = if matches!(instr.op, Op::Slti | Op::Sltiu) { instr.imm as u64 } else { rs2 };
                let (eq_t, eq_f) = self.cmp_equal;
                map.cover(if rs1 == b { eq_t } else { eq_f });
                let (lt_t, lt_f) = self.cmp_signed_less;
                map.cover(if (rs1 as i64) < (b as i64) { lt_t } else { lt_f });
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv::Gpr;

    fn setup() -> (CoverageSpace, ExecuteModel) {
        let mut space = CoverageSpace::new("test");
        let exec = ExecuteModel::new(&mut space);
        (space, exec)
    }

    #[test]
    fn registers_expected_number_of_points() {
        let (space, _exec) = setup();
        // 10 classes × 2 sites × 2 + overflow 2 + 4 shift + 4 mul cross
        // + mul high 2 + div 3×2 + cmp 2×2.
        assert_eq!(space.len(), 40 + 2 + 4 + 4 + 2 + 6 + 4);
    }

    #[test]
    fn zero_and_negative_results_cover_their_points() {
        let (space, exec) = setup();
        let mut map = CoverageMap::for_space(&space);
        let sub = Instr::rtype(Op::Sub, Gpr::A0, Gpr::A1, Gpr::A1);
        exec.on_execute(&sub, 5, 5, Some(0), &mut map);
        assert!(map.is_covered(space.lookup("execute", "arith_result_zero", true).unwrap()));
        exec.on_execute(&sub, 0, 5, Some((-5i64) as u64), &mut map);
        assert!(map.is_covered(space.lookup("execute", "arith_result_negative", true).unwrap()));
    }

    #[test]
    fn divider_special_cases() {
        let (space, exec) = setup();
        let mut map = CoverageMap::for_space(&space);
        let div = Instr::rtype(Op::Div, Gpr::A0, Gpr::A1, Gpr::A2);
        exec.on_execute(&div, 10, 0, Some(u64::MAX), &mut map);
        assert!(map.is_covered(space.lookup("execute", "div_by_zero", true).unwrap()));
        exec.on_execute(&div, i64::MIN as u64, (-1i64) as u64, Some(i64::MIN as u64), &mut map);
        assert!(map.is_covered(space.lookup("execute", "div_overflow", true).unwrap()));
        exec.on_execute(&div, 12, 4, Some(3), &mut map);
        assert!(map.is_covered(space.lookup("execute", "div_exact", true).unwrap()));
    }

    #[test]
    fn shift_amounts_are_bucketed() {
        let (space, exec) = setup();
        let mut map = CoverageMap::for_space(&space);
        let slli = Instr::itype(Op::Slli, Gpr::A0, Gpr::A1, 40);
        exec.on_execute(&slli, 1, 0, Some(1 << 40), &mut map);
        assert!(map.is_covered(space.lookup("execute", "shift_amount_bucket3", true).unwrap()));
        let small = Instr::itype(Op::Slli, Gpr::A0, Gpr::A1, 1);
        exec.on_execute(&small, 1, 0, Some(2), &mut map);
        assert!(map.is_covered(space.lookup("execute", "shift_amount_bucket1", true).unwrap()));
    }

    #[test]
    fn multiplier_sign_cross_and_high_half() {
        let (space, exec) = setup();
        let mut map = CoverageMap::for_space(&space);
        let mul = Instr::rtype(Op::Mulhu, Gpr::A0, Gpr::A1, Gpr::A2);
        exec.on_execute(&mul, u64::MAX, u64::MAX, Some(u64::MAX - 1), &mut map);
        // Both operands negative as i64 → cross index 3; high half non-zero.
        assert!(map.is_covered(space.lookup("execute", "mul_sign_cross3", true).unwrap()));
        assert!(map.is_covered(space.lookup("execute", "mul_high_nonzero", true).unwrap()));
        exec.on_execute(&mul, 2, 3, Some(0), &mut map);
        assert!(map.is_covered(space.lookup("execute", "mul_sign_cross0", true).unwrap()));
        assert!(map.is_covered(space.lookup("execute", "mul_high_nonzero", false).unwrap()));
    }

    #[test]
    fn comparator_cross_outcomes() {
        let (space, exec) = setup();
        let mut map = CoverageMap::for_space(&space);
        let blt = Instr::branch(Op::Blt, Gpr::A0, Gpr::A1, 8);
        exec.on_execute(&blt, 1, 1, None, &mut map);
        assert!(map.is_covered(space.lookup("execute", "cmp_equal", true).unwrap()));
        exec.on_execute(&blt, (-3i64) as u64, 7, None, &mut map);
        assert!(map.is_covered(space.lookup("execute", "cmp_signed_less", true).unwrap()));
    }

    #[test]
    fn every_class_hits_its_named_result_points() {
        let (space, exec) = setup();
        let point = |site: String, direction| space.lookup("execute", &site, direction).unwrap();
        for class in OpClass::ALL {
            let op = Op::of_class(class).next().expect("every class has an op");
            let instr = Instr { op, rd: Gpr::A0, rs1: Gpr::A1, rs2: Gpr::A2, imm: 0 }.normalize();
            let mut map = CoverageMap::for_space(&space);
            exec.on_execute(&instr, 1, 2, Some(0), &mut map);
            exec.on_execute(&instr, 1, 2, Some((-1i64) as u64), &mut map);
            for other in OpClass::ALL {
                for site in [format!("{other}_result_zero"), format!("{other}_result_negative")] {
                    for direction in [true, false] {
                        let hit = map.is_covered(point(site.clone(), direction));
                        assert_eq!(hit, other == class, "{op:?}: {site} {direction}");
                    }
                }
            }
        }
    }
}
