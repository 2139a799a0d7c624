//! Operation mnemonics and their static metadata.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The encoding format of an instruction, as defined by the RISC-V
/// unprivileged specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Format {
    /// Register-register operations (`add rd, rs1, rs2`).
    R,
    /// Register-immediate operations and loads (`addi rd, rs1, imm`).
    I,
    /// Shift-immediate operations; like `I` but the immediate is a 6-bit shamt.
    IShift,
    /// Stores (`sd rs2, imm(rs1)`).
    S,
    /// Conditional branches (`beq rs1, rs2, offset`).
    B,
    /// Upper-immediate operations (`lui rd, imm`).
    U,
    /// Unconditional jumps (`jal rd, offset`).
    J,
    /// CSR accesses with a register source (`csrrw rd, csr, rs1`).
    Csr,
    /// CSR accesses with an immediate source (`csrrwi rd, csr, uimm`).
    CsrImm,
    /// Memory fences (`fence`, `fence.i`).
    Fence,
    /// System instructions without operands (`ecall`, `ebreak`, `mret`, `wfi`).
    System,
}

/// A coarse functional class, used by the seed generator to weight opcode
/// selection and by the coverage model to group decoder coverage points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum OpClass {
    /// Register-register and register-immediate integer arithmetic/logic.
    Arith,
    /// Multiply instructions from the M extension.
    Mul,
    /// Divide/remainder instructions from the M extension.
    Div,
    /// Memory loads.
    Load,
    /// Memory stores.
    Store,
    /// Conditional branches.
    Branch,
    /// Unconditional jumps (`jal`, `jalr`).
    Jump,
    /// CSR read/write instructions.
    Csr,
    /// Environment/system instructions (`ecall`, `ebreak`, `mret`, `wfi`).
    System,
    /// Memory ordering instructions (`fence`, `fence.i`).
    Fence,
}

impl OpClass {
    /// Every class, in a stable order.
    pub const ALL: [OpClass; 10] = [
        OpClass::Arith,
        OpClass::Mul,
        OpClass::Div,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::Jump,
        OpClass::Csr,
        OpClass::System,
        OpClass::Fence,
    ];

    /// Returns the class's declaration ordinal, its position in
    /// [`OpClass::ALL`]. Dense per-class tables are indexed by it.
    pub const fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            OpClass::Arith => "arith",
            OpClass::Mul => "mul",
            OpClass::Div => "div",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::Jump => "jump",
            OpClass::Csr => "csr",
            OpClass::System => "system",
            OpClass::Fence => "fence",
        };
        f.write_str(name)
    }
}

macro_rules! ops {
    ($( $variant:ident => ($mnemonic:expr, $format:ident, $class:ident) ),+ $(,)?) => {
        /// A RISC-V operation mnemonic (RV64IM + Zicsr + machine-mode system
        /// instructions).
        ///
        /// `Op` carries no operands; see [`Instr`](crate::Instr) for a full
        /// instruction. Static per-operation metadata (encoding format and
        /// functional class) is available through [`Op::format`] and
        /// [`Op::class`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
        #[allow(missing_docs)]
        pub enum Op {
            $( $variant, )+
        }

        impl Op {
            /// Every operation, in a stable order.
            pub const ALL: [Op; ops!(@count $($variant)+)] = [ $( Op::$variant, )+ ];

            /// Returns the operation's declaration ordinal, its position in
            /// [`Op::ALL`]. Dense per-operation tables are indexed by it.
            pub const fn index(self) -> usize {
                self as usize
            }

            /// Returns the assembly mnemonic, e.g. `"addw"` or `"fence.i"`.
            pub fn mnemonic(self) -> &'static str {
                match self {
                    $( Op::$variant => $mnemonic, )+
                }
            }

            /// Returns the encoding [`Format`] of the operation.
            pub fn format(self) -> Format {
                match self {
                    $( Op::$variant => Format::$format, )+
                }
            }

            /// Returns the functional [`OpClass`] of the operation.
            pub fn class(self) -> OpClass {
                match self {
                    $( Op::$variant => OpClass::$class, )+
                }
            }

            /// Parses an assembly mnemonic back into an operation.
            pub fn parse(mnemonic: &str) -> Option<Op> {
                match mnemonic {
                    $( $mnemonic => Some(Op::$variant), )+
                    _ => None,
                }
            }
        }
    };
    (@count $($x:ident)+) => { 0usize $( + { let _ = stringify!($x); 1 } )+ };
}

ops! {
    // RV64I upper-immediate / jumps
    Lui => ("lui", U, Arith),
    Auipc => ("auipc", U, Arith),
    Jal => ("jal", J, Jump),
    Jalr => ("jalr", I, Jump),
    // Conditional branches
    Beq => ("beq", B, Branch),
    Bne => ("bne", B, Branch),
    Blt => ("blt", B, Branch),
    Bge => ("bge", B, Branch),
    Bltu => ("bltu", B, Branch),
    Bgeu => ("bgeu", B, Branch),
    // Loads
    Lb => ("lb", I, Load),
    Lh => ("lh", I, Load),
    Lw => ("lw", I, Load),
    Ld => ("ld", I, Load),
    Lbu => ("lbu", I, Load),
    Lhu => ("lhu", I, Load),
    Lwu => ("lwu", I, Load),
    // Stores
    Sb => ("sb", S, Store),
    Sh => ("sh", S, Store),
    Sw => ("sw", S, Store),
    Sd => ("sd", S, Store),
    // Register-immediate arithmetic
    Addi => ("addi", I, Arith),
    Slti => ("slti", I, Arith),
    Sltiu => ("sltiu", I, Arith),
    Xori => ("xori", I, Arith),
    Ori => ("ori", I, Arith),
    Andi => ("andi", I, Arith),
    Slli => ("slli", IShift, Arith),
    Srli => ("srli", IShift, Arith),
    Srai => ("srai", IShift, Arith),
    // Register-register arithmetic
    Add => ("add", R, Arith),
    Sub => ("sub", R, Arith),
    Sll => ("sll", R, Arith),
    Slt => ("slt", R, Arith),
    Sltu => ("sltu", R, Arith),
    Xor => ("xor", R, Arith),
    Srl => ("srl", R, Arith),
    Sra => ("sra", R, Arith),
    Or => ("or", R, Arith),
    And => ("and", R, Arith),
    // RV64 word-width arithmetic
    Addiw => ("addiw", I, Arith),
    Slliw => ("slliw", IShift, Arith),
    Srliw => ("srliw", IShift, Arith),
    Sraiw => ("sraiw", IShift, Arith),
    Addw => ("addw", R, Arith),
    Subw => ("subw", R, Arith),
    Sllw => ("sllw", R, Arith),
    Srlw => ("srlw", R, Arith),
    Sraw => ("sraw", R, Arith),
    // M extension
    Mul => ("mul", R, Mul),
    Mulh => ("mulh", R, Mul),
    Mulhsu => ("mulhsu", R, Mul),
    Mulhu => ("mulhu", R, Mul),
    Div => ("div", R, Div),
    Divu => ("divu", R, Div),
    Rem => ("rem", R, Div),
    Remu => ("remu", R, Div),
    Mulw => ("mulw", R, Mul),
    Divw => ("divw", R, Div),
    Divuw => ("divuw", R, Div),
    Remw => ("remw", R, Div),
    Remuw => ("remuw", R, Div),
    // Zicsr
    Csrrw => ("csrrw", Csr, Csr),
    Csrrs => ("csrrs", Csr, Csr),
    Csrrc => ("csrrc", Csr, Csr),
    Csrrwi => ("csrrwi", CsrImm, Csr),
    Csrrsi => ("csrrsi", CsrImm, Csr),
    Csrrci => ("csrrci", CsrImm, Csr),
    // Fences
    Fence => ("fence", Fence, Fence),
    FenceI => ("fence.i", Fence, Fence),
    // System
    Ecall => ("ecall", System, System),
    Ebreak => ("ebreak", System, System),
    Mret => ("mret", System, System),
    Wfi => ("wfi", System, System),
}

impl Op {
    /// Returns `true` when the operation writes a destination register.
    pub fn writes_rd(self) -> bool {
        !matches!(
            self.format(),
            Format::S | Format::B | Format::Fence | Format::System
        )
    }

    /// Returns `true` when the operation reads its `rs1` field.
    pub fn reads_rs1(self) -> bool {
        !matches!(
            self.format(),
            Format::U | Format::J | Format::CsrImm | Format::Fence | Format::System
        )
    }

    /// Returns `true` when the operation reads its `rs2` field.
    pub fn reads_rs2(self) -> bool {
        matches!(self.format(), Format::R | Format::S | Format::B)
    }

    /// Returns `true` when the operation may transfer control (branches,
    /// jumps, traps and `mret`).
    pub fn is_control_flow(self) -> bool {
        matches!(self.class(), OpClass::Branch | OpClass::Jump)
            || matches!(self, Op::Ecall | Op::Ebreak | Op::Mret)
    }

    /// Returns `true` when the operation accesses data memory.
    pub fn is_memory(self) -> bool {
        matches!(self.class(), OpClass::Load | OpClass::Store)
    }

    /// Returns the access width, in bytes, of a load or store, or `None` for
    /// other operations.
    pub fn memory_width(self) -> Option<u8> {
        Some(match self {
            Op::Lb | Op::Lbu | Op::Sb => 1,
            Op::Lh | Op::Lhu | Op::Sh => 2,
            Op::Lw | Op::Lwu | Op::Sw => 4,
            Op::Ld | Op::Sd => 8,
            _ => return None,
        })
    }

    /// Returns all operations belonging to `class`.
    pub fn of_class(class: OpClass) -> impl Iterator<Item = Op> {
        Op::ALL.iter().copied().filter(move |op| op.class() == class)
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_ops_have_unique_mnemonics() {
        let mnemonics: HashSet<_> = Op::ALL.iter().map(|op| op.mnemonic()).collect();
        assert_eq!(mnemonics.len(), Op::ALL.len());
    }

    #[test]
    fn mnemonic_parse_round_trip() {
        for op in Op::ALL {
            assert_eq!(Op::parse(op.mnemonic()), Some(op), "{op:?}");
        }
        assert_eq!(Op::parse("frobnicate"), None);
    }

    #[test]
    fn ordinals_are_positions_in_all() {
        for (i, op) in Op::ALL.into_iter().enumerate() {
            assert_eq!(op.index(), i, "{op:?}");
        }
        for (i, class) in OpClass::ALL.into_iter().enumerate() {
            assert_eq!(class.index(), i, "{class:?}");
        }
    }

    #[test]
    fn every_class_has_members() {
        for class in OpClass::ALL {
            assert!(Op::of_class(class).count() > 0, "{class:?} has no ops");
        }
    }

    #[test]
    fn operand_usage_matches_format() {
        assert!(Op::Add.writes_rd() && Op::Add.reads_rs1() && Op::Add.reads_rs2());
        assert!(Op::Sd.reads_rs2() && !Op::Sd.writes_rd());
        assert!(Op::Beq.reads_rs1() && Op::Beq.reads_rs2() && !Op::Beq.writes_rd());
        assert!(Op::Lui.writes_rd() && !Op::Lui.reads_rs1());
        assert!(Op::Csrrwi.writes_rd() && !Op::Csrrwi.reads_rs1());
        assert!(!Op::Ecall.writes_rd() && !Op::Ecall.reads_rs1());
    }

    #[test]
    fn memory_widths() {
        assert_eq!(Op::Lb.memory_width(), Some(1));
        assert_eq!(Op::Sh.memory_width(), Some(2));
        assert_eq!(Op::Lwu.memory_width(), Some(4));
        assert_eq!(Op::Sd.memory_width(), Some(8));
        assert_eq!(Op::Add.memory_width(), None);
    }

    #[test]
    fn control_flow_classification() {
        assert!(Op::Jal.is_control_flow());
        assert!(Op::Beq.is_control_flow());
        assert!(Op::Ecall.is_control_flow());
        assert!(Op::Mret.is_control_flow());
        assert!(!Op::Add.is_control_flow());
        assert!(!Op::Fence.is_control_flow());
    }

    #[test]
    fn instruction_count_covers_rv64im_zicsr() {
        // 49 RV64I + 13 M + 6 Zicsr + 2 fences + 4 system. The exact total
        // guards against accidentally dropping variants during refactors.
        assert_eq!(Op::ALL.len(), 74);
    }
}
