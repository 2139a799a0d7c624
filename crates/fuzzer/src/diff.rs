//! Differential testing: comparing the DUT's architectural trace against the
//! golden reference model.
//!
//! Like TheHuzz, the comparison happens at the granularity of committed
//! instructions (program counter, destination-register writeback, exception
//! behaviour, next PC and memory accesses) plus the final architectural state
//! (registers and the trap CSRs). Any difference is a *mismatch* and flags a
//! potential vulnerability.

use std::fmt;

use isa_sim::{ExecTrace, HaltReason};
use riscv::{CsrAddr, Gpr};
use serde::{Deserialize, Serialize};

/// The aspect of architectural state a mismatch was observed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MismatchKind {
    /// Destination register or written value differs.
    Writeback,
    /// One side raised an exception the other did not, or the causes differ.
    Exception,
    /// Control flow diverged (different next program counter).
    ControlFlow,
    /// The retired-instruction counters diverged (only observable through an
    /// explicit counter read in the test program).
    InstructionCount,
    /// A data-memory access differs (address, width or value).
    MemoryAccess,
    /// The runs halted for different reasons or after different lengths.
    Termination,
    /// A general-purpose register differs in the final state.
    FinalRegister,
    /// A CSR differs in the final state.
    FinalCsr,
}

impl fmt::Display for MismatchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            MismatchKind::Writeback => "register writeback",
            MismatchKind::Exception => "exception behaviour",
            MismatchKind::ControlFlow => "control flow",
            MismatchKind::InstructionCount => "retired-instruction count",
            MismatchKind::MemoryAccess => "memory access",
            MismatchKind::Termination => "termination",
            MismatchKind::FinalRegister => "final register state",
            MismatchKind::FinalCsr => "final CSR state",
        };
        f.write_str(text)
    }
}

/// One observed difference between the DUT and the golden model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mismatch {
    /// What kind of state diverged.
    pub kind: MismatchKind,
    /// Commit sequence number at which the divergence was observed
    /// (`None` for final-state mismatches).
    pub seq: Option<u64>,
    /// Program counter of the diverging instruction, when applicable.
    pub pc: Option<u64>,
    /// Human-readable description with both sides' values.
    pub detail: String,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.seq, self.pc) {
            (Some(seq), Some(pc)) => write!(f, "[{seq} @ {pc:#x}] {}: {}", self.kind, self.detail),
            _ => write!(f, "[final] {}: {}", self.kind, self.detail),
        }
    }
}

/// The full comparison result for one test.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffReport {
    mismatches: Vec<Mismatch>,
}

impl DiffReport {
    /// Returns `true` when the DUT matched the golden model exactly.
    pub fn is_clean(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Returns the observed mismatches.
    pub fn mismatches(&self) -> &[Mismatch] {
        &self.mismatches
    }

    /// Returns the number of mismatches.
    pub fn len(&self) -> usize {
        self.mismatches.len()
    }

    /// Returns `true` when there are no mismatches.
    pub fn is_empty(&self) -> bool {
        self.mismatches.is_empty()
    }

    /// Returns the first mismatch, if any — what a triage engineer looks at
    /// first.
    pub fn first(&self) -> Option<&Mismatch> {
        self.mismatches.first()
    }

    /// Returns `true` when any mismatch is of the given kind.
    pub fn has_kind(&self, kind: MismatchKind) -> bool {
        self.mismatches.iter().any(|m| m.kind == kind)
    }

    /// Removes every recorded mismatch, keeping the allocation (for report
    /// reuse across tests).
    pub fn clear(&mut self) {
        self.mismatches.clear();
    }

    fn push(&mut self, kind: MismatchKind, seq: Option<u64>, pc: Option<u64>, detail: String) {
        self.mismatches.push(Mismatch { kind, seq, pc, detail });
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("no mismatches");
        }
        writeln!(f, "{} mismatches:", self.len())?;
        for mismatch in &self.mismatches {
            writeln!(f, "  {mismatch}")?;
        }
        Ok(())
    }
}

/// The CSRs included in the final-state comparison.
///
/// The performance counters (`minstret`, `mcycle`) are deliberately *not*
/// compared here: like the trace-log comparison of TheHuzz, counter state is
/// only observable when the test program explicitly reads it through a CSR
/// instruction (the read value is then compared as a register writeback).
/// This is what makes the V7 vulnerability — `ebreak` not bumping the
/// instruction count — a deep bug that needs an `ebreak` *and* a later
/// counter read in the same test, as in the paper.
const COMPARED_CSRS: [CsrAddr; 4] =
    [CsrAddr::MCAUSE, CsrAddr::MEPC, CsrAddr::MTVAL, CsrAddr::MSCRATCH];

/// Compares a DUT trace against the golden trace for the same program.
pub fn compare_traces(dut: &ExecTrace, golden: &ExecTrace) -> DiffReport {
    let mut report = DiffReport::default();
    compare_traces_into(dut, golden, &mut report);
    report
}

/// Compares a DUT trace against the golden trace into a caller-owned report,
/// reusing its allocation.
///
/// A clean comparison — the overwhelmingly common case while fuzzing —
/// touches no heap at all; mismatch details are only formatted when a
/// divergence is found.
pub fn compare_traces_into(dut: &ExecTrace, golden: &ExecTrace, report: &mut DiffReport) {
    report.clear();

    for (d, g) in dut.commits().iter().zip(golden.commits()) {
        let seq = Some(g.seq);
        let pc = Some(g.pc);
        if d.writeback != g.writeback {
            report.push(
                MismatchKind::Writeback,
                seq,
                pc,
                format!("dut wrote {:?}, golden wrote {:?}", d.writeback, g.writeback),
            );
        }
        if d.exception != g.exception {
            report.push(
                MismatchKind::Exception,
                seq,
                pc,
                format!("dut raised {:?}, golden raised {:?}", d.exception, g.exception),
            );
        }
        if d.next_pc != g.next_pc {
            report.push(
                MismatchKind::ControlFlow,
                seq,
                pc,
                format!("dut continues at {:#x}, golden at {:#x}", d.next_pc, g.next_pc),
            );
        }
        if d.mem != g.mem {
            report.push(
                MismatchKind::MemoryAccess,
                seq,
                pc,
                format!("dut access {:?}, golden access {:?}", d.mem, g.mem),
            );
        }
    }

    if dut.len() != golden.len() || dut.halt_reason() != golden.halt_reason() {
        report.push(
            MismatchKind::Termination,
            None,
            None,
            format!(
                "dut committed {} instructions and halted on {}, golden committed {} and halted on {}",
                dut.len(),
                dut.halt_reason(),
                golden.len(),
                golden.halt_reason()
            ),
        );
    }

    let dut_state = dut.final_state();
    let golden_state = golden.final_state();
    for index in 0..32u8 {
        let gpr = Gpr::from_index(index);
        if dut_state.reg(gpr) != golden_state.reg(gpr) {
            report.push(
                MismatchKind::FinalRegister,
                None,
                None,
                format!(
                    "{} is {:#x} on the dut but {:#x} on the golden model",
                    gpr,
                    dut_state.reg(gpr),
                    golden_state.reg(gpr)
                ),
            );
        }
    }
    for csr in COMPARED_CSRS {
        if dut_state.csr(csr) != golden_state.csr(csr) {
            report.push(
                MismatchKind::FinalCsr,
                None,
                None,
                format!(
                    "{} is {:#x} on the dut but {:#x} on the golden model",
                    csr,
                    dut_state.csr(csr),
                    golden_state.csr(csr)
                ),
            );
        }
    }
}

/// Returns `true` when the two halting reasons are equal (convenience for
/// callers that only need a cheap sanity check).
pub fn same_halt(dut: HaltReason, golden: HaltReason) -> bool {
    dut == golden
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_sim::GoldenSim;
    use proc_sim::{cores::Cva6Core, cores::RocketCore, BugSet, Processor, Vulnerability};
    use riscv::asm::parse_program;
    use riscv::Program;

    fn program(asm: &str) -> Program {
        Program::from_instrs(parse_program(asm).expect("valid asm"))
    }

    fn run_both(core: &dyn Processor, prog: &Program) -> DiffReport {
        let golden = GoldenSim::new().run(prog, 500);
        let dut = core.run(prog, 500);
        compare_traces(&dut.trace, &golden)
    }

    #[test]
    fn bug_free_core_produces_a_clean_report() {
        let core = Cva6Core::new(BugSet::none());
        let prog = program(
            "lui gp, 0x80010\naddi a0, zero, 9\nsd a0, 0(gp)\nld a1, 0(gp)\nmul a2, a1, a1\nebreak\necall\n",
        );
        let report = run_both(&core, &prog);
        assert!(report.is_clean(), "unexpected mismatches: {report}");
        assert_eq!(report.to_string(), "no mismatches");
    }

    #[test]
    fn identical_traces_compare_equal() {
        let prog = program("addi a0, zero, 1\necall\n");
        let golden = GoldenSim::new().run(&prog, 100);
        let report = compare_traces(&golden, &golden);
        assert!(report.is_clean());
    }

    #[test]
    fn v1_is_detected_as_an_exception_mismatch() {
        let core = Cva6Core::new(BugSet::only(Vulnerability::V1FenceiDecode));
        let report = run_both(&core, &program("fence.i\necall\n"));
        assert!(!report.is_clean());
        assert!(report.has_kind(MismatchKind::Exception));
    }

    #[test]
    fn v5_is_detected_when_a_wild_load_executes() {
        let core = Cva6Core::new(BugSet::only(Vulnerability::V5MissingAccessFault));
        let report = run_both(&core, &program("addi t0, zero, 64\nld a0, 0(t0)\necall\n"));
        assert!(report.has_kind(MismatchKind::Exception));
        assert!(report.has_kind(MismatchKind::Writeback));
    }

    #[test]
    fn v6_is_detected_as_a_writeback_mismatch() {
        let core = Cva6Core::new(BugSet::only(Vulnerability::V6UnimplCsrJunk));
        let report = run_both(&core, &program("csrrs a0, 0x5c0, zero\necall\n"));
        assert!(report.has_kind(MismatchKind::Writeback));
        assert!(report.has_kind(MismatchKind::FinalRegister));
    }

    #[test]
    fn v7_is_detected_when_the_counter_is_read_after_an_ebreak() {
        let core = RocketCore::new(BugSet::only(Vulnerability::V7EbreakInstret));
        let report = run_both(&core, &program("ebreak\ncsrrs a0, minstret, zero\necall\n"));
        assert!(report.has_kind(MismatchKind::Writeback), "the counter read exposes the bug");
        assert!(report.has_kind(MismatchKind::FinalRegister));
    }

    #[test]
    fn v7_is_not_detected_without_a_counter_read() {
        let core = RocketCore::new(BugSet::only(Vulnerability::V7EbreakInstret));
        // An ebreak alone is not enough: the architectural trace (writebacks,
        // exceptions, control flow) is identical; only the counter differs and
        // nothing reads it.
        let report = run_both(&core, &program("ebreak\naddi a0, zero, 1\necall\n"));
        assert!(report.is_clean(), "the bug needs a counter read to manifest: {report}");
        let no_ebreak = run_both(&core, &program("addi a0, zero, 1\nadd a1, a0, a0\necall\n"));
        assert!(no_ebreak.is_clean());
    }

    #[test]
    fn report_display_lists_every_mismatch() {
        let core = Cva6Core::new(BugSet::only(Vulnerability::V6UnimplCsrJunk));
        let report = run_both(&core, &program("csrrs a0, 0x5c0, zero\necall\n"));
        let text = report.to_string();
        assert!(text.contains("mismatches:"));
        assert!(text.lines().count() >= 2);
        assert!(same_halt(HaltReason::Ecall, HaltReason::Ecall));
    }
}
