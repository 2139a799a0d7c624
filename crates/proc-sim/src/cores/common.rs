//! The shared core driver all three processor models instantiate.

use coverage::{CoverPointId, CoverageMap, CoverageSpace};
use isa_sim::exec::{execute_instr, InstrOutcome};
use isa_sim::{
    ArchState, CommitRecord, DecodedProgram, Exception, HaltReason, MemAccess, Memory,
    ResetPolicy, PHYS_ADDR_MASK,
};
use riscv::op::Format;
use riscv::program::TEXT_BASE;
use riscv::{decode, Gpr, Instr, Op, OpClass, Program};

use crate::bugs::{BugSet, Vulnerability};
use crate::pipeline::{
    bucket, CacheModel, CsrFileModel, DecoderModel, ExecuteModel, FrontendModel, LsuModel,
    RobModel, ScoreboardModel,
};
use crate::{DutResult, Processor, SimScratch};

/// The back-end organisation of a core.
#[derive(Debug, Clone)]
pub enum Backend {
    /// In-order issue with a scoreboard (Rocket, CVA6).
    Scoreboard(ScoreboardModel),
    /// Out-of-order issue with a re-order buffer (BOOM).
    Rob(RobModel),
}

impl Backend {
    fn reset(&mut self) {
        match self {
            Backend::Scoreboard(sb) => sb.reset(),
            Backend::Rob(rob) => rob.reset(),
        }
    }

    fn reset_dirty(&mut self) {
        match self {
            Backend::Scoreboard(sb) => sb.reset_dirty(),
            // The ROB's reset is already O(in-flight): it clears a VecDeque
            // and two counters, so it doubles as its own dirty reset.
            Backend::Rob(rob) => rob.reset(),
        }
    }

    fn on_instr(&mut self, instr: &Instr, map: &mut CoverageMap) {
        match self {
            Backend::Scoreboard(sb) => sb.on_issue(instr, map),
            Backend::Rob(rob) => rob.on_dispatch(instr, map),
        }
    }

    fn on_redirect(&mut self, map: &mut CoverageMap) {
        if let Backend::Rob(rob) = self {
            rob.on_flush(map);
        }
    }
}

/// Design-specific additional coverage sites.
///
/// These are the knobs that differentiate the reachability profile of the
/// three cores beyond their component sizes:
///
/// * `fpu_sites` — floating-point-unit decode sites. The modelled ISA has no
///   F/D instructions, so these are unreachable: they inflate the denominator
///   the way CVA6's FPU inflates its branch-point count without being
///   exercised by integer-only fuzzing.
/// * `commit_index_buckets` — points reached only once the test has committed
///   `16·i` instructions; long-running tests are needed to reach the tail.
/// * `class_depth_cross` — cross product of instruction class × commit-depth
///   bucket; the deep multiply/divide/CSR crosses need long tests *with* rare
///   classes late in the program, which is where seed selection matters most.
/// * `fetch_group_sites` — easy superscalar fetch-alignment points (BOOM).
#[derive(Debug, Clone)]
pub struct CoreExtras {
    fpu_ids: Vec<CoverPointId>,
    commit_bucket_ids: Vec<CoverPointId>,
    class_depth_ids: Vec<CoverPointId>,
    fetch_group_ids: Vec<CoverPointId>,
    class_depth_buckets: usize,
}

impl CoreExtras {
    /// Registers the extra sites in `space`.
    pub fn new(
        space: &mut CoverageSpace,
        fpu_sites: usize,
        commit_index_buckets: usize,
        class_depth_buckets: usize,
        fetch_group_sites: bool,
    ) -> CoreExtras {
        let module = "core_extra";
        let fpu_ids = (0..fpu_sites)
            .map(|i| space.register_branch(module, format!("fpu_op_{i}"), true))
            .collect();
        let commit_bucket_ids = (0..commit_index_buckets)
            .map(|i| space.register_branch(module, format!("committed_{}_instrs", 16 * (i + 1)), true))
            .collect();
        let mut class_depth_ids = Vec::new();
        for class in OpClass::ALL {
            for depth in 0..class_depth_buckets {
                class_depth_ids.push(space.register_branch(
                    module,
                    format!("{class}_at_depth_bucket{depth}"),
                    true,
                ));
            }
        }
        let fetch_group_ids = if fetch_group_sites {
            (0..4)
                .map(|i| space.register_branch(module, format!("fetch_group_slot{i}"), true))
                .collect()
        } else {
            Vec::new()
        };
        CoreExtras {
            fpu_ids,
            commit_bucket_ids,
            class_depth_ids,
            fetch_group_ids,
            class_depth_buckets,
        }
    }

    fn on_commit(&self, instr: &Instr, commit_index: usize, pc: u64, map: &mut CoverageMap) {
        // FPU sites are intentionally never covered (no F/D instructions).
        let _ = &self.fpu_ids;
        let bucket_index = commit_index / 16;
        if bucket_index >= 1 && bucket_index <= self.commit_bucket_ids.len() {
            map.cover(self.commit_bucket_ids[bucket_index - 1]);
        }
        if self.class_depth_buckets > 0 {
            let row = instr.op.class().index() * self.class_depth_buckets;
            map.cover(self.class_depth_ids[row + bucket(commit_index, self.class_depth_buckets)]);
        }
        if !self.fetch_group_ids.is_empty() {
            map.cover(self.fetch_group_ids[((pc >> 2) & 0b11) as usize]);
        }
    }
}

/// Sizing and structure parameters of a core model.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Design name (also the coverage-space name).
    pub name: &'static str,
    /// Branch-history-table entries.
    pub bht_entries: usize,
    /// Branch-target-buffer entries.
    pub btb_entries: usize,
    /// Instruction-cache sets (ways are fixed at 2).
    pub icache_sets: usize,
    /// Data-cache sets.
    pub dcache_sets: usize,
    /// Data-cache ways.
    pub dcache_ways: usize,
    /// Store-buffer entries.
    pub store_buffer: usize,
    /// Decoder consecutive-decode depth sites.
    pub decoder_depth_sites: usize,
    /// Number of unreachable FPU sites.
    pub fpu_sites: usize,
    /// Commit-index bucket sites.
    pub commit_index_buckets: usize,
    /// Class × depth cross buckets (0 disables the cross).
    pub class_depth_buckets: usize,
    /// Whether to add superscalar fetch-group sites.
    pub fetch_group_sites: bool,
    /// Scoreboard hazard-distance buckets (ignored for ROB back-ends).
    pub scoreboard_distance_buckets: usize,
    /// ROB entries (`0` selects a scoreboard back-end instead).
    pub rob_entries: usize,
    /// ROB issue lanes.
    pub rob_lanes: usize,
}

/// A complete processor model: configuration, coverage space, injected bugs
/// and the component templates cloned for every run.
#[derive(Debug, Clone)]
pub struct CoreModel {
    config: CoreConfig,
    bugs: BugSet,
    space: CoverageSpace,
    components: Components,
}

#[derive(Debug, Clone)]
struct Components {
    icache: CacheModel,
    frontend: FrontendModel,
    decoder: DecoderModel,
    execute: ExecuteModel,
    lsu: LsuModel,
    csrfile: CsrFileModel,
    backend: Backend,
    extras: CoreExtras,
}

/// The reusable component state a [`CoreModel`] parks inside a
/// [`SimScratch`] between runs: one clone of the component templates, tagged
/// with the design identity so a scratch handed to a different model is
/// detected and rebuilt instead of misused.
#[derive(Debug)]
pub(crate) struct ModelScratch {
    design: &'static str,
    space_len: usize,
    components: Components,
}

impl Components {
    fn reset(&mut self) {
        self.icache.reset();
        self.frontend.reset();
        self.decoder.reset();
        self.execute.reset();
        self.lsu.reset();
        self.csrfile.reset();
        self.backend.reset();
    }

    /// Like [`reset`](Components::reset), but each component restores only
    /// what the previous test dirtied (see `isa_sim::snapshot`). The decoder
    /// (one counter), execute unit (stateless) and CSR-file model (stateless)
    /// already have O(1) resets and keep them.
    fn reset_dirty(&mut self) {
        self.icache.reset_dirty();
        self.frontend.reset_dirty();
        self.decoder.reset();
        self.execute.reset();
        self.lsu.reset_dirty();
        self.csrfile.reset();
        self.backend.reset_dirty();
    }
}

impl CoreModel {
    /// Builds a core model from its configuration and injected bug set.
    pub fn new(config: CoreConfig, bugs: BugSet) -> CoreModel {
        let mut space = CoverageSpace::new(config.name);
        let icache = CacheModel::new(&mut space, "icache", config.icache_sets, 2, 64);
        let frontend = FrontendModel::new(&mut space, config.bht_entries, config.btb_entries);
        let decoder = DecoderModel::new(&mut space, config.decoder_depth_sites);
        let execute = ExecuteModel::new(&mut space);
        let lsu = LsuModel::new(&mut space, config.dcache_sets, config.dcache_ways, config.store_buffer);
        let csrfile = CsrFileModel::new(&mut space);
        let backend = if config.rob_entries > 0 {
            Backend::Rob(RobModel::new(&mut space, config.rob_entries, config.rob_lanes.max(1)))
        } else {
            Backend::Scoreboard(ScoreboardModel::new(&mut space, config.scoreboard_distance_buckets))
        };
        let extras = CoreExtras::new(
            &mut space,
            config.fpu_sites,
            config.commit_index_buckets,
            config.class_depth_buckets,
            config.fetch_group_sites,
        );
        CoreModel {
            config,
            bugs,
            space,
            components: Components { icache, frontend, decoder, execute, lsu, csrfile, backend, extras },
        }
    }

    /// Returns the configuration the model was built with.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Decodes an `OP`-major word ignoring its `funct7` field — the buggy
    /// decode path the V2 vulnerability exposes.
    fn v2_decode(word: u32) -> Option<Instr> {
        if word & 0x7f != 0b011_0011 {
            return None;
        }
        let funct3 = (word >> 12) & 0x7;
        let op = match funct3 {
            0b000 => Op::Add,
            0b001 => Op::Sll,
            0b010 => Op::Slt,
            0b011 => Op::Sltu,
            0b100 => Op::Xor,
            0b101 => Op::Srl,
            0b110 => Op::Or,
            0b111 => Op::And,
            _ => return None,
        };
        Some(Instr::rtype(
            op,
            Gpr::from_index(((word >> 7) & 0x1f) as u8),
            Gpr::from_index(((word >> 15) & 0x1f) as u8),
            Gpr::from_index(((word >> 20) & 0x1f) as u8),
        ))
    }

    /// The deterministic junk value an unimplemented CSR read returns when the
    /// V6 vulnerability is enabled (models reading uninitialised `X` state).
    fn v6_junk(csr: u16) -> u64 {
        let seed = u64::from(csr).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        seed ^ (seed >> 29) ^ 0xdead_beef_cafe_f00d
    }
}

impl Processor for CoreModel {
    fn name(&self) -> &str {
        self.config.name
    }

    fn coverage_space(&self) -> &CoverageSpace {
        &self.space
    }

    fn bugs(&self) -> &BugSet {
        &self.bugs
    }

    fn run_into(
        &self,
        program: &Program,
        max_steps: usize,
        scratch: &mut SimScratch,
        out: &mut DutResult,
    ) {
        self.run_model(program, None, max_steps, scratch, out, |mem, pc| {
            mem.fetch(pc).map(|word| (word, decode(word).ok()))
        });
    }

    fn run_decoded_into(
        &self,
        program: &Program,
        decoded: &DecodedProgram,
        max_steps: usize,
        scratch: &mut SimScratch,
        out: &mut DutResult,
    ) {
        debug_assert!(decoded.matches(program), "pre-decoded image is not this program's text");
        self.run_model(program, Some(decoded), max_steps, scratch, out, |_mem, pc| {
            decoded.fetch(pc).map(|slot| (slot.word, slot.instr))
        });
    }
}

impl CoreModel {
    /// The shared core driver behind both fetch paths.
    ///
    /// `fetch` yields the raw word and its *architectural* decode (or `None`
    /// past the end of text); `predecoded` additionally supplies the already-
    /// encoded text image so the cached path skips the per-test re-encode.
    /// Everything downstream of the fetch — including the bug-injected
    /// decoder behaviour (V2 executes words whose architectural decode
    /// failed) — is identical in both modes, which is what keeps the decode
    /// cache transparent to the injected vulnerabilities.
    fn run_model(
        &self,
        program: &Program,
        predecoded: Option<&DecodedProgram>,
        max_steps: usize,
        scratch: &mut SimScratch,
        out: &mut DutResult,
        fetch: impl Fn(&Memory, u64) -> Option<(u32, Option<Instr>)>,
    ) {
        let policy = scratch.reset_policy();
        let (mem, text, model_slot, snapshot) = scratch.parts();

        // Adopt (or create) the scratch's component state for this design.
        let ours = |state: &ModelScratch| {
            state.design == self.config.name && state.space_len == self.space.len()
        };
        let parts = &mut match model_slot {
            Some(state) if ours(state) => state,
            _ => model_slot.insert(ModelScratch {
                design: self.config.name,
                space_len: self.space.len(),
                components: self.components.clone(),
            }),
        }
        .components;
        // A freshly cloned component set is pristine, so the dirty reset is
        // safe on the first run too.
        match policy {
            ResetPolicy::SnapshotReset => parts.reset_dirty(),
            ResetPolicy::FullReinit => parts.reset(),
        }

        let image = match predecoded {
            Some(decoded) => decoded.text(),
            None => {
                program.text_bytes_into(text);
                &*text
            }
        };
        match policy {
            ResetPolicy::SnapshotReset => mem.restore_with_program(image, program.data()),
            ResetPolicy::FullReinit => mem.reset_with_program(image, program.data()),
        }
        out.coverage.reset_for_len(self.space.len());
        out.trace.clear();
        // Snapshot reset recycles the previous run's final state (keeping its
        // CSR-map allocation) instead of building a fresh one; `finish`
        // repopulates the trace's slot at the end of the run.
        let mut state = match policy {
            ResetPolicy::SnapshotReset => {
                let mut state = out.trace.take_final_state();
                snapshot.restore(&mut state);
                state
            }
            ResetPolicy::FullReinit => ArchState::new(),
        };
        let map = &mut out.coverage;
        let text_end = TEXT_BASE + mem.text_len();
        let mut halt = HaltReason::StepLimit;
        // V3 trigger state: was the previously committed instruction a taken
        // control-flow transfer (i.e. is this instruction at the head of a new
        // fetch group in the instruction queue)?
        let mut prev_redirected = false;

        for seq in 0..max_steps as u64 {
            let pc = state.pc;
            let Some((word, decoded)) = fetch(&*mem, pc) else {
                halt = HaltReason::PcOutOfText;
                break;
            };
            parts.frontend.on_fetch(pc, map);
            parts.icache.access(pc, false, map);

            // The instruction the DUT actually executes may differ from the
            // architecturally decoded one when the V2 bug is enabled.
            let executed = match decoded {
                Some(instr) => Some(instr),
                None => {
                    parts.decoder.on_illegal(word, map);
                    if self.bugs.has(Vulnerability::V2IllegalExecuted) {
                        Self::v2_decode(word)
                    } else {
                        None
                    }
                }
            };

            let mut outcome = match executed {
                None => InstrOutcome {
                    writeback: None,
                    mem: None,
                    exception: Some(Exception::IllegalInstruction { word }),
                    next_pc: pc.wrapping_add(4),
                },
                Some(instr) => {
                    if decoded.is_some() {
                        parts.decoder.on_decode(&instr, map);
                    }
                    parts.backend.on_instr(&instr, map);
                    let rs1_val = state.reg(instr.rs1);
                    let rs2_val = state.reg(instr.rs2);

                    let outcome = self.execute_with_bugs(&mut state, mem, parts, instr, pc, map);

                    parts.execute.on_execute(
                        &instr,
                        rs1_val,
                        rs2_val,
                        outcome.writeback.map(|(_, v)| v),
                        map,
                    );
                    self.record_control_flow(parts, instr, pc, &outcome, map);
                    outcome
                }
            };

            // V3: an exception raised by the instruction right after a taken
            // control transfer loses its cause on the way through the
            // instruction queue and is reported as an illegal instruction.
            if self.bugs.has(Vulnerability::V3ExceptionType) && prev_redirected {
                if let Some(e) = outcome.exception {
                    if e != Exception::EcallM && e.cause() != 2 {
                        outcome.exception = Some(Exception::IllegalInstruction { word });
                    }
                }
            }

            let mut next_pc = outcome.next_pc;
            match outcome.exception {
                None => {
                    state.retire();
                    parts.csrfile.on_no_exception(map);
                }
                Some(Exception::EcallM) => {
                    halt = HaltReason::Ecall;
                }
                Some(Exception::Breakpoint) => {
                    // V7: ebreak commits without bumping minstret.
                    if !self.bugs.has(Vulnerability::V7EbreakInstret) {
                        state.retire();
                    }
                    let redirect = state.take_exception(Exception::Breakpoint, pc, text_end);
                    parts.csrfile.on_exception(redirect.is_some(), map);
                    if let Some(vector) = redirect {
                        next_pc = vector;
                    }
                }
                Some(exception) => {
                    let redirect = state.take_exception(exception, pc, text_end);
                    parts.csrfile.on_exception(redirect.is_some(), map);
                    if let Some(vector) = redirect {
                        next_pc = vector;
                    }
                }
            }

            if let Some(instr) = executed {
                parts.extras.on_commit(&instr, seq as usize, pc, map);
            }

            out.trace.push_commit(CommitRecord {
                seq,
                pc,
                instr: decoded,
                word,
                writeback: outcome.writeback,
                mem: outcome.mem,
                exception: outcome.exception,
                next_pc,
                instret: state.instret(),
            });

            if halt == HaltReason::Ecall {
                break;
            }
            prev_redirected = outcome.exception.is_some() || next_pc != pc.wrapping_add(4);
            if prev_redirected {
                parts.backend.on_redirect(map);
            }
            state.pc = next_pc;
        }

        out.trace.finish(state, halt);
    }
}

impl CoreModel {
    /// Executes one legal instruction, applying the enabled pre- and
    /// post-execution bug deviations, and emits LSU/CSR coverage.
    fn execute_with_bugs(
        &self,
        state: &mut ArchState,
        mem: &mut Memory,
        parts: &mut Components,
        instr: Instr,
        pc: u64,
        map: &mut CoverageMap,
    ) -> InstrOutcome {
        // --- V1: fence.i decoded incorrectly (raises an exception it should not).
        if self.bugs.has(Vulnerability::V1FenceiDecode) && instr.op == Op::FenceI {
            return InstrOutcome {
                writeback: None,
                mem: None,
                exception: Some(Exception::IllegalInstruction { word: instr.encode() }),
                next_pc: pc.wrapping_add(4),
            };
        }

        // CSR coverage and the V6 deviation are handled before the
        // architectural executor because the buggy behaviour replaces the
        // exception path entirely.
        if matches!(instr.op.format(), Format::Csr | Format::CsrImm) {
            let csr = instr.csr_addr().expect("csr instruction has an address");
            let writes = match instr.op {
                Op::Csrrw | Op::Csrrwi => true,
                Op::Csrrs | Op::Csrrc => instr.rs1 != Gpr::Zero,
                Op::Csrrsi | Op::Csrrci => instr.csr_zimm().unwrap_or(0) != 0,
                _ => false,
            };
            parts.csrfile.on_access(csr, writes, map);
            if !csr.is_implemented() && self.bugs.has(Vulnerability::V6UnimplCsrJunk) {
                let junk = Self::v6_junk(csr.value());
                state.set_reg(instr.rd, junk);
                return InstrOutcome {
                    writeback: Some((instr.rd, state.reg(instr.rd))),
                    mem: None,
                    exception: None,
                    next_pc: pc.wrapping_add(4),
                };
            }
        }
        if instr.op == Op::Mret {
            parts.csrfile.on_mret(map);
        }

        // Pre-compute memory-access facts so the LSU model can be fed and the
        // V4/V5 deviations applied.
        let mem_addr = instr.op.memory_width().map(|width| {
            let addr = state.reg(instr.rs1).wrapping_add(instr.imm as u64) & PHYS_ADDR_MASK;
            (addr, u64::from(width))
        });
        let store_old_value = match (instr.op.class(), mem_addr) {
            (OpClass::Store, Some((addr, width))) => Some(mem.read_uint(addr, width)),
            _ => None,
        };

        let mut outcome = execute_instr(state, mem, instr, pc);

        // LSU coverage + memory-related bug deviations.
        if let Some((addr, width)) = mem_addr {
            let in_data = mem.can_store(addr, 1);
            match outcome.exception {
                None => {
                    if instr.op.class() == OpClass::Load {
                        let lsu_info = parts.lsu.on_load(addr, width, in_data, map);
                        if self.bugs.has(Vulnerability::V4CacheCoherency) {
                            if let Some(stale_raw) = lsu_info.stale_value {
                                let stale = extend_load(instr.op, stale_raw);
                                state.set_reg(instr.rd, stale);
                                outcome.writeback = Some((instr.rd, state.reg(instr.rd)));
                                outcome.mem = Some(MemAccess {
                                    addr,
                                    width: width as u8,
                                    value: stale_raw,
                                    is_store: false,
                                });
                            }
                        }
                    } else {
                        parts.lsu.on_store(addr, width, store_old_value.unwrap_or(0), map);
                    }
                }
                Some(Exception::LoadAddrMisaligned { .. }) | Some(Exception::StoreAddrMisaligned { .. }) => {
                    parts.lsu.on_misaligned(width, map);
                }
                Some(Exception::LoadAccessFault { .. }) => {
                    parts.lsu.on_access_fault(false, map);
                    // --- V5: the access fault is silently dropped and the load
                    // returns zero.
                    if self.bugs.has(Vulnerability::V5MissingAccessFault) {
                        state.set_reg(instr.rd, 0);
                        outcome = InstrOutcome {
                            writeback: Some((instr.rd, state.reg(instr.rd))),
                            mem: Some(MemAccess { addr, width: width as u8, value: 0, is_store: false }),
                            exception: None,
                            next_pc: pc.wrapping_add(4),
                        };
                    }
                }
                Some(Exception::StoreAccessFault { .. }) => {
                    parts.lsu.on_access_fault(true, map);
                }
                _ => {}
            }
        }

        outcome
    }

    fn record_control_flow(
        &self,
        parts: &mut Components,
        instr: Instr,
        pc: u64,
        outcome: &InstrOutcome,
        map: &mut CoverageMap,
    ) {
        if outcome.exception.is_some() {
            return;
        }
        match instr.op.class() {
            OpClass::Branch => {
                let taken = outcome.next_pc != pc.wrapping_add(4);
                parts.frontend.on_branch(pc, taken, instr.imm, map);
            }
            OpClass::Jump => {
                let is_call = instr.rd == Gpr::Ra;
                let is_ret = instr.op == Op::Jalr && instr.rs1 == Gpr::Ra && instr.rd == Gpr::Zero;
                parts.frontend.on_jump(pc, outcome.next_pc, is_call, is_ret, map);
            }
            _ => {}
        }
    }
}

/// Applies the load's sign/zero extension to a raw memory value (used when the
/// V4 bug substitutes a stale value).
fn extend_load(op: Op, raw: u64) -> u64 {
    match op {
        Op::Lb => raw as i8 as i64 as u64,
        Op::Lh => raw as i16 as i64 as u64,
        Op::Lw => raw as i32 as i64 as u64,
        _ => raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use isa_sim::GoldenSim;
    use proptest::prelude::*;
    use riscv::asm::parse_program;

    fn test_config() -> CoreConfig {
        CoreConfig {
            name: "testcore",
            bht_entries: 16,
            btb_entries: 8,
            icache_sets: 8,
            dcache_sets: 8,
            dcache_ways: 1,
            store_buffer: 4,
            decoder_depth_sites: 4,
            fpu_sites: 4,
            commit_index_buckets: 4,
            class_depth_buckets: 4,
            fetch_group_sites: false,
            scoreboard_distance_buckets: 6,
            rob_entries: 0,
            rob_lanes: 0,
        }
    }

    fn program(asm: &str) -> Program {
        Program::from_instrs(parse_program(asm).expect("valid asm"))
    }

    #[test]
    fn bug_free_core_matches_the_golden_model() {
        let core = CoreModel::new(test_config(), BugSet::none());
        let prog = program(
            "lui gp, 0x80010\n\
             addi a0, zero, 21\n\
             add a0, a0, a0\n\
             sd a0, 8(gp)\n\
             ld a1, 8(gp)\n\
             mul a2, a0, a1\n\
             csrrs a3, minstret, zero\n\
             beq a0, a1, 8\n\
             addi a4, zero, 1\n\
             ebreak\n\
             ecall\n",
        );
        let golden = GoldenSim::new().run(&prog, 200);
        let dut = core.run(&prog, 200);
        assert_eq!(dut.trace.commits().len(), golden.commits().len());
        for (d, g) in dut.trace.commits().iter().zip(golden.commits()) {
            assert_eq!(d.writeback, g.writeback, "writeback mismatch at pc {:#x}", g.pc);
            assert_eq!(d.exception, g.exception, "exception mismatch at pc {:#x}", g.pc);
            assert_eq!(d.next_pc, g.next_pc, "next_pc mismatch at pc {:#x}", g.pc);
            assert_eq!(d.instret, g.instret, "instret mismatch at pc {:#x}", g.pc);
        }
        assert_eq!(dut.trace.final_state(), golden.final_state());
        assert!(dut.coverage.count() > 50, "a real program should cover many points");
    }

    #[test]
    fn coverage_is_deterministic() {
        let core = CoreModel::new(test_config(), BugSet::none());
        let prog = program("addi a0, zero, 5\nadd a1, a0, a0\necall\n");
        let a = core.run(&prog, 100);
        let b = core.run(&prog, 100);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.trace.final_state(), b.trace.final_state());
    }

    #[test]
    fn v1_makes_fencei_trap() {
        let buggy = CoreModel::new(test_config(), BugSet::only(Vulnerability::V1FenceiDecode));
        let prog = program("fence.i\naddi a0, zero, 1\necall\n");
        let golden = GoldenSim::new().run(&prog, 100);
        let dut = buggy.run(&prog, 100);
        assert_eq!(golden.commits()[0].exception, None);
        assert!(matches!(dut.trace.commits()[0].exception, Some(Exception::IllegalInstruction { .. })));
    }

    #[test]
    fn v2_executes_an_illegal_op_word() {
        // OP-major word with funct7 = 0x7f (not a valid encoding):
        // rd = a0, rs1 = a1, rs2 = a2, funct3 = 0 → buggy core executes `add`.
        let bad_word: u32 = (0x7f << 25) | (12 << 20) | (11 << 15) | (10 << 7) | 0x33;
        let synthesized = CoreModel::v2_decode(bad_word).expect("v2 path decodes OP-major words");
        assert_eq!(synthesized.op, Op::Add);
        assert_eq!(synthesized.rd, Gpr::A0);
        assert_eq!(CoreModel::v2_decode(0xffff_ffff), None, "non-OP-major words stay illegal");

        // End to end: place the raw word in the program via a raw override.
        let mut prog = program("addi a1, zero, 30\naddi a2, zero, 12\nnop\necall\n");
        prog.set_raw(2, bad_word);
        let golden = GoldenSim::new().run(&prog, 100);
        let buggy = CoreModel::new(test_config(), BugSet::only(Vulnerability::V2IllegalExecuted));
        let dut = buggy.run(&prog, 100);
        assert!(matches!(golden.commits()[2].exception, Some(Exception::IllegalInstruction { .. })));
        assert_eq!(dut.trace.commits()[2].exception, None);
        assert_eq!(dut.trace.commits()[2].writeback, Some((Gpr::A0, 42)));
    }

    #[test]
    fn v5_suppresses_load_access_faults() {
        let buggy = CoreModel::new(test_config(), BugSet::only(Vulnerability::V5MissingAccessFault));
        let prog = program("addi t0, zero, 64\nld a0, 0(t0)\necall\n");
        let golden = GoldenSim::new().run(&prog, 100);
        let dut = buggy.run(&prog, 100);
        assert!(golden.commits()[1].exception.is_some());
        assert_eq!(dut.trace.commits()[1].exception, None);
        assert_eq!(dut.trace.commits()[1].writeback, Some((Gpr::A0, 0)));
    }

    #[test]
    fn v6_returns_junk_for_unimplemented_csrs() {
        let buggy = CoreModel::new(test_config(), BugSet::only(Vulnerability::V6UnimplCsrJunk));
        let prog = program("csrrs a0, 0x5c0, zero\necall\n");
        let golden = GoldenSim::new().run(&prog, 100);
        let dut = buggy.run(&prog, 100);
        assert!(golden.commits()[0].exception.is_some());
        assert_eq!(dut.trace.commits()[0].exception, None);
        let (_, value) = dut.trace.commits()[0].writeback.expect("junk writeback");
        assert_ne!(value, 0);
    }

    #[test]
    fn v7_stops_ebreak_from_retiring() {
        let buggy = CoreModel::new(test_config(), BugSet::only(Vulnerability::V7EbreakInstret));
        let prog = program("ebreak\ncsrrs a0, minstret, zero\necall\n");
        let golden = GoldenSim::new().run(&prog, 100);
        let dut = buggy.run(&prog, 100);
        let golden_count = golden.final_state().reg(Gpr::A0);
        let dut_count = dut.trace.final_state().reg(Gpr::A0);
        assert_eq!(golden_count, 1);
        assert_eq!(dut_count, 0);
    }

    #[test]
    fn v3_reports_the_wrong_cause_after_a_taken_branch() {
        let buggy = CoreModel::new(test_config(), BugSet::only(Vulnerability::V3ExceptionType));
        // beq always taken jumps over a nop to a faulting load.
        let prog = program(
            "addi t0, zero, 64\n\
             beq zero, zero, 8\n\
             addi a1, zero, 1\n\
             ld a0, 0(t0)\n\
             csrrs a2, mcause, zero\n\
             ecall\n",
        );
        let golden = GoldenSim::new().run(&prog, 100);
        let dut = buggy.run(&prog, 100);
        // Golden: cause 5 (load access fault); buggy DUT: cause 2.
        assert_eq!(golden.final_state().reg(Gpr::A2), 5);
        assert_eq!(dut.trace.final_state().reg(Gpr::A2), 2);
    }

    #[test]
    fn v4_returns_stale_data_after_eviction() {
        let buggy = CoreModel::new(test_config(), BugSet::only(Vulnerability::V4CacheCoherency));
        // Store 0xAA to gp+0, thrash the (8-set, 1-way, 64B-line) data cache
        // with a load 512 bytes away (same set), then re-load gp+0.
        let prog = program(
            "lui gp, 0x80010\n\
             addi t0, zero, 170\n\
             sd t0, 0(gp)\n\
             ld t1, 512(gp)\n\
             ld a0, 0(gp)\n\
             ecall\n",
        );
        let golden = GoldenSim::new().run(&prog, 100);
        let dut = buggy.run(&prog, 100);
        assert_eq!(golden.final_state().reg(Gpr::A0), 170);
        assert_eq!(dut.trace.final_state().reg(Gpr::A0), 0, "stale pre-store value returned");
    }

    #[test]
    fn decoded_path_matches_interpreted_for_every_bug_set() {
        // The decode cache must be invisible to every injected vulnerability:
        // same trace, same coverage, for legal programs, raw illegal words
        // (exercising the cached decode-fault slot) and empty text.
        let mut with_raw = program("addi a1, zero, 30\naddi a2, zero, 12\nnop\necall\n");
        with_raw.set_raw(2, (0x7f << 25) | (12 << 20) | (11 << 15) | (10 << 7) | 0x33);
        let mut garbage = program("addi a0, zero, 1\nnop\necall\n");
        garbage.set_raw(1, 0xffff_ffff);
        let programs = [
            Program::new(),
            program("lui gp, 0x80010\nsd a0, 0(gp)\nld a1, 0(gp)\nebreak\necall\n"),
            with_raw,
            garbage,
            program("fence.i\ncsrrs a0, 0x5c0, zero\necall\n"),
        ];
        let mut bug_sets = vec![BugSet::none(), BugSet::all()];
        bug_sets.extend(Vulnerability::ALL.iter().map(|v| BugSet::only(*v)));
        for bugs in bug_sets {
            let core = CoreModel::new(test_config(), bugs.clone());
            let mut scratch = SimScratch::new();
            let mut interpreted = DutResult::default();
            let mut cached = DutResult::default();
            for prog in &programs {
                let decoded = DecodedProgram::from_program(prog);
                core.run_into(prog, 100, &mut scratch, &mut interpreted);
                core.run_decoded_into(prog, &decoded, 100, &mut scratch, &mut cached);
                assert_eq!(cached.trace, interpreted.trace, "trace diverged under {bugs:?}");
                assert_eq!(cached.coverage, interpreted.coverage, "coverage diverged under {bugs:?}");
            }
        }
    }

    #[test]
    fn snapshot_restore_matches_full_reinit_for_every_bug_set() {
        // The dirty-restore path must be invisible to every injected
        // vulnerability: same trace, same coverage, with a scratch recycled
        // across programs that leave memory, predictors, caches, the store
        // buffer and trap CSRs dirty in different ways.
        let mut with_raw = program("addi a1, zero, 30\naddi a2, zero, 12\nnop\necall\n");
        with_raw.set_raw(2, (0x7f << 25) | (12 << 20) | (11 << 15) | (10 << 7) | 0x33);
        let mut garbage = program("addi a0, zero, 1\nnop\necall\n");
        garbage.set_raw(1, 0xffff_ffff);
        let programs = [
            Program::new(),
            program("lui gp, 0x80010\nsd a0, 0(gp)\nld a1, 0(gp)\nebreak\necall\n"),
            with_raw,
            garbage,
            program("fence.i\ncsrrs a0, 0x5c0, zero\necall\n"),
            // Branch + call/ret traffic dirties the BHT, BTB and RAS.
            program(
                "addi t0, zero, 3\n\
                 addi t0, t0, -1\n\
                 bne t0, zero, -4\n\
                 jal ra, 8\n\
                 ecall\n\
                 jalr zero, 0(ra)\n",
            ),
        ];
        let mut bug_sets = vec![BugSet::none(), BugSet::all()];
        bug_sets.extend(Vulnerability::ALL.iter().map(|v| BugSet::only(*v)));
        for bugs in bug_sets {
            let core = CoreModel::new(test_config(), bugs.clone());
            let mut restored_scratch = SimScratch::new();
            assert!(restored_scratch.reset_policy().is_snapshot(), "snapshot reset is the default");
            let mut reinit_scratch = SimScratch::with_policy(ResetPolicy::FullReinit);
            let mut restored = DutResult::default();
            let mut reinit = DutResult::default();
            for pass in 0..2 {
                for prog in &programs {
                    core.run_into(prog, 100, &mut restored_scratch, &mut restored);
                    core.run_into(prog, 100, &mut reinit_scratch, &mut reinit);
                    assert_eq!(restored.trace, reinit.trace, "pass {pass}: trace diverged under {bugs:?}");
                    assert_eq!(restored.coverage, reinit.coverage, "pass {pass}: coverage diverged under {bugs:?}");
                    let decoded = DecodedProgram::from_program(prog);
                    core.run_decoded_into(prog, &decoded, 100, &mut restored_scratch, &mut restored);
                    core.run_decoded_into(prog, &decoded, 100, &mut reinit_scratch, &mut reinit);
                    assert_eq!(restored.trace, reinit.trace, "pass {pass}: decoded trace diverged under {bugs:?}");
                    assert_eq!(restored.coverage, reinit.coverage, "pass {pass}: decoded coverage diverged under {bugs:?}");
                }
            }
        }
    }

    proptest! {
        /// Random program/store/trap sequences: a long-lived snapshot-reset
        /// scratch must stay byte-identical to a freshly initialised
        /// simulator, with every bug layer enabled.
        #[test]
        fn restored_scratch_matches_a_fresh_simulator_on_random_programs(
            words in proptest::collection::vec(any::<u32>(), 1..10),
            offset in 0u64..256,
        ) {
            // A store/load preamble guarantees real memory dirt; the random
            // words supply illegal-instruction traps, stray branches and the
            // occasional legal store/CSR access.
            let mut instrs = parse_program(
                "lui gp, 0x80010\n\
                 addi a0, zero, 77\n\
                 sd a0, 0(gp)\n\
                 ld a1, 8(gp)\n",
            ).unwrap();
            let prefix = instrs.len();
            for _ in &words {
                instrs.push(riscv::Instr::nop());
            }
            let mut prog = Program::from_instrs(instrs);
            for (i, word) in words.iter().enumerate() {
                prog.set_raw(prefix + i, *word ^ (offset as u32));
            }

            for bugs in [BugSet::none(), BugSet::all()] {
                let core = CoreModel::new(test_config(), bugs.clone());
                let mut scratch = SimScratch::new();
                let mut out = DutResult::default();
                // Dirty the scratch with one run, then re-run: the second,
                // restored run must equal a from-scratch simulation.
                core.run_into(&prog, 80, &mut scratch, &mut out);
                core.run_into(&prog, 80, &mut scratch, &mut out);
                let fresh = core.run(&prog, 80);
                prop_assert_eq!(&out.trace, &fresh.trace, "trace diverged under {:?}", &bugs);
                prop_assert_eq!(&out.coverage, &fresh.coverage, "coverage diverged under {:?}", &bugs);
            }
        }
    }

    #[test]
    fn v2_layers_on_top_of_the_cached_decode_fault() {
        // The cached slot records only the *architectural* decode failure;
        // the V2 buggy decoder must still synthesize and execute the word on
        // the decoded path exactly as it does live.
        let bad_word: u32 = (0x7f << 25) | (12 << 20) | (11 << 15) | (10 << 7) | 0x33;
        let mut prog = program("addi a1, zero, 30\naddi a2, zero, 12\nnop\necall\n");
        prog.set_raw(2, bad_word);
        let decoded = DecodedProgram::from_program(&prog);
        assert_eq!(decoded.fetch(TEXT_BASE + 8).unwrap().instr, None, "arch decode fault cached");

        let buggy = CoreModel::new(test_config(), BugSet::only(Vulnerability::V2IllegalExecuted));
        let mut scratch = SimScratch::new();
        let mut out = DutResult::default();
        buggy.run_decoded_into(&prog, &decoded, 100, &mut scratch, &mut out);
        assert_eq!(out.trace.commits()[2].exception, None, "V2 executed the illegal word");
        assert_eq!(out.trace.commits()[2].writeback, Some((Gpr::A0, 42)));
    }

    #[test]
    fn stores_to_text_fault_even_with_every_bug_enabled() {
        // Decode-cache soundness: no bug deviation lets a store land in the
        // text region, so a pre-decoded image can never go stale mid-run.
        let everything = CoreModel::new(test_config(), BugSet::all());
        let prog = program(
            "lui t0, 0x80000\n\
             addi t1, zero, 1\n\
             sw t1, 0(t0)\n\
             lw a0, 0(t0)\n\
             ecall\n",
        );
        let decoded = DecodedProgram::from_program(&prog);
        let mut scratch = SimScratch::new();
        let mut out = DutResult::default();
        everything.run_decoded_into(&prog, &decoded, 100, &mut scratch, &mut out);
        assert!(
            matches!(out.trace.commits()[2].exception, Some(Exception::StoreAccessFault { .. })),
            "store into text must fault, got {:?}",
            out.trace.commits()[2].exception
        );
        // The text word is unmodified: the load still reads the lui encoding.
        assert_eq!(out.trace.commits()[3].writeback, Some((Gpr::A0, 0xffff_ffff_8000_02b7)));
    }

    #[test]
    fn different_programs_reach_different_coverage() {
        let core = CoreModel::new(test_config(), BugSet::none());
        let arith = core.run(&program("addi a0, zero, 1\nadd a1, a0, a0\necall\n"), 100);
        let memory = core.run(
            &program("lui gp, 0x80010\nsd zero, 0(gp)\nld a0, 0(gp)\necall\n"),
            100,
        );
        assert_ne!(arith.coverage, memory.coverage);
    }
}
