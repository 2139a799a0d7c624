//! Static analysis of RISC-V text images: basic blocks, a *total* control-flow
//! graph, and per-block register liveness.
//!
//! The analyzer runs **once per text image** — the fuzzing pipeline attaches
//! its result to the decode cache entry for the image (see
//! `isa_sim::DecodeCache::get_or_decode_with_facts`), so steady-state fuzzing
//! pays for analysis only on a cache miss. Everything here is a pure function
//! of the text bytes: no global state, no randomness, no wall clock.
//!
//! # CFG closure rules
//!
//! The text image is the slot array produced by decoding each little-endian
//! 32-bit word at `TEXT_BASE + 4·slot` (an empty image gets the same phantom
//! zero slot the simulators use). From it the analyzer recovers:
//!
//! * **Leaders** — slot 0, every statically-known aligned in-text `jal`/branch
//!   target, and the fall-through slot of every control-transfer instruction.
//! * **Blocks** — maximal runs of slots ending at a control-transfer
//!   instruction ([`Op::is_control_flow`]), just before the next leader, or at
//!   the last slot of the image. Undecodable (statically-illegal) slots and
//!   potentially-faulting loads/stores/CSR accesses do *not* end a block:
//!   their traps are modelled by the block's trap-exit edge.
//! * **Edges** — identified by `(from_pc, to, kind)` where `to == None` is the
//!   synthetic `Unknown` sink, making the CFG total:
//!   - `BranchTaken(term_pc, target)` for a branch whose taken target is
//!     4-aligned (`Some` in text, `None` out of text); a misaligned taken
//!     target traps instead, so no taken edge is emitted.
//!   - `FallThrough(term_pc, term_pc + 4)` for branch not-taken paths, leader
//!     boundaries and non-control block ends (`None` when the successor slot
//!     would fall off the end of the image).
//!   - `Jump(term_pc, target)` for `jal` with a 4-aligned target (`Some`/`None`
//!     as above; misaligned targets trap, no edge).
//!   - `Indirect(term_pc, None)` for `jalr` and `mret`: the target is a
//!     runtime value, always closed with the `Unknown` sink.
//!   - `TrapExit(block_start, None)` — emitted for **every** block, last in its
//!     edge list, so any faulting commit (illegal instruction, memory fault,
//!     CSR fault, `ecall`/`ebreak`, misaligned control target — on the golden
//!     model *or* a buggy DUT) maps to exactly one edge of its block.
//!
//! Within a block the edge order is fixed: the terminator's control edges
//! (taken before fall-through), then the trap exit. [`ProgramFacts::map_transition`]
//! resolves a dynamic `(pc, next_pc, faulted)` commit against this order
//! deterministically.
//!
//! # Edge-id stability guarantee
//!
//! Blocks are emitted in ascending start address and edges in the fixed
//! per-block order above, so both the edge *index* and the edge *identity
//! tuple* `(from_pc, to, kind)` are pure functions of the text bytes. The
//! edge-coverage signal hashes the identity tuple (not the index) into a
//! fixed-size space, so coverage slots are stable across runs, threads,
//! processes and cache hits/misses — the property the `fuzzer::shard`
//! determinism contract requires of any coverage signal.
//!
//! # Classifications and liveness
//!
//! Pass 2 computes, per block, GPR def/use bitmasks (bit *i* = `x_i`; `x0` is
//! never a def or use) and a backward liveness fixpoint over the *direct* CFG
//! — trap-exit edges are deliberately excluded, so `live_in`/`live_out`
//! describe the no-trap fast path a JIT would speculate on (a trap deopts to
//! full architectural state anyway). Edges into the `Unknown` sink and blocks
//! with no direct successors (e.g. `ecall` halts, where the differential
//! oracle observes the whole final state) treat every register as live.
//! Static classifications: statically-illegal slots, blocks unreachable from
//! the entry block by direct flow (a configured trap vector can still reach
//! them dynamically), and trivially-infinite self-loops (a non-trapping block
//! whose only direct edge is a `jal` back to its own start).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use riscv::program::TEXT_BASE;
use riscv::{decode, Gpr, Instr, Op, OpClass};

/// Bitmask of every observable register: all GPRs except the hardwired `x0`.
pub const ALL_LIVE: u32 = 0xffff_fffe;

/// The kind of a static CFG edge. Part of the edge identity tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Sequential flow into the next slot (branch not taken, leader boundary,
    /// or a non-control instruction at the end of a block).
    FallThrough,
    /// A conditional branch's statically-known taken target.
    BranchTaken,
    /// A `jal`'s statically-known target.
    Jump,
    /// A runtime-valued control transfer (`jalr`, `mret`); always targets the
    /// `Unknown` sink.
    Indirect,
    /// Any trapping exit from the block (illegal instruction, memory/CSR
    /// fault, `ecall`/`ebreak`, misaligned control target).
    TrapExit,
}

impl EdgeKind {
    /// Stable wire code for hashing the edge identity tuple.
    pub fn code(self) -> u8 {
        match self {
            EdgeKind::FallThrough => 0,
            EdgeKind::BranchTaken => 1,
            EdgeKind::Jump => 2,
            EdgeKind::Indirect => 3,
            EdgeKind::TrapExit => 4,
        }
    }

    /// Stable lower-case name used by the JSON renderer.
    pub fn name(self) -> &'static str {
        match self {
            EdgeKind::FallThrough => "fall-through",
            EdgeKind::BranchTaken => "branch-taken",
            EdgeKind::Jump => "jump",
            EdgeKind::Indirect => "indirect",
            EdgeKind::TrapExit => "trap-exit",
        }
    }
}

/// One static CFG edge, identified by `(from_pc, to, kind)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CfgEdge {
    /// The terminator's pc (for [`EdgeKind::TrapExit`], the block's start pc —
    /// any slot of the block may trap).
    pub from_pc: u64,
    /// Target pc, or `None` for the synthetic `Unknown` sink (indirect flow,
    /// out-of-text targets, trap exits, falling off the end of the image).
    pub to: Option<u64>,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// One basic block plus its per-block dataflow facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicBlock {
    /// Address of the first slot.
    pub start: u64,
    /// Number of slots in the block (always ≥ 1).
    pub len: u32,
    /// Index of the block's first edge in [`ProgramFacts::edges`].
    pub edge_start: u32,
    /// Number of edges (always ≥ 1: the trap exit is unconditional).
    pub edge_count: u32,
    /// `true` when some slot of the block may raise an exception.
    pub can_trap: bool,
    /// GPRs written by the block (bit *i* = `x_i`; `x0` excluded).
    pub def: u32,
    /// GPRs read before being written within the block.
    pub uses: u32,
    /// Registers live on entry (no-trap path; see the module docs).
    pub live_in: u32,
    /// Registers live on exit (no-trap path; see the module docs).
    pub live_out: u32,
}

impl BasicBlock {
    /// Address of the block's terminator (last) slot.
    pub fn terminator_pc(&self) -> u64 {
        self.start + 4 * (self.len as u64 - 1)
    }
}

/// How a dynamic `(pc, next_pc, faulted)` commit maps onto the static CFG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transition {
    /// Sequential flow inside a block — not an edge.
    Internal,
    /// The commit traverses the edge at this index in [`ProgramFacts::edges`].
    Edge(usize),
    /// The commit fits no static edge (only possible for a commit stream that
    /// deviates from the golden semantics, i.e. a buggy DUT).
    Unmatched,
}

/// The result of statically analyzing one text image.
///
/// A pure function of the text bytes — see the module docs for the closure
/// rules and the edge-id stability guarantee.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramFacts {
    slots: usize,
    blocks: Vec<BasicBlock>,
    edges: Vec<CfgEdge>,
    block_of_slot: Vec<u32>,
    statically_illegal: Vec<u32>,
    unreachable: Vec<u32>,
    trivial_self_loops: Vec<u32>,
}

fn reg_bit(reg: Gpr) -> u32 {
    // Writes to x0 are discarded and reads of x0 see the constant zero, so
    // the hardwired register is neither a def nor a use.
    (1u32 << reg.index()) & !1
}

/// The statically-known target of a `jal` or conditional branch.
fn static_control_target(pc: u64, instr: &Instr) -> Option<u64> {
    match instr.op {
        Op::Jal => Some(pc.wrapping_add(instr.imm as u64)),
        op if op.class() == OpClass::Branch => Some(pc.wrapping_add(instr.imm as u64)),
        _ => None,
    }
}

/// Conservative may-trap per decoded slot.
fn slot_can_trap(pc: u64, instr: &Instr) -> bool {
    match instr.op {
        Op::Ecall | Op::Ebreak | Op::Jalr => true,
        Op::Jal => !pc.wrapping_add(instr.imm as u64).is_multiple_of(4),
        op if op.is_memory() => true,
        op if op.class() == OpClass::Branch => !pc.wrapping_add(instr.imm as u64).is_multiple_of(4),
        op if op.class() == OpClass::Csr => true,
        _ => false,
    }
}

impl ProgramFacts {
    /// Analyzes a text image (little-endian 32-bit words starting at
    /// `TEXT_BASE`). An empty image is given the same phantom zero slot the
    /// simulators fetch, so the CFG is never empty.
    pub fn analyze(text: &[u8]) -> ProgramFacts {
        let mut instrs: Vec<Option<Instr>> = text
            .chunks_exact(4)
            .map(|chunk| decode(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]])).ok())
            .collect();
        if instrs.is_empty() {
            // The phantom zero slot: undecodable, raises IllegalInstruction.
            instrs.push(None);
        }
        let slots = instrs.len();
        let end = TEXT_BASE + 4 * slots as u64;
        let in_text = |pc: u64| pc.is_multiple_of(4) && (TEXT_BASE..end).contains(&pc);
        let pc_of = |slot: usize| TEXT_BASE + 4 * slot as u64;
        let slot_of = |pc: u64| ((pc - TEXT_BASE) / 4) as usize;

        // Pass 1a: leaders.
        let mut leader = vec![false; slots];
        leader[0] = true;
        for (i, instr) in instrs.iter().enumerate() {
            let Some(instr) = instr else { continue };
            if !instr.op.is_control_flow() {
                continue;
            }
            if i + 1 < slots {
                leader[i + 1] = true;
            }
            if let Some(target) = static_control_target(pc_of(i), instr) {
                if in_text(target) {
                    leader[slot_of(target)] = true;
                }
            }
        }

        // Pass 1b: blocks and edges.
        let mut blocks: Vec<BasicBlock> = Vec::new();
        let mut edges: Vec<CfgEdge> = Vec::new();
        let mut block_of_slot = vec![0u32; slots];
        let mut statically_illegal = Vec::new();
        let mut start = 0usize;
        for i in 0..slots {
            if instrs[i].is_none() {
                statically_illegal.push(i as u32);
            }
            let terminator = instrs[i].as_ref().is_some_and(|x| x.op.is_control_flow());
            let last = i + 1 == slots;
            if !(terminator || last || leader[i + 1]) {
                continue;
            }
            let block_index = blocks.len() as u32;
            for slot in block_of_slot.iter_mut().take(i + 1).skip(start) {
                *slot = block_index;
            }
            let term_pc = pc_of(i);
            let fall_to = if last { None } else { Some(term_pc + 4) };
            let edge_start = edges.len() as u32;
            match instrs[i].as_ref() {
                Some(instr) if instr.op == Op::Jal => {
                    let target = term_pc.wrapping_add(instr.imm as u64);
                    if target.is_multiple_of(4) {
                        let to = in_text(target).then_some(target);
                        edges.push(CfgEdge { from_pc: term_pc, to, kind: EdgeKind::Jump });
                    }
                    // A misaligned target traps on the jump: the trap exit
                    // below is the only way out.
                }
                Some(instr) if instr.op == Op::Jalr || instr.op == Op::Mret => {
                    edges.push(CfgEdge { from_pc: term_pc, to: None, kind: EdgeKind::Indirect });
                }
                Some(instr) if instr.op.class() == OpClass::Branch => {
                    let target = term_pc.wrapping_add(instr.imm as u64);
                    if target.is_multiple_of(4) {
                        let to = in_text(target).then_some(target);
                        edges.push(CfgEdge { from_pc: term_pc, to, kind: EdgeKind::BranchTaken });
                    }
                    edges.push(CfgEdge { from_pc: term_pc, to: fall_to, kind: EdgeKind::FallThrough });
                }
                Some(instr) if instr.op == Op::Ecall || instr.op == Op::Ebreak => {
                    // Always trap (halt or redirect): the trap exit covers it.
                }
                _ => {
                    // Leader boundary or end of image after a non-control slot.
                    edges.push(CfgEdge { from_pc: term_pc, to: fall_to, kind: EdgeKind::FallThrough });
                }
            }
            edges.push(CfgEdge { from_pc: pc_of(start), to: None, kind: EdgeKind::TrapExit });

            let mut can_trap = false;
            let mut def = 0u32;
            let mut uses = 0u32;
            for (slot, decoded) in instrs.iter().enumerate().take(i + 1).skip(start) {
                match decoded {
                    None => can_trap = true,
                    Some(instr) => {
                        can_trap |= slot_can_trap(pc_of(slot), instr);
                        for src in instr.sources() {
                            let bit = reg_bit(src);
                            if def & bit == 0 {
                                uses |= bit;
                            }
                        }
                        if let Some(rd) = instr.dest() {
                            def |= reg_bit(rd);
                        }
                    }
                }
            }
            blocks.push(BasicBlock {
                start: pc_of(start),
                len: (i - start + 1) as u32,
                edge_start,
                edge_count: edges.len() as u32 - edge_start,
                can_trap,
                def,
                uses,
                live_in: 0,
                live_out: 0,
            });
            start = i + 1;
        }

        // Pass 2a: direct successors (trap exits excluded; see module docs).
        let block_count = blocks.len();
        let mut succs: Vec<Vec<u32>> = vec![Vec::new(); block_count];
        let mut exit_all_live = vec![false; block_count];
        for (b, block) in blocks.iter().enumerate() {
            let range = block.edge_start as usize..(block.edge_start + block.edge_count) as usize;
            let mut has_direct = false;
            for edge in &edges[range] {
                if edge.kind == EdgeKind::TrapExit {
                    continue;
                }
                has_direct = true;
                match edge.to {
                    Some(target) => succs[b].push(block_of_slot[slot_of(target)]),
                    None => exit_all_live[b] = true,
                }
            }
            if !has_direct {
                exit_all_live[b] = true;
            }
        }

        // Pass 2b: backward liveness fixpoint.
        loop {
            let mut changed = false;
            for b in (0..block_count).rev() {
                let mut out = if exit_all_live[b] { ALL_LIVE } else { 0 };
                for &succ in &succs[b] {
                    out |= blocks[succ as usize].live_in;
                }
                let live_in = blocks[b].uses | (out & !blocks[b].def);
                if out != blocks[b].live_out || live_in != blocks[b].live_in {
                    blocks[b].live_out = out;
                    blocks[b].live_in = live_in;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        // Pass 2c: reachability from the entry block over direct edges.
        let mut reached = vec![false; block_count];
        reached[0] = true;
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            for &succ in &succs[b] {
                if !reached[succ as usize] {
                    reached[succ as usize] = true;
                    stack.push(succ as usize);
                }
            }
        }
        let unreachable: Vec<u32> =
            (0..block_count).filter(|&b| !reached[b]).map(|b| b as u32).collect();

        // Pass 2d: trivially-infinite self-loops.
        let trivial_self_loops: Vec<u32> = blocks
            .iter()
            .enumerate()
            .filter(|(_, block)| {
                if block.can_trap {
                    return false;
                }
                let range =
                    block.edge_start as usize..(block.edge_start + block.edge_count) as usize;
                let direct: Vec<&CfgEdge> =
                    edges[range].iter().filter(|e| e.kind != EdgeKind::TrapExit).collect();
                direct.len() == 1
                    && direct[0].kind == EdgeKind::Jump
                    && direct[0].to == Some(block.start)
            })
            .map(|(b, _)| b as u32)
            .collect();

        ProgramFacts {
            slots,
            blocks,
            edges,
            block_of_slot,
            statically_illegal,
            unreachable,
            trivial_self_loops,
        }
    }

    /// Number of slots in the analyzed image (≥ 1).
    pub fn slot_count(&self) -> usize {
        self.slots
    }

    /// The basic blocks, in ascending start address.
    pub fn blocks(&self) -> &[BasicBlock] {
        &self.blocks
    }

    /// The flat edge table; per-block slices via [`ProgramFacts::block_edges`].
    pub fn edges(&self) -> &[CfgEdge] {
        &self.edges
    }

    /// The edges of one block, in the fixed per-block order.
    pub fn block_edges(&self, block: usize) -> &[CfgEdge] {
        let block = &self.blocks[block];
        &self.edges[block.edge_start as usize..(block.edge_start + block.edge_count) as usize]
    }

    /// The block containing `pc`, if `pc` is an in-text slot address.
    pub fn block_of_pc(&self, pc: u64) -> Option<usize> {
        if !pc.is_multiple_of(4) || pc < TEXT_BASE {
            return None;
        }
        let slot = ((pc - TEXT_BASE) / 4) as usize;
        self.block_of_slot.get(slot).map(|&b| b as usize)
    }

    /// Slot indices whose word does not decode.
    pub fn statically_illegal(&self) -> &[u32] {
        &self.statically_illegal
    }

    /// Blocks unreachable from the entry block by direct flow.
    pub fn unreachable_blocks(&self) -> &[u32] {
        &self.unreachable
    }

    /// Non-trapping blocks whose only direct edge jumps back to their start.
    pub fn trivial_self_loops(&self) -> &[u32] {
        &self.trivial_self_loops
    }

    /// Maps one dynamic commit onto the static CFG.
    ///
    /// `pc` is the committed instruction's address, `next_pc` the next pc in
    /// program order (including any trap redirect), and `faulted` whether the
    /// commit raised an exception. Resolution order: a faulting commit takes
    /// its block's trap-exit edge; a sequential step inside a block is
    /// [`Transition::Internal`]; a terminator commit matches its block's edges
    /// in stored order — exact target first, then `Indirect` (any target),
    /// then the `Unknown`-sink edges for an out-of-text `next_pc`.
    pub fn map_transition(&self, pc: u64, next_pc: u64, faulted: bool) -> Transition {
        let Some(block_index) = self.block_of_pc(pc) else {
            return Transition::Unmatched;
        };
        let block = &self.blocks[block_index];
        let edge_start = block.edge_start as usize;
        let edges = self.block_edges(block_index);
        if faulted {
            // The trap exit is unconditionally the last edge of every block.
            return Transition::Edge(edge_start + edges.len() - 1);
        }
        if pc != block.terminator_pc() {
            return if next_pc == pc + 4 { Transition::Internal } else { Transition::Unmatched };
        }
        for (offset, edge) in edges.iter().enumerate() {
            if edge.kind != EdgeKind::TrapExit && edge.to == Some(next_pc) {
                return Transition::Edge(edge_start + offset);
            }
        }
        for (offset, edge) in edges.iter().enumerate() {
            if edge.kind == EdgeKind::Indirect {
                return Transition::Edge(edge_start + offset);
            }
        }
        let end = TEXT_BASE + 4 * self.slots as u64;
        let in_text = next_pc.is_multiple_of(4) && (TEXT_BASE..end).contains(&next_pc);
        if !in_text {
            for (offset, edge) in edges.iter().enumerate() {
                if edge.kind != EdgeKind::TrapExit && edge.to.is_none() {
                    return Transition::Edge(edge_start + offset);
                }
            }
        }
        Transition::Unmatched
    }

    /// Renders the facts as one strict JSON object (fixed key order, integers
    /// and fixed kind names only — byte-stable across runs).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"slots\":{},\"block_count\":{},\"edge_count\":{}",
            self.slots,
            self.blocks.len(),
            self.edges.len()
        );
        push_u32_array(&mut out, "illegal_slots", &self.statically_illegal);
        push_u32_array(&mut out, "unreachable_blocks", &self.unreachable);
        push_u32_array(&mut out, "trivial_self_loops", &self.trivial_self_loops);
        out.push_str(",\"blocks\":[");
        for (b, block) in self.blocks.iter().enumerate() {
            if b > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"start\":{},\"len\":{},\"can_trap\":{},\"def\":{},\"use\":{},\
                 \"live_in\":{},\"live_out\":{},\"edges\":[",
                block.start,
                block.len,
                block.can_trap,
                block.def,
                block.uses,
                block.live_in,
                block.live_out
            );
            for (e, edge) in self.block_edges(b).iter().enumerate() {
                if e > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"from\":{},\"to\":", edge.from_pc);
                match edge.to {
                    Some(to) => {
                        let _ = write!(out, "{to}");
                    }
                    None => out.push_str("null"),
                }
                let _ = write!(out, ",\"kind\":\"{}\"}}", edge.kind.name());
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }
}

fn push_u32_array(out: &mut String, key: &str, values: &[u32]) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, value) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{value}");
    }
    out.push(']');
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv::Program;

    fn facts_of(instrs: Vec<Instr>) -> ProgramFacts {
        ProgramFacts::analyze(&Program::from_instrs(instrs).text_bytes())
    }

    fn kinds(facts: &ProgramFacts, block: usize) -> Vec<EdgeKind> {
        facts.block_edges(block).iter().map(|e| e.kind).collect()
    }

    #[test]
    fn empty_image_gets_the_phantom_illegal_slot() {
        let facts = ProgramFacts::analyze(&[]);
        assert_eq!(facts.slot_count(), 1);
        assert_eq!(facts.blocks().len(), 1);
        assert_eq!(facts.statically_illegal(), &[0]);
        assert!(facts.blocks()[0].can_trap);
        // Fall off the end of the image + the unconditional trap exit.
        assert_eq!(kinds(&facts, 0), vec![EdgeKind::FallThrough, EdgeKind::TrapExit]);
        assert_eq!(facts.block_edges(0)[0].to, None);
    }

    #[test]
    fn straight_line_program_is_one_block_ending_in_a_trap_exit() {
        let facts = facts_of(vec![
            Instr::itype(Op::Addi, Gpr::A0, Gpr::A0, 1),
            Instr::itype(Op::Addi, Gpr::A1, Gpr::A0, 2),
            Instr::nullary(Op::Ecall),
        ]);
        assert_eq!(facts.blocks().len(), 1);
        assert_eq!(facts.blocks()[0].len, 3);
        // ecall has no direct successor: the trap exit is the only edge.
        assert_eq!(kinds(&facts, 0), vec![EdgeKind::TrapExit]);
        assert_eq!(facts.block_edges(0)[0].from_pc, TEXT_BASE);
        assert!(facts.unreachable_blocks().is_empty());
    }

    #[test]
    fn branch_splits_blocks_and_emits_taken_and_fall_through_edges() {
        let facts = facts_of(vec![
            Instr::branch(Op::Beq, Gpr::A0, Gpr::A1, 8),
            Instr::itype(Op::Addi, Gpr::A0, Gpr::A0, 1),
            Instr::nullary(Op::Ecall),
        ]);
        assert_eq!(facts.blocks().len(), 3);
        assert_eq!(
            kinds(&facts, 0),
            vec![EdgeKind::BranchTaken, EdgeKind::FallThrough, EdgeKind::TrapExit]
        );
        let edges = facts.block_edges(0);
        assert_eq!(edges[0].to, Some(TEXT_BASE + 8));
        assert_eq!(edges[1].to, Some(TEXT_BASE + 4));
        // The middle block ends at the leader boundary with a fall-through.
        assert_eq!(kinds(&facts, 1), vec![EdgeKind::FallThrough, EdgeKind::TrapExit]);
        assert!(facts.unreachable_blocks().is_empty());
    }

    #[test]
    fn jal_over_a_block_leaves_it_unreachable() {
        let facts = facts_of(vec![
            Instr::jal(Gpr::Zero, 8),
            Instr::itype(Op::Addi, Gpr::A0, Gpr::A0, 1),
            Instr::nullary(Op::Ecall),
        ]);
        assert_eq!(facts.blocks().len(), 3);
        assert_eq!(kinds(&facts, 0), vec![EdgeKind::Jump, EdgeKind::TrapExit]);
        assert_eq!(facts.block_edges(0)[0].to, Some(TEXT_BASE + 8));
        assert_eq!(facts.unreachable_blocks(), &[1]);
    }

    #[test]
    fn out_of_text_jal_targets_the_unknown_sink() {
        let facts = facts_of(vec![Instr::jal(Gpr::Zero, 8)]);
        let edges = facts.block_edges(0);
        assert_eq!(edges[0].kind, EdgeKind::Jump);
        assert_eq!(edges[0].to, None);
    }

    #[test]
    fn jal_to_self_is_a_trivially_infinite_loop() {
        let facts = facts_of(vec![Instr::jal(Gpr::Zero, 0)]);
        assert_eq!(facts.trivial_self_loops(), &[0]);
        assert!(!facts.blocks()[0].can_trap);
    }

    #[test]
    fn backward_jal_loop_header_is_a_trivially_infinite_loop() {
        let facts = facts_of(vec![
            Instr::itype(Op::Addi, Gpr::A0, Gpr::A0, 1),
            Instr::jal(Gpr::Zero, -4),
        ]);
        assert_eq!(facts.blocks().len(), 1);
        assert_eq!(facts.trivial_self_loops(), &[0]);
    }

    #[test]
    fn indirect_and_misaligned_targets_close_with_the_sink_or_trap() {
        let facts = facts_of(vec![
            Instr::itype(Op::Jalr, Gpr::Ra, Gpr::A0, 0),
            // Misaligned taken target (offset 6 ≡ 2 mod 4): trap covers it.
            Instr::branch(Op::Bne, Gpr::A0, Gpr::A1, 6),
            Instr::nullary(Op::Ecall),
        ]);
        assert_eq!(kinds(&facts, 0), vec![EdgeKind::Indirect, EdgeKind::TrapExit]);
        assert_eq!(kinds(&facts, 1), vec![EdgeKind::FallThrough, EdgeKind::TrapExit]);
        assert!(facts.blocks()[1].can_trap);
    }

    #[test]
    fn def_use_and_liveness_follow_the_no_trap_path() {
        // Block 0 defines t0 from scratch; a0 is read before any def.
        let facts = facts_of(vec![
            Instr::itype(Op::Addi, Gpr::T0, Gpr::Zero, 5),
            Instr::itype(Op::Addi, Gpr::A0, Gpr::A0, 1),
            Instr::nullary(Op::Ecall),
        ]);
        let block = &facts.blocks()[0];
        assert_eq!(block.def, reg_bit(Gpr::T0) | reg_bit(Gpr::A0));
        assert_eq!(block.uses, reg_bit(Gpr::A0));
        // ecall halts: every register is observable at exit.
        assert_eq!(block.live_out, ALL_LIVE);
        assert_eq!(block.live_in, ALL_LIVE & !reg_bit(Gpr::T0) | reg_bit(Gpr::A0));
    }

    #[test]
    fn liveness_flows_backward_through_direct_edges() {
        // jal over an unreachable block into the halting block: the entry
        // block's live-out is the halt block's live-in (all live).
        let facts = facts_of(vec![Instr::jal(Gpr::Zero, 8), Instr::nop(), Instr::nullary(Op::Ecall)]);
        assert_eq!(facts.blocks()[0].live_out, ALL_LIVE);
    }

    #[test]
    fn map_transition_resolves_internal_edges_and_traps() {
        let facts = facts_of(vec![
            Instr::itype(Op::Addi, Gpr::A0, Gpr::A0, 1),
            Instr::branch(Op::Beq, Gpr::A0, Gpr::A1, 8),
            Instr::itype(Op::Addi, Gpr::A0, Gpr::A0, 2),
            Instr::nullary(Op::Ecall),
        ]);
        // Sequential step inside block 0.
        assert_eq!(facts.map_transition(TEXT_BASE, TEXT_BASE + 4, false), Transition::Internal);
        // Branch taken and not taken resolve to distinct edges.
        let taken = facts.map_transition(TEXT_BASE + 4, TEXT_BASE + 12, false);
        let not_taken = facts.map_transition(TEXT_BASE + 4, TEXT_BASE + 8, false);
        let (Transition::Edge(t), Transition::Edge(n)) = (taken, not_taken) else {
            panic!("branch transitions must map to edges: {taken:?} / {not_taken:?}");
        };
        assert_ne!(t, n);
        assert_eq!(facts.edges()[t].kind, EdgeKind::BranchTaken);
        assert_eq!(facts.edges()[n].kind, EdgeKind::FallThrough);
        // A faulting commit anywhere in a block takes its trap exit.
        let Transition::Edge(trap) = facts.map_transition(TEXT_BASE, TEXT_BASE + 4, true) else {
            panic!("faulting commit must map to the trap exit");
        };
        assert_eq!(facts.edges()[trap].kind, EdgeKind::TrapExit);
        // The halting ecall maps to its own block's trap exit.
        let Transition::Edge(halt) = facts.map_transition(TEXT_BASE + 12, TEXT_BASE + 16, true)
        else {
            panic!("ecall commit must map to the trap exit");
        };
        assert_eq!(facts.edges()[halt].kind, EdgeKind::TrapExit);
        assert_ne!(trap, halt);
        // Out-of-text pcs never map.
        assert_eq!(facts.map_transition(TEXT_BASE - 4, TEXT_BASE, false), Transition::Unmatched);
    }

    #[test]
    fn map_transition_routes_out_of_text_targets_to_the_sink_edges() {
        let facts = facts_of(vec![Instr::itype(Op::Jalr, Gpr::Ra, Gpr::A0, 0)]);
        let Transition::Edge(edge) = facts.map_transition(TEXT_BASE, 0x9000_0000, false) else {
            panic!("indirect transfer must map to the indirect edge");
        };
        assert_eq!(facts.edges()[edge].kind, EdgeKind::Indirect);
    }

    #[test]
    fn json_rendering_is_stable_and_strict() {
        let facts = facts_of(vec![Instr::jal(Gpr::Zero, 0)]);
        let json = facts.to_json();
        assert_eq!(
            json,
            format!(
                "{{\"slots\":1,\"block_count\":1,\"edge_count\":2,\"illegal_slots\":[],\
                 \"unreachable_blocks\":[],\"trivial_self_loops\":[0],\"blocks\":[{{\"start\":{base},\
                 \"len\":1,\"can_trap\":false,\"def\":0,\"use\":0,\"live_in\":0,\"live_out\":0,\
                 \"edges\":[{{\"from\":{base},\"to\":{base},\"kind\":\"jump\"}},\
                 {{\"from\":{base},\"to\":null,\"kind\":\"trap-exit\"}}]}}]}}",
                base = TEXT_BASE
            )
        );
    }

    #[test]
    fn analysis_is_deterministic() {
        let program = Program::from_instrs(vec![
            Instr::branch(Op::Blt, Gpr::A0, Gpr::A1, 8),
            Instr::jal(Gpr::Ra, 4),
            Instr::nullary(Op::Ecall),
        ]);
        let text = program.text_bytes();
        assert_eq!(ProgramFacts::analyze(&text), ProgramFacts::analyze(&text));
    }

    mod closure_properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// For arbitrary word images the CFG is total and internally
            /// consistent: every block ends with its trap exit, every
            /// `Some` target is a block start, and the slot map is exact.
            #[test]
            fn cfg_is_total_over_arbitrary_images(words in proptest::collection::vec(any::<u32>(), 0..48)) {
                let mut text = Vec::with_capacity(words.len() * 4);
                for word in &words {
                    text.extend_from_slice(&word.to_le_bytes());
                }
                let facts = ProgramFacts::analyze(&text);
                prop_assert_eq!(facts.slot_count(), words.len().max(1));
                let mut covered = 0usize;
                for (b, block) in facts.blocks().iter().enumerate() {
                    covered += block.len as usize;
                    let edges = facts.block_edges(b);
                    prop_assert!(!edges.is_empty());
                    prop_assert_eq!(edges.last().unwrap().kind, EdgeKind::TrapExit);
                    for edge in edges {
                        if let Some(to) = edge.to {
                            let target = facts.block_of_pc(to).expect("in-text target");
                            prop_assert_eq!(facts.blocks()[target].start, to,
                                "every Some target is a block leader");
                        }
                    }
                    prop_assert_eq!(facts.block_of_pc(block.start), Some(b));
                    prop_assert_eq!(facts.block_of_pc(block.terminator_pc()), Some(b));
                }
                prop_assert_eq!(covered, facts.slot_count());
            }
        }
    }
}
