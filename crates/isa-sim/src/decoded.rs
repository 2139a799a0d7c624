//! Pre-decoded program images and the per-worker decode cache.
//!
//! Both the golden model ([`GoldenSim`](crate::GoldenSim)) and the `proc-sim`
//! processor models are fetch→decode→execute interpreters. MABFuzz campaigns
//! re-simulate tiny generated programs thousands of times, and a 300-step run
//! of a 20-instruction program used to call `riscv::decode` 300 times *per
//! simulator* — the decode cache turns that into 20 decodes total, amortised
//! across every re-simulation of the same text image.
//!
//! # Invariants
//!
//! The cache is sound because of three properties, each pinned by tests:
//!
//! * **Text is immutable during execution.** `Memory::can_store` only permits
//!   stores to the `Data` region, so a running program can never modify the
//!   bytes a [`DecodedProgram`] was decoded from (see
//!   [`Memory::fetch`](crate::Memory::fetch) for the full argument). A
//!   pre-decoded image therefore stays valid for the whole run.
//! * **Keying is by exact text bytes.** Entries are looked up by a 64-bit
//!   FNV-1a hash of the encoded text image *and verified with a byte
//!   comparison on every hit*, so a hash collision degrades to a miss-and-
//!   replace, never to executing the wrong program. Two programs with equal
//!   text but different data regions share an entry by design: decode does
//!   not depend on the data image, which is loaded separately per run.
//! * **Architectural decode only.** A [`DecodedSlot`] caches the result of
//!   the *architectural* `riscv::decode` (`instr == None` marks a decode
//!   fault). Bug-injected decoder behaviour in `proc-sim` (e.g. the V2
//!   "illegal word still executes" path) layers on top of the cached fault
//!   exactly as it layers on top of a live `decode` failure — the buggy
//!   decoders are never bypassed and never cached.
//!
//! The cache is bounded ([`DecodeCache::DEFAULT_CAPACITY`] entries, least-
//! recently-used eviction) and owned per scratch — one per
//! `fuzzer::ExecScratch`, hence one per campaign — so the hot path shares no
//! mutable state and hit/miss behaviour depends only on the sequence of
//! programs the campaign simulates, never on thread interleaving.
//!
//! # Oracle mode
//!
//! The interpreted fetch/decode path stays alive as the differential oracle:
//! `MABFUZZ_DECODE_CACHE=off` makes every `ExecScratch` run both simulators
//! through `Memory::fetch` + live `decode` again, and CI asserts the smoke
//! grid's artefacts are byte-identical in both modes.

use std::collections::HashMap;

use analysis::ProgramFacts;
use riscv::program::TEXT_BASE;
use riscv::{decode, Instr, Program};

use crate::PHYS_ADDR_MASK;

/// One pre-decoded instruction slot of a program text image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedSlot {
    /// The raw little-endian instruction word at this slot.
    pub word: u32,
    /// The architectural decode of `word`; `None` records a decode fault
    /// (the word raises an illegal-instruction exception when fetched).
    pub instr: Option<Instr>,
}

/// A program text image decoded once, indexable by fetch address.
///
/// [`fetch`](DecodedProgram::fetch) reproduces the semantics of
/// [`Memory::fetch`](crate::Memory::fetch) followed by `riscv::decode`
/// exactly, including the quirk that an *empty* text image still exposes one
/// fetchable all-zero word (the text region spans at least four bytes); see
/// the module docs for why the image stays valid for a whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedProgram {
    text: Vec<u8>,
    slots: Vec<DecodedSlot>,
}

impl DecodedProgram {
    /// Encodes and pre-decodes `program`'s text image (raw-word overrides
    /// included, exactly as [`Program::text_bytes`] emits them).
    pub fn from_program(program: &Program) -> DecodedProgram {
        DecodedProgram::from_text(program.text_bytes())
    }

    /// Pre-decodes an already-encoded text image.
    ///
    /// `text` must be instruction-aligned (a multiple of 4 bytes), which every
    /// [`Program`] image is by construction.
    pub(crate) fn from_text(text: Vec<u8>) -> DecodedProgram {
        debug_assert!(
            text.len().is_multiple_of(4),
            "program text images are whole instruction words"
        );
        let mut slots: Vec<DecodedSlot> = text
            .chunks_exact(4)
            .map(|chunk| {
                let word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                DecodedSlot { word, instr: decode(word).ok() }
            })
            .collect();
        if slots.is_empty() {
            // An empty text image still has one fetchable word: the text
            // region spans at least 4 bytes (`Memory::region_of`) and
            // unwritten memory reads zero.
            slots.push(DecodedSlot { word: 0, instr: decode(0).ok() });
        }
        DecodedProgram { text, slots }
    }

    /// Returns the pre-decoded slot fetched at `addr`, or `None` when the
    /// address is outside the text region or misaligned — bit-for-bit the
    /// behaviour of [`Memory::fetch`](crate::Memory::fetch) plus
    /// `riscv::decode` on the same image.
    #[inline]
    pub fn fetch(&self, addr: u64) -> Option<&DecodedSlot> {
        let addr = addr & PHYS_ADDR_MASK;
        if !addr.is_multiple_of(4) || addr < TEXT_BASE {
            return None;
        }
        self.slots.get(((addr - TEXT_BASE) >> 2) as usize)
    }

    /// The encoded text image this program was decoded from (what
    /// `Memory::reset_with_program` should load).
    pub fn text(&self) -> &[u8] {
        &self.text
    }

    /// Number of fetchable instruction slots (at least 1, even for an empty
    /// image).
    pub fn len_words(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` when this image is exactly `program`'s current text —
    /// the precondition of the `run_decoded_into` entry points, asserted in
    /// debug builds.
    pub fn matches(&self, program: &Program) -> bool {
        self.text == program.text_bytes()
    }
}

/// Observable counters of a [`DecodeCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Lookups answered from a cached image (verified by byte comparison).
    pub hits: u64,
    /// Lookups that had to decode the image.
    pub misses: u64,
    /// Entries displaced, either by the LRU capacity bound or by a 64-bit
    /// hash collision replacing the resident image.
    pub evictions: u64,
}

impl DecodeCacheStats {
    /// Total lookups served.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

struct CacheEntry {
    decoded: DecodedProgram,
    /// Static CFG/liveness facts for the image, computed lazily on the first
    /// [`DecodeCache::get_or_decode_with_facts`] lookup. Point-coverage
    /// campaigns never ask for facts, so they never pay for the analysis.
    facts: Option<ProgramFacts>,
    last_used: u64,
}

/// A bounded, LRU-evicting cache of [`DecodedProgram`]s keyed by text hash.
///
/// See the [module docs](self) for the soundness invariants. The cache is a
/// plain single-owner value: every worker owns its own instance, so lookups
/// are lock-free and the hit/miss sequence is a pure function of the program
/// sequence the worker simulates.
pub struct DecodeCache {
    // Probed by text hash only; the unique-timestamp LRU below keeps even
    // eviction free of iteration-order influence.
    entries: HashMap<u64, CacheEntry>, // detlint: allow(default-hasher)
    capacity: usize,
    /// Monotonic lookup counter used as the LRU timestamp. Each entry's
    /// `last_used` is unique (the counter advances every lookup), so the
    /// eviction victim is always uniquely determined — no dependence on hash-
    /// map iteration order.
    tick: u64,
    stats: DecodeCacheStats,
    text_scratch: Vec<u8>,
}

impl DecodeCache {
    /// Default capacity bound, in cached programs.
    ///
    /// Campaign working sets are a handful of seeds plus their recent
    /// mutants; 512 tiny programs (≲100 instructions each) keep re-decodes
    /// rare for a few megabytes at most.
    pub const DEFAULT_CAPACITY: usize = 512;

    /// Creates a cache with the default capacity bound.
    pub fn new() -> DecodeCache {
        DecodeCache::with_capacity(DecodeCache::DEFAULT_CAPACITY)
    }

    /// Creates a cache bounded to `capacity` programs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(capacity: usize) -> DecodeCache {
        assert!(capacity > 0, "a decode cache needs room for at least one program");
        DecodeCache {
            entries: HashMap::with_capacity(capacity.min(1024)), // detlint: allow(default-hasher)
            capacity,
            tick: 0,
            stats: DecodeCacheStats::default(),
            text_scratch: Vec::new(),
        }
    }

    /// Returns the pre-decoded image of `program`, decoding and caching it on
    /// a miss.
    ///
    /// Hits are verified by comparing the stored text bytes against the
    /// program's current image, so a stale or hash-colliding entry can never
    /// be returned.
    pub fn get_or_decode(&mut self, program: &Program) -> &DecodedProgram {
        program.text_bytes_into(&mut self.text_scratch);
        let key = fnv1a(&self.text_scratch);
        self.tick += 1;

        let hit = self
            .entries
            .get(&key)
            .is_some_and(|entry| entry.decoded.text == self.text_scratch);
        if hit {
            self.stats.hits += 1;
            let entry = self.entries.get_mut(&key).expect("hit entry is present");
            entry.last_used = self.tick;
            return &entry.decoded;
        }

        self.stats.misses += 1;
        if self.entries.contains_key(&key) {
            // 64-bit hash collision with a different image: replace the
            // resident entry (the insert below overwrites it).
            self.stats.evictions += 1;
        } else if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| *key)
                .expect("a full cache has entries");
            self.entries.remove(&victim);
            self.stats.evictions += 1;
        }

        let decoded = DecodedProgram::from_text(self.text_scratch.clone());
        self.entries.insert(key, CacheEntry { decoded, facts: None, last_used: self.tick });
        &self.entries.get(&key).expect("entry was just inserted").decoded
    }

    /// Like [`get_or_decode`](DecodeCache::get_or_decode), additionally
    /// returning the static [`ProgramFacts`] of the image, computed lazily on
    /// the first facts lookup and attached to the cache entry afterwards.
    ///
    /// Because the analysis is a pure function of the text bytes (pinned by a
    /// property test below), a cached facts hit is indistinguishable from a
    /// fresh `ProgramFacts::analyze` of the same image. Hit/miss accounting is
    /// shared with `get_or_decode`: asking for facts never changes the stats
    /// stream.
    pub fn get_or_decode_with_facts(
        &mut self,
        program: &Program,
    ) -> (&DecodedProgram, &ProgramFacts) {
        self.get_or_decode(program);
        // `get_or_decode` left `text_scratch` holding this program's image;
        // re-derive the key to re-borrow the entry it just ensured.
        let key = fnv1a(&self.text_scratch);
        let entry = self.entries.get_mut(&key).expect("entry was just ensured");
        if entry.facts.is_none() {
            entry.facts = Some(ProgramFacts::analyze(entry.decoded.text()));
        }
        (&entry.decoded, entry.facts.as_ref().expect("facts were just filled"))
    }

    /// Returns the hit/miss/eviction counters.
    pub fn stats(&self) -> DecodeCacheStats {
        self.stats
    }

    /// Number of programs currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no program is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The capacity bound this cache was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl Default for DecodeCache {
    fn default() -> DecodeCache {
        DecodeCache::new()
    }
}

impl std::fmt::Debug for DecodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeCache")
            .field("len", &self.entries.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats)
            .finish()
    }
}

/// 64-bit FNV-1a over the text image. Deterministic across runs and
/// platforms (unlike `std`'s seeded hasher), which keeps cache behaviour —
/// including collision handling — reproducible.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Memory;
    use proptest::prelude::*;
    use riscv::{Gpr, Op};

    fn sample_program(seed: i64) -> Program {
        Program::from_instrs(vec![
            Instr::itype(Op::Addi, Gpr::A0, Gpr::Zero, seed % 100),
            Instr::rtype(Op::Add, Gpr::A1, Gpr::A0, Gpr::A0),
            Instr::nullary(Op::Ecall),
        ])
    }

    #[test]
    fn fetch_matches_memory_fetch_plus_decode() {
        let mut program = sample_program(7);
        program.set_raw(1, 0xffff_ffff); // an undecodable word
        let decoded = DecodedProgram::from_program(&program);
        let mem = Memory::with_program(&program.text_bytes(), program.data());
        for addr in (TEXT_BASE - 8)..(TEXT_BASE + 24) {
            let via_mem = mem.fetch(addr).map(|word| (word, decode(word).ok()));
            let via_cache = decoded.fetch(addr).map(|slot| (slot.word, slot.instr));
            assert_eq!(via_cache, via_mem, "divergence at {addr:#x}");
        }
    }

    #[test]
    fn empty_program_exposes_one_zero_word() {
        let program = Program::new();
        let decoded = DecodedProgram::from_program(&program);
        assert_eq!(decoded.len_words(), 1);
        let slot = decoded.fetch(TEXT_BASE).expect("phantom word is fetchable");
        assert_eq!(slot.word, 0);
        assert_eq!(slot.instr, None, "the zero word does not decode");
        // Exactly what Memory::fetch reports for the same image.
        let mem = Memory::with_program(&[], &[]);
        assert_eq!(mem.fetch(TEXT_BASE), Some(0));
        assert_eq!(mem.fetch(TEXT_BASE + 4), None);
        assert_eq!(decoded.fetch(TEXT_BASE + 4).map(|s| s.word), None);
    }

    #[test]
    fn repeated_lookups_hit() {
        let mut cache = DecodeCache::new();
        let program = sample_program(1);
        let first = cache.get_or_decode(&program).clone();
        let second = cache.get_or_decode(&program).clone();
        assert_eq!(first, second);
        assert_eq!(cache.stats(), DecodeCacheStats { hits: 1, misses: 1, evictions: 0 });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().lookups(), 2);
    }

    #[test]
    fn mutated_program_misses_and_reuses_nothing_stale() {
        let mut cache = DecodeCache::new();
        let mut program = sample_program(1);
        cache.get_or_decode(&program);
        program.instrs_mut()[0] = Instr::itype(Op::Addi, Gpr::A0, Gpr::Zero, 99);
        let decoded = cache.get_or_decode(&program);
        assert!(decoded.matches(&program));
        assert_eq!(decoded.fetch(TEXT_BASE).unwrap().instr.unwrap().imm, 99);
        assert_eq!(cache.stats(), DecodeCacheStats { hits: 0, misses: 2, evictions: 0 });
    }

    #[test]
    fn lru_eviction_respects_the_capacity_bound() {
        let mut cache = DecodeCache::with_capacity(2);
        let a = sample_program(1);
        let b = sample_program(2);
        let c = sample_program(3);
        cache.get_or_decode(&a);
        cache.get_or_decode(&b);
        cache.get_or_decode(&a); // `b` is now least recently used
        cache.get_or_decode(&c); // evicts `b`
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // `a` survived (hit), `b` was evicted (miss decodes again).
        cache.get_or_decode(&a);
        assert_eq!(cache.stats().hits, 2);
        cache.get_or_decode(&b);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    #[should_panic(expected = "at least one program")]
    fn zero_capacity_is_rejected() {
        let _ = DecodeCache::with_capacity(0);
    }

    #[test]
    fn stats_are_a_pure_function_of_the_program_sequence() {
        let sequence: Vec<Program> =
            [1, 2, 1, 3, 2, 2, 4, 1].iter().map(|&s| sample_program(s)).collect();
        let mut first = DecodeCache::new();
        let mut second = DecodeCache::new();
        for program in &sequence {
            first.get_or_decode(program);
        }
        for program in &sequence {
            second.get_or_decode(program);
        }
        assert_eq!(first.stats(), second.stats());
        assert_eq!(first.stats().hits, 4);
        assert_eq!(first.stats().misses, 4);
    }

    #[test]
    fn facts_attach_to_the_cached_image_and_match_fresh_analysis() {
        let mut cache = DecodeCache::new();
        let program = sample_program(1);
        let fresh = ProgramFacts::analyze(&program.text_bytes());
        let (decoded, facts) = cache.get_or_decode_with_facts(&program);
        assert!(decoded.matches(&program));
        assert_eq!(facts, &fresh);
        // The second lookup hits and reuses the attached facts; asking for
        // facts never perturbs the stats stream.
        let (_, again) = cache.get_or_decode_with_facts(&program);
        assert_eq!(again, &fresh);
        assert_eq!(cache.stats(), DecodeCacheStats { hits: 1, misses: 1, evictions: 0 });
    }

    #[test]
    fn plain_lookups_never_compute_facts() {
        let mut cache = DecodeCache::new();
        let program = sample_program(2);
        cache.get_or_decode(&program);
        let key_entry = cache.entries.values().next().expect("one entry");
        assert!(key_entry.facts.is_none(), "point-coverage lookups must not pay for analysis");
    }

    proptest! {
        /// Static analysis is a pure function of the text bytes: a facts hit
        /// from the cache is indistinguishable from a fresh analysis of the
        /// same image, for arbitrary (legal or not) word images.
        #[test]
        fn cached_facts_equal_fresh_analysis(words in proptest::collection::vec(any::<u32>(), 0..24)) {
            let text: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let (program, _) = Program::from_text_bytes(&text);
            let mut cache = DecodeCache::new();
            let first = cache.get_or_decode_with_facts(&program).1.clone();
            let second = cache.get_or_decode_with_facts(&program).1.clone(); // hit path
            prop_assert_eq!(&first, &second);
            prop_assert_eq!(&first, &ProgramFacts::analyze(&program.text_bytes()));
        }

        /// For arbitrary word images (legal or not), `DecodedProgram::fetch`
        /// is indistinguishable from `Memory::fetch` + `decode` at every
        /// aligned and misaligned probe address around the text region.
        #[test]
        fn fetch_equivalence_over_arbitrary_images(words in proptest::collection::vec(any::<u32>(), 0..24)) {
            let text: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            let decoded = DecodedProgram::from_text(text.clone());
            let mem = Memory::with_program(&text, &[]);
            let end = TEXT_BASE + 4 * (words.len() as u64 + 2);
            for addr in (TEXT_BASE - 4)..end {
                let via_mem = mem.fetch(addr).map(|word| (word, decode(word).ok()));
                let via_cache = decoded.fetch(addr).map(|slot| (slot.word, slot.instr));
                prop_assert_eq!(via_cache, via_mem, "divergence at {:#x}", addr);
            }
        }
    }
}
