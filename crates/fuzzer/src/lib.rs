//! Hardware-fuzzing substrate: test cases, mutation, differential testing and
//! the TheHuzz-style baseline fuzzer.
//!
//! The MABFuzz paper builds on TheHuzz, a coverage-feedback processor fuzzer
//! with *static* decision strategies. This crate provides everything both
//! fuzzers share, plus the baseline itself:
//!
//! * [`TestCase`] — a fuzzing input (a [`Program`](riscv::Program) plus
//!   lineage metadata),
//! * [`SeedGenerator`] — random seed creation,
//! * [`MutationEngine`] — TheHuzz's bit/structure-level mutation operators,
//! * [`FuzzHarness`] — runs one test on the DUT and the golden model,
//!   collects coverage and differential-testing mismatches,
//! * [`diff`] — the per-instruction architectural comparison,
//! * [`TheHuzzFuzzer`] — the baseline: FIFO test scheduling, coverage-gated
//!   mutation, no dynamic seed selection,
//! * [`CampaignStats`] — per-campaign statistics (coverage curves, detection
//!   test counts) consumed by the experiment harness,
//! * [`shard`] — batched bandit rounds: the [`ShardPlan`] batch size and
//!   the per-test RNG stream derivation behind the **determinism contract**
//!   (see the [`shard`] module docs) that makes every campaign report a
//!   pure function of its spec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod diff;
pub mod harness;
pub mod mutate;
pub mod pool;
pub mod seed;
pub mod shard;
pub mod testcase;
pub mod thehuzz;

pub use campaign::{CampaignConfig, CampaignStats};
pub use diff::{DiffReport, Mismatch, MismatchKind};
pub use harness::{CoverageSignal, ExecScratch, FuzzHarness, TestOutcome, TestOutcomeView};
pub use mutate::{MutationEngine, MutationOp};
pub use pool::TestPool;
pub use seed::SeedGenerator;
pub use shard::{derive_stream_seed, ShardPlan};
pub use testcase::{TestCase, TestId};
pub use thehuzz::{BaselineTestRecord, TheHuzzFuzzer};
