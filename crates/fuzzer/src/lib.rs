//! Hardware-fuzzing substrate: test cases, mutation and differential testing.
//!
//! The MABFuzz paper builds on TheHuzz, a coverage-feedback processor fuzzer
//! with *static* decision strategies. This crate provides the pieces of that
//! simulate–compare–mutate loop; the loop itself lives in
//! `mabfuzz::Campaign`, which runs TheHuzz as a FIFO schedule over one
//! [`TestPool`] and MABFuzz as a bandit over one pool per seed:
//!
//! * [`TestCase`] — a fuzzing input (a [`Program`](riscv::Program) plus
//!   lineage metadata),
//! * [`SeedGenerator`] — random seed creation,
//! * [`MutationEngine`] — TheHuzz's bit/structure-level mutation operators,
//! * [`FuzzHarness`] — runs one test on the DUT and the golden model,
//!   collects coverage and differential-testing mismatches,
//! * [`diff`] — the per-instruction architectural comparison,
//! * [`TestPool`] — the FIFO queue of pending tests,
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

pub use campaign::{CampaignConfig, CampaignStats};
pub use diff::{DiffReport, Mismatch, MismatchKind};
pub use harness::{CoverageSignal, ExecScratch, FuzzHarness, TestOutcome, TestOutcomeView};
pub use mutate::{MutationEngine, MutationOp};
pub use pool::TestPool;
pub use seed::SeedGenerator;
pub use shard::{derive_stream_seed, ShardPlan};
pub use testcase::{TestCase, TestId};
