//! MABFuzz: multi-armed bandit algorithms for fuzzing processors.
//!
//! This crate is the reproduction of the paper's core contribution — a
//! dynamic, adaptive seed-selection layer that can be bolted onto any
//! coverage-feedback hardware fuzzer. It reuses the fuzzing substrate from
//! the [`fuzzer`] crate (seed generation, mutation, differential testing,
//! campaign statistics) and the generic bandit algorithms from [`mab`], and
//! adds the pieces that are specific to the paper:
//!
//! * [`Arm`] — a seed, its mutation-derived test pool and its arm-local
//!   cumulative coverage;
//! * [`RewardParams`] — the reward
//!   `R_t(a) = α·|cov_L| + (1 − α)·|cov_G|` of §III-B;
//! * [`SaturationMonitor`] — the γ-window monitor of §III-C that detects
//!   depleted arms;
//! * [`Campaign`] — the orchestrator of Fig. 2 and the one way to run a
//!   campaign: select an arm with the modified MAB algorithm, simulate one
//!   test or one [`ShardPlan`] batch of its tests on the campaign thread
//!   (see the determinism contract in [`fuzzer::shard`]), mutate, reward,
//!   and reset saturated arms. `Campaign::from_spec(&spec)?.execute()` runs anything
//!   from the TheHuzz baseline to a custom bandit registered at runtime
//!   through [`mab::register_policy`].
//!
//! Around that core, the campaign-facing API is declarative:
//!
//! * [`CampaignSpec`] — one validated, JSON-serializable description of a
//!   whole campaign (policy, α/γ/ε/η, budget, generator, RNG seed, batch
//!   size, optionally the processor), with a fluent builder;
//! * [`CampaignObserver`] — streaming per-round/per-test events (arm
//!   selected, test folded, detection, arm reset, coverage milestone) for
//!   monitoring a campaign while it runs; the built-in statistics are
//!   expressed against the same events, and **both** schedules of the one
//!   campaign loop — MABFuzz's bandit and the TheHuzz baseline's FIFO
//!   queue — emit the full per-test stream in deterministic fold order;
//! * [`EventLog`] / [`ProgressMonitor`] — the first production consumers of
//!   that seam: a buffered JSONL event sink whose stream is a deterministic
//!   function of the spec (golden-pinned in CI), and a live tests/sec +
//!   coverage + per-arm progress reporter (both surfaced as
//!   `experiments run --events out.jsonl --progress`);
//! * [`EventBroadcast`] / [`CancelToken`] — the service-layer seams: a
//!   replay-from-start fan-out sink for concurrent event subscribers, and
//!   cooperative cancellation that stops a campaign at a deterministic fold
//!   boundary (its event stream stays a strict prefix of the full run's).
//!   The `mabfuzz-service` crate serves both over HTTP
//!   (`experiments serve`), with final reports rendered by
//!   [`report::campaign_json`] — the same document `experiments run --json`
//!   prints.
//!
//! # Quick start
//!
//! ```
//! use mab::BanditKind;
//! use mabfuzz::{BugSpec, Campaign, CampaignSpec};
//! use proc_sim::ProcessorKind;
//!
//! let spec = CampaignSpec::builder()
//!     .algorithm(BanditKind::Ucb1)
//!     .max_tests(25)
//!     .processor(ProcessorKind::Rocket, BugSpec::None)
//!     .rng_seed(7)
//!     .build()
//!     .unwrap();
//! let outcome = Campaign::from_spec(&spec).unwrap().execute();
//! assert_eq!(outcome.stats.tests_executed(), 25);
//!
//! // The spec is one serializable object; this exact campaign replays from
//! // its JSON (also: `experiments run --spec file.json`).
//! assert_eq!(CampaignSpec::from_json(&spec.to_json()).unwrap(), spec);
//! ```
//!
//! Against a processor built by the caller (a custom model, or one shared
//! across many cells), use [`Campaign::from_spec_on`] with a spec that has
//! no processor section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arm;
pub mod campaign;
pub mod cancel;
pub mod event_log;
pub mod json_value;
mod json_text;
pub mod monitor;
pub mod observer;
pub mod progress;
pub mod report;
pub mod reward;
pub mod spec;
#[cfg(test)]
mod thehuzz;

pub use arm::Arm;
pub use campaign::{ArmSummary, Campaign, MabFuzzOutcome};
pub use cancel::CancelToken;
pub use event_log::{EventBroadcast, EventLog, EventLogHealth, SharedBuffer};
pub use fuzzer::{CoverageSignal, ShardPlan};
pub use monitor::SaturationMonitor;
pub use observer::{
    ArmReset, ArmSelected, BatchFolded, CampaignFinished, CampaignObserver, CoverageMilestone,
    DetectionObserved, TestFolded,
};
pub use fuzzer::shard::derive_stream_seed;
pub use progress::ProgressMonitor;
pub use report::CampaignSummary;
pub use reward::RewardParams;
pub use spec::{
    BugSpec, CampaignSpec, CampaignSpecBuilder, PolicySpec, ProcessorSpec, SpecError,
};
