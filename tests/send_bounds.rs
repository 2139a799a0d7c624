//! Compile-time thread-safety contract of the campaign state.
//!
//! The `mab::Bandit` trait carries a `Send` supertrait because campaign
//! state crosses threads: the grid executor and the service's campaign
//! workers run whole campaigns off the thread that assembled them. A
//! regression (an `Rc`, a raw pointer, a non-`Send` trait object slipped
//! into a field) would otherwise compile fine and only explode later. These
//! assertions pin every link of that chain individually, so a violation
//! names the exact type that regressed instead of failing somewhere inside
//! a `thread::spawn` bound.

use mabfuzz_suite::coverage::{CoverageMap, CoverageSeries, CumulativeCoverage};
use mabfuzz_suite::fuzzer::{
    CampaignStats, ExecScratch, FuzzHarness, MutationEngine, SeedGenerator, ShardPlan, TestCase,
    TestOutcome, TestPool,
};
use mabfuzz_suite::mab::{Bandit, EpsilonGreedy, Exp3, Ucb1};
use mabfuzz_suite::mabfuzz::{
    Arm, Campaign, CampaignObserver, CampaignSpec, MabFuzzOutcome, SaturationMonitor,
};
use mabfuzz_suite::proc_sim::{DutResult, Processor, SimScratch};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}
fn assert_send_value<T: Send>(_value: &T) {}

#[test]
fn campaign_state_is_send() {
    // Assembled campaigns — what the grid executor moves to its workers,
    // observers included (the trait carries a `Send` supertrait exactly for
    // this) — their outcomes, and the specs the grid fans out.
    assert_send::<Campaign>();
    assert_send::<MabFuzzOutcome>();
    assert_send::<CampaignSpec>();
    assert_send::<Box<dyn CampaignObserver>>();

    // The pieces a campaign is assembled from.
    assert_send::<FuzzHarness>();
    assert_send::<ExecScratch>();
    assert_send::<CampaignStats>();
    assert_send::<Arm>();
    assert_send::<SaturationMonitor>();
    assert_send::<SeedGenerator>();
    assert_send::<MutationEngine>();
    assert_send::<TestCase>();
    assert_send::<TestPool>();

    // Per-test simulation state and results.
    assert_send::<ShardPlan>();
    assert_send::<TestOutcome>();
    assert_send::<CoverageMap>();
    assert_send::<SimScratch>();
    assert_send::<DutResult>();

    // Reduction state.
    assert_send::<CumulativeCoverage>();
    assert_send::<CoverageSeries>();
}

#[test]
fn bandit_trait_objects_are_send() {
    // `Bandit: Send` is a supertrait, so boxed policies — including the
    // campaign's `Box<dyn Bandit>` field — must be `Send` as trait objects,
    // not just as concrete types.
    assert_send::<Box<dyn Bandit>>();
    assert_send::<EpsilonGreedy>();
    assert_send::<Ucb1>();
    assert_send::<Exp3>();
    let boxed: Box<dyn Bandit> = Box::new(Ucb1::new(3));
    assert_send_value(&boxed);
}

#[test]
fn shared_processor_handles_are_send_and_sync() {
    // `Arc<dyn Processor>` is shared by every grid cell built on it, which
    // needs both `Send` (the Arc moves) and `Sync` (the processor is shared).
    assert_send::<std::sync::Arc<dyn Processor>>();
    assert_sync::<std::sync::Arc<dyn Processor>>();
    assert_sync::<FuzzHarness>();
}
