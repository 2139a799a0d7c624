//! Cross-crate integration test: the TheHuzz baseline speaks the full
//! observer event protocol without changing a single byte of any artefact.
//!
//! Attaching observers (including the production `EventLog` consumer) to a
//! `PolicySpec::Baseline` campaign leaves the outcome identical to the
//! unobserved run, for coverage mode and for detection mode (the grid's
//! golden `experiments_smoke.json` is pinned separately by
//! `tests/golden_experiments.rs`).

use std::sync::{Arc, Mutex};

use mabfuzz_suite::mabfuzz::{
    BugSpec, Campaign, CampaignObserver, CampaignSpec, EventLog, SharedBuffer, TestFolded,
};
use mabfuzz_suite::proc_sim::{ProcessorKind, Vulnerability};

/// Counts per-test events, to prove the baseline actually streams them.
#[derive(Default)]
struct Counter(Arc<Mutex<u64>>);

impl CampaignObserver for Counter {
    fn test_folded(&mut self, _event: &TestFolded<'_>) {
        *self.0.lock().unwrap() += 1;
    }
}

fn coverage_spec() -> CampaignSpec {
    CampaignSpec::builder()
        .baseline()
        .max_tests(120)
        .max_steps_per_test(200)
        .sample_interval(5)
        .processor(ProcessorKind::Rocket, BugSpec::Native)
        .rng_seed(11)
        .build()
        .expect("valid spec")
}

fn detection_spec() -> CampaignSpec {
    CampaignSpec::builder()
        .baseline()
        .max_tests(1500)
        .max_steps_per_test(250)
        .stop_on_first_detection(true)
        .processor(ProcessorKind::Cva6, BugSpec::Only(Vulnerability::V5MissingAccessFault))
        .rng_seed(2)
        .build()
        .expect("valid spec")
}

#[test]
fn observers_are_byte_neutral_on_baseline_campaigns() {
    for spec in [coverage_spec(), detection_spec()] {
        let plain = Campaign::from_spec(&spec).unwrap().execute();

        let buffer = SharedBuffer::new();
        let seen = Arc::new(Mutex::new(0));
        let observed = Campaign::from_spec(&spec)
            .unwrap()
            .with_observer(Box::new(EventLog::new(buffer.clone())))
            .with_observer(Box::new(Counter(Arc::clone(&seen))))
            .execute();

        assert_eq!(plain, observed, "observers perturbed a baseline campaign ({})", spec.label());
        assert_eq!(
            *seen.lock().unwrap(),
            observed.stats.tests_executed(),
            "every executed baseline test streams a TestFolded event"
        );
        assert!(
            buffer.contents().lines().last().unwrap().contains("campaign_finished"),
            "the event log captured the full stream"
        );
    }
}
