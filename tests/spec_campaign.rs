//! The spec-file pipeline, end to end, pinned by a golden snapshot.
//!
//! `tests/golden/campaign_spec.json` is the checked-in example
//! [`CampaignSpec`]: the smoke-budget UCB cell of the experiment grid
//! (rocket, native bugs, 120 tests, seed 7) written out as a spec file.
//! This suite verifies the whole loop around it:
//!
//! * the file parses into exactly the spec the grid constructs
//!   programmatically (`mabfuzz_bench::campaign_spec`), so the documented
//!   schema and the in-process builders cannot drift apart;
//! * executing it through `Campaign::from_spec` and rendering with
//!   `report::campaign_json` reproduces `tests/golden/spec_campaign_smoke.json`
//!   byte for byte (re-bless with `UPDATE_GOLDEN=1`, like the experiments
//!   golden) — CI additionally checks the `experiments run --spec` binary
//!   path against the same snapshot;
//! * a custom policy registered at runtime (Thompson-style) runs a full
//!   campaign through `Campaign::from_spec` and shows up in the report
//!   label, with no edit to core or bench sources — the acceptance
//!   criterion of the registry redesign.

use std::path::PathBuf;

use mabfuzz_bench::{campaign_config, campaign_spec, FuzzerKind, ShardPlan};
use mabfuzz_suite::mab::{self, Bandit, BanditKind, PolicyParams};
use mabfuzz_suite::mabfuzz::report::campaign_json;
use mabfuzz_suite::mabfuzz::{BugSpec, Campaign, CampaignSpec, PolicySpec, ProcessorSpec};
use mabfuzz_suite::proc_sim::ProcessorKind;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn checked_in_spec() -> CampaignSpec {
    let path = golden_dir().join("campaign_spec.json");
    let text = std::fs::read_to_string(&path).expect("campaign_spec.json present");
    CampaignSpec::from_json(&text).expect("the checked-in spec parses")
}

#[test]
fn checked_in_spec_matches_the_grid_construction() {
    let mut expected = campaign_spec(
        FuzzerKind::MabFuzz(BanditKind::Ucb1),
        campaign_config(120),
        7,
        &ShardPlan::serial(),
    );
    expected.processor = Some(ProcessorSpec { core: ProcessorKind::Rocket, bugs: BugSpec::Native });
    assert_eq!(
        checked_in_spec(),
        expected,
        "tests/golden/campaign_spec.json drifted from the grid's spec construction"
    );
}

#[test]
fn spec_file_campaign_matches_the_golden_snapshot() {
    let spec = checked_in_spec();
    let outcome = Campaign::from_spec(&spec).expect("self-contained spec").execute();
    assert_eq!(outcome.stats.tests_executed(), 120);
    let mut rendered = campaign_json(&spec, &outcome);
    rendered.push('\n'); // the binary prints one line

    let path = golden_dir().join("spec_campaign_smoke.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden snapshot");
        eprintln!("re-blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|error| {
        panic!(
            "missing golden snapshot {} ({error}); run UPDATE_GOLDEN=1 cargo test \
             --test spec_campaign to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "the spec-driven campaign diverged from tests/golden/spec_campaign_smoke.json — \
         the RNG stream, the spec codec or the campaign renderer changed. If intentional, \
         re-bless with UPDATE_GOLDEN=1 and justify the re-baseline."
    );
}

/// A deliberately simple Bayesian-flavoured policy for the acceptance test:
/// Thompson-style sampling over empirical means with count-shrinking noise.
struct MiniThompson {
    kind: BanditKind,
    means: Vec<f64>,
    pulls: Vec<u64>,
}

impl Bandit for MiniThompson {
    fn kind(&self) -> BanditKind {
        self.kind
    }
    fn arms(&self) -> usize {
        self.means.len()
    }
    fn select(&mut self, rng: &mut dyn rand::RngCore) -> usize {
        use rand::Rng as _;
        let mut best = 0;
        let mut best_sample = f64::NEG_INFINITY;
        for arm in 0..self.means.len() {
            let sigma = 1.0 / ((self.pulls[arm] as f64) + 1.0).sqrt();
            // Uniform noise stands in for a posterior draw; enough to test
            // the plumbing without a normal sampler.
            let sample = self.means[arm] + sigma * (rng.gen::<f64>() - 0.5);
            if sample > best_sample {
                best_sample = sample;
                best = arm;
            }
        }
        best
    }
    fn update(&mut self, arm: usize, reward: f64) {
        self.pulls[arm] += 1;
        let n = self.pulls[arm] as f64;
        self.means[arm] += (reward - self.means[arm]) / n;
    }
    fn reset_arm(&mut self, arm: usize) {
        self.means[arm] = 0.0;
        self.pulls[arm] = 0;
    }
    fn value(&self, arm: usize) -> f64 {
        self.means[arm]
    }
    fn pulls(&self, arm: usize) -> u64 {
        self.pulls[arm]
    }
}

#[test]
fn runtime_registered_policy_runs_a_full_campaign_via_specs() {
    let kind = mab::register_policy("test-thompson", |params: &PolicyParams| {
        Box::new(MiniThompson {
            kind: params.kind,
            means: vec![0.0; params.arms],
            pulls: vec![0; params.arms],
        })
    })
    .expect("fresh name");

    // The registered name resolves everywhere a policy name is accepted …
    assert_eq!(BanditKind::parse("Test-Thompson"), Ok(kind));
    let spec = CampaignSpec::from_json(
        "{\"policy\":\"test-thompson\",\"rng_seed\":5,\
         \"campaign\":{\"max_tests\":60},\
         \"processor\":{\"core\":\"rocket\",\"bugs\":\"none\"}}",
    )
    .expect("spec naming the custom policy");
    assert_eq!(spec.policy, PolicySpec::Bandit(kind));

    // … drives a complete campaign through the session type …
    let outcome = Campaign::from_spec(&spec).expect("campaign assembles").execute();
    assert_eq!(outcome.stats.tests_executed(), 60);
    assert!(outcome.stats.final_coverage() > 0);
    let pulls: u64 = outcome.arms.iter().map(|a| a.pulls).sum();
    assert!(pulls >= 60, "every executed test is a pull");

    // … and the report label carries the registered name (no core/bench
    // source was edited to admit the policy).
    assert_eq!(outcome.stats.label(), "MABFuzz: test-thompson on rocket");

    // The custom policy is also reproducible: same spec, same bytes.
    let again = Campaign::from_spec(&spec).expect("campaign assembles").execute();
    assert_eq!(outcome, again);
}

#[test]
fn spec_round_trips_through_json_at_the_suite_level() {
    let spec = checked_in_spec();
    let round_tripped = CampaignSpec::from_json(&spec.to_json()).expect("round trip");
    assert_eq!(round_tripped, spec);
}
