//! The edge-coverage signal, end to end, pinned by a golden snapshot.
//!
//! Runs the checked-in smoke spec (`tests/golden/campaign_spec.json`) with
//! `coverage_signal: "edge"` — the only change from the point-signal run
//! that `tests/golden/spec_campaign_smoke.json` pins — and byte-compares
//! the rendered report against `tests/golden/experiments_edge_smoke.json`
//! (re-bless with `UPDATE_GOLDEN=1`, like the other goldens). CI
//! additionally checks the `experiments run --coverage-signal edge` binary
//! path against the same snapshot and `cmp`s the edge event stream against
//! `tests/golden/events_edge_smoke.jsonl` (the `edge-coverage-equivalence`
//! job; `tests/golden_events.rs` asserts the same stream in-process).
//!
//! The suite also pins the structural guarantee the snapshot alone cannot
//! express: the edge report genuinely differs from the point report — the
//! signal is selectable, not cosmetic.

use std::path::PathBuf;

use mabfuzz_suite::mabfuzz::report::campaign_json;
use mabfuzz_suite::mabfuzz::{Campaign, CampaignSpec, CoverageSignal};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// The checked-in smoke spec with the edge signal selected.
fn edge_spec() -> CampaignSpec {
    let path = golden_dir().join("campaign_spec.json");
    let text = std::fs::read_to_string(&path).expect("campaign_spec.json present");
    let mut spec = CampaignSpec::from_json(&text).expect("the checked-in spec parses");
    spec.coverage_signal = CoverageSignal::Edge;
    spec
}

#[test]
fn edge_signal_campaign_matches_the_golden_snapshot() {
    let spec = edge_spec();
    let outcome = Campaign::from_spec(&spec).expect("self-contained spec").execute();
    assert_eq!(outcome.stats.tests_executed(), 120);
    assert!(outcome.stats.final_coverage() > 0, "edge bitmap never populated");
    let mut rendered = campaign_json(&spec, &outcome);
    rendered.push('\n'); // the binary prints one line

    let path = golden_dir().join("experiments_edge_smoke.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden snapshot");
        eprintln!("re-blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|error| {
        panic!(
            "missing golden snapshot {} ({error}); run UPDATE_GOLDEN=1 cargo test \
             --test golden_edge to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered, golden,
        "the edge-signal campaign diverged from tests/golden/experiments_edge_smoke.json — \
         the static CFG, the edge space, the RNG stream or the renderer changed. If \
         intentional, re-bless with UPDATE_GOLDEN=1 and justify the re-baseline."
    );
}

#[test]
fn edge_and_point_reports_differ() {
    // The spec echo alone differs (the `coverage_signal` key), so compare
    // the coverage trajectories: a 4096-edge space cannot tell the same
    // story as the point bitmap on the same test stream.
    let edge = Campaign::from_spec(&edge_spec()).expect("spec").execute();
    let point_spec = {
        let mut spec = edge_spec();
        spec.coverage_signal = CoverageSignal::Point;
        spec
    };
    let point = Campaign::from_spec(&point_spec).expect("spec").execute();
    assert_ne!(
        edge.stats.final_coverage(),
        point.stats.final_coverage(),
        "edge and point signals reported identical final coverage — is the \
         signal actually threaded through to the harness?"
    );
}
