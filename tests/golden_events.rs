//! Golden-pinned JSONL event streams of the observer seam.
//!
//! Two streams are checked in under `tests/golden/`:
//!
//! * `events_mabfuzz_smoke.jsonl` — the event stream of the checked-in
//!   `campaign_spec.json` campaign (smoke-budget UCB on rocket, the same
//!   campaign `experiments run --spec` replays); CI `cmp`s the binary's
//!   `--events` output against it;
//! * `events_mabfuzz_batched.jsonl` and `events_edge_smoke.jsonl` — the
//!   same spec at `--batch 8` and under `--coverage-signal edge`;
//! * `events_baseline_smoke.jsonl` — a small TheHuzz baseline campaign,
//!   pinning the per-test protocol the instrumented FIFO loop emits.
//!
//! Re-bless with `UPDATE_GOLDEN=1 cargo test --test golden_events` (like the
//! experiments golden) and justify the re-baseline in the PR description.

use std::path::PathBuf;

use mabfuzz_bench::{campaign_config, campaign_spec, FuzzerKind, ShardPlan};
use mabfuzz_suite::mabfuzz::{
    BugSpec, Campaign, CampaignSpec, CoverageSignal, EventLog, ProcessorSpec, SharedBuffer,
};
use mabfuzz_suite::proc_sim::ProcessorKind;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Runs `spec` with an in-memory [`EventLog`] attached and returns the JSONL
/// stream it wrote.
fn event_stream(spec: &CampaignSpec) -> String {
    let buffer = SharedBuffer::new();
    let log = EventLog::new(buffer.clone());
    let health = log.health();
    Campaign::from_spec(spec)
        .expect("self-contained spec")
        .with_observer(Box::new(log))
        .execute();
    assert!(!health.failed(), "in-memory writes cannot fail");
    buffer.contents()
}

fn compare_against_golden(stream: &str, file: &str) {
    let path = golden_dir().join(file);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, stream).expect("write golden event stream");
        eprintln!("re-blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|error| {
        panic!(
            "missing golden event stream {} ({error}); run UPDATE_GOLDEN=1 cargo test \
             --test golden_events to create it",
            path.display()
        )
    });
    if stream != golden {
        for (index, (have, want)) in stream.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                have,
                want,
                "event stream line {} diverged from tests/golden/{file} — the fold order, \
                 the event vocabulary or the JSONL renderer changed. If intentional, re-bless \
                 with UPDATE_GOLDEN=1 and justify the re-baseline.",
                index + 1
            );
        }
        panic!(
            "event stream line count changed: {} rendered vs {} golden (tests/golden/{file})",
            stream.lines().count(),
            golden.lines().count()
        );
    }
}

/// The checked-in smoke spec (what `experiments run --spec
/// tests/golden/campaign_spec.json` executes).
fn mabfuzz_smoke_spec() -> CampaignSpec {
    let text = std::fs::read_to_string(golden_dir().join("campaign_spec.json"))
        .expect("campaign_spec.json present");
    CampaignSpec::from_json(&text).expect("the checked-in spec parses")
}

/// A small baseline campaign on the same substrate: TheHuzz on rocket with
/// native bugs, 80 tests, seed 7.
fn baseline_smoke_spec() -> CampaignSpec {
    let mut spec = campaign_spec(FuzzerKind::TheHuzz, campaign_config(80), 7, &ShardPlan::serial());
    spec.processor = Some(ProcessorSpec { core: ProcessorKind::Rocket, bugs: BugSpec::Native });
    spec
}

#[test]
fn mabfuzz_event_stream_matches_the_golden_snapshot() {
    let stream = event_stream(&mabfuzz_smoke_spec());
    // The smoke campaign is batch-size 1: every test gets its own round.
    assert_eq!(stream.lines().filter(|l| l.contains("\"event\":\"test_folded\"")).count(), 120);
    assert_eq!(stream.lines().filter(|l| l.contains("\"event\":\"arm_selected\"")).count(), 120);
    compare_against_golden(&stream, "events_mabfuzz_smoke.jsonl");
}

/// The smoke spec at batch size 8 (`experiments run --spec … --batch 8
/// --events FILE`): 15 rounds of 8 tests, each closed by a `batch_folded`
/// event, pinning the batched fold order the batch-size-1 stream never
/// exercises.
#[test]
fn batched_event_stream_matches_the_golden_snapshot() {
    let mut spec = mabfuzz_smoke_spec();
    spec.batch_size = 8;
    let stream = event_stream(&spec);
    assert_eq!(stream.lines().filter(|l| l.contains("\"event\":\"test_folded\"")).count(), 120);
    assert_eq!(stream.lines().filter(|l| l.contains("\"event\":\"batch_folded\"")).count(), 15);
    compare_against_golden(&stream, "events_mabfuzz_batched.jsonl");
}

/// The smoke spec under the edge signal (`experiments run --spec …
/// --coverage-signal edge --events FILE`).
#[test]
fn edge_event_stream_matches_the_golden_snapshot() {
    let mut spec = mabfuzz_smoke_spec();
    spec.coverage_signal = CoverageSignal::Edge;
    let stream = event_stream(&spec);
    assert_eq!(stream.lines().filter(|l| l.contains("\"event\":\"test_folded\"")).count(), 120);
    compare_against_golden(&stream, "events_edge_smoke.jsonl");
}

#[test]
fn baseline_event_stream_matches_the_golden_snapshot() {
    let stream = event_stream(&baseline_smoke_spec());
    assert_eq!(stream.lines().filter(|l| l.contains("\"event\":\"test_folded\"")).count(), 80);
    assert!(
        !stream.contains("\"event\":\"arm_selected\"")
            && !stream.contains("\"event\":\"batch_folded\"")
            && !stream.contains("\"event\":\"arm_reset\""),
        "the baseline has no bandit rounds"
    );
    assert!(
        stream.lines().last().unwrap().starts_with("{\"event\":\"campaign_finished\""),
        "the stream closes with the finish event"
    );
    compare_against_golden(&stream, "events_baseline_smoke.jsonl");
}
