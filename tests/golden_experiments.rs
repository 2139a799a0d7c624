//! Golden-file regression for the paper artefacts.
//!
//! Reproduces exactly what `experiments all --tests 120 --cap 250
//! --repeats 1 --seed 7 --json` prints (the CI smoke budget) through the
//! bench library, and byte-compares it against
//! `tests/golden/experiments_smoke.json`. Any change to the RNG stream, the
//! reward shape, the campaign loop or the JSON renderers fails this test
//! loudly instead of silently re-baselining the published numbers.
//!
//! When a change is *intentional*, re-bless the snapshot with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_experiments
//! ```
//!
//! and justify the re-baseline in the PR description. CI additionally
//! `cmp`s the snapshot against the actual binary's output and uploads both
//! as artifacts on failure.

mod common;

use common::{golden_path, render_smoke_report};

#[test]
fn experiments_all_json_matches_the_golden_snapshot() {
    let rendered = render_smoke_report();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, &rendered).expect("write golden snapshot");
        eprintln!("re-blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|error| {
        panic!(
            "missing golden snapshot {} ({error}); run UPDATE_GOLDEN=1 cargo test \
             --test golden_experiments to create it"
        , path.display())
    });
    if rendered != golden {
        // Locate the first diverging line for a readable failure.
        for (index, (have, want)) in rendered.lines().zip(golden.lines()).enumerate() {
            assert_eq!(
                have,
                want,
                "experiments JSON line {} diverged from tests/golden/experiments_smoke.json — \
                 the RNG stream, reward shape or renderer changed. If intentional, re-bless \
                 with UPDATE_GOLDEN=1 and justify the re-baseline.",
                index + 1
            );
        }
        panic!(
            "experiments JSON line count changed: {} rendered vs {} golden",
            rendered.lines().count(),
            golden.lines().count()
        );
    }
}

/// The snapshot itself is well-formed: four non-empty JSON lines with the
/// experiment tags the downstream tooling keys on.
#[test]
fn golden_snapshot_is_well_formed() {
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        return; // the other test is rewriting it right now
    }
    let golden = std::fs::read_to_string(golden_path()).expect("golden snapshot present");
    let lines: Vec<&str> = golden.lines().collect();
    assert_eq!(lines.len(), 4, "one JSON document per experiment");
    assert!(lines[0].starts_with("{\"experiment\":\"table1\""));
    assert!(lines[1].starts_with("{\"experiment\":\"fig3\""));
    assert!(lines[2].starts_with("{\"experiment\":\"fig4\""));
    assert!(lines[3].starts_with("[{\"experiment\":\"ablation\""));
    for line in lines {
        assert!(line.ends_with('}') || line.ends_with(']'));
    }
}
