//! Differential oracle for the snapshot/dirty-reset execution-state path.
//!
//! Snapshot reset (`isa_sim::snapshot`) is on by default, so every other
//! test in the repo — including the golden snapshot — pins the *restored*
//! behaviour. This test keeps full reinitialisation honest as an oracle: it
//! renders the full `experiments all --json` smoke report with
//! `MABFUZZ_SNAPSHOT_RESET=off` and with it forced on, and requires both to
//! be byte-identical to each other and to
//! `tests/golden/experiments_smoke.json`.
//!
//! A divergence here means a mutation path dirtied state without marking it
//! (or the reinit path rotted) — either way the clean-implies-pristine
//! invariant the restore leans on no longer holds and must be
//! re-established before re-blessing anything.
//!
//! The test manipulates the process environment, so it is the only `#[test]`
//! in this binary and performs the on/off runs sequentially.

mod common;

use fuzzer::ExecScratch;

use common::{golden_path, render_smoke_report};

#[test]
fn restored_and_reinitialised_smoke_reports_are_byte_identical() {
    // Oracle pass: every test reinitialises both simulators from scratch.
    std::env::set_var(ExecScratch::SNAPSHOT_RESET_ENV, "off");
    assert!(
        !ExecScratch::new().snapshot_reset_enabled(),
        "MABFUZZ_SNAPSHOT_RESET=off must select full reinit"
    );
    let reinitialised = render_smoke_report();

    // Restored pass: the default production configuration, forced explicitly
    // so the assertion does not depend on the ambient environment.
    std::env::set_var(ExecScratch::SNAPSHOT_RESET_ENV, "on");
    assert!(
        ExecScratch::new().snapshot_reset_enabled(),
        "MABFUZZ_SNAPSHOT_RESET=on must select snapshot reset"
    );
    let restored = render_smoke_report();
    std::env::remove_var(ExecScratch::SNAPSHOT_RESET_ENV);

    assert_eq!(
        reinitialised, restored,
        "snapshot reset changed campaign behaviour — some state survives a \
         dirty restore (or is cleaned differently than a full reinit)"
    );

    // Both must also match the published snapshot, so the oracle cannot
    // drift together with the restore path.
    let golden = std::fs::read_to_string(golden_path()).expect(
        "missing tests/golden/experiments_smoke.json; run UPDATE_GOLDEN=1 \
         cargo test --test golden_experiments first",
    );
    assert_eq!(
        restored, golden,
        "smoke report diverged from the golden snapshot (see \
         tests/golden_experiments.rs for the re-bless procedure)"
    );
}
