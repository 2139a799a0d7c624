//! Differential oracle for the pre-decoded program cache.
//!
//! The decode cache (`isa_sim::DecodeCache`) is on by default, so every other
//! test in the repo — including the golden snapshot — pins the *cached*
//! behaviour. This test keeps the interpreted fetch→decode path honest as an
//! oracle: it renders the full `experiments all --json` smoke report with
//! `MABFUZZ_DECODE_CACHE=off` and with it forced on, and requires both to be
//! byte-identical to each other and to `tests/golden/experiments_smoke.json`.
//!
//! A divergence here means the cached fetch seam changed architectural
//! behaviour (or the oracle path rotted) — either way the cache's soundness
//! argument no longer holds and must be re-established before re-blessing
//! anything.
//!
//! The test manipulates the process environment, so it is the only `#[test]`
//! in this binary and performs the on/off runs sequentially.

mod common;

use fuzzer::ExecScratch;

use common::{golden_path, render_smoke_report};

#[test]
fn cached_and_interpreted_smoke_reports_are_byte_identical() {
    // Oracle pass: the plain interpreter, no decode cache anywhere.
    std::env::set_var(ExecScratch::DECODE_CACHE_ENV, "off");
    assert!(
        !ExecScratch::new().decode_cache_enabled(),
        "MABFUZZ_DECODE_CACHE=off must disable the cache"
    );
    let interpreted = render_smoke_report();

    // Cached pass: the default production configuration, forced explicitly
    // so the assertion does not depend on the ambient environment.
    std::env::set_var(ExecScratch::DECODE_CACHE_ENV, "on");
    assert!(
        ExecScratch::new().decode_cache_enabled(),
        "MABFUZZ_DECODE_CACHE=on must enable the cache"
    );
    let cached = render_smoke_report();
    std::env::remove_var(ExecScratch::DECODE_CACHE_ENV);

    assert_eq!(
        interpreted, cached,
        "the decode cache changed campaign behaviour — the cached fetch seam \
         is no longer architecturally transparent"
    );

    // Both must also match the published snapshot, so the oracle cannot
    // drift together with the cache.
    let golden = std::fs::read_to_string(golden_path()).expect(
        "missing tests/golden/experiments_smoke.json; run UPDATE_GOLDEN=1 \
         cargo test --test golden_experiments first",
    );
    assert_eq!(
        cached, golden,
        "smoke report diverged from the golden snapshot (see \
         tests/golden_experiments.rs for the re-bless procedure)"
    );
}
