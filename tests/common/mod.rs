//! Helpers shared by the integration tests that replay the CI smoke grid.

use std::fmt::Write as _;
use std::path::PathBuf;

use mabfuzz_bench::{
    ablation, fig3, fig4, json, table1, ExperimentBudget, LocalRunner, Parallelism, ShardPlan,
};
use proc_sim::{ProcessorKind, Vulnerability};

/// `tests/golden/experiments_smoke.json`, the snapshot `golden_experiments`
/// owns.
pub fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/experiments_smoke.json")
}

/// Renders the four JSON documents of `experiments all --tests 120 --cap 250
/// --repeats 1 --seed 7 --json` (one per line, trailing newline) through
/// the bench library.
pub fn render_smoke_report() -> String {
    // 120 tests / 250 cap / 1 rep / seed 7, on a serial grid of serial
    // campaigns: the executor's own equivalence tests guarantee every other
    // mode produces the same bytes.
    let budget = ExperimentBudget::smoke();
    let plan = ShardPlan::serial();
    let runner = LocalRunner::new(Parallelism::Serial);
    let cores = ProcessorKind::ALL;
    let ablation_core = cores[0];
    let local = "local cell execution cannot fail";

    let mut out = String::new();
    let table1 = table1::run_for_on(&Vulnerability::ALL, &budget, &plan, &runner).expect(local);
    writeln!(out, "{}", json::table1(&table1)).expect("string write");
    let fig3 = fig3::run_for_on(&cores, &budget, &plan, &runner).expect(local);
    writeln!(out, "{}", json::fig3(&fig3)).expect("string write");
    writeln!(out, "{}", json::fig4(&fig4::from_fig3(&fig3))).expect("string write");
    let sweeps = [
        ablation::alpha_sweep_on(ablation_core, &budget, &plan, &runner).expect(local),
        ablation::gamma_sweep_on(ablation_core, &budget, &plan, &runner).expect(local),
        ablation::arms_sweep_on(ablation_core, &budget, &plan, &runner).expect(local),
        ablation::reset_ablation_on(ablation_core, &budget, &plan, &runner).expect(local),
    ];
    writeln!(out, "{}", json::ablations(&sweeps)).expect("string write");
    out
}
