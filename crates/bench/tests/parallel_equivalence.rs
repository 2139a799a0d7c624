//! The parallel experiment engine's contract: running the grid across
//! threads produces *byte-identical* reports to the serial reference, and
//! the scratch-buffer hot path underneath is deterministic.

use std::num::NonZeroUsize;

use mabfuzz_bench::{
    ablation, campaign_config, fig3, fig4, json, run_campaign, table1, ExperimentBudget,
    FuzzerKind, LocalRunner, Parallelism, ShardPlan,
};
use proc_sim::{ProcessorKind, Vulnerability};

const LOCAL: &str = "local cell execution cannot fail";

fn tiny_budget() -> ExperimentBudget {
    ExperimentBudget { coverage_tests: 60, detection_cap: 120, repetitions: 2, base_seed: 11 }
}

#[test]
fn table1_parallel_json_is_byte_identical_to_serial() {
    let budget = tiny_budget();
    let vulns = [Vulnerability::V5MissingAccessFault, Vulnerability::V6UnimplCsrJunk];
    let run = |parallelism| {
        table1::run_for_on(&vulns, &budget, &ShardPlan::serial(), &LocalRunner::new(parallelism))
            .expect(LOCAL)
    };
    let serial = run(Parallelism::Serial);
    let parallel = run(Parallelism::Auto);
    assert_eq!(serial, parallel, "structured results must match exactly");
    assert_eq!(json::table1(&serial), json::table1(&parallel));
}

#[test]
fn fig3_and_fig4_parallel_json_is_byte_identical_to_serial() {
    let budget = tiny_budget();
    let cores = [ProcessorKind::Cva6, ProcessorKind::Rocket];
    let run = |parallelism| {
        fig3::run_for_on(&cores, &budget, &ShardPlan::serial(), &LocalRunner::new(parallelism))
            .expect(LOCAL)
    };
    let serial = run(Parallelism::Serial);
    let parallel = run(Parallelism::Threads(NonZeroUsize::new(2).expect("nonzero")));
    assert_eq!(serial, parallel);
    assert_eq!(json::fig3(&serial), json::fig3(&parallel));
    assert_eq!(
        json::fig4(&fig4::from_fig3(&serial)),
        json::fig4(&fig4::from_fig3(&parallel))
    );
}

#[test]
fn ablation_parallel_json_is_byte_identical_to_serial() {
    let budget = ExperimentBudget { repetitions: 2, coverage_tests: 40, ..tiny_budget() };
    let run = |parallelism| {
        let runner = LocalRunner::new(parallelism);
        ablation::gamma_sweep_on(ProcessorKind::Rocket, &budget, &ShardPlan::serial(), &runner)
            .expect(LOCAL)
    };
    let serial = run(Parallelism::Serial);
    let parallel = run(Parallelism::Auto);
    assert_eq!(serial, parallel);
    assert_eq!(json::ablation(&serial), json::ablation(&parallel));
}

/// A batched experiment grid (8 tests per bandit round) produces
/// byte-identical JSON for every cell-worker count, exactly like the serial
/// plan: batching changes the campaign, never its independence from the
/// grid's thread layout.
#[test]
fn batched_experiment_json_is_byte_identical_across_cell_workers() {
    let budget = ExperimentBudget { coverage_tests: 48, repetitions: 2, ..tiny_budget() };
    let cores = [ProcessorKind::Rocket];
    let plan = ShardPlan::serial().with_batch_size(8);
    let run = |cell_workers| {
        fig3::run_for_on(&cores, &budget, &plan, &LocalRunner::new(cell_workers)).expect(LOCAL)
    };
    let reference = run(Parallelism::Serial);
    for cell_workers in [
        Parallelism::Threads(NonZeroUsize::new(2).expect("nonzero")),
        Parallelism::Threads(NonZeroUsize::new(3).expect("nonzero")),
        Parallelism::Auto,
    ] {
        let batched = run(cell_workers);
        assert_eq!(reference, batched, "{cell_workers} cell workers");
        assert_eq!(json::fig3(&reference), json::fig3(&batched));
    }
}

/// Determinism regression for the scratch-buffer refactor: a campaign's
/// statistics must depend only on (fuzzer, processor, config, seed) — not on
/// whether the harness buffers were fresh or reused, and not on which thread
/// ran it.
#[test]
fn run_campaign_is_deterministic_under_buffer_reuse() {
    for fuzzer in FuzzerKind::ALL {
        let run = |seed: u64| {
            run_campaign(
                fuzzer,
                mabfuzz_bench::processor_with_native_bugs(ProcessorKind::Cva6),
                campaign_config(80),
                seed,
                &ShardPlan::serial(),
            )
        };
        let first = run(5);
        let second = run(5);
        assert_eq!(first.final_coverage(), second.final_coverage(), "{fuzzer}");
        assert_eq!(first.cumulative().history(), second.cumulative().history(), "{fuzzer}");
        assert_eq!(first.mismatching_tests(), second.mismatching_tests(), "{fuzzer}");
        assert_eq!(
            first.series().points(),
            second.series().points(),
            "{fuzzer} coverage curve must be reproducible"
        );
        let different = run(6);
        assert_ne!(
            first.cumulative().history(),
            different.cumulative().history(),
            "{fuzzer} must actually depend on the seed"
        );
    }
}
