//! Bench + regeneration harness for the **parameter ablations** (§IV-A
//! parameter choices and the §III-C reset-arm feature).
//!
//! Running `cargo bench --bench ablation_parameters` first prints the α, γ,
//! arm-count and reset-versus-no-reset sweeps, then benchmarks a MABFuzz
//! campaign at two γ settings so the cost of frequent arm resets is visible.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mab::BanditKind;
use mabfuzz::{Campaign, CampaignSpec};
use mabfuzz_bench::{
    ablation, campaign_config, processor_with_native_bugs, ExperimentBudget, LocalRunner,
    Parallelism, ShardPlan,
};
use proc_sim::ProcessorKind;

fn print_ablation_reproduction() {
    let budget = ExperimentBudget {
        coverage_tests: 400,
        detection_cap: 0,
        repetitions: 2,
        base_seed: 2024,
    };
    println!(
        "\n=== Parameter ablations ({} tests per campaign, {} repetitions, UCB on Rocket) ===",
        budget.coverage_tests, budget.repetitions
    );
    let (core, plan) = (ProcessorKind::Rocket, ShardPlan::serial());
    let runner = LocalRunner::new(Parallelism::default());
    for sweep in [
        ablation::alpha_sweep_on(core, &budget, &plan, &runner),
        ablation::gamma_sweep_on(core, &budget, &plan, &runner),
        ablation::arms_sweep_on(core, &budget, &plan, &runner),
        ablation::reset_ablation_on(core, &budget, &plan, &runner),
    ] {
        let sweep = sweep.expect("local cell execution cannot fail");
        println!("-- {} sweep --", sweep.parameter);
        println!("{}", sweep.to_table());
    }
}

fn bench_gamma_settings(c: &mut Criterion) {
    print_ablation_reproduction();

    let mut group = c.benchmark_group("ablation_gamma");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    for gamma in [1usize, 3, 10] {
        let spec = CampaignSpec::builder()
            .algorithm(BanditKind::Ucb1)
            .gamma(gamma)
            .campaign(campaign_config(100))
            .rng_seed(9)
            .build()
            .expect("valid gamma setting");
        group.bench_with_input(BenchmarkId::from_parameter(gamma), &spec, |b, spec| {
            b.iter(|| {
                let processor = processor_with_native_bugs(ProcessorKind::Rocket);
                Campaign::from_spec_on(processor, spec).expect("valid spec").execute()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gamma_settings);
criterion_main!(benches);
