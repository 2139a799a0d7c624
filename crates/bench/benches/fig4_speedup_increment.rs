//! Bench + regeneration harness for **Fig. 4** (coverage speedup and coverage
//! increment of each MABFuzz algorithm over TheHuzz).
//!
//! Running `cargo bench --bench fig4_speedup_increment` first prints the
//! speedup (×) and increment (%) rows for every processor and algorithm, then
//! benchmarks the pair of campaigns (baseline + one MABFuzz variant) that one
//! Fig. 4 cell is computed from.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mab::BanditKind;
use mabfuzz_bench::{
    campaign_config, fig3, fig4, processor_with_native_bugs, run_campaign, ExperimentBudget,
    FuzzerKind, LocalRunner, Parallelism, ShardPlan,
};
use proc_sim::ProcessorKind;

fn print_fig4_reproduction() {
    let budget = ExperimentBudget {
        coverage_tests: 800,
        detection_cap: 0,
        repetitions: 2,
        base_seed: 2024,
    };
    println!(
        "\n=== Fig. 4 reproduction ({} tests per campaign, {} repetitions) ===",
        budget.coverage_tests, budget.repetitions
    );
    let runner = LocalRunner::new(Parallelism::default());
    let fig3 = fig3::run_for_on(&ProcessorKind::ALL, &budget, &ShardPlan::serial(), &runner)
        .expect("local cell execution cannot fail");
    let result = fig4::from_fig3(&fig3);
    println!("{}", result.to_table());
    if let Some(best) = result.best_speedup() {
        println!("best coverage speedup over TheHuzz: {best:.2}x\n");
    }
}

fn bench_speedup_cells(c: &mut Criterion) {
    print_fig4_reproduction();

    let mut group = c.benchmark_group("fig4_speedup_cell");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    for algorithm in BanditKind::ALL {
        let id = BenchmarkId::new("rocket", algorithm.name());
        group.bench_with_input(id, &algorithm, |b, &algorithm| {
            b.iter(|| {
                let baseline = run_campaign(
                    FuzzerKind::TheHuzz,
                    processor_with_native_bugs(ProcessorKind::Rocket),
                    campaign_config(80),
                    3,
                    &ShardPlan::serial(),
                );
                let variant = run_campaign(
                    FuzzerKind::MabFuzz(algorithm),
                    processor_with_native_bugs(ProcessorKind::Rocket),
                    campaign_config(80),
                    3,
                    &ShardPlan::serial(),
                );
                let target = baseline.final_coverage();
                (variant.tests_to_reach(target), variant.final_coverage())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_speedup_cells);
criterion_main!(benches);
