//! Bench + regeneration harness for **Table I** (vulnerability detection
//! speedup).
//!
//! Running `cargo bench --bench table1_vuln_detection` first prints a
//! reduced-budget reproduction of Table I (every vulnerability × every
//! fuzzer), then measures the cost of individual detection campaigns so the
//! scheduling overhead of MABFuzz relative to TheHuzz is visible.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mab::BanditKind;
use mabfuzz_bench::{
    campaign_config, run_campaign, table1, ExperimentBudget, FuzzerKind, LocalRunner, Parallelism,
    ShardPlan,
};
use proc_sim::{BugSet, ProcessorKind, Vulnerability};

fn print_table1_reproduction() {
    let budget = ExperimentBudget {
        detection_cap: 600,
        coverage_tests: 0,
        repetitions: 2,
        base_seed: 2024,
    };
    println!(
        "\n=== Table I reproduction (detection cap {} tests, {} repetitions) ===",
        budget.detection_cap, budget.repetitions
    );
    let runner = LocalRunner::new(Parallelism::default());
    let result = table1::run_for_on(&Vulnerability::ALL, &budget, &ShardPlan::serial(), &runner)
        .expect("local cell execution cannot fail");
    println!("{}", result.to_table());
    if let Some(best) = result.best_speedup() {
        println!("best speedup over TheHuzz: {best:.2}x\n");
    }
}

fn bench_detection_campaigns(c: &mut Criterion) {
    print_table1_reproduction();

    let mut group = c.benchmark_group("table1_detection_campaign");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    // V6 (unimplemented-CSR junk) triggers within a few dozen tests for every
    // fuzzer, so a capped detection campaign is a stable unit of work.
    let fuzzers = [
        FuzzerKind::TheHuzz,
        FuzzerKind::MabFuzz(BanditKind::EpsilonGreedy),
        FuzzerKind::MabFuzz(BanditKind::Ucb1),
        FuzzerKind::MabFuzz(BanditKind::Exp3),
    ];
    for fuzzer in fuzzers {
        group.bench_with_input(BenchmarkId::new("detect_v6", fuzzer.name()), &fuzzer, |b, &fuzzer| {
            b.iter(|| {
                let processor: Arc<dyn proc_sim::Processor> = Arc::from(
                    ProcessorKind::Cva6.build(BugSet::only(Vulnerability::V6UnimplCsrJunk)),
                );
                let config = campaign_config(150).detection_mode();
                run_campaign(fuzzer, processor, config, 11, &ShardPlan::serial())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detection_campaigns);
criterion_main!(benches);
