//! Throughput benchmarks for the two performance layers:
//!
//! * **single-thread tests/sec** — the simulate–compare–mutate hot path
//!   through the reusable-scratch harness (no per-test heap allocation in
//!   the steady-state coverage/reward path), measured both as single tests
//!   and as whole smoke campaigns per fuzzer;
//! * **parallel campaigns/sec** — the grid executor spreading independent
//!   campaigns across cores versus the serial reference.
//!
//! Run with `cargo bench --bench throughput`. The printed per-iteration
//! times convert directly: a campaign iteration is `coverage_tests` tests,
//! so tests/sec = coverage_tests / iteration-time.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fuzzer::{ExecScratch, FuzzHarness};
use mabfuzz_bench::{campaign_config, run_campaign, ExperimentBudget, FuzzerKind, Parallelism, ShardPlan};
use proc_sim::{BugSet, ProcessorKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use riscv::gen::{GeneratorConfig, ProgramGenerator};
use std::sync::Arc;

/// Single tests through the reusable-scratch harness: the per-test cost that
/// bounds every campaign.
fn bench_single_test_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput_single_test");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(300));
    group.measurement_time(Duration::from_secs(2));
    let generator = ProgramGenerator::new(GeneratorConfig::default());
    let program = generator.generate_seed(&mut StdRng::seed_from_u64(1));
    for core in ProcessorKind::ALL {
        group.bench_with_input(
            BenchmarkId::new("scratch", core.name()),
            &core,
            |b, &core| {
                let harness = FuzzHarness::new(Arc::from(core.build(BugSet::none())), 300);
                let mut scratch = ExecScratch::new();
                b.iter(|| harness.run_program_into(&program, &mut scratch).dut_commits);
            },
        );
        // The same harness with the decode cache pinned on and off,
        // independent of `MABFUZZ_DECODE_CACHE`: the cached/interpreted
        // spread is the per-test win of executing pre-decoded `Instr`s.
        group.bench_with_input(
            BenchmarkId::new("decoded", core.name()),
            &core,
            |b, &core| {
                let harness = FuzzHarness::new(Arc::from(core.build(BugSet::none())), 300);
                let mut scratch = ExecScratch::with_decode_cache(true);
                b.iter(|| harness.run_program_into(&program, &mut scratch).dut_commits);
            },
        );
        group.bench_with_input(
            BenchmarkId::new("interpreted", core.name()),
            &core,
            |b, &core| {
                let harness = FuzzHarness::new(Arc::from(core.build(BugSet::none())), 300);
                let mut scratch = ExecScratch::with_decode_cache(false);
                b.iter(|| harness.run_program_into(&program, &mut scratch).dut_commits);
            },
        );
        // The same harness with the reset policy pinned to snapshot restore
        // and full reinit, independent of `MABFUZZ_SNAPSHOT_RESET`: the
        // snapshot/reinit spread is the per-test win of restoring only the
        // state the previous test dirtied instead of rebuilding all of it.
        group.bench_with_input(
            BenchmarkId::new("snapshot", core.name()),
            &core,
            |b, &core| {
                let harness = FuzzHarness::new(Arc::from(core.build(BugSet::none())), 300);
                let mut scratch = ExecScratch::with_snapshot_reset(true);
                b.iter(|| harness.run_program_into(&program, &mut scratch).dut_commits);
            },
        );
        group.bench_with_input(
            BenchmarkId::new("reinit", core.name()),
            &core,
            |b, &core| {
                let harness = FuzzHarness::new(Arc::from(core.build(BugSet::none())), 300);
                let mut scratch = ExecScratch::with_snapshot_reset(false);
                b.iter(|| harness.run_program_into(&program, &mut scratch).dut_commits);
            },
        );
        // The allocating path on the same program: the permanent A/B that
        // keeps the scratch path honest.
        group.bench_with_input(
            BenchmarkId::new("allocating", core.name()),
            &core,
            |b, &core| {
                let harness = FuzzHarness::new(Arc::from(core.build(BugSet::none())), 300);
                b.iter(|| harness.run_program(&program).dut_commits);
            },
        );
    }
    group.finish();
}

/// Whole smoke campaigns, single-threaded: tests/sec of the full loop
/// (generation, mutation, simulation, diffing, reward bookkeeping).
fn bench_campaign_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput_campaign");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let budget = ExperimentBudget::smoke();
    for fuzzer in FuzzerKind::ALL {
        group.bench_with_input(BenchmarkId::from_parameter(fuzzer.name()), &fuzzer, |b, &fuzzer| {
            b.iter(|| {
                run_campaign(
                    fuzzer,
                    mabfuzz_bench::processor_without_bugs(ProcessorKind::Rocket),
                    campaign_config(budget.coverage_tests),
                    budget.base_seed,
                    &ShardPlan::serial(),
                )
                .final_coverage()
            });
        });
    }
    group.finish();
}

/// One sharded MABFuzz campaign at several shard counts: the intra-campaign
/// fork/join layer. Every shard count runs the *same* deterministic
/// campaign (byte-identical report; the equivalence tests enforce it), so
/// the per-iteration time ratio between 1 shard and N shards is pure
/// simulation speedup. On a multi-core runner multi-shard should be ≥1.5×
/// the single-shard time; on one core it must simply not regress
/// materially (the pool adds two channel hops per test).
fn bench_sharded_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput_sharded_campaign");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let budget = ExperimentBudget::smoke();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut shard_counts = vec![1usize, 2, 4, cores];
    shard_counts.sort_unstable();
    shard_counts.dedup();
    for shards in shard_counts {
        let plan = ShardPlan::sharded(shards);
        group.bench_with_input(BenchmarkId::from_parameter(shards), &plan, |b, plan| {
            b.iter(|| {
                run_campaign(
                    FuzzerKind::MabFuzz(mab::BanditKind::Ucb1),
                    mabfuzz_bench::processor_without_bugs(ProcessorKind::Rocket),
                    campaign_config(budget.coverage_tests * 4),
                    budget.base_seed,
                    plan,
                )
                .final_coverage()
            });
        });
    }
    group.finish();
}

/// The grid executor: a fixed batch of independent campaigns, serial versus
/// all cores. The ratio of the two times is the experiment-engine speedup.
fn bench_grid_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("throughput_grid_16_campaigns");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(5));
    let cells: Vec<u64> = (0..16).collect();
    for (label, parallelism) in [("serial", Parallelism::Serial), ("auto", Parallelism::Auto)] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &parallelism, |b, &mode| {
            b.iter(|| {
                mabfuzz_bench::run_grid(mode, &cells, |&seed| {
                    run_campaign(
                        FuzzerKind::MabFuzz(mab::BanditKind::Ucb1),
                        mabfuzz_bench::processor_without_bugs(ProcessorKind::Rocket),
                        campaign_config(60),
                        seed,
                        &ShardPlan::serial(),
                    )
                    .final_coverage()
                })
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_test_throughput,
    bench_campaign_throughput,
    bench_sharded_campaign,
    bench_grid_scaling
);
criterion_main!(benches);
