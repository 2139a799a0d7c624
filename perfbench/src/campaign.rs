//! `campaign` and `campaign_edge`: serial MABFuzz-UCB campaigns on every
//! core, one after another, through `Campaign::from_spec` + `execute` —
//! the tests/sec of a real campaign.

use std::sync::Arc;
use std::time::Instant;

use mab::BanditKind;
use mabfuzz::{BugSpec, CampaignSpec, CoverageSignal, MabFuzzOutcome};
use proc_sim::ProcessorKind;

use crate::check::{fnv64, Checker};
use crate::trace::{self, Tracer};
use crate::{Pass, Workload};

/// The cores, in the order a pass visits them.
pub const CORES: [ProcessorKind; 3] = [
    ProcessorKind::Rocket,
    ProcessorKind::Boom,
    ProcessorKind::Cva6,
];

/// Campaigns per core per pass. Several seeds per core keep one seed's
/// unusually short or long programs from moving the pass time.
const SEEDS_PER_CORE: u64 = 8;

/// Tests per campaign.
pub const TESTS: u64 = 2000;

/// Tests of each untimed warm-up campaign.
const WARMUP_TESTS: u64 = 500;

/// RNG seed of the warm-up campaigns: fixed, so that set-up does the same
/// work under every workload seed.
const WARMUP_SEED: u64 = 999;

/// The RNG seed of campaign `index` of a pass under workload seed `seed`.
pub fn campaign_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(index)
}

/// The spec of one MABFuzz-UCB campaign on `core` with native bugs.
pub fn spec(
    core: ProcessorKind,
    tests: u64,
    rng_seed: u64,
    signal: CoverageSignal,
) -> CampaignSpec {
    CampaignSpec::builder()
        .algorithm(BanditKind::Ucb1)
        .campaign(mabfuzz_bench::campaign_config(tests))
        .rng_seed(rng_seed)
        .processor(core, BugSpec::Native)
        .coverage_signal(signal)
        .build()
        .expect("benchmark specs are valid")
}

/// The set-up workload.
pub struct Campaigns {
    specs: Vec<CampaignSpec>,
}

impl Campaigns {
    /// Builds the pass's specs and runs one untimed warm-up campaign per
    /// core.
    pub fn setup(seed: u64, edge: bool, checker: &mut Checker) -> Campaigns {
        let signal = if edge {
            CoverageSignal::Edge
        } else {
            CoverageSignal::Point
        };
        let specs = CORES
            .iter()
            .flat_map(|&core| {
                (0..SEEDS_PER_CORE).map(move |k| spec(core, TESTS, campaign_seed(seed, k), signal))
            })
            .collect();
        for core in CORES {
            let warmup = spec(core, WARMUP_TESTS, WARMUP_SEED, signal);
            run_one(&warmup, None, checker);
        }
        Campaigns { specs }
    }
}

impl Workload for Campaigns {
    fn pass(&mut self, tracer: Option<&Arc<Tracer>>, checker: &mut Checker) -> Pass {
        let mut pass = Pass::default();
        for spec in &self.specs {
            let Some((ms, outcome)) = run_one(spec, tracer, checker) else {
                continue;
            };
            pass.wall_s += ms / 1e3;
            pass.campaign_ms.push(ms);
            pass.tests += outcome.stats.tests_executed();
            pass.coverage_points += outcome.stats.final_coverage() as u64;
            pass.detections += outcome.stats.mismatching_tests();
            pass.arm_resets += outcome.total_resets;
            pass.digests.push(fnv64(
                mabfuzz::report::campaign_json(spec, &outcome).as_bytes(),
            ));
        }
        pass
    }
}

/// Runs one campaign (see [`trace::execute`]) and returns its turnaround
/// in ms with the outcome.
fn run_one(
    spec: &CampaignSpec,
    tracer: Option<&Arc<Tracer>>,
    checker: &mut Checker,
) -> Option<(f64, MabFuzzOutcome)> {
    checker.attempted += 1;
    let start = Instant::now();
    match trace::execute(spec, Vec::new(), tracer, "core.campaign", 0) {
        Ok(outcome) => Some((start.elapsed().as_secs_f64() * 1e3, outcome)),
        Err(error) => {
            checker.fail(&format!("campaign: {error}"));
            None
        }
    }
}
