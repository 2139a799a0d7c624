//! The replay pass of a traced run: a realistic program stream, timed stage
//! by stage through the public entry point of each layer.
//!
//! The stream grows the way the FIFO baseline grows its queue: generated
//! seeds first, then `mutations_per_interesting_test` mutants of every test
//! that added global coverage, appended to the back; a fresh seed whenever
//! the queue runs dry. So, as in a real campaign, almost every program is
//! new — the stream never replays one hot program. Every program is run
//! twice: once stage by stage (decode lookup, static analysis, DUT model,
//! golden ISA sim, edge map, trace diff, coverage fold) and once through
//! `FuzzHarness::run_program_into`, the reference the stage spans must add
//! up to. Which of the two runs first alternates per program.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use analysis::Transition;
use coverage::{CoverageMap, EdgeSpace};
use fuzzer::diff::compare_traces_into;
use fuzzer::{DiffReport, ExecScratch, FuzzHarness, MutationEngine, SeedGenerator, TestCase};
use isa_sim::{DecodeCache, ExecTrace, GoldenScratch, GoldenSim, ResetPolicy};
use mab::BanditKind;
use mabfuzz::CoverageSignal;
use proc_sim::{DutResult, Processor, SimScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::campaign::CORES;
use crate::check::Checker;
use crate::trace::{Span, Tracer};

/// Programs replayed per core.
const PROGRAMS_PER_CORE: usize = 1500;

/// Seeds generated (and timed) per core for `fuzzer.seed`.
const SEEDS_TIMED: usize = 300;

/// Bandit calls per timed block; a block's time over this is one call.
pub const BANDIT_BLOCK: usize = 64;

/// Campaign ids of replay spans start here, one per core.
const REPLAY_CAMPAIGN: u64 = 1 << 40;

/// The stage spans that add up to the harness's work under each signal.
pub fn stage_names(signal: CoverageSignal) -> &'static [&'static str] {
    match signal {
        CoverageSignal::Point => &[
            "isa_sim.decode",
            "proc_sim.dut",
            "isa_sim.golden",
            "fuzzer.diff",
        ],
        CoverageSignal::Edge => &[
            "isa_sim.decode",
            "analysis.facts.lookup",
            "proc_sim.dut",
            "isa_sim.golden",
            "coverage.edge_map",
            "fuzzer.diff",
        ],
    }
}

/// Counts the replay made (deterministic for a seed).
#[derive(Debug, Default)]
pub struct Counts {
    pub programs: u64,
    /// Decode-stage lookups (the facts lookup after each is not counted).
    pub lookups: u64,
    pub hits: u64,
    pub dut_commits: u64,
    pub golden_commits: u64,
    pub reset_units: u64,
    pub mismatching: u64,
    pub novel: u64,
}

/// Replays the stream on every core under `signal`, recording spans into
/// `tracer`. A stage-by-stage outcome that differs from the harness's is a
/// failed operation.
pub fn run(
    seed: u64,
    signal: CoverageSignal,
    tracer: &Arc<Tracer>,
    checker: &mut Checker,
) -> Counts {
    let mut counts = Counts::default();
    for (index, &core) in CORES.iter().enumerate() {
        replay_core(
            seed,
            index as u64,
            core,
            signal,
            tracer,
            checker,
            &mut counts,
        );
    }
    counts
}

#[allow(clippy::too_many_arguments)]
fn replay_core(
    seed: u64,
    index: u64,
    core: proc_sim::ProcessorKind,
    signal: CoverageSignal,
    tracer: &Arc<Tracer>,
    checker: &mut Checker,
    counts: &mut Counts,
) {
    let config = mabfuzz_bench::campaign_config(PROGRAMS_PER_CORE as u64);
    let campaign = REPLAY_CAMPAIGN + index;
    let processor: Arc<dyn Processor> = Arc::from(core.build_with_native_bugs());
    let mut harness = FuzzHarness::new(Arc::clone(&processor), config.max_steps_per_test);
    harness.set_coverage_signal(signal);
    let mut scratch = ExecScratch::new();

    let golden = GoldenSim::new();
    let policy = ResetPolicy::from_env();
    let mut cache = DecodeCache::new();
    let mut sim = SimScratch::with_policy(policy);
    let mut dut = DutResult::default();
    let mut golden_trace = ExecTrace::default();
    let mut golden_scratch = GoldenScratch::with_policy(policy);
    let mut diff = DiffReport::default();
    let edge_space = EdgeSpace::new();
    let mut edge_map = CoverageMap::with_len(edge_space.len());
    let mut global = CoverageMap::with_len(harness.coverage_space_len());

    let mut rng = StdRng::seed_from_u64(mabfuzz::derive_stream_seed(seed, index, 0));
    let mut seeds = SeedGenerator::new(config.generator.clone());
    let mutator = MutationEngine::new(config.generator.clone());
    let mut queue: VecDeque<TestCase> = VecDeque::new();
    for _ in 0..config.num_seeds {
        let start = Instant::now();
        let test = seeds.generate_seed(&mut rng);
        tracer.span("fuzzer.seed", 0, campaign, start, Instant::now());
        queue.push_back(test);
    }
    let mut rewards = Vec::with_capacity(PROGRAMS_PER_CORE);

    for n in 0..PROGRAMS_PER_CORE {
        let test = match queue.pop_front() {
            Some(test) => test,
            None => {
                let start = Instant::now();
                let test = seeds.generate_seed(&mut rng);
                tracer.span("fuzzer.seed", 0, campaign, start, Instant::now());
                test
            }
        };
        let program = &test.program;
        let parent = tracer.id();
        let program_start = Instant::now();
        let span = |name, start: Instant| {
            let end = Instant::now();
            tracer.span(name, parent, campaign, start, end);
            end
        };
        let run_harness = |scratch: &mut ExecScratch| {
            let start = Instant::now();
            let view = harness.run_program_into(program, scratch);
            span("fuzzer.harness", start);
            (view.coverage.clone(), view.diff.clone())
        };
        let harness_first = n % 2 == 1;
        let mut reference = harness_first.then(|| run_harness(&mut scratch));

        // Stage by stage. The plain lookup is the decode stage; the facts
        // lookup that follows is a verified hit plus, on a miss, the
        // analysis itself.
        let stats = cache.stats();
        let start = Instant::now();
        cache.get_or_decode(program);
        let looked_up = span("isa_sim.decode", start);
        let missed = cache.stats().misses > stats.misses;
        counts.lookups += 1;
        counts.hits += u64::from(!missed);
        let (decoded, facts) = cache.get_or_decode_with_facts(program);
        let checked = span("analysis.facts.lookup", looked_up);
        if missed {
            tracer.span("analysis.facts", parent, campaign, looked_up, checked);
        }
        let start = Instant::now();
        processor.run_decoded_into(
            program,
            decoded,
            config.max_steps_per_test,
            &mut sim,
            &mut dut,
        );
        let start = span("proc_sim.dut", start);
        let resets = golden_scratch.reset_stats().units_restored;
        golden.run_decoded_into(
            program,
            decoded,
            config.max_steps_per_test,
            &mut golden_trace,
            &mut golden_scratch,
        );
        let start = span("isa_sim.golden", start);
        counts.reset_units += golden_scratch.reset_stats().units_restored - resets;
        edge_map.reset_for_len(edge_space.len());
        for commit in dut.trace.iter() {
            if let Transition::Edge(edge) =
                facts.map_transition(commit.pc, commit.next_pc, commit.exception.is_some())
            {
                let edge = &facts.edges()[edge];
                edge_map.cover(edge_space.slot(edge.from_pc, edge.to, edge.kind.code()));
            }
        }
        let start = span("coverage.edge_map", start);
        compare_traces_into(&dut.trace, &golden_trace, &mut diff);
        let start = span("fuzzer.diff", start);
        let coverage = match signal {
            CoverageSignal::Point => &dut.coverage,
            CoverageSignal::Edge => &edge_map,
        };
        let novel = global.union_count_new(coverage);
        span("coverage.fold", start);

        let (reference_coverage, reference_diff) = reference
            .take()
            .unwrap_or_else(|| run_harness(&mut scratch));
        if reference_coverage != *coverage || reference_diff != diff {
            checker.fail(&format!(
                "replay program {n} on {}: stages disagree with the harness",
                core.name()
            ));
        }

        counts.programs += 1;
        counts.dut_commits += dut.trace.len() as u64;
        counts.golden_commits += golden_trace.len() as u64;
        counts.mismatching += u64::from(!diff.is_clean());
        if novel > 0 {
            counts.novel += 1;
            for _ in 0..config.mutations_per_interesting_test {
                let start = Instant::now();
                let (mutant, _) = mutator.mutate(program, &mut rng);
                span("fuzzer.mutate", start);
                queue.push_back(seeds.adopt_child(&test, mutant));
            }
        }
        rewards.push(novel as f64 / global.len() as f64);
        tracer.push(Span {
            id: parent,
            parent: 0,
            name: "replay.program",
            campaign,
            start: tracer.at(program_start),
            end: tracer.now(),
        });
    }
    for _ in 0..SEEDS_TIMED {
        let start = Instant::now();
        let test = seeds.generate_seed(&mut rng);
        tracer.span("fuzzer.seed", 0, campaign, start, Instant::now());
        std::hint::black_box(test);
    }
    let arms = crate::campaign::spec(core, 1, seed, signal).arms();
    time_bandit(arms, &rewards, &mut rng, tracer, campaign);
}

/// Times the bandit's `select` and `update` in blocks of [`BANDIT_BLOCK`]
/// calls, fed the replay's rewards in order.
fn time_bandit(
    arms: usize,
    rewards: &[f64],
    rng: &mut StdRng,
    tracer: &Arc<Tracer>,
    campaign: u64,
) {
    let mut bandit = BanditKind::Ucb1.build(arms);
    let mut picks = [0usize; BANDIT_BLOCK];
    for block in rewards.chunks_exact(BANDIT_BLOCK) {
        let start = Instant::now();
        for pick in picks.iter_mut() {
            *pick = bandit.select(rng);
        }
        tracer.span("mab.select", 0, campaign, start, Instant::now());
        let start = Instant::now();
        for (&arm, &reward) in picks.iter().zip(block) {
            bandit.update(arm, reward);
        }
        tracer.span("mab.update", 0, campaign, start, Instant::now());
        std::hint::black_box(&picks);
    }
}
