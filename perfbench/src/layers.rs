//! The per-layer metrics of a traced run.
//!
//! The core layer is timed on the workload's own campaigns (for `serve`,
//! on local runs of the served specs), the simulator stages on the replay
//! pass, the grid layer on the workload's grid passes and the service layer
//! on its served campaigns. A workload that does not exercise the grid or
//! the service layer gets a small fixed probe of it instead: one traced
//! smoke-budget grid pass, or one traced pass of short served campaigns.

use std::sync::Arc;

use mabfuzz::CoverageSignal;

use crate::check::Checker;
use crate::report::Metrics;
use crate::stats::percentile;
use crate::trace::Tracer;
use crate::{grid, replay, serve, Args, Kind, Pass, Workload};

/// What the traced run measured, ready to be turned into metrics.
pub struct Traced {
    /// The spans of the workload's traced passes and its replay.
    pub tracer: Arc<Tracer>,
    /// The first traced pass.
    pub pass: Pass,
    /// Traced ÷ untraced tests per second.
    pub overhead_ratio: f64,
    /// Connections and requests of the service client, when the workload
    /// served campaigns.
    pub transport: Option<(usize, usize)>,
}

/// Computes every per-layer metric. Returns them with the tracers of the
/// probes it ran, whose spans belong in the span file too.
pub fn measure(
    args: &Args,
    traced: Traced,
    checker: &mut Checker,
) -> Result<(Metrics, Vec<Arc<Tracer>>), String> {
    let Traced {
        tracer,
        pass,
        overhead_ratio,
        transport,
    } = traced;
    let mut m = Metrics::default();

    // Core layer, then the simulator stages on the replay stream.
    m.set("core.arm_resets", pass.arm_resets as f64);
    let signal = if args.kind == Kind::CampaignEdge {
        CoverageSignal::Edge
    } else {
        CoverageSignal::Point
    };
    let counts = replay::run(args.seed, signal, &tracer, checker);
    set_percentiles(&mut m, &tracer, CORE_AND_STAGES)?;
    let tests = counts.programs as f64;
    let harness_ns = tracer.total("fuzzer.harness") as f64;
    let dut_ns = tracer.total("proc_sim.dut") as f64;
    let golden_ns = tracer.total("isa_sim.golden") as f64;
    m.set(
        "isa_sim.decode.hit_ratio",
        counts.hits as f64 / counts.lookups as f64,
    );
    m.set("isa_sim.decode.lookups", counts.lookups as f64);
    m.set(
        "proc_sim.dut.commits_per_test",
        counts.dut_commits as f64 / tests,
    );
    m.set(
        "proc_sim.dut.ns_per_commit",
        dut_ns / counts.dut_commits as f64,
    );
    m.set("proc_sim.dut.share", dut_ns / harness_ns);
    m.set(
        "isa_sim.golden.commits_per_test",
        counts.golden_commits as f64 / tests,
    );
    m.set(
        "isa_sim.golden.ns_per_commit",
        golden_ns / counts.golden_commits as f64,
    );
    m.set(
        "isa_sim.golden.reset_units_per_test",
        counts.reset_units as f64 / tests,
    );
    m.set(
        "fuzzer.diff.mismatch_ratio",
        counts.mismatching as f64 / tests,
    );
    m.set("coverage.novel_ratio", counts.novel as f64 / tests);
    m.set("replay.programs", tests);
    let stages: f64 = replay::stage_names(signal)
        .iter()
        .map(|name| tracer.total(name) as f64)
        .sum();
    let stage_sum_ratio = stages / harness_ns;
    m.set("replay.stage_sum_ratio", stage_sum_ratio);
    let harness_us = m.get("fuzzer.harness.us_p50").expect("set above");
    let campaign_us = m.get("core.test.us_p50").expect("set above");
    m.set("replay.harness_to_campaign_ratio", harness_us / campaign_us);
    eprintln!(
        "replay: stage spans sum to {:.1}% of the harness calls; one replayed test costs {harness_us:.2} us \
         in the harness against {campaign_us:.2} us per test in the real campaigns",
        stage_sum_ratio * 100.0
    );
    if (stage_sum_ratio - 1.0).abs() > STAGE_SUM_TOLERANCE {
        checker.fail(&format!(
            "replay stage spans sum to {:.1}% of the harness calls (allowed: 100 ± {:.0}%)",
            stage_sum_ratio * 100.0,
            STAGE_SUM_TOLERANCE * 100.0
        ));
    }

    // Grid layer: the workload's own passes, or a probe.
    let mut probes = Vec::new();
    let probe_pass;
    let (grid_tracer, grid_pass) = if args.kind == Kind::PaperGrid {
        (Arc::clone(&tracer), &pass)
    } else {
        let probe = Tracer::new();
        probe_pass = grid::PaperGrid::setup(args.seed, grid::Budget::Probe, checker)
            .pass(Some(&probe), checker);
        probes.push(Arc::clone(&probe));
        (probe, &probe_pass)
    };
    let cells = grid_tracer.durations("bench.grid.cell");
    let walls = grid_tracer.total("bench.grid.pass") as f64;
    m.set("bench.grid.cells", grid_pass.campaign_ms.len() as f64);
    set_percentiles(&mut m, &grid_tracer, GRID)?;
    m.set(
        "bench.grid.busy_ratio",
        cells.iter().sum::<f64>() / (walls * grid::WORKERS as f64),
    );

    // Service layer: the workload's own served campaigns, or a probe.
    let probe_pass;
    let (service_tracer, service_pass, transport) = if args.kind == Kind::Serve {
        (
            Arc::clone(&tracer),
            &pass,
            transport.ok_or("the serve workload counts its transport")?,
        )
    } else {
        let probe = Tracer::new();
        let mut workload = serve::Serve::setup(args.seed, serve::Size::Probe, true, checker);
        probe_pass = workload.pass(Some(&probe), checker);
        let counts = workload.transport_counts().expect("a counting transport");
        drop(workload);
        probes.push(Arc::clone(&probe));
        (probe, &probe_pass, counts)
    };
    set_percentiles(&mut m, &service_tracer, SERVICE)?;
    m.set(
        "service.bytes_per_test",
        service_pass.wire_bytes as f64 / service_pass.tests as f64,
    );
    let (connections, requests) = transport;
    m.set(
        "service.requests_per_connection",
        requests as f64 / connections.max(1) as f64,
    );

    m.set("trace.clock_read.ns", crate::trace::clock_read_ns());
    m.set("trace.overhead_ratio", overhead_ratio);
    Ok((m, probes))
}

/// Sets every metric of `table` from the spans in `tracer`.
fn set_percentiles(m: &mut Metrics, tracer: &Tracer, table: &[Percentile]) -> Result<(), String> {
    for &(metric, span, percent, ns_per_unit) in table {
        let value =
            percentile(&tracer.durations(span), percent).map_err(|e| format!("{metric}: {e}"))?;
        m.set(metric, value / ns_per_unit);
    }
    Ok(())
}

/// A percentile metric: its name, the span it reads, the percentile, and
/// the nanoseconds per reported unit.
type Percentile = (&'static str, &'static str, u32, f64);

const US: f64 = 1e3;
const MS: f64 = 1e6;

const CORE_AND_STAGES: &[Percentile] = &[
    ("core.test.us_p50", "core.test", 50, US),
    ("core.test.us_p99", "core.test", 99, US),
    ("core.round_gap.us_p50", "core.round_gap", 50, US),
    ("core.assemble.ms_p50", "core.assemble", 50, MS),
    ("isa_sim.decode.us_p50", "isa_sim.decode", 50, US),
    ("proc_sim.dut.us_p50", "proc_sim.dut", 50, US),
    ("proc_sim.dut.us_p99", "proc_sim.dut", 99, US),
    ("isa_sim.golden.us_p50", "isa_sim.golden", 50, US),
    ("fuzzer.diff.us_p50", "fuzzer.diff", 50, US),
    ("coverage.fold.ns_p50", "coverage.fold", 50, 1.0),
    ("fuzzer.mutate.us_p50", "fuzzer.mutate", 50, US),
    ("fuzzer.seed.us_p50", "fuzzer.seed", 50, US),
    // A bandit span times a block of calls.
    (
        "mab.select.ns_p50",
        "mab.select",
        50,
        replay::BANDIT_BLOCK as f64,
    ),
    (
        "mab.update.ns_p50",
        "mab.update",
        50,
        replay::BANDIT_BLOCK as f64,
    ),
    ("analysis.facts.us_p50", "analysis.facts", 50, US),
    ("coverage.edge_map.us_p50", "coverage.edge_map", 50, US),
    ("fuzzer.harness.us_p50", "fuzzer.harness", 50, US),
];

const GRID: &[Percentile] = &[
    ("bench.grid.cell_ms_p50", "bench.grid.cell", 50, MS),
    ("bench.grid.cell_ms_p90", "bench.grid.cell", 90, MS),
];

const SERVICE: &[Percentile] = &[
    ("service.submit.ms_p50", "service.submit", 50, MS),
    ("service.first_event.ms_p50", "service.first_event", 50, MS),
    ("service.stream.ms_p50", "service.stream", 50, MS),
    ("service.report.ms_p50", "service.report", 50, MS),
    ("service.delete.ms_p50", "service.delete", 50, MS),
];

/// How far the replay's stage spans may drift from the harness calls they
/// stand for before the run counts the self-check as failed.
const STAGE_SUM_TOLERANCE: f64 = 0.10;
