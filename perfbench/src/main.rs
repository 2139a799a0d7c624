//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign|campaign_edge|paper_grid|serve \
//!     --seed N --seconds S --trace 0|1 [--print-digests]
//! ```
//!
//! An untraced run (`--trace 0`) sets the workload up three times, then
//! repeats the workload's fixed pass until `--seconds` have passed (and at
//! least 100 campaigns ran, so `campaign_ms_p90` has ten samples beyond it),
//! checks every output, and prints the end-to-end metrics. A traced run
//! (`--trace 1`) alternates untraced and traced passes, replays a program
//! stream stage by stage, and prints the per-layer metrics. The last line
//! of standard output is always the JSON result; human-readable detail goes
//! to standard error. `perfbench/README.md` explains the workloads and the
//! metrics.

mod campaign;
mod check;
mod grid;
mod layers;
mod replay;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use check::Checker;
use report::Metrics;
use trace::Tracer;

/// How many times an untraced run sets its workload up (`setup_s` is the
/// median).
const SETUPS: usize = 3;

/// Untraced/traced pass pairs of a traced run. Fixed, so every per-layer
/// count repeats exactly.
const TRACE_PAIRS: usize = 2;

/// An untraced run stops adding passes after this long even when it has
/// fewer than 100 campaigns, so it ends well inside 180 s.
const MAX_TIMED_S: f64 = 120.0;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Serial point-signal MABFuzz-UCB campaigns on every core.
    Campaign,
    /// The same campaigns under the edge coverage signal.
    CampaignEdge,
    /// The `experiments all` pipeline on two grid workers.
    PaperGrid,
    /// A closed client loop against an in-process campaign daemon.
    Serve,
}

impl Kind {
    fn parse(text: &str) -> Option<Kind> {
        Some(match text {
            "campaign" => Kind::Campaign,
            "campaign_edge" => Kind::CampaignEdge,
            "paper_grid" => Kind::PaperGrid,
            "serve" => Kind::Serve,
            _ => return None,
        })
    }

    /// The workload's name on the command line and in the digest table.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Campaign => "campaign",
            Kind::CampaignEdge => "campaign_edge",
            Kind::PaperGrid => "paper_grid",
            Kind::Serve => "serve",
        }
    }
}

/// What one pass of a workload did.
#[derive(Debug, Default)]
pub struct Pass {
    /// Duration of the timed work, in seconds.
    pub wall_s: f64,
    /// Tests executed.
    pub tests: u64,
    /// Summed final coverage of the pass's campaigns.
    pub coverage_points: u64,
    /// Mismatching tests (for `paper_grid`, detected vulnerabilities).
    pub detections: u64,
    /// Arm resets across the pass's campaigns.
    pub arm_resets: u64,
    /// Turnaround of each campaign, in ms.
    pub campaign_ms: Vec<f64>,
    /// Digest of every report the pass produced, in order.
    pub digests: Vec<u64>,
    /// Bytes the pass moved over the wire (`serve` only).
    pub wire_bytes: u64,
}

/// One workload, set up and ready to run passes.
pub trait Workload {
    /// Runs one pass of the workload's fixed work, recording spans into
    /// `tracer` when it is given. Output mismatches go to `checker`.
    fn pass(&mut self, tracer: Option<&Arc<Tracer>>, checker: &mut Checker) -> Pass;

    /// Connections opened and requests sent by a counting service client.
    fn transport_counts(&self) -> Option<(usize, usize)> {
        None
    }
}

pub struct Args {
    pub kind: Kind,
    pub seed: u64,
    seconds: f64,
    trace: bool,
    print_digests: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut print_digests = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next()
                .ok_or_else(|| format!("`{flag}` expects a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err(format!("--seconds: expected 0 < S <= 60, got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got `{other}`")),
                }
            }
            "--print-digests" => print_digests = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
        print_digests,
    })
}

/// Sets the workload up. `traced` selects the instrumented variant where a
/// workload has one (the service client's counting transport).
fn setup(kind: Kind, seed: u64, traced: bool, checker: &mut Checker) -> Box<dyn Workload> {
    match kind {
        Kind::Campaign => Box::new(campaign::Campaigns::setup(seed, false, checker)),
        Kind::CampaignEdge => Box::new(campaign::Campaigns::setup(seed, true, checker)),
        Kind::PaperGrid => Box::new(grid::PaperGrid::setup(
            seed,
            grid::Budget::Workload,
            checker,
        )),
        Kind::Serve => Box::new(serve::Serve::setup(
            seed,
            serve::Size::Workload,
            traced,
            checker,
        )),
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!(
                "usage: perfbench --workload campaign|campaign_edge|paper_grid|serve --seed N \
                 [--seconds S] [--trace 0|1] [--print-digests]"
            );
            return ExitCode::FAILURE;
        }
    };
    let result = if args.print_digests {
        print_digests(&args)
    } else if args.trace {
        traced_run(&args)
    } else {
        untraced_run(&args, process_start)
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one pass and prints the digest-table line for this seed.
fn print_digests(args: &Args) -> Result<String, String> {
    let mut checker = Checker::default();
    let pass = setup(args.kind, args.seed, false, &mut checker).pass(None, &mut checker);
    Ok(check::digest_line(
        args.kind.name(),
        args.seed,
        &pass.digests,
    ))
}

fn untraced_run(args: &Args, process_start: Instant) -> Result<String, String> {
    let mut checker = Checker::new(check::expected_digests(args.kind.name(), args.seed));
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for index in 0..SETUPS {
        drop(workload.take());
        // The first set-up counts from process start.
        let start = if index == 0 {
            process_start
        } else {
            Instant::now()
        };
        workload = Some(setup(args.kind, args.seed, false, &mut checker));
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("set up at least once");

    let min_campaigns = stats::min_samples(90);
    let timed = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let elapsed = timed.elapsed().as_secs_f64();
        let campaigns: usize = passes.iter().map(|p| p.campaign_ms.len()).sum();
        let enough = elapsed >= args.seconds && campaigns >= min_campaigns;
        if !passes.is_empty() && (enough || elapsed >= MAX_TIMED_S) {
            break;
        }
        let pass = workload.pass(None, &mut checker);
        checker.pass_digests(&pass.digests);
        passes.push(pass);
    }
    drop(workload);

    let first = &passes[0];
    for (index, pass) in passes.iter().enumerate().skip(1) {
        if (pass.tests, pass.coverage_points, pass.detections)
            != (first.tests, first.coverage_points, first.detections)
        {
            checker.fail(&format!("pass {index} counts differ from pass 0"));
        }
    }
    let campaign_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.campaign_ms.iter().copied())
        .collect();
    let mut metrics = Metrics::default();
    metrics.set("setup_s", stats::median(&setup_s));
    metrics.set(
        "wall_s",
        stats::median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
    );
    metrics.set("tests_per_s", tests_per_s(&passes));
    metrics.set("peak_rss_mb", peak_rss_mb()?);
    metrics.set("coverage_points", first.coverage_points as f64);
    metrics.set("detections", first.detections as f64);
    metrics.set(
        "campaign_ms_p50",
        stats::percentile(&campaign_ms, 50).map_err(|e| e.to_string())?,
    );
    metrics.set(
        "campaign_ms_p90",
        stats::percentile(&campaign_ms, 90).map_err(|e| e.to_string())?,
    );

    eprintln!(
        "{} seed {}: {} passes, {} campaigns, {} tests per pass",
        args.kind.name(),
        args.seed,
        passes.len(),
        campaign_ms.len(),
        first.tests
    );
    print_table(&metrics, report::END_TO_END);
    metrics.result_line(report::END_TO_END, checker.attempted, checker.failed)
}

fn traced_run(args: &Args) -> Result<String, String> {
    let mut checker = Checker::new(check::expected_digests(args.kind.name(), args.seed));
    let mut workload = setup(args.kind, args.seed, true, &mut checker);
    let tracer = Tracer::new();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for _ in 0..TRACE_PAIRS {
        let pass = workload.pass(None, &mut checker);
        checker.pass_digests(&pass.digests);
        untraced.push(pass);
        let pass = workload.pass(Some(&tracer), &mut checker);
        checker.pass_digests(&pass.digests);
        traced.push(pass);
    }
    let overhead_ratio = tests_per_s(&traced) / tests_per_s(&untraced);
    if let Kind::Serve = args.kind {
        // Server-side campaigns cannot carry the benchmark's observer; the
        // core layer is timed on the local reference runs of the same specs.
        serve::trace_references(args.seed, &tracer, &mut checker);
    }
    let transport = workload.transport_counts();
    drop(workload);

    let pass = traced.swap_remove(0);
    let traced = layers::Traced {
        tracer: Arc::clone(&tracer),
        pass,
        overhead_ratio,
        transport,
    };
    let (metrics, probes) = layers::measure(args, traced, &mut checker)?;
    let path = format!(
        "perfbench/out/spans-{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    );
    let written = std::fs::create_dir_all("perfbench/out")
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|file| {
            let mut out = std::io::BufWriter::new(file);
            std::iter::once(&tracer)
                .chain(&probes)
                .try_for_each(|t| t.write_jsonl(&mut out))?;
            std::io::Write::flush(&mut out)
        });
    match written {
        Ok(()) => eprintln!("spans written to {path}"),
        Err(error) => eprintln!("note: spans not written to {path}: {error}"),
    }
    eprintln!("self time by span name (count, total ms, self ms):");
    for (name, (count, total, own)) in tracer.self_times() {
        eprintln!(
            "  {name:<28} {count:>8} {:>12.3} {:>12.3}",
            total as f64 / 1e6,
            own as f64 / 1e6
        );
    }
    print_table(&metrics, report::PER_LAYER);
    metrics.result_line(report::PER_LAYER, checker.attempted, checker.failed)
}

/// The median over `passes` of tests executed per second.
fn tests_per_s(passes: &[Pass]) -> f64 {
    stats::median(
        &passes
            .iter()
            .map(|p| p.tests as f64 / p.wall_s)
            .collect::<Vec<_>>(),
    )
}

fn print_table(metrics: &Metrics, catalogue: &[(&str, &str)]) {
    for (name, unit) in catalogue {
        if let Some(value) = metrics.get(name) {
            eprintln!("  {name:<36} {value:>16.4} {unit}");
        }
    }
}

/// Peak resident memory of this process (VmHWM), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
