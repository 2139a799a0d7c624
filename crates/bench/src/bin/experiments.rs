//! Command-line experiment harness.
//!
//! Regenerates every table and figure of the MABFuzz paper's evaluation
//! section on the simulated processor substrate:
//!
//! ```text
//! experiments table1   [--tests N] [--repeats R] [--seed S] [--vulns V1,V5]
//! experiments fig3     [--tests N] [--repeats R] [--seed S] [--cores cva6,rocket]
//! experiments fig4     [--tests N] [--repeats R] [--seed S] [--cores ...]
//! experiments ablation [--tests N] [--repeats R] [--seed S]
//! experiments all      [--tests N] [--repeats R] [--seed S]
//! experiments run      [--spec file.json] [--events FILE] [...]
//! experiments analyze  [--spec file.json | --program FILE]
//! experiments serve    [--addr 127.0.0.1:PORT] [--workers N] [--max-queue N]
//! experiments dispatch <cmd> --workers host:port,host:port [...]
//! experiments fleet    --workers host:port,host:port [--interval-ms N] [--frames N]
//! ```
//!
//! With no arguments the default budget (2 000 coverage tests, 3 000-test
//! detection cap, 3 repetitions) is used — small enough for a laptop, large
//! enough for the paper's qualitative shapes to emerge.
//!
//! The experiment grid runs on all cores by default (`--parallel auto`);
//! `--parallel serial` reproduces the single-threaded reference run with
//! byte-identical results, and `--parallel N` pins the worker count.
//! `--json` switches the report from text tables to the deterministic JSON
//! renderers (one JSON document per experiment, one per line). Every grid
//! campaign runs the serial plan (one test per bandit round) on its cell's
//! thread; `experiments run --batch N` runs a single batched campaign.

use std::env;
use std::process::ExitCode;
use std::time::Duration;

use mabfuzz_bench::{
    ablation, fig3, fig4, json, table1, CellRunner, ExperimentBudget, LocalRunner, Parallelism,
    ShardPlan,
};
use mabfuzz::{
    json_value, BugSpec, Campaign, CampaignSpec, CampaignSummary, CoverageSignal, EventLog,
    PolicySpec, ProcessorSpec, ProgressMonitor,
};
use mabfuzz_service::{Client, Coordinator, FleetMonitor, RetryPolicy};
use proc_sim::{ProcessorKind, Vulnerability};

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    let command = args.first().map(String::as_str).unwrap_or("all");
    if command == "run" {
        // The spec-driven single-campaign command has its own option set.
        return match run_single_campaign(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{RUN_USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    if command == "analyze" {
        // The static-analysis dump has its own (tiny) option set.
        return match run_analyze(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{ANALYZE_USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    if command == "serve" {
        // The campaign daemon has its own option set too.
        return match run_serve(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{SERVE_USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    if command == "dispatch" {
        // And so does the multi-node dispatch coordinator.
        return match run_dispatch(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{DISPATCH_USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    if command == "fleet" {
        // The live fleet dashboard.
        return match run_fleet(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                eprintln!("{FLEET_USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    let options = match Options::parse(&args[1.min(args.len())..]) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let local = LocalRunner::new(options.parallelism);
    let result = match command {
        "table1" => run_table1(&options, &local),
        "fig3" => run_fig3(&options, &local),
        "fig4" => run_fig4(&options, &local),
        "ablation" => run_ablation(&options, &local),
        "all" => run_all(&options, &local),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            println!("{RUN_USAGE}");
            println!("{ANALYZE_USAGE}");
            println!("{SERVE_USAGE}");
            println!("{DISPATCH_USAGE}");
            println!("{FLEET_USAGE}");
            Ok(())
        }
        other => {
            eprintln!("error: unknown command `{other}`");
            eprintln!("{USAGE}");
            eprintln!("{RUN_USAGE}");
            eprintln!("{ANALYZE_USAGE}");
            eprintln!("{SERVE_USAGE}");
            eprintln!("{DISPATCH_USAGE}");
            eprintln!("{FLEET_USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs every experiment, reusing the Fig. 3 grid for Fig. 4.
fn run_all(options: &Options, runner: &dyn CellRunner) -> Result<(), String> {
    run_table1(options, runner)?;
    // Fig. 4 derives from the Fig. 3 campaigns, so the coverage grid
    // — the most expensive part of the run — is simulated once and
    // reported twice.
    let fig3_result = compute_fig3(options, runner)?;
    report_fig3(options, &fig3_result);
    print_fig4_banner(options);
    report_fig4(options, &fig4::from_fig3(&fig3_result));
    run_ablation(options, runner)
}

const USAGE: &str = "usage: experiments <table1|fig3|fig4|ablation|all> \
[--tests N] [--cap N] [--repeats R] [--seed S] [--cores a,b] [--vulns V1,V2] \
[--parallel auto|serial|N] [--serial] [--json]";

const RUN_USAGE: &str = "usage: experiments run [--spec file.json] \
[--algorithm NAME] [--core NAME] [--bugs none|native|V1..V7] [--tests N] \
[--seed S] [--batch N] [--coverage-signal point|edge] \
[--events FILE] [--progress] [--json]";

const ANALYZE_USAGE: &str = "usage: experiments analyze \
[--spec file.json | --program FILE]";

const SERVE_USAGE: &str = "usage: experiments serve [--addr 127.0.0.1:PORT] \
[--workers auto|N] [--ttl SECONDS] [--auth-token TOKEN] [--io-timeout-ms N|0] \
[--max-queue N]";

const FLEET_USAGE: &str = "usage: experiments fleet \
--workers host:port,host:port [--interval-ms N] [--frames N] \
[--auth-token TOKEN] [--timeout-ms N|0]";

const DISPATCH_USAGE: &str = "usage: experiments dispatch \
<all|table1|fig3|fig4|ablation> --workers host:port,host:port \
[--spec-grid FILE] [--auth-token TOKEN] [--attempts N] [--timeout-ms N] \
[--retire-threshold N] [--no-local-fallback] [grid flags: --tests --cap \
--repeats --seed --cores --vulns --json ...]";

/// `experiments serve`: run the campaign service daemon
/// (`mabfuzz_service::CampaignServer`) — remote spec submission, live NDJSON
/// event streams, status/report queries and cancellation over plain HTTP.
///
/// `--addr` defaults to `127.0.0.1:0` (an ephemeral port); the bound address
/// is printed to stdout as `listening on HOST:PORT` before the accept loop
/// starts, so scripts can capture it. `--workers` sizes the campaign worker
/// pool and defaults to the same [`Parallelism`] auto thread budget the
/// experiment grid uses (one worker per available core); each campaign
/// runs entirely on the worker that picked it up, exactly like a grid cell.
///
/// The daemon runs until a client posts `/shutdown` (see the protocol
/// reference in the `mabfuzz_service` crate docs).
/// Daemon hardening flags (see the `mabfuzz_service` crate docs):
/// `--ttl SECONDS` auto-evicts terminal campaigns that long after they
/// finish; `--auth-token TOKEN` requires `Authorization: Bearer TOKEN` on
/// everything except `GET /healthz`; `--io-timeout-ms N` bounds every
/// connection's socket reads/writes (default 30 000, `0` disables);
/// `--max-queue N` bounds the job queue to `N` waiting campaigns —
/// over-capacity submissions are refused with `429 Too Many Requests` and a
/// retryable error body, which the dispatch coordinator absorbs by backing
/// off and resubmitting.
fn run_serve(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:0".to_owned();
    let mut workers = Parallelism::default();
    let mut ttl: Option<std::time::Duration> = None;
    let mut auth_token: Option<String> = None;
    let mut io_timeout = Some(mabfuzz_service::DEFAULT_IO_TIMEOUT);
    let mut max_queue: Option<usize> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next().cloned().ok_or_else(|| format!("flag `{flag}` expects a value"))
        };
        match flag.as_str() {
            "--addr" => addr = value()?,
            "--workers" => {
                let text = value()?;
                workers = Parallelism::parse(&text).ok_or_else(|| {
                    format!("--workers: expected auto, serial or a thread count, got `{text}`")
                })?;
            }
            "--ttl" => {
                let seconds: u64 = value()?.parse().map_err(|e| format!("--ttl: {e}"))?;
                ttl = Some(std::time::Duration::from_secs(seconds));
            }
            "--auth-token" => auth_token = Some(value()?),
            "--io-timeout-ms" => {
                let millis: u64 =
                    value()?.parse().map_err(|e| format!("--io-timeout-ms: {e}"))?;
                io_timeout =
                    (millis > 0).then(|| std::time::Duration::from_millis(millis));
            }
            "--max-queue" => {
                max_queue =
                    Some(value()?.parse().map_err(|e| format!("--max-queue: {e}"))?);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let server = mabfuzz_service::CampaignServer::bind(&addr, workers.workers())
        .map_err(|error| format!("--addr {addr}: {error}"))?
        .with_io_timeout(io_timeout)
        .with_auth_token(auth_token)
        .with_ttl(ttl)
        .with_max_queue(max_queue);
    println!("listening on {} ({} campaign workers)", server.local_addr(), workers.workers());
    // Scripts block on this line to learn the ephemeral port; make sure it
    // is out before the accept loop parks the thread.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    server.serve().map_err(|error| format!("serve: {error}"))
}

/// `experiments run`: execute one campaign described by a JSON
/// [`CampaignSpec`] (with optional command-line overrides) through the
/// `Campaign` session type, and report it as text or one deterministic JSON
/// document.
///
/// `--events FILE` additionally streams the campaign's full observer event
/// stream (baseline and MABFuzz campaigns alike) to `FILE` as JSONL — one
/// event per line, in deterministic fold order, byte-identical for every
/// run of the same spec. `--progress` attaches a live stderr
/// progress monitor (tests/sec, coverage %, per-arm pulls, detections);
/// stdout artefacts stay byte-identical either way.
fn run_single_campaign(args: &[String]) -> Result<(), String> {
    // First pass: the spec file (if any) is the base, regardless of where
    // `--spec` sits among the flags — every other flag is an *override* and
    // must win over the file even when written before it.
    let mut spec = CampaignSpec::default();
    let mut spec_seen = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--spec" {
            if spec_seen {
                return Err("--spec given more than once".to_owned());
            }
            spec_seen = true;
            let path =
                iter.next().cloned().ok_or_else(|| format!("flag `{flag}` expects a value"))?;
            let text = std::fs::read_to_string(&path)
                .map_err(|error| format!("--spec {path}: {error}"))?;
            spec = CampaignSpec::from_json(&text)
                .map_err(|error| format!("--spec {path}: {error}"))?;
        }
    }

    let mut json_output = false;
    let mut events_path: Option<String> = None;
    let mut progress = false;
    // Deferred until after the loop so `--bugs` composes with `--core`
    // regardless of flag order.
    let mut bugs_override: Option<BugSpec> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next().cloned().ok_or_else(|| format!("flag `{flag}` expects a value"))
        };
        match flag.as_str() {
            "--spec" => {
                let _ = value()?; // consumed in the first pass
            }
            // A typo'd algorithm fails loudly with the full list of valid
            // policies (built-ins and registered customs) instead of
            // silently defaulting.
            "--algorithm" => spec.policy = PolicySpec::parse(&value()?).map_err(|e| e.to_string())?,
            "--core" => {
                let name = value()?;
                let core = ProcessorKind::parse(&name)
                    .ok_or_else(|| format!("unknown core `{name}`"))?;
                let bugs = spec.processor.map_or(BugSpec::Native, |p| p.bugs);
                spec.processor = Some(ProcessorSpec { core, bugs });
            }
            "--bugs" => {
                bugs_override = Some(BugSpec::parse(&value()?).map_err(|e| e.to_string())?);
            }
            "--tests" => {
                spec.campaign.max_tests = value()?.parse().map_err(|e| format!("--tests: {e}"))?
            }
            "--seed" => {
                spec.rng_seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--batch" => {
                spec.batch_size = value()?.parse().map_err(|e| format!("--batch: {e}"))?
            }
            "--coverage-signal" => {
                let name = value()?;
                spec.coverage_signal = CoverageSignal::parse(&name).ok_or_else(|| {
                    format!("--coverage-signal: expected point or edge, got `{name}`")
                })?;
            }
            "--events" => events_path = Some(value()?),
            "--progress" => progress = true,
            "--json" => json_output = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if let Some(bugs) = bugs_override {
        let processor = spec
            .processor
            .as_mut()
            .ok_or("--bugs needs a processor (--core or a spec with one)")?;
        processor.bugs = bugs;
    }
    let mut campaign = Campaign::from_spec(&spec).map_err(|error| match error {
        // The library message suggests a Rust API; at the CLI the fix is a
        // flag or a spec-file section.
        mabfuzz::SpecError::MissingProcessor => {
            "no processor to run against: pass --core NAME (optionally --bugs ...) \
             or a --spec file with a \"processor\" section"
                .to_owned()
        }
        other => other.to_string(),
    })?;
    // Observer consumers: the JSONL event sink (deterministic, golden-pinned
    // bytes on its own file) and the live stderr progress monitor. Neither
    // can perturb the campaign, so the stdout report stays byte-identical
    // with or without them.
    let events_health = match &events_path {
        Some(path) => {
            let log = EventLog::create(path).map_err(|error| format!("--events {path}: {error}"))?;
            let health = log.health();
            campaign.attach_observer(Box::new(log));
            Some(health)
        }
        None => None,
    };
    if progress {
        let interval = (spec.campaign.max_tests / 20).clamp(1, ProgressMonitor::DEFAULT_INTERVAL);
        let monitor = ProgressMonitor::new(campaign.coverage_space_len()).with_interval(interval);
        campaign.attach_observer(Box::new(monitor));
    }
    let outcome = campaign.execute();
    if let (Some(health), Some(path)) = (events_health, &events_path) {
        if health.failed() {
            return Err(format!(
                "--events {path}: the event stream was truncated by a write error"
            ));
        }
    }
    if json_output {
        println!("{}", mabfuzz::report::campaign_json(&spec, &outcome));
        return Ok(());
    }
    println!("== Campaign: {} ==", outcome.stats.label());
    println!("(spec policy {}, seed {}, {})\n", spec.policy, spec.rng_seed, spec.plan());
    println!("{}", outcome.stats);
    if let Some(first) = outcome.stats.first_detection() {
        println!("first detection after {first} tests");
    }
    if !outcome.arms.is_empty() {
        println!("total arm resets: {}", outcome.total_resets);
    }
    Ok(())
}

/// `experiments analyze`: dump the static [`ProgramFacts`] of seed programs
/// as one strict JSON document on stdout.
///
/// With `--spec file.json` (or no flags: the default spec) the generator
/// stream of the spec is replayed and every initial seed is analyzed — the
/// exact programs a campaign's arms would start from. With `--program FILE`
/// one raw RV64I text image is analyzed instead; words that fail to decode
/// are reported as statically-illegal slots, never silently dropped.
///
/// [`ProgramFacts`]: mabfuzz_bench::analyze
fn run_analyze(args: &[String]) -> Result<(), String> {
    let mut spec_path: Option<String> = None;
    let mut program_path: Option<String> = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next().cloned().ok_or_else(|| format!("flag `{flag}` expects a value"))
        };
        match flag.as_str() {
            "--spec" => spec_path = Some(value()?),
            "--program" => program_path = Some(value()?),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if spec_path.is_some() && program_path.is_some() {
        return Err("--spec and --program are mutually exclusive".to_owned());
    }
    if let Some(path) = program_path {
        let bytes =
            std::fs::read(&path).map_err(|error| format!("--program {path}: {error}"))?;
        println!("{}", mabfuzz_bench::analyze::program_report(&bytes));
        return Ok(());
    }
    let spec = match spec_path {
        Some(path) => {
            let text = std::fs::read_to_string(&path)
                .map_err(|error| format!("--spec {path}: {error}"))?;
            CampaignSpec::from_json(&text).map_err(|error| format!("--spec {path}: {error}"))?
        }
        None => CampaignSpec::default(),
    };
    spec.validate().map_err(|error| error.to_string())?;
    println!("{}", mabfuzz_bench::analyze::spec_report(&spec));
    Ok(())
}

#[derive(Debug, Clone)]
struct Options {
    budget: ExperimentBudget,
    cores: Vec<ProcessorKind>,
    vulnerabilities: Vec<Vulnerability>,
    parallelism: Parallelism,
    json: bool,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut budget = ExperimentBudget::default();
        let mut cores = ProcessorKind::ALL.to_vec();
        let mut vulnerabilities = Vulnerability::ALL.to_vec();
        let mut parallelism = Parallelism::default();
        let mut json = false;
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = || {
                iter.next()
                    .cloned()
                    .ok_or_else(|| format!("flag `{flag}` expects a value"))
            };
            match flag.as_str() {
                "--tests" => {
                    budget.coverage_tests =
                        value()?.parse().map_err(|e| format!("--tests: {e}"))?;
                }
                "--cap" => {
                    budget.detection_cap = value()?.parse().map_err(|e| format!("--cap: {e}"))?;
                }
                "--repeats" => {
                    budget.repetitions = value()?.parse().map_err(|e| format!("--repeats: {e}"))?;
                }
                "--seed" => {
                    budget.base_seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                }
                "--cores" => {
                    cores = value()?
                        .split(',')
                        .map(|name| {
                            ProcessorKind::parse(name).ok_or_else(|| format!("unknown core `{name}`"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "--vulns" => {
                    vulnerabilities = value()?
                        .split(',')
                        .map(|id| {
                            Vulnerability::parse(id)
                                .ok_or_else(|| format!("unknown vulnerability `{id}`"))
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                }
                "--parallel" => {
                    let text = value()?;
                    parallelism = Parallelism::parse(&text)
                        .ok_or_else(|| format!("--parallel: expected auto, serial or a thread count, got `{text}`"))?;
                }
                "--serial" => parallelism = Parallelism::Serial,
                "--json" => json = true,
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        Ok(Options { budget, cores, vulnerabilities, parallelism, json })
    }
}

fn run_table1(options: &Options, runner: &dyn CellRunner) -> Result<(), String> {
    if !options.json {
        // Header first: the default budget simulates for a while, and the
        // banner doubles as the progress cue.
        println!("== Table I: vulnerability detection speedup vs. TheHuzz ==");
        println!(
            "(detection cap {} tests, {} repetitions, base seed {}, {})\n",
            options.budget.detection_cap,
            options.budget.repetitions,
            options.budget.base_seed,
            options.parallelism
        );
    }
    let plan = ShardPlan::serial();
    let result = table1::run_for_on(&options.vulnerabilities, &options.budget, &plan, runner)?;
    if options.json {
        println!("{}", json::table1(&result));
        return Ok(());
    }
    println!("{}", result.to_table());
    if let Some(best) = result.best_speedup() {
        println!("best speedup over TheHuzz: {best:.2}x\n");
    }
    Ok(())
}

fn compute_fig3(options: &Options, runner: &dyn CellRunner) -> Result<fig3::Fig3Result, String> {
    if !options.json {
        println!("== Fig. 3: branch coverage vs. number of tests ==");
        println!(
            "({} tests per campaign, {} repetitions, {})\n",
            options.budget.coverage_tests, options.budget.repetitions, options.parallelism
        );
    }
    fig3::run_for_on(&options.cores, &options.budget, &ShardPlan::serial(), runner)
}

fn report_fig3(options: &Options, result: &fig3::Fig3Result) {
    if options.json {
        println!("{}", json::fig3(result));
        return;
    }
    for curves in &result.processors {
        println!(
            "-- {} ({} coverage points) --",
            curves.processor,
            curves.space_len
        );
        println!("{}", result.to_table(curves.processor, 12));
    }
}

fn run_fig3(options: &Options, runner: &dyn CellRunner) -> Result<(), String> {
    let result = compute_fig3(options, runner)?;
    report_fig3(options, &result);
    Ok(())
}

fn print_fig4_banner(options: &Options) {
    if !options.json {
        println!("== Fig. 4: coverage speedup and increment vs. TheHuzz ==");
    }
}

fn report_fig4(options: &Options, result: &fig4::Fig4Result) {
    if options.json {
        println!("{}", json::fig4(result));
        return;
    }
    println!("{}", result.to_table());
    if let Some(best) = result.best_speedup() {
        println!("best coverage speedup over TheHuzz: {best:.2}x\n");
    }
}

fn run_fig4(options: &Options, runner: &dyn CellRunner) -> Result<(), String> {
    // Banner before the grid: the coverage campaigns are the long part, and
    // the banner doubles as the progress cue.
    print_fig4_banner(options);
    let fig3_result =
        fig3::run_for_on(&options.cores, &options.budget, &ShardPlan::serial(), runner)?;
    report_fig4(options, &fig4::from_fig3(&fig3_result));
    Ok(())
}

fn run_ablation(options: &Options, runner: &dyn CellRunner) -> Result<(), String> {
    let core = options.cores.first().copied().unwrap_or(ProcessorKind::Rocket);
    if !options.json {
        println!("== Parameter ablations (UCB on Rocket) ==\n");
    }
    let sweeps = [
        ablation::alpha_sweep_on(core, &options.budget, &ShardPlan::serial(), runner)?,
        ablation::gamma_sweep_on(core, &options.budget, &ShardPlan::serial(), runner)?,
        ablation::arms_sweep_on(core, &options.budget, &ShardPlan::serial(), runner)?,
        ablation::reset_ablation_on(core, &options.budget, &ShardPlan::serial(), runner)?,
    ];
    if options.json {
        println!("{}", json::ablations(&sweeps));
        return Ok(());
    }
    for sweep in sweeps {
        println!("-- {} sweep on {} --", sweep.parameter, sweep.processor);
        println!("{}", sweep.to_table());
    }
    Ok(())
}

/// `experiments dispatch`: run an experiment grid (or an explicit spec list)
/// with every campaign farmed out to remote `experiments serve` workers
/// through the fault-tolerant [`Coordinator`].
///
/// `--workers` takes a comma-separated list of `host:port` daemon addresses
/// and is required. Campaigns are retried with capped exponential backoff
/// (`--attempts`, default 4), every request carries a socket deadline
/// (`--timeout-ms`, default 30 000; `0` disables), workers that keep failing
/// are quarantined and retired (`--retire-threshold`), and campaigns lost
/// in flight are reassigned with their replayed event-stream prefix checked
/// byte-for-byte against the first attempt. When every worker is lost the
/// coordinator finishes the remaining campaigns locally unless
/// `--no-local-fallback` is given, in which case dispatch fails loudly.
///
/// The experiment artefacts on stdout are byte-identical to a local
/// `experiments <cmd>` run with the same grid flags; coordinator diagnostics
/// (reassignments, fallback runs) go to stderr.
///
/// `--spec-grid FILE` bypasses the named experiments: the file holds
/// self-contained campaign specs (a JSON array or one JSON object per line)
/// and the output is one report document per spec, in input order.
fn run_dispatch(args: &[String]) -> Result<(), String> {
    // Split coordinator flags from grid flags: the leading non-flag token is
    // the experiment command, dispatch-specific flags are consumed here, and
    // everything else passes through to `Options::parse` in order.
    let mut command = "all".to_owned();
    let mut workers_arg: Option<String> = None;
    let mut spec_grid: Option<String> = None;
    let mut auth_token: Option<String> = None;
    let mut attempts: u32 = RetryPolicy::default().max_attempts;
    let mut timeout_ms: u64 = 30_000;
    let mut retire_threshold: Option<u32> = None;
    let mut local_fallback = true;
    let mut grid_args: Vec<String> = Vec::new();
    let mut iter = args.iter();
    let mut first = true;
    while let Some(arg) = iter.next() {
        if first && !arg.starts_with("--") {
            command = arg.clone();
            first = false;
            continue;
        }
        first = false;
        let mut value = || {
            iter.next().cloned().ok_or_else(|| format!("flag `{arg}` expects a value"))
        };
        match arg.as_str() {
            "--workers" => workers_arg = Some(value()?),
            "--spec-grid" => spec_grid = Some(value()?),
            "--auth-token" => auth_token = Some(value()?),
            "--attempts" => {
                attempts = value()?.parse().map_err(|e| format!("--attempts: {e}"))?;
                if attempts == 0 {
                    return Err("--attempts: expected at least one attempt".to_owned());
                }
            }
            "--timeout-ms" => {
                timeout_ms = value()?.parse().map_err(|e| format!("--timeout-ms: {e}"))?;
            }
            "--retire-threshold" => {
                retire_threshold =
                    Some(value()?.parse().map_err(|e| format!("--retire-threshold: {e}"))?);
            }
            "--no-local-fallback" => local_fallback = false,
            _ => grid_args.push(arg.clone()),
        }
    }

    let workers_arg = workers_arg.ok_or("--workers host:port[,host:port...] is required")?;
    let deadline = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms));
    let mut clients = Vec::new();
    for addr in workers_arg.split(',').map(str::trim).filter(|a| !a.is_empty()) {
        let mut client = Client::connect(addr)
            .map_err(|error| format!("--workers {addr}: {error}"))?
            .with_deadline(deadline);
        if let Some(token) = &auth_token {
            client = client.with_auth_token(token.clone());
        }
        clients.push(client);
    }
    if clients.is_empty() {
        return Err("--workers: expected at least one host:port address".to_owned());
    }

    let policy = RetryPolicy { max_attempts: attempts, ..RetryPolicy::default() };
    let mut coordinator = Coordinator::new(clients)
        .with_retry_policy(policy)
        .with_local_fallback(local_fallback)
        .with_verbose(true);
    if let Some(threshold) = retire_threshold {
        coordinator = coordinator.with_retire_threshold(threshold);
    }

    if let Some(path) = spec_grid {
        if !grid_args.is_empty() {
            return Err(format!(
                "--spec-grid does not combine with grid flags (got `{}`)",
                grid_args.join(" ")
            ));
        }
        dispatch_spec_grid(&coordinator, &path)?;
        report_dispatch_stats(&coordinator);
        return Ok(());
    }

    let options = Options::parse(&grid_args)?;
    let remote = RemoteRunner { coordinator: &coordinator };
    let result = match command.as_str() {
        "table1" => run_table1(&options, &remote),
        "fig3" => run_fig3(&options, &remote),
        "fig4" => run_fig4(&options, &remote),
        "ablation" => run_ablation(&options, &remote),
        "all" => run_all(&options, &remote),
        other => Err(format!("unknown dispatch command `{other}`")),
    };
    report_dispatch_stats(&coordinator);
    result
}

/// `experiments fleet`: a live stderr dashboard over a fleet of
/// `experiments serve` workers.
///
/// Renders one [`FleetMonitor`] line per worker per frame: queue depth
/// against the worker's `--max-queue` bound, campaigns running, live
/// tests/sec and coverage % folded from the worker's NDJSON event feed,
/// and the same healthy → quarantined → retired lifecycle the dispatch
/// coordinator tracks from `GET /healthz` heartbeats. `--interval-ms` sets
/// the frame rate (default 1 000); `--frames N` renders exactly `N` frames
/// and exits (what CI's render smoke uses); `--timeout-ms` bounds each
/// probe's socket I/O (default 5 000, `0` disables); `--auth-token` is
/// needed for the event feeds when the daemons run locked (the `/healthz`
/// probe itself is auth-exempt).
fn run_fleet(args: &[String]) -> Result<(), String> {
    let mut workers_arg: Option<String> = None;
    let mut interval_ms: u64 = 1_000;
    let mut frames: Option<u64> = None;
    let mut auth_token: Option<String> = None;
    let mut timeout_ms: u64 = 5_000;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = || {
            iter.next().cloned().ok_or_else(|| format!("flag `{flag}` expects a value"))
        };
        match flag.as_str() {
            "--workers" => workers_arg = Some(value()?),
            "--interval-ms" => {
                interval_ms = value()?.parse().map_err(|e| format!("--interval-ms: {e}"))?;
            }
            "--frames" => {
                let count: u64 = value()?.parse().map_err(|e| format!("--frames: {e}"))?;
                if count == 0 {
                    return Err("--frames: expected at least one frame".to_owned());
                }
                frames = Some(count);
            }
            "--auth-token" => auth_token = Some(value()?),
            "--timeout-ms" => {
                timeout_ms = value()?.parse().map_err(|e| format!("--timeout-ms: {e}"))?;
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workers_arg = workers_arg.ok_or("--workers host:port[,host:port...] is required")?;
    let deadline = (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms));
    let mut workers = Vec::new();
    for addr in workers_arg.split(',').map(str::trim).filter(|a| !a.is_empty()) {
        let mut client = Client::connect(addr)
            .map_err(|error| format!("--workers {addr}: {error}"))?
            .with_deadline(deadline);
        if let Some(token) = &auth_token {
            client = client.with_auth_token(token.clone());
        }
        workers.push((addr.to_owned(), client));
    }
    if workers.is_empty() {
        return Err("--workers: expected at least one host:port address".to_owned());
    }
    let mut monitor =
        FleetMonitor::new(workers).with_interval(Duration::from_millis(interval_ms));
    monitor
        .run(frames, &mut std::io::stderr())
        .map_err(|error| format!("fleet dashboard: {error}"))
}

/// Adapts the fault-tolerant [`Coordinator`] to the experiment grid's
/// [`CellRunner`] seam: each grid cell becomes one dispatched campaign, and
/// the summaries come back in spec order so the reductions fold exactly as
/// they do locally.
struct RemoteRunner<'a> {
    coordinator: &'a Coordinator,
}

impl CellRunner for RemoteRunner<'_> {
    fn run_cells(&self, specs: &[CampaignSpec]) -> Result<Vec<CampaignSummary>, String> {
        let outcomes = self.coordinator.run(specs).map_err(|error| error.to_string())?;
        Ok(outcomes.into_iter().map(|outcome| outcome.summary).collect())
    }
}

/// Dispatches an explicit spec list (JSON array or NDJSON file) and prints
/// one report document per spec, in input order.
fn dispatch_spec_grid(coordinator: &Coordinator, path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|error| format!("--spec-grid {path}: {error}"))?;
    let specs =
        parse_spec_grid(&text).map_err(|error| format!("--spec-grid {path}: {error}"))?;
    if specs.is_empty() {
        return Err(format!("--spec-grid {path}: no campaign specs found"));
    }
    let outcomes = coordinator.run(&specs).map_err(|error| error.to_string())?;
    for outcome in &outcomes {
        println!("{}", outcome.report);
    }
    Ok(())
}

/// Parses a spec-grid file: a JSON array of campaign specs, or NDJSON with
/// one spec object per line (blank lines ignored).
fn parse_spec_grid(text: &str) -> Result<Vec<CampaignSpec>, String> {
    if text.trim_start().starts_with('[') {
        let value = json_value::parse(text)?;
        let entries = value.as_array("spec grid").map_err(|e| e.to_string())?;
        return entries
            .iter()
            .enumerate()
            .map(|(index, entry)| {
                CampaignSpec::from_value(entry).map_err(|e| format!("spec #{index}: {e}"))
            })
            .collect();
    }
    text.lines()
        .map(str::trim)
        .filter(|line| !line.is_empty())
        .enumerate()
        .map(|(index, line)| {
            CampaignSpec::from_json(line).map_err(|e| format!("spec #{index}: {e}"))
        })
        .collect()
}

/// Prints the coordinator's fault-handling tally to stderr (stdout carries
/// only the deterministic experiment artefacts).
fn report_dispatch_stats(coordinator: &Coordinator) {
    let reassignments = coordinator.reassignments();
    let local_runs = coordinator.local_runs();
    if reassignments > 0 || local_runs > 0 {
        eprintln!(
            "dispatch: {reassignments} reassignment(s), {local_runs} local fallback run(s)"
        );
    }
}
