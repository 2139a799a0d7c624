//! `serve`: a closed loop of one client against an in-process
//! `CampaignServer` with one worker. Each iteration submits a short
//! campaign, streams its events to the end, fetches the report and deletes
//! the campaign; the specs rotate through the cores and seeds.

use std::io::Write;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use mabfuzz::{CampaignSpec, CoverageSignal, EventLog, SharedBuffer, SpecError};
use mabfuzz_service::{CampaignServer, Client, FaultyTransport, TcpTransport};

use crate::campaign::{campaign_seed, spec, CORES};
use crate::check::{fnv64, Checker};
use crate::trace::{self, Span, Tracer};
use crate::{Pass, Workload};

/// Campaigns per core per pass.
const SEEDS_PER_CORE: u64 = 8;

/// Campaign sizes.
#[derive(Debug, Clone, Copy)]
pub enum Size {
    /// The workload's campaigns.
    Workload,
    /// Shorter campaigns: the probe traced runs of other workloads use for
    /// the service layer.
    Probe,
}

impl Size {
    fn tests(self) -> u64 {
        match self {
            Size::Workload => 1000,
            Size::Probe => 100,
        }
    }
}

/// A campaign's expected wire output: what a local `Campaign` + `EventLog`
/// run of the same spec produces.
struct Reference {
    json: String,
    events: Vec<u8>,
    report: Vec<u8>,
    tests: u64,
    coverage: u64,
    detections: u64,
    resets: u64,
}

/// The set-up workload: a running daemon, a client and the references.
pub struct Serve {
    server: Option<JoinHandle<std::io::Result<()>>>,
    client: Client,
    transport: Option<Arc<FaultyTransport>>,
    references: Vec<Reference>,
}

/// The specs of one pass.
fn specs(seed: u64, size: Size) -> Vec<CampaignSpec> {
    CORES
        .iter()
        .flat_map(|&core| {
            (0..SEEDS_PER_CORE).map(move |k| {
                spec(
                    core,
                    size.tests(),
                    campaign_seed(seed, k),
                    CoverageSignal::Point,
                )
            })
        })
        .collect()
}

/// Runs `spec` locally with an `EventLog`: the reference for the served
/// run.
fn local_run(spec: &CampaignSpec, tracer: Option<&Arc<Tracer>>) -> Result<Reference, SpecError> {
    let events = SharedBuffer::new();
    let log = Box::new(EventLog::new(events.clone()));
    let outcome = trace::execute(spec, vec![log], tracer, "core.campaign", 0)?;
    Ok(Reference {
        json: spec.to_json(),
        events: events.contents().into_bytes(),
        report: mabfuzz::report::campaign_json(spec, &outcome).into_bytes(),
        tests: outcome.stats.tests_executed(),
        coverage: outcome.stats.final_coverage() as u64,
        detections: outcome.stats.mismatching_tests(),
        resets: outcome.total_resets,
    })
}

/// Times the local reference runs with the core layer's observer (the
/// served campaigns run inside the daemon, out of the observer's reach).
pub fn trace_references(seed: u64, tracer: &Arc<Tracer>, checker: &mut Checker) {
    for spec in specs(seed, Size::Workload) {
        checker.attempted += 1;
        if let Err(error) = local_run(&spec, Some(tracer)) {
            checker.fail(&format!("reference campaign: {error}"));
        }
    }
}

impl Serve {
    /// Starts the daemon (one campaign worker, ephemeral port), computes the
    /// local references and serves one untimed warm-up campaign per core.
    /// `counting` routes the client through a fault-free `FaultyTransport`
    /// for its connection and request counters.
    pub fn setup(seed: u64, size: Size, counting: bool, checker: &mut Checker) -> Serve {
        let server = CampaignServer::bind("127.0.0.1:0", 1).expect("bind an ephemeral local port");
        let mut client = Client::new(server.local_addr());
        let handle = std::thread::spawn(move || server.serve());
        let transport =
            counting.then(|| Arc::new(FaultyTransport::new(Arc::new(TcpTransport::default()))));
        if let Some(transport) = &transport {
            client =
                client.with_transport(Arc::clone(transport) as Arc<dyn mabfuzz_service::Transport>);
        }
        let references = specs(seed, size)
            .iter()
            .map(|spec| local_run(spec, None).expect("benchmark specs are valid"))
            .collect();
        let serve = Serve {
            server: Some(handle),
            client,
            transport,
            references,
        };
        for index in (0..serve.references.len()).step_by(SEEDS_PER_CORE as usize) {
            serve.serve_one(index, None, checker);
        }
        serve
    }

    /// Serves reference `index` once: submit → stream to the end → report
    /// (timed as the turnaround) → delete, then checks the streamed events
    /// and the report against the local run. Returns the turnaround in ms
    /// and the bytes received.
    fn serve_one(
        &self,
        index: usize,
        tracer: Option<&Arc<Tracer>>,
        checker: &mut Checker,
    ) -> Option<(f64, u64)> {
        checker.attempted += 1;
        let reference = &self.references[index];
        let client = &self.client;
        let mut sink = TimingSink {
            bytes: Vec::with_capacity(reference.events.len()),
            first: None,
        };
        let mut marks = [Instant::now(); 5];
        let result = (|| -> Result<Vec<u8>, String> {
            let id = client
                .submit(&reference.json)
                .map_err(|e| format!("submit: {e}"))?;
            marks[1] = Instant::now();
            client
                .stream_events(id, &mut sink)
                .map_err(|e| format!("events: {e}"))?;
            marks[2] = Instant::now();
            let report = client.report(id).map_err(|e| format!("report: {e}"))?;
            marks[3] = Instant::now();
            client.delete(id).map_err(|e| format!("delete: {e}"))?;
            marks[4] = Instant::now();
            Ok(report.into_bytes())
        })();
        let report = match result {
            Ok(report) => report,
            Err(error) => {
                checker.fail(&format!("served campaign {index}: {error}"));
                return None;
            }
        };
        if let Some(tracer) = tracer {
            let parent = tracer.id();
            let span = |name, start, end| tracer.span(name, parent, parent, start, end);
            span("service.submit", marks[0], marks[1]);
            span(
                "service.first_event",
                marks[1],
                sink.first.unwrap_or(marks[2]),
            );
            span("service.stream", marks[1], marks[2]);
            span("service.report", marks[2], marks[3]);
            span("service.delete", marks[3], marks[4]);
            tracer.push(Span {
                id: parent,
                parent: 0,
                name: "service.campaign",
                campaign: parent,
                start: tracer.at(marks[0]),
                end: tracer.at(marks[3]),
            });
        }
        let events_ok = checker.same_bytes("served event stream", &sink.bytes, &reference.events);
        let report_ok = checker.same_bytes("served report", &report, &reference.report);
        let ms = (marks[3] - marks[0]).as_secs_f64() * 1e3;
        (events_ok && report_ok).then_some((ms, (sink.bytes.len() + report.len()) as u64))
    }
}

impl Workload for Serve {
    fn pass(&mut self, tracer: Option<&Arc<Tracer>>, checker: &mut Checker) -> Pass {
        let mut pass = Pass::default();
        let start = Instant::now();
        for index in 0..self.references.len() {
            let Some((ms, bytes)) = self.serve_one(index, tracer, checker) else {
                continue;
            };
            let reference = &self.references[index];
            pass.campaign_ms.push(ms);
            pass.wire_bytes += bytes;
            pass.tests += reference.tests;
            pass.coverage_points += reference.coverage;
            pass.detections += reference.detections;
            pass.arm_resets += reference.resets;
        }
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.digests = self.references.iter().map(|r| fnv64(&r.report)).collect();
        pass
    }

    fn transport_counts(&self) -> Option<(usize, usize)> {
        self.transport
            .as_ref()
            .map(|t| (t.connections_made(), t.requests_made()))
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Shutdown drains the daemon and joins its worker; errors here can
        // only mean the daemon is already gone.
        let _ = self.client.shutdown();
        if let Some(handle) = self.server.take() {
            let _ = handle.join();
        }
    }
}

/// Collects the streamed bytes and stamps the arrival of the first one.
struct TimingSink {
    bytes: Vec<u8>,
    first: Option<Instant>,
}

impl Write for TimingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.first.is_none() && !buf.is_empty() {
            self.first = Some(Instant::now());
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
