//! Chaos suite for the fault-tolerant dispatch coordinator.
//!
//! The contract under test: a grid dispatched across remote workers merges
//! into artefacts **byte-identical** to a local run of the same specs — no
//! matter which scheduled transport faults (refused connects, mid-stream
//! drops, stalls, short writes, garbage bytes) the fleet suffers — and every
//! campaign lost in flight is reassigned exactly once per loss, never folded
//! twice.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mabfuzz_service::{
    CampaignServer, Client, Coordinator, DispatchError, Fault, FaultyTransport, RetryPolicy,
    TcpTransport,
};
use mabfuzz_suite::mabfuzz::report::campaign_json;
use mabfuzz_suite::mabfuzz::{BugSpec, Campaign, CampaignSpec, CampaignSummary};
use mabfuzz_suite::proc_sim::ProcessorKind;

use proptest::prelude::*;

/// Spawns a daemon on an ephemeral port; returns its client and the join
/// handle of the serving thread.
fn start_server(workers: usize) -> (Client, thread::JoinHandle<std::io::Result<()>>) {
    // A short idle deadline: a chaos case that abandons a keep-alive
    // connection must not wait out the server's 30 s default before the
    // worker notices the socket is gone.
    let server = CampaignServer::bind("127.0.0.1:0", workers)
        .expect("bind an ephemeral port")
        .with_io_timeout(Some(Duration::from_millis(500)));
    let client = Client::new(server.local_addr());
    let handle = thread::spawn(move || server.serve());
    (client, handle)
}

/// A fast retry policy so chaos cases do not sleep through real backoff.
fn fast_retries() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(4),
        ..RetryPolicy::default()
    }
}

/// A small but non-trivial grid: three distinct campaigns (different
/// policies and seeds), each self-contained.
fn small_grid() -> Vec<CampaignSpec> {
    [("ucb", 31u64), ("exp3", 32), ("egreedy", 33)]
        .iter()
        .map(|(policy, seed)| {
            CampaignSpec::builder()
                .policy_named(policy)
                .arms(4)
                .max_tests(60)
                .max_steps_per_test(200)
                .mutations_per_interesting_test(2)
                .sample_interval(5)
                .rng_seed(*seed)
                .processor(ProcessorKind::Rocket, BugSpec::None)
                .build()
                .expect("valid spec")
        })
        .collect()
}

/// The serial reference: `(summary, report)` of running `spec` in-process.
fn reference(spec: &CampaignSpec) -> (CampaignSummary, String) {
    let outcome = Campaign::from_spec(spec).expect("self-contained spec").execute();
    (CampaignSummary::from_outcome(&outcome), campaign_json(spec, &outcome))
}

/// Asserts a dispatch's outcomes are byte-identical to the local references,
/// in input order, with each job contributing exactly once (no double-fold).
fn assert_matches_references(
    outcomes: &[mabfuzz_service::JobOutcome],
    specs: &[CampaignSpec],
    references: &[(CampaignSummary, String)],
) {
    assert_eq!(outcomes.len(), specs.len(), "one outcome per spec, none folded twice");
    for (index, outcome) in outcomes.iter().enumerate() {
        assert_eq!(outcome.job, index, "outcomes come back in input order");
        let (expected_summary, expected_report) = &references[index];
        assert_eq!(
            &outcome.report, expected_report,
            "job {index}: dispatched report diverged from the local run"
        );
        assert_eq!(
            &outcome.summary, expected_summary,
            "job {index}: dispatched summary diverged from the local run"
        );
    }
}

#[test]
fn fault_free_dispatch_is_byte_identical_to_local_execution() {
    let specs = small_grid();
    let references: Vec<_> = specs.iter().map(reference).collect();

    let (client_a, server_a) = start_server(2);
    let (client_b, server_b) = start_server(2);
    let coordinator = Coordinator::new(vec![client_a.clone(), client_b.clone()])
        .with_retry_policy(fast_retries());
    let outcomes = coordinator.run(&specs).expect("fault-free dispatch succeeds");

    assert_matches_references(&outcomes, &specs, &references);
    assert_eq!(coordinator.reassignments(), 0);
    assert_eq!(coordinator.local_runs(), 0);
    assert!(coordinator.log().is_empty(), "no faults, no coordination events");
    for outcome in &outcomes {
        assert!(!outcome.ran_locally);
        assert_eq!(outcome.attempts, 1, "healthy fleets finish first try");
    }
    // The coordinator deletes finished campaigns; the workers end up empty.
    assert!(client_a.list().expect("list").is_empty(), "worker A was tidied");
    assert!(client_b.list().expect("list").is_empty(), "worker B was tidied");

    client_a.shutdown().expect("shutdown");
    client_b.shutdown().expect("shutdown");
    server_a.join().expect("thread").expect("clean shutdown");
    server_b.join().expect("thread").expect("clean shutdown");
}

#[test]
fn a_campaign_lost_mid_stream_is_reassigned_exactly_once() {
    let specs = vec![small_grid().remove(0)];
    let references: Vec<_> = specs.iter().map(reference).collect();

    let (client, server) = start_server(1);
    // With keep-alive one connection carries the whole attempt, so the
    // chaos schedule targets the *request*: request 0 is the submit,
    // request 1 the event stream — drop the stream after 300 response
    // bytes, a worker dying mid-campaign.
    let faulty = Arc::new(
        FaultyTransport::new(Arc::new(TcpTransport::default()))
            .schedule_request(1, Fault::DropAfter(300)),
    );
    let transport: Arc<FaultyTransport> = Arc::clone(&faulty);
    let coordinator = Coordinator::new(vec![client.clone().with_transport(transport)])
        .with_retry_policy(fast_retries());
    let outcomes = coordinator.run(&specs).expect("the retry recovers the campaign");

    assert_matches_references(&outcomes, &specs, &references);
    assert_eq!(
        coordinator.reassignments(),
        1,
        "exactly one reassignment for exactly one lost in-flight campaign"
    );
    let log = coordinator.log();
    assert_eq!(log.len(), 1, "one log line per loss: {log:?}");
    assert!(log[0].contains("reassigning job 0"), "{}", log[0]);
    assert!(!outcomes[0].ran_locally);
    assert_eq!(outcomes[0].attempts, 2, "first attempt lost, second clean");
    assert_eq!(coordinator.local_runs(), 0);
    // Keep-alive held: both attempts together opened fewer connections
    // than they made requests.
    assert!(
        faulty.connections_made() < faulty.requests_made(),
        "{} connections for {} requests — connections were not reused",
        faulty.connections_made(),
        faulty.requests_made()
    );

    client.shutdown().expect("shutdown");
    server.join().expect("thread").expect("clean shutdown");
}

#[test]
fn a_fully_refused_fleet_degrades_to_local_runs() {
    let specs = vec![small_grid().remove(1)];
    let references: Vec<_> = specs.iter().map(reference).collect();

    let (client, server) = start_server(1);
    let mut faulty = FaultyTransport::new(Arc::new(TcpTransport::default()));
    for connection in 0..32 {
        faulty = faulty.schedule(connection, Fault::RefuseConnect);
    }
    let coordinator = Coordinator::new(vec![client.clone().with_transport(Arc::new(faulty))])
        .with_retry_policy(fast_retries());
    let outcomes = coordinator.run(&specs).expect("local fallback rescues the grid");

    assert_matches_references(&outcomes, &specs, &references);
    assert!(outcomes[0].ran_locally, "the job degraded to in-process execution");
    assert_eq!(coordinator.local_runs(), 1);
    assert_eq!(
        coordinator.reassignments(),
        0,
        "refused connects never put a campaign in flight, so nothing was reassigned"
    );

    client.shutdown().expect("shutdown");
    server.join().expect("thread").expect("clean shutdown");
}

#[test]
fn a_fully_refused_fleet_without_fallback_fails_loudly() {
    let (client, server) = start_server(1);
    let mut faulty = FaultyTransport::new(Arc::new(TcpTransport::default()));
    for connection in 0..32 {
        faulty = faulty.schedule(connection, Fault::RefuseConnect);
    }
    let coordinator = Coordinator::new(vec![client.clone().with_transport(Arc::new(faulty))])
        .with_retry_policy(fast_retries())
        .with_local_fallback(false);
    match coordinator.run(&[small_grid().remove(2)]) {
        Err(DispatchError::JobFailed { job: 0, attempts, .. }) => {
            assert!(attempts <= fast_retries().max_attempts);
        }
        other => panic!("expected JobFailed, got {other:?}"),
    }

    client.shutdown().expect("shutdown");
    server.join().expect("thread").expect("clean shutdown");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The chaos matrix: arbitrary schedules of every fault kind, injected
    /// into both workers' transports, must still merge into byte-identical
    /// artefacts — the retries, reassignments and (if the whole fleet is
    /// lost) local fallback absorb every scheduled failure.
    #[test]
    fn dispatch_under_arbitrary_fault_schedules_stays_byte_identical(
        faults_a in proptest::collection::vec((0usize..10, 0u8..5, 0usize..600), 0..4),
        faults_b in proptest::collection::vec((0usize..10, 0u8..5, 0usize..600), 0..4),
        request_faults_a in proptest::collection::vec((0usize..16, 0u8..5, 0usize..600), 0..3),
        request_faults_b in proptest::collection::vec((0usize..16, 0u8..5, 0usize..600), 0..3),
    ) {
        let specs = small_grid();
        let references: Vec<_> = specs.iter().map(reference).collect();

        let (client_a, server_a) = start_server(2);
        let (client_b, server_b) = start_server(2);
        let fault_of = |kind: u8, k: usize| match kind {
            0 => Fault::RefuseConnect,
            1 => Fault::DropAfter(k),
            2 => Fault::StallAfter(k),
            3 => Fault::GarbageAt(k),
            _ => Fault::ShortWriteAt(k),
        };
        // Chaos on both axes: connection-lifetime faults (a socket that was
        // bad from the start) and request-boundary faults (a keep-alive
        // connection that dies mid-request, arbitrarily deep into its life).
        let schedule = |faults: &[(usize, u8, usize)], request_faults: &[(usize, u8, usize)]| {
            let mut transport = FaultyTransport::new(Arc::new(TcpTransport::default()));
            for &(connection, kind, k) in faults {
                transport = transport.schedule(connection, fault_of(kind, k));
            }
            for &(request, kind, k) in request_faults {
                transport = transport.schedule_request(request, fault_of(kind, k));
            }
            Arc::new(transport)
        };
        let coordinator = Coordinator::new(vec![
            client_a.clone().with_transport(schedule(&faults_a, &request_faults_a)),
            client_b.clone().with_transport(schedule(&faults_b, &request_faults_b)),
        ])
        .with_retry_policy(fast_retries());

        let outcomes = coordinator
            .run(&specs)
            .expect("retries, reassignment and local fallback absorb every scheduled fault");
        assert_matches_references(&outcomes, &specs, &references);
        // Bookkeeping stays coherent: every logged event is a reassignment
        // or a fallback, and counters agree with the log.
        let log = coordinator.log();
        let logged_reassignments =
            log.iter().filter(|line| line.contains("reassigning job")).count() as u64;
        let logged_fallbacks =
            log.iter().filter(|line| line.contains("running locally")).count() as u64;
        assert_eq!(logged_reassignments, coordinator.reassignments());
        assert_eq!(logged_fallbacks, coordinator.local_runs());
        assert_eq!(log.len() as u64, logged_reassignments + logged_fallbacks);

        // Unfaulted clients still reach the workers: shut both down.
        client_a.shutdown().expect("shutdown");
        client_b.shutdown().expect("shutdown");
        server_a.join().expect("thread").expect("clean shutdown");
        server_b.join().expect("thread").expect("clean shutdown");
    }
}
