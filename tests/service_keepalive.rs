//! Keep-alive transport and backpressure end to end: sequential requests
//! reuse one connection and never stall on the wire, idle-timeout closes
//! are transparently survived by the client's reconnect-once, an
//! over-capacity fleet answers 429 and the coordinator backs off and
//! retries without consuming attempts, and the streaming merge's memory
//! caps turn hostile streams into loud errors.

use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use mabfuzz_service::{
    CampaignServer, Client, ClientError, Coordinator, DispatchError, Fault, FaultyTransport,
    RetryPolicy, TcpTransport, MAX_EVENT_LINE_BYTES,
};
use mabfuzz_suite::mabfuzz::report::campaign_json;
use mabfuzz_suite::mabfuzz::{BugSpec, Campaign, CampaignSpec, CampaignSummary};
use mabfuzz_suite::proc_sim::ProcessorKind;

fn tiny_spec(seed: u64) -> CampaignSpec {
    CampaignSpec::builder()
        .arms(4)
        .max_tests(40)
        .max_steps_per_test(200)
        .sample_interval(5)
        .rng_seed(seed)
        .processor(ProcessorKind::Rocket, BugSpec::None)
        .build()
        .expect("valid spec")
}

/// The serial reference: `(summary, report)` of running `spec` in-process.
fn reference(spec: &CampaignSpec) -> (CampaignSummary, String) {
    let outcome = Campaign::from_spec(spec).expect("self-contained spec").execute();
    (CampaignSummary::from_outcome(&outcome), campaign_json(spec, &outcome))
}

#[test]
fn sequential_requests_share_one_connection() {
    let server = CampaignServer::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.serve());

    let faulty = Arc::new(FaultyTransport::new(Arc::new(TcpTransport::default())));
    let transport: Arc<FaultyTransport> = Arc::clone(&faulty);
    let client = Client::new(addr).with_transport(transport);

    // Seven requests spanning every response shape the protocol has — a
    // fixed-length JSON body, a chunked NDJSON stream, and an error-free
    // delete — all over the same pooled connection.
    client.healthz().expect("healthz");
    let id = client.submit(&tiny_spec(11).to_json()).expect("submit");
    let events = client.events(id).expect("the stream drains to terminal");
    assert!(events.ends_with('\n'), "complete NDJSON history");
    let status = client.status(id).expect("status");
    assert!(status.is_terminal(), "the drained stream implies a terminal campaign");
    client.report(id).expect("report");
    client.delete(id).expect("delete");
    assert!(client.list().expect("list").is_empty());

    assert_eq!(
        (faulty.connections_made(), faulty.requests_made()),
        (1, 7),
        "seven sequential requests must share one keep-alive connection"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("thread").expect("clean shutdown");
}

#[test]
fn served_campaign_cycles_run_at_local_speed() {
    // Every message leaves in one write and both ends set TCP_NODELAY, so no
    // request or chunk frame waits for Nagle's algorithm to see the peer's
    // delayed ACK (~44 ms a stall). With those stalls each cycle below costs
    // at least 4 x 44 ms, over 3.5 s for all 20; without them the loop takes
    // well under 100 ms. The bound leaves margin on both sides.
    let server = CampaignServer::bind("127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.serve());

    let faulty = Arc::new(FaultyTransport::new(Arc::new(TcpTransport::default())));
    let transport: Arc<FaultyTransport> = Arc::clone(&faulty);
    let client = Client::new(addr).with_transport(transport);
    let spec = CampaignSpec::builder()
        .max_tests(10)
        .rng_seed(5)
        .processor(ProcessorKind::Rocket, BugSpec::None)
        .build()
        .expect("valid spec")
        .to_json();

    let started = Instant::now();
    for _ in 0..20 {
        let id = client.submit(&spec).expect("submit");
        let streamed = client.stream_events(id, &mut Vec::new()).expect("stream");
        assert!(streamed > 0, "the campaign streamed its events");
        client.report(id).expect("report");
        client.delete(id).expect("delete");
    }
    let elapsed = started.elapsed();

    assert!(
        elapsed < Duration::from_millis(1500),
        "20 submit/stream/report/delete cycles took {elapsed:?}: a wire-level stall is back"
    );
    assert_eq!(
        (faulty.connections_made(), faulty.requests_made()),
        (1, 80),
        "every cycle rides the one keep-alive connection"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("thread").expect("clean shutdown");
}

#[test]
fn an_idle_timeout_close_is_survived_by_reconnecting_once() {
    // The daemon cuts idle sockets at 150 ms; a client that pauses longer
    // holds a stale pooled connection and must reconnect transparently.
    let server = CampaignServer::bind("127.0.0.1:0", 1)
        .expect("bind")
        .with_io_timeout(Some(Duration::from_millis(150)));
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.serve());

    let faulty = Arc::new(FaultyTransport::new(Arc::new(TcpTransport::default())));
    let transport: Arc<FaultyTransport> = Arc::clone(&faulty);
    let client = Client::new(addr).with_transport(transport);

    client.healthz().expect("first request opens the connection");
    assert_eq!(faulty.connections_made(), 1);

    thread::sleep(Duration::from_millis(600));
    client.healthz().expect("a stale pooled connection is replaced, not surfaced");
    assert_eq!(
        faulty.connections_made(),
        2,
        "exactly one reconnect after the server closed the idle socket"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("thread").expect("clean shutdown");
}

#[test]
fn a_mid_request_disconnect_at_every_boundary_is_recovered() {
    // Request 0 is the submit, request 1 the event stream. Schedule each
    // fault kind at each of those boundaries; every one must be absorbed by
    // a retry or reassignment with byte-identical artefacts.
    let spec = tiny_spec(12);
    let expected = reference(&spec);
    let cases: Vec<(usize, Fault)> = [
        Fault::RefuseConnect,
        Fault::DropAfter(0),
        Fault::DropAfter(300),
        Fault::StallAfter(120),
        Fault::GarbageAt(40),
        Fault::ShortWriteAt(10),
    ]
    .into_iter()
    .flat_map(|fault| [(0usize, fault), (1usize, fault)])
    .collect();

    for (request, fault) in cases {
        // A short idle deadline: `GarbageAt(40)` on the submit response
        // corrupts the header block's line ends, so the client reads until
        // the server closes the socket. The default 30 s would be waited out.
        let server = CampaignServer::bind("127.0.0.1:0", 1)
            .expect("bind")
            .with_io_timeout(Some(Duration::from_millis(500)));
        let client = Client::new(server.local_addr());
        let handle = thread::spawn(move || server.serve());

        let faulty = Arc::new(
            FaultyTransport::new(Arc::new(TcpTransport::default()))
                .schedule_request(request, fault),
        );
        let transport: Arc<FaultyTransport> = Arc::clone(&faulty);
        let coordinator =
            Coordinator::new(vec![client.clone().with_transport(transport)]).with_retry_policy(
                RetryPolicy {
                    max_attempts: 4,
                    base_delay: Duration::from_millis(1),
                    max_delay: Duration::from_millis(4),
                    ..RetryPolicy::default()
                },
            );
        let outcomes = coordinator
            .run(std::slice::from_ref(&spec))
            .unwrap_or_else(|error| panic!("{fault:?} at request {request}: {error}"));
        assert_eq!(outcomes.len(), 1);
        assert!(!outcomes[0].ran_locally, "{fault:?} at request {request} forced local fallback");
        assert_eq!(
            outcomes[0].report, expected.1,
            "{fault:?} at request {request}: report diverged from the local run"
        );
        assert_eq!(outcomes[0].summary, expected.0, "{fault:?} at request {request}");

        client.shutdown().expect("shutdown");
        handle.join().expect("thread").expect("clean shutdown");
    }
}

#[test]
fn an_over_capacity_worker_answers_429_and_the_coordinator_backs_off() {
    // One worker slot, one queue slot: a long-running blocker occupies the
    // worker and a tiny filler occupies the queue, so the next submission
    // must be refused with 429 until the blocker is cancelled.
    let server = CampaignServer::bind("127.0.0.1:0", 1)
        .expect("bind")
        .with_max_queue(Some(1));
    let client = Client::new(server.local_addr());
    let handle = thread::spawn(move || server.serve());

    let blocker_spec = CampaignSpec::builder()
        .arms(4)
        .max_tests(2_000_000)
        .max_steps_per_test(200)
        .sample_interval(5)
        .rng_seed(13)
        .processor(ProcessorKind::Rocket, BugSpec::None)
        .build()
        .expect("valid spec");
    let blocker = client.submit(&blocker_spec.to_json()).expect("submit the blocker");
    let started = Instant::now();
    while client.status(blocker).expect("status").status != "running" {
        assert!(started.elapsed() < Duration::from_secs(10), "blocker never started");
        thread::sleep(Duration::from_millis(2));
    }
    let filler = client.submit(&tiny_spec(14).to_json()).expect("the queue takes one");

    // The hub census reflects the saturation, and a raw submit sees the 429
    // with its retryable error text.
    let health = client.health_snapshot().expect("healthz");
    assert_eq!((health.queued, health.running, health.capacity), (1, 1, Some(1)));
    match client.submit(&tiny_spec(15).to_json()) {
        Err(ClientError::Http { status: 429, message }) => {
            assert!(message.contains("capacity of 1"), "{message}");
            assert!(message.contains("retry"), "{message}");
        }
        other => panic!("expected 429, got {other:?}"),
    }

    // Free the fleet shortly after the coordinator starts backing off.
    let unblock = {
        let client = client.clone();
        thread::spawn(move || {
            thread::sleep(Duration::from_millis(150));
            client.cancel(blocker).expect("cancel the blocker");
        })
    };

    let spec = tiny_spec(16);
    let expected = reference(&spec);
    let coordinator = Coordinator::new(vec![client.clone()]).with_retry_policy(RetryPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(40),
        ..RetryPolicy::default()
    });
    let outcomes = coordinator
        .run(std::slice::from_ref(&spec))
        .expect("backpressure resolves once the blocker is cancelled");
    unblock.join().expect("unblock thread");

    assert!(coordinator.busy_backoffs() >= 1, "the 429 was absorbed as a backoff");
    assert_eq!(outcomes[0].attempts, 1, "backpressure retries never consume attempts");
    assert!(!outcomes[0].ran_locally, "429 is not a worker failure, so no local fallback");
    assert_eq!(outcomes[0].report, expected.1, "artefacts stay byte-identical through 429s");
    assert_eq!(outcomes[0].summary, expected.0);
    let log = coordinator.log();
    assert!(
        log.iter().any(|line| line.contains("queue capacity")),
        "the first backoff is logged once: {log:?}"
    );

    // Tidy up the blocker and filler so shutdown drains promptly.
    client.wait_terminal(filler, Duration::from_millis(5)).expect("filler finishes");
    client.shutdown().expect("shutdown");
    handle.join().expect("thread").expect("clean shutdown");
}

#[test]
fn the_event_stream_cap_fails_loudly_instead_of_buffering_without_bound() {
    let server = CampaignServer::bind("127.0.0.1:0", 1).expect("bind");
    let client = Client::new(server.local_addr());
    let handle = thread::spawn(move || server.serve());

    let spec = tiny_spec(17);
    // A 64-byte cap: even a perfectly well-formed stream overruns it, which
    // is exactly how a hostile endless-valid-JSON stream must surface — a
    // loud dispatch error, not unbounded memory.
    let capped = Coordinator::new(vec![client.clone()]).with_event_stream_cap(64);
    match capped.run(std::slice::from_ref(&spec)) {
        Err(DispatchError::EventOverflow { job: 0, detail, .. }) => {
            assert!(detail.contains("64 byte cap"), "{detail}");
        }
        other => panic!("expected EventOverflow, got {other:?}"),
    }

    // Under the default cap the same spec streams fine, and the fold's
    // high-water mark shows per-lane memory stayed line-sized, far under
    // the defensive ceiling.
    let coordinator = Coordinator::new(vec![client.clone()]);
    let outcomes = coordinator.run(std::slice::from_ref(&spec)).expect("dispatch");
    assert_eq!(outcomes.len(), 1);
    let peak = coordinator.peak_event_line_bytes();
    assert!(peak > 0, "the fold saw at least one buffered line");
    assert!(
        peak < MAX_EVENT_LINE_BYTES / 16,
        "event lines are small; the fold buffered {peak} bytes"
    );

    client.shutdown().expect("shutdown");
    handle.join().expect("thread").expect("clean shutdown");
}
