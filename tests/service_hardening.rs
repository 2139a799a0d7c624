//! Daemon hardening end to end: terminal-campaign TTL eviction, shared-secret
//! bearer auth (with an exempt health endpoint) and socket deadlines against
//! slowloris peers.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use mabfuzz_service::{CampaignServer, Client, ClientError};
use mabfuzz_suite::mabfuzz::{BugSpec, CampaignSpec};
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

#[test]
fn terminal_campaigns_are_evicted_after_their_ttl() {
    let server = CampaignServer::bind("127.0.0.1:0", 1)
        .expect("bind")
        .with_ttl(Some(Duration::from_millis(400)));
    let client = Client::new(server.local_addr());
    let handle = thread::spawn(move || server.serve());

    let id = client.submit(&tiny_spec(3).to_json()).expect("submit");
    let status = client.wait_terminal(id, Duration::from_millis(5)).expect("status");
    assert_eq!(status.status, "finished");
    // Freshly terminal: still listed, still serving its report.
    assert_eq!(client.list().expect("list").len(), 1);
    client.report(id).expect("reports serve within the TTL");

    // Past the TTL the next request sweeps it out.
    thread::sleep(Duration::from_millis(600));
    assert!(client.list().expect("list").is_empty(), "the expired campaign was evicted");
    let error = client.status(id).expect_err("evicted id is unknown");
    assert!(matches!(error, ClientError::Http { status: 404, .. }), "{error}");

    // Manual DELETE keeps working alongside the TTL: evict a fresh terminal
    // campaign explicitly, well before its TTL lapses.
    let id = client.submit(&tiny_spec(4).to_json()).expect("submit");
    client.wait_terminal(id, Duration::from_millis(5)).expect("status");
    client.delete(id).expect("explicit DELETE still works");
    assert!(client.list().expect("list").is_empty());

    client.shutdown().expect("shutdown");
    handle.join().expect("thread").expect("clean shutdown");
}

#[test]
fn bearer_auth_rejects_missing_and_wrong_tokens_but_exempts_healthz() {
    let server = CampaignServer::bind("127.0.0.1:0", 1)
        .expect("bind")
        .with_auth_token(Some("s3kr1t".to_owned()));
    let anonymous = Client::new(server.local_addr());
    let wrong = anonymous.clone().with_auth_token("not-the-token");
    let authed = anonymous.clone().with_auth_token("s3kr1t");
    let handle = thread::spawn(move || server.serve());

    // No token and a wrong token are both 401s, on submission and queries.
    for client in [&anonymous, &wrong] {
        let error = client.submit(&tiny_spec(5).to_json()).expect_err("401");
        assert!(matches!(error, ClientError::Http { status: 401, .. }), "{error}");
        let error = client.list().expect_err("401");
        assert!(matches!(error, ClientError::Http { status: 401, .. }), "{error}");
    }

    // The health probe is exempt: liveness must be checkable by a
    // coordinator that does not hold the secret.
    assert_eq!(anonymous.healthz().expect("healthz is auth-exempt"), 0);

    // The right token gets full service.
    let id = authed.submit(&tiny_spec(5).to_json()).expect("authorized submit");
    let status = authed.wait_terminal(id, Duration::from_millis(5)).expect("status");
    assert_eq!(status.status, "finished");
    authed.report(id).expect("authorized report");

    authed.shutdown().expect("authorized shutdown");
    handle.join().expect("thread").expect("clean shutdown");
}

#[test]
fn slowloris_connections_are_cut_by_the_io_deadline() {
    let server = CampaignServer::bind("127.0.0.1:0", 1)
        .expect("bind")
        .with_io_timeout(Some(Duration::from_millis(100)));
    let addr = server.local_addr();
    let client = Client::new(addr);
    let handle = thread::spawn(move || server.serve());

    // A slowloris peer: opens a connection, dribbles half a request line,
    // then stalls. The daemon must cut it off instead of pinning the
    // connection thread forever.
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /stat").expect("partial request accepted");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client-side guard deadline");
    let mut response = Vec::new();
    // The server times the read out and closes the connection — either
    // silently or with an error response — bounded by the deadline, not by
    // our 10 s guard. What it must never do is wait for the rest of the
    // request or answer as if the fragment were a complete one.
    match stream.read_to_end(&mut response) {
        Ok(_) | Err(_) => {}
    }
    if !response.is_empty() {
        let text = String::from_utf8_lossy(&response);
        assert!(
            text.starts_with("HTTP/1.1 4"),
            "a stalled fragment can only earn a client error, got: {text}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "the daemon held a slowloris connection for {:?}",
        started.elapsed()
    );

    // The daemon is still serving normal traffic afterwards.
    let id = client.submit(&tiny_spec(6).to_json()).expect("submit after slowloris");
    let status = client.wait_terminal(id, Duration::from_millis(5)).expect("status");
    assert_eq!(status.status, "finished");

    client.shutdown().expect("shutdown");
    handle.join().expect("thread").expect("clean shutdown");
}

#[test]
fn shard_counts_on_the_wire_run_the_same_single_threaded_campaign() {
    let server = CampaignServer::bind("127.0.0.1:0", 1).expect("bind");
    let client = Client::new(server.local_addr());
    let handle = thread::spawn(move || server.serve());

    // The `shards` key is accepted for old clients and spec files, but the
    // count is never acted on: a huge one must cost nothing, run the
    // 10-test campaign on its worker thread and report `"shards":1`.
    let spec = CampaignSpec::builder()
        .arms(4)
        .max_tests(10)
        .max_steps_per_test(200)
        .rng_seed(6)
        .processor(ProcessorKind::Rocket, BugSpec::None)
        .build()
        .expect("valid spec");
    let canonical = spec.to_json();
    assert!(canonical.contains("\"shards\":1,"), "{canonical}");
    let huge = canonical.replace("\"shards\":1,", "\"shards\":8000,");
    let id = client.submit(&huge).expect("a positive shard count is accepted");
    let status = client.wait_terminal(id, Duration::from_millis(5)).expect("status");
    assert_eq!(status.status, "finished");
    let report = client.report(id).expect("report");
    assert!(report.contains("\"shards\":1,"), "the report echoes one shard: {report}");

    let id = client.submit(&canonical).expect("submit");
    client.wait_terminal(id, Duration::from_millis(5)).expect("status");
    assert_eq!(client.report(id).expect("report"), report, "the count never changes the campaign");

    // Zero stays a named 400.
    let zero = canonical.replace("\"shards\":1,", "\"shards\":0,");
    let error = client.submit(&zero).expect_err("zero shards are rejected");
    match error {
        ClientError::Http { status: 400, message } => {
            assert!(message.contains("at least one shard"), "{message}")
        }
        other => panic!("expected a 400, got {other}"),
    }

    client.shutdown().expect("shutdown");
    handle.join().expect("thread").expect("clean shutdown");
}
