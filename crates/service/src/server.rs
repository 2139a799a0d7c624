//! The campaign daemon: TCP accept loop, request routing, worker pool.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use mabfuzz::report::campaign_json;
use mabfuzz::{Campaign, CampaignSpec, EventLog, SpecError};

use crate::http::{
    configure_socket, finish_chunked, json_string, read_request, respond_error, respond_json,
    start_chunked, write_chunk, MessageWriter, Request,
};
use crate::hub::{Hub, SubmitOutcome};

/// The campaign service daemon (what `experiments serve` runs).
///
/// Bind with [`bind`](CampaignServer::bind), read the ephemeral port back
/// with [`local_addr`](CampaignServer::local_addr), then hand the thread to
/// [`serve`](CampaignServer::serve), which blocks until a client posts
/// `/shutdown`. See the crate docs for the wire protocol.
///
/// # Example
///
/// ```
/// use mabfuzz_service::{CampaignServer, Client};
///
/// let server = CampaignServer::bind("127.0.0.1:0", 1).unwrap();
/// let addr = server.local_addr();
/// let handle = std::thread::spawn(move || server.serve());
///
/// let client = Client::new(addr);
/// let spec = "{\"policy\":\"ucb\",\"rng_seed\":1,\
///             \"processor\":{\"core\":\"rocket\",\"bugs\":\"none\"},\
///             \"campaign\":{\"max_tests\":10}}";
/// let id = client.submit(spec).unwrap();
/// let events = client.events(id).unwrap();
/// assert_eq!(events.lines().filter(|l| l.contains("\"test_folded\"")).count(), 10);
/// assert!(events.lines().last().unwrap().starts_with("{\"event\":\"campaign_finished\""));
/// client.shutdown().unwrap();
/// handle.join().unwrap().unwrap();
/// ```
pub struct CampaignServer {
    listener: TcpListener,
    hub: Arc<Hub>,
    workers: usize,
    config: Arc<ServerConfig>,
}

/// Hardening knobs shared by every connection thread.
struct ServerConfig {
    /// Per-connection socket read/write deadline. A peer that connects and
    /// then sends bytes slower than this (a "slowloris") gets its socket
    /// reads timed out instead of pinning a connection thread forever.
    io_timeout: Option<Duration>,
    /// Shared-secret bearer token; when set, every route except
    /// `GET /healthz` requires `Authorization: Bearer <token>`.
    auth_token: Option<String>,
}

/// Read-error kinds that mean "the peer went away or went quiet" rather
/// than "the peer sent garbage": a keep-alive connection ending this way is
/// closed silently (there may be nobody left to answer, and an idle timeout
/// between requests is the *expected* end of a pooled connection's life).
fn is_disconnect(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::WouldBlock
            | io::ErrorKind::TimedOut
            | io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::BrokenPipe
    )
}

/// Default per-connection socket deadline (see
/// [`with_io_timeout`](CampaignServer::with_io_timeout)).
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

impl CampaignServer {
    /// Binds the listener (use port 0 for an ephemeral port) and sizes the
    /// worker pool to `workers` campaign-executing threads (clamped to at
    /// least 1).
    ///
    /// # Errors
    ///
    /// Any error of [`TcpListener::bind`].
    pub fn bind(addr: &str, workers: usize) -> io::Result<CampaignServer> {
        Ok(CampaignServer {
            listener: TcpListener::bind(addr)?,
            hub: Arc::new(Hub::new()),
            workers: workers.max(1),
            config: Arc::new(ServerConfig {
                io_timeout: Some(DEFAULT_IO_TIMEOUT),
                auth_token: None,
            }),
        })
    }

    /// Sets the per-connection socket read/write deadline (default
    /// [`DEFAULT_IO_TIMEOUT`]). `None` disables the deadline entirely —
    /// only do that in trusted single-machine setups, since it re-opens
    /// the slowloris window.
    #[must_use]
    pub fn with_io_timeout(mut self, timeout: Option<Duration>) -> CampaignServer {
        self.config_mut().io_timeout = timeout;
        self
    }

    /// Requires `Authorization: Bearer <token>` on every route except
    /// `GET /healthz` (kept open for load-balancer probes). Tokens are
    /// compared in constant time; mismatches get `401 Unauthorized`.
    #[must_use]
    pub fn with_auth_token(mut self, token: Option<String>) -> CampaignServer {
        self.config_mut().auth_token = token;
        self
    }

    /// Auto-evicts terminal (completed / failed / cancelled) campaigns
    /// `ttl` after they reach their terminal state, reclaiming hub memory
    /// in long-lived daemons. Explicit `DELETE` keeps working either way;
    /// `None` (the default) retains terminal campaigns until deleted.
    #[must_use]
    pub fn with_ttl(self, ttl: Option<Duration>) -> CampaignServer {
        self.hub.set_ttl(ttl);
        self
    }

    /// Bounds the job queue to `capacity` *waiting* jobs (`serve
    /// --max-queue N`). Submissions past the bound are refused with `429
    /// Too Many Requests` and a retryable error body; clients back off and
    /// retry. `None` (the default) keeps the queue unbounded.
    #[must_use]
    pub fn with_max_queue(self, capacity: Option<usize>) -> CampaignServer {
        self.hub.set_max_queue(capacity);
        self
    }

    fn config_mut(&mut self) -> &mut ServerConfig {
        Arc::get_mut(&mut self.config)
            .expect("builder methods run before serve() shares the config")
    }

    /// The address the listener actually bound (the source of truth when
    /// binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("a bound listener has an address")
    }

    /// Runs the daemon: spawns the worker pool, accepts connections (each
    /// carrying any number of sequential keep-alive requests) until a
    /// client posts `/shutdown`, then drains the already-queued campaigns
    /// and joins every worker before returning — a clean shutdown leaves no
    /// detached campaign running.
    ///
    /// # Errors
    ///
    /// A fatal accept-loop error. Per-connection I/O errors are contained
    /// to their connection thread.
    pub fn serve(self) -> io::Result<()> {
        let workers: Vec<_> = (0..self.workers)
            .map(|index| {
                let hub = Arc::clone(&self.hub);
                thread::Builder::new()
                    .name(format!("campaign-worker-{index}"))
                    .spawn(move || worker_loop(&hub))
                    .expect("spawn campaign worker")
            })
            .collect();

        let local_addr = self.local_addr();
        for stream in self.listener.incoming() {
            if self.hub.is_shutting_down() {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                // A failed accept of one connection is not fatal to the
                // daemon.
                Err(_) => continue,
            };
            let hub = Arc::clone(&self.hub);
            let config = Arc::clone(&self.config);
            let _ = thread::Builder::new().name("campaign-conn".to_owned()).spawn(move || {
                let shutdown = handle_connection(&hub, &config, stream);
                if shutdown {
                    hub.begin_shutdown();
                    // The accept loop is blocked in `accept`; a throwaway
                    // connection wakes it so it can observe the flag.
                    let _ = TcpStream::connect(local_addr);
                }
            });
        }

        for worker in workers {
            let _ = worker.join();
        }
        Ok(())
    }
}

impl std::fmt::Debug for CampaignServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignServer")
            .field("addr", &self.local_addr())
            .field("workers", &self.workers)
            .field("campaigns", &self.hub.campaign_count())
            .finish()
    }
}

/// One worker: pop queued campaigns and execute them until shutdown drains
/// the queue.
fn worker_loop(hub: &Hub) {
    while let Some((id, spec, events, cancel)) = hub.next_job() {
        let log = EventLog::new(events.clone());
        match Campaign::from_spec(&spec) {
            Ok(campaign) => {
                let outcome = campaign
                    .with_observer(Box::new(log))
                    .with_cancellation(cancel.clone())
                    .execute();
                hub.complete(id, campaign_json(&spec, &outcome), cancel.was_interrupted());
            }
            // Submission validates specs, so this arm is a backstop (e.g. a
            // custom policy unregistered between submit and execution).
            Err(error) => hub.fail(id, error.to_string()),
        }
    }
}

/// Handles one keep-alive connection: loops reading requests until the peer
/// closes, asks for `Connection: close`, breaks the protocol, or goes idle
/// past the I/O deadline. Returns whether any request asked the daemon to
/// shut down.
fn handle_connection(hub: &Hub, config: &ServerConfig, stream: TcpStream) -> bool {
    // Socket deadlines bound both halves of every exchange: a slowloris
    // peer times out reading the request, a stalled consumer times out on
    // the event-stream writes, and the same read deadline doubles as the
    // keep-alive idle timeout between requests. TCP_NODELAY stops the
    // kernel from holding back the small segments of back-to-back chunk
    // frames until the client's delayed ACK.
    let _ = configure_socket(&stream, config.io_timeout, config.io_timeout);
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => return false,
    });
    let mut writer = MessageWriter::new(stream);
    loop {
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            // Clean close between requests (a pooled client moving on, or
            // the shutdown self-wake): nothing to answer.
            Ok(None) => return false,
            Err(error) => {
                // Idle timeout / peer disappearance: close silently. Actual
                // protocol violations get a loud 400, then the connection
                // closes — resynchronising a stream after a framing error
                // is exactly the request-smuggling trap.
                if !is_disconnect(error.kind()) {
                    let _ = respond_error(&mut writer, 400, &error.to_string(), true);
                }
                return false;
            }
        };
        // Opportunistic TTL sweep per *request*, not per connection — a
        // keep-alive fleet can hold its sockets open for hours, so eviction
        // must ride the traffic itself. The hub also sweeps on every queue
        // operation and status transition.
        hub.sweep();
        let close = request.close;
        if !authorized(config, &request) {
            if respond_error(&mut writer, 401, "missing or invalid bearer token", close).is_err()
                || close
            {
                return false;
            }
            continue;
        }
        let shutdown = request.method == "POST" && request.path == "/shutdown";
        // A shutdown response is the last thing this daemon says on the
        // connection, so it announces the close.
        if route(hub, &request, &mut writer, close || shutdown).is_err() {
            // The peer vanished mid-response; nothing useful left to do.
            return shutdown;
        }
        if shutdown || close {
            return shutdown;
        }
    }
}

/// Whether `request` may proceed under the server's auth policy.
/// `GET /healthz` stays open so fleet probes work without credentials.
fn authorized(config: &ServerConfig, request: &Request) -> bool {
    let Some(token) = config.auth_token.as_deref() else {
        return true;
    };
    if request.method == "GET" && request.path == "/healthz" {
        return true;
    }
    let expected = format!("Bearer {token}");
    request
        .authorization
        .as_deref()
        .is_some_and(|presented| constant_time_eq(presented.as_bytes(), expected.as_bytes()))
}

/// Byte-for-byte comparison whose running time depends only on the inputs'
/// lengths, not on where they first differ — a timing probe cannot recover
/// the token one byte at a time.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (&x, &y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Routes one parsed request to its handler. `close` is announced in the
/// response's `Connection` header (the connection closes after this
/// exchange); otherwise the connection stays open for the next request.
fn route(
    hub: &Hub,
    request: &Request,
    writer: &mut MessageWriter<TcpStream>,
    close: bool,
) -> io::Result<()> {
    let path = request.path.as_str();
    let segments: Vec<&str> = path.trim_matches('/').split('/').collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("POST", ["campaigns"]) => submit(hub, &request.body, writer, close),
        ("GET", ["campaigns"]) => {
            let entries: Vec<String> =
                hub.list().iter().map(|view| view.to_json()).collect();
            respond_json(
                writer,
                200,
                &format!("{{\"campaigns\":[{}]}}", entries.join(",")),
                close,
            )
        }
        ("GET", ["campaigns", id]) => match parse_id(id) {
            Some(id) => match hub.view(id) {
                Some(view) => respond_json(writer, 200, &view.to_json(), close),
                None => unknown_campaign(writer, id, close),
            },
            None => bad_id(writer, id, close),
        },
        ("GET", ["campaigns", id, "events"]) => match parse_id(id) {
            Some(id) => stream_events(hub, id, writer, close),
            None => bad_id(writer, id, close),
        },
        ("GET", ["campaigns", id, "report"]) => match parse_id(id) {
            Some(id) => match (hub.report(id), hub.view(id)) {
                (Some(report), _) => respond_json(writer, 200, &report, close),
                (None, Some(view)) => respond_error(
                    writer,
                    409,
                    &format!("campaign {id} is {}; no report yet", view.status.name()),
                    close,
                ),
                (None, None) => unknown_campaign(writer, id, close),
            },
            None => bad_id(writer, id, close),
        },
        ("POST", ["campaigns", id, "cancel"]) => match parse_id(id) {
            Some(id) => match hub.cancel(id) {
                Some(status) => respond_json(
                    writer,
                    200,
                    &format!(
                        "{{\"id\":{id},\"status\":{}}}",
                        json_string(status.name())
                    ),
                    close,
                ),
                None => unknown_campaign(writer, id, close),
            },
            None => bad_id(writer, id, close),
        },
        ("DELETE", ["campaigns", id]) => match parse_id(id) {
            Some(id) => match hub.remove(id) {
                Some(Ok(())) => respond_json(
                    writer,
                    200,
                    &format!("{{\"id\":{id},\"status\":\"deleted\"}}"),
                    close,
                ),
                Some(Err(status)) => respond_error(
                    writer,
                    409,
                    &format!(
                        "campaign {id} is {}; cancel it or wait before deleting",
                        status.name()
                    ),
                    close,
                ),
                None => unknown_campaign(writer, id, close),
            },
            None => bad_id(writer, id, close),
        },
        ("POST", ["shutdown"]) => {
            respond_json(writer, 200, "{\"status\":\"shutting down\"}", close)
        }
        ("GET", ["healthz"]) => {
            let stats = hub.queue_stats();
            let capacity = match stats.capacity {
                Some(capacity) => capacity.to_string(),
                None => "null".to_owned(),
            };
            respond_json(
                writer,
                200,
                &format!(
                    "{{\"status\":\"ok\",\"campaigns\":{},\"queued\":{},\"running\":{},\
                     \"capacity\":{capacity}}}",
                    stats.campaigns, stats.queued, stats.running
                ),
                close,
            )
        }
        ("GET" | "POST" | "DELETE", _) => {
            respond_error(writer, 404, &format!("no route for `{path}`"), close)
        }
        (method, _) => {
            respond_error(writer, 405, &format!("method `{method}` not supported"), close)
        }
    }
}

/// `POST /campaigns`: parse + validate the spec body strictly, queue it.
fn submit(
    hub: &Hub,
    body: &[u8],
    writer: &mut MessageWriter<TcpStream>,
    close: bool,
) -> io::Result<()> {
    let text = match std::str::from_utf8(body) {
        Ok(text) => text,
        Err(_) => return respond_error(writer, 400, "request body is not UTF-8", close),
    };
    // The strict spec codec is the single gatekeeper: unknown fields,
    // unknown policies and invalid parameters all fail here with the same
    // `SpecError` text the CLI prints.
    let spec = match CampaignSpec::from_json(text) {
        Ok(spec) => spec,
        Err(error) => return respond_error(writer, 400, &error.to_string(), close),
    };
    if spec.processor.is_none() {
        return respond_error(writer, 400, &SpecError::MissingProcessor.to_string(), close);
    }
    match hub.submit(spec) {
        SubmitOutcome::Queued(id) => respond_json(
            writer,
            201,
            &format!("{{\"id\":{id},\"status\":\"queued\"}}"),
            close,
        ),
        SubmitOutcome::ShuttingDown => {
            respond_error(writer, 409, "the server is shutting down", close)
        }
        // 429 is the transient refusal: the queue is at its configured
        // bound. Clients back off and retry the identical submission.
        SubmitOutcome::QueueFull { capacity } => respond_error(
            writer,
            429,
            &format!("job queue is at its capacity of {capacity}; retry after backoff"),
            close,
        ),
    }
}

/// `GET /campaigns/{id}/events`: chunked NDJSON, replayed from the start of
/// the stream and followed live until the campaign's broadcast closes. The
/// payload bytes are exactly the campaign's `EventLog` stream; chunked
/// framing is self-terminating, so the connection survives the stream.
fn stream_events(
    hub: &Hub,
    id: u64,
    writer: &mut MessageWriter<TcpStream>,
    close: bool,
) -> io::Result<()> {
    let Some(events) = hub.events(id) else {
        return unknown_campaign(writer, id, close);
    };
    start_chunked(writer, close)?;
    let mut offset = 0usize;
    while let Some(bytes) = events.wait_from(offset) {
        offset += bytes.len();
        // A late subscriber's first batch can be the whole stream so far;
        // split it so no single chunk exceeds what clients are willing to
        // buffer (see `MAX_CHUNK_BYTES` in the wire layer).
        for piece in bytes.chunks(64 * 1024) {
            write_chunk(writer, piece)?;
        }
    }
    finish_chunked(writer)
}

fn parse_id(text: &str) -> Option<u64> {
    text.parse().ok()
}

fn unknown_campaign(
    writer: &mut MessageWriter<TcpStream>,
    id: u64,
    close: bool,
) -> io::Result<()> {
    respond_error(writer, 404, &format!("unknown campaign id {id}"), close)
}

fn bad_id(writer: &mut MessageWriter<TcpStream>, id: &str, close: bool) -> io::Result<()> {
    respond_error(writer, 400, &format!("malformed campaign id `{id}`"), close)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str, authorization: Option<&str>) -> Request {
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            body: Vec::new(),
            authorization: authorization.map(str::to_owned),
            close: false,
        }
    }

    #[test]
    fn constant_time_eq_matches_slice_equality() {
        assert!(constant_time_eq(b"Bearer s3cret", b"Bearer s3cret"));
        assert!(!constant_time_eq(b"Bearer s3cret", b"Bearer s3creT"));
        assert!(!constant_time_eq(b"Bearer s3cret", b"Bearer s3cre"));
        assert!(constant_time_eq(b"", b""));
    }

    #[test]
    fn auth_policy_gates_everything_except_healthz() {
        let open = ServerConfig { io_timeout: None, auth_token: None };
        assert!(authorized(&open, &request("POST", "/campaigns", None)));

        let locked =
            ServerConfig { io_timeout: None, auth_token: Some("s3cret".to_owned()) };
        assert!(!authorized(&locked, &request("POST", "/campaigns", None)));
        assert!(!authorized(
            &locked,
            &request("POST", "/campaigns", Some("Bearer wrong"))
        ));
        assert!(authorized(
            &locked,
            &request("POST", "/campaigns", Some("Bearer s3cret"))
        ));
        assert!(
            authorized(&locked, &request("GET", "/healthz", None)),
            "healthz stays open for unauthenticated fleet probes"
        );
        assert!(
            !authorized(&locked, &request("POST", "/healthz", None)),
            "only the GET probe form is exempt"
        );
    }
}
