//! The MABFuzz campaign service: remote campaign control over HTTP.
//!
//! This crate turns the workspace's declarative campaign surface into a
//! multi-tenant daemon: clients submit [`CampaignSpec`] documents over TCP,
//! a bounded worker pool executes them through
//! `Campaign::from_spec(..).execute()`, and every campaign's live per-test
//! [`CampaignObserver`] protocol is streamed back as NDJSON — **byte
//! identical** to the `EventLog` JSONL the CLI writes for the same spec, so
//! the golden streams under `tests/golden/` pin the wire format too. It is
//! what `experiments serve --addr 127.0.0.1:PORT --workers N` runs, and the
//! substrate the ROADMAP's "remote campaign control, live dashboards" item
//! called for.
//!
//! Everything is `std`-only (`std::net::TcpListener`, hand-rolled minimal
//! HTTP/1.1): the workspace is offline-shimmed, so no external dependencies.
//!
//! # Protocol reference
//!
//! All responses are JSON (errors: `{"error":"<message>"}`). Connections
//! are **keep-alive** (HTTP/1.1 default): the daemon serves any number of
//! sequential requests per connection, closing only on `Connection: close`,
//! on malformed framing, or when the idle socket trips the I/O deadline.
//! [`Client`] holds a small pool of persistent connections and reconnects
//! once, transparently, when a pooled socket turns out to have been closed
//! between requests — so a submit/stream/report/delete cycle normally rides
//! a single socket.
//!
//! **Write discipline.** Every request, every whole sized response, the
//! head of a chunked response and each chunk frame leaves the process in
//! exactly one `write`, framed first into a reusable buffer; both ends also
//! set `TCP_NODELAY` on their sockets. Either alone is not enough. A message
//! split over several small writes, or several chunk frames sent back to
//! back, makes Nagle's algorithm hold the second segment until the peer's
//! delayed ACK arrives — about 44 ms per exchange on Linux, so a
//! submit/stream/report/delete cycle would wait about four times as long
//! as a 1 000-test campaign takes to compute. The bytes on the wire are the
//! same either way; only their segmentation differs.
//!
//! | Method & path | Body | Response |
//! |---|---|---|
//! | `POST /campaigns` | strict [`CampaignSpec`] JSON | `201` `{"id":N,"status":"queued"}` |
//! | `GET /campaigns` | — | `200` `{"campaigns":[{"id","status","label","report":null},…]}` |
//! | `GET /campaigns/{id}` | — | `200` `{"id","status","label","report"}` |
//! | `GET /campaigns/{id}/events` | — | `200` chunked NDJSON event stream |
//! | `GET /campaigns/{id}/report` | — | `200` final campaign report document |
//! | `POST /campaigns/{id}/cancel` | — | `200` `{"id":N,"status":"<at request time>"}` |
//! | `DELETE /campaigns/{id}` | — | `200` `{"id":N,"status":"deleted"}` |
//! | `POST /shutdown` | — | `200` `{"status":"shutting down"}` |
//! | `GET /healthz` | — | `200` `{"status":"ok","campaigns":N,"queued":N,"running":N,"capacity":M\|null}` |
//!
//! When the daemon runs with an auth token (`experiments serve
//! --auth-token T`), every route except `GET /healthz` additionally
//! requires an `Authorization: Bearer T` header; see
//! [Hardening](#hardening) below.
//!
//! Details per endpoint:
//!
//! * **`POST /campaigns`** — the body goes through the strict spec codec
//!   ([`CampaignSpec::from_json`]): unknown fields, unknown policies and
//!   invalid parameters are rejected with `400` and exactly the `SpecError`
//!   text the CLI prints (`unknown spec field `polcy``, `unknown policy …
//!   (valid policies: …)`, …). The spec must be self-contained (carry a
//!   `"processor"` section); otherwise `400` with the `MissingProcessor`
//!   text. When the daemon runs with a queue bound (`serve --max-queue N`,
//!   [`CampaignServer::with_max_queue`]) and `N` campaigns are already
//!   queued (running campaigns do not count), the submission is refused
//!   with **`429 Too Many Requests`** and a retryable error body naming
//!   the capacity — the client should back off and resubmit; nothing about
//!   the rejected spec is retained.
//! * **`GET /campaigns/{id}/events`** — replays the campaign's event stream
//!   from the start (late subscribers see the complete deterministic
//!   history) and then follows it live, as chunked
//!   `application/x-ndjson`, until the campaign reaches a terminal state.
//!   The de-chunked payload is byte-identical to the `EventLog` JSONL of
//!   the same spec: one event object per line, in deterministic fold order.
//!   Any number of subscribers may tail one campaign
//!   concurrently; each holds its own cursor into the shared broadcast
//!   ring.
//! * **`GET /campaigns/{id}/report`** — the final report document, rendered
//!   by the workspace's single campaign renderer
//!   (`mabfuzz::report::campaign_json`), byte-identical to
//!   `experiments run --spec <spec> --json` for the same spec. `409` while
//!   the campaign is queued/running; for `failed` campaigns the document is
//!   `{"error":"<why>"}`.
//! * **`POST /campaigns/{id}/cancel`** — flags the campaign's
//!   `CancelToken`; the run stops at its next deterministic fold boundary.
//!   Its status becomes `cancelled`, its report covers the folded prefix,
//!   and its event stream — which omits the final `campaign_finished`
//!   event — is a strict prefix of the stream the uncancelled campaign
//!   would have produced. Cancelling a terminal campaign is a no-op.
//! * **`DELETE /campaigns/{id}`** — evicts a *terminal* campaign, freeing
//!   its retained event history and report (the hub otherwise keeps every
//!   stream for replay-from-start; long-running deployments delete what
//!   they have consumed). `409` while the campaign is queued or running.
//! * **`POST /shutdown`** — the daemon stops accepting submissions, drains
//!   already-queued campaigns, joins its workers and exits `serve()`
//!   cleanly.
//! * **`GET /healthz`** — a cheap liveness probe that never touches
//!   campaign execution: tracked campaigns, queue depth, running jobs and
//!   the configured queue bound (`"capacity"` is a number or `null` for
//!   unbounded; [`Client::health_snapshot`] parses the census as a
//!   [`HealthSnapshot`]). It is the heartbeat the dispatch coordinator
//!   uses to readmit quarantined workers and the signal behind the
//!   `experiments fleet` dashboard, and it is deliberately **exempt from
//!   auth** so load-balancer-style probes work without credentials. It
//!   reveals only liveness and counts — never spec contents, labels or
//!   reports, which all sit behind the token.
//!
//! Campaign lifecycle: `queued → running → finished | cancelled | failed`.
//!
//! # Hardening
//!
//! Four daemon-side protections, all off by default except the I/O
//! deadline, all configured through `CampaignServer` builder methods (and
//! the matching `experiments serve` flags):
//!
//! * **Socket deadlines** ([`CampaignServer::with_io_timeout`],
//!   `--io-timeout-ms`): every accepted connection gets read *and* write
//!   timeouts (default 30 s), so a slowloris peer — one that connects and
//!   then trickles or stops sending bytes — times out instead of pinning a
//!   connection thread forever, and a stalled event-stream consumer cannot
//!   wedge a writer. Under keep-alive the same deadline doubles as the
//!   idle-connection reaper: a pooled client connection that sits unused
//!   past it is closed by the daemon, and [`Client`] recovers by
//!   reconnecting once.
//! * **Queue backpressure** ([`CampaignServer::with_max_queue`],
//!   `--max-queue`): bounds the number of *queued* (not yet running)
//!   campaigns; over-capacity submissions get `429` with a retryable
//!   error body instead of growing the hub without bound. The dispatch
//!   coordinator treats the 429 as backoff-and-retry, not as a worker
//!   failure.
//! * **Shared-secret auth** ([`CampaignServer::with_auth_token`],
//!   `--auth-token`): when set, every route except `GET /healthz` requires
//!   `Authorization: Bearer <token>`. Tokens are compared in constant time
//!   (no early exit on the first differing byte), and mismatches get
//!   `401 Unauthorized`. [`Client::with_auth_token`] sends the header.
//! * **TTL eviction** ([`CampaignServer::with_ttl`], `--ttl` seconds):
//!   terminal campaigns (finished / cancelled / failed) are auto-evicted
//!   once their TTL lapses, counted **from the terminal transition**, not
//!   from submission — a long-running campaign is never reaped mid-flight.
//!   Sweeps happen opportunistically on incoming requests, status
//!   transitions and queue operations (no timer thread), so a keep-alive
//!   connection that never reconnects still observes evictions. Explicit
//!   `DELETE /campaigns/{id}` works exactly as before, with or without a
//!   TTL.
//!
//! # Dispatch and the failure model
//!
//! [`Coordinator`] (what `experiments dispatch --workers a:1,b:2 …` runs)
//! partitions a list of self-contained specs across several `serve`
//! daemons and merges the results into exactly what a local run would have
//! produced — campaigns are seeded and deterministic, which is what makes
//! retrying and reassigning them safe. The merge is **streaming**: each
//! worker's NDJSON feed is validated and folded line by line as chunks
//! arrive, carrying only an O(1) running-hash summary of the previously
//! folded prefix per job — never a buffered copy of the stream — with a
//! per-line and a per-stream byte cap
//! ([`Coordinator::with_event_stream_cap`]) turning hostile or runaway
//! streams into a loud [`DispatchError::EventOverflow`] instead of
//! unbounded memory. The coordinator's failure handling, in escalation
//! order: 429 backpressure absorbed as backoff-and-retry without consuming
//! an attempt ([`Coordinator::busy_backoffs`] counts them); capped
//! exponential backoff with deterministic jitter ([`RetryPolicy`]);
//! reassignment of campaigns lost in flight (logged exactly once per
//! loss); quarantine → retire → readmit worker health tracking driven by
//! `/healthz` heartbeats ([`FleetHealth`]); replay verification of every
//! retried stream against the folded prefix's running hash (divergence
//! fails the whole dispatch loudly); and graceful degradation to local
//! in-process execution when the entire fleet is lost. The
//! [`dispatch`-module docs](crate::dispatch) spell out the full failure
//! model, including the one fault class that is detected but not repaired
//! (in-flight corruption that forges *valid* JSON is indistinguishable
//! from nondeterminism and is reported as divergence).
//!
//! [`FaultyTransport`] is the matching chaos-injection layer: a
//! [`Transport`] wrapper that refuses connects, cuts or stalls streams at
//! byte *K*, corrupts a byte, or truncates writes, on a per-connection
//! *or* per-request schedule (the request axis matters under keep-alive,
//! where one socket carries many requests) — the chaos suites drive the
//! coordinator through it and assert the merged reports stay
//! byte-identical to a fault-free run, with strictly fewer connections
//! than requests.
//!
//! # Fleet observability
//!
//! [`FleetMonitor`] (what `experiments fleet --workers a:1,b:2` runs) is a
//! std-only live dashboard over a running fleet: it probes each worker's
//! `/healthz` census once per frame, tails the oldest running campaign's
//! NDJSON feed in a background thread per worker, and renders one
//! `[fleet]`-prefixed stderr line per worker per frame — health state
//! (healthy / quarantined / retired, via the same [`FleetHealth`] state
//! machine the coordinator uses), queue depth against capacity, running
//! count, tests/sec, coverage and detections. It needs no privileged
//! endpoint: everything it shows comes from the public census and the
//! event stream.
//!
//! # Architecture
//!
//! [`CampaignServer`] couples three pieces: an accept loop (thread per
//! connection — campaign execution dwarfs connection cost at this
//! protocol's request rates), a bounded worker pool (`--workers N`, sized by
//! the CLI from the same `Parallelism` budget as the experiment grid), and
//! a shared hub mapping campaign ids to their spec, status,
//! `EventBroadcast` (the fan-out sink behind `/events`) and `CancelToken`.
//! The campaign hot path never touches hub locks: the only writer into a
//! broadcast is the campaign's own `EventLog`, and subscribers read
//! append-only history under a condvar.
//!
//! [`Client`] is the matching blocking client — submit, status, events,
//! report, cancel, shutdown — used by the in-tree round-trip suites and
//! `examples/remote_campaign.rs`. It keeps a bounded pool of idle
//! keep-alive connections per client (clones share the pool), checks one
//! out per request, and retries exactly once on a fresh socket when a
//! reused connection turns out to have died since its last request — a
//! failure on a *fresh* connection is surfaced, never retried, so
//! non-idempotent requests are not silently replayed.
//!
//! [`CampaignSpec`]: mabfuzz::CampaignSpec
//! [`CampaignSpec::from_json`]: mabfuzz::CampaignSpec::from_json
//! [`CampaignObserver`]: mabfuzz::CampaignObserver

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
pub mod dispatch;
mod health;
mod http;
mod hub;
mod monitor;
mod server;
mod transport;

pub use client::{CampaignStatus, Client, ClientError, HealthSnapshot};
pub use dispatch::{
    Coordinator, DispatchError, JobOutcome, RetryPolicy, DEFAULT_EVENT_STREAM_CAP,
    MAX_EVENT_LINE_BYTES,
};
pub use health::{FleetHealth, WorkerState, DEFAULT_RETIRE_THRESHOLD};
pub use hub::Status;
pub use monitor::FleetMonitor;
pub use server::{CampaignServer, DEFAULT_IO_TIMEOUT};
pub use transport::{Connection, Fault, FaultyTransport, TcpTransport, Transport};
