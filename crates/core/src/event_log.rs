//! Buffered JSONL sink for campaign event streams — the first production
//! consumer of the [`CampaignObserver`] seam.
//!
//! An [`EventLog`] renders every event of one campaign as one compact JSON
//! object per line, in the exact deterministic order the fold emits them
//! (see the event-ordering contract in [`observer`](crate::observer)).
//! Because the fold order is deterministic, the written stream is a
//! **byte-for-byte function of the spec** — which is what lets
//! `experiments run --events out.jsonl` be golden-pinned and `cmp`-checked
//! in CI, at batch size 1 and at `--batch 8`.
//!
//! Rendering is by hand with fixed field order and shortest-round-trip float
//! formatting, exactly like the report renderers in `mabfuzz-bench`: the
//! stream is a stable machine-readable artefact, not a debug dump.
//!
//! Write errors cannot influence the campaign (observers are effect-free by
//! contract): the log reports the first error to stderr, drops the rest of
//! the stream, and raises its [`EventLogHealth`] flag so the caller can fail
//! loudly *after* the campaign finished.
//!
//! # Example
//!
//! ```
//! use mabfuzz::{Campaign, CampaignSpec, EventLog, SharedBuffer};
//! use proc_sim::{cores::RocketCore, BugSet};
//! use std::sync::Arc;
//!
//! let spec = CampaignSpec::builder().max_tests(20).build().unwrap();
//! let buffer = SharedBuffer::new();
//! let log = EventLog::new(buffer.clone());
//! let health = log.health();
//! Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
//!     .unwrap()
//!     .with_observer(Box::new(log))
//!     .execute();
//! assert!(!health.failed());
//! let stream = buffer.contents();
//! assert_eq!(stream.lines().filter(|l| l.contains("\"test_folded\"")).count(), 20);
//! assert!(stream.lines().last().unwrap().starts_with("{\"event\":\"campaign_finished\""));
//! ```

use std::fmt::Write as _;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::json_text::{push_json_float, push_json_string};
use crate::observer::{
    ArmReset, ArmSelected, BatchFolded, CampaignFinished, CampaignObserver, CoverageMilestone,
    DetectionObserved, TestFolded,
};

/// Shared health flag of an [`EventLog`]: raised on the first write or flush
/// error, after which the log drops the remaining stream.
///
/// The campaign consumes its observers, so the flag is the channel through
/// which a caller learns — after `execute()` returns — that the written
/// stream is truncated and must not be trusted (or golden-compared).
#[derive(Debug, Clone, Default)]
pub struct EventLogHealth(Arc<AtomicBool>);

impl EventLogHealth {
    /// Returns `true` when the log hit a write or flush error and truncated
    /// the stream.
    pub fn failed(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }

    fn raise(&self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A buffered JSONL event sink: one compact JSON object per event, one event
/// per line, in deterministic fold order.
pub struct EventLog<W: Write + Send> {
    writer: W,
    /// Per-event line buffer, reused so the steady-state stream costs no
    /// allocation beyond the writer's own buffering.
    line: String,
    health: EventLogHealth,
}

impl EventLog<BufWriter<File>> {
    /// Creates (truncating) `path` and logs to it through a buffer sized for
    /// per-test event rates; the stream is flushed at `campaign_finished`.
    ///
    /// # Errors
    ///
    /// Any error of [`File::create`].
    pub fn create(path: impl AsRef<Path>) -> io::Result<EventLog<BufWriter<File>>> {
        Ok(EventLog::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write + Send> EventLog<W> {
    /// Wraps an arbitrary writer. Callers providing an unbuffered writer
    /// (a raw `File`, a socket) should wrap it in a [`BufWriter`] — the log
    /// writes once per event.
    pub fn new(writer: W) -> EventLog<W> {
        EventLog { writer, line: String::new(), health: EventLogHealth::default() }
    }

    /// Returns the log's shared health flag; clone it before boxing the log
    /// into a campaign to check for truncation after the run.
    pub fn health(&self) -> EventLogHealth {
        self.health.clone()
    }

    /// Writes the assembled line, raising the health flag (and reporting to
    /// stderr, once) on the first error.
    fn emit(&mut self) {
        if self.health.failed() {
            return;
        }
        self.line.push('\n');
        if let Err(error) = self.writer.write_all(self.line.as_bytes()) {
            self.health.raise();
            eprintln!("EventLog: dropping the event stream after a write error: {error}");
        }
    }
}

impl<W: Write + Send> CampaignObserver for EventLog<W> {
    fn arm_selected(&mut self, event: &ArmSelected) {
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"event\":\"arm_selected\",\"round\":{},\"arm\":{},\"batch_len\":{}}}",
            event.round, event.arm, event.batch_len
        );
        self.emit();
    }

    fn test_folded(&mut self, event: &TestFolded<'_>) {
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"event\":\"test_folded\",\"test_number\":{},\"test_id\":{},\"arm\":{},\
             \"local_new\":{},\"global_new\":{},\"covered\":{},\"reward\":",
            event.test_number, event.test_id.0, event.arm, event.local_new, event.global_new,
            event.covered
        );
        push_json_float(&mut self.line, event.reward);
        let _ = write!(self.line, ",\"detected\":{}}}", event.detected);
        self.emit();
    }

    fn batch_folded(&mut self, event: &BatchFolded) {
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"event\":\"batch_folded\",\"round\":{},\"arm\":{},\"tests\":{}}}",
            event.round, event.arm, event.tests
        );
        self.emit();
    }

    fn detection(&mut self, event: &DetectionObserved<'_>) {
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"event\":\"detection\",\"test_number\":{},\"test_id\":{},\"arm\":{},\
             \"mismatches\":{},\"summary\":",
            event.test_number,
            event.test_id.0,
            event.arm,
            event.diff.len()
        );
        push_json_string(&mut self.line, &event.summary());
        self.line.push('}');
        self.emit();
    }

    fn arm_reset(&mut self, event: &ArmReset) {
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"event\":\"arm_reset\",\"arm\":{},\"test_number\":{},\"total_resets\":{}}}",
            event.arm, event.test_number, event.total_resets
        );
        self.emit();
    }

    fn coverage_milestone(&mut self, event: &CoverageMilestone) {
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"event\":\"coverage_milestone\",\"decile\":{},\"covered\":{},\
             \"space_len\":{},\"test_number\":{}}}",
            event.decile, event.covered, event.space_len, event.test_number
        );
        self.emit();
    }

    fn campaign_finished(&mut self, event: &CampaignFinished) {
        self.line.clear();
        let _ = write!(
            self.line,
            "{{\"event\":\"campaign_finished\",\"tests_executed\":{},\"final_coverage\":{},\
             \"total_resets\":{}}}",
            event.tests_executed, event.final_coverage, event.total_resets
        );
        self.emit();
        if !self.health.failed() {
            if let Err(error) = self.writer.flush() {
                self.health.raise();
                eprintln!("EventLog: final flush failed: {error}");
            }
        }
    }
}

impl<W: Write + Send> std::fmt::Debug for EventLog<W> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog").field("failed", &self.health.failed()).finish()
    }
}

/// A cloneable in-memory byte sink (`Arc<Mutex<Vec<u8>>>` behind a `Write`
/// impl) for capturing an event stream without a file: tests, equivalence
/// checks, or a service layer polling the buffer while the campaign runs on
/// another thread.
///
/// [`failing_after`](SharedBuffer::failing_after) builds a fault-injecting
/// variant for exercising consumer error paths: writes succeed until the
/// buffer holds the configured number of bytes, a write straddling the limit
/// is *short* (the prefix up to the limit is accepted), and every write after
/// that fails with an I/O error — the behaviour of a disk filling up, without
/// a disk.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer {
    bytes: Arc<Mutex<Vec<u8>>>,
    /// Total bytes accepted before writes start failing (`None` = unlimited).
    fail_after: Option<usize>,
}

impl SharedBuffer {
    /// An empty buffer that accepts every write.
    pub fn new() -> SharedBuffer {
        SharedBuffer::default()
    }

    /// An empty buffer that accepts exactly `limit` bytes: the write that
    /// crosses the limit is short (its prefix is kept), and every subsequent
    /// write fails with an I/O error. `failing_after(0)` fails from the
    /// first write.
    pub fn failing_after(limit: usize) -> SharedBuffer {
        SharedBuffer { bytes: Arc::default(), fail_after: Some(limit) }
    }

    /// Returns a copy of the buffered bytes as a string (event streams are
    /// always UTF-8 JSON).
    ///
    /// # Panics
    ///
    /// Panics when the buffer holds non-UTF-8 bytes — impossible for bytes
    /// written by an [`EventLog`].
    pub fn contents(&self) -> String {
        String::from_utf8(self.bytes.lock().expect("buffer lock").clone())
            .expect("event streams are UTF-8")
    }

    /// Number of bytes currently buffered.
    pub fn len(&self) -> usize {
        self.bytes.lock().expect("buffer lock").len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut bytes = self.bytes.lock().expect("buffer lock");
        if let Some(limit) = self.fail_after {
            let remaining = limit.saturating_sub(bytes.len());
            if remaining == 0 {
                return Err(io::Error::other(format!(
                    "SharedBuffer: simulated write failure after {limit} bytes"
                )));
            }
            if buf.len() > remaining {
                bytes.extend_from_slice(&buf[..remaining]);
                return Ok(remaining);
            }
        }
        bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A cloneable, append-only event-stream fan-out: one writer (an
/// [`EventLog`] attached to the running campaign), any number of concurrent
/// subscribers, each reading the same byte stream from any offset — the
/// sink behind the campaign service's `GET /campaigns/{id}/events`.
///
/// The broadcast keeps the full history, so a subscriber arriving *after*
/// the campaign finished replays the complete stream; because the stream is
/// deterministic (see the event-ordering contract in
/// [`observer`](crate::observer)), every subscriber — early, late, or
/// reconnecting — observes byte-identical history. [`close`] marks the end
/// of the stream and wakes all blocked readers.
///
/// [`close`]: EventBroadcast::close
///
/// # Example
///
/// ```
/// use mabfuzz::EventBroadcast;
/// use std::io::Write as _;
///
/// let broadcast = EventBroadcast::new();
/// let mut writer = broadcast.clone();
/// writer.write_all(b"{\"event\":\"x\"}\n").unwrap();
/// broadcast.close();
///
/// let mut offset = 0;
/// while let Some(bytes) = broadcast.wait_from(offset) {
///     offset += bytes.len();
/// }
/// assert_eq!(offset, 14, "the subscriber drained the whole stream");
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventBroadcast {
    shared: Arc<BroadcastShared>,
}

#[derive(Debug, Default)]
struct BroadcastShared {
    state: Mutex<BroadcastState>,
    arrived: Condvar,
}

#[derive(Debug, Default)]
struct BroadcastState {
    bytes: Vec<u8>,
    closed: bool,
}

impl EventBroadcast {
    /// An empty, open broadcast.
    pub fn new() -> EventBroadcast {
        EventBroadcast::default()
    }

    /// Marks the end of the stream and wakes every blocked reader.
    /// Idempotent; writes after `close` are still recorded (the campaign
    /// owns the writer — closing is the *publisher's* end-of-stream marker,
    /// emitted once execution returned).
    pub fn close(&self) {
        let mut state = self.shared.state.lock().expect("broadcast lock");
        state.closed = true;
        self.shared.arrived.notify_all();
    }

    /// Whether the publisher closed the stream.
    pub fn is_closed(&self) -> bool {
        self.shared.state.lock().expect("broadcast lock").closed
    }

    /// Number of bytes published so far.
    pub fn len(&self) -> usize {
        self.shared.state.lock().expect("broadcast lock").bytes.len()
    }

    /// Whether no bytes have been published yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the full stream so far.
    pub fn snapshot(&self) -> Vec<u8> {
        self.shared.state.lock().expect("broadcast lock").bytes.clone()
    }

    /// Blocks until bytes beyond `offset` exist (returning a copy of them)
    /// or the stream is closed with nothing left to read (returning `None`).
    /// Subscribers drain the stream with a cursor:
    /// `while let Some(bytes) = broadcast.wait_from(offset) { offset += bytes.len(); … }`.
    pub fn wait_from(&self, offset: usize) -> Option<Vec<u8>> {
        let mut state = self.shared.state.lock().expect("broadcast lock");
        loop {
            if state.bytes.len() > offset {
                return Some(state.bytes[offset..].to_vec());
            }
            if state.closed {
                return None;
            }
            state = self.shared.arrived.wait(state).expect("broadcast lock");
        }
    }
}

impl Write for EventBroadcast {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.shared.state.lock().expect("broadcast lock");
        state.bytes.extend_from_slice(buf);
        self.shared.arrived.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fuzzer::TestId;

    /// A writer that fails after `allow` successful writes.
    struct Flaky {
        allow: usize,
    }

    impl Write for Flaky {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.allow == 0 {
                return Err(io::Error::other("disk full"));
            }
            self.allow -= 1;
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn events_render_one_compact_json_line_each() {
        let buffer = SharedBuffer::new();
        let mut log = EventLog::new(buffer.clone());
        log.arm_selected(&ArmSelected { round: 0, arm: 2, batch_len: 4 });
        log.arm_reset(&ArmReset { arm: 1, test_number: 9, total_resets: 3 });
        log.coverage_milestone(&CoverageMilestone {
            decile: 2,
            covered: 120,
            space_len: 600,
            test_number: 9,
        });
        log.batch_folded(&BatchFolded { round: 0, arm: 2, tests: 4 });
        log.campaign_finished(&CampaignFinished {
            tests_executed: 9,
            final_coverage: 120,
            total_resets: 3,
        });
        assert_eq!(
            buffer.contents(),
            "{\"event\":\"arm_selected\",\"round\":0,\"arm\":2,\"batch_len\":4}\n\
             {\"event\":\"arm_reset\",\"arm\":1,\"test_number\":9,\"total_resets\":3}\n\
             {\"event\":\"coverage_milestone\",\"decile\":2,\"covered\":120,\"space_len\":600,\"test_number\":9}\n\
             {\"event\":\"batch_folded\",\"round\":0,\"arm\":2,\"tests\":4}\n\
             {\"event\":\"campaign_finished\",\"tests_executed\":9,\"final_coverage\":120,\"total_resets\":3}\n"
        );
        assert!(!log.health().failed());
    }

    #[test]
    fn test_folded_renders_rewards_shortest_round_trip() {
        let buffer = SharedBuffer::new();
        let mut log = EventLog::new(buffer.clone());
        let map = coverage::CoverageMap::with_len(8);
        let diff = fuzzer::DiffReport::default();
        log.test_folded(&TestFolded {
            test_number: 7,
            test_id: TestId(42),
            arm: 3,
            local_new: 5,
            global_new: 2,
            covered: 77,
            reward: 2.75,
            detected: false,
            coverage: &map,
            diff: &diff,
        });
        assert_eq!(
            buffer.contents(),
            "{\"event\":\"test_folded\",\"test_number\":7,\"test_id\":42,\"arm\":3,\
             \"local_new\":5,\"global_new\":2,\"covered\":77,\"reward\":2.75,\
             \"detected\":false}\n"
        );
    }

    #[test]
    fn write_errors_raise_the_health_flag_and_stop_the_stream() {
        let mut log = EventLog::new(Flaky { allow: 1 });
        let health = log.health();
        log.arm_selected(&ArmSelected { round: 0, arm: 0, batch_len: 1 });
        assert!(!health.failed(), "the first write succeeds");
        log.batch_folded(&BatchFolded { round: 0, arm: 0, tests: 1 });
        assert!(health.failed(), "the second write hits the error");
        // Subsequent events are dropped silently, no panic.
        log.arm_selected(&ArmSelected { round: 1, arm: 0, batch_len: 1 });
    }

    #[test]
    fn failing_shared_buffers_accept_the_limit_then_error() {
        let mut buffer = SharedBuffer::failing_after(10);
        assert_eq!(buffer.write(b"12345").unwrap(), 5, "under the limit: full write");
        assert_eq!(buffer.write(b"abcdefgh").unwrap(), 5, "straddling the limit: short write");
        let error = buffer.write(b"x").expect_err("the limit is reached");
        assert!(error.to_string().contains("after 10 bytes"), "{error}");
        assert_eq!(buffer.contents(), "12345abcde", "the accepted prefix is kept");
        let mut dead = SharedBuffer::failing_after(0);
        dead.write(b"x").expect_err("failing_after(0) rejects the first write");
    }

    #[test]
    fn short_writers_raise_the_health_flag_without_panicking() {
        // `write_all` retries a short write, so the straddling event sees
        // Ok(partial) then Err — the log must fold both into the same
        // raise-once, drop-the-rest behaviour a plain error gets.
        let buffer = SharedBuffer::failing_after(40);
        let mut log = EventLog::new(buffer.clone());
        let health = log.health();
        for round in 0..4u64 {
            log.arm_selected(&ArmSelected { round, arm: 0, batch_len: 1 });
        }
        log.campaign_finished(&CampaignFinished {
            tests_executed: 4,
            final_coverage: 1,
            total_resets: 0,
        });
        assert!(health.failed(), "the limit is hit mid-stream");
        assert_eq!(buffer.len(), 40, "exactly the limit's prefix was written");
        let contents = buffer.contents();
        assert!(
            !contents.contains("campaign_finished"),
            "events after the failure are dropped: {contents}"
        );
    }

    #[test]
    fn failing_event_logs_never_perturb_the_campaign() {
        use crate::{Campaign, CampaignSpec};
        use proc_sim::{cores::RocketCore, BugSet};
        use std::sync::Arc;

        let spec = CampaignSpec::builder().max_tests(30).rng_seed(4).build().unwrap();
        let plain = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .execute();
        let buffer = SharedBuffer::failing_after(100);
        let log = EventLog::new(buffer.clone());
        let health = log.health();
        let observed = Campaign::from_spec_on(Arc::new(RocketCore::new(BugSet::none())), &spec)
            .unwrap()
            .with_observer(Box::new(log))
            .execute();
        assert_eq!(plain, observed, "a failing sink cannot change the campaign");
        assert!(health.failed(), "100 bytes cannot hold a 30-test stream");
        assert!(buffer.len() <= 100);
    }

    #[test]
    fn broadcasts_fan_out_replay_and_close() {
        let broadcast = EventBroadcast::new();
        let mut log = EventLog::new(broadcast.clone());
        log.arm_selected(&ArmSelected { round: 0, arm: 1, batch_len: 2 });
        // An early subscriber sees the published prefix without blocking.
        let first = broadcast.wait_from(0).expect("bytes are available");
        assert!(first.starts_with(b"{\"event\":\"arm_selected\""));
        log.batch_folded(&BatchFolded { round: 0, arm: 1, tests: 2 });
        broadcast.close();
        assert!(broadcast.is_closed());
        // A late subscriber replays the identical full stream, then drains.
        let mut replay = Vec::new();
        let mut offset = 0;
        while let Some(bytes) = broadcast.wait_from(offset) {
            offset += bytes.len();
            replay.extend_from_slice(&bytes);
        }
        assert_eq!(replay, broadcast.snapshot());
        assert_eq!(replay.iter().filter(|b| **b == b'\n').count(), 2, "two complete lines");
    }

    #[test]
    fn blocked_broadcast_readers_wake_on_publish_and_on_close() {
        let broadcast = EventBroadcast::new();
        let reader = {
            let broadcast = broadcast.clone();
            std::thread::spawn(move || {
                let mut offset = 0;
                let mut collected = Vec::new();
                while let Some(bytes) = broadcast.wait_from(offset) {
                    offset += bytes.len();
                    collected.extend_from_slice(&bytes);
                }
                collected
            })
        };
        let mut writer = broadcast.clone();
        writer.write_all(b"line one\n").unwrap();
        writer.write_all(b"line two\n").unwrap();
        broadcast.close();
        let collected = reader.join().expect("reader thread");
        assert_eq!(collected, b"line one\nline two\n");
    }
}
