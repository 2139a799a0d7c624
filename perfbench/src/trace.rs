//! Spans recorded around calls into each layer, kept in memory and written
//! out when the benchmark ends.
//!
//! A span carries a name, a start and end (nanoseconds since the process's
//! first clock read), the id of the span that caused it (0 for none) and the
//! id of the campaign it belongs to. Every tracer shares one clock and one
//! id space, so spans from several tracers can be written to one file. A layer's self time is its spans' duration
//! minus the part of each interval that its child spans cover.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

use mabfuzz::{ArmSelected, BatchFolded, CampaignFinished, CampaignObserver, TestFolded};
use mabfuzz::{Campaign, CampaignSpec, MabFuzzOutcome, SpecError};

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The causing span's id, or 0.
    pub parent: u64,
    /// Layer boundary name, e.g. `proc_sim.dut`.
    pub name: &'static str,
    /// The campaign (or replay stream) the span belongs to.
    pub campaign: u64,
    /// Start, in ns since the epoch.
    pub start: u64,
    /// End, in ns since the epoch.
    pub end: u64,
}

impl Span {
    /// The span's duration in ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// The shared, thread-safe span store.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// An empty tracer.
    pub fn new() -> Arc<Tracer> {
        EPOCH.get_or_init(Instant::now);
        Arc::default()
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the epoch to `instant`.
    pub fn at(&self, instant: Instant) -> u64 {
        instant
            .saturating_duration_since(*EPOCH.get_or_init(Instant::now))
            .as_nanos() as u64
    }

    /// Records a span between two instants and returns its id.
    pub fn span(
        &self,
        name: &'static str,
        parent: u64,
        campaign: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.push(Span {
            id,
            parent,
            name,
            campaign,
            start: self.at(start),
            end: self.at(end),
        });
        id
    }

    /// Allocates a span id, so a parent can be named before it ends.
    pub fn id(&self) -> u64 {
        // A plain counter: ids publish no other data.
        NEXT_ID.fetch_add(1, Ordering::Relaxed)
    }

    /// Stores an already-built span.
    pub fn push(&self, span: Span) {
        self.spans.lock().expect("span store poisoned").push(span);
    }

    /// Stores a batch of spans.
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .expect("span store poisoned")
            .extend(spans);
    }

    /// Durations in ns of every span named `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.with_spans(|spans| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration() as f64)
                .collect()
        })
    }

    /// Total duration in ns of the spans named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.with_spans(|spans| {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::duration)
                .sum()
        })
    }

    fn with_spans<T>(&self, f: impl FnOnce(&[Span]) -> T) -> T {
        f(&self.spans.lock().expect("span store poisoned"))
    }

    /// Per span name: count, total ns and self ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        self.with_spans(self_times)
    }

    /// Appends every span as one JSON line to `out`.
    pub fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        self.with_spans(|spans| {
            spans.iter().try_for_each(|s| {
                writeln!(
                    out,
                    "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"campaign\":{},\"start_ns\":{},\"end_ns\":{}}}",
                    s.id, s.parent, s.name, s.campaign, s.start, s.end
                )
            })
        })
    }
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals (clipped to the span).
fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start, span.end));
    }
    let mut table: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for span in spans {
        let covered = children.get_mut(&span.id).map_or(0, |intervals| {
            intervals.sort_unstable();
            let (mut covered, mut reach) = (0, span.start);
            for &(start, end) in intervals.iter() {
                let (start, end) = (start.max(reach), end.min(span.end));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            covered
        });
        let entry = table.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration();
        entry.2 += span.duration().saturating_sub(covered);
    }
    table
}

/// A timing [`CampaignObserver`]: records `core.test` (the gap between
/// consecutive folded tests) and `core.round_gap` (from a batch fold to the
/// next arm selection) as children of the campaign's span.
pub struct CoreTimer {
    tracer: Arc<Tracer>,
    parent: u64,
    campaign: u64,
    spans: Vec<Span>,
    last_test: Option<u64>,
    last_batch: Option<u64>,
}

impl CoreTimer {
    /// A timer for campaign `campaign` under span `parent`.
    pub fn new(tracer: &Arc<Tracer>, parent: u64, campaign: u64) -> CoreTimer {
        CoreTimer {
            tracer: Arc::clone(tracer),
            parent,
            campaign,
            spans: Vec::new(),
            last_test: None,
            last_batch: None,
        }
    }

    fn span(&mut self, name: &'static str, start: u64, end: u64) {
        let id = self.tracer.id();
        self.spans.push(Span {
            id,
            parent: self.parent,
            name,
            campaign: self.campaign,
            start,
            end,
        });
    }
}

impl CampaignObserver for CoreTimer {
    fn arm_selected(&mut self, _: &ArmSelected) {
        if let Some(start) = self.last_batch.take() {
            let now = self.tracer.now();
            self.span("core.round_gap", start, now);
        }
    }

    fn test_folded(&mut self, _: &TestFolded<'_>) {
        let now = self.tracer.now();
        if let Some(start) = self.last_test.replace(now) {
            self.span("core.test", start, now);
        }
    }

    fn batch_folded(&mut self, _: &BatchFolded) {
        self.last_batch = Some(self.tracer.now());
    }

    fn campaign_finished(&mut self, _: &CampaignFinished) {
        self.tracer.extend(std::mem::take(&mut self.spans));
    }
}

/// Assembles and executes `spec` with `observers` attached. Traced, the
/// campaign gets a span named `name` under `parent`, with `core.assemble`
/// and a [`CoreTimer`]'s spans as its children; the span id doubles as the
/// campaign id.
pub fn execute(
    spec: &CampaignSpec,
    observers: Vec<Box<dyn CampaignObserver>>,
    tracer: Option<&Arc<Tracer>>,
    name: &'static str,
    parent: u64,
) -> Result<MabFuzzOutcome, SpecError> {
    let start = Instant::now();
    let mut campaign = Campaign::from_spec(spec)?;
    let assembled = Instant::now();
    for observer in observers {
        campaign.attach_observer(observer);
    }
    let Some(tracer) = tracer else {
        return Ok(campaign.execute());
    };
    let id = tracer.id();
    tracer.span("core.assemble", id, id, start, assembled);
    campaign.attach_observer(Box::new(CoreTimer::new(tracer, id, id)));
    let outcome = campaign.execute();
    tracer.push(Span {
        id,
        parent,
        name,
        campaign: id,
        start: tracer.at(start),
        end: tracer.now(),
    });
    Ok(outcome)
}

/// The cost of one clock read, in ns: the median of back-to-back reads.
pub fn clock_read_ns() -> f64 {
    let mut samples: Vec<f64> = (0..2001)
        .map(|_| {
            let start = Instant::now();
            let end = Instant::now();
            (end - start).as_nanos() as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            campaign: 1,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "outer", 0, 100),
            span(2, 1, "inner", 10, 30),
            span(3, 1, "inner", 20, 50),  // overlaps the first child
            span(4, 1, "inner", 90, 120), // runs past the parent's end
            span(5, 2, "leaf", 12, 14),
        ];
        let table = self_times(&spans);
        assert_eq!(table["outer"], (1, 100, 100 - 40 - 10));
        assert_eq!(table["inner"], (3, 20 + 30 + 30, 18 + 30 + 30));
        assert_eq!(table["leaf"], (1, 2, 2));
    }
}
