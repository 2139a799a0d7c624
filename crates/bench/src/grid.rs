//! The parallel experiment engine.
//!
//! Every experiment in the paper's evaluation — Table I, Fig. 3, Fig. 4 and
//! the §IV-A ablations — is a grid of *independent* campaign cells
//! (repetitions × fuzzers × processors × vulnerabilities or parameter
//! settings). Each cell derives its RNG seed from `base_seed + repetition`,
//! so cells share no state and can run on any thread without changing their
//! results; only the *reduction* over cells (means, curve averaging) is
//! order-sensitive, and [`run_grid`] preserves input order in its output.
//!
//! The executor is a std-only work-stealing-lite pool: scoped worker threads
//! pull cell indices from a shared atomic counter and write results into
//! their output slots. (The environment vendors no external crates, so this
//! plays the role a `rayon` parallel iterator otherwise would, behind the
//! same "flat work list in, ordered results out" contract.)

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a grid of experiment cells is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One cell after another on the calling thread — the reference
    /// behaviour every parallel run must reproduce byte for byte.
    Serial,
    /// A fixed number of worker threads.
    Threads(NonZeroUsize),
    /// One worker per available core (the default).
    #[default]
    Auto,
}

impl Parallelism {
    /// Parses `serial`, `auto` or a thread count.
    pub fn parse(text: &str) -> Option<Parallelism> {
        match text.trim().to_ascii_lowercase().as_str() {
            "serial" | "1" => Some(Parallelism::Serial),
            "auto" | "parallel" => Some(Parallelism::Auto),
            n => n.parse::<usize>().ok().and_then(NonZeroUsize::new).map(Parallelism::Threads),
        }
    }

    /// Returns the number of worker threads this mode uses.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.get(),
            Parallelism::Auto => {
                std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
            }
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Serial => f.write_str("serial"),
            Parallelism::Threads(n) => write!(f, "{n} threads"),
            Parallelism::Auto => write!(f, "auto ({} threads)", self.workers()),
        }
    }
}

/// Runs `work` over every cell of `cells` and returns the results in input
/// order.
///
/// Cells are claimed dynamically (an atomic cursor), so heterogeneous cell
/// durations — a detection campaign that trips after 40 tests next to one
/// that runs to its cap — still load-balance across workers. With
/// [`Parallelism::Serial`], or a single worker, or fewer than two cells, the
/// grid degenerates to a plain in-order loop on the calling thread.
///
/// # Panics
///
/// Propagates a panic from any cell after the grid drains.
pub fn run_grid<T, U, F>(parallelism: Parallelism, cells: &[T], work: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = parallelism.workers().min(cells.len());
    if workers <= 1 {
        return cells.iter().map(work).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<U>>> = cells.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(index) else { break };
                let result = work(cell);
                *slots[index].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every claimed cell stores its result")
        })
        .collect()
}

/// Splits ordered grid results back into per-group slices of `repetitions`
/// cells each, for reductions that fold repetitions in order.
///
/// The returned closure yields the next group on every call. Group
/// association relies on the reduction loops iterating in exactly the same
/// nesting as the cell-construction loops, so exhausting the results early
/// panics (drifted loops must fail loudly, not cross-wire published
/// numbers). With `repetitions == 0` there are no cells at all and every
/// call yields an empty group.
pub fn result_groups<'a, T>(results: &'a [T], repetitions: u64) -> impl FnMut() -> &'a [T] + 'a {
    let mut groups = results.chunks(repetitions.max(1) as usize);
    move || {
        if repetitions == 0 {
            &[]
        } else {
            groups.next().expect("one result chunk per cell group")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_parses_and_reports_workers() {
        assert_eq!(Parallelism::parse("serial"), Some(Parallelism::Serial));
        assert_eq!(Parallelism::parse("auto"), Some(Parallelism::Auto));
        assert_eq!(
            Parallelism::parse("4"),
            Some(Parallelism::Threads(NonZeroUsize::new(4).unwrap()))
        );
        assert_eq!(Parallelism::parse("0"), None);
        assert_eq!(Parallelism::parse("many"), None);
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::parse("3").unwrap().workers(), 3);
        assert!(Parallelism::Auto.workers() >= 1);
        assert!(Parallelism::Auto.to_string().contains("auto"));
    }

    #[test]
    fn grid_preserves_input_order() {
        let cells: Vec<u64> = (0..100).collect();
        let serial = run_grid(Parallelism::Serial, &cells, |c| c * 3);
        let parallel = run_grid(Parallelism::Auto, &cells, |c| c * 3);
        assert_eq!(serial, parallel);
        assert_eq!(serial[7], 21);
    }

    #[test]
    fn grid_handles_tiny_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_grid::<_, u32, _>(Parallelism::Auto, &empty, |c| *c).is_empty());
        assert_eq!(run_grid(Parallelism::Auto, &[5u32], |c| c + 1), vec![6]);
    }

    #[test]
    fn result_groups_chunk_in_order_and_fail_on_drift() {
        let results: Vec<u32> = (0..6).collect();
        let mut groups = result_groups(&results, 2);
        assert_eq!(groups(), &[0, 1]);
        assert_eq!(groups(), &[2, 3]);
        assert_eq!(groups(), &[4, 5]);
        let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(groups));
        assert!(drained.is_err(), "a drifted extra group must panic");

        let empty: Vec<u32> = Vec::new();
        let mut none = result_groups(&empty, 0);
        assert!(none().is_empty());
        assert!(none().is_empty(), "zero repetitions always yields empty groups");
    }

    #[test]
    fn grid_actually_uses_multiple_threads() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::time::{Duration, Instant};
        let seen = Mutex::new(HashSet::new());
        let cells: Vec<u32> = (0..8).collect();
        let two = Parallelism::Threads(NonZeroUsize::new(2).unwrap());
        run_grid(two, &cells, |&cell| {
            seen.lock().unwrap().insert(std::thread::current().id());
            // The first cell's worker holds its slot until the second worker
            // has demonstrably claimed a cell too, so the assertion below is
            // deterministic even on an oversubscribed single-CPU runner
            // (bounded by the deadline rather than scheduling luck).
            if cell == 0 {
                let deadline = Instant::now() + Duration::from_secs(5);
                while Instant::now() < deadline && seen.lock().unwrap().len() < 2 {
                    std::thread::yield_now();
                }
            }
        });
        assert!(seen.lock().unwrap().len() >= 2, "two workers should both claim cells");
    }
}
