//! Shared micro-architectural pipeline components.
//!
//! Every component follows the same two-phase pattern:
//!
//! 1. **Construction** — `new(&mut CoverageSpace, …)` registers the
//!    component's coverage points and remembers their ids. Construction
//!    happens once per processor instance, so the coverage space and point
//!    ids are stable across tests.
//! 2. **Simulation** — the component keeps per-run state (tag arrays,
//!    predictor tables, queues). The core driver calls `reset()` at the start
//!    of every test and the event methods while instructions commit; event
//!    methods receive the test's [`CoverageMap`](coverage::CoverageMap) and
//!    mark the points they exercise.
//!
//! Components deliberately model *behavioural skeletons*, not cycle-accurate
//! hardware: what matters for the fuzzing experiments is that the coverage
//! points they expose are (a) numerous, (b) unevenly reachable and
//! (c) dependent on the instruction mix of the test program, which is what
//! makes seed selection worth optimising.
//!
//! Event methods run once per committed instruction, so the coverage-point
//! ids they use live in dense tables indexed by
//! [`Op::index`](riscv::Op::index), [`OpClass::index`] or a fixed position
//! (a register number, a position in
//! [`CsrAddr::IMPLEMENTED`](riscv::CsrAddr::IMPLEMENTED)). They are never
//! hashed: a component keeps no map keyed by op, class or CSR.

pub mod cache;
pub mod csrfile;
pub mod decoder;
pub mod execute;
pub mod frontend;
pub mod lsu;
pub mod rob;
pub mod scoreboard;

pub use cache::{CacheModel, CacheOutcome};
pub use csrfile::CsrFileModel;
pub use decoder::DecoderModel;
pub use execute::ExecuteModel;
pub use frontend::FrontendModel;
pub use lsu::{LsuModel, LsuOutcome};
pub use rob::RobModel;
pub use scoreboard::ScoreboardModel;

use riscv::OpClass;

/// Maps every [`OpClass::index`] to the class's position in `classes`, or
/// `None` for a class `classes` leaves out: the ordinal table behind the
/// components whose crosses cover only some classes.
const fn class_slots<const N: usize>(
    classes: [OpClass; N],
) -> [Option<usize>; OpClass::ALL.len()] {
    let mut slots = [None; OpClass::ALL.len()];
    let mut i = 0;
    while i < N {
        slots[classes[i].index()] = Some(i);
        i += 1;
    }
    slots
}

/// Buckets a numeric value into one of `buckets` coverage bins using
/// power-of-two-ish thresholds (0, 1, 2, 4, 8, …).
///
/// Several components expose "occupancy" or "latency" coverage as bucketed
/// sites; sharing the bucketing keeps their reachability comparable.
pub fn bucket(value: usize, buckets: usize) -> usize {
    if buckets == 0 {
        return 0;
    }
    let mut threshold = 1usize;
    for bucket_index in 0..buckets {
        if value < threshold {
            return bucket_index;
        }
        threshold *= 2;
    }
    buckets - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_uses_power_of_two_thresholds() {
        assert_eq!(bucket(0, 6), 0);
        assert_eq!(bucket(1, 6), 1);
        assert_eq!(bucket(2, 6), 2);
        assert_eq!(bucket(3, 6), 2);
        assert_eq!(bucket(4, 6), 3);
        assert_eq!(bucket(8, 6), 4);
        assert_eq!(bucket(1_000_000, 6), 5);
        assert_eq!(bucket(5, 0), 0);
    }
}
