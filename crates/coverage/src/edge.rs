//! A fixed-size coverage space over static CFG edges.
//!
//! The edge-coverage signal hashes each static CFG edge's identity tuple
//! `(from_pc, to, kind)` into a fixed-length slot space. Fixing the length up
//! front is what lets edge coverage slot into the campaign determinism
//! contract: every per-test [`CoverageMap`](crate::CoverageMap) over an
//! [`EdgeSpace`] has the same length regardless of which program it came
//! from, so the ordered batch fold can union them exactly like point-coverage
//! maps.
//!
//! The hash is FNV-1a over a fixed-width little-endian encoding of the tuple,
//! so a slot is a pure function of the edge identity — stable across runs,
//! threads, processes and platforms (the *edge-id stability guarantee*; see
//! the `analysis` crate docs). Distinct edges may collide in the space, which
//! is the standard AFL-style trade-off; the default length keeps the load
//! factor low for the program sizes the generator produces.

use serde::{Deserialize, Serialize};

use crate::space::CoverPointId;

const FNV_OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A fixed-length hashed space of static CFG edge coverage slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeSpace {
    len: usize,
}

impl EdgeSpace {
    /// The default slot count: comfortably above the edge counts of generated
    /// programs (tens of edges), keeping hash collisions rare.
    pub const DEFAULT_LEN: usize = 4096;

    /// Creates the default-size space.
    pub fn new() -> EdgeSpace {
        EdgeSpace { len: EdgeSpace::DEFAULT_LEN }
    }

    /// Creates a space with an explicit slot count (must be non-zero).
    pub fn with_len(len: usize) -> EdgeSpace {
        assert!(len > 0, "edge space needs at least one slot");
        EdgeSpace { len }
    }

    /// Number of slots; the length of every coverage map over this space.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the space has no slots (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Hashes an edge identity tuple to its coverage slot.
    ///
    /// `kind` is the edge kind's stable wire code (`analysis::EdgeKind::code`)
    /// and `to` is `None` for the synthetic `Unknown` sink. The encoding is
    /// fixed-width (8-byte LE pcs, a presence tag, the kind byte) so no two
    /// distinct tuples encode to the same byte string.
    pub fn slot(&self, from_pc: u64, to: Option<u64>, kind: u8) -> CoverPointId {
        let mut hash = FNV_OFFSET_BASIS;
        let mut eat = |byte: u8| {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(FNV_PRIME);
        };
        for byte in from_pc.to_le_bytes() {
            eat(byte);
        }
        eat(u8::from(to.is_some()));
        for byte in to.unwrap_or(0).to_le_bytes() {
            eat(byte);
        }
        eat(kind);
        CoverPointId((hash % self.len as u64) as u32)
    }
}

impl Default for EdgeSpace {
    fn default() -> EdgeSpace {
        EdgeSpace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoverageMap;

    #[test]
    fn slots_are_stable_and_in_range() {
        let space = EdgeSpace::new();
        let a = space.slot(0x8000_0000, Some(0x8000_0004), 0);
        assert_eq!(a, space.slot(0x8000_0000, Some(0x8000_0004), 0));
        assert!((a.index()) < space.len());
    }

    #[test]
    fn tuple_components_distinguish_slots() {
        // Not guaranteed for every input (hashing), but these particular
        // tuples must stay distinct or the signal would be degenerate.
        let space = EdgeSpace::new();
        let base = space.slot(0x8000_0000, Some(0x8000_0004), 0);
        assert_ne!(base, space.slot(0x8000_0004, Some(0x8000_0004), 0));
        assert_ne!(base, space.slot(0x8000_0000, Some(0x8000_0008), 0));
        assert_ne!(base, space.slot(0x8000_0000, Some(0x8000_0004), 1));
        assert_ne!(base, space.slot(0x8000_0000, None, 0));
    }

    #[test]
    fn unknown_sink_differs_from_a_zero_target() {
        // The presence tag keeps `None` distinct from `Some(0)`.
        let space = EdgeSpace::new();
        assert_ne!(space.slot(0x8000_0000, None, 2), space.slot(0x8000_0000, Some(0), 2));
    }

    #[test]
    fn maps_over_the_space_merge_like_point_coverage() {
        let space = EdgeSpace::with_len(64);
        let mut a = CoverageMap::with_len(space.len());
        let mut b = CoverageMap::with_len(space.len());
        a.cover(space.slot(0x8000_0000, Some(0x8000_0010), 1));
        b.cover(space.slot(0x8000_0010, None, 3));
        let mut merged = CoverageMap::with_len(space.len());
        merged.union_with(&a);
        merged.union_with(&b);
        assert_eq!(merged.count(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_length_space_is_rejected() {
        EdgeSpace::with_len(0);
    }
}
