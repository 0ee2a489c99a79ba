//! Placement-aware session identifiers and session placement for a
//! sharded fleet.
//!
//! One `SapServer` mints session ids from a private counter, so two
//! servers in one fleet would both mint `SessionId(1)`. This module is
//! the tiny contract that makes ids fleet-safe and *placement-aware*:
//!
//! * [`IdMinter`] mints ids in a per-node residue class (`base`,
//!   `base + stride`, `base + 2·stride`, …) so every node of an
//!   `n`-node fleet mints from a disjoint sequence with no
//!   coordination — node `j` uses `base = j + 1`, `stride = n`.
//! * [`ring_point`] is the stable 64-bit mixing function that maps a
//!   minted id ([`session_point`]) or a node index ([`node_point`]) to
//!   a well-spread 64-bit point.
//! * [`owner`] places a point on a node by rendezvous (highest random
//!   weight) hashing (Thaler & Ravishankar, IEEE/ACM ToN 1998): every
//!   member scores `ring_point(point ^ node_point(n))`, and the highest
//!   score wins. "Who owns session `S`" is then a pure function of
//!   `session_point(S)` and the membership view, so every node computes
//!   the same owner with no coordination. Each node's share of the ids
//!   is even in expectation, and removing a node moves only the ids it
//!   owned.
//!
//! The top [`CONTROL_RANGE`] ids below [`SessionId::LIVENESS`] are
//! reserved for fleet control planes (the fleet's control session); a
//! minter never emits them, and `SessionId::SOLO` / `LIVENESS` keep
//! their pre-fleet meanings.

use sap_net::SessionId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of ids immediately below [`SessionId::LIVENESS`] reserved for
/// fleet control sessions (the fleet's, and future control planes).
/// [`IdMinter`] never mints an id at or above
/// `SessionId::LIVENESS.0 - CONTROL_RANGE`.
pub const CONTROL_RANGE: u64 = 4096;

/// First id of the reserved control range (inclusive).
pub const CONTROL_BASE: u64 = u64::MAX - CONTROL_RANGE;

/// The finalizer of `splitmix64` — a fast, well-mixed 64-bit
/// permutation. Used for every placement point so session ids (dense
/// counters) and node indices (0, 1, 2, …) spread uniformly over the
/// 64-bit space instead of clustering at the bottom.
pub fn ring_point(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A session's placement point.
pub fn session_point(id: SessionId) -> u64 {
    ring_point(id.0)
}

/// Salt mixed into node indices before hashing, so a node's point never
/// equals the point of a session id equal to its index (both spaces are
/// dense small integers).
pub const NODE_SALT: u64 = 0x4E0D_E5A1_0000_0000;

/// A fleet node's placement point.
pub fn node_point(node: usize) -> u64 {
    ring_point(node as u64 ^ NODE_SALT)
}

/// The member that owns `point`: the one with the highest rendezvous
/// weight `ring_point(point ^ node_point(n))`, the lower index on a tie.
/// `None` when there are no members. A session's owner is
/// `owner(session_point(id), alive)`.
pub fn owner(point: u64, members: impl IntoIterator<Item = usize>) -> Option<usize> {
    members
        .into_iter()
        .max_by_key(|&n| (ring_point(point ^ node_point(n)), std::cmp::Reverse(n)))
}

/// Mints fleet-unique [`SessionId`]s from one residue class.
///
/// A standalone server uses `IdMinter::new(1, 1)` (the pre-fleet
/// sequence 1, 2, 3, …); fleet node `j` of `n` uses
/// `IdMinter::new(j as u64 + 1, n as u64)`. Minting is lock-free.
#[derive(Debug)]
pub struct IdMinter {
    next: AtomicU64,
    stride: u64,
}

impl IdMinter {
    /// A minter over the sequence `base, base + stride, …`.
    ///
    /// `base` must be nonzero (0 is [`SessionId::SOLO`]) and `stride`
    /// at least 1; both are clamped rather than rejected, since every
    /// caller passes compile-time-shaped values.
    pub fn new(base: u64, stride: u64) -> IdMinter {
        IdMinter {
            next: AtomicU64::new(base.max(1)),
            stride: stride.max(1),
        }
    }

    /// Mints the next id in the residue class.
    ///
    /// Ids are monotonically increasing. The reserved ids
    /// ([`SessionId::SOLO`], [`SessionId::LIVENESS`], and the
    /// [`CONTROL_BASE`] range) are skipped by construction: the
    /// sequence starts at ≥ 1 and reaching `CONTROL_BASE` would take
    /// ~2⁶⁴⁄stride mints — unreachable in practice, and checked in
    /// debug builds.
    pub fn mint(&self) -> SessionId {
        let raw = self.next.fetch_add(self.stride, Ordering::Relaxed);
        debug_assert!(raw < CONTROL_BASE, "session id space exhausted");
        SessionId(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn residue_classes_are_disjoint() {
        let n = 4u64;
        let minters: Vec<IdMinter> = (0..n).map(|j| IdMinter::new(j + 1, n)).collect();
        let mut seen = HashSet::new();
        for minter in &minters {
            for _ in 0..1000 {
                assert!(seen.insert(minter.mint()), "fleet ids must never collide");
            }
        }
        assert_eq!(seen.len(), 4000);
        assert!(!seen.contains(&SessionId::SOLO));
        assert!(!seen.contains(&SessionId::LIVENESS));
    }

    #[test]
    fn ring_points_spread_dense_counters() {
        // Successive ids must land far apart: splitmix64's finalizer is
        // a permutation, so 10k dense inputs give 10k distinct points,
        // and the low/high halves of the 64-bit space both get hit.
        let points: Vec<u64> = (1..=10_000u64).map(ring_point).collect();
        let distinct: HashSet<&u64> = points.iter().collect();
        assert_eq!(distinct.len(), points.len());
        let low = points.iter().filter(|&&p| p < u64::MAX / 2).count();
        assert!((3000..7000).contains(&low), "lopsided spread: {low}/10000");
    }

    #[test]
    fn ring_point_is_stable() {
        // Placement must agree across nodes and releases: pin the map.
        assert_eq!(ring_point(0), 16294208416658607535);
        assert_eq!(session_point(SessionId(1)), ring_point(1));
    }
}
