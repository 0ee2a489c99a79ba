//! The placement ring: which node owns which session.
//!
//! Placement is consistent hashing: node indices and session ids are
//! hashed onto one 64-bit ring
//! ([`sap_core::placement::ring_point`]), and a session is owned by the
//! first node clockwise at-or-after its point. Every node computes the
//! same owner from the same membership view, so ownership needs no
//! coordination beyond membership itself.
//!
//! Every fleet node holds the full membership view (all nodes share one
//! process and one liveness plane) and a direct lane to every other
//! node, so [`HashRing`] is the ring over the alive set and nothing is
//! routed along it: it answers *who owns a session*, never *which hop
//! comes next*.

use sap_core::placement::{ring_point, session_point};
use sap_net::SessionId;
use std::collections::BTreeMap;

/// Salt mixed into node indices before hashing, so a node's ring point
/// never collides with the point of a session id equal to its index
/// (both spaces are dense small integers).
const NODE_SALT: u64 = 0x4E0D_E5A1_0000_0000;

/// A fleet node's point on the placement ring.
pub fn node_point(node: usize) -> u64 {
    ring_point(node as u64 ^ NODE_SALT)
}

/// A consistent-hashing ring over fleet node indices.
///
/// Rebuilt from the membership view on demand — the ring is a pure
/// function of the alive set, never incrementally mutated state that
/// could drift from it.
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    points: BTreeMap<u64, usize>,
}

impl HashRing {
    /// Builds the ring of the given members.
    pub fn from_members(members: impl IntoIterator<Item = usize>) -> HashRing {
        HashRing {
            points: members.into_iter().map(|n| (node_point(n), n)).collect(),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The owner of a ring point: the first member at-or-after it,
    /// wrapping (the point's successor). `None` on an empty ring.
    pub fn owner_of_point(&self, point: u64) -> Option<usize> {
        self.points
            .range(point..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|(_, &n)| n)
    }

    /// The owner of a session.
    pub fn owner_of(&self, id: SessionId) -> Option<usize> {
        self.owner_of_point(session_point(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership_is_total_and_stable() {
        let ring = HashRing::from_members(0..4);
        assert_eq!(ring.len(), 4);
        for raw in 1..200u64 {
            let owner = ring.owner_of(SessionId(raw)).unwrap();
            assert!(owner < 4);
            // Same id, same owner, every time.
            assert_eq!(ring.owner_of(SessionId(raw)), Some(owner));
        }
    }

    #[test]
    fn removal_only_moves_the_removed_nodes_keys() {
        let full = HashRing::from_members(0..4);
        let smaller = HashRing::from_members((0..4).filter(|&n| n != 2));
        for raw in 1..500u64 {
            let before = full.owner_of(SessionId(raw)).unwrap();
            let after = smaller.owner_of(SessionId(raw)).unwrap();
            if before != 2 {
                assert_eq!(before, after, "id {raw} moved without cause");
            } else {
                assert_ne!(after, 2);
            }
        }
    }
}
