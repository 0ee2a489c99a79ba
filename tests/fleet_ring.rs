//! Property tests for fleet placement: [`HashRing`] names the same owner
//! as a linear scan of the member points, for any membership and any
//! session id, and a crash re-homes only the dead node's keys.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sap_repro::core::placement::session_point;
use sap_repro::fleet::ring::{node_point, HashRing};
use sap_repro::net::SessionId;

/// The owner by definition: the member with the smallest point at or
/// after the session's point, wrapping to the smallest point overall.
fn scan_owner(members: &[usize], id: SessionId) -> Option<usize> {
    let point = session_point(id);
    let first = |at_or_after: bool| {
        members
            .iter()
            .copied()
            .filter(|&n| !at_or_after || node_point(n) >= point)
            .min_by_key(|&n| node_point(n))
    };
    first(true).or_else(|| first(false))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any member subset of `0..16` and any session id, the ring's
    /// owner is the linear scan's.
    #[test]
    fn ring_owner_matches_a_linear_scan(mask in any::<u16>(), seed in any::<u64>()) {
        let members: Vec<usize> = (0..16).filter(|j| mask & (1 << j) != 0).collect();
        let ring = HashRing::from_members(members.iter().copied());
        prop_assert_eq!(ring.len(), members.len());
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let id = SessionId(rng.random_range(0..u64::MAX));
            prop_assert_eq!(ring.owner_of(id), scan_owner(&members, id));
        }
    }

    /// Crashing a node only re-homes the keys it owned (consistent
    /// hashing's minimal-disruption contract).
    #[test]
    fn crash_only_moves_the_dead_nodes_keys(seed in any::<u64>(), n in 3usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let victim = rng.random_range(0..n);
        let before = HashRing::from_members(0..n);
        let after = HashRing::from_members((0..n).filter(|&j| j != victim));

        for _ in 0..64 {
            let id = SessionId(rng.random_range(1..u64::MAX));
            let owner_before = before.owner_of(id);
            let owner_after = after.owner_of(id);
            if owner_before != Some(victim) {
                prop_assert_eq!(owner_before, owner_after);
            } else {
                prop_assert!(owner_after.is_some() && owner_after != Some(victim));
            }
        }
    }
}
