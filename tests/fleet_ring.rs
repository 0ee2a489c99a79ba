//! Property tests for fleet placement ([`owner`], rendezvous hashing):
//! the owner is the highest-weight member by a linear scan, a pure
//! function of the id and the member set, a crash re-homes only the dead
//! node's sessions, every survivor names the same alive adopter for a
//! dead node, and each node owns an even share.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sap_repro::core::placement::{node_point, owner, ring_point, session_point};
use sap_repro::net::SessionId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any member subset of `0..16` and any session id, the owner is
    /// a member (none only for no members) and does not depend on the
    /// order in which a node's view lists the members.
    #[test]
    fn owner_is_deterministic_and_alive(mask in any::<u16>(), seed in any::<u64>()) {
        let members: Vec<usize> = (0..16).filter(|j| mask & (1 << j) != 0).collect();
        let reversed: Vec<usize> = members.iter().rev().copied().collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let point = session_point(SessionId(rng.random_range(0..u64::MAX)));
            let got = owner(point, members.iter().copied());
            prop_assert_eq!(got.is_none(), members.is_empty());
            prop_assert!(got.is_none_or(|n| members.contains(&n)));
            prop_assert_eq!(got, owner(point, members.iter().copied()));
            prop_assert_eq!(got, owner(point, reversed.iter().copied()));
        }
    }

    /// For any member subset of `0..16` and any session id, the owner is
    /// the linear scan's: the member with the highest weight
    /// `ring_point(session_point(id) ^ node_point(n))`, the lower index
    /// on a tie.
    #[test]
    fn ring_owner_matches_a_linear_scan(mask in any::<u16>(), seed in any::<u64>()) {
        let members: Vec<usize> = (0..16).filter(|j| mask & (1 << j) != 0).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..64 {
            let point = session_point(SessionId(rng.random_range(0..u64::MAX)));
            prop_assert_eq!(owner(point, members.iter().copied()), scan_owner(&members, point));
        }
    }

    /// Crashing a node only re-homes the sessions it owned.
    #[test]
    fn crash_only_moves_the_dead_nodes_keys(seed in any::<u64>(), n in 3usize..=8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let victim = rng.random_range(0..n);
        let survivors = || (0..n).filter(|&j| j != victim);

        for _ in 0..64 {
            let point = session_point(SessionId(rng.random_range(1..u64::MAX)));
            let owner_before = owner(point, 0..n);
            let owner_after = owner(point, survivors());
            if owner_before != Some(victim) {
                prop_assert_eq!(owner_before, owner_after);
            } else {
                prop_assert!(owner_after.is_some() && owner_after != Some(victim));
            }
        }
    }
}

/// The owner by a plain scan over `members` (ascending): a later member
/// replaces the best so far only with a strictly higher weight.
fn scan_owner(members: &[usize], point: u64) -> Option<usize> {
    let mut best: Option<(usize, u64)> = None;
    for &n in members {
        let weight = ring_point(point ^ node_point(n));
        if best.is_none_or(|(_, w)| weight > w) {
            best = Some((n, weight));
        }
    }
    best.map(|(n, _)| n)
}

/// The adopter of a dead node's un-acked registrations is the owner of
/// the dead node's own point: an alive node, and the same one whichever
/// survivor computes it (each lists the alive set in its own order).
#[test]
fn dead_nodes_adopter_is_alive_and_agreed() {
    for n in 2..=8usize {
        for dead in 0..n {
            let alive: Vec<usize> = (0..n).filter(|&j| j != dead).collect();
            let adopter = owner(node_point(dead), alive.iter().copied());
            assert!(
                adopter.is_some_and(|a| alive.contains(&a)),
                "n {n}, dead {dead}: adopter {adopter:?} is not alive"
            );
            for shift in 0..alive.len() {
                let view = alive.iter().cycle().skip(shift).take(alive.len()).copied();
                assert_eq!(owner(node_point(dead), view), adopter, "n {n}, dead {dead}");
            }
        }
    }
}

/// Each of `n` nodes owns within ±5 % of an even share of ids
/// 1–10 000, for n = 2..8.
#[test]
fn every_node_owns_an_even_share() {
    const IDS: u64 = 10_000;
    for n in 2..=8usize {
        let mut owned = vec![0u64; n];
        for raw in 1..=IDS {
            owned[owner(session_point(SessionId(raw)), 0..n).expect("members")] += 1;
        }
        let even = IDS as f64 / n as f64;
        for (node, &count) in owned.iter().enumerate() {
            let off = count as f64 / even - 1.0;
            assert!(
                off.abs() <= 0.05,
                "n {n}: node {node} owns {count} of {IDS} ids ({:+.1} % off an even share)",
                off * 100.0
            );
        }
    }
}
