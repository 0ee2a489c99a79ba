//! The coordinator's random-exchange plan.
//!
//! Section 3 of the brief: the coordinator `DP_k` generates a random
//! permutation `τ` of the `k` providers and lets `DPᵢ` receive the dataset
//! of `DP_{τ(i)}`. Because the coordinator later holds every space adaptor —
//! enough to undo any perturbation it could also see — it must not receive
//! any dataset, so its receiving slot is redirected to a uniformly random
//! non-coordinator `j`: the mapping becomes
//! `(1, …, k−1, j) ← (τ(1), …, τ(k))`. Every dataset then lands on one of
//! the `k−1` non-coordinator providers, giving the miner's-view source
//! identifiability `πᵢ = 1/(k−1)`.

use rand::seq::SliceRandom;
use rand::{Rng, RngExt};

/// The exchange plan: who receives (and therefore relays) each provider's
/// perturbed dataset. Indices are provider positions `0..k`; the coordinator
/// is a position in that range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangePlan {
    /// `receiver_of[owner]` = the provider that receives `owner`'s dataset.
    receiver_of: Vec<usize>,
    /// Position of the coordinator.
    coordinator: usize,
}

impl ExchangePlan {
    /// Draws a random exchange plan for `k` providers with the coordinator
    /// at position `coordinator`.
    ///
    /// # Panics
    ///
    /// Panics when `k < 3` (with `k = 2` the single non-coordinator receiver
    /// would identify every source) or `coordinator >= k`.
    pub fn random<R: Rng + ?Sized>(k: usize, coordinator: usize, rng: &mut R) -> Self {
        assert!(k >= 3, "exchange requires at least 3 providers");
        assert!(coordinator < k, "coordinator index out of range");

        // τ: receiver position i receives from owner τ(i). Draw τ as a
        // uniform permutation of owners, and the redirect target j
        // uniformly among the non-coordinators.
        let mut owners: Vec<usize> = (0..k).collect();
        owners.shuffle(rng);
        let mut j = rng.random_range(0..k - 1);
        if j >= coordinator {
            j += 1;
        }
        Self::from_draw(&owners, coordinator, j)
    }

    /// The plan of one draw: receiver `i` gets the dataset of `owners[i]`,
    /// except that the coordinator's receiving slot is redirected to `j`.
    fn from_draw(owners: &[usize], coordinator: usize, j: usize) -> Self {
        // receiver_of[owner] = position i with τ(i) = owner.
        let mut receiver_of = vec![0usize; owners.len()];
        for (receiver, &owner) in owners.iter().enumerate() {
            receiver_of[owner] = receiver;
        }
        receiver_of[owners[coordinator]] = j;
        ExchangePlan {
            receiver_of,
            coordinator,
        }
    }

    /// Number of providers.
    pub fn k(&self) -> usize {
        self.receiver_of.len()
    }

    /// The coordinator's position.
    pub fn coordinator(&self) -> usize {
        self.coordinator
    }

    /// Receiver of `owner`'s dataset.
    ///
    /// # Panics
    ///
    /// Panics when `owner >= k`.
    pub fn receiver_of(&self, owner: usize) -> usize {
        self.receiver_of[owner]
    }

    /// How many datasets `receiver` will be handed (0 for the coordinator,
    /// 1 for most providers, 2 for the redirect target).
    pub fn incoming_count(&self, receiver: usize) -> usize {
        self.receiver_of.iter().filter(|&&r| r == receiver).count()
    }

    /// The miner's-view source identifiability `1/(k−1)`: a bound on the
    /// probability that a miner which sees each slot's forwarder (the
    /// adaptor table arrives sorted by slot tag) names the slot's owner.
    /// The exact enumeration in this module's tests proves a
    /// Bayes-optimal miner stays within it; its success is exactly `1/k`.
    pub fn identifiability(&self) -> f64 {
        1.0 / (self.k() - 1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    #[test]
    fn plan_is_valid_for_many_draws() {
        let mut rng = StdRng::seed_from_u64(1);
        for k in 3..12 {
            for coord in 0..k {
                for _ in 0..20 {
                    let plan = ExchangePlan::random(k, coord, &mut rng);
                    // The coordinator receives nothing and every dataset
                    // has a receiver among the `k−1` others.
                    assert!(
                        plan.receiver_of.iter().all(|&r| r < k && r != coord)
                            && plan.incoming_count(coord) == 0,
                        "invalid plan k={k} coord={coord}"
                    );
                    assert_eq!(plan.k(), k);
                }
            }
        }
    }

    #[test]
    fn coordinator_never_receives() {
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..200 {
            let plan = ExchangePlan::random(6, 5, &mut rng);
            assert_eq!(plan.incoming_count(5), 0);
            for owner in 0..6 {
                assert_ne!(plan.receiver_of(owner), 5);
            }
        }
    }

    #[test]
    fn every_dataset_is_received_and_counts_sum() {
        let mut rng = StdRng::seed_from_u64(3);
        let plan = ExchangePlan::random(7, 6, &mut rng);
        let total: usize = (0..7).map(|r| plan.incoming_count(r)).sum();
        assert_eq!(total, 7, "all 7 datasets must land somewhere");
        // Exactly one receiver got doubled (the redirect).
        let doubled = (0..7).filter(|&r| plan.incoming_count(r) == 2).count();
        assert_eq!(doubled, 1);
    }

    #[test]
    fn receivers_are_roughly_uniform() {
        // Over many draws, each non-coordinator should receive owner 0's
        // dataset about equally often: identifiability ≈ 1/(k−1).
        let mut rng = StdRng::seed_from_u64(4);
        let k = 5;
        let draws = 20_000;
        let mut counts = vec![0usize; k];
        for _ in 0..draws {
            let plan = ExchangePlan::random(k, k - 1, &mut rng);
            counts[plan.receiver_of(0)] += 1;
        }
        assert_eq!(counts[k - 1], 0, "coordinator never receives");
        let expected = draws as f64 / (k - 1) as f64;
        for (r, &c) in counts.iter().enumerate().take(k - 1) {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.08, "receiver {r}: count {c} vs expected {expected}");
        }
    }

    /// Every permutation of `0..k`.
    fn permutations(k: usize) -> Vec<Vec<usize>> {
        if k == 0 {
            return vec![Vec::new()];
        }
        permutations(k - 1)
            .into_iter()
            .flat_map(|p| {
                (0..k).map(move |i| {
                    let mut q = p.clone();
                    q.insert(i, k - 1);
                    q
                })
            })
            .collect()
    }

    /// Exact enumeration over every `(τ, j)` pair `random` can draw, each
    /// equally likely. The miner gets the adaptor table sorted by random
    /// slot tags, so a slot's position carries nothing; what it sees is
    /// each slot's forwarder and, from all of them, how many slots each
    /// provider forwarded. A Bayes-optimal miner names, for a slot, the
    /// owner most likely given that view. Its success is at most
    /// `identifiability()` — in fact exactly `1/k`.
    #[test]
    fn bayes_optimal_miner_names_the_owner_at_most_at_identifiability() {
        for k in 3..=6 {
            let coordinator = k - 1;
            // (forwarder, slots forwarded by each provider) → owner counts.
            let mut joint: HashMap<(usize, Vec<usize>), Vec<u64>> = HashMap::new();
            let mut cases = 0u64;
            for owners in permutations(k) {
                for j in (0..k).filter(|&j| j != coordinator) {
                    let plan = ExchangePlan::from_draw(&owners, coordinator, j);
                    let forwarded: Vec<usize> = (0..k).map(|r| plan.incoming_count(r)).collect();
                    for owner in 0..k {
                        let view = (plan.receiver_of(owner), forwarded.clone());
                        joint.entry(view).or_insert_with(|| vec![0; k])[owner] += 1;
                        cases += 1;
                    }
                }
            }
            assert_eq!(
                cases,
                (1..=k as u64).product::<u64>() * (k as u64 - 1) * k as u64
            );
            let hits: u64 = joint
                .values()
                .filter_map(|owners| owners.iter().max())
                .sum();
            let plan = ExchangePlan::from_draw(&(0..k).collect::<Vec<_>>(), coordinator, 0);
            let success = hits as f64 / cases as f64;
            assert!(
                success <= plan.identifiability() + 1e-12,
                "k = {k}: miner names the owner with probability {success}"
            );
            assert_eq!(hits * k as u64, cases, "k = {k}: success is exactly 1/k");
        }
    }

    #[test]
    fn identifiability_formula() {
        let mut rng = StdRng::seed_from_u64(5);
        let plan = ExchangePlan::random(9, 8, &mut rng);
        assert!((plan.identifiability() - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn two_providers_panics() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = ExchangePlan::random(2, 1, &mut rng);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_coordinator_panics() {
        let mut rng = StdRng::seed_from_u64(7);
        let _ = ExchangePlan::random(4, 4, &mut rng);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = ExchangePlan::random(6, 5, &mut StdRng::seed_from_u64(8));
        let b = ExchangePlan::random(6, 5, &mut StdRng::seed_from_u64(8));
        assert_eq!(a, b);
    }
}
