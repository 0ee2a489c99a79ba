//! Cross-crate property tests: the perturbation/adaptor algebra and the
//! privacy metric, driven by proptest over random dimensions and seeds.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_repro::core::messages::SapMessage;
use sap_repro::linalg::{norms, randn_matrix};
use sap_repro::perturb::{GeometricPerturbation, Perturbation, SpaceAdaptor};
use sap_repro::privacy::metric::minimum_privacy_guarantee;
use sap_repro::privacy::risk::{min_parties, sap_risk};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The space-adaptation identity A_it(G_i(X)) = G_t(X) holds for any
    /// dimensions and any pair of random spaces (noise-free).
    #[test]
    fn adaptor_identity(seed in any::<u64>(), d in 2usize..9, n in 2usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = randn_matrix(d, n, &mut rng);
        let gi = Perturbation::random(d, &mut rng);
        let gt = Perturbation::random(d, &mut rng);
        let adaptor = SpaceAdaptor::between(&gi, &gt).unwrap();
        let yt = adaptor.apply(&gi.apply_clean(&x));
        prop_assert!(yt.approx_eq(&gt.apply_clean(&x), 1e-7));
    }

    /// With noise, the adaptor output differs from G_t(X) by exactly the
    /// rotated noise — which has the same Frobenius norm as the original.
    #[test]
    fn adaptor_noise_inheritance(seed in any::<u64>(), d in 2usize..7, n in 4usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = randn_matrix(d, n, &mut rng);
        let gi = GeometricPerturbation::random(d, 0.3, &mut rng);
        let gt = Perturbation::random(d, &mut rng);
        let (yi, delta) = gi.perturb(&x, &mut rng);
        let adaptor = SpaceAdaptor::between(gi.base(), &gt).unwrap();
        let yt = adaptor.apply(&yi);
        let residual = &yt - &gt.apply_clean(&x);
        prop_assert!(
            (residual.frobenius_norm() - delta.frobenius_norm()).abs() < 1e-7,
            "inherited noise norm must match the original noise norm"
        );
    }

    /// The privacy metric is zero iff the estimate equals the original, and
    /// grows with perturbation magnitude.
    #[test]
    fn privacy_metric_behaviour(seed in any::<u64>(), d in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = randn_matrix(d, 60, &mut rng);
        prop_assert_eq!(minimum_privacy_guarantee(&x, &x), 0.0);
        let small = &x + &randn_matrix(d, 60, &mut rng).scale(0.01);
        let large = &x + &randn_matrix(d, 60, &mut rng).scale(1.0);
        let rho_small = minimum_privacy_guarantee(&x, &small);
        let rho_large = minimum_privacy_guarantee(&x, &large);
        prop_assert!(rho_small >= 0.0);
        prop_assert!(rho_large > rho_small);
    }

    /// Eq. (2) stays in [0, 1] and is non-increasing in k for any valid
    /// parameter combination.
    #[test]
    fn sap_risk_bounded_and_monotone(
        b in 0.05f64..2.0,
        rho_frac in 0.0f64..1.0,
        s in 0.0f64..1.5,
    ) {
        let rho = rho_frac * b;
        let mut prev = f64::INFINITY;
        for k in 2..30usize {
            let r = sap_risk(b, rho, s, k);
            prop_assert!((0.0..=1.0).contains(&r), "risk {r} out of [0,1]");
            prop_assert!(r <= prev + 1e-12, "risk must not increase with k");
            prev = r;
        }
    }

    /// The Figure 4 bound is monotone in both arguments wherever finite.
    #[test]
    fn min_parties_monotone(s0 in 0.5f64..0.99, o in 0.5f64..0.99) {
        let k = min_parties(s0, o).unwrap();
        prop_assert!(k >= 2);
        if let Some(k2) = min_parties((s0 + 0.005).min(1.0), o) {
            prop_assert!(k2 >= k);
        }
        if let Some(k3) = min_parties(s0, (o + 0.005).min(1.0)) {
            prop_assert!(k3 >= k);
        }
    }

    /// Perturbation inversion recovers the data exactly (no noise) for any
    /// dimension — the algebra behind the coordinator-exclusion rule.
    #[test]
    fn perturbation_invertibility(seed in any::<u64>(), d in 1usize..10) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = randn_matrix(d, 15, &mut rng);
        let g = Perturbation::random(d, &mut rng);
        let back = g.invert_clean(&g.apply_clean(&x));
        prop_assert!(norms::rms_difference(&back, &x) < 1e-9);
    }

    /// Wire-codec roundtrip of the matrices the protocol ships, carried
    /// the way they travel: as the rotation of an adaptor message. Any
    /// square matrix goes, orthogonal or not; the bits come back exactly.
    #[test]
    fn matrix_wire_roundtrip(seed in any::<u64>(), d in 1usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let m = randn_matrix(d, d, &mut rng);
        let t = randn_matrix(1, d, &mut rng).into_vec();
        let msg = SapMessage::Adaptor {
            adaptor: SpaceAdaptor::from_parts(m.clone(), t).unwrap(),
        };
        let bytes = sap_repro::net::wire::to_bytes(&msg);
        let back: SapMessage = sap_repro::net::wire::from_bytes(&bytes).unwrap();
        let SapMessage::Adaptor { adaptor } = &back else {
            panic!("decoded a different variant: {back:?}");
        };
        prop_assert_eq!(adaptor.rotation(), &m);
        prop_assert_eq!(back, msg);
    }
}
