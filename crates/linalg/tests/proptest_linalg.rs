//! Property-based tests for the linear-algebra substrate.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_linalg::orthogonal::{random_orthogonal, random_rotation};
use sap_linalg::qr::QrDecomposition;
use sap_linalg::svd::Svd;
use sap_linalg::{randn_matrix, vecops, Matrix};

/// `det(a) = (−1)^reflections · ∏ R_ii`.
fn qr_det(a: &Matrix) -> f64 {
    let qr = QrDecomposition::new(a).unwrap();
    let sign = (-1f64).powi(qr.reflections() as i32);
    sign * (0..a.rows()).map(|i| qr.r()[(i, i)]).product::<f64>()
}

fn small_dim() -> impl Strategy<Value = usize> {
    1usize..8
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// R · Rᵀ = I for Haar-sampled orthogonal matrices of any dimension.
    #[test]
    fn random_orthogonal_satisfies_identity(d in small_dim(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let q = random_orthogonal(d, &mut rng);
        prop_assert!(q.is_orthogonal(1e-8));
    }

    /// Rotations preserve pairwise distances (the property that makes
    /// KNN/SVM invariant under geometric perturbation).
    #[test]
    fn rotation_preserves_pairwise_distance(d in 2usize..7, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let r = random_rotation(d, &mut rng);
        let x = sap_linalg::randn_vec(d, &mut rng);
        let y = sap_linalg::randn_vec(d, &mut rng);
        let rx = r.matvec(&x).unwrap();
        let ry = r.matvec(&y).unwrap();
        let before = vecops::dist2(&x, &y);
        let after = vecops::dist2(&rx, &ry);
        prop_assert!((before - after).abs() < 1e-8 * (1.0 + before));
    }

    /// (A·B)ᵀ = Bᵀ·Aᵀ.
    #[test]
    fn transpose_of_product(seed in any::<u64>(), m in 1usize..6, k in 1usize..6, n in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randn_matrix(m, k, &mut rng);
        let b = randn_matrix(k, n, &mut rng);
        let lhs = (&a * &b).transpose();
        let rhs = &b.transpose() * &a.transpose();
        prop_assert!(lhs.approx_eq(&rhs, 1e-10));
    }

    /// Matrix multiplication is associative.
    #[test]
    fn matmul_associative(seed in any::<u64>(), n in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randn_matrix(n, n, &mut rng);
        let b = randn_matrix(n, n, &mut rng);
        let c = randn_matrix(n, n, &mut rng);
        let lhs = &(&a * &b) * &c;
        let rhs = &a * &(&b * &c);
        prop_assert!(lhs.approx_eq(&rhs, 1e-8));
    }

    /// QR reconstructs its input.
    #[test]
    fn qr_reconstructs(seed in any::<u64>(), m in 1usize..7, n in 1usize..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randn_matrix(m, n, &mut rng);
        let qr = QrDecomposition::new(&a).unwrap();
        prop_assert!((qr.q() * qr.r()).approx_eq(&a, 1e-8));
        prop_assert!(qr.q().is_orthogonal(1e-8));
    }

    /// SVD reconstructs its input and sorts singular values.
    #[test]
    fn svd_reconstructs(seed in any::<u64>(), m in 1usize..7, n in 1usize..7) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randn_matrix(m, n, &mut rng);
        let svd = Svd::new(&a).unwrap();
        prop_assert!(svd.reconstruct().approx_eq(&a, 1e-7));
        for w in svd.singular_values().windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
    }

    /// det(A·B) = det(A)·det(B), each determinant taken from a QR.
    #[test]
    fn det_multiplicative(seed in any::<u64>(), n in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = randn_matrix(n, n, &mut rng);
        let b = randn_matrix(n, n, &mut rng);
        let da = qr_det(&a);
        let db = qr_det(&b);
        let dab = qr_det(&(&a * &b));
        let scale = da.abs().max(db.abs()).max(1.0);
        prop_assert!((dab - da * db).abs() < 1e-6 * scale * scale);
    }
}
