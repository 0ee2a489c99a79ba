//! LU decomposition with partial pivoting.
//!
//! Its one job is the determinant: [`crate::orthogonal::random_rotation`]
//! reads the sign of `det` to turn a reflection into a rotation. The
//! protocol never inverts a general matrix; rotations are inverted by
//! their transpose.

use crate::error::{LinalgError, Result};
use crate::matrix::Matrix;

/// LU decomposition `P·A = L·U` with partial (row) pivoting.
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (strict lower, implicit unit diagonal) and U (upper).
    lu: Matrix,
    /// Sign of the permutation (+1.0 or −1.0), for the determinant.
    perm_sign: f64,
}

/// Pivot magnitudes below this are treated as zero (singular).
const PIVOT_EPS: f64 = 1e-12;

impl LuDecomposition {
    /// Factorizes a square matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Singular`] when a pivot underflows `1e-12`
    /// relative to the matrix scale.
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.rows();
        if n == 0 {
            return Err(LinalgError::InvalidDimension {
                reason: "LU requires a non-empty matrix",
            });
        }
        let scale = a.max_abs().max(1.0);
        let mut lu = a.clone();
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Find pivot row.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in k + 1..n {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best < PIVOT_EPS * scale {
                return Err(LinalgError::Singular);
            }
            if p != k {
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
                perm_sign = -perm_sign;
            }
            let pivot = lu[(k, k)];
            for i in k + 1..n {
                let factor = lu[(i, k)] / pivot;
                lu[(i, k)] = factor;
                for j in k + 1..n {
                    let sub = factor * lu[(k, j)];
                    lu[(i, j)] -= sub;
                }
            }
        }

        Ok(LuDecomposition { lu, perm_sign })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        let mut d = self.perm_sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }
}

/// Convenience: determinant of a square matrix via LU. Singular matrices
/// report determinant `0.0` rather than an error.
///
/// # Errors
///
/// Returns [`LinalgError::NotSquare`] for non-square input.
pub fn det(a: &Matrix) -> Result<f64> {
    match LuDecomposition::new(a) {
        Ok(lu) => Ok(lu.det()),
        Err(LinalgError::Singular) => Ok(0.0),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::randn_matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn det_of_triangular_is_diagonal_product() {
        let a = Matrix::from_rows(&[
            vec![2.0, 5.0, 1.0],
            vec![0.0, 3.0, 7.0],
            vec![0.0, 0.0, -4.0],
        ]);
        assert!((det(&a).unwrap() - (-24.0)).abs() < 1e-10);
    }

    #[test]
    fn det_sign_tracks_row_swap() {
        // Permutation matrix swapping two rows has det -1.
        let p = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!((det(&p).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_reports_error_and_zero_det() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::Singular)
        ));
        assert_eq!(det(&a).unwrap(), 0.0);
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            LuDecomposition::new(&a),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn det_of_random_product_multiplies() {
        let mut rng = StdRng::seed_from_u64(20);
        let a = randn_matrix(4, 4, &mut rng);
        let b = randn_matrix(4, 4, &mut rng);
        let da = det(&a).unwrap();
        let db = det(&b).unwrap();
        let dab = det(&(&a * &b)).unwrap();
        assert!((dab - da * db).abs() < 1e-8 * dab.abs().max(1.0));
    }
}
