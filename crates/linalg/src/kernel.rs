//! Register-blocked compute kernels behind [`Matrix::matmul`],
//! [`Matrix::mul_transpose`] and [`Matrix::column_covariance`].
//!
//! Every kernel here is a *schedule* change, never a *semantics* change:
//! the per-output-element floating-point accumulation order is pinned to
//! the straightforward reference loops that shipped first ([`matmul_rows`],
//! and the record-outer covariance loop kept in this module's tests), so
//! results are **bit-identical** to those references at any tile size.
//! That invariant is what the block-partition invariance of session
//! outcomes rests on, and it is property-tested in
//! `tests/kernel_equivalence.rs`.
//!
//! # The tiling invariant that preserves bit-identity
//!
//! For `C = A·B`, every output element is
//!
//! ```text
//! C[i][j] = Σ_k A[i][k]·B[k][j]      (k ascending, A[i][k] == 0 skipped)
//! ```
//!
//! accumulated left-to-right from `0.0`. Register blocking changes *which*
//! output elements are in flight at once (an `MR`-row tile instead of
//! one) but never reorders the `k` walk of any single element, so every
//! intermediate sum is the exact `f64` the reference produces. The
//! zero-skip rule (`A[i][k] == 0.0` contributes nothing and is not added)
//! is likewise applied per `(i, k)` in every kernel.
//!
//! # Layout
//!
//! * [`matmul_rows`] — the cache-blocked i-k-j product every `A·B` runs.
//! * [`mul_transpose_rows`] — 4 × 4 register blocking for `A·Bᵀ`, where
//!   both operands are walked along contiguous rows (row-major rows *are*
//!   the panels, so nothing is packed).
//! * [`column_covariance_packed`] — 4 × 4 tiles of the Gram/covariance
//!   matrix accumulated in registers while streaming the `N` records
//!   once; the reference walks `d²/2` strided columns per record.

use crate::matrix::Matrix;

/// Register-tile height: output rows in flight per microkernel call.
pub const MR: usize = 4;

/// Column-block width of the reference multiply: a `cols × 512` panel of
/// the right factor (≤ 64 KiB for the dimensionalities this workspace
/// uses) stays resident across the row sweep instead of being re-streamed
/// once per output row.
const MATMUL_COL_BLOCK: usize = 512;

/// The pinned reference spec: adds `lhs * rhs` into the contiguous
/// row-major slice `out` (`lhs.rows() × rhs.cols()`, zeroed by the
/// caller) with the cache-blocked i-k-j loop.
///
/// The i-k-j order keeps the inner loop sequential over both the output
/// row and the rhs row; the j-blocking only re-orders *which columns* are
/// touched when, never the per-element `k` accumulation order, so the
/// result is bit-identical to the unblocked triple loop. The transpose
/// kernel is pinned to this function too.
pub fn matmul_rows(lhs: &Matrix, rhs: &Matrix, out: &mut [f64]) {
    let n = rhs.cols();
    let rows = lhs.rows();
    debug_assert_eq!(out.len(), rows * n, "matmul output shape");
    let a = lhs.as_slice();
    let b = rhs.as_slice();
    let lcols = lhs.cols();
    for jb in (0..n).step_by(MATMUL_COL_BLOCK) {
        let je = (jb + MATMUL_COL_BLOCK).min(n);
        for i in 0..rows {
            let a_row = &a[i * lcols..(i + 1) * lcols];
            let (out_start, out_end) = (i * n + jb, i * n + je);
            for (k, &x) in a_row.iter().enumerate() {
                if x == 0.0 {
                    continue;
                }
                let rhs_row = &b[k * n + jb..k * n + je];
                let out_row = &mut out[out_start..out_end];
                for (o, &y) in out_row.iter_mut().zip(rhs_row) {
                    *o += x * y;
                }
            }
        }
    }
}

/// Register-blocked `A · Bᵀ`: writes `lhs · rhsᵀ` into the contiguous
/// row-major slice `out` (`lhs.rows() × rhs.rows()`).
///
/// Output element `(i, j)` is the dot product of `lhs` row `i` and `rhs`
/// row `j` — both contiguous in row-major storage, so no packing is
/// needed; the 4 × 4 register blocking streams both operands once per
/// tile. The `k` walk is ascending with the `lhs[i][k] == 0.0` skip,
/// making the result **bit-identical** to
/// `lhs.matmul(&rhs.transpose())`.
pub fn mul_transpose_rows(lhs: &Matrix, rhs: &Matrix, out: &mut [f64]) {
    /// Column-tile width of the transpose kernel: `TNR` `rhs` rows are
    /// streamed together per tile.
    const TNR: usize = 4;
    let n = rhs.rows();
    let kdim = lhs.cols();
    debug_assert_eq!(rhs.cols(), kdim, "mul_transpose inner dim mismatch");
    let rows = lhs.rows();
    debug_assert_eq!(out.len(), rows * n, "mul_transpose output shape");
    let a = lhs.as_slice();
    let b = rhs.as_slice();

    let mut i = 0;
    while i + MR <= rows {
        let arow = [
            &a[i * kdim..(i + 1) * kdim],
            &a[(i + 1) * kdim..(i + 2) * kdim],
            &a[(i + 2) * kdim..(i + 3) * kdim],
            &a[(i + 3) * kdim..(i + 4) * kdim],
        ];
        let mut j = 0;
        while j + TNR <= n {
            let brow = [
                &b[j * kdim..(j + 1) * kdim],
                &b[(j + 1) * kdim..(j + 2) * kdim],
                &b[(j + 2) * kdim..(j + 3) * kdim],
                &b[(j + 3) * kdim..(j + 4) * kdim],
            ];
            let mut c = [[0.0f64; TNR]; MR];
            for k in 0..kdim {
                let bv = [brow[0][k], brow[1][k], brow[2][k], brow[3][k]];
                for ii in 0..MR {
                    let x = arow[ii][k];
                    if x != 0.0 {
                        c[ii][0] += x * bv[0];
                        c[ii][1] += x * bv[1];
                        c[ii][2] += x * bv[2];
                        c[ii][3] += x * bv[3];
                    }
                }
            }
            for ii in 0..MR {
                out[(i + ii) * n + j..(i + ii) * n + j + TNR].copy_from_slice(&c[ii]);
            }
            j += TNR;
        }
        // Ragged columns of this 4-row band: the band's four dot products
        // with one `rhs` row run as independent chains.
        while j < n {
            let br = &b[j * kdim..(j + 1) * kdim];
            let mut c = [0.0f64; MR];
            for (k, &y) in br.iter().enumerate() {
                for (cv, ar) in c.iter_mut().zip(&arow) {
                    let x = ar[k];
                    if x != 0.0 {
                        *cv += x * y;
                    }
                }
            }
            for (ii, &cv) in c.iter().enumerate() {
                out[(i + ii) * n + j] = cv;
            }
            j += 1;
        }
        i += MR;
    }
    // Ragged rows: `TNR` dot products at a time as independent chains,
    // then plain dot products; same k walk.
    while i < rows {
        let ar = &a[i * kdim..(i + 1) * kdim];
        let mut j = 0;
        while j + TNR <= n {
            let mut c = [0.0f64; TNR];
            for (k, &x) in ar.iter().enumerate() {
                if x != 0.0 {
                    for (jj, cv) in c.iter_mut().enumerate() {
                        *cv += x * b[(j + jj) * kdim + k];
                    }
                }
            }
            out[i * n + j..i * n + j + TNR].copy_from_slice(&c);
            j += TNR;
        }
        while j < n {
            out[i * n + j] = dot_skip_zero(ar, &b[j * kdim..(j + 1) * kdim]);
            j += 1;
        }
        i += 1;
    }
}

/// Ascending-`k` dot product with the left-factor zero skip — the scalar
/// form of every microkernel element in this module.
#[inline]
fn dot_skip_zero(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0f64;
    for (k, &x) in a.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        acc += x * b[k];
    }
    acc
}

/// Tiled covariance of the columns of a `d × N` matrix: 4 × 4 register
/// tiles of the upper triangle, each streaming the `N` records once over
/// contiguous rows, **bit-identical** to the record-outer reference loop
/// that shipped first (kept in this module's tests: each element's record
/// walk is ascending `j` from `0.0`, with the same centered factors).
///
/// The reference reads `d` strided columns per record (`x[(a, j)]` hops
/// `N` doubles per step); this kernel reads 8 contiguous row streams per
/// tile, which is what makes whitening-covariance construction memory-
/// bandwidth-bound instead of latency-bound.
///
/// # Panics
///
/// Panics if the matrix has fewer than two columns.
pub fn column_covariance_packed(x: &Matrix) -> Matrix {
    assert!(x.cols() >= 2, "covariance needs at least two columns");
    let d = x.rows();
    let n = x.cols();
    let mu = x.row_means();
    let data = x.as_slice();
    let mut cov = Matrix::zeros(d, d);

    let mut a0 = 0;
    while a0 < d {
        let am = MR.min(d - a0);
        let mut b0 = a0;
        while b0 < d {
            let bm = MR.min(d - b0);
            let mut c = [[0.0f64; MR]; MR];
            for j in 0..n {
                let mut da = [0.0f64; MR];
                let mut db = [0.0f64; MR];
                for (ii, slot) in da.iter_mut().take(am).enumerate() {
                    *slot = data[(a0 + ii) * n + j] - mu[a0 + ii];
                }
                for (kk, slot) in db.iter_mut().take(bm).enumerate() {
                    *slot = data[(b0 + kk) * n + j] - mu[b0 + kk];
                }
                for ii in 0..am {
                    for kk in 0..bm {
                        c[ii][kk] += da[ii] * db[kk];
                    }
                }
            }
            for (ii, row) in c.iter().enumerate().take(am) {
                for (kk, &v) in row.iter().enumerate().take(bm) {
                    let (r, cc) = (a0 + ii, b0 + kk);
                    if cc >= r {
                        cov[(r, cc)] = v;
                    }
                }
            }
            b0 += bm;
        }
        a0 += am;
    }

    let denom = (n - 1) as f64;
    for a in 0..d {
        for b in a..d {
            cov[(a, b)] /= denom;
            cov[(b, a)] = cov[(a, b)];
        }
    }
    cov
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_matrix(rows: usize, cols: usize, seed: u64, zero_every: usize) -> Matrix {
        let mut state = seed | 1;
        Matrix::from_fn(rows, cols, |r, c| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            if zero_every > 0 && (r + c) % zero_every == 0 {
                0.0
            } else {
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            }
        })
    }

    fn reference_product(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        matmul_rows(a, b, out.as_mut_slice());
        out
    }

    #[test]
    fn mul_transpose_rows_matches_explicit_transpose() {
        for &(m, k, n, z) in &[
            (1usize, 1usize, 1usize, 0usize),
            (4, 5, 4, 0),
            (9, 3, 6, 2),
            (6, 17, 11, 3),
        ] {
            let a = lcg_matrix(m, k, 0xAAA ^ m as u64, z);
            let b = lcg_matrix(n, k, 0xBBB ^ n as u64, 0);
            let via_transpose = reference_product(&a, &b.transpose());
            let mut fast = Matrix::zeros(m, n);
            mul_transpose_rows(&a, &b, fast.as_mut_slice());
            assert_eq!(
                fast.as_slice(),
                via_transpose.as_slice(),
                "m={m} k={k} n={n}"
            );
        }
    }

    /// The pinned reference spec for [`Matrix::column_covariance`]: the
    /// record-outer loop that shipped first. Every output element `(a, b)`
    /// accumulates `(x[a][j] − μ[a])·(x[b][j] − μ[b])` over records `j`
    /// ascending; the upper triangle is computed, divided by `N − 1`, then
    /// mirrored.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has fewer than two columns.
    fn column_covariance_reference(x: &Matrix) -> Matrix {
        assert!(x.cols() >= 2, "covariance needs at least two columns");
        let d = x.rows();
        let mu = x.row_means();
        let mut cov = Matrix::zeros(d, d);
        for j in 0..x.cols() {
            for a in 0..d {
                let da = x[(a, j)] - mu[a];
                for b in a..d {
                    let db = x[(b, j)] - mu[b];
                    cov[(a, b)] += da * db;
                }
            }
        }
        let denom = (x.cols() - 1) as f64;
        for a in 0..d {
            for b in a..d {
                cov[(a, b)] /= denom;
                cov[(b, a)] = cov[(a, b)];
            }
        }
        cov
    }

    #[test]
    fn covariance_kernels_agree_bitwise() {
        for &(d, n) in &[(1usize, 2usize), (2, 5), (3, 17), (5, 40), (9, 101)] {
            let x = lcg_matrix(d, n, 0xC0FFEE ^ (d as u64) << 8 ^ n as u64, 3);
            let fast = column_covariance_packed(&x);
            let slow = column_covariance_reference(&x);
            assert_eq!(fast.as_slice(), slow.as_slice(), "d={d} n={n}");
        }
    }
}
