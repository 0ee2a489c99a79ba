//! Packed, register-blocked compute kernels behind [`Matrix::matmul`],
//! [`Matrix::mul_transpose`] and [`Matrix::column_covariance`].
//!
//! Every kernel here is a *schedule* change, never a *semantics* change:
//! the per-output-element floating-point accumulation order is pinned to
//! the straightforward reference loops that shipped first ([`matmul_rows`],
//! [`column_covariance_reference`]), so results are **bit-identical** to
//! those references at any tile size, packing layout, or thread count.
//! That invariant is what the block-partition invariance of session
//! outcomes and the optimizer's serial-vs-parallel equivalence rest on,
//! and it is
//! property-tested in `tests/kernel_equivalence.rs`.
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
//! output elements are in flight at once (an `MR × NR` tile instead of
//! one), and panel packing changes *where* `B`'s elements are read from
//! (a contiguous `k`-major panel instead of strided rows) — but neither
//! reorders the `k` walk of any single element, so every intermediate sum
//! is the exact `f64` the reference produces. The zero-skip rule
//! (`A[i][k] == 0.0` contributes nothing and is not added) is likewise
//! applied per `(i, k)` in both paths.
//!
//! # Layout
//!
//! * [`pack_b`] — copies the right factor into NR-wide column panels,
//!   `k`-major inside each panel, so the microkernel's inner loop reads
//!   one contiguous cache line per `k` step instead of `NR` strided rows.
//! * [`matmul_packed_rows`] — the `MR × NR` (4 × 8) register-blocked
//!   microkernel over packed panels; the accumulator tile lives in
//!   registers across the whole `k` sweep, so the kernel does one load of
//!   `A` and one contiguous lane group of `B` per `NR` multiply-adds
//!   instead of the reference's load+store of `C` per multiply-add.
//! * [`mul_transpose_rows`] — the same register blocking for `A·Bᵀ`,
//!   where both operands are walked along contiguous rows (no packing
//!   needed — row-major rows *are* the panels).
//! * [`column_covariance_packed`] — 4 × 4 tiles of the Gram/covariance
//!   matrix accumulated in registers while streaming the `N` records
//!   once; the reference walks `d²/2` strided columns per record.

use crate::matrix::Matrix;

/// Register-tile height: output rows in flight per microkernel call.
pub const MR: usize = 4;
/// Register-tile width: output columns in flight per microkernel call
/// (also the packed panel width). Eight lanes amortize the per-`(row, k)`
/// zero-skip branch over 8 multiply-adds and give the auto-vectorizer two
/// full 4-wide vectors per accumulator row.
pub const NR: usize = 8;

/// Flop floor below which packing the right factor costs more than the
/// register-blocked kernel saves; small products stay on the reference
/// loop (same bits either way).
const PACK_MIN_FLOPS: usize = 1 << 13;

/// Packed-path routing bounds. The register-blocked kernel wins where the
/// reference's per-`(i, k)` setup cannot amortize over a long contiguous
/// inner loop: many output rows streaming against a *narrow* right factor
/// (record-block × small-rotation products, `N × d · d × d'`). With a wide
/// right factor the reference's 512-wide inner loops already saturate the
/// FP pipes and packing cannot beat them, so those shapes stay on
/// [`matmul_rows`]. Both paths are bit-identical; this is routing, not
/// semantics.
const PACK_MIN_ROWS: usize = 128;
const PACK_MAX_COLS: usize = 16;
const PACK_MAX_INNER: usize = 32;

/// Column-block width of the reference multiply: a `cols × 512` panel of
/// the right factor (≤ 64 KiB for the dimensionalities this workspace
/// uses) stays resident across the row sweep instead of being re-streamed
/// once per output row.
const MATMUL_COL_BLOCK: usize = 512;

/// The pinned reference spec: computes output rows
/// `row0 .. row0 + out.len() / rhs.cols()` of `lhs * rhs` into the
/// contiguous row-major slice `out` with the cache-blocked i-k-j loop.
///
/// The i-k-j order keeps the inner loop sequential over both the output
/// row and the rhs row; the j-blocking only re-orders *which columns* are
/// touched when, never the per-element `k` accumulation order, so the
/// result is bit-identical to the unblocked triple loop. Every faster
/// matmul path in this module is pinned to this function.
pub fn matmul_rows(lhs: &Matrix, rhs: &Matrix, row0: usize, out: &mut [f64]) {
    let n = rhs.cols();
    let rows = out.len() / n.max(1);
    let a = lhs.as_slice();
    let b = rhs.as_slice();
    let lcols = lhs.cols();
    for jb in (0..n).step_by(MATMUL_COL_BLOCK) {
        let je = (jb + MATMUL_COL_BLOCK).min(n);
        for i in 0..rows {
            let a_row = &a[(row0 + i) * lcols..(row0 + i + 1) * lcols];
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

/// The right factor of a matmul, repacked into NR-wide column panels.
///
/// Panel `p` covers columns `p·NR .. min((p+1)·NR, n)`; inside a panel
/// the layout is `k`-major (`panel[k·NR + jj] = B[k][p·NR + jj]`), zero
/// padded to NR lanes on the ragged last panel. The microkernel therefore
/// reads exactly one contiguous NR-word group per `k` step.
pub struct PackedB {
    panels: Vec<f64>,
    k: usize,
    n: usize,
}

impl PackedB {
    /// Inner dimension `k` (rows of the packed factor).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output width `n` (columns of the packed factor).
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn panel(&self, p: usize) -> &[f64] {
        &self.panels[p * self.k * NR..(p + 1) * self.k * NR]
    }
}

/// Packs `rhs` into [`PackedB`] panels. One pass over `rhs`, done once
/// per product and shared read-only by every worker thread.
pub fn pack_b(rhs: &Matrix) -> PackedB {
    let (k, n) = rhs.shape();
    let n_panels = n.div_ceil(NR).max(1);
    let mut panels = vec![0.0f64; n_panels * k * NR];
    let src = rhs.as_slice();
    for p in 0..n.div_ceil(NR) {
        let j0 = p * NR;
        let w = NR.min(n - j0);
        let dst = &mut panels[p * k * NR..(p + 1) * k * NR];
        for kk in 0..k {
            dst[kk * NR..kk * NR + w].copy_from_slice(&src[kk * n + j0..kk * n + j0 + w]);
        }
    }
    PackedB { panels, k, n }
}

/// `true` when a `m × k × n` product lands in the packed register-blocked
/// kernel's win region — a tall row stream against a narrow right factor
/// (see the routing-bound consts); both paths produce the same bits, so
/// this is purely a performance heuristic.
pub fn packing_pays(m: usize, k: usize, n: usize) -> bool {
    m >= PACK_MIN_ROWS
        && (NR..=PACK_MAX_COLS).contains(&n)
        && k <= PACK_MAX_INNER
        && m.saturating_mul(k).saturating_mul(n) >= PACK_MIN_FLOPS
}

/// Register-blocked microkernel: computes output rows
/// `row0 .. row0 + out.len() / packed.n()` of `lhs * B` from the packed
/// panels into the contiguous row-major slice `out`.
///
/// `MR`-row blocks run the `MR × NR` microkernel: the accumulator tile
/// lives in registers across the whole `k` sweep, each `k` step reading
/// one element per `A` row and one contiguous `NR`-lane group of the
/// panel. Leftover rows fall back to a scalar per-element loop over the
/// same panels. Both walk each output element's `k` range ascending with
/// the `A[i][k] == 0.0` skip, so the result is **bit-identical** to
/// [`matmul_rows`].
pub fn matmul_packed_rows(lhs: &Matrix, packed: &PackedB, row0: usize, out: &mut [f64]) {
    let n = packed.n;
    let kdim = packed.k;
    let rows = out.len() / n.max(1);
    debug_assert_eq!(lhs.cols(), kdim, "packed panel inner dim mismatch");
    let a = lhs.as_slice();
    let lcols = lhs.cols();
    let n_panels = n.div_ceil(NR);

    let mut i = 0;
    while i + MR <= rows {
        let ar = [
            &a[(row0 + i) * lcols..(row0 + i + 1) * lcols],
            &a[(row0 + i + 1) * lcols..(row0 + i + 2) * lcols],
            &a[(row0 + i + 2) * lcols..(row0 + i + 3) * lcols],
            &a[(row0 + i + 3) * lcols..(row0 + i + 4) * lcols],
        ];
        for p in 0..n_panels {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            let bp = packed.panel(p);
            let mut c = [[0.0f64; NR]; MR];
            for (k, lane) in bp.chunks_exact(NR).enumerate() {
                for (row, cr) in ar.iter().zip(c.iter_mut()) {
                    let x = row[k];
                    if x != 0.0 {
                        for (cj, &bj) in cr.iter_mut().zip(lane) {
                            *cj += x * bj;
                        }
                    }
                }
            }
            for (ii, lane) in c.iter().enumerate() {
                out[(i + ii) * n + j0..(i + ii) * n + j0 + w].copy_from_slice(&lane[..w]);
            }
        }
        i += MR;
    }

    // Leftover rows (rows % MR): scalar per-element loop over the same
    // panels — identical k walk, identical bits.
    while i < rows {
        let ar = &a[(row0 + i) * lcols..(row0 + i + 1) * lcols];
        for p in 0..n_panels {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            let bp = packed.panel(p);
            for jj in 0..w {
                let mut acc = 0.0f64;
                for (k, &x) in ar.iter().enumerate() {
                    if x == 0.0 {
                        continue;
                    }
                    acc += x * bp[k * NR + jj];
                }
                out[i * n + j0 + jj] = acc;
            }
        }
        i += 1;
    }
}

/// Register-blocked `A · Bᵀ`: computes output rows
/// `row0 .. row0 + out.len() / rhs.rows()` of `lhs · rhsᵀ` into the
/// contiguous row-major slice `out`.
///
/// Output element `(i, j)` is the dot product of `lhs` row `i` and `rhs`
/// row `j` — both contiguous in row-major storage, so no packing is
/// needed; the 4 × 4 register blocking streams both operands once per
/// tile. The `k` walk is ascending with the `lhs[i][k] == 0.0` skip,
/// making the result **bit-identical** to
/// `lhs.matmul(&rhs.transpose())`.
pub fn mul_transpose_rows(lhs: &Matrix, rhs: &Matrix, row0: usize, out: &mut [f64]) {
    /// Column-tile width of the transpose kernel: `TNR` `rhs` rows are
    /// streamed together per tile (independent of the packed panel width
    /// [`NR`] — here the operands are already contiguous rows).
    const TNR: usize = 4;
    let n = rhs.rows();
    let kdim = lhs.cols();
    debug_assert_eq!(rhs.cols(), kdim, "mul_transpose inner dim mismatch");
    let rows = out.len() / n.max(1);
    let a = lhs.as_slice();
    let b = rhs.as_slice();

    let mut i = 0;
    while i + MR <= rows {
        let arow = [
            &a[(row0 + i) * kdim..(row0 + i + 1) * kdim],
            &a[(row0 + i + 1) * kdim..(row0 + i + 2) * kdim],
            &a[(row0 + i + 2) * kdim..(row0 + i + 3) * kdim],
            &a[(row0 + i + 3) * kdim..(row0 + i + 4) * kdim],
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
        let ar = &a[(row0 + i) * kdim..(row0 + i + 1) * kdim];
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

/// The pinned reference spec for [`Matrix::column_covariance`]: the
/// record-outer loop that shipped first. Every output element `(a, b)`
/// accumulates `(x[a][j] − μ[a])·(x[b][j] − μ[b])` over records `j`
/// ascending; the upper triangle is computed, divided by `N − 1`, then
/// mirrored.
///
/// # Panics
///
/// Panics if the matrix has fewer than two columns.
pub fn column_covariance_reference(x: &Matrix) -> Matrix {
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

/// Tiled covariance of the columns of a `d × N` matrix: 4 × 4 register
/// tiles of the upper triangle, each streaming the `N` records once over
/// contiguous rows, **bit-identical** to
/// [`column_covariance_reference`] (each element's record walk is
/// ascending `j` from `0.0`, with the same centered factors).
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

    fn packed_product(a: &Matrix, b: &Matrix) -> Matrix {
        let packed = pack_b(b);
        let mut out = Matrix::zeros(a.rows(), b.cols());
        matmul_packed_rows(a, &packed, 0, out.as_mut_slice());
        out
    }

    fn reference_product(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        matmul_rows(a, b, 0, out.as_mut_slice());
        out
    }

    #[test]
    fn packed_matches_reference_across_shapes() {
        for &(m, k, n, z) in &[
            (1usize, 1usize, 1usize, 0usize),
            (4, 4, 4, 0),
            (5, 3, 7, 2),
            (8, 16, 130, 3),
            (13, 9, 33, 1), // zero_every=1 → all-zero lhs
            (3, 7, 2, 0),   // fewer rows than MR, fewer cols than NR
            (17, 12, 257, 5),
        ] {
            let a = lcg_matrix(m, k, 0x5EED ^ (m as u64) << 8 ^ n as u64, z);
            let b = lcg_matrix(k, n, 0xF00D ^ (k as u64) << 4 ^ n as u64, 0);
            let fast = packed_product(&a, &b);
            let slow = reference_product(&a, &b);
            assert_eq!(
                fast.as_slice(),
                slow.as_slice(),
                "m={m} k={k} n={n} zero_every={z}"
            );
        }
    }

    #[test]
    fn packed_rows_offset_chunks_match() {
        let a = lcg_matrix(11, 6, 0xABCD, 4);
        let b = lcg_matrix(6, 37, 0x1234, 0);
        let whole = reference_product(&a, &b);
        let packed = pack_b(&b);
        // Compute rows 3..11 as a standalone chunk, as a thread would.
        let mut chunk = vec![0.0; 8 * 37];
        matmul_packed_rows(&a, &packed, 3, &mut chunk);
        assert_eq!(&whole.as_slice()[3 * 37..], &chunk[..]);
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
            mul_transpose_rows(&a, &b, 0, fast.as_mut_slice());
            assert_eq!(
                fast.as_slice(),
                via_transpose.as_slice(),
                "m={m} k={k} n={n}"
            );
        }
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

    #[test]
    fn pack_b_pads_ragged_panel_with_zeros() {
        let b = lcg_matrix(3, NR + 3, 7, 0);
        let packed = pack_b(&b);
        assert_eq!(packed.k(), 3);
        assert_eq!(packed.n(), NR + 3);
        // Second panel holds columns NR..NR+3 in lanes 0..3, zeros after.
        let p1 = packed.panel(1);
        for k in 0..3 {
            for jj in 0..3 {
                assert_eq!(p1[k * NR + jj], b[(k, NR + jj)]);
            }
            assert!(p1[k * NR + 3..(k + 1) * NR].iter().all(|&v| v == 0.0));
        }
    }
}
