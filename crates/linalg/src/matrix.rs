//! Row-major dense `f64` matrix.

use crate::error::{LinalgError, Result};
use std::fmt;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, MulAssign, Neg, Sub, SubAssign};

/// A dense, row-major matrix of `f64` values.
///
/// This is the workhorse type of the reproduction: datasets (`d × N`, one
/// record per column, following the paper), rotation matrices, translation
/// matrices and noise matrices are all `Matrix` values.
///
/// Arithmetic operators are implemented on references (`&a * &b`) so large
/// matrices are never cloned implicitly; the operators panic on shape
/// mismatch, while the method forms ([`Matrix::matmul`], [`Matrix::try_add`],
/// …) return [`LinalgError`] instead.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a matrix of the given shape filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates a zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self::filled(rows, cols, 0.0)
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`
    /// (including when `rows * cols` overflows).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(LinalgError::ShapeMismatch {
                op: "Matrix::from_vec",
                lhs: (rows, cols),
                rhs: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix by evaluating `f(row, col)` for every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix whose rows are the given slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "from_rows: need at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "from_rows: ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a matrix whose columns are the given slices.
    ///
    /// This is the natural constructor for the paper's `d × N` dataset
    /// convention, where each record is one column.
    ///
    /// # Panics
    ///
    /// Panics if the columns have inconsistent lengths or `cols` is empty.
    pub fn from_columns(cols: &[Vec<f64>]) -> Self {
        assert!(!cols.is_empty(), "from_columns: need at least one column");
        let rows = cols[0].len();
        let mut m = Matrix::zeros(rows, cols.len());
        for (c, col) in cols.iter().enumerate() {
            assert_eq!(col.len(), rows, "from_columns: ragged columns");
            for (r, &v) in col.iter().enumerate() {
                m[(r, c)] = v;
            }
        }
        m
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &v) in diag.iter().enumerate() {
            m[(i, i)] = v;
        }
        m
    }

    /// Creates a column vector (an `n × 1` matrix) from a slice.
    pub fn column_vector(v: &[f64]) -> Self {
        Matrix {
            rows: v.len(),
            cols: 1,
            data: v.to_vec(),
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix and returns its row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns entry `(r, c)`, or `None` if out of bounds.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> Option<f64> {
        if r < self.rows && c < self.cols {
            Some(self.data[r * self.cols + c])
        } else {
            None
        }
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds");
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(c < self.cols, "column index {c} out of bounds");
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// Overwrites column `c` with the values in `v`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds or `v.len() != self.rows()`.
    pub fn set_column(&mut self, c: usize, v: &[f64]) {
        assert!(c < self.cols, "column index {c} out of bounds");
        assert_eq!(v.len(), self.rows, "set_column: length mismatch");
        for (r, &x) in v.iter().enumerate() {
            self[(r, c)] = x;
        }
    }

    /// Iterates over the rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self * rhs`.
    ///
    /// Large products pack the right factor into register-friendly panels
    /// and run the 4×4 register-blocked microkernel
    /// ([`crate::kernel::matmul_packed_rows`]), row-parallel on the
    /// [`crate::parallel`] splitter. Every output element is still
    /// accumulated over `k` in ascending order (zero left-factors
    /// skipped), so the result is **bit-identical** to the pinned
    /// reference loop [`crate::kernel::matmul_rows`] — and to the
    /// straightforward serial triple loop — at any tile size or thread
    /// count. That invariant is what the block-partition invariance of
    /// session outcomes rests on, and `tests/kernel_equivalence.rs`
    /// property-tests it over shapes × worker counts.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the inner dimensions
    /// disagree.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        self.matmul_with_workers(rhs, crate::parallel::threads())
    }

    /// [`Matrix::matmul`] with an explicit worker count instead of the
    /// process-global [`crate::parallel::threads`] setting.
    ///
    /// Results are bit-identical for every worker count; this exists so
    /// equivalence tests can sweep worker counts within one process
    /// (`SAP_LINALG_THREADS` latches once).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the inner dimensions
    /// disagree.
    pub fn matmul_with_workers(&self, rhs: &Matrix, workers: usize) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into_with_workers(rhs, &mut out, workers)?;
        Ok(out)
    }

    /// [`Matrix::matmul`] into a caller-owned `out` of shape
    /// `(self.rows(), rhs.cols())`, which is overwritten — the
    /// allocation-free form for loops that multiply the same shapes
    /// repeatedly. Same kernels, same bits.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the inner dimensions
    /// disagree or `out` has the wrong shape.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        self.matmul_into_with_workers(rhs, out, crate::parallel::threads())
    }

    fn matmul_into_with_workers(
        &self,
        rhs: &Matrix,
        out: &mut Matrix,
        workers: usize,
    ) -> Result<()> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        check_output("matmul output", out, (self.rows, rhs.cols))?;
        // The reference kernel accumulates into `out` from 0.0.
        out.data.fill(0.0);
        if self.rows == 0 || rhs.cols == 0 {
            return Ok(());
        }
        let flops = self.rows.saturating_mul(self.cols).saturating_mul(rhs.cols);
        let packed = if crate::kernel::packing_pays(self.rows, self.cols, rhs.cols) {
            Some(crate::kernel::pack_b(rhs))
        } else {
            None
        };
        let run = |row0: usize, out_chunk: &mut [f64]| match &packed {
            Some(p) => crate::kernel::matmul_packed_rows(self, p, row0, out_chunk),
            None => crate::kernel::matmul_rows(self, rhs, row0, out_chunk),
        };
        if crate::parallel::worth_splitting_with(workers, flops) && self.rows > 1 {
            let rows_per = self.rows.div_ceil(workers.max(1));
            crate::parallel::for_each_chunk_mut_with(
                workers,
                &mut out.data,
                rows_per * rhs.cols,
                |chunk_idx, out_chunk| run(chunk_idx * rows_per, out_chunk),
            );
        } else {
            run(0, &mut out.data);
        }
        Ok(())
    }

    /// Matrix product with the transposed right factor, `self * rhsᵀ`,
    /// without materializing the transpose.
    ///
    /// Output element `(i, j)` is the dot product of `self` row `i` and
    /// `rhs` row `j` — both contiguous in row-major storage, which is why
    /// Gram-style products (ICA decorrelation/convergence overlaps, the
    /// SVD polar step) route here. Runs the 4×4 register-blocked kernel
    /// ([`crate::kernel::mul_transpose_rows`]), row-parallel when large;
    /// the `k` walk per output element is ascending with the zero skip on
    /// the left factor, so the result is **bit-identical** to
    /// `self.matmul(&rhs.transpose())`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the column counts
    /// disagree.
    pub fn mul_transpose(&self, rhs: &Matrix) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.mul_transpose_into(rhs, &mut out)?;
        Ok(out)
    }

    /// [`Matrix::mul_transpose`] into a caller-owned `out` of shape
    /// `(self.rows(), rhs.rows())`, which is overwritten. Same kernel,
    /// same bits.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the column counts
    /// disagree or `out` has the wrong shape.
    pub fn mul_transpose_into(&self, rhs: &Matrix, out: &mut Matrix) -> Result<()> {
        if self.cols != rhs.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "mul_transpose",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        check_output("mul_transpose output", out, (self.rows, rhs.rows))?;
        if self.rows == 0 || rhs.rows == 0 {
            return Ok(());
        }
        let flops = self.rows.saturating_mul(self.cols).saturating_mul(rhs.rows);
        let workers = crate::parallel::threads();
        if crate::parallel::worth_splitting_with(workers, flops) && self.rows > 1 {
            let rows_per = self.rows.div_ceil(workers);
            crate::parallel::for_each_chunk_mut_with(
                workers,
                &mut out.data,
                rows_per * rhs.rows,
                |chunk_idx, out_chunk| {
                    crate::kernel::mul_transpose_rows(self, rhs, chunk_idx * rows_per, out_chunk);
                },
            );
        } else {
            crate::kernel::mul_transpose_rows(self, rhs, 0, &mut out.data);
        }
        Ok(())
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if v.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (v.len(), 1),
            });
        }
        Ok(self
            .iter_rows()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Element-wise sum. Method form of `&a + &b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn try_add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference. Method form of `&a - &b`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn try_sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when shapes differ.
    pub fn hadamard(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, "hadamard", |a, b| a * b)
    }

    fn zip_with(
        &self,
        rhs: &Matrix,
        op: &'static str,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns a new matrix with `f` applied to every entry.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Multiplies every entry by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|x| x * s)
    }

    /// Sum of the diagonal entries.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace of non-square matrix");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// Frobenius norm, `sqrt(Σ aᵢⱼ²)`.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// `true` when every entry of `self` is within `tol` of `other`.
    ///
    /// Shape mismatch returns `false` rather than panicking, so this is safe
    /// to use in assertions over generated inputs.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// `true` when `self * selfᵀ` is within `tol` of the identity.
    pub fn is_orthogonal(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let prod = self.mul_transpose(self).expect("square matmul");
        prod.approx_eq(&Matrix::identity(self.rows), tol)
    }

    /// Extracts the sub-matrix of `row_range` × `col_range`.
    ///
    /// # Panics
    ///
    /// Panics if a range end exceeds the matrix bounds.
    pub fn submatrix(
        &self,
        row_range: std::ops::Range<usize>,
        col_range: std::ops::Range<usize>,
    ) -> Matrix {
        assert!(row_range.end <= self.rows && col_range.end <= self.cols);
        Matrix::from_fn(row_range.len(), col_range.len(), |r, c| {
            self[(row_range.start + r, col_range.start + c)]
        })
    }

    /// Horizontally concatenates `self` and `rhs` (`[self | rhs]`).
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when row counts differ.
    pub fn hconcat(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                op: "hconcat",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let mut out = Matrix::zeros(self.rows, self.cols + rhs.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(rhs.row(r));
        }
        Ok(out)
    }

    /// Per-row means (length `rows`). For a `d × N` dataset this is the mean
    /// record (centroid).
    pub fn row_means(&self) -> Vec<f64> {
        self.iter_rows()
            .map(|row| row.iter().sum::<f64>() / self.cols as f64)
            .collect()
    }

    /// Covariance of the columns of a `d × N` matrix: the `d × d` matrix
    /// `(1/(N-1)) Σ (xⱼ - μ)(xⱼ - μ)ᵀ`.
    ///
    /// Runs the tiled register-blocked kernel
    /// ([`crate::kernel::column_covariance_packed`]), which is
    /// **bit-identical** to the record-outer reference loop
    /// ([`crate::kernel::column_covariance_reference`]).
    ///
    /// # Panics
    ///
    /// Panics if the matrix has fewer than two columns.
    pub fn column_covariance(&self) -> Matrix {
        crate::kernel::column_covariance_packed(self)
    }
}

/// Rejects a caller-owned output buffer whose shape is not `expected`.
fn check_output(op: &'static str, out: &Matrix, expected: (usize, usize)) -> Result<()> {
    if out.shape() == expected {
        Ok(())
    } else {
        Err(LinalgError::ShapeMismatch {
            op,
            lhs: expected,
            rhs: out.shape(),
        })
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let max_rows = 8;
        for (i, row) in self.iter_rows().enumerate().take(max_rows) {
            write!(f, "  [")?;
            for (j, v) in row.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{v:.4}")?;
            }
            writeln!(f, "]{}", if i + 1 < self.rows { "," } else { "" })?;
        }
        if self.rows > max_rows {
            writeln!(f, "  ... ({} more rows)", self.rows - max_rows)?;
        }
        write!(f, "]")
    }
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        self.try_add(rhs).expect("matrix add: shape mismatch")
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.try_sub(rhs).expect("matrix sub: shape mismatch")
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs).expect("matrix mul: shape mismatch")
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;
    fn mul(self, s: f64) -> Matrix {
        self.scale(s)
    }
}

impl Neg for &Matrix {
    type Output = Matrix;
    fn neg(self) -> Matrix {
        self.scale(-1.0)
    }
}

impl AddAssign<&Matrix> for Matrix {
    fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }
}

impl SubAssign<&Matrix> for Matrix {
    fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign: shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a -= b;
        }
    }
}

impl MulAssign<f64> for Matrix {
    fn mul_assign(&mut self, s: f64) {
        for a in &mut self.data {
            *a *= s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22(a: f64, b: f64, c: f64, d: f64) -> Matrix {
        Matrix::from_vec(2, 2, vec![a, b, c, d]).unwrap()
    }

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let i = Matrix::identity(3);
        assert_eq!(i[(0, 0)], 1.0);
        assert_eq!(i[(0, 1)], 0.0);
        assert_eq!(i.trace(), 3.0);
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_and_columns_agree() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Matrix::from_columns(&[vec![1.0, 3.0], vec![2.0, 4.0]]);
        assert_eq!(a, b);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (5, 3));
        assert_eq!(a.transpose()[(4, 2)], a[(2, 4)]);
    }

    #[test]
    fn matmul_known_product() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(5.0, 6.0, 7.0, 8.0);
        let c = &a * &b;
        assert_eq!(c, m22(19.0, 22.0, 43.0, 50.0));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_fn(4, 4, |r, c| (r + 2 * c) as f64);
        assert_eq!(&a * &Matrix::identity(4), a);
        assert_eq!(&Matrix::identity(4) * &a, a);
    }

    #[test]
    fn matmul_shape_mismatch_errs() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn into_forms_overwrite_and_check_the_output() {
        let a = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64 - 5.0);
        let b = Matrix::from_fn(4, 2, |r, c| (r + 3 * c) as f64);
        let mut out = Matrix::filled(3, 2, f64::NAN);
        a.matmul_into(&b, &mut out).unwrap();
        assert_eq!(out, a.matmul(&b).unwrap());
        let bt = b.transpose();
        let mut out = Matrix::filled(3, 2, f64::NAN);
        a.mul_transpose_into(&bt, &mut out).unwrap();
        assert_eq!(out, a.mul_transpose(&bt).unwrap());
        let mut wrong = Matrix::zeros(2, 3);
        assert!(a.matmul_into(&b, &mut wrong).is_err());
        assert!(a.mul_transpose_into(&bt, &mut wrong).is_err());
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f64);
        let v = vec![1.0, -1.0, 2.0];
        let got = a.matvec(&v).unwrap();
        let via = &a * &Matrix::column_vector(&v);
        assert_eq!(got, via.column(0));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let b = m22(0.5, 0.5, 0.5, 0.5);
        let c = &(&a + &b) - &b;
        assert!(c.approx_eq(&a, 1e-12));
    }

    #[test]
    fn hadamard_and_map() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let sq = a.hadamard(&a).unwrap();
        assert_eq!(sq, a.map(|x| x * x));
    }

    #[test]
    fn scale_and_neg() {
        let a = m22(1.0, -2.0, 3.0, -4.0);
        assert_eq!(&a * 2.0, m22(2.0, -4.0, 6.0, -8.0));
        assert_eq!(-&a, a.scale(-1.0));
    }

    #[test]
    fn frobenius_norm_known() {
        let a = m22(3.0, 0.0, 4.0, 0.0);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn rows_and_columns_access() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.column(2), vec![3.0, 6.0]);
        let mut b = a.clone();
        b.set_column(0, &[9.0, 10.0]);
        assert_eq!(b.column(0), vec![9.0, 10.0]);
    }

    #[test]
    fn get_bounds() {
        let a = Matrix::identity(2);
        assert_eq!(a.get(1, 1), Some(1.0));
        assert_eq!(a.get(2, 0), None);
        assert_eq!(a.get(0, 2), None);
    }

    #[test]
    fn submatrix_extracts_block() {
        let a = Matrix::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        let s = a.submatrix(1..3, 2..4);
        assert_eq!(s, Matrix::from_rows(&[vec![6.0, 7.0], vec![10.0, 11.0]]));
    }

    #[test]
    fn hconcat_widths_add() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::identity(2);
        let c = a.hconcat(&b).unwrap();
        assert_eq!(c.shape(), (2, 4));
        assert_eq!(c[(0, 2)], 1.0);
        assert!(a.hconcat(&Matrix::zeros(3, 1)).is_err());
    }

    #[test]
    fn row_means_centroid() {
        // two records (columns): (1,3) and (3,5) -> centroid (2,4)
        let x = Matrix::from_columns(&[vec![1.0, 3.0], vec![3.0, 5.0]]);
        assert_eq!(x.row_means(), vec![2.0, 4.0]);
    }

    #[test]
    fn column_covariance_of_isotropic_pairs() {
        // records (±1, 0) and (0, ±1): covariance diag(2/3, 2/3) for N=4.
        let x = Matrix::from_columns(&[
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, -1.0],
        ]);
        let cov = x.column_covariance();
        assert!((cov[(0, 0)] - 2.0 / 3.0).abs() < 1e-12);
        assert!((cov[(1, 1)] - 2.0 / 3.0).abs() < 1e-12);
        assert!(cov[(0, 1)].abs() < 1e-12);
    }

    #[test]
    fn approx_eq_respects_tolerance() {
        let a = m22(1.0, 2.0, 3.0, 4.0);
        let mut b = a.clone();
        b[(0, 0)] += 1e-6;
        assert!(a.approx_eq(&b, 1e-5));
        assert!(!a.approx_eq(&b, 1e-7));
        assert!(!a.approx_eq(&Matrix::zeros(2, 3), 1.0));
    }

    #[test]
    fn is_orthogonal_detects_rotation() {
        let theta = 0.7_f64;
        let r = m22(theta.cos(), -theta.sin(), theta.sin(), theta.cos());
        assert!(r.is_orthogonal(1e-12));
        assert!(!m22(1.0, 1.0, 0.0, 1.0).is_orthogonal(1e-6));
    }

    #[test]
    fn assign_ops() {
        let mut a = m22(1.0, 2.0, 3.0, 4.0);
        a += &Matrix::identity(2);
        assert_eq!(a, m22(2.0, 2.0, 3.0, 5.0));
        a -= &Matrix::identity(2);
        a *= 2.0;
        assert_eq!(a, m22(2.0, 4.0, 6.0, 8.0));
    }

    /// The blocked/parallel matmul must be bit-identical to the naive
    /// i-k-j triple loop it replaced — the block-partition invariance of
    /// session outcomes depends on it.
    #[test]
    fn blocked_matmul_bit_identical_to_naive() {
        let mut seed = 0x5EEDu64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        // Wide enough to cross the parallel threshold and several column
        // blocks; includes exact zeros to exercise the skip path.
        let a = Matrix::from_fn(12, 12, |r, c| if (r + c) % 5 == 0 { 0.0 } else { next() });
        let b = Matrix::from_fn(12, 2000, |_, _| next());
        let fast = a.matmul(&b).unwrap();
        let mut naive = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let x = a[(i, k)];
                if x == 0.0 {
                    continue;
                }
                for j in 0..b.cols() {
                    naive[(i, j)] += x * b[(k, j)];
                }
            }
        }
        assert_eq!(fast.as_slice(), naive.as_slice(), "must match bitwise");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::identity(2);
        let _ = a[(2, 0)];
    }

    #[test]
    fn debug_format_truncates() {
        let a = Matrix::zeros(20, 2);
        let s = format!("{a:?}");
        assert!(s.contains("more rows"));
    }
}
