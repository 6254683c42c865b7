use std::fmt;
use std::ops::{Index, IndexMut};

use crate::{Cholesky, LinalgError, Lu, Result};

/// A dense, row-major, `f64` matrix.
///
/// `Matrix` is the workhorse type of the workspace: kernel Gram matrices,
/// ADMM subproblem Hessians and data partitions are all `Matrix` values.
/// Storage is a single contiguous `Vec<f64>` in row-major order; `row(i)`
/// is therefore a free slice borrow, which the per-sample loops in the SVM
/// solvers rely on.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ppml_linalg::LinalgError> {
/// use ppml_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(i, j)` at every position.
    ///
    /// ```
    /// use ppml_linalg::Matrix;
    /// let hilbert = Matrix::from_fn(3, 3, |i, j| 1.0 / (i + j + 1) as f64);
    /// assert_eq!(hilbert[(0, 0)], 1.0);
    /// ```
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from a slice of equally-long rows.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::RaggedRows`] if the rows differ in length.
    pub fn from_rows(rows: &[&[f64]]) -> Result<Self> {
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for (i, r) in rows.iter().enumerate() {
            if r.len() != ncols {
                return Err(LinalgError::RaggedRows {
                    first: ncols,
                    row: i,
                    len: r.len(),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix that takes ownership of a row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (rows, cols),
                found: (data.len(), 1),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows row `i` as a contiguous slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.rows()`.
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.cols()`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(
            j < self.cols,
            "col {j} out of bounds for {} cols",
            self.cols
        );
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Borrows the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix and returns the row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Returns the transpose as a new matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            let r = self.row(i);
            for (j, &v) in r.iter().enumerate() {
                t[(j, i)] = v;
            }
        }
        t
    }

    /// Matrix product `self * rhs`, blocked for cache friendliness.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `self.cols() != rhs.rows()`.
    pub fn matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.cols != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, rhs.cols),
                found: (rhs.rows, rhs.cols),
            });
        }
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        // i-k-j loop order: the inner loop is a contiguous axpy over rows of
        // `rhs` and `out`, which vectorizes well without an explicit
        // transpose. Block over k to keep the touched rows of `rhs` hot.
        const KB: usize = 64;
        for k0 in (0..k).step_by(KB) {
            let kend = (k0 + KB).min(k);
            for i in 0..m {
                let arow = self.row(i);
                let orow = &mut out.data[i * n..(i + 1) * n];
                for (kk, &aik) in arow.iter().enumerate().take(kend).skip(k0) {
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = &rhs.data[kk * n..(kk + 1) * n];
                    for (o, &b) in orow.iter_mut().zip(brow) {
                        *o += aik * b;
                    }
                }
            }
        }
        Ok(out)
    }

    /// Product `selfᵀ * rhs` without materializing the transpose.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `self.rows() != rhs.rows()`.
    pub fn t_matmul(&self, rhs: &Matrix) -> Result<Matrix> {
        if self.rows != rhs.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.rows, rhs.cols),
                found: (rhs.rows, rhs.cols),
            });
        }
        let (m, k, n) = (self.cols, self.rows, rhs.cols);
        let mut out = Matrix::zeros(m, n);
        for kk in 0..k {
            let arow = self.row(kk);
            let brow = rhs.row(kk);
            for (i, &a) in arow.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let orow = &mut out.data[i * n..(i + 1) * n];
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.cols {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.cols, 1),
                found: (x.len(), 1),
            });
        }
        Ok((0..self.rows)
            .map(|i| crate::vecops::dot(self.row(i), x))
            .collect())
    }

    /// Transposed matrix-vector product `selfᵀ * x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when `x.len() != self.rows()`.
    pub fn t_matvec(&self, x: &[f64]) -> Result<Vec<f64>> {
        if x.len() != self.rows {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.rows, 1),
                found: (x.len(), 1),
            });
        }
        let mut out = vec![0.0; self.cols];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (o, &a) in out.iter_mut().zip(self.row(i)) {
                *o += xi * a;
            }
        }
        Ok(out)
    }

    /// Entry-wise sum `self + rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the shapes differ.
    pub fn add(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Entry-wise difference `self - rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] when the shapes differ.
    pub fn sub(&self, rhs: &Matrix) -> Result<Matrix> {
        self.zip_with(rhs, |a, b| a - b)
    }

    fn zip_with<F: Fn(f64, f64) -> f64>(&self, rhs: &Matrix, f: F) -> Result<Matrix> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                expected: self.shape(),
                found: rhs.shape(),
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

    /// Returns `self` scaled by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| v * s).collect(),
        }
    }

    /// Adds `s` to every diagonal entry in place (`self + s·I`).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not square.
    pub fn add_diag(&mut self, s: f64) {
        assert_eq!(self.rows, self.cols, "add_diag requires a square matrix");
        for i in 0..self.rows {
            self[(i, i)] += s;
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Largest absolute entry-wise difference to `rhs`, or `None` on shape
    /// mismatch. Convenient for tests.
    pub fn max_abs_diff(&self, rhs: &Matrix) -> Option<f64> {
        if self.shape() != rhs.shape() {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&rhs.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }

    /// Cholesky factorization of a symmetric positive-definite matrix.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] or
    /// [`LinalgError::NotPositiveDefinite`].
    pub fn cholesky(&self) -> Result<Cholesky> {
        Cholesky::new(self)
    }

    /// LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] or [`LinalgError::Singular`].
    pub fn lu(&self) -> Result<Lu> {
        Lu::new(self)
    }

    /// Builds the sub-matrix formed by the given row indices (rows may repeat
    /// and appear in any order).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, idx: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(idx.len() * self.cols);
        for &i in idx {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: idx.len(),
            cols: self.cols,
            data,
        }
    }

    /// Builds the sub-matrix formed by the given column indices.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_cols(&self, idx: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(idx.len() * self.rows);
        for i in 0..self.rows {
            let r = self.row(i);
            for &j in idx {
                data.push(r[j]);
            }
        }
        Matrix {
            rows: self.rows,
            cols: idx.len(),
            data,
        }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds for {}x{}",
            self.rows,
            self.cols
        );
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(8);
        for i in 0..show {
            write!(f, "  [")?;
            let cols = self.cols.min(8);
            for j in 0..cols {
                write!(f, "{:10.4}", self[(i, j)])?;
                if j + 1 < cols {
                    write!(f, ", ")?;
                }
            }
            if self.cols > 8 {
                write!(f, ", ...")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-12, "{a} != {b}");
    }

    #[test]
    fn construction_and_indexing() {
        let m = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.shape(), (2, 3));
        approx(m[(1, 2)], 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.col(1), vec![2.0, 5.0]);
    }

    #[test]
    fn ragged_rows_rejected() {
        let err = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]).unwrap_err();
        assert!(matches!(err, LinalgError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![0.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![0.0; 4]).is_ok());
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]).unwrap();
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(
            c,
            Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]).unwrap()
        );
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(5, 3, |i, j| (i * 7 + j) as f64 * 0.1 - 0.4);
        let b = Matrix::from_fn(5, 4, |i, j| (i + 2 * j) as f64 * 0.3);
        let fast = a.t_matmul(&b).unwrap();
        let slow = a.transpose().matmul(&b).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-12);
    }

    #[test]
    fn matvec_and_t_matvec() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]).unwrap();
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0, 11.0]);
        assert_eq!(a.t_matvec(&[1.0, 1.0, 1.0]).unwrap(), vec![9.0, 12.0]);
        assert!(a.matvec(&[1.0]).is_err());
        assert!(a.t_matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_is_involution() {
        let a = Matrix::from_fn(4, 6, |i, j| (i * j) as f64 + 0.5);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let b = Matrix::from_rows(&[&[3.0, 5.0]]).unwrap();
        assert_eq!(
            a.add(&b).unwrap(),
            Matrix::from_rows(&[&[4.0, 7.0]]).unwrap()
        );
        assert_eq!(
            b.sub(&a).unwrap(),
            Matrix::from_rows(&[&[2.0, 3.0]]).unwrap()
        );
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[&[2.0, 4.0]]).unwrap());
    }

    #[test]
    fn add_diag_shifts_eigenvalues() {
        let mut a = Matrix::zeros(3, 3);
        a.add_diag(2.5);
        assert_eq!(a, Matrix::identity(3).scale(2.5));
    }

    #[test]
    fn select_rows_and_cols() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]]).unwrap();
        let r = a.select_rows(&[2, 0]);
        assert_eq!(
            r,
            Matrix::from_rows(&[&[7.0, 8.0, 9.0], &[1.0, 2.0, 3.0]]).unwrap()
        );
        let c = a.select_cols(&[1]);
        assert_eq!(c, Matrix::from_rows(&[&[2.0], &[5.0], &[8.0]]).unwrap());
    }

    #[test]
    fn debug_is_nonempty() {
        let s = format!("{:?}", Matrix::zeros(1, 1));
        assert!(!s.is_empty());
        // Large matrices are elided, not dumped.
        let s = format!("{:?}", Matrix::zeros(100, 100));
        assert!(s.contains("..."));
    }

    #[test]
    fn fro_norm_known() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        approx(a.fro_norm(), 5.0);
    }
}
