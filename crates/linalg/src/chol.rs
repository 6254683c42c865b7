use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L·Lᵀ` of a symmetric positive-definite matrix.
///
/// The factor is computed once and can then solve any number of right-hand
/// sides in `O(n²)` each — the kernelized trainers in `ppml-core` factor
/// `(I + ρK)` once per training run and reuse the factor every ADMM
/// iteration.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ppml_linalg::LinalgError> {
/// use ppml_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[25.0, 15.0, -5.0],
///                             &[15.0, 18.0,  0.0],
///                             &[-5.0,  0.0, 11.0]])?;
/// let chol = a.cholesky()?;
/// let x = chol.solve(&[1.0, 2.0, 3.0])?;
/// let r = a.matvec(&x)?;
/// assert!((r[0] - 1.0).abs() < 1e-10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    /// Lower-triangular factor, stored dense (upper part zero).
    l: Matrix,
}

impl Cholesky {
    /// Factors `a`.
    ///
    /// Only the lower triangle of `a` is read, so slightly asymmetric inputs
    /// (e.g. Gram matrices with round-off) are accepted.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for rectangular input, and
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is not strictly
    /// positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            // Diagonal entry.
            let mut d = a[(j, j)];
            for k in 0..j {
                let v = l[(j, k)];
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let dj = d.sqrt();
            l[(j, j)] = dj;
            // Column below the diagonal.
            for i in (j + 1)..n {
                let mut s = a[(i, j)];
                // dot of rows i and j of L, first j entries
                let (ri, rj) = (i * n, j * n);
                let li = &l.as_slice()[ri..ri + j];
                let lj = &l.as_slice()[rj..rj + j];
                s -= crate::vecops::dot(li, lj);
                l[(i, j)] = s / dj;
            }
        }
        Ok(Cholesky { l })
    }

    /// Size of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: (n, 1),
                found: (b.len(), 1),
            });
        }
        // Forward: L y = b
        let mut y = b.to_vec();
        for i in 0..n {
            let row = self.l.row(i);
            let s = crate::vecops::dot(&row[..i], &y[..i]);
            y[i] = (y[i] - s) / row[i];
        }
        // Backward: Lᵀ x = y
        for i in (0..n).rev() {
            let mut s = y[i];
            for (k, &yk) in y.iter().enumerate().skip(i + 1) {
                s -= self.l[(k, i)] * yk;
            }
            y[i] = s / self.l[(i, i)];
        }
        Ok(y)
    }

    /// Solves `A X = B` column-by-column.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `b.rows() != self.dim()`.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: (n, b.cols()),
                found: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve(&col)?;
            for (i, v) in x.into_iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        Ok(out)
    }

    /// Explicit inverse `A⁻¹`. Prefer [`Cholesky::solve`] where possible;
    /// the kernel trainers need the explicit inverse because it is applied
    /// inside matrix products whose other factor changes every iteration.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let id = Matrix::identity(n);
        // solve_matrix on identity cannot fail: shapes match by construction.
        self.solve_matrix(&id).expect("identity has matching shape")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> Matrix {
        // A = B Bᵀ + n I is SPD for any B.
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        let b = Matrix::from_fn(n, n, |_, _| next());
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diag(n as f64);
        a
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd(8, 42);
        let c = a.cholesky().unwrap();
        let l = c.factor();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!(a.max_abs_diff(&back).unwrap() < 1e-9);
    }

    #[test]
    fn solve_residual_small() {
        let a = spd(12, 7);
        let c = a.cholesky().unwrap();
        let b: Vec<f64> = (0..12).map(|i| (i as f64).sin()).collect();
        let x = c.solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn inverse_is_inverse() {
        let a = spd(6, 3);
        let inv = a.cholesky().unwrap().inverse();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(6)).unwrap() < 1e-9);
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // indefinite
        assert!(matches!(
            a.cholesky(),
            Err(LinalgError::NotPositiveDefinite { pivot: 1 })
        ));
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            Matrix::zeros(2, 3).cholesky(),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn solve_checks_rhs_length() {
        let c = spd(4, 1).cholesky().unwrap();
        assert!(c.solve(&[1.0; 3]).is_err());
    }

    #[test]
    fn one_by_one() {
        let c = Matrix::from_rows(&[&[4.0]]).unwrap().cholesky().unwrap();
        assert_eq!(c.solve(&[8.0]).unwrap(), vec![2.0]);
    }
}
