use crate::{LinalgError, Matrix, Result};

/// LU factorization with partial pivoting: `P·A = L·U`.
///
/// Used for the general (not necessarily positive-definite) systems that
/// appear in landmark preconditioning and in tests as an independent check
/// on [`crate::Cholesky`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ppml_linalg::LinalgError> {
/// use ppml_linalg::Matrix;
///
/// let a = Matrix::from_rows(&[&[0.0, 2.0], &[1.0, 1.0]])?; // needs pivoting
/// let lu = a.lu()?;
/// let x = lu.solve(&[2.0, 2.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Lu {
    /// Packed L (unit diagonal, below) and U (on/above diagonal).
    lu: Matrix,
    /// Row permutation: factored row `i` came from original row `perm[i]`.
    perm: Vec<usize>,
}

impl Lu {
    /// Factors `a` with partial (row) pivoting.
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] for rectangular input;
    /// [`LinalgError::Singular`] when no usable pivot exists in some column.
    pub fn new(a: &Matrix) -> Result<Self> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot search in column k.
            let mut p = k;
            let mut best = lu[(k, k)].abs();
            for i in (k + 1)..n {
                let v = lu[(i, k)].abs();
                if v > best {
                    best = v;
                    p = i;
                }
            }
            if best == 0.0 || !best.is_finite() {
                return Err(LinalgError::Singular { pivot: k });
            }
            if p != k {
                perm.swap(p, k);
                // Swap rows p and k.
                for j in 0..n {
                    let tmp = lu[(k, j)];
                    lu[(k, j)] = lu[(p, j)];
                    lu[(p, j)] = tmp;
                }
            }
            let pivot = lu[(k, k)];
            for i in (k + 1)..n {
                let m = lu[(i, k)] / pivot;
                lu[(i, k)] = m;
                if m != 0.0 {
                    for j in (k + 1)..n {
                        let u = lu[(k, j)];
                        lu[(i, j)] -= m * u;
                    }
                }
            }
        }
        Ok(Lu { lu, perm })
    }

    /// Size of the factored matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
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
        // Apply permutation, then forward/backward substitution.
        let mut y: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 0..n {
            let row = self.lu.row(i);
            let s = crate::vecops::dot(&row[..i], &y[..i]);
            y[i] -= s; // unit diagonal in L
        }
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let s = crate::vecops::dot(&row[i + 1..], &y[i + 1..]);
            y[i] = (y[i] - s) / row[i];
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
            let x = self.solve(&b.col(j))?;
            for (i, v) in x.into_iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        Ok(out)
    }

    /// Explicit inverse `A⁻¹`.
    pub fn inverse(&self) -> Matrix {
        let id = Matrix::identity(self.dim());
        self.solve_matrix(&id).expect("identity has matching shape")
    }

    /// Determinant of `A`: the pivot product, signed by the parity of the
    /// row permutation's inversions.
    #[cfg(test)]
    fn det(&self) -> f64 {
        let n = self.dim();
        let inversions = (0..n)
            .flat_map(|i| (i + 1..n).filter(move |&j| self.perm[i] > self.perm[j]))
            .count();
        let sign = if inversions % 2 == 0 { 1.0 } else { -1.0 };
        (0..n).fold(sign, |d, i| d * self.lu[(i, i)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(n: usize, seed: u64) -> Matrix {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        // Diagonally dominated so it is comfortably nonsingular.
        let mut m = Matrix::from_fn(n, n, |_, _| next());
        m.add_diag(n as f64);
        m
    }

    #[test]
    fn solve_residual_small() {
        let a = dense(10, 5);
        let lu = a.lu().unwrap();
        let b: Vec<f64> = (0..10).map(|i| (i as f64).cos()).collect();
        let x = lu.solve(&b).unwrap();
        let r = a.matvec(&x).unwrap();
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9);
        }
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.lu().unwrap().solve(&[3.0, 4.0]).unwrap();
        assert_eq!(x, vec![4.0, 3.0]);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn det_of_permutation_matrix() {
        // Swap matrix has determinant -1.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let d = a.lu().unwrap().det();
        assert!((d + 1.0).abs() < 1e-12);
    }

    #[test]
    fn det_matches_diagonal_product() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 3.0]]).unwrap();
        assert!((a.lu().unwrap().det() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_is_inverse() {
        let a = dense(7, 11);
        let inv = a.lu().unwrap().inverse();
        let prod = a.matmul(&inv).unwrap();
        assert!(prod.max_abs_diff(&Matrix::identity(7)).unwrap() < 1e-8);
    }

    #[test]
    fn agrees_with_cholesky_on_spd() {
        // SPD system: both factorizations must produce the same solution.
        let b = dense(6, 17);
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diag(6.0);
        let rhs: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let x1 = a.lu().unwrap().solve(&rhs).unwrap();
        let x2 = a.cholesky().unwrap().solve(&rhs).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-8);
        }
    }

    #[test]
    fn rejects_rectangular() {
        assert!(matches!(
            Matrix::zeros(3, 2).lu(),
            Err(LinalgError::NotSquare { .. })
        ));
    }
}
