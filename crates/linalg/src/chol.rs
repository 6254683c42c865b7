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
        Self::factor_in_place(a.clone())
    }

    /// [`Cholesky::new`] in `a`'s own storage, which becomes the factor:
    /// column `j` of `L` overwrites column `j` of the lower triangle once
    /// every entry it needs is read, and the upper triangle is zeroed.
    /// [`Cholesky::into_factor`] hands the storage back, so a caller that
    /// factors matrix after matrix allocates once.
    ///
    /// # Errors
    ///
    /// As [`Cholesky::new`]; the storage is dropped.
    pub fn factor_in_place(a: Matrix) -> Result<Self> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let mut l = a.into_vec();
        for j in 0..n {
            let rj = j * n;
            // Diagonal entry.
            let mut d = l[rj + j];
            for k in 0..j {
                let v = l[rj + k];
                d -= v * v;
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j });
            }
            let dj = d.sqrt();
            l[rj + j] = dj;
            // Column below the diagonal: row i holds L in its first j
            // entries and still holds `a` from entry j on.
            for i in (j + 1)..n {
                let ri = i * n;
                let s = l[ri + j] - crate::vecops::dot(&l[ri..ri + j], &l[rj..rj + j]);
                l[ri + j] = s / dj;
            }
            l[rj + j + 1..rj + n].fill(0.0);
        }
        let l = Matrix::from_vec(n, n, l).expect("n² entries");
        Ok(Cholesky { l })
    }

    /// The lower-triangular factor `L`, by value.
    pub fn into_factor(self) -> Matrix {
        self.l
    }

    /// Size of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn factor(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b`; [`Cholesky::solve_in_place`] into a fresh vector.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` in place: `b` holds `x` on return.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `b.len() != self.dim()`.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<()> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                expected: (n, 1),
                found: (b.len(), 1),
            });
        }
        let l = self.l.as_slice();
        // Forward: L y = b
        for i in 0..n {
            let row = &l[i * n..(i + 1) * n];
            let s = crate::vecops::dot(&row[..i], &b[..i]);
            b[i] = (b[i] - s) / row[i];
        }
        // Backward: Lᵀ x = y
        for i in (0..n).rev() {
            let mut s = b[i];
            for (row, &yk) in l.chunks_exact(n).skip(i + 1).zip(&b[i + 1..]) {
                s -= row[i] * yk;
            }
            b[i] = s / l[i * n + i];
        }
        Ok(())
    }

    /// Drops row and column `p` of the factored matrix: afterwards `self`
    /// factors the principal submatrix without them, as [`Cholesky::new`]
    /// of that submatrix would up to round-off.
    ///
    /// Split at `p`, `L = [L₁₁ 0 0; l₂₁ᵀ l₂₂ 0; L₃₁ l₃₂ L₃₃]`, and the
    /// submatrix is `L̃L̃ᵀ` with `L̃ = [L₁₁ 0; L₃₁ L̃₃₃]`, where
    /// `L̃₃₃L̃₃₃ᵀ = L₃₃L₃₃ᵀ + l₃₂l₃₂ᵀ`: a rank-one *update* of the trailing
    /// block (Golub & Van Loan §12.5). It costs O((n−p)²) and cannot fail,
    /// since every new pivot is at least the old one.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.dim()`.
    pub fn remove(&mut self, p: usize) {
        let n = self.dim();
        assert!(p < n, "index {p} out of bounds for dimension {n}");
        let mut l = std::mem::replace(&mut self.l, Matrix::zeros(0, 0)).into_vec();
        // Fold x = l₃₂, carried in column p, into columns p+1.. one rotation
        // at a time: pivot k takes r = √(l_kk² + x_k²), and every row below
        // it mixes its column-k entry with its x.
        for k in p + 1..n {
            let (head, below) = l.split_at_mut((k + 1) * n);
            let row_k = &mut head[k * n..];
            let (d, xk) = (row_k[k], row_k[p]);
            let r = (d * d + xk * xk).sqrt();
            let (c, s, inv_c) = (r / d, xk / d, d / r);
            row_k[k] = r;
            for row in below.chunks_exact_mut(n) {
                let lik = (row[k] + s * row[p]) * inv_c;
                row[p] = c * row[p] - s * lik;
                row[k] = lik;
            }
        }
        // Close the gap row p and column p leave; every row moves down.
        let m = n - 1;
        for r in 0..m {
            let src = (r + usize::from(r >= p)) * n;
            l.copy_within(src..src + p, r * m);
            l.copy_within(src + p + 1..src + n, r * m + p);
        }
        l.truncate(m * m);
        self.l = Matrix::from_vec(m, m, l).expect("m² entries");
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

    /// `a` without row and column `p`.
    fn without(a: &Matrix, p: usize) -> Matrix {
        let keep: Vec<usize> = (0..a.rows()).filter(|&i| i != p).collect();
        a.select_rows(&keep).select_cols(&keep)
    }

    /// `got` factors `a`, and matches a fresh factor of it when `a` is
    /// well conditioned: both to 1e-12 of the largest entry.
    fn assert_factors(got: &Cholesky, a: &Matrix, well_conditioned: bool) {
        let rel = |diff: f64, of: &Matrix| {
            let scale = of.as_slice().iter().fold(0.0f64, |m, v| m.max(v.abs()));
            assert!(diff <= 1e-12 * scale, "off by {diff} at scale {scale}");
        };
        let l = got.factor();
        rel(
            l.matmul(&l.transpose()).unwrap().max_abs_diff(a).unwrap(),
            a,
        );
        if well_conditioned {
            let want = a.cholesky().unwrap();
            rel(l.max_abs_diff(want.factor()).unwrap(), want.factor());
        }
    }

    #[test]
    fn remove_matches_factoring_the_submatrix() {
        for n in [1, 2, 7, 30] {
            let a = spd(n, 100 + n as u64);
            for p in 0..n {
                let mut c = a.cholesky().unwrap();
                c.remove(p);
                assert_eq!(c.dim(), n - 1);
                assert_factors(&c, &without(&a, p), true);
            }
        }
    }

    #[test]
    fn remove_matches_on_a_ridged_rank_deficient_gram() {
        // The box QP's free-set shape: `BBᵀ` with more rows than `B` has
        // columns, singular but for a ridge of 1e-10 of its mean diagonal.
        let (n, rank) = (30, 6);
        let mut state = 0x5eedu64;
        let b = Matrix::from_fn(n, rank, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        let mut a = b.matmul(&b.transpose()).unwrap();
        let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
        a.add_diag(1e-10 * trace / n as f64);
        for p in 0..n {
            let mut c = a.cholesky().unwrap();
            c.remove(p);
            assert_factors(&c, &without(&a, p), false);
        }
    }

    #[test]
    fn chained_removals_reach_dimension_zero() {
        let mut a = spd(9, 5);
        let mut c = a.cholesky().unwrap();
        for p in [4, 0, 6, 2, 2, 3, 0, 1, 0] {
            c.remove(p);
            a = without(&a, p);
            assert_factors(&c, &a, true);
        }
        assert_eq!(c.dim(), 0);
        c.solve_in_place(&mut []).unwrap();
    }

    #[test]
    fn solve_in_place_is_solve() {
        let mut c = spd(12, 7).cholesky().unwrap();
        c.remove(3);
        let b: Vec<f64> = (0..11).map(|i| (i as f64).cos()).collect();
        let mut x = b.clone();
        c.solve_in_place(&mut x).unwrap();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&c.solve(&b).unwrap()));
        assert!(c.solve_in_place(&mut [1.0; 12]).is_err());
    }

    #[test]
    fn one_by_one() {
        let c = Matrix::from_rows(&[&[4.0]]).unwrap().cholesky().unwrap();
        assert_eq!(c.solve(&[8.0]).unwrap(), vec![2.0]);
    }
}
