//! Nyström low-rank kernel approximation.
//!
//! The vertical kernel trainer factors `(I + ρK_m)` with `K_m` an `N × N`
//! Gram matrix — cubic setup and quadratic memory, which caps the usable
//! `N` well below the paper's HIGGS scale. The Nyström method replaces
//! `K` with `K̃ = C·W⁻¹·Cᵀ` where `C = K(X, L)` against `l ≪ N` landmark
//! rows and `W = K(L, L)`; the Woodbury identity then solves
//! `(I + ρK̃)⁻¹e = e − C·(W/ρ + CᵀC)⁻¹·Cᵀe` in `O(N·l)` per application
//! after an `O(N·l²)` setup. This is the same landmark idea the paper uses
//! for the *horizontal* kernel consensus (§IV-B), applied to the vertical
//! scheme's per-node operator.

use ppml_linalg::{vecops, Cholesky, LinalgError, Matrix};

use crate::Kernel;

/// A fitted Nyström factor for the regularized solve
/// `(I + ρK̃)⁻¹` and the associated landmark expansion.
///
/// # Example
///
/// ```
/// use ppml_kernel::{Kernel, NystromFactor};
/// use ppml_linalg::Matrix;
///
/// # fn main() -> Result<(), ppml_linalg::LinalgError> {
/// let x = Matrix::from_fn(40, 3, |i, j| ((i * 3 + j) as f64 * 0.7).sin());
/// let ny = NystromFactor::fit(&x, Kernel::Rbf { gamma: 0.5 }, 10, 100.0, 7)?;
/// let e = vec![1.0; 40];
/// let alpha = ny.solve(&e)?;            // ≈ (I + ρK)⁻¹ e
/// assert_eq!(alpha.len(), 40);
/// assert_eq!(ny.rank(), 10);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NystromFactor {
    /// `C = K(X, L)`, `N × l`.
    c: Matrix,
    /// Cholesky of `W = K(L, L) + jitter`.
    chol_w: Cholesky,
    /// Cholesky of `S = W/ρ + CᵀC`.
    chol_s: Cholesky,
    landmarks: Matrix,
    rho: f64,
}

impl NystromFactor {
    /// Fits the factor over the rows of `x` with `l` landmarks subsampled
    /// deterministically by `seed`.
    ///
    /// # Errors
    ///
    /// [`LinalgError`] when a factorization breaks down (only possible for
    /// non-positive-definite kernels).
    ///
    /// # Panics
    ///
    /// Panics if `l == 0` or `l > x.rows()` (from the landmark subsampler).
    pub fn fit(
        x: &Matrix,
        kernel: Kernel,
        l: usize,
        rho: f64,
        seed: u64,
    ) -> Result<Self, LinalgError> {
        let landmarks = crate::LandmarkSet::subsample(x, l, seed);
        Self::fit_with_landmarks(x, kernel, landmarks.points().clone(), rho)
    }

    /// Fits with explicitly chosen landmark rows.
    ///
    /// # Errors
    ///
    /// As [`NystromFactor::fit`].
    fn fit_with_landmarks(
        x: &Matrix,
        kernel: Kernel,
        landmarks: Matrix,
        rho: f64,
    ) -> Result<Self, LinalgError> {
        let c = kernel.cross_gram(x, &landmarks);
        let mut w = kernel.gram(&landmarks);
        w.add_diag(1e-8);
        let chol_w = w.cholesky()?;
        // S = W/ρ + CᵀC
        let mut s = c.t_matmul(&c)?;
        for i in 0..s.rows() {
            for j in 0..s.cols() {
                s[(i, j)] += w[(i, j)] / rho;
            }
        }
        let chol_s = factor_s(&s)?;
        Ok(NystromFactor {
            c,
            chol_w,
            chol_s,
            landmarks,
            rho,
        })
    }

    /// The approximation rank `l`.
    pub fn rank(&self) -> usize {
        self.landmarks.rows()
    }

    /// The landmark rows.
    pub fn landmarks(&self) -> &Matrix {
        &self.landmarks
    }

    /// Applies `(I + ρK̃)⁻¹` to `e` via Woodbury in `O(N·l)`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `e.len() != N`.
    pub fn solve(&self, e: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let cte = self.c.t_matvec(e)?;
        let t = self.chol_s.solve(&cte)?;
        let correction = self.c.matvec(&t)?;
        Ok(vecops::sub(e, &correction))
    }

    /// Landmark expansion coefficients `w_L = ρ·W⁻¹·Cᵀα` such that the
    /// node's contribution is `c = C·w_L` and its discriminant piece is
    /// `f(x) = K(x, L)·w_L`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `alpha.len() != N`.
    pub fn landmark_coeffs(&self, alpha: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let cta = self.c.t_matvec(alpha)?;
        Ok(vecops::scale(&self.chol_w.solve(&cta)?, self.rho))
    }

    /// The node contribution `C·w_L` for given landmark coefficients.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `coeffs.len() != l`.
    pub fn contribution(&self, coeffs: &[f64]) -> Result<Vec<f64>, LinalgError> {
        self.c.matvec(coeffs)
    }

    /// Materializes `K̃` (tests only — quadratic memory).
    #[cfg(test)]
    fn approx_gram(&self) -> Result<Matrix, LinalgError> {
        // K̃ = C·W⁻¹·Cᵀ.
        let winv_ct = self.chol_w.solve_matrix(&self.c.transpose())?;
        self.c.matmul(&winv_ct)
    }
}

/// Factors `S = W/ρ + CᵀC`. The jitter on `W` reaches `S` divided by `ρ`,
/// while an entry of `CᵀC` is a sum of `N` products and grows with `N`: at
/// the paper's sizes its round-off alone is larger, and near-duplicate
/// landmarks leave `S` indefinite in its last bits. When the plain factor
/// breaks down, retry with a ridge of 1e-12 … 1e-6 (×10 per retry) of the
/// mean diagonal of `S`, then give the typed error up.
fn factor_s(s: &Matrix) -> Result<Cholesky, LinalgError> {
    let mean_diag = (0..s.rows()).map(|i| s[(i, i)]).sum::<f64>() / s.rows() as f64;
    let mut factored = s.cholesky();
    for exponent in (6..=12).rev() {
        if !matches!(factored, Err(LinalgError::NotPositiveDefinite { .. })) {
            break;
        }
        let mut ridged = s.clone();
        ridged.add_diag(10f64.powi(-exponent) * mean_diag);
        factored = ridged.cholesky();
    }
    factored
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(n: usize) -> Matrix {
        Matrix::from_fn(n, 4, |i, j| ((i * 4 + j) as f64 * 0.37).sin() * 2.0)
    }

    #[test]
    fn full_rank_nystrom_is_exact() {
        // With every row a landmark, K̃ = K exactly.
        let x = data(20);
        let kernel = Kernel::Rbf { gamma: 0.3 };
        let ny = NystromFactor::fit_with_landmarks(&x, kernel, x.clone(), 100.0).unwrap();
        let exact = kernel.gram(&x);
        let approx = ny.approx_gram().unwrap();
        assert!(exact.max_abs_diff(&approx).unwrap() < 1e-4);
    }

    #[test]
    fn solve_matches_dense_woodbury_free_solve() {
        let x = data(25);
        let kernel = Kernel::Rbf { gamma: 0.3 };
        let rho = 50.0;
        let ny = NystromFactor::fit_with_landmarks(&x, kernel, x.clone(), rho).unwrap();
        // Dense reference with the same (full-rank) approximate kernel.
        let mut op = ny.approx_gram().unwrap().scale(rho);
        op.add_diag(1.0);
        let e: Vec<f64> = (0..25).map(|i| (i as f64).cos()).collect();
        let dense = op.cholesky().unwrap().solve(&e).unwrap();
        let fast = ny.solve(&e).unwrap();
        for (a, b) in fast.iter().zip(&dense) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn low_rank_approximates_smooth_kernels_well() {
        // RBF Grams of clustered data decay fast; rank 10 of 40 should be
        // close in operator action.
        let x = data(40);
        let kernel = Kernel::Rbf { gamma: 0.1 };
        let ny = NystromFactor::fit(&x, kernel, 10, 100.0, 3).unwrap();
        let exact = kernel.gram(&x);
        let approx = ny.approx_gram().unwrap();
        let rel = approx.sub(&exact).unwrap().fro_norm() / exact.fro_norm();
        assert!(rel < 0.15, "relative error {rel}");
    }

    #[test]
    fn contribution_consistency() {
        // c = C·w_L must equal ρ·K̃·α.
        let x = data(30);
        let kernel = Kernel::Rbf { gamma: 0.2 };
        let rho = 10.0;
        let ny = NystromFactor::fit(&x, kernel, 12, rho, 4).unwrap();
        let e: Vec<f64> = (0..30).map(|i| (i as f64 * 0.9).sin()).collect();
        let alpha = ny.solve(&e).unwrap();
        let w_l = ny.landmark_coeffs(&alpha).unwrap();
        let c1 = ny.contribution(&w_l).unwrap();
        let c2 = vecops::scale(&ny.approx_gram().unwrap().matvec(&alpha).unwrap(), rho);
        for (a, b) in c1.iter().zip(&c2) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn near_duplicate_landmarks_over_many_rows_still_factor() {
        // 200 landmarks on a 97-point curve: `CᵀC` is numerically singular
        // and its round-off (entries ≈ N) dwarfs the 1e-8/ρ that the jitter
        // on `W` contributes to `S`, so the unridged factor breaks down.
        let x = Matrix::from_fn(600, 2, |i, j| {
            ((i % 97) as f64 * 0.13 + j as f64).sin() + i as f64 * 1e-7
        });
        let ny = NystromFactor::fit(&x, Kernel::Rbf { gamma: 0.25 }, 200, 1e4, 7).unwrap();
        // The ridged factor still inverts `I + ρK̃`: α + ρK̃α = e, to what
        // the jittered `W⁻¹` in `landmark_coeffs` resolves at this ρ.
        let e: Vec<f64> = (0..600).map(|i| (i as f64 * 0.3).cos()).collect();
        let alpha = ny.solve(&e).unwrap();
        let rho_k_alpha = ny
            .contribution(&ny.landmark_coeffs(&alpha).unwrap())
            .unwrap();
        for ((a, k), e) in alpha.iter().zip(&rho_k_alpha).zip(&e) {
            assert!((a + k - e).abs() < 1e-2, "{a} + {k} vs {e}");
        }
    }

    #[test]
    fn shape_validation() {
        let x = data(10);
        let ny = NystromFactor::fit(&x, Kernel::Linear, 3, 1.0, 5).unwrap();
        assert!(ny.solve(&[0.0; 9]).is_err());
        assert!(ny.landmark_coeffs(&[0.0; 9]).is_err());
        assert!(ny.contribution(&[0.0; 4]).is_err());
        assert_eq!(ny.rank(), 3);
    }
}
