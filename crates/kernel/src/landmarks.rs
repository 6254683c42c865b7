use ppml_linalg::Matrix;

use crate::Kernel;

/// How landmark points `X_g` are chosen for the reduced-space consensus.
///
/// §IV-B: "`X_g` could be randomly chosen such that `K(X_g, X_g)` is
/// non-singular". The strategies here are the two natural readings, plus a
/// deterministic grid useful in tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LandmarkStrategy {
    /// Sample `l` rows (without replacement) from the local training data.
    /// This is what the evaluation uses: the landmarks then live where the
    /// data lives, which keeps `K(X_g, X)` informative.
    SubsampleRows,
    /// Draw `l` i.i.d. standard-normal points in feature space. Fully
    /// data-independent (the landmarks reveal nothing about any learner's
    /// data), at some cost in approximation quality.
    GaussianNoise,
}

/// A shared set of `l` landmark points defining the dimension-reduction map
/// `G = φ(X_g)` of §IV-B.
///
/// All learners must agree on the same landmark set before training; in the
/// MapReduce deployment it is broadcast once by the driver.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), ppml_linalg::LinalgError> {
/// use ppml_kernel::{Kernel, LandmarkSet};
/// use ppml_linalg::Matrix;
///
/// let data = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0], &[0.5, 0.5]])?;
/// let lm = LandmarkSet::subsample(&data, 2, 42);
/// let kgg = lm.gram(Kernel::Rbf { gamma: 1.0 });
/// assert_eq!(kgg.shape(), (2, 2));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LandmarkSet {
    points: Matrix,
}

impl LandmarkSet {
    /// Samples `l` distinct rows of `data` using a splittable xorshift
    /// stream seeded with `seed` (deterministic across runs and platforms).
    ///
    /// # Panics
    ///
    /// Panics if `l == 0` or `l > data.rows()`.
    pub fn subsample(data: &Matrix, l: usize, seed: u64) -> Self {
        assert!(l > 0, "landmark count must be positive");
        assert!(
            l <= data.rows(),
            "cannot subsample {l} landmarks from {} rows",
            data.rows()
        );
        // Partial Fisher-Yates over the index set.
        let mut idx: Vec<usize> = (0..data.rows()).collect();
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for i in 0..l {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let j = i + (state as usize) % (idx.len() - i);
            idx.swap(i, j);
        }
        LandmarkSet {
            points: data.select_rows(&idx[..l]),
        }
    }

    /// Draws `l` i.i.d. standard-normal landmark points of dimension `dim`
    /// (Box-Muller over a xorshift stream; deterministic given `seed`).
    ///
    /// # Panics
    ///
    /// Panics if `l == 0` or `dim == 0`.
    pub fn gaussian(l: usize, dim: usize, seed: u64) -> Self {
        assert!(l > 0 && dim > 0, "landmark set must be non-empty");
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(7);
        let mut uniform = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64 / (1u64 << 53) as f64).clamp(f64::MIN_POSITIVE, 1.0)
        };
        let points = Matrix::from_fn(l, dim, |_, _| {
            let u1 = uniform();
            let u2 = uniform();
            (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
        });
        LandmarkSet { points }
    }

    /// Number of landmarks `l` (the reduced consensus dimension).
    pub fn len(&self) -> usize {
        self.points.rows()
    }

    /// `true` if the set contains no landmarks (never constructible through
    /// the public constructors, but required by convention alongside `len`).
    pub fn is_empty(&self) -> bool {
        self.points.rows() == 0
    }

    /// Borrows the landmark points, one per row.
    pub fn points(&self) -> &Matrix {
        &self.points
    }

    /// `K(X_g, X_g)` under `kernel`.
    pub fn gram(&self, kernel: Kernel) -> Matrix {
        kernel.gram(&self.points)
    }

    /// `K(X_g, X)` against an arbitrary data matrix.
    ///
    /// # Panics
    ///
    /// Panics if `x` has a different feature dimension.
    pub fn cross_gram(&self, kernel: Kernel, x: &Matrix) -> Matrix {
        kernel.cross_gram(&self.points, x)
    }

    /// The regularized reduced-space operator `K_g = I + ρM·K(X_g, X_g)`
    /// of §IV-B (with the coefficient re-derived; see DESIGN.md §2), plus a
    /// tiny jitter so the Cholesky factorization in the trainer cannot break
    /// down on nearly-duplicate landmarks.
    pub fn kg(&self, kernel: Kernel, rho: f64, m_learners: usize) -> Matrix {
        let mut kg = self.gram(kernel).scale(rho * m_learners as f64);
        kg.add_diag(1.0 + 1e-10);
        kg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Matrix {
        Matrix::from_fn(10, 3, |i, j| ((i * 3 + j) as f64 * 0.37).sin())
    }

    #[test]
    fn subsample_draws_existing_rows() {
        let d = data();
        let lm = LandmarkSet::subsample(&d, 4, 1);
        assert_eq!(lm.len(), 4);
        assert!(!lm.is_empty());
        for i in 0..4 {
            let p = lm.points().row(i);
            assert!(
                (0..d.rows()).any(|r| d.row(r) == p),
                "landmark {i} is not a data row"
            );
        }
    }

    #[test]
    fn subsample_rows_are_distinct() {
        let d = data();
        let lm = LandmarkSet::subsample(&d, 10, 9);
        for i in 0..10 {
            for j in (i + 1)..10 {
                assert_ne!(lm.points().row(i), lm.points().row(j));
            }
        }
    }

    #[test]
    fn subsample_is_deterministic_in_seed() {
        let d = data();
        assert_eq!(
            LandmarkSet::subsample(&d, 3, 5),
            LandmarkSet::subsample(&d, 3, 5)
        );
        assert_ne!(
            LandmarkSet::subsample(&d, 3, 5),
            LandmarkSet::subsample(&d, 3, 6)
        );
    }

    #[test]
    #[should_panic(expected = "cannot subsample")]
    fn subsample_rejects_oversize() {
        LandmarkSet::subsample(&data(), 11, 0);
    }

    #[test]
    fn gaussian_shape_and_moments() {
        let lm = LandmarkSet::gaussian(500, 2, 3);
        assert_eq!(lm.points().shape(), (500, 2));
        let mean: f64 = lm.points().as_slice().iter().sum::<f64>() / 1000.0;
        let var: f64 = lm.points().as_slice().iter().map(|v| v * v).sum::<f64>() / 1000.0;
        assert!(mean.abs() < 0.15, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.2, "variance {var} too far from 1");
    }

    #[test]
    fn kg_is_positive_definite() {
        let d = data();
        let lm = LandmarkSet::subsample(&d, 5, 2);
        let kg = lm.kg(Kernel::Rbf { gamma: 0.5 }, 100.0, 4);
        assert!(kg.cholesky().is_ok());
        assert_eq!(kg.shape(), (5, 5));
    }

    #[test]
    fn cross_gram_dimension() {
        let d = data();
        let lm = LandmarkSet::subsample(&d, 5, 2);
        let cg = lm.cross_gram(Kernel::Linear, &d);
        assert_eq!(cg.shape(), (5, 10));
    }
}
