//! Differential privacy for the released model (extension).
//!
//! The paper's §V acknowledges "the specified result itself reveals
//! sensitive aspects of the training data" and leaves mitigation to the
//! learners' policy ("the learners … agree that the joint machine learning
//! result does not reveal their private training sets"). The related work
//! (§II) points at the principled fix: Chaudhuri & Monteleoni's
//! ε-differentially-private ERM. This module implements the **output
//! perturbation** variant for the linear consensus model: noise calibrated
//! to the L2 sensitivity of the regularized-SVM minimizer is added to
//! `(w, b)` before release.
//!
//! Sensitivity: for L2-regularized ERM with an `L`-Lipschitz loss and
//! feature norms `‖x‖ ≤ R`, the minimizer's L2 sensitivity to one record
//! is `Δ₂ = 2LR/(nλ)` (Chaudhuri–Monteleoni–Sarwate 2011). The paper's SVM
//! objective `½‖w‖² + C·Σ hinge` corresponds to `λ = 1/(nC)`, giving
//! `Δ₂ = 2·C·R` — which is why *meaningful DP requires small `C`*;
//! [`OutputPerturbation::privatize`] makes that trade-off explicit rather
//! than hiding it.

use ppml_data::rng;
use ppml_svm::LinearSvm;

use crate::{Result, TrainError};

/// Output-perturbation release of a linear model.
///
/// # Example
///
/// ```
/// use ppml_core::dp::OutputPerturbation;
/// use ppml_svm::LinearSvm;
///
/// # fn main() -> Result<(), ppml_core::TrainError> {
/// let model = LinearSvm::from_parts(vec![1.0, -2.0], 0.5);
/// let mech = OutputPerturbation::new(1.0)?.with_feature_bound(1.0);
/// // n = 1000 records, C = 0.05.
/// let private = mech.privatize(&model, 1000, 0.05, 7)?;
/// assert_eq!(private.weights().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutputPerturbation {
    epsilon: f64,
    /// Bound `R` on the feature-vector norm (1 after standardization to the
    /// unit ball; callers must clip or scale to enforce it).
    feature_bound: f64,
}

impl OutputPerturbation {
    /// Creates a mechanism with privacy budget `ε`.
    ///
    /// # Errors
    ///
    /// [`TrainError::BadConfig`] unless `ε > 0` and finite.
    pub fn new(epsilon: f64) -> Result<Self> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(TrainError::BadConfig {
                reason: format!("epsilon must be positive and finite, got {epsilon}"),
            });
        }
        Ok(OutputPerturbation {
            epsilon,
            feature_bound: 1.0,
        })
    }

    /// Sets the feature-norm bound `R` (default 1).
    pub fn with_feature_bound(mut self, r: f64) -> Self {
        self.feature_bound = r;
        self
    }

    /// The privacy budget `ε`.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// L2 sensitivity of the SVM minimizer under this mechanism's feature
    /// bound: `Δ₂ = 2LR/(nλ) = 2·C·R` with the paper's `C`-parameterized
    /// objective (hinge loss, `L = 1`).
    ///
    /// Note the *absence* of `n`: in the `C` parameterization the effective
    /// regularization weakens as data grows, so the per-record influence
    /// does not shrink. DP-oriented deployments should scale `C ∝ 1/n`.
    pub fn sensitivity(&self, c: f64) -> f64 {
        2.0 * c * self.feature_bound
    }

    /// Releases an `ε`-differentially-private copy of `model`, adding
    /// spherically symmetric noise with Gamma-distributed radius
    /// (the standard high-dimensional Laplace mechanism for L2
    /// sensitivity): `‖η‖ ~ Γ(d, Δ₂/ε)`, direction uniform.
    ///
    /// `n_records` is accepted for API symmetry and future objective-
    /// perturbation variants; the output-perturbation sensitivity in the
    /// `C` parameterization does not depend on it.
    ///
    /// # Errors
    ///
    /// [`TrainError::BadConfig`] when `c` is not positive.
    pub fn privatize(
        &self,
        model: &LinearSvm,
        n_records: usize,
        c: f64,
        seed: u64,
    ) -> Result<LinearSvm> {
        if c.is_nan() || c <= 0.0 {
            return Err(TrainError::BadConfig {
                reason: format!("C must be positive, got {c}"),
            });
        }
        let _ = n_records;
        let d = model.weights().len() + 1; // weights + bias
        let scale = self.sensitivity(c) / self.epsilon;
        let mut r = rng::seeded(seed ^ 0xD1FF);
        // Direction: uniform on the sphere via normalized Gaussian.
        let mut dir = rng::normal_vec(d, &mut r);
        let norm = dir.iter().map(|v| v * v).sum::<f64>().sqrt().max(1e-300);
        for v in &mut dir {
            *v /= norm;
        }
        // Radius: Γ(d, scale) as a sum of d Exp(scale) draws.
        let mut radius = 0.0;
        for _ in 0..d {
            let u: f64 = r.unit_f64().max(f64::MIN_POSITIVE);
            radius += -scale * u.ln();
        }
        let mut w = model.weights().to_vec();
        for (wi, di) in w.iter_mut().zip(&dir) {
            *wi += radius * di;
        }
        let b = model.bias() + radius * dir[d - 1];
        Ok(LinearSvm::from_parts(w, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppml_data::{synth, Partition};

    #[test]
    fn rejects_bad_parameters() {
        assert!(OutputPerturbation::new(0.0).is_err());
        assert!(OutputPerturbation::new(-1.0).is_err());
        assert!(OutputPerturbation::new(f64::NAN).is_err());
        let mech = OutputPerturbation::new(1.0).unwrap();
        let m = LinearSvm::from_parts(vec![0.0], 0.0);
        assert!(mech.privatize(&m, 10, 0.0, 1).is_err());
    }

    #[test]
    fn noise_shrinks_with_epsilon() {
        let model = LinearSvm::from_parts(vec![1.0; 8], 0.0);
        let dist = |eps: f64| {
            // Average perturbation over several seeds.
            (0..20)
                .map(|s| {
                    let p = OutputPerturbation::new(eps)
                        .unwrap()
                        .privatize(&model, 100, 0.1, s)
                        .unwrap();
                    p.weights()
                        .iter()
                        .zip(model.weights())
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                        .sqrt()
                })
                .sum::<f64>()
                / 20.0
        };
        let loose = dist(0.1);
        let tight = dist(10.0);
        assert!(
            loose > tight * 10.0,
            "ε=0.1 noise {loose} should dwarf ε=10 noise {tight}"
        );
    }

    #[test]
    fn sensitivity_formula() {
        let mech = OutputPerturbation::new(1.0)
            .unwrap()
            .with_feature_bound(2.0);
        assert_eq!(mech.sensitivity(0.5), 2.0);
        assert_eq!(mech.epsilon(), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let model = LinearSvm::from_parts(vec![1.0, 2.0], 0.5);
        let mech = OutputPerturbation::new(1.0).unwrap();
        let a = mech.privatize(&model, 50, 0.1, 9).unwrap();
        let b = mech.privatize(&model, 50, 0.1, 9).unwrap();
        assert_eq!(a, b);
        let c = mech.privatize(&model, 50, 0.1, 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn private_training_pipeline_retains_utility_at_modest_epsilon() {
        // End-to-end: standardize, train distributed with small C (the
        // DP-friendly regime), release with ε = 2.
        let ds = synth::cancer_like(400, 23);
        let (train, test) = ds.split(0.5, 24).unwrap();
        let (train_scaled, stats) = train.standardize().unwrap();
        let test_scaled = test.apply_scaling(&stats).unwrap();
        let scaled = Partition::horizontal(&train_scaled, 4, 25).unwrap();
        let cfg = crate::AdmmConfig::default().with_c(0.05).with_max_iter(60);
        let out = crate::HorizontalLinearSvm::train(&scaled, &cfg, None).unwrap();
        let clean_acc = out.model.accuracy(&test_scaled);
        let private = OutputPerturbation::new(2.0)
            .unwrap()
            .privatize(&out.model, train.len(), 0.05, 27)
            .unwrap();
        let private_acc = private.accuracy(&test_scaled);
        assert!(clean_acc > 0.88, "clean accuracy {clean_acc}");
        assert!(
            private_acc > clean_acc - 0.2,
            "ε=2 release lost too much: {clean_acc} -> {private_acc}"
        );
    }
}
