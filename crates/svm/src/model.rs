//! Kernel SVM trained on the Wolfe dual.

use ppml_data::Dataset;
use ppml_kernel::Kernel;
use ppml_linalg::Matrix;
use ppml_qp::{solve_box_eq, QpConfig};

use crate::{Result, SvmError};

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SvmParams {
    /// Slack penalty `C` (the paper's evaluation uses `C = 50`).
    pub c: f64,
    /// Kernel function.
    pub kernel: Kernel,
    /// Dual KKT tolerance.
    pub tol: f64,
    /// SMO iteration cap.
    pub max_iter: usize,
}

impl Default for SvmParams {
    /// The paper's evaluation settings: `C = 50`, linear kernel.
    fn default() -> Self {
        SvmParams {
            c: 50.0,
            kernel: Kernel::Linear,
            tol: 1e-6,
            max_iter: 200_000,
        }
    }
}

/// A trained (possibly nonlinear) SVM classifier.
///
/// Stores the support vectors with their dual weights; the discriminant is
/// `f(x) = Σ_{i∈SV} λ_i y_i K(x_i, x) + b` (§III-B).
#[derive(Debug, Clone)]
pub struct KernelSvm {
    kernel: Kernel,
    support_x: Matrix,
    /// `λ_i y_i` per support vector.
    coeffs: Vec<f64>,
    bias: f64,
    features: usize,
}

impl KernelSvm {
    /// Trains on `data` with the given parameters.
    ///
    /// # Errors
    ///
    /// [`SvmError::BadTrainingSet`] for empty or single-class data;
    /// [`SvmError::Solver`] if the dual QP fails.
    pub fn train(data: &Dataset, params: &SvmParams) -> Result<Self> {
        if data.is_empty() {
            return Err(SvmError::BadTrainingSet { reason: "empty" });
        }
        let (pos, neg) = data.class_counts();
        if pos == 0 || neg == 0 {
            return Err(SvmError::BadTrainingSet {
                reason: "single-class",
            });
        }
        let n = data.len();
        let y = data.y();
        // H_ij = y_i K(x_i, x_j) y_j
        let gram = params.kernel.gram(data.x());
        let h = Matrix::from_fn(n, n, |i, j| y[i] * gram[(i, j)] * y[j]);
        let lin = vec![-1.0; n];
        let sol = solve_box_eq(
            &h,
            &lin,
            0.0,
            params.c,
            y,
            0.0,
            &QpConfig {
                tol: params.tol,
                max_iter: params.max_iter,
            },
        )?;
        let lambda = sol.x;

        // Collect support vectors and recover the bias from the free ones
        // (0 < λ < C), averaged per Burges; fall back to the KKT interval
        // midpoint when every SV is at bound.
        let sv_idx: Vec<usize> = (0..n).filter(|&i| lambda[i] > params.c * 1e-8).collect();
        let support_x = data.x().select_rows(&sv_idx);
        let coeffs: Vec<f64> = sv_idx.iter().map(|&i| lambda[i] * y[i]).collect();

        let raw = |xi: &[f64]| -> f64 {
            sv_idx
                .iter()
                .zip(&coeffs)
                .map(|(&j, &c)| c * params.kernel.eval(data.sample(j), xi))
                .sum()
        };
        let free: Vec<usize> = sv_idx
            .iter()
            .copied()
            .filter(|&i| lambda[i] > params.c * 1e-6 && lambda[i] < params.c * (1.0 - 1e-6))
            .collect();
        let bias = if !free.is_empty() {
            free.iter()
                .map(|&i| y[i] - raw(data.sample(i)))
                .sum::<f64>()
                / free.len() as f64
        } else {
            // All SVs at bound: take the midpoint of the feasible interval
            // [max over y=+1 of (1 - f), min over y=-1 of (-1 - f)].
            let mut lo = f64::NEG_INFINITY;
            let mut hi = f64::INFINITY;
            for (i, &yi) in y.iter().enumerate().take(n) {
                let v = raw(data.sample(i));
                if yi > 0.0 {
                    lo = lo.max(1.0 - v);
                } else {
                    hi = hi.min(-1.0 - v);
                }
            }
            if lo.is_finite() && hi.is_finite() {
                0.5 * (lo + hi)
            } else {
                0.0
            }
        };

        Ok(KernelSvm {
            kernel: params.kernel,
            support_x,
            coeffs,
            bias,
            features: data.features(),
        })
    }

    /// Decision value `f(x)`; the predicted class is its sign. The batch of
    /// one: bit for bit what [`KernelSvm::decision_batch`] gives the row.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] for a wrong-sized feature vector.
    pub fn decision(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.features {
            return Err(SvmError::DimensionMismatch {
                expected: self.features,
                found: x.len(),
            });
        }
        Ok(self.margins(1, x)[0])
    }

    /// Decision values of a batch of samples flattened row-major into `xs`
    /// (`xs.len() == rows × features`), one per row.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] when `xs` is not a whole number of
    /// rows; `found` is the length of the stray partial row.
    pub fn decision_batch(&self, xs: &[f64]) -> Result<Vec<f64>> {
        let rows = xs.len().checked_div(self.features).unwrap_or(0);
        if rows * self.features != xs.len() {
            return Err(SvmError::DimensionMismatch {
                expected: self.features,
                found: xs.len() - rows * self.features,
            });
        }
        Ok(self.margins(rows, xs))
    }

    /// `f(x_r) = Σ_i c_i K(x_r, s_i) + b` for `rows` checked rows.
    fn margins(&self, rows: usize, xs: &[f64]) -> Vec<f64> {
        let mut f = self.kernel.expand(rows, xs, &self.support_x, &self.coeffs);
        for v in &mut f {
            *v += self.bias;
        }
        f
    }

    /// Predicted label in `{−1, +1}` (ties break positive).
    ///
    /// # Errors
    ///
    /// As [`KernelSvm::decision`].
    pub fn classify(&self, x: &[f64]) -> Result<f64> {
        Ok(if self.decision(x)? >= 0.0 { 1.0 } else { -1.0 })
    }

    /// Fraction of `data` classified correctly (the paper's "correct
    /// classification ratio").
    ///
    /// # Panics
    ///
    /// Panics if `data` has a different feature count than the model.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        let margins = self.margins(data.len(), data.x().as_slice());
        crate::accuracy(margins.into_iter().zip(data.y().iter().copied()))
    }

    /// Number of support vectors.
    #[cfg(test)]
    fn support_vector_count(&self) -> usize {
        self.coeffs.len()
    }

    /// The bias term `b`.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// The kernel this model was trained with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Feature dimension the model expects.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Support vectors (rows) and their `λ_i y_i` coefficients.
    pub fn support_vectors(&self) -> (&Matrix, &[f64]) {
        (&self.support_x, &self.coeffs)
    }

    /// Rebuilds a model from its parts — the deserialization path for the
    /// binary model format, and the bridge from trainers that produce
    /// kernel-expansion models in other shapes. The feature dimension is
    /// `support_x.cols()`.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] when `coeffs.len()` differs from
    /// `support_x.rows()`.
    pub fn from_parts(
        kernel: Kernel,
        support_x: Matrix,
        coeffs: Vec<f64>,
        bias: f64,
    ) -> Result<Self> {
        if coeffs.len() != support_x.rows() {
            return Err(SvmError::DimensionMismatch {
                expected: support_x.rows(),
                found: coeffs.len(),
            });
        }
        let features = support_x.cols();
        Ok(KernelSvm {
            kernel,
            support_x,
            coeffs,
            bias,
            features,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppml_data::synth;

    #[test]
    fn separable_blobs_reach_high_accuracy() {
        let ds = synth::blobs(100, 1);
        let m = KernelSvm::train(&ds, &SvmParams::default()).unwrap();
        assert!(m.accuracy(&ds) > 0.97, "{}", m.accuracy(&ds));
        assert!(m.support_vector_count() < ds.len());
    }

    #[test]
    fn generalizes_to_fresh_test_data() {
        let ds = synth::cancer_like(400, 2);
        let (train, test) = ds.split(0.5, 3).unwrap();
        let m = KernelSvm::train(&train, &SvmParams::default()).unwrap();
        let acc = m.accuracy(&test);
        assert!(acc > 0.88, "cancer-like test accuracy {acc}");
    }

    #[test]
    fn rbf_solves_xor_where_linear_fails() {
        let ds = synth::xor_like(240, 4);
        let (train, test) = ds.split(0.5, 5).unwrap();
        let linear = KernelSvm::train(&train, &SvmParams::default()).unwrap();
        let rbf = KernelSvm::train(
            &train,
            &SvmParams {
                kernel: Kernel::Rbf { gamma: 0.5 },
                ..Default::default()
            },
        )
        .unwrap();
        // A shifted hyperplane can capture 3 of the 4 XOR quadrants (~75%),
        // but only a nonlinear boundary separates all four.
        let lin_acc = linear.accuracy(&test);
        let rbf_acc = rbf.accuracy(&test);
        assert!(lin_acc < 0.85, "linear cannot solve xor, got {lin_acc}");
        assert!(rbf_acc > 0.90, "rbf should solve xor, got {rbf_acc}");
        assert!(rbf_acc > lin_acc + 0.1, "kernel advantage missing");
    }

    #[test]
    fn known_two_point_solution() {
        // Points ±1 on the line, labels ±1 → w = 1, b = 0, margin hits both.
        let ds = Dataset::new(
            Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap(),
            vec![1.0, -1.0],
        )
        .unwrap();
        let m = KernelSvm::train(&ds, &SvmParams::default()).unwrap();
        assert!((m.decision(&[1.0]).unwrap() - 1.0).abs() < 1e-5);
        assert!((m.decision(&[-1.0]).unwrap() + 1.0).abs() < 1e-5);
        assert!(m.bias().abs() < 1e-6);
    }

    #[test]
    fn rejects_bad_training_sets() {
        let empty = Dataset::new(Matrix::zeros(0, 2), vec![]).unwrap();
        assert!(matches!(
            KernelSvm::train(&empty, &SvmParams::default()),
            Err(SvmError::BadTrainingSet { .. })
        ));
        let single = Dataset::new(Matrix::zeros(3, 2), vec![1.0, 1.0, 1.0]).unwrap();
        assert!(matches!(
            KernelSvm::train(&single, &SvmParams::default()),
            Err(SvmError::BadTrainingSet { .. })
        ));
    }

    #[test]
    fn dimension_checked_at_prediction() {
        let ds = synth::blobs(20, 6);
        let m = KernelSvm::train(&ds, &SvmParams::default()).unwrap();
        assert!(matches!(
            m.decision(&[1.0, 2.0, 3.0]),
            Err(SvmError::DimensionMismatch {
                expected: 2,
                found: 3
            })
        ));
    }

    #[test]
    fn slack_penalty_controls_margin_violations() {
        // With a tiny C the model tolerates misclassification; with a large
        // C it fits the separable data exactly.
        let ds = synth::blobs(60, 7);
        let soft = KernelSvm::train(
            &ds,
            &SvmParams {
                c: 1e-4,
                ..Default::default()
            },
        )
        .unwrap();
        let hard = KernelSvm::train(
            &ds,
            &SvmParams {
                c: 100.0,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(hard.accuracy(&ds) >= soft.accuracy(&ds));
    }

    #[test]
    fn from_parts_reproduces_the_decision_function() {
        let ds = synth::xor_like(80, 9);
        let params = SvmParams {
            kernel: Kernel::Rbf { gamma: 0.5 },
            ..Default::default()
        };
        let m = KernelSvm::train(&ds, &params).unwrap();
        let (sv, coeffs) = m.support_vectors();
        let rebuilt =
            KernelSvm::from_parts(m.kernel(), sv.clone(), coeffs.to_vec(), m.bias()).unwrap();
        assert_eq!(rebuilt.features(), m.features());
        for i in 0..ds.len() {
            let x = ds.sample(i);
            assert_eq!(rebuilt.decision(x).unwrap(), m.decision(x).unwrap());
        }
        // Coefficient/support mismatches are rejected.
        assert!(matches!(
            KernelSvm::from_parts(m.kernel(), sv.clone(), vec![0.0], m.bias()),
            Err(SvmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn batch_decisions_are_bit_for_bit_the_per_row_decisions() {
        let ds = synth::xor_like(120, 9);
        let params = SvmParams {
            kernel: Kernel::Rbf { gamma: 0.5 },
            ..Default::default()
        };
        let m = KernelSvm::train(&ds, &params).unwrap();
        let features = ds.features();
        for rows in [0, 1, 7, 8, 9, 17, 120] {
            let xs = &ds.x().as_slice()[..rows * features];
            let batch = m.decision_batch(xs).unwrap();
            assert_eq!(batch.len(), rows);
            for (r, f) in batch.iter().enumerate() {
                let single = m.decision(ds.sample(r)).unwrap();
                assert_eq!(f.to_bits(), single.to_bits(), "row {r} of {rows}");
            }
        }
        // The batch accuracy is the per-row loop it replaced.
        let per_row = crate::accuracy(
            (0..ds.len()).map(|i| (m.classify(ds.sample(i)).unwrap(), ds.label(i))),
        );
        assert_eq!(m.accuracy(&ds), per_row);
        // A stray partial row is a typed error, not a shorter answer.
        assert!(matches!(
            m.decision_batch(&ds.x().as_slice()[..3 * features + 1]),
            Err(SvmError::DimensionMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn training_is_deterministic() {
        let ds = synth::cancer_like(120, 11);
        let a = KernelSvm::train(&ds, &SvmParams::default()).unwrap();
        let b = KernelSvm::train(&ds, &SvmParams::default()).unwrap();
        assert_eq!(a.bias(), b.bias());
        assert_eq!(a.support_vector_count(), b.support_vector_count());
    }
}
