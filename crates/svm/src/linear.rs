//! Linear SVM with an explicit weight vector.

use ppml_data::Dataset;
use ppml_kernel::Kernel;

use crate::{KernelSvm, Result, SvmError, SvmParams};

/// A linear SVM `f(x) = wᵀx + b` with materialized weights.
///
/// Trained through the same dual as [`KernelSvm`] (with the linear kernel),
/// then collapsed to `w = Σ λ_i y_i x_i` — the form the horizontally
/// partitioned trainer reaches consensus on.
///
/// # Example
///
/// ```
/// use ppml_data::synth;
/// use ppml_svm::LinearSvm;
///
/// # fn main() -> Result<(), ppml_svm::SvmError> {
/// let ds = synth::blobs(60, 2);
/// let m = LinearSvm::train(&ds, 50.0)?;
/// assert_eq!(m.weights().len(), 2);
/// assert!(m.accuracy(&ds) > 0.95);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LinearSvm {
    w: Vec<f64>,
    b: f64,
}

impl LinearSvm {
    /// Trains with slack penalty `c` (dual SMO + weight extraction).
    ///
    /// # Errors
    ///
    /// As [`KernelSvm::train`].
    pub fn train(data: &Dataset, c: f64) -> Result<Self> {
        let model = KernelSvm::train(
            data,
            &SvmParams {
                c,
                kernel: Kernel::Linear,
                ..Default::default()
            },
        )?;
        Ok(Self::from_kernel_model(&model))
    }

    /// Collapses a linear-kernel [`KernelSvm`] into explicit weights.
    ///
    /// # Panics
    ///
    /// Panics if the model was trained with a non-linear kernel (weights do
    /// not exist in input space then).
    fn from_kernel_model(model: &KernelSvm) -> Self {
        assert_eq!(
            model.kernel(),
            Kernel::Linear,
            "explicit weights require the linear kernel"
        );
        let (sv, coeffs) = model.support_vectors();
        let mut w = vec![0.0; model.features()];
        for (i, &c) in coeffs.iter().enumerate() {
            ppml_linalg::vecops::axpy(c, sv.row(i), &mut w);
        }
        LinearSvm { w, b: model.bias() }
    }

    /// Builds a model directly from weights (used by the distributed
    /// trainers to wrap their consensus result).
    pub fn from_parts(w: Vec<f64>, b: f64) -> Self {
        LinearSvm { w, b }
    }

    /// The weight vector `w`.
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// The bias `b`.
    pub fn bias(&self) -> f64 {
        self.b
    }

    /// Decision value `wᵀx + b`.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] for a wrong-sized input.
    pub fn decision(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.w.len() {
            return Err(SvmError::DimensionMismatch {
                expected: self.w.len(),
                found: x.len(),
            });
        }
        Ok(ppml_linalg::vecops::dot(&self.w, x) + self.b)
    }

    /// Predicted label in `{−1, +1}`.
    ///
    /// # Errors
    ///
    /// As [`LinearSvm::decision`].
    pub fn classify(&self, x: &[f64]) -> Result<f64> {
        Ok(if self.decision(x)? >= 0.0 { 1.0 } else { -1.0 })
    }

    /// Serializes as a small line-oriented text format (stable across
    /// versions of this crate; see [`LinearSvm::from_text`]).
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "ppml-linear-svm v1\nbias {:e}\nweights {}\n",
            self.b,
            self.w.len()
        );
        for w in &self.w {
            out.push_str(&format!("{w:e}\n"));
        }
        out
    }

    /// Parses the format produced by [`LinearSvm::to_text`].
    ///
    /// # Errors
    ///
    /// [`SvmError::BadTrainingSet`] (reused as the generic parse failure
    /// carrier) when the header, counts or numbers are malformed.
    pub fn from_text(text: &str) -> Result<Self> {
        let parse_err = || SvmError::BadTrainingSet {
            reason: "malformed model text",
        };
        let mut lines = text.lines();
        if lines.next() != Some("ppml-linear-svm v1") {
            return Err(parse_err());
        }
        let bias_line = lines.next().ok_or_else(parse_err)?;
        let b: f64 = bias_line
            .strip_prefix("bias ")
            .ok_or_else(parse_err)?
            .parse()
            .map_err(|_| parse_err())?;
        let count_line = lines.next().ok_or_else(parse_err)?;
        let k: usize = count_line
            .strip_prefix("weights ")
            .ok_or_else(parse_err)?
            .parse()
            .map_err(|_| parse_err())?;
        let mut w = Vec::with_capacity(k);
        for _ in 0..k {
            let v: f64 = lines
                .next()
                .ok_or_else(parse_err)?
                .trim()
                .parse()
                .map_err(|_| parse_err())?;
            w.push(v);
        }
        Ok(LinearSvm { w, b })
    }

    /// Correct-classification ratio on `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data`'s feature count differs from the model's.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        crate::accuracy((0..data.len()).map(|i| {
            (
                self.classify(data.sample(i)).expect("dimension checked"),
                data.label(i),
            )
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppml_data::synth;
    use ppml_linalg::Matrix;

    #[test]
    fn matches_kernel_model_decisions() {
        let ds = synth::cancer_like(150, 3);
        let km = KernelSvm::train(&ds, &SvmParams::default()).unwrap();
        let lm = LinearSvm::from_kernel_model(&km);
        for i in 0..20 {
            let a = km.decision(ds.sample(i)).unwrap();
            let b = lm.decision(ds.sample(i)).unwrap();
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
    }

    #[test]
    fn two_point_weights() {
        let ds = ppml_data::Dataset::new(
            Matrix::from_rows(&[&[1.0], &[-1.0]]).unwrap(),
            vec![1.0, -1.0],
        )
        .unwrap();
        let m = LinearSvm::train(&ds, 50.0).unwrap();
        assert!((m.weights()[0] - 1.0).abs() < 1e-5);
        assert!(m.bias().abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "linear kernel")]
    fn refuses_nonlinear_models() {
        let ds = synth::blobs(30, 1);
        let km = KernelSvm::train(
            &ds,
            &SvmParams {
                kernel: Kernel::Rbf { gamma: 1.0 },
                ..Default::default()
            },
        )
        .unwrap();
        let _ = LinearSvm::from_kernel_model(&km);
    }

    #[test]
    fn text_serialization_roundtrip() {
        let m = LinearSvm::from_parts(vec![1.5, -2.25e-3, 0.0], -0.125);
        let back = LinearSvm::from_text(&m.to_text()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn text_parsing_rejects_garbage() {
        assert!(LinearSvm::from_text("").is_err());
        assert!(LinearSvm::from_text("wrong header\nbias 0\nweights 0\n").is_err());
        assert!(LinearSvm::from_text("ppml-linear-svm v1\nbias x\nweights 0\n").is_err());
        assert!(LinearSvm::from_text("ppml-linear-svm v1\nbias 0\nweights 2\n1.0\n").is_err());
    }

    #[test]
    fn from_parts_roundtrip() {
        let m = LinearSvm::from_parts(vec![1.0, -2.0], 0.5);
        assert_eq!(m.decision(&[2.0, 1.0]).unwrap(), 0.5);
        assert_eq!(m.classify(&[2.0, 1.0]).unwrap(), 1.0);
        assert!(m.decision(&[1.0]).is_err());
    }
}
