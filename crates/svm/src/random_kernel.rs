//! The random-kernel baseline from the paper's related work (§II).
//!
//! Mangasarian & Wild (and Mangasarian, Wild & Fung for the vertical case)
//! protect training data by disclosing only a *randomly projected* kernel:
//! the learners agree on a random basis `Ā` (shared as a common key) and
//! release `K(X, Ā)` instead of `X`; a reduced SVM is then trained over
//! those projected features. The paper criticizes the approach because the
//! random basis must be shared like a key and the scheme only fits
//! client/server topologies — but it is the natural accuracy baseline to
//! compare the consensus trainers against, so it is implemented here.
//!
//! Mechanically, the reduced SVM is a linear SVM over the transformed
//! features `φ'(x) = K(x, Ā)`, which reuses [`crate::LinearSvm`].

use ppml_data::Dataset;
use ppml_kernel::Kernel;
use ppml_linalg::Matrix;

use crate::{LinearSvm, Result, SvmError};

/// A reduced SVM over random-kernel features.
///
/// # Example
///
/// ```
/// use ppml_data::synth;
/// use ppml_kernel::Kernel;
/// use ppml_svm::RandomKernelSvm;
///
/// # fn main() -> Result<(), ppml_svm::SvmError> {
/// let ds = synth::xor_like(240, 3);
/// let (train, test) = ds.split(0.5, 4).unwrap();
/// let model = RandomKernelSvm::train(&train, Kernel::Rbf { gamma: 0.5 }, 30, 50.0, 7)?;
/// assert!(model.accuracy(&test) > 0.85);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RandomKernelSvm {
    basis: Matrix,
    kernel: Kernel,
    inner: LinearSvm,
}

impl RandomKernelSvm {
    /// Trains with a random basis of `basis_size` rows subsampled from the
    /// training data (Mangasarian's "reduced set"), seeded by `seed`.
    ///
    /// # Errors
    ///
    /// [`SvmError::BadTrainingSet`] when `basis_size` is zero or exceeds the
    /// training size, or for the usual degenerate training sets.
    pub fn train(
        data: &Dataset,
        kernel: Kernel,
        basis_size: usize,
        c: f64,
        seed: u64,
    ) -> Result<Self> {
        if basis_size == 0 || basis_size > data.len() {
            return Err(SvmError::BadTrainingSet {
                reason: "basis size must be in 1..=n",
            });
        }
        let basis = subsample_rows(data.x(), basis_size, seed);
        let transformed = transform(data, &basis, kernel)?;
        let inner = LinearSvm::train(&transformed, c)?;
        Ok(RandomKernelSvm {
            basis,
            kernel,
            inner,
        })
    }

    /// The random basis `Ā` (the "common key" the paper objects to).
    pub fn basis(&self) -> &Matrix {
        &self.basis
    }

    /// What a data owner would actually disclose for `data`: the projected
    /// features `K(X, Ā)` with the labels.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] when feature dimensions differ.
    fn disclosed_view(&self, data: &Dataset) -> Result<Dataset> {
        transform(data, &self.basis, self.kernel)
    }

    /// Decision value for a raw (untransformed) sample.
    ///
    /// # Errors
    ///
    /// [`SvmError::DimensionMismatch`] for a wrong-sized sample.
    pub fn decision(&self, x: &[f64]) -> Result<f64> {
        if x.len() != self.basis.cols() {
            return Err(SvmError::DimensionMismatch {
                expected: self.basis.cols(),
                found: x.len(),
            });
        }
        let phi = self.kernel.eval_row(x, &self.basis);
        self.inner.decision(&phi)
    }

    /// Predicted label in `{−1, +1}`.
    ///
    /// # Errors
    ///
    /// As [`RandomKernelSvm::decision`].
    pub fn classify(&self, x: &[f64]) -> Result<f64> {
        Ok(if self.decision(x)? >= 0.0 { 1.0 } else { -1.0 })
    }

    /// Correct-classification ratio on raw data.
    ///
    /// # Panics
    ///
    /// Panics if feature dimensions differ.
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        let disclosed = self
            .disclosed_view(data)
            .expect("feature dimensions differ");
        self.inner.accuracy(&disclosed)
    }
}

fn transform(data: &Dataset, basis: &Matrix, kernel: Kernel) -> Result<Dataset> {
    if data.features() != basis.cols() {
        return Err(SvmError::DimensionMismatch {
            expected: basis.cols(),
            found: data.features(),
        });
    }
    let phi = kernel.cross_gram(data.x(), basis);
    Dataset::new(phi, data.y().to_vec()).map_err(|_| SvmError::BadTrainingSet {
        reason: "transform produced inconsistent shapes",
    })
}

/// Partial Fisher–Yates subsample (deterministic in `seed`).
fn subsample_rows(x: &Matrix, l: usize, seed: u64) -> Matrix {
    let mut idx: Vec<usize> = (0..x.rows()).collect();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(0xB5);
    for i in 0..l {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = i + (state as usize) % (idx.len() - i);
        idx.swap(i, j);
    }
    x.select_rows(&idx[..l])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppml_data::synth;

    #[test]
    fn solves_xor_like_a_kernel_svm() {
        let ds = synth::xor_like(300, 5);
        let (train, test) = ds.split(0.5, 6).unwrap();
        let model =
            RandomKernelSvm::train(&train, Kernel::Rbf { gamma: 0.5 }, 40, 50.0, 7).unwrap();
        let acc = model.accuracy(&test);
        assert!(acc > 0.9, "random-kernel xor accuracy {acc}");
    }

    #[test]
    fn close_to_full_kernel_svm_on_easy_data() {
        let ds = synth::cancer_like(300, 8);
        let (train, test) = ds.split(0.5, 9).unwrap();
        let full = crate::KernelSvm::train(
            &train,
            &crate::SvmParams {
                kernel: Kernel::Rbf { gamma: 1.0 / 9.0 },
                ..Default::default()
            },
        )
        .unwrap()
        .accuracy(&test);
        let reduced =
            RandomKernelSvm::train(&train, Kernel::Rbf { gamma: 1.0 / 9.0 }, 30, 50.0, 10)
                .unwrap()
                .accuracy(&test);
        assert!(
            reduced > full - 0.07,
            "reduced {reduced} too far below full {full}"
        );
    }

    #[test]
    fn disclosed_view_is_not_the_raw_data() {
        let ds = synth::blobs(50, 11);
        let model = RandomKernelSvm::train(&ds, Kernel::Rbf { gamma: 1.0 }, 10, 50.0, 12).unwrap();
        let view = model.disclosed_view(&ds).unwrap();
        assert_eq!(view.features(), 10, "projected dimension = basis size");
        assert_ne!(view.features(), ds.features());
        // Labels are shared (that is the scheme's design).
        assert_eq!(view.y(), ds.y());
    }

    #[test]
    fn validates_inputs() {
        let ds = synth::blobs(20, 13);
        assert!(RandomKernelSvm::train(&ds, Kernel::Linear, 0, 50.0, 1).is_err());
        assert!(RandomKernelSvm::train(&ds, Kernel::Linear, 21, 50.0, 1).is_err());
        let model = RandomKernelSvm::train(&ds, Kernel::Linear, 5, 50.0, 1).unwrap();
        assert!(model.decision(&[1.0]).is_err());
    }

    #[test]
    fn deterministic_in_seed() {
        let ds = synth::blobs(40, 14);
        let a = RandomKernelSvm::train(&ds, Kernel::Linear, 8, 50.0, 2).unwrap();
        let b = RandomKernelSvm::train(&ds, Kernel::Linear, 8, 50.0, 2).unwrap();
        assert_eq!(a.basis(), b.basis());
    }
}
