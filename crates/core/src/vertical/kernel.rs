//! Nonlinear (kernel) SVM over vertically partitioned data (§IV-C, last
//! paragraph).
//!
//! The vertical scheme generalizes to kernels "for free" because the global
//! consensus variable `z = Σ_m φ_m(X_m)w_m` has a fixed size `N` regardless
//! of the kernel: only the per-learner weight update changes. By the
//! push-through identity,
//!
//! ```text
//! w_m = ρ·φ_mᵀ(I + ρK_m)⁻¹e_m      K_m = K(X_m, X_m) on m's feature slice
//! c_m = φ_m w_m = ρ·K_m·α_m         α_m = (I + ρK_m)⁻¹ e_m
//! ```
//!
//! so learner `m` only ever touches its own `N × N` Gram matrix (factored
//! once) and ships the `N`-vector `c_m` into the secure sum. The reducer's
//! `z`-subproblem is exactly the linear one. Prediction:
//! `f(x) = Σ_m ρ·K(x_m, X_m)·α_m + b`, where `x_m` is the slice of `x`
//! visible to learner `m`.

use ppml_data::{Dataset, VerticalView};
use ppml_kernel::Kernel;
use ppml_linalg::{vecops, Cholesky, Matrix};
use ppml_qp::QpConfig;

use crate::round::{self, Learner};
use crate::secagg::{self, SecAggConfig};
use crate::vertical::linear::{validate_view, VerticalReducer};
use crate::{AdmmConfig, ConvergenceHistory, Result};

/// The trained vertically partitioned kernel model.
///
/// Holds one kernel expansion per learner — over the learner's full
/// training slice (`ρ·α_m`, exact mode) or over its Nyström landmarks
/// (`w_L`); scoring a new sample sums the per-learner expansions.
#[derive(Debug, Clone)]
pub struct VerticalKernelModel {
    kernel: Kernel,
    /// Learner `m`'s expansion points (rows in its feature subspace).
    slices: Vec<Matrix>,
    /// Learner `m`'s expansion coefficients.
    coeffs: Vec<Vec<f64>>,
    feature_sets: Vec<Vec<usize>>,
    bias: f64,
}

impl VerticalKernelModel {
    /// Decision value over a full feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the highest partitioned feature index.
    pub fn decision(&self, x: &[f64]) -> f64 {
        self.margins(1, x.len(), x)[0]
    }

    /// `f(x_r)` for `rows` samples of `features` values each, flattened
    /// row-major in `xs`: the bias plus every learner's expansion over its
    /// own feature slice, added in learner order.
    fn margins(&self, rows: usize, features: usize, xs: &[f64]) -> Vec<f64> {
        let mut f = vec![self.bias; rows];
        for ((slice, coeff), cols) in self.slices.iter().zip(&self.coeffs).zip(&self.feature_sets) {
            let xm: Vec<f64> = (0..rows)
                .flat_map(|r| cols.iter().map(move |&c| xs[r * features + c]))
                .collect();
            let part = self.kernel.expand(rows, &xm, slice, coeff);
            for (acc, v) in f.iter_mut().zip(part) {
                *acc += v;
            }
        }
        f
    }

    /// Predicted label in `{−1, +1}`.
    ///
    /// # Panics
    ///
    /// As [`VerticalKernelModel::decision`].
    pub fn classify(&self, x: &[f64]) -> f64 {
        if self.decision(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Correct-classification ratio on a (full-feature) dataset.
    ///
    /// # Panics
    ///
    /// As [`VerticalKernelModel::decision`].
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        let margins = self.margins(data.len(), data.features(), data.x().as_slice());
        ppml_svm::accuracy(margins.into_iter().zip(data.y().iter().copied()))
    }

    /// The bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }

    /// Number of learners.
    pub fn learners(&self) -> usize {
        self.slices.len()
    }
}

/// Result of vertical kernel training.
#[derive(Debug, Clone)]
pub struct VerticalKernelOutcome {
    /// The trained model.
    pub model: VerticalKernelModel,
    /// Per-iteration trace (Fig. 4 panels d/h).
    pub history: ConvergenceHistory,
}

/// Trainer for kernel SVMs over vertically partitioned data.
#[derive(Debug, Clone, Copy)]
pub struct VerticalKernelSvm;

impl VerticalKernelSvm {
    /// Trains with the paper's §V masking protocol.
    ///
    /// # Errors
    ///
    /// As [`crate::VerticalLinearSvm::train`]; additionally
    /// [`crate::TrainError::Linalg`] if `(I + ρK_m)` fails to factor (only
    /// possible for non-positive-definite kernels).
    pub fn train(
        view: &VerticalView,
        cfg: &AdmmConfig,
        eval: Option<&Dataset>,
    ) -> Result<VerticalKernelOutcome> {
        Self::train_with(view, cfg, eval, SecAggConfig::pairwise())
    }

    /// Trains with an explicit secure-aggregation backend (see
    /// [`crate::HorizontalLinearSvm::train_with`]).
    ///
    /// # Errors
    ///
    /// As [`VerticalKernelSvm::train`], plus [`crate::TrainError::BadConfig`]
    /// for a Shamir threshold outside `1..=view.learners()`.
    pub fn train_with(
        view: &VerticalView,
        cfg: &AdmmConfig,
        eval: Option<&Dataset>,
        secagg: SecAggConfig,
    ) -> Result<VerticalKernelOutcome> {
        cfg.validate()?;
        let mut nodes = (0..validate_view(view)?)
            .map(|p| VkNode::new(view.part(p), cfg))
            .collect::<Result<Vec<_>>>()?;
        let mut reducer = VerticalReducer::new(view.y().to_vec(), cfg);
        let history = round::train(
            &mut nodes,
            &mut reducer,
            cfg,
            secagg::in_memory(secagg, cfg),
            |nodes, reducer, iteration, delta| {
                reducer.emit_diagnostics(iteration, delta);
                Ok(eval.map(|ds| assemble(view, cfg.kernel, nodes.iter(), reducer).accuracy(ds)))
            },
        )?;
        Ok(VerticalKernelOutcome {
            model: assemble(view, cfg.kernel, nodes.iter(), &reducer),
            history,
        })
    }
}

/// The per-node kernel operator: exact dense factorization or the Nyström
/// low-rank approximation (see [`crate::AdmmConfig::nystrom_rank`]).
#[derive(Debug, Clone)]
enum VkOp {
    Exact {
        gram: Matrix,
        chol: Cholesky,
        /// The node's training slice (the model's expansion points).
        points: Matrix,
    },
    Nystrom(ppml_kernel::NystromFactor),
}

/// One learner's node-local state in the vertical kernel scheme: the
/// learner side of the round problem ([`crate::round`]).
#[derive(Debug, Clone)]
pub(crate) struct VkNode {
    op: VkOp,
    rho: f64,
    /// Current contribution `c_m = ρ·K̃_m·α_m`.
    c: Vec<f64>,
    /// Current expansion coefficients for the discriminant: over the full
    /// slice (`ρ·α`) in exact mode, over the landmarks (`w_L`) with
    /// Nyström.
    expansion_coeffs: Vec<f64>,
}

impl VkNode {
    /// Builds the node. Exact mode: Gram matrix + one factorization of
    /// `(I + ρK_m)` (tiny jitter tolerates PSD-but-singular Grams from
    /// duplicate rows). With `nystrom_rank = Some(l)`: an `l`-landmark
    /// low-rank factor instead.
    pub(crate) fn new(x: &Matrix, cfg: &AdmmConfig) -> Result<Self> {
        let (kernel, rho) = (cfg.kernel, cfg.rho);
        let op = match cfg.nystrom_rank {
            Some(rank) => {
                let rank = rank.min(x.rows());
                VkOp::Nystrom(ppml_kernel::NystromFactor::fit(
                    x, kernel, rank, rho, cfg.seed,
                )?)
            }
            None => {
                let gram = kernel.gram(x);
                let mut opm = gram.scale(rho);
                opm.add_diag(1.0 + 1e-10);
                VkOp::Exact {
                    chol: opm.cholesky()?,
                    gram,
                    points: x.clone(),
                }
            }
        };
        let coeff_len = match &op {
            VkOp::Exact { points, .. } => points.rows(),
            VkOp::Nystrom(ny) => ny.rank(),
        };
        Ok(VkNode {
            op,
            rho,
            c: vec![0.0; x.rows()],
            expansion_coeffs: vec![0.0; coeff_len],
        })
    }

    /// The discriminant expansion this node contributes:
    /// `f_m(x_m) = K(x_m, points)·coeffs`.
    fn expansion(&self) -> (Matrix, Vec<f64>) {
        let points = match &self.op {
            VkOp::Exact { points, .. } => points.clone(),
            VkOp::Nystrom(ny) => ny.landmarks().clone(),
        };
        (points, self.expansion_coeffs.clone())
    }
}

impl Learner for VkNode {
    /// One α-update given the broadcast consensus gap.
    fn step(&mut self, gap: &[f64], _qp: &QpConfig) -> Result<Vec<f64>> {
        let e = vecops::add(gap, &self.c);
        match &self.op {
            VkOp::Exact { gram, chol, .. } => {
                let alpha = chol.solve(&e)?;
                self.c = vecops::scale(&gram.matvec(&alpha)?, self.rho);
                self.expansion_coeffs = vecops::scale(&alpha, self.rho);
            }
            VkOp::Nystrom(ny) => {
                let alpha = ny.solve(&e)?;
                let w_l = ny.landmark_coeffs(&alpha)?;
                self.c = ny.contribution(&w_l)?;
                self.expansion_coeffs = w_l;
            }
        }
        Ok(self.c.clone())
    }
}

pub(crate) fn assemble<'a>(
    view: &VerticalView,
    kernel: Kernel,
    nodes: impl Iterator<Item = &'a VkNode>,
    reducer: &VerticalReducer,
) -> VerticalKernelModel {
    let (slices, coeffs) = nodes.map(VkNode::expansion).unzip();
    VerticalKernelModel {
        kernel,
        slices,
        coeffs,
        feature_sets: (0..view.learners())
            .map(|p| view.features_of(p).to_vec())
            .collect(),
        bias: reducer.bias,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppml_data::{synth, Partition};

    #[test]
    fn converges_on_separable_data() {
        let ds = synth::blobs(100, 1);
        let (train, test) = ds.split(0.5, 2).unwrap();
        let view = Partition::vertical(&train, 2, 3).unwrap();
        let cfg = AdmmConfig::default()
            .with_max_iter(60)
            .with_kernel(Kernel::Rbf { gamma: 0.5 });
        let out = VerticalKernelSvm::train(&view, &cfg, Some(&test)).unwrap();
        let acc = out.model.accuracy(&test);
        assert!(acc > 0.85, "vertical kernel accuracy {acc}");
        let first = out.history.z_delta[0];
        let last = out.history.final_delta().unwrap();
        assert!(last < first * 1e-2, "no convergence: {first} -> {last}");
    }

    #[test]
    fn linear_kernel_matches_linear_trainer() {
        let ds = synth::cancer_like(120, 4);
        let (train, test) = ds.split(0.5, 5).unwrap();
        let view = Partition::vertical(&train, 3, 6).unwrap();
        let cfg = AdmmConfig::default()
            .with_max_iter(50)
            .with_kernel(Kernel::Linear);
        let kernel_out = VerticalKernelSvm::train(&view, &cfg, None).unwrap();
        let linear_out = crate::VerticalLinearSvm::train(&view, &cfg, None).unwrap();
        let ak = kernel_out.model.accuracy(&test);
        let al = linear_out.model.accuracy(&test);
        assert!(
            (ak - al).abs() < 0.05,
            "vertical kernel {ak} vs vertical linear {al}"
        );
    }

    #[test]
    fn decisions_agree_with_linear_trainer_pointwise() {
        // With the linear kernel the two parameterizations represent the
        // same function; decision values must agree closely.
        let ds = synth::blobs(60, 7);
        let view = Partition::vertical(&ds, 2, 8).unwrap();
        let cfg = AdmmConfig::default()
            .with_max_iter(40)
            .with_kernel(Kernel::Linear);
        let k = VerticalKernelSvm::train(&view, &cfg, None).unwrap();
        let l = crate::VerticalLinearSvm::train(&view, &cfg, None).unwrap();
        for i in 0..10 {
            let a = k.model.decision(ds.sample(i));
            let b = l.model.decision(ds.sample(i));
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn batch_accuracy_is_the_per_row_loop_bit_for_bit() {
        let ds = synth::cancer_like(120, 4);
        let (train, test) = ds.split(0.5, 5).unwrap();
        let view = Partition::vertical(&train, 3, 6).unwrap();
        let cfg = AdmmConfig::default()
            .with_max_iter(5)
            .with_kernel(Kernel::Rbf { gamma: 0.1 });
        let model = VerticalKernelSvm::train(&view, &cfg, None).unwrap().model;
        let margins = model.margins(test.len(), test.features(), test.x().as_slice());
        for (i, f) in margins.iter().enumerate() {
            assert_eq!(f.to_bits(), model.decision(test.sample(i)).to_bits());
        }
        let per_row = ppml_svm::accuracy(
            (0..test.len()).map(|i| (model.classify(test.sample(i)), test.label(i))),
        );
        assert_eq!(model.accuracy(&test), per_row);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = synth::blobs(50, 9);
        let view = Partition::vertical(&ds, 2, 1).unwrap();
        let cfg = AdmmConfig::default().with_max_iter(5);
        let a = VerticalKernelSvm::train(&view, &cfg, None).unwrap();
        let b = VerticalKernelSvm::train(&view, &cfg, None).unwrap();
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn nystrom_tracks_exact_training() {
        let ds = synth::blobs(160, 21);
        let (train, test) = ds.split(0.5, 22).unwrap();
        let view = Partition::vertical(&train, 2, 23).unwrap();
        let base = AdmmConfig::default()
            .with_max_iter(40)
            .with_kernel(Kernel::Rbf { gamma: 0.5 });
        let exact = VerticalKernelSvm::train(&view, &base, None).unwrap();
        let nystrom = VerticalKernelSvm::train(&view, &base.with_nystrom(20), None).unwrap();
        let (ae, an) = (exact.model.accuracy(&test), nystrom.model.accuracy(&test));
        assert!(an > ae - 0.07, "nystrom {an} too far below exact {ae}");
        assert!(an > 0.85);
    }

    #[test]
    fn full_rank_nystrom_matches_exact_closely() {
        let ds = synth::blobs(60, 25);
        let view = Partition::vertical(&ds, 2, 26).unwrap();
        let base = AdmmConfig::default()
            .with_max_iter(20)
            .with_kernel(Kernel::Rbf { gamma: 0.5 });
        let exact = VerticalKernelSvm::train(&view, &base, None).unwrap();
        // Rank = N: the approximation is (numerically) the exact kernel.
        let full = VerticalKernelSvm::train(&view, &base.with_nystrom(60), None).unwrap();
        for i in 0..10 {
            let a = exact.model.decision(ds.sample(i));
            let b = full.model.decision(ds.sample(i));
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }

    #[test]
    fn rejects_empty_view() {
        // A view cannot be empty via the public partitioner, so validate
        // the config path instead: zero iterations is rejected.
        let ds = synth::blobs(20, 2);
        let view = Partition::vertical(&ds, 2, 1).unwrap();
        let cfg = AdmmConfig::default().with_max_iter(0);
        assert!(VerticalKernelSvm::train(&view, &cfg, None).is_err());
    }
}
