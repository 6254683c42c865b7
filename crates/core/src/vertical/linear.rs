//! Linear SVM over vertically partitioned data (§IV-C).
//!
//! Each learner holds a *column slice* `X_m` of every record and a share
//! `w_m` of the weight vector; the decoupling variable
//! `z = Σ_m X_m w_m ∈ Rᴺ` (the vector of decision values on the training
//! rows) makes the margin constraints independent of any individual
//! learner's features. One iteration (paper eq. (28)/(29), re-derived in
//! DESIGN.md §2):
//!
//! 1. **Map** — learner `m` updates
//!    `w_m = ρ·(I + ρX_mᵀX_m)⁻¹·X_mᵀ·e_m` with
//!    `e_m = z − c̄ + c_m + r`, then its contribution `c_m = X_m w_m`
//!    (`(I + ρXᵀX)` is Cholesky-factored once);
//! 2. **Reduce** — `c̄ = Σ_m c_m` through the §V secure sum
//!    ([`crate::secagg`]; this is the only place learner outputs meet, and
//!    only as a sum);
//! 3. the reducer solves the hinge-loss `z`-subproblem — a *separable*
//!    box+equality QP (`Q = (1/ρ)·I`, handled by
//!    [`ppml_qp::solve_separable_eq`] without forming any matrix) — and
//!    broadcasts `z`; the residual update is `r += z − c̄`.
//!
//! The paper prints the dual Hessian of step 3 as `(1/ρ)Y11ᵀY`; the correct
//! derivation gives `(1/ρ)I` (DESIGN.md §2), which is what this module
//! implements.

use ppml_data::{Dataset, VerticalView};
use ppml_linalg::{vecops, Cholesky};
use ppml_qp::{solve_separable_eq, QpConfig};
use ppml_telemetry as telemetry;
use telemetry::{EventKind, NO_PARTY};

use crate::round::{self, ConsensusUpdate, Learner};
use crate::secagg::{self, SecAggConfig};
use crate::{AdmmConfig, ConvergenceHistory, Result, TrainError};

/// The assembled model after vertical training.
///
/// Each learner contributed the weight slice for its own features; the
/// model stores the slices with their original column indices so a full
/// test vector can be scored (in deployment, each learner would score its
/// slice locally and the partial sums would be securely aggregated).
#[derive(Debug, Clone, PartialEq)]
pub struct VerticalLinearModel {
    weight_slices: Vec<Vec<f64>>,
    feature_sets: Vec<Vec<usize>>,
    bias: f64,
    features: usize,
}

impl VerticalLinearModel {
    /// Decision value `Σ_m w_mᵀ x_m + b` over a full feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the highest partitioned feature index.
    pub fn decision(&self, x: &[f64]) -> f64 {
        let mut acc = self.bias;
        for (w, cols) in self.weight_slices.iter().zip(&self.feature_sets) {
            for (wi, &c) in w.iter().zip(cols) {
                acc += wi * x[c];
            }
        }
        acc
    }

    /// Predicted label in `{−1, +1}`.
    ///
    /// # Panics
    ///
    /// As [`VerticalLinearModel::decision`].
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
    /// As [`VerticalLinearModel::decision`].
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        ppml_svm::accuracy((0..data.len()).map(|i| (self.classify(data.sample(i)), data.label(i))))
    }

    /// Reassembles the full weight vector (evaluation convenience; doing
    /// this in production would centralize what the scheme decentralizes).
    pub fn to_linear_svm(&self) -> ppml_svm::LinearSvm {
        let mut w = vec![0.0; self.features];
        for (ws, cols) in self.weight_slices.iter().zip(&self.feature_sets) {
            for (wi, &c) in ws.iter().zip(cols) {
                w[c] = *wi;
            }
        }
        ppml_svm::LinearSvm::from_parts(w, self.bias)
    }

    /// The bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

/// One learner's node-local state in the vertical linear scheme: the
/// learner side of the round problem ([`crate::round`]).
#[derive(Debug, Clone)]
pub(crate) struct VlNode {
    x: ppml_linalg::Matrix,
    chol: Cholesky,
    rho: f64,
    /// Current weight slice `w_m`.
    w: Vec<f64>,
    /// Current contribution `c_m = X_m w_m`.
    c: Vec<f64>,
}

impl VlNode {
    /// Builds the node: factors `(I + ρ·X_mᵀX_m)` once.
    pub(crate) fn new(x: &ppml_linalg::Matrix, cfg: &AdmmConfig) -> Result<Self> {
        let rho = cfg.rho;
        let mut gram = x.t_matmul(x)?;
        gram = gram.scale(rho);
        gram.add_diag(1.0);
        Ok(VlNode {
            chol: gram.cholesky()?,
            rho,
            w: vec![0.0; x.cols()],
            c: vec![0.0; x.rows()],
            x: x.clone(),
        })
    }
}

impl Learner for VlNode {
    /// One w-update given the broadcast consensus gap `z − c̄ + r`:
    /// `e_m = gap + c_m`, `w_m = ρ(I + ρXᵀX)⁻¹Xᵀe_m`, `c_m = X w_m`.
    fn step(&mut self, gap: &[f64], _qp: &QpConfig) -> Result<Vec<f64>> {
        let e = vecops::add(gap, &self.c);
        let rhs = vecops::scale(&self.x.t_matvec(&e)?, self.rho);
        self.w = self.chol.solve(&rhs)?;
        self.c = self.x.matvec(&self.w)?;
        Ok(self.c.clone())
    }
}

/// Result of vertical linear training.
#[derive(Debug, Clone)]
pub struct VerticalOutcome {
    /// The trained model.
    pub model: VerticalLinearModel,
    /// Per-iteration trace (Fig. 4 panels c/g).
    pub history: ConvergenceHistory,
}

/// Trainer for linear SVMs over vertically partitioned data.
#[derive(Debug, Clone, Copy)]
pub struct VerticalLinearSvm;

impl VerticalLinearSvm {
    /// Trains with the paper's §V masking protocol as the aggregation
    /// backend. `eval` enables per-iteration accuracy (Fig. 4g).
    ///
    /// # Errors
    ///
    /// [`TrainError::BadPartition`] for an empty view;
    /// [`TrainError::BadConfig`] from config validation; solver and
    /// protocol failures are forwarded.
    pub fn train(
        view: &VerticalView,
        cfg: &AdmmConfig,
        eval: Option<&Dataset>,
    ) -> Result<VerticalOutcome> {
        Self::train_with(view, cfg, eval, SecAggConfig::pairwise())
    }

    /// Trains with an explicit secure-aggregation backend (see
    /// [`crate::HorizontalLinearSvm::train_with`]).
    ///
    /// # Errors
    ///
    /// As [`VerticalLinearSvm::train`], plus [`TrainError::BadConfig`] for
    /// a Shamir threshold outside `1..=view.learners()`.
    pub fn train_with(
        view: &VerticalView,
        cfg: &AdmmConfig,
        eval: Option<&Dataset>,
        secagg: SecAggConfig,
    ) -> Result<VerticalOutcome> {
        cfg.validate()?;
        let mut nodes = (0..validate_view(view)?)
            .map(|p| VlNode::new(view.part(p), cfg))
            .collect::<Result<Vec<_>>>()?;
        let mut reducer = VerticalReducer::new(view.y().to_vec(), cfg);
        let history = round::train(
            &mut nodes,
            &mut reducer,
            cfg,
            secagg::in_memory(secagg, cfg),
            |nodes, reducer, iteration, delta| {
                reducer.emit_diagnostics(iteration, delta);
                Ok(eval.map(|ds| assemble(view, nodes.iter(), reducer).accuracy(ds)))
            },
        )?;
        Ok(VerticalOutcome {
            model: assemble(view, nodes.iter(), &reducer),
            history,
        })
    }
}

/// Shared view validation for the vertical trainers; returns the learner
/// count.
pub(crate) fn validate_view(view: &VerticalView) -> Result<usize> {
    if view.rows() == 0 || view.learners() == 0 {
        return Err(TrainError::BadPartition {
            reason: "vertical view has no rows or learners".to_string(),
        });
    }
    Ok(view.learners())
}

/// The reducer-side state of the vertical schemes — the coordinator side of
/// the round problem ([`crate::round`]) for VL and VK: solves the hinge-loss
/// `z`-subproblem on the securely aggregated `c̄` and maintains the scaled
/// dual `r`.
#[derive(Debug, Clone)]
pub(crate) struct VerticalReducer {
    y: Vec<f64>,
    c: f64,
    rho: f64,
    diag: Vec<f64>,
    /// Current consensus decision values on the training rows.
    z: Vec<f64>,
    /// Scaled dual residual.
    r: Vec<f64>,
    /// The broadcastable consensus gap `z − c̄ + r` every node needs for its
    /// next w-update.
    gap: Vec<f64>,
    /// Current bias estimate.
    pub(crate) bias: f64,
}

impl VerticalReducer {
    pub(crate) fn new(y: Vec<f64>, cfg: &AdmmConfig) -> Self {
        let n = y.len();
        VerticalReducer {
            c: cfg.c,
            rho: cfg.rho,
            diag: vec![1.0 / cfg.rho; n],
            z: vec![0.0; n],
            r: vec![0.0; n],
            gap: vec![0.0; n],
            bias: 0.0,
            y,
        }
    }

    /// The in-process trainers' [`EventKind::AdmmIteration`] diagnostics.
    pub(crate) fn emit_diagnostics(&self, iteration: u64, delta: f64) {
        if !telemetry::enabled() {
            return;
        }
        telemetry::emit(
            NO_PARTY,
            EventKind::AdmmIteration {
                iteration,
                // The consensus gap ‖z − c̄ + r‖² plays the primal
                // residual's role in the vertical decomposition.
                primal_sq: vecops::norm_sq(&self.gap),
                dual_sq: self.rho * self.rho * delta,
                z_delta: delta,
                objective: None,
            },
        );
    }
}

impl ConsensusUpdate for VerticalReducer {
    /// Solves the `z`-subproblem for the aggregated `c̄` — a plain sum, so
    /// the contributor count is not used — and updates `z`, `r`, the bias
    /// and the gap.
    fn update(&mut self, cbar: &[f64], _contributors: usize) -> Result<f64> {
        let n = self.y.len();
        let dd = vecops::sub(cbar, &self.r);
        let lin: Vec<f64> = (0..n).map(|i| self.y[i] * dd[i] - 1.0).collect();
        let sol = solve_separable_eq(&self.diag, &lin, 0.0, self.c, &self.y, 0.0)?;
        let z_new: Vec<f64> = (0..n)
            .map(|i| dd[i] + self.y[i] * sol.x[i] / self.rho)
            .collect();
        self.bias = recover_bias(&sol.x, &z_new, &self.y, self.c);
        for i in 0..n {
            self.r[i] += z_new[i] - cbar[i];
            self.gap[i] = z_new[i] - cbar[i] + self.r[i];
        }
        let delta = vecops::dist_sq(&z_new, &self.z);
        self.z = z_new;
        Ok(delta)
    }

    fn broadcast(&self) -> &[f64] {
        &self.gap
    }
}

pub(crate) fn assemble<'a>(
    view: &VerticalView,
    nodes: impl Iterator<Item = &'a VlNode>,
    reducer: &VerticalReducer,
) -> VerticalLinearModel {
    let feature_sets: Vec<Vec<usize>> = (0..view.learners())
        .map(|p| view.features_of(p).to_vec())
        .collect();
    let features = feature_sets
        .iter()
        .flat_map(|s| s.iter().copied())
        .max()
        .map_or(0, |v| v + 1);
    VerticalLinearModel {
        weight_slices: nodes.map(|nd| nd.w.clone()).collect(),
        feature_sets,
        bias: reducer.bias,
        features,
    }
}

/// Recovers `b` from KKT: free SVs satisfy `y_i(z_i + b) = 1`, i.e.
/// `b = y_i − z_i`; averaged. Falls back to the feasible-interval midpoint
/// when every multiplier is at a bound.
pub(crate) fn recover_bias(lambda: &[f64], z: &[f64], y: &[f64], c: f64) -> f64 {
    let mut acc = 0.0;
    let mut count = 0usize;
    for i in 0..lambda.len() {
        if lambda[i] > c * 1e-6 && lambda[i] < c * (1.0 - 1e-6) {
            acc += y[i] - z[i];
            count += 1;
        }
    }
    if count > 0 {
        return acc / count as f64;
    }
    let mut lo = f64::NEG_INFINITY;
    let mut hi = f64::INFINITY;
    for i in 0..z.len() {
        if y[i] > 0.0 {
            lo = lo.max(1.0 - z[i]);
        } else {
            hi = hi.min(-1.0 - z[i]);
        }
    }
    if lo.is_finite() && hi.is_finite() {
        0.5 * (lo + hi)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppml_data::{synth, Partition};

    #[test]
    fn converges_on_separable_data() {
        let ds = synth::blobs(120, 1);
        let (train, test) = ds.split(0.5, 2).unwrap();
        let view = Partition::vertical(&train, 2, 3).unwrap();
        let cfg = AdmmConfig::default().with_max_iter(60);
        let out = VerticalLinearSvm::train(&view, &cfg, Some(&test)).unwrap();
        let acc = out.model.accuracy(&test);
        assert!(acc > 0.9, "vertical linear accuracy {acc}");
        let first = out.history.z_delta[0];
        let last = out.history.final_delta().unwrap();
        assert!(last < first * 1e-2, "no convergence: {first} -> {last}");
    }

    #[test]
    fn handles_many_learners_on_wider_data() {
        let ds = synth::cancer_like(200, 4);
        let (train, test) = ds.split(0.5, 5).unwrap();
        let view = Partition::vertical(&train, 4, 6).unwrap();
        let cfg = AdmmConfig::default().with_max_iter(80);
        let out = VerticalLinearSvm::train(&view, &cfg, Some(&test)).unwrap();
        let acc = out.model.accuracy(&test);
        assert!(acc > 0.85, "vertical cancer accuracy {acc}");
    }

    #[test]
    fn model_assembly_is_consistent() {
        let ds = synth::blobs(80, 6);
        let view = Partition::vertical(&ds, 2, 7).unwrap();
        let cfg = AdmmConfig::default().with_max_iter(30);
        let out = VerticalLinearSvm::train(&view, &cfg, None).unwrap();
        let assembled = out.model.to_linear_svm();
        for i in 0..10 {
            let a = out.model.decision(ds.sample(i));
            let b = assembled.decision(ds.sample(i)).unwrap();
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// VL through the shipped pairwise halves tracks the same rounds
    /// summed in plain `f64` (the float reference), and the halves are
    /// exactly what [`VerticalLinearSvm::train`] sums through.
    #[test]
    fn aggregator_backends_agree() {
        fn run(
            view: &VerticalView,
            cfg: &AdmmConfig,
            sum: impl FnMut(u64, &[Vec<f64>]) -> Result<Vec<f64>>,
        ) -> ppml_svm::LinearSvm {
            let mut nodes: Vec<VlNode> = (0..view.learners())
                .map(|p| VlNode::new(view.part(p), cfg).unwrap())
                .collect();
            let mut reducer = VerticalReducer::new(view.y().to_vec(), cfg);
            round::train(&mut nodes, &mut reducer, cfg, sum, |_, _, _, _| Ok(None)).unwrap();
            assemble(view, nodes.iter(), &reducer).to_linear_svm()
        }
        let ds = synth::blobs(60, 8);
        let view = Partition::vertical(&ds, 2, 9).unwrap();
        let cfg = AdmmConfig::default().with_max_iter(8);
        let exact = run(&view, &cfg, round::float_sum);
        let secure = run(
            &view,
            &cfg,
            secagg::in_memory(SecAggConfig::pairwise(), &cfg),
        );
        for (u, v) in exact.weights().iter().zip(secure.weights()) {
            assert!((u - v).abs() < 1e-5, "{u} vs {v}");
        }
        let shipped = VerticalLinearSvm::train(&view, &cfg, None).unwrap();
        assert_eq!(secure, shipped.model.to_linear_svm());
    }

    #[test]
    fn early_stop_honors_tol() {
        // The multi-block (Jacobi) vertical ADMM has a slow geometric tail
        // — the paper's own Fig. 4(c) plateaus well above machine epsilon —
        // so early-stop is exercised at a realistic tolerance.
        let ds = synth::blobs(60, 3);
        let view = Partition::vertical(&ds, 2, 2).unwrap();
        let cfg = AdmmConfig::default().with_max_iter(200).with_tol(1e-4);
        let out = VerticalLinearSvm::train(&view, &cfg, None).unwrap();
        assert!(out.history.len() < 200);
        assert!(out.history.final_delta().unwrap() < 1e-4);
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = synth::cancer_like(60, 3);
        let view = Partition::vertical(&ds, 3, 2).unwrap();
        let cfg = AdmmConfig::default().with_max_iter(5);
        let a = VerticalLinearSvm::train(&view, &cfg, None).unwrap();
        let b = VerticalLinearSvm::train(&view, &cfg, None).unwrap();
        assert_eq!(a.history, b.history);
        assert_eq!(a.model, b.model);
    }

    #[test]
    fn recover_bias_prefers_free_svs() {
        // λ = (C/2) free at index 0: b = y0 − z0 exactly.
        let b = recover_bias(
            &[25.0, 0.0, 50.0],
            &[0.4, 2.0, -1.0],
            &[1.0, 1.0, -1.0],
            50.0,
        );
        assert!((b - 0.6).abs() < 1e-12);
    }
}
