//! Nonlinear (kernel) SVM over horizontally partitioned data (§IV-B).
//!
//! The local models `w_m` live in the (possibly infinite-dimensional) RKHS,
//! so exact consensus `w_m = z` is not exchangeable. The paper's device is
//! a **reduced consensus space**: a shared set of `l` landmark points `X_g`
//! defines `G = φ(X_g)`, and consensus is required only on the projections
//! `G·w_m = z ∈ Rˡ`. Everything stays kernelized through the
//! Sherman–Morrison–Woodbury identity; with `K_g = I + ρM·K(X_g, X_g)`
//! (coefficient re-derived — see DESIGN.md §2) the push-through identity
//! collapses the paper's eq. (21)–(25) to:
//!
//! * dual Hessian: `Q = M·Y·[K(X,X) − ρM·K(X,X_g)K_g⁻¹K(X_g,X)]·Y
//!   + (1/ρ)·y·yᵀ`  (constant per learner, factored once);
//! * linear term:  `q = ρM·Y·K(X,X_g)·K_g⁻¹(z−r) + (s−β)·y − 1`;
//! * reduced image: `G·w = M·K_g⁻¹K(X_g,X)·Yλ + ρM·K(X_g,X_g)·K_g⁻¹(z−r)`;
//! * discriminant: `f(x) = K(x,X)·α + K(x,X_g)·η + b` with
//!   `α = M·Yλ`, `η = ρM·K_g⁻¹(z−r) − ρM²·K_g⁻¹K(X_g,X)·Yλ`.
//!
//! The Reduce step again only averages `[G·w_m + r_m ; b_m + β_m]` through
//! the §V secure sum ([`crate::secagg`]).

use ppml_data::Dataset;
use ppml_kernel::{Kernel, LandmarkSet, LandmarkStrategy};
use ppml_linalg::{vecops, Cholesky, Matrix};
use ppml_qp::QpConfig;

use crate::horizontal::linear::{solve_local_dual, validate_parts};
use crate::round::{self, split_consensus, Averaging, Learner};
use crate::secagg::{self, SecAggConfig};
use crate::{AdmmConfig, ConvergenceHistory, Result, TrainError};

/// The nonlinear consensus classifier of one learner after training.
///
/// The decision function references the learner's own training points and
/// the shared landmarks only: `f(x) = K(x, X_m)·α + K(x, X_g)·η + b`
/// (paper eq. (25), simplified).
#[derive(Debug, Clone)]
pub struct KernelConsensusModel {
    kernel: Kernel,
    local_points: Matrix,
    alpha: Vec<f64>,
    landmarks: Matrix,
    eta: Vec<f64>,
    bias: f64,
}

impl KernelConsensusModel {
    /// Decision value `f(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong feature dimension.
    pub fn decision(&self, x: &[f64]) -> f64 {
        self.margins(1, x)[0]
    }

    /// `f(x_r)` for `rows` samples flattened row-major in `xs`; each value
    /// is the two expansions and the bias added in that order.
    fn margins(&self, rows: usize, xs: &[f64]) -> Vec<f64> {
        let local = self
            .kernel
            .expand(rows, xs, &self.local_points, &self.alpha);
        let shared = self.kernel.expand(rows, xs, &self.landmarks, &self.eta);
        local
            .iter()
            .zip(&shared)
            .map(|(kx, kg)| kx + kg + self.bias)
            .collect()
    }

    /// Predicted label in `{−1, +1}`.
    ///
    /// # Panics
    ///
    /// As [`KernelConsensusModel::decision`].
    pub fn classify(&self, x: &[f64]) -> f64 {
        if self.decision(x) >= 0.0 {
            1.0
        } else {
            -1.0
        }
    }

    /// Correct-classification ratio on a dataset.
    ///
    /// # Panics
    ///
    /// As [`KernelConsensusModel::decision`].
    pub fn accuracy(&self, data: &Dataset) -> f64 {
        let margins = self.margins(data.len(), data.x().as_slice());
        ppml_svm::accuracy(margins.into_iter().zip(data.y().iter().copied()))
    }

    /// The bias term.
    pub fn bias(&self) -> f64 {
        self.bias
    }
}

/// One learner's persistent state for the kernel trainer.
pub(crate) struct HkLearner {
    kernel: Kernel,
    points: Matrix,
    y: Vec<f64>,
    /// `K(X_m, X_g)`, `N_m × l`.
    kmg: Matrix,
    /// `S = K_g⁻¹ K(X_g, X_m)`, `l × N_m`.
    s: Matrix,
    /// Constant dual Hessian.
    q: Matrix,
    kg_chol: Cholesky,
    kgg: Matrix,
    lambda: Vec<f64>,
    r: Vec<f64>,
    beta: f64,
    /// Last computed reduced image `G·w_m`.
    gw: Vec<f64>,
    b: f64,
    m: f64,
    rho: f64,
    c: f64,
    /// `z − r` frozen at the last local step (the discriminant needs it).
    last_c: Vec<f64>,
    /// Whether a round has been computed: the duals lag one computed round.
    stepped: bool,
}

impl HkLearner {
    pub(crate) fn new(
        data: &Dataset,
        m_learners: usize,
        landmarks: &LandmarkSet,
        cfg: &AdmmConfig,
    ) -> Result<Self> {
        if data.is_empty() {
            return Err(TrainError::BadPartition {
                reason: "empty learner partition".to_string(),
            });
        }
        let kernel = cfg.kernel;
        let rho = cfg.rho;
        let m = m_learners as f64;
        let kgg = landmarks.gram(kernel);
        let kg = landmarks.kg(kernel, rho, m_learners);
        let kg_chol = kg.cholesky()?;
        let kmg = kernel.cross_gram(data.x(), landmarks.points());
        let s = kg_chol.solve_matrix(&kmg.transpose())?;
        let kmm = kernel.gram(data.x());
        // K_eff = K(X,X) − ρM·K(X,X_g)·S
        let corr = kmg.matmul(&s)?;
        let y = data.y().to_vec();
        let n = data.len();
        let q = Matrix::from_fn(n, n, |i, j| {
            let keff = kmm[(i, j)] - rho * m * corr[(i, j)];
            m * y[i] * keff * y[j] + y[i] * y[j] / rho
        });
        let l = landmarks.len();
        Ok(HkLearner {
            kernel,
            points: data.x().clone(),
            y,
            kmg,
            s,
            q,
            kg_chol,
            kgg,
            lambda: vec![0.0; n],
            r: vec![0.0; l],
            beta: 0.0,
            gw: vec![0.0; l],
            b: 0.0,
            m,
            rho,
            c: cfg.c,
            last_c: vec![0.0; l],
            stepped: false,
        })
    }

    /// Solves the local dual given consensus `(z, s)`; refreshes `G·w`, `b`.
    fn local_step(&mut self, z: &[f64], s_cons: f64, qp: &QpConfig) -> Result<()> {
        let c_vec = vecops::sub(z, &self.r);
        let d = s_cons - self.beta;
        let u = self.kg_chol.solve(&c_vec)?; // K_g⁻¹(z − r)
                                             // q_i = ρM·y_i·(K(X,X_g)u)_i + d·y_i − 1
        let kmgu = self.kmg.matvec(&u)?;
        let lin: Vec<f64> = (0..self.y.len())
            .map(|i| self.rho * self.m * self.y[i] * kmgu[i] + d * self.y[i] - 1.0)
            .collect();
        self.lambda = solve_local_dual(&self.q, &lin, self.c, &self.lambda, qp)?;
        // G·w = M·S·(Yλ) + ρM·K_gg·u
        let ylam: Vec<f64> = self
            .lambda
            .iter()
            .zip(&self.y)
            .map(|(l, y)| l * y)
            .collect();
        let s_ylam = self.s.matvec(&ylam)?;
        let kgg_u = self.kgg.matvec(&u)?;
        self.gw = (0..self.gw.len())
            .map(|i| self.m * s_ylam[i] + self.rho * self.m * kgg_u[i])
            .collect();
        let t = vecops::dot(&self.lambda, &self.y);
        self.b = d + t / self.rho;
        self.last_c = c_vec;
        Ok(())
    }

    /// Contribution to the secure average: `[G·w + r ; b + β]`.
    fn share(&self) -> Vec<f64> {
        let mut out = vecops::add(&self.gw, &self.r);
        out.push(self.b + self.beta);
        out
    }

    /// Scaled-dual ascent after receiving the new consensus.
    fn dual_update(&mut self, z: &[f64], s_cons: f64) {
        for ((r, &gw), &zj) in self.r.iter_mut().zip(&self.gw).zip(z) {
            *r += gw - zj;
        }
        self.beta += self.b - s_cons;
    }

    /// Snapshot of this learner's current discriminant (paper eq. (25)).
    pub(crate) fn model(&self, landmarks: &LandmarkSet) -> Result<KernelConsensusModel> {
        let ylam: Vec<f64> = self
            .lambda
            .iter()
            .zip(&self.y)
            .map(|(l, y)| l * y)
            .collect();
        let alpha = vecops::scale(&ylam, self.m);
        let u = self.kg_chol.solve(&self.last_c)?;
        let s_ylam = self.s.matvec(&ylam)?;
        // η = ρM·K_g⁻¹(z−r) − ρM²·S·(Yλ)
        let eta: Vec<f64> = (0..u.len())
            .map(|i| self.rho * self.m * u[i] - self.rho * self.m * self.m * s_ylam[i])
            .collect();
        Ok(KernelConsensusModel {
            kernel: self.kernel,
            local_points: self.points.clone(),
            alpha,
            landmarks: landmarks.points().clone(),
            eta,
            bias: self.b,
        })
    }
}

impl Learner for HkLearner {
    fn step(&mut self, consensus: &[f64], qp: &QpConfig) -> Result<Vec<f64>> {
        let (z, s) = split_consensus(consensus);
        if self.stepped {
            self.dual_update(z, s);
        }
        self.local_step(z, s, qp)?;
        self.stepped = true;
        Ok(self.share())
    }
}

/// Result of distributed kernel training.
#[derive(Debug, Clone)]
pub struct KernelOutcome {
    /// Learner 0's consensus discriminant (the paper evaluates "at learner
    /// 1"; all learners' discriminants agree after convergence).
    pub model: KernelConsensusModel,
    /// Per-iteration trace (Fig. 4 panels b/f).
    pub history: ConvergenceHistory,
    /// The shared landmark set actually used.
    pub landmarks: LandmarkSet,
}

/// Trainer for kernel SVMs over horizontally partitioned data.
#[derive(Debug, Clone, Copy)]
pub struct HorizontalKernelSvm;

impl HorizontalKernelSvm {
    /// Trains with the paper's §V masking protocol.
    ///
    /// # Errors
    ///
    /// As [`crate::HorizontalLinearSvm::train`]; additionally
    /// [`TrainError::BadConfig`] when the landmark count exceeds the first
    /// learner's rows under [`LandmarkStrategy::SubsampleRows`].
    pub fn train(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        eval: Option<&Dataset>,
    ) -> Result<KernelOutcome> {
        Self::train_with(parts, cfg, eval, SecAggConfig::pairwise())
    }

    /// Trains with an explicit secure-aggregation backend (see
    /// [`crate::HorizontalLinearSvm::train_with`]).
    ///
    /// # Errors
    ///
    /// As [`HorizontalKernelSvm::train`], plus [`TrainError::BadConfig`]
    /// for a Shamir threshold outside `1..=parts.len()`.
    pub fn train_with(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        eval: Option<&Dataset>,
        secagg: SecAggConfig,
    ) -> Result<KernelOutcome> {
        cfg.validate()?;
        let k = validate_parts(parts)?;
        let landmarks = Self::choose_landmarks(parts, k, cfg)?;
        let m = parts.len();
        let mut learners = parts
            .iter()
            .map(|p| HkLearner::new(p, m, &landmarks, cfg))
            .collect::<Result<Vec<_>>>()?;
        let mut consensus = Averaging::new(landmarks.len());
        let history = round::train(
            &mut learners,
            &mut consensus,
            cfg,
            secagg::in_memory(secagg, cfg),
            |learners, consensus, iteration, delta| {
                // Aggregate norms in the reduced consensus space only.
                let locals = learners.iter().map(|l| (&l.gw[..], l.b));
                consensus.emit_diagnostics(locals, iteration, delta, cfg.rho, None);
                eval.map(|ds| Ok(learners[0].model(&landmarks)?.accuracy(ds)))
                    .transpose()
            },
        )?;
        Ok(KernelOutcome {
            model: learners[0].model(&landmarks)?,
            history,
            landmarks,
        })
    }

    /// Picks the shared landmark set per the configured strategy. With
    /// [`LandmarkStrategy::SubsampleRows`] the landmarks are drawn from the
    /// first learner's rows (in deployment: any learner volunteers a
    /// non-sensitive summary, or a public reference set is used).
    pub(crate) fn choose_landmarks(
        parts: &[Dataset],
        features: usize,
        cfg: &AdmmConfig,
    ) -> Result<LandmarkSet> {
        match cfg.landmark_strategy {
            LandmarkStrategy::SubsampleRows => {
                if cfg.landmarks > parts[0].len() {
                    return Err(TrainError::BadConfig {
                        reason: format!(
                            "{} landmarks but learner 0 has only {} rows",
                            cfg.landmarks,
                            parts[0].len()
                        ),
                    });
                }
                Ok(LandmarkSet::subsample(
                    parts[0].x(),
                    cfg.landmarks,
                    cfg.seed,
                ))
            }
            LandmarkStrategy::GaussianNoise => {
                Ok(LandmarkSet::gaussian(cfg.landmarks, features, cfg.seed))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppml_data::{synth, Partition};

    fn cfg_small() -> AdmmConfig {
        AdmmConfig::default()
            .with_max_iter(40)
            .with_landmarks(15)
            .with_kernel(Kernel::Rbf { gamma: 0.5 })
    }

    #[test]
    fn solves_xor_with_rbf() {
        let ds = synth::xor_like(240, 4);
        let (train, test) = ds.split(0.5, 5).unwrap();
        let parts = Partition::horizontal(&train, 4, 6).unwrap();
        let out = HorizontalKernelSvm::train(&parts, &cfg_small(), Some(&test)).unwrap();
        let acc = out.model.accuracy(&test);
        assert!(acc > 0.9, "distributed rbf should solve xor, got {acc}");
        let first = out.history.z_delta[0];
        let last = out.history.final_delta().unwrap();
        assert!(last < first * 1e-2, "no convergence: {first} -> {last}");
    }

    #[test]
    fn a_solve_stopped_at_the_sweep_cap_is_a_typed_error() {
        let ds = synth::xor_like(160, 4);
        let parts = Partition::horizontal(&ds, 3, 6).unwrap();
        let mut cfg = cfg_small();
        cfg.qp.max_iter = 1;
        assert!(matches!(
            HorizontalKernelSvm::train(&parts, &cfg, None),
            Err(TrainError::QpNotConverged { sweeps: 1, .. })
        ));
    }

    #[test]
    fn batch_accuracy_is_the_per_row_loop_bit_for_bit() {
        let ds = synth::xor_like(160, 4);
        let (train, test) = ds.split(0.5, 5).unwrap();
        let parts = Partition::horizontal(&train, 3, 6).unwrap();
        let model = HorizontalKernelSvm::train(&parts, &cfg_small().with_max_iter(5), None)
            .unwrap()
            .model;
        let margins = model.margins(test.len(), test.x().as_slice());
        for (i, f) in margins.iter().enumerate() {
            assert_eq!(f.to_bits(), model.decision(test.sample(i)).to_bits());
        }
        let per_row = ppml_svm::accuracy(
            (0..test.len()).map(|i| (model.classify(test.sample(i)), test.label(i))),
        );
        assert_eq!(model.accuracy(&test), per_row);
    }

    #[test]
    fn linear_kernel_reduces_to_linear_trainer() {
        // With a full-rank linear landmark set, reduced consensus is
        // equivalent to w-space consensus, so the kernel trainer must match
        // the linear trainer's accuracy.
        let ds = synth::blobs(160, 8);
        let (train, test) = ds.split(0.5, 9).unwrap();
        let parts = Partition::horizontal(&train, 4, 10).unwrap();
        let cfg = AdmmConfig::default()
            .with_max_iter(40)
            .with_kernel(Kernel::Linear)
            .with_landmarks(8);
        let kernel_out = HorizontalKernelSvm::train(&parts, &cfg, None).unwrap();
        let linear_out = crate::HorizontalLinearSvm::train(
            &parts,
            &AdmmConfig::default().with_max_iter(40),
            None,
        )
        .unwrap();
        let ak = kernel_out.model.accuracy(&test);
        let al = linear_out.model.accuracy(&test);
        assert!((ak - al).abs() < 0.06, "kernel {ak} vs linear {al}");
        assert!(ak > 0.93);
    }

    #[test]
    fn per_iteration_accuracy_improves() {
        let ds = synth::xor_like(200, 7);
        let (train, test) = ds.split(0.5, 8).unwrap();
        let parts = Partition::horizontal(&train, 4, 9).unwrap();
        let out = HorizontalKernelSvm::train(&parts, &cfg_small(), Some(&test)).unwrap();
        let early = out.history.accuracy[0];
        let late = out.history.final_accuracy().unwrap();
        assert!(
            late >= early - 0.02,
            "accuracy should not degrade: {early} -> {late}"
        );
        assert!(late > 0.85);
    }

    #[test]
    fn gaussian_landmarks_also_work() {
        let ds = synth::xor_like(200, 2);
        let (train, test) = ds.split(0.5, 3).unwrap();
        let parts = Partition::horizontal(&train, 4, 4).unwrap();
        let cfg = cfg_small().with_landmark_strategy(LandmarkStrategy::GaussianNoise);
        let out = HorizontalKernelSvm::train(&parts, &cfg, None).unwrap();
        assert!(out.model.accuracy(&test) > 0.8);
        assert_eq!(out.landmarks.len(), 15);
    }

    #[test]
    fn landmark_count_validated() {
        let ds = synth::blobs(12, 1);
        let parts = Partition::horizontal(&ds, 4, 1).unwrap();
        let cfg = AdmmConfig::default().with_landmarks(100);
        assert!(matches!(
            HorizontalKernelSvm::train(&parts, &cfg, None),
            Err(TrainError::BadConfig { .. })
        ));
    }

    #[test]
    fn more_landmarks_do_not_hurt() {
        // The reduced space approximates w̃; more landmarks → better or
        // equal accuracy (the landmark-count ablation bench sweeps this).
        let ds = synth::xor_like(300, 6);
        let (train, test) = ds.split(0.5, 7).unwrap();
        let parts = Partition::horizontal(&train, 3, 8).unwrap();
        let acc_few = HorizontalKernelSvm::train(&parts, &cfg_small().with_landmarks(3), None)
            .unwrap()
            .model
            .accuracy(&test);
        let acc_many = HorizontalKernelSvm::train(&parts, &cfg_small().with_landmarks(30), None)
            .unwrap()
            .model
            .accuracy(&test);
        assert!(
            acc_many + 0.05 >= acc_few,
            "landmarks hurt: {acc_few} -> {acc_many}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = synth::xor_like(120, 2);
        let parts = Partition::horizontal(&ds, 3, 3).unwrap();
        let cfg = cfg_small().with_max_iter(6);
        let a = HorizontalKernelSvm::train(&parts, &cfg, None).unwrap();
        let b = HorizontalKernelSvm::train(&parts, &cfg, None).unwrap();
        assert_eq!(a.history, b.history);
    }
}
