//! Linear SVM over horizontally partitioned data (§IV-A).
//!
//! The global problem (1) is rewritten as the consensus problem (6): every
//! learner `m` trains `(w_m, b_m)` on its own rows under the constraint
//! `w_m = z`, `b_m = s`, relaxed by the augmented Lagrangian (8). One ADMM
//! iteration is:
//!
//! 1. **Map** — each learner solves its local dual (a box QP; the bias is
//!    quadratically penalized so no equality constraint survives — see
//!    DESIGN.md §2 for the re-derivation) and recovers `(w_m, b_m)`;
//! 2. **Reduce** — the consensus variables are the *averages*
//!    `z = mean(w_m + γ_m)`, `s = mean(b_m + β_m)`, computed through a
//!    §V secure sum ([`crate::secagg`]) so the reducer never sees an
//!    individual model;
//! 3. **feedback** — `z, s` are broadcast back; learners take the scaled
//!    dual step `γ_m += w_m − z`, `β_m += b_m − s`.
//!
//! Lemma 4.1/4.2: the iterates converge to the centralized SVM optimum.

use ppml_data::Dataset;
use ppml_linalg::{vecops, Matrix};
use ppml_qp::{solve_box_from, QpConfig};
use ppml_svm::LinearSvm;
use ppml_telemetry as telemetry;

use crate::round::{self, split_consensus, Averaging, Learner};
use crate::secagg::{self, SecAggConfig};
use crate::{AdmmConfig, ConvergenceHistory, Result, TrainError};

/// Result of distributed linear training.
#[derive(Debug, Clone)]
pub struct LinearOutcome {
    /// The consensus model `(z, s)` every learner agreed on.
    pub model: LinearSvm,
    /// Per-iteration trace (Fig. 4 panels a/e).
    pub history: ConvergenceHistory,
    /// Each learner's final local model `(w_m, b_m)` — these converge to
    /// `model` (Lemma 4.1) and their spread is a convergence diagnostic.
    pub local_models: Vec<LinearSvm>,
}

/// One learner's persistent ADMM state: the learner side of the round
/// problem ([`crate::round`]) under all three drivers.
#[derive(Debug, Clone)]
pub(crate) struct HlLearner {
    /// Rows scaled by their labels: row `i` is `y_i · x_i` ("YX").
    yx: Matrix,
    y: Vec<f64>,
    /// Constant dual Hessian `a·YXXᵀY + (1/ρ)(Y1)(Y1)ᵀ`.
    q: Matrix,
    lambda: Vec<f64>,
    gamma: Vec<f64>,
    beta: f64,
    w: Vec<f64>,
    b: f64,
    a: f64,
    rho: f64,
    c: f64,
    /// Whether a round has been computed: the duals lag one computed round.
    stepped: bool,
}

impl HlLearner {
    pub(crate) fn new(data: &Dataset, m_learners: usize, cfg: &AdmmConfig) -> Result<Self> {
        if data.is_empty() {
            return Err(TrainError::BadPartition {
                reason: "empty learner partition".to_string(),
            });
        }
        let n = data.len();
        let k = data.features();
        let rho = cfg.rho;
        let a = m_learners as f64 / (1.0 + rho * m_learners as f64);
        let yx = Matrix::from_fn(n, k, |i, j| data.label(i) * data.x()[(i, j)]);
        let y = data.y().to_vec();
        let q = dual_hessian(&yx, &y, a, rho);
        Ok(HlLearner {
            yx,
            y,
            q,
            lambda: vec![0.0; n],
            gamma: vec![0.0; k],
            beta: 0.0,
            w: vec![0.0; k],
            b: 0.0,
            a,
            rho,
            c: cfg.c,
            stepped: false,
        })
    }

    /// Solves the local dual given the current consensus `(z, s)` and
    /// refreshes `(w, b)`. Warm-starts from the previous `λ`.
    pub(crate) fn local_step(&mut self, z: &[f64], s: f64, qp: &QpConfig) -> Result<()> {
        let c_vec = vecops::sub(z, &self.gamma); // z − γ
        let d = s - self.beta;
        // q = aρ·Y(Xc) + d·y − 1  where (YXc)_i = y_i·x_iᵀc = (yx·c)_i.
        let yxc = self.yx.matvec(&c_vec).expect("feature dims match");
        let lin: Vec<f64> = (0..self.y.len())
            .map(|i| self.a * self.rho * yxc[i] + d * self.y[i] - 1.0)
            .collect();
        self.lambda = solve_local_dual(&self.q, &lin, self.c, &self.lambda, qp)?;
        // w = a(XᵀYλ + ρ(z−γ)) = a((YX)ᵀλ + ρc)
        let xt_y_lambda = self.yx.t_matvec(&self.lambda).expect("row dims match");
        self.w = (0..self.w.len())
            .map(|j| self.a * (xt_y_lambda[j] + self.rho * c_vec[j]))
            .collect();
        // b = (s−β) + (λᵀy)/ρ
        let t = vecops::dot(&self.lambda, &self.y);
        self.b = d + t / self.rho;
        Ok(())
    }

    /// What the learner contributes to the secure average: `[w+γ ; b+β]`.
    pub(crate) fn share(&self) -> Vec<f64> {
        let mut out = vecops::add(&self.w, &self.gamma);
        out.push(self.b + self.beta);
        out
    }

    /// Scaled-dual ascent after receiving the new consensus.
    pub(crate) fn dual_update(&mut self, z: &[f64], s: f64) {
        for ((g, &w), &zj) in self.gamma.iter_mut().zip(&self.w).zip(z) {
            *g += w - zj;
        }
        self.beta += self.b - s;
    }
}

impl Learner for HlLearner {
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

/// `Q = a·(YX)(YX)ᵀ + (1/ρ)·yyᵀ` (labels are ±1, so `Y1 = y`), filled in one
/// pass: each row's upper part is accumulated as axpys over the rows of
/// `(YX)ᵀ` — the order `Matrix::matmul` sums in, so the entries are the ones
/// `a·matmul + yyᵀ/ρ` gives — then scaled in place and mirrored.
fn dual_hessian(yx: &Matrix, y: &[f64], a: f64, rho: f64) -> Matrix {
    let n = yx.rows();
    let yxt = yx.transpose();
    let mut q = Matrix::zeros(n, n);
    for i in 0..n {
        let upper = &mut q.row_mut(i)[i..];
        for (k, &v) in yx.row(i).iter().enumerate() {
            vecops::axpy(v, &yxt.row(k)[i..], upper);
        }
        for (o, &yj) in upper.iter_mut().zip(&y[i..]) {
            *o = a * *o + y[i] * yj / rho;
        }
    }
    for i in 1..n {
        for j in 0..i {
            q[(i, j)] = q[(j, i)];
        }
    }
    q
}

/// Trainer for linear SVMs over horizontally partitioned data.
///
/// See the crate-level example; [`HorizontalLinearSvm::train`] uses the
/// paper's pairwise-masking protocol, [`HorizontalLinearSvm::train_with`]
/// any [`SecAggConfig`] backend, and
/// [`crate::jobs::train_linear_on_cluster`] runs the same algorithm on a
/// [`ppml_mapreduce::Cluster`].
#[derive(Debug, Clone, Copy)]
pub struct HorizontalLinearSvm;

impl HorizontalLinearSvm {
    /// Trains with the paper's §V protocol as the aggregation backend.
    ///
    /// `eval` enables per-iteration accuracy recording (Fig. 4e).
    ///
    /// # Errors
    ///
    /// [`TrainError::BadPartition`]/[`TrainError::BadConfig`] on malformed
    /// input; solver and protocol failures are forwarded.
    pub fn train(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        eval: Option<&Dataset>,
    ) -> Result<LinearOutcome> {
        Self::train_with(parts, cfg, eval, SecAggConfig::pairwise())
    }

    /// Trains with an explicit secure-aggregation backend: the same halves
    /// the wire runs, routed in memory, so every backend trains the same
    /// model bit for bit.
    ///
    /// # Errors
    ///
    /// As [`HorizontalLinearSvm::train`], plus [`TrainError::BadConfig`]
    /// for a Shamir threshold outside `1..=parts.len()`.
    pub fn train_with(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        eval: Option<&Dataset>,
        secagg: SecAggConfig,
    ) -> Result<LinearOutcome> {
        cfg.validate()?;
        let k = validate_parts(parts)?;
        let m = parts.len();
        let mut learners = parts
            .iter()
            .map(|p| HlLearner::new(p, m, cfg))
            .collect::<Result<Vec<_>>>()?;
        let mut consensus = Averaging::new(k);
        let history = round::train(
            &mut learners,
            &mut consensus,
            cfg,
            secagg::in_memory(secagg, cfg),
            |learners, consensus, iteration, delta| {
                if telemetry::enabled() {
                    let (z, s) = consensus.parts();
                    let hinge: f64 = parts
                        .iter()
                        .map(|p| {
                            (0..p.len())
                                .map(|i| {
                                    let margin = p.label(i) * (vecops::dot(z, p.sample(i)) + s);
                                    (1.0 - margin).max(0.0)
                                })
                                .sum::<f64>()
                        })
                        .sum();
                    let objective = 0.5 * vecops::norm_sq(z) + cfg.c * hinge;
                    let locals = learners.iter().map(|l| (&l.w[..], l.b));
                    consensus.emit_diagnostics(locals, iteration, delta, cfg.rho, Some(objective));
                }
                Ok(eval.map(|ds| consensus.model().accuracy(ds)))
            },
        )?;
        Ok(outcome(learners.iter(), &consensus, history))
    }
}

/// Assembles the outcome from the pair's final state.
pub(crate) fn outcome<'a>(
    learners: impl Iterator<Item = &'a HlLearner>,
    consensus: &Averaging,
    history: ConvergenceHistory,
) -> LinearOutcome {
    LinearOutcome {
        model: consensus.model(),
        local_models: learners
            .map(|l| LinearSvm::from_parts(l.w.clone(), l.b))
            .collect(),
        history,
    }
}

/// Solves a horizontal learner's local dual over `[0, C]ⁿ`, warm-started from
/// its previous multipliers. A solve that stops at the sweep cap is an error:
/// its point is not a KKT point and must not feed the round.
pub(crate) fn solve_local_dual(
    q: &Matrix,
    lin: &[f64],
    c: f64,
    warm: &[f64],
    qp: &QpConfig,
) -> Result<Vec<f64>> {
    let sol = solve_box_from(q, lin, 0.0, c, warm, qp)?;
    if !sol.converged {
        return Err(TrainError::QpNotConverged {
            sweeps: sol.iterations,
            kkt_violation: sol.kkt_violation,
        });
    }
    Ok(sol.x)
}

/// Shared partition validation for the horizontal trainers: non-empty list,
/// non-empty parts, consistent feature count. Returns the feature count.
pub(crate) fn validate_parts(parts: &[Dataset]) -> Result<usize> {
    let first = parts.first().ok_or_else(|| TrainError::BadPartition {
        reason: "no learners".to_string(),
    })?;
    let k = first.features();
    for (i, p) in parts.iter().enumerate() {
        if p.is_empty() {
            return Err(TrainError::BadPartition {
                reason: format!("learner {i} has no rows"),
            });
        }
        if p.features() != k {
            return Err(TrainError::BadPartition {
                reason: format!(
                    "learner {i} has {} features, learner 0 has {k}",
                    p.features()
                ),
            });
        }
    }
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppml_data::{synth, Partition};

    fn blob_parts() -> (Vec<Dataset>, Dataset, Dataset) {
        let ds = synth::blobs(160, 1);
        let (train, test) = ds.split(0.5, 2).unwrap();
        let parts = Partition::horizontal(&train, 4, 3).unwrap();
        (parts, train, test)
    }

    #[test]
    fn converges_on_separable_data() {
        let (parts, _train, test) = blob_parts();
        let cfg = AdmmConfig::default().with_max_iter(30);
        let out = HorizontalLinearSvm::train(&parts, &cfg, Some(&test)).unwrap();
        assert!(
            out.model.accuracy(&test) > 0.95,
            "{}",
            out.model.accuracy(&test)
        );
        assert_eq!(out.history.len(), 30);
        assert_eq!(out.history.accuracy.len(), 30);
        // z movement must shrink by orders of magnitude.
        let first = out.history.z_delta[0];
        let last = out.history.final_delta().unwrap();
        assert!(last < first * 1e-3, "no convergence: {first} -> {last}");
    }

    #[test]
    fn local_models_reach_consensus() {
        let (parts, _, _) = blob_parts();
        let cfg = AdmmConfig::default().with_max_iter(60);
        let out = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap();
        for lm in &out.local_models {
            let d: f64 = lm
                .weights()
                .iter()
                .zip(out.model.weights())
                .map(|(a, b)| (a - b) * (a - b))
                .sum();
            assert!(d < 1e-4, "learner model strayed from consensus by {d}");
        }
    }

    #[test]
    fn matches_centralized_svm() {
        // Lemma 4.1: the consensus optimum is the centralized optimum, so
        // the primal objective ½‖w‖² + C·Σ hinge of the distributed model
        // must approach the centralized minimum (it can never beat it).
        let ds = synth::cancer_like(240, 5);
        let (train, test) = ds.split(0.5, 6).unwrap();
        // ρ = 10 converges faster in objective than the paper's ρ = 100
        // (which privileges consensus speed); 200 iterations suffice here.
        let cfg = AdmmConfig::default().with_rho(10.0).with_max_iter(200);
        let objective = |w: &[f64], b: f64| {
            let norm = 0.5 * vecops::norm_sq(w);
            let hinge: f64 = (0..train.len())
                .map(|i| {
                    let margin = train.label(i) * (vecops::dot(w, train.sample(i)) + b);
                    (1.0 - margin).max(0.0)
                })
                .sum();
            norm + cfg.c * hinge
        };
        let central = ppml_svm::LinearSvm::train(&train, cfg.c).unwrap();
        let parts = Partition::horizontal(&train, 4, 7).unwrap();
        let out = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap();
        let obj_c = objective(central.weights(), central.bias());
        let obj_d = objective(out.model.weights(), out.model.bias());
        assert!(
            obj_d >= obj_c - 1e-6 * obj_c.abs(),
            "distributed {obj_d} beat the optimum {obj_c}?"
        );
        assert!(
            obj_d < obj_c * 1.03 + 1e-9,
            "distributed objective {obj_d} too far above optimum {obj_c}"
        );
        // And test accuracies are in the same ballpark.
        let (acc_c, acc_d) = (central.accuracy(&test), out.model.accuracy(&test));
        assert!(
            (acc_c - acc_d).abs() < 0.08,
            "centralized {acc_c} vs distributed {acc_d}"
        );
    }

    #[test]
    fn single_class_partition_is_tolerated() {
        // Random assignment can hand one learner a single class; the
        // penalized-bias dual has no equality constraint, so this must work.
        let ds = synth::blobs(40, 9);
        let pos_idx: Vec<usize> = (0..40).filter(|&i| ds.label(i) > 0.0).collect();
        let neg_idx: Vec<usize> = (0..40).filter(|&i| ds.label(i) < 0.0).collect();
        let parts = vec![ds.select(&pos_idx), ds.select(&neg_idx)];
        let cfg = AdmmConfig::default().with_max_iter(40);
        let out = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap();
        assert!(out.model.accuracy(&ds) > 0.9);
    }

    #[test]
    fn early_stop_honors_tol() {
        let (parts, _, _) = blob_parts();
        let cfg = AdmmConfig::default().with_max_iter(100).with_tol(1e-6);
        let out = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap();
        assert!(out.history.len() < 100, "tol did not stop early");
        assert!(out.history.final_delta().unwrap() < 1e-6);
    }

    /// `cfg.max_iter` HL rounds through `sum`.
    fn run_hl(
        parts: &[Dataset],
        cfg: &AdmmConfig,
        sum: impl FnMut(u64, &[Vec<f64>]) -> Result<Vec<f64>>,
    ) -> LinearSvm {
        let mut learners: Vec<HlLearner> = parts
            .iter()
            .map(|p| HlLearner::new(p, parts.len(), cfg).unwrap())
            .collect();
        let mut consensus = Averaging::new(parts[0].features());
        round::train(&mut learners, &mut consensus, cfg, sum, |_, _, _, _| {
            Ok(None)
        })
        .unwrap();
        consensus.model()
    }

    /// The shipped pairwise halves, routed in memory, are exactly what
    /// [`HorizontalLinearSvm::train`] sums through, and agree with the
    /// plain `f64` sum (the float reference) to the fixed-point
    /// resolution accumulated over the rounds.
    #[test]
    fn aggregator_backends_agree() {
        let (parts, _, _) = blob_parts();
        let cfg = AdmmConfig::default().with_max_iter(10);
        let secure = run_hl(
            &parts,
            &cfg,
            secagg::in_memory(SecAggConfig::pairwise(), &cfg),
        );
        let exact = run_hl(&parts, &cfg, round::float_sum);
        for (a, b) in secure.weights().iter().zip(exact.weights()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        let shipped = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap();
        assert_eq!(secure, shipped.model);
    }

    /// The fixed-point secure sum does not perturb training: 100 HL
    /// rounds through the shipped pairwise halves stay within 1e-5 of the
    /// same rounds summed in plain `f64`.
    #[test]
    fn fixed_point_noise_does_not_perturb_training() {
        let ds = synth::blobs(100, 95);
        let parts = Partition::horizontal(&ds, 4, 96).unwrap();
        let cfg = AdmmConfig::default().with_max_iter(100);
        let exact = run_hl(&parts, &cfg, round::float_sum);
        let secure = run_hl(
            &parts,
            &cfg,
            secagg::in_memory(SecAggConfig::pairwise(), &cfg),
        );
        for (a, b) in exact.weights().iter().zip(secure.weights()) {
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn rejects_malformed_partitions() {
        assert!(matches!(
            HorizontalLinearSvm::train(&[], &AdmmConfig::default(), None),
            Err(TrainError::BadPartition { .. })
        ));
        let ds = synth::blobs(10, 1);
        let empty = Dataset::new(Matrix::zeros(0, 2), vec![]).unwrap();
        assert!(
            HorizontalLinearSvm::train(&[ds.clone(), empty], &AdmmConfig::default(), None).is_err()
        );
        let wrong_dim = synth::cancer_like(10, 1);
        assert!(
            HorizontalLinearSvm::train(&[ds, wrong_dim], &AdmmConfig::default(), None).is_err()
        );
    }

    #[test]
    fn a_solve_stopped_at_the_sweep_cap_is_a_typed_error() {
        let (parts, _, _) = blob_parts();
        let cfg = AdmmConfig::default();
        let one_sweep = QpConfig {
            max_iter: 1,
            ..cfg.qp
        };
        let mut learner = HlLearner::new(&parts[0], parts.len(), &cfg).unwrap();
        let k = parts[0].features();
        match learner.local_step(&vec![0.0; k], 0.0, &one_sweep) {
            Err(TrainError::QpNotConverged {
                sweeps,
                kkt_violation,
            }) => {
                assert_eq!(sweeps, 1);
                assert!(kkt_violation > one_sweep.tol);
            }
            other => panic!("expected QpNotConverged, got {other:?}"),
        }
        // The learner still holds its last good multipliers.
        assert!(learner.lambda.iter().all(|&l| l == 0.0));
        learner.local_step(&vec![0.0; k], 0.0, &cfg.qp).unwrap();
    }

    #[test]
    fn one_pass_hessian_equals_the_two_pass_build() {
        let (parts, _, _) = blob_parts();
        let part = &parts[0];
        let (n, k) = (part.len(), part.features());
        let (a, rho) = (0.01, 100.0);
        let yx = Matrix::from_fn(n, k, |i, j| part.label(i) * part.x()[(i, j)]);
        let y = part.y();
        let gram = yx.matmul(&yx.transpose()).unwrap();
        let two_pass = Matrix::from_fn(n, n, |i, j| a * gram[(i, j)] + y[i] * y[j] / rho);
        assert_eq!(dual_hessian(&yx, y, a, rho), two_pass);
    }

    #[test]
    fn deterministic_given_seed() {
        let (parts, _, _) = blob_parts();
        let cfg = AdmmConfig::default().with_max_iter(5).with_seed(11);
        let a = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap();
        let b = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap();
        assert_eq!(a.model.weights(), b.model.weights());
        assert_eq!(a.history, b.history);
    }
}
