//! The round problem: what one ADMM round *is*, apart from where it runs.
//!
//! All four trainers (§IV-A/B/C) are the same iterative-MapReduce round
//! (Fig. 1): every learner takes one local step against the broadcast and
//! emits one vector (Map), the vectors meet only as their §V secure sum
//! (Reduce), and one central update turns that sum into the next
//! broadcast. The two halves of that contract live here:
//!
//! * [`Learner`] — the **learner side**. `step(broadcast, qp)` is the
//!   whole Map procedure and returns the raw share. It owns everything
//!   local, including "the scaled duals lag one *computed* round": a
//!   learner takes its dual step against the fresh broadcast first,
//!   unless this is the first round it computes — round 0, or the
//!   re-admission round of a rejoiner or of a mapper the runtime
//!   re-derived, both of which start with zeroed duals.
//! * [`ConsensusUpdate`] — the **coordinator side**. `update(sum,
//!   divisor)` folds one round's sum over `divisor` contributors into
//!   the consensus state and returns `‖Δz‖²`; `broadcast()` is what
//!   every learner's next step needs. There are exactly two: the
//!   averaging update [`Averaging`] (HL, HK) and
//!   [`crate::vertical::linear::VerticalReducer`] (VL, VK). A share is
//!   always as long as the broadcast it answers.
//!
//! A **driver** owns what is left — how the shares are summed, the
//! iteration count, the `tol` exit and the history — and there is one per
//! deployment: [`train`] below (in-process, summing through
//! [`crate::secagg`]'s halves routed in memory), [`crate::jobs`]' cluster
//! driver, and the wire pair
//! `coordinate`/`learn` in [`crate::distributed`]. No driver knows which
//! trainer it serves; what differs per trainer (validation, building the
//! pair, per-iteration evaluation and diagnostics, assembling the
//! outcome) is supplied by the eight public entry points.

use ppml_linalg::vecops;
use ppml_qp::QpConfig;
use ppml_svm::LinearSvm;
use ppml_telemetry::{self as telemetry, EventKind, NO_PARTY};

use crate::{AdmmConfig, ConvergenceHistory, Result};

/// Learner side of the round problem (see the module docs).
pub(crate) trait Learner: Send + 'static {
    /// One Map step against `broadcast`; returns the raw (unmasked)
    /// share, as long as `broadcast`.
    fn step(&mut self, broadcast: &[f64], qp: &QpConfig) -> Result<Vec<f64>>;
}

/// Coordinator side of the round problem (see the module docs).
pub(crate) trait ConsensusUpdate {
    /// Folds the sum of `divisor` learners' shares into the consensus
    /// state; returns `‖z_new − z_old‖²`.
    fn update(&mut self, sum: &[f64], divisor: usize) -> Result<f64>;
    /// What the learners' next step runs against.
    fn broadcast(&self) -> &[f64];
}

/// The averaging update of the horizontal trainers: the consensus
/// `[z ; s]` is the mean of the shares `[w_m + γ_m ; b_m + β_m]`.
#[derive(Debug, Clone)]
pub(crate) struct Averaging {
    /// `[z ; s]`: consensus weight image, then the consensus bias.
    zs: Vec<f64>,
}

impl Averaging {
    /// The zero consensus over a `features`-wide weight image.
    pub(crate) fn new(features: usize) -> Self {
        Averaging::from_parts(vec![0.0; features], 0.0)
    }

    pub(crate) fn from_parts(mut z: Vec<f64>, s: f64) -> Self {
        z.push(s);
        Averaging { zs: z }
    }

    /// The consensus `(z, s)`.
    pub(crate) fn parts(&self) -> (&[f64], f64) {
        split_consensus(&self.zs)
    }

    /// The consensus read as a linear model.
    pub(crate) fn model(&self) -> LinearSvm {
        let (z, s) = self.parts();
        LinearSvm::from_parts(z.to_vec(), s)
    }

    /// The in-process trainers' [`EventKind::AdmmIteration`] diagnostics
    /// from each learner's local `(image, bias)`: aggregate norms only
    /// (the §V privacy rule), never coordinates. Free with telemetry off.
    pub(crate) fn emit_diagnostics<'a>(
        &self,
        locals: impl Iterator<Item = (&'a [f64], f64)>,
        iteration: u64,
        delta: f64,
        rho: f64,
        objective: Option<f64>,
    ) {
        if !telemetry::enabled() {
            return;
        }
        let (z, s) = self.parts();
        let (mut m, mut primal_sq) = (0.0, 0.0);
        for (image, b) in locals {
            m += 1.0;
            primal_sq += vecops::dist_sq(image, z) + (b - s) * (b - s);
        }
        let event = EventKind::AdmmIteration {
            iteration,
            primal_sq,
            dual_sq: rho * rho * m * delta,
            z_delta: delta,
            objective,
        };
        telemetry::emit(NO_PARTY, event);
    }
}

/// Reads a horizontal broadcast `[z ; s]` apart.
pub(crate) fn split_consensus(zs: &[f64]) -> (&[f64], f64) {
    let (s, z) = zs.split_last().expect("a consensus ends in its bias");
    (z, *s)
}

impl ConsensusUpdate for Averaging {
    /// The one mean. It *divides* every coordinate, `s` included: that is
    /// the form defined for a survivor count, and `v · (1/m)` differs
    /// from it by an ulp wherever `m` is not a power of two.
    fn update(&mut self, sum: &[f64], divisor: usize) -> Result<f64> {
        let new: Vec<f64> = sum.iter().map(|&v| v / divisor as f64).collect();
        let delta = vecops::dist_sq(split_consensus(&new).0, self.parts().0);
        self.zs = new;
        Ok(delta)
    }

    fn broadcast(&self) -> &[f64] {
        &self.zs
    }
}

/// The in-process driver: learners simulated in one address space, each
/// round's shares summed by `sum(iteration, shares)` — the trainers pass
/// [`crate::secagg::in_memory`]. `observe(learners, update, iteration,
/// ‖Δz‖²)` runs after every update — the entry point's telemetry
/// diagnostics — and returns the round's accuracy when the caller
/// evaluates.
pub(crate) fn train<L: Learner, U: ConsensusUpdate>(
    learners: &mut [L],
    update: &mut U,
    cfg: &AdmmConfig,
    mut sum: impl FnMut(u64, &[Vec<f64>]) -> Result<Vec<f64>>,
    mut observe: impl FnMut(&[L], &U, u64, f64) -> Result<Option<f64>>,
) -> Result<ConvergenceHistory> {
    let mut history = ConvergenceHistory::default();
    for iteration in 0..cfg.max_iter as u64 {
        let shares = learners
            .iter_mut()
            .map(|l| l.step(update.broadcast(), &cfg.qp))
            .collect::<Result<Vec<_>>>()?;
        let delta = update.update(&sum(iteration, &shares)?, shares.len())?;
        history.z_delta.push(delta);
        history
            .accuracy
            .extend(observe(learners, update, iteration, delta)?);
        if cfg.tol.is_some_and(|tol| delta < tol) {
            break;
        }
    }
    Ok(history)
}

/// The float reference for tests: each round's shares summed column by
/// column in plain `f64`, with no fixed-point encoding in between.
#[cfg(test)]
pub(crate) fn float_sum(_iteration: u64, shares: &[Vec<f64>]) -> Result<Vec<f64>> {
    let mut sum = vec![0.0; shares.first().map_or(0, Vec::len)];
    for share in shares {
        vecops::axpy(1.0, share, &mut sum);
    }
    Ok(sum)
}
