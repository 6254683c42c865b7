//! Quadratic-programming solvers for the SVM dual problems.
//!
//! Every subproblem in the paper reduces to one of two convex QP shapes:
//!
//! * **Box QP** — `min ½λᵀQλ + qᵀλ` subject to `lo ≤ λᵢ ≤ hi`. This is the
//!   per-mapper dual of the horizontally-partitioned trainers (the bias is
//!   quadratically penalized by ADMM, so no equality constraint survives; see
//!   DESIGN.md §2). Solved by [`solve_box`]: projected cyclic coordinate
//!   descent with an incrementally maintained gradient, and between every
//!   two sweeps a ridged Newton step on the free coordinates, whose
//!   Cholesky factor drops a coordinate a bound stops rather than being
//!   computed again — a descent step that leaves the exit test, a full
//!   sweep with KKT violation `≤ tol`, as it was. See [`solve_box_from`].
//! * **Box + single equality QP** — the same with one extra constraint
//!   `Σᵢ aᵢλᵢ = t`, `aᵢ ∈ {−1, +1}` (a label vector). This is the reducer's
//!   `z`-subproblem in the vertically-partitioned trainers and the classic
//!   centralized SVM dual. Solved by [`solve_box_eq`]: an SMO-style
//!   maximal-violating-pair method (Platt; Keerthi et al.), the same family
//!   of solver the paper cites via LIBSVM.
//!
//! Both solvers report KKT residuals and support warm starts, which the ADMM
//! outer loop exploits (`*_from` variants).
//!
//! # Example
//!
//! ```
//! use ppml_linalg::Matrix;
//! use ppml_qp::{solve_box, QpConfig};
//!
//! # fn main() -> Result<(), ppml_qp::QpError> {
//! // min ½ x² - x  on [0, 10]  →  x = 1
//! let q = Matrix::from_rows(&[&[1.0]]).unwrap();
//! let sol = solve_box(&q, &[-1.0], 0.0, 10.0, &QpConfig::default())?;
//! assert!((sol.x[0] - 1.0).abs() < 1e-8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
use ppml_linalg::{vecops, Cholesky, Matrix};
use std::fmt;

/// Errors produced by the QP solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum QpError {
    /// `Q` is not square, or the linear term / constraint vector has the
    /// wrong length.
    ShapeMismatch {
        /// Human-readable description of the offending operand.
        what: &'static str,
        /// Expected length/size.
        expected: usize,
        /// Actual length/size.
        found: usize,
    },
    /// The bounds are inverted (`lo > hi`) or not finite.
    InvalidBounds {
        /// Lower bound supplied.
        lo: f64,
        /// Upper bound supplied.
        hi: f64,
    },
    /// No point in the box satisfies the equality constraint.
    InfeasibleEquality {
        /// The requested right-hand side `t`.
        target: f64,
        /// Smallest achievable `Σ aᵢλᵢ` in the box.
        min: f64,
        /// Largest achievable `Σ aᵢλᵢ` in the box.
        max: f64,
    },
    /// An equality-constraint coefficient was not `+1` or `-1`.
    BadConstraintCoefficient {
        /// Index of the offending coefficient.
        index: usize,
        /// Its value.
        value: f64,
    },
}

impl fmt::Display for QpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QpError::ShapeMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what}: expected length {expected}, found {found}"),
            QpError::InvalidBounds { lo, hi } => write!(f, "invalid bounds [{lo}, {hi}]"),
            QpError::InfeasibleEquality { target, min, max } => write!(
                f,
                "equality target {target} outside achievable range [{min}, {max}]"
            ),
            QpError::BadConstraintCoefficient { index, value } => write!(
                f,
                "constraint coefficient at {index} is {value}, expected +1 or -1"
            ),
        }
    }
}

impl std::error::Error for QpError {}

/// Stopping criteria shared by both solvers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpConfig {
    /// Maximum KKT violation at which the solution is accepted.
    pub tol: f64,
    /// Hard cap on iterations (coordinate sweeps for [`solve_box`], pair
    /// updates for [`solve_box_eq`]).
    pub max_iter: usize,
}

impl Default for QpConfig {
    fn default() -> Self {
        QpConfig {
            tol: 1e-8,
            max_iter: 100_000,
        }
    }
}

/// Solution of a QP, with convergence diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct QpSolution {
    /// The minimizer (or best iterate when `converged` is false).
    pub x: Vec<f64>,
    /// Iterations actually used.
    pub iterations: usize,
    /// Final maximum KKT violation.
    pub kkt_violation: f64,
    /// Whether `kkt_violation <= tol` was reached within `max_iter`.
    pub converged: bool,
}

fn validate_common(q: &Matrix, lin: &[f64], lo: f64, hi: f64) -> Result<usize, QpError> {
    let n = q.rows();
    if q.cols() != n {
        return Err(QpError::ShapeMismatch {
            what: "Q must be square",
            expected: n,
            found: q.cols(),
        });
    }
    if lin.len() != n {
        return Err(QpError::ShapeMismatch {
            what: "linear term",
            expected: n,
            found: lin.len(),
        });
    }
    if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
        return Err(QpError::InvalidBounds { lo, hi });
    }
    Ok(n)
}

/// The slack inside which a coordinate counts as sitting on a bound; the
/// KKT check and the free set of the Newton step share it.
fn bound_eps(lo: f64, hi: f64) -> f64 {
    1e-12 * (1.0 + hi.abs().max(lo.abs()))
}

/// Per-coordinate KKT violation for box constraints: at the lower bound the
/// gradient must be ≥ 0, at the upper bound ≤ 0, in the interior ≈ 0.
fn box_violation(x: f64, g: f64, lo: f64, hi: f64) -> f64 {
    let eps = bound_eps(lo, hi);
    if x <= lo + eps {
        (-g).max(0.0)
    } else if x >= hi - eps {
        g.max(0.0)
    } else {
        g.abs()
    }
}

/// Checks the operands of a box QP and returns the projected start and the
/// gradient `g = Qx + q` there.
fn box_start(
    q: &Matrix,
    lin: &[f64],
    lo: f64,
    hi: f64,
    x0: &[f64],
) -> Result<(Vec<f64>, Vec<f64>), QpError> {
    let n = validate_common(q, lin, lo, hi)?;
    if x0.len() != n {
        return Err(QpError::ShapeMismatch {
            what: "warm start",
            expected: n,
            found: x0.len(),
        });
    }
    let x: Vec<f64> = x0.iter().map(|&v| v.clamp(lo, hi)).collect();
    // g = q + Σ_{xᵢ≠0} xᵢ·Qᵢ: Q is symmetric, so row i is column i, and a
    // warm start's multipliers at zero cost nothing.
    let mut g = lin.to_vec();
    for (i, &xi) in x.iter().enumerate() {
        if xi != 0.0 {
            vecops::axpy(xi, q.row(i), &mut g);
        }
    }
    Ok((x, g))
}

/// One projected coordinate-descent sweep over all coordinates. Returns the
/// largest KKT violation seen, each coordinate judged just before its own
/// update.
fn cd_sweep(q: &Matrix, x: &mut [f64], g: &mut [f64], lo: f64, hi: f64, tol: f64) -> f64 {
    let mut viol = 0.0f64;
    for i in 0..x.len() {
        let v = box_violation(x[i], g[i], lo, hi);
        viol = viol.max(v);
        if v <= tol {
            continue;
        }
        let qii = q[(i, i)];
        let new = if qii > 0.0 {
            (x[i] - g[i] / qii).clamp(lo, hi)
        } else if g[i] > 0.0 {
            // With Q PSD and qii == 0 the whole row is zero, so the optimum
            // is at the bound sign(g) points away from.
            lo
        } else {
            hi
        };
        let delta = new - x[i];
        if delta != 0.0 {
            x[i] = new;
            vecops::axpy(delta, q.row(i), g); // g tracks x
        }
    }
    viol
}

/// The Newton half of [`solve_box_from`]: the sweep it engages from, the
/// free set of the last two sweeps and the buffers a step works in,
/// reused from step to step.
struct FreeSetNewton {
    /// Sweeps a solve runs before steps join in: 1 is every gap, as
    /// shipped, and `usize::MAX` plain coordinate descent.
    after: usize,
    free: Vec<usize>,
    prev_free: Vec<usize>,
    /// `−g_F`, which the factor solves into the direction `d`.
    dir: Vec<f64>,
    /// Storage `Q_FF + εI` is gathered into and factored in place.
    qff: Vec<f64>,
    /// Newton directions computed.
    #[cfg(test)]
    directions: usize,
    /// Cholesky factorisations tried: one per call that tries a step.
    #[cfg(test)]
    factorisations: usize,
}

impl FreeSetNewton {
    fn new(after: usize) -> Self {
        FreeSetNewton {
            after,
            free: Vec::new(),
            prev_free: Vec::new(),
            dir: Vec::new(),
            qff: Vec::new(),
            #[cfg(test)]
            directions: 0,
            #[cfg(test)]
            factorisations: 0,
        }
    }

    /// Called after a sweep that missed the tolerance. When the free set
    /// `F = {i : lo+eps < xᵢ < hi−eps}` is non-empty and the same as after
    /// the previous sweep, factors `Q_FF + εI` once and moves `x_F` along
    /// the Newton direction of the face, keeping `g` current; a step that a
    /// bound cut short removes the coordinates now on a bound from `F` and
    /// from the factor, and goes again, so the call ends on a full step. A
    /// factorisation that fails, or a direction that round-off cost its
    /// descent, ends it early with `x` and `g` as the last step left them.
    fn step(&mut self, q: &Matrix, x: &mut [f64], g: &mut [f64], lo: f64, hi: f64) {
        let eps = bound_eps(lo, hi);
        let is_free = |v: f64| v > lo + eps && v < hi - eps;
        std::mem::swap(&mut self.free, &mut self.prev_free);
        self.free.clear();
        self.free.extend((0..x.len()).filter(|&i| is_free(x[i])));
        if self.free.is_empty() || self.free != self.prev_free {
            return;
        }
        let f = self.free.len();
        let mut qff = std::mem::take(&mut self.qff);
        qff.clear();
        let mut trace = 0.0;
        for &i in &self.free {
            let row = q.row(i);
            qff.extend(self.free.iter().map(|&j| row[j]));
            trace += row[i];
        }
        let mut qff = Matrix::from_vec(f, f, qff).expect("f² entries");
        // The ridge of the starting face stays through every removal.
        qff.add_diag(1e-10 * trace / f as f64);
        #[cfg(test)]
        {
            self.factorisations += 1;
        }
        let Ok(mut factor) = Cholesky::factor_in_place(qff) else {
            return;
        };
        self.descend(&mut factor, q, x, g, lo, hi);
        self.qff = factor.into_factor().into_vec();
    }

    /// The Newton steps of one [`FreeSetNewton::step`] on `factor`, the
    /// factor of `Q_FF + εI`.
    fn descend(
        &mut self,
        factor: &mut Cholesky,
        q: &Matrix,
        x: &mut [f64],
        g: &mut [f64],
        lo: f64,
        hi: f64,
    ) {
        let eps = bound_eps(lo, hi);
        let is_free = |v: f64| v > lo + eps && v < hi - eps;
        // Every pass but the last shrinks F, so this ends.
        while !self.free.is_empty() {
            #[cfg(test)]
            {
                self.directions += 1;
            }
            self.dir.clear();
            self.dir.extend(self.free.iter().map(|&i| -g[i]));
            factor
                .solve_in_place(&mut self.dir)
                .expect("the factor is |F| × |F|");
            let d = &self.dir;
            // −g_Fᵀd = dᵀ(Q_FF + εI)d > 0 in exact arithmetic.
            let descent: f64 = self.free.iter().zip(d).map(|(&i, &di)| -g[i] * di).sum();
            if !(descent > 0.0 && descent.is_finite()) {
                return;
            }
            // Largest step in (0, 1] that keeps x_F inside the box.
            let mut alpha = 1.0f64;
            for (&i, &di) in self.free.iter().zip(d) {
                let room = if di > 0.0 { hi - x[i] } else { lo - x[i] };
                if di != 0.0 && room / di < alpha {
                    alpha = room / di;
                }
            }
            for (&i, &di) in self.free.iter().zip(d) {
                let new = (x[i] + alpha * di).clamp(lo, hi);
                let delta = new - x[i];
                if delta != 0.0 {
                    x[i] = new;
                    vecops::axpy(delta, q.row(i), g); // g tracks x
                }
            }
            // Last position first, so the positions still to visit hold.
            let f = self.free.len();
            for a in (0..f).rev() {
                if !is_free(x[self.free[a]]) {
                    self.free.remove(a);
                    factor.remove(a);
                }
            }
            if alpha == 1.0 || self.free.len() == f {
                return;
            }
        }
    }
}

/// Solves `min ½xᵀQx + qᵀx` over the box `[lo, hi]ⁿ`, starting from the
/// projection of `x0` onto the box.
///
/// `Q` must be symmetric positive semidefinite; the solver only reads it
/// row-wise and assumes symmetry.
///
/// # Method
///
/// Projected cyclic coordinate descent with a maintained gradient, and a
/// safeguarded Newton step on the free set in every gap between sweeps. A
/// coordinate that passes its KKT check costs O(1) in a sweep, so a sweep
/// costs *movers × n*; what is expensive on an SVM dual is the *number* of
/// sweeps the few free multipliers need on an ill-conditioned face while
/// the rest sit at a bound. So after a sweep that misses `tol`, with
/// `F = {i : lo+eps < xᵢ < hi−eps}` non-empty and equal to the previous
/// sweep's, the solver factors `Q_FF + εI = LLᵀ`, solves
/// `(Q_FF + εI) d = −g_F` and sets `x_F += α d`,
/// `α = min(1, largest step that stays in the box)`. When a bound cut the
/// step short (`α < 1`) it drops the coordinates that reached a bound from
/// `F` and repeats on the smaller face, until a full step. The factor is
/// not recomputed for the smaller face: dropping coordinate `p` from `F`
/// drops row and column `p` from `L`, a rank-one update of the rows below
/// it in O((|F|−p)²) ([`ppml_linalg::Cholesky::remove`]), where a fresh
/// factorisation costs O(|F|³).
///
/// The ridge `ε = 1e-10 · mean diag Q_FF`, taken on the face the step
/// started on and kept through the removals, is needed, not cosmetic: the
/// linear trainers' `Q = AAᵀ` has rank `k+1` and `|F|` exceeds it on real
/// inputs, so `Q_FF` alone is singular.
///
/// Each step is a descent step. With `(Q_FF + εI) d = −g_F`,
/// `g_Fᵀd = −dᵀQd − ε‖d‖²`, so `f(x+αd) − f(x) = α g_Fᵀd + ½α² dᵀQd =
/// −α(1−α/2) dᵀQd − αε‖d‖² ≤ −α(½ dᵀQd + ε‖d‖²) < 0` for `α ∈ (0, 1]`.
/// Coordinate descent's global convergence therefore stands, and the exit
/// is coordinate descent's own: the loop ends only when a **full sweep**
/// sees a maximum KKT violation `≤ tol`. `iterations` counts sweeps. A
/// factorisation that fails only skips the step.
///
/// # Errors
///
/// [`QpError::ShapeMismatch`] or [`QpError::InvalidBounds`] on malformed
/// input.
pub fn solve_box_from(
    q: &Matrix,
    lin: &[f64],
    lo: f64,
    hi: f64,
    x0: &[f64],
    cfg: &QpConfig,
) -> Result<QpSolution, QpError> {
    let newton = &mut FreeSetNewton::new(1);
    box_descent(q, lin, lo, hi, x0, cfg, newton)
}

/// [`solve_box_from`] with the Newton half passed in: a fresh
/// `FreeSetNewton::new(after)` steps between sweeps from sweep `after` on.
fn box_descent(
    q: &Matrix,
    lin: &[f64],
    lo: f64,
    hi: f64,
    x0: &[f64],
    cfg: &QpConfig,
    newton: &mut FreeSetNewton,
) -> Result<QpSolution, QpError> {
    let (mut x, mut g) = box_start(q, lin, lo, hi, x0)?;
    let mut viol = f64::INFINITY;
    let mut sweeps = 0usize;
    while sweeps < cfg.max_iter && viol > cfg.tol {
        // Between sweeps only: the point returned is always a sweep's.
        if sweeps >= newton.after {
            newton.step(q, &mut x, &mut g, lo, hi);
        }
        sweeps += 1;
        viol = cd_sweep(q, &mut x, &mut g, lo, hi, cfg.tol);
    }
    Ok(QpSolution {
        converged: viol <= cfg.tol,
        x,
        iterations: sweeps,
        kkt_violation: viol,
    })
}

/// [`solve_box_from`] started from the zero vector (projected onto the box).
///
/// # Errors
///
/// See [`solve_box_from`].
pub fn solve_box(
    q: &Matrix,
    lin: &[f64],
    lo: f64,
    hi: f64,
    cfg: &QpConfig,
) -> Result<QpSolution, QpError> {
    let zeros = vec![0.0; q.rows()];
    solve_box_from(q, lin, lo, hi, &zeros, cfg)
}

/// Solves `min ½xᵀQx + qᵀx` over `[lo, hi]ⁿ` intersected with the hyperplane
/// `Σᵢ aᵢxᵢ = t`, where every `aᵢ ∈ {−1, +1}` (a label vector).
///
/// Uses SMO with maximal-violating-pair working-set selection; the dual
/// feasibility gap `m(α) − M(α)` (Keerthi et al.) is the reported KKT
/// violation.
///
/// # Errors
///
/// Shape/bounds errors as in [`solve_box`];
/// [`QpError::BadConstraintCoefficient`] if some `aᵢ ∉ {−1, +1}`;
/// [`QpError::InfeasibleEquality`] when no box point satisfies the
/// constraint.
pub fn solve_box_eq(
    q: &Matrix,
    lin: &[f64],
    lo: f64,
    hi: f64,
    a: &[f64],
    target: f64,
    cfg: &QpConfig,
) -> Result<QpSolution, QpError> {
    let n = validate_common(q, lin, lo, hi)?;
    if a.len() != n {
        return Err(QpError::ShapeMismatch {
            what: "constraint vector",
            expected: n,
            found: a.len(),
        });
    }
    for (i, &ai) in a.iter().enumerate() {
        if ai != 1.0 && ai != -1.0 {
            return Err(QpError::BadConstraintCoefficient {
                index: i,
                value: ai,
            });
        }
    }
    // Feasible start: begin at the box corner minimizing Σaᵢxᵢ, then raise
    // coordinates greedily until the target is met.
    let (mut lo_sum, mut hi_sum) = (0.0, 0.0);
    for &ai in a {
        // Contribution range of one coordinate: aᵢxᵢ ∈ [min, max].
        let (cmin, cmax) = if ai > 0.0 { (lo, hi) } else { (-hi, -lo) };
        lo_sum += cmin;
        hi_sum += cmax;
    }
    let tol_feas = 1e-9 * (1.0 + target.abs());
    if target < lo_sum - tol_feas || target > hi_sum + tol_feas {
        return Err(QpError::InfeasibleEquality {
            target,
            min: lo_sum,
            max: hi_sum,
        });
    }
    let mut x: Vec<f64> = a.iter().map(|&ai| if ai > 0.0 { lo } else { hi }).collect();
    let mut need = target - lo_sum; // ≥ 0; each coordinate can add up to hi-lo
    let span = hi - lo;
    for i in 0..n {
        if need <= 0.0 {
            break;
        }
        let add = need.min(span);
        // Moving coordinate i by `add / aᵢ` raises Σaᵢxᵢ by `add`.
        if a[i] > 0.0 {
            x[i] += add;
        } else {
            x[i] -= add;
        }
        need -= add;
    }

    let mut g = q.matvec(&x).expect("validated shape");
    for (gi, &qi) in g.iter_mut().zip(lin) {
        *gi += qi;
    }

    let mut iterations = 0usize;
    let mut gap = f64::INFINITY;
    while iterations < cfg.max_iter {
        iterations += 1;
        // Maximal violating pair: i maximizes −aᵢgᵢ over I_up,
        // j minimizes −aⱼgⱼ over I_low.
        let eps = bound_eps(lo, hi);
        let mut m_up = f64::NEG_INFINITY;
        let mut m_low = f64::INFINITY;
        let (mut bi, mut bj) = (usize::MAX, usize::MAX);
        for k in 0..n {
            let up = (a[k] > 0.0 && x[k] < hi - eps) || (a[k] < 0.0 && x[k] > lo + eps);
            let low = (a[k] > 0.0 && x[k] > lo + eps) || (a[k] < 0.0 && x[k] < hi - eps);
            let score = -a[k] * g[k];
            if up && score > m_up {
                m_up = score;
                bi = k;
            }
            if low && score < m_low {
                m_low = score;
                bj = k;
            }
        }
        gap = m_up - m_low;
        if bi == usize::MAX || bj == usize::MAX || gap <= cfg.tol {
            if gap.is_infinite() {
                // Degenerate: everything pinned and no movable pair.
                gap = 0.0;
            }
            break;
        }
        let (i, j) = (bi, bj);
        // Optimize along x_i += aᵢδ, x_j -= aⱼδ (keeps Σaᵢxᵢ constant).
        let eta = q[(i, i)] + q[(j, j)] - 2.0 * a[i] * a[j] * q[(i, j)];
        let grad_dir = a[i] * g[i] - a[j] * g[j]; // dObj/dδ at δ=0
        let mut delta = if eta > 1e-12 {
            -grad_dir / eta
        } else {
            // Flat direction: move as far as the box allows, in the
            // descending direction.
            if grad_dir > 0.0 {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }
        };
        // Clip to the box for both coordinates.
        let (d_lo_i, d_hi_i) = if a[i] > 0.0 {
            (lo - x[i], hi - x[i])
        } else {
            (x[i] - hi, x[i] - lo)
        };
        let (d_lo_j, d_hi_j) = if a[j] > 0.0 {
            (x[j] - hi, x[j] - lo)
        } else {
            (lo - x[j], hi - x[j])
        };
        let d_lo = d_lo_i.max(d_lo_j);
        let d_hi = d_hi_i.min(d_hi_j);
        delta = delta.clamp(d_lo, d_hi);
        if delta == 0.0 || !delta.is_finite() {
            // Numerical dead end: accept current iterate.
            break;
        }
        let di = a[i] * delta;
        let dj = -a[j] * delta;
        x[i] += di;
        x[j] += dj;
        let rowi = q.row(i);
        let rowj = q.row(j);
        for ((gk, &qik), &qjk) in g.iter_mut().zip(rowi).zip(rowj) {
            *gk += di * qik + dj * qjk;
        }
    }
    Ok(QpSolution {
        converged: gap <= cfg.tol,
        x,
        iterations,
        kkt_violation: gap.max(0.0),
    })
}

/// Solves the **separable** box + single-equality QP
/// `min Σᵢ (½·dᵢ·xᵢ² + qᵢ·xᵢ)` subject to `lo ≤ xᵢ ≤ hi`, `Σᵢ aᵢxᵢ = t`,
/// with every `dᵢ > 0` and `aᵢ ∈ {−1, +1}`.
///
/// This is the reducer-side `z`-subproblem of the vertically partitioned
/// trainers (the Hessian there is `(1/ρ)·I`). With a diagonal Hessian the
/// KKT system collapses to a one-dimensional root find on the equality
/// multiplier `ν`: `xᵢ(ν) = clamp(−(qᵢ + ν·aᵢ)/dᵢ)` and
/// `h(ν) = Σ aᵢxᵢ(ν)` is monotone non-increasing, so bisection solves the
/// problem to machine precision in ~100 iterations regardless of size —
/// no `n×n` matrix is ever formed.
///
/// # Errors
///
/// The same error conditions as [`solve_box_eq`]; additionally a diagonal
/// with non-positive or non-finite entries is rejected with
/// [`QpError::ShapeMismatch`] (`what = "diagonal"`).
pub fn solve_separable_eq(
    diag: &[f64],
    lin: &[f64],
    lo: f64,
    hi: f64,
    a: &[f64],
    target: f64,
) -> Result<QpSolution, QpError> {
    let n = diag.len();
    if lin.len() != n {
        return Err(QpError::ShapeMismatch {
            what: "linear term",
            expected: n,
            found: lin.len(),
        });
    }
    if a.len() != n {
        return Err(QpError::ShapeMismatch {
            what: "constraint vector",
            expected: n,
            found: a.len(),
        });
    }
    if diag.iter().any(|&d| d <= 0.0 || !d.is_finite()) {
        return Err(QpError::ShapeMismatch {
            what: "diagonal",
            expected: n,
            found: n,
        });
    }
    if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
        return Err(QpError::InvalidBounds { lo, hi });
    }
    for (i, &ai) in a.iter().enumerate() {
        if ai != 1.0 && ai != -1.0 {
            return Err(QpError::BadConstraintCoefficient {
                index: i,
                value: ai,
            });
        }
    }
    // Feasible range of Σ aᵢxᵢ.
    let (mut lo_sum, mut hi_sum) = (0.0, 0.0);
    for &ai in a {
        let (cmin, cmax) = if ai > 0.0 { (lo, hi) } else { (-hi, -lo) };
        lo_sum += cmin;
        hi_sum += cmax;
    }
    if target < lo_sum - 1e-9 || target > hi_sum + 1e-9 {
        return Err(QpError::InfeasibleEquality {
            target,
            min: lo_sum,
            max: hi_sum,
        });
    }
    let x_of = |nu: f64, out: &mut Vec<f64>| {
        out.clear();
        for i in 0..n {
            out.push(((-(lin[i] + nu * a[i])) / diag[i]).clamp(lo, hi));
        }
    };
    let h = |nu: f64, buf: &mut Vec<f64>| -> f64 {
        x_of(nu, buf);
        buf.iter().zip(a).map(|(x, ai)| x * ai).sum::<f64>() - target
    };
    // Expanding bracket around ν = 0: h is non-increasing in ν.
    let mut buf = Vec::with_capacity(n);
    let (mut lo_nu, mut hi_nu) = (-1.0f64, 1.0f64);
    let mut guard = 0;
    while h(lo_nu, &mut buf) < 0.0 && guard < 200 {
        lo_nu *= 2.0;
        guard += 1;
    }
    guard = 0;
    while h(hi_nu, &mut buf) > 0.0 && guard < 200 {
        hi_nu *= 2.0;
        guard += 1;
    }
    // Bisection.
    let mut iterations = 0usize;
    for _ in 0..200 {
        iterations += 1;
        let mid = 0.5 * (lo_nu + hi_nu);
        if h(mid, &mut buf) > 0.0 {
            lo_nu = mid;
        } else {
            hi_nu = mid;
        }
        if hi_nu - lo_nu < 1e-14 * (1.0 + hi_nu.abs()) {
            break;
        }
    }
    let nu = 0.5 * (lo_nu + hi_nu);
    let mut x = Vec::with_capacity(n);
    x_of(nu, &mut x);
    // Exact-feasibility polish: distribute any residual over interior
    // coordinates (they can absorb it without violating bounds).
    let resid: f64 = target - x.iter().zip(a).map(|(x, ai)| x * ai).sum::<f64>();
    if resid.abs() > 0.0 {
        let interior: Vec<usize> = (0..n)
            .filter(|&i| x[i] > lo + 1e-12 && x[i] < hi - 1e-12)
            .collect();
        if !interior.is_empty() {
            let per = resid / interior.len() as f64;
            for &i in &interior {
                x[i] = (x[i] + per * a[i]).clamp(lo, hi);
            }
        }
    }
    let kkt = (target - x.iter().zip(a).map(|(x, ai)| x * ai).sum::<f64>()).abs();
    Ok(QpSolution {
        x,
        iterations,
        kkt_violation: kkt,
        converged: kkt < 1e-8 * (1.0 + target.abs()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeded uniform(-1, 1) stream.
    fn stream(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }
    }

    fn spd(n: usize, seed: u64) -> Matrix {
        let mut next = stream(seed);
        let b = Matrix::from_fn(n, n, |_, _| next());
        let mut a = b.matmul(&b.transpose()).unwrap();
        a.add_diag(0.5);
        a
    }

    #[test]
    fn box_unconstrained_interior_matches_linear_solve() {
        // Wide bounds → minimizer is -Q⁻¹q.
        let q = spd(6, 2);
        let lin: Vec<f64> = (0..6).map(|i| (i as f64).sin()).collect();
        let sol = solve_box(&q, &lin, -1e6, 1e6, &QpConfig::default()).unwrap();
        assert!(sol.converged);
        let direct = q
            .cholesky()
            .unwrap()
            .solve(&lin.iter().map(|v| -v).collect::<Vec<_>>())
            .unwrap();
        for (a, b) in sol.x.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn box_active_bounds() {
        // min ½x² + 2x on [0, 1] → gradient positive everywhere → x = 0.
        let q = Matrix::identity(1);
        let sol = solve_box(&q, &[2.0], 0.0, 1.0, &QpConfig::default()).unwrap();
        assert_eq!(sol.x[0], 0.0);
        // min ½x² - 5x on [0, 1] → x = 1 (upper bound).
        let sol = solve_box(&q, &[-5.0], 0.0, 1.0, &QpConfig::default()).unwrap();
        assert_eq!(sol.x[0], 1.0);
    }

    #[test]
    fn box_warm_start_converges_faster() {
        let q = spd(20, 5);
        let lin: Vec<f64> = (0..20).map(|i| (i as f64 * 0.71).cos()).collect();
        let cfg = QpConfig::default();
        let cold = solve_box(&q, &lin, 0.0, 10.0, &cfg).unwrap();
        let warm = solve_box_from(&q, &lin, 0.0, 10.0, &cold.x, &cfg).unwrap();
        assert!(warm.converged);
        assert!(warm.iterations <= 2, "warm start took {}", warm.iterations);
    }

    #[test]
    fn box_kkt_certificate_holds() {
        let q = spd(10, 9);
        let lin: Vec<f64> = (0..10).map(|i| i as f64 * 0.3 - 1.5).collect();
        let sol = solve_box(&q, &lin, 0.0, 2.0, &QpConfig::default()).unwrap();
        assert!(sol.converged);
        let mut g = q.matvec(&sol.x).unwrap();
        for (gi, &qi) in g.iter_mut().zip(&lin) {
            *gi += qi;
        }
        for (&xi, &gi) in sol.x.iter().zip(&g) {
            assert!(box_violation(xi, gi, 0.0, 2.0) <= 1e-6);
        }
    }

    #[test]
    fn box_rejects_bad_shapes() {
        let q = Matrix::zeros(2, 3);
        assert!(matches!(
            solve_box(&q, &[0.0; 2], 0.0, 1.0, &QpConfig::default()),
            Err(QpError::ShapeMismatch { .. })
        ));
        let q = Matrix::identity(2);
        assert!(matches!(
            solve_box(&q, &[0.0; 3], 0.0, 1.0, &QpConfig::default()),
            Err(QpError::ShapeMismatch { .. })
        ));
        assert!(matches!(
            solve_box(&q, &[0.0; 2], 1.0, 0.0, &QpConfig::default()),
            Err(QpError::InvalidBounds { .. })
        ));
    }

    /// `AAᵀ` for a seeded `n × rank` factor: PSD, singular when `n > rank`.
    fn low_rank(n: usize, rank: usize, seed: u64) -> (Matrix, Matrix) {
        let mut next = stream(seed);
        let a = Matrix::from_fn(n, rank, |_, _| next());
        let q = a.matmul(&a.transpose()).unwrap();
        (q, a)
    }

    fn free_count(x: &[f64], lo: f64, hi: f64) -> usize {
        let eps = bound_eps(lo, hi);
        x.iter().filter(|&&v| v > lo + eps && v < hi - eps).count()
    }

    fn objective(q: &Matrix, lin: &[f64], x: &[f64]) -> f64 {
        0.5 * vecops::dot(&q.matvec(x).unwrap(), x) + vecops::dot(lin, x)
    }

    /// Solves with a Newton step in every gap between sweeps and with plain
    /// coordinate descent; both must converge and the first must not end on
    /// a higher objective (beyond what `tol` resolves).
    fn both(q: &Matrix, lin: &[f64], lo: f64, hi: f64, x0: &[f64]) -> (QpSolution, QpSolution) {
        let cfg = QpConfig::default();
        let descend = |after| box_descent(q, lin, lo, hi, x0, &cfg, &mut FreeSetNewton::new(after));
        let (fast, plain) = (descend(1).unwrap(), descend(usize::MAX).unwrap());
        assert!(fast.converged && plain.converged);
        assert!(fast.kkt_violation <= cfg.tol);
        assert!(fast.iterations <= plain.iterations);
        assert_eq!(solve_box_from(q, lin, lo, hi, x0, &cfg).unwrap(), fast);
        let (ff, fp) = (objective(q, lin, &fast.x), objective(q, lin, &plain.x));
        assert!(
            ff <= fp + 1e-9 * (1.0 + fp.abs()),
            "objective {ff} above {fp}"
        );
        (fast, plain)
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        for (u, v) in a.iter().zip(b) {
            assert!((u - v).abs() < tol, "{u} vs {v}");
        }
    }

    #[test]
    fn newton_matches_plain_cd_on_random_spd() {
        for seed in 1..=12u64 {
            let n = 5 + (seed as usize * 7) % 40;
            let q = spd(n, seed);
            let mut next = stream(seed ^ 0xabc);
            let lin: Vec<f64> = (0..n).map(|_| 3.0 * next()).collect();
            let (fast, plain) = both(&q, &lin, 0.0, 0.4, &vec![0.0; n]);
            assert_close(&fast.x, &plain.x, 1e-6);
        }
    }

    #[test]
    fn newton_matches_plain_cd_when_free_set_exceeds_rank() {
        // The linear trainers' shape: Q = AAᵀ with n ≫ rank, and a box wide
        // enough that more than `rank` coordinates end up free, so Q_FF is
        // singular and only the ridge makes it factor. The minimiser is not
        // unique there; Aᵀx and the objective are.
        for seed in 1..=8u64 {
            let (n, rank) = (40, 6);
            let (q, a) = low_rank(n, rank, seed);
            let mut next = stream(seed ^ 0x5eed);
            let lin: Vec<f64> = (0..n).map(|_| 0.2 * next() - 0.3).collect();
            let (fast, plain) = both(&q, &lin, 0.0, 2.0, &vec![0.0; n]);
            assert!(free_count(&fast.x, 0.0, 2.0) > 0);
            assert_close(
                &a.t_matvec(&fast.x).unwrap(),
                &a.t_matvec(&plain.x).unwrap(),
                1e-6,
            );
        }
    }

    #[test]
    fn newton_handles_zero_curvature_rows() {
        // Rows 0 and 3 of Q are zero: those coordinates go to the bound
        // their linear term points at; the rest is a coupled SPD block.
        let block = spd(6, 17);
        let idx = [1usize, 2, 4, 5, 6, 7];
        let mut q = Matrix::zeros(8, 8);
        for (a, &i) in idx.iter().enumerate() {
            for (b, &j) in idx.iter().enumerate() {
                q[(i, j)] = block[(a, b)];
            }
        }
        let lin = [1.0, -0.3, 0.2, -2.0, -0.7, 0.4, -0.1, -0.9];
        let (fast, plain) = both(&q, &lin, 0.0, 1.0, &[0.5; 8]);
        assert_eq!((fast.x[0], fast.x[3]), (0.0, 1.0));
        assert_close(&fast.x, &plain.x, 1e-6);
    }

    #[test]
    fn newton_leaves_all_at_bound_optima_alone() {
        // A linear term that dominates pins every coordinate: F is empty
        // from the first sweep on and no step is ever tried.
        let q = spd(15, 23);
        let lin: Vec<f64> = (0..15)
            .map(|i| if i % 2 == 0 { 500.0 } else { -500.0 })
            .collect();
        let (fast, plain) = both(&q, &lin, 0.0, 1.0, &[0.5; 15]);
        assert_eq!(fast, plain);
        assert!(fast.x.iter().all(|&v| v == 0.0 || v == 1.0));
    }

    #[test]
    fn newton_matches_plain_cd_from_warm_starts() {
        let (q, _) = low_rank(30, 30, 41);
        let mut next = stream(97);
        let lin: Vec<f64> = (0..30).map(|_| 2.0 * next()).collect();
        let cold = solve_box(&q, &lin, 0.0, 1.0, &QpConfig::default()).unwrap();
        // Perturbed optimum, a far corner, and a point outside the box.
        let near: Vec<f64> = cold.x.iter().map(|v| v + 0.05 * next()).collect();
        for x0 in [near, vec![1.0; 30], vec![-7.0; 30]] {
            let (fast, plain) = both(&q, &lin, 0.0, 1.0, &x0);
            assert_close(&fast.x, &plain.x, 1e-6);
            assert_close(&fast.x, &cold.x, 1e-6);
        }
        let again = solve_box_from(&q, &lin, 0.0, 1.0, &cold.x, &QpConfig::default()).unwrap();
        assert!(again.iterations <= 2);
    }

    #[test]
    fn objective_never_rises_across_a_newton_step() {
        // Rank 5 and a wide box: steps are taken on faces with |F| > rank,
        // where Q_FF is singular and only the ridge lets it factor.
        let (mut moved, mut moved_above_rank) = (0, 0);
        for seed in 1..=6u64 {
            let (n, rank) = (36, 5);
            let (q, _) = low_rank(n, rank, seed);
            let mut next = stream(seed ^ 0x77);
            let lin: Vec<f64> = (0..n).map(|_| 0.2 * next() - 0.3).collect();
            let (lo, hi, tol) = (0.0, 2.0, 1e-8);
            let (mut x, mut g) = box_start(&q, &lin, lo, hi, &vec![0.0; n]).unwrap();
            let mut newton = FreeSetNewton::new(1);
            for _ in 0..10_000 {
                if cd_sweep(&q, &mut x, &mut g, lo, hi, tol) <= tol {
                    break;
                }
                let before = (objective(&q, &lin, &x), x.clone());
                let free = free_count(&x, lo, hi);
                newton.step(&q, &mut x, &mut g, lo, hi);
                let after = objective(&q, &lin, &x);
                assert!(after <= before.0 + 1e-12 * (1.0 + before.0.abs()));
                assert!(x.iter().all(|v| (lo..=hi).contains(v)));
                moved += usize::from(x != before.1);
                moved_above_rank += usize::from(x != before.1 && free > rank);
                // The maintained gradient is still Qx + q.
                let fresh = box_start(&q, &lin, lo, hi, &x).unwrap().1;
                assert_close(&g, &fresh, 1e-9);
            }
        }
        assert!(moved >= 6, "only {moved} Newton steps were taken");
        assert!(moved_above_rank > 0, "no step on a singular face");
    }

    #[test]
    fn failed_factorisation_skips_the_step() {
        // Q_FF indefinite: Cholesky refuses, x and g stay as they were.
        let q = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap();
        let (mut x, mut g) = box_start(&q, &[0.1, -0.2], -1.0, 1.0, &[0.3, 0.2]).unwrap();
        let before = (x.clone(), g.clone());
        let mut newton = FreeSetNewton::new(1);
        newton.step(&q, &mut x, &mut g, -1.0, 1.0); // records F
        newton.step(&q, &mut x, &mut g, -1.0, 1.0); // same F: tries, fails
        assert_eq!(newton.free, [0, 1]);
        assert_eq!((x, g), before);
    }

    /// The two learners of the benchmark's first `train_compute` dataset as
    /// HL sees them: higgs_like seed 4, 300 training rows over 2 learners
    /// (the random split gives them 171 and 129) × 28 features. Per
    /// learner: the label-scaled rows `YX`, the labels, and the dual Hessian
    /// `a·(YX)(YX)ᵀ + yyᵀ/ρ`.
    fn hl_learners() -> Vec<(Matrix, Vec<f64>, Matrix)> {
        use ppml_data::{synth, Partition};
        let (rows, seed) = (300usize, 4u64);
        let data = synth::higgs_like(rows + 4000, seed);
        let (train, _) = data
            .split(rows as f64 / data.len() as f64, seed ^ 0x51)
            .unwrap();
        let learner = |part: &ppml_data::Dataset| {
            let (n, k) = (part.len(), part.features());
            let yx = Matrix::from_fn(n, k, |i, j| part.label(i) * part.sample(i)[j]);
            let gram = yx.matmul(&yx.transpose()).unwrap();
            let y = part.y().to_vec();
            let q = Matrix::from_fn(n, n, |i, j| HL_A * gram[(i, j)] + y[i] * y[j] / HL_RHO);
            (yx, y, q)
        };
        let parts = Partition::horizontal(&train, HL_M as usize, seed ^ 0x9a).unwrap();
        parts.iter().map(learner).collect()
    }

    /// `AdmmConfig::default()`'s ρ, C and `qp`; M learners, `a = M/(1 + ρM)`.
    const HL_RHO: f64 = 100.0;
    const HL_C: f64 = 50.0;
    const HL_M: f64 = 2.0;
    const HL_A: f64 = HL_M / (1.0 + HL_RHO * HL_M);
    const HL_QP: QpConfig = QpConfig {
        tol: 1e-7,
        max_iter: 200_000,
    };

    /// Same model to ~7 digits (`(YX)ᵀλ` is `w` up to a constant): both are
    /// KKT ≤ 1e-7 points of one dual.
    fn assert_same_model(yx: &Matrix, x: &[f64], reference: &[f64]) {
        let wr = yx.t_matvec(reference).unwrap();
        for (u, v) in yx.t_matvec(x).unwrap().iter().zip(&wr) {
            assert!((u - v).abs() < 1e-5 * (1.0 + v.abs()), "{u} vs {v}");
        }
    }

    #[test]
    fn first_round_hl_dual_sweep_counts() {
        // What the benchmark's `qp.iterations` probe solves: learner 0 at
        // the first ADMM round (z = γ = 0, s = β = 0 ⇒ q = −1). The counts
        // repeat exactly. The rows are the walk of the sweep the steps
        // engage from, down to 1, a step in every gap, as shipped.
        let (yx, _, q) = &hl_learners()[0];
        let n = q.rows();
        let (lin, zeros) = (vec![-1.0; n], vec![0.0; n]);
        let solve = |after| {
            let newton = &mut FreeSetNewton::new(after);
            let sol = box_descent(q, &lin, 0.0, HL_C, &zeros, &HL_QP, newton).unwrap();
            assert!(sol.converged);
            sol
        };
        let plain = solve(usize::MAX);
        assert_eq!(plain.iterations, 1172);
        for (newton_after, sweeps) in [(1000, 1002), (256, 260), (128, 133), (64, 70), (1, 34)] {
            let sol = solve(newton_after);
            assert_eq!(
                sol.iterations, sweeps,
                "Newton steps from sweep {newton_after}"
            );
            assert_same_model(yx, &sol.x, &plain.x);
            assert!(objective(q, &lin, &sol.x) <= objective(q, &lin, &plain.x) + 1e-6);
            assert_eq!(sol, solve(newton_after));
        }
        let shipped = solve_box(q, &lin, 0.0, HL_C, &HL_QP).unwrap();
        assert_eq!(shipped, solve(1));
        assert_eq!(shipped.iterations, 34);
    }

    /// What one run of `train_compute`'s first dataset asks of the solver:
    /// both learners of [`hl_learners`] through `ROUNDS` rounds of HL's ADMM,
    /// each solve warm-started from the learner's previous `λ` and engaging
    /// Newton steps from sweep `after`.
    struct Replay {
        /// `sweeps[t][l]`: the solve of learner `l` in round `t + 1`.
        sweeps: Vec<Vec<usize>>,
        directions: usize,
        factorisations: usize,
        /// Each learner's last `λ`.
        lambdas: Vec<Vec<f64>>,
    }

    const ROUNDS: usize = 20;

    /// The updates of `HlLearner` and `Averaging`: the duals lag one round
    /// (`γ += w − z`, `β += b − s`), then with `c = z − γ`, `d = s − β` the
    /// learner solves `q = aρ·YXc + d·y − 1` and sets `w = a((YX)ᵀλ + ρc)`,
    /// `b = d + λᵀy/ρ`; `[z ; s]` is the mean of `[w + γ ; b + β]`.
    fn replay(learners: &[(Matrix, Vec<f64>, Matrix)], after: usize) -> Replay {
        let k = learners[0].0.cols();
        let (mut z, mut s) = (vec![0.0; k], 0.0);
        let mut lambdas: Vec<Vec<f64>> = learners.iter().map(|l| vec![0.0; l.1.len()]).collect();
        let mut duals = vec![(vec![0.0; k], 0.0); learners.len()];
        let mut locals = vec![(vec![0.0; k], 0.0); learners.len()];
        let mut sweeps = Vec::new();
        let (mut directions, mut factorisations) = (0, 0);
        for round in 0..ROUNDS {
            let mut this_round = Vec::new();
            for (l, (yx, y, q)) in learners.iter().enumerate() {
                let ((gamma, beta), (w, b)) = (&mut duals[l], &mut locals[l]);
                if round > 0 {
                    for ((g, &wj), &zj) in gamma.iter_mut().zip(&*w).zip(&z) {
                        *g += wj - zj;
                    }
                    *beta += *b - s;
                }
                let c = vecops::sub(&z, gamma);
                let d = s - *beta;
                let yxc = yx.matvec(&c).unwrap();
                let lin: Vec<f64> = (0..y.len())
                    .map(|i| HL_A * HL_RHO * yxc[i] + d * y[i] - 1.0)
                    .collect();
                let newton = &mut FreeSetNewton::new(after);
                let sol = box_descent(q, &lin, 0.0, HL_C, &lambdas[l], &HL_QP, newton).unwrap();
                assert!(sol.converged, "round {} learner {l}", round + 1);
                this_round.push(sol.iterations);
                directions += newton.directions;
                factorisations += newton.factorisations;
                lambdas[l] = sol.x;
                let ytl = yx.t_matvec(&lambdas[l]).unwrap();
                *w = (0..k).map(|j| HL_A * (ytl[j] + HL_RHO * c[j])).collect();
                *b = d + vecops::dot(&lambdas[l], y) / HL_RHO;
            }
            sweeps.push(this_round);
            let shares = locals.iter().zip(&duals);
            z = (0..k)
                .map(|j| shares.clone().map(|(w, g)| w.0[j] + g.0[j]).sum::<f64>() / HL_M)
                .collect();
            s = shares.map(|(w, g)| w.1 + g.1).sum::<f64>() / HL_M;
        }
        Replay {
            sweeps,
            directions,
            factorisations,
            lambdas,
        }
    }

    #[test]
    fn warm_started_hl_round_passes_the_engagement_point() {
        // 114 of a `train_compute` op's 120 solves are warm-started, and they
        // are where the rungs of the walk engaged. Per rung, over the whole
        // replay: total sweeps, Newton directions, fresh factorisations (one
        // per call that tries a step; its other directions follow a removal
        // from that factor), and the second-round solve of learner 0, the
        // first warm-started one. The counts repeat exactly.
        let learners = hl_learners();
        let rungs = [
            (usize::MAX, 34_221, 0, 0, 7_625),
            (1000, 22_567, 13, 10, 1_002),
            (256, 9_619, 54, 33, 260),
            (128, 5_212, 84, 49, 134),
            (64, 2_670, 130, 54, 70),
            (1, 361, 348, 77, 10),
        ];
        let runs: Vec<Replay> = rungs
            .iter()
            .map(|&(after, ..)| replay(&learners, after))
            .collect();
        let plain = &runs[0];
        for (&(after, sweeps, directions, factorisations, second), run) in rungs.iter().zip(&runs) {
            let total: usize = run.sweeps.iter().flatten().sum();
            assert_eq!(
                (total, run.directions, run.factorisations, run.sweeps[1][0]),
                (sweeps, directions, factorisations, second),
                "Newton steps from sweep {after}"
            );
            for ((yx, ..), (x, reference)) in
                learners.iter().zip(run.lambdas.iter().zip(&plain.lambdas))
            {
                assert_same_model(yx, x, reference);
            }
        }
        // As shipped, each of the run's 40 solves runs past its first sweep,
        // so each may take a step.
        let shipped = runs.last().unwrap().sweeps.iter().flatten();
        assert_eq!(shipped.clone().count(), 40);
        assert_eq!(shipped.filter(|&&n| n > 1).count(), 40);
    }

    #[test]
    fn eq_simple_two_variable() {
        // min ½(x² + y²) s.t. x + y = 1, 0 ≤ x,y ≤ 1 → x = y = ½.
        let q = Matrix::identity(2);
        let sol = solve_box_eq(
            &q,
            &[0.0, 0.0],
            0.0,
            1.0,
            &[1.0, 1.0],
            1.0,
            &QpConfig::default(),
        )
        .unwrap();
        assert!(sol.converged);
        assert!((sol.x[0] - 0.5).abs() < 1e-7 && (sol.x[1] - 0.5).abs() < 1e-7);
    }

    #[test]
    fn eq_constraint_is_maintained_exactly() {
        let q = spd(12, 13);
        let lin: Vec<f64> = (0..12).map(|i| (i as f64).sin() - 0.2).collect();
        let a: Vec<f64> = (0..12)
            .map(|i| if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let sol = solve_box_eq(&q, &lin, 0.0, 5.0, &a, 2.5, &QpConfig::default()).unwrap();
        let dot: f64 = sol.x.iter().zip(&a).map(|(x, a)| x * a).sum();
        assert!((dot - 2.5).abs() < 1e-9, "constraint drifted: {dot}");
        for &xi in &sol.x {
            assert!((-1e-12..=5.0 + 1e-12).contains(&xi));
        }
    }

    #[test]
    fn eq_infeasible_detected() {
        let q = Matrix::identity(2);
        let err = solve_box_eq(
            &q,
            &[0.0; 2],
            0.0,
            1.0,
            &[1.0, 1.0],
            5.0,
            &QpConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, QpError::InfeasibleEquality { .. }));
    }

    #[test]
    fn eq_bad_coefficient_detected() {
        let q = Matrix::identity(2);
        let err = solve_box_eq(
            &q,
            &[0.0; 2],
            0.0,
            1.0,
            &[1.0, 0.5],
            0.0,
            &QpConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            QpError::BadConstraintCoefficient { index: 1, .. }
        ));
    }

    #[test]
    fn eq_matches_box_when_constraint_inactive_via_lagrange() {
        // For the equality-constrained optimum, there must exist ν with
        // g + ν·a = 0 on interior coordinates (stationarity).
        let q = spd(8, 21);
        let lin: Vec<f64> = (0..8).map(|i| 0.1 * i as f64 - 0.4).collect();
        let a: Vec<f64> = (0..8)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let sol = solve_box_eq(&q, &lin, 0.0, 3.0, &a, 0.0, &QpConfig::default()).unwrap();
        assert!(sol.converged);
        let mut g = q.matvec(&sol.x).unwrap();
        for (gi, &qi) in g.iter_mut().zip(&lin) {
            *gi += qi;
        }
        // Estimate ν from the interior coordinates and check consistency.
        let interior: Vec<usize> = (0..8)
            .filter(|&i| sol.x[i] > 1e-9 && sol.x[i] < 3.0 - 1e-9)
            .collect();
        if interior.len() >= 2 {
            let nu = -g[interior[0]] / a[interior[0]];
            for &i in &interior[1..] {
                assert!(
                    (g[i] + nu * a[i]).abs() < 1e-5,
                    "stationarity failed at {i}: {}",
                    g[i] + nu * a[i]
                );
            }
        }
    }

    #[test]
    fn eq_centralized_svm_toy_dual() {
        // Two points, y = [+1, -1], x = [1], [-1] with linear kernel:
        // Q = yᵢyⱼxᵢxⱼ = [[1,1],[1,1]], dual: min ½λᵀQλ - 1ᵀλ, yᵀλ = 0.
        // Symmetry gives λ1 = λ2 = λ; obj = 2λ² - 2λ ... wait ½·(λ,λ)Q(λ,λ)ᵀ = 2λ²·½·...
        // ½(λ² + 2λ² + λ²)·.. = 2λ² → min 2λ²−2λ → λ = ½.
        let q = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
        let sol = solve_box_eq(
            &q,
            &[-1.0, -1.0],
            0.0,
            10.0,
            &[1.0, -1.0],
            0.0,
            &QpConfig::default(),
        )
        .unwrap();
        assert!(sol.converged);
        assert!((sol.x[0] - 0.5).abs() < 1e-7, "{:?}", sol.x);
        assert!((sol.x[1] - 0.5).abs() < 1e-7);
    }

    #[test]
    fn separable_matches_smo_on_diagonal_problems() {
        // Q = diag(d): both solvers must agree.
        let n = 12;
        let diag: Vec<f64> = (0..n).map(|i| 0.5 + 0.1 * i as f64).collect();
        let lin: Vec<f64> = (0..n).map(|i| (i as f64 * 1.3).sin()).collect();
        let a: Vec<f64> = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let q = Matrix::from_fn(n, n, |i, j| if i == j { diag[i] } else { 0.0 });
        let smo = solve_box_eq(&q, &lin, 0.0, 3.0, &a, 1.0, &QpConfig::default()).unwrap();
        let fast = solve_separable_eq(&diag, &lin, 0.0, 3.0, &a, 1.0).unwrap();
        assert!(fast.converged);
        for (u, v) in smo.x.iter().zip(&fast.x) {
            assert!((u - v).abs() < 1e-5, "{u} vs {v}");
        }
    }

    #[test]
    fn separable_satisfies_constraint_exactly() {
        let n = 50;
        let diag = vec![0.01; n]; // 1/ρ with ρ = 100
        let lin: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).cos() - 0.3).collect();
        let a: Vec<f64> = (0..n)
            .map(|i| if i % 3 == 0 { -1.0 } else { 1.0 })
            .collect();
        let sol = solve_separable_eq(&diag, &lin, 0.0, 50.0, &a, 0.0).unwrap();
        let dot: f64 = sol.x.iter().zip(&a).map(|(x, ai)| x * ai).sum();
        assert!(dot.abs() < 1e-8, "constraint residual {dot}");
        assert!(sol.x.iter().all(|&v| (0.0..=50.0).contains(&v)));
    }

    #[test]
    fn separable_rejects_bad_input() {
        assert!(matches!(
            solve_separable_eq(&[1.0, -1.0], &[0.0; 2], 0.0, 1.0, &[1.0, 1.0], 0.0),
            Err(QpError::ShapeMismatch {
                what: "diagonal",
                ..
            })
        ));
        assert!(solve_separable_eq(&[1.0], &[0.0; 2], 0.0, 1.0, &[1.0], 0.0).is_err());
        assert!(matches!(
            solve_separable_eq(&[1.0, 1.0], &[0.0; 2], 0.0, 1.0, &[1.0, 1.0], 10.0),
            Err(QpError::InfeasibleEquality { .. })
        ));
    }

    #[test]
    fn solvers_are_deterministic() {
        let q = spd(10, 31);
        let lin = vec![-1.0; 10];
        let s1 = solve_box(&q, &lin, 0.0, 1.0, &QpConfig::default()).unwrap();
        let s2 = solve_box(&q, &lin, 0.0, 1.0, &QpConfig::default()).unwrap();
        assert_eq!(s1, s2);
    }
}
