//! Kernel functions, Gram matrices and landmark sets for nonlinear SVMs.
//!
//! The paper's nonlinear trainers (§III-B, §IV-B) never materialize the
//! feature map `φ(·)`; everything is expressed through the kernel function
//! `K(x, y) = ⟨φ(x), φ(y)⟩`. This crate provides the three kernels the paper
//! lists (polynomial, radial-basis-function, sigmoid) plus the linear kernel,
//! Gram/cross-Gram matrix construction, the batched kernel expansion
//! `f_r = Σ_j c_j K(x_r, b_j)` every kernel model scores through, and the
//! landmark machinery used by the reduced-space consensus `G·w = z` with
//! `G = φ(X_g)`.
//!
//! Note: the paper prints the RBF kernel as `e^{‖x_i − x_j‖²}` — a clear
//! typo (that kernel is unbounded and not positive definite); we implement
//! the standard `e^{−γ‖x_i − x_j‖²}`.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), ppml_linalg::LinalgError> {
//! use ppml_kernel::Kernel;
//! use ppml_linalg::Matrix;
//!
//! let x = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]])?;
//! let k = Kernel::Rbf { gamma: 0.5 };
//! let gram = k.gram(&x);
//! assert_eq!(gram.shape(), (3, 3));
//! assert!((gram[(0, 0)] - 1.0).abs() < 1e-12); // K(x, x) = 1 for RBF
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
mod landmarks;
mod nystrom;

pub use landmarks::{LandmarkSet, LandmarkStrategy};
pub use nystrom::NystromFactor;

use ppml_linalg::{vecops, Matrix};

/// A positive-(semi)definite kernel function.
///
/// The variants mirror §III-B of the paper. All variants are `Copy` so
/// trainers can store the kernel by value in their configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Kernel {
    /// `K(x, y) = ⟨x, y⟩` — recovers the linear SVM.
    #[default]
    Linear,
    /// `K(x, y) = (a·⟨x, y⟩ + b)^degree`.
    Polynomial {
        /// Scale on the inner product.
        a: f64,
        /// Additive offset.
        b: f64,
        /// Polynomial degree (`d` in the paper).
        degree: u32,
    },
    /// `K(x, y) = exp(−γ·‖x − y‖²)`.
    Rbf {
        /// Bandwidth parameter `γ > 0`.
        gamma: f64,
    },
    /// `K(x, y) = tanh(⟨x, y⟩ + c)`.
    ///
    /// Only conditionally positive definite; offered because the paper lists
    /// it, but the RBF and polynomial kernels are the recommended choices.
    Sigmoid {
        /// Additive offset `c`.
        c: f64,
    },
}

/// Query rows one tile evaluates side by side. Every lane owns an
/// accumulator, so each pair still sums its features in index order and
/// only the latency of the add chains overlaps. Scoring 256 rows against
/// 570 × 64 under RBF took 3.0 / 2.3 / 2.1 / 2.0 ms at 2 / 4 / 8 / 16
/// lanes; 8 leaves at most seven rows to the per-pair tail.
const LANES: usize = 8;

/// One tile against one row `s` of `B`: lane `l` sums `term(x_l[f], s[f])`
/// over the features `f` in index order, starting from the `-0.0` that
/// `f64::sum` starts from.
#[inline]
fn lane_sums(packed: &[[f64; LANES]], s: &[f64], term: impl Fn(f64, f64) -> f64) -> [f64; LANES] {
    let mut sums = [-0.0; LANES];
    for (column, &s) in packed.iter().zip(s) {
        for (sum, &x) in sums.iter_mut().zip(column) {
            *sum += term(x, s);
        }
    }
    sums
}

impl Kernel {
    /// Evaluates `K(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != y.len()`.
    pub fn eval(&self, x: &[f64], y: &[f64]) -> f64 {
        self.finish(match self {
            Kernel::Rbf { .. } => vecops::dist_sq(x, y),
            _ => vecops::dot(x, y),
        })
    }

    /// Maps one pair's feature sum — `‖x − y‖²` for RBF, `⟨x, y⟩` for the
    /// dot kernels — to the kernel value.
    fn finish(&self, sum: f64) -> f64 {
        match *self {
            Kernel::Linear => sum,
            Kernel::Polynomial { a, b, degree } => (a * sum + b).powi(degree as i32),
            Kernel::Rbf { gamma } => (-gamma * sum).exp(),
            Kernel::Sigmoid { c } => (sum + c).tanh(),
        }
    }

    /// The one place a kernel block is computed: hands `sink` every value
    /// of `K(X, B)` for the `rows` query rows flattened row-major in `xs`,
    /// as `sink(r, j, [K(x_r, b_j), K(x_{r+1}, b_j), …])` with `j`
    /// ascending for every `r`.
    ///
    /// Full tiles of [`LANES`] rows are packed feature-major so that one
    /// pass over `B` serves the whole tile; the `rows mod LANES` tail is
    /// the plain per-pair loop and needs no scratch. Both sum a pair's
    /// features from `-0.0` in index order without fusing or
    /// reassociating — `(x − s)·(x − s)` for RBF, `x·s` for the dot
    /// kernels, exactly as `vecops::{dist_sq, dot}` do — so every value is
    /// bit for bit [`Kernel::eval`]'s.
    fn for_each_pair(
        &self,
        rows: usize,
        xs: &[f64],
        b: &Matrix,
        mut sink: impl FnMut(usize, usize, &[f64]),
    ) {
        let d = b.cols();
        assert_eq!(
            xs.len(),
            rows * d,
            "kernel batch: {} values is not {rows} rows of {d} features",
            xs.len()
        );
        let row = |r: usize| &xs[r * d..(r + 1) * d];
        let squared_distance = matches!(self, Kernel::Rbf { .. });
        let tiled = rows - rows % LANES;
        // Empty, so unallocated, when no full tile exists: a batch of one
        // touches the heap only for its result.
        let mut packed = vec![[0.0; LANES]; if tiled > 0 { d } else { 0 }];
        for r0 in (0..tiled).step_by(LANES) {
            for lane in 0..LANES {
                for (column, &v) in packed.iter_mut().zip(row(r0 + lane)) {
                    column[lane] = v;
                }
            }
            for j in 0..b.rows() {
                let sums = if squared_distance {
                    lane_sums(&packed, b.row(j), |x, s| (x - s) * (x - s))
                } else {
                    lane_sums(&packed, b.row(j), |x, s| x * s)
                };
                sink(r0, j, &sums.map(|sum| self.finish(sum)));
            }
        }
        for r in tiled..rows {
            for j in 0..b.rows() {
                sink(r, j, &[self.eval(row(r), b.row(j))]);
            }
        }
    }

    /// `K(X, B)` for `rows` query rows flattened row-major in `xs`.
    fn block(&self, rows: usize, xs: &[f64], b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(rows, b.rows());
        self.for_each_pair(rows, xs, b, |r, j, values| {
            for (lane, &v) in values.iter().enumerate() {
                out[(r + lane, j)] = v;
            }
        });
        out
    }

    /// Kernel expansion of a batch: `f_r = Σ_j c_j·K(x_r, b_j)` for the
    /// `rows` query rows flattened row-major in `xs` — the nonlinear
    /// discriminant of §III-B / §IV-B eqs. (23)/(25) without its bias.
    ///
    /// Each `f_r` is folded from `-0.0` in `B`-row order, so it is bit for
    /// bit `vecops::dot(&self.eval_row(x_r, b), coeffs)`; no `rows × n`
    /// block is ever materialized.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != rows × b.cols()` or
    /// `coeffs.len() != b.rows()`.
    pub fn expand(&self, rows: usize, xs: &[f64], b: &Matrix, coeffs: &[f64]) -> Vec<f64> {
        assert_eq!(
            coeffs.len(),
            b.rows(),
            "expand: {} coefficients for {} expansion rows",
            coeffs.len(),
            b.rows()
        );
        let mut f = vec![-0.0; rows];
        self.for_each_pair(rows, xs, b, |r, j, values| {
            for (f_r, &k) in f[r..].iter_mut().zip(values) {
                *f_r += k * coeffs[j];
            }
        });
        f
    }

    /// Gram matrix `K(X, X)` over the rows of `x` (symmetric, built from the
    /// lower triangle).
    pub fn gram(&self, x: &Matrix) -> Matrix {
        let n = x.rows();
        let mut g = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let v = self.eval(x.row(i), x.row(j));
                g[(i, j)] = v;
                g[(j, i)] = v;
            }
        }
        g
    }

    /// Cross-Gram matrix `K(A, B)` with entry `(i, j) = K(a_i, b_j)` over
    /// rows of `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if the two matrices have different column counts.
    pub fn cross_gram(&self, a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(
            a.cols(),
            b.cols(),
            "cross_gram: feature dimensions differ ({} vs {})",
            a.cols(),
            b.cols()
        );
        self.block(a.rows(), a.as_slice(), b)
    }

    /// Kernel row `K(x, B)` against every row of `b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != b.cols()`.
    pub fn eval_row(&self, x: &[f64], b: &Matrix) -> Vec<f64> {
        self.block(1, x, b).into_vec()
    }

    /// `true` for kernels that are positive definite for all parameter
    /// choices used here (linear, polynomial with `a>0, b≥0`, RBF with
    /// `γ>0`).
    pub fn is_positive_definite(&self) -> bool {
        match *self {
            Kernel::Linear => true,
            Kernel::Polynomial { a, b, .. } => a > 0.0 && b >= 0.0,
            Kernel::Rbf { gamma } => gamma > 0.0,
            Kernel::Sigmoid { .. } => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x3() -> Matrix {
        Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 0.0], &[0.0, 2.0]]).unwrap()
    }

    #[test]
    fn linear_matches_dot() {
        let k = Kernel::Linear;
        assert_eq!(k.eval(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    fn polynomial_known_value() {
        let k = Kernel::Polynomial {
            a: 1.0,
            b: 1.0,
            degree: 2,
        };
        // (1*2 + 1)^2 = 9
        assert_eq!(k.eval(&[1.0, 1.0], &[1.0, 1.0]), 9.0);
    }

    #[test]
    fn rbf_properties() {
        let k = Kernel::Rbf { gamma: 0.7 };
        assert!((k.eval(&[1.0, 2.0], &[1.0, 2.0]) - 1.0).abs() < 1e-15);
        // Symmetric, in (0, 1], decreasing with distance.
        let near = k.eval(&[0.0, 0.0], &[0.1, 0.0]);
        let far = k.eval(&[0.0, 0.0], &[5.0, 0.0]);
        assert!(near > far && far > 0.0 && near <= 1.0);
        assert_eq!(
            k.eval(&[0.0, 1.0], &[2.0, 0.0]),
            k.eval(&[2.0, 0.0], &[0.0, 1.0])
        );
    }

    #[test]
    fn sigmoid_bounded() {
        let k = Kernel::Sigmoid { c: 0.0 };
        let v = k.eval(&[10.0], &[10.0]);
        assert!((-1.0..=1.0).contains(&v));
    }

    #[test]
    fn gram_is_symmetric_with_unit_diagonal_for_rbf() {
        let g = Kernel::Rbf { gamma: 1.0 }.gram(&x3());
        for i in 0..3 {
            assert!((g[(i, i)] - 1.0).abs() < 1e-15);
            for j in 0..3 {
                assert_eq!(g[(i, j)], g[(j, i)]);
            }
        }
    }

    #[test]
    fn gram_is_positive_semidefinite_for_rbf() {
        // Check via Cholesky of G + tiny jitter.
        let mut g = Kernel::Rbf { gamma: 0.3 }.gram(&x3());
        g.add_diag(1e-9);
        assert!(g.cholesky().is_ok());
    }

    #[test]
    fn cross_gram_shape_and_consistency() {
        let a = x3();
        let b = Matrix::from_rows(&[&[1.0, 1.0]]).unwrap();
        let k = Kernel::Polynomial {
            a: 0.5,
            b: 1.0,
            degree: 3,
        };
        let cg = k.cross_gram(&a, &b);
        assert_eq!(cg.shape(), (3, 1));
        assert_eq!(cg[(1, 0)], k.eval(a.row(1), b.row(0)));
        // K(X, X) from cross_gram must equal gram().
        let g1 = k.cross_gram(&a, &a);
        let g2 = k.gram(&a);
        assert!(g1.max_abs_diff(&g2).unwrap() < 1e-15);
    }

    #[test]
    fn eval_row_matches_cross_gram() {
        let a = x3();
        let k = Kernel::Rbf { gamma: 2.0 };
        let row = k.eval_row(&[0.5, 0.5], &a);
        for (j, v) in row.iter().enumerate() {
            assert_eq!(*v, k.eval(&[0.5, 0.5], a.row(j)));
        }
    }

    const KERNELS: [Kernel; 4] = [
        Kernel::Linear,
        Kernel::Polynomial {
            a: 0.5,
            b: 1.0,
            degree: 3,
        },
        Kernel::Rbf { gamma: 0.1 },
        Kernel::Sigmoid { c: -0.5 },
    ];

    /// `Kernel::eval` as it was written before the tiled primitive: the
    /// arithmetic every block and expansion value must reproduce.
    fn eval_per_pair(kernel: Kernel, x: &[f64], y: &[f64]) -> f64 {
        match kernel {
            Kernel::Linear => vecops::dot(x, y),
            Kernel::Polynomial { a, b, degree } => (a * vecops::dot(x, y) + b).powi(degree as i32),
            Kernel::Rbf { gamma } => (-gamma * vecops::dist_sq(x, y)).exp(),
            Kernel::Sigmoid { c } => (vecops::dot(x, y) + c).tanh(),
        }
    }

    /// Smooth rows, with every 7th row all zeros and every 5th (from row
    /// 3) so far from the rest that each RBF value underflows to 0.
    fn batch(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            if i % 7 == 0 {
                0.0
            } else if i % 5 == 3 {
                1e3
            } else {
                ((i * cols + j) as f64 * 0.37).sin() * 2.0
            }
        })
    }

    #[test]
    fn blocks_and_expansions_are_bit_for_bit_the_per_pair_loop() {
        for kernel in KERNELS {
            for d in [1, 9, 64] {
                for n in [0, 1, 7, 570] {
                    let b = Matrix::from_fn(n, d, |i, j| ((i * d + j) as f64 * 0.91).cos());
                    let mixed: Vec<f64> = (0..n).map(|j| (j as f64 * 1.3).sin()).collect();
                    let negative = vec![-1.5; n];
                    for rows in [0, 1, 7, 8, 9, 17, 256] {
                        let x = batch(rows, d);
                        let block = kernel.cross_gram(&x, &b);
                        assert_eq!(block.shape(), (rows, n));
                        let f_mixed = kernel.expand(rows, x.as_slice(), &b, &mixed);
                        let f_negative = kernel.expand(rows, x.as_slice(), &b, &negative);
                        for r in 0..rows {
                            let k: Vec<f64> = (0..n)
                                .map(|j| eval_per_pair(kernel, x.row(r), b.row(j)))
                                .collect();
                            let bits =
                                |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                            let case = format!("{kernel:?} d={d} n={n} rows={rows} r={r}");
                            assert_eq!(bits(block.row(r)), bits(&k), "block, {case}");
                            assert_eq!(bits(&kernel.eval_row(x.row(r), &b)), bits(&k), "{case}");
                            for (f, c) in [(&f_mixed, &mixed), (&f_negative, &negative)] {
                                let reference = vecops::dot(&k, c);
                                assert_eq!(f[r].to_bits(), reference.to_bits(), "expand, {case}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn an_expansion_of_underflowed_values_keeps_the_negative_zero_of_the_sum() {
        // Every K is +0.0 and every coefficient negative, so each term is
        // -0.0 and only a fold that starts from -0.0, as `f64::sum` does,
        // ends on -0.0; in a full tile and in the tail alike.
        let b = Matrix::zeros(5, 3);
        let far = vec![1e3; 9 * 3];
        let f = Kernel::Rbf { gamma: 0.1 }.expand(9, &far, &b, &[-1.0; 5]);
        assert_eq!(f.len(), 9);
        assert!(
            f.iter().all(|v| v.to_bits() == (-0.0f64).to_bits()),
            "{f:?}"
        );
    }

    #[test]
    #[should_panic(expected = "kernel batch: 17 values is not 2 rows of 8 features")]
    fn a_ragged_batch_panics_instead_of_answering() {
        let b = Matrix::zeros(3, 8);
        Kernel::Linear.expand(2, &[0.0; 17], &b, &[1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "expand: 2 coefficients for 3 expansion rows")]
    fn a_coefficient_count_mismatch_panics() {
        let b = Matrix::zeros(3, 2);
        Kernel::Linear.expand(1, &[0.0; 2], &b, &[1.0; 2]);
    }

    #[test]
    fn positive_definiteness_flags() {
        assert!(Kernel::Linear.is_positive_definite());
        assert!(Kernel::Rbf { gamma: 1.0 }.is_positive_definite());
        assert!(!Kernel::Rbf { gamma: -1.0 }.is_positive_definite());
        assert!(!Kernel::Sigmoid { c: 0.0 }.is_positive_definite());
    }
}
