//! Free functions over `&[f64]` slices.
//!
//! The ADMM update loops spend most of their time in these primitives, so
//! they are kept allocation-free where possible and written so the compiler
//! can vectorize the inner loops.
//!
//! All binary operations panic on length mismatch: a mismatch here is always
//! a programming error in a solver, never recoverable input.

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if `a.len() != b.len()`.
///
/// ```
/// assert_eq!(ppml_linalg::vecops::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// In-place `y += alpha * x`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Element-wise sum `a + b` as a new vector.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn add(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "add: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x + y).collect()
}

/// Element-wise difference `a - b` as a new vector.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sub(a: &[f64], b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "sub: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x - y).collect()
}

/// `a` scaled by `s` as a new vector.
pub fn scale(a: &[f64], s: f64) -> Vec<f64> {
    a.iter().map(|&x| x * s).collect()
}

/// Squared Euclidean norm `‖a‖²`.
pub fn norm_sq(a: &[f64]) -> f64 {
    a.iter().map(|&x| x * x).sum()
}

/// Euclidean norm `‖a‖`.
pub fn norm(a: &[f64]) -> f64 {
    norm_sq(a).sqrt()
}

/// Squared Euclidean distance `‖a - b‖²`.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dist_sq: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Arithmetic mean of equal-length vectors; `None` when `vs` is empty.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn mean<'a, I>(vs: I) -> Option<Vec<f64>>
where
    I: IntoIterator<Item = &'a [f64]>,
{
    let mut it = vs.into_iter();
    let first = it.next()?;
    let mut acc = first.to_vec();
    let mut count = 1usize;
    for v in it {
        axpy(1.0, v, &mut acc);
        count += 1;
    }
    let inv = 1.0 / count as f64;
    for a in &mut acc {
        *a *= inv;
    }
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn add_sub_scale_roundtrip() {
        let a = [1.0, -2.0, 3.0];
        let b = [0.5, 0.5, 0.5];
        assert_eq!(sub(&add(&a, &b), &b), a.to_vec());
        assert_eq!(scale(&a, -1.0), vec![-1.0, 2.0, -3.0]);
    }

    #[test]
    fn norms() {
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(norm(&[3.0, 4.0]), 5.0);
        assert_eq!(dist_sq(&[1.0, 1.0], &[4.0, 5.0]), 25.0);
    }

    #[test]
    fn mean_of_vectors() {
        let vs: Vec<Vec<f64>> = vec![vec![1.0, 3.0], vec![3.0, 5.0]];
        let m = mean(vs.iter().map(|v| v.as_slice())).unwrap();
        assert_eq!(m, vec![2.0, 4.0]);
        assert!(mean(std::iter::empty::<&[f64]>()).is_none());
    }
}
