//! Minimal property-testing harness: seeded generators plus an assertion
//! loop.
//!
//! The workspace previously used `proptest`, which the offline build cannot
//! resolve. The suites here only ever needed "run this predicate over a few
//! dozen random instances", so this module provides exactly that: a
//! [`Gen`] with the handful of primitive generators the suites use, and
//! [`run_cases`] which drives a closure over deterministically seeded cases
//! and reports the failing case index. There is no shrinking — cases are
//! reproducible from (property name, case index), which is enough to debug
//! a failure by hand.

use crate::rng::Rng64;

/// Per-case generator handed to the property closure.
#[derive(Debug)]
pub struct Gen {
    rng: Rng64,
}

impl Gen {
    /// Generator for `case` of the property named `name` (FNV-1a of the
    /// name mixed with the case index, so properties are independent).
    fn for_case(name: &str, case: usize) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        Gen {
            rng: Rng64::new(h ^ (case as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        }
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.rng.unit_f64()
    }

    /// Vector of `len` uniform draws from `[lo, hi)`.
    pub fn vec_f64(&mut self, lo: f64, hi: f64, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.f64_in(lo, hi)).collect()
    }

    /// Uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.rng.below(hi - lo)
    }

    /// Vector of `len` uniform draws from `[lo, hi)`.
    pub fn vec_u64(&mut self, lo: u64, hi: u64, len: usize) -> Vec<u64> {
        (0..len).map(|_| self.u64_in(lo, hi)).collect()
    }

    /// Uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.u64_in(lo as u64, hi as u64) as usize
    }

    /// Fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }

    /// Uniformly chosen element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if `choices` is empty.
    pub fn pick<'a, T>(&mut self, choices: &'a [T]) -> &'a T {
        &choices[self.rng.index(choices.len())]
    }

    /// Direct access to the underlying PRNG for bespoke generators.
    pub fn rng(&mut self) -> &mut Rng64 {
        &mut self.rng
    }
}

/// Runs `body` over `cases` deterministic cases; on panic, reports which
/// case failed (re-running the test reproduces it exactly).
pub fn run_cases(name: &str, cases: usize, mut body: impl FnMut(&mut Gen, usize)) {
    for case in 0..cases {
        let mut g = Gen::for_case(name, case);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut g, case)));
        if let Err(payload) = outcome {
            eprintln!("property `{name}` failed at case {case} of {cases} (deterministic; rerun reproduces)");
            std::panic::resume_unwind(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_deterministic_per_name_and_index() {
        let a = Gen::for_case("p", 3).vec_f64(-1.0, 1.0, 8);
        let b = Gen::for_case("p", 3).vec_f64(-1.0, 1.0, 8);
        assert_eq!(a, b);
        let c = Gen::for_case("p", 4).vec_f64(-1.0, 1.0, 8);
        assert_ne!(a, c);
        let d = Gen::for_case("q", 3).vec_f64(-1.0, 1.0, 8);
        assert_ne!(a, d);
    }

    #[test]
    fn ranges_are_respected() {
        run_cases("ranges", 50, |g, _| {
            let x = g.f64_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&x));
            let u = g.u64_in(10, 20);
            assert!((10..20).contains(&u));
            let i = g.usize_in(0, 5);
            assert!(i < 5);
            let p = *g.pick(&[1, 2, 3]);
            assert!([1, 2, 3].contains(&p));
        });
    }

    #[test]
    fn failing_case_panics_through() {
        let hit = std::panic::catch_unwind(|| {
            run_cases("always-fails", 3, |_, case| assert!(case < 1, "boom"));
        });
        assert!(hit.is_err());
    }
}
