//! The two data-sharing topologies of §I (Figs. 2 and 3).

use ppml_linalg::Matrix;

use crate::{rng, DataError, Dataset, Result};

/// Partitioning constructors. The type itself is a namespace; partitions are
/// returned as plain datasets (horizontal) or a [`VerticalView`].
#[derive(Debug, Clone, Copy)]
pub struct Partition;

impl Partition {
    /// Horizontal partitioning (Fig. 2): rows are randomly assigned to `m`
    /// learners; every learner sees all features of its own records.
    ///
    /// Every learner receives at least one row (the first `m` rows of the
    /// permutation are dealt round-robin before the remainder is assigned
    /// randomly).
    ///
    /// # Errors
    ///
    /// [`DataError::BadPartition`] when `m == 0` or `m > data.len()`.
    pub fn horizontal(data: &Dataset, m: usize, seed: u64) -> Result<Vec<Dataset>> {
        if m == 0 || m > data.len() {
            return Err(DataError::BadPartition {
                reason: format!("{m} learners for {} rows", data.len()),
            });
        }
        let mut rng = rng::seeded(seed);
        let perm = rng::permutation(data.len(), &mut rng);
        let mut assignment = vec![Vec::new(); m];
        for (pos, &row) in perm.iter().enumerate() {
            if pos < m {
                assignment[pos].push(row);
            } else {
                let learner = rng.index(m);
                assignment[learner].push(row);
            }
        }
        Ok(assignment.iter().map(|idx| data.select(idx)).collect())
    }

    /// Vertical partitioning (Fig. 3): features are randomly assigned to
    /// `m` learners; every learner holds a column slice of **all** rows,
    /// and the labels are shared by all learners (as §IV-C assumes).
    ///
    /// # Errors
    ///
    /// [`DataError::BadPartition`] when `m == 0` or `m > data.features()`.
    pub fn vertical(data: &Dataset, m: usize, seed: u64) -> Result<VerticalView> {
        if m == 0 || m > data.features() {
            return Err(DataError::BadPartition {
                reason: format!("{m} learners for {} features", data.features()),
            });
        }
        let mut rng = rng::seeded(seed);
        let perm = rng::permutation(data.features(), &mut rng);
        let mut feature_sets = vec![Vec::new(); m];
        for (pos, &col) in perm.iter().enumerate() {
            if pos < m {
                feature_sets[pos].push(col);
            } else {
                let learner = rng.index(m);
                feature_sets[learner].push(col);
            }
        }
        // Keep each learner's columns in ascending original order, so the
        // view is stable and re-assembly is straightforward.
        for set in &mut feature_sets {
            set.sort_unstable();
        }
        let parts = feature_sets
            .iter()
            .map(|cols| data.x().select_cols(cols))
            .collect();
        Ok(VerticalView {
            parts,
            feature_sets,
            y: data.y().to_vec(),
        })
    }
}

/// A vertically partitioned dataset: per-learner column slices plus the
/// shared labels.
#[derive(Debug, Clone, PartialEq)]
pub struct VerticalView {
    parts: Vec<Matrix>,
    feature_sets: Vec<Vec<usize>>,
    y: Vec<f64>,
}

impl VerticalView {
    /// Number of learners.
    pub fn learners(&self) -> usize {
        self.parts.len()
    }

    /// Learner `m`'s column slice (all rows, its features only).
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of bounds.
    pub fn part(&self, m: usize) -> &Matrix {
        &self.parts[m]
    }

    /// Original feature indices held by learner `m`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of bounds.
    pub fn features_of(&self, m: usize) -> &[usize] {
        &self.feature_sets[m]
    }

    /// The shared label vector.
    pub fn y(&self) -> &[f64] {
        &self.y
    }

    /// Number of rows (identical across learners).
    pub fn rows(&self) -> usize {
        self.y.len()
    }

    /// Re-assembles the full feature matrix (tests only — doing this in
    /// production would defeat the privacy design).
    #[cfg(test)]
    fn reassemble(&self) -> Matrix {
        let total: usize = self.feature_sets.iter().map(Vec::len).sum();
        let mut x = Matrix::zeros(self.rows(), total);
        for (part, cols) in self.parts.iter().zip(&self.feature_sets) {
            for i in 0..self.rows() {
                for (local, &global) in cols.iter().enumerate() {
                    x[(i, global)] = part[(i, local)];
                }
            }
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy(n: usize, k: usize) -> Dataset {
        let x = Matrix::from_fn(n, k, |i, j| (i * k + j) as f64);
        let y = (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        Dataset::new(x, y).unwrap()
    }

    #[test]
    fn horizontal_covers_all_rows_once() {
        let ds = toy(20, 3);
        let parts = Partition::horizontal(&ds, 4, 7).unwrap();
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|p| !p.is_empty()));
        let total: usize = parts.iter().map(Dataset::len).sum();
        assert_eq!(total, 20);
        // Every original row appears exactly once across parts.
        let mut seen: Vec<Vec<f64>> = parts
            .iter()
            .flat_map(|p| {
                (0..p.len())
                    .map(|i| p.sample(i).to_vec())
                    .collect::<Vec<_>>()
            })
            .collect();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut orig: Vec<Vec<f64>> = (0..20).map(|i| ds.sample(i).to_vec()).collect();
        orig.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(seen, orig);
    }

    #[test]
    fn horizontal_is_deterministic() {
        let ds = toy(12, 2);
        let a = Partition::horizontal(&ds, 3, 5).unwrap();
        let b = Partition::horizontal(&ds, 3, 5).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn horizontal_rejects_bad_m() {
        let ds = toy(3, 2);
        assert!(Partition::horizontal(&ds, 0, 1).is_err());
        assert!(Partition::horizontal(&ds, 4, 1).is_err());
    }

    #[test]
    fn vertical_covers_all_features_once() {
        let ds = toy(6, 8);
        let view = Partition::vertical(&ds, 3, 11).unwrap();
        assert_eq!(view.learners(), 3);
        let mut all: Vec<usize> = (0..3).flat_map(|m| view.features_of(m).to_vec()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
        assert!((0..3).all(|m| !view.features_of(m).is_empty()));
        assert_eq!(view.rows(), 6);
        assert_eq!(view.y(), ds.y());
    }

    #[test]
    fn vertical_reassembles_to_original() {
        let ds = toy(5, 7);
        let view = Partition::vertical(&ds, 2, 3).unwrap();
        assert!(view.reassemble().max_abs_diff(ds.x()).unwrap() < 1e-15);
    }

    #[test]
    fn vertical_rejects_bad_m() {
        let ds = toy(4, 2);
        assert!(Partition::vertical(&ds, 0, 1).is_err());
        assert!(Partition::vertical(&ds, 3, 1).is_err());
    }
}
