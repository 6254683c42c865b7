//! The scoring engine: one atomically swappable model behind both fronts.
//!
//! The engine holds the live model as an `Arc<Loaded>` inside an `RwLock`.
//! A scoring request clones the `Arc` once up front and computes every
//! margin against that pinned snapshot, so a hot reload never changes the
//! model *mid-batch*: in-flight requests finish on the model they started
//! with, and the old model is freed when its last request drops the `Arc`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Instant;

use ppml_telemetry::{emit, EventKind, NO_PARTY};

use crate::model::SavedModel;

/// One immutable loaded-model snapshot.
#[derive(Debug)]
pub struct Loaded {
    /// The model every request against this snapshot scores with.
    pub model: SavedModel,
    /// Monotonic load counter; generation 1 is the startup load.
    pub generation: u64,
    /// Encoded size of the model file this snapshot came from.
    pub bytes: u64,
}

/// Why a score request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreError {
    reason: String,
}

impl ScoreError {
    fn new(reason: impl Into<String>) -> Self {
        ScoreError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ScoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "score: {}", self.reason)
    }
}

impl std::error::Error for ScoreError {}

/// The shared scoring engine.
pub struct Engine {
    current: RwLock<Arc<Loaded>>,
    generation: AtomicU64,
}

impl Engine {
    /// Wraps the startup model and emits the generation-1
    /// [`EventKind::ModelReload`], so "loads since start" is exactly the
    /// reload counter.
    pub fn new(model: SavedModel, bytes: u64) -> Arc<Engine> {
        let loaded = Arc::new(Loaded {
            model,
            generation: 1,
            bytes,
        });
        emit(
            NO_PARTY,
            EventKind::ModelReload {
                generation: 1,
                bytes,
            },
        );
        Arc::new(Engine {
            current: RwLock::new(loaded),
            generation: AtomicU64::new(1),
        })
    }

    /// Pins the current snapshot.
    pub fn current(&self) -> Arc<Loaded> {
        Arc::clone(&self.current.read().expect("engine lock").clone())
    }

    /// Installs `model` as the new current snapshot and returns its
    /// generation. Requests already holding the old snapshot finish on it.
    pub fn swap(&self, model: SavedModel, bytes: u64) -> u64 {
        let generation = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        let loaded = Arc::new(Loaded {
            model,
            generation,
            bytes,
        });
        *self.current.write().expect("engine lock") = loaded;
        emit(NO_PARTY, EventKind::ModelReload { generation, bytes });
        generation
    }

    /// Scores a batch of `rows` samples flattened row-major into `xs`
    /// (`xs.len() == rows × features`). Returns one decision margin per
    /// row, all computed against a single pinned model snapshot.
    ///
    /// # Errors
    ///
    /// [`ScoreError`] (after emitting [`EventKind::ScoreRejected`]) when
    /// `features` disagrees with the model, the flattened length is not a
    /// multiple of `features`, or the batch is empty.
    pub fn score_batch(&self, features: usize, xs: &[f64]) -> Result<Vec<f64>, ScoreError> {
        let snapshot = self.current();
        let reject = |rows: usize, reason: String| {
            emit(NO_PARTY, EventKind::ScoreRejected { batch: rows as u32 });
            Err(ScoreError::new(reason))
        };
        if features == 0 || xs.is_empty() {
            return reject(0, "empty batch".into());
        }
        if features != snapshot.model.features() {
            return reject(
                xs.len() / features.max(1),
                format!(
                    "request has {features} features but the model expects {}",
                    snapshot.model.features()
                ),
            );
        }
        if !xs.len().is_multiple_of(features) {
            return reject(
                xs.len() / features,
                format!(
                    "{} values is not a whole number of {features}-feature rows",
                    xs.len()
                ),
            );
        }
        let rows = xs.len() / features;
        let start = Instant::now();
        let margins = snapshot
            .model
            .decision_batch(xs)
            .map_err(|e| ScoreError::new(format!("{e}")))?;
        emit(
            NO_PARTY,
            EventKind::ScoreBatch {
                batch: rows as u32,
                elapsed_ns: start.elapsed().as_nanos() as u64,
            },
        );
        Ok(margins)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppml_svm::LinearSvm;

    fn linear(w: Vec<f64>, b: f64) -> SavedModel {
        SavedModel::Linear(LinearSvm::from_parts(w, b))
    }

    #[test]
    fn batches_score_against_one_snapshot() {
        let engine = Engine::new(linear(vec![1.0, 2.0], 0.5), 64);
        let margins = engine.score_batch(2, &[1.0, 1.0, -1.0, 0.5]).unwrap();
        assert_eq!(margins, vec![3.5, 0.5]);
    }

    #[test]
    fn kernel_batches_are_bit_for_bit_the_per_row_decisions() {
        let model = crate::model::tests::rbf_sample();
        let engine = Engine::new(model.clone(), 64);
        let features = model.features();
        for rows in [1, 7, 8, 9, 256] {
            let xs: Vec<f64> = (0..rows * features)
                .map(|i| (i as f64 * 0.61).sin() * 3.0)
                .collect();
            let margins = engine.score_batch(features, &xs).unwrap();
            assert_eq!(margins.len(), rows);
            for (row, margin) in xs.chunks_exact(features).zip(&margins) {
                let single = model.decision(row).unwrap();
                assert_eq!(margin.to_bits(), single.to_bits(), "batch of {rows}");
            }
        }
    }

    #[test]
    fn a_wrong_feature_count_is_rejected_before_any_scoring() {
        let model = crate::model::tests::rbf_sample();
        let engine = Engine::new(model.clone(), 64);
        let ring = ppml_telemetry::RingSink::new(4096);
        ppml_telemetry::install(ring.clone());
        // 41 rows of one feature too many: a batch size no other test of
        // this binary sends while the ring listens.
        let features = model.features() + 1;
        let refused = engine.score_batch(features, &vec![0.5; 41 * features]);
        ppml_telemetry::uninstall();
        assert!(refused.is_err());
        let about_the_batch: Vec<EventKind> = ring
            .snapshot()
            .into_iter()
            .map(|e| e.kind)
            .filter(|kind| {
                matches!(
                    kind,
                    EventKind::ScoreRejected { batch: 41 }
                        | EventKind::ScoreBatch { batch: 41, .. }
                )
            })
            .collect();
        assert_eq!(
            about_the_batch,
            vec![EventKind::ScoreRejected { batch: 41 }]
        );
    }

    #[test]
    fn swap_bumps_generation_and_changes_scores() {
        let engine = Engine::new(linear(vec![1.0], 0.0), 8);
        assert_eq!(engine.current().generation, 1);
        let pinned = engine.current();
        let gen = engine.swap(linear(vec![-1.0], 0.0), 8);
        assert_eq!(gen, 2);
        assert_eq!(engine.current().generation, 2);
        // A request that pinned the old snapshot still scores with it.
        assert_eq!(pinned.model.decision(&[2.0]).unwrap(), 2.0);
        assert_eq!(engine.score_batch(1, &[2.0]).unwrap(), vec![-2.0]);
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let engine = Engine::new(linear(vec![1.0, 2.0], 0.0), 8);
        assert!(engine.score_batch(3, &[1.0, 2.0, 3.0]).is_err());
        assert!(engine.score_batch(2, &[1.0, 2.0, 3.0]).is_err());
        assert!(engine.score_batch(2, &[]).is_err());
        assert!(engine.score_batch(0, &[1.0]).is_err());
    }
}
