//! `ppml-serve`: batched, hot-reloading inference for trained SVMs
//! (ISSUE 6 tentpole).
//!
//! Training produces a model; this crate answers for it. One [`Engine`]
//! holds the live model behind an atomically swappable snapshot and
//! serves two fronts that share it:
//!
//! * **HTTP** ([`http_front::router`] on `ppml_telemetry::HttpServer`) —
//!   `POST /score` (text batches in, `label margin` lines out),
//!   `GET /healthz`, `GET /model` (metadata only), `GET /metrics`.
//! * **Frames** ([`FrameServer`]) — the workspace's length-prefixed,
//!   CRC-checked protocol, `Score` → `ScoreReply` per batch over
//!   persistent connections.
//!
//! Both fronts accept through the one `ppml_telemetry::Listener`: a
//! blocking accept loop that gives each connection a thread with 2 s
//! read/write timeouts, and stops on drop by waking itself with a
//! connection to its own address.
//!
//! Models persist in the [`model`] module's `PPMLMODL` binary format
//! (magic, version, CRC trailer — the checkpoint discipline applied to
//! models), with [`SavedModel::load_auto`] accepting the older flat-text
//! linear format too. A [`ModelWatcher`] polls the model file and swaps
//! new versions in without dropping in-flight requests.
//!
//! The serving privacy rule, stated once and enforced everywhere: the
//! server returns **labels and margins only**. No endpoint and no wire
//! kind carries weights, support vectors or kernel parameters.

#![forbid(unsafe_code)]

pub mod engine;
pub mod frames;
pub mod http_front;
pub mod model;
pub mod watch;

pub use engine::{Engine, Loaded, ScoreError};
pub use frames::{score_over_frames, FrameScoreClient, FrameServer};
pub use http_front::router;
pub use model::{ModelError, SavedModel, MODEL_MAGIC, MODEL_VERSION};
pub use watch::ModelWatcher;
