//! Crash-consistent coordinator checkpoints (ISSUE 5 tentpole, piece 1).
//!
//! After every accepted consensus round the coordinator can snapshot the
//! whole of its recoverable state — round index, consensus iterate,
//! re-key epoch, roster and per-party liveness, convergence history and
//! byte counters — into a single self-describing file. A coordinator that
//! dies mid-run is then restarted with `--resume PATH` and continues the
//! run from the last accepted round; see [`crate::distributed`] for the
//! resume protocol and `DESIGN.md` §10 for the atomicity and privacy
//! arguments.
//!
//! # File format
//!
//! ```text
//! magic "PPMLCKPT" (8) · version u16 · payload_len u32 · payload · crc32
//! ```
//!
//! The payload is the [`Wire`] encoding of the fields in declaration
//! order; the trailing CRC (same polynomial as the frame codec) covers
//! everything before it. Loading validates magic, version, length, CRC
//! and the cross-field invariants, so a torn or tampered file is rejected
//! rather than resumed from.
//!
//! # Atomicity
//!
//! [`Checkpoint::save`] never writes the target path directly: it writes
//! `<path>.tmp`, fsyncs it, renames it over the target, and fsyncs the
//! parent directory. A crash at any point leaves either the previous
//! complete checkpoint or the new complete checkpoint at `path` — never a
//! torn mix. A stray `.tmp` from an interrupted write is garbage to be
//! overwritten, never read.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::Path;

use ppml_transport::{crc32, Reader, Wire};

use crate::error::TrainError;
use crate::Result;

/// Leading magic of every checkpoint file.
const CHECKPOINT_MAGIC: &[u8; 8] = b"PPMLCKPT";
/// Format version written by this build; loading rejects anything else.
const CHECKPOINT_VERSION: u16 = 1;

/// Everything the coordinator needs to continue a run after a crash.
///
/// `z`/`s` are the consensus iterate *after* round `next_round - 1` was
/// accepted, i.e. exactly the state the round-`next_round` broadcast
/// carries. No learner share, mask or raw datum ever enters a
/// checkpoint — the file holds the same already-aggregated values a
/// coordinator legitimately sees.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Telemetry run id gossiped before round 0 (0 when telemetry was
    /// off); a resumed coordinator re-gossips it so the pre- and
    /// post-crash streams correlate into one timeline.
    pub run_id: u64,
    /// Roster size `m` the run started with (coordinator is party `m`).
    pub learners: u32,
    /// Shared feature count `k` (shares are `k + 1` long).
    pub features: u32,
    /// Master seed — pair seeds, and therefore the §V masks, derive from
    /// it, so a resume under a different seed must be refused.
    pub seed: u64,
    /// The next round to broadcast (one past the last accepted round).
    pub next_round: u64,
    /// Re-key epoch at the time of the snapshot.
    pub epoch: u64,
    /// Consensus weight iterate.
    pub z: Vec<f64>,
    /// Consensus intercept iterate.
    pub s: f64,
    /// Parties still alive at the snapshot, ascending.
    pub alive: Vec<u32>,
    /// Parties declared dead, in drop order.
    pub dropped: Vec<u32>,
    /// Per-round `‖z_{t+1} − z_t‖²` so far.
    pub z_delta: Vec<f64>,
    /// Per-round evaluation accuracy so far (empty when not evaluating).
    pub accuracy: Vec<f64>,
    /// Coordinator-side broadcast bytes so far.
    pub bytes_broadcast: u64,
    /// Accepted-share bytes so far.
    pub bytes_shuffled: u64,
}

fn ckpt_err(reason: impl Into<String>) -> TrainError {
    TrainError::Checkpoint {
        reason: reason.into(),
    }
}

impl Checkpoint {
    /// Serializes the checkpoint into its file representation.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        self.run_id.encode_into(&mut payload);
        self.learners.encode_into(&mut payload);
        self.features.encode_into(&mut payload);
        self.seed.encode_into(&mut payload);
        self.next_round.encode_into(&mut payload);
        self.epoch.encode_into(&mut payload);
        self.z.encode_into(&mut payload);
        self.s.encode_into(&mut payload);
        self.alive.encode_into(&mut payload);
        self.dropped.encode_into(&mut payload);
        self.z_delta.encode_into(&mut payload);
        self.accuracy.encode_into(&mut payload);
        self.bytes_broadcast.encode_into(&mut payload);
        self.bytes_shuffled.encode_into(&mut payload);

        let mut out = Vec::with_capacity(8 + 2 + 4 + payload.len() + 4);
        out.extend_from_slice(CHECKPOINT_MAGIC);
        out.extend_from_slice(&CHECKPOINT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates a checkpoint file image.
    ///
    /// # Errors
    ///
    /// [`TrainError::Checkpoint`] on bad magic, unknown version, length
    /// mismatch, CRC mismatch, truncation, trailing bytes or violated
    /// cross-field invariants.
    pub fn from_bytes(bytes: &[u8]) -> Result<Checkpoint> {
        if bytes.len() < 8 + 2 + 4 + 4 {
            return Err(ckpt_err("file too short to be a checkpoint"));
        }
        if &bytes[..8] != CHECKPOINT_MAGIC {
            return Err(ckpt_err("bad magic: not a checkpoint file"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("len 4"));
        if crc32(body) != stored {
            return Err(ckpt_err("crc mismatch: checkpoint is torn or corrupt"));
        }
        let mut r = Reader::new(&body[8..]);
        let version = r.u16().map_err(|e| ckpt_err(e.to_string()))?;
        if version != CHECKPOINT_VERSION {
            return Err(ckpt_err(format!(
                "unsupported checkpoint version {version} (this build reads \
                 {CHECKPOINT_VERSION})"
            )));
        }
        let payload_len = r.u32().map_err(|e| ckpt_err(e.to_string()))? as usize;
        if payload_len != r.remaining() {
            return Err(ckpt_err(format!(
                "payload length mismatch: header says {payload_len}, file has {}",
                r.remaining()
            )));
        }
        let wire = |e: ppml_transport::WireError| ckpt_err(e.to_string());
        let ckpt = Checkpoint {
            run_id: r.u64().map_err(wire)?,
            learners: r.u32().map_err(wire)?,
            features: r.u32().map_err(wire)?,
            seed: r.u64().map_err(wire)?,
            next_round: r.u64().map_err(wire)?,
            epoch: r.u64().map_err(wire)?,
            z: r.vec_f64().map_err(wire)?,
            s: r.f64().map_err(wire)?,
            alive: r.vec_u32().map_err(wire)?,
            dropped: r.vec_u32().map_err(wire)?,
            z_delta: r.vec_f64().map_err(wire)?,
            accuracy: r.vec_f64().map_err(wire)?,
            bytes_broadcast: r.u64().map_err(wire)?,
            bytes_shuffled: r.u64().map_err(wire)?,
        };
        if r.remaining() != 0 {
            return Err(ckpt_err(format!(
                "{} trailing bytes after the payload",
                r.remaining()
            )));
        }
        ckpt.check_invariants()?;
        Ok(ckpt)
    }

    fn check_invariants(&self) -> Result<()> {
        let m = self.learners;
        if m == 0 {
            return Err(ckpt_err("roster is empty"));
        }
        if self.z.len() != self.features as usize {
            return Err(ckpt_err(format!(
                "iterate length {} does not match feature count {}",
                self.z.len(),
                self.features
            )));
        }
        if self.alive.is_empty() {
            return Err(ckpt_err("no party alive — nothing to resume"));
        }
        if self.alive.windows(2).any(|w| w[0] >= w[1]) {
            return Err(ckpt_err("alive set is not strictly ascending"));
        }
        if self.alive.iter().chain(&self.dropped).any(|&p| p >= m) {
            return Err(ckpt_err("party id out of roster range"));
        }
        if self.alive.iter().any(|p| self.dropped.contains(p)) {
            return Err(ckpt_err("a party is both alive and dropped"));
        }
        if self.next_round as usize != self.z_delta.len() {
            return Err(ckpt_err(format!(
                "next_round {} disagrees with {} recorded rounds",
                self.next_round,
                self.z_delta.len()
            )));
        }
        Ok(())
    }

    /// Refuses to resume a run whose identity differs from this process's
    /// configuration: roster size, feature count and mask seed must all
    /// match, or masks would fail to cancel and shares to line up.
    ///
    /// # Errors
    ///
    /// [`TrainError::Checkpoint`] naming the mismatched field.
    pub fn check_compatible(&self, learners: usize, features: usize, seed: u64) -> Result<()> {
        if self.learners as usize != learners {
            return Err(ckpt_err(format!(
                "checkpoint is for {} learners, this run has {learners}",
                self.learners
            )));
        }
        if self.features as usize != features {
            return Err(ckpt_err(format!(
                "checkpoint has {} features, this run has {features}",
                self.features
            )));
        }
        if self.seed != seed {
            return Err(ckpt_err(
                "checkpoint was written under a different mask seed",
            ));
        }
        Ok(())
    }

    /// Atomically writes the checkpoint to `path` (write `<path>.tmp` →
    /// fsync → rename → fsync directory) and returns the encoded size.
    ///
    /// # Errors
    ///
    /// [`TrainError::Checkpoint`] wrapping the failing I/O step.
    pub fn save(&self, path: &Path) -> Result<usize> {
        let bytes = self.to_bytes();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = Path::new(&tmp);
        let io =
            |step: &str, e: std::io::Error| ckpt_err(format!("{step} {}: {e}", path.display()));
        let mut file = File::create(tmp).map_err(|e| io("create", e))?;
        file.write_all(&bytes).map_err(|e| io("write", e))?;
        file.sync_all().map_err(|e| io("fsync", e))?;
        drop(file);
        fs::rename(tmp, path).map_err(|e| io("rename", e))?;
        // Durability of the rename itself: fsync the containing directory
        // (a no-op error on platforms where directories cannot be synced).
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(bytes.len())
    }

    /// Loads and validates a checkpoint from `path`.
    ///
    /// # Errors
    ///
    /// [`TrainError::Checkpoint`] on I/O failure or any validation
    /// failure of [`Checkpoint::from_bytes`].
    pub fn load(path: &Path) -> Result<Checkpoint> {
        let bytes =
            fs::read(path).map_err(|e| ckpt_err(format!("read {}: {e}", path.display())))?;
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            run_id: 0xfeed_beef,
            learners: 3,
            features: 5,
            seed: 11,
            next_round: 4,
            epoch: 2,
            z: vec![0.25, -1.5, 0.0, 3.75, 1e-9],
            s: -0.125,
            alive: vec![0, 2],
            dropped: vec![1],
            z_delta: vec![1.0, 0.5, 0.25, 0.125],
            accuracy: vec![],
            bytes_broadcast: 4096,
            bytes_shuffled: 2048,
        }
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("ppml-ckpt-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn byte_round_trip_is_lossless() {
        let ckpt = sample();
        assert_eq!(Checkpoint::from_bytes(&ckpt.to_bytes()).unwrap(), ckpt);
    }

    #[test]
    fn save_load_round_trip_and_no_tmp_leftover() {
        let path = tmp_path("roundtrip");
        let ckpt = sample();
        let n = ckpt.save(&path).expect("save");
        assert_eq!(n, ckpt.to_bytes().len());
        assert_eq!(Checkpoint::load(&path).expect("load"), ckpt);
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(
            !Path::new(&tmp).exists(),
            "temp file must be renamed away on success"
        );
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn save_atomically_replaces_garbage() {
        let path = tmp_path("replace");
        fs::write(&path, b"not a checkpoint at all").expect("seed garbage");
        assert!(Checkpoint::load(&path).is_err());
        sample().save(&path).expect("save over garbage");
        assert_eq!(Checkpoint::load(&path).expect("load"), sample());
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = sample().to_bytes();
        // Flipping any one bit must be caught by magic, version, length
        // or CRC validation — never silently accepted.
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0x01;
            assert!(
                Checkpoint::from_bytes(&evil).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = sample().to_bytes();
        for n in 0..bytes.len() {
            assert!(
                Checkpoint::from_bytes(&bytes[..n]).is_err(),
                "truncation to {n} bytes went undetected"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(Checkpoint::from_bytes(&bytes).is_err());
    }

    #[test]
    fn future_version_is_refused() {
        let mut bytes = sample().to_bytes();
        bytes[8] = (CHECKPOINT_VERSION + 1) as u8; // version lives after magic
        let len = bytes.len();
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = Checkpoint::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("version"), "got: {err}");
    }

    #[test]
    fn cross_field_invariants_are_enforced() {
        let broken = |f: &dyn Fn(&mut Checkpoint)| {
            let mut c = sample();
            f(&mut c);
            Checkpoint::from_bytes(&c.to_bytes())
        };
        assert!(broken(&|c| c.z.pop().map(|_| ()).unwrap()).is_err());
        assert!(broken(&|c| c.alive.clear()).is_err());
        assert!(broken(&|c| c.alive = vec![2, 0]).is_err());
        assert!(broken(&|c| c.alive = vec![0, 7]).is_err());
        assert!(broken(&|c| c.dropped = vec![0]).is_err());
        assert!(broken(&|c| c.next_round = 9).is_err());
        assert!(broken(&|c| c.learners = 0).is_err());
    }

    #[test]
    fn compatibility_gate_names_the_mismatch() {
        let c = sample();
        assert!(c.check_compatible(3, 5, 11).is_ok());
        assert!(c
            .check_compatible(4, 5, 11)
            .unwrap_err()
            .to_string()
            .contains("learners"));
        assert!(c
            .check_compatible(3, 6, 11)
            .unwrap_err()
            .to_string()
            .contains("features"));
        assert!(c
            .check_compatible(3, 5, 12)
            .unwrap_err()
            .to_string()
            .contains("seed"));
    }

    #[test]
    fn loading_a_missing_file_is_a_checkpoint_error() {
        let err = Checkpoint::load(Path::new("/nonexistent/ppml.ckpt")).unwrap_err();
        assert!(matches!(err, TrainError::Checkpoint { .. }));
    }
}
