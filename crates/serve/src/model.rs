//! The versioned, checksummed binary model format (`PPMLMODL`).
//!
//! Layout mirrors the `ppml-core` checkpoint discipline byte for byte in
//! structure: magic, version, payload length, `Wire`-encoded payload, and
//! an IEEE CRC-32 trailer over everything before it.
//!
//! ```text
//! [8B magic "PPMLMODL"] [u16 version] [u32 payload_len] [payload…] [u32 crc32]
//! ```
//!
//! The payload opens with a one-byte model tag:
//!
//! * tag 1, linear:  `bias f64 · w Vec<f64>`
//! * tag 2, kernel:  `kernel-tag u8 · params… · bias f64 · features u32 ·
//!   coeffs Vec<f64> · sv Vec<f64>` (support vectors flattened row-major,
//!   `sv.len() == coeffs.len() × features`)
//!
//! Saving is crash-consistent the same way checkpoints are: write
//! `<path>.tmp`, fsync, rename over `path`, fsync the directory. A reader
//! that races a non-atomic writer sees either the old file or a CRC
//! failure — never a half-model.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::Path;

use ppml_kernel::Kernel;
use ppml_linalg::Matrix;
use ppml_svm::{KernelSvm, LinearSvm};
use ppml_transport::frame::crc32;
use ppml_transport::wire::{Reader, Wire};

/// First eight bytes of every binary model file.
pub const MODEL_MAGIC: &[u8; 8] = b"PPMLMODL";

/// Current format version; readers refuse anything newer.
pub const MODEL_VERSION: u16 = 1;

const TAG_LINEAR: u8 = 1;
const TAG_KERNEL: u8 = 2;

const KERNEL_LINEAR: u8 = 0;
const KERNEL_POLYNOMIAL: u8 = 1;
const KERNEL_RBF: u8 = 2;
const KERNEL_SIGMOID: u8 = 3;

/// Model (de)serialization failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelError {
    reason: String,
}

impl ModelError {
    fn new(reason: impl Into<String>) -> Self {
        ModelError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "model: {}", self.reason)
    }
}

impl std::error::Error for ModelError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, ModelError>;

/// A trained model in its persistable form: either the flat linear
/// hyperplane or a kernel expansion over stored support vectors.
#[derive(Debug, Clone)]
pub enum SavedModel {
    /// `f(x) = ⟨w, x⟩ + b` — the serving fast path.
    Linear(LinearSvm),
    /// `f(x) = Σ_i c_i K(s_i, x) + b` over stored support rows.
    Kernel(KernelSvm),
}

impl SavedModel {
    /// `"linear"` or `"kernel"` — the label `/model` metadata reports.
    pub fn kind(&self) -> &'static str {
        match self {
            SavedModel::Linear(_) => "linear",
            SavedModel::Kernel(_) => "kernel",
        }
    }

    /// Feature dimension the model expects.
    pub fn features(&self) -> usize {
        match self {
            SavedModel::Linear(m) => m.weights().len(),
            SavedModel::Kernel(m) => m.features(),
        }
    }

    /// Decision value `f(x)`; the predicted class is its sign.
    ///
    /// # Errors
    ///
    /// [`ppml_svm::SvmError::DimensionMismatch`] for a wrong-sized
    /// feature vector.
    pub fn decision(&self, x: &[f64]) -> ppml_svm::Result<f64> {
        match self {
            SavedModel::Linear(m) => m.decision(x),
            SavedModel::Kernel(m) => m.decision(x),
        }
    }

    /// Decision values of a batch flattened row-major into `xs`, one per
    /// row, each bit for bit what [`SavedModel::decision`] gives that row.
    ///
    /// # Errors
    ///
    /// [`ppml_svm::SvmError::DimensionMismatch`] when `xs` is not a whole
    /// number of rows.
    pub fn decision_batch(&self, xs: &[f64]) -> ppml_svm::Result<Vec<f64>> {
        match self {
            // A stray partial row reaches `decision` and fails its check.
            SavedModel::Linear(m) => xs
                .chunks(m.weights().len().max(1))
                .map(|row| m.decision(row))
                .collect(),
            SavedModel::Kernel(m) => m.decision_batch(xs),
        }
    }

    /// Predicted label in `{−1, +1}` (ties break positive).
    ///
    /// # Errors
    ///
    /// As [`SavedModel::decision`].
    pub fn classify(&self, x: &[f64]) -> ppml_svm::Result<f64> {
        match self {
            SavedModel::Linear(m) => m.classify(x),
            SavedModel::Kernel(m) => m.classify(x),
        }
    }

    /// Serializes to the `PPMLMODL` byte layout.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        match self {
            SavedModel::Linear(m) => {
                TAG_LINEAR.encode_into(&mut payload);
                m.bias().encode_into(&mut payload);
                m.weights().to_vec().encode_into(&mut payload);
            }
            SavedModel::Kernel(m) => {
                TAG_KERNEL.encode_into(&mut payload);
                match m.kernel() {
                    Kernel::Linear => KERNEL_LINEAR.encode_into(&mut payload),
                    Kernel::Polynomial { a, b, degree } => {
                        KERNEL_POLYNOMIAL.encode_into(&mut payload);
                        a.encode_into(&mut payload);
                        b.encode_into(&mut payload);
                        degree.encode_into(&mut payload);
                    }
                    Kernel::Rbf { gamma } => {
                        KERNEL_RBF.encode_into(&mut payload);
                        gamma.encode_into(&mut payload);
                    }
                    Kernel::Sigmoid { c } => {
                        KERNEL_SIGMOID.encode_into(&mut payload);
                        c.encode_into(&mut payload);
                    }
                }
                m.bias().encode_into(&mut payload);
                (m.features() as u32).encode_into(&mut payload);
                let (sv, coeffs) = m.support_vectors();
                coeffs.to_vec().encode_into(&mut payload);
                sv.as_slice().to_vec().encode_into(&mut payload);
            }
        }
        let mut out = Vec::with_capacity(8 + 2 + 4 + payload.len() + 4);
        out.extend_from_slice(MODEL_MAGIC);
        out.extend_from_slice(&MODEL_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and validates the `PPMLMODL` byte layout.
    ///
    /// # Errors
    ///
    /// [`ModelError`] on a wrong magic, a future version, a CRC mismatch,
    /// a length disagreement, trailing bytes, or any structural defect of
    /// the payload (including support/coefficient shape mismatches).
    pub fn from_bytes(bytes: &[u8]) -> Result<SavedModel> {
        if bytes.len() < 8 + 2 + 4 + 4 {
            return Err(ModelError::new("file too short"));
        }
        if &bytes[..8] != MODEL_MAGIC {
            return Err(ModelError::new("bad magic (not a ppml model file)"));
        }
        let crc_stored = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().expect("4 bytes"));
        let crc_computed = crc32(&bytes[..bytes.len() - 4]);
        if crc_stored != crc_computed {
            return Err(ModelError::new(format!(
                "checksum mismatch: computed {crc_computed:#010x}, stored {crc_stored:#010x}"
            )));
        }
        let version = u16::from_le_bytes(bytes[8..10].try_into().expect("2 bytes"));
        if version > MODEL_VERSION {
            return Err(ModelError::new(format!(
                "model version {version} is newer than supported {MODEL_VERSION}"
            )));
        }
        let payload_len = u32::from_le_bytes(bytes[10..14].try_into().expect("4 bytes")) as usize;
        let body = &bytes[14..bytes.len() - 4];
        if body.len() != payload_len {
            return Err(ModelError::new(format!(
                "payload length {payload_len} but {} bytes present",
                body.len()
            )));
        }
        let mut r = Reader::new(body);
        let structural = |e: ppml_transport::wire::WireError| ModelError::new(format!("{e}"));
        let model = match r.u8().map_err(structural)? {
            TAG_LINEAR => {
                let bias = r.f64().map_err(structural)?;
                let w = r.vec_f64().map_err(structural)?;
                if w.is_empty() {
                    return Err(ModelError::new("linear model with zero features"));
                }
                SavedModel::Linear(LinearSvm::from_parts(w, bias))
            }
            TAG_KERNEL => {
                let kernel = match r.u8().map_err(structural)? {
                    KERNEL_LINEAR => Kernel::Linear,
                    KERNEL_POLYNOMIAL => Kernel::Polynomial {
                        a: r.f64().map_err(structural)?,
                        b: r.f64().map_err(structural)?,
                        degree: r.u32().map_err(structural)?,
                    },
                    KERNEL_RBF => Kernel::Rbf {
                        gamma: r.f64().map_err(structural)?,
                    },
                    KERNEL_SIGMOID => Kernel::Sigmoid {
                        c: r.f64().map_err(structural)?,
                    },
                    other => return Err(ModelError::new(format!("unknown kernel tag {other}"))),
                };
                let bias = r.f64().map_err(structural)?;
                let features = r.u32().map_err(structural)? as usize;
                if features == 0 {
                    return Err(ModelError::new("kernel model with zero features"));
                }
                let coeffs = r.vec_f64().map_err(structural)?;
                let sv = r.vec_f64().map_err(structural)?;
                if sv.len() != coeffs.len() * features {
                    return Err(ModelError::new(format!(
                        "support-vector shape mismatch: {} values for {} × {features}",
                        sv.len(),
                        coeffs.len()
                    )));
                }
                let support = Matrix::from_vec(coeffs.len(), features, sv)
                    .map_err(|e| ModelError::new(format!("{e}")))?;
                SavedModel::Kernel(
                    KernelSvm::from_parts(kernel, support, coeffs, bias)
                        .map_err(|e| ModelError::new(format!("{e}")))?,
                )
            }
            other => return Err(ModelError::new(format!("unknown model tag {other}"))),
        };
        if r.remaining() != 0 {
            return Err(ModelError::new(format!(
                "{} trailing payload bytes",
                r.remaining()
            )));
        }
        Ok(model)
    }

    /// Atomically writes the model to `path` (temp + fsync + rename +
    /// directory fsync) and returns the encoded size.
    ///
    /// # Errors
    ///
    /// [`ModelError`] wrapping any I/O failure.
    pub fn save(&self, path: &Path) -> Result<usize> {
        let bytes = self.to_bytes();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = Path::new(&tmp);
        let io = |step: &str, e: std::io::Error| {
            ModelError::new(format!("{step} {}: {e}", path.display()))
        };
        let mut file = File::create(tmp).map_err(|e| io("create", e))?;
        file.write_all(&bytes).map_err(|e| io("write", e))?;
        file.sync_all().map_err(|e| io("fsync", e))?;
        drop(file);
        fs::rename(tmp, path).map_err(|e| io("rename", e))?;
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(bytes.len())
    }

    /// Loads a binary `PPMLMODL` model from `path`.
    ///
    /// # Errors
    ///
    /// [`ModelError`] on I/O failure or any validation failure of
    /// [`SavedModel::from_bytes`].
    pub fn load(path: &Path) -> Result<SavedModel> {
        let bytes =
            fs::read(path).map_err(|e| ModelError::new(format!("read {}: {e}", path.display())))?;
        SavedModel::from_bytes(&bytes)
    }

    /// Loads either format: binary `PPMLMODL` when the magic matches,
    /// otherwise the flat-text `ppml-linear-svm v1` format — so every
    /// model `ppml train` has ever written stays loadable.
    ///
    /// # Errors
    ///
    /// [`ModelError`] when the bytes parse as neither format.
    pub fn load_auto(path: &Path) -> Result<SavedModel> {
        let bytes =
            fs::read(path).map_err(|e| ModelError::new(format!("read {}: {e}", path.display())))?;
        if bytes.starts_with(MODEL_MAGIC) {
            return SavedModel::from_bytes(&bytes);
        }
        let text = String::from_utf8(bytes)
            .map_err(|_| ModelError::new("neither a binary model nor UTF-8 model text"))?;
        let linear = LinearSvm::from_text(&text)
            .map_err(|e| ModelError::new(format!("flat-text parse: {e}")))?;
        Ok(SavedModel::Linear(linear))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ppml_data::synth;
    use ppml_svm::SvmParams;

    /// An RBF expansion over 40 five-feature rows, built without training;
    /// the engine and frame-front tests score against it.
    pub(crate) fn rbf_sample() -> SavedModel {
        let support = Matrix::from_fn(40, 5, |i, j| ((i * 5 + j) as f64 * 0.83).cos() * 2.0);
        let coeffs = (0..40).map(|i| (i as f64 * 1.7).sin()).collect();
        let kernel = Kernel::Rbf { gamma: 0.05 };
        SavedModel::Kernel(KernelSvm::from_parts(kernel, support, coeffs, -0.125).unwrap())
    }

    fn linear_sample() -> SavedModel {
        SavedModel::Linear(LinearSvm::from_parts(vec![0.5, -1.25, 3.0], 0.125))
    }

    fn kernel_sample() -> SavedModel {
        let ds = synth::xor_like(120, 3);
        let params = SvmParams {
            kernel: Kernel::Rbf { gamma: 0.5 },
            ..Default::default()
        };
        SavedModel::Kernel(KernelSvm::train(&ds, &params).unwrap())
    }

    fn decisions_match(a: &SavedModel, b: &SavedModel, probes: &[Vec<f64>]) {
        for x in probes {
            assert_eq!(
                a.decision(x).unwrap().to_bits(),
                b.decision(x).unwrap().to_bits(),
                "decision drifted through serialization"
            );
        }
    }

    fn probes(features: usize, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..features)
                    .map(|j| ((i * features + j) as f64).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn linear_round_trips_bit_exact() {
        let model = linear_sample();
        let back = SavedModel::from_bytes(&model.to_bytes()).unwrap();
        assert_eq!(back.kind(), "linear");
        assert_eq!(back.features(), 3);
        decisions_match(&model, &back, &probes(3, 10));
    }

    #[test]
    fn kernel_round_trips_bit_exact() {
        let model = kernel_sample();
        let back = SavedModel::from_bytes(&model.to_bytes()).unwrap();
        assert_eq!(back.kind(), "kernel");
        assert_eq!(back.features(), model.features());
        decisions_match(&model, &back, &probes(model.features(), 10));
    }

    #[test]
    fn every_kernel_variant_round_trips() {
        let sv = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        for kernel in [
            Kernel::Linear,
            Kernel::Polynomial {
                a: 0.5,
                b: 1.0,
                degree: 3,
            },
            Kernel::Rbf { gamma: 0.25 },
            Kernel::Sigmoid { c: -0.5 },
        ] {
            let model = SavedModel::Kernel(
                KernelSvm::from_parts(kernel, sv.clone(), vec![1.5, -0.5], 0.75).unwrap(),
            );
            let back = SavedModel::from_bytes(&model.to_bytes()).unwrap();
            decisions_match(&model, &back, &probes(2, 6));
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let good = linear_sample().to_bytes();
        for byte in 0..good.len() {
            for bit in 0..8 {
                let mut bad = good.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    SavedModel::from_bytes(&bad).is_err(),
                    "flip of bit {bit} in byte {byte} went undetected"
                );
            }
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let good = kernel_sample().to_bytes();
        for cut in 0..good.len() {
            assert!(
                SavedModel::from_bytes(&good[..cut]).is_err(),
                "truncation to {cut} bytes went undetected"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = linear_sample().to_bytes();
        bytes.extend_from_slice(&[0xAB; 5]);
        assert!(SavedModel::from_bytes(&bytes).is_err());
    }

    #[test]
    fn future_versions_are_refused() {
        let mut bytes = linear_sample().to_bytes();
        let future = (MODEL_VERSION + 1).to_le_bytes();
        bytes[8..10].copy_from_slice(&future);
        let crc = crc32(&bytes[..bytes.len() - 4]);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = SavedModel::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("newer"), "{err}");
    }

    #[test]
    fn lying_shape_fields_are_rejected_not_misread() {
        // A kernel payload whose sv vector disagrees with coeffs×features
        // must fail validation even with a correct CRC.
        let sv = Matrix::from_vec(2, 3, vec![0.0; 6]).unwrap();
        let model = SavedModel::Kernel(
            KernelSvm::from_parts(Kernel::Linear, sv, vec![1.0, 2.0], 0.0).unwrap(),
        );
        let mut bytes = model.to_bytes();
        // features lives right after tag(1)+kernel-tag(1)+bias(8) in the
        // payload, which starts at offset 14.
        let features_at = 14 + 1 + 1 + 8;
        bytes[features_at..features_at + 4].copy_from_slice(&7u32.to_le_bytes());
        let crc = crc32(&bytes[..bytes.len() - 4]);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        let err = SavedModel::from_bytes(&bytes).unwrap_err();
        assert!(err.to_string().contains("shape mismatch"), "{err}");
    }

    #[test]
    fn save_and_load_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!("ppml-model-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bin");
        let model = kernel_sample();
        let written = model.save(&path).unwrap();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len() as usize);
        let back = SavedModel::load(&path).unwrap();
        decisions_match(&model, &back, &probes(model.features(), 8));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_auto_sniffs_binary_and_text() {
        let dir = std::env::temp_dir().join(format!("ppml-model-auto-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let linear = LinearSvm::from_parts(vec![1.0, -2.0], 0.5);
        let text_path = dir.join("model.txt");
        std::fs::write(&text_path, linear.to_text()).unwrap();
        let from_text = SavedModel::load_auto(&text_path).unwrap();
        assert_eq!(from_text.kind(), "linear");

        let bin_path = dir.join("model.bin");
        SavedModel::Linear(linear.clone()).save(&bin_path).unwrap();
        let from_bin = SavedModel::load_auto(&bin_path).unwrap();
        decisions_match(&from_text, &from_bin, &probes(2, 6));

        let junk_path = dir.join("junk");
        std::fs::write(&junk_path, b"neither format").unwrap();
        assert!(SavedModel::load_auto(&junk_path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
