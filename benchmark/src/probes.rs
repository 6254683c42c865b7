//! Timings of each crate's public kernels at the shapes the workloads
//! give them. A traced run calls these after its timed window, with the
//! workload's own data, to say what one call into a layer costs.

use std::hint::black_box;
use std::time::Instant;

use ppml_core::{AdmmConfig, SeededMasker};
use ppml_crypto::{shamir, FixedPointCodec, Paillier};
use ppml_data::rng::Rng64;
use ppml_data::Dataset;
use ppml_kernel::{Kernel, LandmarkSet};
use ppml_linalg::Matrix;
use ppml_mapreduce::{BlockId, Cluster, ClusterConfig, IterativeJob, NodeId};
use ppml_telemetry::{self as telemetry, EventKind, RingSink};
use ppml_transport::{crc32, Frame, Message};

use crate::stats::median;

/// Median time of one call to `f`, in nanoseconds, over `reps` calls
/// after one untimed call.
pub fn median_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Median time per call, in nanoseconds, of a call too short to time
/// alone: `f` runs `inner` times per sample.
pub fn median_ns_batched<R>(reps: usize, inner: usize, mut f: impl FnMut() -> R) -> f64 {
    median_ns(reps, || {
        for _ in 0..inner {
            black_box(f());
        }
    }) / inner as f64
}

/// The horizontal-linear learner's kernels on one partition: the
/// `YX·YXᵀ` Gram build, the two matrix–vector products of a round, and
/// a cold box QP on the first round's dual — assembled from public
/// `Matrix` operations the way the learner assembles it.
pub fn hl_learner(part: &Dataset, learners: usize, cfg: &AdmmConfig) -> Vec<(&'static str, f64)> {
    let (n, k) = (part.len(), part.features());
    let a = learners as f64 / (1.0 + cfg.rho * learners as f64);
    let yx = Matrix::from_fn(n, k, |i, j| part.label(i) * part.sample(i)[j]);
    let gram_ns = median_ns(5, || yx.matmul(&yx.transpose()).expect("square product"));
    let gram = yx.matmul(&yx.transpose()).expect("square product");
    let y = part.y();
    let q = Matrix::from_fn(n, n, |i, j| a * gram.row(i)[j] + y[i] * y[j] / cfg.rho);
    // First round: z = γ = 0 and s = β = 0, so the linear term is −1.
    let lin = vec![-1.0; n];
    let cold = ppml_qp::solve_box(&q, &lin, 0.0, cfg.c, &cfg.qp).expect("box QP");
    let solve_ns = median_ns(5, || {
        ppml_qp::solve_box(&q, &lin, 0.0, cfg.c, &cfg.qp).expect("box QP")
    });
    let c = vec![0.5; k];
    let matvec_ns = median_ns(50, || {
        (
            yx.matvec(&c).expect("feature dims"),
            yx.t_matvec(&cold.x).expect("row dims"),
        )
    });
    vec![
        ("linalg.gram_ms", gram_ns / 1e6),
        ("linalg.matvec_us", matvec_ns / 1e3),
        ("qp.solve_box_ms", solve_ns / 1e6),
        ("qp.iterations", cold.iterations as f64),
    ]
}

/// The vertical-kernel node's factorisation: Cholesky of `I + ρK_m`
/// over one learner's column slice. Milliseconds.
pub fn vk_cholesky_ms(slice: &Matrix, kernel: Kernel, rho: f64) -> f64 {
    let mut op = kernel.gram(slice).scale(rho);
    op.add_diag(1.0 + 1e-10);
    median_ns(5, || op.cholesky().expect("positive definite")) / 1e6
}

/// The vertical reducer's `z`-subproblem at its first round (`c̄ = r =
/// 0`), `n` = the training rows. Milliseconds.
pub fn vl_reducer_ms(y: &[f64], cfg: &AdmmConfig) -> f64 {
    let diag = vec![1.0 / cfg.rho; y.len()];
    let lin = vec![-1.0; y.len()];
    median_ns(20, || {
        ppml_qp::solve_separable_eq(&diag, &lin, 0.0, cfg.c, y, 0.0).expect("separable QP")
    }) / 1e6
}

/// The horizontal-kernel learner's Gram work: the landmark Gram and the
/// learner's rows against the landmarks. Milliseconds.
pub fn hk_gram_ms(part: &Dataset, cfg: &AdmmConfig) -> f64 {
    let landmarks = LandmarkSet::subsample(part.x(), cfg.landmarks, cfg.seed);
    median_ns(10, || {
        (
            landmarks.gram(cfg.kernel),
            landmarks.cross_gram(cfg.kernel, part.x()),
        )
    }) / 1e6
}

/// One kernel evaluation on two rows of `x`. Nanoseconds.
pub fn kernel_eval_ns(kernel: Kernel, x: &Matrix) -> f64 {
    let (a, b) = (x.row(0), x.row(x.rows() - 1));
    median_ns_batched(20, 1000, || kernel.eval(black_box(a), black_box(b)))
}

/// §V pairwise masking of a `len`-long share among `parties`: one
/// learner's `mask_share`, the reducer's `combine`, one fixed-point
/// encode.
pub fn masking(len: usize, parties: usize, seed: u64) -> Vec<(&'static str, f64)> {
    let values: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
    let masker = SeededMasker::new(seed, 0, parties);
    let shares: Vec<Vec<u64>> = (0..parties)
        .map(|p| {
            SeededMasker::new(seed, p, parties)
                .mask_share(&values, 3)
                .expect("in range")
        })
        .collect();
    let codec = FixedPointCodec::default();
    vec![
        (
            "crypto.mask_share_us",
            median_ns_batched(20, 50, || masker.mask_share(&values, 3).expect("in range")) / 1e3,
        ),
        (
            "crypto.combine_us",
            median_ns_batched(20, 50, || {
                SeededMasker::combine(&shares, parties, codec).expect("aligned shares")
            }) / 1e3,
        ),
        (
            "crypto.fixed_encode_ns",
            median_ns_batched(20, 1000, || {
                codec.encode_u64(black_box(0.123456)).expect("in range")
            }),
        ),
    ]
}

/// Shamir `t`-of-`n` over a `len`-long share: split, and reconstruct
/// from the first `t` parties.
pub fn shamir(len: usize, t: usize, n: usize, seed: u64) -> Vec<(&'static str, f64)> {
    let values: Vec<u64> = (0..len as u64).map(|i| i * 7919 + 11).collect();
    let mut rng = Rng64::new(seed);
    let shares = shamir::split_vector(&values, t, n, &mut rng).expect("valid threshold");
    let first_t: Vec<&[shamir::Share]> = shares[..t].iter().map(Vec::as_slice).collect();
    vec![
        (
            "crypto.shamir_split_us",
            median_ns_batched(20, 20, || {
                shamir::split_vector(&values, t, n, &mut rng).expect("valid threshold")
            }) / 1e3,
        ),
        (
            "crypto.shamir_reconstruct_us",
            median_ns_batched(20, 20, || {
                shamir::reconstruct_vector(&first_t).expect("t shares")
            }) / 1e3,
        ),
    ]
}

/// Paillier at `bits`: key generation, then encrypt, add and decrypt of
/// one fixed-point coordinate.
pub fn paillier(bits: usize, seed: u64) -> Vec<(&'static str, f64)> {
    let mut rng = Rng64::new(seed);
    let keygen_ns = median_ns(5, || Paillier::keygen(bits, &mut rng).expect("key size"));
    let key = Paillier::keygen(bits, &mut rng).expect("key size");
    let plain = FixedPointCodec::default()
        .encode_group(-0.123456, key.public_key().modulus())
        .expect("in range");
    let cipher = key.encrypt(&plain, &mut rng).expect("in group");
    vec![
        ("crypto.paillier_keygen_ms", keygen_ns / 1e6),
        (
            "crypto.paillier_encrypt_ms",
            median_ns(20, || key.encrypt(&plain, &mut rng).expect("in group")) / 1e6,
        ),
        (
            "crypto.paillier_add_us",
            median_ns_batched(20, 20, || key.add(&cipher, &cipher)) / 1e3,
        ),
        (
            "crypto.paillier_decrypt_ms",
            median_ns(20, || key.decrypt(&cipher)) / 1e6,
        ),
    ]
}

/// The frame codec on `msg`: encode, decode and the CRC alone, per
/// encoded byte.
pub fn frame_codec(msg: Message) -> Vec<(&'static str, f64)> {
    let frame = Frame {
        flags: 0,
        from: 0,
        to: 1,
        seq: 1,
        msg,
    };
    let encoded = frame.encode();
    let bytes = encoded.len() as f64;
    let inner = (200_000 / encoded.len()).max(1);
    vec![
        (
            "transport.frame_encode_ns_per_byte",
            median_ns_batched(20, inner, || frame.encode()) / bytes,
        ),
        (
            "transport.frame_decode_ns_per_byte",
            median_ns_batched(20, inner, || Frame::decode(&encoded).expect("own encoding")) / bytes,
        ),
        (
            "transport.crc32_ns_per_byte",
            median_ns_batched(20, inner, || crc32(&encoded)) / bytes,
        ),
    ]
}

/// A job that does nothing: what is left of a round is the runtime.
struct EmptyJob;

impl IterativeJob for EmptyJob {
    type BlockPayload = ();
    type MapperState = ();
    type Broadcast = ();
    type Key = ();
    type MapOut = ();
    type ReduceOut = ();

    fn init_state(&self, _: BlockId, _: &()) {}

    fn map(&self, _: NodeId, _: &(), _: &mut (), _: &()) -> Vec<((), ())> {
        vec![((), ())]
    }

    fn reduce(&self, _: &(), _: Vec<()>) {}
}

/// One round of a no-op job on `nodes` nodes with a block each:
/// dispatch, shuffle accounting and bookkeeping. Microseconds.
pub fn empty_round_us(nodes: usize) -> f64 {
    let config = ClusterConfig {
        nodes,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(config, EmptyJob).expect("valid cluster");
    for node in 0..nodes {
        cluster
            .load_block_on((), NodeId(node))
            .expect("node exists");
    }
    median_ns(200, || {
        cluster.run_iteration(&()).map(|_| ()).expect("empty round")
    }) / 1e3
}

/// One `emit` into an installed in-memory sink. Nanoseconds. Leaves no
/// sink installed.
pub fn telemetry_emit_ns() -> f64 {
    telemetry::install(RingSink::new(1024));
    let ns = median_ns_batched(20, 1000, || {
        telemetry::emit(
            0,
            EventKind::RoundOpen {
                iteration: 1,
                epoch: 0,
            },
        )
    });
    telemetry::uninstall();
    ns
}
