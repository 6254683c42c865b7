//! End-to-end integration tests spanning the whole workspace: data
//! generation → partitioning → distributed training (in-process and on the
//! MapReduce cluster) → evaluation against the centralized baseline.

use ppml::core::jobs::{train_kernel_on_cluster, train_linear_on_cluster, ClusterTuning};
use ppml::core::{
    AdmmConfig, HorizontalKernelSvm, HorizontalLinearSvm, SecAggConfig, VerticalKernelSvm,
    VerticalLinearSvm,
};
use ppml::data::{synth, Partition};
use ppml::kernel::Kernel;
use ppml::svm::{KernelSvm, LinearSvm, SvmParams};

/// The paper's full pipeline on the easy dataset: every trainer must land
/// within a few points of the centralized baseline.
#[test]
fn all_four_trainers_approach_the_baseline_on_cancer() {
    let ds = synth::cancer_like(400, 21);
    let (train, test) = ds.split(0.5, 22).unwrap();
    let baseline = LinearSvm::train(&train, 50.0).unwrap().accuracy(&test);
    assert!(baseline > 0.88, "baseline sanity: {baseline}");

    let cfg = AdmmConfig::default()
        .with_max_iter(60)
        .with_kernel(Kernel::Rbf { gamma: 1.0 / 9.0 })
        .with_landmarks(25);

    let hparts = Partition::horizontal(&train, 4, 23).unwrap();
    let hl = HorizontalLinearSvm::train(&hparts, &cfg, None)
        .unwrap()
        .model
        .accuracy(&test);
    let hk = HorizontalKernelSvm::train(&hparts, &cfg, None)
        .unwrap()
        .model
        .accuracy(&test);

    let vview = Partition::vertical(&train, 4, 24).unwrap();
    let vl = VerticalLinearSvm::train(&vview, &cfg, None)
        .unwrap()
        .model
        .accuracy(&test);
    let vk = VerticalKernelSvm::train(&vview, &cfg, None)
        .unwrap()
        .model
        .accuracy(&test);

    for (name, acc) in [("HL", hl), ("HK", hk), ("VL", vl), ("VK", vk)] {
        assert!(
            acc > baseline - 0.08,
            "{name} accuracy {acc} too far below baseline {baseline}"
        );
    }
}

/// Difficulty ordering must match §VI on every trainer: higgs is the hard
/// dataset, ocr and cancer the easy ones.
#[test]
fn difficulty_ordering_is_preserved_distributed() {
    let cfg = AdmmConfig::default().with_max_iter(40);
    let mut accs = std::collections::BTreeMap::new();
    for (name, ds) in [
        ("cancer", synth::cancer_like(300, 31)),
        ("higgs", synth::higgs_like(500, 31)),
        ("ocr", synth::ocr_like(300, 31)),
    ] {
        let (train, test) = ds.split(0.5, 32).unwrap();
        let parts = Partition::horizontal(&train, 4, 33).unwrap();
        let out = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap();
        accs.insert(name, out.model.accuracy(&test));
    }
    assert!(accs["higgs"] < accs["cancer"]);
    assert!(accs["higgs"] < accs["ocr"]);
    assert!(accs["ocr"] > 0.9);
}

/// Cluster execution is observationally identical to in-process execution,
/// and the run is fully data-local.
#[test]
fn cluster_and_in_process_agree_end_to_end() {
    let ds = synth::cancer_like(240, 41);
    let (train, test) = ds.split(0.5, 42).unwrap();
    let parts = Partition::horizontal(&train, 4, 43).unwrap();
    let cfg = AdmmConfig::default().with_max_iter(20);

    let (cluster_out, metrics) =
        train_linear_on_cluster(&parts, &cfg, Some(&test), ClusterTuning::default()).unwrap();
    let inproc_out = HorizontalLinearSvm::train(&parts, &cfg, Some(&test)).unwrap();

    for (a, b) in cluster_out
        .model
        .weights()
        .iter()
        .zip(inproc_out.model.weights())
    {
        assert!((a - b).abs() < 1e-9);
    }
    assert_eq!(cluster_out.history.accuracy, inproc_out.history.accuracy);
    assert_eq!(metrics.remote_reads, 0, "raw data must never move");
    assert!(metrics.bytes_shuffled > 0);
}

/// Kernel trainer on the cluster solves a nonlinear problem the linear
/// trainer cannot, under an injected fault.
#[test]
fn cluster_kernel_beats_linear_on_xor_despite_faults() {
    use ppml::mapreduce::{BlockId, FaultPlan};
    let ds = synth::xor_like(300, 51);
    let (train, test) = ds.split(0.5, 52).unwrap();
    let parts = Partition::horizontal(&train, 4, 53).unwrap();
    let cfg = AdmmConfig::default()
        .with_max_iter(25)
        .with_kernel(Kernel::Rbf { gamma: 0.5 })
        .with_landmarks(15);
    let tuning = ClusterTuning {
        fault_plan: FaultPlan::new().fail_first_attempts(1, BlockId(0), 1),
        max_attempts: Some(3),
    };
    let (kernel_out, metrics) = train_kernel_on_cluster(&parts, &cfg, None, tuning).unwrap();
    let linear_out = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap();

    let ka = kernel_out.model.accuracy(&test);
    let la = linear_out.model.accuracy(&test);
    assert!(ka > 0.88, "kernel accuracy {ka}");
    assert!(ka > la + 0.08, "kernel {ka} must beat linear {la}");
    assert_eq!(
        metrics.task_retries, 1,
        "the injected fault must be exercised"
    );
}

/// Every secure-aggregation backend trains to the same model, bit for bit
/// (the trainers are agnostic to the Reduce-side protocol, and every
/// backend's fixed-point sum decodes to the same number).
#[test]
fn secure_backends_are_interchangeable_in_training() {
    let ds = synth::blobs(120, 61);
    let parts = Partition::horizontal(&ds, 3, 62).unwrap();
    let cfg = AdmmConfig::default().with_max_iter(12);
    let reference = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap();
    for secagg in [SecAggConfig::shamir(), SecAggConfig::paillier()] {
        let out = HorizontalLinearSvm::train_with(&parts, &cfg, None, secagg).unwrap();
        assert_eq!(out.model, reference.model, "{} diverged", secagg.kind);
        assert_eq!(out.history, reference.history, "{} diverged", secagg.kind);
    }
}

/// The dropout-tolerant threshold backend at `t < m` (3 of 4) slots into
/// training like any other backend, producing the same model bit for bit.
#[test]
fn threshold_backend_is_interchangeable_in_training() {
    let ds = synth::blobs(120, 71);
    let parts = Partition::horizontal(&ds, 4, 72).unwrap();
    let cfg = AdmmConfig::default().with_max_iter(10);
    let reference = HorizontalLinearSvm::train(&parts, &cfg, None).unwrap();
    let threshold = HorizontalLinearSvm::train_with(
        &parts,
        &cfg,
        None,
        SecAggConfig::shamir().with_threshold(3),
    )
    .unwrap();
    assert_eq!(threshold.model, reference.model);
    assert_eq!(threshold.history, reference.history);
}

/// The kernel SVM baseline and the distributed kernel trainer agree on the
/// nonlinear dataset (paper's Fig. 4f claim: distributed nonlinear reaches
/// centralized-like accuracy).
#[test]
fn distributed_kernel_matches_centralized_kernel() {
    let ds = synth::xor_like(400, 71);
    let (train, test) = ds.split(0.5, 72).unwrap();
    let central = KernelSvm::train(
        &train,
        &SvmParams {
            kernel: Kernel::Rbf { gamma: 0.5 },
            ..Default::default()
        },
    )
    .unwrap()
    .accuracy(&test);
    let parts = Partition::horizontal(&train, 4, 73).unwrap();
    let cfg = AdmmConfig::default()
        .with_max_iter(40)
        .with_kernel(Kernel::Rbf { gamma: 0.5 })
        .with_landmarks(30);
    let distributed = HorizontalKernelSvm::train(&parts, &cfg, None)
        .unwrap()
        .model
        .accuracy(&test);
    assert!(
        distributed > central - 0.07,
        "distributed {distributed} vs centralized {central}"
    );
}

/// The Nyström-factored vertical kernel trainer runs on the cluster, under
/// an injected fault, and still tracks the exact trainer's accuracy.
#[test]
fn nystrom_vertical_on_cluster_with_faults() {
    use ppml::core::jobs::train_vertical_kernel_on_cluster;
    use ppml::mapreduce::{BlockId, FaultPlan};
    let ds = synth::cancer_like(300, 61);
    let (train, test) = ds.split(0.5, 62).unwrap();
    let view = Partition::vertical(&train, 3, 63).unwrap();
    let cfg = AdmmConfig::default()
        .with_max_iter(30)
        .with_kernel(Kernel::Rbf { gamma: 1.0 / 9.0 })
        .with_nystrom(40);
    let tuning = ClusterTuning {
        fault_plan: FaultPlan::new().fail_first_attempts(5, BlockId(1), 1),
        max_attempts: Some(3),
    };
    let (out, metrics) = train_vertical_kernel_on_cluster(&view, &cfg, None, tuning).unwrap();
    let exact = VerticalKernelSvm::train(
        &view,
        &AdmmConfig {
            nystrom_rank: None,
            ..cfg
        },
        None,
    )
    .unwrap();
    let (an, ae) = (out.model.accuracy(&test), exact.model.accuracy(&test));
    assert!(an > ae - 0.07, "nystrom-on-cluster {an} vs exact {ae}");
    assert_eq!(metrics.task_retries, 1);
}

/// §III's slack-variable claim: under label noise, a softer margin (small
/// `C`) rejects the outliers and generalizes better — for the centralized
/// baseline and for the distributed trainer alike.
#[test]
fn slack_penalty_rejects_label_noise() {
    let clean = synth::blobs(300, 91);
    let (train_clean, test) = clean.split(0.5, 92).unwrap();
    let train = synth::with_label_noise(&train_clean, 0.15, 93);

    // Centralized: small C shrugs off the flipped labels.
    let soft = LinearSvm::train(&train, 0.1).unwrap().accuracy(&test);
    let hard = LinearSvm::train(&train, 1000.0).unwrap().accuracy(&test);
    assert!(
        soft >= hard - 1e-9,
        "soft margin {soft} should beat/equal hard margin {hard} under noise"
    );
    assert!(soft > 0.93, "soft-margin accuracy {soft}");

    // Distributed: the same effect must survive the consensus decomposition.
    let parts = Partition::horizontal(&train, 4, 94).unwrap();
    let cfg_soft = AdmmConfig::default().with_c(0.1).with_max_iter(50);
    let dist_soft = HorizontalLinearSvm::train(&parts, &cfg_soft, None)
        .unwrap()
        .model
        .accuracy(&test);
    assert!(
        dist_soft > 0.9,
        "distributed soft margin under noise: {dist_soft}"
    );
}

/// CSV round-trips survive the whole pipeline (export → import → train).
#[test]
fn csv_pipeline_roundtrip() {
    let ds = synth::cancer_like(120, 81);
    let csv = ds.to_csv();
    let back = ppml::data::Dataset::from_csv(&csv).unwrap();
    let parts = Partition::horizontal(&back, 2, 82).unwrap();
    let out =
        HorizontalLinearSvm::train(&parts, &AdmmConfig::default().with_max_iter(20), None).unwrap();
    assert!(out.model.accuracy(&back) > 0.85);
}
