//! Tests of the §V security-relevant behaviours that are checkable in code:
//! what leaves a learner, what the reducer can see, and that the masking
//! algebra holds under composition. (Semantic security of the primitives is
//! argued in the paper; these tests pin the *implementation* to the
//! protocol.)

use ppml::core::{AdmmConfig, HorizontalLinearSvm, SeededMasker};
use ppml::crypto::FixedPointCodec;
use ppml::data::{synth, Partition};

/// A masked share must be (a) different from the raw encoding and (b)
/// different across iterations for identical values — i.e., pads are fresh.
#[test]
fn shares_are_masked_and_fresh() {
    let masker = SeededMasker::new(99, 0, 4);
    let codec = masker.codec();
    let value = [0.5, -0.25, 3.0];
    let raw: Vec<u64> = value
        .iter()
        .map(|&v| codec.encode_u64(v).unwrap())
        .collect();
    let s0 = masker.mask_share(&value, 0).unwrap();
    let s1 = masker.mask_share(&value, 1).unwrap();
    assert_ne!(s0, raw, "share leaked the raw encoding");
    assert_ne!(s0, s1, "pads were reused across iterations");
}

/// Coalition resistance (the paper's protocol property): the masks cancel
/// only in the sum over *every* party. The actual guarantee: a coalition
/// of M-1 mappers could recover the last value only by also seeing the
/// reducer's sum, which is why the protocol's threat model separates the
/// reducer from the mappers. What we can test on the shipped masker (the
/// one every deployment sums through): the full sum is exact, and a
/// proper subset of shares sums to a masked (not meaningful) value.
#[test]
fn partial_sums_reveal_nothing() {
    let m = 4;
    let values = [
        vec![1.0, 2.0],
        vec![3.0, 4.0],
        vec![5.0, 6.0],
        vec![7.0, 8.0],
    ];
    let shares: Vec<Vec<u64>> = (0..m)
        .map(|i| {
            SeededMasker::new(1000, i, m)
                .mask_share(&values[i], 0)
                .unwrap()
        })
        .collect();
    let codec = FixedPointCodec::default();
    // Full sum is exact.
    let full = SeededMasker::combine(&shares, m, codec).unwrap();
    assert!((full[0] - 16.0).abs() < 1e-6 && (full[1] - 20.0).abs() < 1e-6);
    // Any proper subset decodes to garbage (far from the true partial sum).
    let partial = SeededMasker::combine(&shares[..3], 3, codec).unwrap();
    let true_partial = 1.0 + 3.0 + 5.0;
    assert!(
        (partial[0] - true_partial).abs() > 1.0,
        "3-of-4 shares decoded close to the true partial sum: {}",
        partial[0]
    );
}

/// The consensus model must not memorize an individual learner's data more
/// than the centralized model would: a smoke-level membership check — the
/// distributed model's decision values on learner 0's rows are not
/// systematically larger-margin than on unseen rows.
#[test]
fn consensus_model_margins_do_not_single_out_a_learner() {
    let ds = synth::cancer_like(300, 91);
    let (train, test) = ds.split(0.5, 92).unwrap();
    let parts = Partition::horizontal(&train, 4, 93).unwrap();
    let out =
        HorizontalLinearSvm::train(&parts, &AdmmConfig::default().with_max_iter(60), None).unwrap();
    let mean_margin = |d: &ppml::data::Dataset| -> f64 {
        (0..d.len())
            .map(|i| d.label(i) * out.model.decision(d.sample(i)).unwrap())
            .sum::<f64>()
            / d.len() as f64
    };
    let m_member = mean_margin(&parts[0]);
    let m_test = mean_margin(&test);
    // Margins on one learner's training rows stay comparable to margins on
    // fresh data — within 30 % relative.
    assert!(
        (m_member - m_test).abs() / m_test.abs().max(1e-9) < 0.3,
        "member margin {m_member} vs test margin {m_test}"
    );
}

/// Protocol validation failures must be loud, not silent wrong answers.
#[test]
fn ragged_protocol_inputs_error() {
    let codec = FixedPointCodec::default();
    assert!(SeededMasker::combine(&[vec![1, 2], vec![1]], 2, codec).is_err());
    assert!(SeededMasker::combine(&[], 0, codec).is_err());
}
