//! The Reduce-step protocol of §V through the public API.
//!
//! Trains one horizontally partitioned linear SVM under each of the three
//! secure-aggregation backends — the paper's pairwise masking, Shamir
//! threshold sharing and Paillier aggregation — and asserts the models are
//! equal bit for bit: every backend's fixed-point sum decodes to the same
//! number, so the protocol choice changes cost and dropout tolerance,
//! never the model. Then shows what a learner actually sends under the
//! paper's protocol: its fixed-point encoding hidden under pairwise masks.
//!
//! ```text
//! cargo run --release --example secure_aggregation
//! ```

use std::time::Instant;

use ppml::core::{AdmmConfig, HorizontalLinearSvm, SecAggConfig, SecAggKind, SeededMasker};
use ppml::data::{synth, Partition};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ds = synth::cancer_like(200, 3);
    let (train, test) = ds.split(0.5, 4)?;
    let parts = Partition::horizontal(&train, 4, 5)?;
    let cfg = AdmmConfig::default().with_max_iter(30);

    println!("{:<10} {:>10} {:>12}", "backend", "accuracy", "train time");
    let mut models = Vec::new();
    for kind in [
        SecAggKind::Pairwise,
        SecAggKind::Shamir,
        SecAggKind::Paillier,
    ] {
        let started = Instant::now();
        let out = HorizontalLinearSvm::train_with(&parts, &cfg, None, SecAggConfig::new(kind))?;
        let took = started.elapsed();
        let accuracy = out.model.accuracy(&test);
        println!("{:<10} {accuracy:>10.4} {took:>12.1?}", kind.as_str());
        models.push(out.model);
    }
    assert!(
        models.windows(2).all(|pair| pair[0] == pair[1]),
        "the backends trained different models"
    );
    println!("all three backends trained the same model, bit for bit");

    // What the reducer sees from learner 0 of 4 in round 0.
    println!("\ninside pairwise masking (what the reducer sees from learner 0):");
    let masker = SeededMasker::new(cfg.seed, 0, 4);
    let secret = 0.123_456;
    let share = masker.mask_share(&[secret], 0)?;
    println!("  secret value     : {secret}");
    println!(
        "  fixed-point code : {:#018x}",
        masker.codec().encode_u64(secret)?
    );
    println!(
        "  masked share     : {:#018x}  (the masks cancel only in the sum over all four)",
        share[0]
    );
    Ok(())
}
