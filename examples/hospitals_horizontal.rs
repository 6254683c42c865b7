//! The paper's motivating scenario (§I): several medical institutions
//! discover correlations between symptoms and diagnoses from patients'
//! records — *horizontally* partitioned data (each hospital holds complete
//! records for its own patients).
//!
//! This example runs the **nonlinear** trainer on an actual simulated
//! MapReduce cluster: one data node per hospital, patient records pinned to
//! their hospital's node, kernel consensus through landmark projections,
//! and the §V masking protocol at the Reduce step. A task failure is
//! injected mid-training to show re-execution does not disturb the result.
//!
//! ```text
//! cargo run --example hospitals_horizontal --release
//! ```

use ppml::core::jobs::{train_kernel_on_cluster, ClusterTuning};
use ppml::core::AdmmConfig;
use ppml::data::{synth, Partition};
use ppml::kernel::Kernel;
use ppml::mapreduce::{BlockId, FaultPlan};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Patient records with a nonlinearly separable diagnosis boundary.
    let records = synth::xor_like(600, 11);
    let (train, test) = records.split(0.5, 3)?;
    let hospitals = Partition::horizontal(&train, 4, 5)?;
    for (i, h) in hospitals.iter().enumerate() {
        let (pos, neg) = h.class_counts();
        println!(
            "hospital {i}: {} patients ({pos} positive, {neg} negative)",
            h.len()
        );
    }

    let cfg = AdmmConfig::default()
        .with_kernel(Kernel::Rbf { gamma: 0.5 })
        .with_landmarks(20)
        .with_max_iter(40);

    // Inject a map-task failure at iteration 3 on hospital 2's node: the
    // cluster re-executes the attempt elsewhere and training proceeds.
    let tuning = ClusterTuning {
        fault_plan: FaultPlan::new().fail_first_attempts(3, BlockId(2), 1),
        max_attempts: Some(3),
    };

    let (outcome, metrics) = train_kernel_on_cluster(&hospitals, &cfg, Some(&test), tuning)?;

    println!(
        "\nkernel consensus accuracy: {:.3}",
        outcome.model.accuracy(&test)
    );
    println!("accuracy by iteration (every 5th):");
    for (i, a) in outcome.history.accuracy.iter().enumerate() {
        if i % 5 == 0 {
            println!("  iter {:>3}: {a:.3}", i + 1);
        }
    }

    println!("\ncluster metrics over {} iterations:", metrics.iterations);
    println!("  data-local map tasks : {}", metrics.locality_hits);
    println!("  remote reads         : {}", metrics.remote_reads);
    println!("  task retries (fault) : {}", metrics.task_retries);
    println!("  bytes shuffled       : {}", metrics.bytes_shuffled);
    println!("  bytes broadcast      : {}", metrics.bytes_broadcast);
    let raw = 8 * train.len() * (train.features() + 1);
    println!(
        "  raw training data    : {raw} bytes (never moved; locality ratio {:.2})",
        metrics.locality_ratio()
    );
    Ok(())
}
