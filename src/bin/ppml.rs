//! `ppml` command-line interface: generate workloads, train
//! privacy-preserving SVMs over CSV data, and evaluate saved models.
//!
//! ```text
//! ppml gen   --dataset cancer --n 569 --seed 1 --out data.csv
//! ppml train --mode hl --data data.csv --learners 4 --iters 100 \
//!            --c 50 --rho 100 --out model.txt [--model-out model.bin] \
//!            [--cluster] [--telemetry events.jsonl]
//! ppml eval  --model model.bin --data test.csv
//! ```
//!
//! `train --telemetry PATH` streams structured events (rounds, ADMM
//! residuals, cluster task attempts, phase timings) as JSONL to `PATH`
//! and prints a human summary at exit — sizes, timings and counts only,
//! never data or model coordinates.
//!
//! Training modes: `hl` (horizontal linear), `vl` (vertical linear),
//! `central` (the baseline), and `kernel` (centralized kernel SVM —
//! nonlinear, so it has no flat-text format and requires `--model-out`).
//! `--model-out` writes the checksummed binary `PPMLMODL` format that
//! `ppml-serve` loads and hot-reloads; `--out` writes the legacy
//! flat-text linear format. `ppml eval` accepts either.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;

use ppml::core::jobs::{train_linear_on_cluster, ClusterTuning};
use ppml::core::{AdmmConfig, HorizontalLinearSvm, VerticalLinearSvm};
use ppml::data::{synth, Dataset, Partition};
use ppml::kernel::Kernel;
use ppml::serve::SavedModel;
use ppml::svm::{KernelSvm, LinearSvm, SvmParams};
use ppml::telemetry::{self, FanoutSink, JsonlSink, Sink, SummarySink};

fn usage() -> String {
    "usage:\n  ppml gen   --dataset <cancer|higgs|ocr|blobs|xor> --n <N> [--seed S] --out FILE\n  \
     ppml split --data FILE [--fraction F] [--seed S] --train FILE --test FILE\n  \
     ppml train --mode <hl|vl|central|kernel> --data FILE [--learners M] [--iters T]\n             \
     [--c C] [--rho RHO] [--seed S] [--cluster] [--telemetry EVENTS.jsonl]\n             \
     [--kernel <linear|rbf|poly|sigmoid>] [--gamma G] [--degree D] [--coef0 R]\n             \
     [--out MODEL.txt] [--model-out MODEL.bin]\n  \
     ppml eval  --model MODEL --data FILE\n\n\
     note: each `gen` seed draws a fresh task distribution — create one file\n\
     and `split` it, rather than generating train and test separately"
        .to_string()
}

fn cmd_split(flags: BTreeMap<String, String>) -> Result<(), String> {
    let data = load_dataset(required(&flags, "data")?)?;
    let fraction: f64 = numeric(&flags, "fraction", 0.5)?;
    let seed: u64 = numeric(&flags, "seed", 1)?;
    let (train, test) = data.split(fraction, seed).map_err(|e| e.to_string())?;
    let train_path = required(&flags, "train")?;
    let test_path = required(&flags, "test")?;
    std::fs::write(train_path, train.to_csv()).map_err(|e| e.to_string())?;
    std::fs::write(test_path, test.to_csv()).map_err(|e| e.to_string())?;
    println!(
        "split {} samples into {} train ({train_path}) / {} test ({test_path})",
        data.len(),
        train.len(),
        test.len()
    );
    Ok(())
}

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {flag}"))?;
        if key == "cluster" {
            map.insert(key.to_string(), "true".to_string());
        } else {
            let value = it
                .next()
                .ok_or_else(|| format!("missing value for --{key}"))?;
            map.insert(key.to_string(), value.clone());
        }
    }
    Ok(map)
}

fn required<'a>(flags: &'a BTreeMap<String, String>, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| format!("missing required --{key}"))
}

fn numeric<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad value {v}")),
    }
}

fn cmd_gen(flags: BTreeMap<String, String>) -> Result<(), String> {
    let n: usize = numeric(&flags, "n", 500)?;
    let seed: u64 = numeric(&flags, "seed", 1)?;
    let out = required(&flags, "out")?;
    let ds = match required(&flags, "dataset")? {
        "cancer" => synth::cancer_like(n, seed),
        "higgs" => synth::higgs_like(n, seed),
        "ocr" => synth::ocr_like(n, seed),
        "blobs" => synth::blobs(n, seed),
        "xor" => synth::xor_like(n, seed),
        other => return Err(format!("unknown dataset {other}")),
    };
    std::fs::write(out, ds.to_csv()).map_err(|e| e.to_string())?;
    println!(
        "wrote {} samples x {} features to {out}",
        ds.len(),
        ds.features()
    );
    Ok(())
}

fn load_dataset(path: &str) -> Result<Dataset, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Dataset::from_csv(&text).map_err(|e| format!("{path}: {e}"))
}

/// Kernel selection from `--kernel` + its parameter flags, libsvm-style:
/// poly is `(gamma·⟨x,y⟩ + coef0)^degree`, sigmoid takes its scale from
/// `--gamma`.
fn parse_kernel(flags: &BTreeMap<String, String>) -> Result<Kernel, String> {
    match flags.get("kernel").map(String::as_str).unwrap_or("rbf") {
        "linear" => Ok(Kernel::Linear),
        "rbf" => Ok(Kernel::Rbf {
            gamma: numeric(flags, "gamma", 0.5)?,
        }),
        "poly" => Ok(Kernel::Polynomial {
            a: numeric(flags, "gamma", 1.0)?,
            b: numeric(flags, "coef0", 1.0)?,
            degree: numeric(flags, "degree", 3u32)?,
        }),
        "sigmoid" => Ok(Kernel::Sigmoid {
            c: numeric(flags, "gamma", 0.01)?,
        }),
        other => Err(format!("unknown kernel {other}")),
    }
}

fn cmd_train(flags: BTreeMap<String, String>) -> Result<(), String> {
    let data = load_dataset(required(&flags, "data")?)?;
    let learners: usize = numeric(&flags, "learners", 4)?;
    let iters: usize = numeric(&flags, "iters", 100)?;
    let c: f64 = numeric(&flags, "c", 50.0)?;
    let rho: f64 = numeric(&flags, "rho", 100.0)?;
    let seed: u64 = numeric(&flags, "seed", 1)?;
    let out = flags.get("out").map(String::as_str);
    let model_out = flags.get("model-out").map(String::as_str);
    if out.is_none() && model_out.is_none() {
        return Err("need --out (flat text) and/or --model-out (binary)".to_string());
    }
    let on_cluster = flags.contains_key("cluster");
    let cfg = AdmmConfig::default()
        .with_c(c)
        .with_rho(rho)
        .with_max_iter(iters)
        .with_seed(seed);
    // Install telemetry before training so every trainer event is caught.
    let telemetry_out = match flags.get("telemetry") {
        Some(path) => {
            let jsonl = JsonlSink::create(std::path::Path::new(path))
                .map_err(|e| format!("--telemetry {path}: {e}"))?;
            let summary = SummarySink::new();
            telemetry::install(FanoutSink::new(vec![
                jsonl as Arc<dyn Sink>,
                summary.clone(),
            ]));
            Some((summary, path.clone()))
        }
        None => None,
    };

    let (saved, trace): (SavedModel, Vec<f64>) = match required(&flags, "mode")? {
        "central" => {
            let m = LinearSvm::train(&data, c).map_err(|e| e.to_string())?;
            (SavedModel::Linear(m), Vec::new())
        }
        "kernel" => {
            let params = SvmParams {
                c,
                kernel: parse_kernel(&flags)?,
                ..Default::default()
            };
            let m = KernelSvm::train(&data, &params).map_err(|e| e.to_string())?;
            (SavedModel::Kernel(m), Vec::new())
        }
        "hl" => {
            let parts = Partition::horizontal(&data, learners, seed).map_err(|e| e.to_string())?;
            if on_cluster {
                let (outcome, metrics) =
                    train_linear_on_cluster(&parts, &cfg, None, ClusterTuning::default())
                        .map_err(|e| e.to_string())?;
                println!(
                    "cluster: locality {:.2}, {} B shuffled, {} B broadcast",
                    metrics.locality_ratio(),
                    metrics.bytes_shuffled,
                    metrics.bytes_broadcast
                );
                (SavedModel::Linear(outcome.model), outcome.history.z_delta)
            } else {
                let outcome =
                    HorizontalLinearSvm::train(&parts, &cfg, None).map_err(|e| e.to_string())?;
                (SavedModel::Linear(outcome.model), outcome.history.z_delta)
            }
        }
        "vl" => {
            let view = Partition::vertical(&data, learners, seed).map_err(|e| e.to_string())?;
            let outcome = VerticalLinearSvm::train(&view, &cfg, None).map_err(|e| e.to_string())?;
            (
                SavedModel::Linear(outcome.model.to_linear_svm()),
                outcome.history.z_delta,
            )
        }
        other => return Err(format!("unknown mode {other}")),
    };

    if let Some(out) = out {
        let SavedModel::Linear(linear) = &saved else {
            return Err(
                "--mode kernel has no flat-text format; write it with --model-out".to_string(),
            );
        };
        std::fs::write(out, linear.to_text()).map_err(|e| e.to_string())?;
    }
    if let Some(model_out) = model_out {
        saved
            .save(Path::new(model_out))
            .map_err(|e| e.to_string())?;
    }
    println!(
        "trained on {} samples; train accuracy {:.3}",
        data.len(),
        model_accuracy(&saved, &data)
    );
    if let Some(last) = trace.last() {
        println!(
            "final consensus movement: {last:.3e} after {} iterations",
            trace.len()
        );
    }
    match (out, model_out) {
        (Some(o), Some(m)) => println!("model written to {o} (text) and {m} (binary)"),
        (Some(o), None) => println!("model written to {o}"),
        (None, Some(m)) => println!("model written to {m}"),
        (None, None) => unreachable!("validated above"),
    }
    if let Some((summary, path)) = telemetry_out {
        telemetry::uninstall();
        print!("{}", summary.render());
        println!("telemetry written to {path}");
    }
    Ok(())
}

/// Accuracy of a saved model over a dataset (dimension mismatches count
/// as wrong, though `train` can never produce one).
fn model_accuracy(model: &SavedModel, data: &Dataset) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let correct = (0..data.len())
        .filter(|&i| {
            model
                .classify(data.sample(i))
                .map(|label| label == data.label(i))
                .unwrap_or(false)
        })
        .count();
    correct as f64 / data.len() as f64
}

fn cmd_eval(flags: BTreeMap<String, String>) -> Result<(), String> {
    let model =
        SavedModel::load_auto(Path::new(required(&flags, "model")?)).map_err(|e| e.to_string())?;
    let path = required(&flags, "data")?;
    let data = load_dataset(path)?;
    let pairs = (0..data.len())
        .map(|i| Ok((model.classify(data.sample(i))?, data.label(i))))
        .collect::<ppml::svm::Result<Vec<_>>>()
        .map_err(|e| format!("{path}: {e}"))?;
    let confusion = ppml::svm::confusion(pairs);
    println!("samples   : {}", confusion.total());
    println!("accuracy  : {:.4}", confusion.accuracy());
    println!("precision : {:.4}", confusion.precision());
    println!("recall    : {:.4}", confusion.recall());
    println!("f1        : {:.4}", confusion.f1());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let result = parse_flags(rest).and_then(|flags| match cmd.as_str() {
        "gen" => cmd_gen(flags),
        "split" => cmd_split(flags),
        "train" => cmd_train(flags),
        "eval" => cmd_eval(flags),
        _ => Err(usage()),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
