//! Real-process serving drills: a `ppml` child trains and saves a model,
//! a `ppml-serve` child serves it, and this test is the client
//! (ISSUE 6 acceptance).
//!
//! What must hold, over actual sockets against an actual child process:
//!
//! - the margins served over HTTP and over the frame protocol are
//!   **bit-identical** to loading the same model file in-process and
//!   calling `decision` — the two fronts and the library are one code
//!   path, and the text protocol round-trips f64 exactly;
//! - hot reload: overwriting the model file atomically swaps the model
//!   in without failing a single in-flight request, and `/model`'s
//!   generation counter ticks;
//! - `/metrics` tells the story: request counts, reload counts and a
//!   populated latency histogram;
//! - `ppml eval` prints the same report for the flat-text and binary
//!   encodings of the same model.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ppml::serve::{score_over_frames, SavedModel};
use ppml::svm::LinearSvm;
use ppml::telemetry::request;

const PPML: &str = env!("CARGO_BIN_EXE_ppml");
const SERVE: &str = env!("CARGO_BIN_EXE_ppml-serve");

fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ppml_serve_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_ppml(args: &[&str]) -> String {
    let out = Command::new(PPML).args(args).output().expect("run ppml");
    assert!(
        out.status.success(),
        "ppml {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).to_string()
}

/// A running `ppml-serve` child: parsed front addresses plus the stdin
/// handle that keeps it alive (dropping it asks for a clean shutdown).
struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    http: String,
    frames: String,
}

impl Server {
    fn spawn(model: &Path, watch_ms: u64) -> Server {
        let mut child = Command::new(SERVE)
            .args([
                "--model",
                model.to_str().expect("utf-8 path"),
                "--watch-ms",
                &watch_ms.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ppml-serve");
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let mut http = None;
        let mut frames = None;
        while http.is_none() || frames.is_none() {
            let mut line = String::new();
            assert_ne!(
                reader.read_line(&mut line).expect("read serve stdout"),
                0,
                "ppml-serve exited before announcing its fronts"
            );
            let line = line.trim();
            if let Some(addr) = line.strip_prefix("http: ") {
                http = Some(addr.to_string());
            } else if let Some(addr) = line.strip_prefix("frames: ") {
                frames = Some(addr.to_string());
            }
        }
        // Keep draining stdout so the child never blocks on a full pipe.
        thread::spawn(move || {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
        });
        Server {
            child,
            stdin,
            http: http.expect("http addr"),
            frames: frames.expect("frames addr"),
        }
    }

    /// Asks for a clean shutdown (stdin EOF) and asserts exit 0.
    fn shutdown(mut self) {
        drop(self.stdin.take());
        let status = self.child.wait().expect("wait ppml-serve");
        assert!(status.success(), "ppml-serve exited {status}");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Renders rows as a `POST /score` body using shortest-round-trip float
/// formatting, so the server parses back the identical f64s.
fn score_body(features: usize, xs: &[f64]) -> Vec<u8> {
    let mut body = String::new();
    for row in xs.chunks_exact(features) {
        let cells: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        body.push_str(&cells.join(","));
        body.push('\n');
    }
    body.into_bytes()
}

/// Parses `label margin` lines back into margins.
fn parse_margins(body: &str) -> Vec<f64> {
    body.lines()
        .map(|line| {
            let (_, margin) = line.split_once(' ').expect("label margin");
            margin.parse().expect("parse margin")
        })
        .collect()
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: margin {i} differs ({x} vs {y})"
        );
    }
}

/// Probe rows exercising negative values and non-terminating fractions.
fn probes(features: usize, rows: usize) -> Vec<f64> {
    (0..rows * features)
        .map(|k| ((k as f64) + 1.0 / 3.0) * if k % 3 == 0 { -0.7 } else { 0.9 })
        .collect()
}

fn metric_value(metrics: &str, line_prefix: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(line_prefix))
        .unwrap_or_else(|| panic!("{line_prefix} not in metrics:\n{metrics}"))
        .trim()
        .parse()
        .expect("metric value")
}

#[test]
fn served_scores_are_bit_identical_and_reload_drops_nothing() {
    let dir = scratch_dir("bit_identical");
    let data = dir.join("data.csv");
    let model = dir.join("model.bin");
    run_ppml(&[
        "gen",
        "--dataset",
        "blobs",
        "--n",
        "240",
        "--seed",
        "5",
        "--out",
        data.to_str().unwrap(),
    ]);
    run_ppml(&[
        "train",
        "--mode",
        "central",
        "--data",
        data.to_str().unwrap(),
        "--model-out",
        model.to_str().unwrap(),
    ]);

    let server = Server::spawn(&model, 50);
    let in_process = SavedModel::load_auto(&model).expect("load model in-process");
    let features = in_process.features();
    let xs = probes(features, 5);
    let expected: Vec<f64> = xs
        .chunks_exact(features)
        .map(|row| in_process.decision(row).expect("in-process decision"))
        .collect();

    // Front 1: HTTP.
    let (status, body) =
        request(&server.http, "POST", "/score", &score_body(features, &xs)).expect("http score");
    assert_eq!(status, 200, "{body}");
    assert_bits_eq(&parse_margins(&body), &expected, "http front");

    // Front 2: frames.
    let margins =
        score_over_frames(&server.frames, features as u32, xs.clone()).expect("frame score");
    assert_bits_eq(&margins, &expected, "frame front");

    // Hot reload under fire: hammer the frame front from two threads
    // while the model file is atomically replaced. Not one request may
    // fail; each reply must match one of the two models exactly.
    let replacement = SavedModel::Linear(LinearSvm::from_parts(
        (0..features).map(|j| 0.25 * (j as f64) - 1.0).collect(),
        2.5,
    ));
    let new_expected: Vec<f64> = xs
        .chunks_exact(features)
        .map(|row| replacement.decision(row).expect("replacement decision"))
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    let hammers: Vec<_> = (0..2)
        .map(|_| {
            let stop = stop.clone();
            let addr = server.frames.clone();
            let xs = xs.clone();
            let expected = expected.clone();
            let new_expected = new_expected.clone();
            thread::spawn(move || {
                let mut served = 0u64;
                while !stop.load(Ordering::SeqCst) {
                    let margins = score_over_frames(&addr, features as u32, xs.clone())
                        .expect("score during reload");
                    let old = margins
                        .iter()
                        .zip(&expected)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    let new = margins
                        .iter()
                        .zip(&new_expected)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(old || new, "reply matches neither model generation");
                    served += 1;
                }
                served
            })
        })
        .collect();

    thread::sleep(Duration::from_millis(100));
    replacement.save(&model).expect("atomic model replace");

    // Wait for /model to report generation 2.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = request(&server.http, "GET", "/model", b"").expect("get model");
        assert_eq!(status, 200);
        if body.contains("generation 2") {
            break;
        }
        assert!(Instant::now() < deadline, "reload never landed:\n{body}");
        thread::sleep(Duration::from_millis(20));
    }
    thread::sleep(Duration::from_millis(100));
    stop.store(true, Ordering::SeqCst);
    let served: u64 = hammers.into_iter().map(|h| h.join().expect("hammer")).sum();
    assert!(served > 0, "hammer threads never got a request through");

    // The swapped model now answers on both fronts.
    let margins =
        score_over_frames(&server.frames, features as u32, xs.clone()).expect("frame score");
    assert_bits_eq(&margins, &new_expected, "frame front after reload");
    let (status, body) =
        request(&server.http, "POST", "/score", &score_body(features, &xs)).expect("http score");
    assert_eq!(status, 200);
    assert_bits_eq(
        &parse_margins(&body),
        &new_expected,
        "http front after reload",
    );

    // Metrics: requests counted, two model loads, populated histogram.
    let (status, metrics) = request(&server.http, "GET", "/metrics", b"").expect("metrics");
    assert_eq!(status, 200);
    assert!(metric_value(&metrics, "ppml_score_requests_total ") > served);
    assert!(metric_value(&metrics, "ppml_model_reloads_total ") >= 2);
    assert_eq!(metric_value(&metrics, "ppml_model_generation "), 2);
    assert!(metric_value(&metrics, "ppml_score_latency_ns_count{} ") > 0);
    assert!(metric_value(&metrics, "ppml_score_rows_total ") as usize >= 5);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kernel_models_serve_bit_identically_too() {
    let dir = scratch_dir("kernel");
    let data = dir.join("data.csv");
    let model = dir.join("kmodel.bin");
    run_ppml(&[
        "gen",
        "--dataset",
        "xor",
        "--n",
        "160",
        "--seed",
        "9",
        "--out",
        data.to_str().unwrap(),
    ]);
    run_ppml(&[
        "train",
        "--mode",
        "kernel",
        "--kernel",
        "rbf",
        "--gamma",
        "0.5",
        "--data",
        data.to_str().unwrap(),
        "--model-out",
        model.to_str().unwrap(),
    ]);

    let server = Server::spawn(&model, 0);
    let in_process = SavedModel::load_auto(&model).expect("load kernel model");
    assert_eq!(in_process.kind(), "kernel");
    let features = in_process.features();
    let xs = probes(features, 7);
    let expected: Vec<f64> = xs
        .chunks_exact(features)
        .map(|row| in_process.decision(row).expect("in-process decision"))
        .collect();

    let margins =
        score_over_frames(&server.frames, features as u32, xs.clone()).expect("frame score");
    assert_bits_eq(&margins, &expected, "kernel frame front");
    let (status, body) =
        request(&server.http, "POST", "/score", &score_body(features, &xs)).expect("http score");
    assert_eq!(status, 200, "{body}");
    assert_bits_eq(&parse_margins(&body), &expected, "kernel http front");

    let (_, meta) = request(&server.http, "GET", "/model", b"").expect("get model");
    assert!(meta.contains("kind kernel"), "{meta}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eval_reports_identically_for_text_and_binary_models() {
    let dir = scratch_dir("eval_parity");
    let data = dir.join("data.csv");
    let text_model = dir.join("model.txt");
    let bin_model = dir.join("model.bin");
    run_ppml(&[
        "gen",
        "--dataset",
        "cancer",
        "--n",
        "200",
        "--seed",
        "11",
        "--out",
        data.to_str().unwrap(),
    ]);
    run_ppml(&[
        "train",
        "--mode",
        "central",
        "--data",
        data.to_str().unwrap(),
        "--out",
        text_model.to_str().unwrap(),
        "--model-out",
        bin_model.to_str().unwrap(),
    ]);

    let from_text = run_ppml(&[
        "eval",
        "--model",
        text_model.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
    ]);
    let from_bin = run_ppml(&[
        "eval",
        "--model",
        bin_model.to_str().unwrap(),
        "--data",
        data.to_str().unwrap(),
    ]);
    assert_eq!(
        from_text, from_bin,
        "eval diverges between encodings of the same model"
    );
    assert!(from_text.contains("accuracy"), "{from_text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eval_rejects_a_dataset_of_the_wrong_width() {
    let dir = scratch_dir("eval_width");
    let data = dir.join("data.csv");
    let model = dir.join("model.bin");
    let wide = dir.join("wide.csv");
    run_ppml(&[
        "gen",
        "--dataset",
        "blobs",
        "--n",
        "60",
        "--seed",
        "3",
        "--out",
        data.to_str().unwrap(),
    ]);
    run_ppml(&[
        "train",
        "--mode",
        "central",
        "--data",
        data.to_str().unwrap(),
        "--model-out",
        model.to_str().unwrap(),
    ]);
    // Three features and a label per row; the model was trained on two.
    std::fs::write(&wide, "0.5,1.0,-2.0,1\n-1.5,0.25,3.0,-1\n").unwrap();

    let out = Command::new(PPML)
        .args(["eval", "--model", model.to_str().unwrap()])
        .args(["--data", wide.to_str().unwrap()])
        .output()
        .expect("run ppml");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error:"), "{stderr}");
    assert!(stderr.contains("expected 2 features, found 3"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_refuses_bad_inputs_with_typed_exit_codes() {
    let dir = scratch_dir("exit_codes");
    // Missing --model → usage (2).
    let out = Command::new(SERVE).output().expect("run");
    assert_eq!(out.status.code(), Some(2));
    // Unreadable model → I/O (3).
    let out = Command::new(SERVE)
        .args(["--model", dir.join("absent.bin").to_str().unwrap()])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(3));
    // Corrupt model → I/O (3).
    let bad = dir.join("bad.bin");
    std::fs::write(&bad, b"PPMLMODLnot-really").unwrap();
    let out = Command::new(SERVE)
        .args(["--model", bad.to_str().unwrap()])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(3));
    // Unknown flag → usage (2).
    let out = Command::new(SERVE)
        .args(["--model", bad.to_str().unwrap(), "--bogus", "1"])
        .output()
        .expect("run");
    assert_eq!(out.status.code(), Some(2));
    let _ = std::fs::remove_dir_all(&dir);
}
