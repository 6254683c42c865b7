//! `serve_frames` and `serve_http`: one closed-loop client scoring
//! batches against `ppml-serve`'s two fronts, every margin compared bit
//! for bit with the saved model scoring the same row in process.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use ppml_data::{rng, synth, Dataset};
use ppml_kernel::Kernel;
use ppml_serve::{router, Engine, FrameScoreClient, FrameServer, SavedModel};
use ppml_svm::{KernelSvm, LinearSvm, SvmParams};
use ppml_telemetry::{request, HttpServer, MetricsRegistry};
use ppml_transport::Message;

use super::{mean, Traced, Workload};
use crate::probes;
use crate::spans::Spans;
use crate::stats::median;
use crate::tap::Tap;

/// `serve_frames`: an RBF model on OCR-like rows (64 features), scored
/// 256 rows at a time over one persistent frame connection.
const FRAMES_TRAIN_ROWS: usize = 600;
const FRAMES_BATCH: usize = 256;
const FRAMES_WARMUP_OPS: usize = 80;
/// Narrow enough that nearly every training row becomes a support
/// vector (565–585 of 600 over ten seeds), so the model's size — the
/// op's cost — barely depends on which rows the seed drew, and wide
/// enough that it still generalises (held-out accuracy 0.95–0.99).
const FRAMES_GAMMA: f64 = 0.1;

/// `serve_http`: a linear model on cancer-like rows (9 features), 512
/// rows per `POST /score`, a new connection per request. The batch is
/// this large so that the op's CPU (parsing and rendering ~100 KB of
/// text, ~0.8 ms) is not lost in the ±0.05 ms that waking three idle
/// threads costs from one run to the next; the op is still the 25 ms
/// accept-poll sleep, of which that CPU is 3 %.
const HTTP_TRAIN_ROWS: usize = 400;
const HTTP_BATCH: usize = 512;
const HTTP_WARMUP_OPS: usize = 32;

/// Distinct batches an op cycles through, so that no op's cost or size
/// hangs on one batch's rows.
const POOL: usize = 32;
/// The same for `serve_http`, whose batches are sixteen times the text.
const HTTP_POOL: usize = 8;

/// A batch, the margins the saved model gives its rows in process, and
/// what scoring it puts on the wire (request and reply).
struct Batch<R> {
    request: R,
    expected: Vec<u64>,
    wire_bytes: u64,
}

/// Trains, saves and loads back a model the way `ppml train
/// --model-out` and `ppml-serve --model` do, and puts it in an engine.
fn serve_model(model: SavedModel, name: &str, spans: &mut Spans) -> (Arc<Engine>, SavedModel) {
    let path = PathBuf::from("benchmark/out").join(format!("{name}-{}.bin", std::process::id()));
    std::fs::create_dir_all("benchmark/out").expect("create benchmark/out");
    let bytes = spans.time("serve.model_save", |_| {
        model.save(&path).expect("save model")
    });
    let loaded = spans.time("serve.model_load", |_| {
        SavedModel::load(&path).expect("load model")
    });
    std::fs::remove_file(&path).expect("remove the model file");
    (Engine::new(loaded.clone(), bytes as u64), loaded)
}

fn expected_margins(model: &SavedModel, rows: &Dataset, range: std::ops::Range<usize>) -> Vec<u64> {
    range
        .map(|i| {
            model
                .decision(rows.sample(i))
                .expect("feature count")
                .to_bits()
        })
        .collect()
}

fn accuracy_of(model: &SavedModel, data: &Dataset) -> f64 {
    match model {
        SavedModel::Kernel(m) => m.accuracy(data),
        SavedModel::Linear(m) => m.accuracy(data),
    }
}

/// What a client that is not yet connected waits for its first batch
/// on the frame front at `address`: whatever the accept loop charges,
/// plus the score. Median of five, in milliseconds.
fn connect_first_score_ms(address: &str, features: usize, xs: &[f64], expected: &[u64]) -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let margins = FrameScoreClient::connect(address)
                .and_then(|mut client| client.score(features as u32, xs.to_vec()));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            assert!(margins.is_ok_and(|m| margins_match(&m, expected)));
            ms
        })
        .collect();
    median(&samples)
}

/// Whether `got` is exactly the margins the in-process model computed.
pub fn margins_match(got: &[f64], expected: &[u64]) -> bool {
    got.len() == expected.len() && got.iter().zip(expected).all(|(g, e)| g.to_bits() == *e)
}

/// Seed of the rows both models are trained on and held out from. It
/// is pinned: the kernel model's support-vector count, which the frame
/// op's cost is proportional to, differs by a few percent between
/// training sets. The run's seed picks which held-out rows are scored,
/// and in which order.
const DATA_SEED: u64 = 1;

/// Generates `train_rows` training rows and `held_out` rows held out of
/// them, and picks `requested` of the latter, by the run's seed, to be
/// the rows the ops score.
fn rows(
    synth: fn(usize, u64) -> Dataset,
    train_rows: usize,
    held_out: usize,
    requested: usize,
    seed: u64,
    spans: &mut Spans,
) -> (Dataset, Dataset, Dataset) {
    let data = spans.time("data.synth", |_| synth(train_rows + held_out, DATA_SEED));
    spans.time("data.partition", |_| {
        let fraction = train_rows as f64 / data.len() as f64;
        let (train, held_out) = data.split(fraction, DATA_SEED ^ 0x51).expect("split");
        let order = rng::permutation(held_out.len(), &mut rng::seeded(seed));
        let requests = held_out.select(&order[..requested]);
        (train, held_out, requests)
    })
}

pub struct Frames {
    // Declared before the server so the connection closes first.
    client: FrameScoreClient,
    server: FrameServer,
    engine: Arc<Engine>,
    pool: Vec<Batch<Vec<f64>>>,
    next: usize,
    wire_bytes: u64,
    features: usize,
    accuracy: f64,
}

impl Frames {
    pub fn new(seed: u64, spans: &mut Spans) -> Frames {
        let (train, held_out, test) = rows(
            synth::ocr_like,
            FRAMES_TRAIN_ROWS,
            2 * POOL * FRAMES_BATCH,
            POOL * FRAMES_BATCH,
            seed,
            spans,
        );
        let params = SvmParams {
            kernel: Kernel::Rbf {
                gamma: FRAMES_GAMMA,
            },
            ..SvmParams::default()
        };
        let trained = spans.time("svm.train", |_| {
            KernelSvm::train(&train, &params).expect("train the RBF model")
        });
        let (engine, model) = serve_model(SavedModel::Kernel(trained), "frames", spans);
        let features = model.features();
        let mut pool = spans.time("reference", |_| {
            (0..POOL)
                .map(|b| {
                    let rows = b * FRAMES_BATCH..(b + 1) * FRAMES_BATCH;
                    Batch {
                        request: rows.clone().flat_map(|i| test.sample(i).to_vec()).collect(),
                        expected: expected_margins(&model, &test, rows),
                        wire_bytes: 0,
                    }
                })
                .collect::<Vec<Batch<Vec<f64>>>>()
        });
        let accuracy = accuracy_of(&model, &held_out);
        let (server, client) = spans.time("serve.bind", |_| {
            let server = FrameServer::serve("127.0.0.1:0", engine.clone()).expect("bind frames");
            let client = FrameScoreClient::connect(&server.local_addr().to_string())
                .expect("connect to the frame front");
            (server, client)
        });
        spans.time("wire.calibrate", |_| {
            let tap = Tap::open(server.local_addr()).expect("open the tap");
            let mut tapped = FrameScoreClient::connect(&tap.address()).expect("connect via tap");
            for batch in &mut pool {
                let before = tap.bytes();
                let margins = tapped.score(features as u32, batch.request.clone());
                assert!(
                    margins.is_ok_and(|m| margins_match(&m, &batch.expected)),
                    "the frame front disagrees with the model it serves"
                );
                batch.wire_bytes = tap.bytes() - before;
            }
        });
        Frames {
            client,
            server,
            engine,
            pool,
            next: 0,
            wire_bytes: 0,
            features,
            accuracy,
        }
    }
}

impl Workload for Frames {
    fn op(&mut self, spans: &mut Spans) -> bool {
        let batch = &self.pool[self.next % POOL];
        self.next += 1;
        self.wire_bytes += batch.wire_bytes;
        let (client, features) = (&mut self.client, self.features as u32);
        let margins = spans.time("serve.frames.score", |_| {
            client.score(features, batch.request.clone())
        });
        margins.is_ok_and(|m| margins_match(&m, &batch.expected))
    }

    fn warmup_ops(&self) -> usize {
        FRAMES_WARMUP_OPS
    }

    fn rows_per_op(&self) -> f64 {
        FRAMES_BATCH as f64
    }

    fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    fn accuracy(&self) -> f64 {
        self.accuracy
    }

    fn layers(&mut self, traced: &Traced<'_>) -> Vec<(&'static str, f64)> {
        let engine_us: Vec<f64> = (0..3 * POOL)
            .map(|i| {
                let batch = &self.pool[i % POOL];
                let start = Instant::now();
                let margins = self.engine.score_batch(self.features, &batch.request);
                let us = start.elapsed().as_secs_f64() * 1e6;
                assert!(margins.is_ok_and(|m| margins_match(&m, &batch.expected)));
                us
            })
            .collect();
        let engine_us = median(&engine_us);
        let first = &self.pool[0];
        let connect_ms = connect_first_score_ms(
            &self.server.local_addr().to_string(),
            self.features,
            &first.request,
            &first.expected,
        );
        let model = self.engine.current();
        let row = &self.pool[0].request[..self.features];
        let decision_us = probes::median_ns(200, || model.model.decision(row)) / 1e3;
        let mut out = probes::frame_codec(Message::Score {
            request_id: 1,
            features: self.features as u32,
            xs: self.pool[0].request.clone(),
        });
        if let SavedModel::Kernel(svm) = &model.model {
            out.push((
                "kernel.eval_ns",
                probes::kernel_eval_ns(svm.kernel(), svm.support_vectors().0),
            ));
        }
        out.extend([
            ("svm.decision_us_per_row", decision_us),
            ("serve.engine_us_per_batch", engine_us),
            (
                "serve.front_overhead_us",
                traced.op_ms_p50 * 1e3 - engine_us,
            ),
            (
                "serve.model_load_us",
                mean(&traced.spans.durations_ms("serve.model_load")) * 1e3,
            ),
            ("serve.connect_first_score_ms", connect_ms),
            ("data.synth_ms", traced.spans.total_ms("data.synth")),
            ("data.partition_ms", traced.spans.total_ms("data.partition")),
        ]);
        out
    }
}

pub struct Http {
    /// Held for its lifetime: dropping it stops the accept loop.
    _server: HttpServer,
    address: String,
    engine: Arc<Engine>,
    pool: Vec<Batch<Vec<u8>>>,
    next: usize,
    wire_bytes: u64,
    accuracy: f64,
}

/// The text body of `POST /score`: a row per line, features separated
/// by commas, every digit kept so the server parses the exact `f64`.
fn http_body(rows: &Dataset, range: std::ops::Range<usize>) -> Vec<u8> {
    let mut body = String::new();
    for i in range {
        let row: Vec<String> = rows.sample(i).iter().map(f64::to_string).collect();
        body.push_str(&row.join(","));
        body.push('\n');
    }
    body.into_bytes()
}

/// Parses a `/score` reply (`label margin` per line) and checks every
/// margin against the in-process ones and every label against its sign.
pub fn http_reply_matches(body: &str, expected: &[u64]) -> bool {
    let lines: Vec<&str> = body.lines().collect();
    lines.len() == expected.len()
        && lines.iter().zip(expected).all(|(line, want)| {
            let Some((label, margin)) = line.split_once(' ') else {
                return false;
            };
            let want_label = if f64::from_bits(*want) >= 0.0 {
                "1"
            } else {
                "-1"
            };
            label == want_label && margin.parse::<f64>().is_ok_and(|m| m.to_bits() == *want)
        })
}

impl Http {
    pub fn new(seed: u64, spans: &mut Spans) -> Http {
        let (train, held_out, test) = rows(
            synth::cancer_like,
            HTTP_TRAIN_ROWS,
            2 * HTTP_POOL * HTTP_BATCH,
            HTTP_POOL * HTTP_BATCH,
            seed,
            spans,
        );
        let trained = spans.time("svm.train", |_| {
            LinearSvm::train(&train, 50.0).expect("train the linear model")
        });
        let (engine, model) = serve_model(SavedModel::Linear(trained), "http", spans);
        let mut pool = spans.time("reference", |_| {
            (0..HTTP_POOL)
                .map(|b| {
                    let rows = b * HTTP_BATCH..(b + 1) * HTTP_BATCH;
                    Batch {
                        request: http_body(&test, rows.clone()),
                        expected: expected_margins(&model, &test, rows),
                        wire_bytes: 0,
                    }
                })
                .collect::<Vec<_>>()
        });
        let accuracy = accuracy_of(&model, &held_out);
        let server = spans.time("serve.bind", |_| {
            let registry = Arc::new(MetricsRegistry::new());
            HttpServer::serve("127.0.0.1:0", router(engine.clone(), registry)).expect("bind http")
        });
        spans.time("wire.calibrate", |_| {
            let tap = Tap::open(server.local_addr()).expect("open the tap");
            for batch in &mut pool {
                let before = tap.bytes();
                let reply = request(&tap.address(), "POST", "/score", &batch.request);
                assert!(
                    reply.is_ok_and(|(status, body)| status == 200
                        && http_reply_matches(&body, &batch.expected)),
                    "the HTTP front disagrees with the model it serves"
                );
                batch.wire_bytes = tap.bytes() - before;
            }
        });
        Http {
            address: server.local_addr().to_string(),
            _server: server,
            engine,
            pool,
            next: 0,
            wire_bytes: 0,
            accuracy,
        }
    }
}

impl Workload for Http {
    fn op(&mut self, spans: &mut Spans) -> bool {
        let batch = &self.pool[self.next % HTTP_POOL];
        self.next += 1;
        self.wire_bytes += batch.wire_bytes;
        let reply = spans.time("serve.http.score", |_| {
            request(&self.address, "POST", "/score", &batch.request)
        });
        reply
            .is_ok_and(|(status, body)| status == 200 && http_reply_matches(&body, &batch.expected))
    }

    fn warmup_ops(&self) -> usize {
        HTTP_WARMUP_OPS
    }

    fn rows_per_op(&self) -> f64 {
        HTTP_BATCH as f64
    }

    fn wire_bytes(&self) -> u64 {
        self.wire_bytes
    }

    fn accuracy(&self) -> f64 {
        self.accuracy
    }

    fn layers(&mut self, traced: &Traced<'_>) -> Vec<(&'static str, f64)> {
        let floor_ms: Vec<f64> = (0..10)
            .map(|_| {
                let start = Instant::now();
                let reply = request(&self.address, "GET", "/healthz", b"");
                let ms = start.elapsed().as_secs_f64() * 1e3;
                assert!(reply.is_ok_and(|(status, _)| status == 200));
                ms
            })
            .collect();
        // What a new connection costs on the other front, whose accept
        // loop is the same mechanism.
        let frames = FrameServer::serve("127.0.0.1:0", self.engine.clone()).expect("bind frames");
        let model = self.engine.current();
        let features = model.model.features();
        let row: Vec<f64> = (0..features).map(|j| (j as f64 * 0.7).cos()).collect();
        let expected = [model.model.decision(&row).expect("feature count").to_bits()];
        let connect_ms =
            connect_first_score_ms(&frames.local_addr().to_string(), features, &row, &expected);
        let decision_ns = probes::median_ns_batched(200, 100, || {
            model.model.decision(std::hint::black_box(&row))
        });
        let batch: Vec<f64> = row
            .iter()
            .copied()
            .cycle()
            .take(features * HTTP_BATCH)
            .collect();
        let engine_us = probes::median_ns(200, || self.engine.score_batch(features, &batch)) / 1e3;
        vec![
            ("svm.linear_decision_ns_per_row", decision_ns),
            ("serve.connect_first_score_ms", connect_ms),
            ("serve.engine_us_per_batch", engine_us),
            (
                "serve.front_overhead_us",
                traced.op_ms_p50 * 1e3 - engine_us,
            ),
            ("serve.http_floor_ms", median(&floor_ms)),
            (
                "serve.model_load_us",
                mean(&traced.spans.durations_ms("serve.model_load")) * 1e3,
            ),
            ("data.synth_ms", traced.spans.total_ms("data.synth")),
            ("data.partition_ms", traced.spans.total_ms("data.partition")),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_perturbed_margin_fails_the_op() {
        let expected: Vec<u64> = [0.25f64, -1.5, 3.0].iter().map(|m| m.to_bits()).collect();
        assert!(margins_match(&[0.25, -1.5, 3.0], &expected));
        let nudged = f64::from_bits(0.25f64.to_bits() + 1);
        assert!(!margins_match(&[nudged, -1.5, 3.0], &expected));
        assert!(
            !margins_match(&[0.25, -1.5], &expected),
            "a short reply must fail"
        );
    }

    #[test]
    fn an_http_reply_is_checked_margin_by_margin_and_label_by_label() {
        let expected: Vec<u64> = [1.0f64 / 3.0, -2.0].iter().map(|m| m.to_bits()).collect();
        let good = format!("1 {}\n-1 {}\n", 1.0f64 / 3.0, -2.0f64);
        assert!(http_reply_matches(&good, &expected));
        assert!(!http_reply_matches(
            "1 0.3333333333333334\n-1 -2\n",
            &expected
        ));
        assert!(!http_reply_matches(&good.replace("-1 ", "1 "), &expected));
        assert!(!http_reply_matches("1 0.3333333333333333\n", &expected));
    }
}
