//! The HTTP front: `POST /score`, `GET /healthz`, `GET /model`,
//! `GET /metrics` on one [`Router`].
//!
//! The scoring wire format is deliberately plain text so `curl` is a
//! complete client: the request body is one sample per line, features
//! comma-separated; the response is one line per sample, `label margin`,
//! space-separated. Floats render through Rust's shortest-round-trip
//! `Display`, so parsing a response margin back with `str::parse::<f64>`
//! reproduces the server's f64 bit for bit — that is what lets the
//! integration tests assert serve-vs-in-process equality over a text
//! protocol.
//!
//! `GET /model` reports metadata only — kind, feature count, generation,
//! encoded size. Weights, support vectors and kernel parameters never
//! leave the process (the §V serving privacy rule); a client of this
//! server learns labels and margins for inputs it already owns, nothing
//! about the coordinates that produced them.

use std::sync::Arc;

use ppml_telemetry::{MetricsRegistry, Request, Response, Router};

use crate::engine::Engine;

/// Parses a `POST /score` body: one sample per line, comma-separated
/// features, blank lines skipped. Returns `(features, flattened)`.
fn parse_body(body: &[u8]) -> Result<(usize, Vec<f64>), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    let mut features = 0usize;
    let mut xs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let row_start = xs.len();
        for field in line.split(',') {
            let v: f64 = field
                .trim()
                .parse()
                .map_err(|_| format!("line {}: unparseable number {field:?}", lineno + 1))?;
            xs.push(v);
        }
        let row_len = xs.len() - row_start;
        if features == 0 {
            features = row_len;
        } else if row_len != features {
            return Err(format!(
                "line {}: {row_len} features where earlier rows had {features}",
                lineno + 1
            ));
        }
    }
    if xs.is_empty() {
        return Err("empty batch".to_string());
    }
    Ok((features, xs))
}

/// Renders margins as the response body: `label margin`, one per line.
fn render_margins(margins: &[f64]) -> String {
    let mut out = String::with_capacity(margins.len() * 24);
    for m in margins {
        let label = if *m >= 0.0 { 1 } else { -1 };
        out.push_str(&format!("{label} {m}\n"));
    }
    out
}

/// Builds the serving route table over a shared engine and registry.
pub fn router(engine: Arc<Engine>, registry: Arc<MetricsRegistry>) -> Router {
    let score_engine = Arc::clone(&engine);
    let model_engine = engine;
    Router::new()
        .route("POST", "/score", move |req: &Request| {
            let (features, xs) = match parse_body(&req.body) {
                Ok(parsed) => parsed,
                Err(reason) => return Response::text(400, reason),
            };
            match score_engine.score_batch(features, &xs) {
                Ok(margins) => Response::ok_text(render_margins(&margins)),
                Err(e) => Response::text(422, format!("{e}")),
            }
        })
        .route("GET", "/healthz", |_req: &Request| {
            Response::ok_text("ok\n")
        })
        .route("GET", "/model", move |_req: &Request| {
            let snapshot = model_engine.current();
            Response::ok_text(format!(
                "kind {}\nfeatures {}\ngeneration {}\nbytes {}\n",
                snapshot.model.kind(),
                snapshot.model.features(),
                snapshot.generation,
                snapshot.bytes
            ))
        })
        .route("GET", "/metrics", move |_req: &Request| {
            Response::prometheus(registry.render())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SavedModel;
    use ppml_svm::LinearSvm;
    use ppml_telemetry::{request, HttpServer};

    fn serve() -> (HttpServer, Arc<Engine>) {
        let engine = Engine::new(
            SavedModel::Linear(LinearSvm::from_parts(vec![1.0, -2.0], 0.5)),
            16,
        );
        let registry = Arc::new(MetricsRegistry::new());
        let server =
            HttpServer::serve("127.0.0.1:0", router(Arc::clone(&engine), registry)).expect("bind");
        (server, engine)
    }

    #[test]
    fn score_returns_labels_and_round_trippable_margins() {
        let (server, engine) = serve();
        let addr = server.local_addr().to_string();
        let (status, body) =
            request(&addr, "POST", "/score", b"1.0,2.0\n-0.5, 0.25\n").expect("request");
        assert_eq!(status, 200, "{body}");
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 2);
        let expected = engine.score_batch(2, &[1.0, 2.0, -0.5, 0.25]).unwrap();
        for (line, want) in lines.iter().zip(&expected) {
            let (label, margin) = line.split_once(' ').expect("label margin");
            let margin: f64 = margin.parse().expect("parse margin");
            assert_eq!(margin.to_bits(), want.to_bits(), "margin drifted in text");
            let want_label = if *want >= 0.0 { "1" } else { "-1" };
            assert_eq!(label, want_label);
        }
        server.shutdown();
    }

    #[test]
    fn bad_bodies_answer_400_and_wrong_shapes_422() {
        let (server, _engine) = serve();
        let addr = server.local_addr().to_string();
        let (status, _) = request(&addr, "POST", "/score", b"1.0,banana\n").expect("request");
        assert_eq!(status, 400);
        let (status, _) = request(&addr, "POST", "/score", b"").expect("request");
        assert_eq!(status, 400);
        let (status, _) = request(&addr, "POST", "/score", b"1,2\n1,2,3\n").expect("request");
        assert_eq!(status, 400);
        // Consistent rows of the wrong width parse fine but fail scoring.
        let (status, _) = request(&addr, "POST", "/score", b"1,2,3\n").expect("request");
        assert_eq!(status, 422);
        server.shutdown();
    }

    #[test]
    fn model_endpoint_reveals_metadata_and_nothing_else() {
        let (server, _engine) = serve();
        let addr = server.local_addr().to_string();
        let (status, body) = request(&addr, "GET", "/model", b"").expect("request");
        assert_eq!(status, 200);
        assert!(body.contains("kind linear"), "{body}");
        assert!(body.contains("features 2"), "{body}");
        assert!(body.contains("generation 1"), "{body}");
        // No coordinate of the model (weights 1.0, −2.0, bias 0.5) may
        // appear — only shape and bookkeeping.
        for line in body.lines() {
            let (key, _) = line.split_once(' ').expect("key value");
            assert!(
                matches!(key, "kind" | "features" | "generation" | "bytes"),
                "unexpected /model field {key:?}"
            );
        }
        let (status, body) = request(&addr, "GET", "/healthz", b"").expect("request");
        assert_eq!(status, 200);
        assert_eq!(body, "ok\n");
        server.shutdown();
    }

    #[test]
    fn margins_render_shortest_round_trip() {
        // One third is not exactly representable: the classic case where
        // naive formatting loses bits.
        let rendered = render_margins(&[1.0 / 3.0, -2.0 / 3.0]);
        for (line, want) in rendered.lines().zip([1.0_f64 / 3.0, -2.0 / 3.0]) {
            let margin: f64 = line.split_once(' ').unwrap().1.parse().unwrap();
            assert_eq!(margin.to_bits(), want.to_bits());
        }
    }
}
