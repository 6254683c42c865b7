//! A hand-rolled, minimal HTTP/1.1 server (ISSUE 4 tentpole, piece 2;
//! generalized for serving in ISSUE 6). Zero external crates — the
//! workspace owns its TCP code, so it owns its HTTP endpoints too.
//!
//! The building blocks are [`Request`], [`Response`] and [`Router`]: a
//! route table of `(method, path) → handler` closures served by
//! [`HttpServer`], one short-lived thread per connection, one request per
//! connection (`Connection: close`). [`metrics_router`] is the table the
//! training binaries serve: `GET /metrics` → the [`MetricsRegistry`]
//! rendered as Prometheus text. [`Listener`] is the accept loop under
//! both this server and the serving crate's frame front. Handlers decide what
//! bytes leave the process; the metrics handler can only ever serve
//! registry scalars (sizes, timings, counts, epochs), which is the §V
//! privacy argument for exposing it on a socket at all — shares, masks
//! and model coordinates are not representable upstream in the event
//! vocabulary, so they cannot transit that endpoint.
//!
//! Defenses for the public role: request heads over 8 KiB and bodies
//! over 4 MiB are answered `413`; a method no route uses gets `405`, an
//! unknown path `404`, and an unparseable request line `400`. A
//! half-open peer is cut off by the per-connection timeout without
//! wedging the accept loop.

use std::io::{ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::cluster::ClusterRegistry;
use crate::metrics::MetricsRegistry;

/// Per-connection read/write budget. A client that cannot finish a
/// request/response cycle in this window is cut off.
const CONN_TIMEOUT: Duration = Duration::from_secs(2);
/// Pause after a failed `accept` (out of descriptors, most likely), so
/// the loop does not spin while the condition lasts.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(25);
/// Longest request head we will buffer before answering 413.
const MAX_HEAD: usize = 8 * 1024;
/// Longest request body we will read before answering 413.
const MAX_BODY: usize = 4 * 1024 * 1024;

/// One parsed HTTP request, as much of it as handlers need.
pub struct Request {
    /// Uppercase method token as received (`GET`, `POST`, …).
    pub method: String,
    /// Path with any query string stripped.
    pub path: String,
    /// Raw request body (empty unless the client sent `Content-Length`).
    pub body: Vec<u8>,
}

/// A response a handler returns; the server adds framing headers.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A `200 OK` with a plain-text body.
    pub fn ok_text(body: impl Into<String>) -> Response {
        Response::text(200, body)
    }

    /// A plain-text response with an arbitrary status.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// A `200 OK` in the Prometheus text exposition format 0.0.4.
    pub fn prometheus(body: impl Into<String>) -> Response {
        Response {
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            ..Response::ok_text(body)
        }
    }

    /// A bodyless response carrying only a status.
    pub fn status(status: u16) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Vec::new(),
        }
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        422 => "Unprocessable Content",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

type Handler = Box<dyn Fn(&Request) -> Response + Send + Sync>;

/// An exact-match route table. Paths are compared after the query string
/// is stripped; method comparison is exact (methods are conventionally
/// uppercase on the wire).
#[derive(Default)]
pub struct Router {
    routes: Vec<(&'static str, &'static str, Handler)>,
}

impl Router {
    /// An empty router (every request answers 404).
    pub fn new() -> Router {
        Router::default()
    }

    /// Adds a route; builder-style.
    pub fn route(
        mut self,
        method: &'static str,
        path: &'static str,
        handler: impl Fn(&Request) -> Response + Send + Sync + 'static,
    ) -> Router {
        self.routes.push((method, path, Box::new(handler)));
        self
    }

    /// Resolves a request: matched handler, else `405` when the path
    /// exists under another method or the method is entirely unknown to
    /// this router, else `404`.
    pub fn dispatch(&self, req: &Request) -> Response {
        for (method, path, handler) in &self.routes {
            if *method == req.method && *path == req.path {
                return handler(req);
            }
        }
        let path_known = self.routes.iter().any(|(_, p, _)| *p == req.path);
        let method_known = self.routes.iter().any(|(m, _, _)| *m == req.method);
        if path_known || !method_known {
            Response::status(405)
        } else {
            Response::status(404)
        }
    }
}

/// A background accept loop: a blocking listener whose thread hands
/// every connection to a thread of its own, read/write timeouts already
/// set, so a slow or mute client never holds up the next one. Dropping
/// the handle stops the loop; connections in flight finish on their own
/// threads.
pub struct Listener {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Listener {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// accepts on a thread named `thread_name`, calling `conn` on a
    /// `{thread_name}-conn` thread per connection.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from binding the listener or spawning its
    /// accept thread.
    pub fn spawn(
        addr: &str,
        thread_name: &str,
        conn: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> std::io::Result<Listener> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let conn = Arc::new(conn);
        let conn_name = format!("{thread_name}-conn");
        let handle = std::thread::Builder::new()
            .name(thread_name.into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stopped.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = stream else {
                        std::thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    };
                    let conn = Arc::clone(&conn);
                    let _ = std::thread::Builder::new()
                        .name(conn_name.clone())
                        .spawn(move || {
                            if stream.set_read_timeout(Some(CONN_TIMEOUT)).is_ok()
                                && stream.set_write_timeout(Some(CONN_TIMEOUT)).is_ok()
                            {
                                conn(stream);
                            }
                        });
                }
            })?;
        Ok(Listener {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the accept thread with one connection so it sees the flag.
        // An unspecified bind is reached over the loopback of its family.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        // A wake that cannot connect leaves the thread detached: shutdown
        // must never hang on it.
        if TcpStream::connect_timeout(&wake, CONN_TIMEOUT).is_ok() {
            if let Some(handle) = self.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// A background HTTP/1.1 server dispatching through a [`Router`] on a
/// [`Listener`], one request per connection. Dropping the handle stops
/// the accept loop.
pub struct HttpServer(Listener);

impl HttpServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts the accept loop in a background thread.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from binding the listener or spawning its
    /// accept thread.
    pub fn serve(addr: &str, router: Router) -> std::io::Result<HttpServer> {
        let listener = Listener::spawn(addr, "ppml-http", move |stream| {
            let _ = answer(stream, &router);
        })?;
        Ok(HttpServer(listener))
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// Stops the accept loop and joins its thread.
    pub fn shutdown(self) {}
}

/// Position of the first header/body separator in `buf`, returned as
/// (separator start, separator length).
fn find_separator(buf: &[u8]) -> Option<(usize, usize)> {
    let crlf = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| (i, 4));
    let lf = buf.windows(2).position(|w| w == b"\n\n").map(|i| (i, 2));
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(if a.0 <= b.0 { a } else { b }),
        (a, b) => a.or(b),
    }
}

/// Reads one request and writes one response. Any IO failure just drops
/// the connection — a broken client must never disturb the host process.
fn answer(mut stream: TcpStream, router: &Router) -> std::io::Result<()> {
    // Read until the header/body separator; anything past it is the
    // start of the body.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 1024];
    let separator = loop {
        if let Some(sep) = find_separator(&buf) {
            break sep;
        }
        if buf.len() > MAX_HEAD {
            return respond(&mut stream, Response::status(413));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // peer vanished mid-head
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Ok(()), // timeout on a half-open peer
        }
    };
    let (sep_at, sep_len) = separator;
    let head = String::from_utf8_lossy(&buf[..sep_at]).to_string();
    let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));

    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return respond(&mut stream, Response::status(400));
    };

    // Headers: only Content-Length matters to this server.
    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            match value.trim().parse::<usize>() {
                Ok(n) => content_length = n,
                Err(_) => return respond(&mut stream, Response::status(400)),
            }
        }
    }
    if content_length > MAX_BODY {
        return respond(&mut stream, Response::status(413));
    }

    let mut body = buf[sep_at + sep_len..].to_vec();
    if body.len() > content_length {
        body.truncate(content_length);
    }
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // peer vanished mid-body
            Ok(n) => {
                let need = content_length - body.len();
                body.extend_from_slice(&chunk[..n.min(need)]);
            }
            Err(_) => return Ok(()),
        }
    }

    let request = Request {
        method: method.to_string(),
        // Accept a query string; scrapers commonly append one.
        path: target.split('?').next().unwrap_or(target).to_string(),
        body,
    };
    respond(&mut stream, router.dispatch(&request))
}

fn respond(stream: &mut TcpStream, response: Response) -> std::io::Result<()> {
    let header = format!(
        "HTTP/1.1 {} {}\r\n\
         Content-Type: {}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n",
        response.status,
        reason(response.status),
        response.content_type,
        response.body.len()
    );
    stream.write_all(header.as_bytes())?;
    stream.write_all(&response.body)?;
    stream.flush()
}

/// The route table the training binaries serve: `GET /metrics` (and
/// `GET /`, for convenience) renders `registry`, and `GET /cluster` the
/// per-learner series the coordinator folds from in-band telemetry
/// deltas (empty text until a distributed loop feeds
/// [`ClusterRegistry::global`]).
pub fn metrics_router(registry: Arc<MetricsRegistry>) -> Router {
    let root = Arc::clone(&registry);
    Router::new()
        .route("GET", "/metrics", move |_| {
            Response::prometheus(registry.render())
        })
        .route("GET", "/", move |_| Response::prometheus(root.render()))
        .route("GET", "/cluster", |_| {
            Response::prometheus(ClusterRegistry::global().render())
        })
}

/// Sends one HTTP/1.1 request to `addr` and returns `(status, body)` —
/// the tiny client the integration tests, benches and CI share. `addr`
/// is a bare `host:port`; `body` is sent with a `Content-Length` header
/// when non-empty.
///
/// # Errors
///
/// IO errors from the socket, or [`ErrorKind::InvalidData`] when the
/// response has no status line or no header/body separator.
pub fn request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> std::io::Result<(u16, String)> {
    let sockaddr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "unresolvable address"))?;
    let mut stream = TcpStream::connect_timeout(&sockaddr, CONN_TIMEOUT)?;
    stream.set_read_timeout(Some(CONN_TIMEOUT))?;
    stream.set_write_timeout(Some(CONN_TIMEOUT))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let status: u16 = response
        .strip_prefix("HTTP/1.1 ")
        .or_else(|| response.strip_prefix("HTTP/1.0 "))
        .and_then(|r| r.get(..3))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "no status line"))?;
    let response_body = response
        .split_once("\r\n\r\n")
        .or_else(|| response.split_once("\n\n"))
        .map(|(_, b)| b.to_string())
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "no header/body separator"))?;
    Ok((status, response_body))
}

/// Fetches `http://{addr}/metrics` and returns the response body.
///
/// # Errors
///
/// IO errors from the socket, or [`ErrorKind::InvalidData`] when the
/// response is not a 200 or has no body separator.
pub fn scrape(addr: &str) -> std::io::Result<String> {
    let (status, body) = request(addr, "GET", "/metrics", b"")?;
    if status != 200 {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("scrape failed: status {status}"),
        ));
    }
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind};

    fn served_registry() -> (HttpServer, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        let server =
            HttpServer::serve("127.0.0.1:0", metrics_router(registry.clone())).expect("bind");
        (server, registry)
    }

    #[test]
    fn scrape_round_trips_the_render() {
        let (server, registry) = served_registry();
        registry.record(Event {
            t_ns: 0,
            party: 0,
            kind: EventKind::FrameSent {
                to: 1,
                bytes: 64,
                retransmit: false,
            },
        });
        let body = scrape(&server.local_addr().to_string()).expect("scrape");
        assert!(body.contains("ppml_frames_sent_total 1"), "{body}");
        // A second scrape sees updated counters (fresh connection).
        registry.record(Event {
            t_ns: 1,
            party: 0,
            kind: EventKind::FrameSent {
                to: 1,
                bytes: 64,
                retransmit: false,
            },
        });
        let body = scrape(&server.local_addr().to_string()).expect("scrape 2");
        assert!(body.contains("ppml_frames_sent_total 2"), "{body}");
        server.shutdown();
    }

    #[test]
    fn cluster_endpoint_serves_the_global_registry() {
        let (server, _registry) = served_registry();
        let addr = server.local_addr().to_string();
        // Learner id chosen to be unique to this test: the global
        // cluster registry is process-wide shared state.
        ClusterRegistry::global().fold(
            4_041,
            &crate::cluster::ClusterDelta {
                iteration: 1,
                bytes_sent: 77,
                ..Default::default()
            },
        );
        let (status, body) = request(&addr, "GET", "/cluster", b"").expect("request");
        assert_eq!(status, 200);
        assert!(
            body.contains("ppml_cluster_bytes_sent_total{learner=\"4041\"} 77"),
            "{body}"
        );
        server.shutdown();
    }

    #[test]
    fn wrong_paths_and_methods_are_rejected() {
        let (server, _registry) = served_registry();
        let addr = server.local_addr().to_string();
        let (status, _) = request(&addr, "GET", "/secrets", b"").expect("request");
        assert_eq!(status, 404);
        let (status, _) = request(&addr, "POST", "/metrics", b"").expect("request");
        assert_eq!(status, 405);
        let (status, _) = request(&addr, "BREW", "/metrics", b"").expect("request");
        assert_eq!(status, 405);
        server.shutdown();
    }

    #[test]
    fn half_open_connection_does_not_wedge_the_server() {
        let (server, registry) = served_registry();
        let addr = server.local_addr();
        // Connect and say nothing: the mute peer gets its own connection
        // thread, so the next scrape must go straight through.
        let _mute = TcpStream::connect(addr).expect("connect");
        registry.record(Event {
            t_ns: 0,
            party: 0,
            kind: EventKind::WorkerUp { node: 1 },
        });
        let body = scrape(&addr.to_string()).expect("scrape alongside mute peer");
        assert!(body.contains("ppml_workers 1"), "{body}");
        server.shutdown();
    }

    #[test]
    fn shutdown_returns_for_an_unspecified_bind_address() {
        let registry = Arc::new(MetricsRegistry::new());
        let server = HttpServer::serve("0.0.0.0:0", metrics_router(registry)).expect("bind");
        let port = server.local_addr().port();
        let (status, _) =
            request(&format!("127.0.0.1:{port}"), "GET", "/metrics", b"").expect("request");
        assert_eq!(status, 200);
        // 0.0.0.0 is no address to connect to: the wake that stops the
        // accept thread must go over loopback.
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            server.shutdown();
            let _ = done.send(());
        });
        finished
            .recv_timeout(Duration::from_secs(10))
            .expect("shutdown returns");
        let refused = TcpStream::connect(("127.0.0.1", port)).unwrap_err();
        assert_eq!(refused.kind(), ErrorKind::ConnectionRefused);
    }

    #[test]
    fn router_dispatch_prefers_exact_match_then_405_then_404() {
        let router = Router::new()
            .route("GET", "/a", |_| Response::ok_text("a"))
            .route("POST", "/b", |req| {
                Response::ok_text(format!("b:{}", req.body.len()))
            });
        let req = |method: &str, path: &str| Request {
            method: method.to_string(),
            path: path.to_string(),
            body: vec![0; 3],
        };
        assert_eq!(router.dispatch(&req("GET", "/a")).status, 200);
        let ok = router.dispatch(&req("POST", "/b"));
        assert_eq!(ok.status, 200);
        assert_eq!(ok.body, b"b:3");
        // Known path, wrong method.
        assert_eq!(router.dispatch(&req("POST", "/a")).status, 405);
        // Unknown method anywhere.
        assert_eq!(router.dispatch(&req("DELETE", "/nowhere")).status, 405);
        // Known method, unknown path.
        assert_eq!(router.dispatch(&req("GET", "/nowhere")).status, 404);
    }

    #[test]
    fn post_bodies_reach_the_handler() {
        let router = Router::new().route("POST", "/echo-len", |req| {
            Response::ok_text(format!("{}", req.body.len()))
        });
        let server = HttpServer::serve("127.0.0.1:0", router).expect("bind");
        let addr = server.local_addr().to_string();
        let payload = vec![b'x'; 100_000];
        let (status, body) = request(&addr, "POST", "/echo-len", &payload).expect("request");
        assert_eq!(status, 200);
        assert_eq!(body, "100000");
        server.shutdown();
    }

    #[test]
    fn overlong_heads_and_bodies_answer_413() {
        let router = Router::new().route("POST", "/x", |_| Response::ok_text("ok"));
        let server = HttpServer::serve("127.0.0.1:0", router).expect("bind");
        let addr = server.local_addr();

        // A request line longer than MAX_HEAD.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let long_path = "a".repeat(MAX_HEAD + 100);
        let head = format!("GET /{long_path} HTTP/1.1\r\n");
        stream.write_all(head.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");

        // A declared body over MAX_BODY: rejected from the header alone,
        // without reading the body.
        let mut stream = TcpStream::connect(addr).expect("connect");
        let head = format!(
            "POST /x HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        stream.write_all(head.as_bytes()).expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        server.shutdown();
    }

    #[test]
    fn malformed_and_partial_requests_are_handled() {
        let router = Router::new().route("GET", "/", |_| Response::ok_text("ok"));
        let server = HttpServer::serve("127.0.0.1:0", router).expect("bind");
        let addr = server.local_addr();

        // Garbage request line → 400.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"NONSENSE\r\n\r\n").expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");

        // Unparseable Content-Length → 400.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
            .expect("write");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 400"), "{response}");

        // A partial head followed by a hangup: the server just drops the
        // connection, and stays serviceable for the next client.
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET / HT").expect("write");
        drop(stream);
        let (status, body) = request(&addr.to_string(), "GET", "/", b"").expect("request");
        assert_eq!(status, 200);
        assert_eq!(body, "ok");
        server.shutdown();
    }
}
