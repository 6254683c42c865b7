//! The frame front: batched scoring over the length-prefixed protocol.
//!
//! A [`FrameServer`] accepts TCP connections and speaks the workspace
//! frame codec — `[u32 len][version][kind][flags][from][to][seq][payload]
//! [crc32]` — answering every [`Message::Score`] with a
//! [`Message::ScoreReply`] on the same connection (source and destination
//! swapped, sequence echoed). Connections are persistent: a client can
//! stream many score requests over one socket. Any frame the server
//! cannot decode closes the connection — a scorer has no business
//! guessing at corrupt input — and non-score kinds are ignored so a
//! misdirected training peer does no harm. Replies carry only margins,
//! never model coordinates (the §V serving privacy rule).

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use ppml_transport::{Frame, Message};

use crate::engine::Engine;

/// Per-connection read/write budget, matching the HTTP front.
const CONN_TIMEOUT: Duration = Duration::from_secs(2);
/// Accept-poll interval while idle.
const POLL: Duration = Duration::from_millis(25);
/// Largest frame body we will buffer: caps a hostile length prefix.
/// 4 MiB ≈ half a million f64 features per request, far beyond any
/// batch the HTTP front would accept either.
const MAX_FRAME: usize = 4 * 1024 * 1024;
/// Party id the server answers from; scoring is outside the training
/// ring, so it uses an address no worker owns.
const SERVER_PARTY: u32 = u32::MAX;

/// A background frame-protocol scoring server. Dropping the handle stops
/// the accept loop (in-flight connections finish on their own threads).
pub struct FrameServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl FrameServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// answering `Score` frames from `engine`'s current model.
    ///
    /// # Errors
    ///
    /// Any [`std::io::Error`] from binding the listener or spawning its
    /// accept thread.
    pub fn serve(addr: &str, engine: Arc<Engine>) -> std::io::Result<FrameServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = stop.clone();
        let handle = std::thread::Builder::new()
            .name("ppml-frames".into())
            .spawn(move || accept_loop(listener, engine, stop_flag))?;
        Ok(FrameServer {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins its thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, engine: Arc<Engine>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let engine = engine.clone();
                let _ = std::thread::Builder::new()
                    .name("ppml-frames-conn".into())
                    .spawn(move || {
                        let _ = converse(stream, &engine);
                    });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Reads exactly one length-prefixed frame from `stream`, or `None` on a
/// clean EOF at a frame boundary.
fn read_frame(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut prefix = [0u8; 4];
    match stream.read_exact(&mut prefix) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let body_len = u32::from_le_bytes(prefix) as usize;
    if body_len > MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame of {body_len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut buf = vec![0u8; 4 + body_len];
    buf[..4].copy_from_slice(&prefix);
    stream.read_exact(&mut buf[4..])?;
    Ok(Some(buf))
}

/// Serves one connection: a loop of Score → ScoreReply exchanges.
fn converse(mut stream: TcpStream, engine: &Engine) -> std::io::Result<()> {
    stream.set_read_timeout(Some(CONN_TIMEOUT))?;
    stream.set_write_timeout(Some(CONN_TIMEOUT))?;
    stream.set_nonblocking(false)?;
    loop {
        let Some(bytes) = read_frame(&mut stream)? else {
            return Ok(());
        };
        // Undecodable input (bad CRC, bad version, unknown kind) closes
        // the connection rather than risking a desynchronized stream.
        let Ok(frame) = Frame::decode(&bytes) else {
            return Ok(());
        };
        match frame.msg {
            Message::Score {
                request_id,
                features,
                xs,
            } => {
                let scored = engine.score_batch(features as usize, &xs);
                let (ok, margins) = match scored {
                    Ok(margins) => (true, margins),
                    Err(_) => (false, Vec::new()),
                };
                let reply = Frame {
                    flags: 0,
                    from: SERVER_PARTY,
                    to: frame.from,
                    seq: frame.seq,
                    msg: Message::ScoreReply {
                        request_id,
                        ok,
                        margins,
                    },
                };
                stream.write_all(&reply.encode())?;
                stream.flush()?;
            }
            Message::Shutdown => return Ok(()),
            // Training-protocol kinds have no meaning here; ignore them
            // so a misdirected peer cannot crash the scorer.
            _ => {}
        }
    }
}

/// A persistent frame-protocol scoring client: one connection, many
/// batches. The bench driver and integration tests share it.
pub struct FrameScoreClient {
    stream: TcpStream,
    next_id: u64,
    seq: u64,
}

impl FrameScoreClient {
    /// Connects to a [`FrameServer`] at `addr`.
    ///
    /// # Errors
    ///
    /// Connection and socket-option failures.
    pub fn connect(addr: &str) -> std::io::Result<FrameScoreClient> {
        let sockaddr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "unresolvable address"))?;
        let stream = TcpStream::connect_timeout(&sockaddr, CONN_TIMEOUT)?;
        stream.set_read_timeout(Some(CONN_TIMEOUT))?;
        stream.set_write_timeout(Some(CONN_TIMEOUT))?;
        Ok(FrameScoreClient {
            stream,
            next_id: 1,
            seq: 1,
        })
    }

    /// Scores one flattened batch (`xs.len()` must be a multiple of
    /// `features`) and returns the margins.
    ///
    /// # Errors
    ///
    /// IO errors, an undecodable reply, a reply for a different request,
    /// or a server-side rejection (`ok: false`) — all surfaced as
    /// [`ErrorKind::InvalidData`] except raw socket failures.
    pub fn score(&mut self, features: u32, xs: Vec<f64>) -> std::io::Result<Vec<f64>> {
        let request_id = self.next_id;
        self.next_id += 1;
        let frame = Frame {
            flags: 0,
            from: 0,
            to: SERVER_PARTY,
            seq: self.seq,
            msg: Message::Score {
                request_id,
                features,
                xs,
            },
        };
        self.seq += 1;
        self.stream.write_all(&frame.encode())?;
        self.stream.flush()?;
        let bytes = read_frame(&mut self.stream)?.ok_or_else(|| {
            std::io::Error::new(ErrorKind::UnexpectedEof, "server closed mid-reply")
        })?;
        let reply = Frame::decode(&bytes)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, format!("{e}")))?;
        match reply.msg {
            Message::ScoreReply {
                request_id: rid,
                ok,
                margins,
            } if rid == request_id => {
                if ok {
                    Ok(margins)
                } else {
                    Err(std::io::Error::new(
                        ErrorKind::InvalidData,
                        "server rejected the batch",
                    ))
                }
            }
            other => Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("unexpected reply kind {}", other.kind()),
            )),
        }
    }
}

/// One-shot convenience: connect, score one batch, disconnect.
///
/// # Errors
///
/// As [`FrameScoreClient::score`].
pub fn score_over_frames(addr: &str, features: u32, xs: Vec<f64>) -> std::io::Result<Vec<f64>> {
    FrameScoreClient::connect(addr)?.score(features, xs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SavedModel;
    use ppml_svm::LinearSvm;

    fn engine() -> Arc<Engine> {
        Engine::new(
            SavedModel::Linear(LinearSvm::from_parts(vec![2.0, -1.0], 0.25)),
            32,
        )
    }

    #[test]
    fn score_round_trips_over_a_real_socket() {
        let server = FrameServer::serve("127.0.0.1:0", engine()).expect("bind");
        let addr = server.local_addr().to_string();
        let margins = score_over_frames(&addr, 2, vec![1.0, 1.0, 0.0, 4.0]).expect("score");
        assert_eq!(margins, vec![1.25, -3.75]);
        server.shutdown();
    }

    #[test]
    fn a_kernel_batch_round_trips_bit_for_bit() {
        let model = crate::model::tests::rbf_sample();
        let server =
            FrameServer::serve("127.0.0.1:0", Engine::new(model.clone(), 32)).expect("bind");
        let addr = server.local_addr().to_string();
        let features = model.features();
        let xs: Vec<f64> = (0..13 * features)
            .map(|i| (i as f64 * 0.47).cos())
            .collect();
        let margins = score_over_frames(&addr, features as u32, xs.clone()).expect("score");
        assert_eq!(margins.len(), 13);
        for (row, margin) in xs.chunks_exact(features).zip(&margins) {
            assert_eq!(margin.to_bits(), model.decision(row).unwrap().to_bits());
        }
        server.shutdown();
    }

    #[test]
    fn one_connection_carries_many_batches() {
        let server = FrameServer::serve("127.0.0.1:0", engine()).expect("bind");
        let mut client =
            FrameScoreClient::connect(&server.local_addr().to_string()).expect("connect");
        for i in 0..10 {
            let x = f64::from(i);
            let margins = client.score(2, vec![x, 0.0]).expect("score");
            assert_eq!(margins, vec![2.0 * x + 0.25]);
        }
        server.shutdown();
    }

    #[test]
    fn dimension_mismatch_answers_a_rejection_not_a_hang() {
        let server = FrameServer::serve("127.0.0.1:0", engine()).expect("bind");
        let addr = server.local_addr().to_string();
        let err = score_over_frames(&addr, 3, vec![1.0, 2.0, 3.0]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
        // The connection protocol survives: a fresh request still works.
        let margins = score_over_frames(&addr, 2, vec![1.0, 0.0]).expect("score");
        assert_eq!(margins, vec![2.25]);
        server.shutdown();
    }

    #[test]
    fn garbage_bytes_close_the_connection_without_wedging() {
        let server = FrameServer::serve("127.0.0.1:0", engine()).expect("bind");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).expect("connect");
        // A plausible length prefix followed by garbage: decode fails,
        // server closes, and the next client is unaffected.
        stream
            .write_all(&[30, 0, 0, 0, 1, 2, 3, 4, 5, 6])
            .expect("write");
        drop(stream);
        let margins = score_over_frames(&addr.to_string(), 2, vec![0.0, 0.0]).expect("score");
        assert_eq!(margins, vec![0.25]);
        server.shutdown();
    }

    #[test]
    fn oversized_length_prefix_is_refused() {
        let server = FrameServer::serve("127.0.0.1:0", engine()).expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream
            .write_all(&u32::MAX.to_le_bytes())
            .expect("write prefix");
        // The server drops the connection instead of allocating 4 GiB.
        let mut buf = [0u8; 1];
        stream
            .set_read_timeout(Some(Duration::from_secs(2)))
            .unwrap();
        assert_eq!(stream.read(&mut buf).unwrap_or(0), 0);
        server.shutdown();
    }
}
