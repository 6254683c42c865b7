//! A byte-counting TCP relay. A serving workload sends each of its
//! batches through one once, during set-up, to learn what the batch
//! costs on the wire in both directions: what the program's own client
//! and server really wrote, whatever the protocol does. Timed ops never
//! pass through it.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

pub struct Tap {
    address: SocketAddr,
    bytes: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Tap {
    /// Listens on an ephemeral loopback port and relays each connection,
    /// one at a time, to `upstream`.
    pub fn open(upstream: SocketAddr) -> std::io::Result<Tap> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let address = listener.local_addr()?;
        let bytes = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (counter, stopped) = (Arc::clone(&bytes), Arc::clone(&stop));
        let acceptor = std::thread::Builder::new()
            .name("bench-tap".into())
            .spawn(move || {
                for client in listener.incoming() {
                    if stopped.load(Ordering::SeqCst) {
                        return;
                    }
                    // A connection that cannot be relayed is dropped;
                    // the client sees it close and fails its check.
                    if let Ok(client) = client {
                        let _ = relay(client, upstream, &counter);
                    }
                }
            })?;
        Ok(Tap {
            address,
            bytes,
            stop,
            acceptor: Some(acceptor),
        })
    }

    pub fn address(&self) -> String {
        self.address.to_string()
    }

    /// Bytes relayed so far, both directions. A byte is counted before
    /// it is passed on, so once a client holds a complete reply every
    /// byte of the exchange has been counted.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::SeqCst)
    }
}

impl Drop for Tap {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of `accept` so it sees the flag.
        let _ = TcpStream::connect(self.address);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

fn relay(client: TcpStream, upstream: SocketAddr, counter: &AtomicU64) -> std::io::Result<()> {
    let server = TcpStream::connect(upstream)?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    let (client_in, server_out) = (client.try_clone()?, server.try_clone()?);
    std::thread::scope(|scope| {
        scope.spawn(move || pump(client_in, server_out, counter));
        pump(server, client, counter);
    });
    Ok(())
}

/// Copies `from` to `to` until `from` ends, then ends `to`'s input too.
fn pump(mut from: TcpStream, mut to: TcpStream, counter: &AtomicU64) {
    let mut buffer = vec![0u8; 64 * 1024];
    while let Ok(n) = from.read(&mut buffer) {
        if n == 0 {
            break;
        }
        counter.fetch_add(n as u64, Ordering::SeqCst);
        if to.write_all(&buffer[..n]).is_err() {
            break;
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_both_directions_of_an_echo() {
        let echo = TcpListener::bind("127.0.0.1:0").expect("bind");
        let upstream = echo.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut conn, _) = echo.accept().expect("accept");
            let mut got = [0u8; 5];
            conn.read_exact(&mut got).expect("read");
            conn.write_all(b"world!!").expect("write");
        });
        let tap = Tap::open(upstream).expect("tap");
        let mut client = TcpStream::connect(tap.address()).expect("connect");
        client.write_all(b"hello").expect("write");
        let mut reply = Vec::new();
        client.read_to_end(&mut reply).expect("read");
        assert_eq!(reply, b"world!!");
        assert_eq!(tap.bytes(), 5 + 7);
        server.join().expect("echo server");
    }
}
