//! A transport wrapper that measures the transport layer from outside:
//! it times and counts every call the protocol makes into the endpoint
//! it wraps and forwards the call unchanged.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ppml_transport::{Envelope, LinkStats, Message, PartyId, Transport, TransportError};

/// What one [`Spy`] has seen; shared with the harness, which reads it
/// while the endpoint itself is owned by a courier on another thread.
#[derive(Debug, Default, Clone)]
pub struct SpyLog {
    /// Frames handed to `send_raw`, retransmissions included.
    pub frames_sent: u64,
    /// Encoded bytes of those frames.
    pub bytes_sent: u64,
    /// Frames `recv` returned.
    pub frames_received: u64,
    /// Sends flagged [`ppml_transport::FLAG_RETRANSMIT`].
    pub retransmits: u64,
    /// Time inside each `send_raw` call.
    pub send_ns: Vec<u64>,
    /// Time blocked inside `recv`, successful or timed out.
    pub recv_wait: Duration,
}

/// Counts and times the calls into `T`; see the module docs.
pub struct Spy<T: Transport> {
    inner: T,
    log: Arc<Mutex<SpyLog>>,
}

impl<T: Transport> Spy<T> {
    /// Wraps `inner`; the returned handle reads what the spy records.
    pub fn new(inner: T) -> (Self, Arc<Mutex<SpyLog>>) {
        let log = Arc::new(Mutex::new(SpyLog::default()));
        (
            Spy {
                inner,
                log: Arc::clone(&log),
            },
            log,
        )
    }

    fn log(&self) -> std::sync::MutexGuard<'_, SpyLog> {
        self.log.lock().expect("spy log: no holder can panic")
    }
}

impl<T: Transport> Transport for Spy<T> {
    fn party(&self) -> PartyId {
        self.inner.party()
    }

    fn next_seq(&mut self, to: PartyId) -> u64 {
        self.inner.next_seq(to)
    }

    fn send_raw(
        &mut self,
        to: PartyId,
        msg: &Message,
        seq: u64,
        flags: u16,
    ) -> Result<usize, TransportError> {
        let start = Instant::now();
        let sent = self.inner.send_raw(to, msg, seq, flags);
        let elapsed = start.elapsed();
        if let Ok(bytes) = sent {
            let mut log = self.log();
            log.frames_sent += 1;
            log.bytes_sent += bytes as u64;
            log.retransmits += u64::from(flags & ppml_transport::FLAG_RETRANSMIT != 0);
            log.send_ns.push(elapsed.as_nanos() as u64);
        }
        sent
    }

    fn recv(&mut self, timeout: Duration) -> Result<Envelope, TransportError> {
        let start = Instant::now();
        let got = self.inner.recv(timeout);
        let elapsed = start.elapsed();
        let mut log = self.log();
        log.recv_wait += elapsed;
        log.frames_received += u64::from(got.is_ok());
        drop(log);
        got
    }

    fn stats(&self) -> LinkStats {
        self.inner.stats()
    }
}
