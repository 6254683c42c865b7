//! The TCP backend: the caller's thread drives every connection.
//!
//! An endpoint dials peers lazily, greets each connection with a
//! `Hello`/`HelloAck` handshake and replies to a dialed-in peer on the
//! socket it arrived on. It has **no thread of its own**: its listener,
//! its connections (each with its read buffer and parked write bytes,
//! see [`crate::poll`]) and its inbox are plain state behind one lock,
//! and the readiness loop runs on whichever thread calls in.
//!
//! * `recv` pops the inbox. When the inbox is empty it turns the loop
//!   until an application frame lands or the deadline passes. One turn
//!   parks in `ppoll` over the listener and every live connection (write
//!   interest only where bytes are parked), then accepts, reads and
//!   decodes only the ready sockets, answers `Hello` with `HelloAck`,
//!   flushes parked bytes and reaps idle connections. A frame is read
//!   and decoded on the thread that consumes it: one wakeup, no
//!   hand-off.
//! * `send_raw` writes its frame straight into the socket. A short write
//!   parks the remainder on the connection and later frames queue behind
//!   it, so the frames of one link can neither interleave nor reorder;
//!   every later turn flushes what is parked. Past `SEND_HIGH_WATER`
//!   parked bytes the sender turns the loop itself — reading as well as
//!   writing, so two endpoints sending to each other cannot wedge —
//!   until its frame is on the wire. A frame not there within the
//!   endpoint's `io_timeout` fails its connection and the send retries
//!   on a fresh one. That wait is the only stall timer: a peer reads its
//!   socket only while its own owner is inside a call, so below the mark
//!   parked bytes wait for a busy peer however long it computes, and
//!   above it a peer busy for longer than `io_timeout` counts as stalled.
//! * `connected_parties` takes one turn that does not wait, so a caller
//!   polling it sees registrations, EOFs and reaping.
//!
//! The thread budget is therefore zero: the endpoint costs no thread
//! beyond its caller's, whatever the peer count. Every connection carries
//! an idle-read deadline (`IDLE_TIMEOUT`): a peer that stops producing
//! bytes is reaped, so a half-open peer costs nothing past the deadline.
//! The deadline is judged after a turn's reads, so bytes that waited in
//! the kernel while the owner was busy elsewhere still count. Per-frame
//! handling is panic-isolated: a defect triggered by one peer's traffic
//! closes that connection only. Connection lifecycle is observable as
//! `conn_open` / `conn_close` / `conn_reaped` telemetry events. On
//! targets without the raw `ppoll` syscall, or where it fails, a turn
//! scans every socket with non-blocking reads and sleeps on an adaptive
//! backoff while nothing moves.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use ppml_telemetry as telemetry;
use telemetry::EventKind;

use crate::frame::{encode_frame, Frame, Message, PartyId, FLAG_RETRANSMIT};
use crate::poll::{
    fd_of, ppoll, read_scratch, widen_backlog, ConnIo, IdleBackoff, PollFd, ReadSweep,
};
use crate::poll::{POLLIN, POLLOUT, PPOLL_SUPPORTED};
use crate::retry::RetryPolicy;
use crate::transport::{Envelope, LinkStats, Transport, TransportError};

/// A connection that produces no inbound bytes for this long is reaped
/// (closed and deregistered). Writes do not refresh the deadline — a
/// half-open peer absorbs writes into a dead kernel buffer, so only
/// inbound bytes prove liveness. Learners heartbeat every 500 ms and the
/// coordinator broadcasts every round, so live links refresh constantly;
/// the deadline is deliberately generous.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Scan sleep bounds for `IdleBackoff`: a scanning turn sleeps at least
/// this long when nothing moved, and at most [`MAX_SCAN_WAIT`].
const MIN_SCAN_WAIT: Duration = Duration::from_micros(50);
/// See [`MIN_SCAN_WAIT`].
const MAX_SCAN_WAIT: Duration = Duration::from_millis(2);

/// Longest single `ppoll` wait. Readiness ends a wait at once, so this
/// only paces housekeeping (stalled writes, idle reaping) while a long
/// wait sees no traffic.
const HOUSEKEEPING_TICK: Duration = Duration::from_millis(50);

/// Accept-queue depth asked of the kernel (which caps it at
/// `net.core.somaxconn`). Connections are accepted only while the owner
/// is inside a call, so the queue must hold a whole burst of dial-ins:
/// 512 learners dialing a coordinator that polls every 20 ms.
const ACCEPT_BACKLOG: i32 = 4096;

/// Parked bytes, across all connections, past which a send waits for its
/// own frame to reach the wire instead of returning at once.
const SEND_HIGH_WATER: usize = 1 << 20;

enum CloseReason {
    /// Peer closed or the socket errored during a read.
    Gone,
    /// The byte stream failed frame decoding.
    Corrupt,
    /// Frame handling panicked (isolated to this connection).
    Panicked,
    /// A write failed, or a send past the high-water mark could not put
    /// its frame on the wire within `io_timeout`.
    WriteFailed,
    /// A newer connection registered for the same party.
    Replaced,
    /// No inbound bytes within the idle deadline.
    Idle(u64),
}

struct Conn {
    /// Unique within the endpoint, so a send can find its connection
    /// again after the loop has turned.
    id: u64,
    io: ConnIo,
    party: Option<PartyId>,
    inbound: bool,
    panic_next: bool,
    close: Option<CloseReason>,
}

impl Conn {
    /// An accepted connection (anonymous until its hello) or, with
    /// `party` set, a dialed one.
    fn new(id: u64, io: ConnIo, party: Option<PartyId>) -> Conn {
        Conn {
            id,
            io,
            party,
            inbound: party.is_none(),
            panic_next: false,
            close: None,
        }
    }
}

/// Drains complete frames off one connection: a hello registers the
/// connection and queues its ack, app messages go to the inbox. Returns
/// the party a hello announced, or `Err` when the stream is corrupt.
/// Runs under `catch_unwind`, so a panic here (including the injected
/// test panic) costs this connection only.
fn drain_frames(
    me: PartyId,
    stats: &mut LinkStats,
    inbox: &mut VecDeque<Envelope>,
    conn: &mut Conn,
) -> Result<Option<PartyId>, ()> {
    let mut registered = None;
    loop {
        let encoded = match conn.io.take_frame() {
            Ok(Some(buf)) => buf,
            Ok(None) => return Ok(registered),
            Err(()) => {
                telemetry::emit(me, EventKind::FrameRejected { bytes: 4 });
                return Err(());
            }
        };
        if conn.panic_next {
            conn.panic_next = false;
            panic!("injected connection-handler panic");
        }
        let bytes = encoded.len() as u64;
        let Ok(frame) = Frame::decode(&encoded) else {
            telemetry::emit(me, EventKind::FrameRejected { bytes });
            return Err(());
        };
        stats.bytes_received += bytes;
        stats.frames_received += 1;
        let from = frame.from;
        telemetry::emit(me, EventKind::FrameRecv { from, bytes });
        if frame.to != me {
            continue; // misrouted; ignore
        }
        match frame.msg {
            Message::Hello { party } => {
                conn.party = Some(party);
                registered = Some(party);
                let inbound = conn.inbound;
                telemetry::emit(
                    me,
                    EventKind::ConnOpen {
                        peer: party,
                        inbound,
                    },
                );
                let ack = encode_frame(0, me, party, 0, &Message::HelloAck { party: me });
                conn.io.queue(&ack);
                stats.bytes_sent += ack.len() as u64;
                stats.frames_sent += 1;
            }
            Message::HelloAck { .. } => {}
            msg => inbox.push_back(Envelope {
                from,
                seq: frame.seq,
                flags: frame.flags,
                msg,
            }),
        }
    }
}

/// Everything an endpoint owns. One lock guards it; whichever thread
/// holds the lock runs the loop.
struct Endpoint {
    party: PartyId,
    listener: TcpListener,
    conns: Vec<Conn>,
    /// The connection registered for each party, by index into `conns`;
    /// rebuilt whenever closed connections are removed.
    lanes: HashMap<PartyId, usize>,
    /// App frames read off the sockets, oldest first.
    inbox: VecDeque<Envelope>,
    stats: LinkStats,
    /// Source of [`Conn::id`]s.
    next_conn: u64,
    /// Bounds each connect, and each wait for parked bytes to move.
    io_timeout: Duration,
    /// [`IDLE_TIMEOUT`] outside tests that exercise reaping.
    idle_timeout: Duration,
    /// False where `ppoll` is missing, or once it failed: turns then scan.
    use_ppoll: bool,
    backoff: IdleBackoff,
    scratch: Box<[u8; 64 * 1024]>,
    /// Reused across turns to keep the loop allocation-free: the `ppoll`
    /// interest set, the connection behind each of its entries, and the
    /// readiness it reported per connection.
    poll_fds: Vec<PollFd>,
    poll_map: Vec<usize>,
    ready: Vec<bool>,
}

impl Endpoint {
    /// The live connection registered for `party`.
    fn lane(&self, party: PartyId) -> Option<usize> {
        let idx = *self.lanes.get(&party)?;
        self.conns[idx].close.is_none().then_some(idx)
    }

    /// Makes connection `idx` `party`'s lane; an older connection of the
    /// same party is replaced.
    fn register(&mut self, idx: usize, party: PartyId) {
        for (i, old) in self.conns.iter_mut().enumerate() {
            if i != idx && old.party == Some(party) {
                old.close.get_or_insert(CloseReason::Replaced);
            }
        }
        self.lanes.insert(party, idx);
    }

    fn charge_sent(&mut self, bytes: usize) {
        self.stats.bytes_sent += bytes as u64;
        self.stats.frames_sent += 1;
    }

    fn parked(&self) -> usize {
        self.conns.iter().map(|c| c.io.backlog()).sum()
    }

    /// Turns the loop until `done` holds or `deadline` passes; at least
    /// once, so a zero wait still takes what is ready.
    fn run_until(&mut self, deadline: Instant, mut done: impl FnMut(&Endpoint) -> bool) {
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            self.turn(left.min(HOUSEKEEPING_TICK));
            if done(self) || Instant::now() >= deadline {
                return;
            }
        }
    }

    /// One turn of the loop: waits up to `wait` for readiness, accepts,
    /// reads and handles the ready connections, flushes parked bytes,
    /// and retires dead and idle connections.
    fn turn(&mut self, wait: Duration) {
        let listener_ready = self.poll_ready(wait);
        let mut progress = false;
        if listener_ready != Some(false) {
            progress |= self.accept_new();
        }
        progress |= self.sweep(listener_ready.is_some());
        self.reap_idle();
        self.cleanup();
        if listener_ready.is_none() {
            if progress {
                self.backoff.reset();
            } else if !wait.is_zero() {
                std::thread::sleep(self.backoff.next_wait().min(wait));
            }
        }
    }

    /// Parks in `ppoll` for up to `wait` over the listener and every live
    /// connection (write interest only where bytes are parked), marking
    /// the ready connections in `ready`. Returns whether the listener is
    /// ready, or `None` when there is no readiness to go by: the build
    /// has no `ppoll`, or the syscall failed, after which this endpoint
    /// scans for good.
    fn poll_ready(&mut self, wait: Duration) -> Option<bool> {
        if !self.use_ppoll {
            return None;
        }
        self.poll_fds.clear();
        self.poll_map.clear();
        self.poll_fds
            .push(PollFd::new(fd_of(&self.listener), POLLIN));
        for (idx, conn) in self.conns.iter().enumerate() {
            if conn.close.is_none() {
                let parked = if conn.io.backlog() > 0 { POLLOUT } else { 0 };
                self.poll_fds
                    .push(PollFd::new(conn.io.raw_fd(), POLLIN | parked));
                self.poll_map.push(idx);
            }
        }
        if ppoll(&mut self.poll_fds, wait) < 0 {
            self.use_ppoll = false;
            return None;
        }
        self.ready.clear();
        self.ready.resize(self.conns.len(), false);
        for (fd, &idx) in self.poll_fds[1..].iter().zip(&self.poll_map) {
            self.ready[idx] = fd.revents != 0;
        }
        Some(self.poll_fds[0].revents != 0)
    }

    /// Adopts every connection waiting in the accept queue. Inbound
    /// connections stay anonymous until their [`Message::Hello`] lands.
    fn accept_new(&mut self) -> bool {
        let mut progress = false;
        while let Ok((stream, _)) = self.listener.accept() {
            if let Ok(io) = ConnIo::new(stream) {
                let id = self.next_conn;
                self.next_conn += 1;
                self.conns.push(Conn::new(id, io, None));
                progress = true;
            }
        }
        progress
    }

    /// Reads every live connection (only the ready ones when `polled`),
    /// handles its frames and flushes its parked bytes.
    fn sweep(&mut self, polled: bool) -> bool {
        let mut progress = false;
        for idx in 0..self.conns.len() {
            if self.conns[idx].close.is_some() {
                continue;
            }
            // Connections accepted after the poll lie past the mask and
            // are read unconditionally.
            if !polled || self.ready.get(idx).copied().unwrap_or(true) {
                progress |= self.read_conn(idx);
            }
            progress |= self.flush(idx);
        }
        progress
    }

    /// Reads what connection `idx` has ready and handles every complete
    /// frame, panic-isolated.
    fn read_conn(&mut self, idx: usize) -> bool {
        let conn = &mut self.conns[idx];
        let progress = match conn.io.read_sweep(&mut self.scratch) {
            ReadSweep::Progress => true,
            ReadSweep::Idle => false,
            ReadSweep::Closed => {
                conn.close = Some(CloseReason::Gone);
                false
            }
        };
        // Drain whatever full frames arrived (even on a connection that
        // just hit EOF — its final bytes are still valid).
        let (me, stats, inbox) = (self.party, &mut self.stats, &mut self.inbox);
        match catch_unwind(AssertUnwindSafe(|| drain_frames(me, stats, inbox, conn))) {
            Ok(Ok(Some(party))) => self.register(idx, party),
            Ok(Ok(None)) => {}
            Ok(Err(())) => {
                conn.close.get_or_insert(CloseReason::Corrupt);
            }
            Err(_) => conn.close = Some(CloseReason::Panicked),
        }
        progress
    }

    /// Pushes connection `idx`'s parked bytes into its socket. Bytes
    /// that do not move are no fault here: the peer drains its socket
    /// only while its own owner is inside a call, so a peer busy
    /// computing is indistinguishable from a stalled one. Only a sender
    /// waiting past the high-water mark times a stall (see `send_once`).
    fn flush(&mut self, idx: usize) -> bool {
        let conn = &mut self.conns[idx];
        if conn.close.is_some() || conn.io.backlog() == 0 {
            return false;
        }
        let before = conn.io.flushed_total();
        if conn.io.flush().is_err() {
            conn.close = Some(CloseReason::WriteFailed);
            return false;
        }
        conn.io.flushed_total() > before
    }

    /// Closes connections whose peers have produced no bytes within the
    /// idle deadline, so a half-open peer cannot hold its connection
    /// forever.
    fn reap_idle(&mut self) {
        let now = Instant::now();
        for conn in &mut self.conns {
            if conn.close.is_none() {
                let idle = now.saturating_duration_since(conn.io.last_rx);
                if idle > self.idle_timeout {
                    conn.close = Some(CloseReason::Idle(idle.as_millis() as u64));
                }
            }
        }
    }

    /// Removes every connection marked for close (dropping its socket),
    /// emits its lifecycle event and re-indexes the lanes.
    fn cleanup(&mut self) {
        if self.conns.iter().all(|c| c.close.is_none()) {
            return;
        }
        let me = self.party;
        self.conns.retain_mut(|conn| {
            let Some(reason) = conn.close.take() else {
                return true;
            };
            let peer = conn.party.unwrap_or(telemetry::NO_PARTY);
            match reason {
                CloseReason::Idle(idle_ms) => {
                    telemetry::emit(me, EventKind::ConnReaped { peer, idle_ms });
                }
                _ => telemetry::emit(me, EventKind::ConnClose { peer }),
            }
            false
        });
        self.lanes.clear();
        for (idx, conn) in self.conns.iter().enumerate() {
            if let Some(party) = conn.party {
                self.lanes.insert(party, idx);
            }
        }
    }

    /// Dials `to`, sends the hello and registers the connection, which
    /// replaces any older one of `to`'s.
    fn dial(&mut self, to: PartyId, addr: SocketAddr) -> Result<(), TransportError> {
        let stream = TcpStream::connect_timeout(&addr, self.io_timeout)?;
        let mut io = ConnIo::new(stream)?;
        let me = self.party;
        let hello = encode_frame(0, me, to, 0, &Message::Hello { party: me });
        io.send(&hello)?;
        self.charge_sent(hello.len());
        let id = self.next_conn;
        self.next_conn += 1;
        self.conns.push(Conn::new(id, io, Some(to)));
        self.register(self.conns.len() - 1, to);
        let (peer, inbound) = (to, false);
        telemetry::emit(me, EventKind::ConnOpen { peer, inbound });
        Ok(())
    }

    /// One attempt to put `encoded` on `to`'s connection: written
    /// straight into the socket, or parked behind bytes already parked.
    /// When that leaves more than [`SEND_HIGH_WATER`] bytes parked, turns
    /// the loop until this frame is on the wire; a frame that cannot get
    /// there within `io_timeout` fails its connection. The frame is
    /// charged to [`LinkStats`] only when the attempt succeeds, so a
    /// retried frame counts once.
    fn send_once(&mut self, to: PartyId, encoded: &[u8]) -> Result<(), TransportError> {
        let idx = self.lane(to).ok_or(TransportError::Unreachable(to))?;
        let conn = &mut self.conns[idx];
        if let Err(e) = conn.io.send(encoded) {
            conn.close = Some(CloseReason::WriteFailed);
            self.cleanup();
            return Err(TransportError::Io(e));
        }
        let (id, parked, watermark) = (conn.id, conn.io.backlog(), conn.io.queued_total());
        if parked == 0 || self.parked() < SEND_HIGH_WATER {
            self.charge_sent(encoded.len());
            return Ok(());
        }
        let on_wire = move |ep: &Endpoint| {
            let conn = ep.conns.iter().find(|c| c.id == id);
            conn.map(|c| c.io.flushed_total() >= watermark)
        };
        let deadline = Instant::now() + self.io_timeout;
        self.run_until(deadline, |ep| on_wire(ep) != Some(false));
        match on_wire(self) {
            Some(true) => {
                self.charge_sent(encoded.len());
                Ok(())
            }
            None => Err(TransportError::Unreachable(to)),
            Some(false) => {
                if let Some(conn) = self.conns.iter_mut().find(|c| c.id == id) {
                    conn.close = Some(CloseReason::WriteFailed);
                }
                self.cleanup();
                Err(TransportError::Io(std::io::ErrorKind::TimedOut.into()))
            }
        }
    }

    /// Turns the loop for up to `wait`, or until `party` has a lane —
    /// the wait for a peer that dials us, or between dial attempts.
    fn await_lane(&mut self, party: PartyId, wait: Duration) {
        self.run_until(Instant::now() + wait, |ep| ep.lane(party).is_some());
    }
}

/// The TCP endpoint: lazy dialing with a bounded [`RetryPolicy`],
/// per-message `io_timeout`, reconnection after a peer restarts, and no
/// thread of its own for any number of peers. See the module docs.
pub struct EventTransport {
    endpoint: Mutex<Endpoint>,
    peers: HashMap<PartyId, SocketAddr>,
    next_seq: HashMap<PartyId, u64>,
    retry: RetryPolicy,
    local_addr: SocketAddr,
}

impl EventTransport {
    /// Binds `party`'s endpoint on `addr`. No thread starts: the loop
    /// runs inside this endpoint's own calls.
    /// `peers` lists the addresses this endpoint may dial; a peer that
    /// dials in needs no entry, since replies reuse its connection.
    /// `retry` is the dial schedule ([`RetryPolicy::tcp_link`]) and
    /// `io_timeout` bounds each connect and each stalled write.
    pub fn bind(
        party: PartyId,
        addr: SocketAddr,
        peers: HashMap<PartyId, SocketAddr>,
        retry: RetryPolicy,
        io_timeout: Duration,
    ) -> Result<Self, TransportError> {
        Self::bind_reaping(party, addr, peers, retry, io_timeout, IDLE_TIMEOUT)
    }

    /// [`EventTransport::bind`] with an explicit idle-reap deadline.
    fn bind_reaping(
        party: PartyId,
        addr: SocketAddr,
        peers: HashMap<PartyId, SocketAddr>,
        retry: RetryPolicy,
        io_timeout: Duration,
        idle_timeout: Duration,
    ) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        // Best effort: where this fails, std's queue of 128 remains.
        widen_backlog(fd_of(&listener), ACCEPT_BACKLOG);
        let endpoint = Endpoint {
            party,
            listener,
            conns: Vec::new(),
            lanes: HashMap::new(),
            inbox: VecDeque::new(),
            stats: LinkStats::default(),
            next_conn: 0,
            io_timeout,
            idle_timeout,
            use_ppoll: PPOLL_SUPPORTED,
            backoff: IdleBackoff::new(MIN_SCAN_WAIT, MAX_SCAN_WAIT),
            scratch: read_scratch(),
            poll_fds: Vec::new(),
            poll_map: Vec::new(),
            ready: Vec::new(),
        };
        Ok(EventTransport {
            endpoint: Mutex::new(endpoint),
            peers,
            next_seq: HashMap::new(),
            retry,
            local_addr,
        })
    }

    /// The address this endpoint is actually listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Parties with a registered live connection (dialed out or dialed
    /// in and hello-handshaken), sorted. Takes one turn of the loop that
    /// does not wait, so polling this sees peers arrive and leave.
    pub fn connected_parties(&self) -> Vec<PartyId> {
        let mut ep = self.lock();
        ep.turn(Duration::ZERO);
        let mut parties: Vec<PartyId> = ep.lanes.keys().copied().collect();
        parties.retain(|&p| ep.lane(p).is_some());
        parties.sort_unstable();
        parties
    }

    /// Test hook: the loop panics inside the next frame handled for
    /// `party`, which must close only that connection.
    #[doc(hidden)]
    pub fn debug_panic_on_next_frame(&self, party: PartyId) {
        let mut ep = self.lock();
        if let Some(idx) = ep.lane(party) {
            ep.conns[idx].panic_next = true;
        }
    }

    /// The endpoint, for a `&self` call. Poisoning is advisory: a panic
    /// in frame handling is caught inside the loop, and every operation
    /// leaves the state consistent.
    fn lock(&self) -> std::sync::MutexGuard<'_, Endpoint> {
        self.endpoint.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Transport for EventTransport {
    fn party(&self) -> PartyId {
        self.lock().party
    }

    fn next_seq(&mut self, to: PartyId) -> u64 {
        let slot = self.next_seq.entry(to).or_insert(0);
        *slot += 1;
        *slot
    }

    fn send_raw(
        &mut self,
        to: PartyId,
        msg: &Message,
        seq: u64,
        flags: u16,
    ) -> Result<usize, TransportError> {
        let ep = self
            .endpoint
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        let encoded = encode_frame(flags, ep.party, to, seq, msg);
        // An ack is attempted once, on a connection that already exists:
        // it never dials and never backs off. Dropping one is always safe
        // under stop-and-wait (see `Courier`), and waiting out a schedule
        // for a peer that just left stalls the receiver.
        let ack = matches!(msg, Message::Ack { .. });
        let mut last_err: Option<TransportError> = None;
        for attempt in 0..self.retry.max_attempts {
            if attempt > 0 {
                ep.stats.retries += 1;
                ep.await_lane(to, self.retry.backoff(attempt - 1));
            }
            if ep.lane(to).is_none() {
                match self.peers.get(&to) {
                    _ if ack => return Err(TransportError::Unreachable(to)),
                    Some(&addr) => {
                        if let Err(e) = ep.dial(to, addr) {
                            last_err = Some(e);
                            continue;
                        }
                    }
                    // We cannot dial this party; it must dial us. Turn
                    // the loop so its handshake can land.
                    None => ep.await_lane(to, self.retry.backoff(attempt)),
                }
            }
            match ep.send_once(to, &encoded) {
                Ok(()) => {
                    let (bytes, retransmit) = (encoded.len() as u64, flags & FLAG_RETRANSMIT != 0);
                    telemetry::emit(
                        ep.party,
                        EventKind::FrameSent {
                            to,
                            bytes,
                            retransmit,
                        },
                    );
                    return Ok(encoded.len());
                }
                Err(e) if ack => return Err(e),
                Err(e) => last_err = Some(e),
            }
        }
        let attempts = self.retry.max_attempts;
        telemetry::emit(ep.party, EventKind::SendTimeout { to, attempts });
        Err(last_err.unwrap_or(TransportError::Unreachable(to)))
    }

    fn recv(&mut self, timeout: Duration) -> Result<Envelope, TransportError> {
        let ep = self
            .endpoint
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if ep.inbox.is_empty() {
            ep.run_until(Instant::now() + timeout, |ep| !ep.inbox.is_empty());
        }
        ep.inbox.pop_front().ok_or(TransportError::Timeout)
    }

    fn stats(&self) -> LinkStats {
        self.lock().stats
    }
}

impl Drop for EventTransport {
    fn drop(&mut self) {
        // Linger: a send that parked bytes has returned, so "send, then
        // drop the endpoint" must still put them on the wire. Bounded by
        // the I/O timeout — a peer that stopped draining its socket
        // cannot wedge shutdown.
        let ep = self
            .endpoint
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        if ep.parked() > 0 {
            let deadline = Instant::now() + ep.io_timeout;
            ep.run_until(deadline, |ep| ep.parked() == 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::courier::Courier;
    use std::collections::BTreeSet;
    use std::io::{Read, Write};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn loopback_addr() -> SocketAddr {
        "127.0.0.1:0".parse().expect("addr")
    }

    fn bind(party: PartyId, peers: HashMap<PartyId, SocketAddr>) -> EventTransport {
        EventTransport::bind(
            party,
            loopback_addr(),
            peers,
            RetryPolicy::fast_local(),
            Duration::from_secs(2),
        )
        .expect("bind")
    }

    #[test]
    fn dial_in_and_reply_on_same_socket() {
        let mut server = bind(0, HashMap::new());
        let mut client = bind(1, HashMap::from([(0, server.local_addr())]));
        client
            .send(0, &Message::Heartbeat { nonce: 11 })
            .expect("client send");
        let env = server.recv(Duration::from_secs(5)).expect("server recv");
        assert_eq!(env.from, 1);
        assert_eq!(env.msg, Message::Heartbeat { nonce: 11 });
        // The server replies without knowing the client's address.
        server
            .send(1, &Message::Heartbeat { nonce: 22 })
            .expect("server send");
        let env = client.recv(Duration::from_secs(5)).expect("client recv");
        assert_eq!(env.from, 0);
        assert_eq!(env.msg, Message::Heartbeat { nonce: 22 });
    }

    #[test]
    fn unreachable_peer_fails_after_bounded_retries() {
        let mut lone = bind(3, HashMap::new());
        let err = lone.send(9, &Message::Shutdown).unwrap_err();
        assert!(matches!(err, TransportError::Unreachable(9)));
    }

    #[test]
    fn courier_over_event_loop_round_trips() {
        let server = bind(0, HashMap::new());
        let server_addr = server.local_addr();
        let client = bind(1, HashMap::from([(0, server_addr)]));
        let mut sc = Courier::new(server, RetryPolicy::tcp_default());
        let mut cc = Courier::new(client, RetryPolicy::tcp_default());
        let h = std::thread::spawn(move || {
            let env = sc.recv(Duration::from_secs(5)).expect("server recv");
            (env, sc)
        });
        cc.send_reliable(
            0,
            &Message::MaskedShare {
                iteration: 1,
                epoch: 0,
                party: 1,
                payload: vec![1, 2, 3],
            },
        )
        .expect("reliable send");
        let (env, _sc) = h.join().unwrap();
        assert_eq!(
            env.msg,
            Message::MaskedShare {
                iteration: 1,
                epoch: 0,
                party: 1,
                payload: vec![1, 2, 3],
            }
        );
    }

    #[test]
    fn reconnects_after_peer_restart() {
        let mut server = bind(0, HashMap::new());
        let server_addr = server.local_addr();
        let mut client = bind(1, HashMap::from([(0, server_addr)]));
        client.send(0, &Message::Heartbeat { nonce: 1 }).unwrap();
        assert_eq!(
            server.recv(Duration::from_secs(5)).unwrap().msg,
            Message::Heartbeat { nonce: 1 }
        );
        let port_addr = server.local_addr();
        drop(server);
        std::thread::sleep(Duration::from_millis(50));
        let mut server = EventTransport::bind(
            0,
            port_addr,
            HashMap::new(),
            RetryPolicy::fast_local(),
            Duration::from_secs(2),
        )
        .expect("rebind");
        let mut delivered = false;
        for nonce in 2..6 {
            if client.send(0, &Message::Heartbeat { nonce }).is_ok()
                && server.recv(Duration::from_secs(2)).is_ok()
            {
                delivered = true;
                break;
            }
        }
        assert!(delivered, "client never reconnected");
    }

    #[test]
    fn half_open_peer_is_reaped_on_the_idle_deadline() {
        // A raw socket that handshakes then stalls without closing must
        // be reaped once the idle deadline passes.
        let server = EventTransport::bind_reaping(
            0,
            loopback_addr(),
            HashMap::new(),
            RetryPolicy::fast_local(),
            Duration::from_secs(2),
            Duration::from_millis(150),
        )
        .expect("bind");
        let stalled = TcpStream::connect(server.local_addr()).expect("connect");
        let hello = Frame {
            flags: 0,
            from: 7,
            to: 0,
            seq: 0,
            msg: Message::Hello { party: 7 },
        }
        .encode();
        (&stalled).write_all(&hello).expect("hello");
        // The handshake registers the peer...
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.connected_parties() != vec![7] {
            assert!(Instant::now() < deadline, "peer 7 never registered");
            std::thread::sleep(Duration::from_millis(5));
        }
        // ...and total silence afterwards reaps it. The socket is kept
        // open on our side the whole time: this is idle-reaping, not EOF.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !server.connected_parties().is_empty() {
            assert!(Instant::now() < deadline, "stalled peer never reaped");
            std::thread::sleep(Duration::from_millis(10));
        }
        drop(stalled);
    }

    #[test]
    fn panicked_connection_handler_leaves_other_peers_sendable() {
        let mut server = bind(0, HashMap::new());
        let addr = server.local_addr();
        let mut doomed = bind(1, HashMap::from([(0, addr)]));
        let mut healthy = bind(2, HashMap::from([(0, addr)]));
        doomed.send(0, &Message::Heartbeat { nonce: 1 }).unwrap();
        healthy.send(0, &Message::Heartbeat { nonce: 2 }).unwrap();
        for _ in 0..2 {
            server.recv(Duration::from_secs(5)).expect("announce");
        }
        // Arm the panic and trigger it with traffic from the doomed peer.
        server.debug_panic_on_next_frame(1);
        let _ = doomed.send(0, &Message::Heartbeat { nonce: 3 });
        // The panic closes peer 1's connection only: the server still
        // serves peer 2 in both directions.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.connected_parties().contains(&1) {
            assert!(Instant::now() < deadline, "panicked conn never closed");
            std::thread::sleep(Duration::from_millis(5));
        }
        healthy.send(0, &Message::Heartbeat { nonce: 4 }).unwrap();
        let env = server.recv(Duration::from_secs(5)).expect("healthy recv");
        assert_eq!(env.from, 2);
        server.send(2, &Message::Heartbeat { nonce: 5 }).unwrap();
        let env = healthy.recv(Duration::from_secs(5)).expect("healthy reply");
        assert_eq!(env.from, 0);
    }

    /// Bytes parked across the endpoint's connections.
    fn parked(t: &EventTransport) -> usize {
        t.lock().parked()
    }

    fn wait_for(what: &str, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Decodes frames off a blocking socket until EOF, counting them in
    /// `count` as they arrive.
    fn read_frames(mut rx: TcpStream, count: Arc<AtomicU64>) -> Vec<Frame> {
        let mut frames = Vec::new();
        let mut prefix = [0u8; 4];
        while rx.read_exact(&mut prefix).is_ok() {
            let mut buf = prefix.to_vec();
            buf.resize(4 + u32::from_le_bytes(prefix) as usize, 0);
            rx.read_exact(&mut buf[4..]).expect("frame body");
            frames.push(Frame::decode(&buf).expect("well-formed frame"));
            count.fetch_add(1, Ordering::Relaxed);
        }
        frames
    }

    fn share(i: u64) -> Message {
        Message::MaskedShare {
            iteration: i,
            epoch: 0,
            party: 0,
            payload: vec![i; 8],
        }
    }

    /// Sends the next share in sequence, recording its encoded size.
    fn send_share(sender: &mut EventTransport, sizes: &mut Vec<u64>) {
        let receipt = sender.send(1, &share(sizes.len() as u64)).expect("send");
        sizes.push(receipt.bytes as u64);
    }

    /// A sender to `peer` as party 1 whose stall timer is `io_timeout`.
    fn sender_to(peer: &TcpListener, io_timeout: Duration) -> EventTransport {
        EventTransport::bind(
            0,
            loopback_addr(),
            HashMap::from([(1, peer.local_addr().expect("peer addr"))]),
            RetryPolicy::fast_local(),
            io_timeout,
        )
        .expect("bind")
    }

    #[test]
    fn frames_keep_send_order_across_the_overflow_boundary() {
        let peer = TcpListener::bind(loopback_addr()).expect("peer");
        let mut sender = sender_to(&peer, Duration::from_secs(30));
        let mut sizes = Vec::new();
        send_share(&mut sender, &mut sizes);
        // The peer accepts and does not read: direct writes fill the
        // socket until one comes back short and parks its remainder. A
        // first short write can be transient (the kernel was still moving
        // bytes toward the peer), so keep sending until bytes pile up:
        // the peer's window is shut.
        let (rx, _) = peer.accept().expect("accept");
        while parked(&sender) < 64 * 1024 {
            assert!(sizes.len() < 1_000_000, "the socket never filled");
            send_share(&mut sender, &mut sizes);
        }
        // Every later frame must now queue behind the parked bytes.
        const N: u64 = 100;
        for _ in 0..N {
            send_share(&mut sender, &mut sizes);
            assert!(parked(&sender) > 0, "the link must stay parked");
        }
        // Let the peer drain. Parked bytes move only while the sender's
        // owner is inside a call; `connected_parties` takes a turn.
        let received = Arc::new(AtomicU64::new(0));
        let reader = {
            let received = Arc::clone(&received);
            std::thread::spawn(move || read_frames(rx, received))
        };
        let queued = sizes.len() as u64;
        wait_for("the peer to drain", || {
            sender.connected_parties();
            received.load(Ordering::Relaxed) == 1 + queued && parked(&sender) == 0
        });
        // With nothing parked, the next frames go straight to the socket.
        for _ in 0..N {
            send_share(&mut sender, &mut sizes);
            assert_eq!(parked(&sender), 0, "a drained link writes directly");
        }
        let sent = sizes.len() as u64;
        wait_for("the last frames", || {
            received.load(Ordering::Relaxed) == 1 + sent
        });
        let hello = Frame::encoded_len_of(&Message::Hello { party: 0 }) as u64;
        assert_eq!(sender.stats().bytes_sent, hello + sizes.iter().sum::<u64>());
        drop(sender);
        let frames = reader.join().expect("reader");
        assert_eq!(frames[0].msg, Message::Hello { party: 0 });
        let order: Vec<u64> = frames[1..]
            .iter()
            .map(|f| match f.msg {
                Message::MaskedShare { iteration, .. } => iteration,
                ref other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(order, (0..sent).collect::<Vec<u64>>());
    }

    #[test]
    fn a_peer_busy_past_io_timeout_keeps_its_connection_below_the_mark() {
        // The peer accepts and does not read, as a learner computing
        // between calls. Half the high-water mark parked shuts its window
        // for good; the sender's loop then turns for several `io_timeout`s
        // with nothing moving, and the link must survive to deliver it all.
        let peer = TcpListener::bind(loopback_addr()).expect("peer");
        let io_timeout = Duration::from_millis(200);
        let mut sender = sender_to(&peer, io_timeout);
        let chunk = |i: u64| Message::MaskedShare {
            iteration: i,
            epoch: 0,
            party: 0,
            payload: vec![i; 8 * 1024],
        };
        let mut sizes = Vec::new();
        while parked(&sender) < SEND_HIGH_WATER / 2 {
            assert!(sizes.len() < 10_000, "the socket never filled");
            let receipt = sender.send(1, &chunk(sizes.len() as u64)).expect("send");
            sizes.push(receipt.bytes as u64);
        }
        let (rx, _) = peer.accept().expect("accept");
        let busy_until = Instant::now() + 5 * io_timeout;
        while Instant::now() < busy_until {
            assert_eq!(
                sender.connected_parties(),
                vec![1],
                "a busy peer was failed"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let received = Arc::new(AtomicU64::new(0));
        let reader = {
            let received = Arc::clone(&received);
            std::thread::spawn(move || read_frames(rx, received))
        };
        let sent = sizes.len() as u64;
        wait_for("the peer to drain", || {
            sender.connected_parties();
            received.load(Ordering::Relaxed) == 1 + sent
        });
        let hello = Frame::encoded_len_of(&Message::Hello { party: 0 }) as u64;
        assert_eq!(sender.stats().retries, 0);
        assert_eq!(sender.stats().bytes_sent, hello + sizes.iter().sum::<u64>());
        drop(sender);
        assert_eq!(reader.join().expect("reader").len() as u64, 1 + sent);
    }

    #[test]
    fn a_send_timed_out_past_the_high_water_mark_is_charged_once() {
        // The peer never reads. Frames fill its socket, then park; the
        // send that lifts the parked bytes past the high-water mark waits
        // `io_timeout`, fails that connection and goes out again on a
        // fresh one, whose empty socket takes it.
        let peer = TcpListener::bind(loopback_addr()).expect("peer");
        let mut sender = sender_to(&peer, Duration::from_millis(200));
        let big = |i: u64| Message::MaskedShare {
            iteration: i,
            epoch: 0,
            party: 0,
            payload: vec![i; 32 * 1024],
        };
        let mut sizes = Vec::new();
        while sender.stats().retries == 0 {
            assert!(sizes.len() < 256, "no send ever waited past the mark");
            let receipt = sender.send(1, &big(sizes.len() as u64)).expect("send");
            sizes.push(receipt.bytes as u64);
        }
        let stats = sender.stats();
        let hello = Frame::encoded_len_of(&Message::Hello { party: 0 }) as u64;
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.frames_sent, 2 + sizes.len() as u64, "two hellos");
        assert_eq!(stats.bytes_sent, 2 * hello + sizes.iter().sum::<u64>());
    }

    #[test]
    fn steady_sends_to_a_draining_peer_bypass_the_loop() {
        let peer = TcpListener::bind(loopback_addr()).expect("peer");
        let mut sender = bind(0, HashMap::from([(1, peer.local_addr().expect("addr"))]));
        sender.send(1, &share(0)).expect("dial");
        let (rx, _) = peer.accept().expect("accept");
        let received = Arc::new(AtomicU64::new(0));
        let reader = {
            let received = Arc::clone(&received);
            std::thread::spawn(move || read_frames(rx, received))
        };
        for i in 1..1_000 {
            sender.send(1, &share(i)).expect("send");
            assert_eq!(parked(&sender), 0, "frame {i} was parked");
        }
        wait_for("the peer", || received.load(Ordering::Relaxed) == 1_001);
        drop(sender);
        assert_eq!(reader.join().expect("reader").len(), 1_001);
    }

    #[test]
    fn a_reply_to_a_dial_in_needs_no_prior_recv() {
        // The coordinator knows no address, as `ppml-coordinator` does:
        // its first send turns the loop until the learner's hello lands.
        let mut coordinator = EventTransport::bind(
            0,
            loopback_addr(),
            HashMap::new(),
            RetryPolicy::tcp_link(),
            Duration::from_secs(2),
        )
        .expect("bind");
        let mut learner = bind(1, HashMap::from([(0, coordinator.local_addr())]));
        learner
            .send(0, &Message::Heartbeat { nonce: 1 })
            .expect("dial and send");
        coordinator
            .send(1, &Message::Heartbeat { nonce: 2 })
            .expect("reply before any recv");
        assert_eq!(coordinator.stats().retries, 0, "one wait found the hello");
        let env = learner.recv(Duration::from_secs(5)).expect("reply");
        assert_eq!((env.from, env.msg), (0, Message::Heartbeat { nonce: 2 }));
        let env = coordinator.recv(Duration::from_secs(5)).expect("frame");
        assert_eq!((env.from, env.msg), (1, Message::Heartbeat { nonce: 1 }));
    }

    #[test]
    fn a_dial_in_burst_waits_in_the_accept_queue() {
        // Nobody turns the endpoint's loop while the dialers connect, as
        // when a coordinator sleeps between polls. Every connect must
        // complete in the kernel's queue at once: a dropped SYN would
        // stall its dialer for a second-long retransmit.
        let server = bind(0, HashMap::new());
        let probe = TcpListener::bind(loopback_addr()).expect("probe");
        if !widen_backlog(fd_of(&probe), ACCEPT_BACKLOG) {
            return; // no raw listen(2) on this target
        }
        const DIALERS: u32 = 300;
        let dialers: Vec<TcpStream> = (1..=DIALERS)
            .map(|party| {
                let mut stream =
                    TcpStream::connect_timeout(&server.local_addr(), Duration::from_millis(500))
                        .expect("a queued connect completes at once");
                let hello = Frame {
                    flags: 0,
                    from: party,
                    to: 0,
                    seq: 0,
                    msg: Message::Hello { party },
                };
                stream.write_all(&hello.encode()).expect("hello");
                stream
            })
            .collect();
        wait_for("every dialer to register", || {
            server.connected_parties().len() == DIALERS as usize
        });
        drop(dialers);
    }

    /// This process's thread ids, or `None` off Linux.
    fn thread_ids() -> Option<BTreeSet<String>> {
        let tasks = std::fs::read_dir("/proc/self/task").ok()?;
        Some(
            tasks
                .filter_map(|e| e.ok())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect(),
        )
    }

    #[test]
    fn binding_an_endpoint_starts_no_thread() {
        if thread_ids().is_none() {
            return;
        }
        // Sibling tests start threads whenever they like, so one window
        // can see theirs; an endpoint that started a thread of its own
        // would show a new one in every window.
        let quiet = (0..50).any(|_| {
            let before = thread_ids().expect("thread ids");
            let mut server = bind(0, HashMap::new());
            let mut client = bind(1, HashMap::from([(0, server.local_addr())]));
            client
                .send(0, &Message::Heartbeat { nonce: 1 })
                .expect("send");
            server.recv(Duration::from_secs(5)).expect("recv");
            let after = thread_ids().expect("thread ids");
            after.is_subset(&before)
        });
        assert!(quiet, "every window saw a new thread");
    }

    #[test]
    fn an_ack_to_a_departed_peer_is_dropped_without_retries() {
        use telemetry::RingSink;
        let sink = RingSink::new(1 << 16);
        telemetry::install(sink.clone());
        // The coordinator cannot dial the learner: it only knows it as a
        // dial-in, exactly as `ppml-coordinator` does.
        let coordinator = EventTransport::bind(
            70,
            loopback_addr(),
            HashMap::new(),
            RetryPolicy::tcp_link(),
            Duration::from_secs(2),
        )
        .expect("bind");
        let mut learner = bind(71, HashMap::from([(70, coordinator.local_addr())]));
        // A data frame, which the coordinator's courier must ack.
        learner
            .send(70, &Message::Heartbeat { nonce: 1 })
            .expect("send");
        wait_for("the learner to register", || {
            coordinator.connected_parties() == vec![71]
        });
        drop(learner);
        wait_for("the learner to deregister", || {
            coordinator.connected_parties().is_empty()
        });
        let mut courier = Courier::new(coordinator, RetryPolicy::tcp_default());
        let retries = courier.transport().stats().retries;
        let env = courier.recv(Duration::from_secs(5)).expect("frame");
        assert_eq!(env.msg, Message::Heartbeat { nonce: 1 });
        assert_eq!(courier.transport().stats().retries, retries);
        telemetry::uninstall();
        let events: Vec<EventKind> = sink
            .snapshot()
            .into_iter()
            .filter(|e| e.party == 70)
            .map(|e| e.kind)
            .collect();
        let dropped = events
            .iter()
            .filter(|k| matches!(k, EventKind::AckDropped { to: 71, .. }))
            .count();
        assert_eq!(dropped, 1, "{events:?}");
        assert!(
            !events
                .iter()
                .any(|k| matches!(k, EventKind::SendTimeout { .. })),
            "{events:?}"
        );
    }
}
