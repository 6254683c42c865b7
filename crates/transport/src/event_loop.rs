//! The TCP backend: one I/O thread drives every connection.
//!
//! An endpoint dials peers lazily, greets each connection with a
//! `Hello`/`HelloAck` handshake and replies to a dialed-in peer on the
//! socket it arrived on. **All** sockets are multiplexed onto a single
//! I/O thread (see [`crate::poll`] for the readiness model):
//!
//! * thread budget is O(1) — the I/O thread plus whatever the caller
//!   already had, regardless of peer count;
//! * every connection carries an idle-read deadline (`IDLE_TIMEOUT`):
//!   a peer that stops producing bytes is reaped and its resources
//!   reclaimed, so a half-open peer costs nothing past the deadline;
//! * per-connection read state and parked write bytes are owned by the
//!   I/O thread; the one lock senders share with it (the registry of
//!   *lanes*, below) is held only around a map update or a socket
//!   write, never while a frame is decoded or delivered, and per-frame
//!   handling is panic-isolated, so a defect triggered by one peer's
//!   traffic closes that connection only;
//! * connection lifecycle is observable: `conn_open` / `conn_close` /
//!   `conn_reaped` telemetry events.
//!
//! The sending thread writes its own frame. Every registered connection
//! has a *lane* — its socket's write side, shared with the loop, plus a
//! count of the frames the loop still holds for it — in one registry
//! under one lock. While the loop holds none of a lane's bytes and the
//! endpoint's total write backlog sits below `SEND_HIGH_WATER`, a send
//! is one non-blocking `write` from the caller's thread: no channel, no
//! wake byte, no thread hand-off. A short write hands only the unsent
//! remainder to the loop (a `Cmd::Send`), and the lane stays closed to
//! direct writes until the loop has flushed every byte it holds, so the
//! frames of one link can neither interleave nor reorder. Past the
//! high-water mark the sender falls back to blocking on the
//! per-connection flush watermark, bounded by the endpoint's
//! `io_timeout`; a frame stuck past that deadline fails its connection
//! either way. On Linux the loop parks in a raw `ppoll` over every
//! socket plus a loopback wake connection — a queued command (overflow,
//! registration, shutdown) writes one wake byte, so commands and socket
//! traffic both interrupt the wait instantly and only ready sockets are
//! touched. On targets without the raw syscall the command channel's
//! `recv_timeout` doubles as the idle sleep and sockets are scanned with
//! non-blocking reads.

use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use ppml_telemetry as telemetry;
use telemetry::EventKind;

use crate::frame::{Frame, Message, PartyId};
use crate::poll::{read_scratch, ConnIo, IdleBackoff, ReadSweep};
use crate::retry::RetryPolicy;
use crate::transport::{Envelope, LinkStats, Transport, TransportError};

/// Locks a mutex, recovering the data if a previous holder panicked.
/// Poisoning is advisory; every structure guarded this way is a plain
/// registry that stays consistent across any single operation.
pub(crate) fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A connection that produces no inbound bytes for this long is reaped
/// (closed and deregistered). Writes do not refresh the deadline — a
/// half-open peer absorbs writes into a dead kernel buffer, so only
/// inbound bytes prove liveness. Learners heartbeat every 500 ms and the
/// coordinator broadcasts every round, so live links refresh constantly;
/// the deadline is deliberately generous.
const IDLE_TIMEOUT: Duration = Duration::from_secs(60);

/// Scan sleep bounds for `IdleBackoff`: the loop wakes at least this
/// often when active / at most [`MAX_SCAN_WAIT`] rarely when idle.
const MIN_SCAN_WAIT: Duration = Duration::from_micros(50);
/// See [`MIN_SCAN_WAIT`]; also the `ppoll` housekeeping tick.
const MAX_SCAN_WAIT: Duration = Duration::from_millis(2);

#[derive(Default)]
struct AtomicStats {
    frames_sent: AtomicU64,
    frames_received: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    retries: AtomicU64,
}

/// One registered connection's write side, as a sender sees it.
struct Lane {
    /// [`Conn::id`] of the connection behind the lane.
    conn: u64,
    /// The connection's socket, shared with its [`ConnIo`].
    stream: Arc<TcpStream>,
    /// Frames the loop holds for this lane: handed over by `Cmd::Send`
    /// (or queued by the loop itself, a `HelloAck`) and not yet fully
    /// flushed. A sender writes directly only while this is zero; the
    /// loop lowers it, under the registry lock, once its write buffer
    /// for the connection is empty.
    held: u32,
}

/// Total unflushed write-buffer bytes below which sends complete at
/// queue time instead of blocking on their flush watermark.
const SEND_HIGH_WATER: u64 = 1 << 20;

struct Shared {
    party: PartyId,
    /// Lanes by party: the connected set, and the lock every direct
    /// write holds. Held only around a map update or a socket write,
    /// never while a frame is decoded or delivered.
    lanes: Mutex<HashMap<PartyId, Lane>>,
    /// Source of [`Conn::id`]s; a dialer takes one before the loop
    /// adopts its stream.
    next_conn: AtomicU64,
    stats: AtomicStats,
    shutdown: AtomicBool,
    /// Unflushed bytes across all connections, refreshed by the loop
    /// each iteration. Advisory: senders read it to pick the fast
    /// (queue-and-return) or blocking send path.
    backlog: AtomicU64,
    /// True while the I/O thread is parked in `ppoll`. A thread that
    /// pushed a command (an overflowing send, a registration, shutdown)
    /// checks it: only then is a wake byte worth a syscall. The loop
    /// re-checks the command queue *after* setting this (both ends use
    /// `SeqCst`), so a command can never be missed.
    io_sleeping: AtomicBool,
    /// Sends handed to the loop instead of written directly.
    #[cfg(test)]
    handed_to_loop: AtomicU64,
}

/// How one queued send ended, reported back to the sending thread.
enum SendOutcome {
    /// The socket accepted the last byte of the frame.
    Sent,
    /// No registered connection for the destination.
    NotConnected,
    /// The connection failed while the frame was pending.
    Io(std::io::ErrorKind),
}

enum Cmd {
    /// Queue the unsent bytes of a frame on connection `lane`, which
    /// counted it in [`Lane::held`]; `bytes` is the whole frame's size,
    /// charged to stats once it is flushed. With `done` set, answer on
    /// it when flushed or failed (the blocking, backpressured path);
    /// with `done` empty the sender already returned and failures
    /// surface through the connection lifecycle instead.
    Send {
        lane: u64,
        encoded: Vec<u8>,
        bytes: u64,
        done: Option<mpsc::Sender<SendOutcome>>,
    },
    /// Adopt a freshly dialed (hello already written) outbound stream,
    /// whose lane the dialer already registered as connection `id`.
    Register {
        party: PartyId,
        id: u64,
        stream: Arc<TcpStream>,
    },
    /// Test hook: panic inside the next frame handled for `party`.
    PanicOnNextFrame { party: PartyId },
    /// Stop the loop.
    Shutdown,
}

/// One frame queued on a connection, awaiting its flush watermark.
struct Pending {
    /// Send completes when the connection's flushed byte total reaches
    /// this.
    watermark: u64,
    /// Encoded frame size, charged to stats on completion.
    bytes: u64,
    /// Past this instant an unflushed frame fails the connection (the
    /// bound a blocking write would have).
    deadline: Instant,
    /// Present only for blocking sends; fast-path frames settle their
    /// stats here but answer no one.
    done: Option<mpsc::Sender<SendOutcome>>,
}

enum CloseReason {
    /// Peer closed or the socket errored during a read.
    Gone,
    /// The byte stream failed frame decoding.
    Corrupt,
    /// Frame handling panicked (isolated to this connection).
    Panicked,
    /// A write failed or a pending frame outlived its deadline.
    WriteFailed(std::io::ErrorKind),
    /// A newer connection registered for the same party.
    Replaced,
    /// No inbound bytes within the idle deadline.
    Idle(u64),
}

struct Conn {
    /// Unique within the endpoint; ties a [`Lane`] to this connection.
    id: u64,
    io: ConnIo,
    party: Option<PartyId>,
    inbound: bool,
    /// Frames this connection took on for its lane since the lane was
    /// last released (see [`Lane::held`]).
    held: u32,
    pending: VecDeque<Pending>,
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
            held: 0,
            pending: VecDeque::new(),
            panic_next: false,
            close: None,
        }
    }
}

enum FrameFlow {
    Continue,
    CloseCorrupt,
    InboxGone,
}

/// Drains complete frames off one connection: handshakes are handled in
/// place, app messages go to the inbox. Runs under `catch_unwind`, so a
/// panic here (including the injected test panic) costs this connection
/// only.
fn drain_frames(
    shared: &Shared,
    inbox_tx: &mpsc::Sender<Envelope>,
    conn: &mut Conn,
) -> (FrameFlow, Option<PartyId>) {
    let mut registered = None;
    loop {
        let encoded = match conn.io.take_frame() {
            Ok(Some(buf)) => buf,
            Ok(None) => return (FrameFlow::Continue, registered),
            Err(()) => {
                telemetry::emit(shared.party, EventKind::FrameRejected { bytes: 4 });
                return (FrameFlow::CloseCorrupt, registered);
            }
        };
        if conn.panic_next {
            conn.panic_next = false;
            panic!("injected connection-handler panic");
        }
        let frame = match Frame::decode(&encoded) {
            Ok(f) => f,
            Err(_) => {
                telemetry::emit(
                    shared.party,
                    EventKind::FrameRejected {
                        bytes: encoded.len() as u64,
                    },
                );
                return (FrameFlow::CloseCorrupt, registered);
            }
        };
        shared
            .stats
            .bytes_received
            .fetch_add(encoded.len() as u64, Ordering::Relaxed);
        shared.stats.frames_received.fetch_add(1, Ordering::Relaxed);
        telemetry::emit(
            shared.party,
            EventKind::FrameRecv {
                from: frame.from,
                bytes: encoded.len() as u64,
            },
        );
        if frame.to != shared.party {
            continue; // misrouted; ignore
        }
        match frame.msg {
            Message::Hello { party } => {
                conn.party = Some(party);
                registered = Some(party);
                telemetry::emit(
                    shared.party,
                    EventKind::ConnOpen {
                        peer: party,
                        inbound: conn.inbound,
                    },
                );
                let ack = Frame {
                    flags: 0,
                    from: shared.party,
                    to: party,
                    seq: 0,
                    msg: Message::HelloAck {
                        party: shared.party,
                    },
                }
                .encode();
                conn.io.queue(&ack);
                conn.held += 1;
                // The lane opens closed: the loop holds the ack's bytes.
                let mut lanes = lock_recover(&shared.lanes);
                match lanes.get_mut(&party) {
                    Some(lane) if lane.conn == conn.id => lane.held += 1,
                    _ => {
                        let stream = Arc::clone(conn.io.stream());
                        let (conn, held) = (conn.id, conn.held);
                        lanes.insert(party, Lane { conn, stream, held });
                    }
                }
                drop(lanes);
                shared
                    .stats
                    .bytes_sent
                    .fetch_add(ack.len() as u64, Ordering::Relaxed);
                shared.stats.frames_sent.fetch_add(1, Ordering::Relaxed);
            }
            Message::HelloAck { .. } => {}
            msg => {
                let env = Envelope {
                    from: frame.from,
                    seq: frame.seq,
                    flags: frame.flags,
                    msg,
                };
                if inbox_tx.send(env).is_err() {
                    return (FrameFlow::InboxGone, registered);
                }
            }
        }
    }
}

struct IoLoop {
    shared: Arc<Shared>,
    /// [`IDLE_TIMEOUT`] outside tests that exercise reaping.
    idle_timeout: Duration,
    listener: TcpListener,
    cmd_rx: mpsc::Receiver<Cmd>,
    inbox_tx: mpsc::Sender<Envelope>,
    io_timeout: Duration,
    conns: Vec<Conn>,
    /// Read end of the loopback wake connection: senders write a byte
    /// here to interrupt a parked `ppoll`. `None` when the wake pair
    /// could not be set up — the loop then falls back to scanning.
    wake: Option<TcpStream>,
    /// Where the last `Cmd::Send` found its connection. Overflow from a
    /// coordinator broadcast addresses parties in registration order,
    /// so starting the next lookup here makes the scan O(1) amortized.
    send_hint: usize,
    /// Reused across `poll_ready` calls to keep the hot loop
    /// allocation-free.
    poll_fds: Vec<crate::poll::PollFd>,
    poll_map: Vec<usize>,
    ready_pool: Vec<bool>,
}

/// What one `ppoll` wait observed, indexed alongside `IoLoop::conns`.
struct Ready {
    listener: bool,
    wake: bool,
    any: bool,
    /// Per-connection readable/writable bits; connections registered
    /// after the poll (missing entries) are treated as ready.
    conns: Vec<bool>,
}

impl IoLoop {
    fn run(mut self) {
        if self.listener.set_nonblocking(true).is_err() {
            return;
        }
        let use_ppoll = crate::poll::PPOLL_SUPPORTED && self.wake.is_some();
        let mut backoff = IdleBackoff::new(MIN_SCAN_WAIT, MAX_SCAN_WAIT);
        let mut scratch = read_scratch();
        loop {
            let mut progress = false;
            let mut stop = false;
            // Wait phase: park in `ppoll` over every socket (a queued
            // command writes a wake byte), or — on targets without the
            // raw syscall — sleep on the command channel and scan.
            let mut ready: Option<Ready> = None;
            if use_ppoll {
                self.shared.io_sleeping.store(true, Ordering::SeqCst);
                match self.cmd_rx.try_recv() {
                    Ok(cmd) => {
                        self.shared.io_sleeping.store(false, Ordering::SeqCst);
                        progress = true;
                        stop = self.handle_cmd(cmd);
                    }
                    Err(mpsc::TryRecvError::Empty) => {
                        // Readiness ends this wait instantly, so unlike
                        // the scan fallback there is no latency reason
                        // to wake early: the timeout only paces
                        // housekeeping (deadlines, reaping).
                        let r = self.poll_ready(MAX_SCAN_WAIT);
                        self.shared.io_sleeping.store(false, Ordering::SeqCst);
                        progress |= r.any;
                        ready = Some(r);
                    }
                    Err(mpsc::TryRecvError::Disconnected) => {
                        self.shared.io_sleeping.store(false, Ordering::SeqCst);
                        stop = true;
                    }
                }
            } else {
                match self.cmd_rx.recv_timeout(backoff.next_wait()) {
                    Ok(cmd) => {
                        progress = true;
                        stop = self.handle_cmd(cmd);
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => stop = true,
                }
            }
            if !stop {
                while let Ok(cmd) = self.cmd_rx.try_recv() {
                    progress = true;
                    if self.handle_cmd(cmd) {
                        stop = true;
                        break;
                    }
                }
            }
            if stop || self.shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            if use_ppoll && ready.is_none() {
                // Commands were handled without a wait; take a zero-
                // timeout readiness snapshot so the sweep still touches
                // only sockets with actual traffic — and so a sustained
                // command stream cannot starve the read path.
                ready = Some(self.poll_ready(Duration::ZERO));
            }
            if ready.as_ref().is_some_and(|r| r.wake) {
                self.drain_wake();
            }
            if ready.as_ref().is_none_or(|r| r.listener) {
                progress |= self.accept_new();
            }
            progress |= self.sweep(&mut scratch, ready.as_ref());
            progress |= self.flush_backlogged();
            if let Some(r) = ready.take() {
                // Recycle the readiness mask for the next poll.
                self.ready_pool = r.conns;
            }
            self.reap_idle();
            self.cleanup();
            let backlog: u64 = self.conns.iter().map(|c| c.io.backlog() as u64).sum();
            self.shared.backlog.store(backlog, Ordering::Relaxed);
            if progress {
                backoff.reset();
            }
        }
        // Linger: fast-path sends complete at queue time, so "send,
        // then drop the endpoint" must still put the queued bytes on
        // the wire. Bounded by the I/O timeout — a peer that stopped
        // draining its socket cannot wedge shutdown.
        let linger_deadline = Instant::now() + self.io_timeout;
        loop {
            let mut remaining = 0u64;
            for idx in 0..self.conns.len() {
                if self.conns[idx].close.is_some() {
                    continue;
                }
                self.flush_conn(idx);
                let conn = &self.conns[idx];
                if conn.close.is_none() {
                    remaining += conn.io.backlog() as u64;
                }
            }
            if remaining == 0 || Instant::now() >= linger_deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Shutdown: deregister everything so `connected_parties` empties
        // and blocked senders learn the endpoint is gone.
        lock_recover(&self.shared.lanes).clear();
        for mut conn in std::mem::take(&mut self.conns) {
            for pending in conn.pending.drain(..) {
                if let Some(done) = pending.done {
                    let _ = done.send(SendOutcome::NotConnected);
                }
            }
        }
    }

    /// Returns `true` when the loop must stop.
    fn handle_cmd(&mut self, cmd: Cmd) -> bool {
        match cmd {
            Cmd::Send {
                lane,
                encoded,
                bytes,
                done,
            } => {
                match self.find_conn(lane) {
                    Some(idx) => {
                        let conn = &mut self.conns[idx];
                        let watermark = conn.io.queue(&encoded);
                        conn.held += 1;
                        conn.pending.push_back(Pending {
                            watermark,
                            bytes,
                            deadline: Instant::now() + self.io_timeout,
                            done,
                        });
                    }
                    None => {
                        if let Some(done) = done {
                            let _ = done.send(SendOutcome::NotConnected);
                        }
                    }
                }
                false
            }
            Cmd::Register { party, id, stream } => {
                let Ok(io) = ConnIo::new(stream) else {
                    lock_recover(&self.shared.lanes).retain(|_, lane| lane.conn != id);
                    return false;
                };
                for old in self.conns.iter_mut().filter(|c| c.party == Some(party)) {
                    old.close.get_or_insert(CloseReason::Replaced);
                }
                self.conns.push(Conn::new(id, io, Some(party)));
                telemetry::emit(
                    self.shared.party,
                    EventKind::ConnOpen {
                        peer: party,
                        inbound: false,
                    },
                );
                false
            }
            Cmd::PanicOnNextFrame { party } => {
                if let Some(conn) = self.conns.iter_mut().find(|c| c.party == Some(party)) {
                    conn.panic_next = true;
                }
                false
            }
            Cmd::Shutdown => true,
        }
    }

    /// Finds live connection `id`, starting at (and updating) the
    /// rotating send hint so in-order broadcasts resolve without a full
    /// scan.
    fn find_conn(&mut self, id: u64) -> Option<usize> {
        let n = self.conns.len();
        for step in 0..n {
            let idx = (self.send_hint + step) % n;
            let conn = &self.conns[idx];
            if conn.id == id && conn.close.is_none() {
                self.send_hint = (idx + 1) % n;
                return Some(idx);
            }
        }
        None
    }

    /// Adopts every connection waiting in the accept queue. Inbound
    /// connections stay anonymous until their [`Message::Hello`] lands.
    fn accept_new(&mut self) -> bool {
        let mut progress = false;
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if let Ok(io) = ConnIo::new(Arc::new(stream)) {
                        let id = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
                        self.conns.push(Conn::new(id, io, None));
                        progress = true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        progress
    }

    /// Blocks in `ppoll` for up to `timeout` over the listener, the
    /// wake socket and every live connection (write interest only where
    /// a backlog exists). Conservative on syscall failure: everything
    /// is reported ready and the iteration degrades to one full sweep.
    fn poll_ready(&mut self, timeout: Duration) -> Ready {
        use crate::poll::{fd_of, ppoll, PollFd, POLLIN, POLLOUT};
        let mut fds = std::mem::take(&mut self.poll_fds);
        let mut map = std::mem::take(&mut self.poll_map);
        let mut conns_ready = std::mem::take(&mut self.ready_pool);
        fds.clear();
        map.clear();
        fds.push(PollFd::new(fd_of(&self.listener), POLLIN));
        let wake_fd = self.wake.as_ref().map_or(-1, fd_of); // <0: ignored
        fds.push(PollFd::new(wake_fd, POLLIN));
        for (idx, conn) in self.conns.iter().enumerate() {
            if conn.close.is_some() {
                continue;
            }
            let mut interest = POLLIN;
            if conn.io.backlog() > 0 {
                interest |= POLLOUT;
            }
            fds.push(PollFd::new(conn.io.raw_fd(), interest));
            map.push(idx);
        }
        let n = ppoll(&mut fds, timeout);
        conns_ready.clear();
        conns_ready.resize(self.conns.len(), n < 0);
        let ready = if n < 0 {
            Ready {
                listener: true,
                wake: true,
                any: true,
                conns: conns_ready,
            }
        } else {
            for (slot, &idx) in map.iter().enumerate() {
                if fds[2 + slot].revents != 0 {
                    conns_ready[idx] = true;
                }
            }
            Ready {
                listener: fds[0].revents != 0,
                wake: fds[1].revents != 0,
                any: n > 0,
                conns: conns_ready,
            }
        };
        self.poll_fds = fds;
        self.poll_map = map;
        ready
    }

    /// Empties the wake socket (each queued command may have written a
    /// nudge byte). EOF means the endpoint handle is gone — shutdown is
    /// already in flight.
    fn drain_wake(&mut self) {
        let Some(wake) = &mut self.wake else { return };
        let mut buf = [0u8; 64];
        loop {
            match Read::read(wake, &mut buf) {
                Ok(0) => {
                    self.wake = None;
                    return;
                }
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.wake = None;
                    return;
                }
            }
        }
    }

    /// Flushes every connection with parked bytes — freshly queued
    /// sends and `POLLOUT`-ready sockets alike — settling watermarks.
    fn flush_backlogged(&mut self) -> bool {
        let mut progress = false;
        for idx in 0..self.conns.len() {
            if self.conns[idx].close.is_none() && self.conns[idx].io.backlog() > 0 {
                progress |= self.flush_conn(idx);
            }
        }
        progress
    }

    /// One readiness pass: read every connection (only the ready ones
    /// when a poll result is supplied), handle its frames
    /// (panic-isolated), flush its write buffer, complete or expire its
    /// pending sends.
    fn sweep(&mut self, scratch: &mut [u8; 64 * 1024], ready: Option<&Ready>) -> bool {
        let mut progress = false;
        let mut registrations: Vec<(usize, PartyId)> = Vec::new();
        for idx in 0..self.conns.len() {
            // Connections registered after the poll snapshot (index
            // beyond the mask) are swept unconditionally.
            if ready.is_some_and(|r| !r.conns.get(idx).copied().unwrap_or(true)) {
                continue;
            }
            let shared = Arc::clone(&self.shared);
            let inbox_tx = self.inbox_tx.clone();
            let conn = &mut self.conns[idx];
            if conn.close.is_some() {
                continue;
            }
            match conn.io.read_sweep(scratch) {
                ReadSweep::Progress => progress = true,
                ReadSweep::Idle => {}
                ReadSweep::Closed => {
                    conn.close = Some(CloseReason::Gone);
                }
            }
            // Drain whatever full frames arrived (even on a connection
            // that just hit EOF — its final bytes are still valid).
            let drained = catch_unwind(AssertUnwindSafe(|| drain_frames(&shared, &inbox_tx, conn)));
            match drained {
                Ok((flow, registered)) => {
                    if let Some(party) = registered {
                        registrations.push((idx, party));
                    }
                    match flow {
                        FrameFlow::Continue => {}
                        FrameFlow::CloseCorrupt => {
                            conn.close.get_or_insert(CloseReason::Corrupt);
                        }
                        FrameFlow::InboxGone => {
                            // The endpoint was dropped; stop everything.
                            self.shared.shutdown.store(true, Ordering::Release);
                            return progress;
                        }
                    }
                }
                Err(_) => {
                    conn.close = Some(CloseReason::Panicked);
                }
            }
            if conn.close.is_none() {
                progress |= self.flush_conn(idx);
            }
        }
        // A party that announced itself on a new connection replaces any
        // older connection registered under the same id.
        for (keep_idx, party) in registrations {
            for (idx, old) in self.conns.iter_mut().enumerate() {
                if idx != keep_idx && old.party == Some(party) {
                    old.close.get_or_insert(CloseReason::Replaced);
                }
            }
        }
        progress
    }

    /// Flushes one connection, settles its pending sends and, once it
    /// holds no bytes, reopens its lane to direct writes. Returns
    /// whether bytes moved.
    fn flush_conn(&mut self, idx: usize) -> bool {
        let conn = &mut self.conns[idx];
        let before = conn.io.flushed_total();
        if let Err(e) = conn.io.flush() {
            conn.close = Some(CloseReason::WriteFailed(e.kind()));
            return false;
        }
        let flushed = conn.io.flushed_total();
        while let Some(front) = conn.pending.front() {
            if front.watermark > flushed {
                break;
            }
            let settled = conn.pending.pop_front().expect("front exists");
            self.shared
                .stats
                .bytes_sent
                .fetch_add(settled.bytes, Ordering::Relaxed);
            self.shared
                .stats
                .frames_sent
                .fetch_add(1, Ordering::Relaxed);
            if let Some(done) = settled.done {
                let _ = done.send(SendOutcome::Sent);
            }
        }
        if conn.held > 0 && conn.io.backlog() == 0 {
            if let Some(party) = conn.party {
                let mut lanes = lock_recover(&self.shared.lanes);
                if let Some(lane) = lanes.get_mut(&party).filter(|l| l.conn == conn.id) {
                    lane.held -= conn.held;
                }
            }
            conn.held = 0;
        }
        if let Some(front) = conn.pending.front() {
            if conn.io.backlog() > 0 && Instant::now() > front.deadline {
                // The peer stopped draining its socket: the event-loop
                // analogue of a blocking write timing out.
                conn.close = Some(CloseReason::WriteFailed(std::io::ErrorKind::TimedOut));
            }
        }
        flushed > before
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

    /// Removes every connection marked for close: fails its pending
    /// sends, drops its lane (and with it the socket), emits the
    /// lifecycle event.
    fn cleanup(&mut self) {
        if self.conns.iter().all(|c| c.close.is_none()) {
            return;
        }
        let mut kept = Vec::with_capacity(self.conns.len());
        let mut closing = Vec::new();
        for conn in std::mem::take(&mut self.conns) {
            if conn.close.is_some() {
                closing.push(conn);
            } else {
                kept.push(conn);
            }
        }
        self.conns = kept;
        for mut conn in closing {
            let reason = conn.close.take().expect("marked for close");
            let outcome_kind = match &reason {
                CloseReason::WriteFailed(kind) => Some(*kind),
                _ => None,
            };
            for pending in conn.pending.drain(..) {
                if let Some(done) = pending.done {
                    let _ = done.send(match outcome_kind {
                        Some(kind) => SendOutcome::Io(kind),
                        None => SendOutcome::NotConnected,
                    });
                }
            }
            // A newer connection for the same party keeps its lane.
            lock_recover(&self.shared.lanes).retain(|_, lane| lane.conn != conn.id);
            let peer = conn.party.unwrap_or(telemetry::NO_PARTY);
            match reason {
                CloseReason::Idle(idle_ms) => {
                    telemetry::emit(self.shared.party, EventKind::ConnReaped { peer, idle_ms });
                }
                _ => {
                    telemetry::emit(self.shared.party, EventKind::ConnClose { peer });
                }
            }
        }
    }
}

/// The TCP endpoint: lazy dialing with a bounded [`RetryPolicy`],
/// per-message `io_timeout`, reconnection after a peer restarts, and
/// O(1) threads for any number of peers. See the module docs.
pub struct EventTransport {
    shared: Arc<Shared>,
    inbox: mpsc::Receiver<Envelope>,
    cmd_tx: mpsc::Sender<Cmd>,
    peers: HashMap<PartyId, SocketAddr>,
    next_seq: HashMap<PartyId, u64>,
    retry: RetryPolicy,
    io_timeout: Duration,
    local_addr: SocketAddr,
    /// Write end of the loopback wake connection ([`IoLoop::wake`]).
    wake_tx: Option<TcpStream>,
    io_thread: Option<std::thread::JoinHandle<()>>,
}

impl EventTransport {
    /// Binds `party`'s endpoint on `addr` and starts its I/O thread.
    /// `peers` lists the addresses this endpoint may dial; a peer that
    /// dials in needs no entry, since replies reuse its connection.
    /// `retry` is the dial schedule ([`RetryPolicy::tcp_link`]) and
    /// `io_timeout` bounds each connect and each blocked write.
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
        // Wake channel: a loopback self-connection the loop polls
        // alongside peer sockets, so a queued command interrupts a
        // parked `ppoll` instantly. Failure is non-fatal — the loop
        // then sleeps on the command channel and scans instead.
        let mut early: Vec<TcpStream> = Vec::new();
        let wake_pair: Option<(TcpStream, TcpStream)> = if crate::poll::PPOLL_SUPPORTED {
            (|| -> std::io::Result<(TcpStream, TcpStream)> {
                let tx = TcpStream::connect_timeout(&local_addr, Duration::from_secs(1))?;
                tx.set_nonblocking(true)?;
                let me = tx.local_addr()?;
                // The connect above completed its handshake, so our own
                // end already sits in the accept queue — at worst behind
                // a few real peers that raced in on a well-known port;
                // adopt those as ordinary inbound connections.
                for _ in 0..64 {
                    let (rx, peer) = listener.accept()?;
                    if peer == me {
                        rx.set_nonblocking(true)?;
                        return Ok((tx, rx));
                    }
                    early.push(rx);
                }
                Err(std::io::Error::other(
                    "wake connection lost in accept queue",
                ))
            })()
            .ok()
        } else {
            None
        };
        let (wake_tx, wake_rx) = match wake_pair {
            Some((tx, rx)) => (Some(tx), Some(rx)),
            None => (None, None),
        };
        let conns: Vec<Conn> = early
            .into_iter()
            .filter_map(|s| ConnIo::new(Arc::new(s)).ok())
            .zip(0..)
            .map(|(io, id)| Conn::new(id, io, None))
            .collect();
        let (inbox_tx, inbox) = mpsc::channel();
        let (cmd_tx, cmd_rx) = mpsc::channel();
        let shared = Arc::new(Shared {
            party,
            lanes: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(conns.len() as u64),
            stats: AtomicStats::default(),
            shutdown: AtomicBool::new(false),
            backlog: AtomicU64::new(0),
            io_sleeping: AtomicBool::new(false),
            #[cfg(test)]
            handed_to_loop: AtomicU64::new(0),
        });
        let io_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("ppml-io-{party}"))
                .spawn(move || {
                    IoLoop {
                        shared,
                        idle_timeout,
                        listener,
                        cmd_rx,
                        inbox_tx,
                        io_timeout,
                        conns,
                        wake: wake_rx,
                        send_hint: 0,
                        poll_fds: Vec::new(),
                        poll_map: Vec::new(),
                        ready_pool: Vec::new(),
                    }
                    .run()
                })
                .map_err(TransportError::Io)?
        };
        Ok(EventTransport {
            shared,
            inbox,
            cmd_tx,
            peers,
            next_seq: HashMap::new(),
            retry,
            io_timeout,
            local_addr,
            wake_tx,
            io_thread: Some(io_thread),
        })
    }

    /// The address this endpoint is actually listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Parties with a registered live connection (dialed out or dialed
    /// in and hello-handshaken), sorted.
    pub fn connected_parties(&self) -> Vec<PartyId> {
        let mut parties: Vec<PartyId> = lock_recover(&self.shared.lanes).keys().copied().collect();
        parties.sort_unstable();
        parties
    }

    /// Wakes a parked I/O loop after pushing a command — an overflowing
    /// send, a registration, shutdown; a direct write needs no wake.
    /// Skipped (and free) while the loop is awake; a full or dead wake
    /// socket is also fine — the loop is then guaranteed to drain the
    /// queue on its own.
    fn nudge(&self) {
        if self.shared.io_sleeping.load(Ordering::SeqCst) {
            if let Some(wake) = &self.wake_tx {
                let _ = (&*wake).write(&[1]);
            }
        }
    }

    /// Test hook: the I/O loop panics inside the next frame handled for
    /// `party`, which must close only that connection.
    #[doc(hidden)]
    pub fn debug_panic_on_next_frame(&self, party: PartyId) {
        let _ = self.cmd_tx.send(Cmd::PanicOnNextFrame { party });
        self.nudge();
    }

    /// Dials `to`, writes the hello (blocking, bounded by `io_timeout`),
    /// registers the lane — open at once to direct writes — and hands
    /// the stream to the I/O loop. Command-channel FIFO guarantees the
    /// registration lands before any send this thread hands over
    /// afterwards.
    fn dial(&self, to: PartyId, addr: SocketAddr) -> Result<(), TransportError> {
        let stream = TcpStream::connect_timeout(&addr, self.io_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(self.io_timeout))?;
        let hello = Frame {
            flags: 0,
            from: self.shared.party,
            to,
            seq: 0,
            msg: Message::Hello {
                party: self.shared.party,
            },
        }
        .encode();
        (&stream).write_all(&hello)?;
        stream.set_nonblocking(true)?;
        self.charge_sent(hello.len());
        let stream = Arc::new(stream);
        let id = self.shared.next_conn.fetch_add(1, Ordering::Relaxed);
        let lane = Lane {
            conn: id,
            stream: Arc::clone(&stream),
            held: 0,
        };
        lock_recover(&self.shared.lanes).insert(to, lane);
        self.cmd_tx
            .send(Cmd::Register {
                party: to,
                id,
                stream,
            })
            .map_err(|_| TransportError::Closed)?;
        self.nudge();
        Ok(())
    }

    fn charge_sent(&self, bytes: usize) {
        let stats = &self.shared.stats;
        stats.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
        stats.frames_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// One attempt to put `encoded` on `to`'s lane. A free lane below
    /// the high-water mark takes one non-blocking `write` from this
    /// thread; whatever that leaves unsent, or the whole frame when the
    /// loop still holds bytes for the lane, is handed to the loop and
    /// charged to the lane, so the link's bytes stay in send order.
    /// Past the high-water mark the call blocks on the flush watermark.
    fn send_once(&self, to: PartyId, encoded: &[u8]) -> Result<(), TransportError> {
        let done_rx = {
            let mut lanes = lock_recover(&self.shared.lanes);
            let lane = lanes.get_mut(&to).ok_or(TransportError::Unreachable(to))?;
            let fast = self.shared.backlog.load(Ordering::Relaxed) < SEND_HIGH_WATER;
            let mut written = 0;
            if fast && lane.held == 0 {
                written = loop {
                    match (&*lane.stream).write(encoded) {
                        Ok(n) => break n,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        // `WouldBlock`, or a hard error the loop's flush
                        // meets again and fails the connection on.
                        Err(_) => break 0,
                    }
                };
                if written == encoded.len() {
                    self.charge_sent(written);
                    return Ok(());
                }
            }
            lane.held += 1;
            #[cfg(test)]
            self.shared.handed_to_loop.fetch_add(1, Ordering::Relaxed);
            let (done, done_rx) = if fast {
                (None, None)
            } else {
                let (tx, rx) = mpsc::channel();
                (Some(tx), Some(rx))
            };
            let cmd = Cmd::Send {
                lane: lane.conn,
                encoded: encoded[written..].to_vec(),
                bytes: encoded.len() as u64,
                done,
            };
            self.cmd_tx.send(cmd).map_err(|_| TransportError::Closed)?;
            done_rx
        };
        self.nudge();
        // Fast path: the loop owns the remainder and the send is
        // complete. A frame lost to a connection dying in flight is
        // indistinguishable from one lost on the wire just after a
        // blocking write returned, and the same recovery applies: the
        // courier retransmits, later sends see `NotConnected`, and the
        // receive-side deadlines still bound every wait.
        let Some(done_rx) = done_rx else {
            return Ok(());
        };
        // Backpressured: a peer that stops draining its socket pushes
        // back on the sender (and eventually fails the connection via
        // the write deadline). The loop always answers first: its
        // per-frame deadline is `io_timeout` and its scan tick is
        // bounded by `MAX_SCAN_WAIT`, both well inside this wait.
        match done_rx.recv_timeout(self.io_timeout + Duration::from_secs(1)) {
            Ok(SendOutcome::Sent) => Ok(()),
            Ok(SendOutcome::NotConnected) => Err(TransportError::Unreachable(to)),
            Ok(SendOutcome::Io(kind)) => Err(TransportError::Io(std::io::Error::from(kind))),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(TransportError::Io(std::io::Error::from(
                std::io::ErrorKind::TimedOut,
            ))),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }
}

impl Transport for EventTransport {
    fn party(&self) -> PartyId {
        self.shared.party
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
        let encoded = Frame {
            flags,
            from: self.shared.party,
            to,
            seq,
            msg: msg.clone(),
        }
        .encode();
        // An ack is attempted once, on a lane that already exists: it
        // never dials and never backs off. Dropping one is always safe
        // under stop-and-wait (see `Courier`), and waiting out a
        // schedule for a peer that just left stalls the receiver.
        let ack = matches!(msg, Message::Ack { .. });
        let mut last_err: Option<TransportError> = None;
        for attempt in 0..self.retry.max_attempts {
            if attempt > 0 {
                self.shared.stats.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.retry.backoff(attempt - 1));
            }
            if !lock_recover(&self.shared.lanes).contains_key(&to) {
                match self.peers.get(&to) {
                    _ if ack => return Err(TransportError::Unreachable(to)),
                    Some(&addr) => {
                        if let Err(e) = self.dial(to, addr) {
                            last_err = Some(e);
                            continue;
                        }
                    }
                    // We cannot dial this party; it must dial us. Give
                    // the handshake time to land before retrying.
                    None => std::thread::sleep(self.retry.backoff(attempt)),
                }
            }
            match self.send_once(to, &encoded) {
                Ok(()) => {
                    telemetry::emit(
                        self.shared.party,
                        EventKind::FrameSent {
                            to,
                            bytes: encoded.len() as u64,
                            retransmit: flags & crate::frame::FLAG_RETRANSMIT != 0,
                        },
                    );
                    return Ok(encoded.len());
                }
                Err(TransportError::Closed) => return Err(TransportError::Closed),
                Err(e) if ack => return Err(e),
                Err(e) => last_err = Some(e),
            }
        }
        telemetry::emit(
            self.shared.party,
            EventKind::SendTimeout {
                to,
                attempts: self.retry.max_attempts,
            },
        );
        Err(last_err.unwrap_or(TransportError::Unreachable(to)))
    }

    fn recv(&mut self, timeout: Duration) -> Result<Envelope, TransportError> {
        match self.inbox.recv_timeout(timeout) {
            Ok(env) => Ok(env),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn stats(&self) -> LinkStats {
        let s = &self.shared.stats;
        LinkStats {
            frames_sent: s.frames_sent.load(Ordering::Relaxed),
            frames_received: s.frames_received.load(Ordering::Relaxed),
            bytes_sent: s.bytes_sent.load(Ordering::Relaxed),
            bytes_received: s.bytes_received.load(Ordering::Relaxed),
            retries: s.retries.load(Ordering::Relaxed),
        }
    }
}

impl Drop for EventTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = self.cmd_tx.send(Cmd::Shutdown);
        self.nudge();
        if let Some(handle) = self.io_thread.take() {
            // The loop wakes at least every `MAX_SCAN_WAIT`, so this
            // join is bounded by milliseconds.
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::courier::Courier;

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

    fn handed_to_loop(t: &EventTransport) -> u64 {
        t.shared.handed_to_loop.load(Ordering::Relaxed)
    }

    fn lane_held(t: &EventTransport, party: PartyId) -> u32 {
        lock_recover(&t.shared.lanes)
            .get(&party)
            .map_or(0, |lane| lane.held)
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

    #[test]
    fn frames_keep_send_order_across_the_overflow_boundary() {
        let peer = TcpListener::bind(loopback_addr()).expect("peer");
        let mut sender = EventTransport::bind(
            0,
            loopback_addr(),
            HashMap::from([(1, peer.local_addr().expect("peer addr"))]),
            RetryPolicy::fast_local(),
            Duration::from_secs(30),
        )
        .expect("bind");
        let mut sizes = Vec::new();
        send_share(&mut sender, &mut sizes);
        // The peer accepts and does not read: direct writes fill the
        // socket until one comes back short.
        let (rx, _) = peer.accept().expect("accept");
        while handed_to_loop(&sender) == 0 {
            send_share(&mut sender, &mut sizes);
        }
        // A first short write can be transient (the kernel was still
        // moving bytes toward the peer), and the loop may flush the
        // remainder and reopen the lane. Keep sending until the loop
        // itself parks bytes it cannot flush: the peer's window is shut.
        while sender.shared.backlog.load(Ordering::Relaxed) < 64 * 1024 {
            assert!(sizes.len() < 1_000_000, "the socket never filled");
            send_share(&mut sender, &mut sizes);
        }
        // Every later frame must now queue behind the parked bytes.
        const N: u64 = 100;
        let handed = handed_to_loop(&sender);
        for _ in 0..N {
            send_share(&mut sender, &mut sizes);
        }
        assert_eq!(handed_to_loop(&sender), handed + N);
        assert!(lane_held(&sender, 1) > 0, "the lane must stay closed");
        // Let the peer drain; once the loop has flushed the backlog the
        // lane reopens and the next frames go direct again.
        let received = Arc::new(AtomicU64::new(0));
        let reader = {
            let received = Arc::clone(&received);
            std::thread::spawn(move || read_frames(rx, received))
        };
        let parked = sizes.len() as u64;
        wait_for("the peer to drain", || {
            received.load(Ordering::Relaxed) == 1 + parked && lane_held(&sender, 1) == 0
        });
        for _ in 0..N {
            send_share(&mut sender, &mut sizes);
        }
        assert_eq!(
            handed_to_loop(&sender),
            handed + N,
            "a free lane writes directly"
        );
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
        }
        assert_eq!(handed_to_loop(&sender), 0);
        wait_for("the peer", || received.load(Ordering::Relaxed) == 1_001);
        drop(sender);
        assert_eq!(reader.join().expect("reader").len(), 1_001);
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
