//! Readiness primitives for the event-driven TCP backend: buffered
//! non-blocking connection I/O, adaptive idle backoff, and best-effort
//! core pinning — all `std`-only.
//!
//! `std` exposes no portable `epoll`/`kqueue` wrapper and this workspace
//! is dependency-free, so readiness comes in two tiers. On Linux
//! x86-64/aarch64 the loop blocks in a hand-rolled raw `ppoll`
//! syscall (inline assembly, no `libc`) over every socket and only
//! touches the fds the kernel reports ready — one wakeup per event, no
//! scanning. Everywhere else readiness is *scanned*, mio-style: every
//! socket is switched to non-blocking mode and the loop (run by the
//! endpoint's caller, see [`crate::event_loop`]) sweeps them with
//! non-blocking reads and writes. A sweep over an idle socket costs one
//! `read` returning `WouldBlock`; `IdleBackoff` stretches the sleep
//! between sweeps while nothing happens so an idle wait converges to a
//! few wakeups per second instead of spinning.
//!
//! `ConnIo` owns exactly one connection: its socket, a private
//! reassembly buffer where bytes read off the socket wait until a whole
//! length-prefixed frame is available, and a private write buffer
//! where bytes the socket would block on are parked until a later
//! flush. A send writes straight into the socket while nothing is
//! parked and appends behind the parked bytes otherwise, so a link's
//! frames leave in send order. Nothing is shared between connections,
//! so a connection that fails (or whose handler panics) can be dropped
//! without touching any other peer's state.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Whether this build can block on kernel readiness ([`ppoll`]) instead
/// of scanning. True on the Linux targets where the raw syscall is
/// wired up; everywhere else the event loop falls back to the scan
/// path described in the module docs.
pub(crate) const PPOLL_SUPPORTED: bool = cfg!(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
));

/// `poll(2)` readiness bits (identical on every Linux ABI).
pub(crate) const POLLIN: i16 = 0x001;
pub(crate) const POLLOUT: i16 = 0x004;

/// One entry of the `ppoll` interest set — layout-compatible with the
/// kernel's `struct pollfd`.
#[repr(C)]
#[derive(Clone, Copy)]
pub(crate) struct PollFd {
    pub(crate) fd: i32,
    pub(crate) events: i16,
    pub(crate) revents: i16,
}

impl PollFd {
    pub(crate) fn new(fd: i32, events: i16) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

/// The raw fd of any socket-like handle, or `-1` where raw fds do not
/// exist (the `ppoll` path is disabled there anyway).
#[cfg(unix)]
pub(crate) fn fd_of<T: std::os::fd::AsRawFd>(t: &T) -> i32 {
    t.as_raw_fd()
}
#[cfg(not(unix))]
pub(crate) fn fd_of<T>(_t: &T) -> i32 {
    -1
}

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// Blocks until at least one fd in `fds` is ready or `timeout` elapses.
/// Returns the number of ready fds (their `revents` are filled in), `0`
/// on timeout or a caught signal, and a negative errno on real failure.
///
/// This is the raw `ppoll(2)` syscall, hand-rolled with inline assembly
/// because the workspace links neither `libc` nor any event-loop crate.
/// The null sigmask makes it behave exactly like classic `poll(2)` with
/// nanosecond timeout resolution.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[allow(unsafe_code)] // raw syscall: the workspace links no libc
pub(crate) fn ppoll(fds: &mut [PollFd], timeout: Duration) -> i32 {
    const SYS_PPOLL: isize = 271;
    let ts = Timespec {
        sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        nsec: i64::from(timeout.subsec_nanos()),
    };
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_PPOLL => ret,
            in("rdi") fds.as_mut_ptr(),
            in("rsi") fds.len(),
            in("rdx") &raw const ts,
            in("r10") 0usize, // sigmask: null (plain poll semantics)
            in("r8") 8usize,  // sigsetsize for a full sigset_t
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
    const EINTR: isize = -4;
    if ret == EINTR {
        0
    } else {
        ret as i32
    }
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
#[allow(unsafe_code)] // raw syscall: the workspace links no libc
pub(crate) fn ppoll(fds: &mut [PollFd], timeout: Duration) -> i32 {
    const SYS_PPOLL: usize = 73;
    let ts = Timespec {
        sec: timeout.as_secs().min(i64::MAX as u64) as i64,
        nsec: i64::from(timeout.subsec_nanos()),
    };
    let ret: isize;
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") SYS_PPOLL,
            inlateout("x0") fds.as_mut_ptr() as usize => ret,
            in("x1") fds.len(),
            in("x2") &raw const ts,
            in("x3") 0usize,
            in("x4") 8usize,
            options(nostack),
        );
    }
    const EINTR: isize = -4;
    if ret == EINTR {
        0
    } else {
        ret as i32
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub(crate) fn ppoll(_fds: &mut [PollFd], _timeout: Duration) -> i32 {
    -38 // ENOSYS: callers must consult PPOLL_SUPPORTED first
}

/// Re-issues `listen(2)` on an already listening socket with a deeper
/// accept queue; Linux adopts the new backlog (capped at
/// `net.core.somaxconn`). `std` listens with a backlog of 128, and an
/// endpoint accepts only while its owner is inside a call, so a burst
/// of dial-ins between two calls would otherwise overflow the queue and
/// each dropped SYN costs its dialer a one-second retransmit. Returns
/// whether the kernel took the new backlog; elsewhere it does nothing.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
#[allow(unsafe_code)] // raw syscall: the workspace links no libc
pub(crate) fn widen_backlog(fd: i32, backlog: i32) -> bool {
    const SYS_LISTEN: isize = 50;
    let ret: isize;
    // SAFETY: listen(2) takes two integers and touches no memory of
    // ours; a stale or non-socket fd only makes it return an error.
    unsafe {
        core::arch::asm!(
            "syscall",
            inlateout("rax") SYS_LISTEN => ret,
            in("rdi") fd as isize,
            in("rsi") backlog as isize,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(all(target_os = "linux", target_arch = "aarch64"))]
#[allow(unsafe_code)] // raw syscall: the workspace links no libc
pub(crate) fn widen_backlog(fd: i32, backlog: i32) -> bool {
    const SYS_LISTEN: usize = 201;
    let ret: isize;
    // SAFETY: as on x86-64, listen(2) reads no memory of ours.
    unsafe {
        core::arch::asm!(
            "svc 0",
            in("x8") SYS_LISTEN,
            inlateout("x0") fd as isize => ret,
            in("x1") backlog as isize,
            options(nostack),
        );
    }
    ret == 0
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
pub(crate) fn widen_backlog(_fd: i32, _backlog: i32) -> bool {
    false
}

/// Ceiling on a single frame: a model broadcast is far below this, so anything larger is a corrupt or
/// hostile length prefix.
pub(crate) const MAX_FRAME: usize = 1 << 28;

/// Chunk size for one non-blocking read. Large enough that a whole
/// burst of shares usually lands in one syscall.
const READ_CHUNK: usize = 64 * 1024;

/// What one read sweep over a connection observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReadSweep {
    /// New bytes were appended to the reassembly buffer.
    Progress,
    /// The socket had nothing to offer (`WouldBlock`).
    Idle,
    /// The peer closed the connection (EOF) or the socket failed.
    Closed,
}

/// Buffered non-blocking I/O for one connection. See the module docs
/// for the ownership rule this encodes.
pub(crate) struct ConnIo {
    stream: TcpStream,
    /// Reassembly buffer: raw bytes read but not yet consumed as frames.
    rbuf: Vec<u8>,
    /// Bytes queued for the peer that the socket has not accepted yet.
    wbuf: Vec<u8>,
    /// Consumed prefix of `wbuf` (compacted when fully flushed).
    wpos: usize,
    /// Total bytes ever queued, for send-completion watermarks.
    queued_total: u64,
    /// Total bytes ever accepted by the socket.
    flushed_total: u64,
    /// Last instant the peer was *heard from* (connect or bytes read).
    /// Writes deliberately do not refresh this: a half-open peer happily
    /// absorbs writes into a dead kernel buffer — only inbound bytes
    /// prove it is alive.
    pub(crate) last_rx: Instant,
}

impl ConnIo {
    /// Wraps `stream`, switching it to non-blocking mode.
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<ConnIo> {
        stream.set_nonblocking(true)?;
        let _ = stream.set_nodelay(true);
        let now = Instant::now();
        Ok(ConnIo {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            queued_total: 0,
            flushed_total: 0,
            last_rx: now,
        })
    }

    /// Drains whatever the socket has ready into the reassembly buffer.
    pub(crate) fn read_sweep(&mut self, scratch: &mut [u8; READ_CHUNK]) -> ReadSweep {
        let mut progressed = false;
        loop {
            match (&self.stream).read(scratch) {
                Ok(0) => return ReadSweep::Closed,
                Ok(n) => {
                    self.rbuf.extend_from_slice(&scratch[..n]);
                    self.last_rx = Instant::now();
                    progressed = true;
                    if n < scratch.len() {
                        // Short read: the socket is drained for now.
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return ReadSweep::Closed,
            }
        }
        if progressed {
            ReadSweep::Progress
        } else {
            ReadSweep::Idle
        }
    }

    /// Pops one complete length-prefixed frame (4-byte little-endian
    /// body length, then the body — the buffer returned includes the
    /// prefix, as [`crate::Frame::decode`] expects).
    ///
    /// # Errors
    ///
    /// `Err(())` when the length prefix exceeds [`MAX_FRAME`] — the
    /// stream is corrupt and the connection must be dropped.
    pub(crate) fn take_frame(&mut self) -> Result<Option<Vec<u8>>, ()> {
        if self.rbuf.len() < 4 {
            return Ok(None);
        }
        let body_len = u32::from_le_bytes(self.rbuf[..4].try_into().expect("4 bytes")) as usize;
        if body_len > MAX_FRAME {
            return Err(());
        }
        let total = 4 + body_len;
        if self.rbuf.len() < total {
            return Ok(None);
        }
        let frame = self.rbuf[..total].to_vec();
        self.rbuf.drain(..total);
        Ok(Some(frame))
    }

    /// Queues `bytes` for the peer and returns the completion watermark:
    /// the send is fully on the wire once [`ConnIo::flushed_total`]
    /// reaches it.
    pub(crate) fn queue(&mut self, bytes: &[u8]) -> u64 {
        self.wbuf.extend_from_slice(bytes);
        self.queued_total += bytes.len() as u64;
        self.queued_total
    }

    /// Sends `bytes` without blocking: one direct `write` when nothing is
    /// parked, the unsent remainder (or, behind parked bytes, all of
    /// `bytes`) queued and flushed as far as the socket takes it.
    ///
    /// # Errors
    ///
    /// Any socket error other than `WouldBlock` — the connection is dead.
    pub(crate) fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut written = 0;
        if self.backlog() == 0 {
            written = write_some(&self.stream, bytes)?.unwrap_or(0);
            self.queued_total += written as u64;
            self.flushed_total += written as u64;
            if written == bytes.len() {
                return Ok(());
            }
        }
        self.queue(&bytes[written..]);
        self.flush()
    }

    /// Pushes pending bytes into the socket without blocking.
    ///
    /// # Errors
    ///
    /// Any socket error other than `WouldBlock` — the connection is dead.
    pub(crate) fn flush(&mut self) -> std::io::Result<()> {
        while self.wpos < self.wbuf.len() {
            let Some(n) = write_some(&self.stream, &self.wbuf[self.wpos..])? else {
                break;
            };
            self.wpos += n;
            self.flushed_total += n as u64;
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Raw fd for readiness registration (`-1` off unix, where the
    /// `ppoll` path is disabled anyway).
    pub(crate) fn raw_fd(&self) -> i32 {
        fd_of(&self.stream)
    }

    /// Bytes queued but not yet accepted by the socket.
    pub(crate) fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Total bytes ever sent or queued: a send is on the wire once
    /// [`ConnIo::flushed_total`] reaches the value it left here.
    pub(crate) fn queued_total(&self) -> u64 {
        self.queued_total
    }

    /// Total bytes the socket has accepted so far (completion watermark
    /// counterpart of [`ConnIo::queue`]).
    pub(crate) fn flushed_total(&self) -> u64 {
        self.flushed_total
    }
}

/// One non-blocking `write` of a non-empty `bytes`: `Some(n)` bytes
/// taken, `None` when the socket would block.
fn write_some(mut stream: &TcpStream, bytes: &[u8]) -> std::io::Result<Option<usize>> {
    loop {
        match stream.write(bytes) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "socket accepted zero bytes",
                ))
            }
            Ok(n) => return Ok(Some(n)),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Fresh scratch buffer for [`ConnIo::read_sweep`].
pub(crate) fn read_scratch() -> Box<[u8; READ_CHUNK]> {
    vec![0u8; READ_CHUNK]
        .into_boxed_slice()
        .try_into()
        .expect("exact size")
}

/// Adaptive sleep for the scan loop: nothing happened → wait a little
/// longer next time (up to `max`); anything happened → drop back to
/// busy-adjacent scanning. Keeps active rounds snappy and idle
/// endpoints cheap.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdleBackoff {
    cur: Duration,
    min: Duration,
    max: Duration,
}

impl IdleBackoff {
    pub(crate) fn new(min: Duration, max: Duration) -> IdleBackoff {
        IdleBackoff { cur: min, min, max }
    }

    /// The wait to use for this idle tick; subsequent idle ticks wait
    /// geometrically longer until `max`.
    pub(crate) fn next_wait(&mut self) -> Duration {
        let wait = self.cur;
        self.cur = (self.cur * 2).min(self.max);
        wait
    }

    /// Call when the loop made progress: scanning resumes at `min`.
    pub(crate) fn reset(&mut self) {
        self.cur = self.min;
    }
}

/// Best-effort pinning of the *calling* thread to `core`.
///
/// `std` exposes no affinity API and this workspace links no `libc`, so
/// on Linux the thread id is recovered from the `/proc/thread-self`
/// symlink (`<pid>/task/<tid>`) and handed to `taskset(1)`. Returns
/// `true` only when the affinity mask was actually applied; on any
/// failure (non-Linux, no `taskset`, containers masking `/proc`) the
/// thread simply stays unpinned — pinning is a throughput hint, never a
/// correctness requirement.
pub fn pin_current_thread(core: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let Ok(link) = std::fs::read_link("/proc/thread-self") else {
            return false;
        };
        let Some(tid) = link
            .to_str()
            .and_then(|s| s.rsplit('/').next())
            .and_then(|s| s.parse::<u64>().ok())
        else {
            return false;
        };
        std::process::Command::new("taskset")
            .args(["-p", "-c", &core.to_string(), &tid.to_string()])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .status()
            .map(|s| s.success())
            .unwrap_or(false)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = core;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = TcpStream::connect(addr).expect("connect");
        let (b, _) = listener.accept().expect("accept");
        (a, b)
    }

    #[test]
    fn frames_reassemble_across_arbitrary_chunk_boundaries() {
        let (tx, rx) = socket_pair();
        let mut conn = ConnIo::new(rx).expect("conn");
        let mut scratch = read_scratch();

        // Two frames, written in awkward slices (including a split
        // straight through the second length prefix).
        let body1 = vec![7u8; 10];
        let body2 = vec![9u8; 3];
        let mut wire = Vec::new();
        wire.extend_from_slice(&(body1.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body1);
        wire.extend_from_slice(&(body2.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body2);

        let mut tx = tx;
        for chunk in wire.chunks(5) {
            tx.write_all(chunk).expect("write");
            tx.flush().expect("flush");
            // Give loopback a moment, then sweep.
            std::thread::sleep(Duration::from_millis(2));
            let _ = conn.read_sweep(&mut scratch);
        }

        let f1 = conn.take_frame().expect("ok").expect("frame 1");
        assert_eq!(&f1[4..], &body1[..]);
        let f2 = conn.take_frame().expect("ok").expect("frame 2");
        assert_eq!(&f2[4..], &body2[..]);
        assert_eq!(conn.take_frame(), Ok(None));
    }

    #[test]
    fn oversized_length_prefix_is_an_error() {
        let (tx, rx) = socket_pair();
        let mut conn = ConnIo::new(rx).expect("conn");
        let mut scratch = read_scratch();
        let mut tx = tx;
        tx.write_all(&u32::MAX.to_le_bytes()).expect("write");
        tx.flush().expect("flush");
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(conn.read_sweep(&mut scratch), ReadSweep::Progress);
        assert_eq!(conn.take_frame(), Err(()));
    }

    #[test]
    fn eof_surfaces_as_closed() {
        let (tx, rx) = socket_pair();
        let mut conn = ConnIo::new(rx).expect("conn");
        let mut scratch = read_scratch();
        drop(tx);
        std::thread::sleep(Duration::from_millis(5));
        assert_eq!(conn.read_sweep(&mut scratch), ReadSweep::Closed);
    }

    #[test]
    fn queued_writes_flush_and_watermark_advances() {
        let (rx, tx) = socket_pair();
        let mut conn = ConnIo::new(tx).expect("conn");
        let watermark = conn.queue(&[1, 2, 3, 4]);
        assert_eq!(watermark, 4);
        conn.flush().expect("flush");
        assert_eq!(conn.flushed_total(), 4);
        assert_eq!(conn.backlog(), 0);
        let mut got = [0u8; 4];
        let mut rx = rx;
        rx.read_exact(&mut got).expect("read");
        assert_eq!(got, [1, 2, 3, 4]);
    }

    #[test]
    fn idle_backoff_doubles_and_resets() {
        let mut b = IdleBackoff::new(Duration::from_micros(50), Duration::from_millis(2));
        assert_eq!(b.next_wait(), Duration::from_micros(50));
        assert_eq!(b.next_wait(), Duration::from_micros(100));
        assert_eq!(b.next_wait(), Duration::from_micros(200));
        for _ in 0..10 {
            b.next_wait();
        }
        assert_eq!(b.next_wait(), Duration::from_millis(2));
        b.reset();
        assert_eq!(b.next_wait(), Duration::from_micros(50));
    }

    #[test]
    fn ppoll_reports_a_readable_socket() {
        if !PPOLL_SUPPORTED {
            return;
        }
        let (mut tx, rx) = socket_pair();
        tx.write_all(&[42]).expect("write");
        tx.flush().expect("flush");
        let mut fds = [PollFd::new(fd_of(&rx), POLLIN)];
        let n = ppoll(&mut fds, Duration::from_secs(5));
        assert_eq!(n, 1, "one fd must be ready");
        assert_ne!(fds[0].revents & POLLIN, 0, "readable bit must be set");
    }

    #[test]
    fn ppoll_times_out_on_an_idle_socket() {
        if !PPOLL_SUPPORTED {
            return;
        }
        let (_tx, rx) = socket_pair();
        let mut fds = [PollFd::new(fd_of(&rx), POLLIN)];
        let before = Instant::now();
        let n = ppoll(&mut fds, Duration::from_millis(30));
        assert_eq!(n, 0, "idle socket must time out");
        assert!(before.elapsed() >= Duration::from_millis(25));
    }

    #[test]
    fn pinning_never_panics() {
        // Whether it succeeds depends on the host; it must only be
        // best-effort either way.
        let _ = pin_current_thread(0);
    }
}
