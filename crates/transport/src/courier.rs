//! Reliable delivery over any [`Transport`]: acknowledgements,
//! retransmission with bounded exponential backoff, and duplicate
//! suppression.
//!
//! The underlying fabrics are allowed to drop, duplicate and reorder
//! frames (the loopback backend does so on purpose; TCP reconnection can
//! lose a frame in flight). `Courier` layers an ARQ on top that is
//! stop-and-wait *per link* and fans out *across* links
//! ([`Courier::send_reliable_each`]): every non-ack frame is acknowledged
//! by the receiver with [`Message::Ack`] carrying the frame's sequence
//! number; the sender retransmits under the *same* sequence number
//! (flagged [`FLAG_RETRANSMIT`]) until the ack arrives or the retry budget
//! is spent; receivers track a per-sender contiguous watermark plus a
//! small out-of-order window, re-ack duplicates, and deliver each message
//! exactly once in arrival order.
//!
//! Acknowledgement frames travel at sequence number 0 (like the TCP
//! backend's transport-internal Hello frames): they are identified by
//! their message kind, never deduplicated, and never acked themselves, so
//! data sequence numbers stay contiguous per link — which is what lets the
//! duplicate-suppression state stay O(1) per sender instead of growing
//! with every frame ever delivered.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::time::{Duration, Instant};

use ppml_telemetry as telemetry;
use telemetry::EventKind;

use crate::frame::{Message, PartyId, FLAG_RETRANSMIT};
use crate::retry::RetryPolicy;
use crate::transport::{Envelope, Transport, TransportError};

/// Upper bound on out-of-order sequence numbers remembered per sender.
/// Stop-and-wait keeps at most a handful of frames in flight per link, so
/// the window only fills when a peer misbehaves; overflowing it advances
/// the floor, treating the oldest gaps as lost.
const DEDUP_WINDOW: usize = 64;

/// Per-sender duplicate-suppression state: every data sequence number
/// `<= watermark` has been delivered; `window` holds delivered numbers
/// above the watermark (out-of-order arrivals), bounded by
/// [`DEDUP_WINDOW`].
#[derive(Debug, Default)]
struct DedupState {
    watermark: u64,
    window: BTreeSet<u64>,
}

impl DedupState {
    /// Records `seq`; returns `true` when it is fresh (first delivery).
    fn record(&mut self, seq: u64) -> bool {
        if seq <= self.watermark || self.window.contains(&seq) {
            return false;
        }
        self.window.insert(seq);
        while self.window.remove(&(self.watermark + 1)) {
            self.watermark += 1;
        }
        while self.window.len() > DEDUP_WINDOW {
            // Overflow: declare the oldest gap lost and advance the floor.
            // A frame below the new floor would now be mistaken for a
            // duplicate, but with stop-and-wait ARQ the sender gave up on
            // anything that far back long ago.
            let oldest = *self.window.iter().next().expect("non-empty window");
            self.watermark = oldest;
            self.window.remove(&oldest);
            while self.window.remove(&(self.watermark + 1)) {
                self.watermark += 1;
            }
        }
        true
    }

    #[cfg(test)]
    fn footprint(&self) -> usize {
        self.window.len()
    }
}

/// One unacknowledged frame of a `send_reliable_each` call: its index in the
/// call's list, transmissions and bytes so far, when its retry window closes.
struct Flight {
    frame: usize,
    to: PartyId,
    seq: u64,
    attempts: u32,
    bytes: usize,
    deadline: Instant,
}

/// Exactly-once messaging over a lossy transport.
pub struct Courier<T: Transport> {
    transport: T,
    policy: RetryPolicy,
    /// Messages received (and acked) while waiting for our own acks.
    inbox: VecDeque<Envelope>,
    /// Duplicate-suppression state, per sender.
    seen: HashMap<PartyId, DedupState>,
}

impl<T: Transport> Courier<T> {
    /// Wraps `transport` with retry schedule `policy`.
    pub fn new(transport: T, policy: RetryPolicy) -> Self {
        Courier {
            transport,
            policy,
            inbox: VecDeque::new(),
            seen: HashMap::new(),
        }
    }

    /// This endpoint's party id.
    pub fn party(&self) -> PartyId {
        self.transport.party()
    }

    /// Number of out-of-order sequence numbers currently held for `from`
    /// (diagnostics; the contiguous watermark itself is O(1)). Bounded by
    /// a small constant however much traffic the link has carried.
    #[cfg(test)]
    fn dedup_footprint(&self, from: PartyId) -> usize {
        self.seen.get(&from).map_or(0, DedupState::footprint)
    }

    /// Read-only access to the wrapped transport (stats, hub handles …).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Forgets all duplicate-suppression state for `peer`, as if this
    /// endpoint had never heard from it — including any of its frames
    /// still queued in the inbox.
    ///
    /// Useful when a peer *process* is known to have restarted: its
    /// transport sequence counters reset to 1, so stale state would
    /// swallow its frames as duplicates. Note that absorbing a
    /// [`Message::Join`] or [`Message::Welcome`] already clears the
    /// dedup watermark on its own (see `absorb`), so protocol handlers
    /// reacting to those must NOT call this — it would also delete
    /// legitimately queued frames that followed the rendezvous. The
    /// coordinator calls it when re-admitting a rejoiner, before any
    /// fresh-incarnation traffic beyond Join probes can exist.
    pub fn reset_peer(&mut self, peer: PartyId) {
        self.seen.remove(&peer);
        self.inbox.retain(|env| env.from != peer);
    }

    /// Unwraps the courier.
    pub fn into_inner(self) -> T {
        self.transport
    }

    /// Sends `msg` and blocks until the destination acknowledges it — the
    /// one-frame case of [`Courier::send_reliable_each`]. Returns the total
    /// bytes put on the wire for this message (retransmissions included).
    ///
    /// Messages arriving while we wait are acknowledged, deduplicated and
    /// queued for [`Courier::recv`] — two parties can therefore
    /// `send_reliable` to each other simultaneously without deadlock.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when the retry budget is exhausted
    /// without an acknowledgement; any transport error is propagated.
    pub fn send_reliable(&mut self, to: PartyId, msg: &Message) -> Result<usize, TransportError> {
        let mut results = self.send_reliable_each(&[(to, msg)])?;
        results.pop().expect("one result per frame")
    }

    /// Reliably sends every frame, overlapping the round trips: the first
    /// transmission to *every* recipient is on the wire before the first
    /// wait, acks are gathered together, and each unacknowledged frame is
    /// retransmitted on its own retry schedule. Per link it stays
    /// stop-and-wait — a second frame for the same recipient goes out
    /// once the first has settled — so per-link order holds. Returns, in
    /// call order, what [`Courier::send_reliable`] would for each frame:
    /// one lost peer does not fail the others.
    ///
    /// # Errors
    ///
    /// Only this endpoint's own failure while waiting
    /// ([`TransportError::Closed`], a non-timeout receive error), which
    /// aborts the whole call.
    pub fn send_reliable_each(
        &mut self,
        frames: &[(PartyId, &Message)],
    ) -> Result<Vec<Result<usize, TransportError>>, TransportError> {
        let mut results: Vec<_> = frames.iter().map(|_| Ok(0)).collect();
        let mut queued: Vec<usize> = (0..frames.len()).collect();
        let mut flights: Vec<Flight> = Vec::with_capacity(frames.len());
        loop {
            // First transmission of every queued frame whose link is idle.
            queued.retain(|&frame| {
                let (to, msg) = frames[frame];
                if flights.iter().any(|f| f.to == to) {
                    return true;
                }
                let (seq, deadline) = (self.transport.next_seq(to), Instant::now());
                let mut flight = Flight {
                    frame,
                    to,
                    seq,
                    attempts: 0,
                    bytes: 0,
                    deadline,
                };
                match self.transmit(&mut flight, msg) {
                    Ok(()) => flights.push(flight),
                    Err(e) => results[frame] = Err(e),
                }
                false
            });
            let Some(deadline) = flights.iter().map(|f| f.deadline).min() else {
                return Ok(results);
            };
            // A window ends only on a receive that found nothing: what has
            // already arrived is drained (zero wait past the deadline)
            // before any frame is judged overdue — absorbing one frame can
            // outlast a window, with our ack queued right behind it.
            let wait = deadline.saturating_duration_since(Instant::now());
            match self.transport.recv(wait) {
                Ok(env) => {
                    let ack = self.absorb(env)?;
                    if let Some(i) = flights.iter().position(|f| Some((f.to, f.seq)) == ack) {
                        let flight = flights.remove(i);
                        results[flight.frame] = Ok(flight.bytes);
                    }
                }
                Err(TransportError::Timeout) => {
                    let now = Instant::now();
                    flights.retain_mut(|f| {
                        if f.deadline > now {
                            return true;
                        }
                        let sent = if f.attempts < self.policy.max_attempts {
                            self.transmit(f, frames[f.frame].1)
                        } else {
                            let (to, attempts) = (f.to, f.attempts);
                            telemetry::emit(self.party(), EventKind::SendTimeout { to, attempts });
                            Err(TransportError::Timeout)
                        };
                        sent.map_err(|e| results[f.frame] = Err(e)).is_ok()
                    });
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Puts `f`'s next transmission on the wire and opens its retry window.
    fn transmit(&mut self, f: &mut Flight, msg: &Message) -> Result<(), TransportError> {
        let (to, seq, attempt) = (f.to, f.seq, f.attempts);
        if attempt > 0 {
            telemetry::emit(self.party(), EventKind::ArqRetransmit { to, seq, attempt });
        }
        let flags = if attempt > 0 { FLAG_RETRANSMIT } else { 0 };
        f.bytes += self.transport.send_raw(to, msg, seq, flags)?;
        f.deadline = Instant::now() + self.policy.backoff(attempt);
        f.attempts += 1;
        Ok(())
    }

    /// Sends `msg` once, without waiting for an acknowledgement. Returns
    /// the bytes put on the wire.
    ///
    /// The receiver still acks it (it cannot know the sender isn't
    /// waiting); the ack is simply absorbed and ignored. Use this for
    /// messages whose loss the protocol tolerates by design — e.g. a
    /// threshold-sharing submission, where a lost submission is
    /// indistinguishable from the sender dropping out and the round
    /// reconstructs from the survivors.
    ///
    /// # Errors
    ///
    /// Any transport error is propagated.
    pub fn send_unreliable(&mut self, to: PartyId, msg: &Message) -> Result<usize, TransportError> {
        let seq = self.transport.next_seq(to);
        self.transport.send_raw(to, msg, seq, 0)
    }

    /// Receives the next new (non-duplicate, non-ack) message.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] when nothing new arrives in time.
    pub fn recv(&mut self, timeout: Duration) -> Result<Envelope, TransportError> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(env) = self.inbox.pop_front() {
                return Ok(env);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            let env = self.transport.recv(deadline - now)?;
            self.absorb(env)?;
        }
    }

    /// Routes one raw envelope: an ack is handed back as the `(peer, seq)` it
    /// names, leaving no state (so one naming no frame in flight is dropped);
    /// fresh messages are acked and queued, duplicates re-acked and discarded.
    fn absorb(&mut self, env: Envelope) -> Result<Option<(PartyId, u64)>, TransportError> {
        if let Message::Ack { of_seq } = env.msg {
            return Ok(Some((env.from, of_seq)));
        }
        // Always acknowledge — the sender may have missed the last ack.
        // Acks ride at seq 0 so data sequence numbers stay contiguous.
        // An unreachable peer does NOT fail the receive: the frame may
        // have been the sender's last breath before dying (the event
        // backend deregisters the connection on EOF and fails the send
        // fast, where a TCP write into a freshly half-closed socket
        // succeeds silently). Dropping an ack is always safe under
        // stop-and-wait — a live sender retransmits and the duplicate
        // is re-acked; a dead one no longer cares. Only [`Closed`]
        // (our own transport shut down) still propagates.
        let ack = Message::Ack { of_seq: env.seq };
        match self.transport.send_raw(env.from, &ack, 0, 0) {
            Ok(_) => {}
            Err(TransportError::Closed) => return Err(TransportError::Closed),
            Err(_) => telemetry::emit(
                self.party(),
                EventKind::AckDropped {
                    to: env.from,
                    of_seq: env.seq,
                },
            ),
        }
        // Join/Welcome announce a *restarted* peer whose sequence counters
        // started over; judged against the old watermark they would be
        // "duplicates" and the rendezvous could never happen. Both bypass
        // dedup entirely AND clear the sender's dedup state right here,
        // at absorb time: the frames *behind* the rendezvous are already
        // in the fresh sequence space, and they may be absorbed before
        // the protocol layer gets around to reacting to the Welcome —
        // waiting for it to reset would swallow them as replays. Both
        // messages are idempotent, so repeats (and the re-deliveries a
        // repeat's reset can cause) are tolerated at the protocol layer
        // by design.
        if matches!(env.msg, Message::Join { .. } | Message::Welcome { .. }) {
            self.seen.remove(&env.from);
            self.inbox.push_back(env);
            return Ok(None);
        }
        let fresh = self.seen.entry(env.from).or_default().record(env.seq);
        if fresh {
            self.inbox.push_back(env);
        } else {
            telemetry::emit(
                self.party(),
                EventKind::DedupDrop {
                    from: env.from,
                    seq: env.seq,
                },
            );
        }
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{LinkFilter, NetFaultPlan};
    use crate::loopback::LoopbackHub;

    const TICK: Duration = Duration::from_millis(500);

    /// For tests that assert dedup and watermark semantics, not ARQ timing.
    /// On `fast_local` (first retry after 2 ms, ≈ 0.11 s in all) a receiver
    /// scheduled late draws a spurious retransmit — and a retransmitted
    /// Join/Welcome is delivered twice by design — or outlasts the whole
    /// schedule. Nothing is dropped in these tests, so a retry 2 s out
    /// only ever covers a slow scheduler.
    fn patient() -> RetryPolicy {
        RetryPolicy::new(6, Duration::from_secs(2), Duration::from_secs(2))
    }

    fn pair(
        plan: NetFaultPlan,
    ) -> (
        Courier<crate::LoopbackTransport>,
        Courier<crate::LoopbackTransport>,
    ) {
        let hub = LoopbackHub::with_faults(2, plan);
        (
            Courier::new(hub.endpoint(0), RetryPolicy::fast_local()),
            Courier::new(hub.endpoint(1), RetryPolicy::fast_local()),
        )
    }

    /// Drives `b` as a responder in a background thread while the closure
    /// runs `a`'s side; the responder echoes nothing, just receives `n`
    /// messages.
    fn receive_n_in_background(
        mut b: Courier<crate::LoopbackTransport>,
        n: usize,
    ) -> std::thread::JoinHandle<Vec<Envelope>> {
        std::thread::spawn(move || {
            (0..n)
                .map(|_| b.recv(TICK).expect("responder recv"))
                .collect()
        })
    }

    #[test]
    fn lossless_round_trip() {
        let (mut a, b) = pair(NetFaultPlan::none());
        let rx = receive_n_in_background(b, 1);
        a.send_reliable(1, &Message::Heartbeat { nonce: 3 })
            .unwrap();
        let got = rx.join().unwrap();
        assert_eq!(got[0].msg, Message::Heartbeat { nonce: 3 });
    }

    #[test]
    fn dropped_first_transmission_is_recovered_by_retry() {
        // Drop the first data frame 0→1; the retransmit must get through.
        let plan = NetFaultPlan::none().drop_frames(LinkFilter::any().from(0).kind(3), 1);
        let (mut a, b) = pair(plan);
        let rx = receive_n_in_background(b, 1);
        let bytes = a
            .send_reliable(1, &Message::Heartbeat { nonce: 8 })
            .unwrap();
        let got = rx.join().unwrap();
        assert_eq!(got[0].msg, Message::Heartbeat { nonce: 8 });
        assert_eq!(got[0].flags, FLAG_RETRANSMIT);
        // Two transmissions were paid for.
        let one = crate::Frame::encoded_len_of(&Message::Heartbeat { nonce: 8 });
        assert_eq!(bytes, 2 * one);
    }

    #[test]
    fn dropped_ack_does_not_duplicate_delivery() {
        // The data frame arrives, but the first ack 1→0 is destroyed: the
        // sender retransmits, the receiver re-acks but must deliver once.
        let plan = NetFaultPlan::none().drop_frames(LinkFilter::any().from(1).kind(4), 1);
        let (mut a, mut b) = pair(plan);
        let rx = std::thread::spawn(move || {
            let first = b.recv(TICK).expect("first delivery");
            let second = b.recv(Duration::from_millis(100));
            (first, second, b)
        });
        a.send_reliable(1, &Message::Heartbeat { nonce: 4 })
            .unwrap();
        let (first, second, _b) = rx.join().unwrap();
        assert_eq!(first.msg, Message::Heartbeat { nonce: 4 });
        assert!(
            matches!(second, Err(TransportError::Timeout)),
            "duplicate was delivered: {second:?}"
        );
    }

    #[test]
    fn duplicated_data_frame_is_delivered_once() {
        let plan = NetFaultPlan::none().duplicate_frames(LinkFilter::any().from(0).kind(3), 1);
        let (mut a, mut b) = pair(plan);
        let rx = std::thread::spawn(move || {
            let first = b.recv(TICK).expect("delivery");
            let second = b.recv(Duration::from_millis(100));
            (first, second)
        });
        a.send_reliable(1, &Message::Heartbeat { nonce: 6 })
            .unwrap();
        let (first, second) = rx.join().unwrap();
        assert_eq!(first.msg, Message::Heartbeat { nonce: 6 });
        assert!(matches!(second, Err(TransportError::Timeout)));
    }

    #[test]
    fn unacked_send_times_out_after_budget() {
        // Destroy every data frame; the courier must give up cleanly.
        let plan = NetFaultPlan::none().drop_frames(LinkFilter::any().from(0).kind(3), u32::MAX);
        let (mut a, _b) = pair(plan);
        let err = a
            .send_reliable(1, &Message::Heartbeat { nonce: 1 })
            .unwrap_err();
        assert!(matches!(err, TransportError::Timeout));
    }

    #[test]
    fn simultaneous_bidirectional_sends_do_not_deadlock() {
        let (mut a, mut b) = pair(NetFaultPlan::none());
        let ha = std::thread::spawn(move || {
            a.send_reliable(1, &Message::Heartbeat { nonce: 10 })
                .unwrap();
            a.recv(TICK).unwrap()
        });
        let hb = std::thread::spawn(move || {
            b.send_reliable(0, &Message::Heartbeat { nonce: 20 })
                .unwrap();
            b.recv(TICK).unwrap()
        });
        assert_eq!(ha.join().unwrap().msg, Message::Heartbeat { nonce: 20 });
        assert_eq!(hb.join().unwrap().msg, Message::Heartbeat { nonce: 10 });
    }

    #[test]
    fn dedup_state_stays_bounded_over_many_sends() {
        // The old implementation remembered every delivered (sender, seq)
        // pair forever; the watermark must keep the footprint at zero for
        // in-order traffic no matter how many frames cross the link.
        let (mut a, mut b) = pair(NetFaultPlan::none());
        let rx = std::thread::spawn(move || {
            for _ in 0..500 {
                b.recv(TICK).expect("delivery");
            }
            b
        });
        for nonce in 0..500 {
            a.send_reliable(1, &Message::Heartbeat { nonce }).unwrap();
        }
        let b = rx.join().unwrap();
        assert_eq!(
            b.dedup_footprint(0),
            0,
            "in-order traffic must not accumulate state"
        );
    }

    #[test]
    fn dedup_window_absorbs_reordering_then_drains() {
        // Delay every odd frame past its successor: the window briefly
        // holds the out-of-order arrival, then the watermark catches up.
        let plan = NetFaultPlan::none().delay_frames(LinkFilter::any().from(0).kind(3), 50, 1);
        let (mut a, mut b) = pair(plan);
        let rx = std::thread::spawn(move || {
            let mut nonces = Vec::new();
            for _ in 0..100 {
                if let Message::Heartbeat { nonce } = b.recv(TICK).expect("delivery").msg {
                    nonces.push(nonce);
                }
                assert!(
                    b.dedup_footprint(0) <= super::DEDUP_WINDOW,
                    "window exceeded its bound"
                );
            }
            (nonces, b)
        });
        for nonce in 0..100 {
            a.send_reliable(1, &Message::Heartbeat { nonce }).unwrap();
        }
        let (mut nonces, b) = rx.join().unwrap();
        nonces.sort_unstable();
        assert_eq!(nonces, (0..100).collect::<Vec<_>>());
        assert_eq!(b.dedup_footprint(0), 0, "window must drain once gaps fill");
    }

    #[test]
    fn dedup_record_overflow_advances_the_floor() {
        let mut state = super::DedupState::default();
        // Seq 1 never arrives; everything above it piles into the window.
        for seq in 2..(2 + super::DEDUP_WINDOW as u64 + 10) {
            assert!(state.record(seq));
            assert!(state.footprint() <= super::DEDUP_WINDOW);
        }
        // Delivered numbers are still recognized as duplicates.
        assert!(!state.record(2 + super::DEDUP_WINDOW as u64));
    }

    #[test]
    fn ack_at_reserved_seq_zero_never_collides_with_the_dedup_window() {
        // Acks ride at seq 0 and must never enter the dedup state: if they
        // did, the first ack would set watermark ≥ 0 trivially, but worse,
        // an ack would be "recorded" and a later data frame at a low seq
        // could be mistaken for its duplicate. Drive a full reliable
        // exchange and then check the receiver's dedup state saw only data
        // sequence numbers (which start at 1).
        let (mut a, mut b) = pair(NetFaultPlan::none());
        let rx = std::thread::spawn(move || {
            let env = b.recv(TICK).expect("delivery");
            assert!(env.seq >= 1, "data frames start at seq 1, got {}", env.seq);
            // Seq 0 must still be deliverable *as data* conceptually: the
            // dedup state never recorded it, so a (hostile) frame at seq 0
            // would be judged `0 <= watermark` — i.e. the reserved number
            // is structurally outside the data space. Check the watermark
            // only ever advanced on real data.
            assert_eq!(b.dedup_footprint(0), 0);
            (env, b)
        });
        a.send_reliable(1, &Message::Heartbeat { nonce: 5 })
            .unwrap();
        let (env, _b) = rx.join().unwrap();
        assert_eq!(env.msg, Message::Heartbeat { nonce: 5 });
    }

    #[test]
    fn duplicated_acks_do_not_poison_later_deliveries() {
        // Duplicate every ack 1→0: the sender sees the same (1, seq) ack
        // twice; the second names no frame in flight and must be dropped,
        // not kept to pre-ack a *future* send.
        let plan = NetFaultPlan::none().duplicate_frames(LinkFilter::any().from(1).kind(4), 8);
        let (mut a, b) = pair(plan);
        let rx = receive_n_in_background(b, 3);
        for nonce in 0..3 {
            a.send_reliable(1, &Message::Heartbeat { nonce }).unwrap();
        }
        let got = rx.join().unwrap();
        assert_eq!(got.len(), 3);
    }

    #[test]
    fn reset_peer_lets_a_restarted_sender_start_over_at_seq_one() {
        let hub = LoopbackHub::new(2);
        let mut a = Courier::new(hub.endpoint(0), patient());
        let mut b = Courier::new(hub.endpoint(1), patient());
        // First incarnation of party 0 delivers seqs 1..=3.
        let rx = std::thread::spawn(move || {
            for _ in 0..3 {
                b.recv(TICK).expect("delivery");
            }
            b
        });
        for nonce in 0..3 {
            a.send_reliable(1, &Message::Heartbeat { nonce }).unwrap();
        }
        let mut b = rx.join().unwrap();
        drop(a);
        // "Restarted" party 0: fresh endpoint, sequence counter back at 1.
        let mut a2 = Courier::new(hub.endpoint(0), patient());
        b.reset_peer(0);
        let rx = std::thread::spawn(move || b.recv(TICK).expect("post-restart delivery"));
        a2.send_reliable(1, &Message::Heartbeat { nonce: 99 })
            .unwrap();
        assert_eq!(rx.join().unwrap().msg, Message::Heartbeat { nonce: 99 });
    }

    #[test]
    fn join_and_welcome_bypass_dedup_without_reset() {
        // Even before anyone calls reset_peer, a restarted peer's Join at
        // a low sequence number must reach the protocol layer.
        let hub = LoopbackHub::new(2);
        let mut a = Courier::new(hub.endpoint(0), RetryPolicy::fast_local());
        let mut b = Courier::new(hub.endpoint(1), RetryPolicy::fast_local());
        let rx = std::thread::spawn(move || {
            for _ in 0..3 {
                b.recv(TICK).expect("delivery");
            }
            b
        });
        for nonce in 0..3 {
            a.send_reliable(1, &Message::Heartbeat { nonce }).unwrap();
        }
        let mut b = rx.join().unwrap();
        drop(a);
        let mut a2 = Courier::new(hub.endpoint(0), RetryPolicy::fast_local());
        let rx = std::thread::spawn(move || b.recv(TICK).expect("join delivery"));
        a2.send_reliable(1, &Message::Join { party: 0, nonce: 7 })
            .unwrap();
        assert_eq!(rx.join().unwrap().msg, Message::Join { party: 0, nonce: 7 });
    }

    #[test]
    fn frames_behind_a_welcome_from_a_restarted_sender_are_not_swallowed() {
        // A restarted coordinator sends Welcome then immediately the next
        // round's traffic, all in its fresh sequence space. Both may be
        // absorbed before the receiver's protocol layer reacts to the
        // Welcome, so the Welcome itself must re-sync the dedup watermark
        // at absorb time — no reset_peer involved.
        let hub = LoopbackHub::new(2);
        let mut a = Courier::new(hub.endpoint(0), patient());
        let mut b = Courier::new(hub.endpoint(1), patient());
        let rx = std::thread::spawn(move || {
            for _ in 0..3 {
                b.recv(TICK).expect("delivery");
            }
            b
        });
        for nonce in 0..3 {
            a.send_reliable(1, &Message::Heartbeat { nonce }).unwrap();
        }
        let mut b = rx.join().unwrap();
        drop(a);
        // Restarted incarnation: Welcome at seq 1, data frame at seq 2 —
        // both below the watermark (3) the dead incarnation left behind.
        let mut a2 = Courier::new(hub.endpoint(0), patient());
        let rx = std::thread::spawn(move || {
            let first = b.recv(TICK).expect("welcome delivery").msg;
            let second = b.recv(TICK).expect("follow-up delivery").msg;
            (first, second)
        });
        a2.send_reliable(
            1,
            &Message::Welcome {
                nonce: 7,
                iteration: 4,
                epoch: 9,
                survivors: vec![1],
                z: vec![0.0],
                s: vec![0.0],
            },
        )
        .unwrap();
        a2.send_reliable(1, &Message::Heartbeat { nonce: 99 })
            .unwrap();
        let (first, second) = rx.join().unwrap();
        assert!(matches!(first, Message::Welcome { nonce: 7, .. }));
        assert_eq!(second, Message::Heartbeat { nonce: 99 });
    }

    #[test]
    fn backoff_saturates_without_overflow_at_max_attempts() {
        // Satellite: RetryPolicy::backoff must be monotone non-decreasing
        // up to its cap and never overflow, even for absurd attempt
        // numbers far past any real retry budget.
        for policy in [
            RetryPolicy::fast_local(),
            RetryPolicy::tcp_default(),
            RetryPolicy::tcp_link(),
        ] {
            let mut prev = Duration::ZERO;
            for attempt in 0..policy.max_attempts {
                let d = policy.backoff(attempt);
                assert!(d >= prev, "backoff regressed at attempt {attempt}");
                prev = d;
            }
            // Saturation: astronomical attempt counts clamp to the cap
            // instead of wrapping the shift or multiplication.
            let cap = policy.backoff(u32::MAX);
            assert_eq!(policy.backoff(u32::MAX - 1), cap);
            assert!(policy.backoff(policy.max_attempts.saturating_mul(1000)) <= cap);
            assert!(cap > Duration::ZERO);
        }
    }

    /// What a [`ScriptedTransport`] hands to the next `recv`.
    enum Arrival {
        Frame(Envelope),
        /// Handed over only after the caller's whole timeout has passed.
        LateFrame(Envelope),
        /// Nothing arrives: the timeout elapses.
        Silence,
    }

    /// A single-threaded fabric for party 9 that logs `(to, seq, flags)`
    /// per `send_raw` in the sender's own call order and feeds `recv`
    /// from a script; data frames to a party in `acking` are answered
    /// with an ack appended to the script, all others vanish.
    #[derive(Default)]
    struct ScriptedTransport {
        log: Vec<(PartyId, u64, u16)>,
        seqs: HashMap<PartyId, u64>,
        acking: Vec<PartyId>,
        script: VecDeque<Arrival>,
    }

    fn ack_from(from: PartyId, of_seq: u64) -> Envelope {
        Envelope {
            from,
            seq: 0,
            flags: 0,
            msg: Message::Ack { of_seq },
        }
    }

    impl Transport for ScriptedTransport {
        fn party(&self) -> PartyId {
            9
        }
        fn next_seq(&mut self, to: PartyId) -> u64 {
            let seq = self.seqs.entry(to).or_insert(0);
            *seq += 1;
            *seq
        }
        fn send_raw(
            &mut self,
            to: PartyId,
            msg: &Message,
            seq: u64,
            flags: u16,
        ) -> Result<usize, TransportError> {
            self.log.push((to, seq, flags));
            if seq != 0 && self.acking.contains(&to) {
                self.script.push_back(Arrival::Frame(ack_from(to, seq)));
            }
            Ok(crate::Frame::encoded_len_of(msg))
        }
        fn recv(&mut self, timeout: Duration) -> Result<Envelope, TransportError> {
            match self.script.pop_front() {
                Some(Arrival::Frame(env)) => Ok(env),
                Some(Arrival::LateFrame(env)) => {
                    std::thread::sleep(timeout + Duration::from_millis(1));
                    Ok(env)
                }
                Some(Arrival::Silence) | None => {
                    std::thread::sleep(timeout);
                    Err(TransportError::Timeout)
                }
            }
        }
        fn stats(&self) -> crate::LinkStats {
            crate::LinkStats::default()
        }
    }

    /// The data frames (acks ride at seq 0) a scripted courier sent.
    fn data_log(courier: &Courier<ScriptedTransport>) -> Vec<(PartyId, u64, u16)> {
        let log = courier.transport().log.iter();
        log.filter(|&&(_, seq, _)| seq != 0).copied().collect()
    }

    #[test]
    fn fan_out_reaches_every_recipient_before_any_retransmission() {
        // Party 0 never answers, party 1 acks at once: 1 must be served
        // before 0's retry schedule starts, not after its whole budget.
        let policy = RetryPolicy::fast_local();
        let transport = ScriptedTransport {
            acking: vec![1],
            ..Default::default()
        };
        let mut courier = Courier::new(transport, policy);
        let msg = Message::Heartbeat { nonce: 7 };
        let results = courier
            .send_reliable_each(&[(0, &msg), (1, &msg)])
            .expect("own endpoint is healthy");
        let one = crate::Frame::encoded_len_of(&msg);
        assert!(matches!(results[0], Err(TransportError::Timeout)));
        assert!(matches!(results[1], Ok(n) if n == one));
        let log = data_log(&courier);
        let first_to_1 = log.iter().position(|&(to, _, _)| to == 1).unwrap();
        let first_retransmit = log.iter().position(|&(_, _, f)| f == FLAG_RETRANSMIT);
        assert!(first_to_1 < first_retransmit.unwrap(), "{log:?}");
        let to_0: Vec<_> = log.iter().filter(|&&(to, _, _)| to == 0).collect();
        assert_eq!(to_0.len(), policy.max_attempts as usize);
        assert!(to_0.iter().all(|&&(_, seq, _)| seq == 1), "{log:?}");
        assert_eq!(log.iter().filter(|&&(to, _, _)| to == 1).count(), 1);
    }

    #[test]
    fn a_window_ends_only_on_an_empty_receive() {
        // An unrelated frame surfaces after the window has elapsed, with
        // our ack queued right behind it: the inbox is drained before the
        // frame is judged overdue, so nothing is retransmitted.
        let late = Envelope {
            from: 1,
            seq: 1,
            flags: 0,
            msg: Message::Heartbeat { nonce: 1 },
        };
        let transport = ScriptedTransport {
            script: VecDeque::from([Arrival::LateFrame(late), Arrival::Frame(ack_from(1, 1))]),
            ..Default::default()
        };
        let mut courier = Courier::new(transport, RetryPolicy::fast_local());
        courier
            .send_reliable(1, &Message::Heartbeat { nonce: 2 })
            .unwrap();
        assert_eq!(data_log(&courier), vec![(1, 1, 0)]);
        assert_eq!(
            courier.recv(TICK).unwrap().msg,
            Message::Heartbeat { nonce: 1 }
        );
    }

    #[test]
    fn a_link_carries_one_frame_at_a_time_in_call_order() {
        // Two frames for one recipient in one call; the first ack is a
        // window late. The second frame must wait for it (the first is
        // retransmitted meanwhile), so per-link order holds.
        let transport = ScriptedTransport {
            script: VecDeque::from([
                Arrival::Silence,
                Arrival::Frame(ack_from(1, 1)),
                Arrival::Frame(ack_from(1, 2)),
            ]),
            ..Default::default()
        };
        let mut courier = Courier::new(transport, RetryPolicy::fast_local());
        let (a, b) = (
            Message::Heartbeat { nonce: 1 },
            Message::Heartbeat { nonce: 2 },
        );
        let results = courier.send_reliable_each(&[(1, &a), (1, &b)]).unwrap();
        let one = crate::Frame::encoded_len_of(&a);
        assert!(matches!(results[0], Ok(n) if n == 2 * one));
        assert!(matches!(results[1], Ok(n) if n == one));
        assert_eq!(
            data_log(&courier),
            vec![(1, 1, 0), (1, 1, FLAG_RETRANSMIT), (1, 2, 0)]
        );
    }

    #[test]
    fn acks_that_name_no_frame_in_flight_are_dropped() {
        // Every unreliable send is acked by its receiver and a
        // retransmitted frame is acked twice. The courier keeps no ack
        // state at all (the parent kept all 1 001 of these for the life
        // of the process): such an ack is consumed on arrival, never
        // surfaces, and never settles a frame it does not name.
        let transport = ScriptedTransport {
            acking: vec![1],
            ..Default::default()
        };
        let mut courier = Courier::new(transport, RetryPolicy::fast_local());
        for nonce in 0..1000 {
            let msg = Message::Heartbeat { nonce };
            courier.send_unreliable(1, &msg).unwrap();
        }
        // Seq 1001 → party 1. Behind the thousand late acks comes an ack
        // of that very seq from the wrong peer, then a silent window: the
        // frame goes out twice and is acked twice.
        let script = &mut courier.transport.script;
        script.extend([Arrival::Frame(ack_from(2, 1001)), Arrival::Silence]);
        let msg = Message::Heartbeat { nonce: 0 };
        let bytes = courier.send_reliable(1, &msg).unwrap();
        assert_eq!(bytes, 2 * crate::Frame::encoded_len_of(&msg));
        assert_eq!(data_log(&courier).len(), 1002);
        let idle = courier.recv(Duration::from_millis(1));
        assert!(matches!(idle, Err(TransportError::Timeout)), "{idle:?}");
        assert!(courier.transport().script.is_empty());
    }

    /// A transport whose inbox holds one last frame from a peer that has
    /// since vanished: every send toward it fails fast with
    /// [`TransportError::Unreachable`], the way the event backend does
    /// once EOF deregisters the connection.
    struct DeadPeerTransport {
        queued: VecDeque<Envelope>,
        acks_attempted: u32,
    }

    impl Transport for DeadPeerTransport {
        fn party(&self) -> PartyId {
            0
        }
        fn next_seq(&mut self, _to: PartyId) -> u64 {
            1
        }
        fn send_raw(
            &mut self,
            to: PartyId,
            _msg: &Message,
            _seq: u64,
            _flags: u16,
        ) -> Result<usize, TransportError> {
            self.acks_attempted += 1;
            Err(TransportError::Unreachable(to))
        }
        fn recv(&mut self, _timeout: Duration) -> Result<Envelope, TransportError> {
            self.queued.pop_front().ok_or(TransportError::Timeout)
        }
        fn stats(&self) -> crate::LinkStats {
            crate::LinkStats::default()
        }
    }

    #[test]
    fn dead_letter_frame_still_delivers_when_the_ack_cannot() {
        // The peer's last frame before dying must reach the protocol
        // layer even though acking it fails — a dropped ack is always
        // safe under stop-and-wait, while failing the receive here used
        // to kill a coordinator that had already survived the dropout.
        let transport = DeadPeerTransport {
            queued: VecDeque::from([Envelope {
                from: 1,
                seq: 1,
                flags: 0,
                msg: Message::Heartbeat { nonce: 9 },
            }]),
            acks_attempted: 0,
        };
        let mut courier = Courier::new(transport, RetryPolicy::fast_local());
        let env = courier.recv(TICK).expect("frame from a dead peer");
        assert_eq!(env.from, 1);
        assert!(matches!(env.msg, Message::Heartbeat { nonce: 9 }));
        assert!(
            courier.transport().acks_attempted >= 1,
            "the ack must still be attempted"
        );
        // Nothing further queued: back to an ordinary timeout, not an
        // error.
        assert!(matches!(
            courier.recv(Duration::from_millis(10)),
            Err(TransportError::Timeout)
        ));
    }

    #[test]
    fn reordered_frames_both_arrive() {
        let plan = NetFaultPlan::none().delay_frames(LinkFilter::any().from(0).kind(3), 1, 1);
        let (mut a, b) = pair(plan);
        let rx = receive_n_in_background(b, 2);
        a.send_reliable(1, &Message::Heartbeat { nonce: 1 })
            .unwrap();
        a.send_reliable(1, &Message::Heartbeat { nonce: 2 })
            .unwrap();
        let mut nonces: Vec<u64> = rx
            .join()
            .unwrap()
            .into_iter()
            .map(|e| match e.msg {
                Message::Heartbeat { nonce } => nonce,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        nonces.sort_unstable();
        assert_eq!(nonces, vec![1, 2]);
    }
}
