//! Deterministic in-memory transport with injectable network faults.
//!
//! All endpoints share a [`LoopbackHub`]: per-destination queues of
//! *encoded* frames behind one mutex, with a condvar for blocking receives.
//! Frames really are encoded and decoded on the way through — the fault
//! injector, the byte counters and the integrity checks all operate on the
//! same bytes TCP would carry, so tests over loopback exercise the full
//! codec path.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ppml_telemetry as telemetry;
use telemetry::EventKind;

use crate::fault::{FaultAction, NetFaultPlan};
use crate::frame::{encode_frame, Frame, Message, PartyId, FLAG_RETRANSMIT};
use crate::transport::{Envelope, LinkStats, Transport, TransportError};

/// Hub-wide traffic accounting (pre-fault, one entry per `send` call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubStats {
    /// Frames offered by senders.
    pub frames_offered: u64,
    /// Sum of encoded sizes of offered frames.
    pub bytes_offered: u64,
    /// Frames destroyed by the fault plan.
    pub dropped: u64,
    /// Extra copies injected by the fault plan.
    pub duplicated: u64,
    /// Frames that were held back for reordering.
    pub delayed: u64,
}

struct HubState {
    queues: Vec<VecDeque<Vec<u8>>>,
    /// Held-back frames per destination: (deliveries still to pass, frame).
    delayed: Vec<Vec<(u32, Vec<u8>)>>,
    faults: NetFaultPlan,
    stats: HubStats,
    closed: bool,
}

/// The shared fabric connecting a set of loopback endpoints.
pub struct LoopbackHub {
    state: Mutex<HubState>,
    arrived: Condvar,
    parties: usize,
}

impl LoopbackHub {
    /// A fault-free hub for `parties` endpoints (ids `0..parties`).
    pub fn new(parties: usize) -> Arc<Self> {
        Self::with_faults(parties, NetFaultPlan::none())
    }

    /// A hub whose traffic is filtered through `faults`.
    pub fn with_faults(parties: usize, faults: NetFaultPlan) -> Arc<Self> {
        assert!(parties > 0, "a hub needs at least one party");
        Arc::new(LoopbackHub {
            state: Mutex::new(HubState {
                queues: (0..parties).map(|_| VecDeque::new()).collect(),
                delayed: (0..parties).map(|_| Vec::new()).collect(),
                faults,
                stats: HubStats::default(),
                closed: false,
            }),
            arrived: Condvar::new(),
            parties,
        })
    }

    /// Number of parties the hub routes for.
    pub fn parties(&self) -> usize {
        self.parties
    }

    /// The endpoint for `party`.
    ///
    /// # Panics
    ///
    /// Panics if `party` is out of range.
    pub fn endpoint(self: &Arc<Self>, party: PartyId) -> LoopbackTransport {
        assert!(
            (party as usize) < self.parties,
            "party {party} out of range for {} parties",
            self.parties
        );
        LoopbackTransport {
            hub: Arc::clone(self),
            party,
            next_seq: vec![0; self.parties],
            stats: LinkStats::default(),
        }
    }

    /// All endpoints, in party order.
    pub fn endpoints(self: &Arc<Self>) -> Vec<LoopbackTransport> {
        (0..self.parties as PartyId)
            .map(|p| self.endpoint(p))
            .collect()
    }

    /// Snapshot of the hub-wide counters.
    pub fn stats(&self) -> HubStats {
        self.state.lock().expect("hub lock").stats
    }

    /// Replaces the fault plan mid-run — the chaos harness's lever for
    /// healing a partition or clearing a kill so a restarted incarnation
    /// of a party can talk. Frames already queued are unaffected; only
    /// subsequent sends consult the new plan.
    pub fn set_faults(&self, faults: NetFaultPlan) {
        self.state.lock().expect("hub lock").faults = faults;
    }

    /// Marks the fabric closed; blocked receivers wake with
    /// [`TransportError::Closed`] once their queues drain.
    pub fn close(&self) {
        self.state.lock().expect("hub lock").closed = true;
        self.arrived.notify_all();
    }

    /// Enqueues `frame` for `to` and ages that destination's delayed
    /// frames by one delivery slot. Call with the state lock held.
    fn enqueue(state: &mut HubState, to: usize, frame: Vec<u8>) {
        state.queues[to].push_back(frame);
        let mut released = Vec::new();
        state.delayed[to].retain_mut(|(slots, held)| {
            if *slots <= 1 {
                released.push(std::mem::take(held));
                false
            } else {
                *slots -= 1;
                true
            }
        });
        state.queues[to].extend(released);
    }
}

/// One party's endpoint on a [`LoopbackHub`].
pub struct LoopbackTransport {
    hub: Arc<LoopbackHub>,
    party: PartyId,
    next_seq: Vec<u64>,
    stats: LinkStats,
}

impl LoopbackTransport {
    /// The hub this endpoint is attached to.
    pub fn hub(&self) -> &Arc<LoopbackHub> {
        &self.hub
    }
}

impl Transport for LoopbackTransport {
    fn party(&self) -> PartyId {
        self.party
    }

    fn next_seq(&mut self, to: PartyId) -> u64 {
        if (to as usize) >= self.next_seq.len() {
            // Out-of-range destination: send_raw will report Unreachable;
            // hand out a counter anyway so the caller reaches that error.
            self.next_seq.resize(to as usize + 1, 0);
        }
        let slot = &mut self.next_seq[to as usize];
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
        if (to as usize) >= self.hub.parties {
            return Err(TransportError::Unreachable(to));
        }
        let encoded = encode_frame(flags, self.party, to, seq, msg);
        let bytes = encoded.len();
        let mut state = self.hub.state.lock().expect("hub lock");
        if state.closed {
            return Err(TransportError::Closed);
        }
        state.stats.frames_offered += 1;
        state.stats.bytes_offered += bytes as u64;
        match state.faults.apply(self.party, to, seq, flags, msg) {
            Some(FaultAction::Drop) => {
                state.stats.dropped += 1;
            }
            Some(FaultAction::Duplicate) => {
                state.stats.duplicated += 1;
                LoopbackHub::enqueue(&mut state, to as usize, encoded.clone());
                LoopbackHub::enqueue(&mut state, to as usize, encoded);
            }
            Some(FaultAction::Delay(slots)) => {
                state.stats.delayed += 1;
                state.delayed[to as usize].push((slots.max(1), encoded));
            }
            None => {
                LoopbackHub::enqueue(&mut state, to as usize, encoded);
            }
        }
        drop(state);
        self.hub.arrived.notify_all();
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += bytes as u64;
        telemetry::emit(
            self.party,
            EventKind::FrameSent {
                to,
                bytes: bytes as u64,
                retransmit: flags & FLAG_RETRANSMIT != 0,
            },
        );
        Ok(bytes)
    }

    fn recv(&mut self, timeout: Duration) -> Result<Envelope, TransportError> {
        let deadline = Instant::now() + timeout;
        let me = self.party as usize;
        let mut state = self.hub.state.lock().expect("hub lock");
        let encoded = loop {
            if let Some(frame) = state.queues[me].pop_front() {
                break frame;
            }
            // Queue drained: flush the most-overdue delayed frame so a
            // delay fault at the tail of a conversation cannot deadlock.
            if !state.delayed[me].is_empty() {
                let idx = state.delayed[me]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (slots, _))| *slots)
                    .map(|(i, _)| i)
                    .expect("non-empty");
                break state.delayed[me].swap_remove(idx).1;
            }
            if state.closed {
                return Err(TransportError::Closed);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(TransportError::Timeout);
            }
            let (next, wait) = self
                .hub
                .arrived
                .wait_timeout(state, deadline - now)
                .expect("hub lock");
            state = next;
            if wait.timed_out() && state.queues[me].is_empty() && state.delayed[me].is_empty() {
                if state.closed {
                    return Err(TransportError::Closed);
                }
                return Err(TransportError::Timeout);
            }
        };
        drop(state);
        let frame = match Frame::decode(&encoded) {
            Ok(frame) => frame,
            Err(e) => {
                telemetry::emit(
                    self.party,
                    EventKind::FrameRejected {
                        bytes: encoded.len() as u64,
                    },
                );
                return Err(e.into());
            }
        };
        self.stats.frames_received += 1;
        self.stats.bytes_received += encoded.len() as u64;
        telemetry::emit(
            self.party,
            EventKind::FrameRecv {
                from: frame.from,
                bytes: encoded.len() as u64,
            },
        );
        Ok(Envelope {
            from: frame.from,
            seq: frame.seq,
            flags: frame.flags,
            msg: frame.msg,
        })
    }

    fn stats(&self) -> LinkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LinkFilter;
    use crate::transport::Transport;

    const TICK: Duration = Duration::from_millis(200);

    #[test]
    fn frames_route_between_endpoints() {
        let hub = LoopbackHub::new(2);
        let mut a = hub.endpoint(0);
        let mut b = hub.endpoint(1);
        let receipt = a.send(1, &Message::Heartbeat { nonce: 5 }).expect("send");
        assert_eq!(receipt.seq, 1);
        let env = b.recv(TICK).expect("recv");
        assert_eq!(env.from, 0);
        assert_eq!(env.msg, Message::Heartbeat { nonce: 5 });
        // Sent bytes equal received bytes equal hub-offered bytes.
        assert_eq!(a.stats().bytes_sent, b.stats().bytes_received);
        assert_eq!(hub.stats().bytes_offered, a.stats().bytes_sent);
    }

    #[test]
    fn sequence_numbers_are_per_destination() {
        let hub = LoopbackHub::new(3);
        let mut a = hub.endpoint(0);
        assert_eq!(a.send(1, &Message::Shutdown).unwrap().seq, 1);
        assert_eq!(a.send(2, &Message::Shutdown).unwrap().seq, 1);
        assert_eq!(a.send(1, &Message::Shutdown).unwrap().seq, 2);
    }

    #[test]
    fn recv_times_out_when_idle() {
        let hub = LoopbackHub::new(1);
        let mut a = hub.endpoint(0);
        let err = a.recv(Duration::from_millis(10)).unwrap_err();
        assert!(matches!(err, TransportError::Timeout));
    }

    #[test]
    fn dropped_frames_never_arrive() {
        let hub =
            LoopbackHub::with_faults(2, NetFaultPlan::none().drop_frames(LinkFilter::any(), 1));
        let mut a = hub.endpoint(0);
        let mut b = hub.endpoint(1);
        a.send(1, &Message::Heartbeat { nonce: 1 }).unwrap();
        a.send(1, &Message::Heartbeat { nonce: 2 }).unwrap();
        let env = b.recv(TICK).unwrap();
        assert_eq!(env.msg, Message::Heartbeat { nonce: 2 });
        assert_eq!(hub.stats().dropped, 1);
    }

    #[test]
    fn duplicated_frames_arrive_twice() {
        let hub = LoopbackHub::with_faults(
            2,
            NetFaultPlan::none().duplicate_frames(LinkFilter::any(), 1),
        );
        let mut a = hub.endpoint(0);
        let mut b = hub.endpoint(1);
        a.send(1, &Message::Heartbeat { nonce: 9 }).unwrap();
        assert_eq!(b.recv(TICK).unwrap().msg, Message::Heartbeat { nonce: 9 });
        assert_eq!(b.recv(TICK).unwrap().msg, Message::Heartbeat { nonce: 9 });
    }

    #[test]
    fn delayed_frames_reorder_past_later_traffic() {
        let hub = LoopbackHub::with_faults(
            2,
            NetFaultPlan::none().delay_frames(LinkFilter::any(), 1, 1),
        );
        let mut a = hub.endpoint(0);
        let mut b = hub.endpoint(1);
        a.send(1, &Message::Heartbeat { nonce: 1 }).unwrap();
        a.send(1, &Message::Heartbeat { nonce: 2 }).unwrap();
        assert_eq!(b.recv(TICK).unwrap().msg, Message::Heartbeat { nonce: 2 });
        assert_eq!(b.recv(TICK).unwrap().msg, Message::Heartbeat { nonce: 1 });
    }

    #[test]
    fn delayed_frame_with_no_later_traffic_still_flushes() {
        let hub = LoopbackHub::with_faults(
            2,
            NetFaultPlan::none().delay_frames(LinkFilter::any(), 1, 100),
        );
        let mut a = hub.endpoint(0);
        let mut b = hub.endpoint(1);
        a.send(1, &Message::Heartbeat { nonce: 7 }).unwrap();
        assert_eq!(b.recv(TICK).unwrap().msg, Message::Heartbeat { nonce: 7 });
    }

    #[test]
    fn faults_are_deterministic() {
        let run = || {
            let hub = LoopbackHub::with_faults(
                2,
                NetFaultPlan::none()
                    .drop_frames(LinkFilter::any().kind(3), 2)
                    .duplicate_frames(LinkFilter::any(), 1),
            );
            let mut a = hub.endpoint(0);
            let mut b = hub.endpoint(1);
            for nonce in 0..6 {
                a.send(1, &Message::Heartbeat { nonce }).unwrap();
            }
            let mut got = Vec::new();
            while let Ok(env) = b.recv(Duration::from_millis(5)) {
                if let Message::Heartbeat { nonce } = env.msg {
                    got.push(nonce);
                }
            }
            got
        };
        assert_eq!(run(), run());
        assert_eq!(run(), vec![2, 2, 3, 4, 5]);
    }

    #[test]
    fn close_wakes_blocked_receivers() {
        let hub = LoopbackHub::new(1);
        let mut a = hub.endpoint(0);
        let h = {
            let hub = Arc::clone(&hub);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                hub.close();
            })
        };
        let err = a.recv(Duration::from_secs(5)).unwrap_err();
        assert!(matches!(err, TransportError::Closed));
        h.join().unwrap();
    }

    #[test]
    fn unreachable_party_is_an_error() {
        let hub = LoopbackHub::new(2);
        let mut a = hub.endpoint(0);
        assert!(matches!(
            a.send(5, &Message::Shutdown),
            Err(TransportError::Unreachable(5))
        ));
    }
}
