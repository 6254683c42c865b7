//! Deterministic network fault injection for the loopback backend.
//!
//! Mirrors the builder idiom of `ppml-mapreduce`'s compute-side `FaultPlan`:
//! a plan is a list of rules, each matching a link (sender, destination,
//! optionally a message kind) with a budget of occurrences. Rules are
//! consulted in insertion order on every send; the first match with budget
//! left fires and consumes one unit. Everything is counter-based, so a test
//! replaying the same traffic sees the same faults.

use crate::frame::{Frame, PartyId, FLAG_RETRANSMIT};

/// What happens to a matched frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// The frame vanishes in transit.
    Drop,
    /// The frame is delivered twice.
    Duplicate,
    /// Delivery is held back until `0` more frames have been delivered on
    /// the destination's queue (reordering past later traffic); a held
    /// frame is flushed when the queue drains, so delay never deadlocks.
    Delay(u32),
}

/// Which frames a rule applies to; `None` fields match anything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkFilter {
    from: Option<PartyId>,
    to: Option<PartyId>,
    kind: Option<u8>,
    min_seq: Option<u64>,
}

impl LinkFilter {
    /// Matches every frame.
    pub fn any() -> Self {
        LinkFilter::default()
    }

    /// Restricts to frames sent by `party`.
    pub fn from(mut self, party: PartyId) -> Self {
        self.from = Some(party);
        self
    }

    /// Restricts to frames addressed to `party`.
    pub fn to(mut self, party: PartyId) -> Self {
        self.to = Some(party);
        self
    }

    /// Restricts to frames whose [`crate::Message::kind`] equals `kind`.
    pub fn kind(mut self, kind: u8) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Restricts to frames whose per-link sequence number is at least
    /// `seq`. Data sequence numbers count up from 1 per `(sender,
    /// destination)` link, so this pins a fault to "the `n`-th message and
    /// everything after it" — retransmissions reuse the original sequence
    /// number and are therefore caught by the same rule.
    pub fn seq_at_least(mut self, seq: u64) -> Self {
        self.min_seq = Some(seq);
        self
    }

    fn matches(&self, from: PartyId, to: PartyId, kind: u8, seq: u64) -> bool {
        self.from.is_none_or(|f| f == from)
            && self.to.is_none_or(|t| t == to)
            && self.kind.is_none_or(|k| k == kind)
            && self.min_seq.is_none_or(|s| seq >= s)
    }
}

#[derive(Debug, Clone)]
struct Rule {
    filter: LinkFilter,
    action: FaultAction,
    remaining: u32,
}

/// A party that crashes mid-protocol: once it has offered `after` countable
/// frames (protocol originals only — retransmissions and acks are reactions
/// to peer timing, and heartbeats and clock probes fire on wall-clock
/// schedules, so counting any of them would make the kill point
/// nondeterministic), every subsequent frame from *or to* the party is
/// destroyed. That is what a killed process looks like to the network:
/// nothing more comes out of it, and everything sent its way lands nowhere.
#[derive(Debug, Clone)]
struct KillRule {
    party: PartyId,
    after: u32,
    counted: u32,
}

impl KillRule {
    fn dead(&self) -> bool {
        self.counted >= self.after
    }
}

/// An ordered set of fault rules with per-rule budgets.
#[derive(Debug, Clone, Default)]
pub struct NetFaultPlan {
    rules: Vec<Rule>,
    kills: Vec<KillRule>,
}

impl NetFaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        NetFaultPlan::default()
    }

    /// Drops the first `n` frames matching `filter`.
    pub fn drop_frames(mut self, filter: LinkFilter, n: u32) -> Self {
        self.rules.push(Rule {
            filter,
            action: FaultAction::Drop,
            remaining: n,
        });
        self
    }

    /// Duplicates the first `n` frames matching `filter`.
    pub fn duplicate_frames(mut self, filter: LinkFilter, n: u32) -> Self {
        self.rules.push(Rule {
            filter,
            action: FaultAction::Duplicate,
            remaining: n,
        });
        self
    }

    /// Delays the first `n` frames matching `filter` past `slots`
    /// subsequent deliveries to the same destination.
    pub fn delay_frames(mut self, filter: LinkFilter, n: u32, slots: u32) -> Self {
        self.rules.push(Rule {
            filter,
            action: FaultAction::Delay(slots),
            remaining: n,
        });
        self
    }

    /// Kills `party` after it has offered `n_frames` countable frames
    /// (protocol originals; retransmissions, acks, heartbeats and clock
    /// probes are excluded so the kill point is deterministic for a given
    /// protocol run regardless of wall-clock timing). From then on
    /// every frame from or to the party vanishes — the standard way to make
    /// learner dropout reproducible in tests.
    pub fn kill_party_after(mut self, party: PartyId, n_frames: u32) -> Self {
        self.kills.push(KillRule {
            party,
            after: n_frames,
            counted: 0,
        });
        self
    }

    /// Severs the `from → to` direction permanently while leaving the
    /// reverse direction intact — a one-way partition. Built on the same
    /// [`LinkFilter`] machinery as every other rule, so it composes with
    /// kinds and budgets added separately.
    pub fn partition_one_way(self, from: PartyId, to: PartyId) -> Self {
        self.drop_frames(LinkFilter::any().from(from).to(to), u32::MAX)
    }

    /// True when no rule can ever fire.
    pub fn is_empty(&self) -> bool {
        self.rules.iter().all(|r| r.remaining == 0) && self.kills.is_empty()
    }

    /// Decides the fate of one frame, consuming budget from the first
    /// matching rule. `None` means deliver normally. Kill rules take
    /// precedence: a dead party neither sends nor receives.
    pub fn apply(&mut self, frame: &Frame) -> Option<FaultAction> {
        let kind = frame.msg.kind();
        let countable = !matches!(
            frame.msg,
            crate::frame::Message::Ack { .. }
                | crate::frame::Message::Heartbeat { .. }
                | crate::frame::Message::TimeProbe { .. }
                | crate::frame::Message::TimeReply { .. }
        ) && frame.flags & FLAG_RETRANSMIT == 0;
        // The verdict for this frame uses the counters as they stood
        // *before* it: the frame that exhausts a kill budget still passes.
        let mut killed = false;
        for kill in &mut self.kills {
            if kill.dead() && (frame.from == kill.party || frame.to == kill.party) {
                killed = true;
            }
            if frame.from == kill.party && countable {
                kill.counted += 1;
            }
        }
        if killed {
            return Some(FaultAction::Drop);
        }
        for rule in &mut self.rules {
            if rule.remaining > 0 && rule.filter.matches(frame.from, frame.to, kind, frame.seq) {
                rule.remaining -= 1;
                return Some(rule.action);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Message;

    /// A heartbeat frame (kind 3) for exercising the plan.
    fn probe(from: PartyId, to: PartyId, seq: u64) -> Frame {
        Frame {
            flags: 0,
            from,
            to,
            seq,
            msg: Message::Heartbeat { nonce: 0 },
        }
    }

    fn share(from: PartyId, to: PartyId, seq: u64) -> Frame {
        Frame {
            flags: 0,
            from,
            to,
            seq,
            msg: Message::MaskedShare {
                iteration: 0,
                epoch: 0,
                party: from,
                payload: Vec::new(),
            },
        }
    }

    #[test]
    fn budget_is_consumed_in_order() {
        let mut plan = NetFaultPlan::none()
            .drop_frames(LinkFilter::any().from(1), 2)
            .duplicate_frames(LinkFilter::any(), 1);
        assert_eq!(plan.apply(&share(1, 0, 1)), Some(FaultAction::Drop));
        assert_eq!(plan.apply(&share(1, 0, 2)), Some(FaultAction::Drop));
        // Drop budget exhausted; the catch-all duplicate rule fires next.
        assert_eq!(plan.apply(&share(1, 0, 3)), Some(FaultAction::Duplicate));
        assert_eq!(plan.apply(&share(1, 0, 4)), None);
        assert!(plan.is_empty());
    }

    #[test]
    fn filters_restrict_matches() {
        let mut plan =
            NetFaultPlan::none().drop_frames(LinkFilter::any().from(2).to(0).kind(6), 10);
        assert_eq!(plan.apply(&share(1, 0, 1)), None);
        assert_eq!(plan.apply(&share(2, 1, 1)), None);
        assert_eq!(plan.apply(&probe(2, 0, 1)), None);
        assert_eq!(plan.apply(&share(2, 0, 2)), Some(FaultAction::Drop));
    }

    #[test]
    fn seq_filter_pins_the_tail_of_a_link() {
        let mut plan =
            NetFaultPlan::none().drop_frames(LinkFilter::any().seq_at_least(3), u32::MAX);
        assert_eq!(plan.apply(&share(0, 1, 1)), None);
        assert_eq!(plan.apply(&share(0, 1, 2)), None);
        assert_eq!(plan.apply(&share(0, 1, 3)), Some(FaultAction::Drop));
        assert_eq!(plan.apply(&share(0, 1, 7)), Some(FaultAction::Drop));
    }

    #[test]
    fn empty_plan_delivers_everything() {
        let mut plan = NetFaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan.apply(&probe(0, 1, 1)), None);
    }

    #[test]
    fn killed_party_goes_silent_after_its_budget() {
        let mut plan = NetFaultPlan::none().kill_party_after(1, 2);
        // The first two countable frames pass.
        assert_eq!(plan.apply(&share(1, 3, 1)), None);
        assert_eq!(plan.apply(&share(1, 3, 2)), None);
        // Everything after — from it or to it — is destroyed.
        assert_eq!(plan.apply(&share(1, 3, 3)), Some(FaultAction::Drop));
        assert_eq!(plan.apply(&probe(3, 1, 9)), Some(FaultAction::Drop));
        // Unrelated links are untouched.
        assert_eq!(plan.apply(&share(0, 3, 5)), None);
    }

    #[test]
    fn one_way_partition_severs_exactly_one_direction() {
        let mut plan = NetFaultPlan::none().partition_one_way(0, 2);
        assert_eq!(plan.apply(&share(0, 2, 1)), Some(FaultAction::Drop));
        assert_eq!(plan.apply(&share(0, 2, 9)), Some(FaultAction::Drop));
        assert_eq!(plan.apply(&share(2, 0, 1)), None, "reverse path stays up");
        assert_eq!(plan.apply(&share(0, 1, 1)), None, "other links stay up");
    }

    #[test]
    fn kill_counting_ignores_acks_and_retransmits() {
        let mut plan = NetFaultPlan::none().kill_party_after(1, 1);
        let ack = Frame {
            flags: 0,
            from: 1,
            to: 3,
            seq: 0,
            msg: Message::Ack { of_seq: 4 },
        };
        assert_eq!(plan.apply(&ack), None, "acks are not counted");
        assert_eq!(
            plan.apply(&probe(1, 3, 1)),
            None,
            "liveness heartbeats fire on wall-clock schedules and are not counted"
        );
        let mut retransmit = share(1, 3, 1);
        retransmit.flags = FLAG_RETRANSMIT;
        // The original counts; its retransmission does not re-count but is
        // destroyed because the party is already dead by then.
        assert_eq!(plan.apply(&share(1, 3, 1)), None);
        assert_eq!(plan.apply(&retransmit), Some(FaultAction::Drop));
        assert_eq!(
            plan.apply(&ack),
            Some(FaultAction::Drop),
            "dead parties do not ack"
        );
    }
}
