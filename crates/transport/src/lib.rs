//! Message transport for the distributed learners (ISSUE 1 tentpole).
//!
//! The paper's protocol is learners exchanging *messages*: masked local
//! models `wᵢ + Sedᵢ − Revᵢ` flowing to the reducer and consensus state
//! broadcast back each ADMM iteration (§V). This crate provides the wire
//! and delivery machinery for that exchange, with zero dependencies
//! outside `std`:
//!
//! * [`wire`] — exact-size little-endian codec ([`Wire`]) and bounds-checked
//!   decoding ([`Reader`]); the size arithmetic deliberately matches the
//!   byte estimator the MapReduce metrics used before, so counters are now
//!   backed by real encodings;
//! * [`frame`] — the versioned, length-prefixed, CRC-checksummed frame
//!   format and the protocol [`Message`] set (mask exchange, masked-share
//!   gather, consensus broadcast, hello/heartbeat/ack control frames);
//! * [`Transport`] — the backend trait, with two implementations:
//!   [`LoopbackTransport`] (deterministic in-memory fabric with
//!   [`NetFaultPlan`] drop/duplicate/delay injection) and
//!   [`EventTransport`] (TCP over `std::net`, every socket driven by a
//!   readiness loop on the caller's own thread, per-message timeouts,
//!   exponential-backoff dialing, reconnection);
//! * [`Courier`] — reliability on top of any backend, stop-and-wait per
//!   link and overlapped across links: acks, retransmission under
//!   [`RetryPolicy`], and duplicate suppression.
//!
//! # Example
//!
//! ```
//! use std::time::Duration;
//! use ppml_transport::{Courier, LoopbackHub, Message, RetryPolicy};
//!
//! let hub = LoopbackHub::new(2);
//! let mut tx = Courier::new(hub.endpoint(0), RetryPolicy::fast_local());
//! let mut rx = Courier::new(hub.endpoint(1), RetryPolicy::fast_local());
//!
//! let handle = std::thread::spawn(move || {
//!     rx.recv(Duration::from_secs(1)).expect("delivery").msg
//! });
//! tx.send_reliable(1, &Message::Heartbeat { nonce: 7 }).expect("acked");
//! assert_eq!(handle.join().unwrap(), Message::Heartbeat { nonce: 7 });
//! ```

// The sole unsafe surface in this crate is the raw `ppoll(2)` syscall
// in `poll` (the workspace links no `libc`); everything else stays
// lint-enforced safe.
#![deny(unsafe_code)]

pub mod courier;
pub mod event_loop;
pub mod fault;
pub mod frame;
pub mod loopback;
pub mod poll;
pub mod retry;
pub mod transport;
pub mod wire;

pub use courier::Courier;
pub use event_loop::EventTransport;
pub use fault::{FaultAction, LinkFilter, NetFaultPlan};
pub use frame::{
    crc32, Frame, FrameError, Message, PartyId, FLAG_RETRANSMIT, FRAME_OVERHEAD, WIRE_VERSION,
};
pub use loopback::{HubStats, LoopbackHub, LoopbackTransport};
pub use poll::pin_current_thread;
pub use retry::RetryPolicy;
pub use transport::{Envelope, LinkStats, SendReceipt, Transport, TransportError};
pub use wire::{Reader, Wire, WireError};
