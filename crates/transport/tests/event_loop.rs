//! Retransmission parity of the event-loop transport backend with the
//! loopback reference fabric. (The connection-churn drill, which counts
//! process-wide threads and descriptors, is alone in
//! `event_loop_churn.rs`.)

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;

use ppml_transport::{
    Courier, EventTransport, LinkFilter, LoopbackHub, Message, NetFaultPlan, PartyId, RetryPolicy,
    Transport, FLAG_RETRANSMIT,
};

fn loopback_addr() -> SocketAddr {
    "127.0.0.1:0".parse().expect("addr")
}

fn bind(party: PartyId, peers: HashMap<PartyId, SocketAddr>) -> EventTransport {
    EventTransport::bind(
        party,
        loopback_addr(),
        peers,
        RetryPolicy::fast_local(),
        Duration::from_secs(5),
    )
    .expect("bind")
}

/// A dropped first transmission must look identical at the courier
/// level on the event loop and on the loopback reference fabric: the
/// receiver sees exactly one delivery, flagged as a retransmission,
/// with the same sequence number. On loopback the drop is injected by
/// the fault plan; on the event loop it is forced by panicking the
/// handler for that frame, which closes the connection and makes the
/// courier redial and retransmit.
#[test]
fn courier_retransmit_parity_with_loopback_reference() {
    let payload = Message::MaskedShare {
        iteration: 4,
        epoch: 1,
        party: 1,
        payload: vec![10, 20, 30],
    };

    // Reference: loopback, drop the first data frame from 1 to 0.
    let reference = {
        let hub = LoopbackHub::new(2);
        let mut receiver = hub.endpoint(0);
        let mut sender = Courier::new(hub.endpoint(1), RetryPolicy::fast_local());
        sender
            .send_unreliable(0, &Message::Heartbeat { nonce: 1 })
            .expect("announce");
        receiver.recv(Duration::from_secs(5)).expect("announce rx");
        hub.set_faults(NetFaultPlan::none().drop_frames(LinkFilter::any().from(1).to(0), 1));
        let mut receiver = Courier::new(receiver, RetryPolicy::fast_local());
        let h = std::thread::spawn(move || receiver.recv(Duration::from_secs(10)).expect("data"));
        sender.send_reliable(0, &payload).expect("reliable send");
        h.join().expect("receiver thread")
    };

    // Event loop: same exchange, drop forced through the panic hook.
    let delivered = {
        let mut server = bind(0, HashMap::new());
        let addr = server.local_addr();
        let mut sender = Courier::new(
            bind(1, HashMap::from([(0, addr)])),
            RetryPolicy::tcp_default(),
        );
        sender
            .send_unreliable(0, &Message::Heartbeat { nonce: 1 })
            .expect("announce");
        server.recv(Duration::from_secs(5)).expect("announce rx");
        server.debug_panic_on_next_frame(1);
        let mut receiver = Courier::new(server, RetryPolicy::tcp_default());
        let h = std::thread::spawn(move || receiver.recv(Duration::from_secs(10)).expect("data"));
        sender.send_reliable(0, &payload).expect("reliable send");
        h.join().expect("receiver thread")
    };

    assert_eq!(
        delivered, reference,
        "courier delivery must be identical across fabrics"
    );
    assert_eq!(
        delivered.flags & FLAG_RETRANSMIT,
        FLAG_RETRANSMIT,
        "the surviving delivery must be the retransmission"
    );
}
