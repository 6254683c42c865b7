//! Connection churn on the event-loop transport: no thread of its own
//! regardless of peer count, and no thread or file-descriptor leak when
//! peers die mid-round.
//!
//! Both resources are read process-wide from `/proc/self` (Linux-only;
//! the assertions skip elsewhere), so this test is alone in its binary:
//! a sibling test — even one only waiting its turn — is a thread the
//! harness starts whenever it likes.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use ppml_transport::{EventTransport, Frame, Message, PartyId, RetryPolicy, Transport};

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

/// `Threads:` from `/proc/self/status`, or `None` off Linux.
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Open file descriptors, or `None` off Linux.
fn fd_count() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/fd").ok()?.count())
}

/// Blocking-reads one length-prefixed frame off a raw socket.
fn read_frame(stream: &mut TcpStream) -> Frame {
    let mut prefix = [0u8; 4];
    stream.read_exact(&mut prefix).expect("frame prefix");
    let len = u32::from_le_bytes(prefix) as usize;
    let mut full = vec![0u8; 4 + len];
    full[..4].copy_from_slice(&prefix);
    stream.read_exact(&mut full[4..]).expect("frame body");
    Frame::decode(&full).expect("frame decode")
}

fn wait_connected(transport: &EventTransport, want: usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while transport.connected_parties().len() != want {
        assert!(
            Instant::now() < deadline,
            "{what}: expected {want} connected, have {:?}",
            transport.connected_parties()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// 32 ephemeral peers dial in, half are killed mid-round, and the
/// survivors' round still completes — all on the test's own thread, the
/// coordinator endpoint starting none, with every descriptor of the dead
/// half reclaimed: dead peers must leave neither a parked thread nor an
/// open socket behind.
#[test]
fn churn_32_peers_kill_half_without_thread_or_fd_leak() {
    const PEERS: usize = 32;
    const COORD: PartyId = 1000;

    let threads_before = thread_count();
    let mut coordinator = bind(COORD, HashMap::new());
    let addr = coordinator.local_addr();
    if let (Some(before), Some(after)) = (threads_before, thread_count()) {
        assert_eq!(after, before, "the backend must cost no thread");
    }

    // Ephemeral peers: raw sockets speaking the wire handshake, so the
    // only event-loop machinery under test is the coordinator's.
    let mut peers: Vec<TcpStream> = (0..PEERS as PartyId)
        .map(|party| {
            let stream = TcpStream::connect(addr).expect("peer connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            let hello = Frame {
                flags: 0,
                from: party,
                to: COORD,
                seq: 0,
                msg: Message::Hello { party },
            }
            .encode();
            (&stream).write_all(&hello).expect("hello");
            stream
        })
        .collect();
    wait_connected(&coordinator, PEERS, "after dial-in");

    // 32 live connections, still no thread.
    if let (Some(before), Some(now)) = (threads_before, thread_count()) {
        assert_eq!(now, before, "{PEERS} peers must not add threads");
    }
    let fds_peak = fd_count();

    // Open a round: one heartbeat to every peer...
    for party in 0..PEERS as PartyId {
        coordinator
            .send(
                party,
                &Message::Heartbeat {
                    nonce: party as u64,
                },
            )
            .expect("broadcast");
    }
    // ...then SIGKILL-equivalent for the first half: drop the sockets
    // before they answer.
    let mut survivors = peers.split_off(PEERS / 2);
    drop(peers);

    // The survivors' round completes: each reads past its HelloAck to
    // the heartbeat and echoes it back. The sockets stay open until the
    // end of the test: survivors must not be reaped alongside the dead.
    for (i, stream) in survivors.iter_mut().enumerate() {
        let party = (PEERS / 2 + i) as PartyId;
        let nonce = loop {
            match read_frame(stream).msg {
                Message::HelloAck { .. } => continue,
                Message::Heartbeat { nonce } => break nonce,
                other => panic!("peer {party}: unexpected frame {other:?}"),
            }
        };
        assert_eq!(nonce, party as u64);
        let reply = Frame {
            flags: 0,
            from: party,
            to: COORD,
            seq: 1,
            msg: Message::Heartbeat { nonce },
        }
        .encode();
        (&*stream).write_all(&reply).expect("reply");
    }

    let mut replied: Vec<PartyId> = (0..PEERS / 2)
        .map(|_| {
            let env = coordinator
                .recv(Duration::from_secs(10))
                .expect("survivor reply");
            assert_eq!(
                env.msg,
                Message::Heartbeat {
                    nonce: env.from as u64
                }
            );
            env.from
        })
        .collect();
    replied.sort_unstable();
    let want: Vec<PartyId> = (PEERS as PartyId / 2..PEERS as PartyId).collect();
    assert_eq!(replied, want, "every survivor's round must complete");

    // The dead half is reaped: connection count halves, the thread
    // budget is untouched, and their descriptors come back.
    wait_connected(&coordinator, PEERS / 2, "after killing half");
    if let (Some(before), Some(now)) = (threads_before, thread_count()) {
        assert_eq!(now, before, "churn must not leak threads");
    }
    if let Some(peak) = fds_peak {
        // Half the peer-side sockets were dropped outright and the
        // coordinator closed its side of each dead connection; demand
        // most of those descriptors back (small slack for /proc reads).
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let now = fd_count().expect("fd count");
            if now + PEERS <= peak + 4 {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "fd leak after churn: peak {peak}, now {now}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}
