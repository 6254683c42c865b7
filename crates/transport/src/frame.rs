//! The framed wire format every transport backend speaks.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! [u32 len]                                  // bytes after this field
//! [u8 version][u8 kind][u16 flags]           // codec version, payload kind
//! [u32 from][u32 to][u64 seq]                // routing + per-link sequence
//! [payload …]                                // kind-specific, Wire-encoded
//! [u32 crc32]                                // over version … payload
//! ```
//!
//! `len` covers everything after itself (20-byte header remainder, the
//! payload, and the 4-byte CRC), so a stream reader needs exactly two
//! reads per frame. The CRC is IEEE 802.3 CRC-32 over the region between
//! the length prefix and the checksum itself; a corrupted frame decodes to
//! [`FrameError::BadChecksum`] rather than garbage. Unknown versions and
//! kinds are rejected up front so the format can evolve behind the version
//! byte.
//!
//! The payload codec is generated: the `messages!` table below declares
//! each [`Message`] variant once, with its kind byte and its fields in
//! wire order. The table generates the enum, [`Message::kind`],
//! [`Message::payload_len`] and the payload encoder and decoder. To add a
//! kind, add one row with a new kind byte and a sample in the tests'
//! `sample_messages()`. Kind bytes are never reused; 5, 9 and 24–26 stay
//! reserved.

use crate::wire::{Decode, Reader, Wire, WireError};

/// Current codec version; bump on any incompatible layout change.
/// Version 2 added the re-key epoch to [`Message::MaskedShare`] and the
/// [`Message::Rekey`] frame for dropout recovery. [`Message::Score`] and
/// [`Message::ScoreReply`] are additive within version 2: new kind bytes,
/// no layout change to any existing frame. The secure-aggregation kinds
/// ([`Message::ShamirDist`] through [`Message::CipherSum`]) and the
/// observability kind ([`Message::Telemetry`]) follow the same additive
/// rule. Kind bytes 5, 9 and 24–26 belonged to retired messages and
/// stay reserved.
pub const WIRE_VERSION: u8 = 2;

/// Fixed bytes around every payload: 4 (length prefix) + 20 (version, kind,
/// flags, from, to, seq) + 4 (crc) — i.e. a frame occupies
/// `FRAME_OVERHEAD + payload_len` bytes on the wire.
pub const FRAME_OVERHEAD: usize = 28;

/// Flag bit: this frame is a retransmission of an earlier sequence number.
pub const FLAG_RETRANSMIT: u16 = 1;

/// A participant in the protocol (coordinator is conventionally 0).
pub type PartyId = u32;

/// IEEE 802.3 CRC-32 (reflected, init/final 0xFFFF_FFFF).
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                (c >> 1) ^ 0xEDB8_8320
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Declares [`Message`] from one table and generates its payload codec.
/// Each row is a variant with its kind byte and its fields in wire order;
/// `kind`, `payload_len`, `encode_payload` and `decode_payload` are read
/// off the rows, so a field's place on the wire is written once.
macro_rules! messages {
    (
        $(#[$meta:meta])*
        pub enum Message {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $kind:literal $({
                    $($(#[$fmeta:meta])* $field:ident: $ty:ty),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub enum Message {
            $(
                $(#[$vmeta])*
                $variant $({ $($(#[$fmeta])* $field: $ty),* })?,
            )*
        }

        impl Message {
            /// The kind byte written into the frame header.
            pub fn kind(&self) -> u8 {
                match self {
                    $(Message::$variant { .. } => $kind,)*
                }
            }

            /// Exact encoded payload size in bytes.
            pub fn payload_len(&self) -> usize {
                match self {
                    $(Message::$variant $({ $($field),* })? => 0 $($(+ $field.byte_len())*)?,)*
                }
            }

            fn encode_payload(&self, out: &mut Vec<u8>) {
                match self {
                    $(Message::$variant $({ $($field),* })? => { $($($field.encode_into(out);)*)? })*
                }
            }

            fn decode_payload(kind: u8, r: &mut Reader<'_>) -> Result<Message, WireError> {
                Ok(match kind {
                    $($kind => Message::$variant $({ $($field: Decode::decode(r)?),* })?,)*
                    _ => return Err(WireError::Malformed("unknown message kind")),
                })
            }
        }

        #[cfg(test)]
        impl Message {
            /// Every kind byte the table declares, in row order.
            const KINDS: &'static [u8] = &[$($kind),*];
        }
    };
}

messages! {
    /// Every message the protocol exchanges.
    ///
    /// The first four are control frames; the rest carry the secure
    /// summation / consensus protocol of the paper's §V, membership, scoring
    /// and telemetry.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Message {
        /// Connection opener: announces the sender's party id.
        Hello = 1 {
            /// The dialing party.
            party: PartyId,
        },
        /// Response to [`Message::Hello`].
        HelloAck = 2 {
            /// The accepting party.
            party: PartyId,
        },
        /// Liveness probe; echoed nonce correlates request and response.
        Heartbeat = 3 {
            /// Opaque echo token.
            nonce: u64,
        },
        /// Acknowledges receipt of the frame with sequence `of_seq`.
        Ack = 4 {
            /// Sequence number being acknowledged.
            of_seq: u64,
        },
        /// A learner's masked, fixed-point local model for one iteration.
        MaskedShare = 6 {
            /// ADMM iteration the share belongs to.
            iteration: u64,
            /// Re-key generation the masks were derived under. The coordinator
            /// discards shares from superseded epochs: they were masked over a
            /// survivor set that no longer matches, so their masks would not
            /// cancel in the round sum.
            epoch: u64,
            /// Originating learner.
            party: PartyId,
            /// Masked fixed-point words; masks cancel in the modular sum.
            payload: Vec<u64>,
        },
        /// Coordinator-declared dropout: the listed survivors must rebuild
        /// their pairwise masks over the survivor set and re-send their share
        /// for `iteration` tagged with the new `epoch`.
        Rekey = 11 {
            /// ADMM iteration being re-collected.
            iteration: u64,
            /// New re-key generation (strictly increasing per training run).
            epoch: u64,
            /// Parties still in the protocol, ascending original ids.
            survivors: Vec<PartyId>,
        },
        /// Consensus state broadcast from the coordinator after each reduce.
        Consensus = 7 {
            /// Iteration this state concludes.
            iteration: u64,
            /// The consensus iterate `z`.
            z: Vec<f64>,
            /// Auxiliary state (scaled dual / previous iterate as the flow
            /// requires; empty when unused).
            s: Vec<f64>,
            /// True when the coordinator has declared convergence.
            done: bool,
        },
        /// Threshold-scheme share delivery or partial-sum return (Shamir words).
        Shares = 8 {
            /// Protocol round the shares belong to.
            iteration: u64,
            /// Share words over GF(2⁶¹−1).
            values: Vec<u64>,
        },
        /// Orderly teardown.
        Shutdown = 10,
        /// Clock-offset probe (coordinator → learner): the receiver answers
        /// with [`Message::TimeReply`] echoing `nonce` and its own telemetry
        /// clock. `run_id` doubles as the run-identity gossip that stamps
        /// every party's telemetry stream. Additive in wire version 2 — an
        /// old peer rejects the unknown kind, which the prober tolerates.
        TimeProbe = 12 {
            /// Echo token correlating probe and reply.
            nonce: u64,
            /// Run identifier minted by the coordinator.
            run_id: u64,
        },
        /// Answer to [`Message::TimeProbe`].
        TimeReply = 13 {
            /// The probe's echo token.
            nonce: u64,
            /// Responder's telemetry clock (nanoseconds since its process
            /// telemetry epoch) when the probe was handled.
            t_ns: u64,
        },
        /// A restarted (or previously dropped) learner asking the coordinator
        /// to re-admit it mid-run. Sent repeatedly until a
        /// [`Message::Welcome`] arrives. Additive in wire version 2 — an old
        /// coordinator rejects the unknown kind and the joiner times out.
        Join = 14 {
            /// The returning party.
            party: PartyId,
            /// Echo token distinguishing join attempts (a restarted process
            /// picks a fresh one so stale Welcomes can be told apart).
            nonce: u64,
        },
        /// Coordinator's re-admission grant: the full state a rejoiner (or a
        /// learner greeting a resumed coordinator) needs to take part in the
        /// next collection round. Also additive in wire version 2.
        Welcome = 15 {
            /// The join nonce being answered (0 when the Welcome is pushed
            /// unsolicited by a resumed coordinator).
            nonce: u64,
            /// Next ADMM iteration the coordinator will broadcast.
            iteration: u64,
            /// Re-key generation in force; the receiver must mask over
            /// `survivors` under this epoch from now on.
            epoch: u64,
            /// Parties in the protocol after re-admission, ascending ids.
            survivors: Vec<PartyId>,
            /// Current consensus iterate `z` (the warm start).
            z: Vec<f64>,
            /// Auxiliary consensus state (matches [`Message::Consensus::s`]).
            s: Vec<f64>,
        },
        /// Batched inference request (client → `ppml-serve`): `rows × features`
        /// samples flattened row-major into `xs`. Additive in wire version 2 —
        /// a training-only peer rejects the unknown kind, which a scoring
        /// client must treat as "this endpoint does not serve".
        Score = 16 {
            /// Client-chosen token echoed verbatim in the reply.
            request_id: u64,
            /// Feature count per sample; `xs.len()` must be a multiple of it.
            features: u32,
            /// Row-major flattened samples.
            xs: Vec<f64>,
        },
        /// Answer to [`Message::Score`]. Carries only decision margins — never
        /// model coordinates — per the serving privacy rule. Additive in wire
        /// version 2.
        ScoreReply = 17 {
            /// The request's echo token.
            request_id: u64,
            /// True when every row was scored; false when the batch was
            /// rejected (dimension mismatch, empty batch), in which case
            /// `margins` is empty.
            ok: bool,
            /// One decision margin per request row (sign = predicted label).
            margins: Vec<f64>,
        },
        /// Shamir share distribution (learner → coordinator relay): the
        /// sender's pad-blinded share blocks for every *other* learner,
        /// ascending destination id, each block `share_len` field words over
        /// `GF(2⁶¹−1)`. The coordinator forwards blocks without being able to
        /// unblind them. Additive in wire version 2.
        ShamirDist = 18 {
            /// Protocol round the shares belong to.
            iteration: u64,
            /// Originating party.
            party: PartyId,
            /// Concatenated blinded destination blocks.
            flat: Vec<u64>,
        },
        /// Shamir share delivery (coordinator → survivor): the blinded blocks
        /// destined for the receiver, one per contributor in `contributors`
        /// order. The receiver unblinds each with the sender-pair pad and
        /// field-sums them into its summed share. Additive in wire version 2.
        ShamirCollect = 19 {
            /// Protocol round the shares belong to.
            iteration: u64,
            /// Parties whose blocks are included, ascending ids.
            contributors: Vec<PartyId>,
            /// Concatenated blinded blocks, `contributors` order.
            flat: Vec<u64>,
        },
        /// Paillier encrypted contribution (learner → coordinator): one
        /// fixed-width big-endian ciphertext per model coordinate under the
        /// run's public key. Additive in wire version 2.
        CipherShare = 20 {
            /// Protocol round the ciphertexts belong to.
            iteration: u64,
            /// Originating party.
            party: PartyId,
            /// Concatenated fixed-width ciphertexts.
            bytes: Vec<u8>,
        },
        /// Homomorphically folded aggregate (coordinator → key authority):
        /// the coordinate-wise ciphertext products, same fixed-width layout
        /// as [`Message::CipherShare`]. Additive in wire version 2.
        CipherAgg = 21 {
            /// Protocol round the aggregate concludes.
            iteration: u64,
            /// Number of contributions folded in (the divisor for averaging).
            contributors: u32,
            /// Concatenated fixed-width aggregate ciphertexts.
            bytes: Vec<u8>,
        },
        /// Decrypted aggregate sums (key authority → coordinator): the
        /// coordinate-wise plaintext *sums* — exactly what the coordinator
        /// learns under every backend, never an individual contribution.
        /// Additive in wire version 2.
        CipherSum = 22 {
            /// Protocol round the sums conclude.
            iteration: u64,
            /// Decoded coordinate sums.
            values: Vec<f64>,
        },
        /// In-band observability deltas (learner → coordinator), piggy-backed
        /// at a round boundary. Carries only privacy-typed scalars — sizes,
        /// timings, counts, epochs, the same rule `EventKind` enforces — and
        /// never shares, masks or model coordinates. The coordinator folds
        /// the deltas into its per-learner cluster registry; the frame is
        /// pure observability: it is sent unreliably, never charged to the
        /// run's byte accounting, and losing it costs nothing but a gap in a
        /// gauge. Additive in wire version 2.
        Telemetry = 23 {
            /// Protocol round the deltas cover.
            iteration: u64,
            /// Causal correlation id (`mix64(run_id ^ iteration)`): streams
            /// of one run stamp the same span per round, so traces merge by
            /// id instead of clock rebasing.
            span: u64,
            /// Originating party.
            party: PartyId,
            /// Sender's mask epoch at the time of the report.
            epoch: u64,
            /// Frames the sender put on the wire since its last report.
            frames_sent: u64,
            /// Frames the sender received since its last report.
            frames_recv: u64,
            /// Encoded bytes sent since the last report.
            bytes_sent: u64,
            /// Encoded bytes received since the last report.
            bytes_recv: u64,
            /// Send retries (reconnects + retransmits) since the last report.
            retransmits: u64,
            /// The sender's local wall clock for the round, nanoseconds.
            elapsed_ns: u64,
        },
    }
}

/// Frame decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The version byte is not [`WIRE_VERSION`].
    BadVersion(u8),
    /// The CRC trailer did not match the frame contents.
    BadChecksum {
        /// CRC computed over the received bytes.
        computed: u32,
        /// CRC carried in the trailer.
        stored: u32,
    },
    /// Length prefix disagrees with the bytes available.
    BadLength {
        /// Length the prefix declared.
        declared: usize,
        /// Bytes actually present after the prefix.
        available: usize,
    },
    /// The payload failed structural decoding.
    BadPayload(WireError),
    /// Payload bytes were left over after decoding the message.
    TrailingBytes(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            FrameError::BadChecksum { computed, stored } => {
                write!(
                    f,
                    "checksum mismatch: computed {computed:#010x}, stored {stored:#010x}"
                )
            }
            FrameError::BadLength {
                declared,
                available,
            } => write!(f, "length prefix {declared} but {available} bytes present"),
            FrameError::BadPayload(e) => write!(f, "payload: {e}"),
            FrameError::TrailingBytes(n) => write!(f, "{n} trailing payload bytes"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::BadPayload(e)
    }
}

/// One routed, checksummed protocol message.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Header flag bits ([`FLAG_RETRANSMIT`] …).
    pub flags: u16,
    /// Sending party.
    pub from: PartyId,
    /// Destination party.
    pub to: PartyId,
    /// Per-(sender, destination) sequence number. Data frames count up
    /// from 1; control frames that need no deduplication (acks, the TCP
    /// hello handshake) travel at 0.
    pub seq: u64,
    /// The message body.
    pub msg: Message,
}

impl Frame {
    /// Total on-wire size of a frame carrying `msg`.
    pub fn encoded_len_of(msg: &Message) -> usize {
        FRAME_OVERHEAD + msg.payload_len()
    }

    /// Total on-wire size of this frame.
    fn encoded_len(&self) -> usize {
        Self::encoded_len_of(&self.msg)
    }

    /// Encodes the complete frame (length prefix through CRC trailer).
    pub fn encode(&self) -> Vec<u8> {
        let payload_len = self.msg.payload_len();
        let body_len = 20 + payload_len + 4; // header remainder + payload + crc
        let mut out = Vec::with_capacity(4 + body_len);
        out.extend_from_slice(&(body_len as u32).to_le_bytes());
        out.push(WIRE_VERSION);
        out.push(self.msg.kind());
        out.extend_from_slice(&self.flags.to_le_bytes());
        out.extend_from_slice(&self.from.to_le_bytes());
        out.extend_from_slice(&self.to.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        self.msg.encode_payload(&mut out);
        debug_assert_eq!(out.len(), 4 + 20 + payload_len);
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(out.len(), self.encoded_len());
        out
    }

    /// Decodes a complete frame from `buf` (which must contain exactly one
    /// frame, length prefix included).
    pub fn decode(buf: &[u8]) -> Result<Frame, FrameError> {
        let mut r = Reader::new(buf);
        let declared = r.u32().map_err(FrameError::BadPayload)? as usize;
        if declared != buf.len() - 4 {
            return Err(FrameError::BadLength {
                declared,
                available: buf.len() - 4,
            });
        }
        if declared < 24 {
            return Err(FrameError::BadLength {
                declared,
                available: buf.len() - 4,
            });
        }
        let crc_region = &buf[4..buf.len() - 4];
        let stored = u32::from_le_bytes(buf[buf.len() - 4..].try_into().expect("4 bytes"));
        let computed = crc32(crc_region);
        if computed != stored {
            return Err(FrameError::BadChecksum { computed, stored });
        }
        let version = r.u8()?;
        if version != WIRE_VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let kind = r.u8()?;
        let flags = r.u16()?;
        let from = r.u32()?;
        let to = r.u32()?;
        let seq = r.u64()?;
        let payload_len = declared - 24;
        let payload = &crc_region[20..20 + payload_len];
        let mut pr = Reader::new(payload);
        let msg = Message::decode_payload(kind, &mut pr)?;
        if pr.remaining() != 0 {
            return Err(FrameError::TrailingBytes(pr.remaining()));
        }
        Ok(Frame {
            flags,
            from,
            to,
            seq,
            msg,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppml_data::check::run_cases;

    fn sample_messages() -> Vec<Message> {
        vec![
            Message::Hello { party: 3 },
            Message::HelloAck { party: 0 },
            Message::Heartbeat { nonce: 0xDEAD_BEEF },
            Message::Ack { of_seq: 42 },
            Message::MaskedShare {
                iteration: 9,
                epoch: 1,
                party: 2,
                payload: vec![5, 6, 7, 8],
            },
            Message::Rekey {
                iteration: 9,
                epoch: 2,
                survivors: vec![0, 2, 5],
            },
            Message::Consensus {
                iteration: 11,
                z: vec![0.5, -1.25],
                s: vec![3.0],
                done: true,
            },
            Message::Shares {
                iteration: 1,
                values: vec![99, 100],
            },
            Message::Shutdown,
            Message::TimeProbe {
                nonce: 0xFACE_FEED,
                run_id: u64::MAX,
            },
            Message::TimeReply {
                nonce: 0xFACE_FEED,
                t_ns: 123_456_789_000,
            },
            Message::Join {
                party: 4,
                nonce: 0xBAD_C0DE,
            },
            Message::Welcome {
                nonce: 0xBAD_C0DE,
                iteration: 17,
                epoch: 3,
                survivors: vec![0, 1, 4],
                z: vec![0.25, -8.0],
                s: vec![1.5, 0.0],
            },
            Message::Score {
                request_id: 0xABCD,
                features: 3,
                xs: vec![1.0, -2.5, 0.0, 4.0, 5.0, -6.0],
            },
            Message::ScoreReply {
                request_id: 0xABCD,
                ok: true,
                margins: vec![0.75, -1.25],
            },
            Message::ShamirDist {
                iteration: 4,
                party: 1,
                flat: vec![17, 0, u64::MAX >> 3],
            },
            Message::ShamirCollect {
                iteration: 4,
                contributors: vec![0, 2, 3],
                flat: vec![5, 6, 7, 8, 9, 10],
            },
            Message::CipherShare {
                iteration: 6,
                party: 3,
                bytes: vec![0xAB; 33],
            },
            Message::CipherAgg {
                iteration: 6,
                contributors: 4,
                bytes: vec![0xCD; 33],
            },
            Message::CipherSum {
                iteration: 6,
                values: vec![-12.5, 0.0, 4.25],
            },
            Message::Telemetry {
                iteration: 8,
                span: 0x5EED_CAFE,
                party: 2,
                epoch: 1,
                frames_sent: 40,
                frames_recv: 39,
                bytes_sent: 16_384,
                bytes_recv: 9_000,
                retransmits: 1,
                elapsed_ns: 870_000,
            },
        ]
    }

    #[test]
    fn every_message_round_trips() {
        for (i, msg) in sample_messages().into_iter().enumerate() {
            let frame = Frame {
                flags: FLAG_RETRANSMIT,
                from: 1,
                to: 2,
                seq: i as u64 + 1,
                msg,
            };
            let enc = frame.encode();
            assert_eq!(enc.len(), frame.encoded_len(), "length invariant");
            let dec = Frame::decode(&enc).expect("round trip");
            assert_eq!(dec, frame);
        }
    }

    #[test]
    fn every_sample_frame_encodes_to_its_pinned_bytes() {
        // Round trips cannot see a field order that changes the same way
        // in the encoder and the decoder; these pins can. Each entry is
        // the encoded length and the CRC-32 of everything before the
        // trailer (length prefix, header, payload) of the matching
        // `sample_messages()` frame. A new kind appends its own pin.
        const PINNED: [(usize, u32); 21] = [
            (32, 0xaee0_051a),
            (32, 0xbd2e_4139),
            (36, 0xaf84_9e70),
            (36, 0x51e3_9e25),
            (88, 0xd77a_7f83),
            (64, 0x11a2_f0d2),
            (77, 0x92e3_5558),
            (60, 0xf6b1_57e2),
            (28, 0x0b32_469f),
            (44, 0x6bc2_dc33),
            (44, 0xfe05_6f45),
            (40, 0x1bb9_0dca),
            (120, 0x48e4_8992),
            (96, 0x4537_1ce8),
            (61, 0x1d77_039b),
            (72, 0x9069_14d7),
            (112, 0x099c_3299),
            (81, 0x9add_3a0f),
            (81, 0xf374_a33b),
            (68, 0x45c7_6b6e),
            (104, 0x8612_0393),
        ];
        let samples = sample_messages();
        assert_eq!(samples.len(), PINNED.len(), "one pin per sample");
        for (i, (msg, &(len, crc))) in samples.into_iter().zip(&PINNED).enumerate() {
            let enc = Frame {
                flags: FLAG_RETRANSMIT,
                from: 1,
                to: 2,
                seq: i as u64 + 1,
                msg,
            }
            .encode();
            assert_eq!(
                (enc.len(), crc32(&enc[..enc.len() - 4])),
                (len, crc),
                "sample {i} ({:?}) moved on the wire",
                Frame::decode(&enc).map(|f| f.msg)
            );
        }
    }

    #[test]
    fn corruption_is_detected() {
        let frame = Frame {
            flags: 0,
            from: 0,
            to: 1,
            seq: 1,
            msg: Message::MaskedShare {
                iteration: 3,
                epoch: 0,
                party: 0,
                payload: vec![10, 20, 30],
            },
        };
        let good = frame.encode();
        for i in 4..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(
                Frame::decode(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn wrong_version_rejected() {
        let frame = Frame {
            flags: 0,
            from: 0,
            to: 1,
            seq: 1,
            msg: Message::Shutdown,
        };
        let mut enc = frame.encode();
        enc[4] = WIRE_VERSION + 1;
        // Recompute the CRC so only the version is wrong.
        let crc = crc32(&enc[4..enc.len() - 4]);
        let n = enc.len();
        enc[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            Frame::decode(&enc),
            Err(FrameError::BadVersion(WIRE_VERSION + 1))
        );
    }

    #[test]
    fn truncation_rejected() {
        let enc = Frame {
            flags: 0,
            from: 0,
            to: 1,
            seq: 5,
            msg: Message::Heartbeat { nonce: 1 },
        }
        .encode();
        assert!(Frame::decode(&enc[..enc.len() - 3]).is_err());
        assert!(Frame::decode(&enc[..10]).is_err());
    }

    #[test]
    fn overhead_constant_is_exact() {
        let enc = Frame {
            flags: 0,
            from: 0,
            to: 0,
            seq: 1,
            msg: Message::Shutdown,
        }
        .encode();
        assert_eq!(enc.len(), FRAME_OVERHEAD);
        let msg = Message::Shares {
            iteration: 0,
            values: vec![0; 10],
        };
        assert_eq!(Frame::encoded_len_of(&msg), FRAME_OVERHEAD + 8 + 8 + 8 * 10);
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for IEEE CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    /// Re-frames `msg` with its payload replaced by `payload`, CRC fixed
    /// up so only the payload structure is wrong.
    fn reframe_with_payload(msg: &Message, payload: &[u8]) -> Vec<u8> {
        let body_len = 20 + payload.len() + 4;
        let mut out = Vec::with_capacity(4 + body_len);
        out.extend_from_slice(&(body_len as u32).to_le_bytes());
        out.push(WIRE_VERSION);
        out.push(msg.kind());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&1u64.to_le_bytes());
        out.extend_from_slice(payload);
        let crc = crc32(&out[4..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn samples_cover_every_kind() {
        // The round-trip, pinned-bytes and hostile-payload tests iterate
        // over `sample_messages()`; a table row without a sample would
        // skip all three.
        let sampled: Vec<u8> = sample_messages().iter().map(Message::kind).collect();
        for kind in Message::KINDS {
            assert!(sampled.contains(kind), "no sample of kind {kind}");
        }
    }

    /// Every strict prefix of `msg`'s payload must fail structurally
    /// (BadPayload), never decode to garbage, and junk after a complete
    /// payload must be caught by the trailing-bytes check.
    fn assert_truncated_and_padded_rejected(msg: &Message) {
        let mut full = Vec::new();
        msg.encode_payload(&mut full);
        for cut in 0..full.len() {
            let framed = reframe_with_payload(msg, &full[..cut]);
            match Frame::decode(&framed) {
                Err(FrameError::BadPayload(_)) => {}
                other => panic!("truncation at {cut} of {msg:?} gave {other:?}"),
            }
        }
        full.extend_from_slice(&[0xEE; 2]);
        let framed = reframe_with_payload(msg, &full);
        assert_eq!(
            Frame::decode(&framed),
            Err(FrameError::TrailingBytes(2)),
            "{msg:?}"
        );
    }

    #[test]
    fn every_kind_rejects_truncated_and_padded_payloads() {
        for msg in sample_messages() {
            assert_truncated_and_padded_rejected(&msg);
        }
    }

    #[test]
    fn join_and_welcome_truncated_payloads_rejected() {
        // Edge shapes the samples do not hold: a Welcome with an empty
        // vector, and a zero nonce.
        for msg in [
            Message::Join { party: 2, nonce: 0 },
            Message::Welcome {
                nonce: 1,
                iteration: 5,
                epoch: 2,
                survivors: vec![0, 2],
                z: vec![1.0],
                s: vec![],
            },
        ] {
            assert_truncated_and_padded_rejected(&msg);
        }
    }

    #[test]
    fn score_truncated_payloads_rejected() {
        // A scoring request with no rows and a refused reply with no
        // margins: empty vectors at the tail of the payload.
        for msg in [
            Message::Score {
                request_id: 7,
                features: 2,
                xs: vec![],
            },
            Message::ScoreReply {
                request_id: 7,
                ok: false,
                margins: vec![],
            },
        ] {
            assert_truncated_and_padded_rejected(&msg);
        }
    }

    #[test]
    fn secagg_truncated_payloads_rejected() {
        // Secure-aggregation payloads with empty share vectors and
        // ciphertexts, which the samples do not hold.
        for msg in [
            Message::ShamirDist {
                iteration: 2,
                party: 1,
                flat: vec![],
            },
            Message::ShamirCollect {
                iteration: 2,
                contributors: vec![],
                flat: vec![],
            },
            Message::CipherShare {
                iteration: 2,
                party: 1,
                bytes: vec![],
            },
            Message::CipherAgg {
                iteration: 2,
                contributors: 0,
                bytes: vec![],
            },
            Message::CipherSum {
                iteration: 2,
                values: vec![],
            },
        ] {
            assert_truncated_and_padded_rejected(&msg);
        }
    }

    #[test]
    fn welcome_lying_vector_length_rejected() {
        // A Welcome whose vector length prefix promises more elements
        // than the payload holds must fail structurally rather than
        // over-read. Claim 1000 survivors but supply none.
        let mut lying = Vec::new();
        0u64.encode_into(&mut lying); // nonce
        5u64.encode_into(&mut lying); // iteration
        2u64.encode_into(&mut lying); // epoch
        lying.extend_from_slice(&1000u32.to_le_bytes()); // survivors length prefix
        let framed = reframe_with_payload(
            &Message::Welcome {
                nonce: 0,
                iteration: 0,
                epoch: 0,
                survivors: vec![],
                z: vec![],
                s: vec![],
            },
            &lying,
        );
        assert!(matches!(
            Frame::decode(&framed),
            Err(FrameError::BadPayload(_))
        ));
    }

    #[test]
    fn decoder_survives_hostile_payloads() {
        // Mutated payloads behind a valid length and CRC reach the
        // payload decoder itself, sometimes under another kind byte. It
        // must return an error, or a frame that re-encodes to exactly the
        // input (the codec is canonical) — never panic.
        fn canonical_or_rejected(framed: &[u8]) {
            if let Ok(frame) = Frame::decode(framed) {
                assert_eq!(frame.encode(), framed, "{frame:?} is not canonical");
            }
        }
        let samples = sample_messages();
        let payloads: Vec<Vec<u8>> = samples
            .iter()
            .map(|msg| {
                let mut p = Vec::new();
                msg.encode_payload(&mut p);
                p
            })
            .collect();
        // Every byte of every payload, swapped for each edge value: a
        // one-byte field (a bool tag) is hit as surely as a length prefix.
        for (msg, payload) in samples.iter().zip(&payloads) {
            for at in 0..payload.len() {
                for v in [0x00, 0x01, 0x02, 0x7F, 0x80, 0xFF] {
                    let mut p = payload.clone();
                    p[at] = v;
                    canonical_or_rejected(&reframe_with_payload(msg, &p));
                }
            }
        }
        run_cases("frame_hostile_payloads", 2000, |g, _| {
            let i = g.usize_in(0, samples.len());
            let mut payload = payloads[i].clone();
            match g.usize_in(0, 3) {
                0 if !payload.is_empty() => {
                    for _ in 0..g.usize_in(1, 5) {
                        let bit = g.usize_in(0, 8 * payload.len());
                        payload[bit / 8] ^= 1 << (bit % 8);
                    }
                }
                1 => {
                    let at = g.usize_in(0, payload.len() + 1);
                    let junk: Vec<u8> = (0..g.usize_in(1, 17))
                        .map(|_| g.u64_in(0, 256) as u8)
                        .collect();
                    let end = (at + g.usize_in(0, junk.len() + 1)).min(payload.len());
                    payload.splice(at..end, junk);
                }
                _ => payload.truncate(g.usize_in(0, payload.len() + 1)),
            }
            let mut framed = reframe_with_payload(&samples[i], &payload);
            if g.usize_in(0, 4) == 0 {
                framed[5] = g.u64_in(0, 32) as u8;
                let n = framed.len();
                let crc = crc32(&framed[4..n - 4]);
                framed[n - 4..].copy_from_slice(&crc.to_le_bytes());
            }
            canonical_or_rejected(&framed);
        });
    }

    #[test]
    fn unknown_kind_above_telemetry_is_rejected_not_misparsed() {
        // Forward compatibility: a frame from a future build using kind 27
        // must come back as an unknown-kind error, exactly like the
        // pre-secagg builds treat kinds 18..=23 — and so must the
        // reserved gaps the retired kinds 5, 9 and 24..=26 left behind.
        let msg = Message::Join { party: 1, nonce: 7 };
        for kind in [5, 9, 24, 25, 26, 27] {
            let mut enc = reframe_with_payload(&msg, &{
                let mut p = Vec::new();
                msg.encode_payload(&mut p);
                p
            });
            enc[5] = kind; // kind byte
            let crc = crc32(&enc[4..enc.len() - 4]);
            let n = enc.len();
            enc[n - 4..].copy_from_slice(&crc.to_le_bytes());
            assert!(
                matches!(
                    Frame::decode(&enc),
                    Err(FrameError::BadPayload(WireError::Malformed(
                        "unknown message kind"
                    )))
                ),
                "kind {kind}"
            );
        }
    }
}
