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

use crate::wire::{Reader, Wire, WireError};

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

/// Every message the protocol exchanges.
///
/// The first four are control frames; the rest carry the secure
/// summation / consensus protocol of the paper's §V, membership, scoring
/// and telemetry.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Connection opener: announces the sender's party id.
    Hello {
        /// The dialing party.
        party: PartyId,
    },
    /// Response to [`Message::Hello`].
    HelloAck {
        /// The accepting party.
        party: PartyId,
    },
    /// Liveness probe; echoed nonce correlates request and response.
    Heartbeat {
        /// Opaque echo token.
        nonce: u64,
    },
    /// Acknowledges receipt of the frame with sequence `of_seq`.
    Ack {
        /// Sequence number being acknowledged.
        of_seq: u64,
    },
    /// A learner's masked, fixed-point local model for one iteration.
    MaskedShare {
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
    Rekey {
        /// ADMM iteration being re-collected.
        iteration: u64,
        /// New re-key generation (strictly increasing per training run).
        epoch: u64,
        /// Parties still in the protocol, ascending original ids.
        survivors: Vec<PartyId>,
    },
    /// Consensus state broadcast from the coordinator after each reduce.
    Consensus {
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
    Shares {
        /// Protocol round the shares belong to.
        iteration: u64,
        /// Share words over GF(2⁶¹−1).
        values: Vec<u64>,
    },
    /// Orderly teardown.
    Shutdown,
    /// Clock-offset probe (coordinator → learner): the receiver answers
    /// with [`Message::TimeReply`] echoing `nonce` and its own telemetry
    /// clock. `run_id` doubles as the run-identity gossip that stamps
    /// every party's telemetry stream. Additive in wire version 2 — an
    /// old peer rejects the unknown kind, which the prober tolerates.
    TimeProbe {
        /// Echo token correlating probe and reply.
        nonce: u64,
        /// Run identifier minted by the coordinator.
        run_id: u64,
    },
    /// Answer to [`Message::TimeProbe`].
    TimeReply {
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
    Join {
        /// The returning party.
        party: PartyId,
        /// Echo token distinguishing join attempts (a restarted process
        /// picks a fresh one so stale Welcomes can be told apart).
        nonce: u64,
    },
    /// Coordinator's re-admission grant: the full state a rejoiner (or a
    /// learner greeting a resumed coordinator) needs to take part in the
    /// next collection round. Also additive in wire version 2.
    Welcome {
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
    Score {
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
    ScoreReply {
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
    ShamirDist {
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
    ShamirCollect {
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
    CipherShare {
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
    CipherAgg {
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
    CipherSum {
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
    Telemetry {
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

impl Message {
    /// The kind byte written into the frame header.
    pub fn kind(&self) -> u8 {
        match self {
            Message::Hello { .. } => 1,
            Message::HelloAck { .. } => 2,
            Message::Heartbeat { .. } => 3,
            Message::Ack { .. } => 4,
            Message::MaskedShare { .. } => 6,
            Message::Consensus { .. } => 7,
            Message::Shares { .. } => 8,
            Message::Shutdown => 10,
            Message::Rekey { .. } => 11,
            Message::TimeProbe { .. } => 12,
            Message::TimeReply { .. } => 13,
            Message::Join { .. } => 14,
            Message::Welcome { .. } => 15,
            Message::Score { .. } => 16,
            Message::ScoreReply { .. } => 17,
            Message::ShamirDist { .. } => 18,
            Message::ShamirCollect { .. } => 19,
            Message::CipherShare { .. } => 20,
            Message::CipherAgg { .. } => 21,
            Message::CipherSum { .. } => 22,
            Message::Telemetry { .. } => 23,
        }
    }

    /// Exact encoded payload size in bytes.
    pub fn payload_len(&self) -> usize {
        match self {
            Message::Hello { party } | Message::HelloAck { party } => party.byte_len(),
            Message::Heartbeat { nonce } => nonce.byte_len(),
            Message::Ack { of_seq } => of_seq.byte_len(),
            Message::MaskedShare {
                iteration,
                epoch,
                party,
                payload,
            } => iteration.byte_len() + epoch.byte_len() + party.byte_len() + payload.byte_len(),
            Message::Rekey {
                iteration,
                epoch,
                survivors,
            } => iteration.byte_len() + epoch.byte_len() + survivors.byte_len(),
            Message::Consensus {
                iteration,
                z,
                s,
                done,
            } => iteration.byte_len() + z.byte_len() + s.byte_len() + done.byte_len(),
            Message::Shares { iteration, values } => iteration.byte_len() + values.byte_len(),
            Message::Shutdown => 0,
            Message::TimeProbe { nonce, run_id } => nonce.byte_len() + run_id.byte_len(),
            Message::TimeReply { nonce, t_ns } => nonce.byte_len() + t_ns.byte_len(),
            Message::Join { party, nonce } => party.byte_len() + nonce.byte_len(),
            Message::Welcome {
                nonce,
                iteration,
                epoch,
                survivors,
                z,
                s,
            } => {
                nonce.byte_len()
                    + iteration.byte_len()
                    + epoch.byte_len()
                    + survivors.byte_len()
                    + z.byte_len()
                    + s.byte_len()
            }
            Message::Score {
                request_id,
                features,
                xs,
            } => request_id.byte_len() + features.byte_len() + xs.byte_len(),
            Message::ScoreReply {
                request_id,
                ok,
                margins,
            } => request_id.byte_len() + ok.byte_len() + margins.byte_len(),
            Message::ShamirDist {
                iteration,
                party,
                flat,
            } => iteration.byte_len() + party.byte_len() + flat.byte_len(),
            Message::ShamirCollect {
                iteration,
                contributors,
                flat,
            } => iteration.byte_len() + contributors.byte_len() + flat.byte_len(),
            Message::CipherShare {
                iteration,
                party,
                bytes,
            } => iteration.byte_len() + party.byte_len() + bytes.byte_len(),
            Message::CipherAgg {
                iteration,
                contributors,
                bytes,
            } => iteration.byte_len() + contributors.byte_len() + bytes.byte_len(),
            Message::CipherSum { iteration, values } => iteration.byte_len() + values.byte_len(),
            Message::Telemetry {
                iteration,
                span,
                party,
                epoch,
                frames_sent,
                frames_recv,
                bytes_sent,
                bytes_recv,
                retransmits,
                elapsed_ns,
            } => {
                iteration.byte_len()
                    + span.byte_len()
                    + party.byte_len()
                    + epoch.byte_len()
                    + frames_sent.byte_len()
                    + frames_recv.byte_len()
                    + bytes_sent.byte_len()
                    + bytes_recv.byte_len()
                    + retransmits.byte_len()
                    + elapsed_ns.byte_len()
            }
        }
    }

    fn encode_payload(&self, out: &mut Vec<u8>) {
        match self {
            Message::Hello { party } | Message::HelloAck { party } => party.encode_into(out),
            Message::Heartbeat { nonce } => nonce.encode_into(out),
            Message::Ack { of_seq } => of_seq.encode_into(out),
            Message::MaskedShare {
                iteration,
                epoch,
                party,
                payload,
            } => {
                iteration.encode_into(out);
                epoch.encode_into(out);
                party.encode_into(out);
                payload.encode_into(out);
            }
            Message::Rekey {
                iteration,
                epoch,
                survivors,
            } => {
                iteration.encode_into(out);
                epoch.encode_into(out);
                survivors.encode_into(out);
            }
            Message::Consensus {
                iteration,
                z,
                s,
                done,
            } => {
                iteration.encode_into(out);
                z.encode_into(out);
                s.encode_into(out);
                done.encode_into(out);
            }
            Message::Shares { iteration, values } => {
                iteration.encode_into(out);
                values.encode_into(out);
            }
            Message::Shutdown => {}
            Message::TimeProbe { nonce, run_id } => {
                nonce.encode_into(out);
                run_id.encode_into(out);
            }
            Message::TimeReply { nonce, t_ns } => {
                nonce.encode_into(out);
                t_ns.encode_into(out);
            }
            Message::Join { party, nonce } => {
                party.encode_into(out);
                nonce.encode_into(out);
            }
            Message::Welcome {
                nonce,
                iteration,
                epoch,
                survivors,
                z,
                s,
            } => {
                nonce.encode_into(out);
                iteration.encode_into(out);
                epoch.encode_into(out);
                survivors.encode_into(out);
                z.encode_into(out);
                s.encode_into(out);
            }
            Message::Score {
                request_id,
                features,
                xs,
            } => {
                request_id.encode_into(out);
                features.encode_into(out);
                xs.encode_into(out);
            }
            Message::ScoreReply {
                request_id,
                ok,
                margins,
            } => {
                request_id.encode_into(out);
                ok.encode_into(out);
                margins.encode_into(out);
            }
            Message::ShamirDist {
                iteration,
                party,
                flat,
            } => {
                iteration.encode_into(out);
                party.encode_into(out);
                flat.encode_into(out);
            }
            Message::ShamirCollect {
                iteration,
                contributors,
                flat,
            } => {
                iteration.encode_into(out);
                contributors.encode_into(out);
                flat.encode_into(out);
            }
            Message::CipherShare {
                iteration,
                party,
                bytes,
            } => {
                iteration.encode_into(out);
                party.encode_into(out);
                bytes.encode_into(out);
            }
            Message::CipherAgg {
                iteration,
                contributors,
                bytes,
            } => {
                iteration.encode_into(out);
                contributors.encode_into(out);
                bytes.encode_into(out);
            }
            Message::CipherSum { iteration, values } => {
                iteration.encode_into(out);
                values.encode_into(out);
            }
            Message::Telemetry {
                iteration,
                span,
                party,
                epoch,
                frames_sent,
                frames_recv,
                bytes_sent,
                bytes_recv,
                retransmits,
                elapsed_ns,
            } => {
                iteration.encode_into(out);
                span.encode_into(out);
                party.encode_into(out);
                epoch.encode_into(out);
                frames_sent.encode_into(out);
                frames_recv.encode_into(out);
                bytes_sent.encode_into(out);
                bytes_recv.encode_into(out);
                retransmits.encode_into(out);
                elapsed_ns.encode_into(out);
            }
        }
    }

    fn decode_payload(kind: u8, r: &mut Reader<'_>) -> Result<Message, WireError> {
        Ok(match kind {
            1 => Message::Hello { party: r.u32()? },
            2 => Message::HelloAck { party: r.u32()? },
            3 => Message::Heartbeat { nonce: r.u64()? },
            4 => Message::Ack { of_seq: r.u64()? },
            6 => Message::MaskedShare {
                iteration: r.u64()?,
                epoch: r.u64()?,
                party: r.u32()?,
                payload: r.vec_u64()?,
            },
            7 => Message::Consensus {
                iteration: r.u64()?,
                z: r.vec_f64()?,
                s: r.vec_f64()?,
                done: r.bool()?,
            },
            8 => Message::Shares {
                iteration: r.u64()?,
                values: r.vec_u64()?,
            },
            10 => Message::Shutdown,
            11 => Message::Rekey {
                iteration: r.u64()?,
                epoch: r.u64()?,
                survivors: r.vec_u32()?,
            },
            12 => Message::TimeProbe {
                nonce: r.u64()?,
                run_id: r.u64()?,
            },
            13 => Message::TimeReply {
                nonce: r.u64()?,
                t_ns: r.u64()?,
            },
            14 => Message::Join {
                party: r.u32()?,
                nonce: r.u64()?,
            },
            15 => Message::Welcome {
                nonce: r.u64()?,
                iteration: r.u64()?,
                epoch: r.u64()?,
                survivors: r.vec_u32()?,
                z: r.vec_f64()?,
                s: r.vec_f64()?,
            },
            16 => Message::Score {
                request_id: r.u64()?,
                features: r.u32()?,
                xs: r.vec_f64()?,
            },
            17 => Message::ScoreReply {
                request_id: r.u64()?,
                ok: r.bool()?,
                margins: r.vec_f64()?,
            },
            18 => Message::ShamirDist {
                iteration: r.u64()?,
                party: r.u32()?,
                flat: r.vec_u64()?,
            },
            19 => Message::ShamirCollect {
                iteration: r.u64()?,
                contributors: r.vec_u32()?,
                flat: r.vec_u64()?,
            },
            20 => Message::CipherShare {
                iteration: r.u64()?,
                party: r.u32()?,
                bytes: r.byte_vec()?,
            },
            21 => Message::CipherAgg {
                iteration: r.u64()?,
                contributors: r.u32()?,
                bytes: r.byte_vec()?,
            },
            22 => Message::CipherSum {
                iteration: r.u64()?,
                values: r.vec_f64()?,
            },
            23 => Message::Telemetry {
                iteration: r.u64()?,
                span: r.u64()?,
                party: r.u32()?,
                epoch: r.u64()?,
                frames_sent: r.u64()?,
                frames_recv: r.u64()?,
                bytes_sent: r.u64()?,
                bytes_recv: r.u64()?,
                retransmits: r.u64()?,
                elapsed_ns: r.u64()?,
            },
            _ => return Err(WireError::Malformed("unknown message kind")),
        })
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
    pub fn encoded_len(&self) -> usize {
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
    fn join_and_welcome_truncated_payloads_rejected() {
        // Every strict prefix of a valid Join / Welcome payload must fail
        // structurally (BadPayload), never decode to garbage.
        for msg in [
            Message::Join {
                party: 2,
                nonce: 99,
            },
            Message::Welcome {
                nonce: 1,
                iteration: 5,
                epoch: 2,
                survivors: vec![0, 2],
                z: vec![1.0],
                s: vec![],
            },
        ] {
            let mut full = Vec::new();
            msg.encode_payload(&mut full);
            for cut in 0..full.len() {
                let framed = reframe_with_payload(&msg, &full[..cut]);
                match Frame::decode(&framed) {
                    Err(FrameError::BadPayload(_)) => {}
                    other => panic!("truncation at {cut} of {msg:?} gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn join_and_welcome_oversized_payloads_rejected() {
        // Trailing junk after a structurally complete payload must be
        // caught by the trailing-bytes check, and a Welcome whose vector
        // length prefix promises more elements than the payload holds must
        // fail structurally rather than over-read.
        for msg in [
            Message::Join {
                party: 2,
                nonce: 99,
            },
            Message::Welcome {
                nonce: 0,
                iteration: 5,
                epoch: 2,
                survivors: vec![0, 2],
                z: vec![1.0],
                s: vec![2.0],
            },
        ] {
            let mut payload = Vec::new();
            msg.encode_payload(&mut payload);
            payload.extend_from_slice(&[0xAA; 3]);
            let framed = reframe_with_payload(&msg, &payload);
            assert_eq!(Frame::decode(&framed), Err(FrameError::TrailingBytes(3)));
        }
        // Claim 1000 survivors but supply none.
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
    fn score_truncated_payloads_rejected() {
        // Every strict prefix of a valid Score / ScoreReply payload must
        // fail structurally (BadPayload), never decode to garbage.
        for msg in [
            Message::Score {
                request_id: 7,
                features: 2,
                xs: vec![1.0, 2.0, 3.0, 4.0],
            },
            Message::ScoreReply {
                request_id: 7,
                ok: true,
                margins: vec![-0.5, 0.5],
            },
        ] {
            let mut full = Vec::new();
            msg.encode_payload(&mut full);
            for cut in 0..full.len() {
                let framed = reframe_with_payload(&msg, &full[..cut]);
                match Frame::decode(&framed) {
                    Err(FrameError::BadPayload(_)) => {}
                    other => panic!("truncation at {cut} of {msg:?} gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn secagg_truncated_payloads_rejected() {
        // Every strict prefix of a valid secure-aggregation payload must
        // fail structurally (BadPayload), never decode to garbage.
        for msg in [
            Message::ShamirDist {
                iteration: 2,
                party: 1,
                flat: vec![3, 4],
            },
            Message::ShamirCollect {
                iteration: 2,
                contributors: vec![0, 3],
                flat: vec![3, 4, 5, 6],
            },
            Message::CipherShare {
                iteration: 2,
                party: 1,
                bytes: vec![9; 5],
            },
            Message::CipherAgg {
                iteration: 2,
                contributors: 3,
                bytes: vec![9; 5],
            },
            Message::CipherSum {
                iteration: 2,
                values: vec![1.0, -1.0],
            },
            Message::Telemetry {
                iteration: 2,
                span: 0xFEED,
                party: 1,
                epoch: 0,
                frames_sent: 10,
                frames_recv: 9,
                bytes_sent: 4_096,
                bytes_recv: 2_048,
                retransmits: 0,
                elapsed_ns: 500_000,
            },
        ] {
            let mut full = Vec::new();
            msg.encode_payload(&mut full);
            for cut in 0..full.len() {
                let framed = reframe_with_payload(&msg, &full[..cut]);
                match Frame::decode(&framed) {
                    Err(FrameError::BadPayload(_)) => {}
                    other => panic!("truncation at {cut} of {msg:?} gave {other:?}"),
                }
            }
            let mut padded = full.clone();
            padded.extend_from_slice(&[0xEE; 2]);
            let framed = reframe_with_payload(&msg, &padded);
            assert_eq!(Frame::decode(&framed), Err(FrameError::TrailingBytes(2)));
        }
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
