//! Wire messages and their binary codec.
//!
//! Three message kinds cross the network:
//!
//! * [`WireMessage::Msg`] — the paper's `(MSG, m, tag)`;
//! * [`WireMessage::Ack`] — the paper's `(ACK, m, tag, tag_ack)`
//!   (Algorithm 1) or `(ACK, m, tag, tag_ack, labels)` (Algorithm 2). Note
//!   the ACK carries the payload `m`, exactly as written in the paper —
//!   this is what enables the "fast deliver" behaviour of §III's remark
//!   (DESIGN.md D1).
//! * [`WireMessage::Heartbeat`] — used only by the *heartbeat-based*
//!   realistic failure-detector implementation in `urb-fd`; the oracle
//!   detectors send nothing.
//!
//! One protocol step often emits several messages at once (a MSG plus the
//! ACKs a Task-1 sweep re-broadcasts), and a node serving many topics
//! steps many instances; everything one step emitted moves as a single
//! [`MuxBatch`] frame — topic-keyed, length-prefixed sub-batches that
//! preserve every member's [`WireMessage::retransmit_key`] identity, so
//! the channel layer's per-message fairness bookkeeping is unaffected by
//! batching (DESIGN.md D8, §12). It is the only frame type on the wire.
//!
//! The codec is a hand-rolled length-prefixed binary format (via `bytes`),
//! because the simulator and runtime move millions of messages per run and
//! the format doubles as the unit the channel-loss layer hashes for its
//! fairness bookkeeping.
//!
//! The hot paths are zero-copy (DESIGN.md §10): frames are encoded into a
//! reusable buffer — typically from a [`crate::BufPool`] — with no
//! per-message or per-frame allocation ([`encode_mux_frame_into`]) and
//! decoded with payloads as refcounted slice views of the frame itself
//! ([`MuxBatch::decode_shared_into`]). The allocating
//! [`MuxBatch::encode`] and the copying [`MuxBatch::decode`] are the
//! reference the property tests compare those paths against.

use crate::ids::{Label, LabelSet, Tag, TagAck, TopicId};
use crate::payload::Payload;
use crate::pool::BufPool;
use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

/// Discriminant of a wire message, used by metrics and loss bookkeeping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum WireKind {
    /// An application message retransmission (`MSG`).
    Msg,
    /// An acknowledgment (`ACK`).
    Ack,
    /// A failure-detector heartbeat.
    Heartbeat,
}

impl WireKind {
    /// All kinds, in codec-tag order.
    pub const ALL: [WireKind; 3] = [WireKind::Msg, WireKind::Ack, WireKind::Heartbeat];

    /// Stable index for array-backed per-kind counters.
    pub fn index(self) -> usize {
        match self {
            WireKind::Msg => 0,
            WireKind::Ack => 1,
            WireKind::Heartbeat => 2,
        }
    }
}

impl fmt::Display for WireKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WireKind::Msg => "MSG",
            WireKind::Ack => "ACK",
            WireKind::Heartbeat => "HB",
        };
        f.write_str(s)
    }
}

/// A message as it crosses the anonymous broadcast network.
///
/// Deliberately contains **no sender field**: receivers in the paper's model
/// cannot determine who sent a message, and the type system enforces that
/// here. (The simulator tracks provenance out-of-band, for metrics and the
/// fairness bookkeeping only — protocol code never sees it.)
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum WireMessage {
    /// `(MSG, m, tag)` — a message to be URB-delivered (Algorithm 1/2,
    /// Task 1 line 30/54).
    Msg {
        /// The sender-assigned unique random tag.
        tag: Tag,
        /// The application message `m`.
        payload: Payload,
    },
    /// `(ACK, m, tag, tag_ack[, labels])` — reception acknowledgment
    /// (Algorithm 1 lines 12/16, Algorithm 2 lines 15/20).
    Ack {
        /// Tag of the acknowledged message.
        tag: Tag,
        /// The acknowledger's unique random tag for this `(m, tag)`.
        tag_ack: TagAck,
        /// The acknowledged application message (piggybacked, per the paper).
        payload: Payload,
        /// Algorithm 2 only: the labels currently in the acknowledger's
        /// `a_theta`. `None` for Algorithm 1 ACKs.
        labels: Option<LabelSet>,
    },
    /// Failure-detector heartbeat (heartbeat implementation only).
    Heartbeat {
        /// The heartbeating process's current label.
        label: Label,
        /// Monotone sequence number (lets receivers ignore stale reordering).
        seq: u64,
    },
}

impl WireMessage {
    /// The message's kind discriminant.
    pub fn kind(&self) -> WireKind {
        match self {
            WireMessage::Msg { .. } => WireKind::Msg,
            WireMessage::Ack { .. } => WireKind::Ack,
            WireMessage::Heartbeat { .. } => WireKind::Heartbeat,
        }
    }

    /// The `tag` this message concerns, if any.
    pub fn tag(&self) -> Option<Tag> {
        match self {
            WireMessage::Msg { tag, .. } | WireMessage::Ack { tag, .. } => Some(*tag),
            WireMessage::Heartbeat { .. } => None,
        }
    }

    /// Serialized size in bytes (what [`encode`](Self::encode) will produce).
    pub fn encoded_len(&self) -> usize {
        match self {
            WireMessage::Msg { payload, .. } => 1 + 16 + 4 + payload.len(),
            WireMessage::Ack {
                payload, labels, ..
            } => {
                1 + 16 + 16 + 4 + payload.len() + 1 + labels.as_ref().map_or(0, |l| 4 + 8 * l.len())
            }
            WireMessage::Heartbeat { .. } => 1 + 8 + 8,
        }
    }

    /// Encodes into a freshly allocated buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Encodes into an existing buffer (appends).
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            WireMessage::Msg { tag, payload } => {
                buf.put_u8(0);
                buf.put_u128(tag.0);
                buf.put_u32(payload.len() as u32);
                buf.put_slice(payload.as_slice());
            }
            WireMessage::Ack {
                tag,
                tag_ack,
                payload,
                labels,
            } => {
                buf.put_u8(1);
                buf.put_u128(tag.0);
                buf.put_u128(tag_ack.0);
                buf.put_u32(payload.len() as u32);
                buf.put_slice(payload.as_slice());
                match labels {
                    None => buf.put_u8(0),
                    Some(set) => {
                        buf.put_u8(1);
                        buf.put_u32(set.len() as u32);
                        for l in set.iter() {
                            buf.put_u64(l.0);
                        }
                    }
                }
            }
            WireMessage::Heartbeat { label, seq } => {
                buf.put_u8(2);
                buf.put_u64(label.0);
                buf.put_u64(*seq);
            }
        }
    }

    /// Decodes a message from a complete frame (copying the payload into
    /// fresh storage; [`MuxBatch::decode_shared`] is the zero-copy path).
    pub fn decode(data: &[u8]) -> Result<WireMessage, CodecError> {
        let mut pos = 0usize;
        let msg = decode_message_at(data, &mut pos, &mut copy_payload)?;
        if pos != data.len() {
            return Err(CodecError::TrailingBytes(data.len() - pos));
        }
        Ok(msg)
    }

    /// A 64-bit content fingerprint, used by the bounded-loss channel mode to
    /// recognise retransmissions of "the same message" (the unit over which
    /// the fair-lossy Fairness axiom quantifies).
    pub fn content_hash(&self) -> u64 {
        // FNV-1a over the encoded form: stable, fast, good enough for
        // bookkeeping (not adversarial input).
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        match self {
            WireMessage::Msg { tag, payload } => {
                feed(&[0]);
                feed(&tag.0.to_le_bytes());
                feed(payload.as_slice());
            }
            WireMessage::Ack {
                tag,
                tag_ack,
                payload,
                labels,
            } => {
                feed(&[1]);
                feed(&tag.0.to_le_bytes());
                feed(&tag_ack.0.to_le_bytes());
                feed(payload.as_slice());
                if let Some(set) = labels {
                    for l in set.iter() {
                        feed(&l.0.to_le_bytes());
                    }
                }
            }
            WireMessage::Heartbeat { label, seq } => {
                feed(&[2]);
                feed(&label.0.to_le_bytes());
                feed(&seq.to_le_bytes());
            }
        }
        hash
    }

    /// Retransmission identity: two sends count as retransmissions of the
    /// same message for the fairness axiom if they have the same
    /// [`retransmit_key`](Self::retransmit_key). This is the per-message
    /// unit of account the batched message plane preserves (DESIGN.md D8).
    ///
    /// For ACKs in Algorithm 2 the attached label set evolves between
    /// retransmissions while the paper still treats them as "the identical
    /// acknowledgment message"; the key therefore ignores labels (and
    /// heartbeat sequence numbers) and hashes only the stable identity.
    pub fn retransmit_key(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= b as u64;
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        match self {
            WireMessage::Msg { tag, .. } => {
                feed(&[0]);
                feed(&tag.0.to_le_bytes());
            }
            WireMessage::Ack { tag, tag_ack, .. } => {
                feed(&[1]);
                feed(&tag.0.to_le_bytes());
                feed(&tag_ack.0.to_le_bytes());
            }
            WireMessage::Heartbeat { label, .. } => {
                feed(&[2]);
                feed(&label.0.to_le_bytes());
            }
        }
        hash
    }
}

// ---------------------------------------------------------------------
// Decode internals, shared by the copying and the zero-copy paths.
//
// Decoding walks the frame with an explicit cursor (`pos`) instead of a
// shrinking slice so that payload *offsets* survive: the zero-copy path
// turns `(offset, len)` into a refcounted [`bytes::Bytes::slice`] view of
// the frame, the copying path copies the same range. Everything else —
// bounds checks, error taxonomy, field order — is one implementation.

/// Builds a payload from `data[off..off + len]`. The copying maker; the
/// zero-copy maker is a closure over the shared frame in
/// [`MuxBatch::decode_shared`].
fn copy_payload(data: &[u8], off: usize, len: usize) -> Payload {
    Payload::copy_from_slice(&data[off..off + len])
}

fn need(data: &[u8], pos: usize, n: usize) -> Result<(), CodecError> {
    if data.len().saturating_sub(pos) < n {
        Err(CodecError::Truncated)
    } else {
        Ok(())
    }
}

fn read_u8(data: &[u8], pos: &mut usize) -> u8 {
    let v = data[*pos];
    *pos += 1;
    v
}

fn read_u32(data: &[u8], pos: &mut usize) -> u32 {
    let mut raw = [0u8; 4];
    raw.copy_from_slice(&data[*pos..*pos + 4]);
    *pos += 4;
    u32::from_be_bytes(raw)
}

fn read_u64(data: &[u8], pos: &mut usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&data[*pos..*pos + 8]);
    *pos += 8;
    u64::from_be_bytes(raw)
}

fn read_u128(data: &[u8], pos: &mut usize) -> u128 {
    let mut raw = [0u8; 16];
    raw.copy_from_slice(&data[*pos..*pos + 16]);
    *pos += 16;
    u128::from_be_bytes(raw)
}

/// Decodes one message starting at `pos`, advancing the cursor.
/// `payload` materializes each payload range (copy or shared slice).
fn decode_message_at(
    data: &[u8],
    pos: &mut usize,
    payload: &mut dyn FnMut(&[u8], usize, usize) -> Payload,
) -> Result<WireMessage, CodecError> {
    need(data, *pos, 1)?;
    let kind = read_u8(data, pos);
    match kind {
        0 => {
            need(data, *pos, 16 + 4)?;
            let tag = Tag(read_u128(data, pos));
            let len = read_u32(data, pos) as usize;
            need(data, *pos, len)?;
            let body = payload(data, *pos, len);
            *pos += len;
            Ok(WireMessage::Msg { tag, payload: body })
        }
        1 => {
            need(data, *pos, 16 + 16 + 4)?;
            let tag = Tag(read_u128(data, pos));
            let tag_ack = TagAck(read_u128(data, pos));
            let len = read_u32(data, pos) as usize;
            need(data, *pos, len)?;
            let body = payload(data, *pos, len);
            *pos += len;
            need(data, *pos, 1)?;
            let labels = match read_u8(data, pos) {
                0 => None,
                1 => {
                    need(data, *pos, 4)?;
                    let n = read_u32(data, pos) as usize;
                    need(data, *pos, 8 * n)?;
                    let mut labels = Vec::with_capacity(n);
                    for _ in 0..n {
                        labels.push(Label(read_u64(data, pos)));
                    }
                    Some(LabelSet::from_iter(labels))
                }
                b => return Err(CodecError::BadDiscriminant(b)),
            };
            Ok(WireMessage::Ack {
                tag,
                tag_ack,
                payload: body,
                labels,
            })
        }
        2 => {
            need(data, *pos, 16)?;
            let label = Label(read_u64(data, pos));
            let seq = read_u64(data, pos);
            Ok(WireMessage::Heartbeat { label, seq })
        }
        b => Err(CodecError::BadDiscriminant(b)),
    }
}

impl fmt::Debug for WireMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireMessage::Msg { tag, payload } => write!(f, "MSG{{{tag:?}, {payload:?}}}"),
            WireMessage::Ack {
                tag,
                tag_ack,
                labels,
                ..
            } => match labels {
                Some(set) => write!(f, "ACK{{{tag:?}, {tag_ack:?}, labels={set:?}}}"),
                None => write!(f, "ACK{{{tag:?}, {tag_ack:?}}}"),
            },
            WireMessage::Heartbeat { label, seq } => write!(f, "HB{{{label:?}, seq={seq}}}"),
        }
    }
}

/// A topic-lifecycle control operation, carried in the optional control
/// section of a [`MuxBatch`] frame (DESIGN.md §15).
///
/// Control operations ride the existing multiplexed wire format — a node
/// that wants to create, retire, subscribe to or unsubscribe from a topic
/// appends `TopicControl` entries to the frame it was going to send anyway
/// (or sends a control-only frame). The payload sub-batches and the control
/// section are independent: a frame may carry either, both, or (vacuously)
/// neither.
///
/// `Create` carries the algorithm to instantiate as an `(algorithm, param)`
/// code pair so receivers can materialize the correct protocol state
/// machine; the codes are assigned by `urb_core::Algorithm::to_wire` and
/// are opaque at this layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopicControl {
    /// Create `topic`, instantiating algorithm `(algorithm, param)` lazily
    /// on first receipt.
    Create {
        /// The topic to bring live.
        topic: TopicId,
        /// Algorithm code (see `urb_core::Algorithm::to_wire`).
        algorithm: u8,
        /// Algorithm parameter (threshold / backoff cap; 0 when unused).
        param: u32,
    },
    /// Retire `topic`: stop accepting broadcasts, drain in-flight tags,
    /// then reclaim the instance's state.
    Retire {
        /// The topic to retire.
        topic: TopicId,
    },
    /// Subscribe the sender to `topic`'s deliveries.
    Subscribe {
        /// The topic to subscribe to.
        topic: TopicId,
    },
    /// Drop the sender's subscription to `topic`.
    Unsubscribe {
        /// The topic to unsubscribe from.
        topic: TopicId,
    },
}

impl TopicControl {
    /// The topic this control operation concerns.
    pub fn topic(self) -> TopicId {
        match self {
            TopicControl::Create { topic, .. }
            | TopicControl::Retire { topic }
            | TopicControl::Subscribe { topic }
            | TopicControl::Unsubscribe { topic } => topic,
        }
    }

    /// Operation discriminant byte (codec order).
    fn op(self) -> u8 {
        match self {
            TopicControl::Create { .. } => 0,
            TopicControl::Retire { .. } => 1,
            TopicControl::Subscribe { .. } => 2,
            TopicControl::Unsubscribe { .. } => 3,
        }
    }

    /// Serialized size in bytes.
    pub fn encoded_len(self) -> usize {
        match self {
            TopicControl::Create { .. } => 1 + 4 + 1 + 4,
            _ => 1 + 4,
        }
    }

    fn encode_into(self, buf: &mut BytesMut) {
        buf.put_u8(self.op());
        buf.put_u32(self.topic().0);
        if let TopicControl::Create {
            algorithm, param, ..
        } = self
        {
            buf.put_u8(algorithm);
            buf.put_u32(param);
        }
    }

    fn decode_at(data: &[u8], pos: &mut usize) -> Result<TopicControl, CodecError> {
        need(data, *pos, 1 + 4)?;
        let op = read_u8(data, pos);
        let topic = TopicId(read_u32(data, pos));
        match op {
            0 => {
                need(data, *pos, 1 + 4)?;
                let algorithm = read_u8(data, pos);
                let param = read_u32(data, pos);
                Ok(TopicControl::Create {
                    topic,
                    algorithm,
                    param,
                })
            }
            1 => Ok(TopicControl::Retire { topic }),
            2 => Ok(TopicControl::Subscribe { topic }),
            3 => Ok(TopicControl::Unsubscribe { topic }),
            b => Err(CodecError::BadDiscriminant(b)),
        }
    }
}

impl fmt::Display for TopicControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopicControl::Create {
                topic,
                algorithm,
                param,
            } => write!(f, "create({}, alg={algorithm}/{param})", topic.0),
            TopicControl::Retire { topic } => write!(f, "retire({})", topic.0),
            TopicControl::Subscribe { topic } => write!(f, "subscribe({})", topic.0),
            TopicControl::Unsubscribe { topic } => write!(f, "unsubscribe({})", topic.0),
        }
    }
}

/// A **multiplexed** batch frame: one topic-keyed sub-batch per URB
/// instance, moved as a single unit of routing (DESIGN.md §12).
///
/// A `MuxBatch` carries the output of *every* topic instance a node
/// stepped, so a node schedules **one** routing event (one frame send)
/// per step, not one per message or per topic; a single-topic node sends
/// the degenerate one-sub-batch frame. Loss, metrics and fairness
/// bookkeeping stay per message — each member keeps its own
/// [`WireMessage::retransmit_key`], decorrelated across topics via
/// [`TopicId::mix`].
///
/// Frame layout: `0x04` (frame tag, disjoint from message discriminants
/// 0–2; `0x03` was the retired single-topic frame and stays rejected), a
/// `u32` sub-batch count, then per sub-batch a `u32` topic id, a `u32`
/// message count and per message a `u32` byte length followed by the
/// message's own encoding. A frame
/// may end with an **optional control section** (DESIGN.md §15): the
/// section tag [`MuxBatch::CONTROL_TAG`] (`0x05`), a `u32` control count,
/// then the [`TopicControl`] entries. The section is written only when at
/// least one control is present, so control-free frames are byte-identical
/// to the pre-lifecycle format. The codec is zero-copy on the hot paths:
/// encoding appends into a caller buffer with no per-message allocation
/// ([`MuxBatch::encode_into`]), and [`MuxBatch::decode_shared_into`]
/// decodes payloads as refcounted slice views of the frame.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MuxBatch {
    /// `(topic, messages)` sub-batches, in emission order. Kept sorted by
    /// topic by [`MuxBatch::push`] (topics are stepped in ascending order,
    /// so pushes arrive sorted; the invariant is asserted in debug).
    subs: Vec<(TopicId, Vec<WireMessage>)>,
    /// Lifecycle control operations riding this frame, in emission order.
    /// Empty for pure payload frames (the static-topic byte-compat case).
    controls: Vec<TopicControl>,
}

impl MuxBatch {
    /// Frame-tag byte distinguishing a multiplexed frame from bare
    /// messages (0–2).
    pub const FRAME_TAG: u8 = 4;

    /// Section-tag byte introducing the optional trailing [`TopicControl`]
    /// section of a multiplexed frame (disjoint from every other tag).
    pub const CONTROL_TAG: u8 = 5;

    /// An empty multiplexed batch.
    pub fn new() -> Self {
        MuxBatch {
            subs: Vec::new(),
            controls: Vec::new(),
        }
    }

    /// Appends one message to `topic`'s sub-batch, creating it on first
    /// use. Messages for one topic must arrive contiguously in ascending
    /// topic order (how every driver steps its topics).
    pub fn push(&mut self, topic: TopicId, msg: WireMessage) {
        match self.subs.last_mut() {
            Some((t, sub)) if *t == topic => sub.push(msg),
            _ => {
                debug_assert!(
                    self.subs.iter().all(|(t, _)| *t < topic),
                    "topics must be pushed in ascending order"
                );
                self.subs.push((topic, vec![msg]));
            }
        }
    }

    /// Builds a multiplexed batch from topic-tagged messages in ascending
    /// topic order (the shape the engine's mux outbox drains into).
    pub fn from_entries<'a, I: IntoIterator<Item = &'a (TopicId, WireMessage)>>(
        entries: I,
    ) -> Self {
        let mut mux = MuxBatch::new();
        for (topic, msg) in entries {
            mux.push(*topic, msg.clone());
        }
        mux
    }

    /// Appends one lifecycle control operation to the frame's control
    /// section.
    pub fn push_control(&mut self, ctl: TopicControl) {
        self.controls.push(ctl);
    }

    /// The lifecycle control operations riding this frame, in emission
    /// order (empty for pure payload frames).
    pub fn controls(&self) -> &[TopicControl] {
        &self.controls
    }

    /// The `(topic, messages)` sub-batches, ascending by topic.
    pub fn sub_batches(&self) -> &[(TopicId, Vec<WireMessage>)] {
        &self.subs
    }

    /// Number of sub-batches (distinct topics) in the frame.
    pub fn topic_count(&self) -> usize {
        self.subs.len()
    }

    /// Total messages across all sub-batches.
    pub fn len(&self) -> usize {
        self.subs.iter().map(|(_, sub)| sub.len()).sum()
    }

    /// True when no sub-batch carries anything **and** the control section
    /// is empty — a frame a driver can skip sending entirely.
    pub fn is_empty(&self) -> bool {
        self.subs.iter().all(|(_, sub)| sub.is_empty()) && self.controls.is_empty()
    }

    /// Iterates `(topic, &message)` pairs in frame order.
    pub fn iter(&self) -> impl Iterator<Item = (TopicId, &WireMessage)> + '_ {
        self.subs
            .iter()
            .flat_map(|(t, sub)| sub.iter().map(move |m| (*t, m)))
    }

    /// Serialized size in bytes (what [`MuxBatch::encode`] produces).
    pub fn encoded_len(&self) -> usize {
        let controls = if self.controls.is_empty() {
            0
        } else {
            CONTROL_HEADER + self.controls.iter().map(|c| c.encoded_len()).sum::<usize>()
        };
        let message = |m: &WireMessage| MESSAGE_PREFIX + m.encoded_len();
        let sub = |sub: &[WireMessage]| SUB_BATCH_HEADER + sub.iter().map(message).sum::<usize>();
        FRAME_HEADER + self.subs.iter().map(|(_, s)| sub(s)).sum::<usize>() + controls
    }

    /// Encodes the frame into a freshly allocated buffer.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the frame to an existing buffer — the zero-copy encode
    /// path (with a warm pooled buffer this allocates nothing, per
    /// message or per frame; pinned by the mux codec property tests).
    pub fn encode_into(&self, buf: &mut BytesMut) {
        buf.put_u8(MuxBatch::FRAME_TAG);
        buf.put_u32(self.subs.len() as u32);
        for (topic, sub) in &self.subs {
            buf.put_u32(topic.0);
            buf.put_u32(sub.len() as u32);
            for m in sub {
                buf.put_u32(m.encoded_len() as u32);
                m.encode_into(buf);
            }
        }
        encode_control_section_into(&self.controls, buf);
    }

    /// Decodes a complete multiplexed frame, copying payloads into fresh
    /// storage — the reference decode the property tests compare the
    /// zero-copy [`MuxBatch::decode_shared`] against.
    pub fn decode(data: &[u8]) -> Result<MuxBatch, CodecError> {
        decode_mux(data, &mut copy_payload)
    }

    /// Decodes a complete multiplexed frame **without copying payloads**:
    /// every decoded [`Payload`] is a refcounted slice view of `frame`
    /// itself — the receive path of the runtime's sharded wire plane.
    pub fn decode_shared(frame: &Bytes) -> Result<MuxBatch, CodecError> {
        decode_mux(frame, &mut |_, off, len| {
            Payload::from_bytes(frame.slice(off..off + len))
        })
    }

    /// [`MuxBatch::decode_shared`] into a caller-supplied entry vector
    /// (cleared first, capacity retained) — the steady-state-zero-
    /// allocation ingress path: pair with a recycled
    /// [`crate::MuxPool`] vector and nothing is allocated per frame.
    ///
    /// A trailing control section, if present, is validated and then
    /// **discarded**; callers that act on lifecycle controls use
    /// [`MuxBatch::decode_shared_with_controls_into`].
    pub fn decode_shared_into(
        frame: &Bytes,
        out: &mut Vec<(TopicId, WireMessage)>,
    ) -> Result<(), CodecError> {
        let mut controls = Vec::new();
        Self::decode_shared_with_controls_into(frame, out, &mut controls)
    }

    /// [`MuxBatch::decode_shared_into`] that additionally surfaces the
    /// frame's [`TopicControl`] section into `controls` (cleared first;
    /// left empty for control-free frames) — the ingress path of drivers
    /// that implement the dynamic topic lifecycle (DESIGN.md §15).
    pub fn decode_shared_with_controls_into(
        frame: &Bytes,
        out: &mut Vec<(TopicId, WireMessage)>,
        controls: &mut Vec<TopicControl>,
    ) -> Result<(), CodecError> {
        decode_mux_entries_and_controls(frame, out, controls, &mut |_, off, len| {
            Payload::from_bytes(frame.slice(off..off + len))
        })
    }
}

/// Mux frame layout, bytes: frame tag + sub-batch count, topic id +
/// message count per sub-batch, a length prefix per message, section tag
/// + count for the control section.
const FRAME_HEADER: usize = 1 + 4;
const SUB_BATCH_HEADER: usize = 4 + 4;
const MESSAGE_PREFIX: usize = 4;
const CONTROL_HEADER: usize = 1 + 4;

/// Encodes topic-tagged messages (ascending topic order) as one
/// multiplexed frame appended to `buf` — the free-function twin of
/// [`MuxBatch::encode_into`] for callers holding a flat entry slice (the
/// engine's mux outbox) rather than a built [`MuxBatch`]. Byte-identical
/// to building the `MuxBatch` and encoding it.
pub fn encode_mux_frame_into(entries: &[(TopicId, WireMessage)], buf: &mut BytesMut) {
    encode_mux_frame_with_controls_into(entries, &[], buf);
}

/// [`encode_mux_frame_into`] with a [`TopicControl`] section appended when
/// `controls` is non-empty. With `controls` empty the output is
/// byte-identical to [`encode_mux_frame_into`] — the static-topic
/// byte-compat guarantee (DESIGN.md §15).
pub fn encode_mux_frame_with_controls_into(
    entries: &[(TopicId, WireMessage)],
    controls: &[TopicControl],
    buf: &mut BytesMut,
) {
    buf.put_u8(MuxBatch::FRAME_TAG);
    // First pass: count sub-batch boundaries (entries are grouped in
    // ascending topic order, so a boundary is any topic change).
    let sub_count = entries
        .iter()
        .zip(entries.iter().skip(1))
        .filter(|((a, _), (b, _))| a != b)
        .count() as u32
        + u32::from(!entries.is_empty());
    buf.put_u32(sub_count);
    let mut i = 0;
    while i < entries.len() {
        let topic = entries[i].0;
        let end = entries[i..]
            .iter()
            .position(|(t, _)| *t != topic)
            .map_or(entries.len(), |p| i + p);
        debug_assert!(
            entries[end..].iter().all(|(t, _)| *t > topic),
            "entries must be grouped in ascending topic order"
        );
        buf.put_u32(topic.0);
        buf.put_u32((end - i) as u32);
        for (_, m) in &entries[i..end] {
            buf.put_u32(m.encoded_len() as u32);
            m.encode_into(buf);
        }
        i = end;
    }
    encode_control_section_into(controls, buf);
}

/// Seals staged egress — topic-tagged outbox entries, then pending
/// controls — into mux frames of at most `budget` bytes and hands them to
/// `send` in order. Entries keep their order: a frame ends where the next
/// entry would overflow the budget or where the topic goes down (a
/// frame's sub-batches ascend), so decoding the frames in order gives
/// back the outbox exactly; each control rides exactly one frame, after
/// the last entries. An entry or control larger than the budget leaves
/// in a frame of its own. Staged egress within the budget leaves as one
/// frame, byte-identical to [`encode_mux_frame_with_controls_into`]'s.
/// Both vectors are drained (capacity kept) and one pooled encode buffer
/// serves every frame. Returns `false` once `send` does (the far side is
/// gone); the rest is dropped.
pub fn seal_frames(
    outbox: &mut Vec<(TopicId, WireMessage)>,
    controls: &mut Vec<TopicControl>,
    pool: &BufPool,
    budget: usize,
    mut send: impl FnMut(Bytes) -> bool,
) -> bool {
    if outbox.is_empty() && controls.is_empty() {
        return true;
    }
    let mut scratch = pool.acquire();
    let mut open = true;
    let mut seal = |entries: &[(TopicId, WireMessage)], ctls: &[TopicControl], len: usize| {
        if open {
            encode_mux_frame_with_controls_into(entries, ctls, &mut scratch);
            debug_assert_eq!(
                scratch.len(),
                len,
                "frame layout out of step with the codec"
            );
            open = send(Bytes::copy_from_slice(&scratch));
            scratch.clear();
        }
    };
    // The open frame is `outbox[first..]` + `controls[first_ctl..]` so
    // far, `len` bytes encoded.
    let (mut first, mut first_ctl, mut len) = (0, 0, FRAME_HEADER);
    for (i, (topic, msg)) in outbox.iter().enumerate() {
        let prev = outbox[first..i].last().map(|&(t, _)| t);
        let msg_len = MESSAGE_PREFIX + msg.encoded_len();
        let sub = if prev == Some(*topic) {
            0
        } else {
            SUB_BATCH_HEADER
        };
        let grow = msg_len + sub;
        if prev.is_some_and(|prev| prev > *topic || len + grow > budget) {
            seal(&outbox[first..i], &[], len);
            (first, len) = (i, FRAME_HEADER + SUB_BATCH_HEADER + msg_len);
        } else {
            len += grow;
        }
    }
    for (j, ctl) in controls.iter().enumerate() {
        let grow = ctl.encoded_len() + if j == first_ctl { CONTROL_HEADER } else { 0 };
        let empty = first == outbox.len() && j == first_ctl;
        if !empty && len + grow > budget {
            seal(&outbox[first..], &controls[first_ctl..j], len);
            (first, first_ctl) = (outbox.len(), j);
            len = FRAME_HEADER + CONTROL_HEADER + ctl.encoded_len();
        } else {
            len += grow;
        }
    }
    seal(&outbox[first..], &controls[first_ctl..], len);
    outbox.clear();
    controls.clear();
    open
}

/// Appends the optional control section: written only when `controls` is
/// non-empty, so control-free frames keep the pre-lifecycle byte layout.
fn encode_control_section_into(controls: &[TopicControl], buf: &mut BytesMut) {
    if controls.is_empty() {
        return;
    }
    buf.put_u8(MuxBatch::CONTROL_TAG);
    buf.put_u32(controls.len() as u32);
    for c in controls {
        c.encode_into(buf);
    }
}

/// Shared mux decode core (structured form).
fn decode_mux(
    data: &[u8],
    payload: &mut dyn FnMut(&[u8], usize, usize) -> Payload,
) -> Result<MuxBatch, CodecError> {
    let mut entries = Vec::new();
    let mut controls = Vec::new();
    decode_mux_entries_and_controls(data, &mut entries, &mut controls, payload)?;
    let mut mux = MuxBatch::new();
    for (t, m) in entries {
        mux.push(t, m);
    }
    mux.controls = controls;
    Ok(mux)
}

/// Shared mux decode core (flat-entry form; `out` and `controls` are
/// cleared first).
fn decode_mux_entries_and_controls(
    data: &[u8],
    out: &mut Vec<(TopicId, WireMessage)>,
    controls: &mut Vec<TopicControl>,
    payload: &mut dyn FnMut(&[u8], usize, usize) -> Payload,
) -> Result<(), CodecError> {
    out.clear();
    controls.clear();
    let mut pos = 0usize;
    need(data, pos, 1)?;
    let tag = read_u8(data, &mut pos);
    if tag != MuxBatch::FRAME_TAG {
        return Err(CodecError::BadDiscriminant(tag));
    }
    need(data, pos, 4)?;
    let sub_count = read_u32(data, &mut pos) as usize;
    let mut last_topic: Option<u32> = None;
    for _ in 0..sub_count {
        need(data, pos, SUB_BATCH_HEADER)?;
        let topic = read_u32(data, &mut pos);
        if last_topic.is_some_and(|prev| topic <= prev) {
            return Err(CodecError::UnorderedTopics);
        }
        last_topic = Some(topic);
        let count = read_u32(data, &mut pos) as usize;
        for _ in 0..count {
            need(data, pos, MESSAGE_PREFIX)?;
            let len = read_u32(data, &mut pos) as usize;
            need(data, pos, len)?;
            let member_end = pos + len;
            let msg = decode_message_at(&data[..member_end], &mut pos, payload)?;
            if pos != member_end {
                return Err(CodecError::TrailingBytes(member_end - pos));
            }
            out.push((TopicId(topic), msg));
        }
    }
    // Optional trailing control section (DESIGN.md §15).
    if pos < data.len() && data[pos] == MuxBatch::CONTROL_TAG {
        pos += 1;
        need(data, pos, 4)?;
        let n = read_u32(data, &mut pos) as usize;
        for _ in 0..n {
            controls.push(TopicControl::decode_at(data, &mut pos)?);
        }
    }
    if pos != data.len() {
        return Err(CodecError::TrailingBytes(data.len() - pos));
    }
    Ok(())
}

/// Errors produced by [`WireMessage::decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The frame ended before the message was complete.
    Truncated,
    /// An enum discriminant byte had an unknown value.
    BadDiscriminant(u8),
    /// The frame contained bytes after a complete message.
    TrailingBytes(usize),
    /// A multiplexed frame's sub-batches were not in strictly ascending
    /// topic order (every consumer indexes per-topic state by it).
    UnorderedTopics,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::BadDiscriminant(b) => write!(f, "unknown discriminant byte {b:#x}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            CodecError::UnorderedTopics => {
                write!(f, "mux frame sub-batches not in ascending topic order")
            }
        }
    }
}

impl std::error::Error for CodecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn msg(tag: u128, body: &str) -> WireMessage {
        WireMessage::Msg {
            tag: Tag(tag),
            payload: Payload::from(body),
        }
    }

    fn ack(tag: u128, ta: u128, body: &str, labels: Option<&[u64]>) -> WireMessage {
        WireMessage::Ack {
            tag: Tag(tag),
            tag_ack: TagAck(ta),
            payload: Payload::from(body),
            labels: labels.map(|ls| LabelSet::from_iter(ls.iter().map(|&l| Label(l)))),
        }
    }

    #[test]
    fn roundtrip_msg() {
        let m = msg(0xDEAD_BEEF, "payload!");
        let enc = m.encode();
        assert_eq!(enc.len(), m.encoded_len());
        assert_eq!(WireMessage::decode(&enc).unwrap(), m);
    }

    #[test]
    fn roundtrip_ack_without_labels() {
        let m = ack(1, 2, "m", None);
        assert_eq!(WireMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn roundtrip_ack_with_labels() {
        let m = ack(u128::MAX, 7, "", Some(&[3, 1, 2]));
        let enc = m.encode();
        assert_eq!(enc.len(), m.encoded_len());
        let back = WireMessage::decode(&enc).unwrap();
        assert_eq!(back, m);
        if let WireMessage::Ack {
            labels: Some(set), ..
        } = back
        {
            let v: Vec<Label> = set.iter().collect();
            assert_eq!(v, vec![Label(1), Label(2), Label(3)], "labels sorted");
        } else {
            panic!("wrong variant");
        }
    }

    #[test]
    fn roundtrip_heartbeat() {
        let m = WireMessage::Heartbeat {
            label: Label(99),
            seq: u64::MAX,
        };
        assert_eq!(WireMessage::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn decode_rejects_truncation_at_every_prefix() {
        let m = ack(11, 22, "hello world", Some(&[5, 6]));
        let enc = m.encode();
        for cut in 0..enc.len() {
            let err = WireMessage::decode(&enc[..cut]).unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated),
                "prefix {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut enc = msg(1, "x").encode().to_vec();
        enc.push(0);
        assert!(matches!(
            WireMessage::decode(&enc),
            Err(CodecError::TrailingBytes(1))
        ));
    }

    #[test]
    fn decode_rejects_bad_discriminant() {
        assert!(matches!(
            WireMessage::decode(&[9]),
            Err(CodecError::BadDiscriminant(9))
        ));
    }

    #[test]
    fn kind_and_tag_accessors() {
        assert_eq!(msg(5, "a").kind(), WireKind::Msg);
        assert_eq!(msg(5, "a").tag(), Some(Tag(5)));
        let hb = WireMessage::Heartbeat {
            label: Label(1),
            seq: 0,
        };
        assert_eq!(hb.kind(), WireKind::Heartbeat);
        assert_eq!(hb.tag(), None);
    }

    #[test]
    fn content_hash_distinguishes_label_sets_but_retransmit_key_does_not() {
        let a = ack(1, 2, "m", Some(&[1]));
        let b = ack(1, 2, "m", Some(&[1, 2]));
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(
            a.retransmit_key(),
            b.retransmit_key(),
            "retransmissions of the same ACK with evolved labels share identity"
        );
        let c = ack(1, 3, "m", Some(&[1]));
        assert_ne!(a.retransmit_key(), c.retransmit_key());
    }

    #[test]
    fn mux_roundtrip_and_entry_encoding_agree() {
        let entries = vec![
            (TopicId(0), msg(1, "a")),
            (TopicId(0), ack(1, 2, "a", Some(&[3]))),
            (TopicId(2), msg(9, "topic two")),
            (
                TopicId(2),
                WireMessage::Heartbeat {
                    label: Label(7),
                    seq: 1,
                },
            ),
            (TopicId(5), msg(11, "")),
        ];
        let mux = MuxBatch::from_entries(&entries);
        assert_eq!(mux.topic_count(), 3);
        assert_eq!(mux.len(), 5);
        let enc = mux.encode();
        assert_eq!(enc.len(), mux.encoded_len());
        // Structured and flat-entry encoders produce identical bytes.
        let mut flat = BytesMut::new();
        encode_mux_frame_into(&entries, &mut flat);
        assert_eq!(&enc[..], &flat[..]);
        // Both decode paths reproduce the original.
        assert_eq!(MuxBatch::decode(&enc).unwrap(), mux);
        let shared = MuxBatch::decode_shared(&enc).unwrap();
        assert_eq!(shared, mux);
        let mut out = Vec::new();
        MuxBatch::decode_shared_into(&enc, &mut out).unwrap();
        assert_eq!(out, entries);
        // Batching must not launder message identity: every member keeps
        // its own retransmission key, in order.
        let keys: Vec<u64> = shared.iter().map(|(_, m)| m.retransmit_key()).collect();
        let direct: Vec<u64> = entries.iter().map(|(_, m)| m.retransmit_key()).collect();
        assert_eq!(keys, direct);
        // The empty frame round-trips too.
        let empty = MuxBatch::new();
        assert_eq!(empty.encode().len(), empty.encoded_len());
        assert_eq!(MuxBatch::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn mux_single_topic_zero_is_the_degenerate_frame() {
        let mux = MuxBatch::from_entries(&[(TopicId::ZERO, msg(3, "only"))]);
        let enc = mux.encode();
        assert_eq!(enc[0], MuxBatch::FRAME_TAG);
        let back = MuxBatch::decode(&enc).unwrap();
        assert_eq!(back.sub_batches().len(), 1);
        assert_eq!(back.sub_batches()[0].0, TopicId::ZERO);
        // Only 0x04 opens a frame: the retired single-topic tag 0x03 and
        // a bare message (discriminants 0-2) are both rejected.
        assert!(matches!(
            MuxBatch::decode(&[3, 0, 0, 0, 0]),
            Err(CodecError::BadDiscriminant(3))
        ));
        assert!(matches!(
            MuxBatch::decode(&msg(1, "m").encode()),
            Err(CodecError::BadDiscriminant(0))
        ));
    }

    #[test]
    fn mux_decode_rejects_malformed_frames() {
        let mux = MuxBatch::from_entries(&[
            (TopicId(1), msg(1, "x")),
            (TopicId(3), ack(1, 2, "x", None)),
        ]);
        let enc = mux.encode();
        for cut in 0..enc.len() {
            assert!(
                matches!(MuxBatch::decode(&enc[..cut]), Err(CodecError::Truncated)),
                "prefix {cut}"
            );
        }
        let mut long = enc.to_vec();
        long.push(0);
        assert!(matches!(
            MuxBatch::decode(&long),
            Err(CodecError::TrailingBytes(1))
        ));
        // A member whose length prefix over-claims is truncated: one
        // sub-batch (topic 0) of one message claiming u32::MAX bytes.
        let mut frame = vec![MuxBatch::FRAME_TAG, 0, 0, 0, 1];
        frame.extend_from_slice(&0u32.to_be_bytes());
        frame.extend_from_slice(&1u32.to_be_bytes());
        frame.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            MuxBatch::decode(&frame),
            Err(CodecError::Truncated)
        ));
        // Duplicate / descending topics are rejected.
        let dup = MuxBatch::from_entries(&[(TopicId(2), msg(1, "a"))]);
        let mut bytes = dup.encode().to_vec();
        // Patch the sub-count to 2 and append a second sub-batch with a
        // smaller topic id.
        bytes[1..5].copy_from_slice(&2u32.to_be_bytes());
        bytes.extend_from_slice(&1u32.to_be_bytes()); // topic 1 < 2
        bytes.extend_from_slice(&0u32.to_be_bytes()); // empty sub-batch
        assert!(matches!(
            MuxBatch::decode(&bytes),
            Err(CodecError::UnorderedTopics)
        ));
    }

    #[test]
    fn mux_preserves_per_message_identity_across_topics() {
        // The same wire message on two topics keeps distinct fairness
        // identities once the topic is mixed in — and topic 0 mixes to
        // the legacy key exactly.
        let m = msg(42, "same");
        let k = m.retransmit_key();
        assert_eq!(TopicId::ZERO.mix(k), k);
        assert_ne!(TopicId(1).mix(k), TopicId(2).mix(k));
    }

    #[test]
    fn mux_control_section_roundtrips_and_is_absent_when_empty() {
        let controls = [
            TopicControl::Create {
                topic: TopicId(7),
                algorithm: 2,
                param: 0,
            },
            TopicControl::Subscribe { topic: TopicId(7) },
            TopicControl::Retire { topic: TopicId(3) },
            TopicControl::Unsubscribe { topic: TopicId(1) },
        ];
        // Payload + control frame.
        let entries = vec![(TopicId(0), msg(1, "a")), (TopicId(7), msg(2, "b"))];
        let mut mux = MuxBatch::from_entries(&entries);
        for c in controls {
            mux.push_control(c);
        }
        let enc = mux.encode();
        assert_eq!(enc.len(), mux.encoded_len());
        let back = MuxBatch::decode(&enc).unwrap();
        assert_eq!(back, mux);
        assert_eq!(back.controls(), &controls);
        // Entry decode surfaces the controls...
        let shared = Bytes::from(enc.to_vec());
        let (mut out, mut ctl) = (Vec::new(), Vec::new());
        MuxBatch::decode_shared_with_controls_into(&shared, &mut out, &mut ctl).unwrap();
        assert_eq!(out, entries);
        assert_eq!(ctl, controls);
        // ...and the control-blind path validates but discards them.
        MuxBatch::decode_shared_into(&shared, &mut out).unwrap();
        assert_eq!(out, entries);
        // Free-function encoder with controls is byte-identical.
        let mut flat = BytesMut::new();
        encode_mux_frame_with_controls_into(&entries, &controls, &mut flat);
        assert_eq!(&enc[..], &flat[..]);
        // Control-only frame: non-empty, sendable, decodes.
        let mut only = MuxBatch::new();
        only.push_control(controls[0]);
        assert!(!only.is_empty());
        assert_eq!(only.len(), 0);
        let back = MuxBatch::decode(&only.encode()).unwrap();
        assert_eq!(back.controls(), &controls[..1]);
        // Static-topic byte-compat: no controls → no section byte.
        let plain = MuxBatch::from_entries(&entries);
        let mut with_empty = BytesMut::new();
        encode_mux_frame_with_controls_into(&entries, &[], &mut with_empty);
        assert_eq!(&plain.encode()[..], &with_empty[..]);
    }

    #[test]
    fn mux_control_section_rejects_truncation_and_bad_ops() {
        let mut mux = MuxBatch::new();
        mux.push(TopicId(0), msg(1, "x"));
        mux.push_control(TopicControl::Create {
            topic: TopicId(4),
            algorithm: 0,
            param: 3,
        });
        let enc = mux.encode();
        let ctl = TopicControl::Create {
            topic: TopicId(4),
            algorithm: 0,
            param: 3,
        };
        let section_len = 1 + 4 + ctl.encoded_len();
        for cut in 0..enc.len() {
            let decoded = MuxBatch::decode(&enc[..cut]);
            if cut == enc.len() - section_len {
                // Cutting the whole control section cleanly yields a valid
                // (control-free) frame — the section is optional.
                assert_eq!(decoded.unwrap().controls(), &[]);
                continue;
            }
            let err = decoded.unwrap_err();
            assert!(
                matches!(err, CodecError::Truncated | CodecError::TrailingBytes(_)),
                "prefix {cut} gave {err:?}"
            );
        }
        // An unknown control op byte is rejected.
        let mut bad = enc.to_vec();
        let op_pos = enc.len() - ctl.encoded_len();
        bad[op_pos] = 9;
        assert!(matches!(
            MuxBatch::decode(&bad),
            Err(CodecError::BadDiscriminant(9))
        ));
    }

    #[test]
    fn wire_kind_indices_are_distinct_and_dense() {
        let mut seen = [false; 3];
        for k in WireKind::ALL {
            assert!(!seen[k.index()]);
            seen[k.index()] = true;
        }
        assert!(seen.iter().all(|&x| x));
    }

    /// Every frame `seal_frames` makes of the staged egress at `budget`.
    fn seal_at(
        outbox: &mut Vec<(TopicId, WireMessage)>,
        controls: &mut Vec<TopicControl>,
        budget: usize,
    ) -> Vec<Bytes> {
        let mut frames = Vec::new();
        assert!(seal_frames(
            outbox,
            controls,
            &BufPool::default(),
            budget,
            |f| {
                frames.push(f);
                true
            }
        ));
        frames
    }

    fn arb_message() -> impl Strategy<Value = WireMessage> {
        let payload = || proptest::collection::vec(any::<u8>(), 0..48).prop_map(Payload::from);
        prop_oneof![
            (any::<u128>(), payload()).prop_map(|(t, payload)| WireMessage::Msg {
                tag: Tag(t),
                payload,
            }),
            (
                any::<u128>(),
                any::<u128>(),
                payload(),
                proptest::option::of(proptest::collection::vec(any::<u64>(), 0..4)),
            )
                .prop_map(|(t, a, payload, labels)| WireMessage::Ack {
                    tag: Tag(t),
                    tag_ack: TagAck(a),
                    payload,
                    labels: labels.map(|ls| ls.into_iter().map(Label).collect()),
                }),
            (any::<u64>(), any::<u64>()).prop_map(|(l, seq)| WireMessage::Heartbeat {
                label: Label(l),
                seq,
            }),
        ]
    }

    fn arb_control() -> impl Strategy<Value = TopicControl> {
        (0u8..4, 0u32..6, any::<u8>(), any::<u32>()).prop_map(|(op, t, algorithm, param)| {
            let topic = TopicId(t);
            match op {
                0 => TopicControl::Create {
                    topic,
                    algorithm,
                    param,
                },
                1 => TopicControl::Retire { topic },
                2 => TopicControl::Subscribe { topic },
                _ => TopicControl::Unsubscribe { topic },
            }
        })
    }

    proptest! {
        /// The sealer over arbitrary staged egress and budgets: every
        /// frame fits the budget unless it carries one oversize entry
        /// alone, the frames decode in order to the outbox exactly and
        /// to each control once, and egress within the budget seals to
        /// the very bytes the one-frame encoder produces.
        #[test]
        fn sealed_frames_fit_the_budget_and_decode_to_the_stage(
            outbox in proptest::collection::vec((0u32..6, arb_message()), 0..40),
            controls in proptest::collection::vec(arb_control(), 0..6),
            budget in 1usize..1024,
        ) {
            let outbox: Vec<(TopicId, WireMessage)> =
                outbox.into_iter().map(|(t, m)| (TopicId(t), m)).collect();
            let (mut stage, mut staged_controls) = (outbox.clone(), controls.clone());
            let frames = seal_at(&mut stage, &mut staged_controls, budget);
            prop_assert!(stage.is_empty() && staged_controls.is_empty(), "stage drained");
            prop_assert_eq!(frames.is_empty(), outbox.is_empty() && controls.is_empty());
            let (mut entries, mut ctls) = (Vec::new(), Vec::new());
            for frame in &frames {
                let decoded = MuxBatch::decode(frame).expect("a valid mux frame");
                let parts = decoded.len() + decoded.controls().len();
                prop_assert!(parts > 0, "no empty frame");
                prop_assert!(
                    frame.len() <= budget || parts == 1,
                    "{} B over a {} B budget with {} parts", frame.len(), budget, parts
                );
                entries.extend(decoded.iter().map(|(t, m)| (t, m.clone())));
                ctls.extend_from_slice(decoded.controls());
            }
            prop_assert_eq!(&entries, &outbox);
            prop_assert_eq!(&ctls, &controls);

            // Byte compatibility: a frame's worth of egress in the order
            // an engine stages it (ascending topics) is the one frame
            // the encoder writes, at a 1 MiB budget and at any budget it
            // fits.
            let mut sorted = outbox;
            sorted.sort_by_key(|&(t, _)| t);
            let whole = (!sorted.is_empty() || !controls.is_empty()).then(|| {
                let mut buf = BytesMut::new();
                encode_mux_frame_with_controls_into(&sorted, &controls, &mut buf);
                buf
            });
            for budget in [budget, 1 << 20] {
                let frames = seal_at(&mut sorted.clone(), &mut controls.clone(), budget);
                match &whole {
                    None => prop_assert!(frames.is_empty()),
                    Some(whole) if whole.len() <= budget => {
                        prop_assert_eq!(frames.len(), 1);
                        prop_assert_eq!(&frames[0][..], &whole[..]);
                    }
                    Some(_) => {
                        prop_assert!(frames.len() > 1 || sorted.len() + controls.len() == 1)
                    }
                }
            }
        }
    }
}
