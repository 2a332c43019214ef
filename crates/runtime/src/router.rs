//! The lossy broadcast medium of the threaded runtime: sender-side
//! fan-out (DESIGN.md §12).
//!
//! A node routes its own frames. Every encoded multiplexed frame a node
//! seals goes, on the sending thread and under the node's lock, to all
//! `n` inboxes (sender included — the paper's `broadcast` primitive).
//! There is no router thread: a frame copy crosses one thread boundary,
//! from the sender to the receiver's inbox. Because one sender's frames
//! are pushed in the order it seals them, each (sender, receiver) pair
//! is FIFO, which the control flood relies on (a `Create` reaches a peer
//! before the first `MSG` on its topic).
//!
//! Nodes exchange real wire bytes, not in-memory structs: a node encodes
//! its step's mux outbox through the zero-copy codec
//! (`urb_types::seal_frames`) and decodes incoming frames with shared
//! payloads (`urb_engine::Node::receive_frame`), so the runtime exercises
//! the exact serialization boundary a networked deployment would.
//!
//! Loss is applied **per message copy**: [`Fanout::route`] decodes the
//! frame once (zero-copy — the decoded payloads are refcounted views of
//! the frame), drops each message independently per destination from
//! the sender's own loss stream (seeded from `(seed, pid)`), and forwards
//!
//! * the **original frame** (a refcount bump, no bytes touched) to every
//!   destination whose copy survived intact;
//! * a **re-encoded thinned frame** (built in a pooled buffer, no
//!   per-message allocation) when loss thinned it.
//!
//! The sender's own copy is never thinned. Loss thins *messages* — the
//! unit the fair-lossy axioms quantify over. A frame's lifecycle control
//! section (DESIGN.md §15) is not a message: it reaches every
//! destination intact, on the thinned frame too, and a frame with nothing
//! but controls left is still forwarded.
//!
//! Traffic counters count *messages*, not frames, so quiescence
//! observation and statistics are unchanged by batching or multiplexing
//! — every sender writes the same shared counters.

use crate::NodeInput;
use bytes::Bytes;
use crossbeam_channel::Sender;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use urb_types::{
    encode_mux_frame_with_controls_into, BufPool, MuxBatch, RandomSource, TopicControl, TopicId,
    WireKind, WireMessage, Xoshiro256,
};

/// Aggregate routing statistics (summed across every sender).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// MSG + ACK messages routed (broadcast invocations, not copies).
    pub protocol_messages: u64,
    /// Heartbeats routed.
    pub heartbeats: u64,
    /// Multiplexed frames sealed and routed (one per producing protocol
    /// step, more only past the frame budget).
    pub batches: u64,
    /// Message copies dropped by loss injection.
    pub dropped_copies: u64,
    /// Message copies delivered into inboxes.
    pub delivered_copies: u64,
    /// Destination fan-outs served by forwarding the original frame
    /// (refcount bump — no re-encode, no copy).
    pub forwarded_frames: u64,
    /// Destination fan-outs that required re-encoding a thinned
    /// sub-batch.
    pub reencoded_frames: u64,
}

/// Shared counters written by every sending node.
#[derive(Default)]
pub struct TrafficCounters {
    protocol_messages: AtomicU64,
    heartbeats: AtomicU64,
    batches: AtomicU64,
    dropped_copies: AtomicU64,
    delivered_copies: AtomicU64,
    forwarded_frames: AtomicU64,
    reencoded_frames: AtomicU64,
    /// Nanoseconds after [`epoch`], plus one, of the last MSG/ACK routed
    /// (quiescence detection); 0 while none was.
    last_protocol: AtomicU64,
}

/// What `TrafficCounters::last_protocol` counts from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

impl TrafficCounters {
    /// Snapshot of the counters.
    pub fn snapshot(&self) -> TrafficStats {
        TrafficStats {
            protocol_messages: self.protocol_messages.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            dropped_copies: self.dropped_copies.load(Ordering::Relaxed),
            delivered_copies: self.delivered_copies.load(Ordering::Relaxed),
            forwarded_frames: self.forwarded_frames.load(Ordering::Relaxed),
            reencoded_frames: self.reencoded_frames.load(Ordering::Relaxed),
        }
    }

    /// When the last protocol message was routed by any node.
    pub fn last_protocol_activity(&self) -> Option<Instant> {
        match self.last_protocol.load(Ordering::Relaxed) {
            0 => None,
            ns => Some(epoch() + Duration::from_nanos(ns - 1)),
        }
    }

    fn protocol_activity_now(&self) {
        let ns = epoch().elapsed().as_nanos() as u64 + 1;
        self.last_protocol.fetch_max(ns, Ordering::Relaxed);
    }
}

/// One node's half of the lossy medium: its loss stream, the inboxes it
/// fans out to and the scratch [`Fanout::route`] reuses, so routing a
/// frame allocates nothing per message. Thinned frames are re-encoded in
/// buffers from `pool` (shared with every node).
pub(crate) struct Fanout {
    from: usize,
    pub(crate) inboxes: Vec<Sender<NodeInput>>,
    loss: f64,
    rng: Xoshiro256,
    counters: Arc<TrafficCounters>,
    pool: BufPool,
    /// The decoded frame, its controls, and one destination's survivors.
    decoded: Vec<(TopicId, WireMessage)>,
    controls: Vec<TopicControl>,
    survivors: Vec<(TopicId, WireMessage)>,
}

impl Fanout {
    /// The fan-out of node `from`, whose loss stream is a function of
    /// `(seed, from)` alone.
    pub(crate) fn new(
        from: usize,
        inboxes: Vec<Sender<NodeInput>>,
        loss: f64,
        seed: u64,
        counters: Arc<TrafficCounters>,
        pool: BufPool,
    ) -> Self {
        Fanout {
            from,
            inboxes,
            loss,
            rng: Xoshiro256::new(seed ^ 0x4007_E4B0_5555_0001 ^ (from as u64) << 40),
            counters,
            pool,
            decoded: Vec::new(),
            controls: Vec::new(),
            survivors: Vec::new(),
        }
    }

    /// Wakes the owning node's loop so it sees it was stopped.
    pub(crate) fn wake_self(&self) {
        let _ = self.inboxes[self.from].send(NodeInput::Stop);
    }

    /// Routes one sealed frame to every inbox, thinning each copy but the
    /// sender's own. A closed inbox is a stopped node; copies to it
    /// vanish, like messages to a dead process.
    pub(crate) fn route(&mut self, frame: Bytes) {
        // In-process frames come from the node's own zero-copy mux
        // encode; a decode failure is a codec bug, not a network
        // condition.
        MuxBatch::decode_shared_with_controls_into(&frame, &mut self.decoded, &mut self.controls)
            .expect("malformed frame from node — codec bug");
        let counters = &self.counters;
        counters.batches.fetch_add(1, Ordering::Relaxed);
        let heartbeats = self
            .decoded
            .iter()
            .filter(|(_, msg)| msg.kind() == WireKind::Heartbeat)
            .count() as u64;
        let protocol = self.decoded.len() as u64 - heartbeats;
        counters.heartbeats.fetch_add(heartbeats, Ordering::Relaxed);
        if protocol > 0 {
            counters
                .protocol_messages
                .fetch_add(protocol, Ordering::Relaxed);
            counters.protocol_activity_now();
        }
        for (to, inbox) in self.inboxes.iter().enumerate() {
            let thin = to != self.from && self.loss > 0.0;
            let outgoing = if thin {
                self.survivors.clear();
                let (rng, loss) = (&mut self.rng, self.loss);
                let survivors = self.decoded.iter().filter(|_| !rng.gen_bool(loss));
                self.survivors.extend(survivors.cloned());
                let dropped = self.decoded.len() - self.survivors.len();
                counters
                    .dropped_copies
                    .fetch_add(dropped as u64, Ordering::Relaxed);
                if self.survivors.is_empty() && self.controls.is_empty() {
                    continue;
                }
                if dropped == 0 {
                    // Nothing dropped: forward the original frame.
                    counters.forwarded_frames.fetch_add(1, Ordering::Relaxed);
                    frame.clone()
                } else {
                    let mut buf = self.pool.acquire();
                    encode_mux_frame_with_controls_into(&self.survivors, &self.controls, &mut buf);
                    counters.reencoded_frames.fetch_add(1, Ordering::Relaxed);
                    Bytes::copy_from_slice(&buf)
                }
            } else {
                counters.forwarded_frames.fetch_add(1, Ordering::Relaxed);
                frame.clone()
            };
            let count = if thin { &self.survivors } else { &self.decoded }.len() as u64;
            if inbox.send(NodeInput::Net(outgoing)).is_ok() {
                counters
                    .delivered_copies
                    .fetch_add(count, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::{unbounded, Receiver};
    use urb_types::{Payload, Tag};

    fn frame_of(entries: &[(u32, u128)]) -> Bytes {
        let mux = MuxBatch::from_entries(
            &entries
                .iter()
                .map(|&(t, tag)| {
                    (
                        TopicId(t),
                        WireMessage::Msg {
                            tag: Tag(tag),
                            payload: Payload::from("m"),
                        },
                    )
                })
                .collect::<Vec<_>>(),
        );
        mux.encode()
    }

    fn recv_mux(rx: &Receiver<NodeInput>) -> MuxBatch {
        match rx.try_recv().expect("an input") {
            NodeInput::Net(frame) => MuxBatch::decode_shared(&frame).expect("valid frame"),
            NodeInput::Stop => panic!("routing never sends a stop"),
        }
    }

    /// `n` inboxes and the fan-out of node `from` over them.
    fn fanout(
        from: usize,
        n: usize,
        loss: f64,
        seed: u64,
        pool: BufPool,
    ) -> (Fanout, Vec<Receiver<NodeInput>>, Arc<TrafficCounters>) {
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| unbounded()).unzip();
        let counters = Arc::new(TrafficCounters::default());
        let fanout = Fanout::new(from, txs, loss, seed, Arc::clone(&counters), pool);
        (fanout, rxs, counters)
    }

    #[test]
    fn fans_out_to_all_including_sender() {
        let (mut fanout, inbox_rx, counters) = fanout(1, 3, 0.0, 1, BufPool::default());
        fanout.route(frame_of(&[(0, 7)]));
        for r in &inbox_rx {
            let mux = recv_mux(r);
            assert_eq!(mux.sub_batches()[0].1[0].tag(), Some(Tag(7)));
        }
        let s = counters.snapshot();
        assert_eq!(s.protocol_messages, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.delivered_copies, 3);
        assert_eq!(
            s.forwarded_frames, 3,
            "lossless fan-out is pure refcount forwarding"
        );
        assert_eq!(s.reencoded_frames, 0);
        assert!(counters.last_protocol_activity().is_some());
    }

    #[test]
    fn self_copy_survives_total_loss() {
        let (mut fanout, inbox_rx, counters) = fanout(0, 2, 1.0, 2, BufPool::default());
        fanout.route(frame_of(&[(0, 9)]));
        assert_eq!(recv_mux(&inbox_rx[0]).len(), 1, "self copy delivered");
        assert!(inbox_rx[1].try_recv().is_err(), "peer copy lost");
        assert_eq!(counters.snapshot().dropped_copies, 1);
    }

    #[test]
    fn controls_reach_every_inbox_at_total_loss() {
        // Loss thins messages, never the lifecycle control section: at
        // loss 1.0 a control-only frame is forwarded as it is, and a
        // data + control frame arrives stripped of its messages but with
        // its controls.
        let (mut fanout, inbox_rx, counters) = fanout(0, 2, 1.0, 4, BufPool::default());
        let ctl = TopicControl::Retire { topic: TopicId(3) };
        let mut control_only = MuxBatch::new();
        control_only.push_control(ctl);
        fanout.route(control_only.encode());
        let mut mixed = MuxBatch::decode(&frame_of(&[(0, 5), (3, 6)])).unwrap();
        mixed.push_control(ctl);
        fanout.route(mixed.encode());
        for (rx, survivors) in [(&inbox_rx[0], 2), (&inbox_rx[1], 0)] {
            let first = recv_mux(rx);
            assert_eq!((first.len(), first.controls()), (0, &[ctl][..]));
            let second = recv_mux(rx);
            assert_eq!((second.len(), second.controls()), (survivors, &[ctl][..]));
        }
        let s = counters.snapshot();
        assert_eq!(s.dropped_copies, 2);
        assert_eq!(s.reencoded_frames, 1, "the peer's stripped frame");
    }

    #[test]
    fn batch_members_are_dropped_independently_across_topics() {
        // With 50% loss over a 64-message two-topic frame, the surviving
        // sub-batch is (with overwhelming probability) neither empty nor
        // complete — loss applies per message, not per frame or topic —
        // and the thinned destination receives a re-encoded mux frame.
        let pool = BufPool::default();
        let (mut fanout, inbox_rx, counters) = fanout(0, 2, 0.5, 3, pool.clone());
        let entries: Vec<(u32, u128)> = (0..64).map(|i| ((i / 32) as u32, i)).collect();
        fanout.route(frame_of(&entries));
        assert_eq!(recv_mux(&inbox_rx[0]).len(), 64, "self sub-batch intact");
        let survived_mux = recv_mux(&inbox_rx[1]);
        let survived = survived_mux.len();
        assert!(survived > 0 && survived < 64, "got {survived}/64");
        let s = counters.snapshot();
        assert_eq!(s.delivered_copies as usize, 64 + survived);
        assert_eq!(s.dropped_copies as usize, 64 - survived);
        assert_eq!(s.reencoded_frames, 1, "thinned sub-batch re-encoded");
        assert_eq!(pool.stats().acquired, 1, "re-encode used the pool");
    }

    #[test]
    fn heartbeats_counted_separately() {
        let (mut fanout, _inbox_rx, counters) = fanout(0, 1, 0.0, 3, BufPool::default());
        let hb = MuxBatch::from_entries(&[(
            TopicId::ZERO,
            WireMessage::Heartbeat {
                label: urb_types::Label(1),
                seq: 0,
            },
        )]);
        fanout.route(hb.encode());
        let s = counters.snapshot();
        assert_eq!(s.heartbeats, 1);
        assert_eq!(s.protocol_messages, 0);
        assert!(counters.last_protocol_activity().is_none());
    }
}
