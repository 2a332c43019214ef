//! The lossy broadcast medium of the threaded runtime — the sharded wire
//! plane of the topic system (DESIGN.md §12).
//!
//! One or more **router lanes** (threads) fan every node's outgoing
//! **encoded multiplexed frame** out to all `n` inboxes (sender included
//! — the paper's `broadcast` primitive). Topics are sharded across lanes
//! (`lane = topic % lanes`): each node partitions its step's topic-tagged
//! outbox by lane and sends one [`urb_types::MuxBatch`] frame per lane
//! that has traffic, so independent topics ride independent router
//! threads and the routing plane scales with cores, not with topic
//! count. A single-lane single-topic cluster degenerates to the previous
//! one-router design.
//!
//! Nodes and router exchange real wire bytes, not in-memory structs: a
//! node encodes its step's mux outbox through the zero-copy codec
//! (`node_core::seal_frames`, over the whole outbox on single-lane
//! clusters and over each lane's partition otherwise) and decodes
//! incoming frames with shared payloads
//! (`TopicEngine::receive_mux_frame`), so the runtime exercises the
//! exact serialization boundary a networked deployment would.
//!
//! Loss is applied **per message copy**, exactly as in the unbatched
//! design: each lane decodes its ingress frame once (zero-copy — the
//! decoded payloads are refcounted views of the frame), drops each
//! message independently per destination, and forwards
//!
//! * the **original frame** (a refcount bump, no bytes touched) to every
//!   destination whose sub-batch survived intact;
//! * a **re-encoded thinned frame** (built in a pooled buffer, no
//!   per-message allocation) when loss thinned the batch.
//!
//! Loss thins *messages* — the unit the fair-lossy axioms quantify over.
//! A frame's lifecycle control section (DESIGN.md §15) is not a message:
//! it reaches every destination intact, on the thinned frame too, and a
//! frame with nothing but controls left is still forwarded.
//!
//! Traffic counters count *messages*, not frames, so quiescence
//! observation and statistics are unchanged by batching, multiplexing or
//! sharding — every lane writes the same shared counters.

use crate::NodeInput;
use bytes::Bytes;
use crossbeam_channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use urb_types::{
    encode_mux_frame_with_controls_into, BufPool, MuxBatch, RandomSource, TopicControl, TopicId,
    WireKind, WireMessage, Xoshiro256,
};

/// Aggregate router statistics (summed across every lane).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// MSG + ACK messages routed (broadcast invocations, not copies).
    pub protocol_messages: u64,
    /// Heartbeats routed.
    pub heartbeats: u64,
    /// Multiplexed frames routed (one per producing protocol step and
    /// lane with traffic).
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

/// Shared counters written by every router lane.
#[derive(Default)]
pub struct TrafficCounters {
    protocol_messages: AtomicU64,
    heartbeats: AtomicU64,
    batches: AtomicU64,
    dropped_copies: AtomicU64,
    delivered_copies: AtomicU64,
    forwarded_frames: AtomicU64,
    reencoded_frames: AtomicU64,
    /// Instant of the last MSG/ACK routed (quiescence detection).
    last_protocol: Mutex<Option<Instant>>,
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

    /// When the last protocol message crossed any lane.
    pub fn last_protocol_activity(&self) -> Option<Instant> {
        *self.last_protocol.lock()
    }
}

/// Spawns one router lane thread. It exits when every node-side sender
/// for this lane is gone. Frame buffers for thinned sub-batches come
/// from `pool` (shared with the nodes), so the lane allocates nothing
/// per message. `lane` seeds the lane's own loss RNG stream, so
/// different lanes drop independently.
pub fn spawn_router_lane(
    lane: usize,
    ingress: Receiver<(usize, Bytes)>,
    inboxes: Vec<Sender<NodeInput>>,
    loss: f64,
    seed: u64,
    counters: Arc<TrafficCounters>,
    pool: BufPool,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("urb-router-{lane}"))
        .spawn(move || {
            let mut rng = Xoshiro256::new(seed ^ 0x4007_E4B0_5555_0001 ^ (lane as u64) << 40);
            // Reusable scratch: the decoded ingress entries and controls,
            // and the per-destination survivor list.
            let mut decoded: Vec<(TopicId, WireMessage)> = Vec::new();
            let mut controls: Vec<TopicControl> = Vec::new();
            let mut survivors: Vec<(TopicId, WireMessage)> = Vec::new();
            while let Ok((from, frame)) = ingress.recv() {
                // In-process frames come from the node's zero-copy mux
                // encode; a decode failure is a codec bug, not a network
                // condition.
                MuxBatch::decode_shared_with_controls_into(&frame, &mut decoded, &mut controls)
                    .expect("malformed frame from node — codec bug");
                counters.batches.fetch_add(1, Ordering::Relaxed);
                let mut protocol = 0u64;
                let mut heartbeats = 0u64;
                for (_, msg) in &decoded {
                    match msg.kind() {
                        WireKind::Heartbeat => heartbeats += 1,
                        _ => protocol += 1,
                    }
                }
                counters.heartbeats.fetch_add(heartbeats, Ordering::Relaxed);
                if protocol > 0 {
                    counters
                        .protocol_messages
                        .fetch_add(protocol, Ordering::Relaxed);
                    *counters.last_protocol.lock() = Some(Instant::now());
                }
                for (to, inbox) in inboxes.iter().enumerate() {
                    // Per-copy loss, per message inside the frame; the
                    // sender-to-self sub-batch is never thinned.
                    let thin = to != from && loss > 0.0;
                    let outgoing: Bytes = if thin {
                        survivors.clear();
                        survivors.extend(decoded.iter().filter(|_| !rng.gen_bool(loss)).cloned());
                        counters
                            .dropped_copies
                            .fetch_add((decoded.len() - survivors.len()) as u64, Ordering::Relaxed);
                        if survivors.is_empty() && controls.is_empty() {
                            continue;
                        }
                        if survivors.len() == decoded.len() {
                            // Nothing dropped: the original frame is the
                            // sub-batch — forward it untouched.
                            counters.forwarded_frames.fetch_add(1, Ordering::Relaxed);
                            frame.clone()
                        } else {
                            let mut buf = pool.acquire();
                            encode_mux_frame_with_controls_into(&survivors, &controls, &mut buf);
                            counters.reencoded_frames.fetch_add(1, Ordering::Relaxed);
                            Bytes::copy_from_slice(&buf)
                        }
                    } else {
                        counters.forwarded_frames.fetch_add(1, Ordering::Relaxed);
                        frame.clone()
                    };
                    let count = if thin { survivors.len() } else { decoded.len() } as u64;
                    // A closed inbox = crashed/stopped node; copies to it
                    // simply vanish, like messages to a dead process.
                    if inbox.send(NodeInput::Net(outgoing)).is_ok() {
                        counters
                            .delivered_copies
                            .fetch_add(count, Ordering::Relaxed);
                    }
                }
            }
        })
        .expect("spawn router lane thread")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;
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

    fn recv_mux(rx: &crossbeam_channel::Receiver<NodeInput>) -> MuxBatch {
        match rx.try_recv().expect("an input") {
            NodeInput::Net(frame) => MuxBatch::decode_shared(&frame).expect("valid frame"),
            NodeInput::Cmd(_) => panic!("router never sends commands"),
        }
    }

    #[test]
    fn fans_out_to_all_including_sender() {
        let (tx, rx) = unbounded();
        let mut inbox_rx = Vec::new();
        let mut inbox_tx = Vec::new();
        for _ in 0..3 {
            let (t, r) = unbounded();
            inbox_tx.push(t);
            inbox_rx.push(r);
        }
        let counters = Arc::new(TrafficCounters::default());
        let h = spawn_router_lane(
            0,
            rx,
            inbox_tx,
            0.0,
            1,
            Arc::clone(&counters),
            BufPool::default(),
        );
        tx.send((1, frame_of(&[(0, 7)]))).unwrap();
        drop(tx);
        h.join().unwrap();
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
        let (tx, rx) = unbounded();
        let mut inbox_rx = Vec::new();
        let mut inbox_tx = Vec::new();
        for _ in 0..2 {
            let (t, r) = unbounded();
            inbox_tx.push(t);
            inbox_rx.push(r);
        }
        let counters = Arc::new(TrafficCounters::default());
        let h = spawn_router_lane(
            0,
            rx,
            inbox_tx,
            1.0,
            2,
            Arc::clone(&counters),
            BufPool::default(),
        );
        tx.send((0, frame_of(&[(0, 9)]))).unwrap();
        drop(tx);
        h.join().unwrap();
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
        let (tx, rx) = unbounded();
        let (self_tx, self_rx) = unbounded();
        let (peer_tx, peer_rx) = unbounded();
        let counters = Arc::new(TrafficCounters::default());
        let h = spawn_router_lane(
            0,
            rx,
            vec![self_tx, peer_tx],
            1.0,
            4,
            Arc::clone(&counters),
            BufPool::default(),
        );
        let ctl = TopicControl::Retire { topic: TopicId(3) };
        let mut control_only = MuxBatch::new();
        control_only.push_control(ctl);
        tx.send((0, control_only.encode())).unwrap();
        let mut mixed = MuxBatch::decode(&frame_of(&[(0, 5), (3, 6)])).unwrap();
        mixed.push_control(ctl);
        tx.send((0, mixed.encode())).unwrap();
        drop(tx);
        h.join().unwrap();
        for (rx, survivors) in [(&self_rx, 2), (&peer_rx, 0)] {
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
        let (tx, rx) = unbounded();
        let (peer_tx, peer_rx) = unbounded();
        let (self_tx, self_rx) = unbounded();
        let counters = Arc::new(TrafficCounters::default());
        let pool = BufPool::default();
        let h = spawn_router_lane(
            0,
            rx,
            vec![self_tx, peer_tx],
            0.5,
            3,
            Arc::clone(&counters),
            pool.clone(),
        );
        let entries: Vec<(u32, u128)> = (0..64).map(|i| ((i / 32) as u32, i)).collect();
        tx.send((0, frame_of(&entries))).unwrap();
        drop(tx);
        h.join().unwrap();
        assert_eq!(recv_mux(&self_rx).len(), 64, "self sub-batch intact");
        let survived_mux = recv_mux(&peer_rx);
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
        let (tx, rx) = unbounded();
        let (t, _r) = unbounded();
        let counters = Arc::new(TrafficCounters::default());
        let h = spawn_router_lane(
            0,
            rx,
            vec![t],
            0.0,
            3,
            Arc::clone(&counters),
            BufPool::default(),
        );
        let hb = MuxBatch::from_entries(&[(
            TopicId::ZERO,
            WireMessage::Heartbeat {
                label: urb_types::Label(1),
                seq: 0,
            },
        )]);
        tx.send((0, hb.encode())).unwrap();
        drop(tx);
        h.join().unwrap();
        let s = counters.snapshot();
        assert_eq!(s.heartbeats, 1);
        assert_eq!(s.protocol_messages, 0);
        assert!(counters.last_protocol_activity().is_none());
    }
}
