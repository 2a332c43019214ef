//! The runtime's node and the one node loop (DESIGN.md §13).
//!
//! The protocol side of a process is [`urb_engine::Node`], the node
//! every driver steps. The runtime wraps it in a [`Node`] that supplies
//! what only the runtime knows: the detector view, read from the
//! [`MembershipRegistry`] immediately before every step (the paper's
//! read-only detector variable), the `(seed, pid)` tag stream, and the
//! [`Backend`], which names the only things that differ between
//! [`crate::UrbCluster`]'s node threads and [`crate::run_node`]: where a
//! step's frames go, what consumes its deliveries, when the loop ends,
//! and what a frame the engine rejects means. [`run`] is the loop around
//! a node behind a lock —
//! `recv_timeout → lock → {frame | tick} → flush → deliveries → unlock` —
//! which both call; `URB_broadcast` and lifecycle controls are steps
//! whoever holds the lock may take, so the in-process runtime takes them
//! on the caller's thread. Staged egress becomes frames in one place,
//! [`Node::flush`], through one sealer, [`seal_frames`], at
//! [`FRAME_BUDGET`]; a backend only sends them.

use crate::registry::MembershipRegistry;
use crate::transport::NetError;
use crate::NodeInput;
use bytes::Bytes;
use crossbeam_channel::{Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use urb_core::Algorithm;
use urb_engine::MuxIngressError;
use urb_types::{seal_frames, BufPool, FdSnapshot, Payload, SplitMix64, Tag, TopicId};

/// The largest frame [`seal_frames`] builds here, bytes: 1 MiB,
/// a sixteenth of the [`MAX_FRAME_LEN`](crate::transport::MAX_FRAME_LEN) a
/// peer's reassembler accepts. A longer frame is stream corruption to the
/// receiver, which drops the connection — and the sender would re-seal
/// the same frame on every tick — so a node's egress stays well inside
/// the cap, and only a single entry larger than the budget leaves in a
/// frame of its own. A per-step frame of the in-process planes is far
/// smaller, so it is exactly the frame
/// [`urb_engine::MuxBuffers::take_mux_frame`] seals.
pub(crate) const FRAME_BUDGET: usize = 1 << 20;

/// What differs between the backends of the node loop ([`run`]).
pub(crate) trait Backend {
    /// Called after every step and before the first wait, with the
    /// instant the next Task-1 tick is due. `None` ends the loop
    /// (crash-stop, run budget spent); otherwise the instant the loop
    /// must wake by even if no input arrives.
    fn wake_at(&mut self, now: Instant, next_tick: Instant) -> Option<Instant>;

    /// Sends one sealed frame to every process, the sender included.
    /// `false` when the far side is gone and the loop should end.
    fn send(&mut self, frame: Bytes) -> bool;

    /// Consumes the step's deliveries (`node.mux().deliveries`) and does
    /// whatever housekeeping the backend hangs off the end of a step.
    fn settle(&mut self, node: &mut urb_engine::Node) -> Result<(), NetError>;

    /// A frame the codec or the engine rejected: a bug between in-process
    /// peers, a lost message on a socket.
    fn rejected(&mut self, err: MuxIngressError);
}

/// A node of the runtime: the engine's node, the detector it reads before
/// every step, and the backend its steps drain into. [`run`] and every
/// other thread that steps the node hold it behind one lock, so a step,
/// its flush and its deliveries are one critical section.
pub(crate) struct Node<B> {
    pid: usize,
    registry: Arc<MembershipRegistry>,
    pub(crate) inner: urb_engine::Node,
    /// Encode scratch for [`Node::flush`].
    pool: BufPool,
    pub(crate) backend: B,
}

impl<B: Backend> Node<B> {
    /// Builds node `pid` of an `n`-node cluster serving the dense topics
    /// `0..topics`. The tag stream is derived from `(seed, pid)` here and
    /// nowhere else, so an in-process node and a daemon node with the same
    /// `(seed, pid)` draw identical tags.
    pub(crate) fn new(
        pid: usize,
        n: usize,
        algorithm: Algorithm,
        topics: u32,
        seed: u64,
        registry: Arc<MembershipRegistry>,
        backend: B,
    ) -> Self {
        let rng = SplitMix64::new(seed ^ 0xB07B_0B00 ^ (pid as u64) << 32);
        Node {
            pid,
            registry,
            inner: urb_engine::Node::new(n, algorithm, topics, rng),
            pool: BufPool::default(),
            backend,
        }
    }

    /// The detector view a step must observe: read immediately before it.
    fn fd(&self) -> FdSnapshot {
        self.registry.snapshot(self.pid, Instant::now())
    }

    /// `URB_broadcast(payload)` on `topic` ([`urb_engine::Node::broadcast`]):
    /// `None` unless the topic is live here.
    pub(crate) fn broadcast(&mut self, topic: TopicId, payload: Payload) -> Option<Tag> {
        let fd = self.fd();
        self.inner.broadcast(topic, payload, &fd)
    }

    /// One received frame under one detector view: the frame arrives at one
    /// instant, and the registry only moves on a crash plus the detection
    /// delay.
    fn receive(&mut self, frame: &Bytes) -> Result<(), MuxIngressError> {
        let fd = self.fd();
        self.inner.receive_frame(frame, &fd)
    }

    /// One node tick.
    fn tick(&mut self) {
        let fd = self.fd();
        self.inner.tick(&fd);
    }

    /// Seals what the steps since the last drain staged into frames of at
    /// most [`FRAME_BUDGET`] bytes and sends each through the backend.
    /// `false` when the backend's far side is gone.
    pub(crate) fn flush(&mut self) -> bool {
        let (mux, backend) = (self.inner.mux(), &mut self.backend);
        seal_frames(
            &mut mux.outbox,
            &mut mux.controls,
            &self.pool,
            FRAME_BUDGET,
            |frame| backend.send(frame),
        )
    }

    /// Sends what the steps since the last drain staged and hands over
    /// their deliveries. `Ok(false)` when the backend's far side is gone.
    pub(crate) fn drain(&mut self) -> Result<bool, NetError> {
        if !self.flush() {
            return Ok(false);
        }
        self.backend.settle(&mut self.inner)?;
        Ok(true)
    }
}

/// The node loop. Waits on the single input FIFO with the next tick as
/// deadline and the node unlocked, then locks it, feeds whatever arrived
/// to the node, drains the step and asks the backend when to wake next.
/// Returns when the backend says so, on a stop wake-up, or when the input
/// side is gone.
pub(crate) fn run<B: Backend, I: Into<NodeInput>>(
    node: &Mutex<Node<B>>,
    inputs: &Receiver<I>,
    tick_interval: Duration,
) -> Result<(), NetError> {
    let mut next_tick = Instant::now() + tick_interval;
    let mut wake = node.lock().backend.wake_at(Instant::now(), next_tick);
    while let Some(deadline) = wake {
        let input = inputs
            .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            .map(Into::into);
        let mut guard = node.lock();
        let node = &mut *guard;
        let stepped = match input {
            Ok(NodeInput::Net(frame)) => match node.receive(&frame) {
                Ok(()) => true,
                Err(err) => {
                    node.backend.rejected(err);
                    false
                }
            },
            Ok(NodeInput::Stop) | Err(RecvTimeoutError::Disconnected) => return Ok(()),
            // Woke for the backend's deadline, not the tick.
            Err(RecvTimeoutError::Timeout) if Instant::now() < next_tick => false,
            Err(RecvTimeoutError::Timeout) => {
                node.tick();
                next_tick = Instant::now() + tick_interval;
                true
            }
        };
        if stepped && !node.drain()? {
            return Ok(());
        }
        wake = node.backend.wake_at(Instant::now(), next_tick);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(topics: u32) -> Node<Probe> {
        let registry = Arc::new(MembershipRegistry::new(3, 1, Duration::from_millis(200)));
        Node::new(
            0,
            3,
            Algorithm::Majority,
            topics,
            1,
            registry,
            Probe::default(),
        )
    }

    #[test]
    fn an_alg1_sweep_over_the_frame_cap_leaves_in_frames_a_peer_accepts() {
        use crate::transport::{write_stream_frame, FrameReassembler, MAX_FRAME_LEN};
        // Algorithm 1 never prunes: every tick re-sends all of `MSG_i`.
        // Seventeen 1 MiB payloads (one shared buffer) make that sweep
        // longer than the cap a peer's reassembler enforces.
        let big = Payload::from(vec![7u8; 1 << 20]);
        let mut node = node(1);
        for _ in 0..17 {
            assert!(node.broadcast(TopicId::ZERO, big.clone()).is_some());
        }
        node.inner.mux().clear();
        node.tick();
        let sweep = urb_types::MuxBatch::from_entries(&node.inner.mux().outbox);
        assert_eq!(sweep.len(), 17, "the sweep re-sends every MSG");
        assert!(
            sweep.encoded_len() > MAX_FRAME_LEN,
            "as one frame the sweep is stream corruption to a peer"
        );
        let mut reasm = FrameReassembler::new();
        let mut resent = 0;
        assert!(node.flush());
        for frame in std::mem::take(&mut node.backend.frames) {
            let mut wire = Vec::new();
            write_stream_frame(&frame, &mut wire).unwrap();
            reasm.push(&wire);
            let got = reasm.next_frame().expect("under the cap").expect("whole");
            assert_eq!(got, frame);
            resent += urb_types::MuxBatch::decode(&got).unwrap().len();
        }
        assert_eq!(resent, 17, "and nothing of it is lost");
    }

    /// A backend that records what the loop hands it.
    #[derive(Default)]
    struct Probe {
        frames: Vec<Bytes>,
        deliveries: usize,
        rejected: Vec<MuxIngressError>,
    }

    impl Backend for Probe {
        fn wake_at(&mut self, _now: Instant, next_tick: Instant) -> Option<Instant> {
            Some(next_tick)
        }
        fn send(&mut self, frame: Bytes) -> bool {
            self.frames.push(frame);
            true
        }
        fn settle(&mut self, node: &mut urb_engine::Node) -> Result<(), NetError> {
            self.deliveries += node.mux().deliveries.drain(..).count();
            Ok(())
        }
        fn rejected(&mut self, err: MuxIngressError) {
            self.rejected.push(err);
        }
    }

    #[test]
    fn a_rejected_frame_goes_to_the_backend_and_the_loop_keeps_serving() {
        let (tx, rx) = crossbeam_channel::unbounded::<NodeInput>();
        let node = Mutex::new(node(1));
        std::thread::scope(|s| {
            let looping = s.spawn(|| run(&node, &rx, Duration::from_secs(60)));
            assert!(tx
                .send(NodeInput::Net(Bytes::copy_from_slice(&[0x42, 0, 1])))
                .is_ok());
            while node.lock().backend.rejected.is_empty() {
                std::thread::yield_now();
            }
            // After the garbage, a broadcast through the lock, on this
            // thread, the way `UrbCluster::broadcast_on` takes one.
            let frame = {
                let mut node = node.lock();
                let tag = node.broadcast(TopicId::ZERO, Payload::from("after the garbage"));
                assert!(tag.is_some(), "broadcast still served");
                assert!(node.drain().unwrap());
                assert_eq!(
                    node.backend.frames.len(),
                    1,
                    "and its MSG left as one frame"
                );
                node.backend.frames[0].clone()
            };
            // The node's own copy of that frame comes back like any other.
            for input in [NodeInput::Net(frame), NodeInput::Stop] {
                assert!(tx.send(input).is_ok());
            }
            looping.join().unwrap().unwrap();
        });
        let probe = node.into_inner().backend;
        assert!(matches!(probe.rejected[..], [MuxIngressError::Codec(_)]));
        assert_eq!(probe.deliveries, 0, "one ACK of three is no majority");
        assert_eq!(probe.frames.len(), 2);
        assert_eq!(
            urb_types::MuxBatch::decode(&probe.frames[1]).unwrap().len(),
            1,
            "but the MSG is acknowledged"
        );
    }
}
