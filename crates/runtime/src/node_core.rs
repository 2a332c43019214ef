//! The node core and the one node loop (DESIGN.md §13).
//!
//! The paper gives each process one cycle — `receive`, the Task-1
//! `repeat forever` sweep, `URB_broadcast` — over one broadcast
//! primitive. [`NodeCore`] is that cycle with no thread, channel or
//! socket in it: it owns the node's [`TopicEngine`], the buffers a step
//! fills and the detector handle, takes the detector snapshot before
//! every step, applies lifecycle controls and re-queues the ones that
//! changed state, and treats [`TopicEngine::tick_all`] as *the* reap
//! point. A [`Node`] is the core plus its [`Backend`], which names the
//! only things that differ between [`crate::UrbCluster`]'s node threads
//! and [`crate::run_node`]: where a step's frames go, what consumes its
//! deliveries, when the loop ends, and what a frame the engine rejects
//! means. [`run`] is the loop around a node behind a lock —
//! `recv_timeout → lock → {frame | tick} → flush → deliveries → unlock` —
//! which both call; `URB_broadcast` and lifecycle controls are steps
//! whoever holds the lock may take, so the in-process runtime takes them
//! on the caller's thread. Every backend turns staged egress into frames
//! through one sealer, [`seal_frames`].

use crate::registry::MembershipRegistry;
use crate::transport::NetError;
use crate::NodeInput;
use bytes::Bytes;
use crossbeam_channel::{Receiver, RecvTimeoutError};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use urb_core::Algorithm;
use urb_engine::{MuxBuffers, MuxIngressError, StepInput, TopicEngine};
use urb_types::{
    encode_mux_frame_with_controls_into, BufPool, FdSnapshot, Payload, SplitMix64, Tag,
    TopicControl, TopicId, WireMessage,
};

/// One node of a cluster, sans-io: engine, step buffers, detector handle.
pub(crate) struct NodeCore {
    pid: usize,
    n: usize,
    engine: TopicEngine,
    /// What the steps since the last drain emitted and delivered.
    /// [`broadcast`](NodeCore::broadcast) and
    /// [`control`](NodeCore::control) append, so a driver may stage
    /// several of them and flush once; [`receive`](NodeCore::receive) and
    /// [`tick`](NodeCore::tick) start from empty buffers (the engine
    /// clears them), so the driver drains (frames, then deliveries)
    /// before feeding either.
    mux: MuxBuffers,
    registry: Arc<MembershipRegistry>,
}

impl NodeCore {
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
    ) -> Self {
        let engine = TopicEngine::new(
            (0..topics.max(1))
                .map(|_| algorithm.instantiate(n))
                .collect(),
            SplitMix64::new(seed ^ 0xB07B_0B00 ^ (pid as u64) << 32),
        );
        NodeCore {
            pid,
            n,
            engine,
            mux: MuxBuffers::new(),
            registry,
        }
    }

    /// The engine, for what only a driver does with it: snapshots, the
    /// end-of-run report.
    pub(crate) fn engine(&self) -> &TopicEngine {
        &self.engine
    }

    /// Mutable engine access (restoring a recovery point before the first
    /// step).
    pub(crate) fn engine_mut(&mut self) -> &mut TopicEngine {
        &mut self.engine
    }

    /// What the steps since the last drain emitted and delivered, for the
    /// driver to drain.
    pub(crate) fn mux(&mut self) -> &mut MuxBuffers {
        &mut self.mux
    }

    /// The detector view a step must observe: read immediately before it
    /// (the paper's read-only detector variable semantics).
    fn fd(&self) -> FdSnapshot {
        self.registry.snapshot(self.pid, Instant::now())
    }

    /// `URB_broadcast(payload)` on `topic`, its emissions appended to the
    /// staged buffers. Broadcasts land only on live instances: a retired,
    /// draining or never-created topic answers `None` (refused
    /// invocation, DESIGN.md §15) instead of panicking.
    pub(crate) fn broadcast(&mut self, topic: TopicId, payload: Payload) -> Option<Tag> {
        if !self.engine.is_live(topic) {
            return None;
        }
        let fd = self.fd();
        let tag = self
            .engine
            .step_mux(topic, StepInput::Broadcast(payload), &fd, &mut self.mux);
        Some(tag.expect("urb_broadcast assigns a tag"))
    }

    /// Applies one lifecycle control entered at this node; when it changed
    /// state it is staged to ride the next outgoing frame so the rest of
    /// the cluster converges. Returns whether it changed state.
    pub(crate) fn control(&mut self, ctl: TopicControl) -> bool {
        let changed = self.apply(ctl);
        if changed {
            self.mux.controls.push(ctl);
        }
        changed
    }

    /// Applies one lifecycle control operation to the engine (DESIGN.md
    /// §15). Returns `true` when the engine's state actually changed — the
    /// gossip-forwarding predicate: a control is re-gossiped exactly when
    /// applying it changed something, so the flood over an idempotent
    /// operation terminates at the first node that already knew.
    fn apply(&mut self, ctl: TopicControl) -> bool {
        match ctl {
            TopicControl::Create {
                topic,
                algorithm,
                param,
            } => match Algorithm::from_wire(algorithm, param) {
                Some(alg) if alg.runs_with(self.n) => {
                    self.engine.create_topic(topic, alg.instantiate(self.n))
                }
                // Unknown algorithm code (newer peer) or a parameter this
                // cluster size cannot run: refuse locally and do not
                // forward — any peer or one-shot client can send this, so
                // it must never reach an assertion.
                _ => false,
            },
            TopicControl::Retire { topic } => self.engine.retire_topic(topic),
            TopicControl::Subscribe { topic } => self.engine.subscribe(topic),
            TopicControl::Unsubscribe { topic } => self.engine.unsubscribe(topic),
        }
    }

    /// One received frame: every entry steps its topic instance under a
    /// fresh detector snapshot, then the frame's control section is
    /// applied and exactly the controls that changed state are queued for
    /// the next outgoing frame (gossip onward). On error nothing was
    /// stepped and the buffers are left as they were.
    pub(crate) fn receive(&mut self, frame: &Bytes) -> Result<(), MuxIngressError> {
        let (registry, pid) = (&self.registry, self.pid);
        self.engine
            .receive_mux_frame(frame, &mut self.mux, |_, _| {
                registry.snapshot(pid, Instant::now())
            })?;
        let mut controls = std::mem::take(&mut self.mux.controls);
        controls.retain(|&ctl| self.apply(ctl));
        self.mux.controls = controls;
        Ok(())
    }

    /// One node tick: the Task-1 sweep of every topic instance.
    /// `tick_all` ends with the reap of drained instances — ticks are the
    /// reap points, once per tick, the same budget the simulator and the
    /// checker give a retiring topic.
    pub(crate) fn tick(&mut self) {
        let fd = self.fd();
        self.engine.tick_all(&fd, &mut self.mux);
    }
}

/// The largest frame [`seal_frames`] builds, bytes: 1 MiB, a sixteenth of
/// the [`MAX_FRAME_LEN`](crate::transport::MAX_FRAME_LEN) a peer's
/// reassembler accepts. A longer frame is stream corruption to the
/// receiver, which drops the connection — and the sender would re-seal
/// the same frame on every tick — so a node's egress stays well inside
/// the cap, and only a single entry larger than the budget leaves in a
/// frame of its own. A per-step frame of the in-process planes is far
/// smaller, so it is exactly the frame
/// [`MuxBuffers::take_mux_frame`] seals.
pub(crate) const FRAME_BUDGET: usize = 1 << 20;

/// Mux frame layout (DESIGN.md §12), bytes: frame tag + sub-batch count,
/// topic id + message count per sub-batch, a length prefix per message,
/// section tag + count for the control section.
const FRAME_HEADER: usize = 1 + 4;
const SUB_BATCH_HEADER: usize = 4 + 4;
const MESSAGE_PREFIX: usize = 4;
const CONTROL_HEADER: usize = 1 + 4;

/// Seals staged egress — topic-tagged outbox entries, then pending
/// controls — into mux frames of at most `budget` bytes and hands them to
/// `send` in order. Entries keep their order: a frame ends where the next
/// entry would overflow the budget or where the topic goes down (a
/// frame's sub-batches ascend), so decoding the frames in order gives
/// back the outbox exactly; each control rides exactly one frame, after
/// the last entries. An entry or control larger than the budget leaves
/// in a frame of its own. Staged egress within the budget leaves as one
/// frame, byte-identical to [`MuxBuffers::take_mux_frame`]'s. Both
/// vectors are drained (capacity kept) and one pooled encode buffer
/// serves every frame. Returns `false` once `send` does (the far side is
/// gone); the rest is dropped.
pub(crate) fn seal_frames(
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

/// What differs between the backends of the node loop ([`run`]).
pub(crate) trait Backend {
    /// Called after every step and before the first wait, with the
    /// instant the next Task-1 tick is due. `None` ends the loop
    /// (crash-stop, run budget spent); otherwise the instant the loop
    /// must wake by even if no input arrives.
    fn wake_at(&mut self, now: Instant, next_tick: Instant) -> Option<Instant>;

    /// Seals what the staged steps left in `mux`'s outbox and controls
    /// ([`seal_frames`], [`FRAME_BUDGET`]) and sends the frames to every
    /// process, the sender included. `false` when the far side is gone
    /// and the loop should end.
    fn flush(&mut self, mux: &mut MuxBuffers) -> bool;

    /// Consumes the step's deliveries (`core.mux().deliveries`) and does
    /// whatever housekeeping the backend hangs off the end of a step.
    fn settle(&mut self, core: &mut NodeCore) -> Result<(), NetError>;

    /// A frame the codec or the engine rejected: a bug between in-process
    /// peers, a lost message on a socket.
    fn rejected(&mut self, err: MuxIngressError);
}

/// A node: its core and the backend its steps drain into. [`run`] and
/// every other thread that steps the node hold it behind one lock, so
/// a step, its flush and its deliveries are one critical section.
pub(crate) struct Node<B> {
    pub(crate) core: NodeCore,
    pub(crate) backend: B,
}

impl<B: Backend> Node<B> {
    /// Sends what the steps since the last drain staged and hands over
    /// their deliveries. `Ok(false)` when the backend's far side is gone.
    pub(crate) fn drain(&mut self) -> Result<bool, NetError> {
        if !self.backend.flush(self.core.mux()) {
            return Ok(false);
        }
        self.backend.settle(&mut self.core)?;
        Ok(true)
    }
}

/// The node loop. Waits on the single input FIFO with the next tick as
/// deadline and the node unlocked, then locks it, feeds whatever arrived
/// to the core, drains the step and asks the backend when to wake next.
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
            Ok(NodeInput::Net(frame)) => match node.core.receive(&frame) {
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
                node.core.tick();
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
    use proptest::prelude::*;

    fn core(topics: u32) -> NodeCore {
        let registry = Arc::new(MembershipRegistry::new(3, 1, Duration::from_millis(200)));
        NodeCore::new(0, 3, Algorithm::Majority, topics, 1, registry)
    }

    /// Every frame `seal_frames` makes of `mux` at `budget`.
    fn seal_at(mux: &mut MuxBuffers, budget: usize) -> Vec<Bytes> {
        let mut frames = Vec::new();
        let pool = BufPool::default();
        assert!(seal_frames(
            &mut mux.outbox,
            &mut mux.controls,
            &pool,
            budget,
            |f| {
                frames.push(f);
                true
            }
        ));
        frames
    }

    fn seal(mux: &mut MuxBuffers) -> Vec<Bytes> {
        seal_at(mux, FRAME_BUDGET)
    }

    #[test]
    fn broadcasts_and_controls_stage_until_the_driver_flushes() {
        let mut core = core(2);
        for i in 0..3 {
            assert!(core
                .broadcast(TopicId(0), Payload::from(format!("m{i}").as_str()))
                .is_some());
        }
        assert!(core.control(TopicControl::Retire { topic: TopicId(1) }));
        let frames = seal(core.mux());
        assert_eq!(frames.len(), 1, "one flush, one frame");
        let frame = urb_types::MuxBatch::decode(&frames[0]).unwrap();
        assert_eq!(frame.len(), 3, "every staged MSG rides it");
        assert_eq!(
            frame.controls(),
            &[TopicControl::Retire { topic: TopicId(1) }]
        );
        assert!(
            seal(core.mux()).is_empty(),
            "and the flush drained the stage"
        );
    }

    #[test]
    fn an_alg1_sweep_over_the_frame_cap_leaves_in_frames_a_peer_accepts() {
        use crate::transport::{write_stream_frame, FrameReassembler, MAX_FRAME_LEN};
        // Algorithm 1 never prunes: every tick re-sends all of `MSG_i`.
        // Seventeen 1 MiB payloads (one shared buffer) make that sweep
        // longer than the cap a peer's reassembler enforces.
        let big = Payload::from(vec![7u8; 1 << 20]);
        let mut core = core(1);
        for _ in 0..17 {
            assert!(core.broadcast(TopicId::ZERO, big.clone()).is_some());
        }
        core.mux().clear();
        core.tick();
        let sweep = urb_types::MuxBatch::from_entries(&core.mux().outbox);
        assert_eq!(sweep.len(), 17, "the sweep re-sends every MSG");
        assert!(
            sweep.encoded_len() > MAX_FRAME_LEN,
            "as one frame the sweep is stream corruption to a peer"
        );
        let mut reasm = FrameReassembler::new();
        let mut resent = 0;
        for frame in seal(core.mux()) {
            let mut wire = Vec::new();
            write_stream_frame(&frame, &mut wire);
            reasm.push(&wire);
            let got = reasm.next_frame().expect("under the cap").expect("whole");
            assert_eq!(got, frame);
            resent += urb_types::MuxBatch::decode(&got).unwrap().len();
        }
        assert_eq!(resent, 17, "and nothing of it is lost");
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
                    tag_ack: urb_types::TagAck(a),
                    payload,
                    labels: labels.map(|ls| ls.into_iter().map(urb_types::Label).collect()),
                }),
            (any::<u64>(), any::<u64>()).prop_map(|(l, seq)| WireMessage::Heartbeat {
                label: urb_types::Label(l),
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

    proptest::proptest! {
        /// The sealer over arbitrary staged egress and budgets: every
        /// frame fits the budget unless it carries one oversize entry
        /// alone, the frames decode in order to the outbox exactly and
        /// to each control once, and egress within the budget seals to
        /// the very bytes `take_mux_frame` produces.
        #[test]
        fn sealed_frames_fit_the_budget_and_decode_to_the_stage(
            outbox in proptest::collection::vec((0u32..6, arb_message()), 0..40),
            controls in proptest::collection::vec(arb_control(), 0..6),
            budget in 1usize..1024,
        ) {
            let outbox: Vec<(TopicId, WireMessage)> =
                outbox.into_iter().map(|(t, m)| (TopicId(t), m)).collect();
            let mut mux = MuxBuffers::new();
            mux.outbox = outbox.clone();
            mux.controls = controls.clone();
            let frames = seal_at(&mut mux, budget);
            prop_assert!(mux.outbox.is_empty() && mux.controls.is_empty(), "stage drained");
            prop_assert_eq!(frames.is_empty(), outbox.is_empty() && controls.is_empty());
            let (mut entries, mut ctls) = (Vec::new(), Vec::new());
            for frame in &frames {
                let decoded = urb_types::MuxBatch::decode(frame).expect("a valid mux frame");
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
            // an engine stages it (ascending topics) is the frame
            // `take_mux_frame` seals, at the product budget and at any
            // budget it fits.
            let mut sorted = outbox;
            sorted.sort_by_key(|&(t, _)| t);
            let mut reference = MuxBuffers::new();
            reference.outbox = sorted.clone();
            reference.controls = controls.clone();
            let whole = reference.take_mux_frame(&BufPool::default());
            for budget in [budget, FRAME_BUDGET] {
                mux.outbox = sorted.clone();
                mux.controls = controls.clone();
                let frames = seal_at(&mut mux, budget);
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

    #[test]
    fn a_retiring_topic_gets_the_whole_drain_limit() {
        // Algorithm 1 never prunes, so a topic that broadcast once is
        // never quiescent and only the drain budget reaps it. With limit
        // L the instance survives L node ticks and goes on tick L + 1;
        // reaping twice per tick would halve that.
        const L: u32 = 6;
        let mut core = core(2);
        let topic = TopicId(1);
        core.engine_mut().set_drain_limit(L);
        assert!(core.broadcast(topic, Payload::from("pending")).is_some());
        assert!(core.control(TopicControl::Retire { topic }));
        assert!(core.broadcast(topic, Payload::from("late")).is_none());
        for tick in 1..=L {
            core.tick();
            assert!(
                core.engine().has_instance(topic),
                "still draining after tick {tick} of {L}"
            );
        }
        core.tick();
        assert!(!core.engine().has_instance(topic), "reaped on tick L + 1");
        assert!(core.engine().is_retired(topic));
    }

    #[test]
    fn surfaced_controls_are_requeued_only_when_they_change_state() {
        let (code, param) = Algorithm::Majority.to_wire();
        let create = TopicControl::Create {
            topic: TopicId(7),
            algorithm: code,
            param,
        };
        let mut frame = bytes::BytesMut::new();
        urb_types::encode_mux_frame_with_controls_into(&[], &[create], &mut frame);
        let frame = frame.freeze();
        let mut core = core(1);
        core.receive(&frame).expect("well-formed frame");
        assert!(core.engine().is_live(TopicId(7)));
        assert_eq!(core.mux().controls, vec![create], "news is gossiped on");
        assert_eq!(seal(core.mux()).len(), 1);
        core.receive(&frame).expect("well-formed frame");
        assert!(core.mux().controls.is_empty(), "the flood stops here");
        assert!(seal(core.mux()).is_empty());
    }

    #[test]
    fn an_uninstantiable_create_is_refused_and_not_gossiped() {
        // (algorithm, param) pairs `instantiate` would assert on for n = 3:
        // backoff cap 0, weakened threshold 0, weakened threshold > n.
        for (i, (algorithm, param)) in [(4u8, 0u32), (1, 0), (1, 9)].into_iter().enumerate() {
            let topic = TopicId(7 + i as u32);
            let create = TopicControl::Create {
                topic,
                algorithm,
                param,
            };
            let mut frame = bytes::BytesMut::new();
            urb_types::encode_mux_frame_with_controls_into(&[], &[create], &mut frame);
            let mut core = core(1);
            core.receive(&frame.freeze()).expect("well-formed frame");
            assert!(!core.engine().has_instance(topic), "{create}: refused");
            assert!(core.mux().controls.is_empty(), "{create}: not gossiped");
            assert!(seal(core.mux()).is_empty());
            // The node is alive and still serves its own topic.
            assert!(core.broadcast(TopicId(0), Payload::from("m")).is_some());
            // Entered locally (`urb topic`), the same create changes nothing.
            assert!(!core.control(create));
        }
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
        fn flush(&mut self, mux: &mut MuxBuffers) -> bool {
            self.frames.extend(seal(mux));
            true
        }
        fn settle(&mut self, core: &mut NodeCore) -> Result<(), NetError> {
            self.deliveries += core.mux().deliveries.drain(..).count();
            Ok(())
        }
        fn rejected(&mut self, err: MuxIngressError) {
            self.rejected.push(err);
        }
    }

    #[test]
    fn a_rejected_frame_goes_to_the_backend_and_the_loop_keeps_serving() {
        let (tx, rx) = crossbeam_channel::unbounded::<NodeInput>();
        let node = Mutex::new(Node {
            core: core(1),
            backend: Probe::default(),
        });
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
                let tag = node
                    .core
                    .broadcast(TopicId::ZERO, Payload::from("after the garbage"));
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
