//! The node (DESIGN.md §2): the paper's process cycle — `receive`, the
//! Task-1 sweep, `URB_broadcast` — sans-io, stepped by every driver. It
//! decides what no driver decides for itself: a broadcast lands only on
//! a live topic, a message for a topic with no instance is inert, and a
//! lifecycle control is decoded and validated in one place
//! ([`Node::apply`]). A driver supplies the detector view of each step
//! (the node reads no clock), the tag stream, and the routing.

use crate::{MuxBuffers, MuxIngressError, StepInput, TopicEngine};
use bytes::Bytes;
use urb_core::Algorithm;
use urb_types::{FdSnapshot, Payload, SplitMix64, Tag, TopicControl, TopicId, WireMessage};

/// One process of an `n`-process system: its engine and step buffers.
#[derive(Debug)]
pub struct Node {
    n: usize,
    engine: TopicEngine,
    /// What the steps since the last drain emitted and delivered.
    /// `broadcast`, `receive` and `control` append, so a driver may stage
    /// several and drain once; `receive_frame` and `tick` start from
    /// empty buffers, so the driver drains before feeding either.
    mux: MuxBuffers,
}

impl Node {
    /// A process of an `n`-process system running `algorithm` on the dense
    /// topics `0..topics`, drawing its tags from `rng`.
    pub fn new(n: usize, algorithm: Algorithm, topics: u32, rng: SplitMix64) -> Self {
        let engine = TopicEngine::new(
            (0..topics.max(1))
                .map(|_| algorithm.instantiate(n))
                .collect(),
            rng,
        );
        Node {
            n,
            engine,
            mux: MuxBuffers::new(),
        }
    }

    /// The engine: quiescence, stats, counters, fingerprints, snapshots.
    pub fn engine(&self) -> &TopicEngine {
        &self.engine
    }

    /// The engine, to configure before the first step (memory mode, drain
    /// budget, restoring a recovery point).
    pub fn engine_mut(&mut self) -> &mut TopicEngine {
        &mut self.engine
    }

    /// What the steps since the last drain emitted and delivered.
    pub fn mux(&mut self) -> &mut MuxBuffers {
        &mut self.mux
    }

    /// `URB_broadcast(payload)` on `topic` under the detector view `fd`.
    /// A draining, retired or never-created topic refuses it: `None`
    /// (DESIGN.md §15).
    pub fn broadcast(&mut self, topic: TopicId, payload: Payload, fd: &FdSnapshot) -> Option<Tag> {
        if !self.engine.is_live(topic) {
            return None;
        }
        let tag = self
            .engine
            .step_mux(topic, StepInput::Broadcast(payload), fd, &mut self.mux);
        Some(tag.expect("urb_broadcast assigns a tag"))
    }

    /// `receive(msg)` at `topic`'s instance under the detector view `fd`.
    /// Inert when the topic holds no instance here — reclaimed after
    /// retirement, or never created (DESIGN.md §15).
    pub fn receive(&mut self, topic: TopicId, msg: WireMessage, fd: &FdSnapshot) {
        if self.engine.has_instance(topic) {
            self.engine
                .step_mux(topic, StepInput::Receive(msg), fd, &mut self.mux);
        }
    }

    /// One received frame: every entry steps its instance under a fresh
    /// view from `fd`, then the frame's controls are applied and exactly
    /// those that changed state stay queued to gossip onward. On error
    /// nothing was stepped.
    pub fn receive_frame(
        &mut self,
        frame: &Bytes,
        mut fd: impl FnMut() -> FdSnapshot,
    ) -> Result<(), MuxIngressError> {
        self.engine
            .receive_mux_frame(frame, &mut self.mux, |_, _| fd())?;
        let mut controls = std::mem::take(&mut self.mux.controls);
        controls.retain(|&ctl| self.apply(ctl));
        self.mux.controls = controls;
        Ok(())
    }

    /// One node tick under the detector view `fd`
    /// ([`TopicEngine::tick_all`]: sweep, reap, compact if configured).
    pub fn tick(&mut self, fd: &FdSnapshot) {
        self.engine.tick_all(fd, &mut self.mux);
    }

    /// Applies a control entered at this node and, when it changed state,
    /// stages it to ride the next outgoing frame.
    pub fn control(&mut self, ctl: TopicControl) -> bool {
        let changed = self.apply(ctl);
        if changed {
            self.mux.controls.push(ctl);
        }
        changed
    }

    /// Applies a lifecycle control (DESIGN.md §15); `true` when it changed
    /// state — the gossip-forwarding predicate. A create naming an unknown
    /// algorithm or one `n` processes cannot run is refused: any peer can
    /// send one, so it must never reach [`Algorithm::instantiate`].
    pub fn apply(&mut self, ctl: TopicControl) -> bool {
        match ctl {
            TopicControl::Create {
                topic,
                algorithm,
                param,
            } => match Algorithm::from_wire(algorithm, param) {
                Some(alg) if alg.runs_with(self.n) => {
                    self.engine.create_topic(topic, alg.instantiate(self.n))
                }
                _ => false,
            },
            TopicControl::Retire { topic } => self.engine.retire_topic(topic),
            TopicControl::Subscribe { topic } => self.engine.subscribe(topic),
            TopicControl::Unsubscribe { topic } => self.engine.unsubscribe(topic),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use urb_types::{encode_mux_frame_with_controls_into, BufPool, MuxBatch, PooledBuf};

    fn node(topics: u32) -> Node {
        Node::new(3, Algorithm::Majority, topics, SplitMix64::new(1))
    }

    /// The one frame everything staged seals to, if anything is staged.
    fn flush(node: &mut Node) -> Option<PooledBuf> {
        node.mux().take_mux_frame(&BufPool::default())
    }

    fn control_frame(ctl: TopicControl) -> Bytes {
        let mut frame = bytes::BytesMut::new();
        encode_mux_frame_with_controls_into(&[], &[ctl], &mut frame);
        frame.freeze()
    }

    #[test]
    fn broadcasts_and_controls_stage_until_the_driver_flushes() {
        let fd = FdSnapshot::none();
        let mut node = node(2);
        for i in 0..3 {
            assert!(node
                .broadcast(TopicId(0), Payload::from(format!("m{i}").as_str()), &fd)
                .is_some());
        }
        assert!(node.control(TopicControl::Retire { topic: TopicId(1) }));
        let frame = flush(&mut node).expect("one flush, one frame");
        let frame = MuxBatch::decode(&frame).unwrap();
        assert_eq!(frame.len(), 3, "every staged MSG rides it");
        assert_eq!(
            frame.controls(),
            &[TopicControl::Retire { topic: TopicId(1) }]
        );
        assert!(
            flush(&mut node).is_none(),
            "and the flush drained the stage"
        );
    }

    #[test]
    fn a_retiring_topic_gets_the_whole_drain_limit() {
        // Algorithm 1 never prunes, so a topic that broadcast once is
        // never quiescent and only the drain budget reaps it. With limit
        // L the instance survives L node ticks and goes on tick L + 1;
        // reaping twice per tick would halve that.
        const L: u32 = 6;
        let fd = FdSnapshot::none();
        let mut node = node(2);
        let topic = TopicId(1);
        node.engine_mut().set_drain_limit(L);
        assert!(node
            .broadcast(topic, Payload::from("pending"), &fd)
            .is_some());
        assert!(node.control(TopicControl::Retire { topic }));
        assert!(node.broadcast(topic, Payload::from("late"), &fd).is_none());
        for tick in 1..=L {
            node.tick(&fd);
            assert!(
                node.engine().has_instance(topic),
                "still draining after tick {tick} of {L}"
            );
        }
        node.tick(&fd);
        assert!(!node.engine().has_instance(topic), "reaped on tick L + 1");
        assert!(node.engine().is_retired(topic));
    }

    #[test]
    fn surfaced_controls_are_requeued_only_when_they_change_state() {
        let (code, param) = Algorithm::Majority.to_wire();
        let create = TopicControl::Create {
            topic: TopicId(7),
            algorithm: code,
            param,
        };
        let frame = control_frame(create);
        let mut node = node(1);
        node.receive_frame(&frame, FdSnapshot::none)
            .expect("well-formed frame");
        assert!(node.engine().is_live(TopicId(7)));
        assert_eq!(node.mux().controls, vec![create], "news is gossiped on");
        assert!(flush(&mut node).is_some());
        node.receive_frame(&frame, FdSnapshot::none)
            .expect("well-formed frame");
        assert!(node.mux().controls.is_empty(), "the flood stops here");
        assert!(flush(&mut node).is_none());
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
            let mut node = node(1);
            node.receive_frame(&control_frame(create), FdSnapshot::none)
                .expect("well-formed frame");
            assert!(!node.engine().has_instance(topic), "{create}: refused");
            assert!(node.mux().controls.is_empty(), "{create}: not gossiped");
            assert!(flush(&mut node).is_none());
            // The node is alive and still serves its own topic.
            let fd = FdSnapshot::none();
            assert!(node
                .broadcast(TopicId(0), Payload::from("m"), &fd)
                .is_some());
            // Entered locally (`urb topic`), the same create changes nothing.
            assert!(!node.control(create));
        }
    }

    /// One step of a random node script.
    #[derive(Clone, Debug)]
    enum Op {
        Broadcast(u32),
        /// Receive an earlier emission (index mod count; a fresh MSG when
        /// nothing was emitted yet) at a topic of the script's choosing.
        Receive(u32, usize),
        Tick,
        /// Create with an algorithm picked by index, parameter as drawn.
        Create(u32, usize, u32),
        /// Create under a wire code no algorithm has.
        CreateUnknown(u32, u8),
        Retire(u32),
        Subscribe(u32),
        Unsubscribe(u32),
    }

    fn algorithm(pick: usize, param: u32) -> Algorithm {
        match pick % 7 {
            0 => Algorithm::Majority,
            1 => Algorithm::WeakenedMajority { threshold: param },
            2 => Algorithm::Quiescent,
            3 => Algorithm::QuiescentLiteral,
            4 => Algorithm::MajorityBackoff { cap: param },
            5 => Algorithm::BestEffort,
            _ => Algorithm::EagerRb,
        }
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        // Topics 0..4 over a node configured with 0..2: two topics
        // exist from the start, two only once a script creates them.
        (0u8..8, 0u32..4, any::<usize>(), 0u32..5, 7u8..255).prop_map(
            |(kind, topic, pick, param, code)| match kind {
                0 => Op::Broadcast(topic),
                1 => Op::Receive(topic, pick),
                2 => Op::Tick,
                3 => Op::Create(topic, pick, param),
                4 => Op::CreateUnknown(topic, code),
                5 => Op::Retire(topic),
                6 => Op::Subscribe(topic),
                _ => Op::Unsubscribe(topic),
            },
        )
    }

    /// What a driver spelled out before [`Node`] existed: guarded
    /// [`TopicEngine`] calls, the create decoded by the driver itself.
    struct HandSpelled {
        engine: TopicEngine,
        mux: MuxBuffers,
    }

    impl HandSpelled {
        fn run(&mut self, op: &Op, msg: &WireMessage, fd: &FdSnapshot) {
            const N: usize = 3;
            let e = &mut self.engine;
            match *op {
                Op::Broadcast(t) => {
                    if e.is_live(TopicId(t)) {
                        let payload = Payload::from(format!("b{t}").as_str());
                        e.step_mux(TopicId(t), StepInput::Broadcast(payload), fd, &mut self.mux);
                    }
                }
                Op::Receive(t, _) => {
                    if e.has_instance(TopicId(t)) {
                        e.step_mux(
                            TopicId(t),
                            StepInput::Receive(msg.clone()),
                            fd,
                            &mut self.mux,
                        );
                    }
                }
                Op::Tick => e.tick_all(fd, &mut self.mux),
                Op::Create(t, pick, param) => {
                    let alg = algorithm(pick, param);
                    if alg.runs_with(N) {
                        e.create_topic(TopicId(t), alg.instantiate(N));
                    }
                }
                Op::CreateUnknown(..) => {}
                Op::Retire(t) => {
                    e.retire_topic(TopicId(t));
                }
                Op::Subscribe(t) => {
                    e.subscribe(TopicId(t));
                }
                Op::Unsubscribe(t) => {
                    e.unsubscribe(TopicId(t));
                }
            }
        }
    }

    fn run_node(node: &mut Node, op: &Op, msg: &WireMessage, fd: &FdSnapshot) {
        match *op {
            Op::Broadcast(t) => {
                let payload = Payload::from(format!("b{t}").as_str());
                node.broadcast(TopicId(t), payload, fd);
            }
            Op::Receive(t, _) => node.receive(TopicId(t), msg.clone(), fd),
            Op::Tick => node.tick(fd),
            Op::Create(t, pick, param) => {
                let (algorithm, param) = algorithm(pick, param).to_wire();
                node.apply(TopicControl::Create {
                    topic: TopicId(t),
                    algorithm,
                    param,
                });
            }
            Op::CreateUnknown(t, code) => {
                node.apply(TopicControl::Create {
                    topic: TopicId(t),
                    algorithm: code,
                    param: 1,
                });
            }
            Op::Retire(t) => {
                node.apply(TopicControl::Retire { topic: TopicId(t) });
            }
            Op::Subscribe(t) => {
                node.apply(TopicControl::Subscribe { topic: TopicId(t) });
            }
            Op::Unsubscribe(t) => {
                node.apply(TopicControl::Unsubscribe { topic: TopicId(t) });
            }
        }
    }

    proptest! {
        /// `Node` is exactly the guarded engine calls every driver used
        /// to spell out: over random scripts of broadcasts (on live,
        /// draining, retired and never-created topics), receives
        /// (including at topics with no instance), ticks and every
        /// control kind — creates round-tripping every `Algorithm`
        /// through its wire code — both produce the same emissions and
        /// deliveries step by step, and end with the same counters,
        /// fingerprint and snapshot bytes.
        #[test]
        fn a_node_steps_exactly_like_the_guarded_engine_calls(
            ops in proptest::collection::vec(arb_op(), 0..60),
            drain_limit in 1u32..4,
        ) {
            let fd = FdSnapshot::none();
            let mut node = node(2);
            node.engine_mut().set_drain_limit(drain_limit);
            let mut reference = HandSpelled {
                engine: TopicEngine::new(
                    (0..2).map(|_| Algorithm::Majority.instantiate(3)).collect(),
                    SplitMix64::new(1),
                ),
                mux: MuxBuffers::new(),
            };
            reference.engine.set_drain_limit(drain_limit);
            let mut emitted: Vec<WireMessage> = Vec::new();
            for op in &ops {
                let msg = match *op {
                    Op::Receive(_, k) if !emitted.is_empty() => emitted[k % emitted.len()].clone(),
                    _ => WireMessage::Msg { tag: Tag(7), payload: Payload::from("fresh") },
                };
                run_node(&mut node, op, &msg, &fd);
                reference.run(op, &msg, &fd);
                prop_assert_eq!(&node.mux.outbox, &reference.mux.outbox, "{:?}", op);
                prop_assert_eq!(&node.mux.deliveries, &reference.mux.deliveries, "{:?}", op);
                emitted.extend(node.mux.outbox.iter().map(|(_, m)| m.clone()));
                node.mux.clear();
                reference.mux.clear();
            }
            let (a, b) = (node.engine(), &reference.engine);
            prop_assert_eq!(a.counters(), b.counters());
            prop_assert_eq!(a.fingerprint(), b.fingerprint());
            prop_assert_eq!(a.save_snapshot().ok(), b.save_snapshot().ok());
        }
    }
}
