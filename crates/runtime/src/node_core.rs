//! The node core and the one node loop (DESIGN.md §13).
//!
//! The paper gives each process one cycle — `receive`, the Task-1
//! `repeat forever` sweep, `URB_broadcast` — over one broadcast
//! primitive. [`NodeCore`] is that cycle with no thread, channel or
//! socket in it: it owns the node's [`TopicEngine`], the buffers a step
//! fills and the detector handle, takes the detector snapshot before
//! every step, applies lifecycle controls and re-queues the ones that
//! changed state, and treats [`TopicEngine::tick_all`] as *the* reap
//! point. [`run`] is the loop around it —
//! `recv_timeout → {broadcast | control | frame | tick} → flush →
//! deliveries` — which both [`crate::UrbCluster`]'s node threads and
//! [`crate::run_node`] call. A [`Backend`] names the only things that
//! differ between them: where a step's frame goes, what consumes its
//! deliveries, when the loop ends, and what a frame the engine rejects
//! means.

use crate::registry::MembershipRegistry;
use crate::transport::NetError;
use crate::{Command, NodeInput};
use bytes::Bytes;
use crossbeam_channel::{Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};
use urb_core::Algorithm;
use urb_engine::{MuxBuffers, MuxIngressError, StepInput, TopicEngine};
use urb_types::{BufPool, FdSnapshot, Payload, SplitMix64, Tag, TopicControl, TopicId};

/// One node of a cluster, sans-io: engine, step buffers, detector handle.
pub(crate) struct NodeCore {
    pid: usize,
    n: usize,
    engine: TopicEngine,
    /// What the current step emitted and delivered. Every input method
    /// starts from empty buffers; the driver drains them (frame, then
    /// deliveries) before feeding the next input.
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

    /// What the last step emitted and delivered, for the driver to drain.
    pub(crate) fn mux(&mut self) -> &mut MuxBuffers {
        &mut self.mux
    }

    /// The detector view a step must observe: read immediately before it
    /// (the paper's read-only detector variable semantics).
    fn fd(&self) -> FdSnapshot {
        self.registry.snapshot(self.pid, Instant::now())
    }

    /// `URB_broadcast(payload)` on `topic`. Broadcasts land only on live
    /// instances: a retired, draining or never-created topic answers
    /// `None` (refused invocation, DESIGN.md §15) instead of panicking.
    pub(crate) fn broadcast(&mut self, topic: TopicId, payload: Payload) -> Option<Tag> {
        self.mux.clear();
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
    /// state it rides the next outgoing frame so the rest of the cluster
    /// converges. Returns whether it changed state.
    pub(crate) fn control(&mut self, ctl: TopicControl) -> bool {
        self.mux.clear();
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
    /// stepped and the buffers are empty.
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

/// Seals what one step left in `mux` — outbox and pending controls — as
/// one encoded frame through the zero-copy codec. `None` when the step
/// emitted nothing.
pub(crate) fn seal_frame(mux: &mut MuxBuffers, pool: &BufPool) -> Option<Bytes> {
    let scratch = mux.take_mux_frame(pool)?;
    // The encode buffer returns to the pool when `scratch` drops.
    Some(Bytes::copy_from_slice(&scratch))
}

/// What differs between the backends of the node loop ([`run`]).
pub(crate) trait Backend {
    /// Called before every wait, with the instant the next Task-1 tick is
    /// due. `None` ends the loop (crash-stop, run budget spent); otherwise
    /// the instant the loop must wake by even if no input arrives.
    fn wake_at(&mut self, now: Instant, next_tick: Instant) -> Option<Instant>;

    /// Sends the frame(s) of what one step left in `mux`'s outbox and
    /// controls to every process, the sender included. `false` when the
    /// far side is gone and the loop should end.
    fn flush(&mut self, mux: &mut MuxBuffers) -> bool;

    /// Consumes the step's deliveries (`core.mux().deliveries`) and does
    /// whatever housekeeping the backend hangs off the end of a step.
    fn settle(&mut self, core: &mut NodeCore) -> Result<(), NetError>;

    /// A frame the codec or the engine rejected: a bug between in-process
    /// peers, a lost message on a socket.
    fn rejected(&mut self, err: MuxIngressError);
}

/// The node loop. Blocks on the single input FIFO with the next tick as
/// deadline, feeds whatever arrives to `core`, then flushes the step's
/// frame and hands over its deliveries. Returns when the backend says so,
/// on a crash/shutdown command, or when the input side is gone.
pub(crate) fn run<I: Into<NodeInput>>(
    core: &mut NodeCore,
    inputs: &Receiver<I>,
    tick_interval: Duration,
    backend: &mut impl Backend,
) -> Result<(), NetError> {
    let mut next_tick = Instant::now() + tick_interval;
    loop {
        let now = Instant::now();
        let Some(wake) = backend.wake_at(now, next_tick) else {
            return Ok(());
        };
        match inputs
            .recv_timeout(wake.saturating_duration_since(now))
            .map(Into::into)
        {
            Ok(NodeInput::Cmd(Command::Broadcast(topic, payload, reply))) => {
                let _ = reply.send(core.broadcast(topic, payload));
            }
            Ok(NodeInput::Cmd(Command::Control(ctl, reply))) => {
                let _ = reply.send(core.control(ctl));
            }
            // Crash-stop: drop everything on the floor and exit.
            Ok(NodeInput::Cmd(Command::Crash | Command::Shutdown)) => return Ok(()),
            Ok(NodeInput::Net(frame)) => {
                if let Err(err) = core.receive(&frame) {
                    backend.rejected(err);
                    continue;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                if Instant::now() < next_tick {
                    continue; // woke for the backend's deadline, not the tick
                }
                core.tick();
                next_tick = Instant::now() + tick_interval;
            }
            Err(RecvTimeoutError::Disconnected) => return Ok(()),
        }
        if !backend.flush(core.mux()) {
            return Ok(());
        }
        backend.settle(core)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(topics: u32) -> NodeCore {
        let registry = Arc::new(MembershipRegistry::new(3, 1, Duration::from_millis(200)));
        NodeCore::new(0, 3, Algorithm::Majority, topics, 1, registry)
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
        let pool = BufPool::default();
        assert!(seal_frame(core.mux(), &pool).is_some());
        core.receive(&frame).expect("well-formed frame");
        assert!(core.mux().controls.is_empty(), "the flood stops here");
        assert!(seal_frame(core.mux(), &pool).is_none());
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
            assert!(seal_frame(core.mux(), &BufPool::default()).is_none());
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
            self.frames.extend(seal_frame(mux, &BufPool::default()));
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
        let (reply_tx, reply_rx) = crossbeam_channel::bounded(1);
        let inputs = [
            NodeInput::Net(Bytes::copy_from_slice(&[0x42, 0, 1])),
            NodeInput::Cmd(Command::Broadcast(
                TopicId::ZERO,
                Payload::from("after the garbage"),
                reply_tx,
            )),
            NodeInput::Cmd(Command::Shutdown),
        ];
        for input in inputs {
            assert!(tx.send(input).is_ok());
        }
        let mut core = core(1);
        let mut probe = Probe::default();
        run(&mut core, &rx, Duration::from_secs(60), &mut probe).unwrap();
        assert!(matches!(probe.rejected[..], [MuxIngressError::Codec(_)]));
        assert!(
            reply_rx.try_recv().unwrap().is_some(),
            "broadcast still served"
        );
        assert_eq!(probe.frames.len(), 1, "and its MSG left as one frame");
        // The node's own copy of that frame comes back like any other.
        core.receive(&probe.frames[0]).unwrap();
        assert_eq!(
            core.mux().deliveries.len(),
            0,
            "one ACK of three is no majority"
        );
        assert_eq!(core.mux().outbox.len(), 1, "but the MSG is acknowledged");
    }
}
