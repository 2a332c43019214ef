//! The **simulated world** (DESIGN.md §2): a simulated system but for its
//! network and its clock, which each driver supplies.

use crate::crash::{CrashPlan, CrashRule};
use crate::metrics::{BroadcastRecord, DeliveryRecord};
use crate::sim::SimConfig;
use urb_core::Algorithm;
use urb_engine::{Node, TopicAction};
use urb_fd::FdService;
use urb_types::{Payload, SplitMix64, TopicId, WireMessage};

/// The nodes, the crash set and the failure detector. The event-queue
/// simulator ([`crate::sim`]), the schedule checker (`urb-check`) and the
/// load planes ([`mod@crate::soak`], [`mod@crate::openloop`]) all step a
/// `World`. A step runs at one node under the detector view of its
/// instant, and the driver routes what it emitted ([`World::outbox`]) and
/// records what it delivered ([`World::drain_deliveries`]) before that
/// node's next tick. A step at a crashed node is a no-op.
pub struct World {
    /// Builds the fleet afresh: what a snapshot restart restores into.
    fleet: Box<dyn Fn() -> Vec<Node> + Send>,
    algorithm: Algorithm,
    crashes: CrashPlan,
    nodes: Vec<Node>,
    /// `Some(t)` once the process crashed at `t`.
    crash_times: Vec<Option<u64>>,
    /// URB-deliveries per process (the first arms a crash-on-first-delivery
    /// rule).
    delivered: Vec<u64>,
    fd: Box<dyn FdService>,
    /// The detector's messages of the tick being stepped.
    heartbeats: Vec<WireMessage>,
}

impl World {
    /// The tag streams of a simulated run at `seed`.
    pub fn streams(seed: u64) -> SplitMix64 {
        SplitMix64::new(seed ^ 0x5EED_0F00_D000_0001)
    }

    /// The system `cfg` describes — size, algorithm, topics, `[memory]`,
    /// drain budget and crash adversary — observed by the detector `fd`.
    /// Node `i` draws its tags from the `i`-th split of `streams`.
    pub fn new(cfg: &SimConfig, streams: SplitMix64, fd: Box<dyn FdService>) -> Self {
        let (n, algorithm, topics) = (cfg.n, cfg.algorithm, cfg.topics.max(1));
        let (memory, drain_limit) = (cfg.memory, cfg.drain_ticks);
        let fleet = move || -> Vec<Node> {
            let node = |i| {
                let mut node = Node::new(n, algorithm, topics, streams.split(i as u64));
                let e = node.engine_mut();
                if let Some(mem) = memory {
                    e.configure_memory(mem);
                }
                e.set_drain_limit(drain_limit);
                node
            };
            (0..n).map(node).collect()
        };
        World {
            nodes: fleet(),
            fleet: Box::new(fleet),
            algorithm,
            crashes: cfg.crashes.clone(),
            crash_times: vec![None; n],
            delivered: vec![0; n],
            fd,
            heartbeats: Vec::new(),
        }
    }

    /// Every node, crashed ones included.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// True once `pid` crashed.
    pub fn is_crashed(&self, pid: usize) -> bool {
        self.crash_times[pid].is_some()
    }

    /// When each process crashed (`None`: alive).
    pub fn crash_times(&self) -> &[Option<u64>] {
        &self.crash_times
    }

    /// URB-deliveries per process so far.
    pub fn delivered(&self) -> &[u64] {
        &self.delivered
    }

    /// True when the adversary may crash `pid` now: it is alive and its
    /// rule is a timed crash, or a crash on first delivery after one.
    pub fn crash_armed(&self, pid: usize) -> bool {
        !self.is_crashed(pid)
            && match self.crashes.rule(pid) {
                CrashRule::Never => false,
                CrashRule::At(_) => true,
                CrashRule::OnFirstDelivery { .. } => self.delivered[pid] > 0,
            }
    }

    /// `URB_broadcast(payload)` at `pid` on `topic`; `None` when `pid`
    /// crashed or the topic is not live there (DESIGN.md §15).
    pub fn broadcast(
        &mut self,
        pid: usize,
        topic: TopicId,
        payload: Payload,
        now: u64,
    ) -> Option<BroadcastRecord> {
        if self.is_crashed(pid) {
            return None;
        }
        let fd = self.fd.snapshot(pid, now);
        let tag = self.nodes[pid].broadcast(topic, payload.clone(), &fd)?;
        Some(BroadcastRecord {
            pid,
            topic,
            tag,
            time: now,
            payload,
        })
    }

    /// `receive(msg)` at `pid`. The detector sees the message first:
    /// traffic for a topic holding no instance here is inert at the node,
    /// not at the detector.
    pub fn receive(&mut self, pid: usize, topic: TopicId, msg: WireMessage, now: u64) {
        if !self.is_crashed(pid) {
            self.fd.on_receive(pid, now, &msg);
            let fd = self.fd.snapshot(pid, now);
            self.nodes[pid].receive(topic, msg, &fd);
        }
    }

    /// One tick at `pid`: the node tick — Task 1 of every instance, the
    /// reap of drained topics, compaction in bounded-memory mode — under
    /// the view taken after the detector's own tick, whose heartbeats
    /// (topic-less, on [`TopicId::ZERO`]) lead the outbox.
    pub fn tick(&mut self, pid: usize, now: u64) {
        if self.is_crashed(pid) {
            return;
        }
        self.fd.on_tick(pid, now, &mut self.heartbeats);
        let fd = self.fd.snapshot(pid, now);
        let node = &mut self.nodes[pid];
        node.tick(&fd);
        if !self.heartbeats.is_empty() {
            let beats = self.heartbeats.drain(..).map(|m| (TopicId::ZERO, m));
            node.mux().outbox.splice(0..0, beats);
        }
    }

    /// Crashes `pid` at `now`; false when it already had.
    pub fn crash(&mut self, pid: usize, now: u64) -> bool {
        if self.is_crashed(pid) {
            return false;
        }
        self.crash_times[pid] = Some(now);
        self.fd.on_crash(pid, now);
        true
    }

    /// Applies a lifecycle action at every live node at once (DESIGN.md
    /// §15). The action never travels, so it is not a wire control: a
    /// created topic may run any algorithm the run's `n` admits, the
    /// ablations included, which [`Node::apply`] refuses from the wire.
    pub fn apply(&mut self, action: TopicAction) {
        let n = self.nodes.len();
        let live = self.nodes.iter_mut().zip(&self.crash_times);
        for (node, _) in live.filter(|(_, at)| at.is_none()) {
            let engine = node.engine_mut();
            match action {
                TopicAction::Create { topic, algorithm } => {
                    let alg = algorithm.unwrap_or(self.algorithm);
                    if alg.runs_with(n) {
                        engine.create_topic(topic, alg.instantiate(n));
                    }
                }
                TopicAction::Retire { topic } => {
                    engine.retire_topic(topic);
                }
            }
        }
    }

    /// What `pid`'s steps since the last drain emitted, grouped in
    /// ascending topic order, for the driver to route.
    pub fn outbox(&mut self, pid: usize) -> &mut Vec<(TopicId, WireMessage)> {
        &mut self.nodes[pid].mux().outbox
    }

    /// Drains what `pid`'s steps since the last drain URB-delivered into
    /// `record`, in order, stamped `now`. Returns the rule's delay when
    /// these were `pid`'s first deliveries under a crash-on-first-delivery
    /// rule, which arms now.
    pub fn drain_deliveries(
        &mut self,
        pid: usize,
        now: u64,
        mut record: impl FnMut(DeliveryRecord),
    ) -> Option<u64> {
        let deliveries = &mut self.nodes[pid].mux().deliveries;
        let first = self.delivered[pid] == 0 && !deliveries.is_empty();
        self.delivered[pid] += deliveries.len() as u64;
        for (topic, d) in deliveries.drain(..) {
            record(DeliveryRecord {
                pid,
                topic,
                tag: d.tag,
                time: now,
                fast: d.fast,
                payload: d.payload,
            });
        }
        match self.crashes.rule(pid) {
            CrashRule::OnFirstDelivery { delay } if first => Some(delay),
            _ => None,
        }
    }

    /// True when every live node is quiescent.
    pub fn is_quiescent(&self) -> bool {
        let mut nodes = self.nodes.iter().zip(&self.crash_times);
        nodes.all(|(node, at)| at.is_some() || node.engine().is_quiescent())
    }

    /// Serializes every engine and restores each into a freshly built
    /// node — a crash and recovery of the whole system, which must change
    /// nothing.
    pub fn restart_from_snapshots(&mut self) {
        let mut fresh = (self.fleet)();
        for (new, old) in fresh.iter_mut().zip(&self.nodes) {
            let bytes = old
                .engine()
                .save_snapshot()
                .expect("the algorithm supports snapshots");
            new.engine_mut()
                .restore_snapshot(&bytes)
                .expect("own snapshot restores");
        }
        self.nodes = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urb_fd::{HeartbeatConfig, HeartbeatService, NoFd};
    use urb_types::WireKind;

    fn world(algorithm: Algorithm, crashes: CrashPlan, fd: Box<dyn FdService>) -> World {
        let cfg = SimConfig::new(3, algorithm).crashes(crashes);
        World::new(&cfg, World::streams(7), fd)
    }

    #[test]
    fn a_step_at_a_crashed_node_is_a_no_op() {
        let mut w = world(Algorithm::Majority, CrashPlan::none(3), Box::new(NoFd));
        assert!(w.crash(1, 5));
        assert!(!w.crash(1, 9), "a process crashes once");
        assert_eq!(w.crash_times(), [None, Some(5), None]);
        assert!(w
            .broadcast(1, TopicId::ZERO, Payload::from("m"), 6)
            .is_none());
        let rec = w
            .broadcast(0, TopicId::ZERO, Payload::from("m"), 6)
            .unwrap();
        assert_eq!((rec.pid, rec.time), (0, 6));
        let (_, msg) = w.outbox(0).pop().unwrap();
        w.receive(1, TopicId::ZERO, msg.clone(), 7);
        w.tick(1, 8);
        assert_eq!(w.nodes()[1].engine().counters().steps, 0);
        assert!(w.outbox(1).is_empty());
        w.receive(2, TopicId::ZERO, msg, 7);
        assert_eq!(w.nodes()[2].engine().counters().receives, 1);
        assert!(!w.is_quiescent(), "process 2 holds the message");
    }

    #[test]
    fn the_first_delivery_arms_a_crash_on_first_delivery_rule() {
        let rules = vec![
            CrashRule::OnFirstDelivery { delay: 4 },
            CrashRule::At(100),
            CrashRule::Never,
        ];
        let mut w = world(
            Algorithm::EagerRb,
            CrashPlan::from_rules(rules),
            Box::new(NoFd),
        );
        assert!(!w.crash_armed(0), "armed only after a delivery");
        assert!(w.crash_armed(1) && !w.crash_armed(2));
        // Eager RB delivers at the broadcaster as it broadcasts.
        w.broadcast(0, TopicId::ZERO, Payload::from("m"), 3)
            .unwrap();
        let mut records = Vec::new();
        assert_eq!(w.drain_deliveries(0, 3, |d| records.push(d)), Some(4));
        assert_eq!((records.len(), records[0].time), (1, 3));
        assert_eq!(w.drain_deliveries(0, 3, |_| unreachable!()), None);
        assert_eq!(w.delivered(), [1, 0, 0]);
        assert!(w.crash_armed(0));
        w.crash(0, 7);
        assert!(!w.crash_armed(0), "a crashed process is not crashable");
    }

    #[test]
    fn heartbeats_lead_the_outbox_of_a_tick() {
        let (fd, _) = HeartbeatService::new(3, 7, HeartbeatConfig::default());
        let mut w = world(Algorithm::Majority, CrashPlan::none(3), Box::new(fd));
        w.broadcast(0, TopicId::ZERO, Payload::from("m"), 0)
            .unwrap();
        w.outbox(0).clear();
        w.tick(0, 1);
        let kinds: Vec<WireKind> = w.outbox(0).iter().map(|(_, m)| m.kind()).collect();
        assert_eq!(kinds, [WireKind::Heartbeat, WireKind::Msg]);
    }
}
