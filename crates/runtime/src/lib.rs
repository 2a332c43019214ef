//! # `urb-runtime`
//!
//! A real concurrent deployment of the paper's protocols: one OS thread per
//! anonymous process, an in-process router — sharded into one or more
//! **lanes** with topics distributed `topic % lanes` (DESIGN.md §12) —
//! that implements the lossy broadcast medium over the multiplexed
//! message plane, explicit crash injection, and a registry-backed failure
//! detector. Every protocol step runs through the shared `urb-engine`
//! layer — the *same* code path the discrete-event simulator executes —
//! so the runtime deploys byte-for-byte the state machines the simulator
//! proves things about. Each node runs one protocol instance per topic
//! ([`urb_engine::TopicEngine`]); deliveries carry their
//! [`urb_types::TopicId`] and can be consumed per topic via
//! [`UrbCluster::subscribe`].
//!
//! Where the simulator provides *provable* runs (deterministic, checked),
//! the runtime provides *believable* ones: actual threads racing through
//! `parking_lot` locks and `crossbeam` channels, wall-clock tick loops, and
//! message loss injected on live traffic. The examples (`quickstart`,
//! `crash_storm`) and the runtime integration tests use it.
//!
//! ```no_run
//! use urb_runtime::{ClusterConfig, UrbCluster};
//! use urb_core::Algorithm;
//!
//! let cluster = UrbCluster::spawn(ClusterConfig::new(5, Algorithm::Quiescent));
//! let tag = cluster.broadcast(0, "hello, anonymous world".into()).unwrap();
//! cluster.await_delivery_everywhere(tag, std::time::Duration::from_secs(5));
//! cluster.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod daemon;
pub mod lanes;
mod node;
mod node_core;
mod registry;
mod router;
pub mod state;
pub mod transport;

pub use daemon::{
    expected_payloads, run_node, run_reference, send_control, workload_payload, NodeConfig,
    NodeReport, TopicDeliveries,
};
pub use lanes::LaneDirectory;
pub use registry::MembershipRegistry;
pub use router::TrafficStats;
pub use state::{RecoveredState, StateDir, StateError};
pub use transport::{MeshConfig, NetError, NetStats, TcpMesh};

use crossbeam_channel::{bounded, unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use urb_core::Algorithm;
use urb_types::{Delivery, Payload, Tag, TopicControl, TopicId};

/// One per-topic delivery subscription: the topic filter and the
/// subscriber's channel (fed `(pid, delivery)` pairs).
type TopicSubscriber = (TopicId, Sender<(usize, Delivery)>);

/// Configuration of a local cluster.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of anonymous processes (each gets its own OS thread).
    pub n: usize,
    /// Protocol to run.
    pub algorithm: Algorithm,
    /// Bernoulli loss probability applied to every routed copy
    /// (sender-to-self copies are never lost, mirroring the simulator).
    pub loss: f64,
    /// Task-1 sweep period.
    pub tick_interval: Duration,
    /// How long after `crash()` the victim's label disappears from detector
    /// views (the `AP*` removal latency, in real time).
    pub detection_delay: Duration,
    /// Seed for the router's loss RNG and the label draws (tags still use
    /// per-node seeded streams, so runs are loss-pattern-reproducible even
    /// though thread interleaving is not).
    pub seed: u64,
    /// Number of concurrent URB instances (topics) every node serves
    /// (DESIGN.md §12). Defaults to 1.
    pub topics: u32,
    /// Number of router lanes the topics are sharded across
    /// (`lane = topic % router_lanes`); each lane is its own thread.
    /// Defaults to 1, the pre-topic single-router design.
    pub router_lanes: usize,
}

impl ClusterConfig {
    /// Defaults: no loss, 20 ms ticks, 200 ms detection delay.
    pub fn new(n: usize, algorithm: Algorithm) -> Self {
        ClusterConfig {
            n,
            algorithm,
            loss: 0.0,
            tick_interval: Duration::from_millis(20),
            detection_delay: Duration::from_millis(200),
            seed: 0x5EED,
            topics: 1,
            router_lanes: 1,
        }
    }

    /// Sets the number of topics per node.
    pub fn topics(mut self, topics: u32) -> Self {
        self.topics = topics.max(1);
        self
    }

    /// Sets the number of router lanes.
    pub fn router_lanes(mut self, lanes: usize) -> Self {
        self.router_lanes = lanes.max(1);
        self
    }

    /// Sets the per-copy loss probability.
    pub fn loss(mut self, p: f64) -> Self {
        self.loss = p;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Commands a node thread accepts.
pub(crate) enum Command {
    /// Invoke `URB_broadcast(payload)` on one topic instance; reply with
    /// the assigned tag, or `None` when the topic is not live at that
    /// node (refused invocation — DESIGN.md §15).
    Broadcast(TopicId, Payload, Sender<Option<Tag>>),
    /// Apply one lifecycle control operation (create/retire/subscribe/
    /// unsubscribe — DESIGN.md §15) and gossip it to the rest of the
    /// cluster if it changed state; reply with whether it did.
    Control(TopicControl, Sender<bool>),
    /// Crash-stop immediately.
    Crash,
    /// Graceful shutdown (test teardown; not a crash).
    Shutdown,
}

/// Everything the node loop consumes, funnelled through one FIFO so it
/// blocks on a single receive with a tick deadline (network frames from
/// the router or the sockets, commands from the cluster handle).
pub(crate) enum NodeInput {
    /// A surviving sub-batch from a router lane, as an encoded
    /// multiplexed wire frame (decoded by the node with shared payloads —
    /// DESIGN.md §10/§12).
    Net(bytes::Bytes),
    /// A control command from the cluster handle.
    Cmd(Command),
}

/// A daemon node's ingress carries encoded frames only.
impl From<bytes::Bytes> for NodeInput {
    fn from(frame: bytes::Bytes) -> Self {
        NodeInput::Net(frame)
    }
}

/// A running cluster of anonymous processes.
pub struct UrbCluster {
    config: ClusterConfig,
    input_txs: Vec<Sender<NodeInput>>,
    /// Per-node crash-stop flags. Set *before* the wake-up command is
    /// enqueued and checked by the node on every loop iteration, so a
    /// crash takes effect within one protocol step even when the node's
    /// input FIFO holds a deep network backlog (a queued `Cmd` alone
    /// would only fire after the backlog drained).
    stop_flags: Vec<Arc<std::sync::atomic::AtomicBool>>,
    delivery_rxs: Vec<Receiver<(TopicId, Delivery)>>,
    /// Per-process delivery log: every delivery ever drained from a node's
    /// stream lands here (with its topic), so waiting for one tag never
    /// loses another.
    delivery_log: Mutex<Vec<Vec<(TopicId, Delivery)>>>,
    /// Per-topic delivery subscriptions: `(topic, sender)` pairs fed by
    /// `pump_deliveries`. A dropped receiver is pruned on the next pump.
    subscribers: Mutex<Vec<TopicSubscriber>>,
    registry: Arc<MembershipRegistry>,
    traffic: Arc<router::TrafficCounters>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl UrbCluster {
    /// Spawns `config.n` node threads plus the router.
    pub fn spawn(config: ClusterConfig) -> Self {
        let n = config.n;
        assert!(n >= 1);
        let registry = Arc::new(MembershipRegistry::new(
            n,
            config.seed,
            config.detection_delay,
        ));
        let traffic = Arc::new(router::TrafficCounters::default());

        // Wiring: nodes → router lanes (ingress, encoded mux frames;
        // lane = topic % lanes), lanes → nodes (the same funnelled input
        // channel the cluster handle commands through). One frame-buffer
        // pool serves every thread.
        let pool = urb_types::BufPool::default();
        let lanes = config.router_lanes.max(1);
        let mut input_txs = Vec::with_capacity(n);
        let mut input_rxs = Vec::with_capacity(n);
        for _ in 0..n {
            let (tx, rx) = unbounded::<NodeInput>();
            input_txs.push(tx);
            input_rxs.push(rx);
        }

        let mut threads = Vec::with_capacity(n + lanes);
        let mut ingress_txs = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let (ingress_tx, ingress_rx) = unbounded::<(usize, bytes::Bytes)>();
            ingress_txs.push(ingress_tx);
            threads.push(router::spawn_router_lane(
                lane,
                ingress_rx,
                input_txs.clone(),
                config.loss,
                config.seed,
                Arc::clone(&traffic),
                pool.clone(),
            ));
        }

        let mut delivery_rxs = Vec::with_capacity(n);
        let mut stop_flags = Vec::with_capacity(n);
        for (pid, inputs) in input_rxs.into_iter().enumerate() {
            let (del_tx, del_rx) = unbounded();
            delivery_rxs.push(del_rx);
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            stop_flags.push(Arc::clone(&stop));
            threads.push(node::spawn_node(node::NodeSetup {
                pid,
                algorithm: config.algorithm,
                n,
                topics: config.topics,
                seed: config.seed,
                tick_interval: config.tick_interval,
                inputs,
                stop,
                egress: ingress_txs.clone(),
                deliveries: del_tx,
                registry: Arc::clone(&registry),
                pool: pool.clone(),
            }));
        }
        drop(ingress_txs); // each lane exits when every node sender is gone

        UrbCluster {
            delivery_log: Mutex::new(vec![Vec::new(); n]),
            subscribers: Mutex::new(Vec::new()),
            config,
            input_txs,
            stop_flags,
            delivery_rxs,
            registry,
            traffic,
            threads: Mutex::new(threads),
        }
    }

    /// Drains every node's delivery stream into the persistent log and
    /// forwards each new delivery to matching per-topic subscribers
    /// (dropped subscriber receivers are pruned).
    fn pump_deliveries(&self) {
        let mut log = self.delivery_log.lock();
        let mut subs = self.subscribers.lock();
        for (pid, rx) in self.delivery_rxs.iter().enumerate() {
            while let Ok((topic, d)) = rx.try_recv() {
                subs.retain(|(t, tx)| *t != topic || tx.send((pid, d.clone())).is_ok());
                log[pid].push((topic, d));
            }
        }
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.config.n
    }

    /// Invokes `URB_broadcast(payload)` at process `pid` on topic 0.
    /// Returns the tag, or `None` if the process is crashed/shut down.
    pub fn broadcast(&self, pid: usize, payload: Payload) -> Option<Tag> {
        self.broadcast_on(pid, TopicId::ZERO, payload)
    }

    /// Invokes `URB_broadcast(payload)` at process `pid` on `topic`.
    /// Returns the tag, or `None` if the process is crashed/shut down —
    /// or if `topic` is not **live** at that node (never configured, not
    /// yet created, retired): a refused invocation, DESIGN.md §15.
    /// Dynamically created topics (see [`UrbCluster::create_topic`]) are
    /// broadcastable the moment the create reaches the node, so ids at or
    /// above the configured dense range are legal here.
    pub fn broadcast_on(&self, pid: usize, topic: TopicId, payload: Payload) -> Option<Tag> {
        // A crashed/stopped process refuses immediately. Without this check
        // a broadcast racing the node's exit would sit in the dead input
        // queue and only fail via the reply timeout below.
        if self.stop_flags[pid].load(std::sync::atomic::Ordering::Acquire) {
            return None;
        }
        let (tx, rx) = bounded(1);
        self.input_txs[pid]
            .send(NodeInput::Cmd(Command::Broadcast(topic, payload, tx)))
            .ok()?;
        rx.recv_timeout(Duration::from_secs(10)).ok().flatten()
    }

    /// Sends one lifecycle control operation to process `pid`, which
    /// applies it locally and gossips it to the rest of the cluster when
    /// it changed state (idempotent flood — DESIGN.md §15). Returns
    /// whether the operation changed that node's state (`false` also
    /// covers a crashed/stopped target).
    fn control(&self, pid: usize, ctl: TopicControl) -> bool {
        if self.stop_flags[pid].load(std::sync::atomic::Ordering::Acquire) {
            return false;
        }
        let (tx, rx) = bounded(1);
        if self.input_txs[pid]
            .send(NodeInput::Cmd(Command::Control(ctl, tx)))
            .is_err()
        {
            return false;
        }
        rx.recv_timeout(Duration::from_secs(10)).unwrap_or(false)
    }

    /// Creates `topic` cluster-wide, entering it at process `pid` and
    /// letting the control gossip carry it to every other node (lazy
    /// instantiation: each node materialises the instance when the create
    /// reaches it). Returns `false` when the entry node already had the
    /// topic live (the operation is idempotent).
    pub fn create_topic(&self, pid: usize, topic: TopicId, algorithm: Algorithm) -> bool {
        let (code, param) = algorithm.to_wire();
        self.control(
            pid,
            TopicControl::Create {
                topic,
                algorithm: code,
                param,
            },
        )
    }

    /// Retires `topic` cluster-wide, entering at process `pid`: the
    /// instance stops accepting broadcasts immediately and drains its
    /// in-flight tags before its state is reclaimed on a later tick
    /// (DESIGN.md §15). Returns `false` when the entry node had no live
    /// instance to retire.
    pub fn retire_topic(&self, pid: usize, topic: TopicId) -> bool {
        self.control(pid, TopicControl::Retire { topic })
    }

    /// Marks process `pid` as interested in `topic`'s deliveries at the
    /// engine layer (engine-level subscription bookkeeping; delivery
    /// routing to [`UrbCluster::subscribe`] channels is unaffected).
    pub fn subscribe_topic(&self, pid: usize, topic: TopicId) -> bool {
        self.control(pid, TopicControl::Subscribe { topic })
    }

    /// Clears process `pid`'s engine-level interest in `topic`.
    pub fn unsubscribe_topic(&self, pid: usize, topic: TopicId) -> bool {
        self.control(pid, TopicControl::Unsubscribe { topic })
    }

    /// Everything process `pid` has URB-delivered so far, in order,
    /// across every topic.
    pub fn delivery_log(&self, pid: usize) -> Vec<Delivery> {
        self.pump_deliveries();
        self.delivery_log.lock()[pid]
            .iter()
            .map(|(_, d)| d.clone())
            .collect()
    }

    /// Everything process `pid` has URB-delivered on `topic`, in order —
    /// the pull side of the per-topic delivery plane.
    pub fn delivery_log_on(&self, pid: usize, topic: TopicId) -> Vec<Delivery> {
        self.pump_deliveries();
        self.delivery_log.lock()[pid]
            .iter()
            .filter(|(t, _)| *t == topic)
            .map(|(_, d)| d.clone())
            .collect()
    }

    /// Subscribes to every future delivery on `topic`, cluster-wide: the
    /// returned receiver yields `(pid, delivery)` pairs as the cluster's
    /// delivery pump observes them (i.e. whenever any log/await accessor
    /// runs — subscriptions piggyback on the same drain). Dropping the
    /// receiver unsubscribes.
    pub fn subscribe(&self, topic: TopicId) -> Receiver<(usize, Delivery)> {
        let (tx, rx) = unbounded();
        self.subscribers.lock().push((topic, tx));
        rx
    }

    /// Crash-stops process `pid` (idempotent) and informs the membership
    /// registry, which starts the detection-delay clock. The stop flag is
    /// raised first so the victim halts within one step even with a deep
    /// input backlog; the command only wakes it if it was idle.
    pub fn crash(&self, pid: usize) {
        self.stop_flags[pid].store(true, std::sync::atomic::Ordering::Release);
        let _ = self.input_txs[pid].send(NodeInput::Cmd(Command::Crash));
        self.registry.mark_crashed(pid, Instant::now());
    }

    /// Aggregate router traffic so far.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic.snapshot()
    }

    /// Blocks until `tag` has been delivered by every non-crashed process
    /// or `timeout` elapses. Returns the pids that delivered in time.
    /// Deliveries of *other* tags observed while waiting are retained in
    /// the log, so sequential waits for several tags all succeed.
    pub fn await_delivery_everywhere(&self, tag: Tag, timeout: Duration) -> Vec<usize> {
        let deadline = Instant::now() + timeout;
        loop {
            self.pump_deliveries();
            let log = self.delivery_log.lock();
            let mut out: Vec<usize> = (0..self.config.n)
                .filter(|&pid| log[pid].iter().any(|(_, d)| d.tag == tag))
                .collect();
            let done = (0..self.config.n).all(|p| out.contains(&p) || self.registry.is_crashed(p));
            drop(log);
            if done || Instant::now() >= deadline {
                out.sort_unstable();
                return out;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Blocks until no protocol message (MSG/ACK) has crossed the router
    /// for `idle`, or until `timeout`. Returns `true` on quiescence.
    pub fn await_quiescence(&self, idle: Duration, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let last = self.traffic.last_protocol_activity();
            if let Some(t) = last {
                if t.elapsed() >= idle {
                    return true;
                }
            } else if self.traffic.snapshot().protocol_messages == 0 {
                // Nothing ever sent: vacuously quiescent.
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Gracefully stops every thread. Call at the end of a test/example.
    pub fn shutdown(&self) {
        for (flag, tx) in self.stop_flags.iter().zip(&self.input_txs) {
            flag.store(true, std::sync::atomic::Ordering::Release);
            let _ = tx.send(NodeInput::Cmd(Command::Shutdown));
        }
        let mut threads = self.threads.lock();
        for t in threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for UrbCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_roundtrip_no_loss() {
        let cluster = UrbCluster::spawn(ClusterConfig::new(3, Algorithm::Majority));
        let tag = cluster.broadcast(0, Payload::from("hi")).expect("tag");
        let who = cluster.await_delivery_everywhere(tag, Duration::from_secs(10));
        assert_eq!(who, vec![0, 1, 2]);
        cluster.shutdown();
    }

    #[test]
    fn quiescent_algorithm_goes_silent() {
        let cluster = UrbCluster::spawn(ClusterConfig::new(3, Algorithm::Quiescent));
        let tag = cluster
            .broadcast(1, Payload::from("silence after this"))
            .unwrap();
        let who = cluster.await_delivery_everywhere(tag, Duration::from_secs(10));
        assert_eq!(who.len(), 3);
        assert!(
            cluster.await_quiescence(Duration::from_millis(400), Duration::from_secs(15)),
            "Algorithm 2 must stop talking"
        );
        cluster.shutdown();
    }

    #[test]
    fn lossy_cluster_still_delivers() {
        let cluster =
            UrbCluster::spawn(ClusterConfig::new(4, Algorithm::Majority).loss(0.3).seed(9));
        let tag = cluster
            .broadcast(2, Payload::from("through the noise"))
            .unwrap();
        let who = cluster.await_delivery_everywhere(tag, Duration::from_secs(20));
        assert_eq!(who.len(), 4, "fairness beats 30% loss");
        cluster.shutdown();
    }

    #[test]
    fn multi_topic_cluster_shards_lanes_and_subscriptions() {
        // 3 topics over 2 router lanes: each topic's broadcast reaches
        // everyone, the per-topic logs stay disjoint, and a subscription
        // sees exactly its own topic's deliveries.
        let cluster = UrbCluster::spawn(
            ClusterConfig::new(3, Algorithm::Majority)
                .topics(3)
                .router_lanes(2),
        );
        let feed = cluster.subscribe(TopicId(2));
        let mut tags = Vec::new();
        for t in 0..3u32 {
            let tag = cluster
                .broadcast_on(
                    t as usize % 3,
                    TopicId(t),
                    Payload::from(format!("t{t}").as_str()),
                )
                .expect("tag");
            tags.push(tag);
        }
        for (t, tag) in tags.iter().enumerate() {
            let who = cluster.await_delivery_everywhere(*tag, Duration::from_secs(10));
            assert_eq!(who, vec![0, 1, 2], "topic {t}");
        }
        for pid in 0..3 {
            for (t, tag) in tags.iter().enumerate() {
                let log = cluster.delivery_log_on(pid, TopicId(t as u32));
                assert_eq!(log.len(), 1, "pid {pid} topic {t}");
                assert_eq!(log[0].tag, *tag);
            }
            assert_eq!(cluster.delivery_log(pid).len(), 3, "all topics combined");
        }
        // The topic-2 subscription saw exactly the 3 per-process
        // deliveries of topic 2 and nothing else.
        let mut seen: Vec<usize> = Vec::new();
        while let Ok((pid, d)) = feed.try_recv() {
            assert_eq!(d.tag, tags[2]);
            seen.push(pid);
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2]);
        cluster.shutdown();
    }

    #[test]
    fn dynamic_topic_create_broadcast_retire_roundtrip() {
        // DESIGN.md §15 end to end on real threads: create a topic at
        // runtime through one node, let the control gossip carry it to
        // the others, run a broadcast over it, then retire it and watch
        // broadcasts get refused.
        let cluster = UrbCluster::spawn(ClusterConfig::new(3, Algorithm::Quiescent));
        let dyn_topic = TopicId(7);

        // Before the create, the topic is refused everywhere.
        assert!(cluster.broadcast_on(0, dyn_topic, "early".into()).is_none());

        assert!(cluster.create_topic(0, dyn_topic, Algorithm::Majority));
        // Idempotent at the entry node: a second create changes nothing.
        assert!(!cluster.create_topic(0, dyn_topic, Algorithm::Majority));

        // The create gossips to nodes 1 and 2 on node 0's next outgoing
        // frame; a broadcast from node 0 forces one immediately. Nodes
        // that see the MSG before the create drop it inertly, so poll
        // from a non-entry node until the topic is live there.
        let deadline = Instant::now() + Duration::from_secs(10);
        let tag = loop {
            if let Some(tag) = cluster.broadcast_on(1, dyn_topic, "dyn".into()) {
                break tag;
            }
            assert!(
                Instant::now() < deadline,
                "create gossip never reached node 1"
            );
            // Nudge traffic so the control rides a frame even if node 0
            // is otherwise idle between ticks.
            let _ = cluster.broadcast_on(0, TopicId::ZERO, "nudge".into());
            std::thread::sleep(Duration::from_millis(10));
        };
        let who = cluster.await_delivery_everywhere(tag, Duration::from_secs(10));
        assert_eq!(who, vec![0, 1, 2], "dynamic topic delivers everywhere");

        // Retire: the entry node refuses broadcasts immediately.
        assert!(cluster.retire_topic(1, dyn_topic));
        assert!(cluster.broadcast_on(1, dyn_topic, "late".into()).is_none());
        // And the retire gossips: eventually every node refuses.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if cluster.broadcast_on(2, dyn_topic, "late2".into()).is_none() {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "retire gossip never reached node 2"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        cluster.shutdown();
    }

    #[test]
    fn lossy_cluster_still_gossips_create_and_retire() {
        // Loss thins messages, not lifecycle controls: a create entered at
        // node 0 leaves as a control-only frame (nothing else is in
        // flight) and must reach node 1 through a lossy router; likewise
        // the retire. No nudge traffic — the control frame alone carries
        // it.
        let cluster = UrbCluster::spawn(ClusterConfig::new(3, Algorithm::Quiescent).loss(0.05));
        let dyn_topic = TopicId(7);
        assert!(cluster.create_topic(0, dyn_topic, Algorithm::Majority));
        let deadline = Instant::now() + Duration::from_secs(5);
        let tag = loop {
            if let Some(tag) = cluster.broadcast_on(1, dyn_topic, "dyn".into()) {
                break tag;
            }
            assert!(
                Instant::now() < deadline,
                "create gossip never reached node 1"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        let who = cluster.await_delivery_everywhere(tag, Duration::from_secs(20));
        assert_eq!(who, vec![0, 1, 2], "dynamic topic delivers through loss");
        assert!(cluster.retire_topic(1, dyn_topic));
        let deadline = Instant::now() + Duration::from_secs(5);
        while cluster.broadcast_on(2, dyn_topic, "late".into()).is_some() {
            assert!(
                Instant::now() < deadline,
                "retire gossip never reached node 2"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        cluster.shutdown();
    }

    #[test]
    fn crashed_process_stops_accepting() {
        let cluster = UrbCluster::spawn(ClusterConfig::new(3, Algorithm::Majority));
        cluster.crash(1);
        std::thread::sleep(Duration::from_millis(50));
        assert!(cluster.broadcast(1, Payload::from("x")).is_none());
        assert!(cluster.registry.is_crashed(1));
        // The rest of the system keeps working (2 of 3 is a majority).
        let tag = cluster.broadcast(0, Payload::from("still alive")).unwrap();
        let who = cluster.await_delivery_everywhere(tag, Duration::from_secs(10));
        assert_eq!(who, vec![0, 2]);
        cluster.shutdown();
    }
}
