//! # `urb-runtime`
//!
//! A real concurrent deployment of the paper's protocols: one OS thread per
//! anonymous process, a lossy broadcast medium in which every node fans
//! its own multiplexed frames out to every inbox (DESIGN.md §12),
//! explicit crash injection, and a registry-backed failure detector.
//! `URB_broadcast` is a local step of the invoking process, so
//! [`UrbCluster::broadcast_on`] takes it on the caller's thread, under
//! the node's lock, and returns the tag without a round trip. Every
//! protocol step runs through the shared `urb-engine` layer — the *same*
//! code path the discrete-event simulator executes —
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

use crossbeam_channel::{unbounded, Receiver, Sender};
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
    /// Bernoulli loss probability applied to every message copy a node
    /// sends (sender-to-self copies are never lost, mirroring the
    /// simulator).
    pub loss: f64,
    /// Task-1 sweep period.
    pub tick_interval: Duration,
    /// How long after `crash()` the victim's label disappears from detector
    /// views (the `AP*` removal latency, in real time).
    pub detection_delay: Duration,
    /// Seed for the label draws and the per-node tag and loss streams (a
    /// node's loss pattern is a function of `(seed, pid)` and the frames
    /// it sends, even though thread interleaving is not reproducible).
    pub seed: u64,
    /// Number of concurrent URB instances (topics) every node serves
    /// (DESIGN.md §12). Defaults to 1.
    pub topics: u32,
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
        }
    }

    /// Sets the number of topics per node.
    pub fn topics(mut self, topics: u32) -> Self {
        self.topics = topics.max(1);
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

/// What a node loop's inbox carries.
pub(crate) enum NodeInput {
    /// An encoded multiplexed wire frame from a peer or from the node
    /// itself (decoded by the node with shared payloads — DESIGN.md
    /// §10/§12).
    Net(bytes::Bytes),
    /// Wakes a waiting in-process node loop to exit: the node was
    /// stopped.
    Stop,
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
    /// Every node, shared with its thread. A broadcast or control locks
    /// the node and steps it on the caller's thread; a stopped node
    /// refuses.
    nodes: Vec<Arc<Mutex<node::LocalNode>>>,
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
    /// Spawns `config.n` node threads.
    pub fn spawn(config: ClusterConfig) -> Self {
        let n = config.n;
        assert!(n >= 1);
        let registry = Arc::new(MembershipRegistry::new(
            n,
            config.seed,
            config.detection_delay,
        ));
        let traffic = Arc::new(router::TrafficCounters::default());

        // Wiring: every node fans its frames out to every inbox itself.
        // One frame-buffer pool serves every fan-out.
        let pool = urb_types::BufPool::default();
        let (inbox_txs, inbox_rxs): (Vec<_>, Vec<_>) =
            (0..n).map(|_| unbounded::<NodeInput>()).unzip();
        let mut nodes = Vec::with_capacity(n);
        let mut threads = Vec::with_capacity(n);
        let mut delivery_rxs = Vec::with_capacity(n);
        for (pid, inputs) in inbox_rxs.into_iter().enumerate() {
            let (del_tx, del_rx) = unbounded();
            delivery_rxs.push(del_rx);
            let fanout = router::Fanout::new(
                pid,
                inbox_txs.clone(),
                config.loss,
                config.seed,
                Arc::clone(&traffic),
                pool.clone(),
            );
            let backend = node::LocalBackend::new(fanout, del_tx);
            let node = Arc::new(Mutex::new(node_core::Node::new(
                pid,
                n,
                config.algorithm,
                config.topics,
                config.seed,
                Arc::clone(&registry),
                backend,
            )));
            threads.push(node::spawn_node(
                pid,
                Arc::clone(&node),
                inputs,
                config.tick_interval,
            ));
            nodes.push(node);
        }

        UrbCluster {
            delivery_log: Mutex::new(vec![Vec::new(); n]),
            subscribers: Mutex::new(Vec::new()),
            config,
            nodes,
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
    /// above the configured dense range are legal here. The step, and
    /// the fan-out of its frame, run on the caller's thread under the
    /// node's lock.
    pub fn broadcast_on(&self, pid: usize, topic: TopicId, payload: Payload) -> Option<Tag> {
        node::step(&self.nodes[pid], |node| node.broadcast(topic, payload)).flatten()
    }

    /// Applies one lifecycle control operation at process `pid`, which
    /// gossips it to the rest of the cluster when it changed state
    /// (idempotent flood — DESIGN.md §15). Returns whether the operation
    /// changed that node's state (`false` also covers a crashed/stopped
    /// target).
    fn control(&self, pid: usize, ctl: TopicControl) -> bool {
        node::step(&self.nodes[pid], |node| node.inner.control(ctl)).unwrap_or(false)
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
    /// registry, which starts the detection-delay clock. From the moment
    /// this returns the node refuses every caller, and its thread halts
    /// within one step even with a deep input backlog.
    pub fn crash(&self, pid: usize) {
        node::stop(&self.nodes[pid]);
        self.registry.mark_crashed(pid, Instant::now());
    }

    /// Aggregate traffic so far.
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

    /// Blocks until no node has sent a protocol message (MSG/ACK) for
    /// `idle`, or until `timeout`. Returns `true` on quiescence.
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
        for node in &self.nodes {
            node::stop(node);
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
        // 3 topics: each topic's broadcast reaches everyone, the
        // per-topic logs stay disjoint, and a subscription sees exactly
        // its own topic's deliveries.
        let cluster = UrbCluster::spawn(ClusterConfig::new(3, Algorithm::Majority).topics(3));
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
        // flight) and must reach node 1 through a lossy fan-out; likewise
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

    /// Waits until every node in `pids` has delivered `count` messages,
    /// then returns each node's delivered tags.
    fn await_log_len(
        cluster: &UrbCluster,
        pids: &[usize],
        count: usize,
        timeout: Duration,
    ) -> Vec<Vec<Tag>> {
        let deadline = Instant::now() + timeout;
        loop {
            let logs: Vec<Vec<Tag>> = pids
                .iter()
                .map(|&pid| cluster.delivery_log(pid).iter().map(|d| d.tag).collect())
                .collect();
            if logs.iter().all(|log| log.len() >= count) || Instant::now() >= deadline {
                return logs;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Every broadcast delivered exactly once at every node of `logs`.
    fn assert_exactly_once(logs: &[Vec<Tag>], tags: &[Tag]) {
        let mut want = tags.to_vec();
        want.sort_unstable();
        for (i, log) in logs.iter().enumerate() {
            let mut got = log.clone();
            got.sort_unstable();
            assert_eq!(got.len(), want.len(), "log {i}: delivered count");
            assert!(got == want, "log {i}: not every broadcast exactly once");
        }
    }

    #[test]
    fn concurrent_callers_step_nodes_on_their_own_threads() {
        // Four callers, two on node 0 and one each on nodes 1 and 2,
        // broadcast while the node threads are busy receiving each
        // other's traffic: tags stay distinct and every broadcast is
        // delivered exactly once everywhere.
        const PER_CALLER: usize = 300;
        let cluster = UrbCluster::spawn(ClusterConfig::new(3, Algorithm::Quiescent));
        let tags: Vec<Tag> = std::thread::scope(|s| {
            let callers: Vec<_> = [0, 0, 1, 2]
                .into_iter()
                .enumerate()
                .map(|(caller, pid)| {
                    let cluster = &cluster;
                    s.spawn(move || {
                        (0..PER_CALLER)
                            .map(|i| {
                                let payload = Payload::from(format!("c{caller}.m{i}").as_str());
                                cluster
                                    .broadcast_on(pid, TopicId::ZERO, payload)
                                    .expect("tag")
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            callers
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        let distinct: std::collections::BTreeSet<Tag> = tags.iter().copied().collect();
        assert_eq!(distinct.len(), tags.len(), "every tag distinct");
        let logs = await_log_len(&cluster, &[0, 1, 2], tags.len(), Duration::from_secs(60));
        assert_exactly_once(&logs, &tags);
        cluster.shutdown();
    }

    #[test]
    fn a_caller_in_a_tight_loop_does_not_starve_the_node_threads() {
        // One caller broadcasts at node 0 with no pause. It takes node
        // 0's lock once per call; node 0's thread must still get it often
        // enough to receive, or nothing is ever delivered.
        const CALLS: usize = 20_000;
        let cluster = UrbCluster::spawn(ClusterConfig::new(3, Algorithm::Quiescent));
        let tags: Vec<Tag> = (0..CALLS)
            .map(|i| {
                let payload = Payload::from(format!("m{i}").as_str());
                cluster
                    .broadcast_on(0, TopicId::ZERO, payload)
                    .expect("tag")
            })
            .collect();
        let logs = await_log_len(&cluster, &[0, 1, 2], CALLS, Duration::from_secs(120));
        assert_exactly_once(&logs, &tags);
        cluster.shutdown();
    }

    #[test]
    fn crashed_and_exited_nodes_refuse_on_the_callers_thread() {
        let cluster = UrbCluster::spawn(ClusterConfig::new(3, Algorithm::Majority));
        // A crash refuses from the moment `crash` returns.
        cluster.crash(1);
        assert!(cluster.broadcast_on(1, TopicId::ZERO, "x".into()).is_none());
        assert!(!cluster.create_topic(1, TopicId(7), Algorithm::Majority));
        // A node whose thread ended on its own (here: it panics on a
        // frame no peer could have sealed) refuses too.
        let garbage = NodeInput::Net(bytes::Bytes::copy_from_slice(&[0x42, 0, 1]));
        let inbox = cluster.nodes[2].lock().backend.fanout.inboxes[2].clone();
        assert!(inbox.send(garbage).is_ok());
        let deadline = Instant::now() + Duration::from_secs(10);
        while cluster.broadcast_on(2, TopicId::ZERO, "y".into()).is_some() {
            assert!(Instant::now() < deadline, "node 2's thread never exited");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!cluster.create_topic(2, TopicId(7), Algorithm::Majority));
        // The one node left still serves; after shutdown nobody does.
        assert!(cluster.broadcast_on(0, TopicId::ZERO, "z".into()).is_some());
        cluster.shutdown();
        for pid in 0..3 {
            assert!(cluster
                .broadcast_on(pid, TopicId::ZERO, "late".into())
                .is_none());
            assert!(!cluster.create_topic(pid, TopicId(8), Algorithm::Majority));
        }
    }
}
