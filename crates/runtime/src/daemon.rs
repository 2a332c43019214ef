//! The `urb node` daemon: one OS process running one node of a
//! socket-distributed URB cluster (DESIGN.md §13).
//!
//! A daemon node is the [`crate::transport::TcpMesh`] socket plane
//! under the **same node and node loop** the threaded runtime's node
//! threads run (`node_core`): only the backend differs — frames go to
//! real sockets instead of in-process inboxes, deliveries into
//! per-topic sets (and the durable journal) instead of a channel, and a
//! frame the codec rejects is dropped like a lost message instead of
//! treated as a bug. Protocol logic, codec and tick cadence are untouched.
//! The loopback-parity suite (`crates/cli/tests/cluster.rs`) asserts the
//! payoff mechanically: the same seeded workload produces identical
//! per-topic delivery sets through [`crate::UrbCluster`] (threads +
//! channels) and through a cluster of these daemons (processes +
//! sockets).
//!
//! Determinism note: over real sockets, arrival order, timing and loss
//! are *not* reproducible — what stays deterministic given the config is
//! the workload (payload strings, per-node tag streams, FD labels) and,
//! because URB guarantees exactly-once delivery of every broadcast, the
//! resulting per-topic delivery **sets**. Those sets are the unit the
//! parity and fault-injection suites assert on.

use crate::node_core::{self, Backend, Node};
use crate::state::{StateDir, StateError};
use crate::transport::{MeshConfig, NetError, NetStats, TcpMesh};
use crate::MembershipRegistry;
use bytes::Bytes;
use crossbeam_channel::{unbounded, Sender};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use urb_core::Algorithm;
use urb_engine::{MuxBuffers, MuxIngressError, TopicEngine};
use urb_types::{Payload, TopicControl, TopicId};

/// Configuration of one daemon node (the `urb node` subcommand's flags).
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This node's id, `0 <= id < n`.
    pub id: usize,
    /// Cluster size.
    pub n: usize,
    /// Protocol to run (shared by the whole cluster).
    pub algorithm: Algorithm,
    /// Concurrent URB instances (topics) per node.
    pub topics: u32,
    /// Cluster-wide seed: derives per-node tag streams, FD labels and
    /// the workload payloads, so every process agrees without talking.
    pub seed: u64,
    /// Broadcasts this node performs per topic at startup.
    pub msgs: usize,
    /// Listen addresses of **all** `n` nodes, in id order (node `i`
    /// listens on `addrs[i]` and dials the rest).
    pub addrs: Vec<String>,
    /// Optional listen-address override (defaults to `addrs[id]`; the
    /// port-in-use CLI tests point it at an occupied port).
    pub listen: Option<String>,
    /// Task-1 sweep period.
    pub tick_interval: Duration,
    /// Wall-clock budget for the whole run.
    pub run_for: Duration,
    /// How long to keep serving after meeting [`NodeConfig::expect`]
    /// (retransmissions for straggling peers).
    pub linger: Duration,
    /// Expected deliveries per topic; when set, the node exits complete
    /// once every topic reached it (plus linger), and incomplete at the
    /// deadline otherwise. `None` = run the full budget, always complete.
    pub expect: Option<usize>,
    /// Durable state directory (DESIGN.md §14). When set, every delivery
    /// is journaled, snapshots land periodically and at exit, and a
    /// restart recovers from disk: the engine restores its last snapshot
    /// (peers' retransmissions cover the gap), delivered sets lose
    /// nothing, and already-delivered own broadcasts are not re-issued.
    /// Unreadable state is a [`NetError::State`] (CLI exit 2).
    pub state_dir: Option<std::path::PathBuf>,
    /// How often to write a recovery point when `state_dir` is set.
    pub snapshot_interval: Duration,
}

impl NodeConfig {
    /// A config with the defaults the CLI uses: 20 ms ticks, 20 s budget,
    /// 500 ms linger, 1 broadcast per topic, 1 topic, no expectation.
    pub fn new(id: usize, n: usize, algorithm: Algorithm, addrs: Vec<String>) -> Self {
        NodeConfig {
            id,
            n,
            algorithm,
            topics: 1,
            seed: 0x5EED,
            msgs: 1,
            addrs,
            listen: None,
            tick_interval: Duration::from_millis(20),
            run_for: Duration::from_secs(20),
            linger: Duration::from_millis(500),
            expect: None,
            state_dir: None,
            snapshot_interval: Duration::from_millis(500),
        }
    }

    /// Checks internal consistency (id in range, one address per node).
    pub fn validate(&self) -> Result<(), NetError> {
        if self.n == 0 {
            return Err(NetError::Config("n must be at least 1".into()));
        }
        if self.id >= self.n {
            return Err(NetError::Config(format!(
                "id {} out of range for n = {}",
                self.id, self.n
            )));
        }
        if self.addrs.len() != self.n {
            return Err(NetError::Config(format!(
                "{} peer addresses for n = {} nodes",
                self.addrs.len(),
                self.n
            )));
        }
        if self.topics == 0 {
            return Err(NetError::Config("topics must be at least 1".into()));
        }
        Ok(())
    }
}

/// What one topic instance delivered over a daemon run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TopicDeliveries {
    /// The topic.
    pub topic: TopicId,
    /// Delivered payloads as text, sorted (URB integrity makes this a
    /// set; sorting makes reports comparable across nodes and stacks).
    pub payloads: Vec<String>,
}

/// A daemon node's end-of-run report.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// The reporting node's id.
    pub id: usize,
    /// True when the node met its expectation (or had none).
    pub complete: bool,
    /// Per-topic delivery sets, ascending by topic.
    pub per_topic: Vec<TopicDeliveries>,
    /// Topics live at exit (dynamic control plane — DESIGN.md §15).
    pub topics_live: usize,
    /// Retired topic instances whose state was fully reclaimed.
    pub topics_reclaimed: u64,
    /// Socket-plane traffic counters.
    pub net: NetStats,
}

/// Sends one lifecycle control operation to a running daemon node at
/// `addr` (its listen address) as a one-shot client: connect, write one
/// length-prefixed control-only frame, close. The daemon applies the
/// control and gossips it to the rest of the cluster exactly like a
/// control received from a peer (idempotent flood — DESIGN.md §15).
/// This is what `urb topic create|retire|subscribe|unsubscribe` runs.
pub fn send_control(addr: &str, ctl: TopicControl) -> Result<(), NetError> {
    use std::io::Write;
    let mut frame = bytes::BytesMut::new();
    urb_types::encode_mux_frame_with_controls_into(&[], &[ctl], &mut frame);
    let mut wire = Vec::with_capacity(frame.len() + 4);
    crate::transport::write_stream_frame(&frame, &mut wire);
    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| NetError::Config(format!("connect {addr}: {e}")))?;
    stream
        .write_all(&wire)
        .and_then(|()| stream.flush())
        .map_err(|e| NetError::Config(format!("send control to {addr}: {e}")))?;
    Ok(())
}

/// The payload node `node` broadcasts as its `i`-th message on `topic` —
/// one deterministic naming scheme shared by the daemons, the in-process
/// reference runs and the parity assertions, so delivery sets can be
/// compared across stacks as plain strings.
pub fn workload_payload(node: usize, topic: TopicId, i: usize) -> Payload {
    Payload::from(format!("n{node}.t{}.m{i}", topic.0).as_str())
}

/// The full per-topic payload set an `n`-node cluster broadcasting
/// `msgs` messages per node per topic is expected to deliver everywhere.
pub fn expected_payloads(n: usize, topic: TopicId, msgs: usize) -> BTreeSet<String> {
    (0..n)
        .flat_map(|node| (0..msgs).map(move |i| workload_payload(node, topic, i).as_text()))
        .collect()
}

/// What a daemon node delivered, and (with `--state-dir`) its durable
/// copy (DESIGN.md §14).
struct DeliveryLog {
    /// Delivered payloads per topic. Grows on demand: dynamically created
    /// topics (DESIGN.md §15) deliver under ids beyond the dense
    /// configured range.
    delivered: Vec<BTreeSet<String>>,
    state: Option<StateDir>,
}

impl DeliveryLog {
    /// Drains one step's deliveries into the per-topic sets, journaling
    /// each *new* payload before it is reported anywhere (the journal
    /// must never lag the sets).
    fn record(&mut self, mux: &mut MuxBuffers) -> Result<(), NetError> {
        for (t, d) in mux.deliveries.drain(..) {
            let text = d.payload.as_text();
            if self.delivered.len() <= t.0 as usize {
                self.delivered.resize(t.0 as usize + 1, BTreeSet::new());
            }
            if self.delivered[t.0 as usize].insert(text.clone()) {
                if let Some(s) = self.state.as_mut() {
                    s.append_delivery(t, &text).map_err(state_err)?;
                }
            }
        }
        Ok(())
    }

    /// Writes a recovery point (engine snapshot + delivered sets) when a
    /// state directory is configured.
    fn write_snapshot(&mut self, engine: &TopicEngine) -> Result<(), NetError> {
        if let Some(s) = self.state.as_mut() {
            let blob = engine
                .save_snapshot()
                .map_err(|e| NetError::State(format!("snapshot: {e}")))?;
            s.write_snapshot(&blob, &self.delivered)
                .map_err(state_err)?;
        }
        Ok(())
    }
}

fn state_err(e: StateError) -> NetError {
    NetError::State(e.to_string())
}

/// The socket backend of the node loop: frames go to the peers over the
/// [`TcpMesh`] and back to the node itself through its own ingress FIFO
/// (the never-lost self-copy of the broadcast primitive, without a
/// socket), deliveries into the [`DeliveryLog`]; the run ends on the
/// wall-clock budget, or once the expectation is met and the linger has
/// passed.
struct MeshBackend<'a> {
    cfg: &'a NodeConfig,
    mesh: TcpMesh,
    loopback: Sender<Bytes>,
    log: DeliveryLog,
    deadline: Instant,
    next_snapshot: Instant,
    /// Set once every topic meets the expectation; the node keeps serving
    /// (acks, retransmissions) until it passes.
    linger_until: Option<Instant>,
    complete: bool,
}

impl Backend for MeshBackend<'_> {
    fn wake_at(&mut self, now: Instant, next_tick: Instant) -> Option<Instant> {
        if now >= self.deadline {
            return None;
        }
        match self.linger_until {
            Some(t) if now >= t => {
                self.complete = true;
                None
            }
            Some(t) => Some(next_tick.min(self.deadline).min(t)),
            None => Some(next_tick.min(self.deadline)),
        }
    }

    fn send(&mut self, frame: Bytes) -> bool {
        self.mesh.broadcast(&frame);
        let _ = self.loopback.send(frame);
        true
    }

    fn settle(&mut self, node: &mut urb_engine::Node) -> Result<(), NetError> {
        self.log.record(node.mux())?;
        let now = Instant::now();
        if now >= self.next_snapshot {
            self.log.write_snapshot(node.engine())?;
            self.next_snapshot = Instant::now() + self.cfg.snapshot_interval;
        }
        if let Some(expect) = self.cfg.expect {
            let met = || self.log.delivered.iter().all(|set| set.len() >= expect);
            if self.linger_until.is_none() && met() {
                self.linger_until = Some(now + self.cfg.linger);
            }
        }
        Ok(())
    }

    fn rejected(&mut self, _err: MuxIngressError) {
        // A peer sent a frame our codec rejects (or one addressing a topic
        // whose create has not landed here yet): drop it like a lost
        // message — never panic on network input.
    }
}

/// Runs one daemon node to completion. Fails only on config/bind errors
/// ([`NetError`], CLI exit 2); network conditions during the run are
/// absorbed by the transport's retry/loss semantics and show up in the
/// report instead.
pub fn run_node(cfg: &NodeConfig) -> Result<NodeReport, NetError> {
    cfg.validate()?;
    let listen = cfg
        .listen
        .clone()
        .unwrap_or_else(|| cfg.addrs[cfg.id].clone());
    let peers: Vec<String> = cfg
        .addrs
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != cfg.id)
        .map(|(_, a)| a.clone())
        .collect();

    // Ingress funnel: socket readers and the node's own loopback copy
    // share one FIFO of encoded frames (commands don't exist here — a
    // daemon's workload is config, not RPC).
    let (ingress_tx, ingress_rx) = unbounded::<Bytes>();
    let mesh = TcpMesh::start(MeshConfig::new(listen, peers), ingress_tx.clone())?;

    let mut delivered: Vec<BTreeSet<String>> = vec![BTreeSet::new(); cfg.topics.max(1) as usize];

    // Durable state (DESIGN.md §14): recover before the first broadcast.
    // The engine restarts from its last recovery point — URB's fair-lossy
    // foundation makes a stale engine indistinguishable from lost
    // messages, so peers' retransmissions refill the gap — while the
    // delivered sets (snapshot + journal replay) lose nothing.
    let (state, recovered_engine) = match &cfg.state_dir {
        Some(dir) => {
            let (state, recovered) = StateDir::open(dir).map_err(state_err)?;
            for (t, set) in recovered.delivered.into_iter().enumerate() {
                if let Some(slot) = delivered.get_mut(t) {
                    *slot = set;
                }
            }
            (Some(state), recovered.engine)
        }
        None => (None, None),
    };

    // The run budget and the snapshot cadence are set again once the
    // startup burst is out.
    let backend = MeshBackend {
        cfg,
        mesh,
        loopback: ingress_tx,
        log: DeliveryLog { delivered, state },
        deadline: Instant::now(),
        next_snapshot: Instant::now(),
        linger_until: None,
        complete: cfg.expect.is_none(),
    };
    // The registry is local but seed-derived, so every process in the
    // cluster serves identical all-alive FD views without coordination.
    let registry = MembershipRegistry::new(cfg.n, cfg.seed, Duration::from_millis(500));
    let mut node = Node::new(
        cfg.id,
        cfg.n,
        cfg.algorithm,
        cfg.topics,
        cfg.seed,
        Arc::new(registry),
        backend,
    );
    if let Some(blob) = &recovered_engine {
        node.inner
            .engine_mut()
            .restore_snapshot(blob)
            .map_err(|e| NetError::State(format!("snapshot.bin does not restore: {e}")))?;
    }

    // Startup workload: all broadcasts happen before any ingress is
    // consumed, so the node's tag draws are a deterministic RNG prefix —
    // a restarted node re-broadcasts the *identical* (tag, payload)
    // messages, which URB integrity treats as retransmissions. They are
    // staged and flushed once: the burst leaves as a few budgeted frames,
    // not one frame per broadcast that would overflow the peers' writer
    // queues before a writer has even dialled.
    for topic in 0..cfg.topics.max(1) {
        for i in 0..cfg.msgs {
            let payload = workload_payload(cfg.id, TopicId(topic), i);
            // A recovered node does not re-issue broadcasts it already
            // delivered: its restored engine (and its peers) still hold
            // and retransmit them, and a fresh tag draw here would
            // duplicate the message under a second identity.
            if node.backend.log.delivered[topic as usize].contains(&payload.as_text()) {
                continue;
            }
            node.broadcast(TopicId(topic), payload);
        }
    }
    node.flush();
    node.backend.log.record(node.inner.mux())?;

    // The run budget and the snapshot cadence count from the end of the
    // startup burst.
    let start = Instant::now();
    node.backend.deadline = start + cfg.run_for;
    node.backend.next_snapshot = start + cfg.snapshot_interval;
    // The loop locks the node for every input; nothing else steps it, so
    // the lock is never contended.
    let node = Mutex::new(node);
    node_core::run(&node, &ingress_rx, cfg.tick_interval)?;
    let node = node.into_inner();
    let mut backend = node.backend;

    // Final recovery point so a clean exit restarts exactly where it
    // stopped (no journal replay needed).
    let engine = node.inner.engine();
    backend.log.write_snapshot(engine)?;

    backend.mesh.shutdown();
    Ok(NodeReport {
        id: cfg.id,
        complete: backend.complete,
        topics_live: engine.live_topics().count(),
        topics_reclaimed: engine.counters().topics_reclaimed,
        per_topic: backend
            .log
            .delivered
            .into_iter()
            .enumerate()
            .map(|(t, set)| TopicDeliveries {
                topic: TopicId(t as u32),
                payloads: set.into_iter().collect(),
            })
            .collect(),
        // Counters read after shutdown, so nothing is in flight.
        net: backend.mesh.stats(),
    })
}

/// Runs the identical workload through the **in-process** threaded
/// runtime ([`crate::UrbCluster`]) and returns the per-topic delivery
/// sets of every node: `sets[topic][pid]`. This is the reference side of
/// the loopback-parity check — same engine, same seeds, same workload,
/// channels instead of sockets.
pub fn run_reference(
    n: usize,
    algorithm: Algorithm,
    topics: u32,
    msgs: usize,
    seed: u64,
    timeout: Duration,
) -> Vec<Vec<BTreeSet<String>>> {
    let cluster = crate::UrbCluster::spawn(
        crate::ClusterConfig::new(n, algorithm)
            .topics(topics)
            .seed(seed),
    );
    let mut tags = Vec::new();
    for topic in 0..topics.max(1) {
        for i in 0..msgs {
            for pid in 0..n {
                if let Some(tag) = cluster.broadcast_on(
                    pid,
                    TopicId(topic),
                    workload_payload(pid, TopicId(topic), i),
                ) {
                    tags.push(tag);
                }
            }
        }
    }
    for tag in tags {
        cluster.await_delivery_everywhere(tag, timeout);
    }
    let sets = (0..topics.max(1))
        .map(|topic| {
            (0..n)
                .map(|pid| {
                    cluster
                        .delivery_log_on(pid, TopicId(topic))
                        .into_iter()
                        .map(|d| d.payload.as_text())
                        .collect()
                })
                .collect()
        })
        .collect();
    cluster.shutdown();
    sets
}
