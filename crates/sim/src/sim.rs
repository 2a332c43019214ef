//! The simulation driver: executes one run of a protocol over the anonymous
//! fair-lossy network.
//!
//! A run is a pure function of its [`SimConfig`] (including the seed):
//! processes tick with jittered phases, every transmission gets a fate and a
//! delay from the channel models, crashes fire per the [`CrashPlan`], and
//! the failure-detector service is consulted before every protocol step.
//! The driver enforces the anonymity contract structurally — the protocol
//! only ever sees [`urb_types::WireMessage`]s and [`urb_types::FdSnapshot`]s,
//! never process indices or the global clock.
//!
//! The processes, the crash set and the detector are a [`World`], the one
//! the checker and the load planes step too, of [`urb_engine::Node`]s, the
//! node the runtimes step. The simulator is the world's *scheduler*: it
//! owns the event queue, the channel mesh, crash timing and measurement,
//! and routes what each step emitted (DESIGN.md §2). Each node runs one
//! protocol instance per topic (DESIGN.md §12); everything one step emits,
//! across every topic, travels as a single topic-tagged frame per
//! destination, with loss still decided per message (DESIGN.md D8).
//!
//! The outcome bundles the raw metrics, the URB property-checker report,
//! the failure-detector audit (oracle runs) and quiescence information, so
//! every experiment gets its full verdict from a single call to [`run`].

use crate::channel::{ChannelMatrix, DelayModel, LossModel};
use crate::checker::{check_urb, check_urb_per_topics, CheckReport, TopicReport};
use crate::crash::{CrashPlan, CrashRule};
use crate::event::{Event, EventQueue};
use crate::metrics::{Metrics, StatsSample};
use crate::trace::{Trace, TraceConfig, TraceRecorder};
use crate::world::World;
use urb_core::Algorithm;
use urb_engine::EngineCounters;
pub use urb_engine::TopicAction;
use urb_fd::{FdService, HeartbeatConfig, HeartbeatService, NoFd, OracleConfig, OracleFd};
use urb_types::{
    MemoryConfig, MuxPool, Payload, ProcessStats, RandomSource, SplitMix64, Tag, TopicId, WireKind,
    WireMessage, Xoshiro256,
};

/// Which failure-detector implementation a run uses.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FdKind {
    /// No detector (Algorithm 1 and the baselines).
    None,
    /// The crash-schedule-aware oracle (faithful `AΘ`/`AP*`).
    Oracle(OracleConfig),
    /// The realistic heartbeat estimator (E8).
    Heartbeat(HeartbeatConfig),
}

/// One planned `URB_broadcast` invocation.
#[derive(Clone, Debug)]
pub struct PlannedBroadcast {
    /// Invocation time.
    pub time: u64,
    /// Invoking process.
    pub pid: usize,
    /// Target URB instance ([`TopicId::ZERO`] on single-topic runs; must
    /// be `< SimConfig::topics` or created by a [`TopicEventCfg`] — the
    /// invocation is refused unless the topic is live at `time`).
    pub topic: TopicId,
    /// The application message.
    pub payload: Payload,
}

/// A planned topic-lifecycle change (DESIGN.md §15). In the simulator,
/// lifecycle is deterministic **global configuration** — like crash plans:
/// at `time` the event's [`urb_types::TopicControl`] is applied ([`World::apply`]) at
/// every non-crashed process in the same step, atomically from the run's
/// point of view; crashed processes execute nothing. The wire-level
/// gossip of the same controls (where nodes learn lifecycle from each
/// other's frames, with races) is exercised by the engine tests and the
/// runtime/daemon plane; keeping the simulator's plan global costs no
/// randomness, which is what pins static runs byte-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopicEventCfg {
    /// Instant the change applies.
    pub time: u64,
    /// What changes.
    pub action: TopicAction,
}

/// A directed-link loss override (partition adversaries).
#[derive(Clone, Copy, Debug)]
pub struct LinkOverride {
    /// Sender side of the link.
    pub from: usize,
    /// Receiver side of the link.
    pub to: usize,
    /// Replacement loss model.
    pub loss: LossModel,
}

/// A directed-link delay override (targeted-delay adversaries): the link
/// keeps its loss model but draws arrival delays from its own
/// [`DelayModel`] instead of the mesh-wide one. The scenario plane's
/// `targeted-delay` schedule compiles to these.
#[derive(Clone, Copy, Debug)]
pub struct DelayOverride {
    /// Sender side of the link.
    pub from: usize,
    /// Receiver side of the link.
    pub to: usize,
    /// Replacement delay model.
    pub delay: DelayModel,
}

/// A temporary total outage of one directed link: every copy sent on
/// `from → to` during `[start, end)` is lost. Unlike [`LinkOverride`] this
/// is time-bounded, which makes *healing* partitions expressible — the
/// fairness axiom is suspended only during the window, so URB must still
/// complete after the heal (tested in `partition_heals_and_urb_completes`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Blackout {
    /// Sender side of the link.
    pub from: usize,
    /// Receiver side of the link.
    pub to: usize,
    /// First instant of the outage.
    pub start: u64,
    /// First instant after the outage.
    pub end: u64,
}

impl Blackout {
    /// A full bidirectional cut between two sets of processes over a time
    /// window (both directions of every cross link).
    pub fn partition(a: &[usize], b: &[usize], start: u64, end: u64) -> Vec<Blackout> {
        let mut v = Vec::with_capacity(a.len() * b.len() * 2);
        for &x in a {
            for &y in b {
                v.push(Blackout {
                    from: x,
                    to: y,
                    start,
                    end,
                });
                v.push(Blackout {
                    from: y,
                    to: x,
                    start,
                    end,
                });
            }
        }
        v
    }

    /// Does this blackout swallow a copy on `from → to` at `time`?
    pub fn covers(&self, from: usize, to: usize, time: u64) -> bool {
        self.from == from && self.to == to && (self.start..self.end).contains(&time)
    }
}

/// Full description of one simulated run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// System size `n`.
    pub n: usize,
    /// Protocol under test.
    pub algorithm: Algorithm,
    /// Root seed — everything random derives from it.
    pub seed: u64,
    /// Loss model applied to every non-self link (unless overridden).
    pub loss: LossModel,
    /// Delay model for all links.
    pub delay: DelayModel,
    /// Per-link loss overrides.
    pub link_overrides: Vec<LinkOverride>,
    /// Per-link delay overrides (straggler links).
    pub delay_overrides: Vec<DelayOverride>,
    /// Time-windowed total outages (healing partitions).
    pub blackouts: Vec<Blackout>,
    /// Task-1 sweep period, in ticks.
    pub tick_interval: u64,
    /// Uniform jitter added to each tick period (de-synchronizes sweeps).
    pub tick_jitter: u64,
    /// Hard horizon: the run stops at this simulated time.
    pub max_time: u64,
    /// Failure-detector implementation.
    pub fd: FdKind,
    /// Crash adversary.
    pub crashes: CrashPlan,
    /// Application workload.
    pub broadcasts: Vec<PlannedBroadcast>,
    /// State-size sampling period (0 = off). Experiment E9.
    pub stats_interval: u64,
    /// Histogram window for the quiescence curve (E4).
    pub window: u64,
    /// Stop as soon as the system is quiescent (all planned broadcasts
    /// issued, every correct process quiescent, no protocol messages in
    /// flight).
    pub stop_on_quiescence: bool,
    /// Stop as soon as every plan-correct process has delivered every
    /// broadcast message. Essential for bounding Algorithm-1 runs (which
    /// never quiesce) in correctness grids: once full delivery is reached,
    /// all three URB properties are decided.
    pub stop_on_full_delivery: bool,
    /// Event-trace recording policy (off by default).
    pub trace: TraceConfig,
    /// Number of concurrent URB instances (topics) per node (DESIGN.md
    /// §12). Every node runs one protocol instance per topic, all topics
    /// share the channel mesh, and a node's step output travels as one
    /// multiplexed frame. `1` (the default) is byte-identical to the
    /// pre-topic simulator.
    pub topics: u32,
    /// Whether a multi-topic step's output travels as **one** multiplexed
    /// frame (`true`, the default) or as one frame per topic (`false` —
    /// the E19 A/B arm measuring what multiplexing saves). Message-level
    /// behaviour (loss, ordering within a topic, verdicts) is identical
    /// either way; only `Metrics::frames_sent` and event-queue granularity
    /// differ.
    pub mux_frames: bool,
    /// Planned topic-lifecycle events (DESIGN.md §15), applied in time
    /// order at every non-crashed process. Empty (the default) keeps the
    /// run byte-identical to the static-topic simulator: the tick sweep
    /// visits exactly the configured `0..topics` directory, no drain
    /// bookkeeping runs, and no extra randomness is drawn.
    pub topic_events: Vec<TopicEventCfg>,
    /// Drain budget for retiring topics: how many Task-1 sweeps a draining
    /// instance may survive without reaching quiescence before it is
    /// reaped anyway (state compacted and freed). Only consulted when
    /// `topic_events` is non-empty.
    pub drain_ticks: u32,
    /// Bounded-memory mode (DESIGN.md §14): when set, every engine runs
    /// with this compaction configuration and one compaction sweep fires
    /// after each node tick. `None` (the default) keeps the simulator
    /// byte-identical to the pre-memory-plane driver — no extra RNG
    /// draws, no state reclaim, no counter movement.
    pub memory: Option<MemoryConfig>,
}

impl SimConfig {
    /// A sensible default configuration: `n` processes, no loss, no crashes,
    /// one broadcast from process 0.
    pub fn new(n: usize, algorithm: Algorithm) -> Self {
        SimConfig {
            n,
            algorithm,
            seed: 1,
            loss: LossModel::None,
            delay: DelayModel::default(),
            link_overrides: Vec::new(),
            delay_overrides: Vec::new(),
            blackouts: Vec::new(),
            tick_interval: 10,
            tick_jitter: 3,
            max_time: 100_000,
            fd: if algorithm.needs_fd() {
                FdKind::Oracle(OracleConfig::default())
            } else {
                FdKind::None
            },
            crashes: CrashPlan::none(n),
            broadcasts: vec![PlannedBroadcast {
                time: 10,
                pid: 0,
                topic: TopicId::ZERO,
                payload: Payload::from("m0"),
            }],
            stats_interval: 0,
            window: 1_000,
            stop_on_quiescence: true,
            stop_on_full_delivery: false,
            trace: TraceConfig::disabled(),
            topics: 1,
            mux_frames: true,
            topic_events: Vec::new(),
            drain_ticks: urb_engine::DEFAULT_DRAIN_LIMIT,
            memory: None,
        }
    }

    /// Schedules a topic-lifecycle event (builder style).
    pub fn topic_event(mut self, time: u64, action: TopicAction) -> Self {
        self.topic_events.push(TopicEventCfg { time, action });
        self
    }

    /// Sets the drain budget for retiring topics (builder style).
    pub fn drain_ticks(mut self, ticks: u32) -> Self {
        self.drain_ticks = ticks;
        self
    }

    /// Switches the run into bounded-memory mode (builder style).
    pub fn memory(mut self, cfg: MemoryConfig) -> Self {
        self.memory = Some(cfg);
        self
    }

    /// Sets the number of concurrent URB instances (builder style).
    pub fn topics(mut self, topics: u32) -> Self {
        self.topics = topics.max(1);
        self
    }

    /// Sets the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the uniform loss model.
    pub fn loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Sets the crash plan.
    pub fn crashes(mut self, plan: CrashPlan) -> Self {
        self.crashes = plan;
        self
    }

    /// Replaces the workload with `k` broadcasts from round-robin senders,
    /// spaced `spacing` ticks apart starting at t=10.
    pub fn workload(mut self, k: usize, spacing: u64) -> Self {
        self.broadcasts = (0..k)
            .map(|i| PlannedBroadcast {
                time: 10 + i as u64 * spacing,
                pid: i % self.n,
                topic: TopicId::ZERO,
                payload: Payload::from(format!("m{i}").as_str()),
            })
            .collect();
        self
    }

    /// Replaces the workload with `k` broadcasts round-robined across both
    /// senders **and** this config's topics, spaced `spacing` ticks apart
    /// (the multi-topic twin of [`SimConfig::workload`]; with `topics = 1`
    /// it is identical to it).
    ///
    /// Reads the **current** topic count, so call [`SimConfig::topics`]
    /// *first* — `cfg.topics(4).workload_topics(8, 50)`, never the other
    /// way around (the reversed order would silently plan a single-topic
    /// workload next to three idle instances; [`run`] asserts against
    /// out-of-range topics but cannot detect that inversion).
    pub fn workload_topics(mut self, k: usize, spacing: u64) -> Self {
        let topics = self.topics.max(1);
        self.broadcasts = (0..k)
            .map(|i| PlannedBroadcast {
                time: 10 + i as u64 * spacing,
                pid: i % self.n,
                topic: TopicId(i as u32 % topics),
                payload: Payload::from(format!("m{i}").as_str()),
            })
            .collect();
        self
    }

    /// Sets the horizon.
    pub fn max_time(mut self, t: u64) -> Self {
        self.max_time = t;
        self
    }

    /// Every topic the run can serve, ascending: the configured
    /// `0..topics` plus every topic a lifecycle event creates.
    fn known_topics(&self) -> Vec<TopicId> {
        let mut known: Vec<TopicId> = (0..self.topics.max(1)).map(TopicId).collect();
        known.extend(self.topic_events.iter().filter_map(|e| match e.action {
            TopicAction::Create { topic, .. } => Some(topic),
            TopicAction::Retire { .. } => None,
        }));
        known.sort_unstable();
        known.dedup();
        known
    }
}

/// Everything observed in one run.
#[derive(Debug)]
pub struct RunOutcome {
    /// System size.
    pub n: usize,
    /// Name of the algorithm that ran.
    pub algorithm: &'static str,
    /// `correct[i]` — process `i` was *declared correct by the crash plan*.
    /// (A process the adversary marked faulty counts as faulty even if the
    /// run ended before its crash fired: "eventually" properties bind only
    /// plan-correct processes; see `checker` module docs.)
    pub correct: Vec<bool>,
    /// Raw measurements.
    pub metrics: Metrics,
    /// URB property verdicts over the whole run (tags are globally
    /// unique, so the union of all topics is itself checkable; on a
    /// single-topic run this is exactly the pre-topic report).
    pub report: CheckReport,
    /// Per-topic URB verdicts (DESIGN.md §12): one entry per topic that
    /// carried traffic, ascending; exactly one topic-0 entry on
    /// single-topic runs.
    pub per_topic: Vec<TopicReport>,
    /// Final per-process state sizes.
    pub final_stats: Vec<ProcessStats>,
    /// Final per-process engine counters (steps, deliveries, compaction
    /// totals — all zero compactions unless [`SimConfig::memory`] was set).
    pub counters: Vec<EngineCounters>,
    /// Oracle-audit result (`None` for non-oracle runs or when dynamic
    /// crash triggers never resolved).
    pub fd_audit: Option<Result<(), String>>,
    /// True when the run ended quiescent (see [`SimConfig::stop_on_quiescence`]).
    pub quiescent: bool,
    /// Instant of the last protocol (MSG/ACK) transmission.
    pub last_protocol_send: u64,
    /// Recorded event trace (empty unless [`SimConfig::trace`] enabled it).
    pub trace: Trace,
    /// Counters of the routed-sub-batch vector pool (DESIGN.md §10): in
    /// steady state `created` plateaus while `recycled` tracks routing
    /// volume — the no-allocation claim, observable per run.
    pub batch_pool: urb_types::PoolStats,
}

impl RunOutcome {
    /// Tags delivered by process `pid`.
    pub fn delivered_set(&self, pid: usize) -> std::collections::BTreeSet<Tag> {
        self.metrics
            .deliveries
            .iter()
            .filter(|d| d.pid == pid)
            .map(|d| d.tag)
            .collect()
    }

    /// Every per-topic verdict holds (and the global report, and the FD
    /// audit where applicable).
    pub fn all_topics_ok(&self) -> bool {
        self.all_ok() && self.per_topic.iter().all(|t| t.report.all_ok())
    }

    /// All URB properties hold and (for oracle runs) the detector audit
    /// passed.
    pub fn all_ok(&self) -> bool {
        self.report.all_ok() && !matches!(&self.fd_audit, Some(Err(_)))
    }

    /// Total topic instances reclaimed across all processes (the
    /// lifecycle plane's state-reclamation proof, DESIGN.md §15): a
    /// retire applied at `k` live processes eventually counts `k` here.
    /// Zero on static runs.
    pub fn topics_reclaimed(&self) -> u64 {
        self.counters.iter().map(|c| c.topics_reclaimed).sum()
    }
}

struct Runner {
    config: SimConfig,
    /// The processes, the crash set and the detector. What a step leaves
    /// in a node's buffers is drained before the event handler returns
    /// (zero steady-state allocation on the hot path).
    world: World,
    /// Reusable per-link batch verdicts.
    verdicts: Vec<bool>,
    /// Recycled topic-tagged entry vectors for routed multiplexed
    /// sub-batches (DESIGN.md §10/§12): every `Deliver` event's entry list
    /// is drawn from and returned to this pool, so steady-state routing
    /// allocates no vectors.
    batches: MuxPool,
    tick_rng: SplitMix64,
    channels: ChannelMatrix,
    queue: EventQueue,
    metrics: Metrics,
    /// Protocol (non-heartbeat) deliveries currently in flight.
    inflight_protocol: usize,
    /// Client broadcasts not yet executed.
    pending_broadcasts: usize,
    /// Topic-lifecycle events not yet applied (quiescence must wait for
    /// them — a pending retire is work the run still owes).
    pending_topic_events: usize,
    tracer: TraceRecorder,
    now: u64,
}

/// Executes one run. See the module docs.
pub fn run(config: SimConfig) -> RunOutcome {
    let n = config.n;
    assert!(n >= 1);
    assert_eq!(config.crashes.n(), n, "crash plan size mismatch");
    let topics = config.topics.max(1);
    let known = config.known_topics();
    for b in &config.broadcasts {
        assert!(
            known.binary_search(&b.topic).is_ok(),
            "broadcast targets topic {} but the run has {} topic(s) and no create event for it",
            b.topic,
            topics
        );
    }
    let root = Xoshiro256::new(config.seed);

    let mut channels = ChannelMatrix::uniform(n, config.loss, config.delay, &root);
    for ov in &config.link_overrides {
        channels.override_links(&[(ov.from, ov.to)], ov.loss);
    }
    for ov in &config.delay_overrides {
        channels.override_delay(ov.from, ov.to, ov.delay);
    }

    let streams = World::streams(config.seed);
    let tick_rng = streams.split(0xFFFF);

    let fd: Box<dyn FdService> = match config.fd {
        FdKind::None => Box::new(NoFd),
        FdKind::Oracle(cfg) => Box::new(OracleFd::new(
            config.crashes.static_times(),
            config.seed,
            cfg,
        )),
        FdKind::Heartbeat(cfg) => {
            let (svc, _labels) = HeartbeatService::new(n, config.seed, cfg);
            Box::new(svc)
        }
    };

    let mut runner = Runner {
        world: World::new(&config, streams, fd),
        verdicts: Vec::new(),
        // Retention sized to in-flight peaks: every scheduled Deliver event
        // holds one pooled vector, and a lossy long-horizon run keeps
        // thousands of them in flight at once. (The default bound of 64
        // suits per-node pools, not a whole event queue.)
        batches: MuxPool::new(1 << 16),
        tick_rng,
        channels,
        queue: EventQueue::new(),
        metrics: Metrics::new(config.window),
        inflight_protocol: 0,
        pending_broadcasts: config.broadcasts.len(),
        pending_topic_events: config.topic_events.len(),
        tracer: TraceRecorder::new(config.trace),
        now: 0,
        config,
    };
    runner.seed_initial_events();
    runner.main_loop();
    runner.finish()
}

impl Runner {
    fn seed_initial_events(&mut self) {
        let n = self.config.n;
        for pid in 0..n {
            let phase = self.tick_rng.gen_range(self.config.tick_interval.max(1));
            self.queue.push(phase, Event::Tick { pid });
            if let CrashRule::At(t) = self.config.crashes.rule(pid) {
                self.queue.push(t, Event::Crash { pid });
            }
        }
        let planned = self.config.broadcasts.clone();
        for b in planned {
            self.queue.push(
                b.time,
                Event::ClientBroadcast {
                    pid: b.pid,
                    topic: b.topic,
                    payload: b.payload,
                },
            );
        }
        for (index, ev) in self.config.topic_events.iter().enumerate() {
            self.queue.push(ev.time, Event::TopicEvent { index });
        }
        if self.config.stats_interval > 0 {
            self.queue
                .push(self.config.stats_interval, Event::SampleStats);
        }
    }

    fn main_loop(&mut self) {
        while let Some((t, ev)) = self.queue.pop() {
            if t > self.config.max_time {
                break;
            }
            self.now = t;
            match ev {
                Event::Tick { pid } => self.on_tick(pid),
                Event::Deliver { to, from, entries } => self.on_deliver(to, from, entries),
                Event::Crash { pid } => self.on_crash(pid),
                Event::ClientBroadcast {
                    pid,
                    topic,
                    payload,
                } => self.on_client_broadcast(pid, topic, payload),
                Event::SampleStats => self.on_sample(),
                Event::TopicEvent { index } => self.on_topic_event(index),
            }
            if self.config.stop_on_quiescence && self.is_system_quiescent() {
                self.metrics.quiescent_at_end = true;
                break;
            }
            if self.config.stop_on_full_delivery && self.is_fully_delivered() {
                break;
            }
        }
        // A run that drained its queue (no-loss, quiescent algorithms) is
        // also quiescent even without the early-stop flag.
        if !self.metrics.quiescent_at_end && self.is_system_quiescent() {
            self.metrics.quiescent_at_end = true;
        }
        self.metrics.ended_at = self.now;
    }

    /// System quiescence: workload finished, every plan-correct process has
    /// nothing to retransmit, and no protocol message is in flight.
    fn is_system_quiescent(&self) -> bool {
        self.pending_broadcasts == 0
            && self.pending_topic_events == 0
            && self.inflight_protocol == 0
            && self.world.is_quiescent()
    }

    /// Full delivery: every plan-correct process has delivered one distinct
    /// tag per issued broadcast. (Tags are unique and correct protocols
    /// deliver each at most once, so counting suffices.)
    fn is_fully_delivered(&self) -> bool {
        if self.pending_broadcasts > 0 || self.pending_topic_events > 0 {
            return false;
        }
        let k = self.metrics.broadcasts.len();
        (0..self.config.n).all(|pid| {
            !matches!(self.config.crashes.rule(pid), CrashRule::Never)
                || self.world.delivered()[pid] >= k as u64
        })
    }

    fn on_tick(&mut self, pid: usize) {
        if self.world.is_crashed(pid) {
            return; // crash-stop: no further steps, no re-scheduling
        }
        self.metrics.hash_event(self.now, 1, pid as u64);
        // Heartbeats, then one Task-1 sweep per topic instance, ascending,
        // into one multiplexed outbox — one frame per node tick.
        self.world.tick(pid, self.now);
        self.handle_deliveries(pid);
        self.send(pid, self.batches.acquire());
        // Schedule the next sweep.
        let jitter = if self.config.tick_jitter == 0 {
            0
        } else {
            self.tick_rng.gen_range(self.config.tick_jitter + 1)
        };
        let next = self.now + self.config.tick_interval.max(1) + jitter;
        self.queue.push(next, Event::Tick { pid });
    }

    fn on_deliver(&mut self, to: usize, _from: usize, mut arrived: Vec<(TopicId, WireMessage)>) {
        self.inflight_protocol -= arrived
            .iter()
            .filter(|(_, m)| m.kind() != WireKind::Heartbeat)
            .count();
        if self.world.is_crashed(to) {
            // Arrived at a dead process: silently gone (vector recycled).
            self.batches.release(arrived);
            return;
        }
        // Everything this frame's steps emit leaves as one frame again.
        // Processing ascending topic groups in order keeps the emitted
        // entries grouped ascending too.
        let emitted = self.batches.acquire();
        for (topic, msg) in arrived.drain(..) {
            self.metrics
                .hash_event(self.now, 2, msg.content_hash() ^ to as u64);
            self.metrics.on_receive(msg.kind());
            self.tracer.receive(self.now, to, msg.kind(), msg.tag());
            // One step per message, each under the view of its instant.
            self.world.receive(to, topic, msg, self.now);
            self.handle_deliveries(to);
        }
        self.batches.release(arrived);
        self.send(to, emitted);
    }

    /// Moves what `pid`'s steps emitted into the pooled `frame` and
    /// routes it, unless there was nothing.
    fn send(&mut self, pid: usize, mut frame: Vec<(TopicId, WireMessage)>) {
        frame.append(self.world.outbox(pid));
        if frame.is_empty() {
            self.batches.release(frame);
        } else {
            self.transmit(pid, frame);
        }
    }

    fn on_crash(&mut self, pid: usize) {
        if self.world.crash(pid, self.now) {
            self.metrics.hash_event(self.now, 3, pid as u64);
            self.tracer.crash(self.now, pid);
        }
    }

    fn on_client_broadcast(&mut self, pid: usize, topic: TopicId, payload: Payload) {
        self.pending_broadcasts -= 1;
        let Some(rec) = self.world.broadcast(pid, topic, payload, self.now) else {
            // A crashed process, or a topic not live at this one
            // (DESIGN.md §15): the invocation is a no-op.
            return;
        };
        self.metrics.hash_event(self.now, 4, pid as u64);
        self.handle_deliveries(pid);
        self.tracer.urb_broadcast(&rec);
        self.metrics.broadcasts.push(rec);
        // Never empty: every algorithm sends its MSG as it broadcasts.
        self.send(pid, self.batches.acquire());
    }

    /// Applies lifecycle plan entry `index` at every non-crashed process
    /// (DESIGN.md §15).
    fn on_topic_event(&mut self, index: usize) {
        self.pending_topic_events -= 1;
        let action = self.config.topic_events[index].action;
        let kind = match action {
            TopicAction::Create { .. } => 5,
            TopicAction::Retire { .. } => 6,
        };
        self.metrics
            .hash_event(self.now, kind, action.topic().0 as u64);
        self.world.apply(action);
    }

    fn on_sample(&mut self) {
        let nodes = self.world.nodes();
        let per_process = nodes.iter().map(|n| n.engine().stats()).collect();
        self.metrics.stats_samples.push(StatsSample {
            time: self.now,
            per_process,
        });
        let next = self.now + self.config.stats_interval;
        if next <= self.config.max_time {
            self.queue.push(next, Event::SampleStats);
        }
    }

    /// Records the URB-deliveries `pid`'s last step(s) left in its buffers.
    fn handle_deliveries(&mut self, pid: usize) {
        let (metrics, tracer) = (&mut self.metrics, &mut self.tracer);
        let armed = self.world.drain_deliveries(pid, self.now, |rec| {
            tracer.urb_deliver(&rec);
            metrics.deliveries.push(rec);
        });
        // Crash-on-first-delivery triggers (Theorem 2 / E11 adversary).
        if let Some(delay) = armed {
            self.queue.push(self.now + delay, Event::Crash { pid });
        }
    }

    /// The paper's `broadcast` primitive over the multiplexed topic plane
    /// (DESIGN.md §12): one frame per destination (self included), each
    /// member's fate decided by that destination's own lossy channel, per
    /// message. One delivery event is scheduled per destination instead
    /// of one per message — or one per topic — which is where the routing
    /// overhead saving comes from; loss and metrics accounting remain per
    /// message, with fairness identities decorrelated per topic
    /// ([`TopicId::mix`]). Survivor sub-batches draw their vectors from
    /// the entry pool, and the consumed input vector returns to it —
    /// steady-state routing allocates nothing (DESIGN.md §10).
    ///
    /// With `mux_frames = false` (the E19 A/B arm) a multi-topic outbox is
    /// split into one frame per topic before routing: message behaviour is
    /// identical, but every topic pays its own per-destination frame.
    fn transmit(&mut self, from: usize, entries: Vec<(TopicId, WireMessage)>) {
        let first = entries.first().map(|(t, _)| *t);
        if self.config.mux_frames || entries.iter().all(|(t, _)| Some(*t) == first) {
            return self.transmit_frame(from, entries);
        }
        // Entries are grouped ascending by topic already: route each group
        // as a frame of its own.
        for group in entries.chunk_by(|a, b| a.0 == b.0) {
            let mut frame = self.batches.acquire();
            frame.extend_from_slice(group);
            self.transmit_frame(from, frame);
        }
        self.batches.release(entries);
    }

    /// Routes one frame's entries to every destination. See
    /// [`Runner::transmit`].
    fn transmit_frame(&mut self, from: usize, entries: Vec<(TopicId, WireMessage)>) {
        for (_, m) in &entries {
            self.tracer.send(self.now, from, m.kind(), m.tag());
        }
        for to in 0..self.config.n {
            for (_, m) in &entries {
                self.metrics.on_send(m.kind(), self.now);
            }
            self.metrics.on_frame();
            if self
                .config
                .blackouts
                .iter()
                .any(|b| b.covers(from, to, self.now))
            {
                for (_, m) in &entries {
                    self.metrics.on_drop(m.kind());
                    self.tracer.drop_copy(self.now, from, to, m.kind(), m.tag());
                }
                continue;
            }
            let delay = self
                .channels
                .link_mut(from, to)
                .transmit_entries(&entries, &mut self.verdicts);
            for ((_, m), ok) in entries.iter().zip(&self.verdicts) {
                if !ok {
                    self.metrics.on_drop(m.kind());
                    self.tracer.drop_copy(self.now, from, to, m.kind(), m.tag());
                }
            }
            if let Some(delay) = delay {
                let mut survivors = self.batches.acquire();
                survivors.extend(
                    entries
                        .iter()
                        .zip(&self.verdicts)
                        .filter(|&(_, ok)| *ok)
                        .map(|(e, _)| e.clone()),
                );
                self.inflight_protocol += survivors
                    .iter()
                    .filter(|(_, m)| m.kind() != WireKind::Heartbeat)
                    .count();
                self.queue.push(
                    self.now + delay,
                    Event::Deliver {
                        to,
                        from,
                        entries: survivors,
                    },
                );
            }
        }
        self.batches.release(entries);
    }

    fn finish(self) -> RunOutcome {
        let n = self.config.n;
        let correct: Vec<bool> = (0..n)
            .map(|i| matches!(self.config.crashes.rule(i), CrashRule::Never))
            .collect();
        let report = check_urb(
            n,
            &correct,
            &self.metrics.broadcasts,
            &self.metrics.deliveries,
        );
        // The verdict directory. A retired topic keeps its row —
        // retirement truncates "eventually", it does not erase
        // obligations incurred while live (DESIGN.md §15).
        let per_topic = check_urb_per_topics(
            n,
            &correct,
            &self.config.known_topics(),
            &self.metrics.broadcasts,
            &self.metrics.deliveries,
        );
        let nodes = self.world.nodes();
        let final_stats = nodes.iter().map(|n| n.engine().stats()).collect();

        // Oracle audit: reconstruct a reference oracle with the *actual*
        // crash times (dynamic triggers resolved during the run), then
        // machine-check the AΘ/AP* clauses over a horizon that clears every
        // removal clock. Skipped when a declared-faulty process never
        // crashed within the horizon (its removal clocks never started).
        let planned = self.config.crashes.static_times().into_iter();
        let actual: Option<Vec<Option<u64>>> = (planned.zip(self.world.crash_times()))
            .map(|(at, &crashed)| match at {
                Some(u64::MAX) => crashed.map(Some),
                at => Some(at),
            })
            .collect();
        let fd_audit = match (self.config.fd, actual) {
            (FdKind::Oracle(cfg), Some(actual)) => {
                // The completeness clauses are evaluated at the horizon,
                // which must clear every crash (even ones planned after
                // the run ended early) plus all removal clocks.
                let latest_crash = actual.iter().flatten().copied().max().unwrap_or(0);
                let oracle = OracleFd::new(actual, self.config.seed, cfg);
                let horizon = self
                    .metrics
                    .ended_at
                    .max(latest_crash)
                    .max(oracle.pstar_ready_at())
                    .saturating_add(cfg.theta_removal_delay)
                    .saturating_add(cfg.pstar_removal_delay)
                    .saturating_add(cfg.appearance_spread)
                    .saturating_add(1);
                Some(oracle.audit(horizon))
            }
            _ => None,
        };
        RunOutcome {
            n: self.config.n,
            algorithm: self.config.algorithm.name(),
            counters: nodes.iter().map(|n| n.engine().counters()).collect(),
            correct,
            quiescent: self.metrics.quiescent_at_end,
            last_protocol_send: self.metrics.last_protocol_send,
            trace: self.tracer.into_trace(),
            metrics: self.metrics,
            report,
            per_topic,
            final_stats,
            fd_audit,
            batch_pool: self.batches.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_run_alg1_delivers_everywhere() {
        let out = run(SimConfig::new(5, Algorithm::Majority).seed(7));
        assert!(out.report.all_ok(), "{:?}", out.report.violations());
        for pid in 0..5 {
            assert_eq!(out.delivered_set(pid).len(), 1, "pid {pid}");
        }
        assert!(!out.quiescent, "Algorithm 1 never quiesces");
    }

    #[test]
    fn clean_run_alg2_delivers_and_quiesces() {
        let out = run(SimConfig::new(5, Algorithm::Quiescent)
            .seed(8)
            .max_time(500_000));
        assert!(out.all_ok(), "{:?}", out.report.violations());
        for pid in 0..5 {
            assert_eq!(out.delivered_set(pid).len(), 1, "pid {pid}");
        }
        assert!(out.quiescent, "Algorithm 2 must go quiescent");
        assert!(matches!(out.fd_audit, Some(Ok(()))));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let a = run(SimConfig::new(4, Algorithm::Majority).seed(42));
        let b = run(SimConfig::new(4, Algorithm::Majority).seed(42));
        assert_eq!(a.metrics.trace_hash, b.metrics.trace_hash);
        assert_eq!(a.metrics.sent, b.metrics.sent);
        let c = run(SimConfig::new(4, Algorithm::Majority).seed(43));
        assert_ne!(a.metrics.trace_hash, c.metrics.trace_hash);
    }

    #[test]
    fn batch_pool_reaches_steady_state_over_a_long_run() {
        // The pooled-message-buffer claim, end to end: a lossy multi-message
        // run schedules thousands of sub-batch deliveries, yet the pool
        // stops allocating vectors almost immediately.
        let cfg = SimConfig::new(6, Algorithm::Majority)
            .seed(17)
            .loss(LossModel::Bernoulli { p: 0.2 })
            .workload(5, 100)
            .max_time(30_000);
        let out = run(cfg);
        let s = out.batch_pool;
        assert!(s.acquired > 100_000, "routing volume: {s:?}");
        // `created` tracks the peak number of simultaneously in-flight
        // sub-batches (a few hundred), not routing volume (a million+).
        assert!(
            s.created <= 1_024,
            "steady-state routing must recycle, not allocate: {s:?}"
        );
        assert_eq!(s.discarded, 0, "retention bound must cover in-flight peaks");
        assert!(s.hit_rate() > 0.99, "{s:?}");
    }

    #[test]
    fn multi_topic_run_delivers_per_topic_verdicts() {
        // 3 topics × 6 broadcasts round-robined: every topic's instance
        // delivers everywhere, the per-topic verdicts all hold, and the
        // records partition exactly.
        let cfg = SimConfig::new(4, Algorithm::Majority)
            .topics(3)
            .seed(19)
            .workload_topics(6, 60);
        let mut cfg = cfg;
        cfg.stop_on_full_delivery = true;
        let out = run(cfg);
        assert!(out.report.all_ok(), "{:?}", out.report.violations());
        assert!(out.all_topics_ok());
        assert_eq!(out.per_topic.len(), 3);
        for (i, t) in out.per_topic.iter().enumerate() {
            assert_eq!(t.topic, TopicId(i as u32));
            assert_eq!(t.broadcasts, 2, "6 broadcasts round-robin 3 topics");
            assert_eq!(t.deliveries, 8, "2 msgs × 4 procs");
            assert!(t.report.all_ok(), "topic {i}: {:?}", t.report.violations());
        }
        for pid in 0..4 {
            assert_eq!(out.delivered_set(pid).len(), 6);
            let on_topic_1 = out
                .metrics
                .deliveries
                .iter()
                .filter(|d| d.pid == pid && d.topic == TopicId(1))
                .count();
            assert_eq!(on_topic_1, 2);
        }
    }

    #[test]
    fn multi_topic_runs_are_deterministic_and_seed_sensitive() {
        let mk = |seed: u64| {
            let mut cfg = SimConfig::new(4, Algorithm::Majority)
                .topics(4)
                .seed(seed)
                .workload_topics(8, 40)
                .loss(LossModel::Bernoulli { p: 0.15 });
            cfg.stop_on_full_delivery = true;
            run(cfg)
        };
        let a = mk(5);
        let b = mk(5);
        assert_eq!(a.metrics.trace_hash, b.metrics.trace_hash);
        assert_eq!(a.metrics.frames_sent, b.metrics.frames_sent);
        assert_ne!(a.metrics.trace_hash, mk(6).metrics.trace_hash);
    }

    #[test]
    fn mux_frames_beat_separate_frames_on_frames_sent() {
        // The E19 claim in miniature: identical multi-topic workload, one
        // run multiplexing every step's topics into one frame, the other
        // paying one frame per topic. Message counts and verdicts agree;
        // the multiplexed run sends strictly fewer frames.
        let base = |mux: bool| {
            let mut cfg = SimConfig::new(4, Algorithm::Quiescent)
                .topics(4)
                .seed(23)
                .workload_topics(8, 10)
                .max_time(400_000);
            cfg.mux_frames = mux;
            run(cfg)
        };
        let muxed = base(true);
        let separate = base(false);
        assert!(muxed.all_topics_ok(), "{:?}", muxed.report.violations());
        assert!(separate.all_topics_ok());
        assert_eq!(
            muxed.metrics.deliveries.len(),
            separate.metrics.deliveries.len(),
            "same workload delivered either way"
        );
        assert!(
            muxed.metrics.frames_sent < separate.metrics.frames_sent,
            "multiplexing must amortize frames: {} vs {}",
            muxed.metrics.frames_sent,
            separate.metrics.frames_sent
        );
    }

    #[test]
    #[should_panic(expected = "targets topic")]
    fn broadcast_to_unconfigured_topic_panics() {
        let mut cfg = SimConfig::new(2, Algorithm::Majority);
        cfg.broadcasts[0].topic = TopicId(3); // only 1 topic configured
        let _ = run(cfg);
    }

    /// The ISSUE acceptance scenario in miniature: create a topic at tick
    /// T, run a workload on it, retire it at T'. Per-topic URB verdicts
    /// hold, the counters show every process reclaimed the instance, and
    /// the run is deterministic.
    #[test]
    fn dynamic_topic_create_workload_retire_reclaims() {
        let mk = || {
            let mut cfg = SimConfig::new(4, Algorithm::Quiescent)
                .seed(31)
                .max_time(500_000)
                .topic_event(
                    100,
                    TopicAction::Create {
                        topic: TopicId(1),
                        algorithm: None,
                    },
                )
                .topic_event(4_000, TopicAction::Retire { topic: TopicId(1) });
            cfg.broadcasts = vec![
                PlannedBroadcast {
                    time: 10,
                    pid: 0,
                    topic: TopicId::ZERO,
                    payload: Payload::from("static"),
                },
                PlannedBroadcast {
                    time: 150,
                    pid: 1,
                    topic: TopicId(1),
                    payload: Payload::from("dyn-a"),
                },
                PlannedBroadcast {
                    time: 300,
                    pid: 2,
                    topic: TopicId(1),
                    payload: Payload::from("dyn-b"),
                },
            ];
            run(cfg)
        };
        let out = mk();
        assert!(out.all_topics_ok(), "{:?}", out.report.violations());
        assert_eq!(out.per_topic.len(), 2, "static topic 0 + dynamic topic 1");
        assert_eq!(out.per_topic[1].topic, TopicId(1));
        assert_eq!(out.per_topic[1].broadcasts, 2);
        assert_eq!(out.per_topic[1].deliveries, 8, "2 msgs × 4 procs");
        assert_eq!(
            out.topics_reclaimed(),
            4,
            "every process reclaimed the retired instance"
        );
        assert!(out.quiescent, "retired state cannot block quiescence");
        // The per-process stats no longer include topic 1's state.
        for c in &out.counters {
            assert_eq!(c.topics_created, 1);
            assert_eq!(c.topics_retired, 1);
            assert_eq!(c.topics_reclaimed, 1);
        }
        let again = mk();
        assert_eq!(
            out.metrics.trace_hash, again.metrics.trace_hash,
            "lifecycle runs replay byte-deterministically"
        );
    }

    /// Broadcasts outside a topic's live window are refused — before the
    /// create, and after the retire (a draining topic accepts no new
    /// broadcasts, DESIGN.md §15). Refusals leave no records, so the
    /// verdicts still hold.
    #[test]
    fn broadcasts_outside_the_live_window_are_refused() {
        let mut cfg = SimConfig::new(3, Algorithm::Quiescent)
            .seed(33)
            .max_time(500_000)
            .topic_event(
                200,
                TopicAction::Create {
                    topic: TopicId(1),
                    algorithm: None,
                },
            )
            .topic_event(2_000, TopicAction::Retire { topic: TopicId(1) });
        cfg.broadcasts = vec![
            PlannedBroadcast {
                time: 50, // before the create: refused
                pid: 0,
                topic: TopicId(1),
                payload: Payload::from("early"),
            },
            PlannedBroadcast {
                time: 400, // live window: accepted
                pid: 1,
                topic: TopicId(1),
                payload: Payload::from("live"),
            },
            PlannedBroadcast {
                time: 9_000, // after the retire: refused
                pid: 2,
                topic: TopicId(1),
                payload: Payload::from("late"),
            },
        ];
        let out = run(cfg);
        assert!(out.all_topics_ok(), "{:?}", out.report.violations());
        assert_eq!(out.metrics.broadcasts.len(), 1, "only the live one lands");
        assert_eq!(&out.metrics.broadcasts[0].payload.bytes()[..], b"live");
        assert_eq!(out.topics_reclaimed(), 3);
    }

    /// A retired id re-created later starts clean and serves a second
    /// generation of traffic; a dynamic topic may run a *different*
    /// algorithm than the static plane.
    #[test]
    fn recreated_topic_serves_a_second_generation() {
        let mut cfg = SimConfig::new(3, Algorithm::Quiescent)
            .seed(37)
            .max_time(800_000)
            .topic_event(
                100,
                TopicAction::Create {
                    topic: TopicId(7),
                    algorithm: Some(Algorithm::Quiescent),
                },
            )
            .topic_event(3_000, TopicAction::Retire { topic: TopicId(7) })
            .topic_event(
                6_000,
                TopicAction::Create {
                    topic: TopicId(7),
                    algorithm: None,
                },
            )
            .topic_event(10_000, TopicAction::Retire { topic: TopicId(7) });
        cfg.broadcasts = vec![
            PlannedBroadcast {
                time: 10,
                pid: 0,
                topic: TopicId::ZERO,
                payload: Payload::from("m0"),
            },
            PlannedBroadcast {
                time: 500,
                pid: 1,
                topic: TopicId(7),
                payload: Payload::from("gen1"),
            },
            PlannedBroadcast {
                time: 6_500,
                pid: 2,
                topic: TopicId(7),
                payload: Payload::from("gen2"),
            },
        ];
        let out = run(cfg);
        assert!(out.all_topics_ok(), "{:?}", out.report.violations());
        let t7 = out
            .per_topic
            .iter()
            .find(|t| t.topic == TopicId(7))
            .expect("dynamic topic reported");
        assert_eq!(t7.broadcasts, 2, "one broadcast per generation");
        assert_eq!(t7.deliveries, 6, "2 msgs × 3 procs across generations");
        assert_eq!(out.topics_reclaimed(), 6, "both generations reclaimed");
        for c in &out.counters {
            assert_eq!(c.topics_created, 2);
            assert_eq!(c.topics_retired, 2);
            assert_eq!(c.topics_reclaimed, 2);
        }
    }

    /// Retiring under Algorithm 1 (which never quiesces) exercises the
    /// drain *budget*: the instance cannot drain to quiescence, so the
    /// reap fires when the budget expires — retirement must not hang on
    /// a chatty protocol.
    #[test]
    fn drain_budget_reaps_non_quiescent_algorithms() {
        let mut cfg = SimConfig::new(3, Algorithm::Majority)
            .seed(41)
            .max_time(30_000)
            .drain_ticks(5)
            .topic_event(
                100,
                TopicAction::Create {
                    topic: TopicId(1),
                    algorithm: None,
                },
            )
            .topic_event(5_000, TopicAction::Retire { topic: TopicId(1) });
        cfg.broadcasts = vec![
            PlannedBroadcast {
                time: 10,
                pid: 0,
                topic: TopicId::ZERO,
                payload: Payload::from("m0"),
            },
            PlannedBroadcast {
                time: 200,
                pid: 1,
                topic: TopicId(1),
                payload: Payload::from("m1"),
            },
        ];
        cfg.stop_on_quiescence = false;
        // Control arm: identical run, except the topic is never retired.
        let mut control = cfg.clone();
        control.topic_events.truncate(1);
        let out = run(cfg);
        let kept = run(control);
        assert!(out.all_topics_ok(), "{:?}", out.report.violations());
        assert_eq!(out.topics_reclaimed(), 3, "budget-expiry reap fired");
        assert_eq!(kept.topics_reclaimed(), 0);
        // Reclaimed means reclaimed: with the instance freed, every
        // process ends the run holding strictly less protocol state than
        // the control arm that kept the topic alive.
        for pid in 0..3 {
            assert!(
                out.final_stats[pid].total() < kept.final_stats[pid].total(),
                "pid {pid}: {} vs control {}",
                out.final_stats[pid].total(),
                kept.final_stats[pid].total()
            );
        }
    }

    #[test]
    fn lossy_run_alg1_still_correct() {
        let cfg = SimConfig::new(5, Algorithm::Majority)
            .seed(9)
            .loss(LossModel::Bernoulli { p: 0.3 })
            .max_time(50_000);
        let out = run(cfg);
        assert!(out.report.all_ok(), "{:?}", out.report.violations());
        assert!(out.metrics.dropped.iter().sum::<u64>() > 0, "loss happened");
    }

    #[test]
    fn minority_crashes_alg1_ok() {
        let cfg = SimConfig::new(5, Algorithm::Majority)
            .seed(10)
            .crashes(CrashPlan::random(5, 2, 300, 10, Some(0)))
            .max_time(50_000);
        let out = run(cfg);
        assert!(out.report.all_ok(), "{:?}", out.report.violations());
    }

    #[test]
    fn majority_crashes_alg2_ok() {
        // The headline claim: URB with any number of crashes under AΘ/AP*.
        let cfg = SimConfig::new(5, Algorithm::Quiescent)
            .seed(11)
            .crashes(CrashPlan::random(5, 4, 300, 11, Some(0)))
            .max_time(500_000);
        let out = run(cfg);
        assert!(out.all_ok(), "{:?}", out.report.violations());
        assert!(out.quiescent);
    }

    #[test]
    fn crashed_process_stops_completely() {
        let cfg = SimConfig::new(3, Algorithm::Majority)
            .seed(12)
            .crashes(CrashPlan::from_rules(vec![
                CrashRule::At(5), // broadcaster dies almost immediately
                CrashRule::Never,
                CrashRule::Never,
            ]))
            .max_time(20_000);
        let out = run(cfg);
        // Process 0 crashed at t=5, broadcast was at t=10 → no-op.
        assert!(out.metrics.broadcasts.is_empty());
        assert!(out.metrics.deliveries.is_empty());
        assert!(out.report.all_ok());
    }

    #[test]
    fn stats_sampling_collects() {
        let mut cfg = SimConfig::new(3, Algorithm::Majority)
            .seed(13)
            .max_time(5_000);
        cfg.stats_interval = 500;
        cfg.stop_on_quiescence = false;
        let out = run(cfg);
        assert!(out.metrics.stats_samples.len() >= 8);
        assert_eq!(out.metrics.stats_samples[0].per_process.len(), 3);
    }

    #[test]
    fn heartbeat_fd_runs_alg2() {
        let mut cfg = SimConfig::new(4, Algorithm::Quiescent)
            .seed(14)
            .max_time(100_000);
        cfg.fd = FdKind::Heartbeat(HeartbeatConfig::default());
        let out = run(cfg);
        // With no loss and no crashes the heartbeat estimator is exact
        // after warm-up, so the run must be correct and quiescent.
        assert!(out.report.all_ok(), "{:?}", out.report.violations());
        assert!(out.quiescent);
        assert!(out.fd_audit.is_none(), "no audit for heartbeat runs");
    }

    #[test]
    fn partition_heals_and_urb_completes() {
        // Processes {0,1} and {2,3} are fully cut from each other for the
        // first 2000 ticks — longer than any normal convergence. Fairness
        // resumes at the heal, so Algorithm 1 must still finish URB.
        let mut cfg = SimConfig::new(4, Algorithm::Majority)
            .seed(33)
            .max_time(50_000);
        cfg.blackouts = Blackout::partition(&[0, 1], &[2, 3], 0, 2_000);
        cfg.stop_on_full_delivery = true;
        let out = run(cfg);
        assert!(out.report.all_ok(), "{:?}", out.report.violations());
        for pid in 0..4 {
            assert_eq!(out.delivered_set(pid).len(), 1, "pid {pid}");
        }
        // No delivery can cross the cut before the heal: with {0,1} alone,
        // only 2 distinct ACKs exist < majority 3.
        for d in &out.metrics.deliveries {
            assert!(
                d.time >= 2_000,
                "delivery at t={} predates the heal",
                d.time
            );
        }
    }

    #[test]
    fn blackout_covers_window_edges() {
        let b = Blackout {
            from: 0,
            to: 1,
            start: 10,
            end: 20,
        };
        assert!(!b.covers(0, 1, 9));
        assert!(b.covers(0, 1, 10));
        assert!(b.covers(0, 1, 19));
        assert!(!b.covers(0, 1, 20));
        assert!(!b.covers(1, 0, 15), "directed");
    }

    #[test]
    fn trace_records_full_message_lifecycle() {
        // A lossy run, so the wire events include drops as well as sends
        // and receptions.
        let mut cfg = SimConfig::new(3, Algorithm::Majority)
            .seed(20)
            .loss(LossModel::Bernoulli { p: 0.3 });
        cfg.trace = crate::trace::TraceConfig::full(100_000);
        cfg.stop_on_full_delivery = true;
        let out = run(cfg);
        assert!(!out.trace.is_empty());
        let tag = out.metrics.broadcasts[0].tag;
        use crate::trace::TraceKind;
        let tl: Vec<TraceKind> = out
            .trace
            .events
            .iter()
            .filter(|e| e.tag == Some(tag))
            .map(|e| e.kind)
            .collect();
        assert!(tl.contains(&TraceKind::UrbBroadcast));
        assert!(tl.contains(&TraceKind::Send));
        assert!(tl.contains(&TraceKind::Receive));
        assert_eq!(
            tl.iter().filter(|&&k| k == TraceKind::UrbDeliver).count(),
            3,
            "every process delivers exactly once"
        );
        // JSON export round-trips a parse and carries every wire event
        // kind `urb run --trace` writes.
        let json = out.trace.to_json();
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        let events = parsed["events"].as_array().unwrap();
        assert_eq!(events.len(), out.trace.len());
        for kind in ["Send", "Receive", "Drop"] {
            assert!(
                events.iter().any(|e| e["kind"] == kind),
                "no {kind} event in the trace JSON"
            );
        }
    }

    #[test]
    fn trace_disabled_by_default_and_costless() {
        let out = run(SimConfig::new(3, Algorithm::Majority).seed(21));
        assert!(out.trace.is_empty());
        assert!(!out.trace.truncated);
    }

    #[test]
    fn partition_override_blocks_links() {
        // Sever every link out of process 0; its broadcast reaches nobody,
        // Algorithm 1 cannot gather a quorum anywhere — nobody delivers.
        let mut cfg = SimConfig::new(4, Algorithm::Majority)
            .seed(15)
            .max_time(20_000);
        cfg.link_overrides = (1..4)
            .map(|to| LinkOverride {
                from: 0,
                to,
                loss: LossModel::Always,
            })
            .collect();
        let out = run(cfg);
        // Process 0 ACKs itself (self-channel is reliable) but 1 < 3.
        assert!(out.metrics.deliveries.is_empty());
        // Agreement and integrity hold vacuously; validity is *violated* —
        // and rightly so: a forever-severed link breaks the fair-lossy
        // Fairness axiom, so this run is outside the paper's model and the
        // correct broadcaster can indeed never deliver its own message.
        assert!(out.report.agreement.ok());
        assert!(out.report.integrity.ok());
        assert!(!out.report.validity.ok(), "severed links break validity");
    }
}
