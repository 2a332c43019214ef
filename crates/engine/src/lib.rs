//! # `urb-engine`
//!
//! The backend-agnostic per-node driving engine of the `anon-urb`
//! workspace.
//!
//! Several drivers execute the paper's protocols: the discrete-event
//! simulator and its flood planes (`urb-sim`), the schedule explorer
//! (`urb-check`) and the threaded and socket runtimes (`urb-runtime`).
//! Before this crate existed each of them re-implemented the same cycle —
//! take a failure-detector snapshot, run one protocol step through the
//! sans-io [`AnonProcess`] trait, collect the URB deliveries, drain the
//! outbox toward the network — and each guarded it its own way. The
//! engine owns that cycle once, as one node every driver steps:
//!
//! * [`Node`] — one process of the paper: its [`TopicEngine`], the
//!   [`MuxBuffers`] its steps fill and the system size. `broadcast`
//!   (refused unless the topic is live), per-message `receive` (inert
//!   without an instance), `receive_frame`, `tick` and `apply` /
//!   `control` — the one place a [`TopicControl`] is decoded and
//!   validated. The detector view is an argument of every step: the node
//!   reads no clock and holds no detector;
//! * [`TopicEngine`] — the node's per-topic layer: one protocol instance
//!   per topic, one deterministic RNG stream, cumulative
//!   [`EngineCounters`], the topic lifecycle and the snapshot plane;
//! * **one stepping surface** (DESIGN.md §2): every step lands in
//!   [`MuxBuffers`] — [`TopicEngine::step_mux`] for one input,
//!   [`TopicEngine::receive_mux_frame`] for a received frame, and
//!   [`TopicEngine::tick_all`] for *the* node tick (sweep every instance
//!   that has work → reap drained topics → compact if memory is
//!   configured). Each of them runs [`drive_step`], the one dispatch of a
//!   protocol step (defined in `urb-types` beside the trait it drives, so
//!   `urb_core`'s single-process test harness calls it too);
//! * the **frame plane** (DESIGN.md §10, §12): [`MuxBuffers`] accumulates
//!   what every stepped topic emitted, [`MuxBuffers::take_mux_frame`]
//!   encodes it straight into a pooled buffer (zero per-message
//!   allocation) as the one [`urb_types::MuxBatch`] frame the wire knows,
//!   and [`TopicEngine::receive_mux_frame`] decodes incoming frames with
//!   shared payloads into persistent scratch — routing cost scales with
//!   steps, not messages, while per-message `retransmit_key` identity
//!   (the fair-lossy bookkeeping unit) is preserved.
//!
//! What stays driver-specific is exactly what *differs* between drivers:
//! where the [`FdSnapshot`] comes from (oracle/heartbeat service keyed by
//! simulated time, the checker's perfect detector, membership registry
//! keyed by wall-clock time), how a node's tag stream is derived, and
//! what happens to the drained frame (event-queue scheduling, pending
//! choices, channel send, socket write).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use bytes::Bytes;
use std::collections::{BTreeSet, HashMap};
use urb_types::snapshot::unseal;
pub use urb_types::StepInput;
use urb_types::{drive_step, StepBuffers};
use urb_types::{
    encode_mux_frame_with_controls_into, AnonProcess, BufPool, CodecError, Delivery, FdSnapshot,
    MemoryConfig, MuxBatch, PooledBuf, ProcessStats, SnapshotError, SnapshotReader, SnapshotWriter,
    SplitMix64, Tag, TopicControl, TopicId, WireMessage,
};

mod node;
pub use node::{Node, TopicAction};

/// Cumulative per-node activity counters maintained by [`TopicEngine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Total protocol steps executed.
    pub steps: u64,
    /// Task-1 sweeps among them.
    pub ticks: u64,
    /// Messages received and processed.
    pub receives: u64,
    /// `URB_broadcast` invocations.
    pub broadcasts: u64,
    /// Messages emitted to the outbox across all steps.
    pub messages_out: u64,
    /// URB-deliveries produced across all steps.
    pub deliveries: u64,
    /// Compaction sweeps executed (one per [`TopicEngine::tick_all`] once
    /// [`TopicEngine::configure_memory`] was called, none before).
    pub compactions: u64,
    /// State entries reclaimed by compaction, in [`ProcessStats::total`]
    /// units (summed over every sweep and topic).
    pub reclaimed: u64,
    /// Tags moved into tombstone rings by compaction.
    pub tombstoned: u64,
    /// Topic instances brought live at runtime
    /// ([`TopicEngine::create_topic`] successes; the statically configured
    /// instances are not counted).
    pub topics_created: u64,
    /// Topics whose retirement drain was initiated
    /// ([`TopicEngine::retire_topic`] successes).
    pub topics_retired: u64,
    /// Retired topic instances whose state was fully reclaimed after the
    /// drain (DESIGN.md §15: every reclaimed instance was retired first).
    pub topics_reclaimed: u64,
}

/// Reusable buffers for the **multiplexed topic plane** (DESIGN.md §12):
/// what [`StepBuffers`] is to one protocol instance, `MuxBuffers` is to a
/// whole [`TopicEngine`] — every emission and delivery carries the
/// [`TopicId`] of the instance that produced it, and the outbox drains as
/// one multiplexed frame regardless of how many topics contributed.
#[derive(Debug, Default)]
pub struct MuxBuffers {
    /// Topic-tagged emissions, grouped in ascending topic order.
    pub outbox: Vec<(TopicId, WireMessage)>,
    /// Topic-tagged URB-deliveries, in production order.
    pub deliveries: Vec<(TopicId, Delivery)>,
    /// Lifecycle control operations (DESIGN.md §15). On egress, a driver
    /// pushes the controls it wants to gossip here and
    /// [`MuxBuffers::take_mux_frame`] rides them on the next frame; on
    /// ingress, [`TopicEngine::receive_mux_frame`] surfaces the received
    /// frame's control section here for the driver to apply (the engine
    /// itself cannot instantiate algorithms — that is driver policy).
    pub controls: Vec<TopicControl>,
}

impl MuxBuffers {
    /// Fresh, empty buffers.
    pub fn new() -> Self {
        MuxBuffers::default()
    }

    /// Clears all buffers (capacity retained).
    pub fn clear(&mut self) {
        self.outbox.clear();
        self.deliveries.clear();
        self.controls.clear();
    }

    /// Encodes and drains the outbox (plus any pending controls) as one
    /// **multiplexed wire frame** through the zero-copy codec: acquires a
    /// recycled buffer from `pool`, writes the topic-keyed sub-batches
    /// with no per-message allocation
    /// ([`urb_types::encode_mux_frame_with_controls_into`]) and clears the
    /// outbox in place. Returns `None` when nothing was emitted and no
    /// control is pending. With no controls the frame bytes are identical
    /// to the pre-lifecycle format — the static-topic byte-compat
    /// guarantee. However many topics a node stepped, one frame leaves.
    pub fn take_mux_frame(&mut self, pool: &BufPool) -> Option<PooledBuf> {
        if self.outbox.is_empty() && self.controls.is_empty() {
            return None;
        }
        let mut frame = pool.acquire();
        encode_mux_frame_with_controls_into(&self.outbox, &self.controls, &mut frame);
        self.outbox.clear();
        self.controls.clear();
        Some(frame)
    }
}

/// The owning per-node engine of the **topic plane**: one protocol
/// instance per [`TopicId`], all sharing a single deterministic RNG
/// stream and one failure-detector view, plus cumulative counters.
///
/// The paper's protocols are per-instance state machines; a node serving
/// many topics runs one instance each and multiplexes their traffic over
/// the shared links (DESIGN.md §12). `TopicEngine` owns that map. With
/// exactly one topic it is bit-for-bit the
/// pre-topic single-instance engine — same RNG consumption, same counters
/// — which is what keeps every single-topic artifact byte-identical.
///
/// Since the dynamic topic control plane (DESIGN.md §15) the map is an
/// interned **slot map**: a sorted directory of `TopicId → slot` entries
/// instead of a dense `Vec` indexed by id. Statically configured engines
/// still get dense ids `0..n` and behave identically; at runtime a driver
/// may [`create_topic`](TopicEngine::create_topic) new instances lazily
/// and [`retire_topic`](TopicEngine::retire_topic) old ones. Retirement is
/// graceful: the slot enters a **draining** state in which it no longer
/// accepts broadcasts but keeps retransmitting (Task 1) until it is
/// quiescent — or a drain budget expires — at which point
/// [`reap_drained`](TopicEngine::reap_drained) pushes its remaining state
/// through the PR-8 compaction path and frees the slot, leaving only a
/// retired-id tombstone.
pub struct TopicEngine {
    /// Live and draining topic instances, sorted ascending by topic id —
    /// the interned slot map. Statically configured engines hold dense
    /// ids `0..n` here. Ordered traversals of *every* instance
    /// (fingerprints, snapshots, stats) walk this vector; point lookups go
    /// through `directory`, the node tick through `active`.
    slots: Vec<TopicSlot>,
    /// The O(1) id → slot/tombstone directory (DESIGN.md §16), maintained
    /// incrementally by create/retire/reap and rebuilt on restore.
    directory: TopicDirectory,
    /// The **active index** (DESIGN.md §16): the topics whose slot has
    /// [`TopicSlot::active`] set — every slot that is draining or whose
    /// instance is not quiescent, plus at most a few stale entries a tick
    /// drops. [`tick_all`](TopicEngine::tick_all) sweeps this, not `slots`.
    /// Appended to where a slot can gain work (the step funnel, create,
    /// retire), sorted by the tick, rebuilt on restore.
    active: Vec<TopicId>,
    /// Number of draining slots (each of them is listed in `active`).
    draining: usize,
    /// Tombstones of reaped topics: traffic addressed to these ids is
    /// dropped inert instead of erroring as unknown.
    retired: BTreeSet<TopicId>,
    /// Remembered memory configuration, applied to late-created instances
    /// so they compact like the statically configured ones.
    memory: Option<MemoryConfig>,
    /// Drain budget: a draining slot that is still not quiescent after
    /// this many [`reap_drained`](TopicEngine::reap_drained) sweeps is
    /// reaped anyway (DESIGN.md §15 quiescence rule).
    drain_limit: u32,
    /// The algorithm name, captured at construction (stable even after
    /// every slot is reaped).
    alg_name: &'static str,
    rng: SplitMix64,
    counters: EngineCounters,
    /// Persistent per-message scratch for the mux stepping paths, so
    /// receive loops allocate nothing in steady state.
    batch_scratch: StepBuffers,
    /// Persistent decoded-entry scratch for
    /// [`TopicEngine::receive_mux_frame`].
    mux_scratch: Vec<(TopicId, WireMessage)>,
    /// Persistent decoded-control scratch for
    /// [`TopicEngine::receive_mux_frame`].
    control_scratch: Vec<TopicControl>,
}

/// One entry of the interned topic directory.
struct TopicSlot {
    /// The topic this slot serves.
    topic: TopicId,
    /// The protocol instance.
    proc: Box<dyn AnonProcess + Send>,
    /// True once retirement was requested: no new broadcasts, keep
    /// retransmitting until quiescent or the drain budget expires.
    draining: bool,
    /// Drain sweeps survived so far (compared against
    /// [`TopicEngine::drain_limit`]).
    drain_ticks: u32,
    /// True while the topic is listed in [`TopicEngine::active`]. Unset
    /// implies the instance is quiescent and the slot not draining; the
    /// converse may lag by one tick.
    active: bool,
}

impl TopicSlot {
    /// Whether a node tick has anything to do here: Task 1 of a quiescent
    /// instance is a no-op (the [`AnonProcess::is_quiescent`] contract),
    /// and only a draining slot is ever reaped.
    fn has_work(&self) -> bool {
        self.draining || !self.proc.is_quiescent()
    }
}

/// Default drain budget: a draining topic gets this many reap sweeps to
/// reach quiescence before its state is reclaimed regardless.
pub const DEFAULT_DRAIN_LIMIT: u32 = 32;

/// Directory entry sentinel: the id was never created (or was created and
/// later re-created — entries always reflect the *current* lifecycle).
const DIR_ABSENT: u32 = u32::MAX;
/// Directory entry sentinel: the id was retired and its instance
/// reclaimed — traffic drops inert (the tombstone verdict, one probe).
const DIR_RETIRED: u32 = u32::MAX - 1;
/// How far past the current dense range a new id may land while still
/// growing the dense array instead of falling into the hash-map lane.
/// Ascending creation (the 100k-topics pattern) therefore stays dense
/// end to end; a genuinely sparse id (say `0xDEAD_BEEF` on a 10-topic
/// node) costs one hash probe instead of 4 GiB of array.
const DENSE_DIRECTORY_SLACK: u32 = 4096;

/// The O(1) topic directory (DESIGN.md §16): one entry per known topic
/// id, mapping straight to the slot index — with the retired-tombstone
/// verdict folded into the *same* entry, so the dispatch hot path does
/// exactly one probe where it used to do a binary search over the slot
/// vector plus a `BTreeSet` probe for tombstones (~17 probes at the
/// ROADMAP's 100k-topic target).
///
/// Layout: ids below `dense.len()` live in a dense array (statically
/// configured engines and ascending runtime creation both land here);
/// larger ids fall back to a hash map. Entries are slot indices, or the
/// [`DIR_ABSENT`]/[`DIR_RETIRED`] sentinels. The sorted slot vector
/// remains the source of truth for everything *ordered* —
/// fingerprints, snapshots, mux encoding — the directory only answers
/// point lookups, and create/retire/reap maintain it incrementally.
struct TopicDirectory {
    /// Entries for the dense id range `0..dense.len()`.
    dense: Vec<u32>,
    /// Fallback entries for ids beyond the dense range. Never iterated —
    /// all ordered traversal goes over the slot vector — so map order
    /// cannot leak into any deterministic artifact.
    sparse: HashMap<u32, u32>,
}

impl TopicDirectory {
    /// Directory for a statically configured engine: dense ids `0..n`,
    /// each mapped to its own slot index.
    fn with_dense(n: usize) -> Self {
        TopicDirectory {
            dense: (0..n as u32).collect(),
            sparse: HashMap::new(),
        }
    }

    /// The single hot-path probe: slot index, [`DIR_RETIRED`] or
    /// [`DIR_ABSENT`].
    #[inline]
    fn entry(&self, id: u32) -> u32 {
        match self.dense.get(id as usize) {
            Some(&e) => e,
            None => self.sparse.get(&id).copied().unwrap_or(DIR_ABSENT),
        }
    }

    /// Writes one entry, growing the dense range when `id` lands within
    /// [`DENSE_DIRECTORY_SLACK`] of it (migrating any hash-map entries the
    /// growth swallows). Control-plane only — the hot path never writes.
    fn set(&mut self, id: u32, entry: u32) {
        if (id as usize) < self.dense.len() {
            self.dense[id as usize] = entry;
        } else if entry == DIR_ABSENT {
            self.sparse.remove(&id);
        } else if (id as u64) < self.dense.len() as u64 + DENSE_DIRECTORY_SLACK as u64 {
            let new_len = id as usize + 1;
            self.dense.resize(new_len, DIR_ABSENT);
            if !self.sparse.is_empty() {
                let swallowed: Vec<u32> = self
                    .sparse
                    .keys()
                    .copied()
                    .filter(|k| (*k as usize) < new_len)
                    .collect();
                for k in swallowed {
                    let v = self.sparse.remove(&k).expect("key just listed");
                    self.dense[k as usize] = v;
                }
            }
            self.dense[id as usize] = entry;
        } else {
            self.sparse.insert(id, entry);
        }
    }

    /// Rebuilds the directory from scratch — the snapshot-restore path,
    /// where the retired set is replaced wholesale.
    fn rebuild(slots: &[TopicSlot], retired: &BTreeSet<TopicId>) -> Self {
        let mut dir = TopicDirectory {
            dense: Vec::new(),
            sparse: HashMap::new(),
        };
        for (i, s) in slots.iter().enumerate() {
            dir.set(s.topic.0, i as u32);
        }
        for t in retired {
            dir.set(t.0, DIR_RETIRED);
        }
        dir
    }
}

/// What one directory probe says about a topic id — the four lifecycle
/// verdicts of DESIGN.md §15, resolved in O(1) (DESIGN.md §16).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TopicState {
    /// A live instance exists at this slot index (accepts broadcasts).
    Live(usize),
    /// A draining instance exists at this slot index (still receives and
    /// retransmits, refuses new broadcasts).
    Draining(usize),
    /// The id was retired and reclaimed: traffic drops inert.
    Retired,
    /// The engine has never known this id.
    Unknown,
}

impl TopicEngine {
    /// Builds an engine over `instances` (index = topic id), sharing one
    /// RNG stream across every instance — the per-node randomness budget
    /// does not grow with topic count, and a one-topic engine consumes
    /// the stream exactly like the pre-topic single-instance engine.
    pub fn new(instances: Vec<Box<dyn AnonProcess + Send>>, rng: SplitMix64) -> Self {
        assert!(!instances.is_empty(), "an engine needs at least one topic");
        let alg_name = instances[0].algorithm_name();
        let directory = TopicDirectory::with_dense(instances.len());
        let mut engine = TopicEngine {
            directory,
            active: Vec::new(),
            draining: 0,
            slots: instances
                .into_iter()
                .enumerate()
                .map(|(t, proc)| TopicSlot {
                    topic: TopicId(t as u32),
                    proc,
                    draining: false,
                    drain_ticks: 0,
                    active: false,
                })
                .collect(),
            retired: BTreeSet::new(),
            memory: None,
            drain_limit: DEFAULT_DRAIN_LIMIT,
            alg_name,
            rng,
            counters: EngineCounters::default(),
            batch_scratch: StepBuffers::new(),
            mux_scratch: Vec::new(),
            control_scratch: Vec::new(),
        };
        engine.rebuild_active();
        engine
    }

    /// Rebuilds the active index and the draining count from the slots —
    /// construction and snapshot restore, where every slot's state is
    /// replaced at once (the way the directory is rebuilt).
    fn rebuild_active(&mut self) {
        self.active.clear();
        self.draining = 0;
        for slot in &mut self.slots {
            slot.active = slot.has_work();
            if slot.active {
                self.active.push(slot.topic);
            }
            self.draining += usize::from(slot.draining);
        }
    }

    /// Lists slot `i` in the active index unless it already is.
    fn activate(&mut self, i: usize) {
        let slot = &mut self.slots[i];
        if !slot.active {
            slot.active = true;
            self.active.push(slot.topic);
        }
    }

    /// Number of topic instances this engine currently holds (live plus
    /// draining; reaped topics no longer count).
    pub fn topic_count(&self) -> usize {
        self.slots.len()
    }

    /// Slot index of `topic`, if an instance (live or draining) exists.
    /// One directory probe (DESIGN.md §16) — this used to be a binary
    /// search over the slot vector.
    #[inline]
    fn slot_index(&self, topic: TopicId) -> Option<usize> {
        let e = self.directory.entry(topic.0);
        if e < DIR_RETIRED {
            Some(e as usize)
        } else {
            None
        }
    }

    /// Resolves `topic`'s full lifecycle verdict in one directory probe:
    /// live/draining (with the slot index), retired tombstone, or never
    /// known. This is the dispatch hot path's entire lookup — and the
    /// surface the equivalence tests compare against a binary-search model.
    #[inline]
    pub fn resolve(&self, topic: TopicId) -> TopicState {
        match self.directory.entry(topic.0) {
            DIR_ABSENT => TopicState::Unknown,
            DIR_RETIRED => TopicState::Retired,
            i => {
                let i = i as usize;
                if self.slots[i].draining {
                    TopicState::Draining(i)
                } else {
                    TopicState::Live(i)
                }
            }
        }
    }

    /// Slot index of `topic`, panicking when absent — the contract of the
    /// stepping APIs: drivers route only to topics they know are present.
    fn slot_index_or_panic(&self, topic: TopicId) -> usize {
        self.slot_index(topic).unwrap_or_else(|| {
            panic!("engine serves no instance for {topic} (not created, or already reclaimed)")
        })
    }

    // ---- dynamic lifecycle (DESIGN.md §15) --------------------------

    /// True when `topic` has a **live** instance: created (statically or
    /// dynamically), not retired. Draining topics are no longer live —
    /// they accept no new broadcasts.
    pub fn is_live(&self, topic: TopicId) -> bool {
        self.slot_index(topic)
            .is_some_and(|i| !self.slots[i].draining)
    }

    /// True when `topic` holds an instance at all — live or draining.
    /// Draining instances still receive and retransmit (that is the point
    /// of the drain), they just refuse new broadcasts.
    pub fn has_instance(&self, topic: TopicId) -> bool {
        self.slot_index(topic).is_some()
    }

    /// True when `topic` was retired and its instance reclaimed (the
    /// tombstone state; cleared if the id is later re-created). One
    /// directory probe — the ordered `retired` set is kept only for
    /// fingerprints and snapshots, which need ascending iteration.
    pub fn is_retired(&self, topic: TopicId) -> bool {
        self.directory.entry(topic.0) == DIR_RETIRED
    }

    /// The live topic ids, ascending (draining topics excluded).
    pub fn live_topics(&self) -> impl Iterator<Item = TopicId> + '_ {
        self.slots.iter().filter(|s| !s.draining).map(|s| s.topic)
    }

    /// Sets the drain budget (sweeps a draining topic may survive without
    /// reaching quiescence before it is reaped anyway).
    pub fn set_drain_limit(&mut self, limit: u32) {
        self.drain_limit = limit;
    }

    /// Brings `topic` live with the given protocol instance — the lazy
    /// instantiation entry point of the control plane. Returns `false`
    /// (and drops `proc`) when an instance already exists, live or
    /// draining: creates are idempotent. A previously retired id is
    /// **re-created clean**: the tombstone is cleared and the fresh
    /// instance starts with empty state. The engine's remembered memory
    /// configuration (if any) is applied so late instances compact like
    /// static ones.
    pub fn create_topic(&mut self, topic: TopicId, proc: Box<dyn AnonProcess + Send>) -> bool {
        match self.slots.binary_search_by_key(&topic, |s| s.topic) {
            Ok(_) => false,
            Err(at) => {
                let mut proc = proc;
                if let Some(cfg) = self.memory {
                    proc.configure_memory(cfg);
                }
                self.retired.remove(&topic);
                self.slots.insert(
                    at,
                    TopicSlot {
                        topic,
                        proc,
                        draining: false,
                        drain_ticks: 0,
                        active: false,
                    },
                );
                // Incremental directory maintenance: the new id maps to
                // its slot (clearing any tombstone entry), and every slot
                // the insertion shifted right is re-pointed. Ascending
                // creation inserts at the end, so the fix-up loop is
                // empty on the 100k-topics growth pattern.
                self.directory.set(topic.0, at as u32);
                for j in (at + 1)..self.slots.len() {
                    self.directory.set(self.slots[j].topic.0, j as u32);
                }
                if self.slots[at].has_work() {
                    self.activate(at);
                }
                self.counters.topics_created += 1;
                true
            }
        }
    }

    /// Initiates `topic`'s retirement: the instance stops accepting
    /// broadcasts and enters the **draining** state, in which it keeps
    /// retransmitting (Task 1 still sweeps it) until it is quiescent or
    /// the drain budget expires; [`reap_drained`](TopicEngine::reap_drained)
    /// then reclaims its state. Returns `false` when `topic` has no live
    /// instance (absent, already draining, or already reclaimed).
    pub fn retire_topic(&mut self, topic: TopicId) -> bool {
        match self.slot_index(topic) {
            Some(i) if !self.slots[i].draining => {
                self.slots[i].draining = true;
                self.slots[i].drain_ticks = 0;
                self.draining += 1;
                self.activate(i);
                self.counters.topics_retired += 1;
                true
            }
            _ => false,
        }
    }

    /// Reaps every draining slot that is quiescent — or has exhausted the
    /// drain budget — under the caller's failure-detector snapshot: the
    /// instance's remaining state is pushed through the PR-8 compaction
    /// path ([`AnonProcess::compact`]), whatever survives is counted as
    /// reclaimed, and the slot is freed, leaving a retired-id tombstone.
    /// Returns the number of instances reclaimed. Called automatically at
    /// the end of every [`tick_all`](TopicEngine::tick_all); one counter
    /// test for engines with nothing draining, and otherwise a walk of the
    /// active index (every draining slot is listed), not of the slots.
    pub fn reap_drained(&mut self, fd: &FdSnapshot) -> usize {
        if self.draining == 0 {
            return 0;
        }
        let mut reaped = 0usize;
        let mut active = std::mem::take(&mut self.active);
        active.retain(|&topic| {
            let i = self.slot_index_or_panic(topic);
            let slot = &mut self.slots[i];
            if !slot.draining {
                return true;
            }
            slot.drain_ticks += 1;
            if !slot.proc.is_quiescent() && slot.drain_ticks <= self.drain_limit {
                return true;
            }
            // Quiescent (the drain succeeded) or out of budget: compact,
            // count what is left, free the slot.
            let report = slot.proc.compact(fd);
            let remaining = slot.proc.stats().total();
            self.counters.reclaimed += (report.reclaimed + remaining) as u64;
            self.counters.tombstoned += report.tombstoned as u64;
            self.counters.topics_reclaimed += 1;
            self.slots.remove(i);
            self.draining -= 1;
            self.retired.insert(topic);
            // Incremental directory maintenance: the reaped id becomes a
            // tombstone entry and every slot the removal shifted left is
            // re-pointed.
            self.directory.set(topic.0, DIR_RETIRED);
            for j in i..self.slots.len() {
                self.directory.set(self.slots[j].topic.0, j as u32);
            }
            reaped += 1;
            false
        });
        self.active = active;
        reaped
    }

    /// Steps `topic` and appends its tagged effects to `mux` (which is
    /// *not* cleared — successive topic steps accumulate into one
    /// multiplexed outbox, drained by [`MuxBuffers::take_mux_frame`]).
    /// Panics when `topic` has no instance — drivers route only to topics
    /// they know are present (lifecycle-aware ones consult
    /// [`TopicEngine::is_live`] / [`TopicEngine::has_instance`] first).
    pub fn step_mux(
        &mut self,
        topic: TopicId,
        input: StepInput,
        fd: &FdSnapshot,
        mux: &mut MuxBuffers,
    ) -> Option<Tag> {
        let i = self.slot_index_or_panic(topic);
        self.step_mux_slot(i, topic, input, fd, mux)
    }

    /// [`TopicEngine::step_mux`] with the slot already resolved: one
    /// counted [`drive_step`] of the instance at slot `i` — the core every
    /// stepping path funnels through once it has probed (or
    /// run-length-cached) the slot index. Also the one place an instance
    /// can leave quiescence, so the one place that lists a slot in the
    /// active index on account of its instance: a `Receive`/`Broadcast`
    /// landing on an unlisted slot asks the instance afterwards; a listed
    /// slot (the hot path) pays one flag test.
    fn step_mux_slot(
        &mut self,
        i: usize,
        topic: TopicId,
        input: StepInput,
        fd: &FdSnapshot,
        mux: &mut MuxBuffers,
    ) -> Option<Tag> {
        self.counters.steps += 1;
        match &input {
            StepInput::Tick => self.counters.ticks += 1,
            StepInput::Receive(_) => self.counters.receives += 1,
            StepInput::Broadcast(_) => self.counters.broadcasts += 1,
        }
        let may_wake = !matches!(input, StepInput::Tick);
        let buf = &mut self.batch_scratch;
        let proc = self.slots[i].proc.as_mut();
        let tag = drive_step(proc, input, fd, &mut self.rng, buf);
        self.counters.messages_out += buf.outbox.len() as u64;
        self.counters.deliveries += buf.deliveries.len() as u64;
        mux.outbox.extend(buf.outbox.drain(..).map(|m| (topic, m)));
        mux.deliveries
            .extend(buf.deliveries.drain(..).map(|d| (topic, d)));
        let slot = &self.slots[i];
        if may_wake && !slot.active && !slot.proc.is_quiescent() {
            self.activate(i);
        }
        tag
    }

    /// One Task-1 sweep of every topic instance **that has work** — the
    /// active index: draining slots (a draining instance keeps
    /// retransmitting; that is what drains it) and non-quiescent
    /// instances — ascending by topic, all effects accumulated into `mux`
    /// (cleared first). A quiescent instance's sweep is a no-op by the
    /// [`AnonProcess::is_quiescent`] contract, so it is counted in
    /// [`EngineCounters`] but not executed: a tick costs O(active), not
    /// O(topics). This is **the** node tick, for every driver: however
    /// many instances swept, the caller drains exactly one multiplexed
    /// frame. Then, under the same snapshot, the two housekeeping passes
    /// that belong to a tick and nowhere else: a
    /// [`reap_drained`](TopicEngine::reap_drained) sweep (one counter test
    /// when nothing is draining) and — iff
    /// [`configure_memory`](TopicEngine::configure_memory) was called —
    /// one compaction sweep (DESIGN.md §14). Neither draws randomness nor
    /// emits.
    pub fn tick_all(&mut self, fd: &FdSnapshot, mux: &mut MuxBuffers) {
        mux.clear();
        // Activation appends; Task-1 emission order is ascending topic.
        self.active.sort_unstable();
        // Nothing reshapes the slot vector or lists a topic mid-sweep (a
        // `Tick` wakes nobody; the reap below runs after), so the index
        // can be walked detached and each entry's slot probed once.
        let mut active = std::mem::take(&mut self.active);
        let elided = (self.slots.len() - active.len()) as u64;
        active.retain(|&topic| {
            let i = self.slot_index_or_panic(topic);
            self.step_mux_slot(i, topic, StepInput::Tick, fd, mux);
            let slot = &mut self.slots[i];
            slot.active = slot.has_work();
            slot.active
        });
        self.active = active;
        self.counters.steps += elided;
        self.counters.ticks += elided;
        self.reap_drained(fd);
        if self.memory.is_some() {
            self.compact_all(fd);
        }
    }

    /// Feeds every entry of a received **multiplexed frame** through the
    /// matching topic instance: decodes with shared payloads into a
    /// persistent scratch (zero copies, zero steady-state allocation),
    /// then steps per message. `before_each` runs before each step and
    /// supplies the failure-detector snapshot it must observe. Effects
    /// accumulate into `mux` (cleared first).
    ///
    /// Lifecycle interplay (DESIGN.md §15):
    /// * entries addressed to a **retired** topic are dropped inert — a
    ///   reclaimed instance has no state to consult, and late
    ///   retransmissions from slower peers are expected;
    /// * entries addressed to a topic this engine has **never known** are
    ///   a routing bug (or a create that has not landed yet), reported as
    ///   [`MuxIngressError::UnknownTopic`] before any message is stepped —
    ///   lossy-tolerant drivers treat the whole frame like a lost message
    ///   and rely on retransmission;
    /// * the frame's [`TopicControl`] section is surfaced into
    ///   [`MuxBuffers::controls`] for the driver to apply — instantiation
    ///   policy (which `Algorithm`, whether to honor a create) lives in
    ///   the driver, not the engine.
    pub fn receive_mux_frame(
        &mut self,
        frame: &Bytes,
        mux: &mut MuxBuffers,
        mut before_each: impl FnMut(TopicId, &WireMessage) -> FdSnapshot,
    ) -> Result<(), MuxIngressError> {
        let mut entries = std::mem::take(&mut self.mux_scratch);
        let mut controls = std::mem::take(&mut self.control_scratch);
        if let Err(e) =
            MuxBatch::decode_shared_with_controls_into(frame, &mut entries, &mut controls)
        {
            self.mux_scratch = entries;
            self.control_scratch = controls;
            return Err(MuxIngressError::Codec(e));
        }
        // Pre-pass: reject a frame addressing a never-known topic before
        // any message is stepped. MuxBatch sub-batches are ascending by
        // topic, so consecutive entries share their topic in runs — one
        // directory probe per run, not per entry (DESIGN.md §16).
        let mut run: Option<(TopicId, u32)> = None;
        for &(topic, _) in entries.iter() {
            let entry = match run {
                Some((t, e)) if t == topic => e,
                _ => {
                    let e = self.directory.entry(topic.0);
                    run = Some((topic, e));
                    e
                }
            };
            if entry == DIR_ABSENT {
                self.mux_scratch = entries;
                self.control_scratch = controls;
                return Err(MuxIngressError::UnknownTopic(topic));
            }
        }
        mux.clear();
        // Stepping loop: the same run-length rule resolves each
        // sub-batch's slot once; retired runs drop inert without a step.
        let mut run: Option<(TopicId, u32)> = None;
        for (topic, msg) in entries.drain(..) {
            let entry = match run {
                Some((t, e)) if t == topic => e,
                _ => {
                    let e = self.directory.entry(topic.0);
                    run = Some((topic, e));
                    e
                }
            };
            if entry >= DIR_RETIRED {
                // Retired: drop inert.
                continue;
            }
            let fd = before_each(topic, &msg);
            self.step_mux_slot(entry as usize, topic, StepInput::Receive(msg), &fd, mux);
        }
        mux.controls.append(&mut controls);
        self.mux_scratch = entries;
        self.control_scratch = controls;
        Ok(())
    }

    /// True when **every** topic instance is quiescent. A draining,
    /// not-yet-reaped instance blocks quiescence exactly like a live one
    /// (the drain is bounded by the drain budget, so this resolves).
    pub fn is_quiescent(&self) -> bool {
        // Unlisted slots are quiescent and not draining; a listed one may
        // have gone quiescent since (compaction, a lone `Tick`), so ask.
        self.draining == 0
            && self.active.iter().all(|&topic| {
                self.slots[self.slot_index_or_panic(topic)]
                    .proc
                    .is_quiescent()
            })
    }

    /// Aggregate state-size snapshot: the field-wise sum over every topic
    /// instance (single topic: exactly that instance's stats). Reclaimed
    /// instances contribute nothing — that is the point of reclamation.
    pub fn stats(&self) -> ProcessStats {
        let mut total = ProcessStats::default();
        for slot in &self.slots {
            let s = slot.proc.stats();
            total.msg_set += s.msg_set;
            total.my_acks += s.my_acks;
            total.all_ack_entries += s.all_ack_entries;
            total.delivered += s.delivered;
            total.label_counters += s.label_counters;
        }
        total
    }

    /// One topic instance's state-size snapshot (panics when `topic` has
    /// no instance).
    pub fn stats_for(&self, topic: TopicId) -> ProcessStats {
        self.slots[self.slot_index_or_panic(topic)].proc.stats()
    }

    /// The wrapped protocol's short name (all topics run the same
    /// algorithm; captured at construction, stable under reclamation).
    pub fn algorithm_name(&self) -> &'static str {
        self.alg_name
    }

    /// Cumulative activity counters, aggregated across topics.
    pub fn counters(&self) -> EngineCounters {
        self.counters
    }

    /// A deterministic digest of this engine's *semantic* state across
    /// every topic instance: per-topic [`ProcessStats`], quiescence and
    /// the algorithm name — deliberately **not** the history counters
    /// (bounded-memory engines excepted: their reclaim totals stand in for
    /// the tombstone rings), so two engines that converged to the same
    /// protocol state through different schedules digest equally. The
    /// exploration plane folds
    /// these per-node digests (plus its own pending-message and crash-set
    /// hashes) into the state hash it prunes on (DESIGN.md §11). The
    /// digest is approximate: distinct internal states with equal sizes
    /// can collide, which makes pruning coarser but never suppresses a
    /// violation checked before pruning.
    pub fn fingerprint(&self) -> u64 {
        fn fold(h: &mut u64, word: u64) {
            for b in word.to_le_bytes() {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.algorithm_name().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        for slot in &self.slots {
            let s = slot.proc.stats();
            // For a statically configured engine the topic ids are dense
            // (slot.topic.0 == index), so this folds exactly the bytes
            // the pre-lifecycle digest folded — static digests (and the
            // explorer's persistent state-hash caches) are unchanged.
            fold(&mut h, slot.topic.0 as u64);
            for field in [
                s.msg_set,
                s.my_acks,
                s.all_ack_entries,
                s.delivered,
                s.label_counters,
            ] {
                fold(&mut h, field as u64);
            }
            fold(&mut h, u64::from(slot.proc.is_quiescent()));
            if slot.draining {
                // Folded only for draining slots, so static engines (and
                // dynamic ones before any retirement) digest as before.
                fold(&mut h, 0xD12A_113B_u64);
                fold(&mut h, slot.drain_ticks as u64);
            }
        }
        for t in &self.retired {
            fold(&mut h, 0x2E71_12ED_u64);
            fold(&mut h, t.0 as u64);
        }
        if self.memory.is_some() {
            // What compaction took away is semantic state that `stats`
            // cannot see: a tombstoned tag is refused, a forgotten one is
            // re-admitted. Folded for bounded-memory engines only, so every
            // other digest is unchanged.
            fold(&mut h, self.counters.reclaimed);
            fold(&mut h, self.counters.tombstoned);
        }
        h
    }

    /// Switches **every** topic instance into bounded-memory mode
    /// (DESIGN.md §14): from here on every [`tick_all`](TopicEngine::tick_all)
    /// ends with one compaction sweep. Call before stepping begins; with
    /// no call, the engine never compacts and behaves byte-identically to
    /// the pre-memory-plane engine.
    pub fn configure_memory(&mut self, cfg: MemoryConfig) {
        self.memory = Some(cfg);
        for slot in &mut self.slots {
            slot.proc.configure_memory(cfg);
        }
    }

    /// One compaction sweep over every topic instance, under the tick's
    /// failure-detector snapshot. Totals accumulate into
    /// [`EngineCounters::reclaimed`] / [`EngineCounters::tombstoned`].
    fn compact_all(&mut self, fd: &FdSnapshot) {
        let (mut reclaimed, mut tombstoned) = (0, 0);
        for slot in &mut self.slots {
            let swept = slot.proc.compact(fd);
            reclaimed += swept.reclaimed;
            tombstoned += swept.tombstoned;
        }
        self.counters.compactions += 1;
        self.counters.reclaimed += reclaimed as u64;
        self.counters.tombstoned += tombstoned as u64;
    }

    /// Serializes the whole engine — algorithm, per-topic protocol state,
    /// the shared RNG stream position and the cumulative counters — into a
    /// sealed snapshot envelope (DESIGN.md §14). Byte-deterministic: two
    /// engines with equal state produce identical bytes.
    ///
    /// Errors with [`SnapshotError::Malformed`] when the wrapped algorithm
    /// does not support snapshots (the baseline broadcasts keep no
    /// reconstructible state).
    pub fn save_snapshot(&self) -> Result<Vec<u8>, SnapshotError> {
        let mut w = SnapshotWriter::new();
        w.put_str(self.algorithm_name());
        w.put_u64(self.slots.len() as u64);
        w.put_u64(self.rng.state());
        let c = self.counters;
        for v in [
            c.steps,
            c.ticks,
            c.receives,
            c.broadcasts,
            c.messages_out,
            c.deliveries,
            c.compactions,
            c.reclaimed,
            c.tombstoned,
            c.topics_created,
            c.topics_retired,
            c.topics_reclaimed,
        ] {
            w.put_u64(v);
        }
        for slot in &self.slots {
            let body = slot.proc.save_state().ok_or_else(|| {
                SnapshotError::Malformed(format!(
                    "algorithm {:?} (topic {}) does not support snapshots",
                    self.algorithm_name(),
                    slot.topic
                ))
            })?;
            w.put_u64(slot.topic.0 as u64);
            w.put_u64(u64::from(slot.draining));
            w.put_u64(slot.drain_ticks as u64);
            w.put_bytes(&body);
        }
        w.put_u64(self.retired.len() as u64);
        for t in &self.retired {
            w.put_u64(t.0 as u64);
        }
        Ok(w.into_envelope())
    }

    /// Restores a snapshot written by [`TopicEngine::save_snapshot`] into
    /// this engine, which must have been **freshly built with the same
    /// configuration** (same algorithm, same topic count, same
    /// [`TopicEngine::configure_memory`] call if any — the memory config
    /// is deployment configuration, not persisted state). The RNG resumes
    /// at the exact saved stream position, so a restored engine draws the
    /// same randomness the crashed one would have.
    ///
    /// On error the engine may be partially overwritten and must be
    /// discarded — drivers always restore into a throwaway fresh engine.
    pub fn restore_snapshot(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let body = unseal(bytes)?;
        let mut r = SnapshotReader::new(body);
        let alg = r.get_str()?;
        if alg != self.algorithm_name() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot is for algorithm {alg:?}, engine runs {:?}",
                self.algorithm_name()
            )));
        }
        let topics = r.get_u64()? as usize;
        if topics != self.slots.len() {
            return Err(SnapshotError::Malformed(format!(
                "snapshot has {topics} topics, engine serves {}",
                self.slots.len()
            )));
        }
        let rng_state = r.get_u64()?;
        let mut counters = EngineCounters::default();
        for slot in [
            &mut counters.steps,
            &mut counters.ticks,
            &mut counters.receives,
            &mut counters.broadcasts,
            &mut counters.messages_out,
            &mut counters.deliveries,
            &mut counters.compactions,
            &mut counters.reclaimed,
            &mut counters.tombstoned,
            &mut counters.topics_created,
            &mut counters.topics_retired,
            &mut counters.topics_reclaimed,
        ] {
            *slot = r.get_u64()?;
        }
        // Ids and drain counters are written as u64 words; one that does
        // not fit a u32 is corruption, not a different topic.
        let get_u32 = |r: &mut SnapshotReader<'_>, field: &str| {
            let v = r.get_u64()?;
            u32::try_from(v)
                .map_err(|_| SnapshotError::Malformed(format!("{field} {v} does not fit a u32")))
        };
        for i in 0..self.slots.len() {
            let topic = TopicId(get_u32(&mut r, "slot topic id")?);
            if self.slots[i].topic != topic {
                // The engine must be rebuilt with the snapshot's exact
                // topic directory; drivers reconstruct dynamic instances
                // (via the control journal) before restoring.
                return Err(SnapshotError::Malformed(format!(
                    "snapshot slot {i} is {topic}, engine has {}",
                    self.slots[i].topic
                )));
            }
            let draining = r.get_u64()? != 0;
            let drain_ticks = get_u32(&mut r, "drain_ticks")?;
            self.slots[i].proc.restore_state(r.get_bytes()?)?;
            self.slots[i].draining = draining;
            self.slots[i].drain_ticks = drain_ticks;
        }
        let retired = r.get_u64()? as usize;
        let mut retired_set = BTreeSet::new();
        for _ in 0..retired {
            retired_set.insert(TopicId(get_u32(&mut r, "retired topic id")?));
        }
        r.finish()?;
        self.rng = SplitMix64::from_state(rng_state);
        self.counters = counters;
        // The retired set and every slot's state were replaced wholesale:
        // rebuild the O(1) directory so every tombstone (and every slot)
        // resolves again, and the active index with it.
        self.directory = TopicDirectory::rebuild(&self.slots, &retired_set);
        self.rebuild_active();
        self.retired = retired_set;
        Ok(())
    }
}

impl std::fmt::Debug for TopicEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TopicEngine")
            .field("algorithm", &self.algorithm_name())
            .field("topics", &self.slots.len())
            .field("retired", &self.retired.len())
            .field("counters", &self.counters)
            .finish()
    }
}

/// Errors of the multiplexed ingress path
/// ([`TopicEngine::receive_mux_frame`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MuxIngressError {
    /// The frame bytes were malformed.
    Codec(CodecError),
    /// The frame addressed a topic this engine does not serve (a routing
    /// bug — lanes are supposed to shard by topic).
    UnknownTopic(TopicId),
}

impl std::fmt::Display for MuxIngressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MuxIngressError::Codec(e) => write!(f, "mux frame codec error: {e}"),
            MuxIngressError::UnknownTopic(t) => write!(f, "mux frame for unserved topic {t}"),
        }
    }
}

impl std::error::Error for MuxIngressError {}

#[cfg(test)]
mod tests {
    use super::*;
    use urb_types::{CompactionReport, Context, Label, LabelSet, Payload, TagAck, WireKind};

    /// A scripted protocol: acks every MSG, re-broadcasts on tick.
    struct Scripted {
        pending: Vec<WireMessage>,
    }

    impl AnonProcess for Scripted {
        fn urb_broadcast(&mut self, payload: Payload, ctx: &mut Context<'_>) -> Tag {
            let tag = Tag::random(ctx.rng);
            let msg = WireMessage::Msg { tag, payload };
            self.pending.push(msg.clone());
            ctx.broadcast(msg);
            tag
        }

        fn on_receive(&mut self, msg: WireMessage, ctx: &mut Context<'_>) {
            if let WireMessage::Msg { tag, payload } = msg {
                let tag_ack = TagAck::random(ctx.rng);
                ctx.broadcast(WireMessage::Ack {
                    tag,
                    tag_ack,
                    payload: payload.clone(),
                    labels: Some(LabelSet::from_iter([Label(1)])),
                });
                ctx.deliver(tag, payload, false);
            }
        }

        fn on_tick(&mut self, ctx: &mut Context<'_>) {
            for m in &self.pending {
                ctx.broadcast(m.clone());
            }
        }

        fn is_quiescent(&self) -> bool {
            self.pending.is_empty()
        }

        fn stats(&self) -> ProcessStats {
            ProcessStats {
                msg_set: self.pending.len(),
                ..ProcessStats::default()
            }
        }

        fn algorithm_name(&self) -> &'static str {
            "scripted"
        }

        fn compact(&mut self, _fd: &FdSnapshot) -> CompactionReport {
            // Scripted "stability": every pending message is reclaimable.
            let reclaimed = self.pending.len();
            self.pending.clear();
            CompactionReport {
                reclaimed,
                tombstoned: reclaimed,
            }
        }

        fn save_state(&self) -> Option<Vec<u8>> {
            let mut w = SnapshotWriter::new();
            w.put_u64(self.pending.len() as u64);
            for m in &self.pending {
                if let WireMessage::Msg { tag, payload } = m {
                    w.put_u128(tag.0);
                    w.put_bytes(payload.as_slice());
                }
            }
            Some(w.into_body())
        }

        fn restore_state(&mut self, body: &[u8]) -> Result<(), SnapshotError> {
            let mut r = SnapshotReader::new(body);
            let len = r.get_u64()? as usize;
            self.pending.clear();
            for _ in 0..len {
                let tag = Tag(r.get_u128()?);
                let payload = Payload::copy_from_slice(r.get_bytes()?);
                self.pending.push(WireMessage::Msg { tag, payload });
            }
            r.finish()
        }
    }

    /// A protocol with no snapshot support (keeps the trait defaults).
    struct Opaque;

    impl AnonProcess for Opaque {
        fn urb_broadcast(&mut self, _payload: Payload, ctx: &mut Context<'_>) -> Tag {
            Tag::random(ctx.rng)
        }
        fn on_receive(&mut self, _msg: WireMessage, _ctx: &mut Context<'_>) {}
        fn on_tick(&mut self, _ctx: &mut Context<'_>) {}
        fn is_quiescent(&self) -> bool {
            true
        }
        fn stats(&self) -> ProcessStats {
            ProcessStats::default()
        }
        fn algorithm_name(&self) -> &'static str {
            "opaque"
        }
    }

    /// The single-topic engine most tests drive (topic 0, seed 7).
    fn engine() -> TopicEngine {
        topic_engine(1, 7)
    }

    const T0: TopicId = TopicId::ZERO;

    #[test]
    fn drive_step_clears_buffers_between_steps() {
        let mut proc = Scripted {
            pending: Vec::new(),
        };
        let mut rng = SplitMix64::new(7);
        let fd = FdSnapshot::none();
        let mut buf = StepBuffers::new();
        let tag = drive_step(
            &mut proc,
            StepInput::Broadcast(Payload::from("m")),
            &fd,
            &mut rng,
            &mut buf,
        );
        assert!(tag.is_some());
        assert_eq!(buf.outbox.len(), 1);
        // A silent step leaves empty buffers, not the previous contents.
        let mut silent = Scripted {
            pending: Vec::new(),
        };
        drive_step(&mut silent, StepInput::Tick, &fd, &mut rng, &mut buf);
        assert!(buf.outbox.is_empty() && buf.deliveries.is_empty());
    }

    #[test]
    fn identical_input_sequences_produce_identical_output() {
        // The cross-backend guarantee in miniature: same seed, same inputs
        // => byte-identical emissions, whichever driver steps the engine.
        let fd = FdSnapshot::none();
        let run = || {
            let mut e = engine();
            let mut mux = MuxBuffers::new();
            e.step_mux(T0, StepInput::Broadcast(Payload::from("m")), &fd, &mut mux);
            e.step_mux(
                T0,
                StepInput::Receive(WireMessage::Msg {
                    tag: Tag(9),
                    payload: Payload::from("x"),
                }),
                &fd,
                &mut mux,
            );
            e.step_mux(T0, StepInput::Tick, &fd, &mut mux);
            mux.outbox
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn mux_frame_path_matches_per_message_stepping() {
        // Drive two identical engines, one fed each message directly and
        // one through the encoded frame plane: same emissions, same
        // deliveries, same counters — and the frame path's pool stops
        // allocating.
        let fd = FdSnapshot::none();
        let pool = BufPool::new(4);
        let mut sender = engine();
        let mut direct_rx = engine();
        let mut frame_rx = engine();
        let mut tx = MuxBuffers::new();
        let mut direct_out = MuxBuffers::new();
        let mut frame_out = MuxBuffers::new();
        for round in 0..8u32 {
            tx.clear();
            sender.step_mux(
                T0,
                StepInput::Broadcast(Payload::from(format!("m{round}").as_str())),
                &fd,
                &mut tx,
            );
            let sent = tx.outbox.clone();
            let frame = tx.take_mux_frame(&pool).expect("broadcast emits");
            assert!(tx.outbox.is_empty(), "frame drained the outbox");
            let bytes = Bytes::copy_from_slice(&frame);
            drop(frame); // back to the pool
            direct_out.clear();
            for (topic, msg) in sent {
                direct_rx.step_mux(topic, StepInput::Receive(msg), &fd, &mut direct_out);
            }
            frame_rx
                .receive_mux_frame(&bytes, &mut frame_out, |_, _| FdSnapshot::none())
                .expect("well-formed frame");
            assert_eq!(direct_out.outbox, frame_out.outbox, "round {round}");
            assert_eq!(direct_out.deliveries.len(), frame_out.deliveries.len());
        }
        let s = pool.stats();
        assert_eq!(s.created, 1, "one pooled frame buffer serves every step");
        assert_eq!(s.recycled, 7);
        assert_eq!(direct_rx.counters(), frame_rx.counters());
    }

    #[test]
    fn observed_step_surfaces_every_effect_in_order() {
        // Every driver — the explorer included — reads a step's effects
        // off the buffers it stepped into: emissions and deliveries, in
        // order, tagged with their topic, accumulated until drained.
        let mut e = engine();
        let fd = FdSnapshot::none();
        let mut mux = MuxBuffers::new();
        e.step_mux(T0, StepInput::Broadcast(Payload::from("m")), &fd, &mut mux);
        e.step_mux(
            T0,
            StepInput::Receive(WireMessage::Msg {
                tag: Tag(3),
                payload: Payload::from("x"),
            }),
            &fd,
            &mut mux,
        );
        assert_eq!(mux.outbox.len(), 2, "MSG then ACK observed");
        assert_eq!(mux.outbox[0].1.kind(), WireKind::Msg);
        assert_eq!(mux.outbox[1].1.kind(), WireKind::Ack);
        assert!(mux.outbox.iter().all(|(t, _)| *t == T0));
        assert_eq!(mux.deliveries.len(), 1);
        assert_eq!(mux.deliveries[0].0, T0);
    }

    #[test]
    fn observed_and_plain_steps_are_identical() {
        // Stepping through the engine adds nothing to a bare `drive_step`
        // of the same process on the same RNG stream: same tag, same
        // emissions, and the counters count exactly what it produced.
        let fd = FdSnapshot::none();
        let mut plain = Scripted {
            pending: Vec::new(),
        };
        let mut rng = SplitMix64::new(7);
        let mut observed = engine();
        let mut a = StepBuffers::new();
        let mut b = MuxBuffers::new();
        let input = || StepInput::Broadcast(Payload::from("m"));
        let tag_a = drive_step(&mut plain, input(), &fd, &mut rng, &mut a);
        let tag_b = observed.step_mux(T0, input(), &fd, &mut b);
        assert_eq!(tag_a, tag_b);
        let emitted: Vec<WireMessage> = b.outbox.iter().map(|(_, m)| m.clone()).collect();
        assert_eq!(a.outbox, emitted);
        let c = observed.counters();
        assert_eq!((c.steps, c.broadcasts), (1, 1));
        assert_eq!(c.messages_out, a.outbox.len() as u64);
        assert_eq!(c.deliveries, a.deliveries.len() as u64);
    }

    #[test]
    fn fingerprint_tracks_semantic_state_not_history() {
        let fd = FdSnapshot::none();
        let mut a = engine();
        let mut b = engine();
        let fresh = a.fingerprint();
        assert_eq!(fresh, b.fingerprint(), "equal states digest equally");
        let mut mux = MuxBuffers::new();
        a.step_mux(T0, StepInput::Broadcast(Payload::from("m")), &fd, &mut mux);
        assert_ne!(a.fingerprint(), fresh, "pending message changes the digest");
        // History alone (a silent tick) leaves the digest unchanged even
        // though the counters moved.
        let before = b.fingerprint();
        b.tick_all(&fd, &mut mux);
        assert_eq!(b.fingerprint(), before);
        assert_ne!(b.counters().steps, 0);
    }

    fn topic_engine(topics: usize, seed: u64) -> TopicEngine {
        TopicEngine::new(
            (0..topics)
                .map(|_| {
                    Box::new(Scripted {
                        pending: Vec::new(),
                    }) as Box<dyn AnonProcess + Send>
                })
                .collect(),
            SplitMix64::new(seed),
        )
    }

    #[test]
    fn topic_instances_are_isolated_but_share_the_rng() {
        let fd = FdSnapshot::none();
        let mut e = topic_engine(3, 9);
        let mut mux = MuxBuffers::new();
        let t1 = e
            .step_mux(
                TopicId(1),
                StepInput::Broadcast(Payload::from("one")),
                &fd,
                &mut mux,
            )
            .expect("tag");
        let t2 = e
            .step_mux(
                TopicId(2),
                StepInput::Broadcast(Payload::from("two")),
                &fd,
                &mut mux,
            )
            .expect("tag");
        assert_ne!(t1, t2, "shared stream, distinct draws");
        assert_eq!(mux.outbox.len(), 2);
        assert_eq!(mux.outbox[0].0, TopicId(1));
        assert_eq!(mux.outbox[1].0, TopicId(2));
        // Topic 0 never broadcast: it stays quiescent while 1 and 2 hold
        // pending messages.
        assert_eq!(e.stats_for(TopicId(0)).msg_set, 0);
        assert!(!e.is_quiescent());
        assert_eq!(e.stats().msg_set, 2, "aggregate across topics");
        assert_eq!(e.stats_for(TopicId(1)).msg_set, 1);
    }

    #[test]
    fn tick_all_sweeps_every_topic_into_one_frame() {
        let fd = FdSnapshot::none();
        let pool = BufPool::new(2);
        let mut e = topic_engine(2, 11);
        let mut mux = MuxBuffers::new();
        e.step_mux(
            TopicId(0),
            StepInput::Broadcast(Payload::from("a")),
            &fd,
            &mut mux,
        );
        e.step_mux(
            TopicId(1),
            StepInput::Broadcast(Payload::from("b")),
            &fd,
            &mut mux,
        );
        mux.clear();
        e.tick_all(&fd, &mut mux);
        assert_eq!(mux.outbox.len(), 2, "each topic re-broadcasts one MSG");
        let frame = mux.take_mux_frame(&pool).expect("emissions present");
        let decoded = MuxBatch::decode_shared(&Bytes::copy_from_slice(&frame)).unwrap();
        assert_eq!(decoded.topic_count(), 2);
        assert!(mux.outbox.is_empty(), "frame drained the outbox");
        assert!(mux.take_mux_frame(&pool).is_none());
    }

    #[test]
    fn mux_frame_round_trip_delivers_to_matching_topics() {
        let fd = FdSnapshot::none();
        let pool = BufPool::new(2);
        let mut sender = topic_engine(2, 5);
        let mut receiver = topic_engine(2, 6);
        let mut mux = MuxBuffers::new();
        sender.step_mux(
            TopicId(0),
            StepInput::Broadcast(Payload::from("t0")),
            &fd,
            &mut mux,
        );
        sender.step_mux(
            TopicId(1),
            StepInput::Broadcast(Payload::from("t1")),
            &fd,
            &mut mux,
        );
        let frame = mux.take_mux_frame(&pool).unwrap();
        let bytes = Bytes::copy_from_slice(&frame);
        drop(frame);
        let mut observed = Vec::new();
        let mut rx_mux = MuxBuffers::new();
        receiver
            .receive_mux_frame(&bytes, &mut rx_mux, |topic, msg| {
                observed.push((topic, msg.kind()));
                FdSnapshot::none()
            })
            .expect("well-formed frame");
        assert_eq!(
            observed,
            vec![(TopicId(0), WireKind::Msg), (TopicId(1), WireKind::Msg)]
        );
        // The scripted protocol delivers + ACKs per received MSG, per topic.
        assert_eq!(rx_mux.deliveries.len(), 2);
        assert_eq!(rx_mux.deliveries[0].0, TopicId(0));
        assert_eq!(rx_mux.deliveries[1].0, TopicId(1));
        assert!(rx_mux.outbox.iter().all(|(_, m)| m.kind() == WireKind::Ack));
    }

    #[test]
    fn mux_ingress_rejects_garbage_and_unknown_topics() {
        let mut e = topic_engine(1, 3);
        let mut mux = MuxBuffers::new();
        let garbage = Bytes::copy_from_slice(&[0x42, 0, 1]);
        assert!(matches!(
            e.receive_mux_frame(&garbage, &mut mux, |_, _| FdSnapshot::none()),
            Err(MuxIngressError::Codec(_))
        ));
        // A frame for topic 7 cannot land on a 1-topic engine.
        let foreign = MuxBatch::from_entries(&[(
            TopicId(7),
            WireMessage::Msg {
                tag: Tag(1),
                payload: Payload::from("x"),
            },
        )]);
        let err = e
            .receive_mux_frame(&foreign.encode(), &mut mux, |_, _| FdSnapshot::none())
            .unwrap_err();
        assert_eq!(err, MuxIngressError::UnknownTopic(TopicId(7)));
        // The engine stays usable.
        let ok = MuxBatch::from_entries(&[(
            TopicId::ZERO,
            WireMessage::Msg {
                tag: Tag(2),
                payload: Payload::from("y"),
            },
        )]);
        e.receive_mux_frame(&ok.encode(), &mut mux, |_, _| FdSnapshot::none())
            .unwrap();
        assert_eq!(mux.deliveries.len(), 1);
    }

    #[test]
    fn counters_track_activity() {
        let mut e = engine();
        let fd = FdSnapshot::none();
        let mut mux = MuxBuffers::new();
        e.step_mux(T0, StepInput::Broadcast(Payload::from("m")), &fd, &mut mux);
        e.step_mux(T0, StepInput::Tick, &fd, &mut mux);
        e.step_mux(
            T0,
            StepInput::Receive(WireMessage::Msg {
                tag: Tag(1),
                payload: Payload::from("z"),
            }),
            &fd,
            &mut mux,
        );
        let c = e.counters();
        assert_eq!(c.steps, 3);
        assert_eq!(c.ticks, 1);
        assert_eq!(c.broadcasts, 1);
        assert_eq!(c.receives, 1);
        assert_eq!(c.deliveries, 1);
        assert_eq!(c.messages_out, 3, "MSG + tick re-send + ACK");
        assert!(!e.is_quiescent());
        assert_eq!(e.stats().msg_set, 1);
        assert_eq!(e.algorithm_name(), "scripted");
    }

    // ---- dynamic topic control plane (DESIGN.md §15) -------------------

    fn scripted() -> Box<dyn AnonProcess + Send> {
        Box::new(Scripted {
            pending: Vec::new(),
        })
    }

    #[test]
    fn create_is_lazy_idempotent_and_inherits_memory_config() {
        let fd = FdSnapshot::none();
        let mut e = topic_engine(1, 40);
        e.configure_memory(MemoryConfig::default());
        assert!(!e.has_instance(TopicId(5)));
        assert!(e.create_topic(TopicId(5), scripted()));
        assert!(!e.create_topic(TopicId(5), scripted()), "idempotent");
        assert!(e.is_live(TopicId(5)));
        assert_eq!(e.topic_count(), 2);
        assert_eq!(e.counters().topics_created, 1);
        // The late instance participates in ticks and compaction sweeps.
        let mut mux = MuxBuffers::new();
        e.step_mux(
            TopicId(5),
            StepInput::Broadcast(Payload::from("dyn")),
            &fd,
            &mut mux,
        );
        assert_eq!(e.stats_for(TopicId(5)).msg_set, 1);
        e.tick_all(&fd, &mut mux);
        assert_eq!(e.stats_for(TopicId(5)).msg_set, 0);
        assert_eq!(
            e.counters().reclaimed,
            1,
            "memory config reached the instance"
        );
    }

    #[test]
    fn retire_drains_then_reaps_and_counts_reclaimed() {
        let fd = FdSnapshot::none();
        let mut e = topic_engine(2, 41);
        let mut mux = MuxBuffers::new();
        e.step_mux(
            TopicId(1),
            StepInput::Broadcast(Payload::from("pending")),
            &fd,
            &mut mux,
        );
        assert!(e.retire_topic(TopicId(1)));
        assert!(!e.retire_topic(TopicId(1)), "already draining");
        assert!(!e.is_live(TopicId(1)), "draining topics take no broadcasts");
        assert!(e.has_instance(TopicId(1)), "but the instance still exists");
        assert!(!e.is_quiescent(), "draining state blocks quiescence");
        // Scripted never becomes quiescent on its own (pending retained),
        // so the drain budget decides.
        e.set_drain_limit(2);
        e.tick_all(&fd, &mut mux); // drain sweep 1
        assert!(e.has_instance(TopicId(1)));
        e.tick_all(&fd, &mut mux); // drain sweep 2
        e.tick_all(&fd, &mut mux); // budget exceeded: reaped
        assert!(!e.has_instance(TopicId(1)));
        assert!(e.is_retired(TopicId(1)));
        assert_eq!(e.topic_count(), 1);
        let c = e.counters();
        assert_eq!(c.topics_retired, 1);
        assert_eq!(c.topics_reclaimed, 1);
        assert!(c.reclaimed >= 1, "the pending entry was reclaimed");
        assert_eq!(e.live_topics().collect::<Vec<_>>(), vec![TopicId(0)]);
    }

    #[test]
    fn retired_topic_traffic_is_dropped_inert_and_recreate_starts_clean() {
        let fd = FdSnapshot::none();
        let mut e = topic_engine(1, 42);
        assert!(e.create_topic(TopicId(3), scripted()));
        let mut mux = MuxBuffers::new();
        e.step_mux(
            TopicId(3),
            StepInput::Broadcast(Payload::from("old-life")),
            &fd,
            &mut mux,
        );
        e.retire_topic(TopicId(3));
        e.set_drain_limit(0);
        e.tick_all(&fd, &mut mux);
        assert!(e.is_retired(TopicId(3)));
        // A late retransmission for the retired topic is dropped inert —
        // not an error, no step, no delivery.
        let late = MuxBatch::from_entries(&[(
            TopicId(3),
            WireMessage::Msg {
                tag: Tag(77),
                payload: Payload::from("late"),
            },
        )]);
        let receives_before = e.counters().receives;
        e.receive_mux_frame(&late.encode(), &mut mux, |_, _| FdSnapshot::none())
            .expect("retired traffic is inert, not an error");
        assert!(mux.deliveries.is_empty());
        assert_eq!(e.counters().receives, receives_before, "no step ran");
        // A never-known topic still errors.
        let foreign = MuxBatch::from_entries(&[(
            TopicId(9),
            WireMessage::Msg {
                tag: Tag(1),
                payload: Payload::from("x"),
            },
        )]);
        assert_eq!(
            e.receive_mux_frame(&foreign.encode(), &mut mux, |_, _| FdSnapshot::none())
                .unwrap_err(),
            MuxIngressError::UnknownTopic(TopicId(9))
        );
        // Re-creating the retired id clears the tombstone and starts clean.
        assert!(e.create_topic(TopicId(3), scripted()));
        assert!(!e.is_retired(TopicId(3)));
        assert!(e.is_live(TopicId(3)));
        assert_eq!(e.stats_for(TopicId(3)).msg_set, 0, "no state carried over");
    }

    #[test]
    fn quiescent_drain_reaps_before_the_budget() {
        let fd = FdSnapshot::none();
        let mut e = topic_engine(2, 43);
        // Topic 1 never broadcast: it is quiescent, so retirement reaps it
        // on the very next sweep regardless of the (large) budget.
        assert!(e.retire_topic(TopicId(1)));
        let mut mux = MuxBuffers::new();
        e.tick_all(&fd, &mut mux);
        assert!(!e.has_instance(TopicId(1)));
        assert_eq!(e.counters().topics_reclaimed, 1);
    }

    #[test]
    fn controls_surface_on_ingress_and_ride_on_egress() {
        let fd = FdSnapshot::none();
        let pool = BufPool::new(2);
        let mut sender = topic_engine(1, 44);
        let mut mux = MuxBuffers::new();
        sender.step_mux(
            TopicId(0),
            StepInput::Broadcast(Payload::from("payload")),
            &fd,
            &mut mux,
        );
        let ctl = TopicControl::Create {
            topic: TopicId(2),
            algorithm: 0,
            param: 0,
        };
        mux.controls.push(ctl);
        let frame = mux.take_mux_frame(&pool).expect("payload + control");
        let bytes = Bytes::copy_from_slice(&frame);
        drop(frame);
        assert!(mux.controls.is_empty(), "controls drained with the frame");
        let mut receiver = topic_engine(1, 45);
        let mut rx = MuxBuffers::new();
        receiver
            .receive_mux_frame(&bytes, &mut rx, |_, _| FdSnapshot::none())
            .unwrap();
        assert_eq!(rx.controls, vec![ctl], "driver sees the control section");
        assert_eq!(rx.deliveries.len(), 1, "payload stepped as usual");
        // Control-only frame: no payload entries at all.
        mux.clear();
        mux.controls
            .push(TopicControl::Retire { topic: TopicId(0) });
        let frame = mux.take_mux_frame(&pool).expect("control-only frame");
        let bytes = Bytes::copy_from_slice(&frame);
        drop(frame);
        receiver
            .receive_mux_frame(&bytes, &mut rx, |_, _| FdSnapshot::none())
            .unwrap();
        assert_eq!(
            rx.controls,
            vec![TopicControl::Retire { topic: TopicId(0) }]
        );
        assert!(rx.outbox.is_empty() && rx.deliveries.is_empty());
    }

    // ---- O(1) topic directory (DESIGN.md §16) --------------------------

    #[test]
    fn resolve_reports_the_full_lifecycle_in_one_probe() {
        let fd = FdSnapshot::none();
        let mut e = topic_engine(2, 60);
        assert_eq!(e.resolve(TopicId(0)), TopicState::Live(0));
        assert_eq!(e.resolve(TopicId(1)), TopicState::Live(1));
        assert_eq!(e.resolve(TopicId(9)), TopicState::Unknown);
        e.retire_topic(TopicId(0));
        assert_eq!(e.resolve(TopicId(0)), TopicState::Draining(0));
        let mut mux = MuxBuffers::new();
        e.set_drain_limit(0);
        e.tick_all(&fd, &mut mux);
        assert_eq!(e.resolve(TopicId(0)), TopicState::Retired);
        // The survivor shifted left; the directory followed.
        assert_eq!(e.resolve(TopicId(1)), TopicState::Live(0));
        // Re-creation clears the tombstone entry.
        assert!(e.create_topic(TopicId(0), scripted()));
        assert_eq!(e.resolve(TopicId(0)), TopicState::Live(0));
        assert_eq!(e.resolve(TopicId(1)), TopicState::Live(1));
    }

    #[test]
    fn directory_handles_sparse_ids_and_dense_growth_migration() {
        let fd = FdSnapshot::none();
        let mut e = topic_engine(1, 61);
        // Far beyond the dense slack: lands in the hash-map lane.
        let sparse = TopicId(0x00FF_0000);
        assert!(e.create_topic(sparse, scripted()));
        assert_eq!(e.resolve(sparse), TopicState::Live(1));
        assert!(e.is_live(sparse));
        // Ascending creation grows the dense range; when it eventually
        // swallows a sparse id the entry must migrate, not vanish. Force
        // that with an id just past the slack boundary, then fill up to it.
        let edge = TopicId(DENSE_DIRECTORY_SLACK + 2);
        assert!(e.create_topic(edge, scripted()));
        for t in 1..=DENSE_DIRECTORY_SLACK + 1 {
            assert!(e.create_topic(TopicId(t), scripted()));
        }
        assert!(e.is_live(edge), "sparse entry survived dense growth");
        assert!(e.is_live(sparse));
        // Retire + reap a sparse id: the tombstone verdict also lives in
        // the hash lane.
        assert!(e.retire_topic(sparse));
        let mut mux = MuxBuffers::new();
        e.set_drain_limit(0);
        e.tick_all(&fd, &mut mux);
        assert_eq!(e.resolve(sparse), TopicState::Retired);
        assert!(e.is_retired(sparse));
        assert!(!e.has_instance(sparse));
    }

    #[test]
    fn mux_ingress_resolves_once_per_run_with_identical_verdicts() {
        // Three entries on one topic arrive as one ascending run: the
        // directory is probed once per run but every message still steps
        // (and the retired-run drop stays per-entry inert).
        let fd = FdSnapshot::none();
        let mut e = topic_engine(2, 62);
        let entries: Vec<(TopicId, WireMessage)> = (0..3u128)
            .map(|i| {
                (
                    TopicId(1),
                    WireMessage::Msg {
                        tag: Tag(i),
                        payload: Payload::from("run"),
                    },
                )
            })
            .collect();
        let frame = MuxBatch::from_entries(&entries).encode();
        let mut mux = MuxBuffers::new();
        e.receive_mux_frame(&frame, &mut mux, |_, _| FdSnapshot::none())
            .unwrap();
        assert_eq!(mux.deliveries.len(), 3, "every entry of the run stepped");
        assert_eq!(e.counters().receives, 3);
        // Retire topic 1 and reap it: the same run now drops inert.
        e.retire_topic(TopicId(1));
        e.set_drain_limit(0);
        e.tick_all(&fd, &mut mux);
        let receives_before = e.counters().receives;
        e.receive_mux_frame(&frame, &mut mux, |_, _| FdSnapshot::none())
            .unwrap();
        assert!(mux.deliveries.is_empty());
        assert_eq!(e.counters().receives, receives_before);
    }

    #[test]
    fn lifecycle_changes_the_fingerprint_but_static_engines_digest_stably() {
        let fd = FdSnapshot::none();
        let a = topic_engine(2, 47);
        let b = topic_engine(2, 48);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "digest covers state, not seed"
        );
        let mut c = topic_engine(2, 47);
        let base = c.fingerprint();
        c.create_topic(TopicId(7), scripted());
        let created = c.fingerprint();
        assert_ne!(base, created, "a live instance is semantic state");
        c.retire_topic(TopicId(7));
        let draining = c.fingerprint();
        assert_ne!(created, draining, "draining is semantic state");
        let mut mux = MuxBuffers::new();
        c.set_drain_limit(0);
        c.tick_all(&fd, &mut mux);
        let retired = c.fingerprint();
        assert_ne!(draining, retired, "the tombstone is semantic state");
        assert_ne!(base, retired, "retired ≠ never-created");
    }

    #[test]
    fn snapshot_round_trips_lifecycle_state() {
        let fd = FdSnapshot::none();
        let mut e = topic_engine(2, 49);
        e.create_topic(TopicId(4), scripted());
        let mut mux = MuxBuffers::new();
        e.step_mux(
            TopicId(4),
            StepInput::Broadcast(Payload::from("dyn")),
            &fd,
            &mut mux,
        );
        e.retire_topic(TopicId(1));
        e.set_drain_limit(0);
        e.tick_all(&fd, &mut mux);
        assert!(e.is_retired(TopicId(1)));
        let bytes = e.save_snapshot().unwrap();
        // The restore target must present the same topic directory.
        let mut back = topic_engine(2, 50);
        back.set_drain_limit(0);
        assert!(matches!(
            back.restore_snapshot(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
        let mut back = topic_engine(1, 50);
        back.create_topic(TopicId(4), scripted());
        back.restore_snapshot(&bytes).unwrap();
        assert_eq!(back.fingerprint(), e.fingerprint());
        assert_eq!(back.counters(), e.counters());
        assert!(back.is_retired(TopicId(1)));
        assert_eq!(back.stats_for(TopicId(4)).msg_set, 1);
    }

    // ---- memory plane (DESIGN.md §14) ----------------------------------

    #[test]
    fn compact_all_sweeps_every_topic_and_accumulates_counters() {
        let fd = FdSnapshot::none();
        let mut e = topic_engine(2, 13);
        let mut mux = MuxBuffers::new();
        for t in 0..2u32 {
            e.step_mux(
                TopicId(t),
                StepInput::Broadcast(Payload::from("m")),
                &fd,
                &mut mux,
            );
        }
        assert_eq!(e.stats().msg_set, 2);
        e.compact_all(&fd);
        assert_eq!(e.stats().msg_set, 0);
        let c = e.counters();
        assert_eq!(c.compactions, 1);
        assert_eq!(c.reclaimed, 2, "one pending message per topic");
        assert_eq!(c.tombstoned, 2);
        // A second sweep finds nothing but still counts as a sweep.
        e.compact_all(&fd);
        assert_eq!(e.counters().compactions, 2);
        assert_eq!(e.counters().reclaimed, 2);
    }

    #[test]
    fn tick_all_compacts_only_once_memory_is_configured() {
        let fd = FdSnapshot::none();
        let mut mux = MuxBuffers::new();
        let mut plain = topic_engine(2, 14);
        let mut bounded = topic_engine(2, 14);
        bounded.configure_memory(MemoryConfig::default());
        let fresh_bounded = bounded.fingerprint();
        for e in [&mut plain, &mut bounded] {
            e.step_mux(T0, StepInput::Broadcast(Payload::from("m")), &fd, &mut mux);
            e.tick_all(&fd, &mut mux);
            assert_eq!(mux.outbox.len(), 1, "the sweep ran before any compaction");
        }
        assert_eq!(plain.counters().compactions, 0);
        assert_eq!(
            plain.stats().msg_set,
            1,
            "never configured: never compacted"
        );
        let c = bounded.counters();
        assert_eq!((c.compactions, c.reclaimed, c.tombstoned), (1, 1, 1));
        assert_eq!(bounded.stats().msg_set, 0);
        // Same stats as when it was fresh, but a tag is tombstoned now: the
        // bounded digest sees that (the memory-less one folds no counters).
        assert_ne!(bounded.fingerprint(), fresh_bounded);
    }

    // ---- the active index (DESIGN.md §16) --------------------------------

    #[test]
    fn a_topic_is_swept_exactly_while_it_has_work() {
        // Scripted goes quiescent only through compaction, so a bounded
        // engine walks one topic through the whole cycle: idle → listed →
        // stale → dropped → listed again → draining → reaped.
        let fd = FdSnapshot::none();
        let mut e = topic_engine(3, 70);
        e.configure_memory(MemoryConfig::default());
        let mut mux = MuxBuffers::new();
        let t1 = TopicId(1);
        let broadcast = |e: &mut TopicEngine, mux: &mut MuxBuffers| {
            e.step_mux(t1, StepInput::Broadcast(Payload::from("m")), &fd, mux);
        };
        assert!(e.active.is_empty(), "fresh instances have no work");
        e.tick_all(&fd, &mut mux);
        assert!(mux.outbox.is_empty());
        assert_eq!(e.counters().ticks, 3, "elided sweeps are still counted");

        broadcast(&mut e, &mut mux);
        broadcast(&mut e, &mut mux);
        assert_eq!(e.active, vec![t1], "listed once, by the first broadcast");
        e.tick_all(&fd, &mut mux);
        assert_eq!(mux.outbox.len(), 2, "the listed topic was swept");
        assert!(mux.outbox.iter().all(|(t, _)| *t == t1));
        // The tick's compaction emptied it after the sweep decided to keep
        // it: a stale entry, which the next tick sweeps silently and drops.
        assert!(e.is_quiescent());
        assert_eq!(e.active, vec![t1]);
        e.tick_all(&fd, &mut mux);
        assert!(mux.outbox.is_empty());
        assert!(e.active.is_empty());

        // A reception that leaves the instance quiescent lists nothing; the
        // next broadcast lists it again.
        let msg = WireMessage::Msg {
            tag: Tag(5),
            payload: Payload::from("r"),
        };
        e.step_mux(t1, StepInput::Receive(msg), &fd, &mut mux);
        assert!(e.active.is_empty());
        broadcast(&mut e, &mut mux);
        assert_eq!(e.active, vec![t1]);
        e.tick_all(&fd, &mut mux);
        assert_eq!(mux.outbox.len(), 1);
        e.tick_all(&fd, &mut mux);
        assert!(e.active.is_empty());

        // Retiring an idle topic lists it (only listed slots are reaped);
        // the next tick reaps it and the entry goes with the slot.
        assert!(e.retire_topic(t1));
        assert_eq!((e.active.clone(), e.draining), (vec![t1], 1));
        assert!(!e.is_quiescent(), "draining blocks quiescence");
        e.tick_all(&fd, &mut mux);
        assert!(e.is_retired(t1));
        assert_eq!((e.active.len(), e.draining), (0, 0));
        assert_eq!(e.reap_drained(&fd), 0);
        let c = e.counters();
        assert_eq!((c.ticks, c.steps), (3 * 6, 3 * 6 + 4), "6 ticks × 3 slots");
    }

    #[test]
    fn activation_order_does_not_reorder_task1_emissions() {
        let fd = FdSnapshot::none();
        let mut e = topic_engine(4, 71);
        let mut mux = MuxBuffers::new();
        for t in [3u32, 0, 2] {
            let input = StepInput::Broadcast(Payload::from("m"));
            e.step_mux(TopicId(t), input, &fd, &mut mux);
        }
        assert_eq!(e.active, vec![TopicId(3), TopicId(0), TopicId(2)]);
        e.tick_all(&fd, &mut mux);
        let order: Vec<u32> = mux.outbox.iter().map(|(t, _)| t.0).collect();
        assert_eq!(order, vec![0, 2, 3], "ascending topic, as a full sweep");
    }

    /// A hand-written engine snapshot body for a one-topic `Scripted`
    /// engine (topic 0, nothing pending), with the given raw words where
    /// [`TopicEngine::save_snapshot`] writes ids and the drain counter.
    fn raw_snapshot(topic: u64, drain_ticks: u64, retired: &[u64]) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_str("scripted");
        w.put_u64(1); // topics
        w.put_u64(9); // rng state
        for _ in 0..12 {
            w.put_u64(0); // counters
        }
        w.put_u64(topic);
        w.put_u64(0); // draining
        w.put_u64(drain_ticks);
        let mut state = SnapshotWriter::new();
        state.put_u64(0); // Scripted: no pending messages
        w.put_bytes(&state.into_body());
        w.put_u64(retired.len() as u64);
        for &id in retired {
            w.put_u64(id);
        }
        w.into_envelope()
    }

    #[test]
    fn restore_rejects_words_that_do_not_fit_a_u32() {
        // The hand-written body is a snapshot the engine accepts …
        let mut ok = engine();
        ok.restore_snapshot(&raw_snapshot(0, 7, &[5]))
            .expect("in-range body restores");
        assert!(ok.is_retired(TopicId(5)));
        // … and the same body with one word past u32::MAX is corruption,
        // not the topic the word wraps to (1 << 32 wraps to topic 0).
        let wrap = |id: u64| (1u64 << 32) + id;
        for (bytes, field) in [
            (raw_snapshot(wrap(0), 0, &[]), "slot topic id"),
            (raw_snapshot(0, wrap(1), &[]), "drain_ticks"),
            (raw_snapshot(0, 0, &[wrap(5)]), "retired topic id"),
        ] {
            match engine().restore_snapshot(&bytes) {
                Err(SnapshotError::Malformed(why)) => {
                    assert!(why.contains(field), "{field}: {why}")
                }
                other => panic!("{field}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn a_version_2_snapshot_is_refused_by_version() {
        // Version 2 ended the body with a subscription set. A well-formed
        // v2 envelope (here: the v3 body plus an empty set) is refused by
        // its version, never parsed as a v3 body.
        let v3 = engine().save_snapshot().unwrap();
        let mut body = unseal(&v3).unwrap().to_vec();
        body.extend_from_slice(&0u64.to_le_bytes());
        let mut v2 = b"URBS".to_vec();
        v2.extend_from_slice(&2u32.to_le_bytes());
        v2.extend_from_slice(&(body.len() as u64).to_le_bytes());
        v2.extend_from_slice(&body);
        v2.extend_from_slice(&urb_types::snapshot::fnv1a(&body).to_le_bytes());
        assert_eq!(
            engine().restore_snapshot(&v2),
            Err(SnapshotError::UnsupportedVersion { found: 2 })
        );
    }

    // ---- the node tick (DESIGN.md §2) -----------------------------------

    /// One churn operation of the tick-equivalence property below.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        Create(u32),
        Retire(u32),
        Broadcast(u32),
        Receive(u32, u128),
        Tick,
        Restore,
    }

    /// The active index against the slots it summarises: flags and list
    /// agree, no topic is listed twice, and every slot with work is listed.
    fn assert_index_consistent(e: &TopicEngine) {
        let mut listed = e.active.clone();
        listed.sort_unstable();
        let flagged: Vec<TopicId> = e
            .slots
            .iter()
            .filter(|s| s.active)
            .map(|s| s.topic)
            .collect();
        assert_eq!(listed, flagged, "index and flags disagree (or a duplicate)");
        for s in &e.slots {
            assert!(
                s.active || !s.has_work(),
                "{} has work but is unlisted",
                s.topic
            );
        }
        assert_eq!(e.draining, e.slots.iter().filter(|s| s.draining).count());
    }

    fn arb_ops() -> impl proptest::prelude::Strategy<Value = Vec<Op>> {
        use proptest::prelude::*;
        let op = prop_oneof![
            (0u32..4).prop_map(Op::Create),
            (0u32..4).prop_map(Op::Retire),
            (0u32..4).prop_map(Op::Broadcast),
            ((0u32..4), (0u128..6)).prop_map(|(t, tag)| Op::Receive(t, tag)),
            (0u32..3).prop_map(|_| Op::Tick),
            (0u32..1).prop_map(|_| Op::Restore),
        ];
        proptest::collection::vec(op, 1..60)
    }

    proptest::proptest! {
        /// `tick_all` is the recipe every driver used to spell by hand —
        /// per-slot `Tick` ascending, then `reap_drained`, then (memory
        /// configured) one compaction sweep — and nothing else: under
        /// random lifecycle and traffic churn both leave the same
        /// emissions, deliveries, counters, digest and snapshot bytes.
        #[test]
        fn tick_all_is_sweep_then_reap_then_compact(
            ops in arb_ops(),
            memory in proptest::prelude::any::<bool>(),
        ) {
            let fd = FdSnapshot::none();
            let build = || {
                let mut e = topic_engine(2, 77);
                e.set_drain_limit(2);
                if memory {
                    e.configure_memory(MemoryConfig::default());
                }
                e
            };
            let (mut ticked, mut spelled) = (build(), build());
            let (mut out_a, mut out_b) = (MuxBuffers::new(), MuxBuffers::new());
            for op in ops {
                match op {
                    Op::Create(t) => {
                        ticked.create_topic(TopicId(t), scripted());
                        spelled.create_topic(TopicId(t), scripted());
                    }
                    Op::Retire(t) => {
                        ticked.retire_topic(TopicId(t));
                        spelled.retire_topic(TopicId(t));
                    }
                    Op::Broadcast(t) if ticked.is_live(TopicId(t)) => {
                        let input = || StepInput::Broadcast(Payload::from("b"));
                        ticked.step_mux(TopicId(t), input(), &fd, &mut out_a);
                        spelled.step_mux(TopicId(t), input(), &fd, &mut out_b);
                    }
                    Op::Receive(t, tag) if ticked.has_instance(TopicId(t)) => {
                        let input = || StepInput::Receive(WireMessage::Msg {
                            tag: Tag(tag),
                            payload: Payload::from("r"),
                        });
                        ticked.step_mux(TopicId(t), input(), &fd, &mut out_a);
                        spelled.step_mux(TopicId(t), input(), &fd, &mut out_b);
                    }
                    Op::Broadcast(_) | Op::Receive(..) => {}
                    Op::Tick => {
                        ticked.tick_all(&fd, &mut out_a);
                        out_b.clear();
                        let sweep: Vec<TopicId> = spelled.slots.iter().map(|s| s.topic).collect();
                        for topic in sweep {
                            spelled.step_mux(topic, StepInput::Tick, &fd, &mut out_b);
                        }
                        spelled.reap_drained(&fd);
                        if memory {
                            spelled.compact_all(&fd);
                        }
                    }
                    Op::Restore => {
                        // Save, restore into a fresh engine brought to the
                        // same topic directory, carry on with that one: the
                        // index is rebuilt from the slots, and `spelled`
                        // (never restored) must not be able to tell.
                        let bytes = ticked.save_snapshot().unwrap();
                        let mut fresh = build();
                        for t in 0..4 {
                            if ticked.has_instance(TopicId(t)) {
                                fresh.create_topic(TopicId(t), scripted());
                            } else if fresh.retire_topic(TopicId(t)) {
                                fresh.reap_drained(&fd);
                            }
                        }
                        fresh.restore_snapshot(&bytes).unwrap();
                        ticked = fresh;
                    }
                }
                for e in [&ticked, &spelled] {
                    assert_index_consistent(e);
                    proptest::prop_assert_eq!(
                        e.is_quiescent(),
                        e.slots.iter().all(|s| !s.draining && s.proc.is_quiescent())
                    );
                }
                proptest::prop_assert_eq!(&out_a.outbox, &out_b.outbox);
                proptest::prop_assert_eq!(&out_a.deliveries, &out_b.deliveries);
                proptest::prop_assert_eq!(ticked.counters(), spelled.counters());
                proptest::prop_assert_eq!(ticked.fingerprint(), spelled.fingerprint());
                proptest::prop_assert_eq!(
                    ticked.save_snapshot().unwrap(),
                    spelled.save_snapshot().unwrap()
                );
            }
            if !memory {
                proptest::prop_assert_eq!(ticked.counters().compactions, 0);
            }
        }
    }

    #[test]
    fn snapshot_round_trip_restores_state_counters_and_rng() {
        let fd = FdSnapshot::none();
        let mut original = topic_engine(2, 21);
        let mut mux = MuxBuffers::new();
        original.step_mux(
            TopicId(0),
            StepInput::Broadcast(Payload::from("alpha")),
            &fd,
            &mut mux,
        );
        original.step_mux(
            TopicId(1),
            StepInput::Broadcast(Payload::from("beta")),
            &fd,
            &mut mux,
        );
        original.tick_all(&fd, &mut mux);
        let bytes = original
            .save_snapshot()
            .expect("scripted supports snapshots");
        assert_eq!(
            bytes,
            original.save_snapshot().unwrap(),
            "byte-deterministic serialization"
        );
        // Restore into a fresh engine built with a *different* seed: the
        // snapshot carries the exact RNG stream position.
        let mut restored = topic_engine(2, 999);
        restored.restore_snapshot(&bytes).expect("round trip");
        assert_eq!(restored.fingerprint(), original.fingerprint());
        assert_eq!(restored.counters(), original.counters());
        assert_eq!(restored.stats().msg_set, 2);
        // Both engines continue identically — same draws, same emissions.
        let ta = original.step_mux(
            TopicId(0),
            StepInput::Broadcast(Payload::from("next")),
            &fd,
            &mut mux,
        );
        let mut mux2 = MuxBuffers::new();
        let tb = restored.step_mux(
            TopicId(0),
            StepInput::Broadcast(Payload::from("next")),
            &fd,
            &mut mux2,
        );
        assert_eq!(ta, tb, "restored RNG resumes the exact stream");
    }

    #[test]
    fn restore_rejects_mismatch_and_corruption() {
        let fd = FdSnapshot::none();
        let mut e = topic_engine(2, 3);
        let mut mux = MuxBuffers::new();
        e.step_mux(
            TopicId(0),
            StepInput::Broadcast(Payload::from("x")),
            &fd,
            &mut mux,
        );
        let bytes = e.save_snapshot().unwrap();
        // Topic-count mismatch.
        let mut narrow = topic_engine(1, 3);
        assert!(matches!(
            narrow.restore_snapshot(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
        // Algorithm mismatch.
        let mut other = TopicEngine::new(
            vec![
                Box::new(Opaque) as Box<dyn AnonProcess + Send>,
                Box::new(Opaque),
            ],
            SplitMix64::new(3),
        );
        assert!(matches!(
            other.restore_snapshot(&bytes),
            Err(SnapshotError::Malformed(_))
        ));
        // Bit-flip in the body fails the checksum before any decoding.
        let mut flipped = bytes.clone();
        let mid = 16 + (flipped.len() - 24) / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            topic_engine(2, 3).restore_snapshot(&flipped),
            Err(SnapshotError::Checksum { .. })
        ));
        // Garbage is not a snapshot at all.
        assert!(matches!(
            topic_engine(2, 3).restore_snapshot(b"nope"),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn save_snapshot_errors_for_unsupported_algorithms() {
        let e = TopicEngine::new(vec![Box::new(Opaque)], SplitMix64::new(1));
        assert!(matches!(
            e.save_snapshot(),
            Err(SnapshotError::Malformed(_))
        ));
    }
}
