//! The per-process node thread of [`crate::UrbCluster`]: the node loop
//! ([`crate::node_core::run`]) over the in-process router lanes.
//!
//! Each node blocks on a single funnelled input channel carrying both
//! network frames and control commands. Outbound traffic uses the
//! **sharded wire plane** (DESIGN.md §12): everything one step emitted —
//! across every topic — is partitioned by router lane
//! (`lane = topic % lanes`) and leaves as one encoded multiplexed frame
//! per lane with traffic (more only past
//! [`FRAME_BUDGET`](crate::node_core::FRAME_BUDGET)), produced through
//! the zero-copy codec into a pooled buffer. Router and channel costs
//! scale with protocol steps and lanes, never with topic count times
//! messages.

use crate::lanes::LaneDirectory;
use crate::node_core::{self, seal_frames, Backend, NodeCore, FRAME_BUDGET};
use crate::registry::MembershipRegistry;
use crate::transport::NetError;
use crate::NodeInput;
use bytes::Bytes;
use crossbeam_channel::{Receiver, Sender};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use urb_core::Algorithm;
use urb_engine::{MuxBuffers, MuxIngressError};
use urb_types::{BufPool, Delivery, TopicId};

/// Everything a node thread needs at spawn time.
pub(crate) struct NodeSetup {
    pub pid: usize,
    pub algorithm: Algorithm,
    pub n: usize,
    pub topics: u32,
    pub seed: u64,
    pub tick_interval: Duration,
    /// Funnelled inputs: network frames from the router lanes and
    /// commands from the cluster handle share one FIFO (this is also what
    /// lets the node block on a single receive with a tick deadline).
    pub inputs: Receiver<NodeInput>,
    /// Crash-stop flag, raised by the cluster handle *before* it enqueues
    /// the wake-up command. Checked on every loop iteration so a crash
    /// halts the node within one step even when `inputs` holds a deep
    /// network backlog.
    pub stop: Arc<AtomicBool>,
    /// One egress sender per router lane; a frame for topic `t` goes to
    /// lane `t % lanes`.
    pub egress: Vec<Sender<(usize, Bytes)>>,
    pub deliveries: Sender<(TopicId, Delivery)>,
    pub registry: Arc<MembershipRegistry>,
    /// Cluster-shared frame-buffer pool (encode scratch returns here).
    pub pool: BufPool,
}

/// Spawns one node thread.
pub(crate) fn spawn_node(setup: NodeSetup) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("urb-node-{}", setup.pid))
        .spawn(move || {
            let mut core = NodeCore::new(
                setup.pid,
                setup.n,
                setup.algorithm,
                setup.topics,
                setup.seed,
                setup.registry,
            );
            let mut lanes = LaneBackend {
                pid: setup.pid,
                stop: setup.stop,
                lane_dir: LaneDirectory::new(setup.egress.len()),
                egress: setup.egress,
                deliveries: setup.deliveries,
                pool: setup.pool,
            };
            node_core::run(&mut core, &setup.inputs, setup.tick_interval, &mut lanes)
                .expect("the lane backend never fails a step");
        })
        .expect("spawn node thread")
}

/// The in-process backend of the node loop: frames go to the router
/// lanes, deliveries to the cluster handle's channel.
struct LaneBackend {
    pid: usize,
    stop: Arc<AtomicBool>,
    egress: Vec<Sender<(usize, Bytes)>>,
    /// Per-lane topic directory: precomputed `topic → lane` map plus
    /// reusable per-lane egress partitions (DESIGN.md §16).
    lane_dir: LaneDirectory,
    deliveries: Sender<(TopicId, Delivery)>,
    pool: BufPool,
}

impl Backend for LaneBackend {
    fn wake_at(&mut self, _now: Instant, next_tick: Instant) -> Option<Instant> {
        // Crash-stop beats anything still queued: a crashed process
        // executes nothing further, regardless of input backlog.
        (!self.stop.load(Ordering::Acquire)).then_some(next_tick)
    }

    /// On a single-lane cluster the whole mux outbox is sealed for that
    /// lane; with several lanes it is partitioned by `topic % lanes` (one
    /// pass over the outbox, one over the controls) and each lane's part
    /// is sealed for its lane. A closed lane means the cluster is
    /// shutting down.
    fn flush(&mut self, mux: &mut MuxBuffers) -> bool {
        let (pid, pool) = (self.pid, &self.pool);
        let seal = |outbox: &mut _, controls: &mut _, lane: &Sender<_>| {
            seal_frames(outbox, controls, pool, FRAME_BUDGET, |frame| {
                lane.send((pid, frame)).is_ok()
            })
        };
        if let [lane] = &self.egress[..] {
            return seal(&mut mux.outbox, &mut mux.controls, lane);
        }
        if mux.outbox.is_empty() && mux.controls.is_empty() {
            return true;
        }
        self.lane_dir.partition(&mut mux.outbox, &mut mux.controls);
        self.egress.iter().enumerate().all(|(i, lane)| {
            let (outbox, controls) = self.lane_dir.lane_parts_mut(i);
            seal(outbox, controls, lane)
        })
    }

    fn settle(&mut self, core: &mut NodeCore) -> Result<(), NetError> {
        for (topic, d) in core.mux().deliveries.drain(..) {
            let _ = self.deliveries.send((topic, d));
        }
        Ok(())
    }

    fn rejected(&mut self, err: MuxIngressError) {
        // In-process frames come from a peer's zero-copy encode through
        // the router; one the engine rejects is a bug, not a network
        // condition.
        panic!("malformed frame from router — codec bug: {err}");
    }
}
