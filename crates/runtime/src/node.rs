//! The per-process node of [`crate::UrbCluster`]: a [`Node`] behind a
//! lock, shared by the node thread and the cluster handle.
//!
//! The node thread runs the node loop ([`crate::node_core::run`]) over
//! the node's inbox, which carries network frames and one stop wake-up.
//! `URB_broadcast` and lifecycle controls do not go through the inbox:
//! the cluster handle locks the node and takes the step on the caller's
//! thread ([`step`]), as the paper's `URB_broadcast(m)` is a local step
//! of the process that invokes it.
//!
//! Whichever thread stepped the node flushes it, still under the lock:
//! everything the step emitted — across every topic — leaves as one
//! encoded multiplexed frame (more only past
//! [`FRAME_BUDGET`](crate::node_core::FRAME_BUDGET)), produced through
//! the zero-copy codec into a pooled buffer and fanned out to every
//! inbox by the sender itself ([`Fanout`]). Holding the lock across the
//! send keeps each (sender, receiver) pair FIFO.

use crate::node_core::{self, seal_frames, Backend, Node, NodeCore, FRAME_BUDGET};
use crate::router::Fanout;
use crate::transport::NetError;
use crate::NodeInput;
use crossbeam_channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};
use urb_engine::{MuxBuffers, MuxIngressError};
use urb_types::{BufPool, Delivery, TopicId};

/// A node of the in-process runtime.
pub(crate) type LocalNode = Node<LocalBackend>;

/// Spawns the thread that runs `node`'s loop over `inputs`. However the
/// thread ends — stop, shutdown or a panic — the node is stopped when it
/// does, so callers are refused from then on.
pub(crate) fn spawn_node(
    pid: usize,
    node: Arc<Mutex<LocalNode>>,
    inputs: Receiver<NodeInput>,
    tick_interval: Duration,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("urb-node-{pid}"))
        .spawn(move || {
            let exit = StopOnExit(node);
            node_core::run(&exit.0, &inputs, tick_interval)
                .expect("the in-process backend never fails a step");
        })
        .expect("spawn node thread")
}

/// Takes one step on the caller's thread: locks the node, refuses if it
/// is stopped, otherwise applies `step` to its core and drains what it
/// staged before unlocking.
pub(crate) fn step<T>(node: &Mutex<LocalNode>, step: impl FnOnce(&mut NodeCore) -> T) -> Option<T> {
    let mut node = node.lock();
    if node.backend.stopped {
        return None;
    }
    let out = step(&mut node.core);
    node.drain()
        .expect("the in-process backend never fails a step");
    Some(out)
}

/// Crash-stops `node`: it takes no further step on any thread, and its
/// loop is woken to exit if it was waiting (idempotent).
pub(crate) fn stop(node: &Mutex<LocalNode>) {
    let mut node = node.lock();
    node.backend.stopped = true;
    node.backend.fanout.wake_self();
}

/// Stops the node when the thread running its loop ends.
struct StopOnExit(Arc<Mutex<LocalNode>>);

impl Drop for StopOnExit {
    fn drop(&mut self) {
        self.0.lock().backend.stopped = true;
    }
}

/// The in-process backend of the node loop: frames go to every inbox
/// through the sender's own [`Fanout`], deliveries to the cluster
/// handle's channel.
pub(crate) struct LocalBackend {
    /// Crash-stop: a stopped node takes no step, on the node thread or a
    /// caller's. Read and written only under the node's lock.
    stopped: bool,
    pub(crate) fanout: Fanout,
    deliveries: Sender<(TopicId, Delivery)>,
    /// Cluster-shared frame-buffer pool (encode scratch returns here).
    pool: BufPool,
}

impl LocalBackend {
    pub(crate) fn new(
        fanout: Fanout,
        deliveries: Sender<(TopicId, Delivery)>,
        pool: BufPool,
    ) -> Self {
        LocalBackend {
            stopped: false,
            fanout,
            deliveries,
            pool,
        }
    }
}

impl Backend for LocalBackend {
    fn wake_at(&mut self, _now: Instant, next_tick: Instant) -> Option<Instant> {
        (!self.stopped).then_some(next_tick)
    }

    fn flush(&mut self, mux: &mut MuxBuffers) -> bool {
        let fanout = &mut self.fanout;
        seal_frames(
            &mut mux.outbox,
            &mut mux.controls,
            &self.pool,
            FRAME_BUDGET,
            |frame| {
                fanout.route(frame);
                true
            },
        )
    }

    fn settle(&mut self, core: &mut NodeCore) -> Result<(), NetError> {
        for (topic, d) in core.mux().deliveries.drain(..) {
            let _ = self.deliveries.send((topic, d));
        }
        Ok(())
    }

    fn rejected(&mut self, err: MuxIngressError) {
        // In-process frames come from a peer's zero-copy encode; one the
        // engine rejects is a bug, not a network condition.
        panic!("malformed frame from a peer — codec bug: {err}");
    }
}
