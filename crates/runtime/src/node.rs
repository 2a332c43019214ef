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
//! send keeps each (sender, receiver) pair FIFO. The step's deliveries go
//! to the node's subscribers under the same lock, and their tags to the
//! set [`crate::UrbCluster::await_delivery_everywhere`] reads.

use crate::node_core::{self, Backend, Node};
use crate::router::Fanout;
use crate::transport::NetError;
use crate::NodeInput;
use bytes::Bytes;
use crossbeam_channel::{Receiver, Sender};
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use urb_engine::MuxIngressError;
use urb_types::{Delivery, Tag, TopicId};

/// A node of the in-process runtime.
pub(crate) type LocalNode = Node<LocalBackend>;

/// One delivery subscription: the topic it filters on and the
/// subscriber's channel, fed `(pid, delivery)` pairs.
pub(crate) type TopicSubscriber = (TopicId, Sender<(usize, Delivery)>);

/// The tags one node delivered, behind a lock of their own: a waiter
/// reads them without taking the node's.
pub(crate) type DeliveredTags = Arc<Mutex<HashSet<Tag>>>;

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
/// is stopped, otherwise applies `step` to it and drains what it staged
/// before unlocking.
pub(crate) fn step<T>(
    node: &Mutex<LocalNode>,
    step: impl FnOnce(&mut LocalNode) -> T,
) -> Option<T> {
    let mut node = node.lock();
    if node.backend.stopped {
        return None;
    }
    let out = step(&mut node);
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
/// through the sender's own [`Fanout`], deliveries to the node's
/// subscribers, and their tags to its [`DeliveredTags`].
pub(crate) struct LocalBackend {
    /// Crash-stop: a stopped node takes no step, on the node thread or a
    /// caller's. Read and written only under the node's lock.
    stopped: bool,
    pub(crate) fanout: Fanout,
    /// This node's subscriptions. A dropped receiver is pruned at the
    /// next delivery on its topic.
    pub(crate) subscribers: Vec<TopicSubscriber>,
    pub(crate) delivered: DeliveredTags,
}

impl LocalBackend {
    pub(crate) fn new(fanout: Fanout) -> Self {
        LocalBackend {
            stopped: false,
            fanout,
            subscribers: Vec::new(),
            delivered: DeliveredTags::default(),
        }
    }
}

impl Backend for LocalBackend {
    fn wake_at(&mut self, _now: Instant, next_tick: Instant) -> Option<Instant> {
        (!self.stopped).then_some(next_tick)
    }

    fn send(&mut self, frame: Bytes) -> bool {
        self.fanout.route(frame);
        true
    }

    /// Each delivery reaches the subscribers before its tag is recorded,
    /// so a waiter that sees the tag finds the delivery in its receiver.
    fn settle(&mut self, node: &mut urb_engine::Node) -> Result<(), NetError> {
        let deliveries = &mut node.mux().deliveries;
        if deliveries.is_empty() {
            return Ok(());
        }
        let (pid, mut delivered) = (self.fanout.from, self.delivered.lock());
        for (topic, d) in deliveries.drain(..) {
            self.subscribers
                .retain(|(t, tx)| *t != topic || tx.send((pid, d.clone())).is_ok());
            delivered.insert(d.tag);
        }
        Ok(())
    }

    fn rejected(&mut self, err: MuxIngressError) {
        // In-process frames come from a peer's zero-copy encode; one the
        // engine rejects is a bug, not a network condition.
        panic!("malformed frame from a peer — codec bug: {err}");
    }
}
