//! The discrete-event core: a deterministic time-ordered event queue.
//!
//! Asynchrony in the paper's model means "no bound on relative speeds or
//! message delays". The simulator realizes a *specific* asynchronous run by
//! drawing per-message delays and per-process tick phases from the seeded
//! RNG; the event queue then executes that run deterministically. Ties are
//! broken by insertion sequence number, so two runs with the same seed
//! produce byte-identical traces (verified by the determinism tests).

use urb_types::{Payload, TopicId, WireMessage};

/// What can happen in a simulated run.
#[derive(Clone, Debug)]
pub enum Event {
    /// A multiplexed batch of wire messages arrives at process `to` (the
    /// topic plane, DESIGN.md §12: everything one step emitted toward
    /// this destination — across every topic the node stepped — that
    /// survived the channel, arriving together as one frame). `from` is
    /// simulator-side provenance (metrics/fairness only — never exposed
    /// to protocol code).
    Deliver {
        /// Destination process index.
        to: usize,
        /// Origin process index (bookkeeping only; anonymity is preserved
        /// because the protocol never sees this field).
        from: usize,
        /// The surviving topic-tagged messages, in emission order
        /// (ascending topic groups — the wire shape of a
        /// [`urb_types::MuxBatch`]). Single-topic runs carry
        /// `(TopicId::ZERO, …)` entries exclusively.
        entries: Vec<(TopicId, WireMessage)>,
    },
    /// Process `pid` runs one Task-1 sweep (and its failure detector ticks).
    Tick {
        /// The ticking process.
        pid: usize,
    },
    /// Process `pid` crashes (crash-stop; it executes nothing afterwards).
    Crash {
        /// The crashing process.
        pid: usize,
    },
    /// The application at `pid` invokes `URB_broadcast(payload)` on one
    /// topic instance.
    ClientBroadcast {
        /// The broadcasting process.
        pid: usize,
        /// The target URB instance.
        topic: TopicId,
        /// The application message.
        payload: Payload,
    },
    /// Periodic state-size sampling (experiment E9).
    SampleStats,
    /// A planned topic-lifecycle event fires (DESIGN.md §15): the driver
    /// applies entry `index` of the run's `[[topics.events]]` plan —
    /// create or retire — at **every** live process at this instant.
    /// Lifecycle is deterministic global configuration in the simulator
    /// (like crash plans); the wire-level `TopicControl` gossip is
    /// exercised by the engine tests and the runtime/daemon plane.
    TopicEvent {
        /// Index into the configured lifecycle plan.
        index: usize,
    },
}

/// A scheduled event.
#[derive(Clone, Debug)]
struct Scheduled {
    time: u64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse for the max-heap: smaller (time, seq) = higher priority.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

/// Deterministic time-ordered event queue (min-heap on `(time, seq)`).
#[derive(Default, Debug)]
pub struct EventQueue {
    heap: std::collections::BinaryHeap<Scheduled>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at absolute time `time`.
    pub fn push(&mut self, time: u64, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Pops the earliest event, returning `(time, event)`.
    pub fn pop(&mut self) -> Option<(u64, Event)> {
        self.heap.pop().map(|s| (s.time, s.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, Event::Tick { pid: 3 });
        q.push(10, Event::Tick { pid: 1 });
        q.push(20, Event::Tick { pid: 2 });
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for pid in 0..5 {
            q.push(7, Event::Tick { pid });
        }
        let pids: Vec<usize> = std::iter::from_fn(|| {
            q.pop().map(|(_, e)| match e {
                Event::Tick { pid } => pid,
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(pids, vec![0, 1, 2, 3, 4], "FIFO among equal timestamps");
    }
}
