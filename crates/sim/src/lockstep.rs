//! The **lockstep mesh**: `n` [`TopicEngine`]s stepped directly, in
//! lockstep, over a perfect network — the harness both the soak plane
//! ([`mod@crate::soak`], DESIGN.md §14) and the open-loop plane
//! ([`mod@crate::openloop`], DESIGN.md §16) run on.
//!
//! The discrete-event driver ([`crate::sim::run`]) prices every message
//! copy through the channel models; these two planes do not care about
//! loss or delay — one asks whether resident state stays bounded, the
//! other where the latency knee sits. So the mesh floods every emission to
//! every process instantly and losslessly, every process is correct and
//! shares one static full failure-detector view, and a sweep is one node
//! tick ([`TopicEngine::tick_all`]: Task 1 → reap → compact if configured)
//! per process. Deliveries fold into per-process order-sensitive rolling
//! hashes, so two runs delivered identically iff their hashes match.
//!
//! Everything is a pure function of the constructor arguments. Each plane
//! passes its own seed salt and detector label: their tag streams (and so
//! every committed delivery hash, E20 row and E22/E23 point) are pinned
//! per plane.

use crate::sim::build_fleet;
use std::collections::VecDeque;
use urb_core::Algorithm;
use urb_engine::{MuxBuffers, StepInput, TopicEngine, DEFAULT_DRAIN_LIMIT};
use urb_types::snapshot::fnv1a;
use urb_types::{
    FdPair, FdSnapshot, FdView, Label, MemoryConfig, Payload, SplitMix64, Tag, TopicId, WireMessage,
};

pub(crate) struct Mesh {
    /// Builds the fleet again from scratch, identically — what a snapshot
    /// restart restores into.
    fleet: Box<dyn Fn() -> Vec<TopicEngine>>,
    /// The fleet; read-only outside this module (end-of-run read-outs).
    pub engines: Vec<TopicEngine>,
    fd: FdSnapshot,
    mux: MuxBuffers,
    /// The instant lossless network: topic-tagged emissions awaiting
    /// flood delivery to every process.
    net: VecDeque<(TopicId, WireMessage)>,
    /// Per-process URB-delivery counts.
    pub delivered: Vec<u64>,
    /// Per-process order-sensitive rolling hashes over the delivery
    /// sequence (tag order).
    pub hashes: Vec<u64>,
    /// Per-link copies flooded so far (each emission reaches all `n`).
    pub transmissions: u64,
}

impl Mesh {
    /// `n` engines of `topics` instances each. Every process is correct
    /// and shares one static full view: both detectors report the single
    /// label `label` covering all `n` processes, which satisfies `AΘ`
    /// (deliver once all `n` distinct ACKs carry it) and `AP*` (prune once
    /// the ACK table matches the full view).
    pub fn new(
        n: usize,
        topics: u32,
        algorithm: Algorithm,
        salted_seed: u64,
        label: u64,
        memory: Option<MemoryConfig>,
    ) -> Self {
        assert!(n >= 1);
        let fd = if algorithm.needs_fd() {
            let view = FdView::from_pairs([FdPair {
                label: Label(label),
                number: n as u32,
            }]);
            FdSnapshot::new(view.clone(), view)
        } else {
            FdSnapshot::none()
        };
        // Engine `i` draws its tags from the `i`-th split of the plane's
        // salted root seed.
        let fleet = move || {
            let streams = SplitMix64::new(salted_seed);
            build_fleet(n, topics, algorithm, &streams, memory, DEFAULT_DRAIN_LIMIT)
        };
        Mesh {
            engines: fleet(),
            fleet: Box::new(fleet),
            fd,
            mux: MuxBuffers::new(),
            net: VecDeque::new(),
            delivered: vec![0; n],
            hashes: vec![0xCBF2_9CE4_8422_2325; n],
            transmissions: 0,
        }
    }

    /// `URB_broadcast(payload)` at `pid` on `topic`. The step's effects
    /// stay buffered until the caller [`absorb`](Mesh::absorb)s them — so
    /// it can file the returned tag first.
    pub fn broadcast(&mut self, pid: usize, topic: TopicId, payload: Payload) -> Tag {
        self.engines[pid]
            .step_mux(
                topic,
                StepInput::Broadcast(payload),
                &self.fd,
                &mut self.mux,
            )
            .expect("urb_broadcast assigns a tag")
    }

    /// Drains what `pid`'s last step(s) produced: emissions onto the
    /// network, deliveries into the counts and hashes and — in order — to
    /// `on_deliver(pid, tag)`.
    pub fn absorb(&mut self, pid: usize, on_deliver: &mut impl FnMut(usize, Tag)) {
        self.net.extend(self.mux.outbox.drain(..));
        for (_, d) in self.mux.deliveries.drain(..) {
            self.delivered[pid] += 1;
            self.hashes[pid] ^= fnv1a(&d.tag.0.to_le_bytes());
            self.hashes[pid] = self.hashes[pid].wrapping_mul(0x1000_0000_01B3);
            on_deliver(pid, d.tag);
        }
    }

    /// Delivers every queued emission to every process, instantly and
    /// losslessly, until the network is silent.
    pub fn flood(&mut self, on_deliver: &mut impl FnMut(usize, Tag)) {
        while let Some((topic, msg)) = self.net.pop_front() {
            self.transmissions += self.engines.len() as u64;
            for pid in 0..self.engines.len() {
                self.engines[pid].step_mux(
                    topic,
                    StepInput::Receive(msg.clone()),
                    &self.fd,
                    &mut self.mux,
                );
                self.absorb(pid, on_deliver);
            }
        }
    }

    /// One node tick of every process, then a flood of what they emitted.
    pub fn sweep(&mut self, on_deliver: &mut impl FnMut(usize, Tag)) {
        for pid in 0..self.engines.len() {
            self.engines[pid].tick_all(&self.fd, &mut self.mux);
            self.absorb(pid, on_deliver);
        }
        self.flood(on_deliver);
    }

    /// Serializes every engine, tears the fleet down and restores from
    /// bytes into freshly-built engines — a simulated crash + recovery of
    /// the whole mesh.
    pub fn restart_from_snapshots(&mut self) {
        let mut fresh = (self.fleet)();
        for (new, old) in fresh.iter_mut().zip(&self.engines) {
            let bytes = old
                .save_snapshot()
                .expect("lockstep algorithms support snapshots");
            new.restore_snapshot(&bytes).expect("own snapshot restores");
        }
        self.engines = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(seed: u64, topics: u32) -> Mesh {
        let salted = seed ^ 0x7E57_7E57_7E57_7E57;
        let mut mesh = Mesh::new(3, topics, Algorithm::Quiescent, salted, 0x7E57, None);
        let mut ignore = |_, _| {};
        for i in 0..24u32 {
            let pid = i as usize % 3;
            mesh.broadcast(pid, TopicId(i % topics), Payload::from("m"));
            mesh.absorb(pid, &mut ignore);
            mesh.flood(&mut ignore);
            if i % 8 == 7 {
                mesh.sweep(&mut ignore);
            }
        }
        mesh.sweep(&mut ignore);
        mesh
    }

    #[test]
    fn mesh_is_deterministic_per_seed() {
        let (a, b) = (run(5, 2), run(5, 2));
        assert_eq!(a.hashes, b.hashes);
        assert_eq!(a.delivered, vec![24; 3]);
        assert_eq!(a.transmissions, b.transmissions);
        assert_ne!(a.hashes, run(6, 2).hashes, "seed moves the tags");
    }

    #[test]
    fn flood_feeds_every_emission_to_every_engine_exactly_once() {
        let mesh = run(9, 3);
        assert!(mesh.net.is_empty(), "flood ran the network silent");
        let emitted: u64 = mesh.engines.iter().map(|e| e.counters().messages_out).sum();
        assert!(emitted > 0);
        for (pid, e) in mesh.engines.iter().enumerate() {
            assert_eq!(e.counters().receives, emitted, "process {pid}");
        }
        assert_eq!(mesh.transmissions, 3 * emitted, "n copies per emission");
        assert!(mesh.engines.iter().all(|e| e.is_quiescent()));
    }

    #[test]
    fn snapshot_restart_changes_nothing() {
        let mut straight = run(11, 1);
        let mut restarted = run(11, 1);
        restarted.restart_from_snapshots();
        let mut ignore = |_, _| {};
        for mesh in [&mut straight, &mut restarted] {
            mesh.broadcast(0, TopicId::ZERO, Payload::from("after"));
            mesh.absorb(0, &mut ignore);
            mesh.flood(&mut ignore);
        }
        assert_eq!(straight.hashes, restarted.hashes);
        let stats = |m: &Mesh| m.engines.iter().map(|e| e.stats()).collect::<Vec<_>>();
        assert_eq!(stats(&straight), stats(&restarted));
    }
}
