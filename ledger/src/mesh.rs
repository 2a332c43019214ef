//! The `mesh_*` workloads: three [`TopicEngine`]s flooded by hand on one
//! thread — the CPU cost of the sans-io stack with no scheduler, channel
//! or socket in the way.
//!
//! Every frame a node emits (`MuxBuffers::take_mux_frame`) is handed to
//! all three nodes (`TopicEngine::receive_mux_frame`, sender included —
//! the paper's broadcast primitive) until nobody has anything left to
//! say. The flood is synchronous, so every frame until silence belongs to
//! the broadcast (or tick) that caused it; that is what lets the traced
//! run attribute time to layers from outside the product.

use crate::gate::{self, Observed, Sent, Verdict};
use crate::gen::{self, Rng, Timeline};
use crate::spans::{self, Tracer};
use crate::N;
use bytes::Bytes;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use urb_core::Algorithm;
use urb_engine::{MuxBuffers, StepInput, TopicEngine};
use urb_runtime::MembershipRegistry;
use urb_types::{
    AnonProcess, BufPool, Context, FdSnapshot, MuxBatch, Payload, SplitMix64, TopicId,
};

/// One mesh workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct MeshSpec {
    /// Protocol under test.
    pub algorithm: Algorithm,
    /// Topic instances per node; broadcasts go round-robin over them.
    pub topics: u32,
    /// Payload bytes per broadcast.
    pub payload_len: usize,
    /// `tick_all` + `reap_drained` on every node each this many broadcasts.
    pub tick_every: u64,
    /// Untimed broadcasts that end set-up (caches filled, buffers grown).
    pub warmup: u64,
    /// Timed broadcasts.
    pub count: u64,
}

struct Node {
    engine: TopicEngine,
    mux: MuxBuffers,
    fd: FdSnapshot,
}

/// Per-node engine RNG seed (what `TopicEngine::new` consumes).
fn engine_seed(seed: u64, node: usize) -> u64 {
    seed ^ 0xB07B_0B00 ^ ((node as u64) << 32)
}

/// Builds one node's engine: `topics` instances of `algorithm`.
pub fn build_engine(algorithm: Algorithm, topics: u32, seed: u64, node: usize) -> TopicEngine {
    TopicEngine::new(
        (0..topics).map(|_| algorithm.instantiate(N)).collect(),
        SplitMix64::new(engine_seed(seed, node)),
    )
}

/// The static all-alive detector view node `pid` sees (nobody crashes on
/// the mesh, so one snapshot serves the whole run).
pub fn static_fd(seed: u64, pid: usize) -> FdSnapshot {
    MembershipRegistry::new(N, seed, Duration::from_millis(200)).snapshot(pid, Instant::now())
}

/// Wire traffic counted by the driver as frames leave a node.
#[derive(Clone, Copy, Debug, Default)]
pub struct Wire {
    /// Encoded frames.
    pub frames: u64,
    /// Bytes of those frames.
    pub bytes: u64,
    /// Protocol messages inside them.
    pub msgs: u64,
}

/// The single-threaded mesh and everything it counts.
pub struct Mesh {
    spec: MeshSpec,
    nodes: Vec<Node>,
    pool: BufPool,
    /// Frames in flight, each with the number of messages it carries.
    queue: VecDeque<(Bytes, u64)>,
    payload_rng: Rng,
    order_rng: Rng,
    scratch: Vec<u8>,
    /// Tag and payload fingerprint of every broadcast, by index.
    sent: Vec<Sent>,
    delivered_at: Vec<u8>,
    observed: Observed,
    /// Index of the broadcast being flooded and when it completed.
    completed_now: Option<Instant>,
    /// What went onto the wire so far.
    wire: Wire,
    /// Messages handed to `receive_mux_frame` inside a recorded span.
    pub traced_msgs: u64,
    /// Traced runs: node 0's protocol work, shadowed outside the engine.
    shadow: Option<Shadow>,
    /// Mini runs: every frame that crossed the wire, kept for the codec loops.
    frames: Option<Vec<Bytes>>,
}

impl Mesh {
    /// Builds the three engines (the measured part of set-up).
    pub fn build(spec: MeshSpec, seed: u64, shadow: bool, keep_frames: bool) -> Mesh {
        let nodes = (0..N)
            .map(|pid| Node {
                engine: build_engine(spec.algorithm, spec.topics, seed, pid),
                mux: MuxBuffers::new(),
                fd: static_fd(seed, pid),
            })
            .collect();
        let total = (spec.warmup + spec.count) as usize;
        Mesh {
            spec,
            nodes,
            pool: BufPool::default(),
            queue: VecDeque::new(),
            payload_rng: Rng::new(seed, 1),
            order_rng: Rng::new(seed, 2),
            scratch: vec![0; spec.payload_len.max(8)],
            sent: Vec::with_capacity(total),
            delivered_at: vec![0; total],
            observed: Observed::new(N),
            completed_now: None,
            wire: Wire::default(),
            traced_msgs: 0,
            shadow: shadow.then(|| Shadow::new(&spec, seed)),
            frames: keep_frames.then(Vec::new),
        }
    }

    /// Moves node `pid`'s step output on: deliveries to the gate, the
    /// outbox (if any) onto the wire as one encoded frame.
    fn drain(&mut self, pid: usize, tracer: &mut Tracer, sampled: bool, id: u64) {
        let node = &mut self.nodes[pid];
        for (_, d) in node.mux.deliveries.drain(..) {
            let Some(i) = self
                .observed
                .file(pid, &self.sent, d.tag, d.payload.as_slice())
            else {
                continue;
            };
            self.delivered_at[i] += 1;
            if self.delivered_at[i] as usize == N && i + 1 == self.sent.len() {
                self.completed_now = Some(Instant::now());
            }
        }
        if node.mux.outbox.is_empty() {
            return;
        }
        let msgs = node.mux.outbox.len() as u64;
        self.wire.msgs += msgs;
        let tok = tracer.open(sampled, "types.take_mux_frame", id);
        let buf = node.mux.take_mux_frame(&self.pool);
        tracer.close(tok);
        if let Some(buf) = buf {
            let frame = Bytes::copy_from_slice(&buf);
            self.wire.frames += 1;
            self.wire.bytes += frame.len() as u64;
            self.queue.push_back((frame, msgs));
        }
    }

    /// Hands every queued frame to all three nodes until silence.
    fn flood(&mut self, tracer: &mut Tracer, sampled: bool, id: u64) {
        while let Some((frame, msgs)) = self.queue.pop_front() {
            if let Some(shadow) = &mut self.shadow {
                shadow.on_frame(&frame);
            }
            if let Some(frames) = &mut self.frames {
                frames.push(frame.clone());
            }
            if sampled && tracer.enabled() {
                self.traced_msgs += msgs * N as u64;
            }
            for pid in 0..N {
                let node = &mut self.nodes[pid];
                let fd = &node.fd;
                let tok = tracer.open(sampled, "engine.receive_mux_frame", id);
                node.engine
                    .receive_mux_frame(&frame, &mut node.mux, |_, _| fd.clone())
                    .expect("the mesh only carries frames its own engines encoded");
                tracer.close(tok);
                self.drain(pid, tracer, sampled, id);
            }
        }
    }

    /// One `URB_broadcast` at a seeded node, flooded to completion.
    /// Returns how long it took to be delivered at all three nodes.
    pub fn broadcast(&mut self, tracer: &mut Tracer, sampled: bool) -> Option<Duration> {
        let idx = self.sent.len() as u64;
        let pid = self.order_rng.below(N as u64) as usize;
        let topic = TopicId((idx % u64::from(self.spec.topics)) as u32);
        let start = Instant::now();
        let root = tracer.open(sampled, "bench.broadcast", idx);
        gen::fill_payload(&mut self.payload_rng, idx, &mut self.scratch);
        let payload = Payload::copy_from_slice(&self.scratch);
        let print = gen::fingerprint(&self.scratch);
        if pid == 0 {
            if let Some(shadow) = &mut self.shadow {
                shadow.on_broadcast(topic, payload.clone());
            }
        }
        self.completed_now = None;
        let node = &mut self.nodes[pid];
        node.mux.clear();
        let tok = tracer.open(sampled, "engine.step_mux", idx);
        let tag = node.engine.step_mux(
            topic,
            StepInput::Broadcast(payload),
            &node.fd,
            &mut node.mux,
        );
        tracer.close(tok);
        self.sent
            .push((tag.expect("urb_broadcast assigns a tag"), print));
        self.drain(pid, tracer, sampled, idx);
        self.flood(tracer, sampled, idx);
        tracer.close(root);
        self.completed_now.map(|t| t - start)
    }

    /// One Task-1 sweep of every node (`tick_all` + `reap_drained`),
    /// each flooded to silence.
    pub fn tick(&mut self, tracer: &mut Tracer, id: u64) {
        let root = tracer.open(true, "bench.tick", id);
        if let Some(shadow) = &mut self.shadow {
            shadow.on_tick();
        }
        for pid in 0..N {
            let node = &mut self.nodes[pid];
            let tok = tracer.open(true, "engine.tick_all", id);
            node.engine.tick_all(&node.fd, &mut node.mux);
            tracer.close(tok);
            let tok = tracer.open(true, "engine.reap_drained", id);
            node.engine.reap_drained(&node.fd);
            tracer.close(tok);
            self.drain(pid, tracer, true, id);
            self.flood(tracer, true, id);
        }
        tracer.close(root);
    }
}

/// Everything one repetition measured.
pub struct MeshRep {
    /// Engine build + warm-up flood, seconds.
    pub setup_s: f64,
    /// Timed window, seconds.
    pub window_s: f64,
    /// Per-broadcast issue → delivered-at-all-three times.
    pub timeline: Timeline,
    /// The gate's judgement.
    pub verdict: Verdict,
    /// Broadcasts attempted (warm-up included).
    pub attempted: u64,
    /// Timed broadcasts.
    pub timed: u64,
    /// What went onto the wire during the timed window.
    pub wire: Wire,
    /// Engine steps of all nodes over the timed window.
    pub steps: u64,
    /// Resident protocol entries at the end, all nodes.
    pub resident_entries: u64,
    /// Frame-buffer pool hit rate over the run.
    pub pool_hit_rate: f64,
    /// Traced runs: messages received inside recorded spans (all nodes).
    pub traced_msgs: u64,
    /// Traced runs: the layer replay of node 0's work.
    pub replay: Option<Replay>,
    /// Runs that keep frames: every frame that crossed the wire, in order.
    pub frames: Vec<Bytes>,
}

/// Where a traced repetition records: sampled broadcasts in one tracer,
/// every tick in the other (so the sample can be scaled up on its own).
pub struct Trace<'a> {
    /// Receives every `sample_every`-th broadcast's spans.
    pub bcast: &'a mut Tracer,
    /// Receives every tick's spans.
    pub tick: &'a mut Tracer,
    /// Broadcast sampling period.
    pub sample_every: u64,
    /// Also keep every wire frame (mini runs feeding the codec loops).
    pub keep_frames: bool,
    /// Also shadow node 0's protocol work outside its engine (see
    /// [`Replay`]). The shadow competes with the engines for cache, so
    /// workload budgets take spans and shadow from separate repetitions.
    pub shadow: bool,
}

/// Runs one repetition, recording whatever `trace` asks for.
pub fn run_rep(spec: MeshSpec, seed: u64, trace: Option<Trace<'_>>, sabotage: bool) -> MeshRep {
    let mut off = (Tracer::new(false), Tracer::new(false));
    let (bt, tt, sample_every, keep_frames, shadow) = match trace {
        Some(t) => (t.bcast, t.tick, t.sample_every, t.keep_frames, t.shadow),
        None => (&mut off.0, &mut off.1, 1, false, false),
    };

    let setup_start = Instant::now();
    let mut mesh = Mesh::build(spec, seed, shadow, keep_frames);
    let mut quiet = Tracer::new(false);
    for i in 0..spec.warmup {
        mesh.broadcast(&mut quiet, false);
        if (i + 1) % spec.tick_every == 0 {
            mesh.tick(&mut quiet, i);
        }
    }
    let setup_s = setup_start.elapsed().as_secs_f64();

    let wire0 = mesh.wire;
    let steps0: u64 = mesh.nodes.iter().map(|n| n.engine.counters().steps).sum();
    let mut timeline = Timeline::default();
    let t0 = Instant::now();
    for i in 0..spec.count {
        let sent = t0.elapsed().as_nanos() as u64;
        let took = mesh.broadcast(bt, i % sample_every == 0);
        timeline.issue(sent, sent);
        if let Some(took) = took {
            timeline.complete(i as usize, sent + took.as_nanos() as u64);
        }
        if (i + 1) % spec.tick_every == 0 {
            mesh.tick(tt, i);
        }
    }
    let window_s = t0.elapsed().as_secs_f64();

    let steps1: u64 = mesh.nodes.iter().map(|n| n.engine.counters().steps).sum();
    let resident_entries = mesh
        .nodes
        .iter()
        .map(|n| n.engine.stats().total() as u64)
        .sum();
    let mut observed = std::mem::take(&mut mesh.observed);
    observed.attempted = mesh.sent.len();
    let replay = mesh
        .shadow
        .take()
        .map(|shadow| shadow.finish(observed.delivered[0].len() as u64));
    observed.timed_out = (0..timeline.len())
        .filter(|&i| timeline.done[i] == gen::PENDING)
        .map(|i| (i as u64 + spec.warmup) as u32)
        .collect();
    if sabotage {
        observed.drop_one_delivery();
    }
    let verdict = gate::judge(&observed, &[0, 1, 2]);
    MeshRep {
        setup_s,
        window_s,
        timeline,
        verdict,
        attempted: spec.warmup + spec.count,
        timed: spec.count,
        wire: Wire {
            frames: mesh.wire.frames - wire0.frames,
            bytes: mesh.wire.bytes - wire0.bytes,
            msgs: mesh.wire.msgs - wire0.msgs,
        },
        steps: steps1 - steps0,
        resident_entries,
        pool_hit_rate: mesh.pool.stats().hit_rate(),
        traced_msgs: mesh.traced_msgs,
        replay,
        frames: mesh.frames.take().unwrap_or_default(),
    }
}

/// Node 0's protocol work repeated outside the engine, so the time the
/// engine spends inside `receive_mux_frame` — which cannot be split from
/// outside — can be divided into codec, protocol and dispatch.
///
/// Every input node 0's engine gets (its own broadcasts, every frame,
/// every tick) is also given, in the same order and with the same seed
/// and detector view, to a bare [`AnonProcess`] per topic through
/// [`Context::new`] — exactly the call `urb_engine::drive_step` makes —
/// and to a bare `MuxBatch::decode_shared_into`. The shadow therefore does
/// the same protocol work (its delivery count is checked against the
/// engine's) with nothing of the engine around it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    /// Messages node 0 received.
    pub msgs: u64,
    /// Frames node 0 received.
    pub frames: u64,
    /// `MuxBatch::decode_shared_into` over those frames, ns.
    pub decode_ns: u64,
    /// `on_receive` over those messages, ns.
    pub core_receive_ns: u64,
    /// `on_tick` over every instance at every tick, ns.
    pub core_tick_ns: u64,
    /// Ticks shadowed.
    pub ticks: u64,
    /// `urb_broadcast` calls, ns.
    pub core_broadcast_ns: u64,
    /// Node 0's own broadcasts.
    pub broadcasts: u64,
    /// Whether the bare protocol delivered exactly what the engine did.
    pub faithful: bool,
}

struct Shadow {
    procs: Vec<Box<dyn AnonProcess + Send>>,
    rng: SplitMix64,
    fd: FdSnapshot,
    decoded: Vec<(TopicId, urb_types::WireMessage)>,
    outbox: Vec<urb_types::WireMessage>,
    deliveries: Vec<urb_types::Delivery>,
    delivered: u64,
    /// Timed sections so far; each one's clock reads are subtracted.
    sections: [u64; 4],
    r: Replay,
}

/// Cost of one timed section's two clock reads, ns.
fn clock_pair_ns() -> u64 {
    let rounds = 20_000u32;
    let mut acc = Duration::ZERO;
    let t = Instant::now();
    for _ in 0..rounds {
        let s = Instant::now();
        acc += s.elapsed();
    }
    std::hint::black_box(acc);
    (t.elapsed() / rounds).as_nanos() as u64
}

impl Shadow {
    fn new(spec: &MeshSpec, seed: u64) -> Shadow {
        Shadow {
            procs: (0..spec.topics)
                .map(|_| spec.algorithm.instantiate(N))
                .collect(),
            rng: SplitMix64::new(engine_seed(seed, 0)),
            fd: static_fd(seed, 0),
            decoded: Vec::new(),
            outbox: Vec::new(),
            deliveries: Vec::new(),
            delivered: 0,
            sections: [0; 4],
            r: Replay::default(),
        }
    }

    fn on_broadcast(&mut self, topic: TopicId, payload: Payload) {
        self.outbox.clear();
        self.deliveries.clear();
        let t = Instant::now();
        let mut ctx = Context::new(
            &mut self.rng,
            &self.fd,
            &mut self.outbox,
            &mut self.deliveries,
        );
        self.procs[topic.0 as usize].urb_broadcast(payload, &mut ctx);
        self.r.core_broadcast_ns += t.elapsed().as_nanos() as u64;
        self.sections[0] += 1;
        self.r.broadcasts += 1;
        self.delivered += self.deliveries.len() as u64;
    }

    fn on_frame(&mut self, frame: &Bytes) {
        let t = Instant::now();
        MuxBatch::decode_shared_into(frame, &mut self.decoded)
            .expect("the engine decoded this frame already");
        self.r.decode_ns += t.elapsed().as_nanos() as u64;
        self.sections[1] += 1;
        self.r.frames += 1;
        self.r.msgs += self.decoded.len() as u64;
        let t = Instant::now();
        for (topic, msg) in self.decoded.drain(..) {
            self.outbox.clear();
            self.deliveries.clear();
            let mut ctx = Context::new(
                &mut self.rng,
                &self.fd,
                &mut self.outbox,
                &mut self.deliveries,
            );
            self.procs[topic.0 as usize].on_receive(msg, &mut ctx);
            self.delivered += self.deliveries.len() as u64;
        }
        self.r.core_receive_ns += t.elapsed().as_nanos() as u64;
        self.sections[2] += 1;
    }

    fn on_tick(&mut self) {
        let t = Instant::now();
        for p in self.procs.iter_mut() {
            self.outbox.clear();
            self.deliveries.clear();
            let mut ctx = Context::new(
                &mut self.rng,
                &self.fd,
                &mut self.outbox,
                &mut self.deliveries,
            );
            p.on_tick(&mut ctx);
            self.delivered += self.deliveries.len() as u64;
        }
        self.r.core_tick_ns += t.elapsed().as_nanos() as u64;
        self.sections[3] += 1;
        self.r.ticks += 1;
    }

    fn finish(mut self, engine_deliveries: u64) -> Replay {
        let pair = clock_pair_ns();
        let net = |ns: u64, sections: u64| ns.saturating_sub(sections * pair);
        self.r.core_broadcast_ns = net(self.r.core_broadcast_ns, self.sections[0]);
        self.r.decode_ns = net(self.r.decode_ns, self.sections[1]);
        self.r.core_receive_ns = net(self.r.core_receive_ns, self.sections[2]);
        self.r.core_tick_ns = net(self.r.core_tick_ns, self.sections[3]);
        self.r.faithful = self.delivered == engine_deliveries;
        self.r
    }
}

/// The stacked per-layer budget of one traced repetition, µs per
/// broadcast. The parts add up to `total_us`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Budget {
    /// `TopicEngine::step_mux(Broadcast)`.
    pub engine_broadcast_us: f64,
    /// `MuxBuffers::take_mux_frame` (encode + pool).
    pub types_encode_us: f64,
    /// Frame decode inside `receive_mux_frame` (from the replay).
    pub types_decode_us: f64,
    /// `receive_mux_frame` minus decode and protocol time. Negative when
    /// the shadow's codec and protocol work cost more than the engine's
    /// whole receive path — a measurement disagreement, shown as such.
    pub engine_dispatch_us: f64,
    /// `on_receive` inside `receive_mux_frame` (from the replay).
    pub core_receive_us: f64,
    /// `tick_all` + `reap_drained`.
    pub engine_tick_all_us: f64,
    /// The ledger's own work inside the traced intervals (payloads, frame
    /// copies, queueing, the gate's bookkeeping), net of the calibrated
    /// cost of recording the spans.
    pub driver_us: f64,
    /// Sum of the parts.
    pub total_us: f64,
    /// Share of the traced window the parts do not cover.
    pub unattributed_share: f64,
}

impl Budget {
    /// The stacked parts, in print order, as `(layer.part, µs)`.
    pub fn parts(&self) -> [(&'static str, f64); 7] {
        [
            ("engine.broadcast", self.engine_broadcast_us),
            ("types.encode", self.types_encode_us),
            ("types.decode", self.types_decode_us),
            ("engine.dispatch", self.engine_dispatch_us),
            ("core.receive", self.core_receive_us),
            ("engine.tick_all", self.engine_tick_all_us),
            ("driver", self.driver_us),
        ]
    }

    /// Builds the budget from the two tracers of a traced repetition and
    /// the shadow [`Replay`] (of that or a sibling repetition of the same
    /// seed). Broadcast spans are a sample and are scaled up; tick spans
    /// are complete.
    pub fn from_trace(
        rep: &MeshRep,
        replay: Option<Replay>,
        bcast: &Tracer,
        tick: &Tracer,
    ) -> Budget {
        let n = rep.timed as f64;
        let sampled = spans::counts(bcast.spans())
            .get("bench.broadcast")
            .copied()
            .unwrap_or(0) as f64;
        let scale = if sampled > 0.0 { n / sampled } else { 0.0 };
        // Recording a span costs two clock reads and a push: about one
        // read falls inside the span's own interval, the rest in its
        // parent's self time — in the end the roots'. Both are taken off
        // (calibrated), so the spans do not pass for anybody's work.
        let pair_ns = clock_pair_ns() as f64;
        let (sb, cb) = (
            spans::self_times(bcast.spans()),
            spans::counts(bcast.spans()),
        );
        let (st, ct) = (spans::self_times(tick.spans()), spans::counts(tick.spans()));
        let get = |m: &std::collections::BTreeMap<&'static str, u64>, name: &str| {
            m.get(name).copied().unwrap_or(0) as f64
        };
        let us = |name: &str| {
            let ns = get(&sb, name) * scale + get(&st, name);
            let spans = get(&cb, name) * scale + get(&ct, name);
            (ns - spans * pair_ns / 2.0).max(0.0) / n / 1e3
        };
        let receive_us = us("engine.receive_mux_frame");
        let child_spans = |t: &Tracer| {
            t.spans()
                .iter()
                .filter(|s| s.parent != spans::NO_PARENT)
                .count() as f64
        };
        let span_cost_us = (child_spans(bcast) * scale + child_spans(tick)) * pair_ns / n / 1e3;
        // Split receive by the replay's per-message costs: every message
        // on the wire is received by all three nodes, and node 0's replay
        // stands for each of them.
        let (decode_us, core_us) = match replay {
            Some(r) if r.msgs > 0 => {
                let received_per_bcast = (N as u64 * rep.wire.msgs) as f64 / n;
                let per_msg = |ns: u64| ns as f64 / r.msgs as f64 / 1e3;
                (
                    per_msg(r.decode_ns) * received_per_bcast,
                    per_msg(r.core_receive_ns) * received_per_bcast,
                )
            }
            _ => (0.0, 0.0),
        };
        let mut b = Budget {
            engine_broadcast_us: us("engine.step_mux"),
            types_encode_us: us("types.take_mux_frame"),
            types_decode_us: decode_us,
            engine_dispatch_us: receive_us - decode_us - core_us,
            core_receive_us: core_us,
            engine_tick_all_us: us("engine.tick_all") + us("engine.reap_drained"),
            driver_us: (us("bench.broadcast") + us("bench.tick") - span_cost_us).max(0.0),
            ..Budget::default()
        };
        b.total_us = b.parts().iter().map(|&(_, us)| us).sum();
        let window_us = rep.window_s * 1e6 / n;
        b.unattributed_share = if window_us > 0.0 {
            1.0 - b.total_us / window_us
        } else {
            0.0
        };
        b
    }
}
