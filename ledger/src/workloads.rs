//! The seven workloads, why each exists, and how each turns repetitions
//! into the named metrics.
//!
//! One run of a workload is several back-to-back repetitions (fresh
//! cluster or engines each time, same seed) that share `--seconds`, and
//! every reported value is the **median repetition**. Many short
//! repetitions beat few long ones on a shared 2-core box: the median
//! shrugs off a disturbed repetition, and the product's state (which only
//! grows) stays small enough that a noisy neighbour's cache and memory
//! traffic moves the result less. Counts are sized for the reference box
//! and depend only on `--seconds`, never on how fast the product ran, so
//! the work — and every exact count — is the same on both sides of a
//! comparison.

use crate::gate::{self, Verdict};
use crate::gen::Timeline;
use crate::inproc::{self, InprocRep, InprocSpec, Pace};
use crate::mesh::{self, Budget, MeshRep, MeshSpec, Trace};
use crate::report::Metrics;
use crate::spans::{self, Tracer, SAMPLE_EVERY};
use crate::stats;
use crate::tcp::{self, TcpRep};
use crate::N;
use std::path::Path;
use urb_core::Algorithm;

/// What a workload runs on.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// A threaded `UrbCluster`.
    Inproc(InprocSpec),
    /// Three `run_node` daemons; `msgs` broadcasts per node.
    Tcp {
        /// Broadcasts per node.
        msgs: usize,
    },
    /// The single-threaded engine mesh.
    Mesh(MeshSpec),
}

/// A named workload.
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why it exists: which layers it stresses, which it bypasses.
    pub why: &'static str,
    /// Repetitions per untraced run; each gets `--seconds / reps`.
    pub reps: usize,
    /// Idle seconds before the first repetition. The host of the reference
    /// box penalises a guest that has just burnt CPU (a build, a CPU-bound
    /// workload): for about a third of the burn's length every thread
    /// wake-up is slower, and `deliver_p50_us` of an open-loop workload
    /// reads 240 µs instead of 172. Idling lets the penalty decay before a
    /// latency measurement; the median repetition absorbs what is left.
    pub settle_s: u64,
    /// End-to-end metrics that carry no signal of their own on this
    /// workload, each with what its value is instead. The benchmark
    /// contract has one metric list for every workload and wants a value for
    /// each pair, so these are printed all the same — marked, and left out
    /// of the ledger's own agreement check (`--summarize`). Named in `why`
    /// too, which is all of this that `BENCHMARK.json` can carry.
    pub not_applicable: &'static [(&'static str, &'static str)],
    /// Its shape for a repetition of `rep_s` seconds.
    pub shape: fn(rep_s: f64) -> Kind,
}

const OFFERED_RATE: (&str, &str) = (
    "throughput_bcast_s",
    "the delivered rate, which is the offered rate unless the cluster falls behind: it can drop, never rise",
);

fn scaled(per_second: f64, rep_s: f64) -> u64 {
    ((per_second * rep_s) as u64).max(8)
}

/// Every workload, in the order `BENCHMARK.json` lists them: CPU-bound
/// ones first, the wake-up-latency-bound open-loop ones last, each after
/// a lighter predecessor (see [`Workload::settle_s`]).
pub const ALL: &[Workload] = &[
    Workload {
        name: "mesh_small",
        why: "single-threaded 3-engine mesh, Alg 2, 1 topic, 64 B: CPU cost of the sans-io stack with no scheduler; the receive path (decode, directory, on_receive) dominates; baseline for the next two",
        reps: 9,
        settle_s: 0,
        not_applicable: &[],
        shape: |rep_s| {
            Kind::Mesh(MeshSpec {
                algorithm: Algorithm::Quiescent,
                topics: 1,
                payload_len: 64,
                tick_every: 64,
                warmup: 2_000,
                count: scaled(30_000.0, rep_s),
            })
        },
    },
    Workload {
        name: "mesh_alg1_storm",
        why: "same mesh, Alg 1, tick every 16 broadcasts: Alg 1 never prunes, so on_tick re-emits the whole MSG set in ~1000-entry frames; tick, bulk codec and the per-tag maps dominate (mesh_small inverted)",
        reps: 9,
        settle_s: 0,
        not_applicable: &[],
        shape: |rep_s| {
            Kind::Mesh(MeshSpec {
                algorithm: Algorithm::Majority,
                topics: 1,
                payload_len: 64,
                tick_every: 16,
                warmup: 512,
                // Cost per broadcast grows with the resident set, so run
                // time is quadratic in warm-up + count (~0.3 us per unit).
                count: (((rep_s * 3.3e6 + 512.0 * 512.0).sqrt() - 512.0) as u64).max(32),
            })
        },
    },
    Workload {
        name: "mesh_topics_100k",
        why: "same mesh, Alg 2, 100000 topics round-robin, tick every 1000: tick_all over idle slots and TopicDirectory dispatch dominate, per-message work unchanged; engine build shows in setup_s",
        reps: 9,
        settle_s: 0,
        not_applicable: &[],
        shape: |rep_s| {
            Kind::Mesh(MeshSpec {
                algorithm: Algorithm::Quiescent,
                topics: 100_000,
                payload_len: 64,
                tick_every: 1_000,
                warmup: 1_000,
                count: scaled(24_000.0, rep_s),
            })
        },
    },
    Workload {
        name: "inproc_saturate",
        why: "same cluster, 1 KiB, closed loop, 64 outstanding: CPU- and copy-bound (synchronous broadcast_on, per-frame copy, router decode, protocol step); a batching win here that loses on inproc_paced shows",
        reps: 9,
        settle_s: 0,
        not_applicable: &[],
        shape: |rep_s| {
            Kind::Inproc(InprocSpec {
                loss: 0.0,
                payload_len: 1024,
                pace: Pace::Closed { window: 64 },
                warmup: 200,
                count: scaled(12_000.0, rep_s),
                crash_at: None,
            })
        },
    },
    Workload {
        name: "tcp_burst",
        why: "three run_node daemons on 127.0.0.1, Alg 2, each bursts at start: the socket backend's only end-to-end surface; TcpMesh, FrameReassembler, queue drops, big frames. n/a: deliver_p50_us, deliver_p90_us",
        reps: 15,
        settle_s: 0,
        not_applicable: &[
            (
                "deliver_p50_us",
                "the median node's burst completion time (run_node shows no per-message clock): msgs / throughput, not a latency",
            ),
            (
                "deliver_p90_us",
                "the last node's burst completion time: exactly attempted / throughput_bcast_s",
            ),
        ],
        shape: |rep_s| {
            Kind::Tcp {
                msgs: scaled(5000.0, rep_s) as usize,
            }
        },
    },
    Workload {
        name: "inproc_faulty",
        why: "UrbCluster, Alg 2, loss 0.1, open loop 1000 bcast/s, node 2 crashed halfway: the paper's setting; tick-quantised retransmission, router re-encode, detection delay. n/a: throughput_bcast_s",
        reps: 3,
        settle_s: 2,
        not_applicable: &[OFFERED_RATE],
        shape: |rep_s| {
            let count = scaled(1000.0, rep_s);
            Kind::Inproc(InprocSpec {
                loss: 0.1,
                payload_len: 64,
                pace: Pace::Open { rate: 1000.0 },
                warmup: 400,
                count,
                crash_at: Some(count / 2),
            })
        },
    },
    Workload {
        name: "inproc_paced",
        why: "UrbCluster, Alg 2, 64 B, open loop at 2000 bcast/s (a sixth of capacity): latency; router hops, channel wake-ups and the 20 ms tick dominate, CPU is a small share. n/a: throughput_bcast_s",
        reps: 9,
        settle_s: 2,
        not_applicable: &[OFFERED_RATE],
        shape: |rep_s| {
            Kind::Inproc(InprocSpec {
                loss: 0.0,
                payload_len: 64,
                pace: Pace::Open { rate: 2000.0 },
                warmup: 200,
                count: scaled(2000.0, rep_s),
                crash_at: None,
            })
        },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// How one invocation was asked to run (everything but the workload).
#[derive(Clone, Copy)]
pub struct Invocation<'a> {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`, shared by the run's repetitions.
    pub seconds: f64,
    /// `--trace`: per-layer run instead of end-to-end run.
    pub trace: bool,
    /// `--self-test`: drop one observed delivery before judging.
    pub sabotage: bool,
    /// Where trace files go (the cargo target directory).
    pub target_dir: &'a Path,
}

/// The outcome of one invocation on one workload.
#[derive(Default)]
pub struct Outcome {
    /// Broadcasts attempted, all repetitions.
    pub attempted: u64,
    /// Broadcasts the gate failed, all repetitions.
    pub failed: u64,
    /// What the gate found (empty when correct).
    pub violations: Vec<String>,
    /// Everything measured, by name.
    pub metrics: Metrics,
    /// Free-form lines for the human reader (budget table, sample counts).
    pub notes: Vec<String>,
    /// Peak resident set reached during each untraced repetition, MB
    /// (empty where the kernel does not let the peak be reset).
    rep_peak_rss_mb: Vec<f64>,
}

impl Outcome {
    fn absorb(&mut self, rep: usize, attempted: u64, verdict: &Verdict) {
        self.attempted += attempted;
        self.failed += verdict.failed;
        for v in &verdict.violations {
            self.violations.push(format!("repetition {rep}: {v}"));
        }
    }
}

/// Median over repetitions of `f(rep)`.
fn med<T>(reps: &[T], f: impl Fn(&T) -> f64) -> f64 {
    stats::median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Shows the repetitions behind a median, so a disturbed run is visible.
fn note_reps<T>(out: &mut Outcome, what: &str, reps: &[T], f: impl Fn(&T) -> f64) {
    let each: Vec<String> = reps.iter().map(|r| format!("{:.1}", f(r))).collect();
    out.notes
        .push(format!("{what} per repetition: {}", each.join(" ")));
}

/// Latency and lateness figures of one repetition's timeline.
struct Lat {
    p50: f64,
    p90: f64,
    p99: f64,
    p999: f64,
    samples: f64,
    late_p99: f64,
}

fn lat(t: &Timeline) -> Lat {
    let l = t.latencies_us();
    Lat {
        p50: stats::percentile(&l, 0.5),
        p90: stats::percentile(&l, 0.9),
        p99: stats::percentile(&l, 0.99),
        p999: stats::percentile(&l, 0.999),
        samples: l.len() as f64,
        late_p99: stats::percentile(&t.lateness_us(), 0.99),
    }
}

fn push_latency(out: &mut Outcome, lats: &[Lat], open_loop: bool) {
    let samples = med(lats, |l| l.samples) as usize;
    out.notes.push(format!(
        "latency: {samples} samples per repetition; the highest percentile with ten samples beyond it is {}",
        stats::highest_supported_percentile(samples).0
    ));
    let m = &mut out.metrics;
    m.push("deliver_p50_us", med(lats, |l| l.p50), "us");
    m.push("deliver_p90_us", med(lats, |l| l.p90), "us");
    m.push("e2e.deliver_p99_us", med(lats, |l| l.p99), "us");
    m.push("e2e.deliver_p999_us", med(lats, |l| l.p999), "us");
    m.push("e2e.latency_samples", med(lats, |l| l.samples), "count");
    if open_loop {
        m.push("bench.gen_late_p99_us", med(lats, |l| l.late_p99), "us");
    }
}

/// Forgets the peak resident set reached so far (`echo 5 >
/// /proc/self/clear_refs`), so the next [`peak_rss_mb`] is the peak since.
/// Returns whether the kernel took it.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Runs `reps` repetitions and notes the peak resident set each reached.
fn measured_reps<T>(out: &mut Outcome, reps: usize, mut rep: impl FnMut() -> T) -> Vec<T> {
    (0..reps)
        .map(|_| {
            let reset = reset_peak_rss();
            let r = rep();
            if reset {
                out.rep_peak_rss_mb.push(peak_rss_mb());
            }
            r
        })
        .collect()
}

/// Peak resident set of this process (`VmHWM`) since the last reset, MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn overhead_pct(untraced: f64, traced: f64) -> f64 {
    if untraced > 0.0 {
        (traced / untraced - 1.0) * 100.0
    } else {
        0.0
    }
}

fn write_trace(target_dir: &Path, workload: &str, tracers: &[&Tracer], notes: &mut Vec<String>) {
    let all: Vec<spans::Span> = tracers.iter().flat_map(|t| t.spans().to_vec()).collect();
    let path = target_dir.join(format!("trace-{workload}.json"));
    match std::fs::write(&path, spans::to_json(&all)) {
        Ok(()) => notes.push(format!("{} spans written to {}", all.len(), path.display())),
        Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
    }
}

// ---- in-process cluster ------------------------------------------------

fn inproc_metrics(out: &mut Outcome, spec: &InprocSpec, reps: &[InprocRep]) {
    let per_bcast = |r: &InprocRep, v: u64| v as f64 / r.timeline.len().max(1) as f64;
    let completed = |r: &InprocRep| (r.timeline.len() - r.timeline.pending()) as f64;
    let lats: Vec<Lat> = reps.iter().map(|r| lat(&r.timeline)).collect();
    push_latency(out, &lats, matches!(spec.pace, Pace::Open { .. }));
    note_reps(out, "throughput_bcast_s", reps, |r| {
        completed(r) / r.window_s.max(1e-9)
    });
    note_reps(out, "deliver_p50_us", &lats, |l| l.p50);
    let m = &mut out.metrics;
    m.push("setup_s", med(reps, |r| r.setup_s), "s");
    m.push(
        "throughput_bcast_s",
        med(reps, |r| completed(r) / r.window_s.max(1e-9)),
        "1/s",
    );
    m.push(
        "e2e.wire_msgs_per_bcast",
        med(reps, |r| per_bcast(r, r.traffic.protocol_messages)),
        "count",
    );
    m.push(
        "e2e.crash_stall_ms",
        med(reps, |r| r.crash_stall_ns as f64 / 1e6),
        "ms",
    );
    m.push(
        "runtime.broadcast_on_rtt_us",
        med(reps, |r| stats::percentile(&r.rtt_ns, 0.5) / 1e3),
        "us",
    );
    m.push(
        "runtime.router.frames_per_bcast",
        med(reps, |r| per_bcast(r, r.traffic.batches)),
        "count",
    );
    m.push(
        "runtime.router.forwarded_per_bcast",
        med(reps, |r| per_bcast(r, r.traffic.forwarded_frames)),
        "count",
    );
    m.push(
        "runtime.router.reencoded_per_bcast",
        med(reps, |r| per_bcast(r, r.traffic.reencoded_frames)),
        "count",
    );
    m.push(
        "runtime.router.dropped_share",
        med(reps, |r| {
            let copies = r.traffic.dropped_copies + r.traffic.delivered_copies;
            r.traffic.dropped_copies as f64 / copies.max(1) as f64
        }),
        "ratio",
    );
    m.push("bench.pump_ns", med(reps, |r| r.pump_ns), "ns");
}

fn run_inproc(name: &str, reps: usize, spec: InprocSpec, inv: Invocation<'_>) -> Outcome {
    let Invocation {
        seed,
        trace,
        sabotage,
        target_dir,
        ..
    } = inv;
    let mut out = Outcome::default();
    let mut off = Tracer::new(false);
    let reps: Vec<InprocRep> = measured_reps(&mut out, if trace { 1 } else { reps }, || {
        inproc::run_rep(spec, seed, &mut off, sabotage)
    });
    for (i, r) in reps.iter().enumerate() {
        out.absorb(i, r.attempted, &r.verdict);
    }
    inproc_metrics(&mut out, &spec, &reps);
    if trace {
        let mut tracer = Tracer::new(true);
        let rep = inproc::run_rep(spec, seed, &mut tracer, sabotage);
        out.absorb(1, rep.attempted, &rep.verdict);
        // The wait from issue to delivered-everywhere, for the sampled
        // broadcasts; waits overlap, so they are recorded after the fact.
        let origin = tracer.offset_of(rep.t0);
        for i in (0..rep.timeline.len()).step_by(SAMPLE_EVERY as usize) {
            if rep.timeline.done[i] != crate::gen::PENDING {
                tracer.record(
                    "bench.wait_delivery",
                    origin + rep.timeline.sent[i],
                    origin + rep.timeline.done[i],
                    i as u64,
                );
            }
        }
        let cost = |r: &InprocRep| match spec.pace {
            Pace::Open { .. } => lat(&r.timeline).p50,
            Pace::Closed { .. } => r.window_s / r.timeline.len().max(1) as f64,
        };
        out.metrics.push(
            "bench.trace_overhead_pct",
            overhead_pct(cost(&reps[0]), cost(&rep)),
            "%",
        );
        write_trace(target_dir, name, &[&tracer], &mut out.notes);
    }
    out
}

// ---- socket daemons ----------------------------------------------------

fn run_tcp(name: &str, reps: usize, msgs: usize, inv: Invocation<'_>) -> Outcome {
    let Invocation {
        seed,
        trace,
        sabotage,
        target_dir,
        ..
    } = inv;
    let mut out = Outcome::default();
    let reps: Vec<TcpRep> = measured_reps(&mut out, if trace { 1 } else { reps }, || {
        tcp::run_rep(msgs, seed, sabotage)
    });
    for (i, r) in reps.iter().enumerate() {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.violations
            .extend(r.violations.iter().map(|v| format!("repetition {i}: {v}")));
    }
    note_reps(&mut out, "throughput_bcast_s", &reps, |r| {
        r.attempted as f64 / r.window_s.max(1e-9)
    });
    let m = &mut out.metrics;
    let per_bcast = |r: &TcpRep, v: u64| v as f64 / r.attempted.max(1) as f64;
    m.push("setup_s", med(&reps, |r| r.setup_s), "s");
    m.push(
        "throughput_bcast_s",
        med(&reps, |r| r.attempted as f64 / r.window_s.max(1e-9)),
        "1/s",
    );
    // Not applicable here (see `Workload::not_applicable`): run_node shows
    // no per-message clock, and the contract wants a value all the same.
    // These are burst completion times — the median node's and the last
    // one's — which say what `throughput_bcast_s` says.
    m.push(
        "deliver_p50_us",
        med(&reps, |r| stats::percentile(&r.node_complete_us, 0.5)),
        "us",
    );
    let last_node = med(&reps, |r| stats::percentile(&r.node_complete_us, 1.0));
    m.push("deliver_p90_us", last_node, "us");
    m.push("e2e.deliver_p99_us", last_node, "us");
    m.push("e2e.deliver_p999_us", last_node, "us");
    m.push("e2e.latency_samples", N as f64, "count");
    m.push(
        "e2e.wire_bytes_per_bcast",
        med(&reps, |r| per_bcast(r, r.net(|n| n.bytes_sent))),
        "B",
    );
    m.push(
        "runtime.net.frames_sent_per_bcast",
        med(&reps, |r| per_bcast(r, r.net(|n| n.frames_sent))),
        "count",
    );
    m.push(
        "runtime.net.bytes_sent_per_bcast",
        med(&reps, |r| per_bcast(r, r.net(|n| n.bytes_sent))),
        "B",
    );
    m.push(
        "runtime.net.backpressure_drop_share",
        med(&reps, |r| {
            let dropped = r.net(|n| n.dropped_backpressure);
            dropped as f64 / (r.net(|n| n.frames_sent) + dropped).max(1) as f64
        }),
        "ratio",
    );
    m.push(
        "runtime.net.dials_failed",
        med(&reps, |r| r.net(|n| n.dials_failed) as f64),
        "count",
    );
    let retries: u32 = reps.iter().map(|r| r.port_retries).sum();
    if retries > 0 {
        out.notes.push(format!(
            "{retries} repetition(s) run again: a daemon found its reserved loopback port taken"
        ));
    }
    if trace {
        // All that shows from outside: each daemon's spawn → report.
        let mut tracer = Tracer::new(true);
        for (node, us) in reps[0].node_complete_us.iter().enumerate() {
            tracer.record("runtime.run_node", 0, (us * 1e3) as u64, node as u64);
        }
        m.push("bench.trace_overhead_pct", 0.0, "%");
        write_trace(target_dir, name, &[&tracer], &mut out.notes);
    }
    out
}

// ---- engine mesh -------------------------------------------------------

/// What one repetition of a `mesh_*` workload puts on the wire at the
/// reference run length (`run_seconds` of `BENCHMARK.json`), as
/// `(workload, timed broadcasts, protocol messages, frame bytes)`. The
/// mesh is deterministic and these totals are the same for every seed, so
/// they are held exactly — the issue's "bound 0", which the benchmark
/// contract's per-metric bounds cannot express: a run that puts *more* on
/// the wire fails the gate. A change that puts less on it updates this
/// table (the run says so).
const MESH_WIRE: &[(&str, u64, u64, u64)] = &[
    ("mesh_small", 30_000, 479_616, 60_505_872),
    ("mesh_alg1_storm", 1_375, 1_229_500, 125_186_385),
    ("mesh_topics_100k", 24_000, 384_000, 50_689_440),
];

/// Holds a repetition's wire totals against [`MESH_WIRE`]: a violation
/// when traffic rose, a note when it fell or cannot be compared.
fn check_mesh_wire(out: &mut Outcome, name: &str, rep: &MeshRep) {
    let Some(&(_, count, msgs, bytes)) = MESH_WIRE.iter().find(|w| w.0 == name) else {
        return;
    };
    let got = (rep.wire.msgs, rep.wire.bytes);
    if rep.timed != count {
        out.notes.push(format!(
            "wire counts are recorded for {count} broadcasts per repetition; this run has {} and is not held against them",
            rep.timed
        ));
    } else if got.0 > msgs || got.1 > bytes {
        out.failed = out.failed.max(1);
        out.violations.push(format!(
            "wire traffic rose: {} messages and {} bytes per repetition, recorded {msgs} and {bytes}",
            got.0, got.1
        ));
    } else if got != (msgs, bytes) {
        out.notes.push(format!(
            "wire traffic fell: {} messages and {} bytes per repetition, recorded {msgs} and {bytes} — update MESH_WIRE",
            got.0, got.1
        ));
    }
}

fn mesh_metrics(out: &mut Outcome, reps: &[MeshRep]) {
    let per_bcast = |r: &MeshRep, v: u64| v as f64 / r.timed.max(1) as f64;
    let lats: Vec<Lat> = reps.iter().map(|r| lat(&r.timeline)).collect();
    push_latency(out, &lats, false);
    note_reps(out, "throughput_bcast_s", reps, |r| {
        r.timed as f64 / r.window_s.max(1e-9)
    });
    let m = &mut out.metrics;
    m.push("setup_s", med(reps, |r| r.setup_s), "s");
    m.push(
        "throughput_bcast_s",
        med(reps, |r| r.timed as f64 / r.window_s.max(1e-9)),
        "1/s",
    );
    m.push(
        "e2e.wire_msgs_per_bcast",
        med(reps, |r| per_bcast(r, r.wire.msgs)),
        "count",
    );
    m.push(
        "e2e.wire_bytes_per_bcast",
        med(reps, |r| per_bcast(r, r.wire.bytes)),
        "B",
    );
}

fn run_mesh(name: &str, reps: usize, spec: MeshSpec, inv: Invocation<'_>) -> Outcome {
    let Invocation {
        seed,
        trace,
        sabotage,
        target_dir,
        ..
    } = inv;
    let mut out = Outcome::default();
    // A traced run compares against its second untraced repetition: the
    // first one of a process pays for growing the heap (page faults, a
    // quarter of the run at 100 000 topics), the traced one would not.
    let reps: Vec<MeshRep> = measured_reps(&mut out, if trace { 2 } else { reps }, || {
        mesh::run_rep(spec, seed, None, sabotage)
    });
    for (i, r) in reps.iter().enumerate() {
        out.absorb(i, r.attempted, &r.verdict);
    }
    let mut verdicts: Vec<Verdict> = reps.iter().map(|r| r.verdict.clone()).collect();
    mesh_metrics(&mut out, &reps);
    check_mesh_wire(&mut out, name, &reps[0]);
    if trace {
        let mut bt = Tracer::new(true);
        let mut tt = Tracer::new(true);
        let spans = Trace {
            bcast: &mut bt,
            tick: &mut tt,
            sample_every: SAMPLE_EVERY,
            keep_frames: false,
            shadow: false,
        };
        let rep = mesh::run_rep(spec, seed, Some(spans), sabotage);
        // The shadow protocol runs in a repetition of its own: inline it
        // would evict the engines' state from cache and slow the very
        // spans it is meant to split (by 40 % at 100 000 topics).
        let mut off = (Tracer::new(false), Tracer::new(false));
        let shadow = Trace {
            bcast: &mut off.0,
            tick: &mut off.1,
            sample_every: 1,
            keep_frames: false,
            shadow: true,
        };
        let shadowed = mesh::run_rep(spec, seed, Some(shadow), sabotage);
        for r in [&rep, &shadowed] {
            out.absorb(verdicts.len(), r.attempted, &r.verdict);
            verdicts.push(r.verdict.clone());
        }
        if shadowed.replay.is_some_and(|r| !r.faithful) {
            out.notes.push(
                "the shadow of node 0 delivered a different count than its engine: the decode/core split below is unreliable".into(),
            );
        }
        let b = Budget::from_trace(&rep, shadowed.replay, &bt, &tt);
        let base = reps.last().expect("two untraced repetitions");
        let untraced_us = base.window_s * 1e6 / base.timed as f64;
        let traced_us = rep.window_s * 1e6 / rep.timed as f64;
        let parts = b.parts();
        let m = &mut out.metrics;
        for (part, us) in parts {
            m.push(&format!("budget.{}_us", part.replace('.', "_")), us, "us");
        }
        m.push("budget.total_us", b.total_us, "us");
        m.push("budget.untraced_us", untraced_us, "us");
        m.push("bench.unattributed_share", b.unattributed_share, "ratio");
        m.push(
            "bench.trace_overhead_pct",
            overhead_pct(base.window_s, rep.window_s),
            "%",
        );
        let sum: Vec<String> = parts.iter().map(|(p, us)| format!("{p} {us:.3}")).collect();
        out.notes.push(format!(
            "stacked budget, us per broadcast: {} = {:.3}  (untraced end to end: {untraced_us:.3}; traced: {traced_us:.3})",
            sum.join(" + "),
            b.total_us,
        ));
        write_trace(target_dir, name, &[&bt, &tt], &mut out.notes);
    }
    if let Some(v) = gate::same_across_repetitions(&verdicts) {
        out.failed = out.failed.max(1);
        out.violations.push(v);
    }
    out
}

/// Runs `workload` once: its untraced repetitions, or (traced) a short
/// untraced baseline and the traced repetitions.
pub fn run(workload: &Workload, inv: Invocation<'_>) -> Outcome {
    let (name, reps) = (workload.name, workload.reps);
    std::thread::sleep(std::time::Duration::from_secs(workload.settle_s));
    let mut out = match (workload.shape)(inv.seconds / reps as f64) {
        Kind::Inproc(spec) => run_inproc(name, reps, spec, inv),
        Kind::Tcp { msgs } => run_tcp(name, reps, msgs, inv),
        Kind::Mesh(spec) => run_mesh(name, reps, spec, inv),
    };
    // The median repetition's peak, like every other figure; the whole
    // process's where the kernel does not let the peak be reset.
    let peak = if out.rep_peak_rss_mb.is_empty() {
        out.notes
            .push("peak_rss_mb is the whole run's: /proc/self/clear_refs is not writable".into());
        peak_rss_mb()
    } else {
        let each: Vec<String> = out
            .rep_peak_rss_mb
            .iter()
            .map(|p| format!("{p:.1}"))
            .collect();
        out.notes
            .push(format!("peak_rss_mb per repetition: {}", each.join(" ")));
        stats::median(&out.rep_peak_rss_mb)
    };
    out.metrics.push("peak_rss_mb", peak, "MB");
    let share = out.failed as f64 / out.attempted.max(1) as f64;
    out.metrics.push("e2e.failed_share", share, "ratio");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{END_TO_END, PER_LAYER};

    fn scratch() -> std::path::PathBuf {
        let exe = std::env::current_exe().expect("test executable path");
        exe.parent().expect("in a directory").to_path_buf()
    }

    fn smoke(dir: &Path, seed: u64, trace: bool, sabotage: bool) -> Invocation<'_> {
        Invocation {
            seed,
            seconds: 0.09,
            trace,
            sabotage,
            target_dir: dir,
        }
    }

    /// A 1/100-scale run of every workload, then a traced run on each
    /// backend: the gate passes, every end-to-end metric is measured by
    /// every workload, and every per-layer metric `BENCHMARK.json` promises
    /// is measured by some traced run (the micro suite by its host's). One
    /// test, so the socket workloads never race another test for a port.
    #[test]
    fn smoke_run_of_every_workload_at_one_hundredth_scale() {
        let dir = scratch();
        for w in ALL {
            let out = run(w, smoke(&dir, 11, false, false));
            assert_eq!(out.failed, 0, "{}: {:?}", w.name, out.violations);
            assert!(
                out.violations.is_empty(),
                "{}: {:?}",
                w.name,
                out.violations
            );
            assert!(out.attempted > 0, "{}", w.name);
            for (metric, _) in END_TO_END {
                let v = out.metrics.get(metric);
                assert!(v.is_some_and(|v| v > 0.0), "{}: {metric} = {v:?}", w.name);
            }
        }
        let mut measured = std::collections::BTreeSet::new();
        for name in [crate::micro::HOST_WORKLOAD, "inproc_faulty", "tcp_burst"] {
            let mut out = run(find(name).expect("known"), smoke(&dir, 11, true, false));
            assert_eq!(out.failed, 0, "{name}: {:?}", out.violations);
            if name == crate::micro::HOST_WORKLOAD {
                crate::micro::run_all(&mut out.metrics, 11, &dir.join("ledger-scratch"));
            }
            measured.extend(out.metrics.iter().map(|(n, _, _)| n.to_string()));
            assert!(dir.join(format!("trace-{name}.json")).exists());
        }
        let missing: Vec<&str> = PER_LAYER
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| !measured.contains(*n))
            .collect();
        assert!(missing.is_empty(), "no traced run measures {missing:?}");
    }

    #[test]
    fn recorded_wire_traffic_is_held_exactly() {
        let rep = |timed, msgs, bytes| {
            let mut r = mesh::run_rep(
                MeshSpec {
                    algorithm: Algorithm::Quiescent,
                    topics: 1,
                    payload_len: 8,
                    tick_every: 4,
                    warmup: 0,
                    count: 8,
                },
                1,
                None,
                false,
            );
            r.timed = timed;
            r.wire.msgs = msgs;
            r.wire.bytes = bytes;
            r
        };
        let (name, count, msgs, bytes) = MESH_WIRE[0];
        let mut same = Outcome::default();
        check_mesh_wire(&mut same, name, &rep(count, msgs, bytes));
        assert!(same.violations.is_empty() && same.notes.is_empty() && same.failed == 0);
        let mut rose = Outcome::default();
        check_mesh_wire(&mut rose, name, &rep(count, msgs + 1, bytes));
        assert!(rose.failed > 0 && rose.violations[0].contains("rose"));
        let mut fell = Outcome::default();
        check_mesh_wire(&mut fell, name, &rep(count, msgs, bytes - 1));
        assert!(fell.failed == 0 && fell.notes[0].contains("update MESH_WIRE"));
        let mut other_length = Outcome::default();
        check_mesh_wire(
            &mut other_length,
            name,
            &rep(count / 2, msgs * 9, bytes * 9),
        );
        assert!(other_length.failed == 0 && other_length.notes[0].contains("not held"));
        // The table is recorded at the reference repetition length (1 s).
        for &(name, count, _, _) in MESH_WIRE {
            let Kind::Mesh(spec) = (find(name).expect("a workload").shape)(1.0) else {
                panic!("{name} is a mesh workload");
            };
            assert_eq!(spec.count, count, "{name}");
        }
    }

    #[test]
    fn not_applicable_pairs_are_gated_metrics_named_in_the_why() {
        for w in ALL {
            let (_, marked) = w.why.split_once("n/a: ").unwrap_or((w.why, ""));
            for (metric, _) in w.not_applicable {
                assert!(END_TO_END.iter().any(|(m, _)| m == metric), "{metric}");
                assert!(marked.contains(metric), "{}: why lacks {metric}", w.name);
            }
            let named = marked.split(", ").filter(|m| !m.is_empty()).count();
            assert_eq!(named, w.not_applicable.len(), "{}", w.name);
        }
    }

    #[test]
    fn the_self_test_fault_trips_the_gate() {
        let dir = scratch();
        let out = run(
            find("mesh_small").expect("known"),
            smoke(&dir, 5, false, true),
        );
        assert!(out.failed > 0);
        assert!(out.metrics.get("e2e.failed_share").is_some_and(|s| s > 0.0));
        assert!(out.violations.iter().any(|v| v.contains("agreement")));
    }

    #[test]
    fn workload_sizes_follow_seconds_only() {
        for w in ALL {
            let (a, b) = ((w.shape)(1.0), (w.shape)(1.0));
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{}", w.name);
        }
        let Kind::Mesh(small) = (find("mesh_small").unwrap().shape)(1.0) else {
            panic!("mesh_small is a mesh workload");
        };
        assert_eq!(small.count, 30_000);
        let Kind::Inproc(faulty) = (find("inproc_faulty").unwrap().shape)(3.0) else {
            panic!("inproc_faulty is an in-process workload");
        };
        assert_eq!((faulty.count, faulty.crash_at), (3_000, Some(1_500)));
    }
}
