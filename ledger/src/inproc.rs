//! The `inproc_*` workloads: a real [`UrbCluster`] — node threads, router
//! lane, channels, wall-clock ticks — driven by one generator thread.
//!
//! Observation from outside is the awkward part. Deliveries reach
//! `subscribe()` receivers only when some accessor pumps the cluster's
//! delivery streams, and the `delivery_log*` accessors copy the whole log.
//! The ledger pumps with `await_delivery_everywhere(first_tag, ZERO)`:
//! once the first warm-up tag heads every node's log, that call drains
//! the streams, feeds the subscription and returns after looking at one
//! log entry per node. Its cost is measured and reported
//! (`bench.pump_ns`); a public pump is a candidate for a later issue.

use crate::gate::{self, Observed, Sent, Verdict};
use crate::gen::{self, Rng, Timeline};
use crate::spans::{Tracer, SAMPLE_EVERY};
use crate::N;
use crossbeam_channel::Receiver;
use std::time::{Duration, Instant};
use urb_core::Algorithm;
use urb_runtime::{ClusterConfig, TrafficStats, UrbCluster};
use urb_types::{Delivery, Payload, Tag, TopicId};

/// How the generator paces itself.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Open loop: broadcast `i` is due at `i / rate` seconds whatever the
    /// cluster is doing; latency counts from the due time.
    Open {
        /// Broadcasts per second.
        rate: f64,
    },
    /// Closed loop: at most `window` broadcasts outstanding.
    Closed {
        /// Outstanding-broadcast limit.
        window: usize,
    },
}

/// One in-process workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct InprocSpec {
    /// Per-copy loss probability injected by the router.
    pub loss: f64,
    /// Payload bytes per broadcast.
    pub payload_len: usize,
    /// Generator pacing.
    pub pace: Pace,
    /// Closed-loop warm-up broadcasts that end set-up ([`WARMUP_WINDOW`]
    /// outstanding at once).
    pub warmup: u64,
    /// Timed broadcasts.
    pub count: u64,
    /// Crash node 2 just before this timed broadcast; node 2 then also
    /// never broadcasts (it is the run's faulty process).
    pub crash_at: Option<u64>,
}

/// The generator never spins: between polls it sleeps this long. A
/// spinning generator on a 2-core box takes a core from the cluster and
/// halves its throughput from one run to the next.
const POLL_SLEEP: Duration = Duration::from_micros(50);
/// Warm-up broadcasts outstanding at once. One at a time, a lossy cluster's
/// warm-up is a sum of coin flips — each broadcast takes 0.3 ms or, when a
/// copy is lost, a 20 ms retransmission tick — and `setup_s` of
/// `inproc_faulty` disagreed by 26 % between two runs; eight at a time, a
/// round nearly always takes its tick and the sum is steady.
const WARMUP_WINDOW: usize = 8;
/// A broadcast not delivered everywhere this long after it was due fails.
const DELIVERY_LIMIT: Duration = Duration::from_secs(10);
/// After the last completion, keep observing this long so a late double
/// delivery (an integrity violation) is still seen.
const SETTLE: Duration = Duration::from_millis(30);

/// Everything one repetition measured.
pub struct InprocRep {
    /// Cluster spawn + warm-up, seconds.
    pub setup_s: f64,
    /// When the first timed broadcast was due (the timeline's origin).
    pub t0: Instant,
    /// First timed broadcast due → last completion, seconds.
    pub window_s: f64,
    /// Per-broadcast due / sent / delivered-everywhere times.
    pub timeline: Timeline,
    /// The gate's judgement.
    pub verdict: Verdict,
    /// Broadcasts attempted (warm-up included).
    pub attempted: u64,
    /// Router counters over the timed window.
    pub traffic: TrafficStats,
    /// `broadcast_on` call durations, ns, ascending.
    pub rtt_ns: Vec<f64>,
    /// Mean cost of one pump call, ns.
    pub pump_ns: f64,
    /// Longest gap between consecutive completions from the crash on, ns
    /// (0 when the workload crashes nobody).
    pub crash_stall_ns: u64,
}

struct Driver<'a> {
    cluster: &'a UrbCluster,
    feed: Receiver<(usize, Delivery)>,
    pump_tag: Tag,
    /// Nodes whose delivery completes a broadcast.
    required: u8,
    sent: Vec<Sent>,
    seen: Vec<u8>,
    observed: Observed,
    pumps: u64,
    pump_total: Duration,
}

impl Driver<'_> {
    /// Pumps the cluster once and files every new delivery. Calls
    /// `on_complete(index)` for each broadcast that just reached every
    /// required node. Returns whether anything arrived.
    fn pump(&mut self, mut on_complete: impl FnMut(usize)) -> bool {
        let t = Instant::now();
        self.cluster
            .await_delivery_everywhere(self.pump_tag, Duration::ZERO);
        self.pump_total += t.elapsed();
        self.pumps += 1;
        let mut any = false;
        while let Ok((pid, d)) = self.feed.try_recv() {
            any = true;
            let filed = self
                .observed
                .file(pid, &self.sent, d.tag, d.payload.as_slice());
            let Some(i) = filed else {
                continue;
            };
            let before = self.seen[i];
            self.seen[i] |= 1 << pid;
            if before & self.required != self.required
                && self.seen[i] & self.required == self.required
            {
                on_complete(i);
            }
        }
        any
    }
}

/// Runs one repetition against a fresh cluster.
pub fn run_rep(spec: InprocSpec, seed: u64, tracer: &mut Tracer, sabotage: bool) -> InprocRep {
    let mut payload_rng = Rng::new(seed, 1);
    let mut order_rng = Rng::new(seed, 2);
    let mut scratch = vec![0u8; spec.payload_len.max(8)];
    let broadcasters = if spec.crash_at.is_some() { N - 1 } else { N } as u64;
    let correct: &[usize] = if spec.crash_at.is_some() {
        &[0, 1]
    } else {
        &[0, 1, 2]
    };
    let total = (spec.warmup + spec.count) as usize;

    // ---- set-up: spawn, subscribe, warm up ---------------------------
    let setup_start = Instant::now();
    let cluster = UrbCluster::spawn(
        ClusterConfig::new(N, Algorithm::Quiescent)
            .loss(spec.loss)
            .seed(Rng::new(seed, 3).next_u64()),
    );
    let feed = cluster.subscribe(TopicId::ZERO);
    let mut d = Driver {
        cluster: &cluster,
        feed,
        pump_tag: Tag(0),
        required: correct.iter().fold(0, |m, &p| m | 1 << p),
        sent: Vec::with_capacity(total),
        seen: vec![0; total],
        observed: Observed::new(N),
        pumps: 0,
        pump_total: Duration::ZERO,
    };
    let mut issue = |d: &mut Driver, tracer: &mut Tracer, sampled: bool| -> (Duration, bool) {
        let idx = d.sent.len() as u64;
        let pid = order_rng.below(broadcasters) as usize;
        gen::fill_payload(&mut payload_rng, idx, &mut scratch);
        let payload = Payload::copy_from_slice(&scratch);
        let print = gen::fingerprint(&scratch);
        let t = Instant::now();
        let tok = tracer.open(sampled, "runtime.broadcast_on", idx);
        let tag = cluster.broadcast_on(pid, TopicId::ZERO, payload);
        tracer.close(tok);
        let rtt = t.elapsed();
        match tag {
            Some(tag) => d.sent.push((tag, print)),
            None => {
                d.sent.push((Tag(0), print));
                d.observed.refused.push(idx as u32);
            }
        }
        (rtt, tag.is_some())
    };
    // The first warm-up broadcast is awaited through the public blocking
    // call; its tag then heads every log and makes the pump O(n).
    let mut quiet = Tracer::new(false);
    issue(&mut d, &mut quiet, false);
    d.pump_tag = d.sent[0].0;
    cluster.await_delivery_everywhere(d.pump_tag, DELIVERY_LIMIT);
    let mut outstanding = 1usize; // the first tag, until the feed shows it
    let limit = Instant::now() + DELIVERY_LIMIT;
    while (d.sent.len() as u64) < spec.warmup || outstanding > 0 {
        while outstanding < WARMUP_WINDOW && (d.sent.len() as u64) < spec.warmup {
            let (_, ok) = issue(&mut d, &mut quiet, false);
            outstanding += usize::from(ok);
        }
        let mut completed = 0;
        if !d.pump(|_| completed += 1) {
            std::thread::sleep(POLL_SLEEP);
        }
        outstanding -= completed.min(outstanding);
        if Instant::now() > limit {
            break;
        }
    }
    let setup_s = setup_start.elapsed().as_secs_f64();
    d.pumps = 0;
    d.pump_total = Duration::ZERO;

    // ---- timed window ------------------------------------------------
    let warm = d.sent.len();
    let traffic0 = cluster.traffic();
    let mut timeline = Timeline::default();
    let mut rtt_ns = Vec::with_capacity(spec.count as usize);
    let mut outstanding = 0usize;
    let mut crashed_at_ns = None;
    let t0 = Instant::now();
    let now_ns = |t0: Instant| t0.elapsed().as_nanos() as u64;
    loop {
        let next = timeline.len() as u64;
        let now = now_ns(t0);
        let due = match spec.pace {
            Pace::Open { rate } => gen::open_loop_due(next, rate),
            Pace::Closed { .. } => now,
        };
        let may_issue = next < spec.count
            && match spec.pace {
                Pace::Open { .. } => now >= due,
                Pace::Closed { window } => outstanding < window,
            };
        if may_issue {
            if spec.crash_at == Some(next) {
                cluster.crash(2);
                crashed_at_ns = Some(now_ns(t0));
            }
            let sent = now_ns(t0);
            let (rtt, ok) = issue(&mut d, tracer, next.is_multiple_of(SAMPLE_EVERY));
            rtt_ns.push(rtt.as_nanos() as f64);
            timeline.issue(due, sent);
            outstanding += usize::from(ok);
            if matches!(spec.pace, Pace::Closed { .. }) {
                // Closed loop: fill the window before polling again.
                continue;
            }
        }
        let mut completed = 0;
        let any = d.pump(|i| {
            if i >= warm && timeline.complete(i - warm, now_ns(t0)) {
                completed += 1;
            }
        });
        outstanding -= completed.min(outstanding);
        if timeline.len() as u64 == spec.count && outstanding == 0 {
            break;
        }
        let last_due = timeline.due.last().copied().unwrap_or(0);
        if timeline.len() as u64 == spec.count
            && now_ns(t0) > last_due + DELIVERY_LIMIT.as_nanos() as u64
        {
            break; // whatever is still pending has timed out
        }
        if !any {
            let upcoming = timeline.len() as u64;
            let until_due = match spec.pace {
                Pace::Open { rate } if upcoming < spec.count => Duration::from_nanos(
                    gen::open_loop_due(upcoming, rate).saturating_sub(now_ns(t0)),
                ),
                _ => POLL_SLEEP,
            };
            std::thread::sleep(until_due.min(POLL_SLEEP));
        }
    }
    let window_s = timeline.last_done() as f64 / 1e9;
    let t1 = cluster.traffic();
    let (pumps, pump_total) = (d.pumps, d.pump_total);

    // ---- settle, judge, tear down ------------------------------------
    let settle_until = Instant::now() + SETTLE;
    while Instant::now() < settle_until {
        d.pump(|_| {});
        std::thread::sleep(Duration::from_millis(1));
    }
    cluster.shutdown();

    let mut observed = std::mem::take(&mut d.observed);
    observed.attempted = d.sent.len();
    observed.timed_out = (0..timeline.len())
        .filter(|&i| {
            timeline.done[i] == gen::PENDING && !observed.refused.contains(&((i + warm) as u32))
        })
        .map(|i| (i + warm) as u32)
        .collect();
    if sabotage {
        // Node 2 may be the crashed one; drop at a correct node instead.
        observed.delivered[0].pop();
    }
    let verdict = gate::judge(&observed, correct);

    // Time without service around the crash: the longest gap between
    // consecutive completions from the crash on.
    let crash_stall_ns = crashed_at_ns.map_or(0, |crash| timeline.longest_stall(crash));
    crate::stats::sort(&mut rtt_ns);
    InprocRep {
        setup_s,
        t0,
        window_s,
        timeline,
        verdict,
        attempted: d.sent.len() as u64,
        traffic: TrafficStats {
            protocol_messages: t1.protocol_messages - traffic0.protocol_messages,
            heartbeats: t1.heartbeats - traffic0.heartbeats,
            batches: t1.batches - traffic0.batches,
            dropped_copies: t1.dropped_copies - traffic0.dropped_copies,
            delivered_copies: t1.delivered_copies - traffic0.delivered_copies,
            forwarded_frames: t1.forwarded_frames - traffic0.forwarded_frames,
            reencoded_frames: t1.reencoded_frames - traffic0.reencoded_frames,
        },
        rtt_ns,
        pump_ns: if pumps > 0 {
            pump_total.as_nanos() as f64 / pumps as f64
        } else {
            0.0
        },
        crash_stall_ns,
    }
}
