//! The **open-loop workload plane** (DESIGN.md §16): arrival-rate-driven
//! latency-under-load runs on a [`World`](crate::world::World) flooded
//! FIFO, as the soak plane ([`mod@crate::soak`]) floods one, driven by an
//! *offered load* instead of a message count.
//!
//! The BENCH grids are closed-loop: each run injects its workload as fast
//! as the system absorbs it, so they measure protocol cost but can never
//! see a saturation knee. An open-loop run schedules arrival `k` at
//! simulated tick `k·1000 / rate` regardless of how the system is doing,
//! queues it at its origin node's bounded-service ingress (each node
//! serves at most [`OpenLoopConfig::service_per_tick`] arrivals per tick)
//! and measures **delivery latency in ticks** — origin-delivery tick minus
//! arrival tick, so queueing delay under overload is part of the number.
//! Below the service capacity (`n × service_per_tick × 1000` per ktick)
//! latencies sit at the protocol floor; past it the queues — and the
//! p99/p999 tail — grow without bound. That crossover is the knee
//! experiments E22/E23 chart.
//!
//! Everything is a pure function of the [`OpenLoopConfig`]: arrivals,
//! service, flooding and delivery all advance on simulated ticks (never
//! wall clock), so latency percentiles are exactly reproducible and
//! byte-compatible across machines — which is what lets the trajectory
//! schema pin them as count metrics.

use crate::soak::Flood;
use std::collections::{HashMap, VecDeque};
use urb_core::Algorithm;
use urb_types::{Payload, Tag, TopicId};

/// Configuration of one open-loop run.
#[derive(Clone, Debug)]
pub struct OpenLoopConfig {
    /// System size `n` (every process is correct — the plane measures
    /// load, not fault tolerance).
    pub n: usize,
    /// Live topics per node; arrivals round-robin across them. Dispatch
    /// is O(1) (DESIGN.md §16), so outcomes are **identical** from 1 to
    /// 100k topics — experiment E22 pins exactly that.
    pub topics: u32,
    /// Protocol under test.
    pub algorithm: Algorithm,
    /// Root seed.
    pub seed: u64,
    /// Simulated horizon in ticks: arrivals are scheduled strictly below
    /// this tick; the run then drains to completion.
    pub ticks: u64,
    /// Offered load: arrivals per 1000 ticks, cluster-wide. Arrival `k`
    /// lands at tick `k·1000 / rate_per_ktick`.
    pub rate_per_ktick: u64,
    /// Ingress service budget: broadcasts one node invokes per tick.
    /// Cluster capacity is `n × service_per_tick` per tick.
    pub service_per_tick: u32,
    /// Task-1 sweep cadence in ticks (every instance of every node).
    pub sweep_every: u64,
}

impl OpenLoopConfig {
    /// A quiescent-algorithm run on 3 processes, one topic, moderate
    /// load: 256-tick horizon, 500 arrivals/ktick against a capacity of
    /// 3000/ktick.
    pub fn new(rate_per_ktick: u64) -> Self {
        OpenLoopConfig {
            n: 3,
            topics: 1,
            algorithm: Algorithm::Quiescent,
            seed: 1,
            ticks: 256,
            rate_per_ktick,
            service_per_tick: 1,
            sweep_every: 64,
        }
    }

    /// Sets the topic count (builder style).
    pub fn topics(mut self, topics: u32) -> Self {
        self.topics = topics.max(1);
        self
    }

    /// Sets the seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Everything one open-loop run observed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OpenLoopOutcome {
    /// Arrivals the generator scheduled (the offered work).
    pub offered: u64,
    /// Broadcasts actually invoked (equals `offered` — the drain phase
    /// serves every queued arrival).
    pub injected: u64,
    /// Broadcasts URB-delivered back at their origin (completions).
    pub completed: u64,
    /// Completions that happened within the horizon — the *achieved*
    /// throughput under load, which flattens at capacity while `offered`
    /// keeps climbing.
    pub completed_in_horizon: u64,
    /// Total URB deliveries across every process.
    pub deliveries: u64,
    /// Protocol transmissions: per-link copies the instant network
    /// flooded (each emission reaches all `n` processes).
    pub transmissions: u64,
    /// Median arrival→origin-delivery latency, in ticks.
    pub latency_p50: u64,
    /// 90th-percentile latency, in ticks.
    pub latency_p90: u64,
    /// 99th-percentile latency, in ticks.
    pub latency_p99: u64,
    /// 99.9th-percentile latency, in ticks — the tail the knee shows up
    /// in first.
    pub latency_p999: u64,
    /// Worst single latency, in ticks.
    pub latency_max: u64,
    /// Deepest any node's ingress queue got.
    pub peak_queue_depth: usize,
    /// Ticks the drain phase needed past the horizon.
    pub drain_ticks: u64,
    /// Per-process order-sensitive rolling delivery hashes (same scheme
    /// as the soak plane): two runs delivered identically iff equal.
    pub delivery_hashes: Vec<u64>,
}

impl OpenLoopOutcome {
    /// True when `other` delivered exactly the same tags in the same
    /// order at every process.
    pub fn same_deliveries(&self, other: &OpenLoopOutcome) -> bool {
        self.deliveries == other.deliveries && self.delivery_hashes == other.delivery_hashes
    }
}

/// Nearest-rank per-mille percentile of an ascending-sorted slice.
fn percentile(sorted: &[u64], per_mille: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() as u64 - 1) * per_mille / 1000;
    sorted[idx as usize]
}

/// The latency log: which broadcasts are in flight, and what their
/// origin-deliveries measured.
struct Completions {
    /// Horizon in ticks (completions below it count as in-horizon).
    horizon: u64,
    now: u64,
    /// In-flight broadcasts: tag → (arrival tick, origin pid).
    pending: HashMap<Tag, (u64, usize)>,
    latencies: Vec<u64>,
    in_horizon: u64,
}

impl Completions {
    /// One URB-delivery at `pid`: at the origin it completes the broadcast.
    fn on_deliver(&mut self, pid: usize, tag: Tag) {
        if let Some(&(arrived, origin)) = self.pending.get(&tag) {
            if origin == pid {
                self.pending.remove(&tag);
                self.latencies.push(self.now - arrived);
                if self.now < self.horizon {
                    self.in_horizon += 1;
                }
            }
        }
    }
}

/// Each node serves up to its per-tick budget from its ingress queue,
/// then the flood delivers what that produced. Returns the broadcasts
/// invoked.
fn serve(
    cfg: &OpenLoopConfig,
    flood: &mut Flood,
    queues: &mut [VecDeque<u64>],
    log: &mut Completions,
) -> u64 {
    let mut injected = 0;
    for (pid, queue) in queues.iter_mut().enumerate() {
        for _ in 0..cfg.service_per_tick {
            let Some(arrival) = queue.pop_front() else {
                break;
            };
            let topic = TopicId((arrival % cfg.topics as u64) as u32);
            let arrived = arrival * 1000 / cfg.rate_per_ktick;
            let tag = flood.broadcast(pid, topic, Payload::from("load"));
            log.pending.insert(tag, (arrived, pid));
            injected += 1;
            flood.absorb(pid, &mut |pid, tag| log.on_deliver(pid, tag));
        }
    }
    flood.flood(&mut |pid, tag| log.on_deliver(pid, tag));
    injected
}

/// Executes one open-loop run. Pure function of the config: every number
/// in the outcome derives from simulated ticks and counts, never wall
/// clock.
pub fn open_loop(cfg: OpenLoopConfig) -> OpenLoopOutcome {
    assert!(cfg.topics >= 1);
    assert!(cfg.ticks >= 1);
    assert!(cfg.rate_per_ktick >= 1, "open loop needs an arrival rate");
    assert!(cfg.service_per_tick >= 1);
    assert!(cfg.sweep_every >= 1);
    let mut flood = Flood::new(
        cfg.n,
        cfg.topics,
        cfg.algorithm,
        cfg.seed ^ 0x09E7_100D_09E7_100D,
        0x09E7,
        None,
    );
    // Per-node ingress queues of pending arrivals (arrival index).
    let mut queues = vec![VecDeque::new(); cfg.n];
    let mut log = Completions {
        horizon: cfg.ticks,
        now: 0,
        pending: HashMap::new(),
        latencies: Vec::new(),
        in_horizon: 0,
    };
    let mut peak_queue = 0;
    let mut offered = 0u64;
    let mut injected = 0u64;
    let mut next_arrival = 0u64; // arrival index
    for t in 0..cfg.ticks {
        log.now = t;
        // Arrivals scheduled for this tick enter their origin queue —
        // unconditionally: the generator never waits for the system.
        while next_arrival * 1000 / cfg.rate_per_ktick == t {
            let pid = (next_arrival % cfg.n as u64) as usize;
            queues[pid].push_back(next_arrival);
            peak_queue = peak_queue.max(queues[pid].len());
            offered += 1;
            next_arrival += 1;
        }
        injected += serve(&cfg, &mut flood, &mut queues, &mut log);
        if (t + 1) % cfg.sweep_every == 0 {
            flood.sweep(&mut |pid, tag| log.on_deliver(pid, tag));
        }
    }
    // Drain: keep serving (no new arrivals) until every queued
    // arrival was injected and every broadcast completed. Bounded:
    // the backlog is finite and service makes progress every tick.
    let mut drain_ticks = 0u64;
    while queues.iter().any(|q| !q.is_empty()) || !log.pending.is_empty() {
        log.now = cfg.ticks + drain_ticks;
        injected += serve(&cfg, &mut flood, &mut queues, &mut log);
        if (log.now + 1).is_multiple_of(cfg.sweep_every) {
            flood.sweep(&mut |pid, tag| log.on_deliver(pid, tag));
        }
        drain_ticks += 1;
        assert!(
            drain_ticks <= offered + cfg.sweep_every + 2,
            "open-loop drain did not converge (backlog stuck)"
        );
    }
    let mut latencies = log.latencies;
    latencies.sort_unstable();
    OpenLoopOutcome {
        offered,
        injected,
        completed: latencies.len() as u64,
        completed_in_horizon: log.in_horizon,
        deliveries: flood.world.delivered().iter().sum(),
        transmissions: flood.transmissions,
        latency_p50: percentile(&latencies, 500),
        latency_p90: percentile(&latencies, 900),
        latency_p99: percentile(&latencies, 990),
        latency_p999: percentile(&latencies, 999),
        latency_max: latencies.last().copied().unwrap_or(0),
        peak_queue_depth: peak_queue,
        drain_ticks,
        delivery_hashes: flood.hashes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_is_deterministic_per_seed() {
        let a = open_loop(OpenLoopConfig::new(500).seed(7));
        let b = open_loop(OpenLoopConfig::new(500).seed(7));
        assert_eq!(a, b);
        assert_eq!(a.delivery_hashes, [0x79EC_7709_0378_6054; 3]);
        assert_eq!(a.transmissions, 6_144);
        let c = open_loop(OpenLoopConfig::new(500).seed(8));
        assert_ne!(a.delivery_hashes, c.delivery_hashes, "seed moves the tags");
    }

    #[test]
    fn below_capacity_latency_sits_at_the_floor() {
        // Capacity is 3 nodes × 1/tick = 3000/ktick; offer a sixth of it.
        let out = open_loop(OpenLoopConfig::new(500).seed(11));
        assert_eq!(out.offered, out.completed, "everything drains");
        assert_eq!(out.injected, out.offered);
        assert_eq!(
            out.latency_p999, 0,
            "below the knee, arrivals are served the tick they land"
        );
        assert!(out.peak_queue_depth <= 1);
        assert_eq!(out.drain_ticks, 0, "no backlog at the horizon");
    }

    #[test]
    fn past_capacity_the_tail_explodes_and_queues_grow() {
        let below = open_loop(OpenLoopConfig::new(2_000).seed(13));
        let above = open_loop(OpenLoopConfig::new(9_000).seed(13));
        // Offered load tripled past capacity; achieved throughput did not.
        assert!(above.offered > 2 * below.offered);
        assert!(
            above.completed_in_horizon < below.completed_in_horizon * 2,
            "achieved throughput saturates at capacity ({} vs {})",
            above.completed_in_horizon,
            below.completed_in_horizon
        );
        // The knee: the latency tail and the queues grow without bound.
        assert_eq!(below.latency_p99, 0, "below capacity: protocol floor");
        assert!(
            above.latency_p999 > 50,
            "past capacity, queueing dominates (p999 = {})",
            above.latency_p999
        );
        assert!(above.latency_p50 <= above.latency_p99);
        assert!(above.latency_p99 <= above.latency_p999);
        assert!(above.peak_queue_depth > 10 * below.peak_queue_depth.max(1));
        assert!(above.drain_ticks > 0, "the backlog outlived the horizon");
        assert_eq!(above.offered, above.completed, "the drain still finishes");
    }

    #[test]
    fn outcome_is_identical_from_one_topic_to_a_thousand() {
        // The O(1)-dispatch pin (experiment E22's tier-1 shape): topic
        // count changes *where* broadcasts land, but arrivals, service,
        // RNG draws and therefore latencies and delivery hashes are
        // byte-identical — per-message cost is flat in topic count.
        let one = open_loop(OpenLoopConfig::new(4_000).seed(17).topics(1));
        let thousand = open_loop(OpenLoopConfig::new(4_000).seed(17).topics(1_000));
        assert_eq!(one, thousand);
    }

    /// The 100k-topic tier of the E22 pin. `--ignored` only (builds
    /// 100k instances per node).
    #[test]
    #[ignore = "scale tier: run with --ignored (CI bench-smoke exercises e22 instead)"]
    fn outcome_is_identical_at_100k_topics() {
        let one = open_loop(OpenLoopConfig::new(4_000).seed(19).topics(1));
        let hundred_k = open_loop(OpenLoopConfig::new(4_000).seed(19).topics(100_000));
        assert_eq!(one, hundred_k);
    }
}
