//! Pre-built scenarios for the experiment suite and the integration tests.
//!
//! Each builder returns a fully-specified [`SimConfig`]; experiments then
//! vary seeds/parameters around these shapes. The star of the module is
//! [`theorem2_partition`], which reconstructs the adversary from the paper's
//! impossibility proof (§IV) as an executable configuration.

use crate::channel::{DelayModel, LossModel};
use crate::crash::{CrashPlan, CrashRule};
use crate::sim::{FdKind, LinkOverride, PlannedBroadcast, SimConfig};
use urb_core::Algorithm;
use urb_fd::OracleConfig;
use urb_types::Payload;

/// No loss, no crashes, `k` broadcasts — the smoke-test shape.
pub fn clean(n: usize, algorithm: Algorithm, k: usize, seed: u64) -> SimConfig {
    SimConfig::new(n, algorithm).seed(seed).workload(k, 50)
}

/// Bernoulli loss `p`, `t` random crashes (broadcaster protected), `k`
/// broadcasts — the E1/E3 grid shape.
pub fn lossy_crashy(
    n: usize,
    algorithm: Algorithm,
    p: f64,
    t: usize,
    k: usize,
    seed: u64,
) -> SimConfig {
    let mut cfg = SimConfig::new(n, algorithm)
        .seed(seed)
        .loss(if p > 0.0 {
            LossModel::Bernoulli { p }
        } else {
            LossModel::None
        })
        .workload(k, 100)
        .max_time(120_000);
    // Algorithm 1 never quiesces — end the run once the properties are
    // decided (all correct processes delivered everything).
    cfg.stop_on_full_delivery = true;
    // Crashes land inside the active dissemination window (broadcasts start
    // at t=10, delivery convergence is O(100) ticks), so they genuinely
    // race the protocol. pid 0 (first broadcaster) is protected so validity
    // has a correct broadcaster to bind to.
    cfg.crashes = CrashPlan::random(n, t, 400, seed ^ 0xC0FF_EE00, Some(0));
    cfg
}

/// The impossibility adversary of Theorem 2 (run R2), executable.
///
/// * `S1` = processes `0 .. ⌈n/2⌉`, `S2` = the rest (`⌊n/2⌋` processes).
/// * Every link `S1 → S2` is severed (all those messages are lost — legal
///   under fair-lossy semantics because S1's members crash and therefore
///   send only finitely often).
/// * Process 0 (in S1) URB-broadcasts `m`.
/// * The algorithm under test is Algorithm 1 with delivery threshold
///   `⌈n/2⌉` — for odd `n` that *is* the strict majority (so this runs the
///   faithful algorithm outside its `t < n/2` precondition); for even `n`
///   it is the weakened threshold any hypothetical `t ≥ n/2`-tolerant
///   algorithm would effectively need (the proof's "algorithm A exists"
///   premise).
/// * Every member of S1 crashes the instant it delivers.
///
/// Expected outcome (experiment E2): members of S1 deliver `m` (they cannot
/// distinguish this run from R1, where S2 crashed initially), then crash;
/// S2 never receives anything; the checker reports a **uniform agreement
/// violation** — the executable content of Theorem 2.
pub fn theorem2_partition(n: usize, seed: u64) -> SimConfig {
    assert!(n >= 2);
    let s1 = n.div_ceil(2);
    let threshold = s1 as u32;
    let mut cfg = SimConfig::new(n, Algorithm::WeakenedMajority { threshold })
        .seed(seed)
        .max_time(60_000);
    cfg.broadcasts = vec![PlannedBroadcast {
        time: 10,
        pid: 0,
        topic: urb_types::TopicId::ZERO,
        payload: Payload::from("doomed"),
    }];
    cfg.crashes = CrashPlan::first_k_on_delivery(n, s1, 0);
    cfg.link_overrides = (0..s1)
        .flat_map(|from| {
            (s1..n).map(move |to| LinkOverride {
                from,
                to,
                loss: LossModel::Always,
            })
        })
        .collect();
    // The interesting phase ends quickly; no early-stop (we must observe S2
    // stay silent for the full horizon).
    cfg.stop_on_quiescence = false;
    cfg
}

/// Control arm for E2: the *faithful* Algorithm 1 under the same partition
/// adversary. With even `n` the strict majority is `n/2 + 1 > |S1|`, so S1
/// can never assemble a quorum: the algorithm blocks (nobody delivers) —
/// safe but live-less, the other horn of the impossibility.
pub fn theorem2_control(n: usize, seed: u64) -> SimConfig {
    let mut cfg = theorem2_partition(n, seed);
    cfg.algorithm = Algorithm::Majority;
    cfg
}

/// Quiescence-measurement shape (E4): `k` broadcasts, moderate loss, fixed
/// long horizon, no early stop, windowed send histogram.
pub fn quiescence_watch(
    n: usize,
    algorithm: Algorithm,
    p: f64,
    k: usize,
    horizon: u64,
    seed: u64,
) -> SimConfig {
    let mut cfg = SimConfig::new(n, algorithm)
        .seed(seed)
        .loss(LossModel::Bernoulli { p })
        .workload(k, 100)
        .max_time(horizon);
    cfg.stop_on_quiescence = false;
    cfg.window = horizon / 60;
    cfg
}

/// Memory-growth shape (E9): a long stream of broadcasts with state-size
/// sampling on.
pub fn memory_stream(
    n: usize,
    algorithm: Algorithm,
    k: usize,
    horizon: u64,
    seed: u64,
) -> SimConfig {
    let mut cfg = SimConfig::new(n, algorithm)
        .seed(seed)
        .loss(LossModel::Bernoulli { p: 0.1 })
        .workload(k, 200)
        .max_time(horizon);
    // Fine-grained sampling: Algorithm 2's MSG set lives only ~100 ticks
    // per message (deliver → prune), so coarse samples would miss the
    // transient entirely.
    cfg.stats_interval = 25;
    cfg.stop_on_quiescence = false;
    cfg
}

/// Skewed-delay shape for the fast-delivery measurement (E10): ACKs ride
/// fast links while some MSG copies straggle, maximizing the paper's
/// fast-deliver window.
pub fn fast_delivery(n: usize, seed: u64) -> SimConfig {
    let mut cfg = SimConfig::new(n, Algorithm::Majority)
        .seed(seed)
        .loss(LossModel::Bernoulli { p: 0.25 })
        .workload(6, 80)
        .max_time(150_000);
    cfg.delay = DelayModel::GeometricTail {
        base: 1,
        p_more: 0.7,
        cap: 60,
    };
    // Algorithm 1 never quiesces; end once the fast/slow delivery mix is
    // decided.
    cfg.stop_on_full_delivery = true;
    cfg
}

/// Stale-ACKer shape (E12 and the D4 tests): a process acknowledges the
/// broadcast wave and then crashes *before* `a_p*` becomes ready, so its
/// never-refreshed ACK entry (still containing the crashed label) is in
/// every survivor's table when pruning first becomes possible. The literal
/// line-55 condition blocks on it forever; the D4 purge recovers.
pub fn stale_acker(algorithm: Algorithm, horizon: u64, seed: u64) -> SimConfig {
    let n = 4;
    let mut cfg = SimConfig::new(n, algorithm).seed(seed).max_time(horizon);
    // ACKs circulate by ~t=50; the crash lands at 200; a_p* only becomes
    // non-empty at ~t=500, long after the stale entry exists.
    cfg.fd = FdKind::Oracle(OracleConfig {
        appearance_spread: 0,
        theta_removal_delay: 100,
        pstar_removal_delay: 200,
        pstar_ready_slack: 500,
        // The doomed process must attach real labels (its own included) to
        // its ACKs — that is what leaves the stale entry behind.
        faulty_knowledge: true,
    });
    cfg.crashes = CrashPlan::from_rules(
        (0..n)
            .map(|i| {
                if i == n - 1 {
                    CrashRule::At(200)
                } else {
                    CrashRule::Never
                }
            })
            .collect(),
    );
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run;

    #[test]
    fn theorem2_shapes() {
        let cfg = theorem2_partition(6, 1);
        assert_eq!(cfg.crashes.faulty_count(), 3);
        assert_eq!(cfg.link_overrides.len(), 9, "3×3 severed links");
        match cfg.algorithm {
            Algorithm::WeakenedMajority { threshold } => assert_eq!(threshold, 3),
            _ => panic!("wrong algorithm"),
        }
    }

    #[test]
    fn theorem2_partition_violates_agreement() {
        // The executable impossibility proof: delivery happens inside S1,
        // S1 crashes, S2 starves — uniform agreement broken.
        let out = run(theorem2_partition(6, 42));
        assert!(
            !out.metrics.deliveries.is_empty(),
            "S1 must deliver (it cannot distinguish R2 from R1)"
        );
        assert!(
            !out.report.agreement.ok(),
            "uniform agreement must be violated"
        );
        // All deliverers are in S1 (and crashed).
        for d in &out.metrics.deliveries {
            assert!(d.pid < 3, "only S1 members deliver");
        }
    }

    #[test]
    fn theorem2_control_blocks_safely() {
        // Faithful Algorithm 1, even n: threshold 4 > |S1| = 3 → no quorum,
        // no delivery, no violation. Safety is preserved by blocking.
        let out = run(theorem2_control(6, 42));
        assert!(out.metrics.deliveries.is_empty(), "must block");
        assert!(out.report.all_ok(), "blocking violates nothing");
    }

    #[test]
    fn clean_scenario_roundtrip() {
        let out = run(clean(4, Algorithm::Quiescent, 2, 5));
        assert!(out.all_ok(), "{:?}", out.report.violations());
        assert_eq!(out.metrics.broadcasts.len(), 2);
        assert_eq!(out.metrics.deliveries.len(), 8, "2 msgs × 4 procs");
    }

    #[test]
    fn lossy_crashy_respects_resilience_bounds() {
        // Algorithm 1 within its precondition.
        let out = run(lossy_crashy(5, Algorithm::Majority, 0.2, 2, 2, 9));
        assert!(out.report.all_ok(), "{:?}", out.report.violations());
        // Algorithm 2 beyond any majority.
        let out = run(lossy_crashy(5, Algorithm::Quiescent, 0.2, 4, 2, 9));
        assert!(out.all_ok(), "{:?}", out.report.violations());
    }
}
