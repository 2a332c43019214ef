//! The experiment suite E1–E21 (see DESIGN.md §5 for the index).
//!
//! The paper proves; we measure. Each function reproduces one claim as a
//! table: the pass-rate grids for the two theorems about the algorithms
//! (E1, E3), the executable impossibility proof (E2), the quiescence and
//! cost characterizations the paper motivates but never quantifies
//! (E4–E10), the baseline contrast from the introduction (E11), the
//! ablation of our one substantive pseudocode repair (E12), the Task-1
//! backoff extension (E13), partition-heal recovery (E14), and the
//! scenario plane's own guarantees (E15 corpus replay, E16 adversarial
//! schedule sweep, E17 spec round-trip + executor parity — DESIGN.md §9),
//! the topic plane's scaling story (E18 topic-count scaling, E19
//! multiplexed-vs-separate frames A/B — DESIGN.md §12), and the memory
//! plane's plateau claim (E20 bounded-memory soak — DESIGN.md §14), the
//! dynamic topic control plane's churn story (E21 — DESIGN.md §15), and
//! the open-loop load plane (E22 flat dispatch cost at 100k topics, E23
//! the offered-load knee — DESIGN.md §16).
//!
//! All experiments are deterministic: same build, same tables. Every run's
//! seed is a pure function of its grid cell and seed index, so the
//! [`crate::executor`] fan-out (which executes the grids on all cores)
//! produces bit-identical tables to the old serial loops.

use crate::executor::{run_grid, run_seeds};
use crate::table::{f3, pct, Table};
use urb_core::Algorithm;
use urb_fd::{HeartbeatConfig, OracleConfig};
use urb_sim::sim::{FdKind, LinkOverride, SimConfig};
use urb_sim::spec::{self, ScenarioSpec, StopRule};
use urb_sim::{
    open_loop, scenario, soak, CrashPlan, CrashRule, LossModel, OpenLoopConfig, OpenLoopOutcome,
    RunOutcome, Schedule, SoakConfig,
};
use urb_types::MemoryConfig;

/// Number of seeds per grid cell (kept moderate so the full suite runs in
/// minutes; bump for tighter confidence).
pub const SEEDS: u64 = 10;

/// Runs one experiment by id (`"e1"`..`"e23"`), returning its tables.
pub fn run_experiment(id: &str) -> Vec<Table> {
    match id {
        "e1" => e1_alg1_correctness(),
        "e2" => e2_impossibility(),
        "e3" => e3_alg2_correctness(),
        "e4" => e4_quiescence(),
        "e5" => e5_latency_vs_loss(),
        "e6" => e6_message_complexity(),
        "e7" => e7_fd_latency(),
        "e8" => e8_heartbeat_realism(),
        "e9" => e9_memory(),
        "e10" => e10_fast_delivery(),
        "e11" => e11_baselines(),
        "e12" => e12_prune_ablation(),
        "e13" => e13_backoff_extension(),
        "e14" => e14_partition_heal(),
        "e15" => e15_scenario_corpus(),
        "e16" => e16_ack_starvation_sweep(),
        "e17" => e17_spec_parity(),
        "e18" => e18_topic_scaling(),
        "e19" => e19_mux_vs_separate(),
        "e20" => e20_bounded_memory_soak(),
        "e21" => e21_dynamic_topic_churn(),
        "e22" => e22_topic_scaling_open_loop(),
        "e23" => e23_offered_load_knee(),
        other => panic!("unknown experiment id {other:?} (use e1..e23)"),
    }
}

/// All experiment ids in order.
pub const ALL_IDS: [&str; 23] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21", "e22", "e23",
];

/// Nearest-rank `p`-quantile of an ascending sample (0 when it is empty).
pub(crate) fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((p * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1)]
}

// ---------------------------------------------------------------- E1 ----

/// E1 — Theorem 1: Algorithm 1 implements URB in `AAS_F[t < n/2]`.
///
/// Grid over `n × loss × t` (with `t < n/2`), SEEDS seeds each; reports the
/// URB pass rate (expected: 100%) and mean time to full delivery.
pub fn e1_alg1_correctness() -> Vec<Table> {
    let mut t = Table::new(
        "E1 — Theorem 1: Algorithm 1 URB pass rate (t < n/2)",
        &[
            "n",
            "loss",
            "t",
            "runs",
            "URB ok",
            "mean full-delivery time",
        ],
    );
    let mut cells: Vec<(usize, f64, usize)> = Vec::new();
    for &n in &[4usize, 8, 16] {
        for &loss in &[0.0, 0.1, 0.3] {
            for &tf in &[0usize, (n - 1) / 2] {
                cells.push((n, loss, tf));
            }
        }
    }
    for ((n, loss, tf), outcomes) in run_grid(&cells, SEEDS, |&(n, loss, tf), seed| {
        scenario::lossy_crashy(n, Algorithm::Majority, loss, tf, 2, seed * 7919 + 1)
    }) {
        let ok = outcomes.iter().filter(|o| o.report.all_ok()).count() as u64;
        let total_time: u64 = outcomes.iter().map(|o| o.metrics.ended_at).sum();
        t.row(vec![
            n.to_string(),
            f3(loss),
            tf.to_string(),
            SEEDS.to_string(),
            pct(ok as f64 / SEEDS as f64),
            format!("{}", total_time / SEEDS),
        ]);
    }
    vec![t]
}

// ---------------------------------------------------------------- E2 ----

/// E2 — Theorem 2: URB is unsolvable with `t ≥ n/2` (executable proof).
///
/// The R2 partition adversary: the majority half `S1` delivers (it cannot
/// distinguish R2 from R1), crashes, and its traffic to `S2` is lost.
/// Expected: the threshold-⌈n/2⌉ algorithm **violates uniform agreement**
/// in every run; the faithful strict-majority algorithm **blocks** (no
/// delivery — safe but live-less). Both horns of the impossibility.
pub fn e2_impossibility() -> Vec<Table> {
    let mut t = Table::new(
        "E2 — Theorem 2: the R1/R2 partition adversary",
        &[
            "n",
            "arm",
            "runs",
            "S1 delivered",
            "agreement violated",
            "blocked (no delivery)",
        ],
    );
    let mut cells: Vec<(usize, &str, bool)> = Vec::new();
    for &n in &[4usize, 6, 8] {
        for (arm, control) in [("threshold ⌈n/2⌉", false), ("strict majority", true)] {
            cells.push((n, arm, control));
        }
    }
    for ((n, arm, _control), outcomes) in run_grid(&cells, SEEDS, |&(n, _, control), seed| {
        if control {
            scenario::theorem2_control(n, seed + 1)
        } else {
            scenario::theorem2_partition(n, seed + 1)
        }
    }) {
        let s1_delivered = outcomes
            .iter()
            .filter(|o| !o.metrics.deliveries.is_empty())
            .count();
        let violated = outcomes.iter().filter(|o| !o.report.agreement.ok()).count();
        let blocked = outcomes
            .iter()
            .filter(|o| o.metrics.deliveries.is_empty())
            .count();
        t.row(vec![
            n.to_string(),
            arm.to_string(),
            SEEDS.to_string(),
            s1_delivered.to_string(),
            violated.to_string(),
            blocked.to_string(),
        ]);
    }
    vec![t]
}

// ---------------------------------------------------------------- E3 ----

/// E3 — Theorem 3 / Lemmas 1–3: Algorithm 2 implements URB with **any**
/// number of crashes (`t ≤ n − 1`) under `AΘ`/`AP*`, oracle detectors
/// audited on every run.
pub fn e3_alg2_correctness() -> Vec<Table> {
    let mut t = Table::new(
        "E3 — Theorem 3: Algorithm 2 URB pass rate (any t ≤ n-1)",
        &["n", "loss", "t", "runs", "URB ok", "FD audit ok"],
    );
    let mut cells: Vec<(usize, f64, usize)> = Vec::new();
    for &n in &[4usize, 8] {
        for &loss in &[0.0, 0.1, 0.3] {
            for &tf in &[0usize, n / 2, n - 1] {
                cells.push((n, loss, tf));
            }
        }
    }
    for ((n, loss, tf), outcomes) in run_grid(&cells, SEEDS, |&(n, loss, tf), seed| {
        scenario::lossy_crashy(n, Algorithm::Quiescent, loss, tf, 2, seed * 6151 + 3)
    }) {
        let ok = outcomes.iter().filter(|o| o.report.all_ok()).count() as u64;
        let audit_ok = outcomes
            .iter()
            .filter(|o| !matches!(o.fd_audit, Some(Err(_))))
            .count() as u64;
        t.row(vec![
            n.to_string(),
            f3(loss),
            tf.to_string(),
            SEEDS.to_string(),
            pct(ok as f64 / SEEDS as f64),
            pct(audit_ok as f64 / SEEDS as f64),
        ]);
    }
    vec![t]
}

// ---------------------------------------------------------------- E4 ----

/// E4 — Quiescence (Theorem 3 vs. Algorithm 1's forever-broadcast).
///
/// Same workload and horizon for both algorithms; the windowed send
/// histogram shows Algorithm 1's traffic never reaching zero while
/// Algorithm 2 goes silent. Reported: total protocol sends, the quiescence
/// instant (last MSG/ACK), and residual traffic in the second half of the
/// horizon.
pub fn e4_quiescence() -> Vec<Table> {
    let horizon = 60_000u64;
    let mut t = Table::new(
        "E4 — quiescence: traffic profile over a fixed horizon (n=8, loss=0.2, 5 msgs)",
        &[
            "algorithm",
            "total MSG+ACK",
            "last protocol send",
            "sends in 2nd half",
            "quiescent",
        ],
    );
    let mut curve = Table::new(
        "E4b — sends per 1000-tick window (first 20 windows)",
        &["algorithm", "windows 0..19"],
    );
    for alg in [Algorithm::Majority, Algorithm::Quiescent] {
        let outcomes = run_seeds(SEEDS, |seed| {
            scenario::quiescence_watch(8, alg, 0.2, 5, horizon, seed + 11)
        });
        let mut total = 0u64;
        let mut last = 0u64;
        let mut residual = 0u64;
        let mut quiescent = 0u64;
        let mut windows_acc = [0u64; 20];
        for out in &outcomes {
            total += out.metrics.protocol_sends();
            last = last.max(out.last_protocol_send);
            residual += out.metrics.sends_after(horizon / 2);
            if out.quiescent {
                quiescent += 1;
            }
            for (i, w) in out.metrics.sends_per_window.iter().take(20).enumerate() {
                windows_acc[i] += w;
            }
        }
        t.row(vec![
            alg.name().to_string(),
            (total / SEEDS).to_string(),
            last.to_string(),
            (residual / SEEDS).to_string(),
            format!("{quiescent}/{SEEDS}"),
        ]);
        curve.row(vec![
            alg.name().to_string(),
            windows_acc
                .iter()
                .map(|w| (w / SEEDS).to_string())
                .collect::<Vec<_>>()
                .join(" "),
        ]);
    }
    vec![t, curve]
}

// ---------------------------------------------------------------- E5 ----

/// E5 — delivery latency vs. channel loss (both algorithms, n=8).
pub fn e5_latency_vs_loss() -> Vec<Table> {
    let mut t = Table::new(
        "E5 — delivery latency vs. loss (n=8, ticks)",
        &["loss", "algorithm", "median", "p99", "max"],
    );
    let mut cells: Vec<(f64, Algorithm)> = Vec::new();
    for &loss in &[0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5] {
        for alg in [Algorithm::Majority, Algorithm::Quiescent] {
            cells.push((loss, alg));
        }
    }
    for ((loss, alg), outcomes) in run_grid(&cells, SEEDS, |&(loss, alg), seed| {
        let mut cfg = scenario::lossy_crashy(8, alg, loss, 0, 3, seed * 31 + 17);
        cfg.max_time = 60_000;
        cfg
    }) {
        let mut lat: Vec<u64> = outcomes
            .iter()
            .flat_map(|o| o.metrics.latencies())
            .collect();
        lat.sort_unstable();
        t.row(vec![
            f3(loss),
            alg.name().to_string(),
            percentile(&lat, 0.5).to_string(),
            percentile(&lat, 0.99).to_string(),
            lat.last().copied().unwrap_or(0).to_string(),
        ]);
    }
    vec![t]
}

// ---------------------------------------------------------------- E6 ----

/// E6 — message complexity vs. system size (loss = 0.1).
///
/// Transmissions (per-link copies) until full delivery, per delivered
/// message, plus Algorithm 2's cost to full quiescence. Expected shape:
/// O(n²) per broadcast for both, with Algorithm 2 paying a constant-factor
/// overhead in labels but a *bounded total* (it stops).
pub fn e6_message_complexity() -> Vec<Table> {
    let mut t = Table::new(
        "E6 — transmissions vs. n (loss=0.1, 2 msgs)",
        &[
            "n",
            "alg1: tx to delivery",
            "alg1: tx/msg/n²",
            "alg2: tx to delivery",
            "alg2: tx to quiescence",
        ],
    );
    for &n in &[4usize, 8, 16, 32] {
        let seeds = if n >= 16 { 3 } else { SEEDS };
        let sends =
            |outs: &[RunOutcome]| -> u64 { outs.iter().map(|o| o.metrics.protocol_sends()).sum() };
        let a1 = sends(&run_seeds(seeds, |seed| {
            scenario::lossy_crashy(n, Algorithm::Majority, 0.1, 0, 2, seed + 5)
        }));
        let a2 = sends(&run_seeds(seeds, |seed| {
            scenario::lossy_crashy(n, Algorithm::Quiescent, 0.1, 0, 2, seed + 5)
        }));
        let a2q = sends(&run_seeds(seeds, |seed| {
            let mut cfg = scenario::lossy_crashy(n, Algorithm::Quiescent, 0.1, 0, 2, seed + 5);
            cfg.stop_on_full_delivery = false;
            cfg.stop_on_quiescence = true;
            cfg.max_time = 300_000;
            cfg
        }));
        let per = |x: u64| x / seeds;
        t.row(vec![
            n.to_string(),
            per(a1).to_string(),
            f3(per(a1) as f64 / 2.0 / (n * n) as f64),
            per(a2).to_string(),
            per(a2q).to_string(),
        ]);
    }
    vec![t]
}

// ---------------------------------------------------------------- E7 ----

/// E7 — sensitivity to `AP*` detection latency (n=8, 3 crashes).
///
/// The prune condition waits for crashed labels to leave `a_p*`; quiescence
/// time should track the removal delay roughly linearly, while correctness
/// is unaffected.
pub fn e7_fd_latency() -> Vec<Table> {
    let mut t = Table::new(
        "E7 — AP* removal latency vs. quiescence (n=8, t=3, loss=0.2)",
        &[
            "AP* removal delay",
            "runs",
            "URB ok",
            "quiescent",
            "mean quiescence time",
        ],
    );
    for &delay in &[0u64, 1_000, 5_000, 20_000] {
        let outcomes = run_seeds(SEEDS, |seed| {
            scenario::fd_latency(8, delay, 3, seed * 13 + 29)
        });
        let ok = outcomes.iter().filter(|o| o.report.all_ok()).count();
        let quiescent = outcomes.iter().filter(|o| o.quiescent).count() as u64;
        let qtime: u64 = outcomes
            .iter()
            .filter(|o| o.quiescent)
            .map(|o| o.last_protocol_send)
            .sum();
        t.row(vec![
            delay.to_string(),
            SEEDS.to_string(),
            format!("{ok}/{SEEDS}"),
            format!("{quiescent}/{SEEDS}"),
            qtime
                .checked_div(quiescent)
                .map_or("—".to_string(), |v| v.to_string()),
        ]);
    }
    vec![t]
}

// ---------------------------------------------------------------- E8 ----

/// E8 — the realistic heartbeat detector vs. the oracle (n=8, loss=0.2).
///
/// Sweeps the suspicion timeout (heartbeat period fixed at 20 ticks).
/// Short timeouts cause false suspicions → safety/liveness failures;
/// long timeouts delay quiescence. The oracle row is the reference.
pub fn e8_heartbeat_realism() -> Vec<Table> {
    let mut t = Table::new(
        "E8 — heartbeat FD timeout sweep (n=8, t=2, loss=0.2, period=20)",
        &[
            "detector",
            "timeout",
            "URB ok",
            "quiescent",
            "mean quiescence time",
        ],
    );
    let mk = |seed: u64| -> SimConfig {
        let mut cfg = SimConfig::new(8, Algorithm::Quiescent)
            .seed(seed)
            // Bursty loss is what breaks heartbeat detectors: a burst longer
            // than the timeout silences a perfectly alive process.
            .loss(LossModel::Burst {
                p_enter: 0.02,
                p_exit: 0.05,
                p_loss: 0.95,
            })
            .workload(3, 100)
            .max_time(60_000);
        cfg.crashes = CrashPlan::random(8, 2, 2_000, seed ^ 0xE8, Some(0));
        cfg
    };
    let mut row = |label: String, timeout_label: String, outcomes: &[RunOutcome]| {
        let ok = outcomes.iter().filter(|o| o.report.all_ok()).count();
        let quiescent = outcomes.iter().filter(|o| o.quiescent).count() as u64;
        let qtime: u64 = outcomes
            .iter()
            .filter(|o| o.quiescent)
            .map(|o| o.last_protocol_send)
            .sum();
        t.row(vec![
            label,
            timeout_label,
            format!("{ok}/{SEEDS}"),
            format!("{quiescent}/{SEEDS}"),
            qtime
                .checked_div(quiescent)
                .map_or("—".to_string(), |v| v.to_string()),
        ]);
    };
    for &timeout in &[25u64, 60, 120, 240, 480] {
        let outcomes = run_seeds(SEEDS, |seed| {
            let mut cfg = mk(seed * 41 + 7);
            cfg.fd = FdKind::Heartbeat(HeartbeatConfig {
                period: 20,
                timeout,
            });
            cfg
        });
        row("heartbeat".into(), timeout.to_string(), &outcomes);
    }
    // Oracle reference row.
    let outcomes = run_seeds(SEEDS, |seed| {
        let mut cfg = mk(seed * 41 + 7);
        cfg.fd = FdKind::Oracle(OracleConfig::default());
        cfg
    });
    row("oracle".into(), "—".into(), &outcomes);
    vec![t]
}

// ---------------------------------------------------------------- E9 ----

/// E9 — protocol memory over a broadcast stream (n=6, 30 msgs, loss=0.1).
///
/// Algorithm 1's `MSG` set grows with every message and never shrinks;
/// Algorithm 2 prunes back to zero. Reported: peak and final state sizes.
pub fn e9_memory() -> Vec<Table> {
    let mut t = Table::new(
        "E9 — state sizes over a 30-message stream (n=6, loss=0.1)",
        &[
            "algorithm",
            "peak MSG set",
            "final MSG set",
            "peak total state",
            "final total state",
        ],
    );
    for alg in [Algorithm::Majority, Algorithm::Quiescent] {
        // 30k-tick horizon: the 30-message stream ends at ~t=6k, leaving
        // Algorithm 2 ample time to prune everything (and bounding
        // Algorithm 1's forever-rebroadcast cost).
        let outcomes = run_seeds(3, |seed| {
            scenario::memory_stream(6, alg, 30, 30_000, seed + 3)
        });
        let mut peak_msg = 0usize;
        let mut final_msg = 0usize;
        let mut peak_total = 0usize;
        let mut final_total = 0usize;
        for out in &outcomes {
            for s in &out.metrics.stats_samples {
                for p in &s.per_process {
                    peak_msg = peak_msg.max(p.msg_set);
                    peak_total = peak_total.max(p.total());
                }
            }
            for p in &out.final_stats {
                final_msg = final_msg.max(p.msg_set);
                final_total = final_total.max(p.total());
            }
        }
        t.row(vec![
            alg.name().to_string(),
            peak_msg.to_string(),
            final_msg.to_string(),
            peak_total.to_string(),
            final_total.to_string(),
        ]);
    }
    vec![t]
}

// --------------------------------------------------------------- E10 ----

/// E10 — the §III fast-delivery remark: deliveries that precede the MSG
/// copy, under skewed delays and loss.
pub fn e10_fast_delivery() -> Vec<Table> {
    let mut t = Table::new(
        "E10 — fast deliveries (ACK quorum before the MSG copy)",
        &["n", "runs", "deliveries", "fast", "fast fraction"],
    );
    for &n in &[8usize, 16] {
        let outcomes = run_seeds(SEEDS, |seed| scenario::fast_delivery(n, seed * 97 + 13));
        let total: usize = outcomes.iter().map(|o| o.metrics.deliveries.len()).sum();
        let fast: usize = outcomes
            .iter()
            .map(|o| o.metrics.deliveries.iter().filter(|d| d.fast).count())
            .sum();
        t.row(vec![
            n.to_string(),
            SEEDS.to_string(),
            total.to_string(),
            fast.to_string(),
            pct(fast as f64 / total.max(1) as f64),
        ]);
    }
    vec![t]
}

// --------------------------------------------------------------- E11 ----

/// E11 — the broadcast hierarchy (paper §I), quantified.
///
/// Arm A: plain 20% loss — best-effort broadcast loses messages while both
/// URB algorithms deliver everywhere.
/// Arm B: sender partitioned + crash-on-first-delivery — eager RB delivers
/// at the doomed sender and violates uniform agreement; Algorithm 1 blocks
/// (safe).
pub fn e11_baselines() -> Vec<Table> {
    let mut a = Table::new(
        "E11a — delivery ratio under 20% loss (n=8, 4 msgs, no crashes)",
        &["algorithm", "delivery ratio", "agreement violations"],
    );
    for alg in [
        Algorithm::BestEffort,
        Algorithm::EagerRb,
        Algorithm::Majority,
    ] {
        let outcomes = run_seeds(SEEDS, |seed| {
            let mut cfg = SimConfig::new(8, alg)
                .seed(seed * 53 + 9)
                .loss(LossModel::Bernoulli { p: 0.2 })
                .workload(4, 100)
                .max_time(40_000);
            cfg.stop_on_full_delivery = true;
            cfg
        });
        let delivered: usize = outcomes.iter().map(|o| o.metrics.deliveries.len()).sum();
        let expected: usize = outcomes
            .iter()
            .map(|o| o.metrics.broadcasts.len() * 8)
            .sum();
        let violations = outcomes.iter().filter(|o| !o.report.agreement.ok()).count();
        a.row(vec![
            alg.name().to_string(),
            pct(delivered as f64 / expected.max(1) as f64),
            violations.to_string(),
        ]);
    }

    let mut b = Table::new(
        "E11b — doomed sender (partitioned, crashes on first delivery)",
        &[
            "algorithm",
            "sender delivered",
            "agreement violated",
            "blocked",
        ],
    );
    for alg in [Algorithm::EagerRb, Algorithm::Majority] {
        let outcomes = run_seeds(SEEDS, |seed| {
            let mut cfg = SimConfig::new(8, alg).seed(seed * 59 + 3).max_time(30_000);
            cfg.crashes = CrashPlan::from_rules(
                (0..8)
                    .map(|i| {
                        if i == 0 {
                            CrashRule::OnFirstDelivery { delay: 0 }
                        } else {
                            CrashRule::Never
                        }
                    })
                    .collect(),
            );
            cfg.link_overrides = (1..8)
                .map(|to| LinkOverride {
                    from: 0,
                    to,
                    loss: LossModel::Always,
                })
                .collect();
            cfg.stop_on_quiescence = false;
            cfg
        });
        let sender_delivered = outcomes
            .iter()
            .filter(|o| o.metrics.deliveries.iter().any(|d| d.pid == 0))
            .count();
        let violated = outcomes.iter().filter(|o| !o.report.agreement.ok()).count();
        let blocked = outcomes
            .iter()
            .filter(|o| o.metrics.deliveries.is_empty())
            .count();
        b.row(vec![
            alg.name().to_string(),
            sender_delivered.to_string(),
            violated.to_string(),
            blocked.to_string(),
        ]);
    }
    vec![a, b]
}

// --------------------------------------------------------------- E12 ----

/// E12 — ablation of the D4 dead-ACKer purge.
///
/// Adversary ([`scenario::stale_acker`]): a process ACKs the broadcast wave
/// and crashes before `a_p*` becomes ready, leaving a never-refreshed label
/// set in everyone's `all_labels`. The paper's literal line-55 condition
/// blocks on it forever; the purge rule recovers. Both remain URB-correct
/// (the purge affects only quiescence).
pub fn e12_prune_ablation() -> Vec<Table> {
    let mut t = Table::new(
        "E12 — prune rule ablation (n=4, crash-after-ack adversary)",
        &[
            "prune rule",
            "URB ok",
            "quiescent",
            "mean quiescence time",
            "residual sends (tail 20%)",
        ],
    );
    let horizon = 60_000u64;
    for (alg, name) in [
        (Algorithm::Quiescent, "purge (D4, default)"),
        (Algorithm::QuiescentLiteral, "literal line 55"),
    ] {
        let outcomes = run_seeds(SEEDS, |seed| {
            scenario::stale_acker(alg, horizon, seed * 67 + 31)
        });
        let ok = outcomes.iter().filter(|o| o.report.all_ok()).count();
        let quiescent = outcomes.iter().filter(|o| o.quiescent).count() as u64;
        let qtime: u64 = outcomes
            .iter()
            .filter(|o| o.quiescent)
            .map(|o| o.last_protocol_send)
            .sum();
        let residual: u64 = outcomes
            .iter()
            .map(|o| o.metrics.sends_after(horizon * 4 / 5))
            .sum();
        t.row(vec![
            name.to_string(),
            format!("{ok}/{SEEDS}"),
            format!("{quiescent}/{SEEDS}"),
            qtime
                .checked_div(quiescent)
                .map_or("— (never)".to_string(), |v| v.to_string()),
            (residual / SEEDS).to_string(),
        ]);
    }
    vec![t]
}

// --------------------------------------------------------------- E13 ----

/// E13 — extension ablation: exponential Task-1 backoff.
///
/// The paper's Task 1 retransmits every sweep; fairness only needs
/// "infinitely often". Exponentially spacing retransmissions (cap in
/// sweeps) preserves every URB property while cutting steady-state traffic;
/// the price is tail latency under loss. Fixed 20 000-tick horizon, n=8,
/// 20% loss, 3 messages.
pub fn e13_backoff_extension() -> Vec<Table> {
    let horizon = 20_000u64;
    let mut t = Table::new(
        "E13 — exponential backoff vs. faithful Task 1 (n=8, loss=0.2)",
        &[
            "variant",
            "URB ok",
            "total MSG+ACK",
            "median latency",
            "p99 latency",
        ],
    );
    let variants: Vec<(Algorithm, String)> =
        std::iter::once((Algorithm::Majority, "faithful (every sweep)".to_string()))
            .chain([4u32, 16, 64].into_iter().map(|cap| {
                (
                    Algorithm::MajorityBackoff { cap },
                    format!("backoff cap={cap}"),
                )
            }))
            .collect();
    for (alg, name) in variants {
        let outcomes = run_seeds(SEEDS, |seed| {
            let mut cfg = SimConfig::new(8, alg)
                .seed(seed * 71 + 5)
                .loss(LossModel::Bernoulli { p: 0.2 })
                .workload(3, 100)
                .max_time(horizon);
            cfg.stop_on_quiescence = false; // fixed horizon: comparable traffic
            cfg
        });
        let ok = outcomes.iter().filter(|o| o.report.all_ok()).count();
        let sends: u64 = outcomes.iter().map(|o| o.metrics.protocol_sends()).sum();
        let mut lat: Vec<u64> = outcomes
            .iter()
            .flat_map(|o| o.metrics.latencies())
            .collect();
        lat.sort_unstable();
        t.row(vec![
            name,
            format!("{ok}/{SEEDS}"),
            (sends / SEEDS).to_string(),
            percentile(&lat, 0.5).to_string(),
            percentile(&lat, 0.99).to_string(),
        ]);
    }
    vec![t]
}

// --------------------------------------------------------------- E14 ----

/// E14 — healing partitions: recovery time after a total cut.
///
/// Fair-lossy fairness is suspended during a network partition and resumes
/// at the heal; URB must complete afterwards (the paper's model says
/// nothing about *when*). Sweep the partition duration: time from
/// broadcast to full delivery should track the cut end, and the post-heal
/// recovery lag should be roughly constant (one retransmission round).
pub fn e14_partition_heal() -> Vec<Table> {
    use urb_sim::Blackout;
    let mut t = Table::new(
        "E14 — healing partition: {0,1,2,3} | {4,5,6,7} cut from t=0 (n=8, alg1)",
        &[
            "cut duration",
            "runs",
            "URB ok",
            "mean full-delivery time",
            "mean lag after heal",
        ],
    );
    for &cut in &[0u64, 500, 2_000, 8_000] {
        let outcomes = run_seeds(SEEDS, |seed| {
            let mut cfg = SimConfig::new(8, Algorithm::Majority)
                .seed(seed * 83 + 2)
                .loss(LossModel::Bernoulli { p: 0.1 })
                .workload(1, 50)
                .max_time(cut + 60_000);
            cfg.blackouts = Blackout::partition(&[0, 1, 2, 3], &[4, 5, 6, 7], 0, cut);
            cfg.stop_on_full_delivery = true;
            cfg
        });
        let ok = outcomes.iter().filter(|o| o.report.all_ok()).count();
        let total: Vec<u64> = outcomes.iter().map(|o| o.metrics.ended_at).collect();
        let mean = total.iter().sum::<u64>() / total.len() as u64;
        t.row(vec![
            cut.to_string(),
            SEEDS.to_string(),
            format!("{ok}/{SEEDS}"),
            mean.to_string(),
            mean.saturating_sub(cut).to_string(),
        ]);
    }
    vec![t]
}

// --------------------------------------------------------------- E15 ----

/// E15 — the scenario corpus, replayed (DESIGN.md §9).
///
/// Every `scenarios/*.toml` file is parsed, compiled and executed over
/// SEEDS derived seeds via the parallel executor; a run counts only when
/// the spec's `[expect]` verdict holds on top of the per-run URB checker.
/// Expected: every cell at 100% — scenario diversity is data, and the
/// data keeps its promises under seed variation.
pub fn e15_scenario_corpus() -> Vec<Table> {
    let mut t = Table::new(
        "E15 — scenario corpus replay (expectations checked per run)",
        &[
            "scenario",
            "n",
            "algorithm",
            "runs",
            "expectations met",
            "mean end time",
        ],
    );
    for (name, text) in spec::corpus() {
        let base =
            ScenarioSpec::from_toml_str(text).unwrap_or_else(|e| panic!("corpus {name}: {e}"));
        let outcomes = run_seeds(SEEDS, |seed| {
            let mut s = base.clone();
            s.seed = base.seed + seed * 9973;
            s.compile().unwrap_or_else(|e| panic!("corpus {name}: {e}"))
        });
        let met = outcomes
            .iter()
            .filter(|o| base.expect.check(o).is_empty())
            .count() as u64;
        let mean_end: u64 = outcomes.iter().map(|o| o.metrics.ended_at).sum::<u64>() / SEEDS;
        t.row(vec![
            name.to_string(),
            base.n.to_string(),
            base.algorithm.name().to_string(),
            SEEDS.to_string(),
            pct(met as f64 / SEEDS as f64),
            mean_end.to_string(),
        ]);
    }
    vec![t]
}

// --------------------------------------------------------------- E16 ----

/// E16 — the ack-starvation schedule, swept (DESIGN.md §9).
///
/// Specs are built *programmatically* here (the same [`Schedule`] values
/// the TOML loader produces), demonstrating the scheduler library as an
/// API. An inbound blockade on one process should pin exactly that
/// process's first delivery to the blockade end while the rest of the
/// mesh delivers on schedule — the victim's lag is the adversary's knob.
pub fn e16_ack_starvation_sweep() -> Vec<Table> {
    let mut t = Table::new(
        "E16 — ack-starvation window vs. victim delivery (n=5, alg1, loss=0.1)",
        &[
            "blockade end",
            "runs",
            "URB ok",
            "mean victim first delivery",
            "mean others first delivery",
        ],
    );
    for &end in &[0u64, 500, 2_000, 8_000] {
        let outcomes = run_seeds(SEEDS, |seed| {
            let mut s = ScenarioSpec::new("e16", 5, Algorithm::Majority);
            s.seed = seed * 127 + 3;
            s.loss = LossModel::Bernoulli { p: 0.1 };
            s.stop = StopRule::FullDelivery;
            s.horizon = end + 60_000;
            s.workload = urb_sim::spec::WorkloadSpec::Generated {
                count: 2,
                spacing: 100,
                start: 10,
            };
            if end > 0 {
                s.schedules.push(Schedule::AckStarvation {
                    victim: 4,
                    start: 0,
                    end,
                });
            }
            s.compile().expect("e16 spec compiles")
        });
        let ok = outcomes.iter().filter(|o| o.report.all_ok()).count();
        let first = |o: &RunOutcome, victim: bool| -> u64 {
            o.metrics
                .deliveries
                .iter()
                .filter(|d| (d.pid == 4) == victim)
                .map(|d| d.time)
                .min()
                .unwrap_or(0)
        };
        let victim_mean: u64 = outcomes.iter().map(|o| first(o, true)).sum::<u64>() / SEEDS;
        let others_mean: u64 = outcomes.iter().map(|o| first(o, false)).sum::<u64>() / SEEDS;
        t.row(vec![
            end.to_string(),
            SEEDS.to_string(),
            format!("{ok}/{SEEDS}"),
            victim_mean.to_string(),
            others_mean.to_string(),
        ]);
    }
    vec![t]
}

// --------------------------------------------------------------- E17 ----

/// E17 — scenario-plane invariants: spec round-trip and executor parity
/// (DESIGN.md §9).
///
/// For every corpus entry: (a) `spec → TOML → spec` is the identity, so
/// files survive re-emission; (b) the run the serial driver produces and
/// the run the parallel executor produces are bit-identical (same event
/// hash, same delivery trace) — replaying a corpus under `run_many` is
/// exactly replaying it under `run`.
pub fn e17_spec_parity() -> Vec<Table> {
    let mut t = Table::new(
        "E17 — spec round-trip + serial/parallel executor parity",
        &[
            "scenario",
            "TOML round-trip",
            "serial == parallel",
            "deliveries",
            "trace hash",
        ],
    );
    let specs: Vec<(&str, ScenarioSpec)> = spec::corpus()
        .into_iter()
        .map(|(name, text)| {
            (
                name,
                ScenarioSpec::from_toml_str(text).unwrap_or_else(|e| panic!("{name}: {e}")),
            )
        })
        .collect();
    let serial: Vec<RunOutcome> = specs
        .iter()
        .map(|(_, s)| urb_sim::run(s.compile().expect("corpus compiles")))
        .collect();
    let parallel = urb_sim::run_many(
        specs
            .iter()
            .map(|(_, s)| s.compile().expect("corpus compiles"))
            .collect(),
    );
    for (((name, spec), ser), par) in specs.iter().zip(&serial).zip(&parallel) {
        let roundtrip = ScenarioSpec::from_toml_str(&spec.to_toml()).as_ref() == Ok(spec);
        let same_trace = ser.metrics.trace_hash == par.metrics.trace_hash
            && ser.metrics.deliveries.len() == par.metrics.deliveries.len()
            && ser
                .metrics
                .deliveries
                .iter()
                .zip(&par.metrics.deliveries)
                .all(|(a, b)| a.pid == b.pid && a.time == b.time && a.tag == b.tag);
        t.row(vec![
            name.to_string(),
            roundtrip.to_string(),
            same_trace.to_string(),
            ser.metrics.deliveries.len().to_string(),
            format!("{:#018x}", ser.metrics.trace_hash),
        ]);
    }
    vec![t]
}

// --------------------------------------------------------------- E18 ----

/// E18 — topic-count scaling (DESIGN.md §12): the same total broadcast
/// workload spread over 1, 2, 4 and 8 topics on one shared mesh.
///
/// Message complexity scales with the workload, not the topic count (one
/// instance per topic, same per-message cost), while the multiplexed
/// frame plane keeps routed frames *flat*: a node tick drains every
/// topic's sweep into one frame. Reported per topic count: URB pass rate
/// across all per-topic verdicts, protocol transmissions, frames sent
/// and deliveries.
pub fn e18_topic_scaling() -> Vec<Table> {
    let mut t = Table::new(
        "E18 — topic scaling: fixed workload over 1/2/4/8 topics (n=5, loss=0.1)",
        &[
            "topics",
            "runs",
            "URB ok (per topic)",
            "transmissions",
            "frames",
            "deliveries",
        ],
    );
    for &topics in &[1u32, 2, 4, 8] {
        let outcomes = run_seeds(SEEDS, |seed| {
            let mut cfg = SimConfig::new(5, Algorithm::Quiescent)
                .topics(topics)
                .seed(seed * 31 + 5)
                .loss(LossModel::Bernoulli { p: 0.1 })
                .workload_topics(8, 50)
                .max_time(400_000);
            cfg.stop_on_quiescence = true;
            cfg
        });
        let verdicts: usize = outcomes.iter().map(|o| o.per_topic.len()).sum();
        let ok: usize = outcomes
            .iter()
            .flat_map(|o| o.per_topic.iter())
            .filter(|t| t.report.all_ok())
            .count();
        let tx: u64 = outcomes.iter().map(|o| o.metrics.protocol_sends()).sum();
        let frames: u64 = outcomes.iter().map(|o| o.metrics.frames_sent).sum();
        let deliveries: usize = outcomes.iter().map(|o| o.metrics.deliveries.len()).sum();
        t.row(vec![
            topics.to_string(),
            SEEDS.to_string(),
            format!("{ok}/{verdicts}"),
            tx.to_string(),
            frames.to_string(),
            deliveries.to_string(),
        ]);
    }
    vec![t]
}

// --------------------------------------------------------------- E19 ----

/// E19 — multiplexed frames vs. one-frame-per-topic A/B (DESIGN.md §12).
///
/// The identical multi-topic workload runs twice per seed: once with the
/// mux plane (every step's topics share one frame per destination) and
/// once with `mux_frames = false` (each topic pays its own frame). The
/// deliveries and verdicts must agree — multiplexing is a pure routing
/// optimization — while frames-sent must strictly favour the mux plane
/// at equal message counts. This is the acceptance experiment of the
/// topic plane's routing claim.
pub fn e19_mux_vs_separate() -> Vec<Table> {
    let mut t = Table::new(
        "E19 — multiplexed vs separate frames (n=4, topics=4, 8 msgs)",
        &[
            "plane",
            "runs",
            "URB ok",
            "messages",
            "frames",
            "frames/msg",
            "deliveries",
        ],
    );
    let build = |mux: bool| {
        run_seeds(SEEDS, move |seed| {
            let mut cfg = SimConfig::new(4, Algorithm::Quiescent)
                .topics(4)
                .seed(seed * 17 + 9)
                .workload_topics(8, 20)
                .max_time(400_000);
            cfg.mux_frames = mux;
            cfg
        })
    };
    let arms = [("multiplexed", build(true)), ("separate", build(false))];
    for (name, outcomes) in &arms {
        let ok = outcomes.iter().filter(|o| o.all_topics_ok()).count() as u64;
        let msgs: u64 = outcomes.iter().map(|o| o.metrics.protocol_sends()).sum();
        let frames: u64 = outcomes.iter().map(|o| o.metrics.frames_sent).sum();
        let deliveries: usize = outcomes.iter().map(|o| o.metrics.deliveries.len()).sum();
        t.row(vec![
            name.to_string(),
            SEEDS.to_string(),
            format!("{ok}/{SEEDS}"),
            msgs.to_string(),
            frames.to_string(),
            f3(frames as f64 / msgs.max(1) as f64),
            deliveries.to_string(),
        ]);
    }
    let (mux_frames, sep_frames) = (
        arms[0].1.iter().map(|o| o.metrics.frames_sent).sum::<u64>(),
        arms[1].1.iter().map(|o| o.metrics.frames_sent).sum::<u64>(),
    );
    assert!(
        mux_frames < sep_frames,
        "multiplexed frames must beat one-frame-per-topic: {mux_frames} vs {sep_frames}"
    );
    vec![t]
}

// --------------------------------------------------------------- E20 ----

/// E20 — bounded-memory soak (DESIGN.md §14): resident state vs messages
/// with ack-prefix compaction on and off.
///
/// Each grid row runs the same seeded workload twice on the soak plane
/// (`urb_sim::soak` — direct engine stepping, instant lossless flooding):
/// once unbounded and once with a [`MemoryConfig`]. The harness itself is
/// the acceptance gate: both arms must produce identical per-process
/// delivery sequences (compaction is delivery-invisible), the unbounded
/// arm's resident state must grow with the message count, and the bounded
/// arm's **peak** resident state must plateau — the peak at the largest
/// message count stays within 2× of the peak at the smallest even as the
/// workload grows 8×. The million-message version of this table is the
/// `soak_one_million_plateaus_with_identical_deliveries` soak test.
pub fn e20_bounded_memory_soak() -> Vec<Table> {
    let mut t = Table::new(
        "E20 — bounded-memory soak: resident state vs messages (n=3, Alg 2)",
        &[
            "messages",
            "plane",
            "deliveries/proc",
            "peak resident",
            "final resident",
            "reclaimed",
            "tombstoned",
            "same deliveries",
        ],
    );
    let mem = MemoryConfig {
        ceiling: Some(600),
        ..MemoryConfig::default()
    };
    let mut bounded_peaks = Vec::new();
    for &msgs in &[1_000u64, 4_000, 8_000] {
        let unbounded = soak(SoakConfig::new(msgs).seed(0xE20));
        let bounded = soak(SoakConfig::new(msgs).seed(0xE20).memory(mem));
        let same = bounded.same_deliveries(&unbounded);
        assert!(
            same,
            "compaction must be delivery-invisible at {msgs} messages"
        );
        assert!(
            bounded.reclaimed > 0,
            "the bounded arm must actually compact at {msgs} messages"
        );
        for (plane, out) in [("unbounded", &unbounded), ("bounded", &bounded)] {
            t.row(vec![
                msgs.to_string(),
                plane.to_string(),
                (out.delivered.iter().sum::<u64>() / out.delivered.len() as u64).to_string(),
                out.peak_resident.to_string(),
                out.final_resident.to_string(),
                out.reclaimed.to_string(),
                out.tombstoned.to_string(),
                same.to_string(),
            ]);
        }
        bounded_peaks.push(bounded.peak_resident);
    }
    let (first, last) = (bounded_peaks[0], *bounded_peaks.last().unwrap());
    assert!(
        last <= first.saturating_mul(2),
        "bounded peak resident must plateau: {first} @1k vs {last} @8k"
    );
    vec![t]
}

/// One E21 churn grid cell (DESIGN.md §15): a static topic plus `gens`
/// sequential create → two-broadcast workload → retire generations on
/// dynamic topic ids. Shared by the standalone experiment table and the
/// trajectory grid so both sample exactly the same plane.
pub fn churn_config(n: usize, gens: u32, seed: u64) -> SimConfig {
    use urb_sim::sim::TopicAction;
    use urb_sim::PlannedBroadcast;
    use urb_types::{Payload, TopicId};
    let mut cfg = SimConfig::new(n, Algorithm::Quiescent)
        .seed(seed)
        .max_time(400_000);
    cfg.stop_on_quiescence = true;
    cfg.broadcasts = vec![PlannedBroadcast {
        time: 10,
        pid: 0,
        topic: TopicId::ZERO,
        payload: Payload::from("static"),
    }];
    for g in 0..gens {
        let topic = TopicId(1 + g);
        let base = 200 + g as u64 * 3_000;
        // Each generation retires 2_000 ticks after its create — well
        // past its two-broadcast workload's quiescence, so retirement
        // preserves every URB obligation (the quiescence rule) and the
        // per-topic verdicts must hold across the whole churn.
        cfg = cfg
            .topic_event(
                base,
                TopicAction::Create {
                    topic,
                    algorithm: None,
                },
            )
            .topic_event(base + 2_000, TopicAction::Retire { topic });
        for m in 0..2u64 {
            cfg.broadcasts.push(PlannedBroadcast {
                time: base + 100 + m * 100,
                pid: ((g as u64 + m) % n as u64) as usize,
                topic,
                payload: Payload::from(format!("g{g}.m{m}").as_str()),
            });
        }
    }
    cfg
}

/// E21 — dynamic-topic churn (DESIGN.md §15): generations of
/// create → workload → retire next to a static topic. Measures that the
/// per-topic verdicts hold across churn, every retired generation is
/// reclaimed at every process, and the run still ends quiescent.
pub fn e21_dynamic_topic_churn() -> Vec<Table> {
    let mut t = Table::new(
        "E21 — dynamic-topic churn: create → workload → retire generations (n=4, Alg 2)",
        &[
            "generations",
            "runs",
            "URB ok (per topic)",
            "reclaimed",
            "transmissions",
            "deliveries",
            "quiescent",
        ],
    );
    for &gens in &[1u32, 3, 6] {
        let outcomes = run_seeds(SEEDS, |seed| churn_config(4, gens, seed * 47 + 21));
        let verdicts: usize = outcomes.iter().map(|o| o.per_topic.len()).sum();
        let ok: usize = outcomes
            .iter()
            .flat_map(|o| o.per_topic.iter())
            .filter(|t| t.report.all_ok())
            .count();
        let reclaimed: u64 = outcomes.iter().map(|o| o.topics_reclaimed()).sum();
        assert_eq!(
            reclaimed,
            SEEDS * gens as u64 * 4,
            "every retired generation must be reclaimed at every process ({gens} gens)"
        );
        assert_eq!(ok, verdicts, "churn must not cost a single verdict");
        let tx: u64 = outcomes.iter().map(|o| o.metrics.protocol_sends()).sum();
        let deliveries: usize = outcomes.iter().map(|o| o.metrics.deliveries.len()).sum();
        let quiescent = outcomes.iter().filter(|o| o.quiescent).count();
        t.row(vec![
            gens.to_string(),
            SEEDS.to_string(),
            format!("{ok}/{verdicts}"),
            reclaimed.to_string(),
            tx.to_string(),
            deliveries.to_string(),
            format!("{quiescent}/{SEEDS}"),
        ]);
    }
    vec![t]
}

/// The open-loop grids for E22/E23 (DESIGN.md §16) — one
/// [`OpenLoopConfig`] per `(cell, seed)` pair, a pure function of the
/// arguments. Shared by the standalone experiment tables and the
/// trajectory collector so both sample exactly the same plane; the CLI's
/// `--load-topics` / `--rates` overrides arrive through the two `Option`
/// parameters (`None` = the pinned default grid the committed trajectory
/// files use).
///
/// E22 deliberately derives the **same** seed for every topic-count cell:
/// dispatch is O(1), so the per-seed outcomes must be byte-identical from
/// 1 to 100k topics — the flat-cost pin is baked into the grid itself.
/// E23 sweeps the offered load across the cluster's service capacity
/// (n=3 × 1/tick = 3000 arrivals/ktick), so the latency tail crosses the
/// knee inside the default grid.
pub fn open_loop_grid(
    id: &str,
    seed: u64,
    seeds: u64,
    load_topics: Option<&[u32]>,
    rates: Option<&[u64]>,
) -> Vec<OpenLoopConfig> {
    let derive = |cell: u64, s: u64| {
        seed.wrapping_mul(9973)
            .wrapping_add(cell.wrapping_mul(131))
            .wrapping_add(s)
    };
    let mut cfgs = Vec::new();
    match id {
        "e22" => {
            for &topics in load_topics.unwrap_or(&[1, 1_000, 100_000]) {
                for s in 0..seeds {
                    // Same derived seed across topic cells — see above.
                    cfgs.push(OpenLoopConfig::new(4_000).topics(topics).seed(derive(0, s)));
                }
            }
        }
        "e23" => {
            for (cell, &rate) in rates
                .unwrap_or(&[500, 1_500, 2_500, 4_000, 8_000])
                .iter()
                .enumerate()
            {
                for s in 0..seeds {
                    cfgs.push(
                        OpenLoopConfig::new(rate)
                            .topics(8)
                            .seed(derive(cell as u64, s)),
                    );
                }
            }
        }
        other => panic!("unknown open-loop experiment id {other:?} (use e22/e23)"),
    }
    cfgs
}

/// E22 — open-loop topic-count scaling (DESIGN.md §16): the identical
/// offered load from 1 to 100 000 live topics per node.
///
/// With O(1) topic dispatch the topic count changes *where* broadcasts
/// land but nothing else: arrivals, service, RNG draws, latencies and
/// per-process delivery hashes are byte-identical across the sweep. The
/// harness asserts full-outcome equality against the 1-topic baseline —
/// per-message cost is flat not "within noise" but exactly.
pub fn e22_topic_scaling_open_loop() -> Vec<Table> {
    let mut t = Table::new(
        "E22 — open-loop topic scaling: 1 → 100k topics (n=3, 4000 arrivals/ktick)",
        &[
            "topics",
            "runs",
            "offered",
            "completed",
            "p50",
            "p99",
            "p999",
            "identical to 1 topic",
        ],
    );
    let cells = [1u32, 1_000, 100_000];
    let mut baseline: Vec<OpenLoopOutcome> = Vec::new();
    for &topics in &cells {
        let outcomes: Vec<OpenLoopOutcome> =
            open_loop_grid("e22", 0xE22, SEEDS, Some(&[topics]), None)
                .into_iter()
                .map(open_loop)
                .collect();
        if baseline.is_empty() {
            baseline = outcomes.clone();
        }
        let identical = outcomes == baseline;
        assert!(
            identical,
            "dispatch must be O(1): outcomes diverged at {topics} topics"
        );
        let offered: u64 = outcomes.iter().map(|o| o.offered).sum();
        let completed: u64 = outcomes.iter().map(|o| o.completed).sum();
        let max = |f: fn(&OpenLoopOutcome) -> u64| outcomes.iter().map(f).max().unwrap_or(0);
        t.row(vec![
            topics.to_string(),
            SEEDS.to_string(),
            offered.to_string(),
            completed.to_string(),
            max(|o| o.latency_p50).to_string(),
            max(|o| o.latency_p99).to_string(),
            max(|o| o.latency_p999).to_string(),
            identical.to_string(),
        ]);
    }
    vec![t]
}

/// E23 — the offered-load sweep (DESIGN.md §16): p50/p90/p99/p999
/// delivery latency vs arrivals per kilotick, locating the saturation
/// knee at the cluster's service capacity (3000/ktick for n=3 at one
/// broadcast per node per tick).
///
/// Below capacity every arrival is served the tick it lands and the
/// whole latency distribution sits at the protocol floor; past capacity
/// the ingress queues — and therefore the p999 tail and the post-horizon
/// drain — grow with the backlog while achieved throughput flattens.
/// Both sides of the knee are asserted, not just tabulated.
pub fn e23_offered_load_knee() -> Vec<Table> {
    let mut t = Table::new(
        "E23 — offered load vs latency: the knee at capacity 3000/ktick (n=3, 8 topics)",
        &[
            "rate/ktick",
            "runs",
            "offered",
            "achieved in horizon",
            "p50",
            "p90",
            "p99",
            "p999",
            "peak queue",
            "drain ticks",
        ],
    );
    let rates = [500u64, 1_500, 2_500, 4_000, 8_000];
    let mut rows: Vec<(u64, Vec<OpenLoopOutcome>)> = Vec::new();
    for (cell, &rate) in rates.iter().enumerate() {
        let cfgs = open_loop_grid("e23", 0xE23, SEEDS, None, Some(&rates));
        let outcomes: Vec<OpenLoopOutcome> = cfgs
            .into_iter()
            .skip(cell * SEEDS as usize)
            .take(SEEDS as usize)
            .map(open_loop)
            .collect();
        rows.push((rate, outcomes));
    }
    for (rate, outcomes) in &rows {
        let offered: u64 = outcomes.iter().map(|o| o.offered).sum();
        let achieved: u64 = outcomes.iter().map(|o| o.completed_in_horizon).sum();
        let max = |f: fn(&OpenLoopOutcome) -> u64| outcomes.iter().map(f).max().unwrap_or(0);
        t.row(vec![
            rate.to_string(),
            SEEDS.to_string(),
            offered.to_string(),
            achieved.to_string(),
            max(|o| o.latency_p50).to_string(),
            max(|o| o.latency_p90).to_string(),
            max(|o| o.latency_p99).to_string(),
            max(|o| o.latency_p999).to_string(),
            max(|o| o.peak_queue_depth as u64).to_string(),
            max(|o| o.drain_ticks).to_string(),
        ]);
    }
    let below = &rows.first().expect("rate grid non-empty").1;
    let above = &rows.last().expect("rate grid non-empty").1;
    assert!(
        below.iter().all(|o| o.latency_p999 == 0),
        "below capacity every arrival must be served the tick it lands"
    );
    assert!(
        above
            .iter()
            .all(|o| o.latency_p999 > 50 && o.drain_ticks > 0),
        "past capacity the tail and the backlog must grow without bound"
    );
    assert!(
        above.iter().map(|o| o.completed_in_horizon).sum::<u64>() * 2
            < above.iter().map(|o| o.offered).sum::<u64>(),
        "past capacity achieved throughput must flatten while offered climbs"
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ids_resolve() {
        // Smoke-test the dispatcher without running the heavy grids.
        assert_eq!(ALL_IDS.len(), 23);
    }

    #[test]
    fn e19_mux_beats_separate_frames() {
        // The topic plane's acceptance claim: the A/B harness itself
        // asserts frames(mux) < frames(separate) at equal message counts
        // — running it IS the test — and both arms stay correct.
        let tables = e19_mux_vs_separate();
        let rendered = tables[0].render();
        assert!(rendered.contains("multiplexed"), "{rendered}");
        assert!(!rendered.contains("false"), "{rendered}");
    }

    #[test]
    fn e17_parity_holds_for_the_whole_corpus() {
        // Cheap enough to regenerate in tests, and it is the acceptance
        // gate for the scenario plane: every corpus row must read
        // `true true`.
        let tables = e17_spec_parity();
        let rendered = tables[0].render();
        assert!(!rendered.contains("false"), "{rendered}");
        assert!(rendered.contains("partition_heal"));
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let _ = run_experiment("e99");
    }

    #[test]
    fn open_loop_grid_shapes_and_seed_sharing() {
        // E22: topic cells share their derived seeds (the flat-cost pin
        // needs identical arrival streams across cells).
        let g = open_loop_grid("e22", 7, 2, None, None);
        assert_eq!(g.len(), 6, "3 topic cells × 2 seeds");
        assert_eq!(g[0].seed, g[2].seed, "cells share seeds");
        assert_eq!(g[0].seed, g[4].seed);
        assert_ne!(g[0].seed, g[1].seed, "seed index still varies");
        assert_eq!(g[4].topics, 100_000);
        // E23: rate cells get distinct seeds (independent sweep points).
        let g = open_loop_grid("e23", 7, 2, None, None);
        assert_eq!(g.len(), 10, "5 rate cells × 2 seeds");
        assert_ne!(g[0].seed, g[2].seed);
        assert_eq!(g[8].rate_per_ktick, 8_000);
        // Overrides replace the default grids.
        let g = open_loop_grid("e23", 7, 1, None, Some(&[123]));
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].rate_per_ktick, 123);
        let g = open_loop_grid("e22", 7, 1, Some(&[5]), None);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].topics, 5);
    }

    #[test]
    #[should_panic(expected = "unknown open-loop experiment")]
    fn open_loop_grid_rejects_sim_ids() {
        let _ = open_loop_grid("e21", 1, 1, None, None);
    }

    #[test]
    fn e2_impossibility_small() {
        // The impossibility table is cheap enough to regenerate in tests:
        // the weakened arm must violate agreement, the control must block.
        let tables = e2_impossibility();
        let rendered = tables[0].render();
        assert!(rendered.contains("E2"));
        assert!(!tables[0].is_empty());
    }

    #[test]
    fn percentile_picks_nearest_rank() {
        let v = [10u64, 20, 30, 40, 50];
        assert_eq!(percentile(&v, 0.0), 10);
        assert_eq!(percentile(&v, 0.5), 30);
        assert_eq!(percentile(&v, 0.99), 50);
        assert_eq!(percentile(&[], 0.5), 0);
    }
}
