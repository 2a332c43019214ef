//! The benchmark-trajectory subsystem: machine-readable perf history.
//!
//! `urb bench --json BENCH_PR<k>.json` runs a **reduced, fixed grid** for
//! every experiment id ([`crate::experiments::ALL_IDS`]) and emits one
//! schema-versioned JSON file — the repo's perf trajectory. Each PR archives one such file; diffing
//! two of them answers "what did this PR do to throughput, latency and
//! allocation behaviour?" without re-running anything (DESIGN.md §10
//! documents the schema and how to read a diff).
//!
//! Everything in the file is **deterministic for a fixed seed**: the
//! grids are pure functions of `(id, seed)`, every reported number is
//! derived from simulated time (ticks), counts, or trace hashes — never
//! from the wall clock — and the serial and parallel collectors produce
//! byte-identical files (asserted in tests; the executor guarantees
//! run-level parity). The one exception is `allocs_per_run`, which is
//! `null` unless the `count-allocs` feature is enabled.

use crate::alloc_count::count_allocations;
use crate::experiments::percentile;
use crate::report;
use crate::table::{f3, Table};
use std::fmt::Write as _;
use urb_core::Algorithm;
use urb_fd::HeartbeatConfig;
use urb_sim::sim::FdKind;
use urb_sim::spec::{self, ScenarioSpec};
use urb_sim::{scenario, LossModel, RunOutcome, SimConfig};
use urb_types::MemoryConfig;

/// Envelope `kind` of a trajectory file.
pub const KIND: &str = "bench-trajectory";

/// What to collect. [`TrajectoryConfig::full`] is what `urb bench` runs
/// by default; CI's smoke job narrows `ids` and `seeds_per_cell`.
#[derive(Clone, Debug)]
pub struct TrajectoryConfig {
    /// Root seed; every run's seed derives from it and the grid cell.
    pub seed: u64,
    /// Seeds per grid cell (3 keeps the full trajectory under a minute
    /// in release builds; bump for tighter numbers).
    pub seeds_per_cell: u64,
    /// Experiment ids to cover (a subset of
    /// [`crate::experiments::ALL_IDS`]).
    pub ids: Vec<String>,
    /// Override of E22's topic-count grid (`None` = the pinned default
    /// `[1, 1k, 100k]` the committed trajectory files use).
    pub load_topics: Option<Vec<u32>>,
    /// Override of E23's offered-load grid in arrivals per kilotick
    /// (`None` = the pinned default sweep across the capacity knee).
    pub rates: Option<Vec<u64>>,
}

impl TrajectoryConfig {
    /// The full trajectory: every experiment id, 3 seeds per cell, the
    /// pinned open-loop grids.
    pub fn full(seed: u64) -> Self {
        TrajectoryConfig {
            seed,
            seeds_per_cell: 3,
            ids: crate::experiments::ALL_IDS
                .iter()
                .map(|s| s.to_string())
                .collect(),
            load_topics: None,
            rates: None,
        }
    }
}

/// One experiment's aggregated, deterministic measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct ExperimentPoint {
    /// Experiment id (one of [`crate::experiments::ALL_IDS`]).
    pub id: String,
    /// Simulated runs aggregated into this point.
    pub runs: u64,
    /// Runs on which every applicable URB property (and FD audit) held.
    pub urb_ok: u64,
    /// URB deliveries across all runs.
    pub deliveries: u64,
    /// MSG+ACK transmissions across all runs.
    pub transmissions: u64,
    /// Transmission copies dropped by channels.
    pub dropped: u64,
    /// Delivery-latency percentiles in simulated ticks (0 when no
    /// deliveries, e.g. the blocking arm of E2).
    pub latency_p50: u64,
    /// 90th percentile.
    pub latency_p90: u64,
    /// 99th percentile.
    pub latency_p99: u64,
    /// Mean simulated end time per run, ticks.
    pub mean_end_time: u64,
    /// Protocol transmissions per 1000 simulated ticks — the
    /// wall-clock-free throughput figure.
    pub throughput_per_ktick: f64,
    /// Batch-pool hit rate across the runs (routed sub-batches served
    /// without allocating — the pooled-buffer claim, per experiment).
    pub pool_hit_rate: f64,
    /// Heap allocations per run (`None` without `count-allocs`).
    pub allocs_per_run: Option<f64>,
    /// Order-sensitive fold of the runs' determinism hashes: two
    /// trajectories with equal fingerprints replayed identical events.
    pub trace_fingerprint: u64,
}

/// A full trajectory: one [`ExperimentPoint`] per requested id.
#[derive(Clone, Debug, PartialEq)]
pub struct Trajectory {
    /// Root seed the grids derived from.
    pub seed: u64,
    /// Seeds per cell used.
    pub seeds_per_cell: u64,
    /// The measurements, in request order.
    pub points: Vec<ExperimentPoint>,
}

/// How to execute the grid runs. The two modes must produce identical
/// trajectories (runs are pure functions of their config); the parity
/// test pins it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// One run at a time through [`urb_sim::run`].
    Serial,
    /// All of a cell's runs fanned across cores via [`urb_sim::run_many`].
    Parallel,
}

/// Collects the trajectory, fanning each experiment's grid across all
/// cores.
pub fn collect(cfg: &TrajectoryConfig) -> Trajectory {
    collect_with(cfg, ExecMode::Parallel)
}

/// Collects with an explicit execution mode (parity testing; the CLI
/// always uses [`collect`]).
pub fn collect_with(cfg: &TrajectoryConfig, mode: ExecMode) -> Trajectory {
    let points = cfg
        .ids
        .iter()
        .map(|id| {
            if id == "e22" || id == "e23" {
                return open_loop_point(id, cfg);
            }
            let configs = grid(id, cfg.seed, cfg.seeds_per_cell);
            let runs = configs.len() as u64;
            let (outcomes, allocs) = count_allocations(|| match mode {
                ExecMode::Serial => configs.into_iter().map(urb_sim::run).collect::<Vec<_>>(),
                ExecMode::Parallel => urb_sim::run_many(configs),
            });
            aggregate(id, runs, &outcomes, allocs.map(|a| a as f64 / runs as f64))
        })
        .collect();
    Trajectory {
        seed: cfg.seed,
        seeds_per_cell: cfg.seeds_per_cell,
        points,
    }
}

/// Collects one open-loop point (E22/E23 — DESIGN.md §16). Open-loop
/// runs step engines directly (no event-queue `SimConfig`), so they
/// bypass the sim executor; `open_loop` is a pure function of its
/// config, which makes the serial and parallel collectors trivially
/// identical here and keeps the whole-trajectory parity pin intact.
/// Every emitted number reuses the existing point schema — the
/// append-only guarantee: no new required fields, new ids only.
fn open_loop_point(id: &str, cfg: &TrajectoryConfig) -> ExperimentPoint {
    let cells = crate::experiments::open_loop_grid(
        id,
        cfg.seed,
        cfg.seeds_per_cell,
        cfg.load_topics.as_deref(),
        cfg.rates.as_deref(),
    );
    let runs = cells.len() as u64;
    let horizons: Vec<u64> = cells.iter().map(|c| c.ticks).collect();
    let (outcomes, allocs) = count_allocations(|| {
        cells
            .into_iter()
            .map(urb_sim::open_loop)
            .collect::<Vec<_>>()
    });
    // `urb_ok` here means the open-loop contract held: every offered
    // arrival was injected and completed (URB validity observed at the
    // origin, with the drain phase guaranteeing termination).
    let urb_ok = outcomes
        .iter()
        .filter(|o| o.offered == o.injected && o.offered == o.completed)
        .count() as u64;
    let deliveries: u64 = outcomes.iter().map(|o| o.deliveries).sum();
    let transmissions: u64 = outcomes.iter().map(|o| o.transmissions).sum();
    // Percentiles are worst-across-cells: each cell's distribution is
    // exact (simulated ticks), and the max is the deterministic scalar
    // that moves first when a load point crosses the knee.
    let max = |f: fn(&urb_sim::OpenLoopOutcome) -> u64| outcomes.iter().map(f).max().unwrap_or(0);
    let total_ticks: u64 = outcomes
        .iter()
        .zip(&horizons)
        .map(|(o, h)| h + o.drain_ticks)
        .sum();
    let mut fingerprint = 0u64;
    for o in &outcomes {
        for &h in &o.delivery_hashes {
            fingerprint = fingerprint.rotate_left(7) ^ h;
        }
        fingerprint = fingerprint.rotate_left(11) ^ o.latency_p999 ^ (o.drain_ticks << 32);
    }
    ExperimentPoint {
        id: id.to_string(),
        runs,
        urb_ok,
        deliveries,
        transmissions,
        dropped: 0, // the open-loop network is lossless by construction
        latency_p50: max(|o| o.latency_p50),
        latency_p90: max(|o| o.latency_p90),
        latency_p99: max(|o| o.latency_p99),
        mean_end_time: total_ticks / runs.max(1),
        throughput_per_ktick: transmissions as f64 * 1000.0 / total_ticks.max(1) as f64,
        // No pooled batch plane in the direct-stepping harness; 0 keeps
        // the field honest rather than vacuously perfect.
        pool_hit_rate: 0.0,
        allocs_per_run: allocs.map(|a| a as f64 / runs.max(1) as f64),
        trace_fingerprint: fingerprint,
    }
}

fn aggregate(
    id: &str,
    runs: u64,
    outcomes: &[RunOutcome],
    allocs_per_run: Option<f64>,
) -> ExperimentPoint {
    let urb_ok = outcomes.iter().filter(|o| o.all_ok()).count() as u64;
    let deliveries: u64 = outcomes
        .iter()
        .map(|o| o.metrics.deliveries.len() as u64)
        .sum();
    let transmissions: u64 = outcomes.iter().map(|o| o.metrics.protocol_sends()).sum();
    let dropped: u64 = outcomes
        .iter()
        .map(|o| o.metrics.dropped.iter().sum::<u64>())
        .sum();
    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.metrics.latencies())
        .collect();
    latencies.sort_unstable();
    let total_ticks: u64 = outcomes.iter().map(|o| o.metrics.ended_at).sum();
    let (acquired, recycled) = outcomes.iter().fold((0u64, 0u64), |(a, r), o| {
        (a + o.batch_pool.acquired, r + o.batch_pool.recycled)
    });
    let mut fingerprint = 0u64;
    for o in outcomes {
        fingerprint = fingerprint.rotate_left(7) ^ o.metrics.trace_hash;
    }
    ExperimentPoint {
        id: id.to_string(),
        runs,
        urb_ok,
        deliveries,
        transmissions,
        dropped,
        latency_p50: percentile(&latencies, 0.50),
        latency_p90: percentile(&latencies, 0.90),
        latency_p99: percentile(&latencies, 0.99),
        mean_end_time: total_ticks / runs.max(1),
        throughput_per_ktick: transmissions as f64 * 1000.0 / total_ticks.max(1) as f64,
        pool_hit_rate: recycled as f64 / acquired.max(1) as f64,
        allocs_per_run,
        trace_fingerprint: fingerprint,
    }
}

/// The reduced, fixed grid for one experiment id — a pure function of
/// `(id, seed, seeds)`, deliberately smaller than the full E-suite grids
/// (this is a *trajectory* sample, not the paper-validation run).
pub fn grid(id: &str, seed: u64, seeds: u64) -> Vec<SimConfig> {
    let mut cfgs: Vec<SimConfig> = Vec::new();
    // Fully wrapping: user-supplied seeds may sit anywhere in u64, and
    // debug builds must derive the same runs release builds do.
    let derive = |cell: u64, s: u64| {
        seed.wrapping_mul(9973)
            .wrapping_add(cell.wrapping_mul(131))
            .wrapping_add(s)
    };
    match id {
        "e1" => {
            for (cell, &(n, loss)) in [(4usize, 0.0f64), (4, 0.2), (8, 0.0), (8, 0.2)]
                .iter()
                .enumerate()
            {
                for s in 0..seeds {
                    cfgs.push(scenario::lossy_crashy(
                        n,
                        Algorithm::Majority,
                        loss,
                        1,
                        2,
                        derive(cell as u64, s),
                    ));
                }
            }
        }
        "e2" => {
            for s in 0..seeds {
                let mut a = scenario::theorem2_partition(4, derive(0, s));
                a.max_time = 15_000;
                cfgs.push(a);
                let mut b = scenario::theorem2_control(4, derive(1, s));
                b.max_time = 15_000;
                cfgs.push(b);
            }
        }
        "e3" => {
            for (cell, &t) in [0usize, 4].iter().enumerate() {
                for s in 0..seeds {
                    cfgs.push(scenario::lossy_crashy(
                        5,
                        Algorithm::Quiescent,
                        0.2,
                        t,
                        2,
                        derive(cell as u64, s),
                    ));
                }
            }
        }
        "e4" => {
            for (cell, alg) in [Algorithm::Majority, Algorithm::Quiescent]
                .into_iter()
                .enumerate()
            {
                for s in 0..seeds {
                    cfgs.push(scenario::quiescence_watch(
                        6,
                        alg,
                        0.2,
                        3,
                        20_000,
                        derive(cell as u64, s),
                    ));
                }
            }
        }
        "e5" => {
            for (cell, &(alg, loss)) in [
                (Algorithm::Majority, 0.1f64),
                (Algorithm::Majority, 0.3),
                (Algorithm::Quiescent, 0.1),
                (Algorithm::Quiescent, 0.3),
            ]
            .iter()
            .enumerate()
            {
                for s in 0..seeds {
                    let mut cfg =
                        scenario::lossy_crashy(8, alg, loss, 0, 2, derive(cell as u64, s));
                    cfg.max_time = 40_000;
                    cfgs.push(cfg);
                }
            }
        }
        "e8" => {
            for s in 0..seeds {
                let mut cfg = SimConfig::new(6, Algorithm::Quiescent)
                    .seed(derive(0, s))
                    .loss(LossModel::Bernoulli { p: 0.1 })
                    .workload(2, 100)
                    .max_time(40_000);
                cfg.fd = FdKind::Heartbeat(HeartbeatConfig {
                    period: 20,
                    timeout: 120,
                });
                cfgs.push(cfg);
            }
        }
        "e9" => {
            for (cell, alg) in [Algorithm::Majority, Algorithm::Quiescent]
                .into_iter()
                .enumerate()
            {
                for s in 0..seeds {
                    cfgs.push(scenario::memory_stream(
                        4,
                        alg,
                        10,
                        15_000,
                        derive(cell as u64, s),
                    ));
                }
            }
        }
        "e10" => {
            for s in 0..seeds {
                cfgs.push(scenario::fast_delivery(6, derive(0, s)));
            }
        }
        "e11" => {
            for (cell, alg) in [
                Algorithm::BestEffort,
                Algorithm::EagerRb,
                Algorithm::Majority,
            ]
            .into_iter()
            .enumerate()
            {
                for s in 0..seeds {
                    let mut cfg = SimConfig::new(6, alg)
                        .seed(derive(cell as u64, s))
                        .loss(LossModel::Bernoulli { p: 0.2 })
                        .workload(2, 100)
                        .max_time(30_000);
                    cfg.stop_on_full_delivery = true;
                    cfgs.push(cfg);
                }
            }
        }
        "e12" => {
            for (cell, alg) in [Algorithm::Quiescent, Algorithm::QuiescentLiteral]
                .into_iter()
                .enumerate()
            {
                for s in 0..seeds {
                    cfgs.push(scenario::stale_acker(alg, 30_000, derive(cell as u64, s)));
                }
            }
        }
        "e13" => {
            for (cell, alg) in [Algorithm::Majority, Algorithm::MajorityBackoff { cap: 16 }]
                .into_iter()
                .enumerate()
            {
                for s in 0..seeds {
                    let mut cfg = SimConfig::new(6, alg)
                        .seed(derive(cell as u64, s))
                        .loss(LossModel::Bernoulli { p: 0.2 })
                        .workload(2, 100)
                        .max_time(15_000);
                    cfg.stop_on_quiescence = false;
                    cfgs.push(cfg);
                }
            }
        }
        "e17" => {
            // The scenario corpus, each spec once at its own seed (the
            // parity/fingerprint sample).
            //
            // Pinned to the corpus as of BENCH_PR3: trajectory grids are
            // append-only — corpus *additions* (e.g. the topic-plane
            // scenarios) get their own experiments, so existing grid
            // points stay byte-comparable across PRs forever.
            const PINNED: [&str; 8] = [
                "clean_smoke",
                "lossy_crashes",
                "partition_heal",
                "ack_starvation",
                "churn",
                "crash_storm",
                "targeted_delay",
                "theorem2_violation",
            ];
            for (name, text) in spec::corpus() {
                if PINNED.contains(&name) {
                    let sp = ScenarioSpec::from_toml_str(text)
                        .unwrap_or_else(|e| panic!("corpus {name}: {e}"));
                    cfgs.push(
                        sp.compile()
                            .unwrap_or_else(|e| panic!("corpus {name}: {e}")),
                    );
                }
            }
        }
        "e18" => {
            // Topic-count scaling on the reduced grid (DESIGN.md §12).
            for (cell, &topics) in [1u32, 2, 4].iter().enumerate() {
                for s in 0..seeds {
                    cfgs.push(
                        SimConfig::new(4, Algorithm::Quiescent)
                            .topics(topics)
                            .seed(derive(cell as u64, s))
                            .workload_topics(6, 50)
                            .max_time(200_000),
                    );
                }
            }
        }
        "e20" => {
            // Bounded-memory plane (DESIGN.md §14): the identical lossy
            // workload with compaction off (cell 0) and on (cell 1). New
            // in this PR — e20 points have no counterpart in earlier
            // trajectory files, so existing diff overlaps are untouched.
            let bounded = MemoryConfig {
                ceiling: Some(600),
                ..MemoryConfig::default()
            };
            for (cell, mem) in [None, Some(bounded)].into_iter().enumerate() {
                for s in 0..seeds {
                    let mut cfg = SimConfig::new(4, Algorithm::Quiescent)
                        .seed(derive(cell as u64, s))
                        .loss(LossModel::Bernoulli { p: 0.1 })
                        .workload(3, 50)
                        .max_time(200_000);
                    if let Some(m) = mem {
                        cfg = cfg.memory(m);
                    }
                    cfg.stop_on_quiescence = true;
                    cfgs.push(cfg);
                }
            }
        }
        "e21" => {
            // Dynamic-topic churn (DESIGN.md §15): one create/retire
            // generation per cell-0 run, three per cell-1 run. New in this
            // PR — e21 points have no counterpart in earlier trajectory
            // files, so existing diff overlaps are untouched.
            for (cell, &gens) in [1u32, 3].iter().enumerate() {
                for s in 0..seeds {
                    cfgs.push(crate::experiments::churn_config(
                        4,
                        gens,
                        derive(cell as u64, s),
                    ));
                }
            }
        }
        "e22" | "e23" => panic!(
            "{id} is an open-loop experiment: it has no SimConfig grid — \
             cells come from crate::experiments::open_loop_grid"
        ),
        other => panic!("unknown experiment id {other:?}"),
    }
    cfgs
}

impl Trajectory {
    /// The complete trajectory file: body wrapped in the shared envelope
    /// (`schema_version`, `kind`, `seed`, `git_rev` — see
    /// [`crate::report`]).
    pub fn to_json(&self) -> String {
        report::envelope(KIND, self.seed, &self.body_json())
    }

    /// The `data` body alone.
    fn body_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.points.len() * 384);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"seeds_per_cell\": {},", self.seeds_per_cell);
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"id\": \"{}\",", serde_json::escape(&p.id));
            let _ = writeln!(out, "      \"runs\": {},", p.runs);
            let _ = writeln!(out, "      \"urb_ok\": {},", p.urb_ok);
            let _ = writeln!(out, "      \"deliveries\": {},", p.deliveries);
            let _ = writeln!(out, "      \"transmissions\": {},", p.transmissions);
            let _ = writeln!(out, "      \"dropped\": {},", p.dropped);
            let _ = writeln!(out, "      \"latency_p50\": {},", p.latency_p50);
            let _ = writeln!(out, "      \"latency_p90\": {},", p.latency_p90);
            let _ = writeln!(out, "      \"latency_p99\": {},", p.latency_p99);
            let _ = writeln!(out, "      \"mean_end_time\": {},", p.mean_end_time);
            let _ = writeln!(
                out,
                "      \"throughput_per_ktick\": {:?},",
                p.throughput_per_ktick
            );
            let _ = writeln!(out, "      \"pool_hit_rate\": {:?},", p.pool_hit_rate);
            let _ = writeln!(
                out,
                "      \"allocs_per_run\": {},",
                p.allocs_per_run
                    .map_or("null".to_string(), |a| format!("{a:?}"))
            );
            let _ = writeln!(out, "      \"trace_fingerprint\": {}", p.trace_fingerprint);
            let _ = write!(
                out,
                "    }}{}",
                if i + 1 < self.points.len() {
                    ",\n"
                } else {
                    "\n"
                }
            );
        }
        out.push_str("  ]\n}");
        out
    }

    /// Human summary (the default `urb bench` stdout).
    pub fn summary_table(&self) -> Table {
        let mut t = Table::new(
            "bench trajectory — reduced grids, deterministic per seed",
            &[
                "id",
                "runs",
                "URB ok",
                "tx/ktick",
                "p50",
                "p99",
                "pool hits",
                "fingerprint",
            ],
        );
        for p in &self.points {
            t.row(vec![
                p.id.clone(),
                p.runs.to_string(),
                format!("{}/{}", p.urb_ok, p.runs),
                f3(p.throughput_per_ktick),
                p.latency_p50.to_string(),
                p.latency_p99.to_string(),
                f3(p.pool_hit_rate),
                format!("{:#018x}", p.trace_fingerprint),
            ]);
        }
        t
    }
}

/// Validates a trajectory file against the documented schema
/// (DESIGN.md §10). Returns every violation found, so CI output names
/// all problems at once; an empty `Ok(())` means the file conforms.
pub fn validate_json(text: &str) -> Result<(), String> {
    let v: serde_json::Value =
        serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let mut errors: Vec<String> = Vec::new();
    let mut check = |cond: bool, msg: &str| {
        if !cond {
            errors.push(msg.to_string());
        }
    };
    check(
        v["schema_version"].as_u64() == Some(report::SCHEMA_VERSION as u64),
        "schema_version must be 1",
    );
    check(
        v["kind"].as_str() == Some(KIND),
        "kind must be \"bench-trajectory\"",
    );
    check(
        v["seed"].as_u64().is_some(),
        "seed must be an unsigned integer",
    );
    check(
        v["git_rev"].as_str().is_some_and(|s| !s.is_empty()),
        "git_rev must be a non-empty string",
    );
    let data = &v["data"];
    check(
        data["seeds_per_cell"].as_u64().is_some(),
        "data.seeds_per_cell must be an unsigned integer",
    );
    match data["points"].as_array() {
        None => errors.push("data.points must be an array".to_string()),
        Some(points) => {
            if points.is_empty() {
                errors.push("data.points must not be empty".to_string());
            }
            for (i, p) in points.iter().enumerate() {
                let mut field = |name: &str, ok: bool| {
                    if !ok {
                        errors.push(format!("points[{i}].{name} missing or mistyped"));
                    }
                };
                field("id", p["id"].as_str().is_some_and(|s| s.starts_with('e')));
                for key in [
                    "runs",
                    "urb_ok",
                    "deliveries",
                    "transmissions",
                    "dropped",
                    "latency_p50",
                    "latency_p90",
                    "latency_p99",
                    "mean_end_time",
                    "trace_fingerprint",
                ] {
                    field(key, p[key].as_u64().is_some());
                }
                for key in ["throughput_per_ktick", "pool_hit_rate"] {
                    field(key, p[key].as_f64().is_some());
                }
                field(
                    "allocs_per_run",
                    p["allocs_per_run"].is_null() || p["allocs_per_run"].as_f64().is_some(),
                );
                field("runs > 0", p["runs"].as_u64().is_some_and(|r| r > 0));
                // The diff pairs points by id, so a repeated id would
                // hide its second point from the gate.
                let id = p["id"].as_str();
                if let Some(first) = points[..i]
                    .iter()
                    .position(|q| id.is_some() && q["id"].as_str() == id)
                {
                    errors.push(format!("points[{i}].id repeats points[{first}].id"));
                }
            }
        }
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("; "))
    }
}

/// One exact-match failure on an overlapping grid point.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointMismatch {
    /// Experiment id.
    pub id: String,
    /// The deterministic count metric that diverged.
    pub field: &'static str,
    /// Value in the old file.
    pub old: u64,
    /// Value in the new file.
    pub new: u64,
}

/// Result of diffing two trajectory files (`urb bench --diff`).
///
/// Grid points **overlap** when both files were collected with the same
/// root seed and seeds-per-cell and share an experiment id; on
/// overlapping points every deterministic count metric (runs, verdicts,
/// traffic, latency percentiles, end times, trace fingerprints) must
/// match *exactly* — the grids are pure functions of `(id, seed)`, so
/// any divergence is a behaviour change, not noise. Derived float
/// metrics are reported for context, never gated on.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Both files used the same `(seed, seeds_per_cell)` — without this
    /// no point overlaps and the diff cannot gate anything.
    pub comparable: bool,
    /// Ids whose overlapping points matched exactly.
    pub matched: Vec<String>,
    /// Every exact-match failure (all fields of all points, so one diff
    /// run names every problem).
    pub mismatches: Vec<PointMismatch>,
    /// Ids only present in the old file.
    pub only_old: Vec<String>,
    /// Ids only present in the new file.
    pub only_new: Vec<String>,
}

impl DiffReport {
    /// The gate: comparable, at least one overlapping point, no
    /// mismatch.
    pub fn is_clean(&self) -> bool {
        self.comparable && self.mismatches.is_empty() && !self.matched.is_empty()
    }

    /// Human rendering (one line per finding).
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.comparable {
            out.push_str("not comparable: the files differ in seed or seeds_per_cell\n");
            return out;
        }
        for id in &self.matched {
            let _ = writeln!(out, "  {id}: OK (all count metrics identical)");
        }
        for m in &self.mismatches {
            let _ = writeln!(
                out,
                "  {}: {} diverged — old {}, new {}",
                m.id, m.field, m.old, m.new
            );
        }
        for id in &self.only_old {
            let _ = writeln!(out, "  {id}: only in old file (not compared)");
        }
        for id in &self.only_new {
            let _ = writeln!(out, "  {id}: only in new file (not compared)");
        }
        if self.matched.is_empty() && self.mismatches.is_empty() {
            out.push_str("  no overlapping grid points\n");
        }
        out
    }
}

/// The deterministic count metrics gated by [`diff_json`].
pub const COUNT_METRICS: [&str; 10] = [
    "runs",
    "urb_ok",
    "deliveries",
    "transmissions",
    "dropped",
    "latency_p50",
    "latency_p90",
    "latency_p99",
    "mean_end_time",
    "trace_fingerprint",
];

/// Diffs two trajectory files. Both must validate against the schema;
/// see [`DiffReport`] for the comparison semantics.
pub fn diff_json(old_text: &str, new_text: &str) -> Result<DiffReport, String> {
    validate_json(old_text).map_err(|e| format!("old file: {e}"))?;
    validate_json(new_text).map_err(|e| format!("new file: {e}"))?;
    let old: serde_json::Value = serde_json::from_str(old_text).expect("validated above");
    let new: serde_json::Value = serde_json::from_str(new_text).expect("validated above");
    let mut report = DiffReport {
        comparable: old["seed"].as_u64() == new["seed"].as_u64()
            && old["data"]["seeds_per_cell"].as_u64() == new["data"]["seeds_per_cell"].as_u64(),
        ..DiffReport::default()
    };
    if !report.comparable {
        return Ok(report);
    }
    let points = |v: &serde_json::Value| -> Vec<serde_json::Value> {
        v["data"]["points"].as_array().expect("validated").clone()
    };
    let old_points = points(&old);
    let new_points = points(&new);
    let find = |list: &[serde_json::Value], id: &str| -> Option<serde_json::Value> {
        list.iter().find(|p| p["id"].as_str() == Some(id)).cloned()
    };
    for p in &old_points {
        let id = p["id"].as_str().expect("validated").to_string();
        let Some(q) = find(&new_points, &id) else {
            report.only_old.push(id);
            continue;
        };
        let mut clean = true;
        for field in COUNT_METRICS {
            let (a, b) = (p[field].as_u64(), q[field].as_u64());
            if a != b {
                clean = false;
                report.mismatches.push(PointMismatch {
                    id: id.clone(),
                    field,
                    old: a.unwrap_or(0),
                    new: b.unwrap_or(0),
                });
            }
        }
        if clean {
            report.matched.push(id);
        }
    }
    for q in &new_points {
        let id = q["id"].as_str().expect("validated");
        if find(&old_points, id).is_none() {
            report.only_new.push(id.to_string());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TrajectoryConfig {
        TrajectoryConfig {
            seed: 5,
            seeds_per_cell: 1,
            ids: vec!["e1".into(), "e11".into()],
            load_topics: None,
            rates: None,
        }
    }

    /// `allocs_per_run` comes from the process-wide allocation counter: with
    /// `count-allocs` on it sees the thread pool's allocations and those of
    /// whatever test runs beside this one. Everything *measured from the
    /// runs* must be identical; that field is scrubbed before comparing.
    fn scrub(mut t: Trajectory) -> Trajectory {
        for p in &mut t.points {
            p.allocs_per_run = None;
        }
        t
    }

    #[test]
    fn deterministic_for_a_fixed_seed() {
        let a = scrub(collect(&tiny()));
        let b = scrub(collect(&tiny()));
        assert_eq!(a, b);
        std::env::set_var("URB_GIT_REV", "test-rev-0001");
        assert_eq!(a.to_json(), b.to_json(), "byte-identical files");
        std::env::remove_var("URB_GIT_REV");
        let mut other = tiny();
        other.seed = 6;
        assert_ne!(
            collect(&other).points[0].trace_fingerprint,
            a.points[0].trace_fingerprint
        );
    }

    #[test]
    fn serial_and_parallel_collectors_agree() {
        let cfg = tiny();
        let serial = collect_with(&cfg, ExecMode::Serial);
        let parallel = collect_with(&cfg, ExecMode::Parallel);
        assert_eq!(scrub(serial), scrub(parallel));
    }

    #[test]
    fn emitted_json_validates_and_carries_the_envelope() {
        let t = collect(&tiny());
        let json = t.to_json();
        validate_json(&json).expect("fresh trajectory conforms to its own schema");
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["kind"], KIND);
        assert_eq!(v["seed"], 5);
        assert_eq!(v["data"]["points"].as_array().unwrap().len(), 2);
        assert_eq!(v["data"]["points"][0]["id"], "e1");
        assert!(v["data"]["points"][0]["urb_ok"].as_u64().unwrap() > 0);
    }

    #[test]
    fn validator_rejects_broken_files() {
        assert!(validate_json("not json").is_err());
        assert!(validate_json("{}").unwrap_err().contains("schema_version"));
        let t = collect(&tiny());
        let good = t.to_json();
        let bad = good.replace("\"kind\": \"bench-trajectory\"", "\"kind\": \"nonsense\"");
        assert!(validate_json(&bad).unwrap_err().contains("kind"));
        let bad = good.replace("\"runs\":", "\"runs_gone\":");
        assert!(validate_json(&bad).unwrap_err().contains("runs"));
        // tiny() collects e1 then e11; naming both e1 repeats an id.
        let twice = good.replace("\"id\": \"e11\"", "\"id\": \"e1\"");
        assert_ne!(twice, good);
        assert_eq!(
            validate_json(&twice).unwrap_err(),
            "points[1].id repeats points[0].id"
        );
        assert!(diff_json(&good, &twice).unwrap_err().contains("repeats"));
    }

    #[test]
    fn diff_accepts_identical_and_overlapping_files() {
        std::env::set_var("URB_GIT_REV", "diff-test");
        let full = collect(&tiny()).to_json();
        let narrow = collect(&TrajectoryConfig {
            ids: vec!["e1".into()],
            ..tiny()
        })
        .to_json();
        std::env::remove_var("URB_GIT_REV");
        let same = diff_json(&full, &full).unwrap();
        assert!(same.is_clean(), "{}", same.render());
        assert_eq!(same.matched, vec!["e1".to_string(), "e11".to_string()]);
        // Subset grids still gate on the shared points.
        let sub = diff_json(&full, &narrow).unwrap();
        assert!(sub.is_clean(), "{}", sub.render());
        assert_eq!(sub.matched, vec!["e1".to_string()]);
        assert_eq!(sub.only_old, vec!["e11".to_string()]);
    }

    #[test]
    fn diff_flags_count_metric_divergence() {
        std::env::set_var("URB_GIT_REV", "diff-test");
        let a = collect(&tiny()).to_json();
        std::env::remove_var("URB_GIT_REV");
        let needle = "\"transmissions\": ";
        let start = a.find(needle).unwrap() + needle.len();
        let end = a[start..].find(',').unwrap() + start;
        let b = format!("{}{}{}", &a[..start], 123456789u64, &a[end..]);
        let report = diff_json(&a, &b).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.mismatches[0].field, "transmissions");
        assert!(report.render().contains("transmissions diverged"));
    }

    #[test]
    fn diff_refuses_incomparable_grids_and_broken_files() {
        std::env::set_var("URB_GIT_REV", "diff-test");
        let a = collect(&tiny()).to_json();
        let other = collect(&TrajectoryConfig { seed: 6, ..tiny() }).to_json();
        std::env::remove_var("URB_GIT_REV");
        let report = diff_json(&a, &other).unwrap();
        assert!(!report.comparable);
        assert!(!report.is_clean());
        assert!(report.render().contains("not comparable"));
        assert!(diff_json("junk", &a).unwrap_err().contains("old file"));
        assert!(diff_json(&a, "junk").unwrap_err().contains("new file"));
    }

    #[test]
    fn every_experiment_id_has_a_grid() {
        for id in crate::experiments::ALL_IDS {
            if id == "e22" || id == "e23" {
                let cells = crate::experiments::open_loop_grid(id, 1, 1, None, None);
                assert!(!cells.is_empty(), "{id} open-loop grid empty");
                continue;
            }
            let g = grid(id, 1, 1);
            assert!(!g.is_empty(), "{id} grid empty");
        }
    }

    #[test]
    #[should_panic(expected = "open-loop experiment")]
    fn sim_grid_refuses_open_loop_ids() {
        let _ = grid("e22", 1, 1);
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_id_panics() {
        let _ = grid("e99", 1, 1);
    }

    #[test]
    fn open_loop_points_collect_with_parity_and_validate() {
        // Scaled-down open-loop grids (override flags) so the debug test
        // stays fast; the committed trajectory uses the pinned defaults.
        let cfg = TrajectoryConfig {
            seed: 5,
            seeds_per_cell: 1,
            ids: vec!["e22".into(), "e23".into()],
            load_topics: Some(vec![1, 64]),
            rates: Some(vec![500, 9_000]),
        };
        let t = collect(&cfg);
        assert_eq!(t.points.len(), 2);
        let e22 = &t.points[0];
        assert_eq!(e22.id, "e22");
        assert_eq!(e22.runs, 2, "two topic cells × one seed");
        assert_eq!(e22.urb_ok, 2, "every offered arrival completes");
        assert_eq!(e22.dropped, 0, "the open-loop network is lossless");
        assert!(e22.deliveries > 0);
        let e23 = &t.points[1];
        assert_eq!(e23.id, "e23");
        assert!(
            e23.latency_p99 > 0,
            "the past-capacity cell must push the tail off the floor"
        );
        // Serial/parallel parity extends to the open-loop branch.
        let scrub = |mut t: Trajectory| {
            for p in &mut t.points {
                p.allocs_per_run = None;
            }
            t
        };
        assert_eq!(
            scrub(collect_with(&cfg, ExecMode::Serial)),
            scrub(collect_with(&cfg, ExecMode::Parallel))
        );
        // The new points ride the existing schema unchanged.
        validate_json(&t.to_json()).expect("open-loop points conform to the point schema");
    }

    #[test]
    fn summary_table_renders_every_point() {
        let t = collect(&tiny());
        let rendered = t.summary_table().render();
        assert!(rendered.contains("e1"));
        assert!(rendered.contains("e11"));
        assert!(rendered.contains("fingerprint"));
    }
}
