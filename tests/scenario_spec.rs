//! Whole-stack tests of the declarative scenario plane (DESIGN.md §9):
//!
//! * a **round-trip property test** — randomly generated specs survive
//!   `spec → TOML → spec` unchanged (and compile), and over the run the
//!   emitted TOML holds every key DESIGN.md §9 lists (which a `urb-sim`
//!   test holds equal to the schema), so a key added without generator
//!   coverage fails here. The proptest shim does not shrink, but
//!   generation is built from small independent components, so a failure
//!   prints the offending spec's own TOML — already the minimal
//!   reproduction;
//! * a **corpus-listing test** — `spec::corpus()` embeds exactly the
//!   `scenarios/*.toml` files, so a new file cannot escape the corpus
//!   pins, experiments and checker parity below;
//! * a **golden-file test** — the `partition_heal` corpus scenario
//!   replays to exactly the delivery trace recorded in
//!   `tests/golden/partition_heal.json`, and the serial driver and the
//!   parallel executor (the two simulator execution backends) produce
//!   bit-identical traces. Regenerate the golden after an intentional
//!   change with `UPDATE_GOLDEN=1 cargo test --test scenario_spec`;
//! * a **corpus pin** — every corpus scenario, at its own seed, runs to
//!   the trace hash, delivery count, verdict and frame count recorded in
//!   `tests/golden/corpus.json` (regenerated the same way);
//! * a **checker pin** — every corpus scenario, explored at its own
//!   strategy and seed to depth 4, visits exactly the state counts and
//!   the state-hash fingerprints recorded in
//!   `tests/golden/check_corpus.json` (regenerated the same way). The
//!   fingerprint digest pins `state_hash` itself, which persistent
//!   `urb check --cache` tables trust across commits.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use urb_core::Algorithm;
use urb_fd::{HeartbeatConfig, OracleConfig};
use urb_sim::adversary::Schedule;
use urb_sim::spec::{
    corpus, BroadcastSpec, CheckBounds, CrashRuleSpec, Expectations, LinkSpec, RandomCrashSpec,
    ScenarioSpec, StopRule, Strategy as Explore, TopicWorkload, WorkloadSpec,
};
use urb_sim::{
    Blackout, CrashRule, DelayModel, FdKind, LossModel, RunOutcome, TopicAction, TopicEventCfg,
};
use urb_types::{MemoryConfig, RandomSource, SpillPolicy, SplitMix64, TopicId};

// ------------------------------------------------------------------
// Spec generation. The shim has no flat_map, so dependent values (pids
// must stay below n) are derived by modular reduction inside the final
// construction step.

/// Raw ingredients for one random spec: everything independent, reduced
/// into a consistent spec by `build_spec`.
type RawSpec = (
    (usize, u64, u8, u64, f64, f64),
    (u8, u8, usize, u64, u64, bool),
    (u8, usize, u64, u64, u32, bool),
    u64,
);

fn raw_spec() -> impl Strategy<Value = RawSpec> {
    (
        (
            2usize..9,
            0u64..1_000_000,
            0u8..7,
            1_000u64..200_000,
            0.0f64..1.0,
            0.0f64..1.0,
        ),
        (
            0u8..3,
            0u8..5,
            1usize..5,
            1u64..200,
            0u64..100,
            any::<bool>(),
        ),
        (
            0u8..6,
            0usize..4,
            0u64..500,
            1u64..2_000,
            1u32..4,
            any::<bool>(),
        ),
        any::<u64>(),
    )
}

fn build_spec(raw: RawSpec) -> ScenarioSpec {
    let (
        (n, seed, alg_idx, horizon, p1, p2),
        (stop_idx, loss_idx, count, spacing, start, explicit),
        (sched_idx, pid_raw, win_start, win_len, cycles, expect_quiet),
        extras,
    ) = raw;
    let algorithm = urb_sim::spec::parse_algorithm(
        [
            "majority",
            "quiescent",
            "quiescent-literal",
            "best-effort",
            "eager-rb",
            "backoff:4",
            "weakened:2",
        ][alg_idx as usize],
    )
    .unwrap();
    let mut spec = ScenarioSpec::new("generated", n, algorithm);
    spec.seed = seed;
    spec.horizon = horizon;
    spec.stop = [
        StopRule::Quiescence,
        StopRule::FullDelivery,
        StopRule::Horizon,
    ][stop_idx as usize];
    spec.loss = match loss_idx {
        0 => LossModel::None,
        1 => LossModel::Bernoulli { p: p1 },
        2 => LossModel::BoundedBernoulli {
            p: p1,
            max_consecutive: cycles,
        },
        3 => LossModel::Burst {
            p_enter: p1,
            p_exit: p2,
            p_loss: p1,
        },
        _ => LossModel::Always,
    };
    spec.delay = match loss_idx {
        0 | 1 => DelayModel::Uniform {
            min: 1 + win_start % 4,
            max: 8 + win_start % 4,
        },
        2 => DelayModel::Constant(1 + spacing % 9),
        _ => DelayModel::GeometricTail {
            base: 1,
            p_more: p2 * 0.9,
            cap: 40,
        },
    };
    let pid = pid_raw % n;
    spec.workload = if explicit {
        WorkloadSpec::Explicit(vec![BroadcastSpec {
            time: start + 1,
            pid,
            topic: 0,
            payload: format!("payload \"{pid}\"\twith escapes"),
        }])
    } else {
        WorkloadSpec::Generated {
            count,
            spacing,
            start,
        }
    };
    // One schedule, shaped to stay valid for any n >= 2.
    let half: Vec<usize> = (0..n / 2).collect();
    let rest: Vec<usize> = (n / 2..n).collect();
    let (s, e) = (win_start, win_start + win_len);
    spec.schedules = match sched_idx {
        0 => vec![],
        1 => vec![Schedule::PartitionHeal {
            a: half,
            b: rest,
            start: s,
            end: e,
        }],
        2 => vec![Schedule::AckStarvation {
            victim: pid,
            start: s,
            end: e,
        }],
        3 => vec![Schedule::TargetedDelay {
            links: vec![(pid, (pid + 1) % n)],
            base: 1,
            p_more: p1 * 0.9,
            cap: 50,
        }],
        4 => vec![Schedule::CrashStorm {
            count: (n - 1).min(2),
            start: s,
            width: win_len,
            protect: Some(pid),
        }],
        _ => vec![Schedule::Churn {
            a: half,
            b: rest,
            start: s,
            cut: win_len,
            heal: win_len,
            cycles,
        }],
    };
    spec.expect = Expectations {
        quiescent: if expect_quiet { Some(true) } else { None },
        min_deliveries: Some(count),
        ..Expectations::default()
    };
    add_extras(&mut spec, extras, sched_idx == 4);
    spec
}

/// The extras' own randomness, seeded from one drawn word.
struct Draw(SplitMix64);

impl Draw {
    fn below(&mut self, bound: u64) -> u64 {
        self.0.gen_range(bound)
    }

    fn coin(&mut self) -> bool {
        self.below(2) == 0
    }

    /// A drawn value half the time.
    fn maybe<T>(&mut self, value: impl FnOnce(&mut Self) -> T) -> Option<T> {
        if self.coin() {
            Some(value(self))
        } else {
            None
        }
    }
}

/// Sets, from one seed, the keys the base generator leaves at their
/// defaults: topics and their lifecycle, per-topic streams, detectors,
/// links, blackouts, crash rules, `[check]`, `[memory]` and every
/// `[expect]` key. Every value stays compilable: crash rules leave a
/// process correct and are skipped beside a crash storm.
fn add_extras(spec: &mut ScenarioSpec, seed: u64, storm: bool) {
    let mut d = Draw(SplitMix64::new(seed));
    let n = spec.n;
    if d.coin() {
        spec.description = "drawn \"extras\"".into();
    }
    spec.stats_interval = d.maybe(|d| 1 + d.below(500)).unwrap_or(0);
    if d.coin() {
        spec.topics = 1 + d.below(3) as u32;
        spec.drain_ticks = d.maybe(|d| d.below(64) as u32);
        let topic = TopicId(spec.topics);
        let algorithm = d.maybe(|_| Algorithm::Majority);
        let create = TopicAction::Create { topic, algorithm };
        spec.topic_events.push(TopicEventCfg {
            time: 50,
            action: create,
        });
        if d.coin() {
            let retire = TopicAction::Retire { topic };
            spec.topic_events.push(TopicEventCfg {
                time: 900,
                action: retire,
            });
        }
        match &mut spec.workload {
            WorkloadSpec::Generated {
                count,
                spacing,
                start,
            } => {
                let (count, spacing, start) = (*count, *spacing, *start);
                let stream = |topic| TopicWorkload {
                    topic,
                    count,
                    spacing,
                    start,
                };
                spec.workload = WorkloadSpec::PerTopic((0..spec.topics).map(stream).collect());
            }
            WorkloadSpec::Explicit(list) => list[0].topic = spec.topics - 1,
            WorkloadSpec::PerTopic(_) => {}
        }
    }
    spec.fd = match d.below(3) {
        0 => None,
        1 => Some(FdKind::Oracle(OracleConfig {
            appearance_spread: d.below(100),
            faulty_knowledge: d.coin(),
            ..OracleConfig::default()
        })),
        _ => Some(FdKind::Heartbeat(HeartbeatConfig {
            period: 1 + d.below(50),
            timeout: 50 + d.below(200),
        })),
    };
    let (from, to) = (d.below(n as u64) as usize, d.below(n as u64) as usize);
    let (loss, delay) = (
        Some(LossModel::Bernoulli { p: 0.1 }),
        Some(DelayModel::Constant(2)),
    );
    match d.below(4) {
        0 => {}
        1 => spec.links.push(LinkSpec {
            from,
            to,
            loss,
            delay: None,
        }),
        2 => spec.links.push(LinkSpec {
            from,
            to,
            loss: None,
            delay,
        }),
        _ => spec.links.push(LinkSpec {
            from,
            to,
            loss,
            delay,
        }),
    }
    if d.coin() {
        let start = d.below(500);
        let end = start + 1 + d.below(100);
        spec.blackouts.push(Blackout {
            from,
            to,
            start,
            end,
        });
    }
    if !storm && n >= 3 {
        let rule = match d.below(4) {
            0 => None,
            1 => Some(CrashRule::At(100 + d.below(400))),
            2 => Some(CrashRule::OnFirstDelivery { delay: d.below(5) }),
            _ => Some(CrashRule::Never),
        };
        spec.crashes
            .extend(rule.map(|rule| CrashRuleSpec { pid: n - 1, rule }));
        let protect = d.maybe(|_| 0);
        let random = RandomCrashSpec {
            count: 1,
            horizon: 50 + d.below(400),
            protect,
        };
        spec.crash_random = d.maybe(|_| random);
    }
    if d.coin() {
        let strategy = [Explore::Dfs, Explore::DporLite, Explore::Random][d.below(3) as usize];
        spec.check = CheckBounds {
            depth: 1 + d.below(200) as u32,
            max_drops: d.below(5) as u32,
            tick_budget: d.below(4) as u32,
            delay_budget: d.below(9) as u32,
            walks: 1 + d.below(100) as u32,
            strategy: d.maybe(|_| strategy),
        };
    }
    if d.coin() {
        let spill = [SpillPolicy::StableOnly, SpillPolicy::Tombstones][d.below(2) as usize];
        spec.memory = Some(MemoryConfig {
            grace_ticks: d.below(16) as u32,
            conservative: d.coin(),
            tombstones: 64 + d.below(4096) as usize,
            ceiling: d.maybe(|d| 1_000 + d.below(10_000) as usize),
            spill,
        });
    }
    let mut verdict = || [None, Some(true), Some(false)][d.below(3) as usize];
    let (all_ok, validity, agreement, integrity) = (verdict(), verdict(), verdict(), verdict());
    let (quiescent, topics_all_ok) = (verdict(), verdict());
    spec.expect = Expectations {
        all_ok,
        validity,
        agreement,
        integrity,
        quiescent,
        topics_all_ok,
        min_deliveries: d.maybe(|d| d.below(50) as usize),
        min_deliveries_per_topic: d.maybe(|d| d.below(10) as usize),
        min_reclaimed_topics: d.maybe(|d| d.below(10)),
    };
}

/// Cases of the round-trip property; at least this many, whatever
/// `PROPTEST_CASES` asks, so the key-coverage assertion is stable.
const ROUND_TRIP_CASES: u32 = 256;

#[test]
fn spec_toml_spec_is_the_identity() {
    let mut rng = TestRng::deterministic("spec_toml_spec_is_the_identity");
    let mut emitted = BTreeSet::new();
    for _ in 0..ProptestConfig::default().cases.max(ROUND_TRIP_CASES) {
        let spec = build_spec(raw_spec().generate(&mut rng));
        let toml = spec.to_toml();
        let parsed = ScenarioSpec::from_toml_str(&toml)
            .unwrap_or_else(|e| panic!("emitted TOML must parse: {e}\n{toml}"));
        assert_eq!(parsed, spec, "round trip changed the spec:\n{toml}");
        // Every generated spec is also compilable (the generator only
        // produces in-range values), so the DSL surface stays runnable.
        parsed.compile().unwrap_or_else(|e| panic!("{e}\n{toml}"));
        match urb_sim::minitoml::parse(&toml).unwrap() {
            Value::Object(map) => key_paths(&map, "", &mut emitted),
            other => panic!("a spec is a table: {other:?}"),
        }
    }
    let schema = design_key_paths();
    let missed: Vec<&String> = schema.difference(&emitted).collect();
    assert!(
        missed.is_empty(),
        "no generated spec wrote {missed:?}: extend build_spec"
    );
    let unknown: Vec<&String> = emitted.difference(&schema).collect();
    assert!(
        unknown.is_empty(),
        "to_toml wrote keys DESIGN.md §9 lacks: {unknown:?}"
    );
}

/// The key paths of a table, named as DESIGN.md §9 names them: under the
/// enclosing table, with a tagged table's variant (`loss.bernoulli.p`)
/// and a `model`-tagged table under its own key (`link.loss` holds
/// `loss.*` keys).
fn key_paths(map: &BTreeMap<String, Value>, what: &str, out: &mut BTreeSet<String>) {
    let join = |a: &str, b: &str| {
        if a.is_empty() {
            b.to_string()
        } else {
            format!("{a}.{b}")
        }
    };
    let tag = ["model", "kind"].into_iter().find(|t| map.contains_key(*t));
    for (key, value) in map {
        out.insert(match tag {
            Some(tag) if tag != key => join(&join(what, map[tag].as_str().unwrap()), key),
            _ => join(what, key),
        });
        let tables: Vec<&BTreeMap<String, Value>> = match value {
            Value::Object(sub) => vec![sub],
            Value::Array(items) => items
                .iter()
                .filter_map(|i| match i {
                    Value::Object(sub) => Some(sub),
                    _ => None,
                })
                .collect(),
            _ => continue,
        };
        for sub in tables {
            let within = if sub.contains_key("model") {
                key.clone()
            } else {
                join(what, key)
            };
            key_paths(sub, &within, out);
        }
    }
}

/// The key paths DESIGN.md §9's file-schema table lists.
fn design_key_paths() -> BTreeSet<String> {
    let design = include_str!("../DESIGN.md");
    let table = &design[design
        .find("### File schema")
        .expect("DESIGN.md §9 file schema")..];
    let table = &table[..table[1..].find("\n### ").map_or(table.len(), |i| i + 1)];
    let rows = table.lines().filter_map(|l| l.strip_prefix("| `"));
    rows.map(|row| row[..row.find('`').unwrap()].to_string())
        .collect()
}

#[test]
fn corpus_names_exactly_the_scenario_files() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut files: Vec<String> = std::fs::read_dir(dir)
        .expect("scenarios/ is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    files.sort();
    let mut stems: Vec<&str> = corpus().into_iter().map(|(stem, _)| stem).collect();
    stems.sort();
    assert_eq!(
        stems, files,
        "spec::corpus() must embed every scenarios/*.toml file, and only those"
    );
}

proptest! {
    // A handful of full executions: the compiled config must run and be
    // deterministic per spec. Kept small — each case is a whole run.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn generated_specs_execute_deterministically(raw in raw_spec()) {
        let mut spec = build_spec(raw);
        spec.horizon = spec.horizon.min(20_000); // bound the case's cost
        spec.expect = Expectations::default();
        let a = urb_sim::run(spec.compile().unwrap());
        let b = urb_sim::run(spec.compile().unwrap());
        prop_assert_eq!(a.metrics.trace_hash, b.metrics.trace_hash);
        prop_assert_eq!(a.metrics.deliveries.len(), b.metrics.deliveries.len());
    }
}

// ------------------------------------------------------------------
// Golden-file replay.

fn render_delivery_trace(name: &str, out: &RunOutcome) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"scenario\": \"{name}\",");
    let _ = writeln!(s, "  \"trace_hash\": \"{:#018x}\",", out.metrics.trace_hash);
    let _ = writeln!(s, "  \"deliveries\": [");
    let body: Vec<String> = out
        .metrics
        .deliveries
        .iter()
        .map(|d| {
            format!(
                "    {{\"pid\": {}, \"time\": {}, \"fast\": {}, \"tag\": \"{:#034x}\"}}",
                d.pid, d.time, d.fast, d.tag.0
            )
        })
        .collect();
    let _ = writeln!(s, "{}", body.join(",\n"));
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

fn corpus_spec(name: &str) -> ScenarioSpec {
    let (_, text) = corpus()
        .into_iter()
        .find(|(stem, _)| *stem == name)
        .unwrap_or_else(|| panic!("{name} not in corpus"));
    ScenarioSpec::from_toml_str(text).unwrap()
}

#[test]
fn golden_partition_heal_delivery_trace() {
    let spec = corpus_spec("partition_heal");
    // Backend 1: the serial driver.
    let serial = urb_sim::run(spec.compile().unwrap());
    // Backend 2: the parallel executor (work-stealing thread pool).
    let parallel = urb_sim::run_many(vec![spec.compile().unwrap(); 3]);

    // Cross-backend parity: identical delivery traces, bit for bit.
    for out in &parallel {
        assert_eq!(out.metrics.trace_hash, serial.metrics.trace_hash);
        assert_eq!(
            out.metrics.deliveries.len(),
            serial.metrics.deliveries.len()
        );
        for (a, b) in out
            .metrics
            .deliveries
            .iter()
            .zip(&serial.metrics.deliveries)
        {
            assert_eq!(
                (a.pid, a.time, a.fast, a.tag),
                (b.pid, b.time, b.fast, b.tag)
            );
        }
    }

    // Golden comparison (structural, so formatting is not load-bearing).
    let rendered = render_delivery_trace("partition_heal", &serial);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/partition_heal.json"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &rendered).expect("write golden");
        eprintln!("golden updated: {path}");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    let got: serde_json::Value = serde_json::from_str(&rendered).unwrap();
    let want: serde_json::Value = serde_json::from_str(&golden).unwrap();
    assert_eq!(
        got, want,
        "partition_heal no longer replays to the recorded delivery trace; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// One row per corpus scenario, run at its own seed: what the run hashed,
/// delivered, sent and concluded. Everything a driver refactor must leave
/// byte-identical, in one file.
fn render_corpus_pin() -> String {
    let rows: Vec<String> = corpus()
        .into_iter()
        .map(|(name, text)| {
            let spec = ScenarioSpec::from_toml_str(text).unwrap();
            let out = urb_sim::run(spec.compile().unwrap());
            let verdict = if spec.expect.check(&out).is_empty() {
                "pass"
            } else {
                "fail"
            };
            format!(
                "    {{\"scenario\": \"{name}\", \"trace_hash\": \"{:#018x}\", \
                 \"deliveries\": {}, \"urb_ok\": {}, \"verdict\": \"{verdict}\", \
                 \"frames_sent\": {}}}",
                out.metrics.trace_hash,
                out.metrics.deliveries.len(),
                out.all_topics_ok(),
                out.metrics.frames_sent,
            )
        })
        .collect();
    format!("{{\n  \"corpus\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

#[test]
fn golden_corpus_outcomes() {
    let rendered = render_corpus_pin();
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/corpus.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &rendered).expect("write golden");
        eprintln!("golden updated: {path}");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    let got: serde_json::Value = serde_json::from_str(&rendered).unwrap();
    let want: serde_json::Value = serde_json::from_str(&golden).unwrap();
    assert_eq!(
        got, want,
        "the corpus no longer runs to the pinned outcomes; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// One row per corpus scenario: what a depth-4, single-job exploration at
/// the file's own strategy and seed visited, pruned and concluded, and an
/// FNV-1a digest of the sorted state-hash fingerprints it materialized
/// (`null` for `random`, which collects none).
fn render_check_pin() -> String {
    let rows: Vec<String> = corpus()
        .into_iter()
        .map(|(name, text)| {
            let spec = ScenarioSpec::from_toml_str(text).unwrap();
            let opts = urb_check::ExploreOptions {
                depth: Some(4),
                jobs: 1,
                collect_fingerprints: true,
                ..Default::default()
            };
            let out = urb_check::check_scenario_with(&spec, &opts, None).unwrap();
            let fingerprints = match &out.fingerprints {
                Some(fps) => {
                    let bytes: Vec<u8> = fps.iter().flat_map(|f| f.to_le_bytes()).collect();
                    format!("\"{:#018x}\"", urb_types::snapshot::fnv1a(&bytes))
                }
                None => "null".to_string(),
            };
            let s = &out.stats;
            format!(
                "    {{\"scenario\": \"{name}\", \"strategy\": \"{}\", \"states\": {}, \
                 \"engine_steps\": {}, \"dedup_hits\": {}, \"depth_prunes\": {}, \
                 \"delay_prunes\": {}, \"dpor_pruned\": {}, \"silent_states\": {}, \
                 \"max_depth\": {}, \"truncated\": {}, \"passed\": {}, \
                 \"fingerprints\": {fingerprints}}}",
                out.strategy.as_str(),
                s.states,
                s.engine_steps,
                s.dedup_hits,
                s.depth_prunes,
                s.delay_prunes,
                s.dpor_pruned,
                s.silent_states,
                s.max_depth,
                s.truncated,
                out.passed(),
            )
        })
        .collect();
    format!("{{\n  \"check\": [\n{}\n  ]\n}}\n", rows.join(",\n"))
}

#[test]
fn golden_check_corpus() {
    let rendered = render_check_pin();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/check_corpus.json"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &rendered).expect("write golden");
        eprintln!("golden updated: {path}");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    let got: serde_json::Value = serde_json::from_str(&rendered).unwrap();
    let want: serde_json::Value = serde_json::from_str(&golden).unwrap();
    assert_eq!(
        got, want,
        "the corpus no longer explores to the pinned state counts and \
         fingerprints; if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn corpus_passes_checker_and_executor_parity() {
    // The acceptance gate: every corpus scenario passes its [expect]
    // verdict under BOTH execution backends.
    let specs: Vec<(String, ScenarioSpec)> = corpus()
        .into_iter()
        .map(|(name, text)| (name.to_string(), ScenarioSpec::from_toml_str(text).unwrap()))
        .collect();
    let parallel = urb_sim::run_many(specs.iter().map(|(_, s)| s.compile().unwrap()).collect());
    for ((name, spec), par) in specs.iter().zip(&parallel) {
        let ser = urb_sim::run(spec.compile().unwrap());
        assert_eq!(
            ser.metrics.trace_hash, par.metrics.trace_hash,
            "{name}: serial and parallel executor diverged"
        );
        assert!(
            spec.expect.check(&ser).is_empty(),
            "{name}: {:?}",
            spec.expect.check(&ser)
        );
        assert!(spec.expect.check(par).is_empty(), "{name} (parallel)");
    }
}
