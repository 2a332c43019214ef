//! Whole-stack tests of the declarative scenario plane (DESIGN.md §9):
//!
//! * a **round-trip property test** — randomly generated specs survive
//!   `spec → TOML → spec` unchanged (and compile). The proptest shim does
//!   not shrink, but generation is built from small independent
//!   components, so a failure prints the offending spec's own TOML —
//!   already the minimal reproduction;
//! * a **golden-file test** — the `partition_heal` corpus scenario
//!   replays to exactly the delivery trace recorded in
//!   `tests/golden/partition_heal.json`, and the serial driver and the
//!   parallel executor (the two simulator execution backends) produce
//!   bit-identical traces. Regenerate the golden after an intentional
//!   change with `UPDATE_GOLDEN=1 cargo test --test scenario_spec`;
//! * a **corpus pin** — every corpus scenario, at its own seed, runs to
//!   the trace hash, delivery count, verdict and frame count recorded in
//!   `tests/golden/corpus.json` (regenerated the same way).

use proptest::prelude::*;
use urb_sim::adversary::Schedule;
use urb_sim::spec::{corpus, BroadcastSpec, Expectations, ScenarioSpec, StopRule, WorkloadSpec};
use urb_sim::{DelayModel, LossModel, RunOutcome};

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
    )
}

fn build_spec(raw: RawSpec) -> ScenarioSpec {
    let (
        (n, seed, alg_idx, horizon, p1, p2),
        (stop_idx, loss_idx, count, spacing, start, explicit),
        (sched_idx, pid_raw, win_start, win_len, cycles, expect_quiet),
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
    spec
}

proptest! {
    #[test]
    fn spec_toml_spec_is_the_identity(raw in raw_spec()) {
        let spec = build_spec(raw);
        let toml = spec.to_toml();
        let parsed = ScenarioSpec::from_toml_str(&toml)
            .unwrap_or_else(|e| panic!("emitted TOML must parse: {e}\n{toml}"));
        prop_assert_eq!(&parsed, &spec, "round trip changed the spec:\n{}", toml);
        // Every generated spec is also compilable (the generator only
        // produces in-range values), so the DSL surface stays runnable.
        parsed.compile().unwrap_or_else(|e| panic!("{e}\n{toml}"));
    }
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
