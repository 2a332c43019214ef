//! Whole-plane tests of the systematic schedule checker (DESIGN.md §11):
//!
//! * the **Theorem-2 corpus spec** — DFS and `dpor-lite` both find the
//!   expected uniform-agreement violation within the spec's own
//!   `[check]` bounds, and the counterexample replays
//!   byte-deterministically;
//! * **clean scenarios** — bounded exploration of correct algorithms
//!   finds nothing, across all three strategies;
//! * **property tests** — random-walk exploration at a given `(depth,
//!   seed)` is byte-deterministic, and *every* emitted counterexample
//!   replays to the same invariant violation (the exploration plane's
//!   contract: a witness is a witness, forever).

use proptest::prelude::*;
use urb_check::{
    check_scenario, check_scenario_with, CheckOutcome, Counterexample, ExploreOptions, Strategy,
};
use urb_core::Algorithm;
use urb_sim::spec::{corpus, CrashRuleSpec};
use urb_sim::{CrashRule, ScenarioSpec};

/// FNV-1a of a witness's serialized body: pins the choice sequence, the
/// violation and the delivery trace of a counterexample in one number.
fn body_digest(cx: &Counterexample) -> u64 {
    urb_types::snapshot::fnv1a(cx.body_json().as_bytes())
}

fn corpus_spec(name: &str) -> ScenarioSpec {
    let (_, text) = corpus()
        .into_iter()
        .find(|(stem, _)| *stem == name)
        .unwrap_or_else(|| panic!("{name} not in corpus"));
    ScenarioSpec::from_toml_str(text).unwrap()
}

/// A small uniformity trap: eager RB (deliver on first receipt, relay
/// once, never retransmit) with a crash-on-first-delivery broadcaster.
/// Some schedule delivers at the broadcaster, crashes it and drops the
/// relays — uniform agreement breaks, exactly like experiment E11.
fn eager_trap(n: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("eager-trap", n, Algorithm::EagerRb);
    spec.seed = seed;
    spec.crashes = vec![CrashRuleSpec {
        pid: 0,
        rule: CrashRule::OnFirstDelivery { delay: 0 },
    }];
    spec.expect.agreement = Some(false);
    spec.check.max_drops = 2 * n as u32;
    spec.check.depth = 64;
    spec
}

#[test]
fn dfs_finds_the_theorem2_violation_within_spec_bounds() {
    let spec = corpus_spec("theorem2_violation");
    let outcome = check_scenario(&spec, Some(Strategy::Dfs), None, None).unwrap();
    assert!(outcome.passed(), "{}", outcome.verdict_line());
    let cx = outcome.counterexample.expect("witness");
    assert!(
        cx.violation.iter().any(|v| v.starts_with("agreement")),
        "{:?}",
        cx.violation
    );
    assert!(
        !cx.deliveries.is_empty(),
        "S1 delivered before crashing (min_deliveries)"
    );
    assert_eq!(body_digest(&cx), 0x38E1_A96E_FF0D_BA8E);
    assert!(outcome.stats.states > 0);
    assert!(outcome.stats.states_per_sec() > 0.0);
}

#[test]
fn dpor_lite_finds_it_near_the_canonical_schedule() {
    let spec = corpus_spec("theorem2_violation");
    let outcome = check_scenario(&spec, Some(Strategy::DporLite), None, None).unwrap();
    assert!(outcome.passed(), "{}", outcome.verdict_line());
    // The witness lives on (or right next to) the canonical dive, so the
    // delay-bounded cut reaches it with almost no exploration overhead.
    assert!(
        outcome.stats.states < 5_000,
        "dpor-lite should not need a large frontier: {:?}",
        outcome.stats
    );
}

#[test]
fn counterexamples_replay_and_survive_serialization() {
    let spec = corpus_spec("theorem2_violation");
    let outcome = check_scenario(&spec, Some(Strategy::Dfs), None, None).unwrap();
    let cx = outcome.counterexample.expect("witness");
    // Replay reproduces the recorded violation and delivery trace.
    assert_eq!(cx.replay().unwrap(), cx.violation);
    // The serialized body round-trips and the round-tripped file still
    // replays — the `urb check --replay` contract, file for file.
    let body = cx.body_json();
    let parsed = Counterexample::parse(&body).unwrap();
    assert_eq!(parsed.body_json(), body, "byte-stable");
    assert_eq!(parsed.replay().unwrap(), cx.violation);
}

/// A witness written by an earlier build still replays: the meaning of
/// every recorded choice (`Deliver { slot }` above all) is part of the
/// `urb check --replay` contract, not of one build.
#[test]
fn a_committed_theorem2_witness_replays() {
    let text = include_str!("../../../tests/fixtures/theorem2_witness.json");
    let cx = Counterexample::parse(text).unwrap();
    assert_eq!(cx.scenario, "theorem2_violation");
    let violation = cx.replay().unwrap();
    assert!(
        violation.iter().any(|v| v.starts_with("agreement")),
        "{violation:?}"
    );
    assert_eq!(violation, cx.violation, "the recorded violation recurs");
}

#[test]
fn the_explorer_honours_the_memory_table() {
    // The corpus entry with a one-slot tombstone ring: the explorer must
    // build bounded-memory engines and compact on `Choice::Tick` like the
    // simulator does — then some schedule evicts a tombstone while a copy
    // of its message is still pending, and the tag is delivered twice.
    // (An explorer that drops `[memory]` explores the unbounded protocol
    // and reports PASS on a scenario the file does not describe.)
    let spec = corpus_spec("undersized_tombstones");
    assert_eq!(spec.memory.map(|m| m.tombstones), Some(1));
    let outcome = check_scenario(&spec, None, None, None).unwrap();
    assert!(outcome.passed(), "{}", outcome.verdict_line());
    let cx = outcome.counterexample.expect("witness");
    assert!(
        cx.violation
            .iter()
            .any(|v| v.starts_with("integrity") && v.contains("2 times")),
        "{:?}",
        cx.violation
    );
    assert_eq!(cx.replay().unwrap(), cx.violation, "the witness replays");
    assert_eq!(body_digest(&cx), 0xA505_DB57_7812_EB6B);

    // Same file, default ring: nothing to find at the same bounds.
    let mut roomy = spec.clone();
    roomy.memory.as_mut().unwrap().tombstones = urb_types::MemoryConfig::default().tombstones;
    roomy.expect = Default::default();
    let outcome = check_scenario(&roomy, None, None, None).unwrap();
    assert!(
        outcome.passed() && outcome.counterexample.is_none(),
        "{}",
        outcome.verdict_line()
    );
}

#[test]
fn clean_scenarios_pass_every_strategy() {
    // A correct algorithm under bounded exploration: nothing to find.
    // (Small n keeps full DFS exhaustion fast in debug builds.)
    let mut spec = ScenarioSpec::new("clean-explore", 3, Algorithm::Majority);
    spec.seed = 11;
    spec.check.depth = 24;
    spec.check.max_drops = 1;
    for strategy in [Strategy::Dfs, Strategy::DporLite, Strategy::Random] {
        let outcome = check_scenario(&spec, Some(strategy), None, None).unwrap();
        assert!(
            outcome.passed() && outcome.counterexample.is_none(),
            "{strategy:?}: {}",
            outcome.verdict_line()
        );
        assert!(outcome.stats.states > 0, "{strategy:?} explored something");
    }
}

#[test]
fn dfs_prunes_via_state_hashes() {
    // Commuting deliveries collapse onto shared states: on any nontrivial
    // clean exploration the visited-set must answer a decent share of
    // frontier pops.
    let mut spec = ScenarioSpec::new("dedup", 3, Algorithm::Majority);
    spec.seed = 3;
    spec.check.depth = 16;
    spec.check.max_drops = 0;
    let outcome = check_scenario(&spec, Some(Strategy::Dfs), None, None).unwrap();
    assert!(outcome.passed());
    assert!(
        outcome.stats.dedup_hits > 0,
        "no dedup on a commuting schedule space: {:?}",
        outcome.stats
    );
    assert!(outcome.stats.dedup_hit_rate() > 0.0);
    assert!(outcome.stats.dedup_hit_rate() < 1.0);
}

#[test]
fn random_walks_count_every_materialized_state() {
    // A walk materializes its initial state and one more per step, so
    // under `random` the state count is the step count plus the walks.
    let spec = corpus_spec("lossy_crashes");
    let outcome = check_scenario(&spec, Some(Strategy::Random), Some(4), None).unwrap();
    let stats = outcome.stats;
    assert!(outcome.passed() && !stats.truncated, "{stats:?}");
    assert_eq!(stats.engine_steps, 256);
    assert_eq!(
        stats.states,
        stats.engine_steps + u64::from(spec.check.walks)
    );
}

#[test]
fn eager_trap_yields_a_replayable_witness() {
    let spec = eager_trap(3, 5);
    let outcome = check_scenario(&spec, Some(Strategy::Dfs), None, None).unwrap();
    assert!(outcome.passed(), "{}", outcome.verdict_line());
    let cx = outcome.counterexample.expect("witness");
    assert_eq!(cx.replay().unwrap(), cx.violation);
}

#[test]
fn expected_violation_not_found_fails_the_check() {
    // Forbid every adversarial move: no drops, and the crash rule never
    // arms because nothing ever delivers at depth 0.
    let mut spec = eager_trap(3, 5);
    spec.check.max_drops = 0;
    spec.check.depth = 2; // too shallow to even deliver
    let outcome = check_scenario(&spec, Some(Strategy::Dfs), None, None).unwrap();
    assert!(!outcome.passed(), "{}", outcome.verdict_line());
    assert!(outcome.counterexample.is_none());
    assert!(outcome.verdict_line().contains("not found"));
}

#[test]
fn depth_and_strategy_overrides_beat_the_spec() {
    let mut spec = corpus_spec("theorem2_violation");
    spec.check.strategy = Some(Strategy::Random);
    let outcome = check_scenario(&spec, None, Some(3), None).unwrap();
    assert_eq!(outcome.strategy, Strategy::Random, "spec strategy honored");
    assert_eq!(outcome.depth, 3, "CLI depth override wins");
    assert!(!outcome.passed(), "depth 3 cannot reach the violation");
    let outcome = check_scenario(&spec, Some(Strategy::Dfs), None, None).unwrap();
    assert_eq!(outcome.strategy, Strategy::Dfs, "explicit strategy wins");
    assert!(outcome.passed());
}

#[test]
fn quiescent_algorithm_explores_clean_under_crash_choices() {
    // Algorithm 2 with a crash-eligible process: the explorer may kill
    // it at any point, and agreement must still hold at every silent
    // state (Theorem 3, explored rather than sampled).
    let mut spec = ScenarioSpec::new("alg2-crashes", 3, Algorithm::Quiescent);
    spec.seed = 13;
    spec.crashes = vec![CrashRuleSpec {
        pid: 1,
        rule: CrashRule::At(50),
    }];
    spec.check.depth = 40;
    spec.check.max_drops = 1;
    let outcome = check_scenario(&spec, Some(Strategy::Random), None, None).unwrap();
    assert!(outcome.passed(), "{}", outcome.verdict_line());
    let outcome = check_scenario(&spec, Some(Strategy::DporLite), None, None).unwrap();
    assert!(outcome.passed(), "{}", outcome.verdict_line());
}

// ------------------------------------------------------------------
// Parallel frontier and sleep-set DPOR (DESIGN.md §11, "Parallel
// exploration").

/// The determinism matrix over jobs ∈ {1, 2, 4}.
///
/// The witness half runs the Theorem-2 hunt at every worker count and
/// demands the *same* counterexample, byte for byte. The clean half
/// explores a clean two-topic scenario at every worker count and
/// demands the same state count, verdict and fingerprint set.
#[test]
fn determinism_matrix_over_jobs() {
    let spec = corpus_spec("theorem2_violation");
    let runs: Vec<CheckOutcome> = [1usize, 2, 4]
        .into_iter()
        .map(|jobs| {
            let opts = ExploreOptions {
                jobs,
                ..Default::default()
            };
            check_scenario_with(&spec, &opts).unwrap()
        })
        .collect();
    for run in &runs[1..] {
        assert_eq!(run.stats.states, runs[0].stats.states, "state count");
        assert_eq!(run.verdict_line(), runs[0].verdict_line(), "verdict");
    }
    let first = runs[0]
        .counterexample
        .as_ref()
        .expect("witness")
        .body_json();
    for run in &runs {
        let cx = run.counterexample.as_ref().expect("witness");
        assert_eq!(cx.body_json(), first, "same witness at jobs {}", run.jobs);
        assert_eq!(cx.replay().unwrap(), cx.violation, "replays");
    }

    let spec = corpus_spec("two_topics_smoke");
    let runs: Vec<CheckOutcome> = [1usize, 2, 4]
        .into_iter()
        .map(|jobs| {
            let opts = ExploreOptions {
                jobs,
                collect_fingerprints: true,
                ..Default::default()
            };
            check_scenario_with(&spec, &opts).unwrap()
        })
        .collect();
    assert!(runs[0].passed(), "{}", runs[0].verdict_line());
    assert!(runs[0].fingerprints.as_ref().is_some_and(|f| !f.is_empty()));
    for run in &runs[1..] {
        assert_eq!(run.stats.states, runs[0].stats.states, "state count");
        assert_eq!(run.verdict_line(), runs[0].verdict_line(), "verdict");
        assert_eq!(run.fingerprints, runs[0].fingerprints, "fingerprints");
    }
}

fn dpor_on_off(spec: &ScenarioSpec, depth: u32) -> (CheckOutcome, CheckOutcome) {
    let run = |dpor: bool| {
        let opts = ExploreOptions {
            strategy: Some(Strategy::Dfs),
            depth: Some(depth),
            dpor: Some(dpor),
            collect_fingerprints: true,
            ..Default::default()
        };
        check_scenario_with(spec, &opts).unwrap()
    };
    (run(true), run(false))
}

/// DPOR soundness on the corpus topic scenarios: the sleep-set cut
/// must not change the set of reachable state fingerprints at the
/// bound — only how many interleavings get materialized to reach it.
#[test]
fn dpor_preserves_fingerprints_while_pruning_two_topics_smoke() {
    let spec = corpus_spec("two_topics_smoke");
    let (on, off) = dpor_on_off(&spec, 6);
    assert!(on.passed() && off.passed());
    assert!(
        !off.stats.truncated,
        "bound too wide for a sound comparison"
    );
    assert_eq!(on.fingerprints, off.fingerprints, "reachable set unchanged");
    assert!(
        on.stats.states < off.stats.states,
        "dpor must strictly reduce explored states: {} vs {}",
        on.stats.states,
        off.stats.states
    );
    assert!(on.stats.dpor_pruned > 0);
}

/// Same contract under crash pressure: `cross_topic_storm` keeps a
/// majority of processes crash-free, so deliveries fanned out to
/// distinct safe destinations still commute even though crash-eligible
/// destinations never do.
#[test]
fn dpor_preserves_fingerprints_while_pruning_cross_topic_storm() {
    let spec = corpus_spec("cross_topic_storm");
    let (on, off) = dpor_on_off(&spec, 5);
    assert!(on.passed() && off.passed());
    assert!(
        !off.stats.truncated,
        "bound too wide for a sound comparison"
    );
    assert_eq!(on.fingerprints, off.fingerprints, "reachable set unchanged");
    assert!(
        on.stats.states < off.stats.states,
        "dpor must strictly reduce explored states: {} vs {}",
        on.stats.states,
        off.stats.states
    );
    assert!(on.stats.dpor_pruned > 0);
}

// ------------------------------------------------------------------
// Property tests (the PR's proptest satellite).

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Random-walk exploration at depth `d` with seed `s` is
    /// byte-deterministic: same inputs, same witness (or same absence),
    /// byte for byte, and same coverage counters.
    #[test]
    fn random_walks_are_byte_deterministic(
        seed in 0u64..10_000,
        depth in 8u32..48,
        n in 2usize..5,
    ) {
        let mut spec = eager_trap(n, seed);
        spec.check.walks = 16;
        let run = || check_scenario(&spec, Some(Strategy::Random), Some(depth), Some(seed)).unwrap();
        let a = run();
        let b = run();
        prop_assert_eq!(a.stats.states, b.stats.states);
        prop_assert_eq!(a.stats.engine_steps, b.stats.engine_steps);
        prop_assert_eq!(a.stats.max_depth, b.stats.max_depth);
        match (&a.counterexample, &b.counterexample) {
            (None, None) => {}
            (Some(x), Some(y)) => prop_assert_eq!(x.body_json(), y.body_json()),
            _ => prop_assert!(false, "witness presence must be deterministic"),
        }
    }

    /// Every counterexample any strategy emits replays to the same
    /// invariant violation — including after a serialization round trip.
    #[test]
    fn every_emitted_counterexample_replays(
        seed in 0u64..10_000,
        n in 2usize..5,
        strategy_pick in 0u8..3,
    ) {
        let strategy = match strategy_pick {
            0 => Strategy::Dfs,
            1 => Strategy::DporLite,
            _ => Strategy::Random,
        };
        let spec = eager_trap(n, seed);
        let outcome = check_scenario(&spec, Some(strategy), None, Some(seed)).unwrap();
        if let Some(cx) = &outcome.counterexample {
            let replayed = cx.replay();
            prop_assert!(replayed.is_ok(), "{:?}", replayed);
            prop_assert_eq!(replayed.unwrap(), cx.violation.clone());
            let parsed = Counterexample::parse(&cx.body_json()).unwrap();
            prop_assert_eq!(parsed.replay().unwrap(), cx.violation.clone());
        }
    }
}
