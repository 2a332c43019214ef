//! Byte pins of the scenario-file plane, recorded before the schema
//! became one table per section and held byte for byte since:
//!
//! * every error text a scenario file can raise, one row per table and
//!   path — type, missing-key and unknown-key errors of every table, and
//!   every range, cross-key and `compile` check (`BOUNDS` holds the rows
//!   added with the size bounds and tick-overflow checks);
//! * for each corpus file, the digest of `to_toml()` and of the compiled
//!   config's `Debug` text. `to_toml` writes a counterexample's
//!   `spec_toml`, so a changed byte would change every witness file
//!   written from then on.

use urb_sim::spec::{corpus, ScenarioSpec};

/// FNV-1a, 64-bit: a digest with no dependency and no platform variance.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The full error text a scenario's decode-then-compile raises.
fn error_of(toml: &str) -> String {
    match ScenarioSpec::from_toml_str(toml).and_then(|s| s.compile().map(|_| ())) {
        Ok(()) => "no error".to_string(),
        Err(e) => e.to_string(),
    }
}

#[test]
fn every_spec_error_text_is_pinned() {
    for (toml, want) in ERRORS.iter().chain(BOUNDS) {
        assert_eq!(error_of(toml), *want, "input:\n{toml}");
    }
}

#[test]
fn corpus_to_toml_and_compiled_config_are_pinned() {
    let got: Vec<(&str, u64, u64)> = corpus()
        .into_iter()
        .map(|(name, text)| {
            let spec = ScenarioSpec::from_toml_str(text).unwrap();
            let compiled = format!("{:?}", spec.compile());
            (name, fnv1a(&spec.to_toml()), fnv1a(&compiled))
        })
        .collect();
    assert_eq!(got, DIGESTS);
}

/// `(corpus stem, digest of to_toml(), digest of compile()'s Debug text)`.
const DIGESTS: &[(&str, u64, u64)] = &[
    ("clean_smoke", 0xd89951b48ba76f34, 0x73aab879ba942767),
    ("lossy_crashes", 0x573358368e2ae805, 0x590624d52649f30f),
    ("partition_heal", 0xd28320e685276e19, 0x7608f80d881c5489),
    ("ack_starvation", 0x58e9dbe92864c501, 0x740db300bca3ee0a),
    ("churn", 0x2aca67680d59c426, 0x9481fd3ef458ba7d),
    ("crash_storm", 0x0e581dc641da8fbb, 0xc6cba61c04f71ca9),
    ("targeted_delay", 0xc9fbdccaa2897e1d, 0x3f67e3e8e930f66e),
    ("theorem2_violation", 0xe4294162224cae4b, 0x52454c97fa2742c1),
    ("two_topics_smoke", 0xa9fd8fa5264f3a01, 0x1b4d9cb79546d966),
    ("cross_topic_storm", 0x3233a2473266117a, 0x9acb7dcd3349e537),
    ("bounded_memory", 0x876ac0205d03e984, 0x4255b5be5dbb0ed0),
    ("dynamic_topics", 0x35beecb2e12849bf, 0xb4f1a56b768df384),
    (
        "undersized_tombstones",
        0xd324c3db0d641e4f,
        0xadadebd050ade26d,
    ),
];

/// The errors of the size bounds and tick-overflow checks, which the
/// recording predates: those files used to abort or wrap.
const BOUNDS: &[(&str, &str)] = &[
    (
        "name = \"p\"\nn = 5000000\n",
        "scenario spec error: n = 5000000 exceeds the maximum 1024",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 4000000000\n",
        "scenario spec error: topics.count = 4000000000 exceeds the maximum 4096",
    ),
    (
        "name = \"p\"\nn = 4\n[workload]\ncount = 3000000000\n",
        "scenario spec error: workload.count = 3000000000 exceeds the maximum 1048576",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload]]\ncount = 3000000000\n",
        "scenario spec error: workload.count = 3000000000 exceeds the maximum 1048576",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload]]\ncount = 1048576\n[[workload]]\ncount = 1048576\n",
        "scenario spec error: workload.count: the [[workload]] streams plan 2097152 broadcasts, above the maximum 1048576",
    ),
    (
        "name = \"p\"\nn = 4\nhorizon = 100\n[workload]\ncount = 4096\nspacing = 9007199254740992\n",
        "scenario spec error: workload.spacing = 9007199254740992: broadcast 4095 at start + 4095 × spacing is past the last tick (u64::MAX)",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload]]\ncount = 4096\nspacing = 9007199254740992\n",
        "scenario spec error: workload.spacing = 9007199254740992: broadcast 4095 at start + 4095 × spacing is past the last tick (u64::MAX)",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"churn\"\na = [0]\nb = [1]\ncut = 4503599627370496\nheal = 4503599627370496\ncycles = 4097\n",
        "scenario spec error: schedule \"churn\": churn: cycle 2048 at start + 2048·(cut + heal) runs past the last tick (u64::MAX)",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"churn\"\na = [0]\nb = [1]\ncut = 1\nheal = 1\ncycles = 4000000000\n",
        "scenario spec error: schedule \"churn\": churn: cycles = 4000000000 cut 8000000000 link windows, above the maximum 1048576",
    ),
];

/// `(scenario file, the error it raises)`.
const ERRORS: &[(&str, &str)] = &[
    (
        "name = \n",
        "scenario spec error: TOML error on line 1: expected a value",
    ),
    (
        "n = 4\n",
        "scenario spec error: missing required key `name`",
    ),
    (
        "name = \"p\"\n",
        "scenario spec error: missing required key `n`",
    ),
    (
        "name = 5\nn = 4\n",
        "scenario spec error: name must be a string",
    ),
    (
        "name = \"p\"\nn = \"x\"\n",
        "scenario spec error: n must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 0\n",
        "scenario spec error: n must be positive",
    ),
    (
        "name = \"p\"\nn = 4\ntypo = 1\n",
        "scenario spec error: unknown key `typo` in scenario (allowed: name, description, seed, n, topics, algorithm, horizon, tick_interval, tick_jitter, stats_interval, window, stop, loss, delay, fd, link, blackout, workload, crash, crash_random, schedule, expect, check, memory)",
    ),
    (
        "name = \"p\"\nn = 4\ndescription = 1\n",
        "scenario spec error: description must be a string",
    ),
    (
        "name = \"p\"\nn = 4\nseed = \"x\"\n",
        "scenario spec error: seed must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\nhorizon = \"x\"\n",
        "scenario spec error: horizon must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\ntick_interval = \"x\"\n",
        "scenario spec error: tick_interval must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\ntick_jitter = \"x\"\n",
        "scenario spec error: tick_jitter must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\nstats_interval = \"x\"\n",
        "scenario spec error: stats_interval must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\nwindow = \"x\"\n",
        "scenario spec error: window must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\nalgorithm = 1\n",
        "scenario spec error: algorithm must be a string",
    ),
    (
        "name = \"p\"\nn = 4\nalgorithm = \"paxos\"\n",
        "scenario spec error: unknown algorithm \"paxos\" (majority | quiescent | quiescent-literal | best-effort | eager-rb | backoff:<cap> | weakened:<threshold>)",
    ),
    (
        "name = \"p\"\nn = 4\nalgorithm = \"backoff:x\"\n",
        "scenario spec error: bad backoff cap in \"backoff:x\"",
    ),
    (
        "name = \"p\"\nn = 4\nalgorithm = \"weakened:x\"\n",
        "scenario spec error: bad weakened threshold in \"weakened:x\"",
    ),
    (
        "name = \"p\"\nn = 4\nalgorithm = \"backoff:0\"\n",
        "scenario spec error: algorithm \"backoff:0\" cannot run with n = 4",
    ),
    (
        "name = \"p\"\nn = 4\nalgorithm = \"weakened:9\"\n",
        "scenario spec error: algorithm \"weakened:9\" cannot run with n = 4",
    ),
    (
        "name = \"p\"\nn = 4\nstop = 1\n",
        "scenario spec error: stop must be a string",
    ),
    (
        "name = \"p\"\nn = 4\nstop = \"never\"\n",
        "scenario spec error: unknown stop rule \"never\" (quiescence | full-delivery | horizon)",
    ),
    (
        "name = \"p\"\nn = 4\nscenario_typo = 1\nalgorithm = \"majority\"\n",
        "scenario spec error: unknown key `scenario_typo` in scenario (allowed: name, description, seed, n, topics, algorithm, horizon, tick_interval, tick_jitter, stats_interval, window, stop, loss, delay, fd, link, blackout, workload, crash, crash_random, schedule, expect, check, memory)",
    ),
    (
        "name = \"p\"\nn = 4\nloss = 1\n",
        "scenario spec error: loss must be a table",
    ),
    (
        "name = \"p\"\nn = 4\nloss = \"bernoulli\"\n",
        "scenario spec error: loss \"bernoulli\" needs a table form (only \"none\" and \"always\" are bare)",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { p = 0.1 }\n",
        "scenario spec error: missing required key `model`",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = 1 }\n",
        "scenario spec error: model must be a string",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"x\" }\n",
        "scenario spec error: unknown loss model \"x\" (none | bernoulli | bounded-bernoulli | burst | always)",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"bernoulli\" }\n",
        "scenario spec error: bernoulli loss needs `p`",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"bernoulli\", p = \"x\" }\n",
        "scenario spec error: p must be a number",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"bernoulli\", prob = 0.2 }\n",
        "scenario spec error: unknown key `prob` in loss (allowed: model, p)",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"none\", p = 1 }\n",
        "scenario spec error: unknown key `p` in loss (allowed: model)",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"always\", x = 1 }\n",
        "scenario spec error: unknown key `x` in loss (allowed: model)",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"bounded-bernoulli\", p = 0.1 }\n",
        "scenario spec error: missing required key `max_consecutive`",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"bounded-bernoulli\", p = 0.1, max_consecutive = \"x\" }\n",
        "scenario spec error: max_consecutive must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"bounded-bernoulli\", p = \"x\", max_consecutive = 2 }\n",
        "scenario spec error: p must be a number",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"bounded-bernoulli\", max_consecutive = 2, x = 1 }\n",
        "scenario spec error: unknown key `x` in loss (allowed: model, p, max_consecutive)",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"bounded-bernoulli\", p = 0.1, max_consecutive = 4294967298 }\n",
        "scenario spec error: loss.max_consecutive = 4294967298 does not fit a u32 (max 4294967295)",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"burst\", p_enter = \"x\" }\n",
        "scenario spec error: p_enter must be a number",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"burst\", p_exit = \"x\" }\n",
        "scenario spec error: p_exit must be a number",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"burst\", p_loss = \"x\" }\n",
        "scenario spec error: p_loss must be a number",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"burst\", x = 1 }\n",
        "scenario spec error: unknown key `x` in loss (allowed: model, p_enter, p_exit, p_loss)",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"bernoulli\", p = 1.5 }\n",
        "scenario spec error: loss probability 1.5 not in [0, 1]",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"bounded-bernoulli\", p = -0.5, max_consecutive = 2 }\n",
        "scenario spec error: loss probability -0.5 not in [0, 1]",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"burst\", p_enter = 2.0 }\n",
        "scenario spec error: burst p_enter 2 not in [0, 1]",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"burst\", p_exit = 2.0 }\n",
        "scenario spec error: burst p_exit 2 not in [0, 1]",
    ),
    (
        "name = \"p\"\nn = 4\nloss = { model = \"burst\", p_loss = 2.0 }\n",
        "scenario spec error: burst p_loss 2 not in [0, 1]",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = 1\n",
        "scenario spec error: delay must be a table",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = \"constant\"\n",
        "scenario spec error: delay must be a table",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { ticks = 1 }\n",
        "scenario spec error: missing required key `model`",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = 1 }\n",
        "scenario spec error: model must be a string",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"x\" }\n",
        "scenario spec error: unknown delay model \"x\" (constant | uniform | geometric)",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"constant\" }\n",
        "scenario spec error: missing required key `ticks`",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"constant\", ticks = \"x\" }\n",
        "scenario spec error: ticks must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"constant\", ticks = 1, x = 1 }\n",
        "scenario spec error: unknown key `x` in delay (allowed: model, ticks)",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"uniform\", max = 3 }\n",
        "scenario spec error: missing required key `min`",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"uniform\", min = 3 }\n",
        "scenario spec error: missing required key `max`",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"uniform\", min = 5, max = 3 }\n",
        "scenario spec error: uniform delay max 3 below min 5",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"uniform\", min = \"x\", max = 3 }\n",
        "scenario spec error: min must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"uniform\", min = 1, max = 3, x = 1 }\n",
        "scenario spec error: unknown key `x` in delay (allowed: model, min, max)",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"geometric\" }\n",
        "scenario spec error: missing required key `cap`",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"geometric\", cap = 9, p_more = 1.0 }\n",
        "scenario spec error: geometric delay p_more 1 not in [0, 1)",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"geometric\", cap = 9, base = \"x\" }\n",
        "scenario spec error: base must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"geometric\", cap = 9, p_more = \"x\" }\n",
        "scenario spec error: p_more must be a number",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"geometric\", cap = \"x\" }\n",
        "scenario spec error: cap must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\ndelay = { model = \"geometric\", cap = 9, x = 1 }\n",
        "scenario spec error: unknown key `x` in delay (allowed: model, base, p_more, cap)",
    ),
    (
        "name = \"p\"\nn = 4\nfd = 1\n",
        "scenario spec error: fd must be a table",
    ),
    (
        "name = \"p\"\nn = 4\n[fd]\nperiod = 1\n",
        "scenario spec error: missing required key `kind`",
    ),
    (
        "name = \"p\"\nn = 4\n[fd]\nkind = 1\n",
        "scenario spec error: kind must be a string",
    ),
    (
        "name = \"p\"\nn = 4\n[fd]\nkind = \"x\"\n",
        "scenario spec error: unknown fd kind \"x\" (none | oracle | heartbeat)",
    ),
    (
        "name = \"p\"\nn = 4\n[fd]\nkind = \"none\"\nperiod = 1\n",
        "scenario spec error: unknown key `period` in fd (allowed: kind)",
    ),
    (
        "name = \"p\"\nn = 4\n[fd]\nkind = \"oracle\"\nwat = 1\n",
        "scenario spec error: unknown key `wat` in fd (allowed: kind, appearance_spread, theta_removal_delay, pstar_removal_delay, pstar_ready_slack, faulty_knowledge)",
    ),
    (
        "name = \"p\"\nn = 4\n[fd]\nkind = \"oracle\"\nappearance_spread = \"x\"\n",
        "scenario spec error: appearance_spread must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[fd]\nkind = \"oracle\"\ntheta_removal_delay = \"x\"\n",
        "scenario spec error: theta_removal_delay must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[fd]\nkind = \"oracle\"\npstar_removal_delay = \"x\"\n",
        "scenario spec error: pstar_removal_delay must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[fd]\nkind = \"oracle\"\npstar_ready_slack = \"x\"\n",
        "scenario spec error: pstar_ready_slack must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[fd]\nkind = \"oracle\"\nfaulty_knowledge = 1\n",
        "scenario spec error: faulty_knowledge must be a boolean",
    ),
    (
        "name = \"p\"\nn = 4\n[fd]\nkind = \"heartbeat\"\nperiod = \"x\"\n",
        "scenario spec error: period must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[fd]\nkind = \"heartbeat\"\ntimeout = \"x\"\n",
        "scenario spec error: timeout must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[fd]\nkind = \"heartbeat\"\nwat = 1\n",
        "scenario spec error: unknown key `wat` in fd (allowed: kind, period, timeout)",
    ),
    (
        "name = \"p\"\nn = 4\ntopics = 1\n",
        "scenario spec error: topics must be a table",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\nwat = 1\n",
        "scenario spec error: unknown key `wat` in topics (allowed: count, drain_ticks, events)",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ndrain_ticks = 1\n",
        "scenario spec error: missing required key `count`",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = \"x\"\n",
        "scenario spec error: count must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 4294967298\n",
        "scenario spec error: topics.count = 4294967298 does not fit a u32 (max 4294967295)",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 0\n",
        "scenario spec error: topics.count must be positive",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\ndrain_ticks = \"x\"\n",
        "scenario spec error: topics.drain_ticks must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\ndrain_ticks = 4294967298\n",
        "scenario spec error: topics.drain_ticks = 4294967298 does not fit a u32 (max 4294967295)",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\nevents = 1\n",
        "scenario spec error: topics.events must be an array",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\nevents = [1]\n",
        "scenario spec error: topics.events must be a table",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\ncreate = 1\n",
        "scenario spec error: missing required key `at`",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = \"x\"\ncreate = 1\n",
        "scenario spec error: at must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = 1\ncreate = \"x\"\n",
        "scenario spec error: topics.events.create must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = 1\nretire = \"x\"\n",
        "scenario spec error: topics.events.retire must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = 1\ncreate = 1\nalgorithm = 1\n",
        "scenario spec error: topics.events.algorithm must be a string",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = 1\ncreate = 1\nalgorithm = \"paxos\"\n",
        "scenario spec error: unknown algorithm \"paxos\" (majority | quiescent | quiescent-literal | best-effort | eager-rb | backoff:<cap> | weakened:<threshold>)",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = 1\ncreate = 1\nwat = 2\n",
        "scenario spec error: unknown key `wat` in topics.events (allowed: at, create, retire, algorithm)",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = 1\ncreate = 1\nretire = 2\n",
        "scenario spec error: topics.events entry needs exactly one of `create` / `retire`",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = 1\n",
        "scenario spec error: topics.events entry needs exactly one of `create` / `retire`",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = 1\nretire = 1\nalgorithm = \"majority\"\n",
        "scenario spec error: topics.events: `algorithm` only applies to `create` entries",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = 1\ncreate = 4294967298\n",
        "scenario spec error: topics.events.create = 4294967298 does not fit a u32 (max 4294967295)",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = 1\nretire = 4294967298\n",
        "scenario spec error: topics.events.retire = 4294967298 does not fit a u32 (max 4294967295)",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = 5\ncreate = 0\n",
        "scenario spec error: topics.events: create of topic 0 which is statically configured (topics.count = 1)",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = 5\ncreate = 1\n[[topics.events]]\nat = 9\ncreate = 1\n",
        "scenario spec error: topics.events: create of topic 1 at t=9 while it is already live",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = 5\nretire = 3\n",
        "scenario spec error: topics.events: retire of topic 3 at t=5 while it is not live",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[workload.explicit]]\ntime = 1\npid = 0\ntopic = 4\npayload = \"x\"\n",
        "scenario spec error: workload topic 4 out of range for topics.count = 1 (and no [[topics.events]] create for it)",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 1\n[[topics.events]]\nat = 5\ncreate = 1\nalgorithm = \"weakened:9\"\n",
        "scenario spec error: algorithm \"weakened:9\" cannot run with n = 4",
    ),
    (
        "name = \"p\"\nn = 4\nlink = 1\n",
        "scenario spec error: link must be an array",
    ),
    (
        "name = \"p\"\nn = 4\nlink = [1]\n",
        "scenario spec error: link must be a table",
    ),
    (
        "name = \"p\"\nn = 4\n[[link]]\nfrom = 0\nto = 1\nwat = 1\n",
        "scenario spec error: unknown key `wat` in link (allowed: from, to, loss, delay)",
    ),
    (
        "name = \"p\"\nn = 4\n[[link]]\nto = 1\n",
        "scenario spec error: missing required key `from`",
    ),
    (
        "name = \"p\"\nn = 4\n[[link]]\nfrom = 0\n",
        "scenario spec error: missing required key `to`",
    ),
    (
        "name = \"p\"\nn = 4\n[[link]]\nfrom = \"x\"\nto = 1\n",
        "scenario spec error: from must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[link]]\nfrom = 0\nto = \"x\"\n",
        "scenario spec error: to must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[link]]\nfrom = 0\nto = 1\nloss = 1\n",
        "scenario spec error: loss must be a table",
    ),
    (
        "name = \"p\"\nn = 4\n[[link]]\nfrom = 0\nto = 1\ndelay = 1\n",
        "scenario spec error: delay must be a table",
    ),
    (
        "name = \"p\"\nn = 4\n[[link]]\nfrom = 9\nto = 1\nloss = \"always\"\n",
        "scenario spec error: link.from 9 out of range for n = 4",
    ),
    (
        "name = \"p\"\nn = 4\n[[link]]\nfrom = 0\nto = 9\nloss = \"always\"\n",
        "scenario spec error: link.to 9 out of range for n = 4",
    ),
    (
        "name = \"p\"\nn = 4\n[[link]]\nfrom = 0\nto = 1\n",
        "scenario spec error: link 0 → 1 overrides neither loss nor delay",
    ),
    (
        "name = \"p\"\nn = 4\n[[link]]\nfrom = 0\nto = 1\nloss = { model = \"bernoulli\", p = 1.5 }\n",
        "scenario spec error: loss probability 1.5 not in [0, 1]",
    ),
    (
        "name = \"p\"\nn = 4\nblackout = 1\n",
        "scenario spec error: blackout must be an array",
    ),
    (
        "name = \"p\"\nn = 4\nblackout = [1]\n",
        "scenario spec error: blackout must be a table",
    ),
    (
        "name = \"p\"\nn = 4\n[[blackout]]\nfrom = 0\nto = 1\nstart = 1\nend = 2\nwat = 1\n",
        "scenario spec error: unknown key `wat` in blackout (allowed: from, to, start, end)",
    ),
    (
        "name = \"p\"\nn = 4\n[[blackout]]\nto = 1\nstart = 1\nend = 2\n",
        "scenario spec error: missing required key `from`",
    ),
    (
        "name = \"p\"\nn = 4\n[[blackout]]\nfrom = \"x\"\nto = 1\nstart = 1\nend = 2\n",
        "scenario spec error: from must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[blackout]]\nfrom = 0\nstart = 1\nend = 2\n",
        "scenario spec error: missing required key `to`",
    ),
    (
        "name = \"p\"\nn = 4\n[[blackout]]\nfrom = 0\nto = \"x\"\nstart = 1\nend = 2\n",
        "scenario spec error: to must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[blackout]]\nfrom = 0\nto = 1\nend = 2\n",
        "scenario spec error: missing required key `start`",
    ),
    (
        "name = \"p\"\nn = 4\n[[blackout]]\nfrom = 0\nto = 1\nstart = \"x\"\nend = 2\n",
        "scenario spec error: start must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[blackout]]\nfrom = 0\nto = 1\nstart = 1\n",
        "scenario spec error: missing required key `end`",
    ),
    (
        "name = \"p\"\nn = 4\n[[blackout]]\nfrom = 0\nto = 1\nstart = 1\nend = \"x\"\n",
        "scenario spec error: end must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[blackout]]\nfrom = 9\nto = 1\nstart = 1\nend = 2\n",
        "scenario spec error: blackout.from 9 out of range for n = 4",
    ),
    (
        "name = \"p\"\nn = 4\n[[blackout]]\nfrom = 0\nto = 9\nstart = 1\nend = 2\n",
        "scenario spec error: blackout.to 9 out of range for n = 4",
    ),
    (
        "name = \"p\"\nn = 4\n[[blackout]]\nfrom = 0\nto = 1\nstart = 9\nend = 9\n",
        "scenario spec error: blackout window [9, 9) never opens",
    ),
    (
        "name = \"p\"\nn = 4\nworkload = 1\n",
        "scenario spec error: workload must be a table",
    ),
    (
        "name = \"p\"\nn = 4\nworkload = [1]\n",
        "scenario spec error: workload must be a table",
    ),
    (
        "name = \"p\"\nn = 4\nworkload = []\n",
        "scenario spec error: [[workload]] must not be empty",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload]]\ncount = 1\nwat = 1\n",
        "scenario spec error: unknown key `wat` in workload (allowed: topic, count, spacing, start)",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload]]\ntopic = 0\n",
        "scenario spec error: missing required key `count`",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload]]\ntopic = \"x\"\ncount = 1\n",
        "scenario spec error: topic must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload]]\ntopic = 0\ncount = \"x\"\nspacing = 1\nstart = 1\n",
        "scenario spec error: count must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload]]\ntopic = 0\ncount = 1\nspacing = \"x\"\nstart = 1\n",
        "scenario spec error: spacing must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload]]\ntopic = 0\ncount = 1\nspacing = 1\nstart = \"x\"\n",
        "scenario spec error: start must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload]]\ntopic = 4294967298\ncount = 1\n",
        "scenario spec error: workload.topic = 4294967298 does not fit a u32 (max 4294967295)",
    ),
    (
        "name = \"p\"\nn = 4\n[workload]\nwat = 1\n",
        "scenario spec error: unknown key `wat` in workload (allowed: count, spacing, start, explicit)",
    ),
    (
        "name = \"p\"\nn = 4\n[workload]\nspacing = 5\n",
        "scenario spec error: missing required key `count`",
    ),
    (
        "name = \"p\"\nn = 4\n[workload]\ncount = \"x\"\n",
        "scenario spec error: count must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[workload]\ncount = 1\nspacing = \"x\"\n",
        "scenario spec error: spacing must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[workload]\ncount = 1\nstart = \"x\"\n",
        "scenario spec error: start must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[workload]\ncount = 1\nexplicit = []\n",
        "scenario spec error: workload has both `count` and `explicit` — pick one form",
    ),
    (
        "name = \"p\"\nn = 4\n[workload]\nspacing = 99999\nstart = 7\n\
         [[workload.explicit]]\ntime = 10\npid = 0\npayload = \"m\"\n",
        "scenario spec error: workload has both `spacing` and `explicit` — pick one form",
    ),
    (
        "name = \"p\"\nn = 4\n[workload]\nstart = 7\n\
         [[workload.explicit]]\ntime = 10\npid = 0\npayload = \"m\"\n",
        "scenario spec error: workload has both `start` and `explicit` — pick one form",
    ),
    (
        "name = \"p\"\nn = 4\n[workload]\nexplicit = 1\n",
        "scenario spec error: workload.explicit must be an array",
    ),
    (
        "name = \"p\"\nn = 4\n[workload]\nexplicit = []\n",
        "scenario spec error: workload.explicit must not be empty",
    ),
    (
        "name = \"p\"\nn = 4\n[workload]\nexplicit = [1]\n",
        "scenario spec error: workload.explicit must be a table",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload.explicit]]\ntime = 1\npid = 0\npayload = \"x\"\nwat = 1\n",
        "scenario spec error: unknown key `wat` in workload.explicit (allowed: time, pid, topic, payload)",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload.explicit]]\npid = 0\npayload = \"x\"\n",
        "scenario spec error: missing required key `time`",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload.explicit]]\ntime = 1\npayload = \"x\"\n",
        "scenario spec error: missing required key `pid`",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload.explicit]]\ntime = 1\npid = 0\n",
        "scenario spec error: missing required key `payload`",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload.explicit]]\ntime = \"x\"\npid = 0\npayload = \"x\"\n",
        "scenario spec error: time must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload.explicit]]\ntime = 1\npid = \"x\"\npayload = \"x\"\n",
        "scenario spec error: pid must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload.explicit]]\ntime = 1\npid = 0\ntopic = \"x\"\npayload = \"x\"\n",
        "scenario spec error: topic must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload.explicit]]\ntime = 1\npid = 0\npayload = 1\n",
        "scenario spec error: payload must be a string",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload.explicit]]\ntime = 1\npid = 0\ntopic = 4294967298\npayload = \"x\"\n",
        "scenario spec error: workload.explicit.topic = 4294967298 does not fit a u32 (max 4294967295)",
    ),
    (
        "name = \"p\"\nn = 4\n[topics]\ncount = 2\n[[workload]]\ntopic = 5\ncount = 1\n",
        "scenario spec error: workload topic 5 out of range for topics.count = 2 (and no [[topics.events]] create for it)",
    ),
    (
        "name = \"p\"\nn = 4\n[[workload.explicit]]\ntime = 1\npid = 9\npayload = \"x\"\n",
        "scenario spec error: workload pid 9 out of range for n = 4",
    ),
    (
        "name = \"p\"\nn = 4\ncrash = 1\n",
        "scenario spec error: crash must be an array",
    ),
    (
        "name = \"p\"\nn = 4\ncrash = [1]\n",
        "scenario spec error: crash must be a table",
    ),
    (
        "name = \"p\"\nn = 4\n[[crash]]\npid = 1\nat = 5\nwat = 1\n",
        "scenario spec error: unknown key `wat` in crash (allowed: pid, at, on_first_delivery, delay, never)",
    ),
    (
        "name = \"p\"\nn = 4\n[[crash]]\nat = 5\n",
        "scenario spec error: missing required key `pid`",
    ),
    (
        "name = \"p\"\nn = 4\n[[crash]]\npid = \"x\"\nat = 5\n",
        "scenario spec error: pid must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[crash]]\npid = 1\nat = \"x\"\n",
        "scenario spec error: at must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[crash]]\npid = 1\non_first_delivery = 1\n",
        "scenario spec error: on_first_delivery must be a boolean",
    ),
    (
        "name = \"p\"\nn = 4\n[[crash]]\npid = 1\nnever = 1\n",
        "scenario spec error: never must be a boolean",
    ),
    (
        "name = \"p\"\nn = 4\n[[crash]]\npid = 1\non_first_delivery = true\ndelay = \"x\"\n",
        "scenario spec error: delay must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[crash]]\npid = 1\n",
        "scenario spec error: crash entry for pid 1 needs exactly one of `at`, `on_first_delivery = true` or `never = true`",
    ),
    (
        "name = \"p\"\nn = 4\n[[crash]]\npid = 1\nnever = true\nat = 5\n",
        "scenario spec error: crash entry for pid 1 needs exactly one of `at`, `on_first_delivery = true` or `never = true`",
    ),
    (
        "name = \"p\"\nn = 4\n[[crash]]\npid = 1\nat = 5\ndelay = 2\n",
        "scenario spec error: crash entry for pid 1: `delay` only applies to `on_first_delivery`",
    ),
    (
        "name = \"p\"\nn = 4\n[[crash]]\npid = 9\nat = 5\n",
        "scenario spec error: crash pid 9 out of range for n = 4",
    ),
    (
        "name = \"p\"\nn = 4\n[[crash]]\npid = 0\nat = 1\n[[crash]]\npid = 1\nat = 1\n[[crash]]\npid = 2\nat = 1\n[[crash]]\npid = 3\nat = 1\n",
        "scenario spec error: crash plan leaves no correct process (the model requires one)",
    ),
    (
        "name = \"p\"\nn = 4\ncrash_random = 1\n",
        "scenario spec error: crash_random must be a table",
    ),
    (
        "name = \"p\"\nn = 4\n[crash_random]\ncount = 1\nwat = 1\n",
        "scenario spec error: unknown key `wat` in crash_random (allowed: count, horizon, protect)",
    ),
    (
        "name = \"p\"\nn = 4\n[crash_random]\nhorizon = 1\n",
        "scenario spec error: missing required key `count`",
    ),
    (
        "name = \"p\"\nn = 4\n[crash_random]\ncount = \"x\"\n",
        "scenario spec error: count must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[crash_random]\ncount = 1\nhorizon = \"x\"\n",
        "scenario spec error: horizon must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[crash_random]\ncount = 1\nprotect = \"x\"\n",
        "scenario spec error: protect must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[crash_random]\ncount = 4\n",
        "scenario spec error: crash_random.count 4 leaves no correct process (n = 4)",
    ),
    (
        "name = \"p\"\nn = 4\n[crash_random]\ncount = 1\nprotect = 9\n",
        "scenario spec error: crash_random.protect 9 out of range for n = 4",
    ),
    (
        "name = \"p\"\nn = 4\nschedule = 1\n",
        "scenario spec error: schedule must be an array",
    ),
    (
        "name = \"p\"\nn = 4\nschedule = [1]\n",
        "scenario spec error: schedule must be a table",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\na = [0]\n",
        "scenario spec error: missing required key `kind`",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = 1\n",
        "scenario spec error: kind must be a string",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"x\"\n",
        "scenario spec error: unknown schedule kind \"x\" (partition-heal | ack-starvation | targeted-delay | crash-storm | churn)",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"partition-heal\"\na = [0]\nb = [1]\nend = 5\nwat = 1\n",
        "scenario spec error: unknown key `wat` in schedule (allowed: kind, a, b, start, end)",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"partition-heal\"\nb = [1]\nend = 5\n",
        "scenario spec error: partition-heal needs `a`",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"partition-heal\"\na = [0]\nend = 5\n",
        "scenario spec error: partition-heal needs `b`",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"partition-heal\"\na = 0\nb = [1]\nend = 5\n",
        "scenario spec error: a must be an array",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"partition-heal\"\na = [\"x\"]\nb = [1]\nend = 5\n",
        "scenario spec error: a must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"partition-heal\"\na = [0]\nb = [1]\n",
        "scenario spec error: missing required key `end`",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"partition-heal\"\na = [0]\nb = [1]\nstart = \"x\"\nend = 5\n",
        "scenario spec error: start must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"partition-heal\"\na = []\nb = [1]\nend = 5\n",
        "scenario spec error: schedule \"partition-heal\": partition groups must be non-empty",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"partition-heal\"\na = [0]\nb = [0]\nend = 5\n",
        "scenario spec error: schedule \"partition-heal\": partition groups overlap",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"partition-heal\"\na = [0]\nb = [1]\nstart = 5\nend = 5\n",
        "scenario spec error: schedule \"partition-heal\": window [5, 5) never opens",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"partition-heal\"\na = [0]\nb = [9]\nend = 5\n",
        "scenario spec error: schedule \"partition-heal\": group member 9 out of range for n = 4",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"ack-starvation\"\nvictim = 1\nend = 5\nwat = 1\n",
        "scenario spec error: unknown key `wat` in schedule (allowed: kind, victim, start, end)",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"ack-starvation\"\nend = 5\n",
        "scenario spec error: missing required key `victim`",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"ack-starvation\"\nvictim = 1\n",
        "scenario spec error: missing required key `end`",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"ack-starvation\"\nvictim = \"x\"\nend = 5\n",
        "scenario spec error: victim must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"ack-starvation\"\nvictim = 8\nend = 10\n",
        "scenario spec error: schedule \"ack-starvation\": victim 8 out of range for n = 4",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"targeted-delay\"\nlinks = [[0, 1]]\ncap = 9\nwat = 1\n",
        "scenario spec error: unknown key `wat` in schedule (allowed: kind, links, base, p_more, cap)",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"targeted-delay\"\ncap = 9\n",
        "scenario spec error: targeted-delay needs `links`",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"targeted-delay\"\nlinks = 1\ncap = 9\n",
        "scenario spec error: links must be an array",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"targeted-delay\"\nlinks = [1]\ncap = 9\n",
        "scenario spec error: links entry must be an array",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"targeted-delay\"\nlinks = [[0]]\ncap = 9\n",
        "scenario spec error: each links entry must be [from, to]",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"targeted-delay\"\nlinks = [[\"x\", 1]]\ncap = 9\n",
        "scenario spec error: links.from must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"targeted-delay\"\nlinks = [[0, \"x\"]]\ncap = 9\n",
        "scenario spec error: links.to must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"targeted-delay\"\nlinks = [[0, 1]]\n",
        "scenario spec error: missing required key `cap`",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"targeted-delay\"\nlinks = [[0, 1]]\ncap = 9\np_more = \"x\"\n",
        "scenario spec error: p_more must be a number",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"targeted-delay\"\nlinks = [[0, 1]]\ncap = 9\nbase = \"x\"\n",
        "scenario spec error: base must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"targeted-delay\"\nlinks = [[0, 1]]\ncap = 9\np_more = 1.0\n",
        "scenario spec error: schedule \"targeted-delay\": targeted-delay: p_more 1 not in [0, 1)",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"targeted-delay\"\nlinks = [[0, 1]]\ncap = 1\nbase = 5\n",
        "scenario spec error: schedule \"targeted-delay\": targeted-delay: cap 1 below base 5",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"targeted-delay\"\nlinks = [[9, 1]]\ncap = 9\n",
        "scenario spec error: schedule \"targeted-delay\": link.from 9 out of range for n = 4",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"targeted-delay\"\nlinks = [[0, 9]]\ncap = 9\n",
        "scenario spec error: schedule \"targeted-delay\": link.to 9 out of range for n = 4",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"crash-storm\"\ncount = 1\nwat = 1\n",
        "scenario spec error: unknown key `wat` in schedule (allowed: kind, count, start, width, protect)",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"crash-storm\"\nstart = 1\n",
        "scenario spec error: missing required key `count`",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"crash-storm\"\ncount = \"x\"\n",
        "scenario spec error: count must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"crash-storm\"\ncount = 1\nwidth = \"x\"\n",
        "scenario spec error: width must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"crash-storm\"\ncount = 1\nprotect = \"x\"\n",
        "scenario spec error: protect must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"crash-storm\"\ncount = 9\n",
        "scenario spec error: schedule \"crash-storm\": crash-storm: cannot pick 9 victims from 4 processes",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"crash-storm\"\ncount = 4\n",
        "scenario spec error: schedule \"crash-storm\": crash-storm: no correct process would remain",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"churn\"\na = [0]\nb = [1]\ncut = 5\nheal = 5\ncycles = 1\nwat = 2\n",
        "scenario spec error: unknown key `wat` in schedule (allowed: kind, a, b, start, cut, heal, cycles)",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"churn\"\nb = [1]\ncut = 5\nheal = 5\ncycles = 1\n",
        "scenario spec error: churn needs `a`",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"churn\"\na = [0]\ncut = 5\nheal = 5\ncycles = 1\n",
        "scenario spec error: churn needs `b`",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"churn\"\na = [0]\nb = [1]\nheal = 5\ncycles = 1\n",
        "scenario spec error: missing required key `cut`",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"churn\"\na = [0]\nb = [1]\ncut = 5\ncycles = 1\n",
        "scenario spec error: missing required key `heal`",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"churn\"\na = [0]\nb = [1]\ncut = 5\nheal = 5\n",
        "scenario spec error: missing required key `cycles`",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"churn\"\na = [0]\nb = [1]\ncut = 5\nheal = 5\ncycles = 4294967298\n",
        "scenario spec error: schedule.cycles = 4294967298 does not fit a u32 (max 4294967295)",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"churn\"\na = [0]\nb = [1]\ncut = 0\nheal = 5\ncycles = 1\n",
        "scenario spec error: schedule \"churn\": churn: cut length and cycle count must be positive",
    ),
    (
        "name = \"p\"\nn = 4\n[[schedule]]\nkind = \"churn\"\na = [0]\nb = [1]\ncut = \"x\"\nheal = 5\ncycles = 1\n",
        "scenario spec error: cut must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\nexpect = 1\n",
        "scenario spec error: expect must be a table",
    ),
    (
        "name = \"p\"\nn = 4\n[expect]\nall_okay = true\n",
        "scenario spec error: unknown key `all_okay` in expect (allowed: all_ok, validity, agreement, integrity, quiescent, min_deliveries, topics_all_ok, min_deliveries_per_topic, min_reclaimed_topics)",
    ),
    (
        "name = \"p\"\nn = 4\n[expect]\nall_ok = 1\n",
        "scenario spec error: all_ok must be a boolean",
    ),
    (
        "name = \"p\"\nn = 4\n[expect]\nvalidity = 1\n",
        "scenario spec error: validity must be a boolean",
    ),
    (
        "name = \"p\"\nn = 4\n[expect]\nagreement = 1\n",
        "scenario spec error: agreement must be a boolean",
    ),
    (
        "name = \"p\"\nn = 4\n[expect]\nintegrity = 1\n",
        "scenario spec error: integrity must be a boolean",
    ),
    (
        "name = \"p\"\nn = 4\n[expect]\nquiescent = 1\n",
        "scenario spec error: quiescent must be a boolean",
    ),
    (
        "name = \"p\"\nn = 4\n[expect]\ntopics_all_ok = 1\n",
        "scenario spec error: topics_all_ok must be a boolean",
    ),
    (
        "name = \"p\"\nn = 4\n[expect]\nmin_deliveries = \"x\"\n",
        "scenario spec error: min_deliveries must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[expect]\nmin_deliveries_per_topic = \"x\"\n",
        "scenario spec error: min_deliveries_per_topic must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[expect]\nmin_reclaimed_topics = \"x\"\n",
        "scenario spec error: min_reclaimed_topics must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\ncheck = 1\n",
        "scenario spec error: check must be a table",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\nwat = 1\n",
        "scenario spec error: unknown key `wat` in check (allowed: depth, max_drops, tick_budget, delay_budget, walks, strategy)",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\ndepth = \"x\"\n",
        "scenario spec error: depth must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\ndepth = 4294967298\n",
        "scenario spec error: check.depth = 4294967298 does not fit a u32 (max 4294967295)",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\nmax_drops = \"x\"\n",
        "scenario spec error: max_drops must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\nmax_drops = 4294967298\n",
        "scenario spec error: check.max_drops = 4294967298 does not fit a u32 (max 4294967295)",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\ntick_budget = \"x\"\n",
        "scenario spec error: tick_budget must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\ntick_budget = 4294967298\n",
        "scenario spec error: check.tick_budget = 4294967298 does not fit a u32 (max 4294967295)",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\ndelay_budget = \"x\"\n",
        "scenario spec error: delay_budget must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\ndelay_budget = 4294967298\n",
        "scenario spec error: check.delay_budget = 4294967298 does not fit a u32 (max 4294967295)",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\nwalks = \"x\"\n",
        "scenario spec error: walks must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\nwalks = 4294967298\n",
        "scenario spec error: check.walks = 4294967298 does not fit a u32 (max 4294967295)",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\ndepth = 0\n",
        "scenario spec error: check.depth must be positive",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\nwalks = 0\n",
        "scenario spec error: check.walks must be positive",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\nstrategy = 1\n",
        "scenario spec error: strategy must be a string",
    ),
    (
        "name = \"p\"\nn = 4\n[check]\nstrategy = \"bfs\"\n",
        "scenario spec error: unknown check strategy \"bfs\" (dfs | dpor-lite | random)",
    ),
    (
        "name = \"p\"\nn = 4\nmemory = 1\n",
        "scenario spec error: memory must be a table",
    ),
    (
        "name = \"p\"\nn = 4\n[memory]\nwat = 1\n",
        "scenario spec error: unknown key `wat` in memory (allowed: grace_ticks, conservative, tombstones, ceiling, spill)",
    ),
    (
        "name = \"p\"\nn = 4\n[memory]\ngrace_ticks = \"x\"\n",
        "scenario spec error: grace_ticks must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[memory]\ngrace_ticks = 4294967298\n",
        "scenario spec error: memory.grace_ticks = 4294967298 does not fit a u32 (max 4294967295)",
    ),
    (
        "name = \"p\"\nn = 4\n[memory]\nconservative = 1\n",
        "scenario spec error: memory.conservative must be a boolean",
    ),
    (
        "name = \"p\"\nn = 4\n[memory]\ntombstones = \"x\"\n",
        "scenario spec error: tombstones must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[memory]\nceiling = \"x\"\n",
        "scenario spec error: memory.ceiling must be a non-negative integer",
    ),
    (
        "name = \"p\"\nn = 4\n[memory]\nspill = 1\n",
        "scenario spec error: spill must be a string",
    ),
    (
        "name = \"p\"\nn = 4\n[memory]\nspill = \"all\"\n",
        "scenario spec error: unknown memory spill policy \"all\" (stable-only | tombstones)",
    ),
];
