//! Exit-code contract of the `urb` binary, exercised end to end on the
//! real executable (`CARGO_BIN_EXE_urb`).
//!
//! CI gates on these codes: the corpus-replay loop distinguishes a
//! scenario whose `[expect]` verdict failed (exit 1) from an unreadable
//! or malformed spec (exit 2), `check-smoke` relies on `urb check`
//! failing when an expected violation is not found, and the bench gate
//! relies on `--diff` failing on any count-metric divergence. A silent
//! regression here would turn every red gate green, hence this suite.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn urb() -> Command {
    Command::new(env!("CARGO_BIN_EXE_urb"))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap()
}

fn run(args: &[&str]) -> Output {
    urb().args(args).output().expect("binary runs")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("no signal")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("urb_exit_codes_{}_{name}", std::process::id()))
}

// ------------------------------------------------------------------
// `urb scenario` — verdict failures (1) vs unusable specs (2).

#[test]
fn scenario_pass_is_exit_zero() {
    let spec = repo_root().join("scenarios/clean_smoke.toml");
    let out = run(&["scenario", spec.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("scenario verdict: PASS"), "{stdout}");
}

#[test]
fn scenario_verdict_failure_is_exit_one() {
    // A healthy run that cannot meet its own expectations: the exit code
    // must be 1 (verdict failure), not 2 (unusable spec), and the reason
    // must be printed — this is what lets the CI corpus loop tell "the
    // protocol regressed" from "the file is broken".
    let path = tmp("verdict_fail.toml");
    std::fs::write(
        &path,
        "name = \"doomed-expectation\"\nn = 3\n[expect]\nmin_deliveries = 999\n",
    )
    .unwrap();
    let out = run(&["scenario", path.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("scenario verdict: FAIL"), "{stderr}");
    assert!(stderr.contains("999"), "names the failed expectation");
    std::fs::remove_file(&path).ok();
}

#[test]
fn scenario_unusable_spec_is_exit_two() {
    let out = run(&["scenario", "/nonexistent/spec.toml"]);
    assert_eq!(code(&out), 2, "missing file: {out:?}");
    let path = tmp("bad_spec.toml");
    std::fs::write(&path, "name = \"bad\"\nn = 3\nwat = 1\n").unwrap();
    let out = run(&["scenario", path.to_str().unwrap()]);
    assert_eq!(code(&out), 2, "malformed spec: {out:?}");
    // An algorithm parameter the system size cannot run is unusable
    // input too — it must not reach the constructors' assertions.
    for alg in ["backoff:0", "weakened:9"] {
        std::fs::write(
            &path,
            format!("name = \"bad\"\nn = 4\nalgorithm = \"{alg}\"\n"),
        )
        .unwrap();
        let out = run(&["scenario", path.to_str().unwrap()]);
        assert_eq!(code(&out), 2, "{alg}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(alg), "names the algorithm: {stderr}");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn scenario_integers_past_u32_are_exit_two_not_wrapped() {
    // The corpus's two-topic smoke with a topic count and a workload
    // topic past u32::MAX: unusable input naming the key, not a run on
    // the wrapped value (2 topics, topic 1) that passes.
    let smoke =
        std::fs::read_to_string(repo_root().join("scenarios/two_topics_smoke.toml")).unwrap();
    let path = tmp("u32_wrap.toml");
    for (from, to, key) in [
        ("count = 2\n", "count = 4294967298\n", "topics.count"),
        ("topic = 1\n", "topic = 4294967297\n", "workload.topic"),
    ] {
        assert!(smoke.contains(from));
        std::fs::write(&path, smoke.replacen(from, to, 1)).unwrap();
        let out = run(&["scenario", path.to_str().unwrap()]);
        assert_eq!(code(&out), 2, "{key}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(key), "names {key}: {stderr}");
    }
    std::fs::remove_file(&path).ok();
}

/// Writes `body` to a scratch spec and runs `urb <sub> <spec>`: the spec
/// must be refused with exit 2 and an error naming each of `names`.
fn assert_refused(sub: &str, file: &str, body: &str, names: &[&str]) {
    let path = tmp(file);
    std::fs::write(&path, body).unwrap();
    let out = run(&[sub, path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code(&out), 2, "{sub} {body:?}: {out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for name in names {
        assert!(stderr.contains(name), "names {name}: {stderr}");
    }
}

#[test]
fn generated_workload_times_past_u64_are_exit_two_not_wrapped() {
    // Broadcast 2048 would land at 10 + 2048 · 2^53, which wraps to 10:
    // before the fix this planned 2 broadcasts and passed.
    assert_refused(
        "scenario",
        "spacing_wrap.toml",
        "name = \"w\"\nn = 3\nhorizon = 100\n\
         [workload]\ncount = 4096\nspacing = 9007199254740992\n",
        &["workload.spacing", "9007199254740992"],
    );
}

#[test]
fn schedule_times_past_u64_are_exit_two_not_wrapped() {
    // Churn's cycle i starts at start + i·(cut + heal): cycle 4096 at
    // 4096 · 2^53 = 2^65. TOML integers stop at 2^53, JSON numbers do
    // not: crash-storm's second victim lands at start + width = 2·10^19.
    assert_refused(
        "scenario",
        "churn_wrap.toml",
        "name = \"w\"\nn = 4\n[[schedule]]\nkind = \"churn\"\na = [0]\nb = [1]\n\
         cut = 4503599627370496\nheal = 4503599627370496\ncycles = 4097\n",
        &["churn", "cut + heal"],
    );
    assert_refused(
        "scenario",
        "storm_wrap.json",
        r#"{"name": "w", "n": 4, "schedule": [
            {"kind": "crash-storm", "count": 2, "start": 1e19, "width": 1e19}]}"#,
        &["crash-storm", "width"],
    );
}

#[test]
fn oversized_system_is_exit_two_not_an_abort() {
    // n = 5 000 000 asked for about 3.8 PB of per-link state.
    let spec = "name = \"big\"\nn = 5000000\n";
    assert_refused("scenario", "big_n.toml", spec, &["n = 5000000", "1024"]);
    assert_refused("check", "big_n_check.toml", spec, &["n = 5000000", "1024"]);
    let out = run(&["run", "--n", "5000000"]);
    assert_eq!(code(&out), 2, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--n must be at most 1024"), "{stderr}");
}

#[test]
fn oversized_counts_are_exit_two_not_an_abort() {
    // 4·10^9 cycles of a one-link churn asked for 8·10^9 blackouts.
    assert_refused(
        "scenario",
        "big_churn.toml",
        "name = \"big\"\nn = 2\n[[schedule]]\nkind = \"churn\"\na = [0]\nb = [1]\n\
         cut = 1\nheal = 1\ncycles = 4000000000\n",
        &["churn", "cycles = 4000000000"],
    );
    assert_refused(
        "scenario",
        "big_topics.toml",
        "name = \"big\"\nn = 2\n[topics]\ncount = 4000000000\n",
        &["topics.count", "4000000000"],
    );
    assert_refused(
        "scenario",
        "big_workload.toml",
        "name = \"big\"\nn = 2\n[workload]\ncount = 3000000000\n",
        &["workload.count", "3000000000"],
    );
}

// ------------------------------------------------------------------
// `urb check` — exploration verdicts and counterexample replay.

#[test]
fn check_finds_expected_violation_and_replays_it() {
    let spec = repo_root().join("scenarios/theorem2_violation.toml");
    let trace = tmp("theorem2_cx.json");
    let out = run(&[
        "check",
        spec.to_str().unwrap(),
        "--trace",
        trace.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("PASS — expected violation found"),
        "{stdout}"
    );
    // The emitted counterexample replays byte-deterministically.
    let out = run(&["check", "--replay", trace.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("reproduced the recorded violation"),
        "{stdout}"
    );
    std::fs::remove_file(&trace).ok();
}

#[test]
fn check_missed_expected_violation_is_exit_one() {
    // Depth 2 cannot reach the Theorem-2 violation: the check must fail.
    let spec = repo_root().join("scenarios/theorem2_violation.toml");
    let out = run(&["check", spec.to_str().unwrap(), "--depth", "2"]);
    assert_eq!(code(&out), 1, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAIL"), "{stdout}");
}

#[test]
fn check_clean_scenario_passes_and_emits_json_envelope() {
    let path = tmp("clean_check.toml");
    std::fs::write(
        &path,
        "name = \"tiny-clean\"\nn = 2\nalgorithm = \"majority\"\n\
         [check]\ndepth = 16\nmax_drops = 1\n",
    )
    .unwrap();
    let out = run(&["check", path.to_str().unwrap(), "--json"]);
    assert_eq!(code(&out), 0, "{out:?}");
    let v: serde_json::Value = serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(v["kind"], "check-report");
    assert_eq!(v["data"]["passed"], true);
    assert_eq!(v["data"]["scenario"], "tiny-clean");
    assert!(v["data"]["stats"]["states"].as_u64().unwrap() > 0);
    assert!(v["data"]["counterexample"].is_null());
    std::fs::remove_file(&path).ok();
}

#[test]
fn check_unusable_input_is_exit_two() {
    assert_eq!(code(&run(&["check", "/nonexistent.toml"])), 2);
    assert_eq!(code(&run(&["check", "--replay", "/nonexistent.json"])), 2);
    let path = tmp("not_a_cx.json");
    std::fs::write(&path, "{\"hello\": 1}").unwrap();
    assert_eq!(
        code(&run(&["check", "--replay", path.to_str().unwrap()])),
        2
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn deeply_nested_input_is_rejected_not_a_stack_overflow() {
    // 200 000 open brackets: each loader must refuse the file with its
    // documented code (2, or 1 for `bench --validate`), never abort.
    let deep_json = tmp("deep.json");
    let deep_toml = tmp("deep.toml");
    std::fs::write(&deep_json, "[".repeat(200_000)).unwrap();
    std::fs::write(&deep_toml, format!("k = {}", "[".repeat(200_000))).unwrap();
    let (json, toml) = (deep_json.to_str().unwrap(), deep_toml.to_str().unwrap());
    for (args, want) in [
        (vec!["scenario", json], 2),
        (vec!["scenario", toml], 2),
        (vec!["check", "--replay", json], 2),
        (vec!["bench", "--validate", json], 1),
    ] {
        let out = run(&args);
        assert_eq!(code(&out), want, "{args:?}: {out:?}");
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(text.contains("nesting deeper than 128"), "{args:?}: {text}");
    }
    for p in [deep_json, deep_toml] {
        std::fs::remove_file(&p).ok();
    }
}

#[test]
fn check_json_reports_per_strategy_cost_fields() {
    // The fields a dfs / dpor-lite / random cost comparison reads.
    let spec = repo_root().join("scenarios/clean_smoke.toml");
    for strategy in ["dfs", "dpor-lite", "random"] {
        let out = run(&[
            "check",
            spec.to_str().unwrap(),
            "--strategy",
            strategy,
            "--depth",
            "6",
            "--json",
        ]);
        assert_eq!(code(&out), 0, "{strategy}: {out:?}");
        let v: serde_json::Value =
            serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
        let data = &v["data"];
        assert_eq!(data["strategy"], strategy);
        let stats = &data["stats"];
        assert!(stats["states"].as_u64().unwrap() > 0, "{strategy}: {v:?}");
        for field in ["states_per_sec", "dedup_hit_rate", "dpor_pruned"] {
            assert!(stats[field].as_f64().is_some(), "{strategy}.{field}: {v:?}");
        }
    }
}

// ------------------------------------------------------------------
// `urb check --jobs` — the parallel frontier, exercised end to end on
// the binary.

/// Drop the fields that legitimately vary with `--jobs`: the requested
/// worker count itself and the wall-clock throughput figure.
fn scrub_volatile(v: &mut serde_json::Value) {
    use serde_json::Value;
    if let Value::Object(top) = v {
        if let Some(Value::Object(data)) = top.get_mut("data") {
            data.remove("jobs");
            if let Some(Value::Object(stats)) = data.get_mut("stats") {
                stats.remove("states_per_sec");
            }
        }
    }
}

#[test]
fn check_jobs_is_deterministic_and_reported_in_the_envelope() {
    let spec = repo_root().join("scenarios/theorem2_violation.toml");
    let report = |jobs: &str| {
        let out = run(&["check", spec.to_str().unwrap(), "--jobs", jobs, "--json"]);
        assert_eq!(code(&out), 0, "{out:?}");
        let v: serde_json::Value =
            serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
        v
    };
    let mut serial = report("1");
    let mut wide = report("4");
    assert_eq!(serial["data"]["jobs"], 1u64);
    assert_eq!(wide["data"]["jobs"], 4u64);
    // Everything else must match, field for field — including the witness.
    scrub_volatile(&mut serial);
    scrub_volatile(&mut wide);
    assert_eq!(serial, wide, "exploration must not depend on --jobs");
}

#[test]
fn check_jobs_zero_is_exit_two() {
    let spec = repo_root().join("scenarios/theorem2_violation.toml");
    let out = run(&["check", spec.to_str().unwrap(), "--jobs", "0"]);
    assert_eq!(code(&out), 2, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--jobs"), "{stderr}");
}

#[test]
fn check_cache_flag_is_refused() {
    // A gate answers from the binary it runs, never from a table an
    // earlier binary left behind: there is no `--cache`.
    let spec = repo_root().join("scenarios/clean_smoke.toml");
    let out = run(&["check", spec.to_str().unwrap(), "--cache", "x"]);
    assert_eq!(code(&out), 2, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--cache"), "{stderr}");
}

// ------------------------------------------------------------------
// `urb theorem2` — the impossibility demo wears the shared envelope.

#[test]
fn theorem2_emits_the_shared_json_envelope_and_exit_zero() {
    let out = run(&["theorem2", "--n", "6", "--seed", "42", "--json"]);
    assert_eq!(code(&out), 0, "{out:?}");
    let v: serde_json::Value = serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(v["schema_version"], 1u64);
    assert_eq!(v["kind"], "theorem2-report");
    assert_eq!(v["seed"], 42u64);
    assert!(v["git_rev"].as_str().is_some());
    assert_eq!(v["data"]["n"], 6u64);
    assert_eq!(v["data"]["demonstrated"], true);
    assert_eq!(v["data"]["arm1_agreement_ok"], false);
    assert_eq!(v["data"]["arm2_blocked"], true);
}

#[test]
fn theorem2_text_mode_still_works() {
    let out = run(&["theorem2", "--n", "6"]);
    assert_eq!(code(&out), 0, "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("both horns observed"), "{stdout}");
}

// ------------------------------------------------------------------
// `urb run --topics` — per-topic verdicts in the envelope.

#[test]
fn run_topics_flag_reports_per_topic_verdict_rows() {
    let out = run(&[
        "run", "--n", "3", "--topics", "2", "--msgs", "2", "--loss", "0", "--json",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let v: serde_json::Value = serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(v["kind"], "run-summary");
    let rows = v["data"]["per_topic"].as_array().unwrap();
    assert_eq!(rows.len(), 2);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row["topic"], i as u64);
        assert_eq!(row["agreement_ok"], true);
        assert_eq!(row["deliveries"], 3u64, "1 msg × 3 procs per topic");
    }
}

#[test]
fn run_reports_the_default_algorithm_quiescent() {
    // Algorithm 2 delivers before it can prune: a run that stopped at
    // full delivery would end before it ever went quiescent.
    let out = run(&["run", "--json", "--n", "5", "--msgs", "2", "--loss", "0"]);
    assert_eq!(code(&out), 0, "{out:?}");
    let v: serde_json::Value = serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(v["data"]["quiescent"], true, "{v:?}");
}

// ------------------------------------------------------------------
// `urb bench --diff` — the perf-regression gate.

/// A minimal schema-valid trajectory file.
fn trajectory_json(transmissions: u64) -> String {
    format!(
        "{{\n  \"schema_version\": 1,\n  \"kind\": \"bench-trajectory\",\n  \"seed\": 1,\n  \
         \"git_rev\": \"test\",\n  \"data\": {{\n    \"seeds_per_cell\": 2,\n    \"points\": [\n      \
         {{\"id\": \"e1\", \"runs\": 4, \"urb_ok\": 4, \"deliveries\": 40, \
         \"transmissions\": {transmissions}, \"dropped\": 3, \"latency_p50\": 9, \
         \"latency_p90\": 12, \"latency_p99\": 20, \"mean_end_time\": 100, \
         \"throughput_per_ktick\": 1.5, \"pool_hit_rate\": 0.99, \"allocs_per_run\": null, \
         \"trace_fingerprint\": 7}}\n    ]\n  }}\n}}"
    )
}

#[test]
fn bench_diff_gates_on_count_metrics() {
    let a = tmp("traj_a.json");
    let b = tmp("traj_b.json");
    let c = tmp("traj_c.json");
    std::fs::write(&a, trajectory_json(1000)).unwrap();
    std::fs::write(&b, trajectory_json(1000)).unwrap();
    std::fs::write(&c, trajectory_json(1001)).unwrap();
    let out = run(&["bench", "--diff", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "identical files pass: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("bench diff: OK"));
    let out = run(&["bench", "--diff", a.to_str().unwrap(), c.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "count divergence fails: {out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("transmissions diverged"));
    let out = run(&["bench", "--diff", a.to_str().unwrap(), "/nonexistent.json"]);
    assert_eq!(code(&out), 2, "unreadable input: {out:?}");
    for p in [a, b, c] {
        std::fs::remove_file(&p).ok();
    }
}

// ------------------------------------------------------------------
// `urb node` / `urb cluster` — the socket plane's exit-code contract
// (DESIGN.md §13). These bind only loopback listeners in this process
// or run a single self-contained node, so they stay un-ignored; the
// multi-process suite lives in tests/cluster.rs behind `--ignored`.

#[test]
fn node_bad_config_is_exit_two() {
    // Parse-level config errors.
    assert_eq!(code(&run(&["node"])), 2, "--id required");
    assert_eq!(code(&run(&["node", "--id", "0"])), 2, "--addrs required");
    assert_eq!(
        code(&run(&[
            "node",
            "--id",
            "5",
            "--addrs",
            "127.0.0.1:1,127.0.0.1:2"
        ])),
        2,
        "id out of range"
    );
    // Unresolvable listen address: rejected at bind time, still exit 2.
    let out = run(&["node", "--id", "0", "--addrs", "not-an-address"]);
    assert_eq!(code(&out), 2, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot listen"), "{stderr}");
}

#[test]
fn node_port_in_use_is_exit_two() {
    // Occupy a loopback port in this process, then point a node at it.
    let holder = std::net::TcpListener::bind("127.0.0.1:0").expect("bind holder");
    let addr = holder.local_addr().unwrap().to_string();
    let out = run(&["node", "--id", "0", "--addrs", &addr]);
    assert_eq!(code(&out), 2, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot listen"), "{stderr}");
    drop(holder);
}

#[test]
fn node_clean_run_is_exit_zero_with_envelope() {
    // A single-node cluster delivers its own broadcasts immediately:
    // expectation met, exit 0, report in the shared envelope.
    let out = run(&[
        "node",
        "--id",
        "0",
        "--addrs",
        "127.0.0.1:0",
        "--msgs",
        "2",
        "--seed",
        "3",
        "--expect",
        "2",
        "--run-ms",
        "10000",
        "--linger-ms",
        "50",
        "--json",
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let v: serde_json::Value = serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
    assert_eq!(v["schema_version"], 1u64);
    assert_eq!(v["kind"], "node-report");
    assert_eq!(v["seed"], 3u64);
    assert_eq!(v["data"]["complete"], true);
    assert_eq!(
        v["data"]["per_topic"][0]["deliveries"], 2u64,
        "both own broadcasts delivered"
    );
}

#[test]
fn node_unmet_expectation_is_exit_one() {
    // A lone node can never see payloads from peers that don't exist:
    // the deadline passes with the expectation unmet — verdict failure.
    let out = run(&[
        "node",
        "--id",
        "0",
        "--addrs",
        "127.0.0.1:0",
        "--msgs",
        "1",
        "--expect",
        "5",
        "--run-ms",
        "300",
        "--linger-ms",
        "50",
    ]);
    assert_eq!(code(&out), 1, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("not met"), "{stderr}");
}

#[test]
fn node_corrupt_state_dir_is_exit_two() {
    // A snapshot that fails its envelope checks must refuse to start —
    // unusable input, never a silent fresh start over salvageable state.
    let dir = tmp("corrupt_state");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("snapshot.bin"), b"not a snapshot").unwrap();
    let out = run(&[
        "node",
        "--id",
        "0",
        "--addrs",
        "127.0.0.1:0",
        "--run-ms",
        "200",
        "--state-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 2, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("snapshot.bin"), "{stderr}");

    // So is a well-formed envelope of a retired layout (version 1: five
    // per-tag maps; version 2: a trailing subscription set): it is
    // refused by version, never reinterpreted.
    for version in [1u32, 2] {
        let mut old = b"URBS".to_vec();
        old.extend_from_slice(&version.to_le_bytes());
        old.extend_from_slice(&[0u8; 16]); // empty body + trailer
        std::fs::write(dir.join("snapshot.bin"), old).unwrap();
        let out = run(&[
            "node",
            "--id",
            "0",
            "--addrs",
            "127.0.0.1:0",
            "--run-ms",
            "200",
            "--state-dir",
            dir.to_str().unwrap(),
        ]);
        assert_eq!(code(&out), 2, "{out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unsupported version {version}")),
            "{stderr}"
        );
    }

    // A journal ending mid-record (length prefix promises more bytes
    // than the file holds) is equally fatal, and typed as such.
    std::fs::remove_file(dir.join("snapshot.bin")).unwrap();
    std::fs::write(dir.join("journal.bin"), [64u8, 0, 0, 0, 1, 2, 3]).unwrap();
    let out = run(&[
        "node",
        "--id",
        "0",
        "--addrs",
        "127.0.0.1:0",
        "--run-ms",
        "200",
        "--state-dir",
        dir.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 2, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("truncated record"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn node_state_dir_survives_a_clean_restart() {
    // A single-node run with --state-dir exits 0; rerunning against the
    // same directory recovers (engine snapshot + delivered sets) instead
    // of starting over, and reports the same completed delivery count.
    let dir = tmp("state_roundtrip");
    std::fs::remove_dir_all(&dir).ok();
    let node = |label: &str| {
        let out = run(&[
            "node",
            "--id",
            "0",
            "--addrs",
            "127.0.0.1:0",
            "--msgs",
            "2",
            "--seed",
            "3",
            "--expect",
            "2",
            "--run-ms",
            "10000",
            "--linger-ms",
            "50",
            "--state-dir",
            dir.to_str().unwrap(),
            "--json",
        ]);
        assert_eq!(code(&out), 0, "{label}: {out:?}");
        let v: serde_json::Value =
            serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).unwrap();
        assert_eq!(v["data"]["complete"], true, "{label}");
        assert_eq!(v["data"]["per_topic"][0]["deliveries"], 2u64, "{label}");
        v
    };
    node("first run");
    assert!(dir.join("snapshot.bin").exists(), "exit snapshot written");
    node("recovered run");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_bad_config_is_exit_two() {
    assert_eq!(code(&run(&["cluster"])), 2, "--local required");
    assert_eq!(code(&run(&["cluster", "--local", "0"])), 2);
    assert_eq!(code(&run(&["cluster", "--local", "3", "--topics", "0"])), 2);
}

#[test]
fn usage_errors_are_exit_two() {
    assert_eq!(code(&run(&["frobnicate"])), 2);
    assert_eq!(code(&run(&["check"])), 2);
    assert_eq!(code(&run(&["bench", "--diff", "one.json"])), 2);
    // `urb topic` sends create or retire only; anything else is refused
    // at parse time, before a connection is attempted.
    for op in ["subscribe", "unsubscribe"] {
        let out = run(&["topic", op, "--addr", "127.0.0.1:1", "--topic", "0"]);
        assert_eq!(code(&out), 2, "{op}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown topic operation"), "{op}: {stderr}");
    }
}

#[test]
fn bench_open_loop_ids_and_grid_flags() {
    // The open-loop experiments are addressable ids; past the new top
    // of the range is still a usage error.
    assert_eq!(code(&run(&["bench", "--experiments", "e24"])), 2);
    // Malformed open-loop grid flags are usage errors, not collections.
    assert_eq!(code(&run(&["bench", "--rates", "0"])), 2, "zero rate");
    assert_eq!(code(&run(&["bench", "--rates", "abc"])), 2, "non-numeric");
    assert_eq!(code(&run(&["bench", "--rates", ","])), 2, "empty list");
    assert_eq!(code(&run(&["bench", "--load-topics", "0,4"])), 2);
    assert_eq!(code(&run(&["bench", "--load-topics"])), 2, "missing value");
    // e22 + e23 collect on a tiny override grid and the resulting
    // trajectory is schema-valid.
    let out_path = tmp("open_loop_traj.json");
    let out = run(&[
        "bench",
        "--experiments",
        "e22,e23",
        "--seeds",
        "1",
        "--load-topics",
        "2",
        "--rates",
        "700",
        "--json",
        out_path.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 0, "{out:?}");
    let out = run(&["bench", "--validate", out_path.to_str().unwrap()]);
    assert_eq!(code(&out), 0, "{out:?}");
    std::fs::remove_file(&out_path).ok();
}

#[test]
fn a_retired_experiment_id_is_refused() {
    // E19 is retired (DESIGN.md §5): its id is a usage error whose text
    // names the ids that remain.
    let out = run(&["bench", "--experiments", "e19"]);
    assert_eq!(code(&out), 2, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with(
            "error: unknown experiment id \"e19\" (valid: e1, e2, e3, e4, e5, e8, e9, \
             e10, e11, e12, e13, e17, e18, e20, e21, e22, e23)\n"
        ),
        "{stderr}"
    );
}

#[test]
fn a_repeated_experiment_id_is_refused() {
    // As a flag: a usage error, before anything is collected.
    let out = run(&["bench", "--experiments", "e2,e2", "--seeds", "1"]);
    assert_eq!(code(&out), 2, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with("error: --experiments names e2 twice\n"),
        "{stderr}"
    );
    // In a file: a schema violation, so neither --validate nor --diff
    // passes a point the diff would never compare.
    let one = trajectory_json(1000);
    let point_start = one.find("{\"id\"").unwrap();
    let point_end = one[point_start..].find('}').unwrap() + point_start + 1;
    let point = &one[point_start..point_end];
    let twice = one.replacen(point, &format!("{point},\n      {point}"), 1);
    let path = tmp("repeated_id.json");
    std::fs::write(&path, &twice).unwrap();
    let out = run(&["bench", "--validate", path.to_str().unwrap()]);
    assert_eq!(code(&out), 1, "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("points[1].id repeats points[0].id"),
        "{stderr}"
    );
    let out = run(&[
        "bench",
        "--diff",
        path.to_str().unwrap(),
        path.to_str().unwrap(),
    ]);
    assert_eq!(code(&out), 2, "{out:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn committed_baselines_diff_cleanly() {
    // The exact invocations the CI gate runs: both committed baselines
    // must be schema-valid, self-identical, and — crucially — agree with
    // each other on every overlapping grid point (the topic plane must
    // not have disturbed a single pre-topic number).
    let pr3 = repo_root().join("BENCH_PR3.json");
    let pr5 = repo_root().join("BENCH_PR5.json");
    let (p3, p5) = (pr3.to_str().unwrap(), pr5.to_str().unwrap());
    for b in [p3, p5] {
        let out = run(&["bench", "--validate", b]);
        assert_eq!(code(&out), 0, "{out:?}");
        let out = run(&["bench", "--diff", b, b]);
        assert_eq!(code(&out), 0, "{out:?}");
    }
    let out = run(&["bench", "--diff", p3, p5]);
    assert_eq!(
        code(&out),
        0,
        "PR3 ↔ PR5 overlap must be identical: {out:?}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("17 overlapping points identical"),
        "{stdout}"
    );
    assert!(stdout.contains("e18: only in new file"), "{stdout}");
}
