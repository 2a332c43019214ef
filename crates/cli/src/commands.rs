//! Command implementations for the `urb` binary.
//!
//! Every `--json` output — `run`, `scenario` and `bench` alike — wears
//! the shared envelope from [`urb_bench::report`]
//! (`schema_version`/`kind`/`seed`/`git_rev` around a kind-specific
//! `data` body), so scripts consume one shape (DESIGN.md §10).
//!
//! A command prints its report and returns. One that does not reach a
//! passing verdict returns a [`Failure`]: the exit code and the lines
//! `main` prints to stderr before it exits with that code.

use crate::args::{
    BenchArgs, CheckArgs, ClusterArgs, Command, RunArgs, ScenarioArgs, TopicArgs, USAGE,
};
use crate::summary::RunSummary;
use urb_bench::report;
use urb_bench::trajectory;
use urb_check::{check_scenario_with, CheckOutcome, Counterexample};
use urb_runtime::{NodeConfig, NodeReport};
use urb_sim::{scenario, CrashPlan, LossModel, RunOutcome, ScenarioSpec, SimConfig, TraceConfig};

/// Why a command exits nonzero.
#[derive(Debug, PartialEq, Eq)]
pub struct Failure {
    /// 1 = a verdict failed (or its output could not be written),
    /// 2 = unusable input or config.
    pub code: u8,
    /// What `main` prints to stderr, one line each; empty when the
    /// report already said why.
    pub lines: Vec<String>,
}

impl Failure {
    /// Exit 1 with these lines.
    fn verdict(lines: Vec<String>) -> Self {
        Failure { code: 1, lines }
    }
}

/// A plain message is unusable input or config: exit 2 with
/// `error: {message}`.
impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure {
            code: 2,
            lines: vec![format!("error: {message}")],
        }
    }
}

/// Exit 0 if the verdict holds, else exit 1 with nothing more to say.
fn holds(ok: bool) -> Result<(), Failure> {
    if ok {
        Ok(())
    } else {
        Err(Failure::verdict(Vec::new()))
    }
}

/// Reads an input file; an unreadable one is unusable input.
fn read_input(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

/// Writes an output file; a failed write fails the command with exit 1.
fn write_output(what: &str, path: &str, contents: &str) -> Result<(), Failure> {
    std::fs::write(path, contents)
        .map_err(|e| Failure::verdict(vec![format!("error writing {what} to {path}: {e}")]))
}

/// Writes a run's event trace and says so on stderr.
fn write_trace(path: &str, out: &RunOutcome) -> Result<(), Failure> {
    write_output("trace", path, &out.trace.to_json())?;
    eprintln!("trace: {} events written to {path}", out.trace.len());
    Ok(())
}

/// Runs one parsed command.
pub fn execute(command: Command) -> Result<(), Failure> {
    match command {
        Command::Run(args) => run_cmd(args),
        Command::Sweep(args) => {
            sweep_cmd(args);
            Ok(())
        }
        Command::Scenario(args) => scenario_cmd(args),
        Command::Check(args) => check_cmd(args),
        Command::Bench(args) => bench_cmd(args),
        Command::Theorem2 { n, seed, json } => theorem2_cmd(n, seed, json),
        Command::Node { config, json } => node_cmd(&config, json),
        Command::Cluster(args) => cluster_cmd(args),
        Command::Topic(args) => topic_cmd(args),
        Command::Help => {
            print!("{USAGE}");
            Ok(())
        }
    }
}

/// Envelope kind of `urb run --json` / `urb scenario --json` bodies.
pub const RUN_SUMMARY_KIND: &str = "run-summary";

/// Envelope kind of `urb check --json` report bodies.
pub const CHECK_REPORT_KIND: &str = "check-report";

/// Builds a [`SimConfig`] from CLI flags.
pub fn build_config(args: &RunArgs) -> SimConfig {
    let mut cfg = SimConfig::new(args.n, args.algorithm)
        .seed(args.seed)
        .topics(args.topics)
        .workload_topics(args.msgs, 100)
        .max_time(args.horizon);
    cfg.loss = if args.loss <= 0.0 {
        LossModel::None
    } else if args.burst {
        LossModel::Burst {
            p_enter: args.loss / 4.0,
            p_exit: 0.2,
            p_loss: 0.9,
        }
    } else {
        LossModel::Bernoulli { p: args.loss }
    };
    if args.crashes > 0 {
        cfg.crashes = CrashPlan::random(args.n, args.crashes, 400, args.seed ^ 0xC11, Some(0));
    }
    // Without `--fd`, SimConfig::new already picked by algorithm.
    if let Some(fd) = args.fd {
        cfg.fd = fd;
    }
    if args.trace.is_some() {
        cfg.trace = TraceConfig::full(1_000_000);
    }
    // An algorithm that never goes quiescent would run to the horizon, so
    // its run ends once the URB verdict is decided. One that can go
    // quiescent runs on until it does: a process delivers before it can
    // prune, so stopping at full delivery would always end the run first
    // and the report would never say `quiescent`.
    cfg.stop_on_full_delivery = !matches!(
        cfg.algorithm,
        urb_core::Algorithm::Quiescent
            | urb_core::Algorithm::QuiescentLiteral
            | urb_core::Algorithm::BestEffort
    );
    cfg
}

/// `urb run`.
pub fn run_cmd(args: RunArgs) -> Result<(), Failure> {
    let out = urb_sim::run(build_config(&args));
    if let Some(path) = &args.trace {
        write_trace(path, &out)?;
    }
    let summary = RunSummary::from_outcome(&out);
    if args.json {
        println!(
            "{}",
            report::envelope(RUN_SUMMARY_KIND, args.seed, &summary.to_json())
        );
    } else {
        print!("{}", summary.render_text());
    }
    holds(out.all_ok())
}

/// Loads and compiles a scenario spec file, applying CLI overrides.
/// Returns the spec plus its runnable config (split out for tests).
pub fn load_scenario(args: &ScenarioArgs) -> Result<(ScenarioSpec, urb_sim::SimConfig), String> {
    let text = read_input(&args.path)?;
    let mut spec = ScenarioSpec::from_named_str(&args.path, &text)
        .map_err(|e| format!("{}: {e}", args.path))?;
    if let Some(seed) = args.seed {
        spec.seed = seed;
    }
    let mut cfg = spec.compile().map_err(|e| format!("{}: {e}", args.path))?;
    if args.trace.is_some() {
        cfg.trace = TraceConfig::full(1_000_000);
    }
    Ok((spec, cfg))
}

/// `urb scenario <file>`: replay a declarative scenario and check its
/// `[expect]` verdict on top of the per-run URB property checker.
pub fn scenario_cmd(args: ScenarioArgs) -> Result<(), Failure> {
    let (spec, cfg) = load_scenario(&args)?;
    let out = urb_sim::run(cfg);
    if let Some(path) = &args.trace {
        write_trace(path, &out)?;
    }
    let summary = RunSummary::from_outcome(&out);
    if args.json {
        println!(
            "{}",
            report::envelope(RUN_SUMMARY_KIND, spec.seed, &summary.to_json())
        );
    } else {
        println!(
            "scenario: {} ({}){}",
            spec.name,
            args.path,
            if spec.description.is_empty() {
                String::new()
            } else {
                format!("\n  {}", spec.description)
            }
        );
        print!("{}", summary.render_text());
    }
    let fails = spec.expect.check(&out);
    if fails.is_empty() {
        if !args.json {
            println!("scenario verdict: PASS");
        }
        return Ok(());
    }
    let mut lines: Vec<String> = fails
        .iter()
        .map(|f| format!("scenario expectation failed: {f}"))
        .collect();
    lines.push(format!("scenario verdict: FAIL ({})", spec.name));
    Err(Failure::verdict(lines))
}

/// The JSON body of a check report (split out for tests). The optional
/// counterexample body is inlined under `counterexample` so a `--json`
/// consumer needs no second file.
pub fn check_report_body(outcome: &CheckOutcome) -> String {
    use std::fmt::Write as _;
    let s = &outcome.stats;
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    let _ = writeln!(
        out,
        "  \"scenario\": \"{}\",",
        serde_json::escape(&outcome.scenario)
    );
    let _ = writeln!(out, "  \"strategy\": \"{}\",", outcome.strategy.as_str());
    let _ = writeln!(out, "  \"depth\": {},", outcome.depth);
    let _ = writeln!(out, "  \"jobs\": {},", outcome.jobs);
    let _ = writeln!(
        out,
        "  \"expects_violation\": {},",
        outcome.expects_violation
    );
    let _ = writeln!(out, "  \"passed\": {},", outcome.passed());
    let _ = writeln!(out, "  \"stats\": {{");
    let _ = writeln!(out, "    \"states\": {},", s.states);
    let _ = writeln!(out, "    \"engine_steps\": {},", s.engine_steps);
    let _ = writeln!(out, "    \"dedup_hits\": {},", s.dedup_hits);
    let _ = writeln!(out, "    \"dedup_hit_rate\": {:?},", s.dedup_hit_rate());
    let _ = writeln!(out, "    \"states_per_sec\": {:?},", s.states_per_sec());
    let _ = writeln!(out, "    \"max_depth\": {},", s.max_depth);
    let _ = writeln!(out, "    \"silent_states\": {},", s.silent_states);
    let _ = writeln!(out, "    \"depth_prunes\": {},", s.depth_prunes);
    let _ = writeln!(out, "    \"delay_prunes\": {},", s.delay_prunes);
    let _ = writeln!(out, "    \"dpor_pruned\": {},", s.dpor_pruned);
    let _ = writeln!(
        out,
        "    \"mismatched_violations\": {},",
        s.mismatched_violations
    );
    let _ = writeln!(out, "    \"truncated\": {}", s.truncated);
    let _ = writeln!(out, "  }},");
    match &outcome.counterexample {
        None => {
            let _ = writeln!(out, "  \"counterexample\": null");
        }
        Some(cx) => {
            let body = cx.body_json();
            let mut indented = String::with_capacity(body.len() + 64);
            for (i, line) in body.lines().enumerate() {
                if i > 0 {
                    indented.push_str("\n  ");
                }
                indented.push_str(line);
            }
            let _ = writeln!(out, "  \"counterexample\": {indented}");
        }
    }
    out.push('}');
    out
}

/// `urb check --replay <file>`: re-execute a recorded counterexample and
/// verify it reproduces the recorded violation and delivery trace.
fn check_replay_cmd(path: &str, json: bool) -> Result<(), Failure> {
    let text = read_input(path)?;
    let cx = Counterexample::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let violation = cx
        .replay()
        .map_err(|e| Failure::verdict(vec![format!("replay FAILED: {e}")]))?;
    if json {
        let body = format!(
            "{{\n  \"scenario\": \"{}\",\n  \"reproduced\": true,\n  \
             \"violation\": [{}]\n}}",
            serde_json::escape(&cx.scenario),
            violation
                .iter()
                .map(|v| format!("\"{}\"", serde_json::escape(v)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        println!("{}", report::envelope("check-replay", cx.seed, &body));
    } else {
        println!(
            "replay: {} ({} choices) reproduced the recorded violation:",
            cx.scenario,
            cx.choices.len()
        );
        for v in &violation {
            println!("  {v}");
        }
    }
    Ok(())
}

/// `urb check <scenario>`: systematic bounded exploration of the
/// scenario's schedule space (DESIGN.md §11). Exit codes: 0 = the check
/// passed (expected violation found, or clean scenario survived), 1 =
/// check failed, 2 = usage/spec errors.
pub fn check_cmd(args: CheckArgs) -> Result<(), Failure> {
    if let Some(path) = &args.replay {
        return check_replay_cmd(path, args.json);
    }
    let path = args.path.as_deref().expect("parser enforces FILE");
    let text = read_input(path)?;
    let spec = ScenarioSpec::from_named_str(path, &text).map_err(|e| format!("{path}: {e}"))?;
    let outcome = check_scenario_with(&spec, &args.explore).map_err(|e| format!("{path}: {e}"))?;
    if let Some(trace_path) = &args.trace {
        match &outcome.counterexample {
            Some(cx) => {
                let file = report::envelope(
                    urb_check::counterexample::KIND,
                    outcome.seed,
                    &cx.body_json(),
                );
                write_output("counterexample", trace_path, &file)?;
                eprintln!(
                    "counterexample: {} choices written to {trace_path}",
                    cx.choices.len()
                );
            }
            None => eprintln!("counterexample: none found, {trace_path} not written"),
        }
    }
    if args.json {
        println!(
            "{}",
            report::envelope(
                CHECK_REPORT_KIND,
                outcome.seed,
                &check_report_body(&outcome)
            )
        );
    } else {
        let s = &outcome.stats;
        println!("check: {} ({path})", outcome.scenario);
        println!(
            "  strategy {}, depth ≤ {}, seed {}, jobs {}",
            outcome.strategy.as_str(),
            outcome.depth,
            outcome.seed,
            outcome.jobs
        );
        println!(
            "  explored {} states ({} engine steps, {:.0} states/sec){}",
            s.states,
            s.engine_steps,
            s.states_per_sec(),
            if s.truncated { " [truncated]" } else { "" }
        );
        println!(
            "  dedup hit-rate {:.3}, max depth {}, silent states {}, dpor pruned {}",
            s.dedup_hit_rate(),
            s.max_depth,
            s.silent_states,
            s.dpor_pruned
        );
        println!("check verdict: {}", outcome.verdict_line());
    }
    holds(outcome.passed())
}

/// `urb bench`: either validates an existing trajectory file
/// (`--validate`) or runs the reduced experiment grids, prints the human
/// summary, and — with `--json` — writes the schema-versioned trajectory
/// file (DESIGN.md §10).
pub fn bench_cmd(args: BenchArgs) -> Result<(), Failure> {
    if let Some((old, new)) = &args.diff {
        let (old_text, new_text) = (read_input(old)?, read_input(new)?);
        let diff = trajectory::diff_json(&old_text, &new_text)?;
        println!("bench diff: {old} → {new}");
        print!("{}", diff.render());
        if !diff.is_clean() {
            return Err(Failure::verdict(vec!["bench diff: FAIL".into()]));
        }
        println!(
            "bench diff: OK ({} overlapping points identical)",
            diff.matched.len()
        );
        return Ok(());
    }
    if let Some(path) = &args.validate {
        trajectory::validate_json(&read_input(path)?)
            .map_err(|e| Failure::verdict(vec![format!("{path}: schema violations: {e}")]))?;
        println!(
            "{path}: valid bench trajectory (schema v{})",
            report::SCHEMA_VERSION
        );
        return Ok(());
    }
    let cfg = &args.trajectory;
    eprintln!(
        "bench: collecting {} experiment grids, {} seeds/cell, seed {} …",
        cfg.ids.len(),
        cfg.seeds_per_cell,
        cfg.seed
    );
    let traj = trajectory::collect(cfg);
    traj.summary_table().print();
    if let Some(path) = &args.json {
        let json = traj.to_json();
        trajectory::validate_json(&json).expect("fresh trajectory conforms to its schema");
        write_output("trajectory", path, &json)?;
        eprintln!(
            "bench: trajectory ({} experiments) written to {path}",
            traj.points.len()
        );
    }
    Ok(())
}

/// The loss rates `urb sweep` visits.
pub const SWEEP_LOSSES: [f64; 6] = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];

/// `urb sweep`: one row per loss rate, everything else from flags. The
/// rows are independent simulated runs, so they are fanned across all
/// cores via `urb_sim::parallel` and printed in order afterwards.
pub fn sweep_cmd(args: RunArgs) {
    println!(
        "loss sweep: n={} alg={} crashes={} msgs={} (seed {})",
        args.n,
        args.algorithm.name(),
        args.crashes,
        args.msgs,
        args.seed
    );
    println!("loss   ok     median  p99     transmissions");
    let configs = SWEEP_LOSSES
        .iter()
        .map(|&loss| {
            let mut a = args.clone();
            a.loss = loss;
            a.trace = None;
            build_config(&a)
        })
        .collect();
    for (loss, out) in SWEEP_LOSSES.iter().zip(urb_sim::run_many(configs)) {
        let s = RunSummary::from_outcome(&out);
        println!(
            "{:<6.2} {:<6} {:<7} {:<7} {}",
            loss,
            s.validity_ok && s.agreement_ok && s.integrity_ok,
            s.median_latency.map_or("—".into(), |v| v.to_string()),
            s.p99_latency.map_or("—".into(), |v| v.to_string()),
            s.protocol_transmissions
        );
    }
}

/// Envelope kind of `urb theorem2 --json` bodies.
pub const THEOREM2_KIND: &str = "theorem2-report";

/// The combined Theorem-2 verdict: arm 1 (weakened threshold) violated
/// uniform agreement AND arm 2 (faithful majority) blocked. The single
/// definition both the JSON body and the exit code gate on.
pub fn theorem2_demonstrated(arm1: &urb_sim::RunOutcome, arm2: &urb_sim::RunOutcome) -> bool {
    !arm1.report.agreement.ok() && arm2.metrics.deliveries.is_empty()
}

/// The JSON body of a theorem2 report (split out for tests): both horns'
/// observations plus the combined `demonstrated` verdict the exit code
/// gates on.
pub fn theorem2_body(n: usize, arm1: &urb_sim::RunOutcome, arm2: &urb_sim::RunOutcome) -> String {
    let demonstrated = theorem2_demonstrated(arm1, arm2);
    format!(
        "{{\n  \"n\": {n},\n  \"threshold\": {},\n  \"arm1_deliveries\": {},\n  \
         \"arm1_agreement_ok\": {},\n  \"arm2_deliveries\": {},\n  \
         \"arm2_blocked\": {},\n  \"demonstrated\": {demonstrated}\n}}",
        n.div_ceil(2),
        arm1.metrics.deliveries.len(),
        arm1.report.agreement.ok(),
        arm2.metrics.deliveries.len(),
        arm2.metrics.deliveries.is_empty(),
    )
}

/// `urb theorem2`: executes both horns of the impossibility proof. With
/// `--json`, the observations wear the shared envelope
/// (`schema_version`/`kind`/`seed`/`git_rev`/`data`) every other
/// subcommand emits. Exit 1 when either horn fails to materialize (the
/// adversary regressed).
pub fn theorem2_cmd(n: usize, seed: u64, json: bool) -> Result<(), Failure> {
    let s1 = n.div_ceil(2);
    let arm1 = urb_sim::run(scenario::theorem2_partition(n, seed));
    let arm2 = urb_sim::run(scenario::theorem2_control(n, seed));
    let demonstrated = theorem2_demonstrated(&arm1, &arm2);
    if json {
        println!(
            "{}",
            report::envelope(THEOREM2_KIND, seed, &theorem2_body(n, &arm1, &arm2))
        );
    } else {
        println!("Theorem 2 (impossibility of URB with t >= n/2), executable — n={n}\n");
        println!(
            "adversary: S1 = processes 0..{s1} (deliver then crash, outbound links severed), \
             S2 = the rest\n"
        );
        println!("arm 1: delivery threshold ⌈n/2⌉ = {s1} (what any t ≥ n/2 algorithm needs)");
        println!(
            "  deliveries: {} (all inside S1), uniform agreement: {}",
            arm1.metrics.deliveries.len(),
            if arm1.report.agreement.ok() {
                "holds"
            } else {
                "VIOLATED — S2 never delivers"
            }
        );
        println!(
            "\narm 2: faithful Algorithm 1 (strict majority = {})",
            n / 2 + 1
        );
        println!(
            "  deliveries: {} — {}",
            arm2.metrics.deliveries.len(),
            if arm2.metrics.deliveries.is_empty() {
                "blocked forever (safe, but URB's liveness is lost)"
            } else {
                "unexpected delivery!"
            }
        );
        println!(
            "\nboth horns observed: deliver-and-violate or block — hence URB needs t < n/2 \
             (or the AΘ/AP* detectors of Algorithm 2)."
        );
    }
    if !demonstrated {
        return Err(Failure::verdict(vec![
            "theorem2: expected adversary behaviour not observed".into(),
        ]));
    }
    Ok(())
}

/// Envelope kind of `urb node --json` bodies.
pub const NODE_REPORT_KIND: &str = "node-report";

/// Envelope kind of `urb cluster --json` bodies.
pub const CLUSTER_REPORT_KIND: &str = "cluster-report";

/// The JSON body of a node report (split out for tests; the cluster
/// launcher parses it back out of each child's envelope).
pub fn node_report_body(n: usize, alg: urb_core::Algorithm, report: &NodeReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(1024);
    out.push_str("{\n");
    let _ = writeln!(out, "  \"id\": {},", report.id);
    let _ = writeln!(out, "  \"n\": {n},");
    let _ = writeln!(out, "  \"algorithm\": \"{}\",", alg.name());
    let _ = writeln!(out, "  \"complete\": {},", report.complete);
    let _ = writeln!(out, "  \"topics_live\": {},", report.topics_live);
    let _ = writeln!(out, "  \"topics_reclaimed\": {},", report.topics_reclaimed);
    out.push_str("  \"per_topic\": [\n");
    for (i, t) in report.per_topic.iter().enumerate() {
        let payloads = t
            .payloads
            .iter()
            .map(|p| format!("\"{}\"", serde_json::escape(p)))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = write!(
            out,
            "    {{\"topic\": {}, \"deliveries\": {}, \"payloads\": [{payloads}]}}",
            t.topic.0,
            t.payloads.len()
        );
        out.push_str(if i + 1 < report.per_topic.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    out.push_str("  ],\n");
    let s = &report.net;
    let _ = writeln!(out, "  \"net\": {{");
    let _ = writeln!(out, "    \"accepted\": {},", s.accepted);
    let _ = writeln!(out, "    \"dials_ok\": {},", s.dials_ok);
    let _ = writeln!(out, "    \"dials_failed\": {},", s.dials_failed);
    let _ = writeln!(out, "    \"reconnects\": {},", s.reconnects);
    let _ = writeln!(out, "    \"frames_sent\": {},", s.frames_sent);
    let _ = writeln!(out, "    \"frames_recv\": {},", s.frames_recv);
    let _ = writeln!(out, "    \"bytes_sent\": {},", s.bytes_sent);
    let _ = writeln!(out, "    \"bytes_recv\": {},", s.bytes_recv);
    let _ = writeln!(
        out,
        "    \"dropped_backpressure\": {},",
        s.dropped_backpressure
    );
    let _ = writeln!(out, "    \"send_failures\": {},", s.send_failures);
    let _ = writeln!(out, "    \"frame_errors\": {}", s.frame_errors);
    out.push_str("  }\n}");
    out
}

/// `urb node`: run one OS process of a socket cluster (DESIGN.md §13).
/// Exit codes: 0 = ran to completion (expectation met or none set),
/// 1 = `--expect` unmet at the deadline, 2 = bad config / bind failure.
pub fn node_cmd(cfg: &NodeConfig, json: bool) -> Result<(), Failure> {
    let report = urb_runtime::run_node(cfg).map_err(|e| e.to_string())?;
    if json {
        println!(
            "{}",
            report::envelope(
                NODE_REPORT_KIND,
                cfg.seed,
                &node_report_body(cfg.n, cfg.algorithm, &report)
            )
        );
    } else {
        println!(
            "node {}/{} ({}): {}",
            report.id,
            cfg.n,
            cfg.algorithm.name(),
            if report.complete {
                "complete"
            } else {
                "INCOMPLETE"
            }
        );
        for t in &report.per_topic {
            println!("  topic {}: {} deliveries", t.topic.0, t.payloads.len());
        }
        println!(
            "  topics: {} live, {} reclaimed",
            report.topics_live, report.topics_reclaimed
        );
        let s = &report.net;
        println!(
            "  net: {} frames out / {} in, {} accepted, {} reconnects, {} dropped",
            s.frames_sent, s.frames_recv, s.accepted, s.reconnects, s.dropped_backpressure
        );
    }
    if !report.complete {
        return Err(Failure::verdict(vec![format!(
            "node {}: --expect {} not met within {} ms",
            cfg.id,
            cfg.expect.unwrap_or(0),
            cfg.run_for.as_millis()
        )]));
    }
    Ok(())
}

/// `urb topic <op>`: one-shot lifecycle control client (DESIGN.md §15).
/// Connects to a running `urb node` at `--addr`, sends one control-only
/// frame, and exits. The node applies the operation and gossips it to
/// the rest of the cluster. Exit codes: 0 = sent, 2 = connect/send
/// failure (the daemon's config-error convention).
pub fn topic_cmd(args: TopicArgs) -> Result<(), Failure> {
    use urb_sim::TopicAction;
    let ctl = args.action.control(urb_core::Algorithm::Majority);
    urb_runtime::send_control(&args.addr, ctl).map_err(|e| e.to_string())?;
    let verb = match args.action {
        TopicAction::Create { .. } => "create",
        TopicAction::Retire { .. } => "retire",
    };
    let topic = args.action.topic().0;
    println!("topic {topic}: {verb} sent to {}", args.addr);
    Ok(())
}

/// One child's contribution to the cluster verdict.
pub struct ChildVerdict {
    /// Node id (the child's `--id`).
    pub id: usize,
    /// Child process exited 0.
    pub exit_ok: bool,
    /// The child reported its `--expect` deliveries met.
    pub complete: bool,
    /// Live topic instances at report time, from the child's
    /// `topics_live` field (the dynamic control plane, DESIGN.md §15).
    pub topics_live: u64,
    /// Retired-and-reclaimed instances, from `topics_reclaimed`.
    pub topics_reclaimed: u64,
    /// Per-topic delivered payload sets parsed from the child's report.
    pub per_topic: Vec<std::collections::BTreeSet<String>>,
}

/// The JSON body of the cluster report (split out for tests). Rolls the
/// per-node topic-lifecycle counters — `topics_live` / `topics_reclaimed`
/// from each child's node report, which earlier envelopes silently
/// dropped — into per-node rows AND cluster-wide sums.
#[allow(clippy::too_many_arguments)]
pub fn cluster_report_body(
    n: usize,
    algorithm: urb_core::Algorithm,
    topics: u32,
    msgs: usize,
    expect: usize,
    verdicts: &[ChildVerdict],
    topic_ok: &[bool],
    parity_ok: bool,
) -> String {
    use std::fmt::Write as _;
    let live: u64 = verdicts.iter().map(|v| v.topics_live).sum();
    let reclaimed: u64 = verdicts.iter().map(|v| v.topics_reclaimed).sum();
    let mut body = String::with_capacity(512);
    body.push_str("{\n");
    let _ = writeln!(body, "  \"n\": {n},");
    let _ = writeln!(body, "  \"algorithm\": \"{}\",", algorithm.name());
    let _ = writeln!(body, "  \"topics\": {topics},");
    let _ = writeln!(body, "  \"msgs_per_node\": {msgs},");
    let _ = writeln!(body, "  \"expected_per_topic\": {expect},");
    let _ = writeln!(body, "  \"topics_live\": {live},");
    let _ = writeln!(body, "  \"topics_reclaimed\": {reclaimed},");
    body.push_str("  \"nodes\": [\n");
    for (i, v) in verdicts.iter().enumerate() {
        let _ = write!(
            body,
            "    {{\"id\": {}, \"exit_ok\": {}, \"complete\": {}, \
             \"topics_live\": {}, \"topics_reclaimed\": {}}}",
            v.id, v.exit_ok, v.complete, v.topics_live, v.topics_reclaimed
        );
        body.push_str(if i + 1 < verdicts.len() { ",\n" } else { "\n" });
    }
    body.push_str("  ],\n");
    body.push_str("  \"per_topic\": [\n");
    for (topic, ok) in topic_ok.iter().enumerate() {
        let _ = write!(body, "    {{\"topic\": {topic}, \"ok\": {ok}}}");
        body.push_str(if topic + 1 < topic_ok.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    body.push_str("  ],\n");
    let _ = writeln!(body, "  \"verdict\": {parity_ok}");
    body.push('}');
    body
}

/// `urb cluster --local N`: reserve N loopback ports, spawn N `urb node`
/// children on them, wait for all, and check every node delivered the
/// full expected payload set on every topic. Exit codes: 0 = all
/// verdicts pass, 1 = a node failed or a delivery set diverged, 2 = bad
/// config / spawn failure.
pub fn cluster_cmd(args: ClusterArgs) -> Result<(), Failure> {
    let n = args.local;
    // Reserve concrete loopback ports by binding ephemeral listeners,
    // recording their addresses, then releasing them for the children.
    // (The standard reserve-then-rebind pattern; the race window is
    // harmless on a workstation/CI loopback.)
    let addrs: Vec<String> = {
        let listeners = (0..n)
            .map(|_| {
                std::net::TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| format!("cannot reserve a loopback port: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        listeners
            .iter()
            .map(|l| {
                l.local_addr()
                    .expect("bound listener has an address")
                    .to_string()
            })
            .collect()
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the urb binary: {e}"))?;
    let expect = n * args.msgs;
    let addr_list = addrs.join(",");
    let mut children = Vec::with_capacity(n);
    for id in 0..n {
        let child = std::process::Command::new(&exe)
            .args([
                "node",
                "--id",
                &id.to_string(),
                "--addrs",
                &addr_list,
                "--alg",
                &urb_sim::spec::format_algorithm(args.algorithm),
                "--topics",
                &args.topics.to_string(),
                "--msgs",
                &args.msgs.to_string(),
                "--seed",
                &args.seed.to_string(),
                "--expect",
                &expect.to_string(),
                "--run-ms",
                &args.run_ms.to_string(),
                "--json",
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn node {id}: {e}"))?;
        children.push(child);
    }
    // Every child self-terminates by its --run-ms deadline, so a plain
    // wait is already bounded.
    let mut verdicts = Vec::with_capacity(n);
    for (id, child) in children.into_iter().enumerate() {
        let out = child
            .wait_with_output()
            .map_err(|e| format!("node {id} did not exit cleanly: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut verdict = ChildVerdict {
            id,
            exit_ok: out.status.success(),
            complete: false,
            topics_live: 0,
            topics_reclaimed: 0,
            per_topic: vec![std::collections::BTreeSet::new(); args.topics as usize],
        };
        if let Ok(v) = serde_json::from_str(text.trim()) {
            verdict.complete = v["data"]["complete"].as_bool().unwrap_or(false);
            verdict.topics_live = v["data"]["topics_live"].as_u64().unwrap_or(0);
            verdict.topics_reclaimed = v["data"]["topics_reclaimed"].as_u64().unwrap_or(0);
            if let Some(rows) = v["data"]["per_topic"].as_array() {
                for row in rows {
                    let topic = row["topic"].as_u64().unwrap_or(u64::MAX) as usize;
                    if topic >= verdict.per_topic.len() {
                        continue;
                    }
                    if let Some(payloads) = row["payloads"].as_array() {
                        verdict.per_topic[topic] = payloads
                            .iter()
                            .filter_map(|p| p.as_str().map(String::from))
                            .collect();
                    }
                }
            }
        }
        verdicts.push(verdict);
    }

    // Per-topic verdict: every node's delivered set equals the full
    // expected workload set — URB validity + uniform agreement, observed
    // over real sockets.
    let mut topic_ok = Vec::with_capacity(args.topics as usize);
    for topic in 0..args.topics {
        let want = urb_runtime::expected_payloads(n, urb_types::TopicId(topic), args.msgs);
        let ok = verdicts.iter().all(|v| v.per_topic[topic as usize] == want);
        topic_ok.push(ok);
    }
    let nodes_ok = verdicts.iter().all(|v| v.exit_ok && v.complete);
    let parity_ok = nodes_ok && topic_ok.iter().all(|&ok| ok);

    if args.json {
        let body = cluster_report_body(
            n,
            args.algorithm,
            args.topics,
            args.msgs,
            expect,
            &verdicts,
            &topic_ok,
            parity_ok,
        );
        println!(
            "{}",
            report::envelope(CLUSTER_REPORT_KIND, args.seed, &body)
        );
    } else {
        println!(
            "cluster: {} loopback nodes ({}), {} topics × {} msgs/node",
            n,
            args.algorithm.name(),
            args.topics,
            args.msgs
        );
        for v in &verdicts {
            println!(
                "  node {}: exit {}, {}, {} live / {} reclaimed topics",
                v.id,
                if v.exit_ok { "ok" } else { "FAIL" },
                if v.complete { "complete" } else { "INCOMPLETE" },
                v.topics_live,
                v.topics_reclaimed
            );
        }
        for (topic, ok) in topic_ok.iter().enumerate() {
            println!(
                "  topic {topic}: {}",
                if *ok {
                    "all nodes delivered the full set"
                } else {
                    "DELIVERY SETS DIVERGED"
                }
            );
        }
        println!(
            "cluster verdict: {}",
            if parity_ok { "PASS" } else { "FAIL" }
        );
    }
    holds(parity_ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use urb_sim::FdKind;

    /// `urb run` without the printing: the summary it would report.
    fn run_for_test(args: &RunArgs) -> RunSummary {
        RunSummary::from_outcome(&urb_sim::run(build_config(args)))
    }

    #[test]
    fn build_config_maps_flags() {
        let args = RunArgs {
            n: 7,
            loss: 0.0,
            crashes: 2,
            fd: Some(FdKind::None),
            ..RunArgs::default()
        };
        let cfg = build_config(&args);
        assert_eq!(cfg.n, 7);
        assert!(matches!(cfg.loss, LossModel::None));
        assert!(matches!(cfg.fd, FdKind::None));
        assert_eq!(cfg.crashes.faulty_count(), 2);
        assert!(!cfg.stop_on_full_delivery, "Algorithm 2 runs to quiescence");
        let cfg = build_config(&RunArgs {
            algorithm: urb_core::Algorithm::Majority,
            ..args
        });
        assert!(
            cfg.stop_on_full_delivery,
            "Algorithm 1 never goes quiescent"
        );
    }

    #[test]
    fn burst_flag_switches_model() {
        let args = RunArgs {
            burst: true,
            loss: 0.2,
            ..RunArgs::default()
        };
        let cfg = build_config(&args);
        assert!(matches!(cfg.loss, LossModel::Burst { .. }));
    }

    #[test]
    fn trace_flag_enables_recording() {
        let args = RunArgs {
            trace: Some("/tmp/x.json".into()),
            ..RunArgs::default()
        };
        let cfg = build_config(&args);
        assert!(cfg.trace.enabled);
    }

    #[test]
    fn run_for_test_produces_clean_verdict() {
        let args = RunArgs {
            n: 4,
            msgs: 1,
            loss: 0.1,
            ..RunArgs::default()
        };
        let s = run_for_test(&args);
        assert!(s.validity_ok && s.agreement_ok && s.integrity_ok);
        assert_eq!(s.deliveries, 4);
    }

    #[test]
    fn load_scenario_compiles_corpus_files_with_overrides() {
        // Round-trip through a real file, as the subcommand does.
        let (_, text) = urb_sim::spec::corpus()
            .into_iter()
            .find(|(name, _)| *name == "partition_heal")
            .unwrap();
        let dir = std::env::temp_dir();
        let path = dir.join("urb_cli_test_partition_heal.toml");
        std::fs::write(&path, text).unwrap();
        let args = ScenarioArgs {
            path: path.to_string_lossy().into_owned(),
            seed: Some(999),
            trace: Some("/tmp/unused.json".into()),
            json: false,
        };
        let (spec, cfg) = load_scenario(&args).unwrap();
        assert_eq!(spec.name, "partition_heal");
        assert_eq!(spec.seed, 999, "CLI seed override wins");
        assert_eq!(cfg.seed, 999);
        assert!(cfg.trace.enabled, "--trace enables recording");
        let out = urb_sim::run(cfg);
        assert!(spec.expect.check(&out).is_empty());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_scenario_reports_missing_file_and_bad_spec() {
        let args = ScenarioArgs {
            path: "/nonexistent/spec.toml".into(),
            seed: None,
            trace: None,
            json: false,
        };
        assert!(load_scenario(&args).unwrap_err().contains("cannot read"));
        let path = std::env::temp_dir().join("urb_cli_test_bad.toml");
        std::fs::write(&path, "name = \"bad\"\nn = 4\nwat = 1\n").unwrap();
        let args = ScenarioArgs {
            path: path.to_string_lossy().into_owned(),
            seed: None,
            trace: None,
            json: false,
        };
        assert!(load_scenario(&args).unwrap_err().contains("unknown key"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bench_config_maps_flags() {
        let bench = |line: &str| {
            let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
            match crate::args::parse(&argv) {
                Ok(Command::Bench(args)) => args.trajectory,
                other => panic!("{line}: {other:?}"),
            }
        };
        let cfg = bench("bench");
        assert_eq!(
            cfg.ids,
            urb_bench::experiments::ALL_IDS,
            "all experiments by default"
        );
        assert_eq!(cfg.seeds_per_cell, 3);
        assert_eq!(cfg.load_topics, None, "pinned open-loop defaults");
        assert_eq!(cfg.rates, None);
        let cfg = bench(
            "bench --seed 9 --seeds 2 --experiments e1,e4 --load-topics 1,64 --rates 500,9000",
        );
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.seeds_per_cell, 2);
        assert_eq!(cfg.ids, vec!["e1".to_string(), "e4".to_string()]);
        assert_eq!(cfg.load_topics, Some(vec![1, 64]));
        assert_eq!(cfg.rates, Some(vec![500, 9_000]));
    }

    #[test]
    fn cluster_report_rolls_up_topic_lifecycle_counters() {
        // The fix pinned here: the cluster envelope used to drop the
        // node reports' topics_live / topics_reclaimed on the floor.
        // Both must now surface per node AND as cluster-wide sums.
        let verdicts = vec![
            ChildVerdict {
                id: 0,
                exit_ok: true,
                complete: true,
                topics_live: 3,
                topics_reclaimed: 1,
                per_topic: vec![],
            },
            ChildVerdict {
                id: 1,
                exit_ok: true,
                complete: true,
                topics_live: 3,
                topics_reclaimed: 2,
                per_topic: vec![],
            },
        ];
        let body = cluster_report_body(
            2,
            urb_core::Algorithm::Majority,
            3,
            1,
            2,
            &verdicts,
            &[true, true, true],
            true,
        );
        let v: serde_json::Value = serde_json::from_str(&body).unwrap();
        assert_eq!(v["topics_live"].as_u64(), Some(6), "sum across nodes");
        assert_eq!(v["topics_reclaimed"].as_u64(), Some(3));
        let nodes = v["nodes"].as_array().unwrap();
        assert_eq!(nodes[0]["topics_live"].as_u64(), Some(3));
        assert_eq!(nodes[0]["topics_reclaimed"].as_u64(), Some(1));
        assert_eq!(nodes[1]["topics_reclaimed"].as_u64(), Some(2));
        assert_eq!(v["verdict"].as_bool(), Some(true));
        // The body still nests cleanly inside the shared envelope.
        let wrapped = report::envelope(CLUSTER_REPORT_KIND, 7, &body);
        let w: serde_json::Value = serde_json::from_str(&wrapped).unwrap();
        assert_eq!(w["data"]["topics_live"].as_u64(), Some(6));
    }

    #[test]
    fn json_outputs_share_one_envelope() {
        // `urb run --json`, `urb scenario --json` and `urb bench --json`
        // all wrap their bodies in the same envelope; this pins the run/
        // scenario side (the trajectory side is pinned in urb-bench).
        let out = urb_sim::run(scenario::clean(3, urb_core::Algorithm::Majority, 1, 7));
        let summary = RunSummary::from_outcome(&out);
        let json = report::envelope(RUN_SUMMARY_KIND, 7, &summary.to_json());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["schema_version"], 1u64);
        assert_eq!(v["kind"], RUN_SUMMARY_KIND);
        assert_eq!(v["seed"], 7u64);
        assert!(v["git_rev"].as_str().is_some());
        assert_eq!(v["data"]["n"], 3u64);
        assert_eq!(v["data"]["agreement_ok"], true);
    }

    #[test]
    fn topics_flag_round_robins_workload_and_reports_per_topic_rows() {
        let args = RunArgs {
            n: 4,
            topics: 2,
            msgs: 4,
            loss: 0.0,
            ..RunArgs::default()
        };
        let cfg = build_config(&args);
        assert_eq!(cfg.topics, 2);
        let on_t1 = cfg
            .broadcasts
            .iter()
            .filter(|b| b.topic == urb_types::TopicId(1))
            .count();
        assert_eq!(on_t1, 2, "4 msgs round-robin 2 topics");
        let out = urb_sim::run(cfg);
        let s = RunSummary::from_outcome(&out);
        assert_eq!(s.per_topic.len(), 2);
        assert!(s.per_topic.iter().all(|t| t.agreement_ok));
        assert_eq!(s.per_topic[1].deliveries, 8, "2 msgs × 4 procs");
        // The per-topic rows ride the shared envelope like everything else.
        let json = report::envelope(RUN_SUMMARY_KIND, 1, &s.to_json());
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["data"]["per_topic"].as_array().unwrap().len(), 2);
        assert_eq!(v["data"]["per_topic"][1]["topic"], 1u64);
        assert_eq!(v["data"]["per_topic"][1]["validity_ok"], true);
        assert!(v["data"]["frames_sent"].as_u64().unwrap() > 0);
    }

    #[test]
    fn theorem2_body_wears_the_envelope() {
        let arm1 = urb_sim::run(scenario::theorem2_partition(6, 42));
        let arm2 = urb_sim::run(scenario::theorem2_control(6, 42));
        let json = report::envelope(THEOREM2_KIND, 42, &theorem2_body(6, &arm1, &arm2));
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["kind"], THEOREM2_KIND);
        assert_eq!(v["seed"], 42u64);
        assert_eq!(v["data"]["n"], 6u64);
        assert_eq!(v["data"]["threshold"], 3u64);
        assert_eq!(v["data"]["arm1_agreement_ok"], false);
        assert_eq!(v["data"]["arm2_blocked"], true);
        assert_eq!(v["data"]["demonstrated"], true);
    }

    #[test]
    fn quiescent_default_algorithm_reports_audit() {
        let args = RunArgs::default(); // quiescent + oracle by default
        let s = run_for_test(&args);
        assert_eq!(s.fd_audit_ok, Some(true));
    }
}
