//! The declarative scenario plane: scenario specs, loadable from TOML or
//! JSON, compiled onto the event-queue machinery.
//!
//! A [`ScenarioSpec`] is a complete, self-contained description of one
//! adversarial run — topology, workload, per-link loss and delay models,
//! crash plans, partition/churn windows and the named adversary shapes of
//! the [`crate::adversary`] scheduler library. Specs exist so that
//! scenario diversity is *data*, not Rust: users, CI and fuzzers author
//! `scenarios/*.toml` files and replay them with `urb scenario <file>`,
//! without recompiling anything.
//!
//! The pipeline:
//!
//! ```text
//! .toml ── minitoml::parse ──┐
//!                            ├──► serde_json::Value ──► ScenarioSpec::from_value
//! .json ── serde_json ───────┘            │
//!                                         ▼
//!            ScenarioSpec::compile ──► SimConfig ──► sim::run ──► RunOutcome
//!                                         ▲                          │
//!            Schedule::apply (adversary library)      Expectations::check
//! ```
//!
//! Everything is checked: decoding rejects unknown keys (typos fail loudly,
//! not silently), [`ScenarioSpec::compile`] validates ranges and resilience
//! bounds, and [`Expectations`] turn the run's machine-checked URB verdict
//! into a scenario-level pass/fail — a spec can legitimately *expect* a
//! violation (the Theorem-2 corpus entry does).
//!
//! The schema is documented in DESIGN.md §9; the shipped corpus lives in
//! `scenarios/` and is embedded here via [`corpus`] so tests, experiments
//! and examples replay it regardless of working directory.

use crate::adversary::Schedule;
use crate::channel::{DelayModel, LossModel};
use crate::crash::{CrashPlan, CrashRule};
use crate::minitoml;
use crate::sim::{
    Blackout, DelayOverride, FdKind, LinkOverride, PlannedBroadcast, RunOutcome, SimConfig,
    TopicAction, TopicEventCfg,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use urb_core::Algorithm;
use urb_fd::{HeartbeatConfig, OracleConfig};
use urb_types::{MemoryConfig, Payload, SpillPolicy, TopicId};

/// A scenario-file error: what went wrong, in words a spec author acts on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// Human-readable description.
    pub message: String,
}

impl SpecError {
    fn new(message: impl Into<String>) -> Self {
        SpecError {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec error: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// When a compiled run should end (beyond the hard horizon).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum StopRule {
    /// Stop once the system is quiescent (the default; right for
    /// Algorithm 2, which provably stops).
    #[default]
    Quiescence,
    /// Stop at quiescence *or* once every plan-correct process delivered
    /// everything — the bound for Algorithm-1 runs, which never quiesce.
    FullDelivery,
    /// Run to the horizon regardless (quiescence-curve measurements,
    /// impossibility adversaries that must observe continued silence).
    Horizon,
}

impl StopRule {
    fn as_str(self) -> &'static str {
        match self {
            StopRule::Quiescence => "quiescence",
            StopRule::FullDelivery => "full-delivery",
            StopRule::Horizon => "horizon",
        }
    }

    fn from_str(s: &str) -> Result<Self, SpecError> {
        Ok(match s {
            "quiescence" => StopRule::Quiescence,
            "full-delivery" => StopRule::FullDelivery,
            "horizon" => StopRule::Horizon,
            other => {
                return Err(SpecError::new(format!(
                    "unknown stop rule {other:?} (quiescence | full-delivery | horizon)"
                )))
            }
        })
    }
}

/// The application workload of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkloadSpec {
    /// `count` broadcasts from round-robin senders, `spacing` ticks apart,
    /// starting at `start` (all on topic 0 — the single-table `[workload]`
    /// form).
    Generated {
        /// Number of URB broadcasts.
        count: usize,
        /// Ticks between consecutive broadcasts.
        spacing: u64,
        /// Invocation time of the first broadcast.
        start: u64,
    },
    /// One generated workload **per topic** — the `[[workload]]`
    /// array-of-tables form of the topic plane (DESIGN.md §12): each entry
    /// names its topic and contributes its own round-robin broadcast
    /// stream, so skewed topic loads (one hot topic, many cold ones) are
    /// a few lines of TOML.
    PerTopic(Vec<TopicWorkload>),
    /// Explicit `[[workload.explicit]]` entries (each may name a topic).
    Explicit(Vec<BroadcastSpec>),
}

/// One topic's generated workload (`[[workload]]` entry).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopicWorkload {
    /// The topic this stream broadcasts on (must be `< [topics].count`).
    pub topic: u32,
    /// Number of URB broadcasts.
    pub count: usize,
    /// Ticks between consecutive broadcasts.
    pub spacing: u64,
    /// Invocation time of the first broadcast.
    pub start: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec::Generated {
            count: 1,
            spacing: 100,
            start: 10,
        }
    }
}

/// One explicit `URB_broadcast` invocation in a spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BroadcastSpec {
    /// Invocation time.
    pub time: u64,
    /// Invoking process.
    pub pid: usize,
    /// Target URB instance (`0` when omitted; must be `< [topics].count`).
    pub topic: u32,
    /// The application message (UTF-8).
    pub payload: String,
}

/// One explicit `[[crash]]` entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashRuleSpec {
    /// The crashing process.
    pub pid: usize,
    /// When it crashes.
    pub rule: CrashRule,
}

/// The `[crash_random]` table: `count` random victims with crash times in
/// `[0, horizon]`, derived deterministically from the scenario seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RandomCrashSpec {
    /// Number of crashing processes.
    pub count: usize,
    /// Crash times are drawn in `[0, horizon]`.
    pub horizon: u64,
    /// A process index never selected (usually the broadcaster).
    pub protect: Option<usize>,
}

/// One `[[link]]` entry: a directed link with its own loss and/or delay
/// model (the mesh-wide models apply where a field is absent).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Sender side of the link.
    pub from: usize,
    /// Receiver side of the link.
    pub to: usize,
    /// Replacement loss model, if any.
    pub loss: Option<LossModel>,
    /// Replacement delay model, if any.
    pub delay: Option<DelayModel>,
}

/// The `[expect]` table: the scenario-level verdict, checked against the
/// run's machine-checked [`RunOutcome`]. An empty table (or an absent one)
/// means "everything must hold" (`all_ok = true`); a spec can instead
/// *expect a violation* — the executable-impossibility corpus entry
/// expects `agreement = false`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Expectations {
    /// All URB properties and (oracle runs) the FD audit.
    pub all_ok: Option<bool>,
    /// The validity verdict.
    pub validity: Option<bool>,
    /// The uniform-agreement verdict.
    pub agreement: Option<bool>,
    /// The uniform-integrity verdict.
    pub integrity: Option<bool>,
    /// Whether the run must end quiescent.
    pub quiescent: Option<bool>,
    /// Minimum number of URB deliveries across all processes.
    pub min_deliveries: Option<usize>,
    /// Every per-topic URB verdict must hold (DESIGN.md §12). `all_ok`
    /// checks the global union of records; this key additionally demands
    /// each instance's own partitioned verdict.
    pub topics_all_ok: Option<bool>,
    /// Minimum URB deliveries on **each** topic that appears in the run.
    pub min_deliveries_per_topic: Option<usize>,
    /// Minimum total topic instances reclaimed across all processes
    /// (DESIGN.md §15): a retire applied at `k` live processes counts `k`
    /// once drained and freed. The state-reclamation proof of the
    /// lifecycle plane — `topics_all_ok` says retirement kept URB sound,
    /// this key says it actually freed the memory.
    pub min_reclaimed_topics: Option<u64>,
}

impl Expectations {
    /// True when no expectation is spelled out (→ `all_ok` is implied).
    pub fn is_unconstrained(&self) -> bool {
        *self == Expectations::default()
    }

    /// Checks a finished run against these expectations. Empty vector =
    /// the scenario passed.
    pub fn check(&self, out: &RunOutcome) -> Vec<String> {
        let eff = if self.is_unconstrained() {
            Expectations {
                all_ok: Some(true),
                ..Expectations::default()
            }
        } else {
            *self
        };
        let mut fails = Vec::new();
        let mut want = |name: &str, expected: Option<bool>, got: bool| {
            if let Some(w) = expected {
                if got != w {
                    fails.push(format!("expected {name} = {w}, run produced {got}"));
                }
            }
        };
        want("all_ok", eff.all_ok, out.all_ok());
        want("validity", eff.validity, out.report.validity.ok());
        want("agreement", eff.agreement, out.report.agreement.ok());
        want("integrity", eff.integrity, out.report.integrity.ok());
        want("quiescent", eff.quiescent, out.quiescent);
        want(
            "topics_all_ok",
            eff.topics_all_ok,
            out.per_topic.iter().all(|t| t.report.all_ok()),
        );
        if let Some(min) = eff.min_deliveries {
            let got = out.metrics.deliveries.len();
            if got < min {
                fails.push(format!(
                    "expected at least {min} deliveries, run produced {got}"
                ));
            }
        }
        if let Some(min) = eff.min_deliveries_per_topic {
            for t in &out.per_topic {
                if t.deliveries < min {
                    fails.push(format!(
                        "expected at least {min} deliveries on topic {}, run produced {}",
                        t.topic, t.deliveries
                    ));
                }
            }
        }
        if let Some(min) = eff.min_reclaimed_topics {
            let got = out.topics_reclaimed();
            if got < min {
                fails.push(format!(
                    "expected at least {min} reclaimed topic instances, run produced {got}"
                ));
            }
        }
        fails
    }
}

/// The `[check]` table: per-scenario bounds for the systematic explorer
/// (`urb-check`, DESIGN.md §11). A scenario ships the exploration budget
/// that makes its interesting schedules reachable — depth of the choice
/// tree, the adversarial loss budget, per-process Task-1 sweeps, the
/// `dpor-lite` deviation budget and the random-walk count — so `urb check
/// <file>` needs no hand-tuned flags. Absent table = library defaults.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckBounds {
    /// Maximum choices along one explored execution.
    pub depth: u32,
    /// Adversarial message-drop budget per execution (batch thinning).
    pub max_drops: u32,
    /// Task-1 sweeps the explorer may schedule per process.
    pub tick_budget: u32,
    /// Deviation budget of the `dpor-lite` delay-bounded strategy.
    pub delay_budget: u32,
    /// Number of walks of the seeded random-walk strategy.
    pub walks: u32,
    /// Default strategy for this scenario (`"dfs"`, `"dpor-lite"` or
    /// `"random"`; `None` = the CLI default).
    pub strategy: Option<String>,
}

impl Default for CheckBounds {
    fn default() -> Self {
        CheckBounds {
            depth: 96,
            max_drops: 2,
            tick_budget: 1,
            delay_budget: 4,
            walks: 64,
            strategy: None,
        }
    }
}

/// A complete declarative scenario. See the module docs for the pipeline
/// and DESIGN.md §9 for the file schema.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name (used in reports and experiment tables).
    pub name: String,
    /// Free-form description.
    pub description: String,
    /// Root RNG seed.
    pub seed: u64,
    /// System size `n`.
    pub n: usize,
    /// Number of concurrent URB instances (topics); `1` when the
    /// `[topics]` table is absent (DESIGN.md §12).
    pub topics: u32,
    /// Planned topic-lifecycle events (`[[topics.events]]`, DESIGN.md
    /// §15), in file order; compiled sorted by time. A `create` must
    /// name an id outside `0..topics` that is not live at its time; a
    /// `retire` must name a live topic; `algorithm` absent inherits the
    /// scenario's.
    pub topic_events: Vec<TopicEventCfg>,
    /// `[topics].drain_ticks`: the drain budget for retiring topics
    /// (absent = the engine default).
    pub drain_ticks: Option<u32>,
    /// Protocol under test.
    pub algorithm: Algorithm,
    /// Hard horizon in ticks.
    pub horizon: u64,
    /// Task-1 sweep period.
    pub tick_interval: u64,
    /// Uniform jitter added to each sweep period.
    pub tick_jitter: u64,
    /// State-size sampling period (0 = off).
    pub stats_interval: u64,
    /// Histogram window for the quiescence curve.
    pub window: u64,
    /// Early-stop policy.
    pub stop: StopRule,
    /// Mesh-wide loss model.
    pub loss: LossModel,
    /// Mesh-wide delay model.
    pub delay: DelayModel,
    /// Failure-detector selection (absent = pick by algorithm, exactly
    /// what [`SimConfig::new`] does).
    pub fd: Option<FdKind>,
    /// Per-link loss/delay overrides.
    pub links: Vec<LinkSpec>,
    /// Raw time-windowed link outages.
    pub blackouts: Vec<Blackout>,
    /// The application workload.
    pub workload: WorkloadSpec,
    /// Explicit per-process crash rules.
    pub crashes: Vec<CrashRuleSpec>,
    /// Random crash adversary (composes with explicit rules; explicit
    /// rules win on conflict).
    pub crash_random: Option<RandomCrashSpec>,
    /// Named adversary shapes, applied in order.
    pub schedules: Vec<Schedule>,
    /// The scenario-level verdict.
    pub expect: Expectations,
    /// Exploration bounds for `urb check` (DESIGN.md §11).
    pub check: CheckBounds,
    /// Bounded-memory mode (`[memory]` table, DESIGN.md §14); absent =
    /// unbounded, byte-identical to the pre-memory-plane simulator.
    pub memory: Option<MemoryConfig>,
}

impl ScenarioSpec {
    /// A minimal spec with library defaults: one broadcast, reliable
    /// links, no crashes, stop on quiescence.
    pub fn new(name: &str, n: usize, algorithm: Algorithm) -> Self {
        ScenarioSpec {
            name: name.to_string(),
            description: String::new(),
            seed: 1,
            n,
            topics: 1,
            topic_events: Vec::new(),
            drain_ticks: None,
            algorithm,
            horizon: 100_000,
            tick_interval: 10,
            tick_jitter: 3,
            stats_interval: 0,
            window: 1_000,
            stop: StopRule::default(),
            loss: LossModel::None,
            delay: DelayModel::default(),
            fd: None,
            links: Vec::new(),
            blackouts: Vec::new(),
            workload: WorkloadSpec::default(),
            crashes: Vec::new(),
            crash_random: None,
            schedules: Vec::new(),
            expect: Expectations::default(),
            check: CheckBounds::default(),
            memory: None,
        }
    }

    /// Parses a TOML scenario file (see [`crate::minitoml`] for the
    /// supported subset).
    pub fn from_toml_str(input: &str) -> Result<Self, SpecError> {
        let value = minitoml::parse(input).map_err(|e| SpecError::new(e.to_string()))?;
        Self::from_value(&value)
    }

    /// Parses a JSON scenario file (same schema, JSON syntax).
    pub fn from_json_str(input: &str) -> Result<Self, SpecError> {
        let value = serde_json::from_str(input).map_err(|e| SpecError::new(e.to_string()))?;
        Self::from_value(&value)
    }

    /// Parses scenario text, choosing the format from the file name
    /// (`.json` → JSON, anything else → TOML).
    pub fn from_named_str(path: &str, input: &str) -> Result<Self, SpecError> {
        if path.ends_with(".json") {
            Self::from_json_str(input)
        } else {
            Self::from_toml_str(input)
        }
    }

    /// Decodes a spec from the shared [`Value`] tree. Unknown keys are
    /// rejected at every level.
    pub fn from_value(value: &Value) -> Result<Self, SpecError> {
        let map = as_table(value, "scenario")?;
        check_keys(
            map,
            &[
                "name",
                "description",
                "seed",
                "n",
                "topics",
                "algorithm",
                "horizon",
                "tick_interval",
                "tick_jitter",
                "stats_interval",
                "window",
                "stop",
                "loss",
                "delay",
                "fd",
                "link",
                "blackout",
                "workload",
                "crash",
                "crash_random",
                "schedule",
                "expect",
                "check",
                "memory",
            ],
            "scenario",
        )?;
        let n = req_usize(map, "n")?;
        let mut spec = ScenarioSpec::new(&req_str(map, "name")?, n, Algorithm::Quiescent);
        if let Some(v) = map.get("topics") {
            let t = as_table(v, "topics")?;
            check_keys(t, &["count", "drain_ticks", "events"], "topics")?;
            spec.topics = fit_u32(req_u64(t, "count")?, "topics.count")?;
            if let Some(d) = t.get("drain_ticks") {
                let d = as_u64(d, "topics.drain_ticks")?;
                spec.drain_ticks = Some(fit_u32(d, "topics.drain_ticks")?);
            }
            if let Some(evs) = t.get("events") {
                for item in as_array(evs, "topics.events")? {
                    spec.topic_events.push(decode_topic_event(item)?);
                }
            }
        }
        spec.algorithm = match map.get("algorithm") {
            Some(v) => parse_algorithm(as_str(v, "algorithm")?)?,
            None => Algorithm::Quiescent,
        };
        spec.description = opt_str(map, "description", "")?;
        spec.seed = opt_u64(map, "seed", spec.seed)?;
        spec.horizon = opt_u64(map, "horizon", spec.horizon)?;
        spec.tick_interval = opt_u64(map, "tick_interval", spec.tick_interval)?;
        spec.tick_jitter = opt_u64(map, "tick_jitter", spec.tick_jitter)?;
        spec.stats_interval = opt_u64(map, "stats_interval", spec.stats_interval)?;
        spec.window = opt_u64(map, "window", spec.window)?;
        if let Some(v) = map.get("stop") {
            spec.stop = StopRule::from_str(as_str(v, "stop")?)?;
        }
        if let Some(v) = map.get("loss") {
            spec.loss = decode_loss(v)?;
        }
        if let Some(v) = map.get("delay") {
            spec.delay = decode_delay(v)?;
        }
        if let Some(v) = map.get("fd") {
            spec.fd = Some(decode_fd(v)?);
        }
        if let Some(v) = map.get("link") {
            for item in as_array(v, "link")? {
                spec.links.push(decode_link(item)?);
            }
        }
        if let Some(v) = map.get("blackout") {
            for item in as_array(v, "blackout")? {
                spec.blackouts.push(decode_blackout(item)?);
            }
        }
        if let Some(v) = map.get("workload") {
            spec.workload = decode_workload(v)?;
        }
        if let Some(v) = map.get("crash") {
            for item in as_array(v, "crash")? {
                spec.crashes.push(decode_crash(item)?);
            }
        }
        if let Some(v) = map.get("crash_random") {
            spec.crash_random = Some(decode_crash_random(v)?);
        }
        if let Some(v) = map.get("schedule") {
            for item in as_array(v, "schedule")? {
                spec.schedules.push(decode_schedule(item)?);
            }
        }
        if let Some(v) = map.get("expect") {
            spec.expect = decode_expect(v)?;
        }
        if let Some(v) = map.get("check") {
            spec.check = decode_check(v)?;
        }
        if let Some(v) = map.get("memory") {
            spec.memory = Some(decode_memory(v)?);
        }
        Ok(spec)
    }

    /// Renders the spec as canonical TOML. The guarantee the round-trip
    /// property test enforces: `from_toml_str(spec.to_toml()) == spec`.
    pub fn to_toml(&self) -> String {
        let mut s = String::with_capacity(1024);
        let _ = writeln!(s, "name = {}", toml_str(&self.name));
        if !self.description.is_empty() {
            let _ = writeln!(s, "description = {}", toml_str(&self.description));
        }
        let _ = writeln!(s, "seed = {}", self.seed);
        let _ = writeln!(s, "n = {}", self.n);
        let _ = writeln!(
            s,
            "algorithm = {}",
            toml_str(&format_algorithm(self.algorithm))
        );
        let _ = writeln!(s, "horizon = {}", self.horizon);
        let _ = writeln!(s, "tick_interval = {}", self.tick_interval);
        let _ = writeln!(s, "tick_jitter = {}", self.tick_jitter);
        if self.stats_interval != 0 {
            let _ = writeln!(s, "stats_interval = {}", self.stats_interval);
        }
        let _ = writeln!(s, "window = {}", self.window);
        let _ = writeln!(s, "stop = {}", toml_str(self.stop.as_str()));
        let _ = writeln!(s, "loss = {}", encode_loss(&self.loss));
        let _ = writeln!(s, "delay = {}", encode_delay(&self.delay));
        if let Some(fd) = &self.fd {
            s.push_str(&encode_fd(fd));
        }
        if self.topics != 1 || self.drain_ticks.is_some() || !self.topic_events.is_empty() {
            let _ = writeln!(s, "\n[topics]");
            let _ = writeln!(s, "count = {}", self.topics);
            if let Some(d) = self.drain_ticks {
                let _ = writeln!(s, "drain_ticks = {d}");
            }
            for e in &self.topic_events {
                let _ = writeln!(s, "\n[[topics.events]]");
                let _ = writeln!(s, "at = {}", e.time);
                match e.action {
                    TopicAction::Create { topic, algorithm } => {
                        let _ = writeln!(s, "create = {}", topic.0);
                        if let Some(a) = algorithm {
                            let _ = writeln!(s, "algorithm = {}", toml_str(&format_algorithm(a)));
                        }
                    }
                    TopicAction::Retire { topic } => {
                        let _ = writeln!(s, "retire = {}", topic.0);
                    }
                }
            }
        }
        match &self.workload {
            WorkloadSpec::Generated {
                count,
                spacing,
                start,
            } => {
                let _ = writeln!(s, "\n[workload]");
                let _ = writeln!(s, "count = {count}");
                let _ = writeln!(s, "spacing = {spacing}");
                let _ = writeln!(s, "start = {start}");
            }
            WorkloadSpec::PerTopic(list) => {
                for w in list {
                    let _ = writeln!(s, "\n[[workload]]");
                    let _ = writeln!(s, "topic = {}", w.topic);
                    let _ = writeln!(s, "count = {}", w.count);
                    let _ = writeln!(s, "spacing = {}", w.spacing);
                    let _ = writeln!(s, "start = {}", w.start);
                }
            }
            WorkloadSpec::Explicit(list) => {
                for b in list {
                    let _ = writeln!(s, "\n[[workload.explicit]]");
                    let _ = writeln!(s, "time = {}", b.time);
                    let _ = writeln!(s, "pid = {}", b.pid);
                    if b.topic != 0 {
                        let _ = writeln!(s, "topic = {}", b.topic);
                    }
                    let _ = writeln!(s, "payload = {}", toml_str(&b.payload));
                }
            }
        }
        for c in &self.crashes {
            let _ = writeln!(s, "\n[[crash]]");
            let _ = writeln!(s, "pid = {}", c.pid);
            match c.rule {
                CrashRule::At(t) => {
                    let _ = writeln!(s, "at = {t}");
                }
                CrashRule::OnFirstDelivery { delay } => {
                    let _ = writeln!(s, "on_first_delivery = true");
                    let _ = writeln!(s, "delay = {delay}");
                }
                // `never` exempts the pid from a [crash_random] draw.
                CrashRule::Never => {
                    let _ = writeln!(s, "never = true");
                }
            }
        }
        if let Some(r) = &self.crash_random {
            let _ = writeln!(s, "\n[crash_random]");
            let _ = writeln!(s, "count = {}", r.count);
            let _ = writeln!(s, "horizon = {}", r.horizon);
            if let Some(p) = r.protect {
                let _ = writeln!(s, "protect = {p}");
            }
        }
        for l in &self.links {
            let _ = writeln!(s, "\n[[link]]");
            let _ = writeln!(s, "from = {}", l.from);
            let _ = writeln!(s, "to = {}", l.to);
            if let Some(loss) = &l.loss {
                let _ = writeln!(s, "loss = {}", encode_loss(loss));
            }
            if let Some(delay) = &l.delay {
                let _ = writeln!(s, "delay = {}", encode_delay(delay));
            }
        }
        for b in &self.blackouts {
            let _ = writeln!(s, "\n[[blackout]]");
            let _ = writeln!(s, "from = {}", b.from);
            let _ = writeln!(s, "to = {}", b.to);
            let _ = writeln!(s, "start = {}", b.start);
            let _ = writeln!(s, "end = {}", b.end);
        }
        for sched in &self.schedules {
            s.push_str(&encode_schedule(sched));
        }
        if !self.expect.is_unconstrained() {
            let _ = writeln!(s, "\n[expect]");
            let mut bool_line = |key: &str, v: Option<bool>| {
                if let Some(b) = v {
                    let _ = writeln!(s, "{key} = {b}");
                }
            };
            bool_line("all_ok", self.expect.all_ok);
            bool_line("validity", self.expect.validity);
            bool_line("agreement", self.expect.agreement);
            bool_line("integrity", self.expect.integrity);
            bool_line("quiescent", self.expect.quiescent);
            bool_line("topics_all_ok", self.expect.topics_all_ok);
            if let Some(m) = self.expect.min_deliveries {
                let _ = writeln!(s, "min_deliveries = {m}");
            }
            if let Some(m) = self.expect.min_deliveries_per_topic {
                let _ = writeln!(s, "min_deliveries_per_topic = {m}");
            }
            if let Some(m) = self.expect.min_reclaimed_topics {
                let _ = writeln!(s, "min_reclaimed_topics = {m}");
            }
        }
        if self.check != CheckBounds::default() {
            let d = CheckBounds::default();
            let _ = writeln!(s, "\n[check]");
            let mut num_line = |key: &str, v: u32, default: u32| {
                if v != default {
                    let _ = writeln!(s, "{key} = {v}");
                }
            };
            num_line("depth", self.check.depth, d.depth);
            num_line("max_drops", self.check.max_drops, d.max_drops);
            num_line("tick_budget", self.check.tick_budget, d.tick_budget);
            num_line("delay_budget", self.check.delay_budget, d.delay_budget);
            num_line("walks", self.check.walks, d.walks);
            if let Some(st) = &self.check.strategy {
                let _ = writeln!(s, "strategy = {}", toml_str(st));
            }
        }
        if let Some(m) = &self.memory {
            let _ = writeln!(s, "\n[memory]");
            let _ = writeln!(s, "grace_ticks = {}", m.grace_ticks);
            let _ = writeln!(s, "conservative = {}", m.conservative);
            let _ = writeln!(s, "tombstones = {}", m.tombstones);
            if let Some(c) = m.ceiling {
                let _ = writeln!(s, "ceiling = {c}");
            }
            let _ = writeln!(
                s,
                "spill = {}",
                toml_str(match m.spill {
                    SpillPolicy::StableOnly => "stable-only",
                    SpillPolicy::Tombstones => "tombstones",
                })
            );
        }
        s
    }

    /// Compiles the spec into a runnable [`SimConfig`], validating every
    /// cross-field constraint on the way (pid ranges, resilience bounds,
    /// probability ranges, window sanity).
    pub fn compile(&self) -> Result<SimConfig, SpecError> {
        let n = self.n;
        if n == 0 {
            return Err(SpecError::new("n must be positive"));
        }
        if self.topics == 0 {
            return Err(SpecError::new("topics.count must be positive"));
        }
        // Every algorithm the run will instantiate — the static one and
        // each lifecycle create's — must be runnable at this n.
        let created = self.topic_events.iter().filter_map(|e| match e.action {
            TopicAction::Create { algorithm, .. } => algorithm,
            TopicAction::Retire { .. } => None,
        });
        for alg in std::iter::once(self.algorithm).chain(created) {
            if !alg.runs_with(n) {
                return Err(SpecError::new(format!(
                    "algorithm {:?} cannot run with n = {n}",
                    format_algorithm(alg)
                )));
            }
        }
        let mut cfg = SimConfig::new(n, self.algorithm)
            .seed(self.seed)
            .max_time(self.horizon);
        cfg.topics = self.topics;
        cfg.tick_interval = self.tick_interval;
        cfg.tick_jitter = self.tick_jitter;
        cfg.stats_interval = self.stats_interval;
        cfg.window = self.window.max(1);
        cfg.loss = self.loss;
        cfg.delay = self.delay;
        cfg.memory = self.memory;
        check_loss(&self.loss)?;
        (cfg.stop_on_quiescence, cfg.stop_on_full_delivery) = match self.stop {
            StopRule::Quiescence => (true, false),
            StopRule::FullDelivery => (true, true),
            StopRule::Horizon => (false, false),
        };
        if let Some(fd) = self.fd {
            cfg.fd = fd;
        }

        // Lifecycle plan (DESIGN.md §15): events apply in time order
        // (file order among equal times). Validation walks the plan with
        // a live-set: creates must target ids outside the static range
        // that are not currently live; retires must target something
        // live at that instant.
        let mut events = self.topic_events.clone();
        events.sort_by_key(|e| e.time);
        let mut live: std::collections::BTreeSet<u32> = (0..self.topics).collect();
        let mut dynamic: std::collections::BTreeSet<u32> = std::collections::BTreeSet::new();
        for e in &events {
            let topic = e.action.topic().0;
            match e.action {
                TopicAction::Create { .. } => {
                    if topic < self.topics {
                        return Err(SpecError::new(format!(
                            "topics.events: create of topic {topic} which is statically \
                             configured (topics.count = {})",
                            self.topics
                        )));
                    }
                    if !live.insert(topic) {
                        return Err(SpecError::new(format!(
                            "topics.events: create of topic {topic} at t={} while it is \
                             already live",
                            e.time
                        )));
                    }
                    dynamic.insert(topic);
                }
                TopicAction::Retire { .. } => {
                    if !live.remove(&topic) {
                        return Err(SpecError::new(format!(
                            "topics.events: retire of topic {topic} at t={} while it is \
                             not live",
                            e.time
                        )));
                    }
                }
            }
        }
        cfg.topic_events = events;
        if let Some(d) = self.drain_ticks {
            cfg.drain_ticks = d;
        }

        let check_topic = |topic: u32, what: &str| -> Result<(), SpecError> {
            if topic >= self.topics && !dynamic.contains(&topic) {
                Err(SpecError::new(format!(
                    "{what} {topic} out of range for topics.count = {} (and no \
                     [[topics.events]] create for it)",
                    self.topics
                )))
            } else {
                Ok(())
            }
        };
        cfg.broadcasts = match &self.workload {
            WorkloadSpec::Generated {
                count,
                spacing,
                start,
            } => (0..*count)
                .map(|i| PlannedBroadcast {
                    time: start + i as u64 * spacing,
                    pid: i % n,
                    topic: TopicId::ZERO,
                    payload: Payload::from(format!("m{i}").as_str()),
                })
                .collect(),
            WorkloadSpec::PerTopic(list) => {
                let mut planned = Vec::new();
                for w in list {
                    check_topic(w.topic, "workload topic")?;
                    for i in 0..w.count {
                        planned.push(PlannedBroadcast {
                            time: w.start + i as u64 * w.spacing,
                            pid: i % n,
                            topic: TopicId(w.topic),
                            payload: Payload::from(format!("t{}m{i}", w.topic).as_str()),
                        });
                    }
                }
                // Deterministic event-queue order: by time, then topic,
                // then the stream's own index order (already stable).
                planned.sort_by_key(|b| (b.time, b.topic));
                planned
            }
            WorkloadSpec::Explicit(list) => list
                .iter()
                .map(|b| {
                    check_pid(n, b.pid, "workload pid")?;
                    check_topic(b.topic, "workload topic")?;
                    Ok(PlannedBroadcast {
                        time: b.time,
                        pid: b.pid,
                        topic: TopicId(b.topic),
                        payload: Payload::from(b.payload.as_str()),
                    })
                })
                .collect::<Result<_, SpecError>>()?,
        };

        // Crash plan: random base first, explicit rules on top.
        let mut rules: Vec<CrashRule> = match &self.crash_random {
            Some(r) => {
                if r.count >= n {
                    return Err(SpecError::new(format!(
                        "crash_random.count {} leaves no correct process (n = {n})",
                        r.count
                    )));
                }
                if let Some(p) = r.protect {
                    check_pid(n, p, "crash_random.protect")?;
                }
                let plan =
                    CrashPlan::random(n, r.count, r.horizon, self.seed ^ 0xAD7E_C5A1, r.protect);
                (0..n).map(|i| plan.rule(i)).collect()
            }
            None => vec![CrashRule::Never; n],
        };
        for c in &self.crashes {
            check_pid(n, c.pid, "crash pid")?;
            rules[c.pid] = c.rule;
        }
        cfg.crashes = CrashPlan::from_rules(rules);
        if cfg.crashes.faulty_count() >= n {
            return Err(SpecError::new(
                "crash plan leaves no correct process (the model requires one)",
            ));
        }

        for l in &self.links {
            check_pid(n, l.from, "link.from")?;
            check_pid(n, l.to, "link.to")?;
            if l.loss.is_none() && l.delay.is_none() {
                return Err(SpecError::new(format!(
                    "link {} → {} overrides neither loss nor delay",
                    l.from, l.to
                )));
            }
            if let Some(loss) = l.loss {
                check_loss(&loss)?;
                cfg.link_overrides.push(LinkOverride {
                    from: l.from,
                    to: l.to,
                    loss,
                });
            }
            if let Some(delay) = l.delay {
                cfg.delay_overrides.push(DelayOverride {
                    from: l.from,
                    to: l.to,
                    delay,
                });
            }
        }
        for b in &self.blackouts {
            check_pid(n, b.from, "blackout.from")?;
            check_pid(n, b.to, "blackout.to")?;
            if b.start >= b.end {
                return Err(SpecError::new(format!(
                    "blackout window [{}, {}) never opens",
                    b.start, b.end
                )));
            }
            cfg.blackouts.push(*b);
        }
        for sched in &self.schedules {
            sched
                .apply(&mut cfg)
                .map_err(|e| SpecError::new(format!("schedule {:?}: {e}", sched.kind())))?;
        }
        Ok(cfg)
    }

    /// Compiles and runs the scenario, returning the outcome and the list
    /// of violated expectations (empty = the scenario passed).
    pub fn run(&self) -> Result<(RunOutcome, Vec<String>), SpecError> {
        let out = crate::sim::run(self.compile()?);
        let fails = self.expect.check(&out);
        Ok((out, fails))
    }
}

// ------------------------------------------------------------------
// The embedded corpus.

/// The shipped scenario corpus (`scenarios/*.toml`), embedded so tests,
/// experiments and examples replay it regardless of working directory. Pairs
/// of `(file stem, TOML text)`.
pub fn corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "clean_smoke",
            include_str!("../../../scenarios/clean_smoke.toml"),
        ),
        (
            "lossy_crashes",
            include_str!("../../../scenarios/lossy_crashes.toml"),
        ),
        (
            "partition_heal",
            include_str!("../../../scenarios/partition_heal.toml"),
        ),
        (
            "ack_starvation",
            include_str!("../../../scenarios/ack_starvation.toml"),
        ),
        ("churn", include_str!("../../../scenarios/churn.toml")),
        (
            "crash_storm",
            include_str!("../../../scenarios/crash_storm.toml"),
        ),
        (
            "targeted_delay",
            include_str!("../../../scenarios/targeted_delay.toml"),
        ),
        (
            "theorem2_violation",
            include_str!("../../../scenarios/theorem2_violation.toml"),
        ),
        (
            "two_topics_smoke",
            include_str!("../../../scenarios/two_topics_smoke.toml"),
        ),
        (
            "cross_topic_storm",
            include_str!("../../../scenarios/cross_topic_storm.toml"),
        ),
        (
            "bounded_memory",
            include_str!("../../../scenarios/bounded_memory.toml"),
        ),
        (
            "dynamic_topics",
            include_str!("../../../scenarios/dynamic_topics.toml"),
        ),
        (
            "undersized_tombstones",
            include_str!("../../../scenarios/undersized_tombstones.toml"),
        ),
    ]
}

// ------------------------------------------------------------------
// Algorithm names.

/// Parses the spec-file algorithm string (`"majority"`, `"quiescent"`,
/// `"quiescent-literal"`, `"best-effort"`, `"eager-rb"`, `"backoff:<cap>"`,
/// `"weakened:<threshold>"`).
pub fn parse_algorithm(s: &str) -> Result<Algorithm, SpecError> {
    if let Some(cap) = s.strip_prefix("backoff:") {
        let cap: u32 = cap
            .parse()
            .map_err(|_| SpecError::new(format!("bad backoff cap in {s:?}")))?;
        return Ok(Algorithm::MajorityBackoff { cap });
    }
    if let Some(th) = s.strip_prefix("weakened:") {
        let threshold: u32 = th
            .parse()
            .map_err(|_| SpecError::new(format!("bad weakened threshold in {s:?}")))?;
        return Ok(Algorithm::WeakenedMajority { threshold });
    }
    Ok(match s {
        "majority" => Algorithm::Majority,
        "quiescent" => Algorithm::Quiescent,
        "quiescent-literal" => Algorithm::QuiescentLiteral,
        "best-effort" => Algorithm::BestEffort,
        "eager-rb" => Algorithm::EagerRb,
        other => {
            return Err(SpecError::new(format!(
                "unknown algorithm {other:?} (majority | quiescent | quiescent-literal | \
                 best-effort | eager-rb | backoff:<cap> | weakened:<threshold>)"
            )))
        }
    })
}

/// Inverse of [`parse_algorithm`].
pub fn format_algorithm(alg: Algorithm) -> String {
    match alg {
        Algorithm::Majority => "majority".into(),
        Algorithm::Quiescent => "quiescent".into(),
        Algorithm::QuiescentLiteral => "quiescent-literal".into(),
        Algorithm::BestEffort => "best-effort".into(),
        Algorithm::EagerRb => "eager-rb".into(),
        Algorithm::MajorityBackoff { cap } => format!("backoff:{cap}"),
        Algorithm::WeakenedMajority { threshold } => format!("weakened:{threshold}"),
    }
}

// ------------------------------------------------------------------
// Value-tree decoding helpers.

fn as_table<'a>(v: &'a Value, what: &str) -> Result<&'a BTreeMap<String, Value>, SpecError> {
    match v {
        Value::Object(map) => Ok(map),
        _ => Err(SpecError::new(format!("{what} must be a table"))),
    }
}

fn as_array<'a>(v: &'a Value, what: &str) -> Result<&'a Vec<Value>, SpecError> {
    v.as_array()
        .ok_or_else(|| SpecError::new(format!("{what} must be an array")))
}

fn as_str<'a>(v: &'a Value, what: &str) -> Result<&'a str, SpecError> {
    v.as_str()
        .ok_or_else(|| SpecError::new(format!("{what} must be a string")))
}

fn as_u64(v: &Value, what: &str) -> Result<u64, SpecError> {
    v.as_u64()
        .ok_or_else(|| SpecError::new(format!("{what} must be a non-negative integer")))
}

fn as_f64(v: &Value, what: &str) -> Result<f64, SpecError> {
    v.as_f64()
        .ok_or_else(|| SpecError::new(format!("{what} must be a number")))
}

fn as_bool(v: &Value, what: &str) -> Result<bool, SpecError> {
    v.as_bool()
        .ok_or_else(|| SpecError::new(format!("{what} must be a boolean")))
}

fn check_keys(
    map: &BTreeMap<String, Value>,
    allowed: &[&str],
    what: &str,
) -> Result<(), SpecError> {
    for key in map.keys() {
        if !allowed.contains(&key.as_str()) {
            return Err(SpecError::new(format!(
                "unknown key `{key}` in {what} (allowed: {})",
                allowed.join(", ")
            )));
        }
    }
    Ok(())
}

fn req_str(map: &BTreeMap<String, Value>, key: &str) -> Result<String, SpecError> {
    match map.get(key) {
        Some(v) => Ok(as_str(v, key)?.to_string()),
        None => Err(SpecError::new(format!("missing required key `{key}`"))),
    }
}

fn opt_str(map: &BTreeMap<String, Value>, key: &str, default: &str) -> Result<String, SpecError> {
    match map.get(key) {
        Some(v) => Ok(as_str(v, key)?.to_string()),
        None => Ok(default.to_string()),
    }
}

fn req_u64(map: &BTreeMap<String, Value>, key: &str) -> Result<u64, SpecError> {
    match map.get(key) {
        Some(v) => as_u64(v, key),
        None => Err(SpecError::new(format!("missing required key `{key}`"))),
    }
}

fn opt_u64(map: &BTreeMap<String, Value>, key: &str, default: u64) -> Result<u64, SpecError> {
    match map.get(key) {
        Some(v) => as_u64(v, key),
        None => Ok(default),
    }
}

/// Narrows a decoded integer into a `u32` field; a value past `u32::MAX`
/// is an error naming `key`, never the id it would wrap to.
fn fit_u32(v: u64, key: &str) -> Result<u32, SpecError> {
    u32::try_from(v)
        .map_err(|_| SpecError::new(format!("{key} = {v} does not fit a u32 (max {})", u32::MAX)))
}

fn req_usize(map: &BTreeMap<String, Value>, key: &str) -> Result<usize, SpecError> {
    Ok(req_u64(map, key)? as usize)
}

fn opt_f64(map: &BTreeMap<String, Value>, key: &str, default: f64) -> Result<f64, SpecError> {
    match map.get(key) {
        Some(v) => as_f64(v, key),
        None => Ok(default),
    }
}

fn pid_list(v: &Value, what: &str) -> Result<Vec<usize>, SpecError> {
    as_array(v, what)?
        .iter()
        .map(|item| Ok(as_u64(item, what)? as usize))
        .collect()
}

fn check_pid(n: usize, pid: usize, what: &str) -> Result<(), SpecError> {
    if pid >= n {
        Err(SpecError::new(format!(
            "{what} {pid} out of range for n = {n}"
        )))
    } else {
        Ok(())
    }
}

fn check_probability(p: f64, what: &str) -> Result<(), SpecError> {
    if (0.0..=1.0).contains(&p) {
        Ok(())
    } else {
        Err(SpecError::new(format!("{what} {p} not in [0, 1]")))
    }
}

fn check_loss(loss: &LossModel) -> Result<(), SpecError> {
    match loss {
        LossModel::None | LossModel::Always => Ok(()),
        LossModel::Bernoulli { p } | LossModel::BoundedBernoulli { p, .. } => {
            check_probability(*p, "loss probability")
        }
        LossModel::Burst {
            p_enter,
            p_exit,
            p_loss,
        } => {
            check_probability(*p_enter, "burst p_enter")?;
            check_probability(*p_exit, "burst p_exit")?;
            check_probability(*p_loss, "burst p_loss")
        }
    }
}

fn decode_loss(v: &Value) -> Result<LossModel, SpecError> {
    if let Some(s) = v.as_str() {
        return match s {
            "none" => Ok(LossModel::None),
            "always" => Ok(LossModel::Always),
            other => Err(SpecError::new(format!(
                "loss {other:?} needs a table form (only \"none\" and \"always\" are bare)"
            ))),
        };
    }
    let map = as_table(v, "loss")?;
    let model = req_str(map, "model")?;
    match model.as_str() {
        "none" => {
            check_keys(map, &["model"], "loss")?;
            Ok(LossModel::None)
        }
        "always" => {
            check_keys(map, &["model"], "loss")?;
            Ok(LossModel::Always)
        }
        "bernoulli" => {
            check_keys(map, &["model", "p"], "loss")?;
            Ok(LossModel::Bernoulli {
                p: as_f64(
                    map.get("p")
                        .ok_or_else(|| SpecError::new("bernoulli loss needs `p`"))?,
                    "p",
                )?,
            })
        }
        "bounded-bernoulli" => {
            check_keys(map, &["model", "p", "max_consecutive"], "loss")?;
            Ok(LossModel::BoundedBernoulli {
                p: opt_f64(map, "p", 0.0)?,
                max_consecutive: fit_u32(req_u64(map, "max_consecutive")?, "loss.max_consecutive")?,
            })
        }
        "burst" => {
            check_keys(map, &["model", "p_enter", "p_exit", "p_loss"], "loss")?;
            Ok(LossModel::Burst {
                p_enter: opt_f64(map, "p_enter", 0.0)?,
                p_exit: opt_f64(map, "p_exit", 1.0)?,
                p_loss: opt_f64(map, "p_loss", 0.0)?,
            })
        }
        other => Err(SpecError::new(format!(
            "unknown loss model {other:?} (none | bernoulli | bounded-bernoulli | burst | always)"
        ))),
    }
}

fn encode_loss(loss: &LossModel) -> String {
    match loss {
        LossModel::None => "{ model = \"none\" }".into(),
        LossModel::Always => "{ model = \"always\" }".into(),
        LossModel::Bernoulli { p } => format!("{{ model = \"bernoulli\", p = {p:?} }}"),
        LossModel::BoundedBernoulli { p, max_consecutive } => format!(
            "{{ model = \"bounded-bernoulli\", p = {p:?}, max_consecutive = {max_consecutive} }}"
        ),
        LossModel::Burst {
            p_enter,
            p_exit,
            p_loss,
        } => format!(
            "{{ model = \"burst\", p_enter = {p_enter:?}, p_exit = {p_exit:?}, p_loss = {p_loss:?} }}"
        ),
    }
}

fn decode_delay(v: &Value) -> Result<DelayModel, SpecError> {
    let map = as_table(v, "delay")?;
    let model = req_str(map, "model")?;
    match model.as_str() {
        "constant" => {
            check_keys(map, &["model", "ticks"], "delay")?;
            Ok(DelayModel::Constant(req_u64(map, "ticks")?))
        }
        "uniform" => {
            check_keys(map, &["model", "min", "max"], "delay")?;
            let min = req_u64(map, "min")?;
            let max = req_u64(map, "max")?;
            if max < min {
                return Err(SpecError::new(format!(
                    "uniform delay max {max} below min {min}"
                )));
            }
            Ok(DelayModel::Uniform { min, max })
        }
        "geometric" => {
            check_keys(map, &["model", "base", "p_more", "cap"], "delay")?;
            let p_more = opt_f64(map, "p_more", 0.0)?;
            if !(0.0..1.0).contains(&p_more) {
                return Err(SpecError::new(format!(
                    "geometric delay p_more {p_more} not in [0, 1)"
                )));
            }
            Ok(DelayModel::GeometricTail {
                base: opt_u64(map, "base", 1)?,
                p_more,
                cap: req_u64(map, "cap")?,
            })
        }
        other => Err(SpecError::new(format!(
            "unknown delay model {other:?} (constant | uniform | geometric)"
        ))),
    }
}

fn encode_delay(delay: &DelayModel) -> String {
    match delay {
        DelayModel::Constant(t) => format!("{{ model = \"constant\", ticks = {t} }}"),
        DelayModel::Uniform { min, max } => {
            format!("{{ model = \"uniform\", min = {min}, max = {max} }}")
        }
        DelayModel::GeometricTail { base, p_more, cap } => {
            format!("{{ model = \"geometric\", base = {base}, p_more = {p_more:?}, cap = {cap} }}")
        }
    }
}

fn decode_fd(v: &Value) -> Result<FdKind, SpecError> {
    let map = as_table(v, "fd")?;
    let kind = req_str(map, "kind")?;
    match kind.as_str() {
        "none" => {
            check_keys(map, &["kind"], "fd")?;
            Ok(FdKind::None)
        }
        "oracle" => {
            check_keys(
                map,
                &[
                    "kind",
                    "appearance_spread",
                    "theta_removal_delay",
                    "pstar_removal_delay",
                    "pstar_ready_slack",
                    "faulty_knowledge",
                ],
                "fd",
            )?;
            let d = OracleConfig::default();
            Ok(FdKind::Oracle(OracleConfig {
                appearance_spread: opt_u64(map, "appearance_spread", d.appearance_spread)?,
                theta_removal_delay: opt_u64(map, "theta_removal_delay", d.theta_removal_delay)?,
                pstar_removal_delay: opt_u64(map, "pstar_removal_delay", d.pstar_removal_delay)?,
                pstar_ready_slack: opt_u64(map, "pstar_ready_slack", d.pstar_ready_slack)?,
                faulty_knowledge: match map.get("faulty_knowledge") {
                    Some(v) => as_bool(v, "faulty_knowledge")?,
                    None => d.faulty_knowledge,
                },
            }))
        }
        "heartbeat" => {
            check_keys(map, &["kind", "period", "timeout"], "fd")?;
            let d = HeartbeatConfig::default();
            Ok(FdKind::Heartbeat(HeartbeatConfig {
                period: opt_u64(map, "period", d.period)?,
                timeout: opt_u64(map, "timeout", d.timeout)?,
            }))
        }
        other => Err(SpecError::new(format!(
            "unknown fd kind {other:?} (none | oracle | heartbeat)"
        ))),
    }
}

fn encode_fd(fd: &FdKind) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "\n[fd]");
    match fd {
        FdKind::None => {
            let _ = writeln!(s, "kind = \"none\"");
        }
        FdKind::Oracle(c) => {
            let _ = writeln!(s, "kind = \"oracle\"");
            let _ = writeln!(s, "appearance_spread = {}", c.appearance_spread);
            let _ = writeln!(s, "theta_removal_delay = {}", c.theta_removal_delay);
            let _ = writeln!(s, "pstar_removal_delay = {}", c.pstar_removal_delay);
            let _ = writeln!(s, "pstar_ready_slack = {}", c.pstar_ready_slack);
            let _ = writeln!(s, "faulty_knowledge = {}", c.faulty_knowledge);
        }
        FdKind::Heartbeat(c) => {
            let _ = writeln!(s, "kind = \"heartbeat\"");
            let _ = writeln!(s, "period = {}", c.period);
            let _ = writeln!(s, "timeout = {}", c.timeout);
        }
    }
    s
}

fn decode_link(v: &Value) -> Result<LinkSpec, SpecError> {
    let map = as_table(v, "link")?;
    check_keys(map, &["from", "to", "loss", "delay"], "link")?;
    Ok(LinkSpec {
        from: req_usize(map, "from")?,
        to: req_usize(map, "to")?,
        loss: map.get("loss").map(decode_loss).transpose()?,
        delay: map.get("delay").map(decode_delay).transpose()?,
    })
}

fn decode_blackout(v: &Value) -> Result<Blackout, SpecError> {
    let map = as_table(v, "blackout")?;
    check_keys(map, &["from", "to", "start", "end"], "blackout")?;
    Ok(Blackout {
        from: req_usize(map, "from")?,
        to: req_usize(map, "to")?,
        start: req_u64(map, "start")?,
        end: req_u64(map, "end")?,
    })
}

fn decode_workload(v: &Value) -> Result<WorkloadSpec, SpecError> {
    // `[[workload]]` array form: one generated stream per topic.
    if let Some(items) = v.as_array() {
        let list = items
            .iter()
            .map(|item| {
                let map = as_table(item, "workload")?;
                check_keys(map, &["topic", "count", "spacing", "start"], "workload")?;
                Ok(TopicWorkload {
                    topic: fit_u32(opt_u64(map, "topic", 0)?, "workload.topic")?,
                    count: req_usize(map, "count")?,
                    spacing: opt_u64(map, "spacing", 100)?,
                    start: opt_u64(map, "start", 10)?,
                })
            })
            .collect::<Result<Vec<_>, SpecError>>()?;
        if list.is_empty() {
            return Err(SpecError::new("[[workload]] must not be empty"));
        }
        return Ok(WorkloadSpec::PerTopic(list));
    }
    let map = as_table(v, "workload")?;
    check_keys(map, &["count", "spacing", "start", "explicit"], "workload")?;
    if let Some(list) = map.get("explicit") {
        if map.contains_key("count") {
            return Err(SpecError::new(
                "workload has both `count` and `explicit` — pick one form",
            ));
        }
        let list = as_array(list, "workload.explicit")?
            .iter()
            .map(|item| {
                let map = as_table(item, "workload.explicit")?;
                check_keys(
                    map,
                    &["time", "pid", "topic", "payload"],
                    "workload.explicit",
                )?;
                Ok(BroadcastSpec {
                    time: req_u64(map, "time")?,
                    pid: req_usize(map, "pid")?,
                    topic: fit_u32(opt_u64(map, "topic", 0)?, "workload.explicit.topic")?,
                    payload: req_str(map, "payload")?,
                })
            })
            .collect::<Result<Vec<_>, SpecError>>()?;
        if list.is_empty() {
            return Err(SpecError::new("workload.explicit must not be empty"));
        }
        return Ok(WorkloadSpec::Explicit(list));
    }
    Ok(WorkloadSpec::Generated {
        count: req_usize(map, "count")?,
        spacing: opt_u64(map, "spacing", 100)?,
        start: opt_u64(map, "start", 10)?,
    })
}

fn decode_crash(v: &Value) -> Result<CrashRuleSpec, SpecError> {
    let map = as_table(v, "crash")?;
    check_keys(
        map,
        &["pid", "at", "on_first_delivery", "delay", "never"],
        "crash",
    )?;
    let pid = req_usize(map, "pid")?;
    let on_first = match map.get("on_first_delivery") {
        Some(v) => as_bool(v, "on_first_delivery")?,
        None => false,
    };
    let never = match map.get("never") {
        Some(v) => as_bool(v, "never")?,
        None => false,
    };
    // The three forms are mutually exclusive: a spec that says both would
    // otherwise run a *different* adversary than one of its lines claims.
    let forms = usize::from(on_first) + usize::from(never) + usize::from(map.contains_key("at"));
    if forms != 1 {
        return Err(SpecError::new(format!(
            "crash entry for pid {pid} needs exactly one of `at`, \
             `on_first_delivery = true` or `never = true`"
        )));
    }
    if map.contains_key("delay") && !on_first {
        return Err(SpecError::new(format!(
            "crash entry for pid {pid}: `delay` only applies to `on_first_delivery`"
        )));
    }
    let rule = if on_first {
        CrashRule::OnFirstDelivery {
            delay: opt_u64(map, "delay", 0)?,
        }
    } else if never {
        CrashRule::Never
    } else {
        CrashRule::At(req_u64(map, "at")?)
    };
    Ok(CrashRuleSpec { pid, rule })
}

fn decode_crash_random(v: &Value) -> Result<RandomCrashSpec, SpecError> {
    let map = as_table(v, "crash_random")?;
    check_keys(map, &["count", "horizon", "protect"], "crash_random")?;
    Ok(RandomCrashSpec {
        count: req_usize(map, "count")?,
        horizon: opt_u64(map, "horizon", 400)?,
        protect: map
            .get("protect")
            .map(|v| Ok::<usize, SpecError>(as_u64(v, "protect")? as usize))
            .transpose()?,
    })
}

fn decode_schedule(v: &Value) -> Result<Schedule, SpecError> {
    let map = as_table(v, "schedule")?;
    let kind = req_str(map, "kind")?;
    match kind.as_str() {
        "partition-heal" => {
            check_keys(map, &["kind", "a", "b", "start", "end"], "schedule")?;
            Ok(Schedule::PartitionHeal {
                a: pid_list(
                    map.get("a")
                        .ok_or_else(|| SpecError::new("partition-heal needs `a`"))?,
                    "a",
                )?,
                b: pid_list(
                    map.get("b")
                        .ok_or_else(|| SpecError::new("partition-heal needs `b`"))?,
                    "b",
                )?,
                start: opt_u64(map, "start", 0)?,
                end: req_u64(map, "end")?,
            })
        }
        "ack-starvation" => {
            check_keys(map, &["kind", "victim", "start", "end"], "schedule")?;
            Ok(Schedule::AckStarvation {
                victim: req_usize(map, "victim")?,
                start: opt_u64(map, "start", 0)?,
                end: req_u64(map, "end")?,
            })
        }
        "targeted-delay" => {
            check_keys(map, &["kind", "links", "base", "p_more", "cap"], "schedule")?;
            let links = as_array(
                map.get("links")
                    .ok_or_else(|| SpecError::new("targeted-delay needs `links`"))?,
                "links",
            )?
            .iter()
            .map(|pair| {
                let pair = as_array(pair, "links entry")?;
                if pair.len() != 2 {
                    return Err(SpecError::new("each links entry must be [from, to]"));
                }
                Ok((
                    as_u64(&pair[0], "links.from")? as usize,
                    as_u64(&pair[1], "links.to")? as usize,
                ))
            })
            .collect::<Result<Vec<_>, SpecError>>()?;
            Ok(Schedule::TargetedDelay {
                links,
                base: opt_u64(map, "base", 1)?,
                p_more: opt_f64(map, "p_more", 0.5)?,
                cap: req_u64(map, "cap")?,
            })
        }
        "crash-storm" => {
            check_keys(
                map,
                &["kind", "count", "start", "width", "protect"],
                "schedule",
            )?;
            Ok(Schedule::CrashStorm {
                count: req_usize(map, "count")?,
                start: opt_u64(map, "start", 0)?,
                width: opt_u64(map, "width", 0)?,
                protect: map
                    .get("protect")
                    .map(|v| Ok::<usize, SpecError>(as_u64(v, "protect")? as usize))
                    .transpose()?,
            })
        }
        "churn" => {
            check_keys(
                map,
                &["kind", "a", "b", "start", "cut", "heal", "cycles"],
                "schedule",
            )?;
            Ok(Schedule::Churn {
                a: pid_list(
                    map.get("a")
                        .ok_or_else(|| SpecError::new("churn needs `a`"))?,
                    "a",
                )?,
                b: pid_list(
                    map.get("b")
                        .ok_or_else(|| SpecError::new("churn needs `b`"))?,
                    "b",
                )?,
                start: opt_u64(map, "start", 0)?,
                cut: req_u64(map, "cut")?,
                heal: req_u64(map, "heal")?,
                cycles: fit_u32(req_u64(map, "cycles")?, "schedule.cycles")?,
            })
        }
        other => Err(SpecError::new(format!(
            "unknown schedule kind {other:?} (partition-heal | ack-starvation | \
             targeted-delay | crash-storm | churn)"
        ))),
    }
}

fn encode_schedule(s: &Schedule) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "\n[[schedule]]");
    let _ = writeln!(out, "kind = {}", toml_str(s.kind()));
    let list = |v: &[usize]| -> String {
        let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
        format!("[{}]", items.join(", "))
    };
    match s {
        Schedule::PartitionHeal { a, b, start, end } => {
            let _ = writeln!(out, "a = {}", list(a));
            let _ = writeln!(out, "b = {}", list(b));
            let _ = writeln!(out, "start = {start}");
            let _ = writeln!(out, "end = {end}");
        }
        Schedule::AckStarvation { victim, start, end } => {
            let _ = writeln!(out, "victim = {victim}");
            let _ = writeln!(out, "start = {start}");
            let _ = writeln!(out, "end = {end}");
        }
        Schedule::TargetedDelay {
            links,
            base,
            p_more,
            cap,
        } => {
            let pairs: Vec<String> = links.iter().map(|(f, t)| format!("[{f}, {t}]")).collect();
            let _ = writeln!(out, "links = [{}]", pairs.join(", "));
            let _ = writeln!(out, "base = {base}");
            let _ = writeln!(out, "p_more = {p_more:?}");
            let _ = writeln!(out, "cap = {cap}");
        }
        Schedule::CrashStorm {
            count,
            start,
            width,
            protect,
        } => {
            let _ = writeln!(out, "count = {count}");
            let _ = writeln!(out, "start = {start}");
            let _ = writeln!(out, "width = {width}");
            if let Some(p) = protect {
                let _ = writeln!(out, "protect = {p}");
            }
        }
        Schedule::Churn {
            a,
            b,
            start,
            cut,
            heal,
            cycles,
        } => {
            let _ = writeln!(out, "a = {}", list(a));
            let _ = writeln!(out, "b = {}", list(b));
            let _ = writeln!(out, "start = {start}");
            let _ = writeln!(out, "cut = {cut}");
            let _ = writeln!(out, "heal = {heal}");
            let _ = writeln!(out, "cycles = {cycles}");
        }
    }
    out
}

fn decode_topic_event(v: &Value) -> Result<TopicEventCfg, SpecError> {
    let map = as_table(v, "topics.events")?;
    check_keys(
        map,
        &["at", "create", "retire", "algorithm"],
        "topics.events",
    )?;
    let time = req_u64(map, "at")?;
    let topic = |v: &Value, key: &str| Ok::<_, SpecError>(TopicId(fit_u32(as_u64(v, key)?, key)?));
    let action = match (map.get("create"), map.get("retire")) {
        (Some(c), None) => TopicAction::Create {
            topic: topic(c, "topics.events.create")?,
            algorithm: map
                .get("algorithm")
                .map(|a| parse_algorithm(as_str(a, "topics.events.algorithm")?))
                .transpose()?,
        },
        (None, Some(r)) => {
            if map.contains_key("algorithm") {
                return Err(SpecError::new(
                    "topics.events: `algorithm` only applies to `create` entries",
                ));
            }
            TopicAction::Retire {
                topic: topic(r, "topics.events.retire")?,
            }
        }
        _ => {
            return Err(SpecError::new(
                "topics.events entry needs exactly one of `create` / `retire`",
            ))
        }
    };
    Ok(TopicEventCfg { time, action })
}

fn decode_expect(v: &Value) -> Result<Expectations, SpecError> {
    let map = as_table(v, "expect")?;
    check_keys(
        map,
        &[
            "all_ok",
            "validity",
            "agreement",
            "integrity",
            "quiescent",
            "min_deliveries",
            "topics_all_ok",
            "min_deliveries_per_topic",
            "min_reclaimed_topics",
        ],
        "expect",
    )?;
    let get_bool = |key: &str| -> Result<Option<bool>, SpecError> {
        map.get(key).map(|v| as_bool(v, key)).transpose()
    };
    Ok(Expectations {
        all_ok: get_bool("all_ok")?,
        validity: get_bool("validity")?,
        agreement: get_bool("agreement")?,
        integrity: get_bool("integrity")?,
        quiescent: get_bool("quiescent")?,
        topics_all_ok: get_bool("topics_all_ok")?,
        min_deliveries: map
            .get("min_deliveries")
            .map(|v| Ok::<usize, SpecError>(as_u64(v, "min_deliveries")? as usize))
            .transpose()?,
        min_deliveries_per_topic: map
            .get("min_deliveries_per_topic")
            .map(|v| Ok::<usize, SpecError>(as_u64(v, "min_deliveries_per_topic")? as usize))
            .transpose()?,
        min_reclaimed_topics: map
            .get("min_reclaimed_topics")
            .map(|v| as_u64(v, "min_reclaimed_topics"))
            .transpose()?,
    })
}

fn decode_check(v: &Value) -> Result<CheckBounds, SpecError> {
    let map = as_table(v, "check")?;
    check_keys(
        map,
        &[
            "depth",
            "max_drops",
            "tick_budget",
            "delay_budget",
            "walks",
            "strategy",
        ],
        "check",
    )?;
    let d = CheckBounds::default();
    let strategy = match map.get("strategy") {
        Some(v) => {
            let s = as_str(v, "strategy")?;
            if !matches!(s, "dfs" | "dpor-lite" | "random") {
                return Err(SpecError::new(format!(
                    "unknown check strategy {s:?} (dfs | dpor-lite | random)"
                )));
            }
            Some(s.to_string())
        }
        None => None,
    };
    let bounds = CheckBounds {
        depth: fit_u32(opt_u64(map, "depth", d.depth.into())?, "check.depth")?,
        max_drops: fit_u32(
            opt_u64(map, "max_drops", d.max_drops.into())?,
            "check.max_drops",
        )?,
        tick_budget: fit_u32(
            opt_u64(map, "tick_budget", d.tick_budget.into())?,
            "check.tick_budget",
        )?,
        delay_budget: fit_u32(
            opt_u64(map, "delay_budget", d.delay_budget.into())?,
            "check.delay_budget",
        )?,
        walks: fit_u32(opt_u64(map, "walks", d.walks.into())?, "check.walks")?,
        strategy,
    };
    if bounds.depth == 0 {
        return Err(SpecError::new("check.depth must be positive"));
    }
    if bounds.walks == 0 {
        return Err(SpecError::new("check.walks must be positive"));
    }
    Ok(bounds)
}

fn decode_memory(v: &Value) -> Result<MemoryConfig, SpecError> {
    let map = as_table(v, "memory")?;
    check_keys(
        map,
        &[
            "grace_ticks",
            "conservative",
            "tombstones",
            "ceiling",
            "spill",
        ],
        "memory",
    )?;
    let d = MemoryConfig::default();
    let spill = match map.get("spill") {
        Some(v) => match as_str(v, "spill")? {
            "stable-only" => SpillPolicy::StableOnly,
            "tombstones" => SpillPolicy::Tombstones,
            other => {
                return Err(SpecError::new(format!(
                    "unknown memory spill policy {other:?} (stable-only | tombstones)"
                )))
            }
        },
        None => d.spill,
    };
    Ok(MemoryConfig {
        grace_ticks: fit_u32(
            opt_u64(map, "grace_ticks", d.grace_ticks.into())?,
            "memory.grace_ticks",
        )?,
        conservative: match map.get("conservative") {
            Some(v) => as_bool(v, "memory.conservative")?,
            None => d.conservative,
        },
        tombstones: opt_u64(map, "tombstones", d.tombstones as u64)? as usize,
        ceiling: match map.get("ceiling") {
            Some(v) => Some(as_u64(v, "memory.ceiling")? as usize),
            None => None,
        },
        spill,
    })
}

fn toml_str(s: &str) -> String {
    format!("\"{}\"", serde_json::escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run;

    #[test]
    fn minimal_toml_spec_gets_defaults() {
        let spec = ScenarioSpec::from_toml_str("name = \"tiny\"\nn = 4\n").unwrap();
        assert_eq!(spec.name, "tiny");
        assert_eq!(spec.n, 4);
        assert_eq!(spec.algorithm, Algorithm::Quiescent);
        assert_eq!(spec.stop, StopRule::Quiescence);
        assert_eq!(spec.loss, LossModel::None);
        assert!(spec.expect.is_unconstrained());
        let (out, fails) = spec.run().unwrap();
        assert!(fails.is_empty(), "{fails:?}");
        assert!(out.all_ok());
    }

    #[test]
    fn unknown_keys_are_rejected_everywhere() {
        for bad in [
            "name = \"x\"\nn = 4\ntypo = 1\n",
            "name = \"x\"\nn = 4\nloss = { model = \"bernoulli\", prob = 0.2 }\n",
            "name = \"x\"\nn = 4\n[expect]\nall_okay = true\n",
            "name = \"x\"\nn = 4\n[[schedule]]\nkind = \"churn\"\na = [0]\nb = [1]\ncut = 5\nheal = 5\ncycles = 1\nwat = 2\n",
        ] {
            let err = ScenarioSpec::from_toml_str(bad).unwrap_err();
            assert!(err.message.contains("unknown key"), "{err}");
        }
    }

    #[test]
    fn json_and_toml_decode_identically() {
        let toml = "name = \"pair\"\nn = 5\nalgorithm = \"majority\"\n\
                    loss = { model = \"bernoulli\", p = 0.25 }\nstop = \"full-delivery\"\n";
        let json = r#"{
            "name": "pair", "n": 5, "algorithm": "majority",
            "loss": {"model": "bernoulli", "p": 0.25}, "stop": "full-delivery"
        }"#;
        assert_eq!(
            ScenarioSpec::from_toml_str(toml).unwrap(),
            ScenarioSpec::from_json_str(json).unwrap()
        );
        assert_eq!(
            ScenarioSpec::from_named_str("x.json", json).unwrap(),
            ScenarioSpec::from_named_str("x.toml", toml).unwrap()
        );
    }

    #[test]
    fn to_toml_round_trips_a_kitchen_sink_spec() {
        let mut spec = ScenarioSpec::new("sink", 8, Algorithm::MajorityBackoff { cap: 16 });
        spec.description = "every field exercised \"quoted\"\nsecond line".into();
        spec.seed = 77;
        spec.horizon = 44_000;
        spec.stats_interval = 250;
        spec.stop = StopRule::FullDelivery;
        spec.loss = LossModel::Burst {
            p_enter: 0.02,
            p_exit: 0.2,
            p_loss: 0.9,
        };
        spec.delay = DelayModel::GeometricTail {
            base: 2,
            p_more: 0.5,
            cap: 30,
        };
        spec.fd = Some(FdKind::Heartbeat(HeartbeatConfig {
            period: 25,
            timeout: 150,
        }));
        spec.links = vec![LinkSpec {
            from: 0,
            to: 3,
            loss: Some(LossModel::Always),
            delay: Some(DelayModel::Constant(9)),
        }];
        spec.blackouts = vec![Blackout {
            from: 1,
            to: 2,
            start: 5,
            end: 500,
        }];
        spec.workload = WorkloadSpec::Explicit(vec![BroadcastSpec {
            time: 10,
            pid: 1,
            topic: 0,
            payload: "hello \"world\"".into(),
        }]);
        spec.crashes = vec![
            CrashRuleSpec {
                pid: 6,
                rule: CrashRule::At(900),
            },
            CrashRuleSpec {
                pid: 7,
                rule: CrashRule::OnFirstDelivery { delay: 3 },
            },
            CrashRuleSpec {
                pid: 5,
                rule: CrashRule::Never,
            },
        ];
        spec.crash_random = Some(RandomCrashSpec {
            count: 1,
            horizon: 300,
            protect: Some(1),
        });
        spec.schedules = vec![
            Schedule::Churn {
                a: vec![0, 1, 2, 3],
                b: vec![4, 5, 6, 7],
                start: 50,
                cut: 200,
                heal: 400,
                cycles: 2,
            },
            Schedule::TargetedDelay {
                links: vec![(0, 4), (0, 5)],
                base: 1,
                p_more: 0.7,
                cap: 60,
            },
        ];
        spec.expect = Expectations {
            all_ok: Some(true),
            min_deliveries: Some(4),
            ..Expectations::default()
        };
        spec.check = CheckBounds {
            depth: 40,
            max_drops: 5,
            tick_budget: 2,
            delay_budget: 7,
            walks: 9,
            strategy: Some("dpor-lite".into()),
        };
        let toml = spec.to_toml();
        let parsed = ScenarioSpec::from_toml_str(&toml).unwrap();
        assert_eq!(parsed, spec, "round trip through:\n{toml}");
    }

    #[test]
    fn compile_validates_cross_field_constraints() {
        let base = "name = \"v\"\nn = 4\n";
        for (snippet, needle) in [
            ("[[crash]]\npid = 9\nat = 5\n", "out of range"),
            (
                "[[crash]]\npid = 0\nat = 1\n[[crash]]\npid = 1\nat = 1\n\
                 [[crash]]\npid = 2\nat = 1\n[[crash]]\npid = 3\nat = 1\n",
                "no correct process",
            ),
            ("[crash_random]\ncount = 4\n", "no correct process"),
            ("[[link]]\nfrom = 0\nto = 1\n", "neither loss nor delay"),
            (
                "[[blackout]]\nfrom = 0\nto = 1\nstart = 9\nend = 9\n",
                "never opens",
            ),
            (
                "[[schedule]]\nkind = \"ack-starvation\"\nvictim = 8\nend = 10\n",
                "out of range",
            ),
            (
                "loss = { model = \"bernoulli\", p = 1.5 }\n",
                "not in [0, 1]",
            ),
        ] {
            let spec = ScenarioSpec::from_toml_str(&format!("{base}{snippet}")).unwrap();
            let err = spec.compile().unwrap_err();
            assert!(err.message.contains(needle), "{snippet:?} → {err}");
        }
    }

    #[test]
    fn crash_entry_forms_are_mutually_exclusive() {
        let base = "name = \"x\"\nn = 4\n";
        for bad in [
            "[[crash]]\npid = 1\non_first_delivery = true\nat = 5\n",
            "[[crash]]\npid = 1\nnever = true\nat = 5\n",
            "[[crash]]\npid = 1\n",
            "[[crash]]\npid = 1\nat = 5\ndelay = 2\n",
        ] {
            let err = ScenarioSpec::from_toml_str(&format!("{base}{bad}")).unwrap_err();
            assert!(err.message.contains("crash entry"), "{bad:?} → {err}");
        }
        // `never = true` exempts a pid from the random adversary's draw.
        let spec = ScenarioSpec::from_toml_str(
            "name = \"x\"\nn = 4\n[crash_random]\ncount = 3\nhorizon = 100\n\
             [[crash]]\npid = 2\nnever = true\n",
        )
        .unwrap();
        let cfg = spec.compile().unwrap();
        assert_eq!(cfg.crashes.rule(2), CrashRule::Never);
    }

    #[test]
    fn check_bounds_decode_validate_and_default() {
        let spec = ScenarioSpec::from_toml_str(
            "name = \"c\"\nn = 4\n[check]\ndepth = 30\nstrategy = \"random\"\n",
        )
        .unwrap();
        assert_eq!(spec.check.depth, 30);
        assert_eq!(spec.check.strategy.as_deref(), Some("random"));
        assert_eq!(
            spec.check.max_drops,
            CheckBounds::default().max_drops,
            "unset keys keep library defaults"
        );
        let plain = ScenarioSpec::from_toml_str("name = \"c\"\nn = 4\n").unwrap();
        assert_eq!(plain.check, CheckBounds::default());
        assert!(
            !plain.to_toml().contains("[check]"),
            "default bounds stay implicit"
        );
        for (bad, needle) in [
            ("[check]\ndepth = 0\n", "depth must be positive"),
            ("[check]\nwalks = 0\n", "walks must be positive"),
            ("[check]\nstrategy = \"bfs\"\n", "unknown check strategy"),
            ("[check]\nwat = 1\n", "unknown key"),
        ] {
            let err =
                ScenarioSpec::from_toml_str(&format!("name = \"c\"\nn = 4\n{bad}")).unwrap_err();
            assert!(err.message.contains(needle), "{bad:?} → {err}");
        }
    }

    #[test]
    fn topics_table_and_per_topic_workloads_decode_and_run() {
        let spec = ScenarioSpec::from_toml_str(
            "name = \"twotopics\"\nn = 4\nalgorithm = \"majority\"\nstop = \"full-delivery\"\n\
             [topics]\ncount = 2\n\
             [[workload]]\ntopic = 0\ncount = 2\nspacing = 50\nstart = 10\n\
             [[workload]]\ntopic = 1\ncount = 1\nspacing = 50\nstart = 30\n\
             [expect]\ntopics_all_ok = true\nmin_deliveries_per_topic = 4\n",
        )
        .unwrap();
        assert_eq!(spec.topics, 2);
        match &spec.workload {
            WorkloadSpec::PerTopic(list) => {
                assert_eq!(list.len(), 2);
                assert_eq!(list[0].topic, 0);
                assert_eq!(list[1].count, 1);
            }
            other => panic!("wrong workload form: {other:?}"),
        }
        let cfg = spec.compile().unwrap();
        assert_eq!(cfg.topics, 2);
        assert_eq!(cfg.broadcasts.len(), 3);
        let (out, fails) = spec.run().unwrap();
        assert!(fails.is_empty(), "{fails:?}");
        assert_eq!(out.per_topic.len(), 2);
        assert!(out.all_topics_ok());
        // Round trip: the emitted TOML re-parses to the same spec.
        let parsed = ScenarioSpec::from_toml_str(&spec.to_toml()).unwrap();
        assert_eq!(parsed, spec, "round trip through:\n{}", spec.to_toml());
    }

    #[test]
    fn explicit_workload_entries_may_name_topics() {
        let spec = ScenarioSpec::from_toml_str(
            "name = \"xt\"\nn = 2\nalgorithm = \"majority\"\n[topics]\ncount = 3\n\
             [[workload.explicit]]\ntime = 10\npid = 0\ntopic = 2\npayload = \"late\"\n\
             [[workload.explicit]]\ntime = 5\npid = 1\npayload = \"default-topic\"\n",
        )
        .unwrap();
        let cfg = spec.compile().unwrap();
        assert_eq!(cfg.broadcasts[0].topic, urb_types::TopicId(2));
        assert_eq!(cfg.broadcasts[1].topic, urb_types::TopicId(0));
        let parsed = ScenarioSpec::from_toml_str(&spec.to_toml()).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn topic_validation_rejects_out_of_range_and_zero() {
        for (toml, needle) in [
            (
                "name = \"v\"\nn = 2\n[topics]\ncount = 2\n\
                 [[workload]]\ntopic = 5\ncount = 1\n",
                "out of range",
            ),
            (
                "name = \"v\"\nn = 2\n\
                 [[workload.explicit]]\ntime = 1\npid = 0\ntopic = 1\npayload = \"x\"\n",
                "out of range",
            ),
            ("name = \"v\"\nn = 2\n[topics]\ncount = 0\n", "positive"),
            ("name = \"v\"\nn = 2\n[topics]\nwat = 1\n", "unknown key"),
        ] {
            let err = ScenarioSpec::from_toml_str(toml)
                .and_then(|s| s.compile().map(|_| ()))
                .unwrap_err();
            assert!(err.message.contains(needle), "{toml:?} → {err}");
        }
    }

    #[test]
    fn topic_lifecycle_events_decode_compile_and_round_trip() {
        let spec = ScenarioSpec::from_toml_str(
            "name = \"dyn\"\nn = 4\nalgorithm = \"quiescent\"\n\
             [topics]\ncount = 1\ndrain_ticks = 8\n\
             [[topics.events]]\nat = 100\ncreate = 1\nalgorithm = \"majority\"\n\
             [[topics.events]]\nat = 200\ncreate = 2\n\
             [[topics.events]]\nat = 900\nretire = 1\n\
             [[workload.explicit]]\ntime = 150\npid = 0\ntopic = 1\npayload = \"d\"\n\
             [expect]\nmin_reclaimed_topics = 4\n",
        )
        .unwrap();
        assert_eq!(spec.drain_ticks, Some(8));
        assert_eq!(spec.expect.min_reclaimed_topics, Some(4));
        assert_eq!(spec.topic_events.len(), 3);
        assert_eq!(
            spec.topic_events[0],
            TopicEventCfg {
                time: 100,
                action: TopicAction::Create {
                    topic: TopicId(1),
                    algorithm: Some(Algorithm::Majority),
                },
            }
        );
        assert_eq!(
            spec.topic_events[1].action,
            TopicAction::Create {
                topic: TopicId(2),
                algorithm: None,
            },
            "omitted algorithm inherits the run's"
        );
        assert_eq!(
            spec.topic_events[2].action,
            TopicAction::Retire { topic: TopicId(1) }
        );
        let cfg = spec.compile().unwrap();
        assert_eq!(cfg.topic_events.len(), 3);
        assert_eq!(cfg.drain_ticks, 8);
        assert_eq!(cfg.broadcasts[0].topic, urb_types::TopicId(1));
        // Round trip: the emitted TOML re-parses to the same spec.
        let parsed = ScenarioSpec::from_toml_str(&spec.to_toml()).unwrap();
        assert_eq!(parsed, spec, "round trip through:\n{}", spec.to_toml());
    }

    #[test]
    fn u32_keys_past_u32_max_are_errors_naming_the_key() {
        // Each key decodes into a u32 field. One past u32::MAX (or a value
        // that would wrap to a valid id) is a spec error naming the key,
        // never the value it wraps to.
        let base = "name = \"w\"\nn = 2\n";
        let big = "4294967298"; // (1 << 32) + 2: wraps to 2
        for (body, key) in [
            (format!("[topics]\ncount = {big}\n"), "topics.count"),
            (
                format!("[topics]\ncount = 1\ndrain_ticks = {big}\n"),
                "topics.drain_ticks",
            ),
            (
                format!(
                    "loss = {{ model = \"bounded-bernoulli\", p = 0.1, \
                     max_consecutive = {big} }}\n"
                ),
                "loss.max_consecutive",
            ),
            (
                format!("[[workload]]\ntopic = {big}\ncount = 1\n"),
                "workload.topic",
            ),
            (
                format!(
                    "[[workload.explicit]]\ntime = 1\npid = 0\ntopic = {big}\n\
                     payload = \"x\"\n"
                ),
                "workload.explicit.topic",
            ),
            (
                format!(
                    "[[schedule]]\nkind = \"churn\"\na = [0]\nb = [1]\ncut = 1\n\
                     heal = 2\ncycles = {big}\n"
                ),
                "schedule.cycles",
            ),
            (
                format!("[topics]\ncount = 1\n[[topics.events]]\nat = 1\ncreate = {big}\n"),
                "topics.events.create",
            ),
            (
                format!("[topics]\ncount = 1\n[[topics.events]]\nat = 1\nretire = {big}\n"),
                "topics.events.retire",
            ),
            (format!("[check]\ndepth = {big}\n"), "check.depth"),
            (format!("[check]\nmax_drops = {big}\n"), "check.max_drops"),
            (
                format!("[check]\ntick_budget = {big}\n"),
                "check.tick_budget",
            ),
            (
                format!("[check]\ndelay_budget = {big}\n"),
                "check.delay_budget",
            ),
            (format!("[check]\nwalks = {big}\n"), "check.walks"),
            (
                format!("[memory]\ngrace_ticks = {big}\n"),
                "memory.grace_ticks",
            ),
        ] {
            let toml = format!("{base}{body}");
            let err = ScenarioSpec::from_toml_str(&toml).unwrap_err();
            assert!(
                err.message.contains(key) && err.message.contains("does not fit a u32"),
                "{toml:?} → {err}"
            );
        }
        // u32::MAX itself still fits.
        let spec =
            ScenarioSpec::from_toml_str(&format!("{base}[check]\nwalks = 4294967295\n")).unwrap();
        assert_eq!(spec.check.walks, u32::MAX);
    }

    #[test]
    fn topic_lifecycle_validation_rejects_inconsistent_plans() {
        // Schema errors surface at parse time.
        for (bad, needle) in [
            (
                "[[topics.events]]\nat = 1\ncreate = 1\nretire = 2\n",
                "exactly one of",
            ),
            ("[[topics.events]]\nat = 1\n", "exactly one of"),
            (
                "[[topics.events]]\nat = 1\nretire = 1\nalgorithm = \"majority\"\n",
                "only applies to `create`",
            ),
            (
                "[[topics.events]]\nat = 1\ncreate = 1\nwat = 2\n",
                "unknown key",
            ),
        ] {
            let toml = format!("name = \"v\"\nn = 2\n[topics]\ncount = 1\n{bad}");
            let err = ScenarioSpec::from_toml_str(&toml).unwrap_err();
            assert!(err.message.contains(needle), "{bad:?} → {err}");
        }
        // Plan-consistency errors surface when the live-set walk compiles.
        for (bad, needle) in [
            (
                "[[topics.events]]\nat = 5\ncreate = 0\n",
                "statically configured",
            ),
            (
                "[[topics.events]]\nat = 5\ncreate = 1\n\
                 [[topics.events]]\nat = 9\ncreate = 1\n",
                "already live",
            ),
            ("[[topics.events]]\nat = 5\nretire = 3\n", "not live"),
            (
                "[[workload.explicit]]\ntime = 1\npid = 0\ntopic = 4\npayload = \"x\"\n",
                "no [[topics.events]] create",
            ),
        ] {
            let toml = format!("name = \"v\"\nn = 2\n[topics]\ncount = 1\n{bad}");
            let err = ScenarioSpec::from_toml_str(&toml)
                .unwrap()
                .compile()
                .map(|_| ())
                .unwrap_err();
            assert!(err.message.contains(needle), "{bad:?} → {err}");
        }
        // Retire-then-recreate of the same id is a legal second generation.
        let spec = ScenarioSpec::from_toml_str(
            "name = \"v\"\nn = 2\n[topics]\ncount = 1\n\
             [[topics.events]]\nat = 5\ncreate = 1\n\
             [[topics.events]]\nat = 50\nretire = 1\n\
             [[topics.events]]\nat = 90\ncreate = 1\n",
        )
        .unwrap();
        assert!(spec.compile().is_ok());
    }

    #[test]
    fn algorithm_names_round_trip() {
        for alg in [
            Algorithm::Majority,
            Algorithm::Quiescent,
            Algorithm::QuiescentLiteral,
            Algorithm::BestEffort,
            Algorithm::EagerRb,
            Algorithm::MajorityBackoff { cap: 8 },
            Algorithm::WeakenedMajority { threshold: 3 },
        ] {
            assert_eq!(parse_algorithm(&format_algorithm(alg)).unwrap(), alg);
        }
        assert!(parse_algorithm("paxos").is_err());
        assert!(parse_algorithm("backoff:x").is_err());
    }

    #[test]
    fn expectations_can_demand_a_violation() {
        // The Theorem-2 adversary as a spec: agreement must break.
        let (name, text) = corpus()
            .into_iter()
            .find(|(name, _)| *name == "theorem2_violation")
            .unwrap();
        let spec = ScenarioSpec::from_toml_str(text).unwrap();
        assert_eq!(spec.expect.agreement, Some(false), "{name}");
        let (out, fails) = spec.run().unwrap();
        assert!(!out.report.agreement.ok(), "agreement must be violated");
        assert!(fails.is_empty(), "{fails:?}");
        // Flip the expectation: the same run now fails the scenario.
        let mut flipped = spec.clone();
        flipped.expect.agreement = Some(true);
        let (_, fails) = flipped.run().unwrap();
        assert!(!fails.is_empty());
    }

    #[test]
    fn whole_corpus_parses_compiles_and_passes() {
        for (name, text) in corpus() {
            let spec = ScenarioSpec::from_toml_str(text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.name, name, "file stem matches spec name");
            let (_, fails) = spec.run().unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(fails.is_empty(), "{name}: {fails:?}");
        }
    }

    #[test]
    fn corpus_runs_are_deterministic_per_spec() {
        let (_, text) = corpus()[2];
        let spec = ScenarioSpec::from_toml_str(text).unwrap();
        let a = run(spec.compile().unwrap());
        let b = run(spec.compile().unwrap());
        assert_eq!(a.metrics.trace_hash, b.metrics.trace_hash);
    }
}
