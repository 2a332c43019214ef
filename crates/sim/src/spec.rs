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
//! Every key of the file is declared once, in the schema module: its
//! name, type, default, range and doc line. [`ScenarioSpec::from_value`]
//! reads that table (rejecting unknown keys, so typos fail loudly, and
//! integers out of range or past `u32::MAX`), and so does
//! [`ScenarioSpec::to_toml`]. [`ScenarioSpec::compile`] checks the rules
//! that tie keys together — pid ranges, resilience bounds, probability
//! ranges, the topic lifecycle — and [`Expectations`] turn the run's
//! machine-checked URB verdict into a scenario-level pass/fail: a spec can
//! legitimately *expect* a violation (the Theorem-2 corpus entry does).
//!
//! DESIGN.md §9 lists the schema (a test keeps it in step); the shipped
//! corpus lives in `scenarios/` and is embedded here via [`corpus`] so
//! tests, experiments and examples replay it regardless of working
//! directory.

mod schema;
pub(crate) use schema::schedule_kind;

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

/// An exploration strategy of `urb check` (DESIGN.md §11), named by
/// `[check] strategy` and `--strategy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Bounded DFS with state-hash pruning.
    #[default]
    Dfs,
    /// Delay-bounded search around the canonical schedule, with the
    /// sleep-set partial-order reduction.
    DporLite,
    /// Seeded random-walk fallback.
    Random,
}

impl Strategy {
    /// CLI/spec name of the strategy.
    pub fn as_str(self) -> &'static str {
        schema::name_of(self)
    }

    /// Parses a strategy name (`dfs` | `dpor-lite` | `random`).
    pub fn parse(s: &str) -> Result<Self, String> {
        schema::lookup(s)
            .ok_or_else(|| format!("unknown strategy {s:?} ({})", schema::names::<Self>()))
    }

    /// Resolves the strategy one `urb check` run uses: an explicit
    /// override wins, else the spec's `[check] strategy`, else the
    /// default. Shared by the explorer and the CLI so the cache binding
    /// and the actual run can never disagree.
    pub fn resolve(spec: &ScenarioSpec, overridden: Option<Strategy>) -> Self {
        overridden.or(spec.check.strategy).unwrap_or_default()
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
    /// Default strategy for this scenario (`None` = the CLI default).
    pub strategy: Option<Strategy>,
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

/// The largest system size a scenario file or `urb run --n` may ask for.
/// The corpus runs n ≤ 8 and the largest committed measurement n = 64.
/// Per-link state grows as n², so an unbounded n let one file abort the
/// process on allocation (n = 5 000 000 asked for 3.8 PB).
pub const MAX_N: usize = 1024;

/// The largest `[topics] count`: the corpus runs at most 2 topics and the
/// open-loop grids 64. Every process holds one instance per topic; at the
/// ~140 B an idle instance costs, `MAX_N × MAX_TOPICS` is about 0.6 GB.
const MAX_TOPICS: u32 = 4096;

/// The most broadcasts one workload may plan (each is a queued event
/// with its payload): the corpus plans at most 40.
const MAX_BROADCASTS: usize = 1 << 20;

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
            } => {
                check_stream(*count, *spacing, *start)?;
                (0..*count)
                    .map(|i| PlannedBroadcast {
                        time: start + i as u64 * spacing,
                        pid: i % n,
                        topic: TopicId::ZERO,
                        payload: Payload::from(format!("m{i}").as_str()),
                    })
                    .collect()
            }
            WorkloadSpec::PerTopic(list) => {
                let total: usize = list.iter().map(|w| w.count).sum();
                if total > MAX_BROADCASTS {
                    return Err(SpecError::new(format!(
                        "workload.count: the [[workload]] streams plan {total} broadcasts, \
                         above the maximum {MAX_BROADCASTS}"
                    )));
                }
                let mut planned = Vec::new();
                for w in list {
                    check_topic(w.topic, "workload topic")?;
                    check_stream(w.count, w.spacing, w.start)?;
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
    macro_rules! corpus {
        ($($stem:ident),*) => {
            vec![$((
                stringify!($stem),
                include_str!(concat!("../../../scenarios/", stringify!($stem), ".toml")),
            )),*]
        };
    }
    corpus![
        clean_smoke,
        lossy_crashes,
        partition_heal,
        ack_starvation,
        churn,
        crash_storm,
        targeted_delay,
        theorem2_violation,
        two_topics_smoke,
        cross_topic_storm,
        bounded_memory,
        dynamic_topics,
        undersized_tombstones
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
    schema::lookup(s).ok_or_else(|| {
        let named = schema::names::<Algorithm>();
        SpecError::new(format!(
            "unknown algorithm {s:?} ({named} | backoff:<cap> | weakened:<threshold>)"
        ))
    })
}

/// Inverse of [`parse_algorithm`].
pub fn format_algorithm(alg: Algorithm) -> String {
    match alg {
        Algorithm::MajorityBackoff { cap } => format!("backoff:{cap}"),
        Algorithm::WeakenedMajority { threshold } => format!("weakened:{threshold}"),
        named => schema::name_of(named).into(),
    }
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

/// A generated stream's last broadcast, at `start + (count - 1) × spacing`,
/// must fall on a representable tick: an error naming `spacing`, never a
/// time that wraps around to an early one.
fn check_stream(count: usize, spacing: u64, start: u64) -> Result<(), SpecError> {
    let last = count.saturating_sub(1) as u64;
    match spacing.checked_mul(last).and_then(|t| t.checked_add(start)) {
        Some(_) => Ok(()),
        None => Err(SpecError::new(format!(
            "workload.spacing = {spacing}: broadcast {last} at start + {last} × spacing \
             is past the last tick (u64::MAX)"
        ))),
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
            strategy: Some(Strategy::DporLite),
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
        assert_eq!(spec.check.strategy, Some(Strategy::Random));
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
    fn design_section_9_lists_exactly_the_schema() {
        // Every schema key appears in DESIGN.md §9 and §9 names no other:
        // the file-schema table is the schema's own rows, in order, with
        // each key's default, range and doc line.
        let design = include_str!("../../../DESIGN.md");
        let table = &design[design.find("### File schema").expect("§9 file schema")..];
        let table = &table[..table[1..].find("\n### ").map_or(table.len(), |i| i + 1)];
        let listed: Vec<&str> = table.lines().filter(|l| l.starts_with("| `")).collect();
        let schema: Vec<String> = ScenarioSpec::schema()
            .into_iter()
            .map(|[path, default, range, doc]| {
                format!("| `{path}` | {default} | {range} | {doc} |")
            })
            .collect();
        assert!(
            listed == schema,
            "DESIGN.md §9 must list the schema's keys, row for row:\n{}",
            schema.join("\n")
        );
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
