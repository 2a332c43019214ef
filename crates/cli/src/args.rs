//! Flag parsing for the `urb` binary.
//!
//! [`parse`] turns an argv into a [`Command`]. Where the library has a
//! config type for what a subcommand runs, the flags parse straight into
//! it: `urb node` into a [`NodeConfig`], `urb bench` into a
//! [`TrajectoryConfig`], `urb check` into [`ExploreOptions`], `--fd` into
//! an [`FdKind`]. A command then runs what was parsed without copying it.
//!
//! One reader, `Flags`, walks every subcommand's argv and words its
//! errors one way: `--x needs a value`, `--x: <why the value did not
//! parse>`, `unknown flag "--x"`. Each value is checked once, by the
//! library where it has a parser ([`Strategy::parse`],
//! [`experiments::ALL_IDS`]). A usage error comes back as its text; `main`
//! prints it above [`USAGE`] and exits 2.

use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;
use urb_bench::{experiments, TrajectoryConfig};
use urb_check::{ExploreOptions, Strategy};
use urb_core::Algorithm;
use urb_runtime::NodeConfig;
use urb_sim::spec::MAX_N;
use urb_sim::{FdKind, TopicAction};
use urb_types::TopicId;

/// Usage text.
pub const USAGE: &str = "\
urb — anonymous Uniform Reliable Broadcast simulator (Tang et al., IPPS 2015)

USAGE:
    urb run   [flags]      simulate one run and report the URB verdict
    urb sweep [flags]      loss-rate sweep, one row per loss value
    urb scenario FILE [--seed S] [--trace FILE] [--json]
                           replay a declarative scenario file (.toml/.json)
                           and check its [expect] verdict
    urb check FILE [--strategy dfs|dpor-lite|random] [--depth N] [--seed S]
                   [--jobs N] [--trace FILE] [--json]
                           systematically explore the scenario's schedule
                           space and check URB invariants + the [expect]
                           verdict on every explored execution (DESIGN.md §11)
    urb check --replay FILE [--json]
                           re-execute a recorded counterexample trace and
                           verify it reproduces the same violation
    urb bench [--json FILE] [--seed S] [--seeds K] [--experiments e1,e4,...]
                           run the reduced experiment grids and emit the
                           machine-readable bench trajectory (DESIGN.md §10)
    urb bench --validate FILE
                           schema-check an existing BENCH_*.json file
    urb bench --diff OLD NEW
                           compare two trajectory files: deterministic count
                           metrics must match exactly on overlapping grid
                           points (the CI perf-regression gate)
    urb theorem2 [--n N] [--seed S] [--json]
                           execute the impossibility proof's adversary
    urb node  [flags]      run ONE node of a socket cluster as this OS
                           process: TCP transport under the same sans-io
                           engine (DESIGN.md §13)
    urb cluster --local N [flags]
                           spawn an N-process loopback cluster, wait for
                           it, and report per-topic delivery verdicts
    urb topic OP [flags]   send one lifecycle control operation (create |
                           retire) to a running `urb node`, which applies
                           it and gossips it to the rest of the cluster
                           (DESIGN.md §15)
    urb help               this text

FLAGS (scenario):
    FILE              scenario spec (see DESIGN.md §9 and scenarios/*.toml)
    --seed S          override the spec's RNG seed
    --trace FILE      write a full JSON event trace to FILE
    --json            print the outcome summary as JSON

FLAGS (check):
    FILE              scenario spec; its [check] table sets the default
                      bounds (depth, drop/tick budgets, walks, strategy)
    --strategy S      dfs | dpor-lite | random     [default: spec or dfs]
    --depth N         max choices per explored execution [default: spec]
    --seed S          engine/walk seed override
    --jobs N          exploration worker threads; results are
                      byte-identical for every N           [default: 1]
    --trace FILE      write the counterexample trace (replayable) to FILE
    --replay FILE     replay a counterexample file instead of exploring
    --json            print the check report as JSON

FLAGS (bench):
    --json FILE       write the trajectory (enveloped JSON) to FILE
    --validate FILE   validate FILE against the trajectory schema and exit
    --diff OLD NEW    diff two trajectory files and exit nonzero on any
                      count-metric mismatch over overlapping points
    --seed S          root seed for the grids                [default: 1]
    --seeds K         seeds per grid cell                    [default: 3]
    --experiments IDS comma-separated subset of e1..e23      [default: all]
    --load-topics T,… topic-count cells of the e22 open-loop grid
                      (positive ints)        [default: 1,1000,100000]
    --rates R,...     offered-load cells of the e23 open-loop grid,
                      msgs/ktick (positive)  [default: 500,1500,2500,4000,8000]

FLAGS (node):
    --id I            this node's id (0-based)            [required]
    --addrs A,B,...   listen addresses of ALL nodes, in id
                      order (node I listens on the I-th)   [required]
    --listen ADDR     listen-address override              [default: addrs[I]]
    --alg NAME        protocol (see run flags)             [default: majority]
    --topics K        concurrent URB instances             [default: 1]
    --msgs K          broadcasts per topic by this node    [default: 1]
    --seed S          cluster-wide seed                    [default: 0x5EED]
    --expect K        deliveries per topic to wait for;
                      unmet by the deadline = exit 1       [default: none]
    --run-ms T        wall-clock budget                    [default: 20000]
    --linger-ms T     serve this long after --expect is met [default: 500]
    --state-dir DIR   durable snapshot + journal dir; a restart
                      recovers from it (unreadable = exit 2) [default: none]
    --json            print the node report as enveloped JSON

FLAGS (topic):
    OP                create | retire
    --addr HOST:PORT  listen address of any running node   [required]
    --topic N         the topic id                         [required]
    --alg NAME        protocol of a created topic (see run
                      flags; create only)                  [default: majority]

FLAGS (cluster):
    --local N         number of loopback node processes    [required]
    --alg NAME        protocol                             [default: majority]
    --topics K        concurrent URB instances             [default: 1]
    --msgs K          broadcasts per topic per node        [default: 1]
    --seed S          cluster-wide seed                    [default: 0x5EED]
    --run-ms T        per-node wall-clock budget           [default: 20000]
    --json            print the cluster verdict as enveloped JSON

FLAGS (run / sweep):
    --n N             system size                         [default: 5]
    --topics K        concurrent URB instances (topics)   [default: 1]
    --alg NAME        majority | quiescent | quiescent-literal |
                      best-effort | eager-rb              [default: quiescent]
    --loss P          per-transmission loss probability   [default: 0.2]
    --burst           use bursty (Gilbert-Elliott) loss instead of Bernoulli
    --crashes T       number of crashing processes        [default: 0]
    --msgs K          number of URB broadcasts            [default: 2]
    --seed S          RNG seed                            [default: 1]
    --horizon T       max simulated ticks                 [default: 200000]
    --fd KIND         oracle | heartbeat | none           [default: by algorithm]
    --trace FILE      write a full JSON event trace to FILE
    --json            print the outcome summary as JSON
";

/// A parsed invocation.
#[derive(Debug, Clone)]
pub enum Command {
    /// `urb run`.
    Run(RunArgs),
    /// `urb sweep`.
    Sweep(RunArgs),
    /// `urb scenario <file>`.
    Scenario(ScenarioArgs),
    /// `urb check <file>` / `urb check --replay <file>`.
    Check(CheckArgs),
    /// `urb bench`.
    Bench(BenchArgs),
    /// `urb theorem2`.
    Theorem2 {
        /// System size.
        n: usize,
        /// RNG seed.
        seed: u64,
        /// Machine-readable output (shared envelope).
        json: bool,
    },
    /// `urb node`.
    Node {
        /// The daemon's config, `n` = the number of `--addrs`.
        config: NodeConfig,
        /// Machine-readable output.
        json: bool,
    },
    /// `urb cluster`.
    Cluster(ClusterArgs),
    /// `urb topic <op>`.
    Topic(TopicArgs),
    /// `urb help`.
    Help,
}

/// Flags of `urb topic` (one-shot control client).
#[derive(Debug, Clone, PartialEq)]
pub struct TopicArgs {
    /// The lifecycle operation to send (DESIGN.md §15); a create without
    /// `--alg` runs [`Algorithm::Majority`].
    pub action: TopicAction,
    /// Listen address of the target node (any cluster member; the
    /// control gossips from there).
    pub addr: String,
}

/// Flags of `urb cluster` (loopback launcher).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterArgs {
    /// Number of loopback node processes.
    pub local: usize,
    /// Protocol.
    pub algorithm: Algorithm,
    /// Concurrent URB instances (topics).
    pub topics: u32,
    /// Broadcasts per topic per node.
    pub msgs: usize,
    /// Cluster-wide seed.
    pub seed: u64,
    /// Per-node wall-clock budget, milliseconds.
    pub run_ms: u64,
    /// Machine-readable output.
    pub json: bool,
}

/// Flags of `urb scenario`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScenarioArgs {
    /// Path of the scenario spec file.
    pub path: String,
    /// Seed override (`None` = use the spec's seed).
    pub seed: Option<u64>,
    /// Trace output path.
    pub trace: Option<String>,
    /// Machine-readable output.
    pub json: bool,
}

/// Flags of `urb check`.
#[derive(Debug, Clone, Default)]
pub struct CheckArgs {
    /// Path of the scenario spec file (`None` in `--replay` mode).
    pub path: Option<String>,
    /// Replay this counterexample file instead of exploring.
    pub replay: Option<String>,
    /// The `--strategy`, `--depth`, `--seed` and `--jobs` overrides.
    pub explore: ExploreOptions,
    /// Counterexample trace output path.
    pub trace: Option<String>,
    /// Machine-readable output.
    pub json: bool,
}

/// Flags of `urb bench`.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Trajectory output path (`None` = human table only).
    pub json: Option<String>,
    /// Validate this existing file instead of collecting.
    pub validate: Option<String>,
    /// Diff these two trajectory files instead of collecting.
    pub diff: Option<(String, String)>,
    /// What to collect: [`TrajectoryConfig::full`] with seed 1, narrowed
    /// by `--seed`, `--seeds`, `--experiments`, `--load-topics` and
    /// `--rates`.
    pub trajectory: TrajectoryConfig,
}

/// Flags shared by `run` and `sweep`.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// System size.
    pub n: usize,
    /// Concurrent URB instances (topics); broadcasts round-robin across
    /// them (DESIGN.md §12).
    pub topics: u32,
    /// Protocol.
    pub algorithm: Algorithm,
    /// Loss probability.
    pub loss: f64,
    /// Bursty loss instead of Bernoulli.
    pub burst: bool,
    /// Crash count.
    pub crashes: usize,
    /// Broadcast count.
    pub msgs: usize,
    /// Seed.
    pub seed: u64,
    /// Horizon.
    pub horizon: u64,
    /// Detector override (`None` = pick by algorithm).
    pub fd: Option<FdKind>,
    /// Trace output path.
    pub trace: Option<String>,
    /// Machine-readable output.
    pub json: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            n: 5,
            topics: 1,
            algorithm: Algorithm::Quiescent,
            loss: 0.2,
            burst: false,
            crashes: 0,
            msgs: 2,
            seed: 1,
            horizon: 200_000,
            fd: None,
            trace: None,
            json: false,
        }
    }
}

/// Reads one subcommand's argv: each flag (or positional argument) in
/// turn, then the flag's value, raw or parsed.
struct Flags<'a> {
    rest: std::slice::Iter<'a, String>,
    /// The argument [`Flags::next`] returned last.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.rest.next()?;
        Some(self.flag)
    }

    /// The current flag's value, as given.
    fn value(&mut self) -> Result<&'a str, String> {
        match self.rest.next() {
            Some(v) => Ok(v),
            None => Err(format!("{} needs a value", self.flag)),
        }
    }

    /// The current flag's value, parsed.
    fn parse<T>(&mut self) -> Result<T, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        let raw = self.value()?;
        raw.parse().map_err(|e| format!("{}: {e}", self.flag))
    }

    /// The current flag's value as a comma-separated list of strictly
    /// positive integers (the open-loop grid cells of `urb bench`).
    fn positive_list<T>(&mut self) -> Result<Vec<T>, String>
    where
        T: FromStr + PartialEq + From<u8>,
        T::Err: Display,
    {
        let name = self.flag;
        let vals: Vec<T> = list(self.value()?)
            .map(|s| s.parse::<T>().map_err(|e| format!("{name}: {s:?}: {e}")))
            .collect::<Result<_, _>>()?;
        if vals.is_empty() {
            return Err(format!("{name} needs at least one value"));
        }
        if vals.contains(&T::from(0)) {
            return Err(format!("{name} values must be positive"));
        }
        Ok(vals)
    }

    /// The current flag's value, an algorithm name or alias.
    fn algorithm(&mut self) -> Result<Algorithm, String> {
        self.value().and_then(parse_algorithm)
    }

    /// The error for an argument the subcommand does not take.
    fn unknown(&self) -> String {
        format!("unknown flag {:?}", self.flag)
    }
}

/// `value` if it is not zero, else `{flag} must be positive`.
fn positive<T: PartialEq + From<u8>>(flag: &str, value: T) -> Result<T, String> {
    if value == T::from(0) {
        return Err(format!("{flag} must be positive"));
    }
    Ok(value)
}

/// The non-empty items of a comma-separated list.
fn list(raw: &str) -> impl Iterator<Item = &str> {
    raw.split(',').map(str::trim).filter(|s| !s.is_empty())
}

/// The CLI's algorithm names, with the short aliases `alg1`, `alg2`,
/// `literal`, `beb` and `rb`.
fn parse_algorithm(s: &str) -> Result<Algorithm, String> {
    Ok(match s {
        "majority" | "alg1" => Algorithm::Majority,
        "quiescent" | "alg2" => Algorithm::Quiescent,
        "quiescent-literal" | "literal" => Algorithm::QuiescentLiteral,
        "best-effort" | "beb" => Algorithm::BestEffort,
        "eager-rb" | "rb" => Algorithm::EagerRb,
        other => return Err(format!("unknown algorithm {other:?}")),
    })
}

/// Parses `--experiments`: each id canonicalized to the grids' literal
/// `e<n>` (any case, leading zeros dropped), one of
/// [`experiments::ALL_IDS`], and named once.
fn experiment_ids(raw: &str) -> Result<Vec<String>, String> {
    let ids: Vec<String> = list(raw)
        .map(|id| {
            let lower = id.to_lowercase();
            lower
                .strip_prefix('e')
                .filter(|digits| digits.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|digits| digits.parse::<u32>().ok())
                .map(|n| format!("e{n}"))
                .filter(|canonical| experiments::ALL_IDS.contains(&canonical.as_str()))
                .ok_or_else(|| {
                    let all = experiments::ALL_IDS;
                    format!(
                        "unknown experiment id {id:?} (use {}..{})",
                        all[0],
                        all[all.len() - 1]
                    )
                })
        })
        .collect::<Result<_, _>>()?;
    if ids.is_empty() {
        return Err("--experiments needs at least one id".into());
    }
    if let Some(twice) = ids
        .iter()
        .enumerate()
        .find_map(|(i, id)| ids[..i].contains(id).then_some(id))
    {
        return Err(format!("--experiments names {twice} twice"));
    }
    Ok(ids)
}

/// Parses an argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some((sub, rest)) = argv.split_first() else {
        return Ok(Command::Help);
    };
    let f = Flags {
        rest: rest.iter(),
        flag: "",
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "run" => run(f).map(Command::Run),
        "sweep" => run(f).map(Command::Sweep),
        "scenario" => scenario(f).map(Command::Scenario),
        "check" => check(f).map(Command::Check),
        "bench" => bench(f).map(Command::Bench),
        "theorem2" => theorem2(f),
        "node" => node(f),
        "cluster" => cluster(f).map(Command::Cluster),
        "topic" => topic(f).map(Command::Topic),
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn run(mut f: Flags) -> Result<RunArgs, String> {
    let mut args = RunArgs::default();
    while let Some(flag) = f.next() {
        match flag {
            "--n" => args.n = f.parse()?,
            "--topics" => args.topics = f.parse()?,
            "--alg" => args.algorithm = f.algorithm()?,
            "--loss" => args.loss = f.parse()?,
            "--burst" => args.burst = true,
            "--crashes" => args.crashes = f.parse()?,
            "--msgs" => args.msgs = f.parse()?,
            "--seed" => args.seed = f.parse()?,
            "--horizon" => args.horizon = f.parse()?,
            "--fd" => {
                args.fd = Some(match f.value()? {
                    "oracle" => FdKind::Oracle(Default::default()),
                    "heartbeat" | "hb" => FdKind::Heartbeat(Default::default()),
                    "none" => FdKind::None,
                    other => return Err(format!("unknown detector {other:?}")),
                })
            }
            "--trace" => args.trace = Some(f.parse()?),
            "--json" => args.json = true,
            _ => return Err(f.unknown()),
        }
    }
    positive("--n", args.n)?;
    if args.n > MAX_N {
        return Err(format!("--n must be at most {MAX_N}"));
    }
    positive("--topics", args.topics)?;
    if args.crashes >= args.n {
        return Err("--crashes must leave at least one correct process (t <= n-1)".into());
    }
    if !(0.0..=1.0).contains(&args.loss) {
        return Err("--loss must be in [0, 1]".into());
    }
    Ok(args)
}

fn scenario(mut f: Flags) -> Result<ScenarioArgs, String> {
    let mut args = ScenarioArgs::default();
    let mut path = None;
    while let Some(flag) = f.next() {
        match flag {
            "--seed" => args.seed = Some(f.parse()?),
            "--trace" => args.trace = Some(f.parse()?),
            "--json" => args.json = true,
            _ if flag.starts_with("--") => return Err(f.unknown()),
            file => {
                if path.replace(file).is_some() {
                    return Err("scenario takes exactly one FILE".into());
                }
            }
        }
    }
    args.path = path.ok_or("scenario needs a FILE argument")?.into();
    Ok(args)
}

fn check(mut f: Flags) -> Result<CheckArgs, String> {
    let mut args = CheckArgs::default();
    while let Some(flag) = f.next() {
        match flag {
            "--replay" => args.replay = Some(f.parse()?),
            "--strategy" => args.explore.strategy = Some(f.value().and_then(Strategy::parse)?),
            "--depth" => args.explore.depth = Some(positive(flag, f.parse()?)?),
            "--seed" => args.explore.seed = Some(f.parse()?),
            "--jobs" => args.explore.jobs = positive(flag, f.parse()?)?,
            "--trace" => args.trace = Some(f.parse()?),
            "--json" => args.json = true,
            _ if flag.starts_with("--") => return Err(f.unknown()),
            file => {
                if args.path.replace(file.into()).is_some() {
                    return Err("check takes exactly one FILE".into());
                }
            }
        }
    }
    match (&args.path, &args.replay) {
        (None, None) => Err("check needs a scenario FILE (or --replay FILE)".into()),
        (Some(_), Some(_)) => {
            Err("check takes either a scenario FILE or --replay, not both".into())
        }
        _ => Ok(args),
    }
}

fn bench(mut f: Flags) -> Result<BenchArgs, String> {
    let mut args = BenchArgs {
        json: None,
        validate: None,
        diff: None,
        trajectory: TrajectoryConfig::full(1),
    };
    while let Some(flag) = f.next() {
        match flag {
            "--json" => args.json = Some(f.parse()?),
            "--validate" => args.validate = Some(f.parse()?),
            "--diff" => {
                let old = f.parse()?;
                let new = f.value().map_err(|_| "--diff needs two files: OLD NEW")?;
                args.diff = Some((old, new.into()));
            }
            "--seed" => args.trajectory.seed = f.parse()?,
            "--seeds" => args.trajectory.seeds_per_cell = f.parse()?,
            "--experiments" => args.trajectory.ids = experiment_ids(f.value()?)?,
            "--load-topics" => args.trajectory.load_topics = Some(f.positive_list()?),
            "--rates" => args.trajectory.rates = Some(f.positive_list()?),
            _ => return Err(f.unknown()),
        }
    }
    positive("--seeds", args.trajectory.seeds_per_cell)?;
    Ok(args)
}

fn theorem2(mut f: Flags) -> Result<Command, String> {
    let (mut n, mut seed, mut json) = (6, 1, false);
    while let Some(flag) = f.next() {
        match flag {
            "--n" => n = f.parse()?,
            "--seed" => seed = f.parse()?,
            "--json" => json = true,
            _ => return Err(f.unknown()),
        }
    }
    if n < 2 {
        return Err("--n must be at least 2".into());
    }
    Ok(Command::Theorem2 { n, seed, json })
}

fn node(mut f: Flags) -> Result<Command, String> {
    // `NodeConfig::new`'s defaults are the CLI's; `n` follows `--addrs`.
    let mut config = NodeConfig::new(0, 0, Algorithm::Majority, Vec::new());
    let (mut id, mut json) = (None, false);
    while let Some(flag) = f.next() {
        match flag {
            "--id" => id = Some(f.parse()?),
            "--addrs" => config.addrs = list(f.value()?).map(String::from).collect(),
            "--listen" => config.listen = Some(f.parse()?),
            "--alg" => config.algorithm = f.algorithm()?,
            "--topics" => config.topics = f.parse()?,
            "--msgs" => config.msgs = f.parse()?,
            "--seed" => config.seed = f.parse()?,
            "--expect" => config.expect = Some(f.parse()?),
            "--run-ms" => config.run_for = Duration::from_millis(f.parse()?),
            "--linger-ms" => config.linger = Duration::from_millis(f.parse()?),
            "--json" => json = true,
            "--state-dir" => config.state_dir = Some(f.parse()?),
            _ => return Err(f.unknown()),
        }
    }
    config.id = id.ok_or("node needs --id")?;
    config.n = config.addrs.len();
    if config.n == 0 {
        return Err("node needs --addrs (one listen address per node)".into());
    }
    if config.id >= config.n {
        return Err(format!(
            "--id {} out of range for {} --addrs entries",
            config.id, config.n
        ));
    }
    positive("--topics", config.topics)?;
    Ok(Command::Node { config, json })
}

fn cluster(mut f: Flags) -> Result<ClusterArgs, String> {
    let mut local = None;
    let mut args = ClusterArgs {
        local: 0,
        algorithm: Algorithm::Majority,
        topics: 1,
        msgs: 1,
        seed: 0x5EED,
        run_ms: 20_000,
        json: false,
    };
    while let Some(flag) = f.next() {
        match flag {
            "--local" => local = Some(f.parse()?),
            "--alg" => args.algorithm = f.algorithm()?,
            "--topics" => args.topics = f.parse()?,
            "--msgs" => args.msgs = f.parse()?,
            "--seed" => args.seed = f.parse()?,
            "--run-ms" => args.run_ms = f.parse()?,
            "--json" => args.json = true,
            _ => return Err(f.unknown()),
        }
    }
    args.local = local.ok_or("cluster needs --local N")?;
    if args.local == 0 {
        return Err("--local must be at least 1".into());
    }
    positive("--topics", args.topics)?;
    Ok(args)
}

fn topic(mut f: Flags) -> Result<TopicArgs, String> {
    let create = match f.next() {
        Some("create") => true,
        Some("retire") => false,
        Some(other) => {
            return Err(format!(
                "unknown topic operation {other:?} (create | retire)"
            ))
        }
        None => return Err("topic needs an operation (create | retire)".into()),
    };
    let (mut addr, mut topic, mut algorithm) = (None, None, None);
    while let Some(flag) = f.next() {
        match flag {
            "--addr" => addr = Some(f.parse()?),
            "--topic" => topic = Some(f.parse()?),
            "--alg" => algorithm = Some(f.algorithm()?),
            _ => return Err(f.unknown()),
        }
    }
    let addr = addr.ok_or("topic needs --addr (a running node's listen address)")?;
    let topic = TopicId(topic.ok_or("topic needs --topic N")?);
    let action = if create {
        TopicAction::Create { topic, algorithm }
    } else if algorithm.is_some() {
        return Err("--alg only applies to `topic create`".into());
    } else {
        TopicAction::Retire { topic }
    };
    Ok(TopicArgs { action, addr })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_is_help() {
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
        assert!(matches!(parse(&argv("help")).unwrap(), Command::Help));
        assert!(matches!(parse(&argv("--help")).unwrap(), Command::Help));
    }

    #[test]
    fn run_defaults() {
        match parse(&argv("run")).unwrap() {
            Command::Run(a) => {
                assert_eq!(a.n, 5);
                assert_eq!(a.algorithm, Algorithm::Quiescent);
                assert!(!a.json);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn run_full_flags() {
        let cmd = parse(&argv(
            "run --n 8 --topics 3 --alg majority --loss 0.35 --crashes 3 --msgs 4 --seed 99 \
             --horizon 5000 --fd none --trace /tmp/t.json --json --burst",
        ))
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.n, 8);
                assert_eq!(a.topics, 3);
                assert_eq!(a.algorithm, Algorithm::Majority);
                assert_eq!(a.loss, 0.35);
                assert_eq!(a.crashes, 3);
                assert_eq!(a.msgs, 4);
                assert_eq!(a.seed, 99);
                assert_eq!(a.horizon, 5000);
                assert_eq!(a.fd, Some(FdKind::None));
                assert_eq!(a.trace.as_deref(), Some("/tmp/t.json"));
                assert!(a.json);
                assert!(a.burst);
            }
            _ => panic!(),
        }
    }

    #[test]
    fn algorithm_aliases() {
        assert_eq!(parse_algorithm("alg1").unwrap(), Algorithm::Majority);
        assert_eq!(parse_algorithm("alg2").unwrap(), Algorithm::Quiescent);
        assert_eq!(
            parse_algorithm("literal").unwrap(),
            Algorithm::QuiescentLiteral
        );
        assert!(parse_algorithm("paxos").is_err());
    }

    #[test]
    fn validation_errors() {
        assert!(parse(&argv("run --crashes 5 --n 5")).is_err(), "t <= n-1");
        assert!(parse(&argv("run --loss 1.5")).is_err());
        assert!(parse(&argv("run --n 0")).is_err());
        assert!(parse(&argv("run --topics 0")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run --alg")).is_err(), "missing value");
        assert!(parse(&argv("run --wat 3")).is_err());
    }

    #[test]
    fn theorem2_flags() {
        match parse(&argv("theorem2 --n 8 --seed 4 --json")).unwrap() {
            Command::Theorem2 { n, seed, json } => {
                assert_eq!(n, 8);
                assert_eq!(seed, 4);
                assert!(json);
            }
            _ => panic!(),
        }
        assert!(parse(&argv("theorem2 --n 1")).is_err());
    }

    #[test]
    fn scenario_parses_path_and_flags() {
        match parse(&argv(
            "scenario scenarios/partition_heal.toml --seed 9 --json",
        ))
        .unwrap()
        {
            Command::Scenario(a) => {
                assert_eq!(a.path, "scenarios/partition_heal.toml");
                assert_eq!(a.seed, Some(9));
                assert!(a.json);
                assert!(a.trace.is_none());
            }
            _ => panic!(),
        }
        assert!(parse(&argv("scenario")).is_err(), "FILE required");
        assert!(parse(&argv("scenario a.toml b.toml")).is_err(), "one FILE");
        assert!(parse(&argv("scenario a.toml --wat")).is_err());
    }

    #[test]
    fn check_parses_flags_and_modes() {
        match parse(&argv(
            "check scenarios/theorem2_violation.toml --strategy dpor-lite \
             --depth 40 --seed 5 --jobs 4 --trace /tmp/cx.json --json",
        ))
        .unwrap()
        {
            Command::Check(a) => {
                assert_eq!(a.path.as_deref(), Some("scenarios/theorem2_violation.toml"));
                assert_eq!(a.explore.strategy, Some(Strategy::DporLite));
                assert_eq!(a.explore.depth, Some(40));
                assert_eq!(a.explore.seed, Some(5));
                assert_eq!(a.explore.jobs, 4);
                assert_eq!(a.trace.as_deref(), Some("/tmp/cx.json"));
                assert!(a.json);
                assert!(a.replay.is_none());
            }
            _ => panic!(),
        }
        match parse(&argv("check --replay ce.json")).unwrap() {
            Command::Check(a) => {
                assert_eq!(a.replay.as_deref(), Some("ce.json"));
                assert!(a.path.is_none());
            }
            _ => panic!(),
        }
        assert!(parse(&argv("check")).is_err(), "FILE or --replay required");
        assert!(
            parse(&argv("check a.toml --replay b.json")).is_err(),
            "mutually exclusive"
        );
        assert!(parse(&argv("check a.toml b.toml")).is_err(), "one FILE");
        assert!(parse(&argv("check a.toml --strategy bfs")).is_err());
        assert!(parse(&argv("check a.toml --depth 0")).is_err());
        assert!(parse(&argv("check a.toml --jobs 0")).is_err());
        assert!(
            parse(&argv("check a.toml --jobs")).is_err(),
            "missing value"
        );
        assert!(parse(&argv("check a.toml --wat")).is_err());
    }

    #[test]
    fn bench_diff_takes_two_files() {
        match parse(&argv("bench --diff old.json new.json")).unwrap() {
            Command::Bench(a) => {
                assert_eq!(a.diff, Some(("old.json".into(), "new.json".into())));
            }
            _ => panic!(),
        }
        assert!(parse(&argv("bench --diff only-one.json")).is_err());
    }

    #[test]
    fn bench_parses_flags_and_validates_ids() {
        match parse(&argv("bench")).unwrap() {
            Command::Bench(a) => {
                assert_eq!((a.json, a.validate, a.diff), (None, None, None));
                let t = a.trajectory;
                assert_eq!((t.seed, t.seeds_per_cell), (1, 3));
                assert_eq!(t.ids, experiments::ALL_IDS, "every experiment");
                assert_eq!((t.load_topics, t.rates), (None, None));
            }
            _ => panic!(),
        }
        match parse(&argv(
            "bench --json BENCH_PR3.json --seed 9 --seeds 2 --experiments e1,E4,e17",
        ))
        .unwrap()
        {
            Command::Bench(a) => {
                assert_eq!(a.json.as_deref(), Some("BENCH_PR3.json"));
                assert_eq!(a.trajectory.seed, 9);
                assert_eq!(a.trajectory.seeds_per_cell, 2);
                assert_eq!(
                    a.trajectory.ids,
                    ["e1", "e4", "e17"],
                    "ids normalized to lowercase"
                );
            }
            _ => panic!(),
        }
        match parse(&argv("bench --validate out.json")).unwrap() {
            Command::Bench(a) => assert_eq!(a.validate.as_deref(), Some("out.json")),
            _ => panic!(),
        }
        assert!(parse(&argv("bench --experiments e99")).is_err());
        match parse(&argv("bench --experiments e18,e19")).unwrap() {
            Command::Bench(a) => {
                assert_eq!(a.trajectory.ids, ["e18", "e19"], "topic-plane ids accepted")
            }
            _ => panic!(),
        }
        assert!(parse(&argv("bench --experiments e0")).is_err());
        assert!(parse(&argv("bench --experiments e+1")).is_err(), "no sign");
        match parse(&argv("bench --experiments e01")).unwrap() {
            Command::Bench(a) => assert_eq!(
                a.trajectory.ids,
                ["e1"],
                "leading zeros canonicalized to the grid's literal ids"
            ),
            _ => panic!(),
        }
        assert!(parse(&argv("bench --seeds 0")).is_err());
        assert!(parse(&argv("bench --wat")).is_err());
    }

    #[test]
    fn bench_rejects_a_repeated_experiment_id() {
        // The trajectory diff pairs points by id, so a second point with
        // the same id would never be compared.
        for ids in ["e2,e2", "e2,E2", "e1,e2,e02", "e4,e1,e4"] {
            let err = parse(&argv(&format!("bench --experiments {ids}"))).unwrap_err();
            assert!(err.starts_with("--experiments names e"), "{ids}: {err}");
            assert!(err.ends_with(" twice"), "{ids}: {err}");
        }
    }

    #[test]
    fn every_node_alg_formats_to_a_token_node_parses_back() {
        // `urb cluster` passes its children `--alg format_algorithm(alg)`.
        let node_alg =
            |token: &str| match parse(&argv(&format!("node --id 0 --addrs h:1 --alg {token}"))) {
                Ok(Command::Node { config, .. }) => Ok(config.algorithm),
                other => Err(format!("{token}: {other:?}")),
            };
        for name in [
            "majority",
            "alg1",
            "quiescent",
            "alg2",
            "quiescent-literal",
            "literal",
            "best-effort",
            "beb",
            "eager-rb",
            "rb",
        ] {
            let alg = node_alg(name).unwrap();
            let token = urb_sim::spec::format_algorithm(alg);
            assert_eq!(node_alg(&token), Ok(alg), "{name} → {token}");
        }
    }

    #[test]
    fn node_parses_flags_and_validates() {
        match parse(&argv(
            "node --id 1 --addrs 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
             --alg quiescent --topics 2 --msgs 3 --seed 9 --expect 9 --run-ms 5000 \
             --linger-ms 100 --json",
        ))
        .unwrap()
        {
            Command::Node { config: a, json } => {
                assert_eq!(a.id, 1);
                assert_eq!(a.addrs.len(), 3);
                assert_eq!(a.n, 3, "one node per address");
                assert_eq!(a.algorithm, Algorithm::Quiescent);
                assert_eq!(a.topics, 2);
                assert_eq!(a.msgs, 3);
                assert_eq!(a.seed, 9);
                assert_eq!(a.expect, Some(9));
                assert_eq!(a.run_for, Duration::from_millis(5000));
                assert_eq!(a.linger, Duration::from_millis(100));
                assert!(a.listen.is_none());
                assert!(a.state_dir.is_none());
                assert!(json);
            }
            _ => panic!(),
        }
        match parse(&argv(
            "node --id 0 --addrs 127.0.0.1:7001 --listen 0.0.0.0:7001",
        ))
        .unwrap()
        {
            Command::Node { config: a, .. } => {
                assert_eq!(a.listen.as_deref(), Some("0.0.0.0:7001"));
                assert_eq!(a.algorithm, Algorithm::Majority, "default");
                assert!(a.expect.is_none());
            }
            _ => panic!(),
        }
        assert!(parse(&argv("node")).is_err(), "--id required");
        assert!(parse(&argv("node --id 0")).is_err(), "--addrs required");
        assert!(
            parse(&argv("node --id 3 --addrs a:1,b:2")).is_err(),
            "id out of range"
        );
        assert!(parse(&argv("node --id 0 --addrs a:1 --topics 0")).is_err());
        assert!(parse(&argv("node --id 0 --addrs a:1 --wat")).is_err());
    }

    #[test]
    fn cluster_parses_flags_and_validates() {
        match parse(&argv("cluster --local 3 --msgs 2 --seed 5 --json")).unwrap() {
            Command::Cluster(a) => {
                assert_eq!(a.local, 3);
                assert_eq!(a.msgs, 2);
                assert_eq!(a.seed, 5);
                assert_eq!(a.run_ms, 20_000, "default");
                assert!(a.json);
            }
            _ => panic!(),
        }
        assert!(parse(&argv("cluster")).is_err(), "--local required");
        assert!(parse(&argv("cluster --local 0")).is_err());
        assert!(parse(&argv("cluster --local 3 --topics 0")).is_err());
        assert!(parse(&argv("cluster --local 3 --wat")).is_err());
    }

    #[test]
    fn topic_parses_ops_and_validates() {
        match parse(&argv(
            "topic create --addr 127.0.0.1:7001 --topic 7 --alg quiescent",
        ))
        .unwrap()
        {
            Command::Topic(a) => {
                assert_eq!(
                    a.action,
                    TopicAction::Create {
                        topic: TopicId(7),
                        algorithm: Some(Algorithm::Quiescent),
                    }
                );
                assert_eq!(a.addr, "127.0.0.1:7001");
            }
            _ => panic!(),
        }
        match parse(&argv("topic create --addr h:1 --topic 3")).unwrap() {
            Command::Topic(a) => {
                let (algorithm, param) = Algorithm::Majority.to_wire();
                assert_eq!(
                    a.action.control(Algorithm::Majority),
                    urb_types::TopicControl::Create {
                        topic: TopicId(3),
                        algorithm,
                        param,
                    },
                    "a create without --alg runs majority"
                );
            }
            _ => panic!(),
        }
        match parse(&argv("topic retire --addr h:1 --topic 2")).unwrap() {
            Command::Topic(a) => {
                assert_eq!(a.action, TopicAction::Retire { topic: TopicId(2) });
            }
            _ => panic!(),
        }
        assert!(parse(&argv("topic")).is_err(), "operation required");
        for op in ["destroy", "subscribe", "unsubscribe"] {
            let err = parse(&argv(&format!("topic {op} --addr h:1 --topic 1"))).unwrap_err();
            assert!(err.contains("unknown topic operation"), "{op}: {err}");
        }
        assert!(parse(&argv("topic create --topic 1")).is_err(), "--addr");
        assert!(parse(&argv("topic create --addr h:1")).is_err(), "--topic");
        assert!(
            parse(&argv("topic retire --addr h:1 --topic 1 --alg majority")).is_err(),
            "--alg is create-only"
        );
        assert!(parse(&argv("topic create --addr h:1 --topic 1 --wat")).is_err());
    }

    #[test]
    fn bench_accepts_e23() {
        match parse(&argv("bench --experiments e21,e22,e23")).unwrap() {
            Command::Bench(a) => assert_eq!(a.trajectory.ids, ["e21", "e22", "e23"]),
            _ => panic!(),
        }
        assert!(parse(&argv("bench --experiments e24")).is_err());
    }

    #[test]
    fn bench_open_loop_grid_flags() {
        match parse(&argv("bench --load-topics 1,64 --rates 500,9000")).unwrap() {
            Command::Bench(a) => {
                assert_eq!(a.trajectory.load_topics, Some(vec![1, 64]));
                assert_eq!(a.trajectory.rates, Some(vec![500, 9_000]));
            }
            _ => panic!(),
        }
        // Defaults stay None: the committed trajectory files pin them.
        match parse(&argv("bench")).unwrap() {
            Command::Bench(a) => {
                assert_eq!(a.trajectory.load_topics, None);
                assert_eq!(a.trajectory.rates, None);
            }
            _ => panic!(),
        }
        assert!(parse(&argv("bench --rates 0")).is_err(), "zero rate");
        assert!(parse(&argv("bench --rates abc")).is_err(), "non-numeric");
        assert!(parse(&argv("bench --rates ,")).is_err(), "empty list");
        assert!(
            parse(&argv("bench --load-topics 0,5")).is_err(),
            "zero cell"
        );
        assert!(
            parse(&argv("bench --load-topics")).is_err(),
            "missing value"
        );
    }

    /// Every distinct usage error `parse` can return, each pinned by one
    /// argv and its exact text (`main` prints it after `error: `).
    #[test]
    fn every_usage_error_has_its_exact_text() {
        let table: &[(&str, &str)] = &[
            ("frobnicate", "unknown subcommand \"frobnicate\""),
            ("run --wat 3", "unknown flag \"--wat\""),
            ("check a.toml --wat", "unknown flag \"--wat\""),
            ("run --alg", "--alg needs a value"),
            ("check a.toml --cache", "unknown flag \"--cache\""),
            ("check a.toml --trace", "--trace needs a value"),
            ("run --n x", "--n: invalid digit found in string"),
            ("run --loss x", "--loss: invalid float literal"),
            (
                "run --seed 99999999999999999999",
                "--seed: number too large to fit in target type",
            ),
            ("run --alg paxos", "unknown algorithm \"paxos\""),
            ("run --fd psychic", "unknown detector \"psychic\""),
            ("run --n 0", "--n must be positive"),
            ("run --n 5000000", "--n must be at most 1024"),
            ("run --topics 0", "--topics must be positive"),
            (
                "run --crashes 5 --n 5",
                "--crashes must leave at least one correct process (t <= n-1)",
            ),
            ("run --loss 1.5", "--loss must be in [0, 1]"),
            ("theorem2 --n 1", "--n must be at least 2"),
            (
                "bench --diff only-one.json",
                "--diff needs two files: OLD NEW",
            ),
            (
                "bench --experiments e99",
                "unknown experiment id \"e99\" (use e1..e23)",
            ),
            (
                "bench --experiments e1,x2",
                "unknown experiment id \"x2\" (use e1..e23)",
            ),
            (
                "bench --experiments ,",
                "--experiments needs at least one id",
            ),
            ("bench --experiments e2,e2", "--experiments names e2 twice"),
            (
                "bench --rates abc",
                "--rates: \"abc\": invalid digit found in string",
            ),
            ("bench --rates ,", "--rates needs at least one value"),
            (
                "bench --load-topics 0,5",
                "--load-topics values must be positive",
            ),
            ("bench --seeds 0", "--seeds must be positive"),
            ("check", "check needs a scenario FILE (or --replay FILE)"),
            ("check a.toml b.toml", "check takes exactly one FILE"),
            (
                "check a.toml --replay b.json",
                "check takes either a scenario FILE or --replay, not both",
            ),
            (
                "check a.toml --strategy bfs",
                "unknown strategy \"bfs\" (dfs | dpor-lite | random)",
            ),
            ("check a.toml --depth 0", "--depth must be positive"),
            ("check a.toml --jobs 0", "--jobs must be positive"),
            ("scenario", "scenario needs a FILE argument"),
            ("scenario a.toml b.toml", "scenario takes exactly one FILE"),
            ("node", "node needs --id"),
            (
                "node --id 0",
                "node needs --addrs (one listen address per node)",
            ),
            (
                "node --id 3 --addrs a:1,b:2",
                "--id 3 out of range for 2 --addrs entries",
            ),
            (
                "node --id 0 --addrs a:1 --topics 0",
                "--topics must be positive",
            ),
            ("cluster", "cluster needs --local N"),
            ("cluster --local 0", "--local must be at least 1"),
            ("cluster --local 3 --topics 0", "--topics must be positive"),
            ("topic", "topic needs an operation (create | retire)"),
            (
                "topic destroy",
                "unknown topic operation \"destroy\" (create | retire)",
            ),
            (
                "topic create --topic 1",
                "topic needs --addr (a running node's listen address)",
            ),
            ("topic create --addr h:1", "topic needs --topic N"),
            (
                "topic retire --addr h:1 --topic 1 --alg majority",
                "--alg only applies to `topic create`",
            ),
            // Where an argv has two errors, which one is reported.
            ("run --n 0 --wat", "unknown flag \"--wat\""),
            (
                "run --crashes 9 --loss 2",
                "--crashes must leave at least one correct process (t <= n-1)",
            ),
            ("bench --seeds 0 --wat", "unknown flag \"--wat\""),
            (
                "bench --experiments e2,e2,e99",
                "unknown experiment id \"e99\" (use e1..e23)",
            ),
            ("node --topics 0", "node needs --id"),
            ("cluster --topics 0", "cluster needs --local N"),
            ("check a.toml --depth 0 --wat", "--depth must be positive"),
        ];
        for (line, want) in table {
            match parse(&argv(line)) {
                Err(got) => assert_eq!(&got, want, "urb {line}"),
                Ok(cmd) => panic!("urb {line}: parsed as {cmd:?}, want {want:?}"),
            }
        }
    }

    /// The flags `USAGE` lists for each subcommand: its `FLAGS (...)`
    /// section, or its synopsis line when it has none (`theorem2`).
    fn usage_flags() -> Vec<(&'static str, Vec<&'static str>)> {
        let mut out: Vec<(&str, Vec<&str>)> = Vec::new();
        let mut section: Vec<&str> = Vec::new();
        for line in USAGE.lines() {
            if let Some(names) = line
                .strip_prefix("FLAGS (")
                .and_then(|s| s.strip_suffix("):"))
            {
                section = names.split(" / ").collect();
                out.extend(section.iter().map(|&sub| (sub, Vec::new())));
            } else if let Some(flag) = line
                .split_whitespace()
                .next()
                .filter(|t| t.starts_with("--"))
            {
                for (_, flags) in out.iter_mut().filter(|(sub, _)| section.contains(sub)) {
                    flags.push(flag);
                }
            }
        }
        let synopsis = USAGE
            .lines()
            .find(|l| l.trim_start().starts_with("urb theorem2 "))
            .expect("theorem2 synopsis");
        let theorem2 = synopsis
            .split_whitespace()
            .filter_map(|t| t.strip_prefix('['))
            .map(|t| t.trim_end_matches(']'))
            .filter(|t| t.starts_with("--"))
            .collect();
        out.push(("theorem2", theorem2));
        out
    }

    #[test]
    fn usage_text_and_parser_agree_on_flags() {
        // An argv that satisfies each subcommand's required arguments.
        let base = |sub: &str, flag: &str| -> Vec<String> {
            argv(match sub {
                "check" if flag == "--replay" => "check",
                "check" => "check a.toml",
                "scenario" => "scenario a.toml",
                "node" => "node --id 0 --addrs h:1,h:2",
                "cluster" => "cluster --local 2",
                "topic" => "topic create --addr h:1 --topic 1",
                other => other,
            })
        };
        // A valid value for each flag (none for a switch).
        let value = |sub: &str, flag: &str| -> &'static str {
            match (sub, flag) {
                ("bench", "--json") => "out.json",
                (_, "--json" | "--burst") => "",
                (_, "--alg") => "majority",
                (_, "--fd") => "oracle",
                (_, "--strategy") => "dpor-lite",
                (_, "--experiments") => "e1,e2",
                (_, "--loss") => "0.5",
                (_, "--diff") => "old.json new.json",
                (_, "--addrs") => "h:1,h:2",
                (_, "--addr" | "--listen") => "h:1",
                (_, "--id") => "1",
                (_, "--replay" | "--validate" | "--trace" | "--state-dir") => "f",
                _ => "2",
            }
        };
        let listed = usage_flags();
        let subs: Vec<&str> = listed.iter().map(|(s, _)| *s).collect();
        assert_eq!(
            subs,
            [
                "scenario", "check", "bench", "node", "topic", "cluster", "run", "sweep",
                "theorem2"
            ]
        );
        let all: std::collections::BTreeSet<&str> =
            listed.iter().flat_map(|(_, f)| f.iter().copied()).collect();
        for (sub, flags) in &listed {
            assert!(!flags.is_empty(), "{sub} lists no flags");
            for flag in &all {
                let mut line = base(sub, flag);
                line.push(flag.to_string());
                line.extend(argv(value(sub, flag)));
                let got = parse(&line);
                if flags.contains(flag) {
                    assert!(got.is_ok(), "urb {}: {got:?}", line.join(" "));
                } else {
                    assert_eq!(
                        got.err(),
                        Some(format!("unknown flag {flag:?}")),
                        "urb {}",
                        line.join(" ")
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_parses_like_run() {
        match parse(&argv("sweep --n 6 --alg eager-rb")).unwrap() {
            Command::Sweep(a) => {
                assert_eq!(a.n, 6);
                assert_eq!(a.algorithm, Algorithm::EagerRb);
            }
            _ => panic!(),
        }
    }
}
