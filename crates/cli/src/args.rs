//! Hand-rolled flag parsing (the workspace keeps its dependency set to the
//! vetted offline crates; a CLI parser is 150 lines we can own).

use urb_core::Algorithm;
use urb_sim::TopicAction;
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
                   [--jobs N] [--cache FILE] [--trace FILE] [--json]
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
    --cache FILE      persistent state-hash cache: probe it to skip
                      already-proven subtrees, extend it after a clean
                      complete run (schema-versioned; DESIGN.md §11)
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
#[derive(Debug, Clone, PartialEq)]
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
    Node(NodeArgs),
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

/// Flags of `urb node` (one OS process of a socket cluster).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeArgs {
    /// This node's id, `0 <= id < addrs.len()`.
    pub id: usize,
    /// Listen addresses of every node, in id order.
    pub addrs: Vec<String>,
    /// Listen-address override (`None` = `addrs[id]`).
    pub listen: Option<String>,
    /// Protocol.
    pub algorithm: Algorithm,
    /// Concurrent URB instances (topics).
    pub topics: u32,
    /// Broadcasts this node performs per topic.
    pub msgs: usize,
    /// Cluster-wide seed.
    pub seed: u64,
    /// Deliveries per topic to wait for (`None` = run the full budget).
    pub expect: Option<usize>,
    /// Wall-clock budget, milliseconds.
    pub run_ms: u64,
    /// Post-expectation serve time, milliseconds.
    pub linger_ms: u64,
    /// Machine-readable output.
    pub json: bool,
    /// Durable state directory for crash recovery (`None` = stateless).
    pub state_dir: Option<String>,
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckArgs {
    /// Path of the scenario spec file (empty in `--replay` mode).
    pub path: Option<String>,
    /// Replay this counterexample file instead of exploring.
    pub replay: Option<String>,
    /// Strategy override (`None` = the spec's `[check]` table, then dfs).
    pub strategy: Option<String>,
    /// Depth-bound override.
    pub depth: Option<u32>,
    /// Seed override.
    pub seed: Option<u64>,
    /// Exploration worker threads (`None` = 1; byte-identical results
    /// for every value).
    pub jobs: Option<usize>,
    /// Persistent state-hash cache file.
    pub cache: Option<String>,
    /// Counterexample trace output path.
    pub trace: Option<String>,
    /// Machine-readable output.
    pub json: bool,
}

/// Flags of `urb bench`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Trajectory output path (`None` = human table only).
    pub json: Option<String>,
    /// Validate this existing file instead of collecting.
    pub validate: Option<String>,
    /// Diff these two trajectory files instead of collecting.
    pub diff: Option<(String, String)>,
    /// Root seed for the grids.
    pub seed: u64,
    /// Seeds per grid cell.
    pub seeds: u64,
    /// Experiment ids to cover (`None` = all of e1..e23).
    pub experiments: Option<Vec<String>>,
    /// Topic-count cells of the e22 open-loop grid (`None` = the pinned
    /// defaults the committed trajectory files use).
    pub load_topics: Option<Vec<u32>>,
    /// Offered-load cells of the e23 open-loop grid, in messages per
    /// kilotick (`None` = pinned defaults).
    pub rates: Option<Vec<u64>>,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            json: None,
            validate: None,
            diff: None,
            seed: 1,
            seeds: 3,
            experiments: None,
            load_topics: None,
            rates: None,
        }
    }
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
    pub fd: Option<FdChoice>,
    /// Trace output path.
    pub trace: Option<String>,
    /// Machine-readable output.
    pub json: bool,
}

/// Detector selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FdChoice {
    /// The audited oracle.
    Oracle,
    /// The heartbeat estimator.
    Heartbeat,
    /// No detector.
    None,
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

/// Parses a comma-separated list of strictly positive integers (the
/// open-loop grid cells of `urb bench`). Empty list, a non-numeric
/// value, or a zero is a usage error.
fn positive_list<T>(raw: &str, name: &str) -> Result<Vec<T>, String>
where
    T: std::str::FromStr + PartialEq + From<u8>,
    T::Err: std::fmt::Display,
{
    let vals: Vec<T> = raw
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<T>().map_err(|e| format!("{name}: {s:?}: {e}")))
        .collect::<Result<_, _>>()?;
    if vals.is_empty() {
        return Err(format!("{name} needs at least one value"));
    }
    if vals.contains(&T::from(0u8)) {
        return Err(format!("{name} values must be positive"));
    }
    Ok(vals)
}

/// Parses an argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let mut it = argv.iter();
    let sub = match it.next() {
        None => return Ok(Command::Help),
        Some(s) => s.as_str(),
    };
    match sub {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "theorem2" => {
            let mut n = 6usize;
            let mut seed = 1u64;
            let mut json = false;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--n" => n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
                    "--seed" => {
                        seed = value("--seed")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?
                    }
                    "--json" => json = true,
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            if n < 2 {
                return Err("--n must be at least 2".into());
            }
            Ok(Command::Theorem2 { n, seed, json })
        }
        "bench" => {
            let mut args = BenchArgs::default();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--json" => args.json = Some(value("--json")?),
                    "--validate" => args.validate = Some(value("--validate")?),
                    "--diff" => {
                        let old = value("--diff")?;
                        let new = it
                            .next()
                            .cloned()
                            .ok_or("--diff needs two files: OLD NEW")?;
                        args.diff = Some((old, new));
                    }
                    "--seed" => {
                        args.seed = value("--seed")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?
                    }
                    "--seeds" => {
                        args.seeds = value("--seeds")?
                            .parse()
                            .map_err(|e| format!("--seeds: {e}"))?
                    }
                    "--experiments" => {
                        // Canonicalize each id to exactly "e<n>": the
                        // trajectory grids match these strings literally.
                        let ids: Vec<String> = value("--experiments")?
                            .split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(|id| {
                                let lower = id.to_lowercase();
                                match lower.strip_prefix('e') {
                                    Some(digits) if digits.bytes().all(|b| b.is_ascii_digit()) => {
                                        match digits.parse::<u32>() {
                                            Ok(n @ 1..=23) => Ok(format!("e{n}")),
                                            _ => Err(format!(
                                                "unknown experiment id {id:?} (use e1..e23)"
                                            )),
                                        }
                                    }
                                    _ => Err(format!("unknown experiment id {id:?} (use e1..e23)")),
                                }
                            })
                            .collect::<Result<_, _>>()?;
                        if ids.is_empty() {
                            return Err("--experiments needs at least one id".into());
                        }
                        args.experiments = Some(ids);
                    }
                    "--load-topics" => {
                        args.load_topics =
                            Some(positive_list(&value("--load-topics")?, "--load-topics")?);
                    }
                    "--rates" => {
                        args.rates = Some(positive_list(&value("--rates")?, "--rates")?);
                    }
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            if args.seeds == 0 {
                return Err("--seeds must be positive".into());
            }
            Ok(Command::Bench(args))
        }
        "check" => {
            let mut path: Option<String> = None;
            let mut args = CheckArgs::default();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--replay" => args.replay = Some(value("--replay")?),
                    "--strategy" => {
                        let s = value("--strategy")?;
                        if !matches!(s.as_str(), "dfs" | "dpor-lite" | "random") {
                            return Err(format!(
                                "unknown strategy {s:?} (dfs | dpor-lite | random)"
                            ));
                        }
                        args.strategy = Some(s);
                    }
                    "--depth" => {
                        let d: u32 = value("--depth")?
                            .parse()
                            .map_err(|e| format!("--depth: {e}"))?;
                        if d == 0 {
                            return Err("--depth must be positive".into());
                        }
                        args.depth = Some(d);
                    }
                    "--seed" => {
                        args.seed = Some(
                            value("--seed")?
                                .parse()
                                .map_err(|e| format!("--seed: {e}"))?,
                        )
                    }
                    "--jobs" => {
                        let jobs: usize = value("--jobs")?
                            .parse()
                            .map_err(|e| format!("--jobs: {e}"))?;
                        if jobs == 0 {
                            return Err("--jobs must be positive".into());
                        }
                        args.jobs = Some(jobs);
                    }
                    "--cache" => args.cache = Some(value("--cache")?),
                    "--trace" => args.trace = Some(value("--trace")?),
                    "--json" => args.json = true,
                    other if other.starts_with("--") => {
                        return Err(format!("unknown flag {other:?}"))
                    }
                    file => {
                        if path.replace(file.to_string()).is_some() {
                            return Err("check takes exactly one FILE".into());
                        }
                    }
                }
            }
            args.path = path;
            match (&args.path, &args.replay) {
                (None, None) => return Err("check needs a scenario FILE (or --replay FILE)".into()),
                (Some(_), Some(_)) => {
                    return Err("check takes either a scenario FILE or --replay, not both".into())
                }
                _ => {}
            }
            Ok(Command::Check(args))
        }
        "scenario" => {
            let mut path: Option<String> = None;
            let mut args = ScenarioArgs {
                path: String::new(),
                seed: None,
                trace: None,
                json: false,
            };
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--seed" => {
                        args.seed = Some(
                            value("--seed")?
                                .parse()
                                .map_err(|e| format!("--seed: {e}"))?,
                        )
                    }
                    "--trace" => args.trace = Some(value("--trace")?),
                    "--json" => args.json = true,
                    other if other.starts_with("--") => {
                        return Err(format!("unknown flag {other:?}"))
                    }
                    file => {
                        if path.replace(file.to_string()).is_some() {
                            return Err("scenario takes exactly one FILE".into());
                        }
                    }
                }
            }
            args.path = path.ok_or("scenario needs a FILE argument")?;
            Ok(Command::Scenario(args))
        }
        "run" | "sweep" => {
            let mut args = RunArgs::default();
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--n" => args.n = value("--n")?.parse().map_err(|e| format!("--n: {e}"))?,
                    "--topics" => {
                        args.topics = value("--topics")?
                            .parse()
                            .map_err(|e| format!("--topics: {e}"))?
                    }
                    "--alg" => args.algorithm = parse_algorithm(&value("--alg")?)?,
                    "--loss" => {
                        args.loss = value("--loss")?
                            .parse()
                            .map_err(|e| format!("--loss: {e}"))?
                    }
                    "--burst" => args.burst = true,
                    "--crashes" => {
                        args.crashes = value("--crashes")?
                            .parse()
                            .map_err(|e| format!("--crashes: {e}"))?
                    }
                    "--msgs" => {
                        args.msgs = value("--msgs")?
                            .parse()
                            .map_err(|e| format!("--msgs: {e}"))?
                    }
                    "--seed" => {
                        args.seed = value("--seed")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?
                    }
                    "--horizon" => {
                        args.horizon = value("--horizon")?
                            .parse()
                            .map_err(|e| format!("--horizon: {e}"))?
                    }
                    "--fd" => {
                        args.fd = Some(match value("--fd")?.as_str() {
                            "oracle" => FdChoice::Oracle,
                            "heartbeat" | "hb" => FdChoice::Heartbeat,
                            "none" => FdChoice::None,
                            other => return Err(format!("unknown detector {other:?}")),
                        })
                    }
                    "--trace" => args.trace = Some(value("--trace")?),
                    "--json" => args.json = true,
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            if args.n == 0 {
                return Err("--n must be positive".into());
            }
            if args.topics == 0 {
                return Err("--topics must be positive".into());
            }
            if args.crashes >= args.n {
                return Err("--crashes must leave at least one correct process (t <= n-1)".into());
            }
            if !(0.0..=1.0).contains(&args.loss) {
                return Err("--loss must be in [0, 1]".into());
            }
            if sub == "run" {
                Ok(Command::Run(args))
            } else {
                Ok(Command::Sweep(args))
            }
        }
        "node" => {
            let mut id: Option<usize> = None;
            let mut addrs: Vec<String> = Vec::new();
            let mut listen: Option<String> = None;
            let mut algorithm = Algorithm::Majority;
            let mut topics = 1u32;
            let mut msgs = 1usize;
            let mut seed = 0x5EEDu64;
            let mut expect: Option<usize> = None;
            let mut run_ms = 20_000u64;
            let mut linger_ms = 500u64;
            let mut json = false;
            let mut state_dir: Option<String> = None;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--id" => id = Some(value("--id")?.parse().map_err(|e| format!("--id: {e}"))?),
                    "--addrs" => {
                        addrs = value("--addrs")?
                            .split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(String::from)
                            .collect();
                    }
                    "--listen" => listen = Some(value("--listen")?),
                    "--alg" => algorithm = parse_algorithm(&value("--alg")?)?,
                    "--topics" => {
                        topics = value("--topics")?
                            .parse()
                            .map_err(|e| format!("--topics: {e}"))?
                    }
                    "--msgs" => {
                        msgs = value("--msgs")?
                            .parse()
                            .map_err(|e| format!("--msgs: {e}"))?
                    }
                    "--seed" => {
                        seed = value("--seed")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?
                    }
                    "--expect" => {
                        expect = Some(
                            value("--expect")?
                                .parse()
                                .map_err(|e| format!("--expect: {e}"))?,
                        )
                    }
                    "--run-ms" => {
                        run_ms = value("--run-ms")?
                            .parse()
                            .map_err(|e| format!("--run-ms: {e}"))?
                    }
                    "--linger-ms" => {
                        linger_ms = value("--linger-ms")?
                            .parse()
                            .map_err(|e| format!("--linger-ms: {e}"))?
                    }
                    "--json" => json = true,
                    "--state-dir" => state_dir = Some(value("--state-dir")?),
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            let id = id.ok_or("node needs --id")?;
            if addrs.is_empty() {
                return Err("node needs --addrs (one listen address per node)".into());
            }
            if id >= addrs.len() {
                return Err(format!(
                    "--id {id} out of range for {} --addrs entries",
                    addrs.len()
                ));
            }
            if topics == 0 {
                return Err("--topics must be positive".into());
            }
            Ok(Command::Node(NodeArgs {
                id,
                addrs,
                listen,
                algorithm,
                topics,
                msgs,
                seed,
                expect,
                run_ms,
                linger_ms,
                json,
                state_dir,
            }))
        }
        "cluster" => {
            let mut local: Option<usize> = None;
            let mut algorithm = Algorithm::Majority;
            let mut topics = 1u32;
            let mut msgs = 1usize;
            let mut seed = 0x5EEDu64;
            let mut run_ms = 20_000u64;
            let mut json = false;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--local" => {
                        local = Some(
                            value("--local")?
                                .parse()
                                .map_err(|e| format!("--local: {e}"))?,
                        )
                    }
                    "--alg" => algorithm = parse_algorithm(&value("--alg")?)?,
                    "--topics" => {
                        topics = value("--topics")?
                            .parse()
                            .map_err(|e| format!("--topics: {e}"))?
                    }
                    "--msgs" => {
                        msgs = value("--msgs")?
                            .parse()
                            .map_err(|e| format!("--msgs: {e}"))?
                    }
                    "--seed" => {
                        seed = value("--seed")?
                            .parse()
                            .map_err(|e| format!("--seed: {e}"))?
                    }
                    "--run-ms" => {
                        run_ms = value("--run-ms")?
                            .parse()
                            .map_err(|e| format!("--run-ms: {e}"))?
                    }
                    "--json" => json = true,
                    other => return Err(format!("unknown flag {other:?}")),
                }
            }
            let local = local.ok_or("cluster needs --local N")?;
            if local == 0 {
                return Err("--local must be at least 1".into());
            }
            if topics == 0 {
                return Err("--topics must be positive".into());
            }
            Ok(Command::Cluster(ClusterArgs {
                local,
                algorithm,
                topics,
                msgs,
                seed,
                run_ms,
                json,
            }))
        }
        "topic" => {
            let create = match it.next().map(String::as_str) {
                Some("create") => true,
                Some("retire") => false,
                Some(other) => {
                    return Err(format!(
                        "unknown topic operation {other:?} (create | retire)"
                    ));
                }
                None => return Err("topic needs an operation (create | retire)".into()),
            };
            let mut addr: Option<String> = None;
            let mut topic: Option<u32> = None;
            let mut algorithm: Option<Algorithm> = None;
            while let Some(flag) = it.next() {
                let mut value = |name: &str| -> Result<String, String> {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--addr" => addr = Some(value("--addr")?),
                    "--topic" => {
                        topic = Some(
                            value("--topic")?
                                .parse()
                                .map_err(|e| format!("--topic: {e}"))?,
                        )
                    }
                    "--alg" => algorithm = Some(parse_algorithm(&value("--alg")?)?),
                    other => return Err(format!("unknown flag {other:?}")),
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
            Ok(Command::Topic(TopicArgs { action, addr }))
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&argv("--help")).unwrap(), Command::Help);
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
                assert_eq!(a.fd, Some(FdChoice::None));
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
             --depth 40 --seed 5 --jobs 4 --cache /tmp/urb.cache --trace /tmp/cx.json --json",
        ))
        .unwrap()
        {
            Command::Check(a) => {
                assert_eq!(a.path.as_deref(), Some("scenarios/theorem2_violation.toml"));
                assert_eq!(a.strategy.as_deref(), Some("dpor-lite"));
                assert_eq!(a.depth, Some(40));
                assert_eq!(a.seed, Some(5));
                assert_eq!(a.jobs, Some(4));
                assert_eq!(a.cache.as_deref(), Some("/tmp/urb.cache"));
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
        assert!(
            parse(&argv("check a.toml --cache")).is_err(),
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
            Command::Bench(a) => assert_eq!(a, BenchArgs::default()),
            _ => panic!(),
        }
        match parse(&argv(
            "bench --json BENCH_PR3.json --seed 9 --seeds 2 --experiments e1,E4,e17",
        ))
        .unwrap()
        {
            Command::Bench(a) => {
                assert_eq!(a.json.as_deref(), Some("BENCH_PR3.json"));
                assert_eq!(a.seed, 9);
                assert_eq!(a.seeds, 2);
                assert_eq!(
                    a.experiments,
                    Some(vec!["e1".into(), "e4".into(), "e17".into()]),
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
            Command::Bench(a) => assert_eq!(
                a.experiments,
                Some(vec!["e18".into(), "e19".into()]),
                "topic-plane ids accepted"
            ),
            _ => panic!(),
        }
        assert!(parse(&argv("bench --experiments e0")).is_err());
        assert!(parse(&argv("bench --experiments e+1")).is_err(), "no sign");
        match parse(&argv("bench --experiments e01")).unwrap() {
            Command::Bench(a) => assert_eq!(
                a.experiments,
                Some(vec!["e1".into()]),
                "leading zeros canonicalized to the grid's literal ids"
            ),
            _ => panic!(),
        }
        assert!(parse(&argv("bench --seeds 0")).is_err());
        assert!(parse(&argv("bench --wat")).is_err());
    }

    #[test]
    fn every_node_alg_formats_to_a_token_node_parses_back() {
        // `urb cluster` passes its children `--alg format_algorithm(alg)`.
        let node_alg =
            |token: &str| match parse(&argv(&format!("node --id 0 --addrs h:1 --alg {token}"))) {
                Ok(Command::Node(a)) => Ok(a.algorithm),
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
            Command::Node(a) => {
                assert_eq!(a.id, 1);
                assert_eq!(a.addrs.len(), 3);
                assert_eq!(a.algorithm, Algorithm::Quiescent);
                assert_eq!(a.topics, 2);
                assert_eq!(a.msgs, 3);
                assert_eq!(a.seed, 9);
                assert_eq!(a.expect, Some(9));
                assert_eq!(a.run_ms, 5000);
                assert_eq!(a.linger_ms, 100);
                assert!(a.listen.is_none());
                assert!(a.json);
            }
            _ => panic!(),
        }
        match parse(&argv(
            "node --id 0 --addrs 127.0.0.1:7001 --listen 0.0.0.0:7001",
        ))
        .unwrap()
        {
            Command::Node(a) => {
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
            Command::Bench(a) => assert_eq!(
                a.experiments,
                Some(vec!["e21".into(), "e22".into(), "e23".into()])
            ),
            _ => panic!(),
        }
        assert!(parse(&argv("bench --experiments e24")).is_err());
    }

    #[test]
    fn bench_open_loop_grid_flags() {
        match parse(&argv("bench --load-topics 1,64 --rates 500,9000")).unwrap() {
            Command::Bench(a) => {
                assert_eq!(a.load_topics, Some(vec![1, 64]));
                assert_eq!(a.rates, Some(vec![500, 9_000]));
            }
            _ => panic!(),
        }
        // Defaults stay None: the committed trajectory files pin them.
        match parse(&argv("bench")).unwrap() {
            Command::Bench(a) => {
                assert_eq!(a.load_topics, None);
                assert_eq!(a.rates, None);
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
