//! The systematic explorer: strategies over the choice tree of a
//! [`CheckModel`], with state-hash pruning, throughput counters and
//! `[expect]`-aware verdicts.
//!
//! All strategies are **stateless** (in the model-checking sense): a
//! state is materialized by replaying its choice prefix from the initial
//! state, because protocol instances are trait objects and cannot be
//! cloned. That costs `O(depth)` engine steps per visited state and buys
//! an exact, serializable witness for free — the path *is* the
//! counterexample.
//!
//! * [`Strategy::Dfs`] — bounded search in canonical choice order,
//!   pruning states whose [`CheckState::state_hash`] was already visited
//!   at least as far from the bound;
//! * [`Strategy::DporLite`] — delay-bounded search: diverging from the
//!   canonical first choice costs its index in the enabled list, and an
//!   execution may spend at most `check.delay_budget` in total. On top
//!   of the budget it runs the sleep-set reduction over the
//!   [`independence`](crate::independence) relation, skipping delivery
//!   interleavings that provably commute;
//! * [`Strategy::Random`] — `check.walks` seeded random walks to the
//!   depth bound: the fallback when the state space dwarfs the budget.
//!
//! # The determinism contract
//!
//! Exploration is **epoch-synchronous**: every frontier node carries its
//! *rank path* — the sequence of enabled-list indices that produced it —
//! and ranks order nodes exactly in serial DFS preorder (lexicographic,
//! prefix-first). Each epoch pops the `EPOCH_BATCH` (128) smallest-ranked
//! nodes, replays them concurrently on the shared work-stealing executor
//! ([`urb_sim::parallel::map_indexed_on`]), then folds the results back
//! into the stats, the visited set and the frontier **sequentially, in
//! rank order**. The visited set is frozen while workers probe it and
//! mutated only in the fold, so which states get pruned, which children
//! get pushed, and every counter are a pure function of the epoch
//! structure — never of thread scheduling. Verdicts, state counts and
//! the witness are byte-identical for any `--jobs` value, including 1.
//!
//! The reported witness is the **canonically-first** one: violating
//! nodes become candidates, and the search ends only when no frontier
//! node outranks the best candidate (descendant ranks extend ancestor
//! ranks, so nothing smaller can ever appear). Random walks parallelize
//! per walk, keep each walk's legacy seeding, and merge in walk order
//! with the same early-stop rules as the serial loop.

use crate::counterexample::Counterexample;
use crate::independence::{independent, DeliveryId};
use crate::model::{CheckModel, CheckState, Choice};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::time::Instant;
use urb_sim::metrics::DeliveryRecord;
use urb_sim::{Expectations, ScenarioSpec, SpecError, Strategy};
use urb_types::{RandomSource, SplitMix64};

/// Exploration throughput and coverage counters — the bench plane of the
/// checker (`states/sec`, dedup hit-rate) and the honesty report of a
/// bounded search (what was pruned, whether the cap truncated it).
#[derive(Clone, Copy, Debug, Default)]
pub struct ExplorationStats {
    /// States materialized. A frontier strategy materializes one per
    /// prefix replay; a random walk materializes its initial state and
    /// one per step, so under [`Strategy::Random`] `states` is
    /// `engine_steps` plus the walks run.
    pub states: u64,
    /// Engine steps executed across all replays.
    pub engine_steps: u64,
    /// States pruned because their hash was already visited at least as
    /// far from the depth bound with at least as much delay budget.
    pub dedup_hits: u64,
    /// Branches cut by the depth bound.
    pub depth_prunes: u64,
    /// Branches cut by the `dpor-lite` delay budget.
    pub delay_prunes: u64,
    /// Delivery interleavings skipped by the sleep-set reduction over
    /// the explicit independence relation (never materialized at all).
    pub dpor_pruned: u64,
    /// Silent states where the eventual properties were evaluated.
    pub silent_states: u64,
    /// Violating executions that did not match the scenario's expected
    /// violation shape (surfaced in the report, not as the witness).
    pub mismatched_violations: u64,
    /// Deepest execution reached.
    pub max_depth: u64,
    /// True when the state cap ended the search before the frontier was
    /// exhausted (the verdict is then "not found within budget", never
    /// "proven absent").
    pub truncated: bool,
    /// Wall-clock seconds spent exploring (throughput only — never part
    /// of any deterministic artifact).
    pub elapsed_secs: f64,
}

impl ExplorationStats {
    /// States materialized per wall-clock second.
    pub fn states_per_sec(&self) -> f64 {
        self.states as f64 / self.elapsed_secs.max(1e-9)
    }

    /// Fraction of frontier pops answered by the visited-set.
    pub fn dedup_hit_rate(&self) -> f64 {
        self.dedup_hits as f64 / (self.states + self.dedup_hits).max(1) as f64
    }
}

/// Tunables of one exploration run, beyond what the spec's `[check]`
/// table carries. `Default` reproduces a plain `urb check FILE`.
#[derive(Clone, Copy, Debug)]
pub struct ExploreOptions {
    /// Strategy override (`None` = spec's `[check] strategy`/default).
    pub strategy: Option<Strategy>,
    /// Depth-bound override.
    pub depth: Option<u32>,
    /// Seed override (engines + random walks).
    pub seed: Option<u64>,
    /// Worker threads for the epoch executor (clamped to ≥ 1). Results
    /// are byte-identical for every value — see the module docs.
    pub jobs: usize,
    /// Force the sleep-set reduction on/off (`None` = on exactly for
    /// [`Strategy::DporLite`]). Used by the soundness tests to compare
    /// reduced and unreduced runs of the same strategy.
    pub dpor: Option<bool>,
    /// Collect the sorted set of distinct state hashes materialized at
    /// the bound into [`CheckOutcome::fingerprints`] (frontier
    /// strategies only; test instrumentation).
    pub collect_fingerprints: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            strategy: None,
            depth: None,
            seed: None,
            jobs: 1,
            dpor: None,
            collect_fingerprints: false,
        }
    }
}

/// Everything one `urb check` invocation produced.
pub struct CheckOutcome {
    /// Scenario name.
    pub scenario: String,
    /// Strategy that ran.
    pub strategy: Strategy,
    /// Effective depth bound.
    pub depth: u32,
    /// Seed (engines + random walks).
    pub seed: u64,
    /// Worker threads the run used.
    pub jobs: usize,
    /// Whether the spec's `[expect]` table demands a violation.
    pub expects_violation: bool,
    /// The witness, when one was found.
    pub counterexample: Option<Counterexample>,
    /// Throughput/coverage counters.
    pub stats: ExplorationStats,
    /// Distinct state hashes materialized, sorted (only when
    /// [`ExploreOptions::collect_fingerprints`] was set).
    pub fingerprints: Option<Vec<u64>>,
}

impl CheckOutcome {
    /// The scenario-level verdict: an expected violation must be found;
    /// a clean scenario must survive the explored schedules.
    pub fn passed(&self) -> bool {
        self.expects_violation == self.counterexample.is_some()
    }

    /// One-line human verdict.
    pub fn verdict_line(&self) -> String {
        match (self.expects_violation, &self.counterexample) {
            (true, Some(cx)) => format!(
                "PASS — expected violation found at depth {}: {}",
                cx.choices.len(),
                cx.violation.first().map(String::as_str).unwrap_or("?")
            ),
            (true, None) => "FAIL — expected violation not found within bounds".into(),
            (false, Some(cx)) => format!(
                "FAIL — violation found at depth {}: {}",
                cx.choices.len(),
                cx.violation.first().map(String::as_str).unwrap_or("?")
            ),
            (false, None) => "PASS — no violation within bounds".into(),
        }
    }
}

/// Hard cap on materialized states per exploration, so a CI-bounded
/// check stays CI-bounded even on an adversarial spec. Hitting it sets
/// [`ExplorationStats::truncated`]. Checked at epoch boundaries, so a
/// run may overshoot by at most one epoch batch — deterministically.
pub const MAX_STATES: u64 = 200_000;

/// Frontier nodes replayed per epoch. A fixed, jobs-independent constant
/// (part of the determinism contract: the batch content depends only on
/// the frontier, never on worker count or scheduling). Small enough to
/// keep witness hunts close to serial-DFS cost, large enough to feed
/// several workers per barrier.
const EPOCH_BATCH: usize = 128;

/// Does `expect` ask for a violation at all?
fn expects_violation(e: &Expectations) -> bool {
    [e.all_ok, e.validity, e.agreement, e.integrity].contains(&Some(false))
}

/// Does this violating execution match the scenario's expected shape?
/// Every property the spec pins must agree with the execution's report
/// (`validity = false` must actually be violated, `integrity = true`
/// must actually hold), and `min_deliveries` binds the execution too.
fn matches_expectation(spec: &ScenarioSpec, st: &CheckState<'_>) -> bool {
    let report = st.report();
    let e = &spec.expect;
    let want = |expected: Option<bool>, got: bool| expected.is_none_or(|w| w == got);
    want(e.all_ok, report.all_ok())
        && want(e.validity, report.validity.ok())
        && want(e.agreement, report.agreement.ok())
        && want(e.integrity, report.integrity.ok())
        && e.min_deliveries.is_none_or(|m| st.deliveries().len() >= m)
}

/// Explores `spec` and returns the outcome. `seed` overrides the spec's
/// seed; `strategy`/`depth` override the spec's `[check]` table.
/// Single-threaded convenience wrapper around [`check_scenario_with`].
pub fn check_scenario(
    spec: &ScenarioSpec,
    strategy: Option<Strategy>,
    depth: Option<u32>,
    seed: Option<u64>,
) -> Result<CheckOutcome, SpecError> {
    check_scenario_with(
        spec,
        &ExploreOptions {
            strategy,
            depth,
            seed,
            ..ExploreOptions::default()
        },
    )
}

/// Explores `spec` under explicit [`ExploreOptions`].
pub fn check_scenario_with(
    spec: &ScenarioSpec,
    opts: &ExploreOptions,
) -> Result<CheckOutcome, SpecError> {
    let model = CheckModel::from_spec(spec, opts.seed)?;
    let strategy = Strategy::resolve(spec, opts.strategy);
    let depth = opts.depth.unwrap_or(spec.check.depth);
    let jobs = opts.jobs.max(1);
    let dpor = opts.dpor.unwrap_or(strategy == Strategy::DporLite);
    let expects = expects_violation(&spec.expect);
    let started = Instant::now();
    let engine = Engine {
        spec,
        model: &model,
        depth: depth as u64,
        expects,
        dpor,
        delay_budget: (strategy == Strategy::DporLite).then_some(spec.check.delay_budget as u64),
        jobs,
        collect_fp: opts.collect_fingerprints && strategy != Strategy::Random,
    };
    let mut stats = ExplorationStats::default();
    let mut fingerprints = BTreeSet::new();
    let witness = match strategy {
        Strategy::Random => engine.random_walks(spec.check.walks, &mut stats),
        Strategy::Dfs | Strategy::DporLite => engine.frontier_search(&mut stats, &mut fingerprints),
    };
    stats.elapsed_secs = started.elapsed().as_secs_f64();
    Ok(CheckOutcome {
        scenario: spec.name.clone(),
        strategy,
        depth,
        seed: model.seed(),
        jobs,
        expects_violation: expects,
        counterexample: witness.map(|(path, violation, deliveries)| Counterexample {
            scenario: spec.name.clone(),
            strategy: strategy.as_str().into(),
            seed: model.seed(),
            depth_bound: depth,
            spec_toml: spec.to_toml(),
            violation,
            choices: path,
            deliveries,
        }),
        stats,
        fingerprints: engine
            .collect_fp
            .then(|| fingerprints.into_iter().collect()),
    })
}

/// Witness payload: the path, the violation strings, the delivery trace.
type Witness = (Vec<Choice>, Vec<String>, Vec<DeliveryRecord>);

/// The visited set: `state_hash → maximal antichain of (remaining depth,
/// delay budget)` pairs. A probe hits when some recorded expansion
/// *dominates* it (was at least as far from the bound with at least as
/// much budget) — re-expanding a state that reappears closer to the
/// bound would only re-explore a sub-cone of what the dominating
/// expansion already covered.
///
/// [`Engine::frontier_search`] owns it: workers borrow it shared and
/// only probe it during an epoch; the sequential barrier fold borrows it
/// mutably and is the only writer, so the set's evolution is
/// independent of thread scheduling.
#[derive(Default)]
struct Visited(HashMap<u64, Vec<(u32, u64)>>);

impl Visited {
    fn dominated(&self, hash: u64, remaining: u32, budget: u64) -> bool {
        self.0
            .get(&hash)
            .is_some_and(|rows| rows.iter().any(|&(r, b)| r >= remaining && b >= budget))
    }

    /// Returns false (and leaves the set unchanged) when the entry is
    /// already dominated; otherwise inserts it, evicting what it
    /// dominates.
    fn insert(&mut self, hash: u64, remaining: u32, budget: u64) -> bool {
        if self.dominated(hash, remaining, budget) {
            return false;
        }
        let rows = self.0.entry(hash).or_default();
        rows.retain(|&(r, b)| !(remaining >= r && budget >= b));
        rows.push((remaining, budget));
        true
    }
}

/// One frontier node: its rank path (enabled-list indices, the global
/// preorder key), the choice path to replay, the remaining delay budget
/// and the sleep set inherited from its parent.
struct Node {
    rank: Vec<u16>,
    path: Vec<Choice>,
    budget: u64,
    sleep: Vec<DeliveryId>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.rank == other.rank
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        self.rank.cmp(&other.rank)
    }
}

/// What one worker learned about one frontier node — pure data, folded
/// into the run state at the epoch barrier.
struct Scan {
    node: Node,
    engine_steps: u64,
    silent: bool,
    mismatched: bool,
    depth_pruned: bool,
    deduped: bool,
    dpor_pruned: u64,
    delay_prunes: u64,
    fingerprint: Option<u64>,
    witness: Option<(Vec<String>, Vec<DeliveryRecord>)>,
    /// `(state key, children)` when the node is expandable: the key to
    /// claim in the visited set and the children to push if the claim
    /// wins.
    expand: Option<((u64, u32, u64), Vec<Node>)>,
}

struct Engine<'a> {
    spec: &'a ScenarioSpec,
    model: &'a CheckModel,
    depth: u64,
    expects: bool,
    dpor: bool,
    delay_budget: Option<u64>,
    jobs: usize,
    collect_fp: bool,
}

impl Engine<'_> {
    /// Replays and examines one frontier node; worker-side, reading
    /// `visited` only. Mirrors the serial pipeline exactly: materialize →
    /// examine (silent/violation) → depth bound → visited probe → child
    /// generation (sleep-set and delay-budget cuts).
    fn scan(&self, node: Node, visited: &Visited) -> Scan {
        let mut scan = Scan {
            engine_steps: node.path.len() as u64,
            silent: false,
            mismatched: false,
            depth_pruned: false,
            deduped: false,
            dpor_pruned: 0,
            delay_prunes: 0,
            fingerprint: None,
            witness: None,
            expand: None,
            node,
        };
        let mut st = self.model.initial();
        for c in &scan.node.path {
            st.apply_trusted(*c);
        }
        if st.is_silent() {
            scan.silent = true;
            st.check_eventual();
        }
        if self.collect_fp {
            scan.fingerprint = Some(st.state_hash());
        }
        if let Some(violation) = st.violation() {
            if !self.expects || matches_expectation(self.spec, &st) {
                scan.witness = Some((violation.to_vec(), st.deliveries().to_vec()));
            } else {
                scan.mismatched = true;
            }
            return scan;
        }
        if scan.node.path.len() as u64 >= self.depth {
            scan.depth_pruned = true;
            return scan;
        }
        let hash = st.state_hash();
        let remaining = (self.depth - scan.node.path.len() as u64) as u32;
        if visited.dominated(hash, remaining, scan.node.budget) {
            scan.deduped = true;
            return scan;
        }
        let enabled = st.enabled_choices();
        let mut children = Vec::with_capacity(enabled.len());
        // Delivery siblings already emitted as children at smaller
        // indices: later independent siblings go to sleep against them.
        let mut emitted: Vec<DeliveryId> = Vec::new();
        for (i, &choice) in enabled.iter().enumerate() {
            let id = match choice {
                Choice::Deliver { slot } if self.dpor => Some(DeliveryId::of(&st.pending()[slot])),
                _ => None,
            };
            if let Some(id) = id {
                if scan.node.sleep.contains(&id) {
                    scan.dpor_pruned += 1;
                    continue;
                }
            }
            let cost = if self.delay_budget.is_some() {
                i as u64
            } else {
                0
            };
            if cost > scan.node.budget {
                scan.delay_prunes += 1;
                continue;
            }
            let sleep = match id {
                // A delivery child sleeps on every inherited or
                // earlier-sibling delivery it is independent with —
                // those orders are covered by the sibling's subtree.
                Some(id) => {
                    let mut sleep: Vec<DeliveryId> = scan
                        .node
                        .sleep
                        .iter()
                        .chain(emitted.iter())
                        .copied()
                        .filter(|&z| independent(self.model, z, id))
                        .collect();
                    sleep.dedup();
                    emitted.push(id);
                    sleep
                }
                // Non-delivery steps are conservatively dependent with
                // everything: the child starts with an empty sleep set.
                None => Vec::new(),
            };
            let mut rank = scan.node.rank.clone();
            rank.push(i as u16);
            let mut path = scan.node.path.clone();
            path.push(choice);
            children.push(Node {
                rank,
                path,
                budget: scan.node.budget - cost,
                sleep,
            });
        }
        scan.expand = Some(((hash, remaining, scan.node.budget), children));
        scan
    }

    /// The epoch-synchronous frontier search (see the module docs for
    /// the determinism contract). Returns the canonically-first witness.
    fn frontier_search(
        &self,
        stats: &mut ExplorationStats,
        fingerprints: &mut BTreeSet<u64>,
    ) -> Option<Witness> {
        let mut visited = Visited::default();
        let mut frontier: BinaryHeap<Reverse<Node>> = BinaryHeap::new();
        frontier.push(Reverse(Node {
            rank: Vec::new(),
            path: Vec::new(),
            budget: self.delay_budget.unwrap_or(0),
            sleep: Vec::new(),
        }));
        // Best (smallest-rank) witness candidate so far.
        let mut best: Option<(Vec<u16>, Witness)> = None;
        loop {
            if let Some((best_rank, _)) = &best {
                // Finality: descendant ranks extend ancestor ranks, so
                // once no frontier node outranks the candidate, nothing
                // smaller can ever appear.
                let beatable = frontier
                    .peek()
                    .is_some_and(|Reverse(node)| node.rank < *best_rank);
                if !beatable {
                    break;
                }
            }
            if stats.states >= MAX_STATES {
                stats.truncated = true;
                break;
            }
            let mut batch = Vec::with_capacity(EPOCH_BATCH);
            while batch.len() < EPOCH_BATCH {
                let Some(Reverse(node)) = frontier.pop() else {
                    break;
                };
                if best
                    .as_ref()
                    .is_some_and(|(best_rank, _)| node.rank >= *best_rank)
                {
                    continue; // outranked: can never become the witness
                }
                batch.push(node);
            }
            if batch.is_empty() {
                break;
            }
            let scans = urb_sim::parallel::map_indexed_on(batch, self.jobs, &|_, node| {
                self.scan(node, &visited)
            });
            // Barrier fold — sequential, in canonical (rank) order.
            for scan in scans {
                stats.states += 1;
                stats.engine_steps += scan.engine_steps;
                stats.max_depth = stats.max_depth.max(scan.node.path.len() as u64);
                stats.silent_states += scan.silent as u64;
                stats.mismatched_violations += scan.mismatched as u64;
                stats.depth_prunes += scan.depth_pruned as u64;
                stats.dedup_hits += scan.deduped as u64;
                stats.dpor_pruned += scan.dpor_pruned;
                stats.delay_prunes += scan.delay_prunes;
                if let Some(fp) = scan.fingerprint {
                    fingerprints.insert(fp);
                }
                if let Some(witness) = scan.witness {
                    if best
                        .as_ref()
                        .is_none_or(|(best_rank, _)| scan.node.rank < *best_rank)
                    {
                        best = Some((scan.node.rank, (scan.node.path, witness.0, witness.1)));
                    }
                    continue;
                }
                let Some(((hash, remaining, budget), children)) = scan.expand else {
                    continue;
                };
                if !visited.insert(hash, remaining, budget) {
                    // A same-epoch twin (earlier in rank order) already
                    // claimed this state.
                    stats.dedup_hits += 1;
                    continue;
                }
                for child in children {
                    if best
                        .as_ref()
                        .is_some_and(|(best_rank, _)| child.rank >= *best_rank)
                    {
                        continue;
                    }
                    frontier.push(Reverse(child));
                }
            }
        }
        best.map(|(_, witness)| witness)
    }

    /// `walks` seeded random walks to the depth bound, distributed over
    /// the executor. Walk `w` draws from `SplitMix64(seed ^ w)` — fully
    /// deterministic, independent of wall clock and of each other — and
    /// results merge **in walk order** with the serial loop's early-stop
    /// rules, so the outcome is identical for any worker count.
    fn random_walks(&self, walks: u32, stats: &mut ExplorationStats) -> Option<Witness> {
        // Opportunistic cancellation: walks beyond the best witnessing
        // index so far can never contribute to the merged outcome (the
        // merge stops at the first witnessing walk), so skip them. The
        // final winner only ever moves down, so no contributing walk is
        // ever skipped.
        let best_walk = AtomicUsize::new(usize::MAX);
        let results = urb_sim::parallel::map_indexed_on(
            (0..walks).collect::<Vec<u32>>(),
            self.jobs,
            &|index, walk| {
                if index > best_walk.load(AtomicOrdering::Relaxed) {
                    return None;
                }
                let result = self.one_walk(walk);
                if result.witness.is_some() {
                    best_walk.fetch_min(index, AtomicOrdering::Relaxed);
                }
                Some(result)
            },
        );
        for result in results {
            if stats.states >= MAX_STATES {
                stats.truncated = true;
                return None;
            }
            let Some(walk) = result else { break };
            stats.states += walk.states;
            stats.engine_steps += walk.engine_steps;
            stats.max_depth = stats.max_depth.max(walk.max_depth);
            stats.silent_states += walk.silent_states;
            stats.mismatched_violations += walk.mismatched_violations;
            if walk.witness.is_some() {
                return walk.witness;
            }
        }
        None
    }

    /// One seeded random walk — the exact serial per-walk loop. It
    /// materializes the initial state and one more per step, so its
    /// `states` is `engine_steps + 1`.
    fn one_walk(&self, walk: u32) -> WalkResult {
        let mut out = WalkResult {
            states: 1,
            engine_steps: 0,
            max_depth: 0,
            silent_states: 0,
            mismatched_violations: 0,
            witness: None,
        };
        let mut rng = SplitMix64::new(self.model.seed() ^ 0x3A1_D0E5_u64.wrapping_add(walk as u64));
        let mut st = self.model.initial();
        let mut path = Vec::new();
        loop {
            if st.is_silent() {
                out.silent_states += 1;
                st.check_eventual();
            }
            if let Some(violation) = st.violation() {
                if !self.expects || matches_expectation(self.spec, &st) {
                    out.witness = Some((path, violation.to_vec(), st.deliveries().to_vec()));
                } else {
                    out.mismatched_violations += 1;
                }
                return out;
            }
            if path.len() as u64 >= self.depth {
                return out;
            }
            let enabled = st.enabled_choices();
            if enabled.is_empty() {
                return out;
            }
            let c = enabled[rng.gen_range(enabled.len() as u64) as usize];
            st.apply_trusted(c);
            out.states += 1;
            out.engine_steps += 1;
            path.push(c);
            out.max_depth = out.max_depth.max(path.len() as u64);
        }
    }
}

/// Per-walk partial stats, merged in walk order.
struct WalkResult {
    states: u64,
    engine_steps: u64,
    max_depth: u64,
    silent_states: u64,
    mismatched_violations: u64,
    witness: Option<Witness>,
}
