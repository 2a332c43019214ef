//! # `urb-check`
//!
//! The **exploration plane** (DESIGN.md §11): a bounded systematic
//! schedule checker for the paper's protocols. The simulator executes
//! *one* schedule per seed; the paper's claims quantify over *all*
//! admissible executions. This crate closes part of that gap: it drives
//! the same `urb-engine` step path the simulator and runtime use through
//! explicit permutations of message-delivery order, adversarial message
//! drops (batch thinning) and crash points, checking the URB invariants
//! at every step and the scenario's `[expect]` verdict at every silent
//! state — a model checker over the scenario plane, in which any seeded
//! run is just one path of the choice tree.
//!
//! * [`model`] — the replayable state machine: a [`model::CheckModel`]
//!   compiled from a [`urb_sim::ScenarioSpec`], stepped by explicit
//!   [`model::Choice`]s through the engine's choice-point hooks;
//! * [`explorer`] — the strategies (bounded DFS with state-hash
//!   pruning, delay-bounded `dpor-lite`, seeded random walks), the
//!   epoch-synchronous parallel frontier (`--jobs`, byte-identical for
//!   any worker count), the throughput counters and the
//!   `[expect]`-aware verdict;
//! * [`independence`] — the explicit commutation relation between
//!   delivery choices that powers the sleep-set partial-order
//!   reduction;
//! * [`counterexample`] — self-contained, byte-deterministically
//!   replayable violation traces (`urb check --replay`), with delivery
//!   rows in the PR 2 golden-trace shape.
//!
//! ## Example
//!
//! ```
//! use urb_check::{check_scenario, Strategy};
//! use urb_sim::ScenarioSpec;
//!
//! // The executable Theorem 2: a sub-majority delivery threshold must
//! // break uniform agreement on *some* schedule — the explorer finds
//! // one and hands back a replayable witness.
//! let (_, text) = urb_sim::spec::corpus()
//!     .into_iter()
//!     .find(|(name, _)| *name == "theorem2_violation")
//!     .unwrap();
//! let spec = ScenarioSpec::from_toml_str(text).unwrap();
//! let outcome = check_scenario(&spec, Some(Strategy::Dfs), None, None).unwrap();
//! assert!(outcome.passed(), "{}", outcome.verdict_line());
//! let cx = outcome.counterexample.expect("violation witnessed");
//! assert_eq!(cx.replay().unwrap(), cx.violation);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod counterexample;
pub mod explorer;
pub mod independence;
pub mod model;

pub use counterexample::Counterexample;
pub use explorer::{
    check_scenario, check_scenario_with, CheckOutcome, ExplorationStats, ExploreOptions,
};
pub use model::{CheckModel, CheckState, Choice};
pub use urb_sim::Strategy;
