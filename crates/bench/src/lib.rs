//! # `urb-bench`
//!
//! The experiment harness of the reproduction. The paper has no empirical
//! evaluation; every experiment here validates one of its *claims*
//! (theorems, lemmas, remarks — see `DESIGN.md` §5 for the index of
//! experiment ids) and emits a markdown table.
//!
//! Run everything: `cargo run -p urb-bench --release --bin experiments`
//! Run one:        `cargo run -p urb-bench --release --bin experiments -- e4`
//!
//! Beyond the experiment tables, this crate is the **performance plane**
//! (DESIGN.md §10):
//!
//! * [`trajectory`] — reduced deterministic grids over every experiment id
//!   emitting the schema-versioned `BENCH_*.json` perf history
//!   (`urb bench --json`);
//! * [`report`] — the shared JSON envelope every tool output wears;
//! * [`alloc_count`] — allocations-per-operation probes and the
//!   zero-allocation gates of the frame plane (enable the `count-allocs`
//!   feature to install the counting global allocator).
//!
//! Wall-clock numbers live in the ledger (`ledger/`, `BENCHMARK.json`),
//! not here.

// `count-allocs` installs a counting global allocator, which requires an
// `unsafe impl GlobalAlloc` (confined to `alloc_count::imp`); the default
// build keeps the workspace-wide ban.
#![cfg_attr(not(feature = "count-allocs"), forbid(unsafe_code))]
#![cfg_attr(feature = "count-allocs", deny(unsafe_code))]
#![deny(missing_docs)]

pub mod alloc_count;
pub mod executor;
pub mod experiments;
pub mod report;
pub mod table;
pub mod trajectory;

pub use table::Table;
pub use trajectory::{Trajectory, TrajectoryConfig};
