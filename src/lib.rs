//! # `anon-urb`
//!
//! A complete Rust reproduction of Tang, Larrea, Arévalo & Jiménez,
//! *"Implementing Uniform Reliable Broadcast in Anonymous Distributed
//! Systems with Fair Lossy Channels"* (IPPS 2015).
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`core`] ([`urb_core`]) — the paper's Algorithm 1 (majority URB) and
//!   Algorithm 2 (quiescent URB with `AΘ`/`AP*`), plus baseline broadcasts;
//! * [`fd`] ([`urb_fd`]) — the anonymous failure detectors (audited oracle
//!   and realistic heartbeat implementations);
//! * [`sim`] ([`urb_sim`]) — the discrete-event simulator, fair-lossy
//!   channels, crash adversaries, URB property checker, scenarios and the
//!   declarative scenario plane (`spec` + the adversarial schedule
//!   library);
//! * [`check`] ([`urb_check`]) — the exploration plane: a bounded
//!   systematic schedule checker with replayable counterexamples;
//! * [`runtime`] ([`urb_runtime`]) — a threaded deployment of the same
//!   state machines;
//! * [`types`] ([`urb_types`]) — shared identifiers, wire format and the
//!   sans-io protocol trait.
//!
//! ## Quick taste
//!
//! ```
//! use anon_urb::prelude::*;
//!
//! // Simulated: 5 anonymous processes, 30% message loss, 4 of 5 crash.
//! // Algorithm 2 still implements URB (Theorem 3 of the paper).
//! let outcome = urb_sim::run(
//!     urb_sim::scenario::lossy_crashy(5, Algorithm::Quiescent, 0.3, 4, 1, 7),
//! );
//! assert!(outcome.all_ok());
//! ```
//!
//! See `README.md` for the tour and `DESIGN.md` for the architecture and
//! the index of experiments E1–E23.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use urb_apps as apps;
pub use urb_check as check;
pub use urb_core as core;
pub use urb_fd as fd;
pub use urb_runtime as runtime;
pub use urb_sim as sim;
pub use urb_types as types;

/// The names most programs want in scope.
pub mod prelude {
    pub use urb_core::{self, Algorithm, MajorityUrb, QuiescentUrb};
    pub use urb_runtime::{self, ClusterConfig, UrbCluster};
    pub use urb_sim::{self, CrashPlan, LossModel, RunOutcome, ScenarioSpec, Schedule, SimConfig};
    pub use urb_types::{AnonProcess, Delivery, Payload, Tag};
}

// Compile and run the README's code blocks as doctests (`cargo test
// --doc`), so the quick-start and library-taste snippets can never drift
// from the real API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme_doctests {}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = Algorithm::Majority.name();
        let _ = Payload::from("x");
    }
}
