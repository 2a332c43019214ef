//! # `urb-sim`
//!
//! Discrete-event simulator for the paper's system model
//! `AAS_F[n, t]` — anonymous, asynchronous, message-passing, fair-lossy
//! channels, crash-stop failures — plus the measurement and checking
//! machinery the experiment suite runs on:
//!
//! * [`event`] — deterministic time-ordered event queue;
//! * [`channel`] — fair-lossy channel models (Bernoulli, bounded-drop with
//!   deterministic fairness, Gilbert–Elliott bursts, severed links) and
//!   delay models;
//! * [`crash`] — crash adversaries, including crash-on-first-delivery (the
//!   Theorem-2 / E11 shape);
//! * [`world`] — the simulated system every driver steps: the nodes, the
//!   crash set and the failure detector ([`urb_fd::FdService`]), with the
//!   network and the clock left to the driver;
//! * [`sim`] — the event-queue driver: wire a protocol
//!   ([`urb_core::Algorithm`]), a detector and a workload onto a
//!   [`World`] and execute one run, deterministically per seed;
//! * [`metrics`] — traffic counters, latency records, quiescence curves,
//!   state-size samples;
//! * [`checker`] — machine verdicts for the three URB properties on every
//!   run;
//! * [`scenario`] — pre-built configurations for each experiment, including
//!   the executable reconstruction of the impossibility proof;
//! * [`spec`] — the **declarative scenario plane**: TOML/JSON scenario
//!   files ([`spec::ScenarioSpec`]) compiled onto the event-queue
//!   machinery, with scenario-level [`spec::Expectations`] and the
//!   embedded `scenarios/` corpus;
//! * [`adversary`] — the named adversarial schedule library
//!   (partition-heal, ack-starvation, targeted-delay, crash-storm, churn)
//!   specs draw from;
//! * [`minitoml`] — the first-party TOML-subset parser the spec loader
//!   uses (no registry access, no `toml` crate — see `vendor/README.md`);
//! * [`parallel`] — the multi-run executor: fan independent configurations
//!   across all cores with results in input order (runs are pure functions
//!   of their config, so parallel == serial, bit for bit);
//! * [`mod@soak`] and [`openloop`] — the load planes: a [`World`] flooded
//!   FIFO, for bounded memory (DESIGN.md §14) and latency under load (§16).
//!
//! ## Example
//!
//! ```
//! use urb_sim::{scenario, sim::run};
//! use urb_core::Algorithm;
//!
//! // 5 anonymous processes, 30% loss, 4 of 5 crash — Algorithm 2 still
//! // implements URB (Theorem 3): all three properties machine-checked.
//! let out = run(scenario::lossy_crashy(5, Algorithm::Quiescent, 0.3, 4, 2, 7));
//! assert!(out.all_ok());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod adversary;
pub mod channel;
pub mod checker;
pub mod crash;
pub mod event;
pub mod metrics;
pub mod minitoml;
pub mod openloop;
pub mod parallel;
pub mod scenario;
pub mod sim;
pub mod soak;
pub mod spec;
pub mod trace;
pub mod world;

pub use adversary::Schedule;
pub use channel::{DelayModel, LossModel};
pub use checker::{check_urb, CheckReport, PropertyVerdict};
pub use crash::{CrashPlan, CrashRule};
pub use metrics::{BroadcastRecord, DeliveryRecord, Metrics};
pub use openloop::{open_loop, OpenLoopConfig, OpenLoopOutcome};
pub use parallel::{run_many, run_many_on};
pub use sim::{
    run, Blackout, DelayOverride, FdKind, LinkOverride, PlannedBroadcast, RunOutcome, SimConfig,
    TopicAction, TopicEventCfg,
};
pub use soak::{soak, SoakConfig, SoakOutcome, SoakSample};
pub use spec::{CheckBounds, Expectations, ScenarioSpec, SpecError, Strategy};
pub use trace::{Trace, TraceConfig, TraceEvent, TraceKind};
pub use world::World;
