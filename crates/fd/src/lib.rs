//! # `urb-fd`
//!
//! The anonymous failure detectors of the paper (§V):
//!
//! * **`AΘ`** — the anonymous counterpart of Θ (the weakest failure detector
//!   for URB in non-anonymous systems). Outputs pairs `(label, number)` such
//!   that, at every instant, *any* set of `number` processes that know
//!   `label` contains at least one correct process (accuracy), and
//!   eventually the output settles on the correct processes' pairs with
//!   `number = |S(label) ∩ Correct|` (completeness).
//! * **`AP*`** — the anonymous perfect detector: eventually outputs exactly
//!   the pairs of the correct processes, with crashed processes' labels
//!   permanently removed.
//!
//! Two implementations are provided:
//!
//! * [`oracle::OracleFd`] — a crash-schedule-aware oracle, the honest way to
//!   realize an axiomatic detector in a simulation (exactly like Θ/P in the
//!   classic literature, these detectors are *oracles*: any implementation
//!   must embed knowledge of the failure pattern). Its outputs satisfy the
//!   paper's formal clauses **at every instant**, which
//!   [`oracle::OracleFd::audit`] machine-checks. Label appearance is
//!   staggered and crash removal delayed, so the transient paths of
//!   Algorithm 2 (growing and shrinking ACK label sets) are exercised.
//! * [`heartbeat::HeartbeatFd`] — a realistic heartbeat implementation over
//!   the same lossy network the protocol uses. Sound only probabilistically:
//!   a long loss burst can cause a false suspicion. Experiment E8 quantifies
//!   what that does to Algorithm 2.
//!
//! The simulator talks to either through the [`FdService`] trait; Algorithm 1
//! runs with [`NoFd`].

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod heartbeat;
pub mod oracle;

pub use heartbeat::{HeartbeatConfig, HeartbeatFd, HeartbeatService};
pub use oracle::{OracleConfig, OracleFd};

use urb_types::{FdSnapshot, WireMessage};

/// A failure-detector implementation as seen by a driver (simulator or
/// runtime): it may emit messages on ticks (heartbeats), observe received
/// messages, and must produce per-process snapshots on demand.
///
/// `pid` is the *driver-side* process index — protocol code never sees it;
/// it exists only so one service object can serve a whole run.
pub trait FdService: Send {
    /// Called once per process tick, before the protocol's own tick. May
    /// push detector messages (heartbeats) into `out`.
    fn on_tick(&mut self, pid: usize, now: u64, out: &mut Vec<WireMessage>);

    /// Observes a message received by `pid` (heartbeat implementations feed
    /// on `WireMessage::Heartbeat`; oracles ignore everything).
    fn on_receive(&mut self, pid: usize, now: u64, msg: &WireMessage);

    /// Informs the detector that `pid` crashed at `now`. Oracles use this to
    /// resolve dynamically-triggered crashes (crash-on-first-delivery plans
    /// declare the process faulty up front with an unknown time; the actual
    /// instant starts the label-removal clocks). Default: ignore.
    fn on_crash(&mut self, _pid: usize, _now: u64) {}

    /// The current `a_theta` / `a_p*` outputs at `pid`.
    fn snapshot(&self, pid: usize, now: u64) -> FdSnapshot;

    /// Implementation name for experiment tables.
    fn name(&self) -> &'static str;
}

/// The absent detector: both views always empty. What Algorithm 1 (and the
/// baselines) run with.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFd;

impl FdService for NoFd {
    fn on_tick(&mut self, _pid: usize, _now: u64, _out: &mut Vec<WireMessage>) {}
    fn on_receive(&mut self, _pid: usize, _now: u64, _msg: &WireMessage) {}
    fn snapshot(&self, _pid: usize, _now: u64) -> FdSnapshot {
        FdSnapshot::none()
    }
    fn name(&self) -> &'static str {
        "none"
    }
}

/// A fixed view: every process reads this snapshot at every instant. With
/// every process correct and one label covering them all, that is a
/// perfect `AΘ` and `AP*` at once — what the simulator's soak and
/// open-loop planes run with.
impl FdService for FdSnapshot {
    fn on_tick(&mut self, _pid: usize, _now: u64, _out: &mut Vec<WireMessage>) {}
    fn on_receive(&mut self, _pid: usize, _now: u64, _msg: &WireMessage) {}
    fn snapshot(&self, _pid: usize, _now: u64) -> FdSnapshot {
        self.clone()
    }
    fn name(&self) -> &'static str {
        "static"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_fd_is_always_empty() {
        let mut fd = NoFd;
        let mut out = Vec::new();
        fd.on_tick(0, 0, &mut out);
        assert!(out.is_empty());
        let s = fd.snapshot(3, 1_000);
        assert!(s.a_theta.is_empty());
        assert!(s.a_p_star.is_empty());
        assert_eq!(fd.name(), "none");
    }
}
