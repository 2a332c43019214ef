//! # `urb-core`
//!
//! The broadcast algorithms of Tang, Larrea, Arévalo & Jiménez,
//! *"Implementing Uniform Reliable Broadcast in Anonymous Distributed
//! Systems with Fair Lossy Channels"* (IPPS 2015), as deterministic sans-io
//! state machines:
//!
//! * [`majority::MajorityUrb`] — **Algorithm 1**: non-quiescent
//!   URB for `AAS_F[t < n/2]` (anonymous, asynchronous, fair-lossy channels,
//!   a majority of correct processes). Delivery happens on receipt of a
//!   strict majority of distinct acknowledgment tags.
//! * [`quiescent::QuiescentUrb`] — **Algorithm 2**: quiescent
//!   URB for `AAS_F[AΘ, AP*]`, tolerating any number of crashes. The
//!   anonymous failure detector `AΘ` replaces the majority quorum in the
//!   delivery condition and `AP*` lets Task 1 stop retransmitting.
//! * [`backoff::BackoffUrb`] — an extension: Algorithm 1 with its Task 1
//!   re-paced (ablation E13).
//! * [`baseline`] — the weaker broadcast abstractions the paper's
//!   introduction contrasts against (best-effort broadcast and an eager,
//!   non-uniform reliable broadcast), used by the experiment harness to
//!   demonstrate *why* uniformity needs the paper's machinery.
//!
//! The paper presents Algorithm 2 as Algorithm 1 with three edits, and the
//! code follows it: the three variants share one crate-private per-tag
//! record table and differ in their acknowledgment evidence and guards.
//!
//! Every state machine implements [`urb_types::AnonProcess`]; the
//! discrete-event simulator (`urb-sim`) and the threaded runtime
//! (`urb-runtime`) both drive the exact same code.
//!
//! The pseudocode line numbers quoted throughout refer to the paper's
//! Algorithm 1 and Algorithm 2 listings; intentional deviations are the
//! D1–D7 notes in `DESIGN.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod backoff;
pub mod baseline;
mod compact;
mod evidence;
pub mod harness;
mod inline_vec;
pub mod majority;
pub mod quiescent;
mod record_map;
mod sorted_map;
mod table;

pub use backoff::BackoffUrb;
pub use baseline::{BestEffortBroadcast, EagerReliableBroadcast};
pub use majority::MajorityUrb;
pub use quiescent::{PruneRule, QuiescentUrb};

use urb_types::AnonProcess;

/// Which algorithm a driver should instantiate. Used by the simulator's
/// scenario builders and the experiment harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Algorithm 1 — majority-based, non-quiescent URB.
    Majority,
    /// Algorithm 1 with a deliberately weakened delivery threshold
    /// (`count >= threshold` instead of a strict majority). Exists solely to
    /// demonstrate Theorem 2: below a majority, uniform agreement breaks.
    WeakenedMajority {
        /// The (sub-majority) number of distinct ACKs that triggers delivery.
        threshold: u32,
    },
    /// Algorithm 2 — quiescent URB using `AΘ` and `AP*`.
    Quiescent,
    /// Algorithm 2 with the D4 dead-ACKer purge disabled (the paper's
    /// literal line-55 condition). Exists for ablation E12.
    QuiescentLiteral,
    /// Extension: Algorithm 1 with exponential Task-1 backoff (ablation
    /// E13): at most `cap` sweeps are skipped between two retransmissions of
    /// a message, so even `cap = 1` sends every *other* sweep where the
    /// faithful algorithm sends every sweep.
    MajorityBackoff {
        /// Maximum number of sweeps skipped between retransmissions of one
        /// message (`>= 1`).
        cap: u32,
    },
    /// Best-effort broadcast baseline (send once, deliver on first receipt).
    BestEffort,
    /// Eager non-uniform reliable broadcast baseline.
    EagerRb,
}

impl Algorithm {
    /// Whether this algorithm can run in a system of `n` processes.
    /// Everything that turns outside input — a wire `Create`, a scenario
    /// file — into an `Algorithm` checks this before
    /// [`Algorithm::instantiate`], which panics on what it rejects.
    pub fn runs_with(self, n: usize) -> bool {
        match self {
            Algorithm::WeakenedMajority { threshold } => (1..=n).contains(&(threshold as usize)),
            Algorithm::MajorityBackoff { cap } => n >= 1 && cap >= 1,
            _ => n >= 1,
        }
    }

    /// Instantiates the protocol state machine for a system of `n`
    /// processes. Panics unless [`Algorithm::runs_with`] accepts `n`.
    pub fn instantiate(self, n: usize) -> Box<dyn AnonProcess + Send> {
        match self {
            Algorithm::Majority => Box::new(MajorityUrb::new(n)),
            Algorithm::WeakenedMajority { threshold } => {
                Box::new(MajorityUrb::with_threshold(n, threshold as usize))
            }
            Algorithm::Quiescent => Box::new(QuiescentUrb::new()),
            Algorithm::QuiescentLiteral => Box::new(QuiescentUrb::with_rule(PruneRule::Literal)),
            Algorithm::MajorityBackoff { cap } => Box::new(BackoffUrb::new(n, cap)),
            Algorithm::BestEffort => Box::new(BestEffortBroadcast::new()),
            Algorithm::EagerRb => Box::new(EagerReliableBroadcast::new()),
        }
    }

    /// Whether this algorithm consults the failure detectors.
    pub fn needs_fd(self) -> bool {
        matches!(self, Algorithm::Quiescent | Algorithm::QuiescentLiteral)
    }

    /// Wire code for this algorithm as an `(algorithm, param)` pair — the
    /// payload of a `TopicControl::Create` control message (DESIGN.md §15).
    /// `param` carries the threshold / backoff cap for the parameterized
    /// variants and is `0` otherwise. Round-trips through
    /// [`Algorithm::from_wire`] for the paper's two algorithms only.
    pub fn to_wire(self) -> (u8, u32) {
        match self {
            Algorithm::Majority => (0, 0),
            Algorithm::WeakenedMajority { threshold } => (1, threshold),
            Algorithm::Quiescent => (2, 0),
            Algorithm::QuiescentLiteral => (3, 0),
            Algorithm::MajorityBackoff { cap } => (4, cap),
            Algorithm::BestEffort => (5, 0),
            Algorithm::EagerRb => (6, 0),
        }
    }

    /// Decodes the `(algorithm, param)` wire pair of a create that arrived
    /// from a peer or a client. Only the paper's two algorithms decode: any
    /// peer can send a create, and a cluster must never serve a topic with
    /// a broadcast that is not uniform. The other codes stay reserved —
    /// the ablations are built by the simulator and the checker, which
    /// never decode a create — and return `None`, as an unknown code does.
    pub fn from_wire(code: u8, _param: u32) -> Option<Algorithm> {
        match code {
            0 => Some(Algorithm::Majority),
            2 => Some(Algorithm::Quiescent),
            _ => None,
        }
    }

    /// Short name used in experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Majority => "alg1-majority",
            Algorithm::WeakenedMajority { .. } => "alg1-weakened",
            Algorithm::Quiescent => "alg2-quiescent",
            Algorithm::QuiescentLiteral => "alg2-literal",
            Algorithm::MajorityBackoff { .. } => "alg1-backoff",
            Algorithm::BestEffort => "best-effort",
            Algorithm::EagerRb => "eager-rb",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instantiate_names_match() {
        for (alg, name) in [
            (Algorithm::Majority, "alg1-majority"),
            (Algorithm::Quiescent, "alg2-quiescent"),
            (Algorithm::BestEffort, "best-effort"),
            (Algorithm::EagerRb, "eager-rb"),
        ] {
            assert_eq!(alg.name(), name);
            let p = alg.instantiate(5);
            assert!(!p.algorithm_name().is_empty());
        }
    }

    #[test]
    fn wire_codes_round_trip() {
        for alg in EVERY_ALGORITHM {
            let (code, param) = alg.to_wire();
            let paper = matches!(alg, Algorithm::Majority | Algorithm::Quiescent);
            let decoded = Algorithm::from_wire(code, param);
            assert_eq!(decoded, paper.then_some(alg), "{}", alg.name());
        }
        assert_eq!(Algorithm::from_wire(200, 0), None);
    }

    #[test]
    fn uninstantiable_parameters_are_rejected_not_asserted() {
        // A zero threshold or cap is refused at decode, as every ablation
        // code is.
        assert_eq!(Algorithm::from_wire(1, 0), None);
        assert_eq!(Algorithm::from_wire(4, 0), None);
        // The rest depends on n.
        assert!(!Algorithm::WeakenedMajority { threshold: 9 }.runs_with(4));
        assert!(Algorithm::WeakenedMajority { threshold: 4 }.runs_with(4));
        assert!(!Algorithm::MajorityBackoff { cap: 0 }.runs_with(4));
        assert!(Algorithm::MajorityBackoff { cap: u32::MAX }.runs_with(4));
        assert!(!Algorithm::Quiescent.runs_with(0));
        // Whatever `runs_with` accepts, `instantiate` builds.
        for alg in [
            Algorithm::WeakenedMajority { threshold: 1 },
            Algorithm::MajorityBackoff { cap: u32::MAX },
        ] {
            assert!(alg.runs_with(1));
            let _ = alg.instantiate(1);
        }
    }

    const EVERY_ALGORITHM: [Algorithm; 7] = [
        Algorithm::Majority,
        Algorithm::WeakenedMajority { threshold: 2 },
        Algorithm::Quiescent,
        Algorithm::QuiescentLiteral,
        Algorithm::MajorityBackoff { cap: 8 },
        Algorithm::BestEffort,
        Algorithm::EagerRb,
    ];

    proptest::proptest! {
        /// What lets `TopicEngine::tick_all` skip quiescent topics
        /// (DESIGN.md §16): for every variant a driver can instantiate, a
        /// quiescent instance's Task 1 is a no-op. A variant that keeps
        /// per-instance tick state fails here.
        #[test]
        fn a_quiescent_instance_ignores_ticks(
            ops in table::testkit::ops(),
            bounded in proptest::prelude::any::<bool>(),
        ) {
            for alg in EVERY_ALGORITHM {
                let mut p = alg.instantiate(5);
                if bounded {
                    p.configure_memory(table::testkit::mem());
                }
                table::testkit::quiescent_tick_is_a_noop(p.as_mut(), &ops);
            }
        }
    }

    /// The check above bites: best-effort broadcast plus the kind of state
    /// the contract forbids — a sweep counter that advances while the
    /// instance claims quiescence.
    #[test]
    #[should_panic(expected = "state moved")]
    fn the_quiescence_check_catches_per_instance_tick_state() {
        use urb_types::{Context, Payload, ProcessStats, Tag, WireMessage};
        struct CountsSweeps(BestEffortBroadcast, usize);
        impl AnonProcess for CountsSweeps {
            fn urb_broadcast(&mut self, payload: Payload, ctx: &mut Context<'_>) -> Tag {
                self.0.urb_broadcast(payload, ctx)
            }
            fn on_receive(&mut self, msg: WireMessage, ctx: &mut Context<'_>) {
                self.0.on_receive(msg, ctx)
            }
            fn on_tick(&mut self, _ctx: &mut Context<'_>) {
                self.1 += 1;
            }
            fn is_quiescent(&self) -> bool {
                true
            }
            fn stats(&self) -> ProcessStats {
                ProcessStats {
                    label_counters: self.1,
                    ..self.0.stats()
                }
            }
            fn algorithm_name(&self) -> &'static str {
                "counts-sweeps"
            }
        }
        let mut p = CountsSweeps(BestEffortBroadcast::new(), 0);
        table::testkit::quiescent_tick_is_a_noop(&mut p, &[(6, 0, 0, Vec::new())]);
    }

    /// At topic scale most instances are idle or hold one settled record:
    /// an idle one is two empty maps, three words each, and a pointer
    /// where the bounded-memory state would be.
    #[test]
    fn idle_instances_are_at_most_96_bytes() {
        assert!(std::mem::size_of::<QuiescentUrb>() <= 96);
        assert!(std::mem::size_of::<MajorityUrb>() <= 96);
    }

    #[test]
    fn fd_requirements() {
        assert!(!Algorithm::Majority.needs_fd());
        assert!(Algorithm::Quiescent.needs_fd());
        assert!(Algorithm::QuiescentLiteral.needs_fd());
        assert!(!Algorithm::BestEffort.needs_fd());
    }
}
