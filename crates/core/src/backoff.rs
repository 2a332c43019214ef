//! **Extension** — Algorithm 1 with exponential retransmission backoff.
//!
//! The paper's Task 1 rebroadcasts every message in `MSG` on *every* sweep,
//! forever. Fairness only requires each message to be sent *infinitely
//! often* — nothing says how densely. This variant spaces retransmissions
//! of each message exponentially, which:
//!
//! * preserves every URB property — the fairness precondition ("sent
//!   infinitely often") still holds, so all of the paper's proofs go
//!   through unchanged;
//! * cuts steady-state traffic from `Θ(messages)` per sweep to
//!   `Θ(messages / cap)` per sweep;
//! * pays with tail latency under loss: a dropped wave now waits up to
//!   `cap + 1` sweeps for the next attempt.
//!
//! The schedule: a message is sent on the first sweep after it enters
//! `MSG`; each send doubles its `interval` (starting from 1, capped at
//! `cap`) and the next send follows `interval` skipped sweeps later — a gap
//! of `interval + 1` sweeps: 3, 5, 9, … up to `cap + 1` in steady state.
//! Even `cap = 1` therefore sends every *other* sweep, not every sweep as
//! the faithful algorithm does.
//!
//! Experiment E13 quantifies the trade-off against the faithful algorithm.
//! This is exactly the kind of engineering the paper leaves on the table by
//! never evaluating its algorithms. The reception path (lines 7–27) *is*
//! [`MajorityUrb`](crate::MajorityUrb)'s; only Task 1 is re-paced.

use crate::evidence::AckSet;
use crate::majority;
use crate::table::TagTable;
use urb_types::{AnonProcess, Context, Payload, ProcessStats, Tag, WireMessage};

/// Per-message retransmission pacing, kept beside each `MSG` entry.
#[derive(Clone, Copy, Debug)]
struct Pacing {
    /// Sweeps skipped after the latest send.
    interval: u32,
    /// Sweeps until the next send (0 = send on this sweep).
    countdown: u32,
}

impl Default for Pacing {
    fn default() -> Self {
        Pacing {
            interval: 1,
            countdown: 0,
        }
    }
}

/// Algorithm 1 with exponential Task-1 backoff (cap in sweeps).
#[derive(Debug)]
pub struct BackoffUrb {
    threshold: usize,
    cap: u32,
    table: TagTable<AckSet, Pacing>,
}

impl BackoffUrb {
    /// New instance for `n` processes that skips at most `cap` sweeps
    /// between two retransmissions of a message (see the module docs for
    /// the exact schedule).
    pub fn new(n: usize, cap: u32) -> Self {
        assert!(n >= 1);
        assert!(cap >= 1, "a zero cap would stop retransmission entirely");
        BackoffUrb {
            threshold: n / 2 + 1,
            cap,
            table: TagTable::default(),
        }
    }
}

impl AnonProcess for BackoffUrb {
    fn urb_broadcast(&mut self, payload: Payload, ctx: &mut Context<'_>) -> Tag {
        self.table.urb_broadcast(payload, ctx)
    }

    fn on_receive(&mut self, msg: WireMessage, ctx: &mut Context<'_>) {
        majority::on_receive(&mut self.table, self.threshold, msg, ctx);
    }

    fn on_tick(&mut self, ctx: &mut Context<'_>) {
        let cap = self.cap;
        self.table.task1(ctx, |_, _, pacing| {
            let due = pacing.countdown == 0;
            if due {
                pacing.interval = pacing.interval.saturating_mul(2).min(cap);
                pacing.countdown = pacing.interval;
            } else {
                pacing.countdown -= 1;
            }
            (due, true)
        });
    }

    fn is_quiescent(&self) -> bool {
        self.table.is_quiescent()
    }

    fn stats(&self) -> ProcessStats {
        self.table.stats()
    }

    fn algorithm_name(&self) -> &'static str {
        "alg1-backoff"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::StepHarness;

    fn msg(tag: u128) -> WireMessage {
        WireMessage::Msg {
            tag: Tag(tag),
            payload: Payload::from("m"),
        }
    }

    #[test]
    fn backoff_spaces_retransmissions_exponentially() {
        let mut h = StepHarness::new(1);
        let mut p = BackoffUrb::new(3, 8);
        h.receive(&mut p, msg(1));
        // Sweep schedule for cap 8: gaps 2, 4, 8, 8, … after the first send
        // (interval doubles when a send happens).
        let mut sent_at = Vec::new();
        for sweep in 0..40 {
            if !h.tick(&mut p).msgs().is_empty() {
                sent_at.push(sweep);
            }
        }
        assert_eq!(&sent_at[..5], &[0, 3, 8, 17, 26]);
        let gaps: Vec<_> = sent_at.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(gaps.iter().all(|&g| g <= 9), "gap never exceeds cap+1");
        assert!(gaps[gaps.len() - 1] == 9, "steady-state gap = cap+1 sweeps");
    }

    #[test]
    fn cap_one_matches_faithful_schedule() {
        let mut h = StepHarness::new(2);
        let mut p = BackoffUrb::new(3, 1);
        h.receive(&mut p, msg(1));
        let mut sends = 0;
        for _ in 0..10 {
            sends += h.tick(&mut p).msgs().len();
        }
        // cap=1: interval stays 1 → send every other sweep at worst
        // (send, countdown=1, skip, send, …).
        assert!(sends >= 5, "cap-1 backoff sends at least every other sweep");
    }

    #[test]
    fn stable_tag_ack_across_retransmissions() {
        let mut h = StepHarness::new(4);
        let mut p = BackoffUrb::new(3, 4);
        let ta = |o: &crate::harness::StepOut| match o.acks()[0] {
            WireMessage::Ack { tag_ack, .. } => *tag_ack,
            _ => panic!(),
        };
        let a = ta(&h.receive(&mut p, msg(1)));
        let b = ta(&h.receive(&mut p, msg(1)));
        assert_eq!(a, b);
    }

    #[test]
    fn never_quiescent_like_the_original() {
        let mut h = StepHarness::new(5);
        let mut p = BackoffUrb::new(3, 4);
        h.receive(&mut p, msg(1));
        assert!(
            !p.is_quiescent(),
            "backoff thins traffic, it does not stop it"
        );
        // Over any long window there are still sends (fairness preserved).
        let mut sends = 0;
        for _ in 0..50 {
            sends += h.tick(&mut p).msgs().len();
        }
        assert!(sends >= 9, "roughly one send per cap+1 sweeps");
    }

    #[test]
    #[should_panic(expected = "zero cap")]
    fn zero_cap_rejected() {
        let _ = BackoffUrb::new(3, 0);
    }

    mod props {
        use super::*;
        use crate::MajorityUrb;
        use proptest::prelude::*;
        use urb_types::TagAck;

        proptest! {
            /// The same reception script drives `BackoffUrb` and
            /// `MajorityUrb` to identical ACKs, deliveries and state sizes;
            /// ticks in between only change *when* Task 1 sends, never what
            /// the reception path does.
            #[test]
            fn reception_identical_to_majority(
                cap in 1u32..6,
                script in proptest::collection::vec((0u8..3, 0u8..5, 0u8..6), 1..120),
            ) {
                let (mut hb, mut hm) = (StepHarness::new(9), StepHarness::new(9));
                let (mut b, mut m) = (BackoffUrb::new(5, cap), MajorityUrb::new(5));
                let (mut sent_b, mut sent_m) = (0usize, 0usize);
                for (kind, tg, ta) in script {
                    let tag = Tag(tg as u128);
                    let input = match kind {
                        0 => msg(tg as u128),
                        1 => WireMessage::Ack {
                            tag,
                            tag_ack: TagAck(ta as u128),
                            payload: Payload::from("m"),
                            labels: None,
                        },
                        _ => {
                            sent_b += hb.tick(&mut b).msgs().len();
                            sent_m += hm.tick(&mut m).msgs().len();
                            continue;
                        }
                    };
                    let (ob, om) = (hb.receive(&mut b, input.clone()), hm.receive(&mut m, input));
                    prop_assert_eq!(ob.broadcasts, om.broadcasts);
                    prop_assert_eq!(ob.deliveries, om.deliveries);
                    prop_assert_eq!(b.stats(), m.stats());
                }
                prop_assert!(sent_b <= sent_m, "backoff never sends more than every sweep");
                b.table.assert_consistent();
            }
        }
    }
}
