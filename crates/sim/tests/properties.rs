//! Property tests for the simulator substrate itself: the checker, the
//! channel models and the crash plans. (Whole-run properties live in the
//! workspace-level `tests/` directory.)

use proptest::prelude::*;
use urb_sim::channel::{Channel, DelayModel};
use urb_sim::metrics::{BroadcastRecord, DeliveryRecord};
use urb_sim::{check_urb, CrashPlan, CrashRule, LossModel};
use urb_types::{Payload, Tag, TopicId, WireMessage, Xoshiro256};

fn body() -> Payload {
    Payload::from("m")
}

/// One single-message frame on topic 0: its arrival delay, or `None` when
/// the channel lost it.
fn send(c: &mut Channel, m: &WireMessage) -> Option<u64> {
    c.transmit_entries(&[(TopicId::ZERO, m.clone())], &mut Vec::new())
}

fn arb_history(
    n: usize,
) -> impl Strategy<Value = (Vec<bool>, Vec<BroadcastRecord>, Vec<DeliveryRecord>)> {
    let correct = proptest::collection::vec(any::<bool>(), n);
    let broadcasts = proptest::collection::vec((0..n, 0u8..6, 0u64..100), 0..6).prop_map(|v| {
        v.into_iter()
            .map(|(pid, tag, time)| BroadcastRecord {
                pid,
                topic: urb_types::TopicId::ZERO,
                tag: Tag(tag as u128),
                time,
                payload: body(),
            })
            .collect::<Vec<_>>()
    });
    let deliveries = proptest::collection::vec((0..n, 0u8..6, 0u64..200), 0..20).prop_map(|v| {
        v.into_iter()
            .map(|(pid, tag, time)| DeliveryRecord {
                pid,
                topic: urb_types::TopicId::ZERO,
                tag: Tag(tag as u128),
                time,
                fast: false,
                payload: body(),
            })
            .collect::<Vec<_>>()
    });
    (correct, broadcasts, deliveries)
}

proptest! {
    /// The checker agrees with an independent reference implementation of
    /// the three URB predicates on arbitrary histories.
    #[test]
    fn checker_matches_reference((correct, broadcasts, deliveries) in arb_history(4)) {
        let n = correct.len();
        let report = check_urb(n, &correct, &broadcasts, &deliveries);

        // Reference predicates, written independently (set-based).
        use std::collections::{BTreeMap, BTreeSet};
        let mut per: Vec<BTreeMap<Tag, usize>> = vec![BTreeMap::new(); n];
        for d in &deliveries {
            *per[d.pid].entry(d.tag).or_insert(0) += 1;
        }
        let broadcast_tags: BTreeSet<Tag> = broadcasts.iter().map(|b| b.tag).collect();

        let ref_validity = broadcasts
            .iter()
            .all(|b| !correct[b.pid] || per[b.pid].contains_key(&b.tag));
        let delivered_any: BTreeSet<Tag> = deliveries.iter().map(|d| d.tag).collect();
        let ref_agreement = delivered_any.iter().all(|t| {
            (0..n).all(|p| !correct[p] || per[p].contains_key(t))
        });
        let ref_integrity = (0..n).all(|p| {
            per[p]
                .iter()
                .all(|(t, &c)| c == 1 && broadcast_tags.contains(t))
        });

        prop_assert_eq!(report.validity.ok(), ref_validity);
        prop_assert_eq!(report.agreement.ok(), ref_agreement);
        prop_assert_eq!(report.integrity.ok(), ref_integrity);
        prop_assert_eq!(report.all_ok(), ref_validity && ref_agreement && ref_integrity);
    }

    /// Bounded-consecutive-loss channels deterministically satisfy the
    /// fairness axiom: any message transmitted `max_consecutive + 1` times
    /// in a row is delivered at least once, at every loss probability.
    #[test]
    fn bounded_channel_fairness(p in 0.0f64..1.0, cap in 1u32..8, seed in any::<u64>()) {
        let mut c = Channel::new(
            LossModel::BoundedBernoulli { p, max_consecutive: cap },
            DelayModel::Constant(1),
            Xoshiro256::new(seed),
        );
        let m = WireMessage::Msg { tag: Tag(42), payload: Payload::from("m") };
        for _round in 0..20 {
            let delivered = (0..=cap).any(|_| send(&mut c, &m).is_some());
            prop_assert!(delivered, "a window of cap+1 sends must deliver");
        }
    }

    /// Delay models always produce strictly positive delays within their
    /// declared bounds.
    #[test]
    fn delays_positive_and_bounded(
        min in 0u64..5,
        span in 0u64..10,
        seed in any::<u64>(),
    ) {
        let mut c = Channel::new(
            LossModel::None,
            DelayModel::Uniform { min, max: min + span },
            Xoshiro256::new(seed),
        );
        let m = WireMessage::Msg { tag: Tag(1), payload: Payload::from("x") };
        for _ in 0..200 {
            match send(&mut c, &m) {
                Some(delay) => {
                    prop_assert!(delay >= 1);
                    prop_assert!(delay <= (min + span).max(1));
                }
                None => prop_assert!(false, "reliable channel dropped"),
            }
        }
    }

    /// Random crash plans always leave at least one correct process, crash
    /// exactly `t`, and are seed-deterministic.
    #[test]
    fn crash_plans_well_formed(n in 2usize..10, seed in any::<u64>()) {
        let t = n - 1;
        let a = CrashPlan::random(n, t, 1_000, seed, None);
        let b = CrashPlan::random(n, t, 1_000, seed, None);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.faulty_count(), t);
        prop_assert_eq!((0..n).filter(|&i| a.rule(i) == CrashRule::Never).count(), 1);
    }

    /// Protecting a pid really protects it, for every (n, t, seed).
    #[test]
    fn crash_plan_protection(n in 2usize..8, seed in any::<u64>()) {
        let protect = (seed as usize) % n;
        let t = n - 1;
        let plan = CrashPlan::random(n, t, 500, seed, Some(protect));
        prop_assert_eq!(plan.rule(protect), CrashRule::Never);
        prop_assert_eq!(plan.faulty_count(), t);
    }
}

// ---------------------------------------------------------------------------
// Topic-lifecycle interleavings (DESIGN.md §15). Model-based: an arbitrary
// sequence of create / retire / broadcast / tick operations is applied to a `TopicEngine` next to a trivial reference
// model of the lifecycle state machine, and the two must agree after every
// step — in particular, no instance ever serves traffic after retirement
// and a re-created `TopicId` always starts clean.
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
enum LifecycleOp {
    Create(u32),
    Retire(u32),
    Broadcast(u32),
    Tick,
}

fn arb_lifecycle_ops() -> impl Strategy<Value = Vec<LifecycleOp>> {
    let op = prop_oneof![
        (1u32..5).prop_map(LifecycleOp::Create),
        (0u32..5).prop_map(LifecycleOp::Retire),
        (0u32..5).prop_map(LifecycleOp::Broadcast),
        (0u32..1).prop_map(|_| LifecycleOp::Tick),
    ];
    proptest::collection::vec(op, 1..60)
}

proptest! {
    #[test]
    fn lifecycle_interleavings_respect_the_state_machine(ops in arb_lifecycle_ops()) {
        use std::collections::BTreeSet;
        use urb_core::Algorithm;
        use urb_engine::{MuxBuffers, StepInput, TopicEngine};
        use urb_types::{FdSnapshot, SplitMix64};

        let n = 3;
        // Topic 0 is the static plane; 1..5 are dynamic. A short drain
        // budget keeps retirement resolving within a few ticks even for
        // the never-quiescent majority algorithm.
        let mut engine = TopicEngine::new(
            vec![Algorithm::Majority.instantiate(n)],
            SplitMix64::new(7),
        );
        engine.set_drain_limit(2);
        let fd = FdSnapshot::none();
        let mut mux = MuxBuffers::new();

        // Reference model: the slot map is `live ∪ draining`; `retired`
        // holds reaped tombstones; `ever_retired` drives the
        // starts-clean check on re-creation.
        let mut live: BTreeSet<TopicId> = [TopicId::ZERO].into();
        let mut draining: BTreeSet<TopicId> = BTreeSet::new();
        let mut broadcasts_on_live = 0u64;

        for op in ops {
            match op {
                LifecycleOp::Create(t) => {
                    let t = TopicId(t);
                    let held = engine.stats().total();
                    let fresh = engine.create_topic(t, Algorithm::Majority.instantiate(n));
                    let expect_fresh = !live.contains(&t) && !draining.contains(&t);
                    prop_assert_eq!(fresh, expect_fresh, "create idempotency on {}", t);
                    if expect_fresh {
                        prop_assert_eq!(
                            engine.stats().total(), held,
                            "(re-)created topic {} must start clean", t
                        );
                        live.insert(t);
                    }
                }
                LifecycleOp::Retire(t) => {
                    let t = TopicId(t);
                    let did = engine.retire_topic(t);
                    prop_assert_eq!(did, live.contains(&t), "retire gating on {}", t);
                    if live.remove(&t) {
                        draining.insert(t);
                    }
                }
                LifecycleOp::Broadcast(t) => {
                    let t = TopicId(t);
                    if live.contains(&t) {
                        // Only live topics accept broadcasts (the driver
                        // contract: it checks `is_live` first).
                        prop_assert!(engine.is_live(t));
                        let tag = engine.step_mux(
                            t,
                            StepInput::Broadcast(Payload::from("p")),
                            &fd,
                            &mut mux,
                        );
                        prop_assert!(tag.is_some());
                        broadcasts_on_live += 1;
                        mux.clear();
                    } else {
                        prop_assert!(!engine.is_live(t), "{} must not be live", t);
                    }
                }
                LifecycleOp::Tick => {
                    engine.tick_all(&fd, &mut mux);
                    // tick_all reaps: every draining topic with an expired
                    // budget (limit 2) disappears within 3 ticks; model
                    // conservatively — after each tick a draining topic
                    // either still holds an instance or is tombstoned.
                    let reaped: Vec<TopicId> = draining
                        .iter()
                        .copied()
                        .filter(|&t| !engine.has_instance(t))
                        .collect();
                    for t in reaped {
                        draining.remove(&t);
                    }
                    mux.clear();
                }
            }

            // Engine and model agree on the lifecycle state machine.
            for t in 0..5u32 {
                let t = TopicId(t);
                prop_assert_eq!(engine.is_live(t), live.contains(&t), "liveness of {}", t);
                prop_assert_eq!(
                    engine.has_instance(t),
                    live.contains(&t) || draining.contains(&t),
                    "instance map of {}", t
                );
                if engine.resolve(t) == urb_engine::TopicState::Retired {
                    // Reaped means gone: a retired topic holds no state
                    // and serves no traffic until re-created.
                    prop_assert!(!engine.has_instance(t));
                }
            }
        }

        // Drain every remaining retirement: within drain-limit + 1 ticks
        // every draining instance must be reaped and counted.
        for _ in 0..4 {
            engine.tick_all(&fd, &mut mux);
            mux.clear();
        }
        let c = engine.counters();
        prop_assert_eq!(
            c.topics_retired, c.topics_reclaimed,
            "every retirement resolves to a reclaim within the budget"
        );
        prop_assert!(c.broadcasts >= broadcasts_on_live);
    }
}
