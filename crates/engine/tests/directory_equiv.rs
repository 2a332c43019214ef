//! Property test: the O(1) topic directory (DESIGN.md §16) is
//! observationally equivalent to the binary-search-plus-tombstone-set
//! representation it replaced.
//!
//! A `Model` keeps the old layout — a sorted `Vec` of (topic, draining)
//! probed by `binary_search`, plus a `BTreeSet` of retired tombstones —
//! and both it and a real [`TopicEngine`] are driven through the same
//! random create/retire/tick churn. After every operation the engine's
//! one-probe [`TopicEngine::resolve`] verdicts and lifecycle
//! [`EngineCounters`](urb_engine::EngineCounters) must match the model
//! exactly, across the dense, slack-boundary and hash-map id lanes.

use proptest::prelude::*;
use std::collections::BTreeSet;
use urb_engine::{MuxBuffers, TopicEngine, TopicState};
use urb_types::{
    AnonProcess, Context, FdSnapshot, Payload, ProcessStats, SplitMix64, Tag, TopicId, WireMessage,
};

/// Always-quiescent stub protocol: retirement drains instantly, so one
/// tick sweep reaps every draining slot — the model's `tick` mirrors
/// exactly that.
struct Inert;

impl AnonProcess for Inert {
    fn urb_broadcast(&mut self, _payload: Payload, ctx: &mut Context<'_>) -> Tag {
        Tag::random(ctx.rng)
    }
    fn on_receive(&mut self, _msg: WireMessage, _ctx: &mut Context<'_>) {}
    fn on_tick(&mut self, _ctx: &mut Context<'_>) {}
    fn is_quiescent(&self) -> bool {
        true
    }
    fn stats(&self) -> ProcessStats {
        ProcessStats::default()
    }
    fn algorithm_name(&self) -> &'static str {
        "inert"
    }
}

fn inert() -> Box<dyn AnonProcess + Send> {
    Box::new(Inert)
}

/// The pre-directory representation, verbatim: sorted slot vector probed
/// by binary search, tombstones in an ordered set.
#[derive(Default)]
struct Model {
    /// (topic, draining), ascending by topic.
    slots: Vec<(TopicId, bool)>,
    retired: BTreeSet<TopicId>,
    created: u64,
    retired_ct: u64,
    reclaimed: u64,
}

impl Model {
    fn slot_index(&self, t: TopicId) -> Option<usize> {
        self.slots.binary_search_by_key(&t, |s| s.0).ok()
    }

    fn resolve(&self, t: TopicId) -> TopicState {
        match self.slot_index(t) {
            Some(i) if self.slots[i].1 => TopicState::Draining(i),
            Some(i) => TopicState::Live(i),
            None if self.retired.contains(&t) => TopicState::Retired,
            None => TopicState::Unknown,
        }
    }

    fn create(&mut self, t: TopicId) -> bool {
        match self.slots.binary_search_by_key(&t, |s| s.0) {
            Ok(_) => false,
            Err(at) => {
                self.retired.remove(&t);
                self.slots.insert(at, (t, false));
                self.created += 1;
                true
            }
        }
    }

    fn retire(&mut self, t: TopicId) -> bool {
        match self.slot_index(t) {
            Some(i) if !self.slots[i].1 => {
                self.slots[i].1 = true;
                self.retired_ct += 1;
                true
            }
            _ => false,
        }
    }

    fn tick(&mut self) {
        let mut i = 0;
        while i < self.slots.len() {
            if self.slots[i].1 {
                let (t, _) = self.slots.remove(i);
                self.retired.insert(t);
                self.reclaimed += 1;
            } else {
                i += 1;
            }
        }
    }
}

/// One churn operation.
#[derive(Clone, Copy, Debug)]
enum Op {
    Create(TopicId),
    Retire(TopicId),
    Tick,
}

/// Ids spanning all three directory lanes: dense, the dense-growth slack
/// boundary, and the genuinely sparse hash-map fallback.
fn arb_topic() -> impl Strategy<Value = TopicId> {
    prop_oneof![
        (0u32..10u32).prop_map(TopicId),
        (4090u32..4110u32).prop_map(TopicId),
        (1_000_000u32..1_000_004u32).prop_map(TopicId),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_topic().prop_map(Op::Create),
        arb_topic().prop_map(Op::Retire),
        (0u32..1u32).prop_map(|_| Op::Tick),
    ]
}

proptest! {
    /// Directory and binary-search model agree on every verdict, after
    /// every operation, for every id either side has ever seen.
    #[test]
    fn directory_matches_binary_search_under_churn(ops in proptest::collection::vec(arb_op(), 0..80)) {
        let fd = FdSnapshot::none();
        let mut mux = MuxBuffers::new();
        let mut engine = TopicEngine::new(vec![inert()], SplitMix64::new(0xD12));
        let mut model = Model::default();
        model.slots.push((TopicId(0), false));

        let mut probe: BTreeSet<TopicId> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Create(t) | Op::Retire(t) => Some(*t),
                Op::Tick => None,
            })
            .collect();
        probe.insert(TopicId(0));
        probe.insert(TopicId(7));
        probe.insert(TopicId(4100));
        probe.insert(TopicId(1_000_002));
        probe.insert(TopicId(u32::MAX / 2)); // never touched: stays Unknown

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Create(t) => {
                    prop_assert_eq!(engine.create_topic(t, inert()), model.create(t), "create {} at op {}", t, step);
                }
                Op::Retire(t) => {
                    prop_assert_eq!(engine.retire_topic(t), model.retire(t), "retire {} at op {}", t, step);
                }
                Op::Tick => {
                    engine.tick_all(&fd, &mut mux);
                    model.tick();
                }
            }
            for &t in &probe {
                prop_assert_eq!(
                    engine.resolve(t), model.resolve(t),
                    "verdict for {} diverged after op {} ({:?})", t, step, op
                );
                prop_assert_eq!(engine.resolve(t) == TopicState::Retired, model.retired.contains(&t));
            }
            prop_assert_eq!(engine.topic_count(), model.slots.len());
        }

        let c = engine.counters();
        prop_assert_eq!(c.topics_created, model.created);
        prop_assert_eq!(c.topics_retired, model.retired_ct);
        prop_assert_eq!(c.topics_reclaimed, model.reclaimed);
        let lives: Vec<TopicId> = engine.live_topics().collect();
        let model_lives: Vec<TopicId> = model.slots.iter().filter(|s| !s.1).map(|s| s.0).collect();
        prop_assert_eq!(lives, model_lives);
    }
}
