//! The exploration state machine: a scenario's protocol state as a pure,
//! replayable function of a **choice sequence**.
//!
//! The simulator resolves every source of nondeterminism — delivery
//! order, message loss, crash instants — from its seed; the checker
//! resolves the same nondeterminism from explicit [`Choice`]s instead,
//! so a schedule becomes a first-class, enumerable, serializable value.
//! A [`CheckModel`] is built from a [`ScenarioSpec`]; [`CheckState`]
//! applies choices one at a time by stepping the same [`World`] the
//! simulator steps, reads the new choice points off the step's buffers,
//! checks the URB integrity invariants
//! after every step, and evaluates the eventual properties (validity,
//! agreement) at *silent* states — states where no choice is enabled and
//! every surviving process is quiescent, so nothing can ever happen
//! again and "eventually" is decided.
//!
//! What carries over from the compiled scenario, and what the explorer
//! owns (DESIGN.md §11):
//!
//! * **carried over** — system size, algorithm, the `[memory]` table
//!   (the world is built by the simulator's own constructor), workload (in
//!   plan order), the crash *rules* (which processes the adversary may kill,
//!   and for `on_first_delivery` rules, when the choice arms), and
//!   structurally severed links (`loss = "always"` overrides);
//! * **replaced by choices** — probabilistic loss becomes the bounded
//!   [`Choice::Drop`] budget, delay distributions and blackout windows
//!   become [`Choice::Deliver`] *order*, tick phases become bounded
//!   [`Choice::Tick`]s. Time itself is abstracted to the step index.

use std::collections::BTreeSet;
use urb_fd::{FdService, NoFd};
use urb_sim::checker::{check_urb, CheckReport};
use urb_sim::metrics::{BroadcastRecord, DeliveryRecord};
use urb_sim::{
    CheckBounds, CrashRule, LossModel, PlannedBroadcast, ScenarioSpec, SimConfig, SpecError, World,
};
use urb_types::{FdPair, FdSnapshot, FdView, Label, TopicId, WireMessage};

/// One resolved nondeterministic decision — the unit of exploration and
/// of counterexample replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Choice {
    /// Issue the next planned `URB_broadcast` (plan order).
    Broadcast,
    /// Deliver the pending message at `slot` to its destination.
    Deliver {
        /// Index into the pending-message list at apply time.
        slot: usize,
    },
    /// Adversarially drop the pending message at `slot` (batch thinning;
    /// draws from the scenario's `check.max_drops` budget).
    Drop {
        /// Index into the pending-message list at apply time.
        slot: usize,
    },
    /// Run one Task-1 sweep at `pid` (draws from `check.tick_budget`).
    Tick {
        /// The sweeping process.
        pid: usize,
    },
    /// Crash `pid` (enabled only for processes the scenario's crash plan
    /// marks crash-eligible; `on_first_delivery` rules arm after the
    /// first URB-delivery at that process).
    Crash {
        /// The crashing process.
        pid: usize,
    },
    /// Apply the next planned topic-lifecycle event (DESIGN.md §15):
    /// create or retire the plan's topic at every surviving process
    /// atomically, exactly like the simulator's global lifecycle plane.
    /// The plan interleaves with broadcasts in compiled-time order (the
    /// cursor is implicit, like [`Choice::Broadcast`]'s), but the event
    /// itself is a first-class choice point: the explorer schedules it
    /// before or after any pending delivery, tick or crash, checking —
    /// among everything else — that no schedule delivers into a
    /// reclaimed instance.
    TopicEvent,
}

/// One undelivered wire message — a pending deliver-or-drop choice.
#[derive(Clone, Debug)]
pub struct PendingMsg {
    /// Sending process (provenance; drops are forbidden on self-links,
    /// which the fair-lossy model keeps reliable).
    pub from: usize,
    /// Destination process.
    pub to: usize,
    /// The URB instance the message belongs to ([`TopicId::ZERO`] on
    /// single-topic scenarios).
    pub topic: TopicId,
    /// The message itself.
    pub msg: WireMessage,
}

/// The immutable part of an exploration: everything derived from the
/// scenario spec once, shared by every replay.
pub struct CheckModel {
    /// The compiled scenario, with the effective seed. The explorer reads
    /// the plan, the crash rules and the fleet parameters off it; loss,
    /// delay and tick timing are what the choices replace.
    cfg: SimConfig,
    /// The workload in plan (time) order.
    planned: Vec<PlannedBroadcast>,
    severed: BTreeSet<(usize, usize)>,
    bounds: CheckBounds,
}

impl CheckModel {
    /// Builds the model from a spec (compiling it first, so every spec
    /// validation error surfaces here). `seed` overrides the spec's seed
    /// when given — it feeds the engines' tag RNG streams and the
    /// random-walk strategy.
    pub fn from_spec(spec: &ScenarioSpec, seed: Option<u64>) -> Result<Self, SpecError> {
        let mut cfg = spec.compile()?;
        cfg.seed = seed.unwrap_or(spec.seed);
        let mut planned = cfg.broadcasts.clone();
        planned.sort_by_key(|b| b.time);
        let severed = cfg
            .link_overrides
            .iter()
            .filter(|ov| matches!(ov.loss, LossModel::Always))
            .map(|ov| (ov.from, ov.to))
            .collect();
        Ok(CheckModel {
            cfg,
            planned,
            severed,
            bounds: spec.check.clone(),
        })
    }

    /// The seed the engines derive their tag streams from.
    pub fn seed(&self) -> u64 {
        self.cfg.seed
    }

    /// True when the scenario's crash plan can ever kill `pid` — i.e. its
    /// rule is anything but [`CrashRule::Never`]. The independence
    /// relation uses this: deliveries whose destinations the adversary
    /// can never crash commute freely, because no [`Choice::Crash`] can
    /// be interleaved between them to erase one of the two.
    pub fn crash_eligible(&self, pid: usize) -> bool {
        !matches!(self.cfg.crashes.rule(pid), CrashRule::Never)
    }

    /// A fresh initial state: the world the simulator would build for the
    /// same scenario (same seeding scheme, same memory and drain
    /// configuration), so the canonical FIFO exploration mirrors a seeded
    /// run — observed by the explorer's own detector instead of the
    /// scenario's.
    pub fn initial(&self) -> CheckState<'_> {
        let cfg = &self.cfg;
        let fd: Box<dyn FdService> = if cfg.algorithm.needs_fd() {
            Box::new(ExplorerFd {
                eligible: (0..cfg.n).map(|pid| self.crash_eligible(pid)).collect(),
                crashed: vec![false; cfg.n],
            })
        } else {
            Box::new(NoFd)
        };
        CheckState {
            model: self,
            world: World::new(cfg, World::streams(cfg.seed), fd),
            pending: Vec::new(),
            next_broadcast: 0,
            next_topic_event: 0,
            drops_used: 0,
            ticks_used: vec![0; cfg.n],
            steps: 0,
            broadcasts: Vec::new(),
            deliveries: Vec::new(),
            violation: None,
        }
    }
}

/// The perfect detector the explorer hands every step of an FD-using
/// algorithm: one label per *currently alive* process (crashed labels
/// removed instantly), each attributed `number = |alive ∧
/// crash-eligible| + 1`. That is the smallest attribution that keeps the
/// `AΘ` **accuracy** axiom true in every completion the explorer can
/// still choose: any `number`-sized subset of the label's knowers (all
/// alive processes) must contain one the adversary can never crash,
/// because at most `|alive ∧ crash-eligible|` of them are killable.
/// Over-counting is the safe direction — the protocol never delivers or
/// prunes on the strength of processes a later [`Choice::Crash`] could
/// erase, so a violation found under this detector is the algorithm's,
/// not the model's (DESIGN.md §11).
struct ExplorerFd {
    eligible: Vec<bool>,
    crashed: Vec<bool>,
}

impl FdService for ExplorerFd {
    fn on_tick(&mut self, _pid: usize, _now: u64, _out: &mut Vec<WireMessage>) {}
    fn on_receive(&mut self, _pid: usize, _now: u64, _msg: &WireMessage) {}
    fn on_crash(&mut self, pid: usize, _now: u64) {
        self.crashed[pid] = true;
    }
    fn snapshot(&self, _pid: usize, _now: u64) -> FdSnapshot {
        let alive = || (0..self.crashed.len()).filter(|&i| !self.crashed[i]);
        let number = alive().filter(|&i| self.eligible[i]).count() as u32 + 1;
        let view: FdView = alive()
            .map(|i| FdPair {
                label: Label(i as u64 + 1),
                number,
            })
            .collect();
        FdSnapshot::new(view.clone(), view)
    }
    fn name(&self) -> &'static str {
        "explorer"
    }
}

/// One explored protocol state: the world plus the explorer-owned
/// network/adversary bookkeeping. Reconstructed by replaying a choice
/// prefix from [`CheckModel::initial`] (states are not clonable — the
/// protocol instances are trait objects — so the explorer is *stateless*
/// in the model-checking sense).
pub struct CheckState<'m> {
    model: &'m CheckModel,
    /// What the choice being applied made a node emit and deliver is
    /// drained from its buffers into `pending` / `deliveries` before
    /// `apply` returns.
    world: World,
    /// Pending messages, in routing order; `Choice::Deliver`/`Drop`
    /// slots index this list at apply time.
    pending: Vec<PendingMsg>,
    next_broadcast: usize,
    next_topic_event: usize,
    drops_used: u32,
    ticks_used: Vec<u32>,
    steps: u64,
    broadcasts: Vec<BroadcastRecord>,
    deliveries: Vec<DeliveryRecord>,
    violation: Option<Vec<String>>,
}

impl<'m> CheckState<'m> {
    /// The URB-deliveries this execution produced so far.
    pub fn deliveries(&self) -> &[DeliveryRecord] {
        &self.deliveries
    }

    /// The pending messages, in routing order — the list
    /// [`Choice::Deliver`]/[`Choice::Drop`] slots index at apply time.
    /// The explorer reads it to name a slot's message by *identity*
    /// (`from`, `to`, topic, content) rather than by its shifting index,
    /// which is what the DPOR sleep sets key on.
    pub fn pending(&self) -> &[PendingMsg] {
        &self.pending
    }

    /// The first invariant violation this execution hit, if any
    /// (stepwise integrity, or the eventual properties at a silent
    /// state).
    pub fn violation(&self) -> Option<&[String]> {
        self.violation.as_deref()
    }

    /// Turns what the step at `pid` left in the buffers into explorer
    /// state. Every emission is routed to every destination — severed
    /// links swallow their copy structurally (no budget), copies to
    /// crashed processes vanish, everything else becomes a pending
    /// deliver-or-drop choice; every URB-delivery is recorded (and arms
    /// crash-on-delivery rules), then integrity is re-checked.
    fn finish_step(&mut self, pid: usize) {
        // Taken out and put back, so the buffer keeps its capacity.
        let mut outbox = std::mem::take(self.world.outbox(pid));
        for (topic, msg) in outbox.drain(..) {
            for to in 0..self.model.cfg.n {
                if self.model.severed.contains(&(pid, to)) || self.world.is_crashed(to) {
                    continue;
                }
                self.pending.push(PendingMsg {
                    from: pid,
                    to,
                    topic,
                    msg: msg.clone(),
                });
            }
        }
        *self.world.outbox(pid) = outbox;
        let before = self.deliveries.len();
        let deliveries = &mut self.deliveries;
        self.world
            .drain_deliveries(pid, self.steps, |d| deliveries.push(d));
        if deliveries.len() > before {
            self.check_integrity();
        }
    }

    /// Stepwise invariant: uniform integrity (no duplicate, no phantom,
    /// no garbled payload) must hold after *every* step, not just at the
    /// end of an execution.
    fn check_integrity(&mut self) {
        if self.violation.is_some() {
            return;
        }
        let report = self.report();
        if !report.integrity.ok() {
            self.violation = Some(
                report
                    .violations()
                    .iter()
                    .filter(|v| v.starts_with("integrity"))
                    .map(|v| v.to_string())
                    .collect(),
            );
        }
    }

    /// Enumerates the enabled choices in **canonical order** — the order
    /// the DFS dives along and the `dpor-lite` strategy charges
    /// deviations against: broadcast, then deliveries FIFO, then armed
    /// crashes, then ticks, then drops. The prefix of this order (always
    /// index 0) is the causal "deliver everything, then let the
    /// adversary act" schedule, which reaches the interesting
    /// crash-after-delivery states at minimal depth.
    pub fn enabled_choices(&self) -> Vec<Choice> {
        let mut out = Vec::new();
        if self.violation.is_some() {
            return out; // a violated execution stops here
        }
        // The two plan cursors — broadcasts and lifecycle events — fire
        // in compiled-time order (ties: broadcast first), so at most one
        // of them is enabled in any state; each is still a free choice
        // point against deliveries, ticks and crashes.
        match (
            self.model.planned.get(self.next_broadcast),
            self.model.cfg.topic_events.get(self.next_topic_event),
        ) {
            (Some(b), Some(e)) if e.time < b.time => out.push(Choice::TopicEvent),
            (Some(_), _) => out.push(Choice::Broadcast),
            (None, Some(_)) => out.push(Choice::TopicEvent),
            (None, None) => {}
        }
        for slot in 0..self.pending.len() {
            out.push(Choice::Deliver { slot });
        }
        for pid in 0..self.model.cfg.n {
            if self.world.crash_armed(pid) {
                out.push(Choice::Crash { pid });
            }
        }
        for (pid, node) in self.world.nodes().iter().enumerate() {
            if !self.world.is_crashed(pid)
                && self.ticks_used[pid] < self.model.bounds.tick_budget
                && !node.engine().is_quiescent()
            {
                out.push(Choice::Tick { pid });
            }
        }
        if self.drops_used < self.model.bounds.max_drops {
            for (slot, p) in self.pending.iter().enumerate() {
                if p.from != p.to {
                    out.push(Choice::Drop { slot });
                }
            }
        }
        out
    }

    /// Applies one choice. Returns `Err` when the choice is not enabled
    /// in this state — replays of a stale or hand-edited counterexample
    /// fail loudly instead of diverging silently.
    pub fn apply(&mut self, choice: Choice) -> Result<(), String> {
        let enabled = self.enabled_choices();
        if !enabled.contains(&choice) {
            return Err(format!(
                "choice {choice:?} not enabled at step {} (enabled: {enabled:?})",
                self.steps
            ));
        }
        self.apply_trusted(choice);
        Ok(())
    }

    /// [`CheckState::apply`] without the enabled-check: the explorer's
    /// hot path. Its choices come from [`CheckState::enabled_choices`]
    /// on the deterministic same-prefix state, so re-validating each one
    /// would re-enumerate the full choice list per replayed step.
    /// Untrusted input (counterexample files) must go through
    /// [`CheckState::apply`].
    pub(crate) fn apply_trusted(&mut self, choice: Choice) {
        self.steps += 1;
        match choice {
            Choice::Broadcast => {
                let b = self.model.planned[self.next_broadcast].clone();
                self.next_broadcast += 1;
                let Some(rec) = self.world.broadcast(b.pid, b.topic, b.payload, self.steps) else {
                    // A crashed process, or a topic not live at this one.
                    return;
                };
                self.broadcasts.push(rec);
                self.finish_step(b.pid);
            }
            Choice::Deliver { slot } => {
                // Delivery into a retired (reclaimed) instance is inert:
                // the copy is consumed and nothing steps.
                let p = self.pending.remove(slot);
                self.world.receive(p.to, p.topic, p.msg, self.steps);
                self.finish_step(p.to);
            }
            Choice::Drop { slot } => {
                self.pending.remove(slot);
                self.drops_used += 1;
            }
            Choice::Tick { pid } => {
                // One node tick — the simulator's, literally: Task 1 of
                // *every* topic instance, then the reap of drained topics
                // (never mid-delivery), then compaction when the scenario
                // has a `[memory]` table. One budget unit however many
                // topics the node serves.
                self.ticks_used[pid] += 1;
                self.world.tick(pid, self.steps);
                self.finish_step(pid);
            }
            Choice::Crash { pid } => {
                self.world.crash(pid, self.steps);
                // Copies addressed to the dead process are gone; the
                // slot renumbering is deterministic, so replay agrees.
                self.pending.retain(|p| p.to != pid);
            }
            Choice::TopicEvent => {
                let action = self.model.cfg.topic_events[self.next_topic_event].action;
                self.next_topic_event += 1;
                self.world.apply(action);
            }
        }
    }

    /// True when no choice is enabled *and* every surviving process is
    /// quiescent: nothing can ever happen again, so the eventual URB
    /// properties are decided. (A state that merely ran out of tick
    /// budget while a process still holds retransmittable state is *not*
    /// silent — exploring it further is inconclusive, never a verdict.)
    pub fn is_silent(&self) -> bool {
        self.violation.is_none()
            && self.next_broadcast == self.model.planned.len()
            && self.next_topic_event == self.model.cfg.topic_events.len()
            && self.pending.is_empty()
            && self.world.is_quiescent()
    }

    /// The full URB report of this execution (integrity stepwise plus —
    /// meaningful only at [`CheckState::is_silent`] states — validity
    /// and agreement with `correct = never crashed here`).
    pub fn report(&self) -> CheckReport {
        let alive = self.world.crash_times().iter().map(Option::is_none);
        let correct: Vec<bool> = alive.collect();
        check_urb(
            self.model.cfg.n,
            &correct,
            &self.broadcasts,
            &self.deliveries,
        )
    }

    /// Evaluates the eventual properties at a silent state, recording a
    /// violation if any. Returns true when a new violation was recorded.
    pub fn check_eventual(&mut self) -> bool {
        if !self.is_silent() || self.violation.is_some() {
            return false;
        }
        let report = self.report();
        if report.all_ok() {
            return false;
        }
        self.violation = Some(report.violations().iter().map(|v| v.to_string()).collect());
        true
    }

    /// The pruning digest: per-node semantic fingerprints
    /// ([`urb_engine::TopicEngine::fingerprint`]), the crash set, the pending-message
    /// *multiset* of `(from, to, content)` triples (sorted, so slot
    /// order — which is behaviourally irrelevant — does not split
    /// states; `from` is kept because it decides droppability, so a
    /// self-copy and a peer copy of the same message never collide), the
    /// per-process delivered sets and the budget counters. Approximate
    /// by construction:
    /// distinct states may digest equally (pruning gets coarser, bounded
    /// search was incomplete anyway); violations are checked *before*
    /// pruning, so a collision never hides one (DESIGN.md §11).
    pub fn state_hash(&self) -> u64 {
        fn fold(h: &mut u64, word: u64) {
            for b in word.to_le_bytes() {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (node, crashed) in self.world.nodes().iter().zip(self.world.crash_times()) {
            let word = match crashed {
                Some(_) => 0xDEAD,
                None => node.engine().fingerprint(),
            };
            fold(&mut h, word);
        }
        let mut pend: Vec<u64> = self
            .pending
            .iter()
            .map(|p| {
                (((p.from as u64) << 32) | p.to as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(p.topic.mix(p.msg.content_hash()))
            })
            .collect();
        pend.sort_unstable();
        for x in pend {
            fold(&mut h, x);
        }
        // Delivered (pid, tag) pairs, order-insensitively.
        let mut delivered = 0u64;
        for d in &self.deliveries {
            let mut one = 0x100_0001u64;
            fold(&mut one, d.pid as u64);
            fold(&mut one, (d.tag.0 >> 64) as u64);
            fold(&mut one, d.tag.0 as u64);
            delivered ^= one;
        }
        fold(&mut h, delivered);
        fold(&mut h, self.next_broadcast as u64);
        // Folded only on lifecycle scenarios, so static digests (and the
        // persistent state-hash caches built from them) are unchanged.
        if !self.model.cfg.topic_events.is_empty() {
            fold(&mut h, self.next_topic_event as u64);
        }
        fold(&mut h, self.drops_used as u64);
        for t in &self.ticks_used {
            fold(&mut h, *t as u64);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urb_core::Algorithm;
    use urb_types::Tag;

    impl CheckState<'_> {
        /// Tags delivered by `pid`.
        fn delivered_set(&self, pid: usize) -> BTreeSet<Tag> {
            let delivered = self.deliveries.iter().filter(|d| d.pid == pid);
            delivered.map(|d| d.tag).collect()
        }

        /// Topic instances reclaimed so far, summed over every node.
        fn topics_reclaimed(&self) -> u64 {
            let nodes = self.world.nodes().iter();
            nodes.map(|n| n.engine().counters().topics_reclaimed).sum()
        }
    }

    fn majority_spec(n: usize) -> ScenarioSpec {
        let mut spec = ScenarioSpec::new("model-test", n, Algorithm::Majority);
        spec.seed = 7;
        spec
    }

    #[test]
    fn canonical_path_delivers_everywhere() {
        // Always taking the first enabled choice = the causal FIFO
        // schedule: one broadcast, all copies delivered, everyone
        // URB-delivers, no violation.
        let model = CheckModel::from_spec(&majority_spec(3), None).unwrap();
        let mut st = model.initial();
        let mut guard = 0;
        loop {
            let en = st.enabled_choices();
            let Some(&first) = en.first() else { break };
            st.apply(first).unwrap();
            guard += 1;
            assert!(guard < 500, "canonical path must terminate");
        }
        assert!(st.violation().is_none());
        for pid in 0..3 {
            assert_eq!(st.delivered_set(pid).len(), 1, "pid {pid}");
        }
        assert!(st.report().all_ok());
    }

    #[test]
    fn replaying_the_same_choices_is_deterministic() {
        let model = CheckModel::from_spec(&majority_spec(3), None).unwrap();
        let run = || {
            let mut st = model.initial();
            let mut path = Vec::new();
            for _ in 0..25 {
                let en = st.enabled_choices();
                let Some(&c) = en.last() else { break };
                st.apply(c).unwrap();
                path.push(c);
            }
            (path, st.state_hash(), st.deliveries().len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn drops_respect_budget_and_self_links() {
        let mut spec = majority_spec(2);
        spec.check.max_drops = 1;
        let model = CheckModel::from_spec(&spec, None).unwrap();
        let mut st = model.initial();
        st.apply(Choice::Broadcast).unwrap();
        // Pending: copies to self (0→0) and to 1. Only the cross copy is
        // droppable.
        let drops: Vec<Choice> = st
            .enabled_choices()
            .into_iter()
            .filter(|c| matches!(c, Choice::Drop { .. }))
            .collect();
        assert_eq!(drops.len(), 1, "self-link copies are not droppable");
        st.apply(drops[0]).unwrap();
        assert!(
            !st.enabled_choices()
                .iter()
                .any(|c| matches!(c, Choice::Drop { .. })),
            "budget of 1 exhausted"
        );
    }

    #[test]
    fn crash_choices_arm_per_the_crash_rules() {
        let mut spec = majority_spec(3);
        spec.crashes = vec![
            urb_sim::spec::CrashRuleSpec {
                pid: 1,
                rule: CrashRule::At(100),
            },
            urb_sim::spec::CrashRuleSpec {
                pid: 2,
                rule: CrashRule::OnFirstDelivery { delay: 0 },
            },
        ];
        let model = CheckModel::from_spec(&spec, None).unwrap();
        let st = model.initial();
        let crashes: Vec<Choice> = st
            .enabled_choices()
            .into_iter()
            .filter(|c| matches!(c, Choice::Crash { .. }))
            .collect();
        // pid 0 is plan-correct (never crashable); pid 2's rule arms only
        // after its first delivery; pid 1 is crashable immediately.
        assert_eq!(crashes, vec![Choice::Crash { pid: 1 }]);
    }

    #[test]
    fn applying_a_disabled_choice_fails_loudly() {
        let model = CheckModel::from_spec(&majority_spec(2), None).unwrap();
        let mut st = model.initial();
        assert!(st.apply(Choice::Deliver { slot: 0 }).is_err());
        assert!(st.apply(Choice::Crash { pid: 0 }).is_err(), "plan-correct");
    }

    fn lifecycle_spec() -> ScenarioSpec {
        ScenarioSpec::from_toml_str(
            "name = \"check-lifecycle\"\nn = 3\nalgorithm = \"quiescent\"\nseed = 11\n\
             [topics]\ncount = 1\ndrain_ticks = 4\n\
             [[topics.events]]\nat = 100\ncreate = 1\n\
             [[topics.events]]\nat = 900\nretire = 1\n\
             [[workload.explicit]]\ntime = 150\npid = 0\ntopic = 1\npayload = \"dyn\"\n\
             [check]\ntick_budget = 8\n",
        )
        .unwrap()
    }

    #[test]
    fn lifecycle_canonical_path_delivers_retires_and_reclaims() {
        // Plan order: create (t=100) → broadcast (t=150) → retire
        // (t=900); the canonical walk interleaves deliveries and ticks,
        // ends silent, and every engine has reclaimed the instance.
        let model = CheckModel::from_spec(&lifecycle_spec(), None).unwrap();
        let mut st = model.initial();
        let mut guard = 0;
        loop {
            let en = st.enabled_choices();
            let Some(&first) = en.first() else { break };
            st.apply(first).unwrap();
            guard += 1;
            assert!(guard < 1000, "canonical lifecycle path must terminate");
        }
        assert!(st.violation().is_none());
        for pid in 0..3 {
            assert_eq!(st.delivered_set(pid).len(), 1, "pid {pid}");
        }
        st.check_eventual();
        assert!(st.is_silent(), "retired state must not block silence");
        assert!(st.report().all_ok());
        assert_eq!(st.topics_reclaimed(), 3, "every engine freed the instance");
    }

    #[test]
    fn lifecycle_events_gate_on_plan_order_and_replay_deterministically() {
        let model = CheckModel::from_spec(&lifecycle_spec(), None).unwrap();
        let st = model.initial();
        let en = st.enabled_choices();
        // The create (t=100) precedes the broadcast (t=150), so only the
        // lifecycle cursor is enabled among the plan choices.
        assert!(en.contains(&Choice::TopicEvent));
        assert!(!en.contains(&Choice::Broadcast));
        let run = || {
            let mut st = model.initial();
            let mut path = Vec::new();
            for _ in 0..60 {
                let en = st.enabled_choices();
                let Some(&c) = en.last() else { break };
                st.apply(c).unwrap();
                path.push(c);
            }
            (path, st.state_hash(), st.deliveries().len())
        };
        assert_eq!(run(), run(), "lifecycle choices replay byte-identically");
    }

    #[test]
    fn delivery_into_a_reclaimed_instance_is_inert() {
        // Create, broadcast, then retire + reap *before* delivering the
        // relay copies: every pending delivery must be consumed without
        // stepping a reclaimed engine, and the run stays violation-free
        // (retirement truncates "eventually"; it never corrupts).
        let model = CheckModel::from_spec(&lifecycle_spec(), None).unwrap();
        let mut st = model.initial();
        st.apply(Choice::TopicEvent).unwrap(); // create everywhere
        st.apply(Choice::Broadcast).unwrap(); // pid 0 seeds topic 1
        assert!(!st.pending().is_empty());
        st.apply(Choice::TopicEvent).unwrap(); // retire everywhere
                                               // Drain ticks until every engine reaped (budget 4 per instance).
        for _ in 0..6 {
            for pid in 0..3 {
                if st.enabled_choices().contains(&Choice::Tick { pid }) {
                    st.apply(Choice::Tick { pid }).unwrap();
                }
            }
        }
        assert_eq!(st.topics_reclaimed(), 3);
        while let Some(&c) = st
            .enabled_choices()
            .iter()
            .find(|c| matches!(c, Choice::Deliver { .. }))
        {
            st.apply(c).unwrap();
        }
        assert!(st.pending().is_empty());
        assert_eq!(
            st.topics_reclaimed(),
            3,
            "inert deliveries never revive a reclaimed instance"
        );
        // Retiring *before* the topic quiesced forfeits "eventually":
        // the checker still judges the obligation incurred while live,
        // so this schedule surfaces a validity violation — exactly the
        // quiescence rule DESIGN.md §15 documents. Integrity (no
        // phantom, no duplicate) survives: inert drops corrupt nothing.
        st.check_eventual();
        let violation = st.violation().expect("early retire loses validity");
        assert!(
            violation.iter().all(|v| v.starts_with("validity")),
            "{violation:?}"
        );
        assert!(st.report().integrity.ok());
    }

    #[test]
    fn silent_state_requires_quiescence() {
        // Majority never quiesces while it holds a message, so a fully
        // delivered state is not silent — no spurious eventual verdicts.
        let model = CheckModel::from_spec(&majority_spec(2), None).unwrap();
        let mut st = model.initial();
        let mut guard = 0;
        loop {
            let en = st.enabled_choices();
            let Some(&first) = en.first() else { break };
            st.apply(first).unwrap();
            guard += 1;
            assert!(guard < 200);
        }
        assert!(!st.is_silent(), "alg1 processes still hold state");
        assert!(!st.check_eventual());
        assert!(st.violation().is_none());
    }
}
