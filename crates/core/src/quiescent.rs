//! **Algorithm 2** — Quiescent Uniform Reliable Broadcast in
//! `AAS_F[AΘ, AP*]` (paper §VI).
//!
//! The paper presents it as Algorithm 1 with edits, and so does the code:
//! `URB_broadcast`, the stable `tag_ack`, Task 1's walk over `MSG` and the
//! record per tag are Algorithm 1's, in `crate::table`. What changes:
//!
//! * **lines 8–12** — a message already URB-delivered does not (re-)enter
//!   `MSG` (Alg 1 line 8 stores it unconditionally);
//! * **lines 14 / 19** — the ACK carries `labels_i`, the labels currently in
//!   `a_theta_i`, re-read on every retransmission;
//! * **lines 22–45** — `ALL_ACK` becomes, per anonymous ACKer, the label set
//!   it last reported, with a counter per label (`AckTable` in
//!   `crate::evidence`); the paper's three reception cases are one
//!   *reconcile* operation (DESIGN.md D3);
//! * **line 46** — *resilience*: the delivery guard is "for some `(label,
//!   number) ∈ a_theta`, exactly `number` distinct ACKers reported `label`"
//!   instead of a majority. `AΘ`-accuracy guarantees any such set of ACKers
//!   contains a correct process — the URB delivery condition — with **any**
//!   number of crashes, which Theorem 2 rules out in the bare model;
//! * **lines 55–57** — *quiescence*: Task 1 gains a prune guard. `AP*`
//!   eventually outputs exactly the labels of the correct processes; once
//!   every `(label, number) ∈ a_p*` is matched by the counters of a
//!   delivered message, every correct process provably has it, so it leaves
//!   `MSG` and the protocol goes silent — Theorem 3.
//!
//! The literal line-55 equality can be blocked forever by the ACK of a
//! process that crashed *after* acknowledging: its entry still contains the
//! crashed process's own label, which `AP*` has removed (DESIGN.md D4).
//! [`PruneRule`] chooses between purging such entries and the paper's
//! literal condition.

use crate::compact::fd_signature;
use crate::evidence::AckTable;
use crate::table::TagTable;
use urb_types::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use urb_types::{
    AnonProcess, CompactionReport, Context, FdSnapshot, FdView, MemoryConfig, Payload,
    ProcessStats, Tag, WireMessage,
};

/// How the Task-1 prune condition (line 55) treats stale state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PruneRule {
    /// Default: purge entries of dead ACKers (label sets containing labels
    /// absent from `a_p*`) before testing the equality. Quiescent even when
    /// processes crash after acknowledging.
    Purge,
    /// The paper's literal condition, no purge. Quiescent only when crashed
    /// processes never acknowledged; used by ablation E12.
    Literal,
}

/// Algorithm 2: quiescent URB with `AΘ` and `AP*` (code of `p_i`).
///
/// ```
/// use urb_core::{harness::StepHarness, QuiescentUrb};
/// use urb_types::{AnonProcess, FdPair, FdSnapshot, FdView, Label, LabelSet,
///                 Payload, Tag, TagAck, WireMessage};
///
/// // One correct process knowing one label: a_theta = a_p* = {(ℓ, 1)}.
/// let view = FdView::from_pairs([FdPair { label: Label(10), number: 1 }]);
/// let mut h = StepHarness::new(3);
/// h.fd = FdSnapshot::new(view.clone(), view);
///
/// let mut p = QuiescentUrb::new();
/// // Receive the message, then its (self-)ACK carrying label 10.
/// h.receive(&mut p, WireMessage::Msg { tag: Tag(7), payload: Payload::from("m") });
/// let out = h.receive(&mut p, WireMessage::Ack {
///     tag: Tag(7), tag_ack: TagAck(100), payload: Payload::from("m"),
///     labels: Some(LabelSet::from_iter([Label(10)])),
/// });
/// assert_eq!(out.deliveries.len(), 1);  // counter(ℓ10) == number == 1
///
/// // One Task-1 sweep later the message is pruned: quiescence.
/// h.tick(&mut p);
/// assert!(p.is_quiescent());
/// ```
///
/// The paper's structures are one record per tag in the shared table
/// (`crate::table`):
///
/// | paper                          | record field                         |
/// |--------------------------------|--------------------------------------|
/// | `(m, tag) ∈ MSG_i`             | `in_msg` (+ the table's ordered MSG index) |
/// | `MY_ACK_i`                     | `tag_ack`, when `acked`              |
/// | `ALL_ACK_i` + `all_labels_i` + `label_counter_i` | `evidence`: the per-tag `AckTable` |
/// | `URB_DELIVERED_i`              | `delivered`                          |
#[derive(Clone, Debug)]
pub struct QuiescentUrb {
    table: TagTable<AckTable>,
    rule: PruneRule,
    /// Detector-view fingerprint at the last sweep (conservative mode).
    fd_sig: u64,
}

/// Line 55 (plus D4): may a delivered message stop being retransmitted?
fn prune_ready(rule: PruneRule, acks: &mut AckTable, a_p_star: &FdView) -> bool {
    // No AP* information yet — keep retransmitting. (An empty a_p* would
    // make the universally-quantified condition vacuously true and prune
    // everything instantly, which is clearly not the intent: AP*
    // completeness guarantees the correct processes' pairs eventually
    // appear.)
    if a_p_star.is_empty() {
        return false;
    }
    if rule == PruneRule::Purge {
        acks.purge_dead(a_p_star.labels());
    }
    // "each pair (label, number) ∈ a_p*: label_counter[(m,tag), label] =
    // number ∧ all_labels[(m,tag), −] = {label | (label, −) ∈ a_p*}": the
    // counters' keys *are* the union of the stored label sets (D3), so both
    // halves are one comparison of two label-ordered lists. A `number` of 0
    // matches nothing — counters are never 0.
    let counters = acks.counters.iter().copied();
    counters.eq(a_p_star.iter().map(|pair| (pair.label, pair.number)))
}

impl QuiescentUrb {
    /// Faithful Algorithm 2 with the D4 purge enabled.
    pub fn new() -> Self {
        Self::with_rule(PruneRule::Purge)
    }

    /// Algorithm 2 with an explicit prune rule (E12 ablation uses
    /// [`PruneRule::Literal`]).
    pub fn with_rule(rule: PruneRule) -> Self {
        QuiescentUrb {
            table: TagTable::default(),
            rule,
            fd_sig: 0,
        }
    }
}

impl Default for QuiescentUrb {
    fn default() -> Self {
        Self::new()
    }
}

impl AnonProcess for QuiescentUrb {
    fn urb_broadcast(&mut self, payload: Payload, ctx: &mut Context<'_>) -> Tag {
        self.table.urb_broadcast(payload, ctx)
    }

    fn on_receive(&mut self, msg: WireMessage, ctx: &mut Context<'_>) {
        let (rule, fd) = (self.rule, ctx.fd);
        let a_theta = &fd.a_theta;
        match msg {
            // Lines 7–21: the ACK carries the *current* a_theta labels (re-read
            // on every retransmission — that is what lets receivers reconcile
            // stale label information).
            WireMessage::Msg { tag, payload } => {
                let labels = Some(a_theta.labels().clone()); // lines 14 / 19
                self.table.on_msg(tag, payload, true, labels, ctx)
            }
            // Lines 22–51.
            WireMessage::Ack {
                tag,
                tag_ack,
                payload,
                labels,
            } => self.table.on_ack(
                tag,
                payload,
                true,
                ctx,
                |acks| {
                    // Lines 27–45: reconcile this ACKer's label set (D3).
                    acks.reconcile(tag_ack, labels.unwrap_or_default());
                    // D4 at delivery too: an ACKer that crashes after
                    // acknowledging inflates the counters of *live* labels
                    // past `number` once `number` shrinks, and the equality
                    // is then missed forever (the paper's Lemma 1 assumes
                    // counters pass through `number`). Purging entries with
                    // labels the detector no longer outputs only lowers
                    // counters: safety is unaffected, and live ACKers keep
                    // refreshing their entries.
                    if rule == PruneRule::Purge && !a_theta.is_empty() {
                        acks.purge_dead(a_theta.labels());
                    }
                },
                // Line 46, the AΘ delivery condition. number == 0 never
                // triggers delivery: a pair whose label no correct process
                // knows carries no evidence (and 0 == empty counter would
                // mis-fire). The paper implicitly has number >= 1 (accuracy
                // forces a correct knower).
                |acks| {
                    a_theta
                        .iter()
                        .any(|pair| pair.number > 0 && acks.counter(pair.label) == pair.number)
                },
            ),
            WireMessage::Heartbeat { .. } => {}
        }
    }

    /// Task 1, lines 52–61: rebroadcast everything still in `MSG`, and drop
    /// from it the delivered messages whose line-55 condition holds.
    fn on_tick(&mut self, ctx: &mut Context<'_>) {
        let (rule, fd) = (self.rule, ctx.fd);
        // Line 54 sends every message; lines 55–58: only a *delivered* one
        // may be pruned.
        self.table.task1(ctx, |delivered, acks, _| {
            (true, !(delivered && prune_ready(rule, acks, &fd.a_p_star)))
        });
    }

    fn is_quiescent(&self) -> bool {
        self.table.is_quiescent()
    }

    fn stats(&self) -> ProcessStats {
        self.table.stats()
    }

    fn algorithm_name(&self) -> &'static str {
        match self.rule {
            PruneRule::Purge => "alg2-quiescent",
            PruneRule::Literal => "alg2-literal",
        }
    }

    fn configure_memory(&mut self, cfg: MemoryConfig) {
        self.table.configure_memory(cfg);
    }

    /// Algorithm 2 stability rule (DESIGN.md §14): a tag may be reclaimed
    /// once it is delivered, already line-57 pruned out of `MSG`, and the
    /// line-55 coverage (`a_p*` counters exact, label union equal) still
    /// holds — i.e. every correct process provably URB-delivered it — for
    /// `grace_ticks` consecutive sweeps.
    fn compact(&mut self, fd: &FdSnapshot) -> CompactionReport {
        // Conservative mode: any detector movement is treated as suspicion
        // and restarts every grace clock.
        let (rule, fd_sig) = (self.rule, &mut self.fd_sig);
        self.table.compact(
            |cfg| {
                let moved = cfg.conservative && {
                    let sig = fd_signature(fd);
                    std::mem::replace(fd_sig, sig) != sig
                };
                (cfg.grace_ticks, moved)
            },
            |in_msg, acks| !in_msg && prune_ready(rule, acks, &fd.a_p_star),
        )
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = SnapshotWriter::new();
        w.put_u8(self.rule as u8);
        w.put_u64(self.fd_sig);
        self.table.save(&mut w);
        Some(w.into_body())
    }

    fn restore_state(&mut self, body: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(body);
        if r.get_u8()? != self.rule as u8 {
            return Err(SnapshotError::Malformed(format!(
                "snapshot prune rule does not match instance rule {:?}",
                self.rule
            )));
        }
        let fd_sig = r.get_u64()?;
        self.table.restore(r)?;
        self.fd_sig = fd_sig;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::StepHarness;
    use urb_types::{FdPair, Label, LabelSet, TagAck};

    fn labels(ls: &[u64]) -> LabelSet {
        LabelSet::from_iter(ls.iter().map(|&l| Label(l)))
    }

    fn theta(pairs: &[(u64, u32)]) -> FdView {
        FdView::from_pairs(pairs.iter().map(|&(l, n)| FdPair {
            label: Label(l),
            number: n,
        }))
    }

    fn msg(tag: u128, body: &str) -> WireMessage {
        WireMessage::Msg {
            tag: Tag(tag),
            payload: Payload::from(body),
        }
    }

    fn ack(tag: u128, ta: u128, body: &str, ls: &[u64]) -> WireMessage {
        WireMessage::Ack {
            tag: Tag(tag),
            tag_ack: TagAck(ta),
            payload: Payload::from(body),
            labels: Some(labels(ls)),
        }
    }

    /// Current counter for (`tag`, `label`).
    fn label_counter(p: &QuiescentUrb, tag: Tag, label: Label) -> u32 {
        p.table.evidence(tag).map_or(0, |acks| acks.counter(label))
    }

    /// Harness with `a_theta = a_p* = {(ℓ, n) for ℓ in ls}`.
    fn fd_harness(seed: u64, ls: &[(u64, u32)]) -> StepHarness {
        let mut h = StepHarness::new(seed);
        h.fd = FdSnapshot::new(theta(ls), theta(ls));
        h
    }

    // ---- reception of MSG (lines 7–21) ----------------------------------

    #[test]
    fn ack_carries_current_theta_labels() {
        let mut h = fd_harness(1, &[(10, 2), (20, 2)]);
        let mut p = QuiescentUrb::new();
        let out = h.receive(&mut p, msg(7, "m"));
        match out.acks()[0] {
            WireMessage::Ack {
                labels: Some(ls), ..
            } => {
                assert_eq!(*ls, labels(&[10, 20]));
            }
            _ => panic!("expected labelled ACK"),
        }
    }

    #[test]
    fn retransmitted_ack_has_same_tag_ack_but_fresh_labels() {
        let mut h = fd_harness(2, &[(10, 2), (20, 2)]);
        let mut p = QuiescentUrb::new();
        let o1 = h.receive(&mut p, msg(7, "m"));
        // Detector evolves: label 20's process crashed and was removed.
        h.fd = FdSnapshot::new(theta(&[(10, 1)]), theta(&[(10, 1)]));
        let o2 = h.receive(&mut p, msg(7, "m"));
        let parse = |o: &crate::harness::StepOut| match o.acks()[0] {
            WireMessage::Ack {
                tag_ack,
                labels: Some(ls),
                ..
            } => (*tag_ack, ls.clone()),
            _ => panic!(),
        };
        let (ta1, ls1) = parse(&o1);
        let (ta2, ls2) = parse(&o2);
        assert_eq!(ta1, ta2, "tag_ack stable (MY_ACK)");
        assert_eq!(ls1, labels(&[10, 20]));
        assert_eq!(ls2, labels(&[10]), "labels re-read each time");
    }

    #[test]
    fn delivered_and_pruned_message_does_not_reenter_msg_set() {
        // Lines 8–12: URB_DELIVERED check prevents re-adding.
        let mut h = fd_harness(3, &[(10, 1)]);
        let mut p = QuiescentUrb::new();
        // Get tag 7 delivered via an ACK from one ACKer knowing label 10.
        h.receive(&mut p, ack(7, 100, "m", &[10]));
        assert!(p.table.has_delivered(Tag(7)));
        assert_eq!(p.stats().msg_set, 0, "fast delivery: MSG never stored");
        // Now the MSG copy arrives late.
        let out = h.receive(&mut p, msg(7, "m"));
        assert_eq!(p.stats().msg_set, 0, "delivered message must not enter MSG");
        // … but it is still acknowledged (for other processes' progress).
        assert_eq!(out.acks().len(), 1);
    }

    // ---- reception of ACK (lines 22–51) ----------------------------------

    #[test]
    fn delivery_when_counter_matches_theta_number() {
        let mut h = fd_harness(4, &[(10, 2)]);
        let mut p = QuiescentUrb::new();
        assert!(h
            .receive(&mut p, ack(7, 100, "m", &[10]))
            .deliveries
            .is_empty());
        let out = h.receive(&mut p, ack(7, 101, "m", &[10]));
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].payload.as_slice(), b"m");
        assert!(out.deliveries[0].fast);
    }

    #[test]
    fn no_delivery_on_zero_number_pair() {
        let mut h = fd_harness(5, &[(10, 0)]);
        let mut p = QuiescentUrb::new();
        let out = h.receive(&mut p, ack(7, 100, "m", &[]));
        assert!(out.deliveries.is_empty(), "number=0 must never fire");
    }

    #[test]
    fn repeated_ack_does_not_inflate_counters() {
        let mut h = fd_harness(6, &[(10, 2)]);
        let mut p = QuiescentUrb::new();
        h.receive(&mut p, ack(7, 100, "m", &[10]));
        h.receive(&mut p, ack(7, 100, "m", &[10]));
        assert_eq!(label_counter(&p, Tag(7), Label(10)), 1);
    }

    #[test]
    fn repeated_ack_with_more_labels_increments_new_only() {
        // Paper's case 1 of repeated ACKs (lines 34–37).
        let mut h = fd_harness(7, &[(10, 2), (20, 2)]);
        let mut p = QuiescentUrb::new();
        h.receive(&mut p, ack(7, 100, "m", &[10]));
        h.receive(&mut p, ack(7, 100, "m", &[10, 20]));
        assert_eq!(label_counter(&p, Tag(7), Label(10)), 1);
        assert_eq!(label_counter(&p, Tag(7), Label(20)), 1);
    }

    #[test]
    fn repeated_ack_with_fewer_labels_decrements_removed() {
        // Paper's case 2 of repeated ACKs (lines 38–44): a label vanished
        // from the ACKer's detector (its process crashed).
        let mut h = fd_harness(8, &[(10, 2), (20, 2)]);
        let mut p = QuiescentUrb::new();
        h.receive(&mut p, ack(7, 100, "m", &[10, 20]));
        h.receive(&mut p, ack(7, 101, "m", &[10, 20]));
        assert_eq!(label_counter(&p, Tag(7), Label(20)), 2);
        // ACKer 100 refreshes with label 20 gone.
        h.receive(&mut p, ack(7, 100, "m", &[10]));
        assert_eq!(label_counter(&p, Tag(7), Label(10)), 2);
        assert_eq!(label_counter(&p, Tag(7), Label(20)), 1);
    }

    #[test]
    fn delivery_condition_reevaluated_after_reconcile_shrink() {
        // number drops to 1 after a crash; the remaining ACKer's refreshed
        // ACK must still be able to trigger delivery.
        let mut h = fd_harness(9, &[(10, 2), (20, 2)]);
        let mut p = QuiescentUrb::new();
        h.receive(&mut p, ack(7, 100, "m", &[10, 20]));
        // Crash: detector now says only label 10 with number 1.
        h.fd = FdSnapshot::new(theta(&[(10, 1)]), theta(&[(10, 1)]));
        let out = h.receive(&mut p, ack(7, 100, "m", &[10]));
        assert_eq!(out.deliveries.len(), 1, "counter(10)=1 == number(10)=1");
    }

    #[test]
    fn no_duplicate_delivery() {
        let mut h = fd_harness(10, &[(10, 1)]);
        let mut p = QuiescentUrb::new();
        assert_eq!(
            h.receive(&mut p, ack(7, 100, "m", &[10])).deliveries.len(),
            1
        );
        assert!(h
            .receive(&mut p, ack(7, 101, "m", &[10]))
            .deliveries
            .is_empty());
        assert_eq!(h.all_deliveries().len(), 1);
    }

    #[test]
    fn unlabelled_ack_is_tolerated_as_empty_set() {
        // Mixed deployments (an Algorithm-1 ACK) must not crash Algorithm 2.
        let mut h = fd_harness(11, &[(10, 1)]);
        let mut p = QuiescentUrb::new();
        let out = h.receive(
            &mut p,
            WireMessage::Ack {
                tag: Tag(7),
                tag_ack: TagAck(100),
                payload: Payload::from("m"),
                labels: None,
            },
        );
        assert!(out.deliveries.is_empty());
        assert_eq!(p.stats().all_ack_entries, 1);
        assert_eq!(p.stats().label_counters, 0);
    }

    // ---- Task 1 and quiescence (lines 52–61) -----------------------------

    #[test]
    fn tick_rebroadcasts_until_prune_condition() {
        let mut h = fd_harness(12, &[(10, 1)]);
        let mut p = QuiescentUrb::new();
        h.receive(&mut p, msg(7, "m"));
        assert_eq!(h.tick(&mut p).msgs().len(), 1);
        assert!(!p.is_quiescent());
    }

    #[test]
    fn prune_after_delivery_and_full_ack_coverage() {
        // One correct process (us): a_theta = a_p* = {(10, 1)}. Our own ACK
        // (tag_ack 100) covers label 10 once — counters match, union matches.
        let mut h = fd_harness(13, &[(10, 1)]);
        let mut p = QuiescentUrb::new();
        h.receive(&mut p, msg(7, "m"));
        h.receive(&mut p, ack(7, 100, "m", &[10])); // delivers
        assert!(p.table.has_delivered(Tag(7)));
        let out = h.tick(&mut p); // broadcasts once more, then prunes
        assert_eq!(out.msgs().len(), 1, "line 54 broadcast precedes prune");
        assert!(p.is_quiescent(), "line 57 removed the message");
        assert_eq!(p.table.pruned_count(), 1);
        // Subsequent ticks are silent.
        assert!(h.tick(&mut p).is_silent());
    }

    #[test]
    fn no_prune_before_delivery() {
        // Line 56: only delivered messages leave MSG.
        let mut h = fd_harness(14, &[(10, 2)]);
        let mut p = QuiescentUrb::new();
        h.receive(&mut p, msg(7, "m"));
        h.receive(&mut p, ack(7, 100, "m", &[10])); // counter 1 < number 2
        h.tick(&mut p);
        assert!(!p.is_quiescent());
    }

    #[test]
    fn no_prune_when_counter_below_number() {
        let mut h = fd_harness(15, &[(10, 2)]);
        let mut p = QuiescentUrb::new();
        h.receive(&mut p, msg(7, "m"));
        h.receive(&mut p, ack(7, 100, "m", &[10]));
        h.receive(&mut p, ack(7, 101, "m", &[10])); // delivers (counter==2)

        // a_p* wants 3 ACKers per label now (simulate: number 3).
        h.fd = FdSnapshot::new(theta(&[(10, 2)]), theta(&[(10, 3)]));
        h.tick(&mut p);
        assert!(!p.is_quiescent(), "a_p* coverage incomplete");
    }

    #[test]
    fn no_prune_when_apstar_empty() {
        let mut h = fd_harness(16, &[(10, 1)]);
        let mut p = QuiescentUrb::new();
        h.fd = FdSnapshot::new(theta(&[(10, 1)]), FdView::empty());
        h.receive(&mut p, msg(7, "m"));
        h.receive(&mut p, ack(7, 100, "m", &[10]));
        h.tick(&mut p);
        assert!(!p.is_quiescent(), "empty a_p* must not prune");
    }

    #[test]
    fn prune_survives_stale_acker() {
        // DESIGN.md D4: an ACKer that reported {10, 20} and then crashed
        // (label 20 removed from a_p*) must not block quiescence.
        let mut h = fd_harness(17, &[(10, 2), (20, 2)]);
        let mut p = QuiescentUrb::new();
        h.receive(&mut p, msg(7, "m"));
        h.receive(&mut p, ack(7, 100, "m", &[10, 20])); // our own ACK, say
        h.receive(&mut p, ack(7, 101, "m", &[10, 20])); // the doomed ACKer → delivery
        assert!(p.table.has_delivered(Tag(7)));
        // Process with label 20 crashes; detectors converge; the live ACKer
        // (100) refreshes its ACK with the shrunk label set; the dead one
        // (101) never will.
        h.fd = FdSnapshot::new(theta(&[(10, 1)]), theta(&[(10, 1)]));
        h.receive(&mut p, ack(7, 100, "m", &[10]));
        h.tick(&mut p);
        assert!(
            p.is_quiescent(),
            "purge removed the dead ACKer's stale entry"
        );
    }

    #[test]
    fn delivery_survives_counter_overshoot_from_dead_acker() {
        // The second D4 finding (observed live in the runtime chaos test):
        // a doomed process ACKs with the full label set and crashes; its
        // entry inflates counter(ℓ) for every live label ℓ. Once the
        // detector's `number` shrinks below the inflated counter, the
        // line-46 equality can never hold again — unless dead entries are
        // purged at delivery evaluation too.
        let mut h = fd_harness(30, &[(1, 3), (2, 3), (3, 3)]);
        let mut p = QuiescentUrb::new();
        // Three ACKers (one is the doomed process with label 3), all
        // reporting all three labels: counters hit 3, but number is 3 and
        // the check at each step sees counter pass 1, 2, 3 — however we
        // arrange the overshoot by having number shrink *before* the last
        // live ACK arrives.
        h.receive(&mut p, ack(7, 100, "m", &[1, 2, 3])); // live
        h.receive(&mut p, ack(7, 101, "m", &[1, 2, 3])); // doomed, then crashes

        // Crash detected: labels shrink to {1, 2}, number to 2. counter(1)
        // is already 2 (entries 100, 101) — but entry 101 is dead and will
        // never refresh, while entry 100 refreshes with the shrunk set.
        h.fd = FdSnapshot::new(theta(&[(1, 2), (2, 2)]), theta(&[(1, 2), (2, 2)]));
        h.receive(&mut p, ack(7, 100, "m", &[1, 2]));
        // Live ACKer 102 completes the live quorum.
        let out = h.receive(&mut p, ack(7, 102, "m", &[1, 2]));
        assert_eq!(
            out.deliveries.len(),
            1,
            "purge at delivery lets the live quorum fire (counter(1)=2==number)"
        );
    }

    #[test]
    fn literal_rule_misses_delivery_on_overshoot() {
        // Same scenario under the literal rule: counter(1) is stuck at 3
        // (two live + one dead entry) while number converged to 2 — the
        // equality never holds and the message is never delivered. This is
        // a genuine gap in the paper's Lemma 1 for crash-after-ACK
        // patterns under detectors whose `number` shrinks after a crash.
        let mut h = fd_harness(31, &[(1, 3), (2, 3), (3, 3)]);
        let mut p = QuiescentUrb::with_rule(PruneRule::Literal);
        h.receive(&mut p, ack(7, 100, "m", &[1, 2, 3]));
        h.receive(&mut p, ack(7, 101, "m", &[1, 2, 3]));
        h.fd = FdSnapshot::new(theta(&[(1, 2), (2, 2)]), theta(&[(1, 2), (2, 2)]));
        h.receive(&mut p, ack(7, 100, "m", &[1, 2]));
        let out = h.receive(&mut p, ack(7, 102, "m", &[1, 2]));
        assert!(out.deliveries.is_empty(), "literal rule is stuck");
        assert_eq!(label_counter(&p, Tag(7), Label(1)), 3, "inflated forever");
    }

    #[test]
    fn literal_rule_blocks_on_stale_acker() {
        // Same scenario as above under PruneRule::Literal: the stale entry
        // keeps label 20 in the union and counter(10) at 2 ≠ 1, so the
        // paper's literal condition never fires — the E12 ablation.
        let mut h = fd_harness(18, &[(10, 2), (20, 2)]);
        let mut p = QuiescentUrb::with_rule(PruneRule::Literal);
        assert_eq!(p.algorithm_name(), "alg2-literal");
        h.receive(&mut p, msg(7, "m"));
        h.receive(&mut p, ack(7, 100, "m", &[10, 20]));
        h.receive(&mut p, ack(7, 101, "m", &[10, 20]));
        h.fd = FdSnapshot::new(theta(&[(10, 1)]), theta(&[(10, 1)]));
        h.receive(&mut p, ack(7, 100, "m", &[10]));
        for _ in 0..5 {
            h.tick(&mut p);
        }
        assert!(!p.is_quiescent(), "literal line 55 is blocked forever");
    }

    #[test]
    fn two_correct_processes_scenario_from_theorem3_proof() {
        // The proof of Theorem 3 walks p and q, both correct:
        // label_counter[ℓp]=2, label_counter[ℓq]=2 with a_p* = [(ℓp,2),(ℓq,2)].
        let mut h = fd_harness(19, &[(1, 2), (2, 2)]);
        let mut p = QuiescentUrb::new();
        h.receive(&mut p, msg(7, "m"));
        h.receive(&mut p, ack(7, 100, "m", &[1, 2])); // own ACK
        let out = h.receive(&mut p, ack(7, 101, "m", &[1, 2])); // q's ACK
        assert_eq!(out.deliveries.len(), 1);
        h.tick(&mut p);
        assert!(p.is_quiescent(), "the proof's happy case prunes");
    }

    #[test]
    fn stats_count_label_counters() {
        let mut h = fd_harness(21, &[(10, 2), (20, 2)]);
        let mut p = QuiescentUrb::new();
        h.receive(&mut p, ack(7, 100, "m", &[10, 20]));
        h.receive(&mut p, ack(8, 101, "m", &[10]));
        let s = p.stats();
        assert_eq!(s.all_ack_entries, 2);
        assert_eq!(s.label_counters, 3); // {10,20} for tag 7, {10} for tag 8
    }

    // ---- bounded-memory mode (DESIGN.md §14) ------------------------------

    use urb_types::MemoryConfig;

    fn mem(grace: u32, conservative: bool) -> MemoryConfig {
        MemoryConfig {
            grace_ticks: grace,
            conservative,
            tombstones: 16,
            ceiling: None,
            spill: urb_types::SpillPolicy::StableOnly,
        }
    }

    /// Drives one tag to delivered + line-57 pruned state.
    fn settled_process(h: &mut StepHarness) -> QuiescentUrb {
        let mut p = QuiescentUrb::new();
        h.receive(&mut p, msg(7, "m"));
        h.receive(&mut p, ack(7, 100, "m", &[10])); // delivers
        h.tick(&mut p); // line-57 prune
        assert!(p.is_quiescent() && p.table.has_delivered(Tag(7)));
        p
    }

    #[test]
    fn compact_reclaims_after_grace_and_tombstones() {
        let mut h = fd_harness(40, &[(10, 1)]);
        let mut p = settled_process(&mut h);
        p.configure_memory(mem(1, false));
        let fd = h.fd.clone();
        assert_eq!(p.compact(&fd).tombstoned, 0, "sweep 1 arms the clock");
        let rep = p.compact(&fd);
        assert_eq!(rep.tombstoned, 1, "sweep 2 passes the grace period");
        assert!(
            rep.reclaimed >= 3,
            "MY_ACK + ALL_ACK entries + URB_DELIVERED"
        );
        let s = p.stats();
        assert_eq!(s.total(), 0, "every entry for tag 7 reclaimed");
        assert!(p.table.is_tombstoned(Tag(7)));
        assert_eq!(p.table.compacted_count(), 1);
    }

    #[test]
    fn compacted_tag_ignores_late_copies_entirely() {
        let mut h = fd_harness(41, &[(10, 1)]);
        let mut p = settled_process(&mut h);
        p.configure_memory(mem(0, false));
        let fd = h.fd.clone();
        p.compact(&fd);
        assert!(p.table.is_tombstoned(Tag(7)));
        // Late MSG copy: no ACK (would re-mint MY_ACK), no MSG re-entry.
        let out = h.receive(&mut p, msg(7, "m"));
        assert!(out.is_silent(), "late MSG of a tombstoned tag is dropped");
        // Late ACK: no table rebuild, and crucially no re-delivery.
        let out = h.receive(&mut p, ack(7, 101, "m", &[10]));
        assert!(out.deliveries.is_empty() && p.stats().total() == 0);
        assert!(p.is_quiescent());
    }

    #[test]
    fn compaction_off_is_inert() {
        let mut h = fd_harness(42, &[(10, 1)]);
        let mut p = settled_process(&mut h);
        let fd = h.fd.clone();
        let before = p.stats();
        assert_eq!(p.compact(&fd), urb_types::CompactionReport::default());
        assert_eq!(p.stats(), before, "no MemoryConfig, no reclamation");
    }

    #[test]
    fn undelivered_or_uncovered_tags_are_never_reclaimed() {
        let mut h = fd_harness(43, &[(10, 2)]);
        let mut p = QuiescentUrb::new();
        h.receive(&mut p, msg(7, "m"));
        h.receive(&mut p, ack(7, 100, "m", &[10])); // counter 1 < number 2
        p.configure_memory(mem(0, false));
        let fd = h.fd.clone();
        for _ in 0..5 {
            assert_eq!(p.compact(&fd).tombstoned, 0);
        }
        assert!(
            !p.table.is_tombstoned(Tag(7)),
            "unstable state is untouchable"
        );
    }

    #[test]
    fn conservative_mode_restarts_clock_on_view_change() {
        let mut h = fd_harness(44, &[(10, 1)]);
        let mut p = settled_process(&mut h);
        p.configure_memory(mem(2, true));
        let fd = h.fd.clone();
        p.compact(&fd); // clock 1 (and records the view signature)
        p.compact(&fd); // clock 2
                        // Detector wobbles: a new label appears — suspicion resets clocks.
        h.fd = FdSnapshot::new(theta(&[(10, 1), (20, 1)]), theta(&[(10, 1)]));
        assert_eq!(p.compact(&h.fd).tombstoned, 0, "clock restarted at 1");
        assert_eq!(p.compact(&h.fd).tombstoned, 0); // clock 2
        assert_eq!(p.compact(&h.fd).tombstoned, 1, "stable stretch completes");
    }

    #[test]
    fn ceiling_waives_grace_for_stable_tags() {
        let mut h = fd_harness(45, &[(10, 1)]);
        let mut p = settled_process(&mut h);
        p.configure_memory(MemoryConfig {
            grace_ticks: 1000,
            ceiling: Some(0),
            ..mem(0, false)
        });
        let fd = h.fd.clone();
        assert_eq!(p.compact(&fd).tombstoned, 1, "over ceiling: no waiting");
        assert_eq!(p.stats().total(), 0);
    }

    #[test]
    fn snapshot_round_trip_preserves_behavior() {
        let mut h = fd_harness(46, &[(10, 2)]);
        let mut p = QuiescentUrb::new();
        h.receive(&mut p, msg(7, "m"));
        h.receive(&mut p, ack(7, 100, "m", &[10]));
        h.receive(&mut p, ack(8, 101, "x", &[10]));
        let body = p.save_state().expect("alg2 snapshots");
        let mut q = QuiescentUrb::new();
        q.restore_state(&body).unwrap();
        assert_eq!(q.stats(), p.stats());
        assert_eq!(q.save_state().unwrap(), body, "byte-deterministic");
        // The restored process completes delivery exactly like the original.
        let a = h.receive(&mut p, ack(7, 101, "m", &[10]));
        let mut h2 = fd_harness(46, &[(10, 2)]);
        let b = h2.receive(&mut q, ack(7, 101, "m", &[10]));
        assert_eq!(a.deliveries, b.deliveries);
        assert_eq!(a.deliveries.len(), 1);
    }

    // ---- settled records hold no payload (DESIGN.md D2) -----------------

    /// Tag 7 delivered through our own ACK and pruned by one tick, under
    /// `a_theta = a_p* = {(10, 1)}`; returns the `tag_ack` we minted.
    fn settle_by_prune(h: &mut StepHarness, p: &mut QuiescentUrb) -> TagAck {
        let out = h.receive(p, msg(7, "m"));
        let WireMessage::Ack { tag_ack, .. } = out.acks()[0] else {
            unreachable!("acks() holds ACKs only")
        };
        assert_eq!(h.receive(p, ack(7, 100, "m", &[10])).deliveries.len(), 1);
        assert!(p.table.payload(Tag(7)).is_some(), "in MSG: Task 1 sends it");
        h.tick(p);
        assert!(p.is_quiescent(), "line 57 pruned it");
        *tag_ack
    }

    #[test]
    fn a_pruned_record_lets_its_payload_go_and_re_acks_a_late_msg_with_its_m() {
        let mut h = fd_harness(47, &[(10, 1)]);
        let mut p = QuiescentUrb::new();
        let minted = settle_by_prune(&mut h, &mut p);
        assert!(p.table.payload(Tag(7)).is_none(), "settled: payload gone");
        assert_eq!(p.stats().delivered, 1, "the record itself stays");
        // A late MSG copy is acknowledged again with the same tag_ack, and
        // the ACK carries the incoming `m`: the record has none to give.
        let out = h.receive(&mut p, msg(7, "m"));
        match out.acks()[..] {
            [WireMessage::Ack {
                tag_ack, payload, ..
            }] => {
                assert_eq!(*tag_ack, minted, "MY_ACK is stable");
                assert_eq!(payload.as_slice(), b"m");
            }
            _ => panic!("expected one ACK, got {:?}", out.broadcasts),
        }
        assert!(p.is_quiescent(), "lines 8–12 keep it out of MSG");
        assert!(p.table.payload(Tag(7)).is_none(), "and it takes no payload");
        p.table.assert_consistent();
    }

    #[test]
    fn a_late_ack_neither_redelivers_nor_readopts_a_payload() {
        // A fast delivery (no MSG copy yet) settles the record at once.
        let mut h = fd_harness(48, &[(10, 1)]);
        let mut p = QuiescentUrb::new();
        let out = h.receive(&mut p, ack(7, 100, "m", &[10]));
        assert!(out.deliveries[0].fast);
        assert_eq!(out.deliveries[0].payload.as_slice(), b"m");
        assert!(p.table.payload(Tag(7)).is_none(), "settled at delivery");
        // Label 10's process crashes: D4 purges every entry reporting it,
        // so the evidence is empty when the next ACK arrives.
        h.fd = FdSnapshot::new(theta(&[(20, 1)]), theta(&[(20, 1)]));
        h.receive(&mut p, ack(7, 101, "m", &[10]));
        let purged = p.table.evidence(Tag(7)).map(|acks| acks.entries.len());
        assert_eq!(purged, Some(0), "D4 left no evidence");
        let late = h.receive(&mut p, ack(7, 102, "m", &[20]));
        assert!(late.deliveries.is_empty(), "no second delivery");
        assert!(p.table.payload(Tag(7)).is_none(), "no payload taken back");
        assert_eq!(h.all_deliveries().len(), 1);
        p.table.assert_consistent();
    }

    #[test]
    fn a_settled_record_snapshots_byte_identically_and_restores_settled() {
        let mut h = fd_harness(49, &[(10, 1)]);
        let mut p = QuiescentUrb::new();
        settle_by_prune(&mut h, &mut p);
        let body = p.save_state().expect("alg2 snapshots");
        let mut q = QuiescentUrb::new();
        q.restore_state(&body).unwrap();
        assert_eq!(q.save_state().unwrap(), body, "save → restore → save");
        assert!(q.table.payload(Tag(7)).is_none(), "restored settled");
        assert!(q.table.has_delivered(Tag(7)));
        // Both answer a late MSG alike.
        let mut h2 = fd_harness(49, &[(10, 1)]);
        let a = h.receive(&mut p, msg(7, "m"));
        let b = h2.receive(&mut q, msg(7, "m"));
        assert_eq!(a.broadcasts, b.broadcasts);
        assert!(q.is_quiescent());
        q.table.assert_consistent();
    }

    #[test]
    fn restore_rejects_wrong_rule_and_garbage() {
        let p = QuiescentUrb::new();
        let body = p.save_state().unwrap();
        let mut literal = QuiescentUrb::with_rule(PruneRule::Literal);
        assert!(matches!(
            literal.restore_state(&body),
            Err(urb_types::SnapshotError::Malformed(_))
        ));
        let mut q = QuiescentUrb::new();
        assert!(q.restore_state(&body[..body.len() - 1]).is_err());
    }

    // ---- property tests ---------------------------------------------------

    mod props {
        use super::*;
        use crate::table::testkit;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// Re-derives the counters from the entries, and checks both
        /// halves are strictly ascending by key.
        fn recomputed_counters(table: &AckTable) -> Vec<(Label, u32)> {
            assert!(table.entries.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(table.counters.windows(2).all(|w| w[0].0 < w[1].0));
            let mut m = BTreeMap::new();
            for (_, ls) in table.entries.iter() {
                for l in ls.iter() {
                    *m.entry(l).or_insert(0u32) += 1;
                }
            }
            m.into_iter().collect()
        }

        fn variant(literal: bool, bounded: bool) -> QuiescentUrb {
            let mut p = QuiescentUrb::with_rule(if literal {
                PruneRule::Literal
            } else {
                PruneRule::Purge
            });
            if bounded {
                p.configure_memory(testkit::mem());
            }
            p
        }

        proptest! {
            #[test]
            fn table_stays_consistent_under_arbitrary_interleavings(
                ops in testkit::ops(),
                literal in any::<bool>(),
                bounded in any::<bool>(),
            ) {
                testkit::run_probed(variant(literal, bounded), &ops, |p| {
                    p.table.assert_consistent();
                    // D3, on every record the run produced.
                    for acks in p.table.evidences() {
                        assert_eq!(acks.counters[..], recomputed_counters(acks));
                    }
                });
            }

            #[test]
            fn mid_run_snapshot_restart_is_invisible(
                ops in testkit::ops(),
                cut in 0usize..100,
                literal in any::<bool>(),
                bounded in any::<bool>(),
            ) {
                testkit::snapshot_restart_is_invisible(|| variant(literal, bounded), &ops, cut);
            }
        }

        // Arbitrary reconcile sequences preserve the counter invariant
        // `counters[l] == |{ta : l ∈ entries[ta]}|` (DESIGN.md D3).
        proptest! {
            #[test]
            fn counter_invariant_under_reconcile(
                ops in proptest::collection::vec(
                    (0u8..6, proptest::collection::btree_set(0u64..8, 0..5)),
                    0..60
                )
            ) {
                let mut table = AckTable::default();
                for (ta, ls) in ops {
                    let set = LabelSet::from_iter(ls.into_iter().map(Label));
                    table.reconcile(TagAck(ta as u128), set);
                    prop_assert_eq!(&table.counters[..], &recomputed_counters(&table));
                }
            }

            #[test]
            fn counter_invariant_survives_purge(
                ops in proptest::collection::vec(
                    (0u8..6, proptest::collection::btree_set(0u64..8, 0..5)),
                    0..40
                ),
                live in proptest::collection::btree_set(0u64..8, 0..8)
            ) {
                let mut table = AckTable::default();
                for (ta, ls) in ops {
                    table.reconcile(
                        TagAck(ta as u128),
                        LabelSet::from_iter(ls.into_iter().map(Label)),
                    );
                }
                let live = LabelSet::from_iter(live.into_iter().map(Label));
                table.purge_dead(&live);
                prop_assert_eq!(&table.counters[..], &recomputed_counters(&table));
                // And every surviving entry is within the live set.
                for (_, ls) in table.entries.iter() {
                    prop_assert!(ls.is_subset(&live));
                }
            }

            #[test]
            fn integrity_under_arbitrary_ack_interleavings(
                events in proptest::collection::vec(
                    (0u8..3, 0u8..5, proptest::collection::btree_set(0u64..4, 0..4)),
                    0..80
                )
            ) {
                // a_theta fixed at {(0,2),(1,2),(2,2),(3,2)}.
                let pairs: Vec<(u64, u32)> = (0..4).map(|l| (l, 2)).collect();
                let mut h = fd_harness(999, &pairs);
                let mut p = QuiescentUrb::new();
                let mut seen = std::collections::BTreeSet::new();
                for (tg, ta, ls) in events {
                    let set: Vec<u64> = ls.into_iter().collect();
                    let out = h.receive(
                        &mut p,
                        ack(tg as u128, ta as u128, "m", &set),
                    );
                    for d in &out.deliveries {
                        prop_assert!(seen.insert(d.tag), "duplicate delivery");
                    }
                }
            }
        }
    }
}
