//! **Algorithm 1** — Uniform Reliable Broadcast in `AAS_F[t < n/2]`
//! (paper §III).
//!
//! The idea: anonymity prevents processes from *naming* the correct process
//! that is guaranteed to hold a copy of a message, so the algorithm counts
//! *anonymous acknowledgments* instead. Each message gets a unique random
//! `tag`; each acknowledgment a unique random `tag_ack`. Because a process
//! re-uses the same `tag_ack` on every retransmission of its ACK for a given
//! `(m, tag)` (the `MY_ACK` set enforces this, lines 11–16), receiving a
//! strict majority of *distinct* `tag_ack`s proves a majority of processes
//! hold `m` — and with `t < n/2`, at least one of them is correct, which is
//! exactly the classic URB delivery condition.
//!
//! The algorithm is **not quiescent**: Task 1 (lines 28–32) rebroadcasts
//! every message in `MSG` forever, because with fair-lossy channels and no
//! failure detector a process can never learn that everyone has the message.
//! Experiment E4 measures this directly.

use crate::evidence::AckSet;
use crate::table::TagTable;
use urb_types::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use urb_types::{
    AnonProcess, CompactionReport, Context, FdSnapshot, MemoryConfig, Payload, ProcessStats, Tag,
    WireMessage,
};

/// Algorithm 1: majority-based, non-quiescent URB (code of `p_i`).
///
/// ```
/// use urb_core::{harness::StepHarness, MajorityUrb};
/// use urb_types::{AnonProcess, Payload, WireMessage, Tag, TagAck};
///
/// // A 3-process system: delivery needs 2 distinct anonymous ACKs.
/// let mut h = StepHarness::new(7);
/// let mut p = MajorityUrb::new(3);
/// let ack = |ta: u128| WireMessage::Ack {
///     tag: Tag(9), tag_ack: TagAck(ta),
///     payload: Payload::from("m"), labels: None,
/// };
/// assert!(h.receive(&mut p, ack(1)).deliveries.is_empty());
/// let out = h.receive(&mut p, ack(2));
/// assert_eq!(out.deliveries.len(), 1);          // majority reached
/// assert!(out.deliveries[0].fast);              // before any MSG copy!
/// assert!(p.is_quiescent());                    // … so MSG is still empty
/// ```
///
/// The paper's four sets are one record per tag in the shared table
/// (`crate::table`), walked in tag order so the whole protocol is
/// deterministic for a given seed:
///
/// | paper                 | record field                              |
/// |-----------------------|-------------------------------------------|
/// | `(m, tag) ∈ MSG_i`    | `in_msg` (+ the table's ordered MSG index) |
/// | `MY_ACK_i`            | `tag_ack`, when `acked`                   |
/// | `ALL_ACK_i`           | `evidence`: the set of distinct `tag_ack`s |
/// | `URB_DELIVERED_i`     | `delivered`                               |
#[derive(Clone, Debug)]
pub struct MajorityUrb {
    n: usize,
    /// Deliver when `|distinct tag_acks| >= threshold`. For the faithful
    /// algorithm this is the strict majority `⌊n/2⌋ + 1` (line 22); the
    /// Theorem-2 demonstration weakens it below a majority.
    threshold: usize,
    table: TagTable<AckSet>,
}

/// Lines 7–27: the reception handlers, over any Task-1 pacing `P` (the
/// backoff variant re-paces Task 1 and shares everything else).
pub(crate) fn on_receive<P: Default>(
    table: &mut TagTable<AckSet, P>,
    threshold: usize,
    msg: WireMessage,
    ctx: &mut Context<'_>,
) {
    match msg {
        // Lines 7–17; line 8 stores every received message, delivered or not.
        WireMessage::Msg { tag, payload } => table.on_msg(tag, payload, false, None, ctx),
        // Lines 18–27. Line 22: "a majority of (m, tag, −) in ALL_ACK" — a
        // strict majority of *distinct* tag_acks (or the configured
        // threshold).
        WireMessage::Ack {
            tag,
            tag_ack,
            payload,
            labels: _,
        } => table.on_ack(
            tag,
            payload,
            false,
            ctx,
            |acks| {
                acks.insert(tag_ack); // lines 19–21
            },
            |acks| acks.len() >= threshold,
        ),
        // Algorithm 1 runs without failure detectors; stray heartbeats
        // (e.g. mixed deployments) are ignored.
        WireMessage::Heartbeat { .. } => {}
    }
}

impl MajorityUrb {
    /// Faithful Algorithm 1 for a system of `n` processes: delivery requires
    /// a strict majority (`> n/2`) of distinct `tag_ack`s.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a system needs at least one process");
        MajorityUrb {
            n,
            threshold: n / 2 + 1,
            table: TagTable::default(),
        }
    }

    /// Algorithm 1 with an explicit delivery threshold.
    ///
    /// Only meaningful for the Theorem-2 impossibility demonstration (E2):
    /// with `threshold <= n/2` the algorithm can URB-deliver a message held
    /// exclusively by processes that then crash, violating uniform
    /// agreement — exactly the run `R2` of the paper's proof.
    pub fn with_threshold(n: usize, threshold: usize) -> Self {
        assert!(threshold >= 1 && threshold <= n);
        MajorityUrb {
            threshold,
            ..Self::new(n)
        }
    }
}

impl AnonProcess for MajorityUrb {
    fn urb_broadcast(&mut self, payload: Payload, ctx: &mut Context<'_>) -> Tag {
        self.table.urb_broadcast(payload, ctx)
    }

    fn on_receive(&mut self, msg: WireMessage, ctx: &mut Context<'_>) {
        on_receive(&mut self.table, self.threshold, msg, ctx);
    }

    /// Task 1, lines 28–32: rebroadcast every message in `MSG_i`, forever.
    fn on_tick(&mut self, ctx: &mut Context<'_>) {
        self.table.task1(ctx, |_, _, _| (true, true));
    }

    /// Never quiescent once `MSG_i` is non-empty — the defining limitation
    /// of Algorithm 1 (Theorem 3's motivation).
    fn is_quiescent(&self) -> bool {
        self.table.is_quiescent()
    }

    fn stats(&self) -> ProcessStats {
        self.table.stats()
    }

    fn algorithm_name(&self) -> &'static str {
        if self.threshold <= self.n / 2 {
            "alg1-weakened"
        } else {
            "alg1-majority"
        }
    }

    fn configure_memory(&mut self, cfg: MemoryConfig) {
        self.table.configure_memory(cfg);
    }

    /// Algorithm 1 stability rule (DESIGN.md §14): with no failure detector,
    /// the only proof that *every* correct process holds a message is `n`
    /// distinct `tag_ack`s. Reclaiming the record silences Task 1 for the
    /// tag — a deviation from rebroadcast-forever that exists only in
    /// bounded-memory mode. With a crashed process `n` ACKs never arrive and
    /// the tag is never reclaimed: Algorithm 1 cannot rule out a slow correct
    /// process, which is why the paper needs `AP*` for quiescence.
    fn compact(&mut self, _fd: &FdSnapshot) -> CompactionReport {
        let n = self.n;
        // No detector signals suspicion, so conservative mode simply doubles
        // the grace period.
        self.table.compact(
            |cfg| {
                (
                    cfg.grace_ticks
                        .saturating_mul(1 + u32::from(cfg.conservative)),
                    false,
                )
            },
            |_, acks| acks.len() >= n,
        )
    }

    fn save_state(&self) -> Option<Vec<u8>> {
        let mut w = SnapshotWriter::new();
        w.put_u64(self.n as u64);
        w.put_u64(self.threshold as u64);
        self.table.save(&mut w);
        Some(w.into_body())
    }

    fn restore_state(&mut self, body: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(body);
        let n = r.get_u64()? as usize;
        let threshold = r.get_u64()? as usize;
        if n != self.n || threshold != self.threshold {
            return Err(SnapshotError::Malformed(format!(
                "snapshot is for n={n} threshold={threshold}, instance has n={} threshold={}",
                self.n, self.threshold
            )));
        }
        self.table.restore(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::StepHarness;
    use urb_types::TagAck;

    fn msg(tag: u128, body: &str) -> WireMessage {
        WireMessage::Msg {
            tag: Tag(tag),
            payload: Payload::from(body),
        }
    }

    fn ack(tag: u128, ta: u128, body: &str) -> WireMessage {
        WireMessage::Ack {
            tag: Tag(tag),
            tag_ack: TagAck(ta),
            payload: Payload::from(body),
            labels: None,
        }
    }

    /// Number of distinct acknowledgment tags seen for `tag`.
    fn ack_count(p: &MajorityUrb, tag: Tag) -> usize {
        p.table.evidence(tag).map_or(0, |acks| acks.len())
    }

    #[test]
    fn broadcast_assigns_unique_tags_and_stores_message() {
        let mut h = StepHarness::new(1);
        let mut p = MajorityUrb::new(5);
        let (t1, _) = h.broadcast(&mut p, Payload::from("a"));
        let (t2, _) = h.broadcast(&mut p, Payload::from("b"));
        assert_ne!(t1, t2);
        assert_eq!(p.stats().msg_set, 2);
    }

    #[test]
    fn first_msg_reception_mints_ack_and_stores() {
        let mut h = StepHarness::new(2);
        let mut p = MajorityUrb::new(3);
        let out = h.receive(&mut p, msg(7, "hi"));
        assert_eq!(out.acks().len(), 1, "exactly one ACK per reception");
        assert_eq!(p.stats().msg_set, 1, "message entered MSG set");
        assert_eq!(p.stats().my_acks, 1);
        match out.acks()[0] {
            WireMessage::Ack {
                tag,
                payload,
                labels,
                ..
            } => {
                assert_eq!(*tag, Tag(7));
                assert_eq!(payload.as_slice(), b"hi");
                assert!(labels.is_none(), "Algorithm 1 ACKs carry no labels");
            }
            _ => panic!(),
        }
    }

    #[test]
    fn repeated_msg_reception_rebroadcasts_identical_ack() {
        // Lines 11–12: the tag_ack must be stable across retransmissions —
        // this is what makes distinct tag_acks count distinct processes.
        let mut h = StepHarness::new(3);
        let mut p = MajorityUrb::new(3);
        let first = h.receive(&mut p, msg(7, "hi"));
        let second = h.receive(&mut p, msg(7, "hi"));
        let get_ta = |o: &crate::harness::StepOut| match o.acks()[0] {
            WireMessage::Ack { tag_ack, .. } => *tag_ack,
            _ => panic!(),
        };
        assert_eq!(get_ta(&first), get_ta(&second));
        assert_eq!(p.stats().my_acks, 1, "MY_ACK holds one entry per tag");
    }

    #[test]
    fn distinct_messages_get_distinct_tag_acks() {
        let mut h = StepHarness::new(4);
        let mut p = MajorityUrb::new(3);
        let o1 = h.receive(&mut p, msg(1, "a"));
        let o2 = h.receive(&mut p, msg(2, "b"));
        let ta = |o: &crate::harness::StepOut| match o.acks()[0] {
            WireMessage::Ack { tag_ack, .. } => *tag_ack,
            _ => panic!(),
        };
        assert_ne!(ta(&o1), ta(&o2));
    }

    #[test]
    fn delivery_at_exactly_strict_majority() {
        // n = 5 ⇒ threshold 3. Two distinct ACKs: no delivery; third: deliver.
        let mut h = StepHarness::new(5);
        let mut p = MajorityUrb::new(5);
        assert!(h.receive(&mut p, ack(9, 100, "m")).deliveries.is_empty());
        assert!(h.receive(&mut p, ack(9, 101, "m")).deliveries.is_empty());
        let out = h.receive(&mut p, ack(9, 102, "m"));
        assert_eq!(out.deliveries.len(), 1);
        assert_eq!(out.deliveries[0].tag, Tag(9));
        assert_eq!(out.deliveries[0].payload.as_slice(), b"m");
    }

    #[test]
    fn duplicate_tag_acks_do_not_count_twice() {
        let mut h = StepHarness::new(6);
        let mut p = MajorityUrb::new(3); // threshold 2
        assert!(h.receive(&mut p, ack(9, 100, "m")).deliveries.is_empty());
        // Same tag_ack again (retransmission): still one distinct ACK.
        assert!(h.receive(&mut p, ack(9, 100, "m")).deliveries.is_empty());
        assert_eq!(ack_count(&p, Tag(9)), 1);
        assert_eq!(h.receive(&mut p, ack(9, 101, "m")).deliveries.len(), 1);
    }

    #[test]
    fn no_duplicate_delivery() {
        // Uniform Integrity: at most one delivery per message.
        let mut h = StepHarness::new(7);
        let mut p = MajorityUrb::new(3);
        h.receive(&mut p, ack(9, 1, "m"));
        let out = h.receive(&mut p, ack(9, 2, "m"));
        assert_eq!(out.deliveries.len(), 1);
        // Further ACKs for the same tag change nothing.
        let out = h.receive(&mut p, ack(9, 3, "m"));
        assert!(out.deliveries.is_empty());
        assert_eq!(h.all_deliveries().len(), 1);
    }

    #[test]
    fn fast_delivery_flag_set_when_msg_copy_never_arrived() {
        // The §III remark: majority of ACKs can precede the MSG copy.
        let mut h = StepHarness::new(8);
        let mut p = MajorityUrb::new(3);
        h.receive(&mut p, ack(9, 1, "m"));
        let out = h.receive(&mut p, ack(9, 2, "m"));
        assert!(out.deliveries[0].fast, "delivered without the MSG copy");
    }

    #[test]
    fn a_fast_delivered_tag_keeps_its_payload_and_task1_resends_the_full_m() {
        // Algorithm 1 holds nothing out of MSG: a tag it delivered from
        // ACKs alone enters MSG when the MSG copy arrives, and Task 1 must
        // then send `m` itself.
        let body = "the whole message";
        let mut h = StepHarness::new(5);
        let mut p = MajorityUrb::new(3);
        h.receive(&mut p, ack(7, 1, body));
        let out = h.receive(&mut p, ack(7, 2, body));
        assert!(out.deliveries[0].fast);
        let kept = p.table.payload(Tag(7)).map(Payload::as_slice);
        assert_eq!(kept, Some(body.as_bytes()), "no release in Algorithm 1");
        h.receive(&mut p, msg(7, body));
        let tick = h.tick(&mut p);
        match tick.msgs()[..] {
            [WireMessage::Msg { tag, payload }] => {
                assert_eq!(*tag, Tag(7));
                assert_eq!(payload.as_slice(), body.as_bytes());
            }
            _ => panic!("expected one MSG, got {:?}", tick.broadcasts),
        }
    }

    #[test]
    fn normal_delivery_flag_unset_when_msg_arrived_first() {
        let mut h = StepHarness::new(9);
        let mut p = MajorityUrb::new(3);
        h.receive(&mut p, msg(9, "m"));
        h.receive(&mut p, ack(9, 1, "m"));
        let out = h.receive(&mut p, ack(9, 2, "m"));
        assert!(!out.deliveries[0].fast);
    }

    #[test]
    fn task1_rebroadcasts_all_known_messages_forever() {
        let mut h = StepHarness::new(10);
        let mut p = MajorityUrb::new(3);
        h.receive(&mut p, msg(1, "a"));
        h.receive(&mut p, msg(2, "b"));
        for _ in 0..3 {
            let out = h.tick(&mut p);
            assert_eq!(out.msgs().len(), 2, "every MSG rebroadcast each sweep");
        }
        assert!(!p.is_quiescent(), "Algorithm 1 is non-quiescent");
    }

    #[test]
    fn quiescent_only_before_any_message() {
        let p = MajorityUrb::new(3);
        assert!(p.is_quiescent());
    }

    #[test]
    fn own_broadcast_echo_generates_self_ack() {
        // The broadcast primitive includes the sender; receiving our own MSG
        // must produce our ACK (first case in the paper's description).
        let mut h = StepHarness::new(11);
        let mut p = MajorityUrb::new(3);
        let (tag, _) = h.broadcast(&mut p, Payload::from("mine"));
        let out = h.receive(
            &mut p,
            WireMessage::Msg {
                tag,
                payload: Payload::from("mine"),
            },
        );
        assert_eq!(out.acks().len(), 1);
        assert_eq!(p.stats().my_acks, 1);
    }

    #[test]
    fn weakened_threshold_delivers_below_majority() {
        let mut h = StepHarness::new(12);
        let mut p = MajorityUrb::with_threshold(6, 2); // majority would be 4
        assert_eq!(p.algorithm_name(), "alg1-weakened");
        h.receive(&mut p, ack(9, 1, "m"));
        let out = h.receive(&mut p, ack(9, 2, "m"));
        assert_eq!(out.deliveries.len(), 1, "delivers on sub-majority quorum");
    }

    #[test]
    fn threshold_accessors() {
        let p = MajorityUrb::new(7);
        assert_eq!(p.threshold, 4);
        assert_eq!(p.n, 7);
        let p = MajorityUrb::new(8);
        assert_eq!(p.threshold, 5, "strict majority for even n");
    }

    #[test]
    fn heartbeats_are_ignored() {
        let mut h = StepHarness::new(13);
        let mut p = MajorityUrb::new(3);
        let out = h.receive(
            &mut p,
            WireMessage::Heartbeat {
                label: urb_types::Label(1),
                seq: 0,
            },
        );
        assert!(out.is_silent());
    }

    #[test]
    fn ack_before_msg_then_msg_is_still_acked() {
        // Interleaving: ACKs arrive first (fast path), then the MSG copy;
        // the process must still acknowledge the MSG for others' quorums.
        let mut h = StepHarness::new(14);
        let mut p = MajorityUrb::new(3);
        h.receive(&mut p, ack(9, 1, "m"));
        h.receive(&mut p, ack(9, 2, "m")); // delivers (fast)
        let out = h.receive(&mut p, msg(9, "m"));
        assert_eq!(out.acks().len(), 1);
        assert_eq!(h.all_deliveries().len(), 1, "no re-delivery");
    }

    #[test]
    fn stats_track_all_sets() {
        let mut h = StepHarness::new(15);
        let mut p = MajorityUrb::new(3);
        h.receive(&mut p, msg(1, "a"));
        h.receive(&mut p, ack(1, 10, "a"));
        h.receive(&mut p, ack(1, 11, "a"));
        let s = p.stats();
        assert_eq!(s.msg_set, 1);
        assert_eq!(s.my_acks, 1);
        assert_eq!(s.all_ack_entries, 2);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.label_counters, 0);
    }

    // ---- bounded-memory mode (DESIGN.md §14) ----------------------------

    use urb_types::{FdSnapshot, MemoryConfig};

    fn mem(grace: u32) -> MemoryConfig {
        MemoryConfig {
            grace_ticks: grace,
            conservative: false,
            tombstones: 16,
            ceiling: None,
            spill: urb_types::SpillPolicy::StableOnly,
        }
    }

    /// n=3 process with tag 9 delivered and acked by all three processes.
    fn fully_acked(h: &mut StepHarness) -> MajorityUrb {
        let mut p = MajorityUrb::new(3);
        h.receive(&mut p, msg(9, "m"));
        for ta in [1, 2, 3] {
            h.receive(&mut p, ack(9, ta, "m"));
        }
        assert!(p.table.has_delivered(Tag(9)));
        assert_eq!(ack_count(&p, Tag(9)), 3);
        p
    }

    #[test]
    fn compact_waits_for_all_n_acks() {
        let mut h = StepHarness::new(50);
        let mut p = MajorityUrb::new(3);
        h.receive(&mut p, msg(9, "m"));
        h.receive(&mut p, ack(9, 1, "m"));
        h.receive(&mut p, ack(9, 2, "m")); // delivers (majority) — but 2 < n
        p.configure_memory(mem(0));
        let fd = FdSnapshot::none();
        for _ in 0..5 {
            assert_eq!(p.compact(&fd).tombstoned, 0, "majority is not stability");
        }
        // The third ACK completes the stability evidence.
        h.receive(&mut p, ack(9, 3, "m"));
        assert_eq!(p.compact(&fd).tombstoned, 1);
        assert_eq!(p.stats().total(), 0, "MSG included: Task 1 goes silent");
        assert!(
            p.is_quiescent(),
            "bounded-memory Alg 1 quiesces on stability"
        );
    }

    #[test]
    fn compacted_tag_is_ignored_and_never_reacked() {
        let mut h = StepHarness::new(51);
        let mut p = fully_acked(&mut h);
        p.configure_memory(mem(0));
        p.compact(&FdSnapshot::none());
        assert!(p.table.is_tombstoned(Tag(9)));
        let out = h.receive(&mut p, msg(9, "m"));
        assert!(out.is_silent(), "no second tag_ack for a compacted tag");
        let out = h.receive(&mut p, ack(9, 4, "m"));
        assert!(out.deliveries.is_empty());
        assert_eq!(p.stats().total(), 0);
    }

    #[test]
    fn grace_clock_counts_consecutive_stable_sweeps() {
        let mut h = StepHarness::new(52);
        let mut p = fully_acked(&mut h);
        p.configure_memory(mem(2));
        let fd = FdSnapshot::none();
        assert_eq!(p.compact(&fd).tombstoned, 0); // clock 1
        assert_eq!(p.compact(&fd).tombstoned, 0); // clock 2
        assert_eq!(p.compact(&fd).tombstoned, 1); // clock 3 > 2
        assert_eq!(p.table.compacted_count(), 1);
    }

    #[test]
    fn snapshot_round_trip_is_byte_deterministic() {
        let mut h = StepHarness::new(53);
        let p = fully_acked(&mut h);
        let body = p.save_state().expect("alg1 snapshots");
        let mut q = MajorityUrb::new(3);
        q.restore_state(&body).unwrap();
        assert_eq!(q.stats(), p.stats());
        assert_eq!(ack_count(&q, Tag(9)), 3);
        assert!(q.table.has_delivered(Tag(9)));
        assert_eq!(q.save_state().unwrap(), body);
    }

    #[test]
    fn restore_rejects_mismatched_configuration() {
        let p = MajorityUrb::new(3);
        let body = p.save_state().unwrap();
        let mut wrong_n = MajorityUrb::new(5);
        assert!(wrong_n.restore_state(&body).is_err());
        let mut weak = MajorityUrb::with_threshold(3, 1);
        assert!(weak.restore_state(&body).is_err());
        let mut ok = MajorityUrb::new(3);
        ok.restore_state(&body).unwrap();
    }

    // ---- property tests -------------------------------------------------

    mod props {
        use super::*;
        use crate::table::testkit;
        use proptest::prelude::*;

        /// Arbitrary interleavings of MSG/ACK receptions never produce a
        /// duplicate delivery, never deliver below the threshold, and always
        /// deliver once the threshold is met (Uniform Integrity + the line-22
        /// condition).
        fn event_strategy() -> impl Strategy<Value = Vec<(bool, u8, u8)>> {
            // (is_ack, tag 0..4, tag_ack 0..8)
            proptest::collection::vec((any::<bool>(), 0u8..4, 0u8..8), 1..120)
        }

        proptest! {
            #[test]
            fn integrity_under_arbitrary_interleavings(events in event_strategy()) {
                let mut h = StepHarness::new(99);
                let mut p = MajorityUrb::new(5); // threshold 3
                let mut delivered_tags: Vec<Tag> = Vec::new();
                for (is_ack, tg, ta) in events {
                    let out = if is_ack {
                        h.receive(&mut p, ack(tg as u128, ta as u128, "m"))
                    } else {
                        h.receive(&mut p, msg(tg as u128, "m"))
                    };
                    for d in &out.deliveries {
                        prop_assert!(
                            !delivered_tags.contains(&d.tag),
                            "duplicate delivery of {:?}", d.tag
                        );
                        delivered_tags.push(d.tag);
                        prop_assert!(ack_count(&p, d.tag) >= 3,
                            "delivered below threshold");
                    }
                }
                // Post-condition: every tag with >= threshold distinct acks
                // was delivered.
                for tg in 0u8..4 {
                    let tag = Tag(tg as u128);
                    if ack_count(&p, tag) >= 3 {
                        prop_assert!(p.table.has_delivered(tag));
                    }
                }
            }

            #[test]
            fn tick_output_equals_msg_set(seeds in proptest::collection::vec(0u8..4, 0..10)) {
                let mut h = StepHarness::new(7);
                let mut p = MajorityUrb::new(5);
                for s in &seeds {
                    h.receive(&mut p, msg(*s as u128, "x"));
                }
                let distinct: std::collections::BTreeSet<_> = seeds.iter().collect();
                let out = h.tick(&mut p);
                prop_assert_eq!(out.msgs().len(), distinct.len());
            }

            #[test]
            fn tag_acks_never_collide_across_tags(tags in proptest::collection::vec(0u8..20, 1..40)) {
                let mut h = StepHarness::new(1234);
                let mut p = MajorityUrb::new(5);
                let mut seen = std::collections::BTreeSet::new();
                for tg in tags {
                    let out = h.receive(&mut p, msg(tg as u128, "x"));
                    if let WireMessage::Ack { tag_ack, .. } = out.acks()[0] {
                        seen.insert(*tag_ack);
                    }
                }
                // one tag_ack per *distinct* tag, all unique
                let distinct_tags = p.stats().my_acks;
                prop_assert_eq!(seen.len(), distinct_tags);
            }
        }

        fn variant(weakened: bool, bounded: bool) -> MajorityUrb {
            let mut p = if weakened {
                MajorityUrb::with_threshold(3, 1)
            } else {
                MajorityUrb::new(3)
            };
            if bounded {
                p.configure_memory(testkit::mem());
            }
            p
        }

        proptest! {
            #[test]
            fn table_stays_consistent_under_arbitrary_interleavings(
                ops in testkit::ops(),
                weakened in any::<bool>(),
                bounded in any::<bool>(),
            ) {
                testkit::run_probed(variant(weakened, bounded), &ops, |p| {
                    p.table.assert_consistent()
                });
            }

            #[test]
            fn mid_run_snapshot_restart_is_invisible(
                ops in testkit::ops(),
                cut in 0usize..100,
                weakened in any::<bool>(),
                bounded in any::<bool>(),
            ) {
                testkit::snapshot_restart_is_invisible(|| variant(weakened, bounded), &ops, cut);
            }
        }

        #[test]
        fn rng_is_actually_used_for_tags() {
            // `urb_broadcast` draws its tag from the context RNG: same seed,
            // same tag; different seed, different tag.
            let tag_for = |seed| {
                let mut h = StepHarness::new(seed);
                h.broadcast(&mut MajorityUrb::new(3), Payload::from("m")).0
            };
            assert_eq!(tag_for(1), tag_for(1));
            assert_ne!(tag_for(1), tag_for(2));
        }
    }
}
