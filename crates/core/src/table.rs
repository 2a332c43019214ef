//! The one per-tag record behind Algorithm 1, Algorithm 2 and the backoff
//! variant.
//!
//! The paper presents Algorithm 2 as Algorithm 1 with three edits; this
//! module is the part they share. A [`TagTable`] maps each `tag` to one
//! [`TagState`] — the row the paper spreads over `MSG_i`, `MY_ACK_i`,
//! `ALL_ACK_i` and `URB_DELIVERED_i`, with the payload stored once (a tag
//! identifies its payload, DESIGN.md D2) and let go once nothing can read
//! it again — and implements everything that
//! does not depend on *how* acknowledgments are counted. A variant adds its
//! [`Evidence`] type and the closures it passes in: the delivery guard, the
//! prune guard and the stability rule.
//!
//! Every walk is in tag order: Task-1 emission order and tombstone-ring
//! push order are pinned by the golden traces. A reception finds its
//! record in `O(1)` however many the table holds.

use crate::compact::TombstoneRing;
use crate::record_map::RecordMap;
use crate::sorted_map::SortedMap;
use urb_types::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use urb_types::{
    CompactionReport, Context, LabelSet, MemoryConfig, Payload, ProcessStats, SpillPolicy, Tag,
    TagAck, WireMessage,
};

/// The acknowledgments received for one tag — the per-tag slice of
/// `ALL_ACK_i`. `Default` is "no ACK seen yet".
pub(crate) trait Evidence: Default {
    /// `(ALL_ACK entries, label counters)` held, in [`ProcessStats`] units.
    fn sizes(&self) -> (usize, usize);
    /// Writes the evidence of one snapshot record.
    fn save(&self, w: &mut SnapshotWriter);
    /// Reads back what [`Evidence::save`] wrote.
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError>;
}

/// Everything a process holds for one `tag`: a fixed 64 B row (80 B with
/// its tag in the record map) and, once an ACK arrived, one box for the
/// evidence, which at `n ≤ 3` holds it all in place.
#[derive(Clone, Debug, Default)]
struct TagState<E> {
    /// `m`. `None` once the record is settled: delivered and out of
    /// `MSG_i` for good, which only a variant that holds delivered tags out
    /// of `MSG_i` (lines 8–12) can promise. An ACK carries its own copy of
    /// `m` and D2 keys everything else by `tag`, so a settled record never
    /// reads it again, and the frame it was a view into is freed.
    payload: Option<Payload>,
    /// `(m, tag) ∈ MSG_i`; mirrored by [`TagTable::msg`].
    in_msg: bool,
    /// `(m, tag) ∈ URB_DELIVERED_i`.
    delivered: bool,
    /// Whether the `MY_ACK_i` entry is set: then it is `tag_ack`. A flag
    /// beside the others, where an `Option<TagAck>` would pad to 32 B.
    acked: bool,
    tag_ack: TagAck,
    /// Behind one pointer, so the row stays small: the record map's dense
    /// vector copies every row each time it grows. Boxed when it is first
    /// needed, which for all but a few records is the first ACK; `None`
    /// holds what an empty box would.
    evidence: Option<Box<E>>,
    /// Consecutive stable compaction sweeps (0 = clock not running).
    grace: u32,
}

impl<E: Evidence> TagState<E> {
    /// Entries this record contributes to [`ProcessStats::total`]; a record
    /// at 0 is dropped (an ACK's evidence can be purged before anything
    /// else happens to the tag).
    /// The evidence's [`Evidence::sizes`].
    fn sizes(&self) -> (usize, usize) {
        self.evidence.as_deref().map_or((0, 0), E::sizes)
    }

    fn entries(&self) -> usize {
        let (acks, counters) = self.sizes();
        usize::from(self.in_msg)
            + usize::from(self.delivered)
            + usize::from(self.acked)
            + acks
            + counters
    }
}

/// The bounded-memory state of a table (DESIGN.md §14). Most instances
/// never compact, so it lives behind one box that only exists once there
/// is something to hold.
#[derive(Clone, Debug, Default)]
struct Bounded {
    /// `None` = compaction off and behavior byte-identical to the
    /// unbounded algorithm (a restored ring is still honoured).
    mem: Option<MemoryConfig>,
    /// Tags already compacted; late copies are dropped on receipt.
    tombs: TombstoneRing,
    /// Tags compacted so far, for diagnostics.
    compacted: u64,
}

/// What a table without a [`Bounded`] box holds: nothing configured,
/// nothing tombstoned.
static UNBOUNDED: Bounded = Bounded {
    mem: None,
    tombs: TombstoneRing::new(0),
    compacted: 0,
};

/// The ordered `tag → TagState` table of one process. `P` is per-entry
/// state of `MSG_i` (the backoff variant's pacing; `()` otherwise).
///
/// Sized for the common case at topic scale, an instance holding one
/// settled record or none: both maps are a sorted vector until they
/// outgrow [`SPILL`](crate::sorted_map::SPILL) entries, and the
/// bounded-memory state is one optional box. Past that, the records sit
/// behind a hashed index ([`RecordMap`]) and `MSG_i` in a tree.
#[derive(Clone, Debug, Default)]
pub(crate) struct TagTable<E, P = ()> {
    /// The records, found by hash; walked in tag order only by sorting.
    records: RecordMap<TagState<E>>,
    /// `MSG_i` as an ordered set: the tags whose record has `in_msg`. Task 1
    /// walks this, not the records — with compaction off a settled record
    /// stays forever, and scanning tens of thousands of them for the few
    /// still in `MSG_i` costs hundreds of microseconds per tick.
    msg: SortedMap<Tag, P>,
    /// Tags line-57 pruned out of `MSG_i` so far, for diagnostics.
    pruned: u64,
    /// Allocated by [`TagTable::configure_memory`], or by a restore that
    /// brings tombstones or a compacted count.
    bounded: Option<Box<Bounded>>,
}

impl<E: Evidence, P: Default> TagTable<E, P> {
    fn bounded(&self) -> &Bounded {
        self.bounded.as_deref().unwrap_or(&UNBOUNDED)
    }

    /// True when `tag` was compacted and is still tombstoned.
    pub(crate) fn is_tombstoned(&self, tag: Tag) -> bool {
        self.bounded().tombs.contains(tag)
    }

    /// The record for `tag`, created on first sight, entered into `MSG_i`
    /// unless `unless_delivered` holds it out. A record entering `MSG_i`
    /// keeps the payload it has, or takes this one: Task 1 sends it.
    fn enter(&mut self, tag: Tag, payload: &Payload, unless_delivered: bool) -> &mut TagState<E> {
        let rec = self.records.get_or_insert_with(tag, TagState::default);
        let held_out = unless_delivered && rec.delivered;
        if !rec.in_msg && !held_out {
            rec.in_msg = true;
            rec.payload.get_or_insert_with(|| payload.clone());
            self.msg.get_or_insert_with(tag, P::default);
        }
        rec
    }

    /// Lines 4–6, plus an immediate first Task-1 transmission (D7): Task 1
    /// would send the message on its next sweep anyway; sending now only
    /// shifts phase.
    pub(crate) fn urb_broadcast(&mut self, payload: Payload, ctx: &mut Context<'_>) -> Tag {
        let tag = Tag::random(ctx.rng); // line 5
        self.enter(tag, &payload, false); // line 6
        ctx.broadcast(WireMessage::Msg { tag, payload });
        tag
    }

    /// Reception of `(MSG, m, tag)` (Alg 1 lines 7–17, Alg 2 lines 7–21):
    /// store the message and acknowledge it, `labels` riding on the ACK.
    ///
    /// Alg 1 line 8 puts every received message into `MSG_i`; Alg 2 lines
    /// 8–12 (`unless_delivered`) keep a delivered one out — a pruned message
    /// must not re-enter the rebroadcast set, or quiescence would be lost.
    ///
    /// The first reception (from anyone, ourselves included) mints the
    /// `tag_ack`; every further one re-broadcasts the identical ACK to beat
    /// message loss — a stable `tag_ack` is what makes distinct `tag_ack`s
    /// count distinct processes. A compacted tag's late copies are dropped
    /// whole (DESIGN.md §14): re-acknowledging would mint a second
    /// `tag_ack` for the same process.
    pub(crate) fn on_msg(
        &mut self,
        tag: Tag,
        payload: Payload,
        unless_delivered: bool,
        labels: Option<LabelSet>,
        ctx: &mut Context<'_>,
    ) {
        if self.is_tombstoned(tag) {
            return;
        }
        let rec = self.enter(tag, &payload, unless_delivered);
        if !rec.acked {
            (rec.acked, rec.tag_ack) = (true, TagAck::random(ctx.rng));
        }
        let tag_ack = rec.tag_ack;
        ctx.broadcast(WireMessage::Ack {
            tag,
            tag_ack,
            payload,
            labels,
        });
    }

    /// Reception of an ACK for `tag`: `update` folds it into the evidence,
    /// then — unless already delivered — `guard` is the variant's delivery
    /// condition (Alg 1 line 22 / Alg 2 line 46). ACKs piggyback `m`
    /// (DESIGN.md D1), so delivery may precede the MSG copy; that is the
    /// `fast` flag experiment E10 counts. ACKs for a compacted tag are
    /// ignored: it was delivered here already. `unless_delivered` is the
    /// variant's [`TagTable::on_msg`] flag: when it holds, a fast delivery
    /// settles the record at once and its payload goes.
    pub(crate) fn on_ack(
        &mut self,
        tag: Tag,
        payload: Payload,
        unless_delivered: bool,
        ctx: &mut Context<'_>,
        update: impl FnOnce(&mut E),
        guard: impl FnOnce(&E) -> bool,
    ) {
        if self.is_tombstoned(tag) {
            return;
        }
        let rec = self.records.get_or_insert_with(tag, TagState::default);
        // A new record takes this copy of `m`, and the first ACK's copy
        // replaces the MSG's. Equal by D2, but a payload is a view into the
        // frame it arrived in, and the first ACK frame is the one every
        // process ends up viewing: nodes sharing an address space then pin
        // one buffer per tag, not the MSG frame and the broadcaster's
        // original too (ledger `inproc_saturate`: 72 → 61 MB). A delivered
        // record keeps what it has: a settled one holds no payload and
        // takes none back when D4 has purged its evidence to nothing.
        if rec.sizes() == (0, 0) && !rec.delivered {
            rec.payload = Some(payload);
        }
        let evidence = rec.evidence.get_or_insert_default();
        update(evidence);
        if !rec.delivered && guard(evidence) {
            rec.delivered = true;
            let m = if unless_delivered && !rec.in_msg {
                rec.payload.take()
            } else {
                rec.payload.clone()
            };
            let m = m.expect("an undelivered record holds its payload");
            ctx.deliver(tag, m, !rec.in_msg);
        }
        if rec.entries() == 0 {
            self.records.remove(&tag);
        }
    }

    /// One Task-1 sweep over `MSG_i`, in tag order. For each message `each`
    /// sees `(delivered, evidence, pacing)` and answers `(send, keep)`:
    /// whether to rebroadcast it now and whether it stays in `MSG_i` (line
    /// 57 when it does not). Allocates nothing and costs `O(|MSG_i|)`
    /// record lookups, so an Algorithm 2 process does not pay for its
    /// settled history on every tick. Only Algorithm 2 prunes, and only a
    /// delivered message, which lines 8–12 then hold out of `MSG_i` for
    /// good: a pruned record is settled and lets its payload go.
    pub(crate) fn task1(
        &mut self,
        ctx: &mut Context<'_>,
        mut each: impl FnMut(bool, &mut E, &mut P) -> (bool, bool),
    ) {
        let (records, pruned) = (&mut self.records, &mut self.pruned);
        self.msg.retain(|tag, pace| {
            let rec = records
                .get_mut(tag)
                .expect("every MSG_i entry has a record");
            let (send, keep) = each(rec.delivered, rec.evidence.get_or_insert_default(), pace);
            if send {
                let payload = rec.payload.clone();
                let payload = payload.expect("a record in MSG_i holds its payload");
                ctx.broadcast(WireMessage::Msg { tag: *tag, payload });
            }
            if !keep {
                debug_assert!(rec.delivered, "line 57 prunes delivered messages only");
                *pruned += 1;
                rec.payload = None;
            }
            rec.in_msg = keep;
            keep
        });
    }

    /// Quiescent once `MSG_i` is empty: Task 1 sends nothing, and ACKs are
    /// only ever triggered by incoming MSGs.
    pub(crate) fn is_quiescent(&self) -> bool {
        self.msg.is_empty()
    }

    pub(crate) fn stats(&self) -> ProcessStats {
        let mut stats = ProcessStats {
            msg_set: self.msg.len(),
            ..ProcessStats::default()
        };
        for rec in self.records.values() {
            let (acks, counters) = rec.sizes();
            stats.my_acks += usize::from(rec.acked);
            stats.all_ack_entries += acks;
            stats.delivered += usize::from(rec.delivered);
            stats.label_counters += counters;
        }
        stats
    }

    pub(crate) fn configure_memory(&mut self, cfg: MemoryConfig) {
        let bounded = self.bounded.get_or_insert_default();
        bounded.tombs = TombstoneRing::new(cfg.tombstones);
        bounded.mem = Some(cfg);
    }

    /// One bounded-memory sweep (DESIGN.md §14) over the delivered tags, in
    /// tag order; nothing happens until [`TagTable::configure_memory`].
    /// `plan` reads the variant's `(need, restart)` off the configuration
    /// and `stable` is its stability rule, asked with `(in MSG_i,
    /// evidence)`: a tag that stays stable for more than `need` consecutive
    /// sweeps — or any stable tag while residency is over the ceiling — has
    /// its record dropped and moves to the tombstone ring. Unstable state is
    /// never touched, no matter the pressure. `restart` zeroes every grace
    /// clock first.
    pub(crate) fn compact(
        &mut self,
        plan: impl FnOnce(&MemoryConfig) -> (u32, bool),
        mut stable: impl FnMut(bool, &mut E) -> bool,
    ) -> CompactionReport {
        let mut report = CompactionReport::default();
        let TagTable {
            records,
            msg,
            bounded: Some(bounded),
            ..
        } = self
        else {
            return report;
        };
        let Some(cfg) = bounded.mem else {
            return report;
        };
        let (need, restart) = plan(&cfg);
        // Residency is `stats().total()`: the records' entries sum to it.
        let over = cfg
            .ceiling
            .is_some_and(|c| records.values().map(TagState::entries).sum::<usize>() > c);
        records.retain(|tag, rec| {
            if !rec.delivered {
                return true;
            }
            if restart {
                rec.grace = 0;
            }
            if !stable(rec.in_msg, rec.evidence.get_or_insert_default()) {
                rec.grace = 0;
                return true;
            }
            rec.grace = rec.grace.saturating_add(1);
            if rec.grace <= need && !over {
                return true;
            }
            // Reclaim: every entry held for the tag goes, the tag is
            // tombstoned.
            report.reclaimed += rec.entries();
            report.tombstoned += 1;
            if rec.in_msg {
                msg.remove(tag);
            }
            bounded.tombs.push(*tag);
            bounded.compacted += 1;
            false
        });
        if over && cfg.spill == SpillPolicy::Tombstones {
            bounded.tombs.shed_half();
        }
        report
    }

    /// Writes the table as one record per tag, then the tombstone ring. A
    /// settled record writes a zero-length payload.
    pub(crate) fn save(&self, w: &mut SnapshotWriter) {
        let bounded = self.bounded();
        w.put_u64(self.pruned);
        w.put_u64(bounded.compacted);
        w.put_u64(self.records.len() as u64);
        for (tag, rec) in self.records.iter() {
            w.put_u128(tag.0);
            w.put_bytes(rec.payload.as_ref().map_or(&[], Payload::as_slice));
            w.put_u8(
                u8::from(rec.in_msg) | (u8::from(rec.delivered) << 1) | (u8::from(rec.acked) << 2),
            );
            if rec.acked {
                w.put_u128(rec.tag_ack.0);
            }
            w.put_u32(rec.grace);
            rec.evidence.as_deref().unwrap_or(&E::default()).save(w);
        }
        bounded.tombs.save(w);
    }

    /// Replaces the table with what [`TagTable::save`] wrote — the tail of
    /// every variant's snapshot body, so `r` must end with it. `MSG_i` is
    /// rebuilt from the records, never read from the file; on error the
    /// table is unchanged.
    pub(crate) fn restore(&mut self, mut r: SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let malformed = |why: &str| Err(SnapshotError::Malformed(why.to_string()));
        let pruned = r.get_u64()?;
        let compacted = r.get_u64()?;
        let mut records = RecordMap::default();
        let mut msg = SortedMap::default();
        let mut last = None;
        for _ in 0..r.get_u64()? {
            let tag = Tag(r.get_u128()?);
            if last.is_some_and(|last| last >= tag) {
                return malformed("records are not in ascending tag order");
            }
            last = Some(tag);
            let payload = r.get_bytes()?;
            let flags = r.get_u8()?;
            if flags > 7 {
                return malformed("unknown record flag");
            }
            let (in_msg, delivered, acked) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
            // A settled record wrote no payload, and comes back settled.
            let settled = delivered && !in_msg && payload.is_empty();
            let rec = TagState {
                payload: (!settled).then(|| Payload::copy_from_slice(payload)),
                in_msg,
                delivered,
                acked,
                tag_ack: if acked {
                    TagAck(r.get_u128()?)
                } else {
                    TagAck::default()
                },
                grace: r.get_u32()?,
                evidence: Some(Box::new(E::restore(&mut r)?)),
            };
            if rec.entries() == 0 || (rec.grace != 0 && !rec.delivered) {
                return malformed("record holds nothing, or a grace clock without a delivery");
            }
            if rec.in_msg {
                msg.get_or_insert_with(tag, P::default);
            }
            records.get_or_insert_with(tag, || rec);
        }
        let mem = self.bounded().mem;
        let tombs = TombstoneRing::restore(&mut r, mem.map_or(0, |m| m.tombstones))?;
        r.finish()?;
        (self.records, self.msg, self.pruned) = (records, msg, pruned);
        self.bounded = (mem.is_some() || compacted != 0 || !tombs.is_empty()).then(|| {
            Box::new(Bounded {
                mem,
                tombs,
                compacted,
            })
        });
        Ok(())
    }
}

/// Read-only views for the unit tests of the three variants.
#[cfg(test)]
impl<E: Evidence, P: Default> TagTable<E, P> {
    /// The ACK evidence held for `tag`, if any record exists.
    pub(crate) fn evidence(&self, tag: Tag) -> Option<&E> {
        self.records
            .get(&tag)
            .and_then(|rec| rec.evidence.as_deref())
    }

    /// The ACK evidence of every record, in no particular order.
    pub(crate) fn evidences(&self) -> impl Iterator<Item = &E> {
        self.records
            .values()
            .filter_map(|rec| rec.evidence.as_deref())
    }

    /// The payload the record for `tag` holds: `None` once it is settled,
    /// or when there is no record.
    pub(crate) fn payload(&self, tag: Tag) -> Option<&Payload> {
        self.records.get(&tag).and_then(|rec| rec.payload.as_ref())
    }

    /// True when this process has URB-delivered `tag`.
    pub(crate) fn has_delivered(&self, tag: Tag) -> bool {
        self.records.get(&tag).is_some_and(|rec| rec.delivered)
    }

    /// Number of messages line-57 pruned from `MSG_i` so far.
    pub(crate) fn pruned_count(&self) -> u64 {
        self.pruned
    }

    /// Number of tags reclaimed by the bounded-memory mode so far.
    pub(crate) fn compacted_count(&self) -> u64 {
        self.bounded().compacted
    }

    /// Checks the `MSG_i` set against the records' `in_msg` flags, that no
    /// record holds nothing, and that no bounded-memory box was allocated
    /// for nothing.
    pub(crate) fn assert_consistent(&self) {
        for (tag, rec) in self.records.iter() {
            assert!(rec.entries() > 0, "{tag:?}: record holds nothing");
            assert_eq!(rec.in_msg, self.msg.contains_key(tag), "{tag:?}: MSG_i");
            assert!(rec.grace == 0 || rec.delivered, "{tag:?}: grace clock");
            assert!(
                rec.payload.is_some() || (rec.delivered && !rec.in_msg),
                "{tag:?}: a record Task 1 or a delivery may read holds no payload"
            );
        }
        let in_msg = self.records.values().filter(|rec| rec.in_msg).count();
        assert_eq!(in_msg, self.msg.len(), "MSG_i has a tag without a record");
        let bounded = self.bounded.as_deref();
        assert!(
            bounded.is_none_or(|b| b.mem.is_some() || b.compacted > 0 || !b.tombs.is_empty()),
            "a bounded-memory box holding nothing"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::{AckSet, AckTable};
    use std::mem;

    /// A row of the record map is a tag and a fixed record: the evidence
    /// is one pointer, and `MY_ACK_i` a flag beside a bare `TagAck` (144 B
    /// with the evidence inline as two `Vec`s and an `Option<TagAck>`).
    #[test]
    fn a_record_row_is_at_most_80_bytes() {
        assert!(mem::size_of::<(Tag, TagState<AckTable>)>() <= 80);
        assert!(mem::size_of::<(Tag, TagState<AckSet>)>() <= 80);
    }

    /// The evidence box of a system of up to three processes: three ACK
    /// entries and three counters held in place, 216 B padded to a
    /// `TagAck`'s 16-byte alignment.
    #[test]
    fn the_evidence_box_is_224_bytes_for_three_processes() {
        assert_eq!(mem::size_of::<AckTable>(), 224);
        assert_eq!(mem::size_of::<AckSet>(), 64);
    }
}

/// A random-script driver shared by the variants' property tests: each
/// variant instantiates the same two checks for its own configurations.
#[cfg(test)]
pub(crate) mod testkit {
    use crate::harness::{StepHarness, StepOut};
    use proptest::prelude::*;
    use urb_types::{
        AnonProcess, CompactionReport, Context, FdPair, FdSnapshot, FdView, Label, LabelSet,
        MemoryConfig, Payload, SpillPolicy, SplitMix64, Tag, TagAck, WireMessage,
    };

    /// `(kind, tag, tag_ack, labels)`: one broadcast, MSG or ACK reception,
    /// tick, compaction sweep or detector change.
    pub(crate) type Op = (u8, u8, u8, Vec<u64>);

    /// Half the scripts draw tags from `0..5`, so receptions pile onto a few
    /// records; the other half from `0..40`, so a table outgrows the sorted
    /// vectors ([`SPILL`](crate::sorted_map::SPILL) entries) and runs on the
    /// record index and the `MSG_i` tree.
    pub(crate) fn ops() -> impl Strategy<Value = Vec<Op>> {
        let script = |tags: u8| {
            let labels = proptest::collection::vec(0u64..3, 0..3);
            proptest::collection::vec((0u8..9, 0..tags, 0u8..5, labels), 1..100)
        };
        prop_oneof![script(5), script(40)]
    }

    /// A small ring, a one-sweep grace period and a low ceiling, so
    /// reclamation, tombstoning, ring eviction and shedding all happen
    /// within a hundred steps.
    pub(crate) fn mem() -> MemoryConfig {
        MemoryConfig {
            grace_ticks: 1,
            conservative: true,
            tombstones: 2,
            ceiling: Some(12),
            spill: SpillPolicy::Tombstones,
        }
    }

    fn view(pairs: &[(u64, u32)]) -> FdView {
        FdView::from_pairs(pairs.iter().map(|&(l, number)| FdPair {
            label: Label(l),
            number,
        }))
    }

    /// Applies one scripted step; returns what it emitted and reclaimed.
    pub(crate) fn apply(
        h: &mut StepHarness,
        p: &mut dyn AnonProcess,
        (kind, tag, ta, labels): &Op,
    ) -> (StepOut, CompactionReport) {
        let payload = Payload::from("m");
        let tag = Tag(*tag as u128);
        let out = match kind {
            0 => h.broadcast(p, payload).1,
            1..=2 => h.receive(p, WireMessage::Msg { tag, payload }),
            3..=5 => h.receive(
                p,
                WireMessage::Ack {
                    tag,
                    tag_ack: TagAck(*ta as u128),
                    payload,
                    labels: Some(LabelSet::from_iter(labels.iter().map(|&l| Label(l)))),
                },
            ),
            6 => h.tick(p),
            7 => return (StepOut::default(), p.compact(&h.fd)),
            _ => {
                h.fd = match ta % 3 {
                    0 => FdSnapshot::new(view(&[(0, 1)]), view(&[(0, 1)])),
                    1 => FdSnapshot::new(view(&[(0, 2), (1, 2)]), view(&[(0, 2), (1, 2)])),
                    _ => FdSnapshot::new(view(&[(0, 1), (1, 1)]), FdView::empty()),
                };
                StepOut::default()
            }
        };
        (out, CompactionReport::default())
    }

    /// Runs `ops` from a fresh instance, calling `probe` after every step.
    pub(crate) fn run_probed<V: AnonProcess>(mut p: V, ops: &[Op], probe: impl Fn(&V)) {
        let mut h = StepHarness::new(5);
        for op in ops {
            apply(&mut h, &mut p, op);
            probe(&p);
        }
    }

    /// The [`AnonProcess::is_quiescent`] contract the engine's node tick
    /// relies on to skip idle topics: at every point of the script where
    /// `p` reports quiescence, one `on_tick` emits nothing, delivers
    /// nothing, draws no randomness and leaves `stats()` and `save_state()`
    /// as they were.
    pub(crate) fn quiescent_tick_is_a_noop(p: &mut dyn AnonProcess, ops: &[Op]) {
        let mut h = StepHarness::new(5);
        for (at, op) in ops.iter().enumerate() {
            apply(&mut h, p, op);
            if !p.is_quiescent() {
                continue;
            }
            let before = (p.stats(), p.save_state());
            let mut rng = SplitMix64::new(11);
            let (mut outbox, mut deliveries) = (Vec::new(), Vec::new());
            p.on_tick(&mut Context::new(
                &mut rng,
                &h.fd,
                &mut outbox,
                &mut deliveries,
            ));
            assert!(outbox.is_empty(), "step {at}: a quiescent tick emitted");
            assert!(
                deliveries.is_empty(),
                "step {at}: a quiescent tick delivered"
            );
            assert_eq!(
                rng.state(),
                11,
                "step {at}: a quiescent tick drew randomness"
            );
            assert_eq!(
                (p.stats(), p.save_state()),
                before,
                "step {at}: state moved"
            );
            assert!(p.is_quiescent(), "step {at}: a tick ended quiescence");
        }
    }

    /// Snapshots after `ops[..cut]`, restores into a fresh instance, and
    /// checks the restored instance is indistinguishable over `ops[cut..]`:
    /// same outbox, deliveries and reclamation at every step, same final
    /// snapshot bytes.
    pub(crate) fn snapshot_restart_is_invisible<V: AnonProcess>(
        make: impl Fn() -> V,
        ops: &[Op],
        cut: usize,
    ) {
        let (prefix, suffix) = ops.split_at(cut % (ops.len() + 1));
        // Two harnesses in lockstep so both RNG streams stay aligned.
        let (mut h1, mut h2) = (StepHarness::new(5), StepHarness::new(5));
        let (mut p, mut twin) = (make(), make());
        for op in prefix {
            apply(&mut h1, &mut p, op);
            apply(&mut h2, &mut twin, op);
        }
        let body = p.save_state().expect("variant snapshots");
        let mut q = make();
        q.restore_state(&body).expect("own snapshot restores");
        assert_eq!(
            q.save_state().as_ref(),
            Some(&body),
            "save → restore → save"
        );
        assert_eq!(q.stats(), p.stats());
        for op in suffix {
            let (a, ra) = apply(&mut h1, &mut p, op);
            let (b, rb) = apply(&mut h2, &mut q, op);
            assert_eq!(a.broadcasts, b.broadcasts);
            assert_eq!(a.deliveries, b.deliveries);
            assert_eq!(ra, rb);
        }
        assert_eq!(p.save_state(), q.save_state());
    }
}
