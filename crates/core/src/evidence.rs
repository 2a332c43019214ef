//! What an acknowledgment proves: the two [`Evidence`] types.
//!
//! Algorithm 1 counts distinct `tag_ack`s ([`AckSet`]). Algorithm 2's ACKs
//! also carry the sender's `a_theta` labels, so its evidence is a small
//! table ([`AckTable`]) with a per-label counter — and that is where the
//! counter invariant of DESIGN.md D3 and the dead-ACKer purge of D4 live.
//!
//! Both are sorted vectors: in the model a tag's evidence holds at most
//! one entry per distinct ACKer and one counter per label, both bounded by
//! `n`, so a binary search and a short shift beat a tree on every path.
//! Each vector holds up to three items in place ([`InlineVec`]), and an
//! entry's label set is the ACK's own, moved in, which for up to three
//! labels is inline too: for `n ≤ 3` the evidence allocates nothing of
//! its own, and the record's one box for it is all it costs.

use crate::inline_vec::InlineVec;
use crate::table::Evidence;
use urb_types::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use urb_types::{Label, LabelSet, TagAck};

/// Rejects a restored list that is not strictly ascending: `save` never
/// writes one, so a repeat or an inversion is a corrupt body, not state to
/// merge.
fn ascending<T: Ord>(last: Option<&T>, next: &T, what: &str) -> Result<(), SnapshotError> {
    match last {
        Some(last) if last >= next => Err(SnapshotError::Malformed(format!(
            "{what} are not in strictly ascending order"
        ))),
        _ => Ok(()),
    }
}

/// Algorithm 1's slice of `ALL_ACK_i` for one tag: the distinct
/// acknowledgment tags received (lines 19–21), ascending.
#[derive(Clone, Debug, Default)]
pub(crate) struct AckSet(InlineVec<TagAck>);

impl AckSet {
    /// Number of distinct `tag_ack`s.
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Adds `tag_ack`; a repeat is a no-op.
    pub(crate) fn insert(&mut self, tag_ack: TagAck) {
        if let Err(at) = self.0.binary_search(&tag_ack) {
            self.0.insert(at, tag_ack);
        }
    }
}

impl Evidence for AckSet {
    fn sizes(&self) -> (usize, usize) {
        (self.len(), 0)
    }

    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.0.len() as u64);
        for ta in self.0.iter() {
            w.put_u128(ta.0);
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut acks = InlineVec::default();
        for _ in 0..r.get_u64()? {
            let ta = TagAck(r.get_u128()?);
            ascending(acks.last(), &ta, "tag_acks")?;
            acks.push(ta);
        }
        Ok(AckSet(acks))
    }
}

/// Acknowledgment table for one `(m, tag)` — the per-tag slice of the
/// paper's `ALL_ACK_i`, `all_labels_i[(m,tag), −]` and
/// `label_counter_i[(m,tag), −]` structures (allocated at lines 24–25).
///
/// Both halves are vectors sorted by key: `entries` by `tag_ack`,
/// `counters` by label, so the line-55 comparison against `a_p*` is one
/// in-order walk. Inserting is linear in the number of distinct ACKers or
/// labels, which the model bounds by `n`. At `n ≤ 3` the table is 224 B
/// and holds everything in place.
#[derive(Clone, Debug, Default)]
pub(crate) struct AckTable {
    /// `all_labels[(m,tag), tag_ack]` — latest label set per distinct ACKer.
    pub(crate) entries: InlineVec<(TagAck, LabelSet)>,
    /// `label_counter[(m,tag), label]` — how many ACKers currently report
    /// `label`. Invariant (D3): `counters[l] == |{ta : l ∈ entries[ta]}|`,
    /// entries with count 0 removed.
    pub(crate) counters: InlineVec<(Label, u32)>,
}

impl AckTable {
    /// Current counter for `label` (0 when absent).
    pub(crate) fn counter(&self, label: Label) -> u32 {
        self.counters
            .binary_search_by_key(&label, |&(l, _)| l)
            .map_or(0, |at| self.counters[at].1)
    }

    /// The reconcile operation (lines 27–45 collapsed, DESIGN.md D3):
    /// replace the label set stored for `tag_ack` with `labels`, repairing
    /// the counters. Handles all three of the paper's cases (first ACK from
    /// this ACKer, repeated ACK with more labels, repeated ACK with fewer).
    pub(crate) fn reconcile(&mut self, tag_ack: TagAck, labels: LabelSet) {
        match self.entries.binary_search_by_key(&tag_ack, |(ta, _)| *ta) {
            Ok(at) => {
                let old = std::mem::replace(&mut self.entries[at].1, labels);
                let new = &self.entries[at].1;
                // Decrement labels that disappeared (lines 38–44).
                for l in old.difference(new) {
                    dec(&mut self.counters, l);
                }
                // Increment labels that are new (lines 34–37).
                for l in new.difference(&old) {
                    inc(&mut self.counters, l);
                }
            }
            Err(at) => {
                // First ACK from this ACKer (lines 27–32).
                for l in labels.iter() {
                    inc(&mut self.counters, l);
                }
                self.entries.insert(at, (tag_ack, labels));
            }
        }
    }

    /// Removes every entry whose label set contains a label outside `live`
    /// (dead-ACKer purge, DESIGN.md D4).
    pub(crate) fn purge_dead(&mut self, live: &LabelSet) {
        let counters = &mut self.counters;
        self.entries.retain(|(_, labels)| {
            let alive = labels.is_subset(live);
            if !alive {
                for l in labels.iter() {
                    dec(counters, l);
                }
            }
            alive
        });
    }
}

fn inc(counters: &mut InlineVec<(Label, u32)>, label: Label) {
    match counters.binary_search_by_key(&label, |&(l, _)| l) {
        Ok(at) => counters[at].1 += 1,
        Err(at) => counters.insert(at, (label, 1)),
    }
}

fn dec(counters: &mut InlineVec<(Label, u32)>, label: Label) {
    match counters.binary_search_by_key(&label, |&(l, _)| l) {
        Ok(at) if counters[at].1 > 1 => counters[at].1 -= 1,
        Ok(at) => {
            counters.remove(at);
        }
        Err(_) => debug_assert!(false, "decrement of absent counter"),
    }
}

impl Evidence for AckTable {
    fn sizes(&self) -> (usize, usize) {
        (self.entries.len(), self.counters.len())
    }

    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.entries.len() as u64);
        for (ta, labels) in self.entries.iter() {
            w.put_u128(ta.0);
            w.put_u64(labels.len() as u64);
            for label in labels.iter() {
                w.put_u64(label.0);
            }
        }
    }

    /// The counters are re-derived from the entries, never trusted from the
    /// file.
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut table = AckTable::default();
        for _ in 0..r.get_u64()? {
            let ta = TagAck(r.get_u128()?);
            ascending(table.entries.last().map(|(last, _)| last), &ta, "tag_acks")?;
            // Checked label by label, then built as one set.
            let count = r.get_u64()?;
            let labels = r.get_u64s(count)?.map(Label);
            let mut last = None;
            for label in labels.clone() {
                ascending(last.as_ref(), &label, "labels")?;
                inc(&mut table.counters, label);
                last = Some(label);
            }
            table.entries.push((ta, LabelSet::from_iter(labels)));
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Restores one evidence body written by hand.
    fn restore<E: Evidence>(write: impl FnOnce(&mut SnapshotWriter)) -> Result<E, SnapshotError> {
        let mut w = SnapshotWriter::new();
        write(&mut w);
        let body = w.into_body();
        let mut r = SnapshotReader::new(&body);
        let evidence = E::restore(&mut r)?;
        r.finish()?;
        Ok(evidence)
    }

    fn malformed<E: std::fmt::Debug>(got: Result<E, SnapshotError>) -> bool {
        matches!(got, Err(SnapshotError::Malformed(_)))
    }

    #[test]
    fn ack_set_restore_rejects_a_repeated_or_descending_tag_ack() {
        let body = |tas: &'static [u128]| {
            move |w: &mut SnapshotWriter| {
                w.put_u64(tas.len() as u64);
                for &ta in tas {
                    w.put_u128(ta);
                }
            }
        };
        assert!(malformed(restore::<AckSet>(body(&[3, 3]))), "repeat");
        assert!(malformed(restore::<AckSet>(body(&[5, 3]))), "descending");
        assert_eq!(restore::<AckSet>(body(&[3, 5])).unwrap().len(), 2);
    }

    #[test]
    fn ack_table_restore_rejects_a_repeated_tag_ack_or_label() {
        let body = |entries: &'static [(u128, &'static [u64])]| {
            move |w: &mut SnapshotWriter| {
                w.put_u64(entries.len() as u64);
                for &(ta, labels) in entries {
                    w.put_u128(ta);
                    w.put_u64(labels.len() as u64);
                    for &l in labels {
                        w.put_u64(l);
                    }
                }
            }
        };
        let repeated_ack = restore::<AckTable>(body(&[(3, &[1]), (3, &[2])]));
        assert!(malformed(repeated_ack), "a tag_ack listed twice");
        let repeated_label = restore::<AckTable>(body(&[(3, &[1, 1])]));
        assert!(malformed(repeated_label), "a label listed twice");
        assert!(malformed(restore::<AckTable>(body(&[(3, &[2, 1])]))));
        let ok = restore::<AckTable>(body(&[(3, &[1, 2]), (4, &[2])])).unwrap();
        assert_eq!((ok.counter(Label(1)), ok.counter(Label(2))), (1, 2));
        let mut w = SnapshotWriter::new();
        ok.save(&mut w);
        let mut again = SnapshotWriter::new();
        body(&[(3, &[1, 2]), (4, &[2])])(&mut again);
        assert_eq!(w.into_body(), again.into_body(), "re-save is the input");
    }

    /// Sets past a label set's inline capacity restore like small ones:
    /// rejected out of order or repeated, and otherwise counted and saved
    /// back byte for byte.
    #[test]
    fn ack_table_restore_handles_sets_of_more_than_three_labels() {
        let body = |entries: Vec<(u128, Vec<u64>)>| {
            move |w: &mut SnapshotWriter| {
                w.put_u64(entries.len() as u64);
                for (ta, labels) in &entries {
                    w.put_u128(*ta);
                    w.put_u64(labels.len() as u64);
                    for &l in labels {
                        w.put_u64(l);
                    }
                }
            }
        };
        let repeated = restore::<AckTable>(body(vec![(3, vec![1, 2, 3, 4, 4])]));
        assert!(
            malformed(repeated),
            "a label listed twice past the inline sets"
        );
        let descending = restore::<AckTable>(body(vec![(3, vec![1, 2, 3, 5, 4])]));
        assert!(malformed(descending));
        let entries = vec![
            (3, (1..=32).collect::<Vec<u64>>()),
            (4, vec![2, 4, 6, 8, 10]),
            (7, vec![4]),
        ];
        let ok = restore::<AckTable>(body(entries.clone())).unwrap();
        assert_eq!(ok.entries[0].1.len(), 32);
        assert_eq!(
            (
                ok.counter(Label(1)),
                ok.counter(Label(4)),
                ok.counter(Label(32))
            ),
            (1, 3, 1)
        );
        let mut w = SnapshotWriter::new();
        ok.save(&mut w);
        let mut again = SnapshotWriter::new();
        body(entries)(&mut again);
        assert_eq!(w.into_body(), again.into_body(), "re-save is the input");
    }
}
