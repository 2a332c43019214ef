//! What an acknowledgment proves: the two [`Evidence`] types.
//!
//! Algorithm 1 counts distinct `tag_ack`s ([`AckSet`]). Algorithm 2's ACKs
//! also carry the sender's `a_theta` labels, so its evidence is a small
//! table ([`AckTable`]) with a per-label counter — and that is where the
//! counter invariant of DESIGN.md D3 and the dead-ACKer purge of D4 live.

use crate::table::Evidence;
use std::collections::{BTreeMap, BTreeSet};
use urb_types::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};
use urb_types::{Label, LabelSet, TagAck};

/// Algorithm 1's slice of `ALL_ACK_i` for one tag: the distinct
/// acknowledgment tags received (lines 19–21).
pub(crate) type AckSet = BTreeSet<TagAck>;

impl Evidence for AckSet {
    fn sizes(&self) -> (usize, usize) {
        (self.len(), 0)
    }

    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.len() as u64);
        for ta in self {
            w.put_u128(ta.0);
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut acks = AckSet::new();
        for _ in 0..r.get_u64()? {
            acks.insert(TagAck(r.get_u128()?));
        }
        Ok(acks)
    }
}

/// Acknowledgment table for one `(m, tag)` — the per-tag slice of the
/// paper's `ALL_ACK_i`, `all_labels_i[(m,tag), −]` and
/// `label_counter_i[(m,tag), −]` structures (allocated at lines 24–25).
#[derive(Clone, Debug, Default)]
pub(crate) struct AckTable {
    /// `all_labels[(m,tag), tag_ack]` — latest label set per distinct ACKer.
    pub(crate) entries: BTreeMap<TagAck, LabelSet>,
    /// `label_counter[(m,tag), label]` — how many ACKers currently report
    /// `label`. Invariant (D3): `counters[l] == |{ta : l ∈ entries[ta]}|`,
    /// entries with count 0 removed.
    pub(crate) counters: BTreeMap<Label, u32>,
}

impl AckTable {
    /// Current counter for `label` (0 when absent).
    pub(crate) fn counter(&self, label: Label) -> u32 {
        self.counters.get(&label).copied().unwrap_or(0)
    }

    /// The reconcile operation (lines 27–45 collapsed, DESIGN.md D3):
    /// replace the label set stored for `tag_ack` with `labels`, repairing
    /// the counters. Handles all three of the paper's cases (first ACK from
    /// this ACKer, repeated ACK with more labels, repeated ACK with fewer).
    pub(crate) fn reconcile(&mut self, tag_ack: TagAck, labels: LabelSet) {
        let old = self.entries.insert(tag_ack, labels.clone());
        if let Some(old) = old {
            // Decrement labels that disappeared (lines 38–44).
            for l in old.difference(&labels) {
                dec(&mut self.counters, l);
            }
            // Increment labels that are new (lines 34–37).
            for l in labels.difference(&old) {
                *self.counters.entry(l).or_insert(0) += 1;
            }
        } else {
            // First ACK from this ACKer (lines 27–32).
            for l in labels.iter() {
                *self.counters.entry(l).or_insert(0) += 1;
            }
        }
    }

    /// Removes every entry whose label set contains a label outside `live`
    /// (dead-ACKer purge, DESIGN.md D4).
    pub(crate) fn purge_dead(&mut self, live: &LabelSet) {
        let counters = &mut self.counters;
        self.entries.retain(|_, labels| {
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

fn dec(counters: &mut BTreeMap<Label, u32>, label: Label) {
    match counters.get_mut(&label) {
        Some(c) if *c > 1 => *c -= 1,
        Some(_) => {
            counters.remove(&label);
        }
        None => debug_assert!(false, "decrement of absent counter"),
    }
}

impl Evidence for AckTable {
    fn sizes(&self) -> (usize, usize) {
        (self.entries.len(), self.counters.len())
    }

    fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.entries.len() as u64);
        for (ta, labels) in &self.entries {
            w.put_u128(ta.0);
            w.put_u64(labels.len() as u64);
            for label in labels.iter() {
                w.put_u64(label.0);
            }
        }
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let mut table = AckTable::default();
        for _ in 0..r.get_u64()? {
            let ta = TagAck(r.get_u128()?);
            let mut labels = LabelSet::new();
            for _ in 0..r.get_u64()? {
                labels.insert(Label(r.get_u64()?));
            }
            // Rebuild through reconcile so the counter invariant is
            // re-derived, never trusted from the file.
            table.reconcile(ta, labels);
        }
        Ok(table)
    }
}
