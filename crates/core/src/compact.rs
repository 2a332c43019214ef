//! Shared machinery of the bounded-memory mode (DESIGN.md §14).
//!
//! Both paper algorithms compact the same way: a tag whose entries have
//! become *stable* — provably present at every correct process under the
//! per-algorithm stability rule — survives a grace period of consecutive
//! stable sweeps, then its `MSG`/`MY_ACK`/`ALL_ACK`/`URB_DELIVERED` entries
//! are reclaimed and the tag moves into a bounded [`TombstoneRing`]. A late
//! copy of a tombstoned tag is dropped on receipt: it is never acknowledged
//! again (re-minting a `tag_ack` would break the distinct-ACK counting) and
//! never re-enters state (re-entering `URB_DELIVERED` empty would permit a
//! duplicate delivery).

use std::collections::{BTreeSet, VecDeque};
use urb_types::snapshot::{
    fnv1a_continue, SnapshotError, SnapshotReader, SnapshotWriter, FNV1A_OFFSET,
};
use urb_types::{FdSnapshot, Tag};

/// Bounded FIFO memory of compacted tags.
///
/// Oldest tags are evicted first once the ring is full; an evicted tag that
/// still has copies in flight could re-enter state as a fresh message, so
/// the capacity (with the grace period) bounds how old a duplicate the
/// suppression can still catch — the trade-off DESIGN.md §14 spells out.
#[derive(Clone, Debug, Default)]
pub struct TombstoneRing {
    ring: VecDeque<Tag>,
    set: BTreeSet<Tag>,
    cap: usize,
}

impl TombstoneRing {
    /// An empty ring holding at most `cap` tags (`cap == 0` disables
    /// tombstoning entirely).
    pub const fn new(cap: usize) -> Self {
        TombstoneRing {
            ring: VecDeque::new(),
            set: BTreeSet::new(),
            cap,
        }
    }

    /// True when the ring remembers no tag.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// True when `tag` was compacted and is still remembered.
    pub fn contains(&self, tag: Tag) -> bool {
        self.set.contains(&tag)
    }

    /// Remembers a compacted tag, evicting the oldest when full.
    pub fn push(&mut self, tag: Tag) {
        if self.cap == 0 || !self.set.insert(tag) {
            return;
        }
        self.ring.push_back(tag);
        while self.ring.len() > self.cap {
            if let Some(old) = self.ring.pop_front() {
                self.set.remove(&old);
            }
        }
    }

    /// Evicts the oldest half of the ring (the [`SpillPolicy::Tombstones`]
    /// response to memory pressure). Returns how many tags went.
    ///
    /// [`SpillPolicy::Tombstones`]: urb_types::SpillPolicy::Tombstones
    pub fn shed_half(&mut self) -> usize {
        let drop = self.ring.len() / 2;
        for _ in 0..drop {
            if let Some(old) = self.ring.pop_front() {
                self.set.remove(&old);
            }
        }
        drop
    }

    /// Serializes the ring (oldest-first order preserved).
    pub fn save(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.ring.len() as u64);
        for tag in &self.ring {
            w.put_u128(tag.0);
        }
    }

    /// Restores a ring saved by [`TombstoneRing::save`]. The capacity is
    /// `cap`, raised if needed so no restored tag is evicted on load.
    pub fn restore(r: &mut SnapshotReader<'_>, cap: usize) -> Result<Self, SnapshotError> {
        let len = r.get_u64()? as usize;
        let mut ring = TombstoneRing::new(cap.max(len));
        for _ in 0..len {
            ring.push(Tag(r.get_u128()?));
        }
        Ok(ring)
    }
}

/// Order-stable fingerprint of a failure-detector snapshot, used by the
/// conservative mode to notice "the view changed" and reset grace clocks.
///
/// FNV-1a over each view's pair count (`u64`) then its pairs (`u64`
/// label, `u32` number), little-endian — the bytes a [`SnapshotWriter`]
/// would produce, hashed where they lie: the value is saved in snapshots,
/// and a compaction sweep computes it for every instance without
/// allocating.
pub fn fd_signature(fd: &FdSnapshot) -> u64 {
    let mut h = FNV1A_OFFSET;
    let mut eat = |bytes: &[u8]| h = fnv1a_continue(h, bytes);
    for view in [&fd.a_theta, &fd.a_p_star] {
        eat(&(view.len() as u64).to_le_bytes());
        for pair in view.iter() {
            eat(&pair.label.0.to_le_bytes());
            eat(&pair.number.to_le_bytes());
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use urb_types::{FdPair, FdView, Label};

    #[test]
    fn ring_remembers_then_evicts_oldest() {
        let mut r = TombstoneRing::new(2);
        r.push(Tag(1));
        r.push(Tag(2));
        assert!(r.contains(Tag(1)) && r.contains(Tag(2)));
        r.push(Tag(3));
        assert!(!r.contains(Tag(1)), "oldest evicted");
        assert!(r.contains(Tag(2)) && r.contains(Tag(3)));
        assert_eq!(r.ring.len(), 2);
    }

    #[test]
    fn duplicate_push_is_idempotent() {
        let mut r = TombstoneRing::new(3);
        r.push(Tag(1));
        r.push(Tag(1));
        assert_eq!(r.ring.len(), 1);
    }

    #[test]
    fn zero_capacity_disables() {
        let mut r = TombstoneRing::new(0);
        r.push(Tag(1));
        assert!(!r.contains(Tag(1)));
        assert!(r.ring.is_empty());
    }

    #[test]
    fn shed_half_drops_oldest() {
        let mut r = TombstoneRing::new(8);
        for t in 0..4u128 {
            r.push(Tag(t));
        }
        assert_eq!(r.shed_half(), 2);
        assert!(!r.contains(Tag(0)) && !r.contains(Tag(1)));
        assert!(r.contains(Tag(2)) && r.contains(Tag(3)));
    }

    #[test]
    fn ring_snapshot_round_trip() {
        let mut r = TombstoneRing::new(4);
        for t in [9u128, 5, 7] {
            r.push(Tag(t));
        }
        let mut w = SnapshotWriter::new();
        r.save(&mut w);
        let body = w.into_body();
        let mut reader = SnapshotReader::new(&body);
        let back = TombstoneRing::restore(&mut reader, 4).unwrap();
        reader.finish().unwrap();
        assert_eq!(back.ring.len(), 3);
        assert!(back.contains(Tag(9)) && back.contains(Tag(5)) && back.contains(Tag(7)));
        // Eviction order survives: pushing two more drops 9 then 5.
        let mut back = back;
        back.push(Tag(1));
        back.push(Tag(2));
        assert!(!back.contains(Tag(9)));
        assert!(back.contains(Tag(5)));
    }

    /// The signature is saved in snapshots, so hashing in place must give
    /// exactly the value of hashing the encoded views.
    #[test]
    fn fd_signature_is_the_hash_of_the_encoded_views() {
        let encoded = |fd: &FdSnapshot| {
            let mut w = SnapshotWriter::new();
            for view in [&fd.a_theta, &fd.a_p_star] {
                w.put_u64(view.len() as u64);
                for pair in view.iter() {
                    w.put_u64(pair.label.0);
                    w.put_u32(pair.number);
                }
            }
            urb_types::snapshot::fnv1a(w.as_slice())
        };
        let view = |pairs: &[(u64, u32)]| {
            FdView::from_pairs(pairs.iter().map(|&(l, number)| FdPair {
                label: Label(l),
                number,
            }))
        };
        let wide: Vec<(u64, u32)> = (0..9).map(|l| (l << 40 | 7, 9)).collect();
        for fd in [
            FdSnapshot::none(),
            FdSnapshot::new(view(&[(1, 2)]), FdView::empty()),
            FdSnapshot::new(
                view(&[(10, 3), (11, 3), (12, 3)]),
                view(&[(10, 3), (12, 3)]),
            ),
            FdSnapshot::new(view(&wide), view(&[(u64::MAX, u32::MAX)])),
        ] {
            assert_eq!(fd_signature(&fd), encoded(&fd), "{fd:?}");
        }
        // Pinned: the value a snapshot of the empty view holds.
        assert_eq!(fd_signature(&FdSnapshot::none()), 0x6D4E_AFB9_60FF_6465);
    }

    #[test]
    fn fd_signature_tracks_view_changes() {
        let v1 = FdView::from_pairs([FdPair {
            label: Label(1),
            number: 2,
        }]);
        let v2 = FdView::from_pairs([FdPair {
            label: Label(1),
            number: 3,
        }]);
        let a = fd_signature(&FdSnapshot::new(v1.clone(), v1.clone()));
        let b = fd_signature(&FdSnapshot::new(v1.clone(), v2));
        let c = fd_signature(&FdSnapshot::new(v1.clone(), v1));
        assert_ne!(a, b);
        assert_eq!(a, c);
    }
}
