//! The tag-keyed map behind a table's records.
//!
//! Every reception looks its tag's record up, and with compaction off a
//! process keeps every record it ever delivered, so the lookup must not
//! grow with history. [`RecordMap`] is the same sorted `Vec` of pairs as
//! [`SortedMap`](crate::sorted_map::SortedMap) while it holds at most
//! [`SPILL`] entries — the one- or two-record table of a topic costs one
//! small buffer — and past that its entries are stored densely, in no
//! particular order, behind an open-addressed index of 4-byte positions.
//!
//! The index hashes a tag with a salted folded multiply of its two 64-bit
//! halves. Tags arrive from peers, so the two salts are drawn per map from
//! the standard library's per-process random keys, never from the protocol
//! RNG: no tag stream moves, and a peer cannot craft tags that pile onto
//! one probe sequence without knowing them.
//!
//! Lookups, inserts and removals are `O(1)` expected. The walks whose order
//! is observable — snapshot bytes, the compaction sweep's tombstone order,
//! the test views — go through [`RecordMap::iter`] and
//! [`RecordMap::retain`], which visit in tag order by sorting.

use crate::sorted_map::{get_or_insert_sorted, position, SPILL};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::mem;
use urb_types::Tag;

/// An index slot that holds no position.
const EMPTY: u32 = u32::MAX;

/// A tag-keyed map: a sorted `Vec` while small, dense entries behind a
/// hashed index when large (see the module docs). Boxing the large form
/// keeps the map at three words.
#[derive(Clone, Debug)]
pub(crate) enum RecordMap<V> {
    /// Strictly ascending by tag; at most [`SPILL`] entries.
    Small(Vec<(Tag, V)>),
    /// More than `SPILL / 2` entries.
    Large(Box<Indexed<V>>),
}

/// The large form of a [`RecordMap`].
#[derive(Clone, Debug)]
pub(crate) struct Indexed<V> {
    /// The entries, in no particular order.
    entries: Vec<(Tag, V)>,
    /// Linear-probing table of positions into `entries`, or [`EMPTY`]. Its
    /// length is a power of two, more than twice `entries.len()`.
    slots: Vec<u32>,
    /// The two keys of [`Indexed::home`].
    salt: [u64; 2],
}

impl<V> Default for RecordMap<V> {
    fn default() -> Self {
        RecordMap::Small(Vec::new())
    }
}

/// Index length for `len` entries: a power of two above twice `len`.
fn slots_for(len: usize) -> usize {
    (2 * len + 1).next_power_of_two()
}

impl<V> Indexed<V> {
    fn new(entries: Vec<(Tag, V)>) -> Self {
        let keys = RandomState::new();
        Self::with_salt(entries, [keys.hash_one(0u8), keys.hash_one(1u8)])
    }

    fn with_salt(entries: Vec<(Tag, V)>, salt: [u64; 2]) -> Self {
        let mut ix = Indexed {
            entries,
            slots: Vec::new(),
            salt,
        };
        ix.reindex(ix.entries.len());
        ix
    }

    /// The slot `tag`'s probe sequence starts at: the top `log2(slots)`
    /// bits of the folded product, mixed once more. Without that last
    /// multiply, tags sharing their low half hash by one constant per map,
    /// and some salts cluster them into probe runs of hundreds. An index
    /// holding any entry has at least `slots_for(1)` = 4 slots, so the
    /// shift stays below 64.
    fn home(&self, tag: Tag) -> usize {
        let (lo, hi) = (tag.0 as u64, (tag.0 >> 64) as u64);
        let folded = u128::from(lo ^ self.salt[0]) * u128::from(hi ^ self.salt[1]);
        let mixed = ((folded as u64) ^ ((folded >> 64) as u64)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mixed >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// `Ok(slot holding tag)`, or `Err(the empty slot ending its probe)`.
    fn find(&self, tag: Tag) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(tag);
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                at if self.entries[at as usize].0 == tag => return Ok(slot),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Rebuilds the index over `entries`, sized for `len` of them.
    fn reindex(&mut self, len: usize) {
        self.slots.clear();
        self.slots.resize(slots_for(len), EMPTY);
        for at in 0..self.entries.len() {
            let slot = self
                .find(self.entries[at].0)
                .expect_err("tags are distinct");
            self.slots[slot] = at as u32;
        }
    }

    /// Empties `hole` by shifting back the entries after it that probed
    /// past it, so every probe sequence stays unbroken.
    fn unlink(&mut self, mut hole: usize) {
        let mask = self.slots.len() - 1;
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            let at = self.slots[slot];
            if at == EMPTY {
                break;
            }
            let home = self.home(self.entries[at as usize].0);
            // Its probe ran from `home` through `hole`: it moves back.
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.slots[hole] = at;
                hole = slot;
            }
        }
        self.slots[hole] = EMPTY;
    }

    fn remove(&mut self, tag: Tag) -> Option<V> {
        let slot = self.find(tag).ok()?;
        let at = self.slots[slot] as usize;
        self.unlink(slot);
        let last = self.entries.len() - 1;
        if at != last {
            // `swap_remove` moves the last entry into `at`.
            let moved = self.find(self.entries[last].0).expect("indexed");
            self.slots[moved] = at as u32;
        }
        Some(self.entries.swap_remove(at).1)
    }
}

impl<V> RecordMap<V> {
    pub(crate) fn len(&self) -> usize {
        match self {
            RecordMap::Small(v) => v.len(),
            RecordMap::Large(ix) => ix.entries.len(),
        }
    }

    #[cfg(test)]
    pub(crate) fn get(&self, tag: &Tag) -> Option<&V> {
        match self {
            RecordMap::Small(v) => position(v, tag).ok().map(|at| &v[at].1),
            RecordMap::Large(ix) => ix
                .find(*tag)
                .ok()
                .map(|slot| &ix.entries[ix.slots[slot] as usize].1),
        }
    }

    pub(crate) fn get_mut(&mut self, tag: &Tag) -> Option<&mut V> {
        match self {
            RecordMap::Small(v) => position(v, tag).ok().map(|at| &mut v[at].1),
            RecordMap::Large(ix) => ix
                .find(*tag)
                .ok()
                .map(|slot| &mut ix.entries[ix.slots[slot] as usize].1),
        }
    }

    /// The value for `tag`, inserting `make()` first when absent. An empty
    /// map's first insert allocates exactly one slot.
    pub(crate) fn get_or_insert_with(&mut self, tag: Tag, make: impl FnOnce() -> V) -> &mut V {
        if let RecordMap::Small(v) = self {
            if v.len() == SPILL && position(v, &tag).is_err() {
                *self = RecordMap::Large(Box::new(Indexed::new(mem::take(v))));
            }
        }
        match self {
            RecordMap::Small(v) => get_or_insert_sorted(v, tag, make),
            RecordMap::Large(ix) => {
                let at = match ix.find(tag) {
                    Ok(slot) => ix.slots[slot] as usize,
                    Err(mut slot) => {
                        assert!(ix.entries.len() < EMPTY as usize, "too many records");
                        if slots_for(ix.entries.len() + 1) > ix.slots.len() {
                            ix.reindex(ix.entries.len() + 1);
                            slot = ix.find(tag).expect_err("absent");
                        }
                        ix.slots[slot] = ix.entries.len() as u32;
                        ix.entries.push((tag, make()));
                        ix.entries.len() - 1
                    }
                };
                &mut ix.entries[at].1
            }
        }
    }

    pub(crate) fn remove(&mut self, tag: &Tag) -> Option<V> {
        let removed = match self {
            RecordMap::Small(v) => position(v, tag).ok().map(|at| v.remove(at).1),
            RecordMap::Large(ix) => ix.remove(*tag),
        };
        self.fold();
        removed
    }

    /// Keeps the entries `keep` accepts, visiting them in tag order. A
    /// large map sorts its entries in place unless they already are, and
    /// rebuilds its index only when an entry moved or left.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&Tag, &mut V) -> bool) {
        match self {
            RecordMap::Small(v) => v.retain_mut(|(k, val)| keep(k, val)),
            RecordMap::Large(ix) => {
                let (len, sorted) = (ix.entries.len(), ix.entries.is_sorted_by_key(|(k, _)| *k));
                if !sorted {
                    ix.entries.sort_unstable_by_key(|(k, _)| *k);
                }
                ix.entries.retain_mut(|(k, val)| keep(k, val));
                if !sorted || ix.entries.len() < len {
                    ix.reindex(ix.entries.len());
                }
            }
        }
        self.fold();
    }

    /// The entries in tag order. A large map collects and sorts references
    /// to its entries first, so this is for snapshots and tests, not for a
    /// per-message path.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Tag, &V)> {
        let (small, large) = match self {
            RecordMap::Small(v) => (v.as_slice(), None),
            RecordMap::Large(ix) => {
                let mut sorted: Vec<&(Tag, V)> = ix.entries.iter().collect();
                sorted.sort_unstable_by_key(|(k, _)| *k);
                (&[][..], Some(sorted))
            }
        };
        small
            .iter()
            .chain(large.into_iter().flatten())
            .map(|(k, v)| (k, v))
    }

    /// The values in no particular order.
    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        let entries = match self {
            RecordMap::Small(v) => v,
            RecordMap::Large(ix) => &ix.entries,
        };
        entries.iter().map(|(_, v)| v)
    }

    /// A large map that shrank to half the threshold becomes a sorted
    /// vector again.
    fn fold(&mut self) {
        if let RecordMap::Large(ix) = self {
            if ix.entries.len() <= SPILL / 2 {
                let mut v = mem::take(&mut ix.entries);
                v.sort_unstable_by_key(|(k, _)| *k);
                v.shrink_to_fit();
                *self = RecordMap::Small(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urb_types::rng::{RandomSource, SplitMix64};

    #[test]
    fn the_map_is_three_words() {
        assert_eq!(mem::size_of::<RecordMap<[u64; 8]>>(), 24);
        assert_eq!(mem::size_of::<RecordMap<()>>(), 24);
    }

    /// The longest probe sequence any entry of a large map needs.
    fn longest_probe<V>(m: &RecordMap<V>) -> usize {
        let RecordMap::Large(ix) = m else {
            return 1;
        };
        let mask = ix.slots.len() - 1;
        (0..ix.slots.len())
            .filter(|&slot| ix.slots[slot] != EMPTY)
            .map(|slot| {
                let home = ix.home(ix.entries[ix.slots[slot] as usize].0);
                (slot.wrapping_sub(home) & mask) + 1
            })
            .max()
            .unwrap_or(0)
    }

    /// The `i`-th of a set of tags sharing their low 64 bits: what a peer
    /// could send to defeat an unsalted hash of either half.
    fn shared_lo(i: u64) -> Tag {
        Tag(u128::from(i) << 64 | 0xDEAD_BEEF)
    }

    /// The `i`-th of a set of tags sharing `lo ^ hi`.
    fn shared_xor(i: u64) -> Tag {
        let lo = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Tag(u128::from(lo ^ 0x5EED) << 64 | u128::from(lo))
    }

    /// 4 096 tags of each crafted set must spread over the index like
    /// random tags do — at load at most one half, linear probing's longest
    /// run stays in the tens — and every tag must still be found, before
    /// and after half are removed.
    #[test]
    fn crafted_tags_spread_over_the_index() {
        for craft in [shared_lo, shared_xor] {
            let mut m = RecordMap::default();
            for i in 0..4_096 {
                *m.get_or_insert_with(craft(i), || 0) = i;
            }
            assert_eq!(m.len(), 4_096);
            let probe = longest_probe(&m);
            assert!(probe <= 64, "longest probe {probe} over 4 096 crafted tags");
            for i in (0..4_096).step_by(2) {
                assert_eq!(m.remove(&craft(i)), Some(i));
            }
            for i in 0..4_096 {
                assert_eq!(m.get(&craft(i)).copied(), (i % 2 == 1).then_some(i));
            }
            assert!(
                longest_probe(&m) <= probe,
                "removal never lengthens a probe"
            );
        }
    }

    /// The two crafted sets, 4 096 tags each, indexed under 1 000 salt
    /// pairs from a fixed SplitMix64 stream instead of the one pair a
    /// process draws: no salt may cluster them.
    #[test]
    fn no_salt_clusters_the_crafted_tags() {
        let mut salts = SplitMix64::new(0x5EED);
        let sets: Vec<Vec<(Tag, ())>> = [shared_lo, shared_xor]
            .map(|craft| (0..4_096).map(|i| (craft(i), ())).collect())
            .into();
        for round in 0..1_000 {
            let salt = [salts.next_u64(), salts.next_u64()];
            for set in &sets {
                let m = RecordMap::Large(Box::new(Indexed::with_salt(set.clone(), salt)));
                let probe = longest_probe(&m);
                assert!(probe <= 64, "salt {round} {salt:x?}: longest probe {probe}");
            }
        }
    }

    #[test]
    fn two_maps_draw_different_salts() {
        let large = || {
            let mut m = RecordMap::default();
            for k in 0..=SPILL as u128 {
                m.get_or_insert_with(Tag(k), || ());
            }
            match m {
                RecordMap::Large(ix) => ix.salt,
                RecordMap::Small(_) => panic!("{} entries", SPILL + 1),
            }
        };
        assert_ne!(large(), large());
    }
}
