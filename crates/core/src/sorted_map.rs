//! The ordered map behind a process's `MSG_i` set.
//!
//! At topic scale most protocol instances hold one message, ever: a topic
//! that saw one broadcast keeps one settled tag. A `BTreeMap` allocates an
//! eleven-slot leaf for its first entry, so a one-entry table paid for
//! eleven. [`SortedMap`] is a sorted `Vec` of pairs while it holds at most
//! [`SPILL`] entries — one binary search per lookup, one slot for the first
//! entry — and a boxed `BTreeMap` beyond that, where a `Vec`'s shifting
//! insert would start to cost. Either way it iterates in key order, which
//! is what keeps Task-1 emission order pinned. The records themselves are
//! looked up by hash instead ([`RecordMap`](crate::record_map::RecordMap)).

use std::collections::BTreeMap;
use std::mem;

/// A map with more entries than this is a tree. One that shrinks to half of
/// it goes back to a vector, so a map hovering at the threshold does not
/// convert on every insert and remove.
pub(crate) const SPILL: usize = 16;

/// An ordered map: a sorted `Vec<(K, V)>` while small, a `BTreeMap` when
/// large (see the module docs). Boxing the tree keeps the map at three
/// words, the size of the vector alone.
#[derive(Clone, Debug)]
pub(crate) enum SortedMap<K, V> {
    /// Strictly ascending by key; at most [`SPILL`] entries.
    Small(Vec<(K, V)>),
    /// More than `SPILL / 2` entries.
    #[allow(clippy::box_collection)] // unboxed, the map would be four words
    Large(Box<BTreeMap<K, V>>),
}

/// The position of `key` in `v`, which is strictly ascending by key: `Ok`
/// where it is, `Err` where it would go. A small map of either kind is
/// such a vector.
pub(crate) fn position<K: Ord, V>(v: &[(K, V)], key: &K) -> Result<usize, usize> {
    v.binary_search_by(|(k, _)| k.cmp(key))
}

/// The value for `key` in the ascending `v`, inserting `make()` where it
/// sorts when absent. An empty vector's first insert reserves exactly one
/// slot.
pub(crate) fn get_or_insert_sorted<K: Ord, V>(
    v: &mut Vec<(K, V)>,
    key: K,
    make: impl FnOnce() -> V,
) -> &mut V {
    let at = match position(v, &key) {
        Ok(at) => at,
        Err(at) => {
            if v.capacity() == 0 {
                v.reserve_exact(1);
            }
            v.insert(at, (key, make()));
            at
        }
    };
    &mut v[at].1
}

impl<K, V> Default for SortedMap<K, V> {
    fn default() -> Self {
        SortedMap::Small(Vec::new())
    }
}

impl<K: Ord, V> SortedMap<K, V> {
    pub(crate) fn len(&self) -> usize {
        match self {
            SortedMap::Small(v) => v.len(),
            SortedMap::Large(m) => m.len(),
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[cfg(test)]
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        match self {
            SortedMap::Small(v) => position(v, key).ok().map(|at| &v[at].1),
            SortedMap::Large(m) => m.get(key),
        }
    }

    #[cfg(test)]
    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    #[cfg(test)]
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self {
            SortedMap::Small(v) => position(v, key).ok().map(|at| &mut v[at].1),
            SortedMap::Large(m) => m.get_mut(key),
        }
    }

    /// The value for `key`, inserting `make()` first when absent. An empty
    /// map's first insert allocates exactly one slot.
    pub(crate) fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        if let SortedMap::Small(v) = self {
            if v.len() == SPILL && position(v, &key).is_err() {
                *self = SortedMap::Large(Box::new(mem::take(v).into_iter().collect()));
            }
        }
        match self {
            SortedMap::Small(v) => get_or_insert_sorted(v, key, make),
            SortedMap::Large(m) => m.entry(key).or_insert_with(make),
        }
    }

    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let removed = match self {
            SortedMap::Small(v) => position(v, key).ok().map(|at| v.remove(at).1),
            SortedMap::Large(m) => m.remove(key),
        };
        self.fold();
        removed
    }

    /// Keeps the entries `keep` accepts, visiting them in key order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        match self {
            SortedMap::Small(v) => v.retain_mut(|(k, val)| keep(k, val)),
            SortedMap::Large(m) => m.retain(|k, val| keep(k, val)),
        }
        self.fold();
    }

    /// The entries in key order.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        let (small, large) = match self {
            SortedMap::Small(v) => (v.as_slice(), None),
            SortedMap::Large(m) => (&[][..], Some(m.iter())),
        };
        small
            .iter()
            .map(|(k, v)| (k, v))
            .chain(large.into_iter().flatten())
    }

    /// A tree that shrank to half the threshold becomes a vector again.
    fn fold(&mut self) {
        if let SortedMap::Large(m) = self {
            if m.len() <= SPILL / 2 {
                *self = SortedMap::Small(mem::take(&mut **m).into_iter().collect());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record_map::RecordMap;
    use proptest::prelude::*;
    use urb_types::Tag;

    #[test]
    fn the_map_is_three_words() {
        assert_eq!(mem::size_of::<SortedMap<u128, [u64; 8]>>(), 24);
        assert_eq!(mem::size_of::<SortedMap<u128, ()>>(), 24);
    }

    #[test]
    fn the_first_insert_reserves_one_slot() {
        let mut m = SortedMap::default();
        m.get_or_insert_with(7u128, || 'a');
        assert!(matches!(&m, SortedMap::Small(v) if v.capacity() == 1));
    }

    #[test]
    fn the_tree_takes_over_past_the_threshold_and_hands_back_at_half() {
        let mut m = SortedMap::default();
        for k in 0..=SPILL as u32 {
            m.get_or_insert_with(k, || k);
        }
        assert!(matches!(m, SortedMap::Large(_)), "{} entries", SPILL + 1);
        // Replacing a value at the threshold does not spill.
        let mut at_threshold = SortedMap::default();
        for k in 0..SPILL as u32 {
            at_threshold.get_or_insert_with(k, || k);
        }
        *at_threshold.get_or_insert_with(0, || 9) = 9;
        assert!(matches!(at_threshold, SortedMap::Small(_)));
        m.retain(|k, _| *k < SPILL as u32 / 2 + 1);
        assert!(matches!(m, SortedMap::Large(_)), "above half: still a tree");
        m.remove(&0);
        assert!(matches!(m, SortedMap::Small(_)), "half: a vector again");
        assert_eq!(
            m.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            (1..=8).collect::<Vec<_>>()
        );
    }

    /// `(kind, key, value)`: insert, get-or-insert, remove, retain (keeps
    /// keys whose remainder mod `value % 4 + 2` is non-zero), get, then
    /// get_mut adding `value`.
    type Op = (u8, u8, u8);

    /// Insert-heavy and remove-heavy phases over keys `0..48`, so a script
    /// crosses the spill threshold in both directions.
    fn script() -> impl Strategy<Value = Vec<Op>> {
        let grow = proptest::collection::vec((0u8..2, 0u8..48, any::<u8>()), 0..60);
        let shrink = proptest::collection::vec((2u8..5, 0u8..48, any::<u8>()), 0..40);
        proptest::collection::vec((grow, shrink), 1..4).prop_map(|phases| {
            phases
                .into_iter()
                .flat_map(|(g, s)| g.into_iter().chain(s))
                .collect()
        })
    }

    /// Runs `ops` on a fresh `$map` and a `BTreeMap`, comparing after every
    /// step. A macro, not a generic function: both maps have the same
    /// inherent methods and no trait in common.
    macro_rules! check {
        ($map:ty, $small:path, $ops:expr) => {{
            let mut map = <$map>::default();
            let mut oracle: BTreeMap<Tag, u8> = BTreeMap::new();
            for &(kind, key, value) in $ops {
                // Spread the keys over both halves of a tag.
                let key = Tag(u128::from(key) * 0x0001_0000_0000_0000_0001_0000_0000_0001);
                match kind {
                    0 => {
                        *map.get_or_insert_with(key, || value) = value;
                        oracle.insert(key, value);
                    }
                    1 => {
                        let got = *map.get_or_insert_with(key, || value);
                        prop_assert_eq!(got, *oracle.entry(key).or_insert(value));
                    }
                    2 => prop_assert_eq!(map.remove(&key), oracle.remove(&key)),
                    3 => {
                        let m = u128::from(value % 4 + 2);
                        let mut seen = Vec::new();
                        map.retain(|k: &Tag, v: &mut u8| {
                            seen.push(*k);
                            *v = v.wrapping_add(1);
                            k.0 % m != 0
                        });
                        let expected: Vec<Tag> = oracle.keys().copied().collect();
                        prop_assert_eq!(seen, expected, "retain visits in key order");
                        oracle.retain(|k, v| {
                            *v = v.wrapping_add(1);
                            k.0 % m != 0
                        });
                    }
                    _ => {
                        prop_assert_eq!(map.get(&key), oracle.get(&key));
                        let got = map.get_mut(&key).map(|v: &mut u8| {
                            *v = v.wrapping_add(value);
                            *v
                        });
                        let expected = oracle.get_mut(&key).map(|v| {
                            *v = v.wrapping_add(value);
                            *v
                        });
                        prop_assert_eq!(got, expected);
                    }
                }
                let entries: Vec<(Tag, u8)> = map.iter().map(|(k, v)| (*k, *v)).collect();
                let expected: Vec<(Tag, u8)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
                prop_assert_eq!(entries, expected, "iter visits in key order");
                prop_assert_eq!(map.len(), oracle.len());
                // Small at most `SPILL`, large above `SPILL / 2`.
                match &map {
                    $small(v) => prop_assert!(v.len() <= SPILL),
                    _ => prop_assert!(map.len() > SPILL / 2),
                }
            }
        }};
    }

    proptest! {
        /// Both tag-keyed maps of a table: the `MSG_i` map and the record
        /// map.
        #[test]
        fn behaves_like_a_btree_map(ops in script()) {
            check!(SortedMap<Tag, u8>, SortedMap::Small, &ops);
            check!(RecordMap<u8>, RecordMap::Small, &ops);
        }
    }
}
