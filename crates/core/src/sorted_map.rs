//! The ordered map behind a process's per-tag tables.
//!
//! At topic scale most protocol instances hold one record, ever: a topic
//! that saw one broadcast keeps one settled tag. A `BTreeMap` allocates an
//! eleven-slot leaf for its first entry, so a one-record table paid for
//! eleven. [`SortedMap`] is a sorted `Vec` of pairs while it holds at most
//! [`SPILL`] entries — one binary search per lookup, one slot for the first
//! entry — and a boxed `BTreeMap` beyond that, where a `Vec`'s shifting
//! insert would start to cost. Either way it iterates in key order, which
//! is what keeps Task-1 emission and tombstone push order pinned.

use std::collections::btree_map::{self, BTreeMap};
use std::mem;
use std::slice;

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
            SortedMap::Small(v) => v
                .binary_search_by(|(k, _)| k.cmp(key))
                .ok()
                .map(|at| &v[at].1),
            SortedMap::Large(m) => m.get(key),
        }
    }

    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        match self {
            SortedMap::Small(v) => v
                .binary_search_by(|(k, _)| k.cmp(key))
                .ok()
                .map(|at| &mut v[at].1),
            SortedMap::Large(m) => m.get_mut(key),
        }
    }

    #[cfg(test)]
    pub(crate) fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// The value for `key`, inserting `make()` first when absent. An empty
    /// map's first insert allocates exactly one slot.
    pub(crate) fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        if let SortedMap::Small(v) = self {
            if v.len() == SPILL && v.binary_search_by(|(k, _)| k.cmp(&key)).is_err() {
                *self = SortedMap::Large(Box::new(mem::take(v).into_iter().collect()));
            }
        }
        match self {
            SortedMap::Small(v) => {
                let at = match v.binary_search_by(|(k, _)| k.cmp(&key)) {
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
            SortedMap::Large(m) => m.entry(key).or_insert_with(make),
        }
    }

    pub(crate) fn remove(&mut self, key: &K) -> Option<V> {
        let removed = match self {
            SortedMap::Small(v) => v
                .binary_search_by(|(k, _)| k.cmp(key))
                .ok()
                .map(|at| v.remove(at).1),
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

    /// The greatest key.
    pub(crate) fn last_key(&self) -> Option<&K> {
        match self {
            SortedMap::Small(v) => v.last().map(|(k, _)| k),
            SortedMap::Large(m) => m.last_key_value().map(|(k, _)| k),
        }
    }

    pub(crate) fn iter(&self) -> Iter<'_, K, V> {
        match self {
            SortedMap::Small(v) => Iter::Small(v.iter()),
            SortedMap::Large(m) => Iter::Large(m.iter()),
        }
    }

    pub(crate) fn iter_mut(&mut self) -> IterMut<'_, K, V> {
        match self {
            SortedMap::Small(v) => IterMut::Small(v.iter_mut()),
            SortedMap::Large(m) => IterMut::Large(m.iter_mut()),
        }
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.iter().map(|(_, v)| v)
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

/// In-order iterator over a [`SortedMap`].
pub(crate) enum Iter<'a, K, V> {
    Small(slice::Iter<'a, (K, V)>),
    Large(btree_map::Iter<'a, K, V>),
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            Iter::Small(it) => it.next().map(|(k, v)| (k, v)),
            Iter::Large(it) => it.next(),
        }
    }
}

/// In-order iterator over a [`SortedMap`], values mutable.
pub(crate) enum IterMut<'a, K, V> {
    Small(slice::IterMut<'a, (K, V)>),
    Large(btree_map::IterMut<'a, K, V>),
}

impl<'a, K, V> Iterator for IterMut<'a, K, V> {
    type Item = (&'a K, &'a mut V);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            IterMut::Small(it) => it.next().map(|(k, v)| (&*k, v)),
            IterMut::Large(it) => it.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
    /// keys whose remainder mod `value % 4 + 2` is non-zero), get.
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

    proptest! {
        #[test]
        fn behaves_like_a_btree_map(ops in script()) {
            let mut map: SortedMap<u8, u8> = SortedMap::default();
            let mut oracle: BTreeMap<u8, u8> = BTreeMap::new();
            for (kind, key, value) in ops {
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
                        let m = value % 4 + 2;
                        let mut seen = Vec::new();
                        map.retain(|k, v| {
                            seen.push(*k);
                            *v = v.wrapping_add(1);
                            k % m != 0
                        });
                        let expected: Vec<u8> = oracle.keys().copied().collect();
                        prop_assert_eq!(seen, expected, "retain visits in key order");
                        oracle.retain(|k, v| {
                            *v = v.wrapping_add(1);
                            k % m != 0
                        });
                    }
                    _ => {
                        prop_assert_eq!(map.get(&key), oracle.get(&key));
                        prop_assert_eq!(map.contains_key(&key), oracle.contains_key(&key));
                        if let Some(v) = map.get_mut(&key) {
                            *v = value;
                            oracle.insert(key, value);
                        }
                    }
                }
                prop_assert!(
                    map.iter().map(|(k, v)| (*k, *v)).eq(oracle.iter().map(|(k, v)| (*k, *v)))
                );
                prop_assert_eq!(map.len(), oracle.len());
                prop_assert_eq!(map.is_empty(), oracle.is_empty());
                prop_assert_eq!(map.last_key(), oracle.keys().next_back());
                for (_, v) in map.iter_mut() {
                    *v = v.wrapping_mul(3);
                }
                for v in oracle.values_mut() {
                    *v = v.wrapping_mul(3);
                }
                match &map {
                    SortedMap::Small(v) => prop_assert!(v.len() <= SPILL),
                    SortedMap::Large(m) => prop_assert!(m.len() > SPILL / 2),
                }
            }
        }
    }
}
