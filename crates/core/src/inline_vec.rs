//! The vector behind a tag's acknowledgment evidence.
//!
//! In the model a tag's evidence holds one entry per distinct ACKer and one
//! counter per label, at most `n` of each, and every ledger workload runs
//! three processes. A `Vec` allocates a block of its own for its first
//! item and rounds it up to four slots, so a record's evidence was two
//! blocks. [`InlineVec`] holds up to [`INLINE`] items in place, as
//! [`LabelSet`](urb_types::LabelSet) holds its labels, and only a fourth
//! item moves them into a `Vec`. With the evidence behind one box, a
//! record of a system of up to three processes then costs that box alone.

use std::fmt;
use std::mem;
use std::ops::{Deref, DerefMut};

/// Items an [`InlineVec`] holds without a heap block of its own: enough
/// for the evidence of a system of up to three processes.
pub(crate) const INLINE: usize = 3;

/// A vector of up to [`INLINE`] items held in place, and past that a
/// `Vec`. Either way it is a slice ([`Deref`]). A spilled vector stays
/// spilled when it shrinks: its `Vec` keeps the capacity it grew to.
#[derive(Clone)]
pub(crate) enum InlineVec<T> {
    /// The first `len` slots; the others hold `T::default()`, so a removed
    /// item's heap (a shared label set's block) is freed at once.
    Inline(u8, [T; INLINE]),
    /// More than [`INLINE`] items at some point.
    Spilled(Vec<T>),
}

impl<T: Default> Default for InlineVec<T> {
    fn default() -> Self {
        InlineVec::Inline(0, Default::default())
    }
}

impl<T: Default> InlineVec<T> {
    /// Inserts `item` at `at`, shifting the items after it up. A fourth
    /// item moves them all into a `Vec` sized for four, as a `Vec` grown
    /// item by item would be.
    pub(crate) fn insert(&mut self, at: usize, item: T) {
        match self {
            InlineVec::Inline(len, items) if usize::from(*len) < INLINE => {
                let end = usize::from(*len);
                items[end] = item;
                items[at..=end].rotate_right(1);
                *len += 1;
            }
            InlineVec::Inline(_, items) => {
                let mut spilled = Vec::with_capacity(INLINE + 1);
                spilled.extend(items.iter_mut().map(mem::take));
                spilled.insert(at, item);
                *self = InlineVec::Spilled(spilled);
            }
            InlineVec::Spilled(items) => items.insert(at, item),
        }
    }

    /// Appends `item`.
    pub(crate) fn push(&mut self, item: T) {
        self.insert(self.len(), item);
    }

    /// Removes and returns the item at `at`, shifting the items after it
    /// down.
    pub(crate) fn remove(&mut self, at: usize) -> T {
        match self {
            InlineVec::Inline(len, items) => {
                let end = usize::from(*len);
                items[at..end].rotate_left(1);
                *len -= 1;
                mem::take(&mut items[end - 1])
            }
            InlineVec::Spilled(items) => items.remove(at),
        }
    }

    /// Keeps the items `keep` accepts, in order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        match self {
            InlineVec::Inline(len, items) => {
                let mut kept = 0;
                for at in 0..usize::from(*len) {
                    if keep(&items[at]) {
                        items.swap(kept, at);
                        kept += 1;
                    }
                }
                for gone in &mut items[kept..usize::from(*len)] {
                    *gone = T::default();
                }
                *len = kept as u8;
            }
            InlineVec::Spilled(items) => items.retain(keep),
        }
    }
}

impl<T> Deref for InlineVec<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        match self {
            InlineVec::Inline(len, items) => &items[..usize::from(*len)],
            InlineVec::Spilled(items) => items,
        }
    }
}

impl<T> DerefMut for InlineVec<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            InlineVec::Inline(len, items) => &mut items[..usize::from(*len)],
            InlineVec::Spilled(items) => items,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for InlineVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::rc::Rc;

    #[test]
    fn three_items_stay_in_place_and_a_fourth_spills() {
        let mut v = InlineVec::default();
        for item in [30u32, 10, 20] {
            let at = v.binary_search(&item).unwrap_err();
            v.insert(at, item);
        }
        assert!(matches!(v, InlineVec::Inline(3, _)));
        assert_eq!(*v, [10, 20, 30]);
        v.insert(1, 15);
        assert!(matches!(&v, InlineVec::Spilled(s) if s.capacity() == INLINE + 1));
        assert_eq!(*v, [10, 15, 20, 30]);
        assert_eq!(v.remove(0), 10);
        assert!(matches!(v, InlineVec::Spilled(_)), "a spilled vector stays");
    }

    #[test]
    fn a_removed_item_is_dropped_at_once() {
        let held = Rc::new(());
        let mut v = InlineVec::default();
        v.push(Some(held.clone()));
        v.push(None);
        v.retain(Option::is_none);
        assert_eq!(Rc::strong_count(&held), 1, "retain dropped it");
        v.push(Some(held.clone()));
        drop(v.remove(1));
        assert_eq!(Rc::strong_count(&held), 1, "remove handed it back");
        assert_eq!(v.len(), 1);
    }

    proptest! {
        /// Every edit leaves the same items as the same edit on a `Vec`.
        #[test]
        fn edits_match_a_vec(ops in proptest::collection::vec((0u8..4, 0u8..8), 0..40)) {
            let (mut v, mut model) = (InlineVec::default(), Vec::new());
            for (op, x) in ops {
                let at = usize::from(x) % (model.len() + 1);
                match op {
                    0 => {
                        v.insert(at, x);
                        model.insert(at, x);
                    }
                    1 => {
                        v.push(x);
                        model.push(x);
                    }
                    2 if at < model.len() => prop_assert_eq!(v.remove(at), model.remove(at)),
                    _ => {
                        v.retain(|&y| y != x);
                        model.retain(|&y| y != x);
                    }
                }
                prop_assert_eq!(&*v, &model[..]);
                if let InlineVec::Inline(len, items) = &v {
                    let unused = &items[usize::from(*len)..];
                    prop_assert!(unused.iter().all(|&y| y == 0), "unused slots reset");
                }
            }
        }
    }
}
