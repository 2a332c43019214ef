//! Read-only views of the anonymous failure detectors `AΘ` and `AP*` (§V).
//!
//! Both detector classes expose, at each process, a read-only local variable
//! containing pairs `(label, number)`:
//!
//! * `label` — a temporary anonymous identifier of some process;
//! * `number` — the number of **correct** processes that know that label
//!   (formally `|S(label) ∩ Correct|` once the detector has converged).
//!
//! The protocol layer only ever *reads snapshots* of these variables; how the
//! pairs are produced (oracle or heartbeats) lives in the `urb-fd` crate.
//! Keeping the view type here breaks the dependency cycle between the
//! protocol and detector crates.

use crate::ids::{Label, LabelSet};

/// One `(label, number)` pair as output by `AΘ` or `AP*`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FdPair {
    /// Temporary anonymous identifier of some process.
    pub label: Label,
    /// Number of correct processes that know `label`
    /// (`|S(label) ∩ Correct|` after convergence).
    pub number: u32,
}

/// A snapshot of one detector variable (`a_theta_i` or `a_p*_i`) at one
/// process at one instant.
///
/// Stored sorted by label so lookups are `O(log n)` and equality is
/// structural.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct FdView {
    pairs: Vec<FdPair>,
}

impl FdView {
    /// The empty view (what Algorithm 1 sees — it uses no detector).
    pub fn empty() -> Self {
        FdView { pairs: Vec::new() }
    }

    /// Builds a view from pairs (sorted/deduplicated by label; if a label
    /// appears twice the last `number` wins, which matches "the variable
    /// contains pairs", i.e. at most one pair per label).
    pub fn from_pairs<I: IntoIterator<Item = FdPair>>(pairs: I) -> Self {
        let mut v: Vec<FdPair> = pairs.into_iter().collect();
        v.sort_by_key(|p| p.label);
        v.dedup_by(|later, earlier| {
            if later.label == earlier.label {
                earlier.number = later.number;
                true
            } else {
                false
            }
        });
        FdView { pairs: v }
    }

    /// Number of pairs in the view.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the view holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The `number` associated with `label`, if present.
    pub fn number_of(&self, label: Label) -> Option<u32> {
        self.pairs
            .binary_search_by_key(&label, |p| p.label)
            .ok()
            .map(|i| self.pairs[i].number)
    }

    /// True when `label` appears in the view.
    pub fn contains_label(&self, label: Label) -> bool {
        self.number_of(label).is_some()
    }

    /// Iterates the pairs in ascending label order.
    pub fn iter(&self) -> impl Iterator<Item = FdPair> + '_ {
        self.pairs.iter().copied()
    }

    /// The label set of the view: `{label | (label, −) ∈ view}`.
    ///
    /// This is exactly what Algorithm 2 attaches to its ACKs (lines 14/19)
    /// and compares against in the quiescence condition (line 55).
    pub fn labels(&self) -> LabelSet {
        LabelSet::from_iter(self.pairs.iter().map(|p| p.label))
    }
}

impl FromIterator<FdPair> for FdView {
    fn from_iter<I: IntoIterator<Item = FdPair>>(iter: I) -> Self {
        FdView::from_pairs(iter)
    }
}

/// The pair of detector snapshots a protocol step may consult.
///
/// Algorithm 1 receives two empty views; Algorithm 2 receives live `AΘ` and
/// `AP*` snapshots. Snapshots are taken by the driver immediately before
/// each protocol step, which models the paper's "read-only local variable"
/// semantics (reads are instantaneous and never block).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FdSnapshot {
    /// Current `a_theta_i` output (class `AΘ`).
    pub a_theta: FdView,
    /// Current `a_p*_i` output (class `AP*`).
    pub a_p_star: FdView,
}

impl FdSnapshot {
    /// Snapshot with both views empty (no detector — Algorithm 1's world).
    pub fn none() -> Self {
        FdSnapshot {
            a_theta: FdView::empty(),
            a_p_star: FdView::empty(),
        }
    }

    /// Convenience constructor.
    pub fn new(a_theta: FdView, a_p_star: FdView) -> Self {
        FdSnapshot { a_theta, a_p_star }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(l: u64, n: u32) -> FdPair {
        FdPair {
            label: Label(l),
            number: n,
        }
    }

    #[test]
    fn from_pairs_sorts_and_dedups_keeping_last() {
        let v = FdView::from_pairs([pair(5, 1), pair(3, 2), pair(5, 9)]);
        assert_eq!(v.len(), 2);
        assert_eq!(v.number_of(Label(5)), Some(9), "last write wins");
        assert_eq!(v.number_of(Label(3)), Some(2));
    }

    #[test]
    fn lookup_missing_label() {
        let v = FdView::from_pairs([pair(1, 1)]);
        assert_eq!(v.number_of(Label(2)), None);
        assert!(!v.contains_label(Label(2)));
        assert!(v.contains_label(Label(1)));
    }

    #[test]
    fn labels_projection() {
        let v = FdView::from_pairs([pair(8, 2), pair(2, 2)]);
        let ls = v.labels();
        assert_eq!(ls.len(), 2);
        assert!(ls.contains(Label(2)));
        assert!(ls.contains(Label(8)));
    }

    #[test]
    fn empty_view_and_snapshot() {
        let s = FdSnapshot::none();
        assert!(s.a_theta.is_empty());
        assert!(s.a_p_star.is_empty());
        assert!(s.a_theta.labels().is_empty());
    }

    #[test]
    fn views_compare_structurally() {
        let a = FdView::from_pairs([pair(1, 3), pair(2, 3)]);
        let b = FdView::from_pairs([pair(2, 3), pair(1, 3)]);
        assert_eq!(a, b);
    }
}
