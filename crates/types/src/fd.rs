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
use std::fmt;
use std::sync::Arc;

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
/// The pairs are sorted by label, so lookups are `O(log n)` and equality is
/// structural. A view is immutable once built: its pairs and its label set
/// ([`FdView::labels`], computed once) live behind one reference-counted
/// block shared by every clone, so handing the same view to each step of a
/// frame is a
/// reference-count bump, and the empty view holds no block at all.
#[derive(Clone, Default)]
pub struct FdView(Option<Arc<ViewData>>);

/// What a non-empty [`FdView`] shares between its clones.
struct ViewData {
    /// Ascending by label, at most one pair per label.
    pairs: Vec<FdPair>,
    /// `{label | (label, −) ∈ pairs}`.
    labels: LabelSet,
}

/// The label set of every empty view.
static NO_LABELS: LabelSet = LabelSet::new();

impl FdView {
    /// The empty view (what Algorithm 1 sees — it uses no detector).
    /// Allocates nothing.
    pub const fn empty() -> Self {
        FdView(None)
    }

    /// Builds a view from pairs (sorted/deduplicated by label; if a label
    /// appears twice the last `number` wins, which matches "the variable
    /// contains pairs", i.e. at most one pair per label).
    pub fn from_pairs<I: IntoIterator<Item = FdPair>>(pairs: I) -> Self {
        let mut v: Vec<FdPair> = pairs.into_iter().collect();
        if v.is_empty() {
            return FdView::empty();
        }
        v.sort_by_key(|p| p.label);
        v.dedup_by(|later, earlier| {
            if later.label == earlier.label {
                earlier.number = later.number;
                true
            } else {
                false
            }
        });
        let labels = LabelSet::from_iter(v.iter().map(|p| p.label));
        FdView(Some(Arc::new(ViewData { pairs: v, labels })))
    }

    /// The pairs, ascending by label.
    fn pairs(&self) -> &[FdPair] {
        self.0.as_deref().map_or(&[], |data| &data.pairs)
    }

    /// Number of pairs in the view.
    pub fn len(&self) -> usize {
        self.pairs().len()
    }

    /// True when the view holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.0.is_none()
    }

    /// The `number` associated with `label`, if present.
    pub fn number_of(&self, label: Label) -> Option<u32> {
        let pairs = self.pairs();
        pairs
            .binary_search_by_key(&label, |p| p.label)
            .ok()
            .map(|i| pairs[i].number)
    }

    /// True when `label` appears in the view.
    pub fn contains_label(&self, label: Label) -> bool {
        self.number_of(label).is_some()
    }

    /// Iterates the pairs in ascending label order.
    pub fn iter(&self) -> impl Iterator<Item = FdPair> + '_ {
        self.pairs().iter().copied()
    }

    /// The label set of the view: `{label | (label, −) ∈ view}`.
    ///
    /// This is exactly what Algorithm 2 attaches to its ACKs (lines 14/19)
    /// and compares against in the quiescence condition (line 55). Computed
    /// when the view is built, so reading it costs nothing.
    pub fn labels(&self) -> &LabelSet {
        self.0.as_deref().map_or(&NO_LABELS, |data| &data.labels)
    }
}

impl PartialEq for FdView {
    fn eq(&self, other: &Self) -> bool {
        self.pairs() == other.pairs()
    }
}

impl Eq for FdView {}

impl fmt::Debug for FdView {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FdView")
            .field("pairs", &self.pairs())
            .finish()
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
/// semantics (reads are instantaneous and never block); the steps of one
/// received frame happen at one instant and share one snapshot. Cloning a
/// snapshot copies two pointers and bumps two reference counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FdSnapshot {
    /// Current `a_theta_i` output (class `AΘ`).
    pub a_theta: FdView,
    /// Current `a_p*_i` output (class `AP*`).
    pub a_p_star: FdView,
}

impl FdSnapshot {
    /// Snapshot with both views empty (no detector — Algorithm 1's world).
    /// Allocates nothing.
    pub const fn none() -> Self {
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
    fn clones_share_the_pairs_and_the_label_set() {
        let v = FdView::from_pairs([pair(8, 2), pair(2, 2)]);
        let c = v.clone();
        assert!(std::ptr::eq(v.labels(), c.labels()), "one cached set");
        assert!(std::ptr::eq(v.pairs(), c.pairs()), "one pair block");
        assert_eq!(FdView::from_pairs([]), FdView::empty());
        assert!(FdView::from_pairs([]).0.is_none(), "empty holds no block");
        assert_eq!(
            format!("{:?}", FdView::from_pairs([pair(1 << 32, 3)])),
            "FdView { pairs: [FdPair { label: Label(00000001), number: 3 }] }"
        );
    }

    #[test]
    fn views_compare_structurally() {
        let a = FdView::from_pairs([pair(1, 3), pair(2, 3)]);
        let b = FdView::from_pairs([pair(2, 3), pair(1, 3)]);
        assert_eq!(a, b);
    }
}
