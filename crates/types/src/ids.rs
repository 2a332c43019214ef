//! The random identifiers of the paper.
//!
//! The paper (§III) makes anonymity workable by replacing process identities
//! with *randomly drawn* identifiers:
//!
//! * every URB-broadcast message `m` gets a unique random [`Tag`] assigned by
//!   its sender (Algorithm 1/2, line 5);
//! * every process that receives `(MSG, m, tag)` draws a unique random
//!   [`TagAck`] for its acknowledgment of that message (line 14 / 17) —
//!   distinct `tag_ack`s are the anonymous proxy for "distinct processes";
//! * the anonymous failure detectors `AΘ` and `AP*` (§V) expose random
//!   [`Label`]s as *temporary* process identifiers whose mapping to processes
//!   is unknown to every process, including the labelled one.
//!
//! All three are plain newtypes over wide random integers. The paper assumes
//! tags are unique; with 128-bit tags the collision probability over any
//! realistic run is negligible (≈ `k²/2¹²⁹` for `k` draws), and the
//! simulator's debug assertions additionally detect collisions outright.

use crate::rng::RandomSource;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Identifier of one URB *instance* (a "topic"): an independent broadcast
/// group multiplexed over the shared channel mesh.
///
/// The paper specifies a single per-instance state machine; a production
/// deployment runs **many** concurrent instances — one per topic, channel
/// or tenant — over the same links. A `TopicId` names one such instance.
/// Unlike [`Tag`]/[`TagAck`]/[`Label`] it is *not* random: topics are
/// small dense indices (`0 .. topic_count`) assigned by configuration,
/// because every layer keys per-topic state by it (protocol-instance
/// maps, per-topic verdicts). Topic `0` is the implicit
/// default everywhere, which keeps every single-topic artifact
/// byte-identical to the pre-topic system (DESIGN.md §12).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TopicId(pub u32);

impl TopicId {
    /// The default topic every single-instance deployment runs on.
    pub const ZERO: TopicId = TopicId(0);

    /// Mixes this topic into a per-message identity hash. Topic `0`
    /// contributes nothing, so single-topic retransmission keys (the
    /// fair-lossy bookkeeping unit) are bit-identical to the pre-topic
    /// system; distinct topics decorrelate otherwise-equal keys.
    pub fn mix(self, key: u64) -> u64 {
        key ^ (self.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }
}

impl fmt::Debug for TopicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Topic({})", self.0)
    }
}

impl fmt::Display for TopicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Unique random identifier of a URB-broadcast message (the paper's `tag`).
///
/// Drawn by the broadcasting process in `URB_broadcast` (Algorithm 1/2,
/// line 5). The pair `(m, tag)` of the paper is keyed by `tag` alone here —
/// see DESIGN.md D2.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u128);

/// Unique random identifier of one process's acknowledgment of one message
/// (the paper's `tag_ack`).
///
/// A process draws exactly one `tag_ack` per `(m, tag)` it ever acknowledges
/// and re-uses it verbatim on retransmissions (the `MY_ACK` set enforces
/// this), so counting *distinct* `TagAck`s for a tag counts distinct
/// processes that received the message.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TagAck(pub u128);

/// Temporary anonymous process identifier exposed by `AΘ` / `AP*` (§V).
///
/// Labels are drawn by the failure-detector layer; no process (not even the
/// labelled one) knows the label↔process mapping, which preserves anonymity.
#[derive(Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Label(pub u64);

impl Tag {
    /// Draws a fresh random tag (Algorithm 1/2, line 5: `tag ← random()`).
    pub fn random(rng: &mut dyn RandomSource) -> Self {
        Tag(rng.next_u128())
    }
}

impl TagAck {
    /// Draws a fresh random ack tag (line 14/17: `tag_ack ← random()`).
    pub fn random(rng: &mut dyn RandomSource) -> Self {
        TagAck(rng.next_u128())
    }
}

impl Label {
    /// Draws a fresh random label (used by the failure-detector layer).
    pub fn random(rng: &mut dyn RandomSource) -> Self {
        Label(rng.next_u64())
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tag({:08x})", (self.0 >> 96) as u32)
    }
}

impl fmt::Debug for TagAck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TagAck({:08x})", (self.0 >> 96) as u32)
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Label({:08x})", (self.0 >> 32) as u32)
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:08x}", (self.0 >> 32) as u32)
    }
}

/// Labels a [`LabelSet`] holds without a heap block. A representation
/// constant: three covers `a_theta` in every system of up to three
/// processes and keeps the set at four words, so a
/// [`WireMessage`](crate::WireMessage) stays 96 B. A larger set is one
/// shared block instead.
const INLINE: usize = 3;

/// A small sorted set of [`Label`]s, as attached to Algorithm 2's `ACK`
/// messages (`labels_i ← {label | (label, −) ∈ a_theta_i}`, lines 14/19).
///
/// Kept sorted and deduplicated so that set operations are `O(n)` merges and
/// equality is structural. A set of at most three labels is stored inline
/// and allocates nothing. A larger one is a single block shared by every
/// clone: building it — decoding a labelled ACK, say — allocates once, as a
/// sorted `Vec` would, and cloning it — copying `a_theta`'s set into an
/// ACK — is a reference-count bump. Inserting into or removing from a
/// shared set builds a new block, so a large set is better collected with
/// [`LabelSet::from_iter`] than grown label by label. Either way the set is
/// a sorted slice ([`LabelSet::as_slice`]): its encoding, equality and hash
/// are those of the slice.
#[derive(Clone)]
pub struct LabelSet(Labels);

#[derive(Clone)]
enum Labels {
    /// The first `len` slots, ascending; the others are unused. Every set
    /// of at most [`INLINE`] labels is stored this way.
    Inline(u8, [Label; INLINE]),
    /// More than [`INLINE`] labels, ascending.
    Shared(Arc<[Label]>),
}

impl LabelSet {
    /// Creates an empty set.
    pub const fn new() -> Self {
        LabelSet(Labels::Inline(0, [Label(0); INLINE]))
    }

    /// Builds a set from arbitrary (possibly unsorted / duplicated) labels.
    /// Up to three labels are kept inline and allocate nothing. A larger
    /// set is one shared block, allocated once when the input's length is
    /// known up front — as a decoded ACK's, a detector view's and a slice's
    /// are. Input that does not arrive strictly ascending is sorted in place.
    #[allow(clippy::should_implement_trait)] // also impls FromIterator below
    pub fn from_iter<I: IntoIterator<Item = Label>>(iter: I) -> Self {
        let mut iter = iter.into_iter();
        let mut inline = [Label(0); INLINE];
        let mut len = 0;
        while let Some(label) = iter.next() {
            if len == INLINE {
                // Exact-length input collects straight into the block.
                let mut block: Arc<[Label]> =
                    inline.into_iter().chain(Some(label)).chain(iter).collect();
                let held = Arc::get_mut(&mut block).expect("a new block has one owner");
                let distinct = sort_dedup(held);
                if distinct == block.len() {
                    return LabelSet(Labels::Shared(block));
                }
                // Repeated labels: the distinct ones, a second time.
                return LabelSet::from_iter(block[..distinct].iter().copied());
            }
            inline[len] = label;
            len += 1;
        }
        let distinct = sort_dedup(&mut inline[..len]);
        LabelSet(Labels::Inline(distinct as u8, inline))
    }

    /// Number of labels in the set.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the set has no labels.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Membership test (binary search over the sorted labels).
    pub fn contains(&self, label: Label) -> bool {
        self.as_slice().binary_search(&label).is_ok()
    }

    /// Inserts a label; returns `true` if it was not already present.
    pub fn insert(&mut self, label: Label) -> bool {
        let Err(pos) = self.as_slice().binary_search(&label) else {
            return false;
        };
        match &mut self.0 {
            Labels::Inline(len, inline) if usize::from(*len) < INLINE => {
                inline.copy_within(pos..usize::from(*len), pos + 1);
                inline[pos] = label;
                *len += 1;
            }
            _ => {
                let (below, above) = self.as_slice().split_at(pos);
                *self = LabelSet::from_iter(below.iter().chain([&label]).chain(above).copied());
            }
        }
        true
    }

    /// Removes a label; returns `true` if it was present.
    pub fn remove(&mut self, label: Label) -> bool {
        let Ok(pos) = self.as_slice().binary_search(&label) else {
            return false;
        };
        match &mut self.0 {
            Labels::Inline(len, inline) => {
                inline.copy_within(pos + 1..usize::from(*len), pos);
                *len -= 1;
            }
            Labels::Shared(shared) => {
                *self =
                    LabelSet::from_iter(shared[..pos].iter().chain(&shared[pos + 1..]).copied());
            }
        }
        true
    }

    /// Iterates the labels in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Label> + '_ {
        self.as_slice().iter().copied()
    }

    /// Labels present in `self` but not in `other` (ascending order).
    pub fn difference<'a>(&'a self, other: &'a LabelSet) -> impl Iterator<Item = Label> + 'a {
        self.iter().filter(move |l| !other.contains(*l))
    }

    /// True when every label of `self` is in `other`.
    pub fn is_subset(&self, other: &LabelSet) -> bool {
        self.iter().all(|l| other.contains(l))
    }

    /// The labels, ascending.
    pub fn as_slice(&self) -> &[Label] {
        match &self.0 {
            Labels::Inline(len, inline) => &inline[..usize::from(*len)],
            Labels::Shared(shared) => shared,
        }
    }
}

/// Sorts `held` and moves its distinct labels to the front; returns how
/// many there are. Strictly ascending input is only checked.
fn sort_dedup(held: &mut [Label]) -> usize {
    if held.is_sorted_by(|a, b| a < b) {
        return held.len();
    }
    held.sort_unstable();
    let mut distinct = 1;
    for at in 1..held.len() {
        if held[distinct - 1] != held[at] {
            held[distinct] = held[at];
            distinct += 1;
        }
    }
    distinct
}

impl Default for LabelSet {
    fn default() -> Self {
        LabelSet::new()
    }
}

impl PartialEq for LabelSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for LabelSet {}

impl Hash for LabelSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for LabelSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.as_slice()).finish()
    }
}

impl FromIterator<Label> for LabelSet {
    fn from_iter<I: IntoIterator<Item = Label>>(iter: I) -> Self {
        LabelSet::from_iter(iter)
    }
}

impl<'a> IntoIterator for &'a LabelSet {
    type Item = Label;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Label>>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn tags_are_distinct_across_draws() {
        let mut rng = SplitMix64::new(7);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            assert!(seen.insert(Tag::random(&mut rng)), "tag collision");
        }
    }

    #[test]
    fn tag_ack_and_tag_namespaces_are_independent_types() {
        // The paper remarks one random value may be shared across the MSG and
        // ACK namespaces; the type system keeps them apart regardless.
        let t = Tag(42);
        let a = TagAck(42);
        assert_eq!(t.0, a.0); // same value, different types — compiles, fine.
    }

    #[test]
    fn label_set_insert_remove_contains() {
        let mut s = LabelSet::new();
        assert!(s.is_empty());
        assert!(s.insert(Label(3)));
        assert!(s.insert(Label(1)));
        assert!(s.insert(Label(2)));
        assert!(!s.insert(Label(2)), "duplicate insert must report false");
        assert_eq!(s.len(), 3);
        assert!(s.contains(Label(1)));
        assert!(!s.contains(Label(9)));
        assert!(s.remove(Label(1)));
        assert!(!s.remove(Label(1)));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn label_set_is_sorted_and_deduplicated() {
        let s = LabelSet::from_iter([Label(5), Label(1), Label(5), Label(3)]);
        let v: Vec<Label> = s.iter().collect();
        assert_eq!(v, vec![Label(1), Label(3), Label(5)]);
        // Out of order, repeated, or both.
        for (input, set) in [
            (&[5, 1, 5][..], &[1, 5][..]),
            (&[3, 3], &[3]),
            (&[9, 2, 4], &[2, 4, 9]),
            (&[2, 4, 9], &[2, 4, 9]),
            (&[], &[]),
            // Past the inline capacity: repeated, and out of order.
            (&[9, 2, 4, 7, 2, 9], &[2, 4, 7, 9]),
            (&[8, 6, 4, 2, 0], &[0, 2, 4, 6, 8]),
        ] {
            let s = LabelSet::from_iter(input.iter().map(|&l| Label(l)));
            assert!(s.iter().map(|l| l.0).eq(set.iter().copied()), "{input:?}");
        }
    }

    #[test]
    fn label_set_difference_and_subset() {
        let a = LabelSet::from_iter([Label(1), Label(2), Label(3)]);
        let b = LabelSet::from_iter([Label(2), Label(3), Label(4)]);
        let d: Vec<Label> = a.difference(&b).collect();
        assert_eq!(d, vec![Label(1)]);
        assert!(!a.is_subset(&b));
        let c = LabelSet::from_iter([Label(2), Label(3)]);
        assert!(c.is_subset(&a));
        assert!(c.is_subset(&b));
    }

    #[test]
    fn topic_zero_mix_is_the_identity() {
        for key in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            assert_eq!(TopicId::ZERO.mix(key), key, "topic 0 must not disturb keys");
        }
        let k = 0xCAFE_F00Du64;
        assert_ne!(TopicId(1).mix(k), k);
        assert_ne!(TopicId(1).mix(k), TopicId(2).mix(k));
        assert_eq!(TopicId::default(), TopicId::ZERO);
        assert_eq!(format!("{}", TopicId(3)), "3");
        assert_eq!(format!("{:?}", TopicId(3)), "Topic(3)");
    }

    #[test]
    fn a_label_set_is_four_words_and_a_wire_message_96_bytes() {
        assert_eq!(std::mem::size_of::<LabelSet>(), 32);
        assert_eq!(std::mem::size_of::<Option<LabelSet>>(), 32);
        assert_eq!(std::mem::size_of::<crate::WireMessage>(), 96);
    }

    /// Sets around the inline capacity behave the same either side of it:
    /// growing past it and shrinking back keep the labels, equality and
    /// hash are the sorted slice's, and only a larger set is shared.
    #[test]
    fn label_sets_cross_the_inline_capacity_both_ways() {
        use std::hash::BuildHasher;
        let hash = std::collections::hash_map::RandomState::new();
        let mut grown = LabelSet::new();
        for l in (0..2 * INLINE as u64).rev() {
            assert!(grown.insert(Label(l * 3)));
            let built = LabelSet::from_iter(
                grown
                    .as_slice()
                    .iter()
                    .rev()
                    .chain(grown.as_slice())
                    .copied(),
            );
            assert_eq!(grown, built, "insert and from_iter agree");
            assert_eq!(
                hash.hash_one(&grown),
                hash.hash_one(grown.as_slice().to_vec())
            );
            assert_eq!(
                matches!(grown.0, Labels::Shared(_)),
                grown.len() > INLINE,
                "{grown:?}"
            );
        }
        assert!(grown.as_slice().windows(2).all(|w| w[0] < w[1]));
        let shared = grown.clone();
        while grown.len() > 1 {
            let l = grown.as_slice()[1];
            assert!(grown.remove(l));
            assert!(!grown.remove(l));
            assert_eq!(matches!(grown.0, Labels::Shared(_)), grown.len() > INLINE);
        }
        assert_eq!(grown.len(), 1);
        assert_eq!(shared.len(), 2 * INLINE, "a clone is not edited through");
        assert_eq!(
            format!("{:?}", LabelSet::from_iter([Label(1 << 32)])),
            "{Label(00000001)}"
        );
    }

    #[test]
    fn label_set_equality_is_order_insensitive() {
        let a = LabelSet::from_iter([Label(9), Label(4)]);
        let b = LabelSet::from_iter([Label(4), Label(9)]);
        assert_eq!(a, b);
    }
}
