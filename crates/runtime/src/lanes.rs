//! Per-lane topic directories (DESIGN.md §16).
//!
//! A [`LaneDirectory`] shards egress by `lane = topic % lanes`: it
//! precomputes the owned-topic map once, answers `topic → lane` with a
//! single dense-array probe, and owns reusable per-lane partitions so a
//! partition is one allocation-free pass over the outbox and one over the
//! controls, regardless of lane count. The in-process runtime no longer
//! shards its medium into lanes (every node fans its own frames out,
//! DESIGN.md §12), so nothing in the product partitions by lane; the
//! directory stays public because the wall-clock ledger pins
//! `LaneDirectory::{new, partition}` for its micro row.

use urb_types::{TopicControl, TopicId, WireMessage};

/// Dense-cache ceiling: topic ids below this bound get a precomputed
/// array entry (4 MiB at the bound — comfortably covering the ROADMAP's
/// 100k-topic target); ids above it fall back to computing the modulo,
/// which is always the same value the cache would hold.
const MAX_DENSE_LANE_MAP: usize = 1 << 20;

/// Precomputed `topic → lane` directory plus reusable per-lane egress
/// partitions — the runtime's half of the O(1) dispatch plane
/// (DESIGN.md §16).
#[derive(Debug)]
pub struct LaneDirectory {
    lanes: usize,
    /// `map[id] = id % lanes`, grown lazily as higher topic ids appear.
    map: Vec<u32>,
    /// Per-lane outbox partitions, drained by the flush and reused.
    outboxes: Vec<Vec<(TopicId, WireMessage)>>,
    /// Per-lane control partitions, ditto.
    controls: Vec<Vec<TopicControl>>,
}

impl LaneDirectory {
    /// Directory for `lanes` lanes (clamped to at least one).
    pub fn new(lanes: usize) -> Self {
        let lanes = lanes.max(1);
        LaneDirectory {
            lanes,
            map: Vec::new(),
            outboxes: (0..lanes).map(|_| Vec::new()).collect(),
            controls: (0..lanes).map(|_| Vec::new()).collect(),
        }
    }

    /// Number of lanes this directory shards across.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The lane owning `topic`: one array probe for ids in the dense
    /// range (growing the precomputed map on first sight of a higher id),
    /// a plain modulo beyond the cache ceiling. Either way the answer is
    /// exactly `topic % lanes`.
    #[inline]
    pub fn lane_of(&mut self, topic: TopicId) -> usize {
        let id = topic.0 as usize;
        if let Some(&lane) = self.map.get(id) {
            return lane as usize;
        }
        if id < MAX_DENSE_LANE_MAP {
            let new_len = (id + 1).next_power_of_two().min(MAX_DENSE_LANE_MAP);
            let lanes = self.lanes;
            self.map
                .extend((self.map.len()..new_len).map(|i| (i % lanes) as u32));
            return self.map[id] as usize;
        }
        id % self.lanes
    }

    /// Partitions one step's egress by owning lane in a single pass over
    /// the outbox and a single pass over the controls (the old flush
    /// rescanned the control list once per lane). Both inputs are drained;
    /// the per-lane partitions keep their capacity across flushes, so a
    /// steady-state flush allocates nothing.
    pub fn partition(
        &mut self,
        outbox: &mut Vec<(TopicId, WireMessage)>,
        controls: &mut Vec<TopicControl>,
    ) {
        for entry in outbox.drain(..) {
            let lane = self.lane_of(entry.0);
            self.outboxes[lane].push(entry);
        }
        for ctl in controls.drain(..) {
            let lane = self.lane_of(ctl.topic());
            self.controls[lane].push(ctl);
        }
    }

    /// Mutable access to one lane's partitions (outbox, controls) — the
    /// flush encodes from them and clears them in place.
    pub fn lane_parts_mut(
        &mut self,
        lane: usize,
    ) -> (&mut Vec<(TopicId, WireMessage)>, &mut Vec<TopicControl>) {
        (&mut self.outboxes[lane], &mut self.controls[lane])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urb_types::{Payload, Tag};

    fn msg(i: u128) -> WireMessage {
        WireMessage::Msg {
            tag: Tag(i),
            payload: Payload::from("x"),
        }
    }

    #[test]
    fn lane_of_matches_modulo_across_all_ranges() {
        let mut dir = LaneDirectory::new(3);
        for id in [
            0u32,
            1,
            2,
            7,
            999,
            65_536,
            (1 << 20) as u32 - 1,
            1 << 20,
            u32::MAX,
        ] {
            assert_eq!(dir.lane_of(TopicId(id)), id as usize % 3, "id {id}");
        }
        // Single-lane clamp: everything maps to lane 0.
        let mut one = LaneDirectory::new(0);
        assert_eq!(one.lanes(), 1);
        assert_eq!(one.lane_of(TopicId(12345)), 0);
    }

    #[test]
    fn partition_is_one_pass_and_preserves_order() {
        let mut dir = LaneDirectory::new(2);
        let mut outbox = vec![
            (TopicId(0), msg(1)),
            (TopicId(1), msg(2)),
            (TopicId(2), msg(3)),
            (TopicId(3), msg(4)),
        ];
        let mut controls = vec![
            TopicControl::Retire { topic: TopicId(4) },
            TopicControl::Retire { topic: TopicId(5) },
        ];
        dir.partition(&mut outbox, &mut controls);
        assert!(outbox.is_empty() && controls.is_empty(), "inputs drained");
        let (lane0, ctl0) = dir.lane_parts_mut(0);
        assert_eq!(
            lane0.iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![TopicId(0), TopicId(2)]
        );
        assert_eq!(ctl0, &vec![TopicControl::Retire { topic: TopicId(4) }]);
        lane0.clear();
        ctl0.clear();
        let (lane1, ctl1) = dir.lane_parts_mut(1);
        assert_eq!(
            lane1.iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![TopicId(1), TopicId(3)]
        );
        assert_eq!(ctl1, &vec![TopicControl::Retire { topic: TopicId(5) }]);
    }

    #[test]
    fn partitions_keep_capacity_across_flushes() {
        let mut dir = LaneDirectory::new(2);
        let mut outbox = vec![(TopicId(0), msg(1)), (TopicId(2), msg(2))];
        let mut controls = Vec::new();
        dir.partition(&mut outbox, &mut controls);
        let cap_before = {
            let (lane0, _) = dir.lane_parts_mut(0);
            let cap = lane0.capacity();
            lane0.clear();
            cap
        };
        let mut outbox = vec![(TopicId(0), msg(3)), (TopicId(2), msg(4))];
        dir.partition(&mut outbox, &mut controls);
        let (lane0, _) = dir.lane_parts_mut(0);
        assert_eq!(lane0.len(), 2);
        assert!(lane0.capacity() >= cap_before, "no reallocation churn");
    }
}
