//! Codec-equivalence and pool-reuse property tests (DESIGN.md §10).
//!
//! The zero-copy frame codec is only a *performance* plane: it must be
//! observationally identical to the allocating `MuxBatch::encode` and the
//! copying `MuxBatch::decode`, which stay as the reference. These
//! properties pin that down — byte-identical frames, identical decodes
//! (shared-payload or copied), identical rejections, and a frame-buffer
//! pool that stops allocating once warm.

use bytes::Bytes;
use proptest::prelude::*;
use urb_types::{
    encode_mux_frame_with_controls_into, BufPool, Label, LabelSet, MuxBatch, MuxPool, Payload, Tag,
    TagAck, TopicControl, TopicId, WireMessage,
};

fn arb_payload() -> impl Strategy<Value = Payload> {
    proptest::collection::vec(any::<u8>(), 0..256).prop_map(Payload::from)
}

fn arb_labels() -> impl Strategy<Value = Option<LabelSet>> {
    proptest::option::of(
        proptest::collection::btree_set(any::<u64>(), 0..12)
            .prop_map(|s| LabelSet::from_iter(s.into_iter().map(Label))),
    )
}

fn arb_message() -> impl Strategy<Value = WireMessage> {
    prop_oneof![
        (any::<u128>(), arb_payload()).prop_map(|(t, p)| WireMessage::Msg {
            tag: Tag(t),
            payload: p,
        }),
        (any::<u128>(), any::<u128>(), arb_payload(), arb_labels()).prop_map(|(t, ta, p, ls)| {
            WireMessage::Ack {
                tag: Tag(t),
                tag_ack: TagAck(ta),
                payload: p,
                labels: ls,
            }
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(l, s)| WireMessage::Heartbeat {
            label: Label(l),
            seq: s,
        }),
    ]
}

/// Topic-tagged entries in the ascending grouping every engine outbox has
/// (possibly empty).
fn arb_entries() -> impl Strategy<Value = Vec<(TopicId, WireMessage)>> {
    proptest::collection::vec(
        (0u32..6, proptest::collection::vec(arb_message(), 1..6)),
        0..5,
    )
    .prop_map(|groups| {
        let mut by_topic: std::collections::BTreeMap<u32, Vec<WireMessage>> = Default::default();
        for (t, msgs) in groups {
            by_topic.entry(t).or_default().extend(msgs);
        }
        by_topic
            .into_iter()
            .flat_map(|(t, msgs)| msgs.into_iter().map(move |m| (TopicId(t), m)))
            .collect()
    })
}

fn arb_controls() -> impl Strategy<Value = Vec<TopicControl>> {
    proptest::collection::vec(
        (any::<bool>(), any::<u32>(), any::<u8>(), any::<u32>()).prop_map(
            |(create, t, algorithm, param)| {
                let topic = TopicId(t);
                if create {
                    TopicControl::Create {
                        topic,
                        algorithm,
                        param,
                    }
                } else {
                    TopicControl::Retire { topic }
                }
            },
        ),
        0..4,
    )
}

/// The frame `entries` and `controls` make, as the outbox-slice encoder
/// writes it and the copying decoder reads it back.
fn mux_of(entries: &[(TopicId, WireMessage)], controls: &[TopicControl]) -> MuxBatch {
    let mut frame = bytes::BytesMut::new();
    encode_mux_frame_with_controls_into(entries, controls, &mut frame);
    MuxBatch::decode(&frame).expect("a frame the encoder wrote decodes")
}

proptest! {
    /// The zero-copy encode paths (`encode_into` over a pooled buffer, and
    /// the outbox-slice form `encode_mux_frame_with_controls_into`) produce
    /// frames byte-identical to the allocating `encode()` for any entry
    /// set and control section.
    #[test]
    fn zero_copy_and_allocating_frames_are_byte_identical(
        entries in arb_entries(),
        controls in arb_controls(),
    ) {
        let mux = mux_of(&entries, &controls);
        let reference = mux.encode();

        let pool = BufPool::default();
        let mut pooled = pool.acquire();
        mux.encode_into(&mut pooled);
        prop_assert_eq!(&pooled[..], &reference[..]);

        let mut from_slice = pool.acquire();
        encode_mux_frame_with_controls_into(&entries, &controls, &mut from_slice);
        prop_assert_eq!(&from_slice[..], &reference[..]);
    }

    /// Both decode paths accept the frame and agree on every message and
    /// control — shared-payload decoding changes storage, never values.
    /// All `WireMessage` variants round-trip (the generator covers MSG,
    /// ACK with and without labels, and heartbeats).
    #[test]
    fn shared_and_copying_decodes_agree(
        entries in arb_entries(),
        controls in arb_controls(),
    ) {
        let mux = mux_of(&entries, &controls);
        let frame: Bytes = mux.encode();

        let copied = MuxBatch::decode(&frame).unwrap();
        prop_assert_eq!(&copied, &mux);

        // The scratch-vector decode form agrees too (and clears stale
        // scratch contents first).
        let mut out = vec![(TopicId(9), WireMessage::Heartbeat { label: Label(0), seq: 0 })];
        let mut ctl = vec![TopicControl::Retire { topic: TopicId(9) }];
        MuxBatch::decode_shared_with_controls_into(&frame, &mut out, &mut ctl).unwrap();
        prop_assert_eq!(&out[..], &entries[..]);
        prop_assert_eq!(&ctl[..], &controls[..]);
    }

    /// Malformed frames are rejected identically by both decode paths
    /// (same error taxonomy at the same cut).
    #[test]
    fn decode_paths_reject_identically(
        entries in arb_entries(),
        controls in arb_controls(),
        cut_frac in 0.0f64..1.0,
    ) {
        let enc = mux_of(&entries, &controls).encode();
        let cut = ((enc.len() - 1) as f64 * cut_frac) as usize;
        let prefix = Bytes::copy_from_slice(&enc[..cut]);
        let (mut out, mut ctl) = (Vec::new(), Vec::new());
        let copied = MuxBatch::decode(&prefix).map(|_| ());
        prop_assert_eq!(
            copied,
            MuxBatch::decode_shared_with_controls_into(&prefix, &mut out, &mut ctl)
        );
    }

    /// Steady-state encode over a warm pool performs zero buffer
    /// allocations: after the first acquisition, every further frame is
    /// served from the recycled buffer.
    #[test]
    fn warm_pool_stops_creating_buffers(entries in arb_entries()) {
        let pool = BufPool::new(4);
        let mux = MuxBatch::from_entries(&entries);
        for _ in 0..32 {
            let mut frame = pool.acquire();
            mux.encode_into(&mut frame);
        }
        let s = pool.stats();
        prop_assert_eq!(s.created, 1, "only the cold-start allocation");
        prop_assert_eq!(s.recycled, 31);
        prop_assert_eq!(s.discarded, 0);
    }
}

/// The payload of a MSG or ACK.
fn payload_of(m: &WireMessage) -> &Payload {
    match m {
        WireMessage::Msg { payload, .. } | WireMessage::Ack { payload, .. } => payload,
        WireMessage::Heartbeat { .. } => panic!("heartbeats carry no payload"),
    }
}

/// Shared-payload decoding really does share: the decoded payloads alias
/// the frame's storage (zero copies), while the copying decode's do not.
#[test]
fn decode_shared_payloads_alias_the_frame() {
    let entries = [
        (
            TopicId(0),
            WireMessage::Msg {
                tag: Tag(1),
                payload: Payload::from("first payload"),
            },
        ),
        (
            TopicId(3),
            WireMessage::Ack {
                tag: Tag(1),
                tag_ack: TagAck(2),
                payload: Payload::from("second payload"),
                labels: Some(LabelSet::from_iter([Label(9)])),
            },
        ),
    ];
    let frame = MuxBatch::from_entries(&entries).encode();
    let mut shared = Vec::new();
    MuxBatch::decode_shared_into(&frame, &mut shared).unwrap();
    let copied = MuxBatch::decode(&frame).unwrap();
    // Aliasing check: a shared payload's bytes live inside the frame's
    // address range; a copied payload's do not.
    let frame_range = frame.as_ptr() as usize..frame.as_ptr() as usize + frame.len();
    let inside = |p: &Payload| frame_range.contains(&(p.as_slice().as_ptr() as usize));
    for (((_, s), (_, c)), (_, original)) in shared.iter().zip(copied.iter()).zip(&entries) {
        assert_eq!(payload_of(s), payload_of(original), "values agree");
        assert!(
            inside(payload_of(s)),
            "shared payload must alias the frame storage"
        );
        assert!(
            !inside(payload_of(c)),
            "copied payload must not alias the frame"
        );
    }
}

/// A `MuxPool`-backed decode loop reuses one vector for every frame.
#[test]
fn mux_pool_decode_loop_is_allocation_flat() {
    let pool = MuxPool::new(2);
    let entries: Vec<(TopicId, WireMessage)> = (0..8u128)
        .map(|i| {
            (
                TopicId(1),
                WireMessage::Msg {
                    tag: Tag(i),
                    payload: Payload::from("p"),
                },
            )
        })
        .collect();
    let frame = MuxBatch::from_entries(&entries).encode();
    for _ in 0..50 {
        let mut msgs = pool.acquire();
        MuxBatch::decode_shared_into(&frame, &mut msgs).unwrap();
        assert_eq!(msgs.len(), 8);
        pool.release(msgs);
    }
    let s = pool.stats();
    assert_eq!(s.created, 1, "one vector serves the whole loop");
    assert_eq!(s.recycled, 49);
}
