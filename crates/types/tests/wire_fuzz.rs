//! Fuzz-style property tests for the wire codec.
//!
//! The codec is the trust boundary of the runtime (frames arrive from the
//! network); it must never panic, never allocate absurdly, and roundtrip
//! every valid message bit-exactly.

use proptest::prelude::*;
use urb_types::{
    CodecError, Label, LabelSet, MuxBatch, Payload, Tag, TagAck, TopicId, WireMessage,
};

fn arb_payload() -> impl Strategy<Value = Payload> {
    proptest::collection::vec(any::<u8>(), 0..512).prop_map(Payload::from)
}

fn arb_labels() -> impl Strategy<Value = Option<LabelSet>> {
    proptest::option::of(
        proptest::collection::btree_set(any::<u64>(), 0..16)
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

proptest! {
    /// Every message roundtrips bit-exactly and reports its encoded length
    /// correctly.
    #[test]
    fn roundtrip_any_message(msg in arb_message()) {
        let enc = msg.encode();
        prop_assert_eq!(enc.len(), msg.encoded_len());
        let back = WireMessage::decode(&enc).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// Decoding arbitrary bytes never panics — it returns a message or a
    /// structured error.
    #[test]
    fn decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let _ = WireMessage::decode(&bytes); // must not panic
    }

    /// Every strict prefix of a valid frame fails with `Truncated` (no
    /// partial message is ever accepted as complete).
    #[test]
    fn prefixes_are_rejected(msg in arb_message(), cut_frac in 0.0f64..1.0) {
        let enc = msg.encode();
        if enc.len() > 1 {
            let cut = ((enc.len() - 1) as f64 * cut_frac) as usize;
            let err = WireMessage::decode(&enc[..cut]).unwrap_err();
            prop_assert!(matches!(err, CodecError::Truncated), "got {err:?}");
        }
    }

    /// A frame with trailing garbage is rejected (frame boundaries are
    /// exact).
    #[test]
    fn trailing_garbage_rejected(msg in arb_message(), junk in proptest::collection::vec(any::<u8>(), 1..16)) {
        let mut enc = msg.encode().to_vec();
        enc.extend_from_slice(&junk);
        let err = WireMessage::decode(&enc).unwrap_err();
        prop_assert!(
            matches!(err, CodecError::TrailingBytes(_) | CodecError::BadDiscriminant(_) | CodecError::Truncated),
            "got {err:?}"
        );
    }

    /// Distinct messages have distinct encodings (the codec is injective).
    #[test]
    fn encoding_is_injective(a in arb_message(), b in arb_message()) {
        if a != b {
            prop_assert_ne!(a.encode(), b.encode());
        }
    }

    /// Multiplexed frames round-trip bit-exactly for any topic-grouped
    /// entry set (including empty): structured and flat decode paths
    /// agree, the encoded length is reported correctly, the ascending
    /// topic grouping survives (DESIGN.md §12) and every member keeps its
    /// retransmission identity, in order.
    #[test]
    fn mux_roundtrip_any_entries(
        groups in proptest::collection::vec(
            (0u32..9, proptest::collection::vec(arb_message(), 1..6)),
            0..5,
        ),
    ) {
        // Deduplicate and sort topics to satisfy the ascending-grouping
        // wire invariant (the shape every engine outbox has).
        let mut by_topic: std::collections::BTreeMap<u32, Vec<WireMessage>> = Default::default();
        for (t, msgs) in groups {
            by_topic.entry(t).or_default().extend(msgs);
        }
        let entries: Vec<(TopicId, WireMessage)> = by_topic
            .into_iter()
            .flat_map(|(t, msgs)| msgs.into_iter().map(move |m| (TopicId(t), m)))
            .collect();
        let mux = MuxBatch::from_entries(&entries);
        let enc = mux.encode();
        prop_assert_eq!(enc.len(), mux.encoded_len());
        let back = MuxBatch::decode(&enc).unwrap();
        prop_assert_eq!(&back, &mux);
        let keys: Vec<u64> = back.iter().map(|(_, m)| m.retransmit_key()).collect();
        let direct: Vec<u64> = entries.iter().map(|(_, m)| m.retransmit_key()).collect();
        prop_assert_eq!(keys, direct);
        let mut flat = Vec::new();
        MuxBatch::decode_shared_into(&enc, &mut flat).unwrap();
        prop_assert_eq!(flat, entries);
    }

    /// Decoding arbitrary bytes as a mux frame never panics — through the
    /// copying decode and through the shared decode the runtime's ingress
    /// uses, with and without a valid frame tag in front (so the fuzz
    /// reaches the sub-batch and control-section parsers, not only the
    /// tag check).
    #[test]
    fn mux_decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let mut tagged = vec![MuxBatch::FRAME_TAG];
        tagged.extend_from_slice(&bytes);
        for data in [bytes, tagged] {
            let _ = MuxBatch::decode(&data); // must not panic
            let frame = bytes::Bytes::from(data);
            let (mut entries, mut controls) = (Vec::new(), Vec::new());
            let _ = MuxBatch::decode_shared_with_controls_into(&frame, &mut entries, &mut controls);
        }
    }

    /// Every strict prefix of a valid mux frame is rejected.
    #[test]
    fn mux_prefixes_are_rejected(
        msgs in proptest::collection::vec(arb_message(), 1..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let entries: Vec<(TopicId, WireMessage)> =
            msgs.into_iter().map(|m| (TopicId(1), m)).collect();
        let mux = MuxBatch::from_entries(&entries);
        let enc = mux.encode();
        let cut = ((enc.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(MuxBatch::decode(&enc[..cut]).is_err());
    }

    /// A mux frame with trailing garbage is rejected. (Garbage that
    /// happens to open with the control-section tag would *be* a control
    /// section, so the first junk byte is steered off it.)
    #[test]
    fn mux_trailing_garbage_rejected(
        msgs in proptest::collection::vec(arb_message(), 0..8),
        junk in proptest::collection::vec(any::<u8>(), 1..16),
    ) {
        let entries: Vec<(TopicId, WireMessage)> =
            msgs.into_iter().map(|m| (TopicId(2), m)).collect();
        let mut enc = MuxBatch::from_entries(&entries).encode().to_vec();
        let at = enc.len();
        enc.extend_from_slice(&junk);
        if enc[at] == MuxBatch::CONTROL_TAG {
            enc[at] = 0;
        }
        prop_assert!(MuxBatch::decode(&enc).is_err());
    }

    /// The retransmission key is stable across label-set evolution for
    /// ACKs, and contents-sensitive otherwise (what the fairness
    /// bookkeeping relies on).
    #[test]
    fn retransmit_key_ignores_ack_labels(
        tag in any::<u128>(),
        ta in any::<u128>(),
        payload in arb_payload(),
        ls1 in arb_labels(),
        ls2 in arb_labels(),
    ) {
        let mk = |ls: Option<LabelSet>| WireMessage::Ack {
            tag: Tag(tag),
            tag_ack: TagAck(ta),
            payload: payload.clone(),
            labels: ls,
        };
        prop_assert_eq!(mk(ls1).retransmit_key(), mk(ls2).retransmit_key());
    }
}

/// Deterministic corner cases that proptest might miss.
#[test]
fn corner_cases() {
    // Empty payload, empty label set.
    let m = WireMessage::Ack {
        tag: Tag(0),
        tag_ack: TagAck(0),
        payload: Payload::empty(),
        labels: Some(LabelSet::new()),
    };
    assert_eq!(WireMessage::decode(&m.encode()).unwrap(), m);

    // Max-valued fields.
    let m = WireMessage::Heartbeat {
        label: Label(u64::MAX),
        seq: u64::MAX,
    };
    assert_eq!(WireMessage::decode(&m.encode()).unwrap(), m);

    // Zero-length input.
    assert!(matches!(
        WireMessage::decode(&[]),
        Err(CodecError::Truncated)
    ));
}

/// A hostile length prefix (huge claimed payload) must fail cleanly, not
/// attempt a giant allocation.
#[test]
fn hostile_length_prefix() {
    let mut frame = vec![0u8]; // MSG discriminant
    frame.extend_from_slice(&0u128.to_be_bytes()); // tag
    frame.extend_from_slice(&u32::MAX.to_be_bytes()); // absurd length
    frame.extend_from_slice(&[0u8; 64]); // far fewer bytes than claimed
    assert!(matches!(
        WireMessage::decode(&frame),
        Err(CodecError::Truncated)
    ));

    // Same for the label count of an ACK.
    let mut frame = vec![1u8];
    frame.extend_from_slice(&0u128.to_be_bytes());
    frame.extend_from_slice(&0u128.to_be_bytes());
    frame.extend_from_slice(&0u32.to_be_bytes()); // empty payload
    frame.push(1); // labels present
    frame.extend_from_slice(&u32::MAX.to_be_bytes()); // absurd label count
    assert!(matches!(
        WireMessage::decode(&frame),
        Err(CodecError::Truncated)
    ));
}
