//! Wire-codec throughput: encode/decode of MSG and labelled ACK messages
//! and the two identity hashes. (Frame-level codec cost is a ledger row —
//! `types.encode_ns_per_msg` / `types.decode_ns_per_msg`.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use urb_types::{Label, LabelSet, Payload, Tag, TagAck, WireMessage};

fn ack(n_labels: usize, body: usize) -> WireMessage {
    WireMessage::Ack {
        tag: Tag(0x0123_4567_89AB_CDEF),
        tag_ack: TagAck(0xFEDC_BA98_7654_3210),
        payload: Payload::from(vec![0x5Au8; body]),
        labels: Some(LabelSet::from_iter(
            (0..n_labels).map(|i| Label(i as u64 * 7 + 1)),
        )),
    }
}

fn bench_encode(c: &mut Criterion) {
    let mut group = c.benchmark_group("encode");
    for (name, msg) in [
        (
            "msg_64B",
            WireMessage::Msg {
                tag: Tag(1),
                payload: Payload::from(vec![1u8; 64]),
            },
        ),
        ("ack_8labels_64B", ack(8, 64)),
        ("ack_64labels_1KiB", ack(64, 1024)),
    ] {
        group.throughput(Throughput::Bytes(msg.encoded_len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &msg, |b, msg| {
            b.iter(|| black_box(msg.encode()))
        });
    }
    group.finish();
}

fn bench_decode(c: &mut Criterion) {
    let mut group = c.benchmark_group("decode");
    for (name, msg) in [("msg", ack(0, 64)), ("ack_32labels", ack(32, 256))] {
        let frame = msg.encode();
        group.throughput(Throughput::Bytes(frame.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &frame, |b, frame| {
            b.iter(|| black_box(WireMessage::decode(frame).unwrap()))
        });
    }
    group.finish();
}

fn bench_hashes(c: &mut Criterion) {
    let msg = ack(16, 256);
    c.bench_function("content_hash_ack16", |b| {
        b.iter(|| black_box(msg.content_hash()))
    });
    c.bench_function("retransmit_key_ack16", |b| {
        b.iter(|| black_box(msg.retransmit_key()))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_encode, bench_decode, bench_hashes
);
criterion_main!(benches);
