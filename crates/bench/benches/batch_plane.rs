//! The batched message plane vs. the per-message plane, isolated.
//!
//! Two angles of evidence that batching does not regress (and on the
//! routing path improves) the hot loop (frame codec cost is a ledger
//! row — `types.encode_ns_per_msg` / `types.decode_ns_per_msg`):
//!
//! * `channel` — a 16-message outbox crossing an 8-destination link mesh
//!   as one `transmit_entries` frame per link (one delay draw + one event
//!   per destination) vs. 16 × 8 single-message frames;
//! * `sim_end_to_end` — a whole simulated run over the batched plane (the
//!   number to compare against the pre-batching `end_to_end` history).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use urb_core::Algorithm;
use urb_sim::channel::{Channel, DelayModel, LossModel};
use urb_sim::{scenario, sim::run};
use urb_types::{Payload, Tag, TagAck, TopicId, WireMessage, Xoshiro256};

fn outbox(len: usize) -> Vec<(TopicId, WireMessage)> {
    (0..len)
        .map(|i| {
            let msg = if i % 2 == 0 {
                WireMessage::Msg {
                    tag: Tag(i as u128),
                    payload: Payload::from(vec![0x5Au8; 64]),
                }
            } else {
                WireMessage::Ack {
                    tag: Tag(i as u128),
                    tag_ack: TagAck(i as u128 + 1),
                    payload: Payload::from(vec![0x5Au8; 64]),
                    labels: None,
                }
            };
            (TopicId::ZERO, msg)
        })
        .collect()
}

fn mesh(links: u64) -> Vec<Channel> {
    (0..links)
        .map(|i| {
            Channel::new(
                LossModel::Bernoulli { p: 0.2 },
                DelayModel::default(),
                Xoshiro256::new(i),
            )
        })
        .collect()
}

fn bench_channel_plane(c: &mut Criterion) {
    let msgs = outbox(16);
    let mut group = c.benchmark_group("channel_plane");
    group.bench_with_input(BenchmarkId::from_parameter("batched"), &msgs, |b, msgs| {
        let mut channels = mesh(8);
        let mut verdicts = Vec::new();
        b.iter(|| {
            for ch in &mut channels {
                black_box(ch.transmit_entries(msgs, &mut verdicts));
            }
        })
    });
    group.bench_with_input(
        BenchmarkId::from_parameter("per_message"),
        &msgs,
        |b, msgs| {
            let mut channels = mesh(8);
            let mut verdicts = Vec::new();
            b.iter(|| {
                for ch in &mut channels {
                    for m in msgs {
                        black_box(ch.transmit_entries(std::slice::from_ref(m), &mut verdicts));
                    }
                }
            })
        },
    );
    group.finish();
}

fn bench_sim_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("batched_plane_sim");
    group.sample_size(10);
    for &n in &[8usize, 16] {
        group.bench_with_input(BenchmarkId::new("full_delivery", n), &n, |b, &n| {
            b.iter(|| {
                let out = run(scenario::lossy_crashy(
                    n,
                    Algorithm::Quiescent,
                    0.1,
                    0,
                    2,
                    42,
                ));
                assert!(out.report.all_ok());
                black_box(out.metrics.protocol_sends())
            })
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_channel_plane, bench_sim_end_to_end
);
criterion_main!(benches);
