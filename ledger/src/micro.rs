//! Per-layer micro-loops: short, seeded measurements around single public
//! calls of each crate. They depend on no workload, so they run once per
//! set, in the traced run of [`HOST_WORKLOAD`]: one copy of each number to
//! quote. Every other traced run leaves them unmeasured (0 in its result
//! line).
//!
//! Inputs are real: the frames and messages the codec and protocol loops
//! chew on are captured from a small mesh run, not hand-built.

use crate::mesh::{self, MeshRep, MeshSpec, Trace};
use crate::report::Metrics;
use crate::spans::{self, Tracer};
use crate::stats;
use crate::N;
use bytes::{Bytes, BytesMut};
use crossbeam_channel::{bounded, unbounded};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use urb_core::Algorithm;
use urb_engine::MuxBuffers;
use urb_runtime::transport::{write_stream_frame, FrameReassembler};
use urb_runtime::{LaneDirectory, MembershipRegistry, MeshConfig, StateDir, TcpMesh};
use urb_types::{
    encode_mux_frame_into, Context, MuxBatch, Payload, SplitMix64, TopicId, WireMessage,
};

/// The workload whose traced run carries the micro suite.
pub const HOST_WORKLOAD: &str = "mesh_small";

/// Mean nanoseconds per iteration of `f` over `iters` runs.
fn ns_per_iter(iters: u64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// A traced mini mesh run: the spans, the replay and the captured frames.
fn mini_mesh(
    algorithm: Algorithm,
    payload_len: usize,
    count: u64,
    seed: u64,
) -> (MeshRep, Tracer, Tracer) {
    let spec = MeshSpec {
        algorithm,
        topics: 1,
        payload_len,
        tick_every: 64,
        warmup: 0,
        count,
    };
    let mut bt = Tracer::new(true);
    let mut tt = Tracer::new(true);
    let trace = Trace {
        bcast: &mut bt,
        tick: &mut tt,
        sample_every: 1,
        keep_frames: true,
        shadow: true,
    };
    let rep = mesh::run_rep(spec, seed, Some(trace), false);
    (rep, bt, tt)
}

/// Up to `limit` decoded entries of the captured frames, in wire order.
fn entries_of(frames: &[Bytes], limit: usize) -> Vec<(TopicId, WireMessage)> {
    let mut all = Vec::new();
    let mut one = Vec::new();
    for f in frames {
        MuxBatch::decode_shared_into(f, &mut one).expect("captured frame decodes");
        all.append(&mut one);
        if all.len() >= limit {
            all.truncate(limit);
            break;
        }
    }
    all
}

/// Encode + decode cost of one frame built from `entries`:
/// `(encode ns, decode ns, frame bytes)`.
fn codec_cost(entries: &[(TopicId, WireMessage)], iters: u64) -> (f64, f64, usize) {
    let mut buf = BytesMut::new();
    let encode = ns_per_iter(iters, || {
        buf.clear();
        encode_mux_frame_into(black_box(entries), &mut buf);
    });
    let frame = Bytes::copy_from_slice(&buf);
    let mut out = Vec::new();
    let decode = ns_per_iter(iters, || {
        MuxBatch::decode_shared_into(black_box(&frame), &mut out).expect("own frame decodes");
        black_box(out.len());
    });
    (encode, decode, frame.len())
}

fn types_and_core_and_engine(m: &mut Metrics, seed: u64) {
    // Alg 2 mini mesh: codec inputs, protocol replay, engine spans.
    let count = 4_000;
    let (rep, bt, tt) = mini_mesh(Algorithm::Quiescent, 64, count, seed);
    let replay = rep.replay.expect("traced mini mesh replays");
    let entries = entries_of(&rep.frames, 1024);
    let (enc, dec, len) = codec_cost(&entries, 400);
    let per = entries.len() as f64;
    m.push("types.encode_ns_per_msg", enc / per, "ns");
    m.push("types.decode_ns_per_msg", dec / per, "ns");
    m.push("types.frame_bytes_per_msg", len as f64 / per, "B");
    m.push("types.pool_hit_rate", rep.pool_hit_rate, "ratio");

    // 4 KiB payloads: codec cost per KiB of frame.
    let (big, _, _) = mini_mesh(Algorithm::Quiescent, 4096, 64, seed);
    let big_entries = entries_of(&big.frames, 128);
    let (enc4, dec4, len4) = codec_cost(&big_entries, 400);
    m.push(
        "types.codec_ns_per_kib",
        (enc4 + dec4) / (len4 as f64 / 1024.0),
        "ns",
    );

    let msgs = replay.msgs.max(1) as f64;
    let core_receive = replay.core_receive_ns as f64 / msgs;
    m.push(
        "core.alg2_broadcast_ns",
        replay.core_broadcast_ns as f64 / replay.broadcasts.max(1) as f64,
        "ns",
    );
    m.push("core.alg2_receive_ns", core_receive, "ns");
    m.push(
        "core.msgs_per_bcast",
        rep.wire.msgs as f64 / count as f64,
        "count",
    );
    m.push(
        "core.resident_entries_end",
        rep.resident_entries as f64,
        "count",
    );

    let (storm, _, _) = mini_mesh(Algorithm::Majority, 64, 400, seed);
    let storm_replay = storm.replay.expect("traced mini mesh replays");
    m.push(
        "core.alg1_receive_ns",
        storm_replay.core_receive_ns as f64 / storm_replay.msgs.max(1) as f64,
        "ns",
    );

    // on_tick with 1 000 resident tags: broadcast 1 000 messages nobody
    // acknowledges, then sweep.
    for (name, algorithm) in [
        ("core.alg2_tick_ns_per_tag", Algorithm::Quiescent),
        ("core.alg1_tick_ns_per_tag", Algorithm::Majority),
    ] {
        let mut proc = algorithm.instantiate(N);
        let mut rng = SplitMix64::new(seed);
        let fd = mesh::static_fd(seed, 0);
        let (mut outbox, mut deliveries) = (Vec::new(), Vec::new());
        let tags = 1_000u64;
        for i in 0..tags {
            outbox.clear();
            let mut ctx = Context::new(&mut rng, &fd, &mut outbox, &mut deliveries);
            proc.urb_broadcast(Payload::copy_from_slice(&i.to_le_bytes()), &mut ctx);
        }
        assert_eq!(proc.stats().msg_set as u64, tags, "1 000 tags resident");
        let sweep = ns_per_iter(200, || {
            outbox.clear();
            let mut ctx = Context::new(&mut rng, &fd, &mut outbox, &mut deliveries);
            proc.on_tick(&mut ctx);
            black_box(outbox.len());
        });
        m.push(name, sweep / tags as f64, "ns");
    }

    // Engine: spans of the mini mesh, then directory and sweep loops.
    let st = spans::self_times(bt.spans());
    let cnt = spans::counts(bt.spans());
    let mean = |name: &str| {
        st.get(name).copied().unwrap_or(0) as f64 / cnt.get(name).copied().unwrap_or(1) as f64
    };
    let receive_ns = |t: &Tracer| {
        spans::self_times(t.spans())
            .get("engine.receive_mux_frame")
            .copied()
            .unwrap_or(0) as f64
    };
    let receive = (receive_ns(&bt) + receive_ns(&tt)) / rep.traced_msgs.max(1) as f64;
    let decode = replay.decode_ns as f64 / msgs;
    m.push("engine.broadcast_ns", mean("engine.step_mux"), "ns");
    m.push("engine.receive_ns_per_msg", receive, "ns");
    m.push(
        "engine.dispatch_ns_per_msg",
        receive - decode - core_receive,
        "ns",
    );
    m.push(
        "engine.steps_per_bcast",
        rep.steps as f64 / count as f64,
        "count",
    );

    let one = mesh::build_engine(Algorithm::Quiescent, 1, seed, 0);
    m.push(
        "engine.resolve_ns_1",
        ns_per_iter(2_000_000, || {
            black_box(one.resolve(black_box(TopicId(0))));
        }),
        "ns",
    );
    let topics = 100_000u32;
    let t = Instant::now();
    let mut big = mesh::build_engine(Algorithm::Quiescent, topics, seed, 0);
    m.push(
        "engine.build_ms_100k",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    let mut rng = crate::gen::Rng::new(seed, 9);
    let probes: Vec<TopicId> = (0..4096)
        .map(|_| TopicId(rng.below(u64::from(topics)) as u32))
        .collect();
    let mut i = 0;
    m.push(
        "engine.resolve_ns_100k",
        ns_per_iter(2_000_000, || {
            i = (i + 1) & 4095;
            black_box(big.resolve(probes[i]));
        }),
        "ns",
    );
    let fd = mesh::static_fd(seed, 0);
    let mut mux = MuxBuffers::new();
    let sweep = ns_per_iter(20, || big.tick_all(&fd, &mut mux));
    m.push(
        "engine.tick_all_ns_per_slot",
        sweep / f64::from(topics),
        "ns",
    );
    let mut one = one;
    m.push(
        "engine.tick_all_us",
        ns_per_iter(200_000, || one.tick_all(&fd, &mut mux)) / 1e3,
        "us",
    );
}

fn fd_and_runtime_cpu(m: &mut Metrics, seed: u64) {
    let registry = MembershipRegistry::new(N, seed, Duration::from_millis(200));
    let now = Instant::now();
    m.push(
        "fd.registry_snapshot_ns",
        ns_per_iter(300_000, || {
            black_box(registry.snapshot(0, now));
        }),
        "ns",
    );

    // Channel hop: ping-pong over the crossbeam shim between two threads.
    let (to_peer, peer_rx) = bounded::<u64>(1);
    let (to_me, my_rx) = bounded::<u64>(1);
    let rounds = 20_000u64;
    let hop = std::thread::scope(|s| {
        s.spawn(move || {
            while let Ok(v) = peer_rx.recv() {
                if to_me.send(v).is_err() {
                    break;
                }
            }
        });
        let ns = ns_per_iter(rounds, || {
            to_peer.send(1).expect("peer alive");
            black_box(my_rx.recv().expect("peer alive"));
        });
        drop(to_peer);
        ns / 2.0
    });
    m.push("runtime.channel_hop_us", hop / 1e3, "us");

    // Lane partition: 2 lanes, 64 topics, real messages retagged. The
    // node's flush empties the partitions through `lane_parts_mut`, which
    // is outside the pinned API, and `partition` only appends. So every
    // timed pass gets a fresh directory that one untimed pass has grown:
    // 129 entries per lane leave a doubled Vec room for the 127 the timed
    // pass appends — no allocation inside the timing, as in the product's
    // steady state — and the directories are dropped after the clock stops.
    let (rep, _, _) = mini_mesh(Algorithm::Quiescent, 64, 200, seed);
    let msgs: Vec<WireMessage> = entries_of(&rep.frames, 258)
        .into_iter()
        .map(|(_, w)| w)
        .collect();
    assert_eq!(msgs.len(), 258, "the mini mesh carries enough messages");
    let batch = |len: usize| -> Vec<(TopicId, WireMessage)> {
        msgs[..len]
            .iter()
            .enumerate()
            .map(|(i, w)| (TopicId((i % 64) as u32), w.clone()))
            .collect()
    };
    let (rounds, per_round, timed_len) = (50, 32, 254);
    let mut controls = Vec::new();
    let mut partition_ns = 0u128;
    for _ in 0..rounds {
        let mut dirs: Vec<(LaneDirectory, Vec<(TopicId, WireMessage)>)> = (0..per_round)
            .map(|_| {
                let mut dir = LaneDirectory::new(2);
                dir.partition(&mut batch(258), &mut controls);
                (dir, batch(timed_len))
            })
            .collect();
        let t = Instant::now();
        for (dir, outbox) in &mut dirs {
            dir.partition(outbox, &mut controls);
        }
        partition_ns += t.elapsed().as_nanos();
    }
    m.push(
        "runtime.lane_partition_ns_per_entry",
        partition_ns as f64 / (rounds * per_round * timed_len) as f64,
        "ns",
    );

    // Stream framing: small frames one by one, then bulk in 64 KiB reads.
    let small = rep.frames[rep.frames.len() / 2].clone();
    let mut wire = Vec::new();
    m.push(
        "runtime.frame_write_ns",
        ns_per_iter(200_000, || {
            wire.clear();
            write_stream_frame(black_box(&small), &mut wire);
        }),
        "ns",
    );
    let frames = 2_000usize;
    let mut stream = Vec::new();
    for _ in 0..frames {
        write_stream_frame(&small, &mut stream);
    }
    let reassemble = |stream: &[u8], chunk: usize| {
        let mut r = FrameReassembler::new();
        let mut got = 0usize;
        let t = Instant::now();
        for c in stream.chunks(chunk) {
            r.push(c);
            while let Some(f) = r.next_frame().expect("well-formed stream") {
                got += 1;
                black_box(f.len());
            }
        }
        (t.elapsed(), got)
    };
    let (took, got) = reassemble(&stream, 1460);
    assert_eq!(got, frames);
    m.push(
        "runtime.reassemble_ns_per_frame",
        took.as_nanos() as f64 / frames as f64,
        "ns",
    );
    let big_frame = Bytes::from(vec![0xA5u8; 4096]);
    let mut bulk = Vec::new();
    for _ in 0..4_000 {
        write_stream_frame(&big_frame, &mut bulk);
    }
    let (took, got) = reassemble(&bulk, 64 * 1024);
    assert_eq!(got, 4_000);
    m.push(
        "runtime.reassemble_mb_s",
        bulk.len() as f64 / 1e6 / took.as_secs_f64(),
        "MB/s",
    );
}

fn runtime_sockets(m: &mut Metrics) {
    // Two meshes on loopback: connect, ping-pong, then windowed blast.
    // Both listen on port 0, so nothing races for a port.
    let (a_tx, a_rx) = unbounded::<Bytes>();
    let (b_tx, b_rx) = unbounded::<Bytes>();
    let mut a =
        TcpMesh::start(MeshConfig::new("127.0.0.1:0", vec![]), a_tx.clone()).expect("start mesh a");
    let limit = Instant::now() + Duration::from_secs(10);
    // Connect: from starting a mesh that names a listening peer until it
    // has dialled and the peer has accepted.
    let t = Instant::now();
    let mut b = TcpMesh::start(
        MeshConfig::new("127.0.0.1:0", vec![a.local_addr().to_string()]),
        b_tx,
    )
    .expect("start mesh b");
    while (b.stats().dials_ok < 1 || a.stats().accepted < 1) && Instant::now() < limit {
        std::thread::sleep(Duration::from_micros(50));
    }
    m.push(
        "runtime.tcp_connect_ms",
        t.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    // `a` has no peer to write to, so a second handle dials `b` back.
    let mut a_out = TcpMesh::start(
        MeshConfig::new("127.0.0.1:0", vec![b.local_addr().to_string()]),
        a_tx,
    )
    .expect("start mesh a (outbound)");
    while a_out.stats().dials_ok < 1 && Instant::now() < limit {
        std::thread::sleep(Duration::from_micros(200));
    }
    let frame = Bytes::from(vec![0x5Au8; 128]);
    let wait = Duration::from_secs(5);
    let mut oneway = Vec::new();
    for _ in 0..1_000 {
        let t = Instant::now();
        a_out.broadcast(&frame);
        if b_rx.recv_timeout(wait).is_err() {
            break;
        }
        b.broadcast(&frame);
        if a_rx.recv_timeout(wait).is_err() {
            break;
        }
        oneway.push(t.elapsed().as_nanos() as f64 / 2.0 / 1e3);
    }
    stats::sort(&mut oneway);
    m.push(
        "runtime.tcp_oneway_p50_us",
        stats::percentile(&oneway, 0.5),
        "us",
    );

    // Blast in bursts the writer queue can hold, so nothing is dropped
    // and the figure is the socket path's, not the drop policy's.
    let (bursts, burst) = (40, 512);
    let t = Instant::now();
    let mut received = 0u64;
    'blast: for _ in 0..bursts {
        for _ in 0..burst {
            a_out.broadcast(&frame);
        }
        for _ in 0..burst {
            if b_rx.recv_timeout(wait).is_err() {
                break 'blast;
            }
            received += 1;
        }
    }
    m.push(
        "runtime.tcp_frames_s",
        received as f64 / t.elapsed().as_secs_f64(),
        "1/s",
    );
    a_out.shutdown();
    b.shutdown();
    a.shutdown();
}

fn runtime_state(m: &mut Metrics, scratch: &Path) {
    let dir = scratch.join(format!("state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut state, _) = StateDir::open(&dir).expect("open a scratch state dir");
    let appends = 2_000u64;
    let mut i = 0u64;
    m.push(
        "runtime.state.append_us",
        ns_per_iter(appends, || {
            i += 1;
            state
                .append_delivery(TopicId::ZERO, &format!("n0.t0.m{i}"))
                .expect("journal append");
        }) / 1e3,
        "us",
    );
    let engine_blob = vec![0x42u8; 64 * 1024];
    let delivered: Vec<std::collections::BTreeSet<String>> =
        vec![(0..2_000).map(|i| format!("n0.t0.m{i}")).collect()];
    m.push(
        "runtime.state.snapshot_write_ms",
        ns_per_iter(8, || {
            state
                .write_snapshot(&engine_blob, &delivered)
                .expect("snapshot write");
        }) / 1e6,
        "ms",
    );
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the whole micro suite, appending one metric per loop.
pub fn run_all(m: &mut Metrics, seed: u64, scratch: &Path) {
    types_and_core_and_engine(m, seed);
    fd_and_runtime_cpu(m, seed);
    runtime_sockets(m);
    runtime_state(m, scratch);
}
