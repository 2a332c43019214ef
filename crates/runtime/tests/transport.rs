//! Transport-layer tests: frame reassembly over arbitrary stream
//! splits (proptest) and real loopback-socket exchange through
//! [`TcpMesh`].
//!
//! The reassembly properties drive the exact byte streams the TCP
//! readers see: encoded [`MuxBatch`] frames in length-prefixed stream
//! framing, chopped at arbitrary `read(2)` boundaries — including
//! mid-length-prefix — with corruption surfacing as typed errors.
//! Socket-dependent tests are `#[ignore]`-gated for minimal local
//! environments; CI's cluster-smoke job runs them (`--ignored`).

use proptest::prelude::*;
use urb_runtime::transport::{
    write_stream_frame, FrameReassembler, FrameStreamError, MeshConfig, TcpMesh,
};
use urb_types::{MuxBatch, Payload, Tag, TopicId, WireMessage};

fn arb_message() -> impl Strategy<Value = WireMessage> {
    (any::<u128>(), proptest::collection::vec(any::<u8>(), 0..64)).prop_map(|(t, p)| {
        WireMessage::Msg {
            tag: Tag(t),
            payload: Payload::from(p),
        }
    })
}

/// A small stream of encoded mux frames (the exact bytes the writer
/// threads emit, sans the per-frame length prefixes the stream layer
/// adds).
fn arb_frames() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..4, arb_message()), 1..5),
        0..6,
    )
    .prop_map(|frames| {
        frames
            .into_iter()
            .map(|entries| {
                // Group ascending by topic to satisfy the mux wire
                // invariant (the shape every engine outbox has).
                let mut by_topic: std::collections::BTreeMap<u32, Vec<WireMessage>> =
                    Default::default();
                for (t, m) in entries {
                    by_topic.entry(t).or_default().push(m);
                }
                let entries: Vec<(TopicId, WireMessage)> = by_topic
                    .into_iter()
                    .flat_map(|(t, ms)| ms.into_iter().map(move |m| (TopicId(t), m)))
                    .collect();
                MuxBatch::from_entries(&entries).encode().to_vec()
            })
            .collect()
    })
}

proptest! {
    /// Splitting a framed stream at arbitrary byte boundaries —
    /// including mid-length-prefix and mid-frame — reproduces the exact
    /// frame sequence, and every reproduced frame still decodes as the
    /// mux frame it was.
    #[test]
    fn reassembly_survives_arbitrary_splits(
        frames in arb_frames(),
        cuts in proptest::collection::vec(any::<u16>(), 0..24),
    ) {
        let mut stream = Vec::new();
        for f in &frames {
            write_stream_frame(f, &mut stream).unwrap();
        }
        // Turn the arbitrary cut points into sorted split positions.
        let mut splits: Vec<usize> = cuts
            .into_iter()
            .map(|c| if stream.is_empty() { 0 } else { c as usize % stream.len() })
            .collect();
        splits.sort_unstable();
        splits.dedup();

        let mut reasm = FrameReassembler::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        let drain = |r: &mut FrameReassembler, got: &mut Vec<Vec<u8>>| {
            while let Some(f) = r.next_frame().expect("clean stream") {
                got.push(f.to_vec());
            }
        };
        let mut prev = 0usize;
        for cut in splits {
            reasm.push(&stream[prev..cut]);
            drain(&mut reasm, &mut got);
            prev = cut;
        }
        reasm.push(&stream[prev..]);
        drain(&mut reasm, &mut got);

        prop_assert_eq!(&got, &frames, "frame sequence reproduced exactly");
        // No stray bytes left: a frame pushed now comes out alone.
        let mut probe = Vec::new();
        write_stream_frame(b"probe", &mut probe).unwrap();
        reasm.push(&probe);
        let next = reasm.next_frame().expect("clean stream");
        prop_assert_eq!(next.as_deref(), Some(&b"probe"[..]));
        prop_assert_eq!(reasm.next_frame().expect("clean stream"), None);
        for f in &got {
            prop_assert!(MuxBatch::decode(f).is_ok(), "reassembled frame still decodes");
        }
    }

    /// A length prefix above the cap is a typed error wherever it lands
    /// in the stream — after any number of clean frames.
    #[test]
    fn oversized_prefix_is_typed_wherever_it_lands(
        frames in arb_frames(),
        extra in 1u32..1024,
    ) {
        let cap = 4096usize;
        let mut stream = Vec::new();
        for f in &frames {
            // Keep the clean frames under the test cap.
            if f.len() <= cap {
                write_stream_frame(f, &mut stream).unwrap();
            }
        }
        let bad_len = cap as u32 + extra;
        stream.extend_from_slice(&bad_len.to_be_bytes());
        stream.extend_from_slice(&[0u8; 8]);

        let mut reasm = FrameReassembler::with_max_frame(cap);
        reasm.push(&stream);
        let mut seen = 0usize;
        let err = loop {
            match reasm.next_frame() {
                Ok(Some(_)) => seen += 1,
                Ok(None) => prop_assert!(false, "corruption must surface, not starve"),
                Err(e) => break e,
            }
        };
        prop_assert_eq!(
            err,
            FrameStreamError::FrameTooLarge { len: bad_len as usize, max: cap }
        );
        prop_assert_eq!(
            seen,
            frames.iter().filter(|f| f.len() <= cap).count(),
            "every clean frame before the corruption is recovered"
        );
    }

    /// A zero length prefix is the other typed corruption.
    #[test]
    fn zero_prefix_is_typed_after_any_clean_prefix(frames in arb_frames()) {
        let mut stream = Vec::new();
        for f in &frames {
            write_stream_frame(f, &mut stream).unwrap();
        }
        stream.extend_from_slice(&[0, 0, 0, 0]);
        let mut reasm = FrameReassembler::new();
        reasm.push(&stream);
        let err = loop {
            match reasm.next_frame() {
                Ok(Some(_)) => {}
                Ok(None) => prop_assert!(false, "corruption must surface"),
                Err(e) => break e,
            }
        };
        prop_assert_eq!(err, FrameStreamError::EmptyFrame);
    }
}

/// Two meshes on loopback: A dials B, a broadcast frame crosses the
/// socket and lands in B's ingress byte-exactly.
#[test]
#[ignore = "binds loopback sockets; run via CI cluster-smoke or --ignored"]
fn loopback_mesh_delivers_frames() {
    use bytes::Bytes;
    use std::time::Duration;

    let (b_tx, b_rx) = crossbeam_channel::unbounded();
    let mut mesh_b = TcpMesh::start(MeshConfig::new("127.0.0.1:0", vec![]), b_tx).expect("bind B");
    let b_addr = mesh_b.local_addr().to_string();

    let (a_tx, _a_rx) = crossbeam_channel::unbounded();
    let mut mesh_a =
        TcpMesh::start(MeshConfig::new("127.0.0.1:0", vec![b_addr]), a_tx).expect("bind A");

    // The writer dials asynchronously; frames queued before the dial
    // completes are flushed once it does.
    let frame = Bytes::copy_from_slice(b"\x04mesh-frame-payload");
    mesh_a.broadcast(&frame);
    let got = b_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("frame crosses the socket");
    assert_eq!(got, frame);

    // Steady state: an established connection moves many frames in order.
    for i in 0..100u8 {
        mesh_a.broadcast(&Bytes::copy_from_slice(&[0x04, i]));
    }
    for i in 0..100u8 {
        let got = b_rx.recv_timeout(Duration::from_secs(10)).expect("ordered");
        assert_eq!(got[..], [0x04, i]);
    }
    let stats = mesh_a.stats();
    assert!(stats.dials_ok >= 1);
    assert_eq!(stats.dropped_backpressure, 0);
    mesh_a.shutdown();
    mesh_b.shutdown();
    assert!(mesh_b.stats().accepted >= 1);
}

/// Killing and restarting a listening mesh exercises the writer's
/// backoff/redial path: frames flow again to the restarted peer on the
/// same address, and the sender's reconnect counter ticks.
#[test]
#[ignore = "binds loopback sockets; run via CI cluster-smoke or --ignored"]
fn mesh_writer_reconnects_after_peer_restart() {
    use bytes::Bytes;
    use std::time::{Duration, Instant};

    let (b_tx, b_rx) = crossbeam_channel::unbounded();
    let mut mesh_b = TcpMesh::start(MeshConfig::new("127.0.0.1:0", vec![]), b_tx).expect("bind B");
    let b_addr = mesh_b.local_addr().to_string();

    let (a_tx, _a_rx) = crossbeam_channel::unbounded();
    let mut mesh_a =
        TcpMesh::start(MeshConfig::new("127.0.0.1:0", vec![b_addr.clone()]), a_tx).expect("bind A");
    mesh_a.broadcast(&Bytes::copy_from_slice(b"before"));
    assert_eq!(
        b_rx.recv_timeout(Duration::from_secs(10))
            .expect("pre-kill"),
        Bytes::copy_from_slice(b"before")
    );

    // Kill B. A's writer discovers the dead connection on its next
    // write, drops that frame (fair-lossy), and redials with backoff.
    mesh_b.shutdown();
    drop(mesh_b);
    drop(b_rx);

    // Restart B on the same address.
    let (b_tx, b_rx) = crossbeam_channel::unbounded();
    let mut mesh_b = TcpMesh::start(MeshConfig::new(b_addr, vec![]), b_tx).expect("rebind B");

    // Keep sending until a frame lands on the restarted peer: everything
    // sent while the old socket lingered or dials failed is lost by
    // design; the protocols' retransmission is modeled by this loop.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut delivered = false;
    while Instant::now() < deadline {
        mesh_a.broadcast(&Bytes::copy_from_slice(b"after"));
        if let Ok(frame) = b_rx.recv_timeout(Duration::from_millis(100)) {
            assert_eq!(frame, Bytes::copy_from_slice(b"after"));
            delivered = true;
            break;
        }
    }
    assert!(delivered, "writer re-established the connection");
    assert!(
        mesh_a.stats().reconnects >= 1,
        "recovery went through the redial path: {:?}",
        mesh_a.stats()
    );
    mesh_a.shutdown();
    mesh_b.shutdown();
}

/// Reserves `n` loopback addresses by binding port 0 and letting go (a
/// daemon's config names every peer up front).
fn free_loopback_addrs(n: usize) -> Vec<String> {
    let held: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    held.iter()
        .map(|l| l.local_addr().expect("bound").to_string())
        .collect()
}

/// Three daemons on loopback, the way `urb cluster --local 3` runs them,
/// each bursting twice as many broadcasts as a peer's writer queue holds
/// frames. The burst leaves as budgeted frames, so no copy is dropped at
/// a full queue and every node delivers everything.
#[test]
#[ignore = "binds loopback sockets; run via CI cluster-smoke or --ignored"]
fn a_burst_larger_than_the_writer_queue_drops_nothing() {
    use std::time::Duration;
    use urb_runtime::{expected_payloads, run_node, NodeConfig};

    const N: usize = 3;
    let msgs = 2 * MeshConfig::new("127.0.0.1:0", vec![]).queue_depth;
    let addrs = free_loopback_addrs(N);
    let nodes: Vec<_> = (0..N)
        .map(|id| {
            let mut cfg = NodeConfig::new(id, N, urb_core::Algorithm::Quiescent, addrs.clone());
            cfg.msgs = msgs;
            cfg.expect = Some(N * msgs);
            cfg.linger = Duration::from_millis(200);
            cfg.run_for = Duration::from_secs(20);
            std::thread::spawn(move || run_node(&cfg))
        })
        .collect();
    let expected: Vec<String> = expected_payloads(N, TopicId::ZERO, msgs)
        .into_iter()
        .collect();
    for node in nodes {
        let report = node.join().expect("daemon thread").expect("daemon runs");
        assert!(report.complete, "node {} incomplete", report.id);
        assert_eq!(report.per_topic[0].payloads, expected, "node {}", report.id);
        assert_eq!(
            report.net.dropped_backpressure, 0,
            "node {} dropped frames at a full writer queue: {:?}",
            report.id, report.net
        );
    }
}

/// A create naming `eager-rb`, sent to a daemon the way `urb topic create`
/// sends one, is refused: the daemon instantiates nothing and forwards
/// nothing, so its peer, which could only learn of the topic from it,
/// never serves it either.
#[test]
#[ignore = "binds loopback sockets; run via CI cluster-smoke or --ignored"]
fn a_daemon_refuses_a_create_naming_a_broadcast_that_is_not_urb() {
    use std::time::{Duration, Instant};
    use urb_core::Algorithm;
    use urb_runtime::{run_node, send_control, NodeConfig};
    use urb_types::TopicControl;

    const N: usize = 2;
    let addrs = free_loopback_addrs(N);
    let nodes: Vec<_> = (0..N)
        .map(|id| {
            let mut cfg = NodeConfig::new(id, N, Algorithm::Quiescent, addrs.clone());
            cfg.expect = Some(N);
            cfg.linger = Duration::from_millis(1500);
            std::thread::spawn(move || run_node(&cfg))
        })
        .collect();
    let (algorithm, param) = Algorithm::EagerRb.to_wire();
    let create = TopicControl::Create {
        topic: TopicId(5),
        algorithm,
        param,
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while send_control(&addrs[0], create).is_err() {
        assert!(Instant::now() < deadline, "node 0 never listened");
        std::thread::sleep(Duration::from_millis(20));
    }
    for node in nodes {
        let report = node.join().expect("daemon thread").expect("daemon runs");
        assert!(report.complete, "node {} incomplete", report.id);
        assert_eq!(
            report.topics_live, 1,
            "node {}: only the configured topic is served",
            report.id
        );
    }
}

/// `TcpMesh::shutdown` wakes its threads where they block — a reader on
/// an idle inbound connection, a writer in a long dial back-off, the
/// accept loop — instead of waiting for them to poll a stop flag.
#[test]
#[ignore = "binds loopback sockets; run via CI cluster-smoke or --ignored"]
fn shutdown_wakes_blocked_threads_at_once() {
    use std::time::{Duration, Instant};

    let mut took = Vec::new();
    for _ in 0..5 {
        // A peer address nobody listens on: the writer's first dial fails
        // and it backs off for a minute.
        let dead_peer = free_loopback_addrs(1).remove(0);
        let mut config = MeshConfig::new("127.0.0.1:0", vec![dead_peer]);
        config.dial_backoff = Duration::from_secs(60);
        let (tx, _rx) = crossbeam_channel::unbounded();
        let mut mesh = TcpMesh::start(config, tx).expect("bind");
        let _idle = std::net::TcpStream::connect(mesh.local_addr()).expect("connect");
        let deadline = Instant::now() + Duration::from_secs(10);
        while mesh.stats().accepted < 1 || mesh.stats().dials_failed < 1 {
            assert!(Instant::now() < deadline, "mesh never settled");
            std::thread::sleep(Duration::from_millis(1));
        }
        let start = Instant::now();
        mesh.shutdown();
        took.push(start.elapsed());
    }
    took.sort();
    assert!(
        took[2] < Duration::from_millis(10),
        "median shutdown {:?} (all: {took:?})",
        took[2]
    );
}
