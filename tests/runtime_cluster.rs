//! Integration tests for the threaded runtime: the same protocol state
//! machines under real concurrency.
//!
//! These are smoke-level by design (thread scheduling is nondeterministic);
//! the exhaustive property checking lives in the simulator tests.

use anon_urb::prelude::*;
use anon_urb::types::TopicId;
use std::time::Duration;

#[test]
fn cluster_delivers_everywhere_with_loss() {
    let cluster = UrbCluster::spawn(ClusterConfig::new(4, Algorithm::Majority).loss(0.2).seed(1));
    let tag = cluster.broadcast(0, Payload::from("integration")).unwrap();
    let who = cluster.await_delivery_everywhere(tag, Duration::from_secs(30));
    assert_eq!(who, vec![0, 1, 2, 3]);
    cluster.shutdown();
}

#[test]
fn cluster_quiesces_with_algorithm2() {
    let cluster = UrbCluster::spawn(
        ClusterConfig::new(4, Algorithm::Quiescent)
            .loss(0.1)
            .seed(2),
    );
    let tag = cluster.broadcast(3, Payload::from("then silence")).unwrap();
    let who = cluster.await_delivery_everywhere(tag, Duration::from_secs(30));
    assert_eq!(who.len(), 4);
    assert!(
        cluster.await_quiescence(Duration::from_millis(500), Duration::from_secs(30)),
        "no MSG/ACK should cross the router once pruning completes"
    );
    let t1 = cluster.traffic().protocol_messages;
    std::thread::sleep(Duration::from_millis(300));
    let t2 = cluster.traffic().protocol_messages;
    assert_eq!(t1, t2, "traffic counter frozen after quiescence");
    cluster.shutdown();
}

#[test]
fn cluster_survives_majority_crash_with_algorithm2() {
    // The paper's headline: URB despite t >= n/2, thanks to AΘ/AP*.
    let cluster = UrbCluster::spawn(ClusterConfig::new(5, Algorithm::Quiescent).seed(3));
    for pid in [1usize, 2, 3] {
        cluster.crash(pid);
    }
    // Let the registry's detection delay elapse so views converge.
    std::thread::sleep(Duration::from_millis(400));
    let tag = cluster
        .broadcast(0, Payload::from("minority rules"))
        .unwrap();
    let who = cluster.await_delivery_everywhere(tag, Duration::from_secs(30));
    assert_eq!(who, vec![0, 4], "both survivors deliver");
    cluster.shutdown();
}

#[test]
fn algorithm1_blocks_under_majority_crash() {
    let cluster = UrbCluster::spawn(ClusterConfig::new(5, Algorithm::Majority).seed(4));
    for pid in [1usize, 2, 3] {
        cluster.crash(pid);
    }
    std::thread::sleep(Duration::from_millis(100));
    let tag = cluster.broadcast(0, Payload::from("stuck")).unwrap();
    let who = cluster.await_delivery_everywhere(tag, Duration::from_secs(2));
    assert!(
        who.is_empty(),
        "2 distinct ACKs can never meet the majority threshold of 3"
    );
    cluster.shutdown();
}

/// Cross-backend parity: the same scenario driven through the shared
/// `urb-engine` layer under the simulator adapter and the runtime adapter
/// produces the same URB deliveries.
///
/// Tags are backend-local randomness, so parity is stated over what URB
/// actually guarantees: the per-process *sets of delivered payloads* (and
/// exactly-once delivery of each). Any divergence in protocol stepping
/// between the two adapters — ordering of outbox drains, missed ACK
/// processing, double delivery — would surface here.
#[test]
fn engine_parity_sim_and_runtime_agree_on_deliveries() {
    use std::collections::BTreeSet;

    for alg in [Algorithm::Majority, Algorithm::Quiescent] {
        // Simulator backend: 3 processes, 3 broadcasts ("m0".."m2" from
        // round-robin senders), no loss, no crashes.
        let mut cfg = SimConfig::new(3, alg).seed(11).workload(3, 100);
        cfg.stop_on_full_delivery = true;
        let out = urb_sim::run(cfg);
        let sim_delivered: Vec<BTreeSet<String>> = (0..3)
            .map(|pid| {
                out.metrics
                    .deliveries
                    .iter()
                    .filter(|d| d.pid == pid)
                    .map(|d| d.payload.as_text())
                    .collect()
            })
            .collect();
        for pid in 0..3 {
            assert_eq!(
                out.metrics
                    .deliveries
                    .iter()
                    .filter(|d| d.pid == pid)
                    .count(),
                3,
                "sim/{}: process {pid} delivers each payload exactly once",
                alg.name()
            );
        }

        // Runtime backend: the same workload through real threads.
        let cluster = UrbCluster::spawn(ClusterConfig::new(3, alg).seed(12));
        let feed = cluster.subscribe(TopicId::ZERO);
        let tags: Vec<Tag> = (0..3)
            .map(|i| {
                cluster
                    .broadcast(i % 3, Payload::from(format!("m{i}").as_str()))
                    .expect("broadcast accepted")
            })
            .collect();
        for tag in &tags {
            let who = cluster.await_delivery_everywhere(*tag, Duration::from_secs(30));
            assert_eq!(who.len(), 3, "runtime/{}: delivered everywhere", alg.name());
        }
        let mut runtime_log: Vec<Vec<String>> = vec![Vec::new(); 3];
        while let Ok((pid, d)) = feed.try_recv() {
            runtime_log[pid].push(d.payload.as_text());
        }
        let runtime_delivered: Vec<BTreeSet<String>> = runtime_log
            .iter()
            .map(|log| log.iter().cloned().collect())
            .collect();
        for (pid, log) in runtime_log.iter().enumerate() {
            assert_eq!(
                log.len(),
                3,
                "runtime/{}: process {pid} delivers each payload exactly once",
                alg.name()
            );
        }
        assert!(
            cluster.traffic().batches > 0,
            "runtime traffic moved on the batched plane"
        );
        cluster.shutdown();

        assert_eq!(
            sim_delivered,
            runtime_delivered,
            "backends disagree on URB delivery sets for {}",
            alg.name()
        );
    }
}

#[test]
fn multiple_concurrent_broadcasters() {
    let cluster = UrbCluster::spawn(
        ClusterConfig::new(4, Algorithm::Quiescent)
            .loss(0.1)
            .seed(5),
    );
    let tags: Vec<Tag> = (0..4)
        .map(|pid| {
            cluster
                .broadcast(pid, Payload::from(format!("from {pid}").as_str()))
                .unwrap()
        })
        .collect();
    for tag in tags {
        let who = cluster.await_delivery_everywhere(tag, Duration::from_secs(30));
        assert_eq!(who.len(), 4, "every message delivered everywhere");
    }
    cluster.shutdown();
}
