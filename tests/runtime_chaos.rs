//! Chaos test for the threaded runtime: concurrent broadcasters, random
//! crash injection, message loss — then assert the URB obligations that
//! remain decidable from outside (agreement among survivors, integrity).
//!
//! Thread scheduling makes runtime runs non-reproducible, so this test
//! checks *properties*, not trajectories.

use anon_urb::prelude::*;
use anon_urb::types::TopicId;
use std::collections::BTreeSet;
use std::time::Duration;

#[test]
fn chaos_survivors_agree() {
    let n = 6;
    let cluster = UrbCluster::spawn(
        ClusterConfig::new(n, Algorithm::Quiescent)
            .loss(0.15)
            .seed(0xC4A05),
    );
    let feed = cluster.subscribe(TopicId::ZERO);

    // Phase 1: everyone broadcasts. Tags from the processes we are about
    // to kill carry only *conditional* URB obligations (deliver-anywhere ⇒
    // deliver-at-every-survivor); tags from survivors are owed everywhere.
    let mut tags = Vec::new();
    let mut survivor_tags = Vec::new();
    for pid in 0..n {
        if let Some(tag) = cluster.broadcast(pid, Payload::from(format!("c{pid}").as_str())) {
            tags.push(tag);
            if pid != 1 && pid != 4 {
                survivor_tags.push(tag);
            }
        }
    }

    // Phase 2: kill two processes while their broadcasts are in flight.
    cluster.crash(1);
    cluster.crash(4);

    // Phase 3: one more broadcast from a survivor after the storm.
    std::thread::sleep(Duration::from_millis(300)); // let detection settle
    if let Some(tag) = cluster.broadcast(0, Payload::from("post-crash")) {
        tags.push(tag);
        survivor_tags.push(tag);
    }

    // Survivors owe delivery of every survivor-broadcast tag.
    for &tag in &survivor_tags {
        let who = cluster.await_delivery_everywhere(tag, Duration::from_secs(30));
        for pid in [0usize, 2, 3, 5] {
            assert!(
                who.contains(&pid),
                "survivor {pid} missed {tag:?} (delivered at {who:?})"
            );
        }
    }

    // Let any in-flight deliveries of the doomed processes' tags settle:
    // once the system is quiescent no further deliveries can occur.
    assert!(
        cluster.await_quiescence(Duration::from_millis(500), Duration::from_secs(30)),
        "quiescence after chaos"
    );

    // Agreement + integrity over everything the subscription saw (uniform
    // agreement: even a crashed process's deliveries obligate every
    // survivor — checked via the union of all logs, crashed included).
    let mut delivered: Vec<Vec<Tag>> = vec![Vec::new(); n];
    while let Ok((pid, d)) = feed.try_recv() {
        delivered[pid].push(d.tag);
    }
    let logs: Vec<BTreeSet<Tag>> = delivered
        .iter()
        .map(|log| log.iter().copied().collect())
        .collect();
    let delivered_anywhere: BTreeSet<Tag> = logs.iter().flatten().copied().collect();
    for pid in [0usize, 2, 3, 5] {
        assert_eq!(
            logs[pid], delivered_anywhere,
            "survivor {pid}'s log must contain everything delivered anywhere"
        );
    }
    // Integrity: no duplicates (sets were built from vectors; compare sizes).
    for pid in [0usize, 2, 3, 5] {
        let v = &delivered[pid];
        assert_eq!(v.len(), logs[pid].len(), "pid {pid} delivered a tag twice");
        // Only broadcast tags are delivered.
        for tag in v {
            assert!(tags.contains(tag), "phantom delivery {tag:?}");
        }
    }

    cluster.shutdown();
}

/// A subscription is fed by the nodes themselves: with no cluster accessor
/// called, each node's deliveries reach it exactly once and in that node's
/// delivery order.
#[test]
fn a_subscriber_gets_each_nodes_deliveries_once_in_order() {
    let cluster = UrbCluster::spawn(ClusterConfig::new(3, Algorithm::Majority).seed(7));
    let feed = cluster.subscribe(TopicId::ZERO);
    // Each broadcast leaves once the feed shows the previous one at every
    // node, so every node delivers them in broadcast order.
    let (mut tags, mut logs) = (Vec::new(), vec![Vec::new(); 3]);
    for i in 0..6 {
        let payload = Payload::from(format!("m{i}").as_str());
        tags.push(cluster.broadcast(i % 3, payload).expect("tag"));
        while logs.iter().any(|log: &Vec<Tag>| log.len() < tags.len()) {
            let (pid, d) = feed
                .recv_timeout(Duration::from_secs(10))
                .expect("the delivery reaches the subscriber");
            logs[pid].push(d.tag);
        }
    }
    // Algorithm 1 keeps retransmitting, but nothing is delivered twice.
    assert!(feed.recv_timeout(Duration::from_millis(300)).is_err());
    for (pid, log) in logs.iter().enumerate() {
        assert_eq!(log, &tags, "node {pid}: once each, in order");
    }
    cluster.shutdown();
}
