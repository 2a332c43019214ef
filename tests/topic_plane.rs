//! Whole-stack tests of the topic plane (DESIGN.md §12):
//!
//! * a **golden-file test** — the `two_topics_smoke` corpus scenario
//!   replays to exactly the per-topic delivery trace recorded in
//!   `tests/golden/two_topics.json` (rows keyed by `(topic, tag)`), and
//!   the serial driver and the parallel executor produce bit-identical
//!   traces. Regenerate after an intentional change with
//!   `UPDATE_GOLDEN=1 cargo test --test topic_plane`;
//! * a second golden file, `tests/golden/lifecycle_with_memory.json`, for
//!   a lossy run with **both** `[[topics.events]]` and `[memory]`: the
//!   node tick's sweep → reap → compact order, pinned;
//! * **cross-backend parity** — the same multi-topic workload executed
//!   by the discrete-event simulator and by the threaded runtime
//!   delivers identical per-topic payload sets at
//!   every process: both backends drive the same `TopicEngine` code;
//! * **per-topic verdicts** — a multi-topic sim run reports one URB
//!   verdict per instance, and a violation on one topic does not leak
//!   into another's verdict.

use std::collections::BTreeSet;
use std::time::Duration;
use urb_core::Algorithm;
use urb_runtime::{ClusterConfig, UrbCluster};
use urb_sim::spec::corpus;
use urb_sim::{RunOutcome, ScenarioSpec, SimConfig};
use urb_types::{Payload, TopicId};

fn corpus_spec(name: &str) -> ScenarioSpec {
    let (_, text) = corpus()
        .into_iter()
        .find(|(stem, _)| *stem == name)
        .unwrap_or_else(|| panic!("{name} not in corpus"));
    ScenarioSpec::from_toml_str(text).unwrap()
}

fn render_topic_trace(name: &str, out: &RunOutcome) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"scenario\": \"{name}\",");
    let _ = writeln!(s, "  \"trace_hash\": \"{:#018x}\",", out.metrics.trace_hash);
    let _ = writeln!(s, "  \"deliveries\": [");
    let body: Vec<String> = out
        .metrics
        .deliveries
        .iter()
        .map(|d| {
            format!(
                "    {{\"pid\": {}, \"topic\": {}, \"time\": {}, \"fast\": {}, \
                 \"tag\": \"{:#034x}\"}}",
                d.pid, d.topic.0, d.time, d.fast, d.tag.0
            )
        })
        .collect();
    let _ = writeln!(s, "{}", body.join(",\n"));
    let _ = writeln!(s, "  ]");
    let _ = writeln!(s, "}}");
    s
}

#[test]
fn golden_two_topics_delivery_trace() {
    let spec = corpus_spec("two_topics_smoke");
    // Backend 1: the serial driver.
    let serial = urb_sim::run(spec.compile().unwrap());
    // Backend 2: the parallel executor (work-stealing thread pool).
    let parallel = urb_sim::run_many(vec![spec.compile().unwrap(); 3]);

    // Cross-executor parity: identical topic-tagged delivery traces.
    for out in &parallel {
        assert_eq!(out.metrics.trace_hash, serial.metrics.trace_hash);
        assert_eq!(
            out.metrics.deliveries.len(),
            serial.metrics.deliveries.len()
        );
        for (a, b) in out
            .metrics
            .deliveries
            .iter()
            .zip(&serial.metrics.deliveries)
        {
            assert_eq!(
                (a.pid, a.topic, a.time, a.fast, a.tag),
                (b.pid, b.topic, b.time, b.fast, b.tag)
            );
        }
    }

    // Both topics really delivered, independently.
    assert_eq!(serial.per_topic.len(), 2);
    for t in &serial.per_topic {
        assert_eq!(t.deliveries, 3, "topic {}: 1 msg × 3 procs", t.topic);
        assert!(t.report.all_ok());
    }

    // Golden comparison (structural, so formatting is not load-bearing).
    let rendered = render_topic_trace("two_topics_smoke", &serial);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/two_topics.json");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &rendered).expect("write golden");
        eprintln!("golden updated: {path}");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    let got: serde_json::Value = serde_json::from_str(&rendered).unwrap();
    let want: serde_json::Value = serde_json::from_str(&golden).unwrap();
    assert_eq!(
        got, want,
        "two_topics_smoke no longer replays to the recorded per-topic delivery trace; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_dynamic_topics_delivery_trace() {
    // The dynamic topic control plane's golden file (DESIGN.md §15): the
    // `dynamic_topics` corpus scenario — create topic 1 at t=100, run a
    // workload over it, retire it at t=4000 — replays to exactly the
    // recorded topic-tagged delivery trace, serial and parallel executors
    // agree bit for bit, and every process reclaims the retired instance.
    let spec = corpus_spec("dynamic_topics");
    let serial = urb_sim::run(spec.compile().unwrap());
    let parallel = urb_sim::run_many(vec![spec.compile().unwrap(); 3]);
    for out in &parallel {
        assert_eq!(out.metrics.trace_hash, serial.metrics.trace_hash);
        assert_eq!(
            out.metrics.deliveries.len(),
            serial.metrics.deliveries.len()
        );
    }

    // Both topics delivered and judged independently; the dynamic one
    // was reclaimed at all 4 processes after retirement.
    assert_eq!(serial.per_topic.len(), 2);
    for t in &serial.per_topic {
        assert!(t.report.all_ok(), "topic {}: {:?}", t.topic, t.report);
    }
    assert_eq!(
        serial.topics_reclaimed(),
        4,
        "4 processes × 1 retired topic"
    );

    let mut rendered = render_topic_trace("dynamic_topics", &serial);
    // The lifecycle counters are part of the pinned trace: a regression
    // that stops reclaiming (or reclaims the wrong number of instances)
    // must fail the golden comparison, not just the unit tests.
    rendered = rendered.replacen(
        "  \"deliveries\": [",
        &format!(
            "  \"topics_reclaimed\": {},\n  \"deliveries\": [",
            serial.topics_reclaimed()
        ),
        1,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/dynamic_topics.json"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &rendered).expect("write golden");
        eprintln!("golden updated: {path}");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    let got: serde_json::Value = serde_json::from_str(&rendered).unwrap();
    let want: serde_json::Value = serde_json::from_str(&golden).unwrap();
    assert_eq!(
        got, want,
        "dynamic_topics no longer replays to the recorded lifecycle trace; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

/// A lossy run where a topic is created, loaded and retired *while*
/// ack-prefix compaction is on: the retiring instance drains, is reaped
/// and the survivors compact in the same node ticks.
const LIFECYCLE_WITH_MEMORY: &str = r#"
name = "lifecycle_with_memory"
seed = 43
n = 4
algorithm = "quiescent"
horizon = 500_000
stop = "quiescence"
loss = { model = "bernoulli", p = 0.2 }

[topics]
count = 1
drain_ticks = 8

[[topics.events]]
at = 100
create = 1

[[topics.events]]
at = 1_500
retire = 1

[[workload]]
topic = 0
count = 8
spacing = 200
start = 10

[[workload]]
topic = 1
count = 6
spacing = 40
start = 150

[memory]
grace_ticks = 1
conservative = false
tombstones = 64
"#;

#[test]
fn golden_lifecycle_with_memory_trace() {
    // The golden file was generated at d3874ca, where the simulator still
    // spelled the node tick by hand (per-topic sweep, gated reap, gated
    // compaction): `TopicEngine::tick_all` must reproduce its delivery
    // trace, event hash and reap/compaction counters exactly.
    let spec = ScenarioSpec::from_toml_str(LIFECYCLE_WITH_MEMORY).unwrap();
    let out = urb_sim::run(spec.compile().unwrap());
    assert!(out.all_topics_ok(), "{:?}", out.report.violations());
    assert!(out.quiescent);
    assert_eq!(out.topics_reclaimed(), 4, "4 processes × 1 retired topic");
    let sum =
        |f: fn(&urb_engine::EngineCounters) -> u64| -> u64 { out.counters.iter().map(f).sum() };
    assert!(sum(|c| c.compactions) > 0 && sum(|c| c.tombstoned) > 0);
    assert!(out.metrics.dropped.iter().sum::<u64>() > 0, "loss happened");

    let rendered = render_topic_trace("lifecycle_with_memory", &out).replacen(
        "  \"deliveries\": [",
        &format!(
            "  \"topics_reclaimed\": {},\n  \"compactions\": {},\n  \"reclaimed\": {},\n  \
             \"tombstoned\": {},\n  \"deliveries\": [",
            out.topics_reclaimed(),
            sum(|c| c.compactions),
            sum(|c| c.reclaimed),
            sum(|c| c.tombstoned),
        ),
        1,
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/lifecycle_with_memory.json"
    );
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(path, &rendered).expect("write golden");
        eprintln!("golden updated: {path}");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    let got: serde_json::Value = serde_json::from_str(&rendered).unwrap();
    let want: serde_json::Value = serde_json::from_str(&golden).unwrap();
    assert_eq!(
        got, want,
        "lifecycle_with_memory no longer replays to the recorded trace; \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn sim_and_runtime_agree_on_a_multi_topic_run() {
    // The same 2-topic, 4-process, 4-broadcast workload on both backends.
    // Wall-clock scheduling differs, so parity is semantic: every process
    // delivers exactly the same per-topic payload *sets* under both.
    let n = 4;
    let payloads: [(u32, &str); 4] = [
        (0, "t0-first"),
        (1, "t1-first"),
        (0, "t0-second"),
        (1, "t1-second"),
    ];

    // Simulator side.
    let mut cfg = SimConfig::new(n, Algorithm::Majority).topics(2).seed(77);
    cfg.broadcasts = payloads
        .iter()
        .enumerate()
        .map(|(i, &(topic, text))| urb_sim::PlannedBroadcast {
            time: 10 + i as u64 * 40,
            pid: i % n,
            topic: TopicId(topic),
            payload: Payload::from(text),
        })
        .collect();
    cfg.stop_on_full_delivery = true;
    let sim_out = urb_sim::run(cfg);
    assert!(sim_out.all_topics_ok(), "{:?}", sim_out.report.violations());

    // Runtime side: 2 topics.
    let cluster = UrbCluster::spawn(ClusterConfig::new(n, Algorithm::Majority).topics(2));
    let feeds = [cluster.subscribe(TopicId(0)), cluster.subscribe(TopicId(1))];
    let mut tags = Vec::new();
    for (i, &(topic, text)) in payloads.iter().enumerate() {
        let tag = cluster
            .broadcast_on(i % n, TopicId(topic), Payload::from(text))
            .expect("tag");
        tags.push(tag);
    }
    for tag in &tags {
        let who = cluster.await_delivery_everywhere(*tag, Duration::from_secs(20));
        assert_eq!(who.len(), n, "runtime delivers everywhere");
    }

    // Parity: per-process, per-topic payload sets agree across backends.
    let mut rt_logs = vec![vec![Vec::new(); n]; 2];
    for (topic, feed) in feeds.iter().enumerate() {
        while let Ok((pid, d)) = feed.try_recv() {
            rt_logs[topic][pid].push(d.payload.as_slice().to_vec());
        }
    }
    for (t, per_pid) in rt_logs.iter().enumerate() {
        let topic = TopicId(t as u32);
        for (pid, rt_log) in per_pid.iter().enumerate() {
            let sim_set: BTreeSet<Vec<u8>> = sim_out
                .metrics
                .deliveries
                .iter()
                .filter(|d| d.pid == pid && d.topic == topic)
                .map(|d| d.payload.as_slice().to_vec())
                .collect();
            let rt_set: BTreeSet<Vec<u8>> = rt_log.iter().cloned().collect();
            assert_eq!(
                rt_log.len(),
                rt_set.len(),
                "pid {pid}, topic {topic}: once each"
            );
            assert_eq!(sim_set, rt_set, "pid {pid}, topic {topic}");
            assert_eq!(sim_set.len(), 2, "two payloads per topic");
        }
    }
    cluster.shutdown();
}

#[test]
fn per_topic_verdicts_do_not_leak_across_topics() {
    // Topic 1's broadcaster is fully severed from everyone (its instance
    // violates validity — outside the fairness model, exactly like the
    // single-topic severed-link test), while topic 0 stays healthy. The
    // per-topic reports must blame exactly topic 1.
    let n = 4;
    let mut cfg = SimConfig::new(n, Algorithm::Majority)
        .topics(2)
        .seed(13)
        .max_time(20_000);
    cfg.broadcasts = vec![
        urb_sim::PlannedBroadcast {
            time: 10,
            pid: 0,
            topic: TopicId(0),
            payload: Payload::from("healthy"),
        },
        urb_sim::PlannedBroadcast {
            time: 12,
            pid: 1,
            topic: TopicId(1),
            payload: Payload::from("doomed"),
        },
    ];
    // Sever every link out of pid 1 — but pid 1 only ever broadcasts on
    // topic 1, so only topic 1's instance starves.
    cfg.link_overrides = (0..n)
        .filter(|&to| to != 1)
        .map(|to| urb_sim::LinkOverride {
            from: 1,
            to,
            loss: urb_sim::LossModel::Always,
        })
        .collect();
    let out = urb_sim::run(cfg);
    assert_eq!(out.per_topic.len(), 2);
    assert!(
        out.per_topic[0].report.all_ok(),
        "topic 0 must stay clean: {:?}",
        out.per_topic[0].report.violations()
    );
    assert!(
        !out.per_topic[1].report.validity.ok(),
        "topic 1's severed broadcaster breaks its own validity"
    );
    assert!(!out.all_topics_ok());
    assert_eq!(out.metrics.topics(), vec![TopicId(0), TopicId(1)]);
}
