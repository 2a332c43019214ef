//! Machine checker for the three URB properties (paper §II).
//!
//! The paper's correctness statements quantify over infinite runs
//! ("eventually delivers"); the checker evaluates them on a finite run that
//! either reached quiescence (Algorithm 2) or ran far past its convergence
//! horizon (Algorithm 1), which is the standard simulation-grade reading of
//! "eventually" (DESIGN.md §7). Every experiment run is passed through this
//! checker; E1/E3 report its verdicts en masse.
//!
//! Checked properties:
//!
//! * **Validity** — if a *correct* process broadcasts `m`, it eventually
//!   delivers `m`.
//! * **Uniform Agreement** — if *some* process (correct or not) delivers
//!   `m`, then every correct process eventually delivers `m`.
//! * **Uniform Integrity** — every process delivers `m` at most once, and
//!   only if `m` was previously URB-broadcast.

use crate::metrics::{BroadcastRecord, DeliveryRecord};
use std::collections::{BTreeMap, BTreeSet};
use urb_types::{Tag, TopicId};

/// Verdict of one property.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PropertyVerdict {
    /// The property holds on this run.
    Holds,
    /// The property is violated; the strings describe each violation.
    Violated(Vec<String>),
}

impl PropertyVerdict {
    /// True when the property holds.
    pub fn ok(&self) -> bool {
        matches!(self, PropertyVerdict::Holds)
    }

    fn from_violations(v: Vec<String>) -> Self {
        if v.is_empty() {
            PropertyVerdict::Holds
        } else {
            PropertyVerdict::Violated(v)
        }
    }
}

/// Combined report for one run.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// Validity verdict.
    pub validity: PropertyVerdict,
    /// Uniform-agreement verdict.
    pub agreement: PropertyVerdict,
    /// Uniform-integrity verdict.
    pub integrity: PropertyVerdict,
}

impl CheckReport {
    /// All three properties hold.
    pub fn all_ok(&self) -> bool {
        self.validity.ok() && self.agreement.ok() && self.integrity.ok()
    }

    /// Flat list of all violation messages.
    pub fn violations(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for v in [&self.validity, &self.agreement, &self.integrity] {
            if let PropertyVerdict::Violated(msgs) = v {
                out.extend(msgs.iter().map(String::as_str));
            }
        }
        out
    }
}

/// Checks the URB properties over one run's observable history.
///
/// * `n` — system size;
/// * `correct` — `correct[i]` iff process `i` never crashed in this run;
/// * `broadcasts` / `deliveries` — the driver's records.
pub fn check_urb(
    n: usize,
    correct: &[bool],
    broadcasts: &[BroadcastRecord],
    deliveries: &[DeliveryRecord],
) -> CheckReport {
    assert_eq!(correct.len(), n);
    let broadcast_tags: BTreeMap<Tag, &BroadcastRecord> =
        broadcasts.iter().map(|b| (b.tag, b)).collect();

    // Per-process delivered multisets.
    let mut per_proc: Vec<BTreeMap<Tag, u32>> = vec![BTreeMap::new(); n];
    for d in deliveries {
        *per_proc[d.pid].entry(d.tag).or_insert(0) += 1;
    }

    // Validity: correct broadcaster delivers its own message.
    let mut validity = Vec::new();
    for b in broadcasts {
        if correct[b.pid] && !per_proc[b.pid].contains_key(&b.tag) {
            validity.push(format!(
                "validity: correct process {} broadcast {:?} at t={} but never delivered it",
                b.pid, b.tag, b.time
            ));
        }
    }

    // Uniform agreement: any delivery (even by a process that later
    // crashed) obligates every correct process.
    let mut agreement = Vec::new();
    let delivered_by_anyone: BTreeSet<Tag> = deliveries.iter().map(|d| d.tag).collect();
    for &tag in &delivered_by_anyone {
        for (pid, is_correct) in correct.iter().enumerate() {
            if *is_correct && !per_proc[pid].contains_key(&tag) {
                agreement.push(format!(
                    "agreement: {tag:?} was delivered by some process but correct process {pid} never delivered it"
                ));
            }
        }
    }

    // Uniform integrity: at most once per process, and only broadcast
    // messages.
    let mut integrity = Vec::new();
    for (pid, tags) in per_proc.iter().enumerate() {
        for (tag, count) in tags {
            if *count > 1 {
                integrity.push(format!(
                    "integrity: process {pid} delivered {tag:?} {count} times"
                ));
            }
            if !broadcast_tags.contains_key(tag) {
                integrity.push(format!(
                    "integrity: process {pid} delivered {tag:?} which was never URB-broadcast"
                ));
            }
        }
    }
    // Content integrity: the channel axioms forbid garbling; every
    // delivered payload must be byte-identical to the broadcast one.
    for d in deliveries {
        if let Some(b) = broadcast_tags.get(&d.tag) {
            if b.payload != d.payload {
                integrity.push(format!(
                    "integrity: process {} delivered {:?} with a garbled payload",
                    d.pid, d.tag
                ));
            }
        }
    }

    CheckReport {
        validity: PropertyVerdict::from_violations(validity),
        agreement: PropertyVerdict::from_violations(agreement),
        integrity: PropertyVerdict::from_violations(integrity),
    }
}

/// One topic's URB verdict on a multi-instance run (DESIGN.md §12).
#[derive(Clone, Debug)]
pub struct TopicReport {
    /// The URB instance this verdict covers.
    pub topic: TopicId,
    /// Broadcasts issued on this topic.
    pub broadcasts: usize,
    /// Deliveries produced on this topic (across all processes).
    pub deliveries: usize,
    /// The three URB property verdicts, restricted to this topic's
    /// records.
    pub report: CheckReport,
}

/// [`check_urb`] **per topic**: every URB instance is an independent
/// state machine with its own correctness obligations, so the records
/// are partitioned by [`TopicId`] and each partition is checked on its
/// own. Topics are reported in ascending order. `known` is every topic
/// that was ever live in the run (static config ∪ `[[topics.events]]`
/// creates, DESIGN.md §15); each gets a report row **even when it
/// produced no records at all** — a silent instance must still face
/// `min_deliveries_per_topic`-style expectations, not vanish from the
/// verdict (a starved topic is exactly what those keys exist to catch).
/// A *retired* topic is still judged on its pre-retirement records —
/// retirement truncates "eventually", it does not erase obligations
/// already incurred. Topics appearing only in the records (defensive)
/// are included too.
pub fn check_urb_per_topics(
    n: usize,
    correct: &[bool],
    known: &[TopicId],
    broadcasts: &[BroadcastRecord],
    deliveries: &[DeliveryRecord],
) -> Vec<TopicReport> {
    let mut topics: Vec<TopicId> = known
        .iter()
        .copied()
        .chain(broadcasts.iter().map(|b| b.topic))
        .chain(deliveries.iter().map(|d| d.topic))
        .collect();
    topics.sort_unstable();
    topics.dedup();
    topics
        .into_iter()
        .map(|topic| {
            let b: Vec<BroadcastRecord> = broadcasts
                .iter()
                .filter(|x| x.topic == topic)
                .cloned()
                .collect();
            let d: Vec<DeliveryRecord> = deliveries
                .iter()
                .filter(|x| x.topic == topic)
                .cloned()
                .collect();
            TopicReport {
                topic,
                broadcasts: b.len(),
                deliveries: d.len(),
                report: check_urb(n, correct, &b, &d),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(pid: usize, tag: u128, time: u64) -> BroadcastRecord {
        BroadcastRecord {
            pid,
            topic: TopicId::ZERO,
            tag: Tag(tag),
            time,
            payload: urb_types::Payload::from("m"),
        }
    }

    fn d(pid: usize, tag: u128, time: u64) -> DeliveryRecord {
        DeliveryRecord {
            pid,
            topic: TopicId::ZERO,
            tag: Tag(tag),
            time,
            fast: false,
            payload: urb_types::Payload::from("m"),
        }
    }

    /// The directory of a run configured with `count` static topics.
    fn topics(count: u32) -> Vec<TopicId> {
        (0..count).map(TopicId).collect()
    }

    #[test]
    fn garbled_payload_detected() {
        let correct = vec![true, true];
        let broadcasts = vec![b(0, 1, 10)];
        let mut dd = d(1, 1, 20);
        dd.payload = urb_types::Payload::from("GARBLED");
        let deliveries = vec![d(0, 1, 15), dd];
        let r = check_urb(2, &correct, &broadcasts, &deliveries);
        assert!(!r.integrity.ok());
        assert!(r.violations()[0].contains("garbled"));
    }

    #[test]
    fn clean_run_passes() {
        let correct = vec![true, true, true];
        let broadcasts = vec![b(0, 1, 10)];
        let deliveries = vec![d(0, 1, 20), d(1, 1, 25), d(2, 1, 30)];
        let r = check_urb(3, &correct, &broadcasts, &deliveries);
        assert!(r.all_ok(), "{:?}", r.violations());
    }

    #[test]
    fn validity_violation_detected() {
        let correct = vec![true, true];
        let broadcasts = vec![b(0, 1, 10)];
        let deliveries = vec![d(1, 1, 20)]; // broadcaster itself never delivers
        let r = check_urb(2, &correct, &broadcasts, &deliveries);
        assert!(!r.validity.ok());
        // Agreement also broken: someone delivered, correct process 0 didn't.
        assert!(!r.agreement.ok());
    }

    #[test]
    fn faulty_broadcaster_does_not_owe_validity() {
        let correct = vec![false, true];
        let broadcasts = vec![b(0, 1, 10)];
        let deliveries = vec![d(1, 1, 20)];
        let r = check_urb(2, &correct, &broadcasts, &deliveries);
        assert!(r.validity.ok(), "validity only binds correct broadcasters");
        assert!(r.all_ok());
    }

    #[test]
    fn agreement_violation_from_crashed_deliverer() {
        // The uniformity scenario: process 0 delivers then crashes; correct
        // processes never deliver. This is exactly what URB forbids (and
        // what eager RB exhibits — experiment E11).
        let correct = vec![false, true, true];
        let broadcasts = vec![b(0, 1, 10)];
        let deliveries = vec![d(0, 1, 12)];
        let r = check_urb(3, &correct, &broadcasts, &deliveries);
        assert!(!r.agreement.ok());
        assert_eq!(r.violations().len(), 2, "two correct processes missed it");
    }

    #[test]
    fn integrity_duplicate_detected() {
        let correct = vec![true];
        let broadcasts = vec![b(0, 1, 10)];
        let deliveries = vec![d(0, 1, 20), d(0, 1, 21)];
        let r = check_urb(1, &correct, &broadcasts, &deliveries);
        assert!(!r.integrity.ok());
    }

    #[test]
    fn integrity_phantom_message_detected() {
        let correct = vec![true];
        let broadcasts = vec![];
        let deliveries = vec![d(0, 99, 20)];
        let r = check_urb(1, &correct, &broadcasts, &deliveries);
        assert!(!r.integrity.ok());
        assert!(r.violations()[0].contains("never URB-broadcast"));
    }

    #[test]
    fn empty_run_passes() {
        let r = check_urb(4, &[true; 4], &[], &[]);
        assert!(r.all_ok());
    }

    #[test]
    fn undelivered_broadcast_by_faulty_process_is_fine() {
        // A faulty process broadcast but nobody delivered: no property binds.
        let correct = vec![false, true];
        let broadcasts = vec![b(0, 1, 10)];
        let r = check_urb(2, &correct, &broadcasts, &[]);
        assert!(r.all_ok());
    }

    #[test]
    fn per_topic_checker_partitions_verdicts() {
        // Topic 0 is healthy; topic 1's agreement is broken (a crashed
        // deliverer, correct processes starved). The per-topic checker
        // must blame exactly topic 1, while the global checker (which
        // sees the union) also fails.
        let correct = vec![false, true];
        let mut b0 = b(1, 1, 10);
        b0.topic = TopicId(0);
        let mut b1 = b(0, 2, 10);
        b1.topic = TopicId(1);
        let mut d0a = d(0, 1, 20);
        d0a.topic = TopicId(0);
        let mut d0b = d(1, 1, 21);
        d0b.topic = TopicId(0);
        let mut d1 = d(0, 2, 22);
        d1.topic = TopicId(1);
        let reports = check_urb_per_topics(2, &correct, &topics(2), &[b0, b1], &[d0a, d0b, d1]);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].topic, TopicId(0));
        assert!(reports[0].report.all_ok(), "{:?}", reports[0].report);
        assert_eq!(reports[0].deliveries, 2);
        assert_eq!(reports[1].topic, TopicId(1));
        assert!(!reports[1].report.agreement.ok());
        assert_eq!(reports[1].broadcasts, 1);
    }

    #[test]
    fn per_topic_checker_empty_run_reports_topic_zero() {
        let reports = check_urb_per_topics(3, &[true; 3], &topics(1), &[], &[]);
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].topic, TopicId::ZERO);
        assert!(reports[0].report.all_ok());
    }

    #[test]
    fn per_topic_checker_reports_silent_configured_topics() {
        // A configured topic with no records must still get a row (with
        // zero deliveries), so per-topic minimum-delivery expectations
        // can fail it instead of passing vacuously.
        let correct = vec![true, true];
        let b0 = b(0, 1, 10); // topic 0 only
        let d0 = d(0, 1, 20);
        let d1 = d(1, 1, 21);
        let reports = check_urb_per_topics(2, &correct, &topics(3), &[b0], &[d0, d1]);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[1].topic, TopicId(1));
        assert_eq!(reports[1].deliveries, 0, "silent topic visible");
        assert_eq!(reports[2].deliveries, 0);
        assert!(reports[1].report.all_ok(), "no records → vacuously clean");
    }

    #[test]
    fn explicit_topic_directory_drives_the_report_rows() {
        // Dynamic-lifecycle entry point: the directory lists topics 0 and
        // 7 (a dynamically created id); records mention only 7. Both get
        // rows, and a record-only topic outside the directory still
        // surfaces defensively.
        let correct = vec![true, true];
        let mut b7 = b(0, 1, 10);
        b7.topic = TopicId(7);
        let mut d7a = d(0, 1, 20);
        d7a.topic = TopicId(7);
        let mut d7b = d(1, 1, 21);
        d7b.topic = TopicId(7);
        let mut d9 = d(0, 2, 5);
        d9.topic = TopicId(9);
        let mut b9 = b(0, 2, 1);
        b9.topic = TopicId(9);
        let mut d9b = d(1, 2, 6);
        d9b.topic = TopicId(9);
        let reports = check_urb_per_topics(
            2,
            &correct,
            &[TopicId(0), TopicId(7)],
            &[b7, b9],
            &[d7a, d7b, d9, d9b],
        );
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].topic, TopicId(0));
        assert_eq!(reports[0].deliveries, 0, "silent directory entry kept");
        assert_eq!(reports[1].topic, TopicId(7));
        assert!(reports[1].report.all_ok(), "{:?}", reports[1].report);
        assert_eq!(reports[2].topic, TopicId(9), "record-only topic surfaces");
    }

    #[test]
    fn report_accessors() {
        let r = check_urb(1, &[true], &[], &[d(0, 1, 5)]);
        assert!(!r.all_ok());
        assert!(!r.violations().is_empty());
    }
}
