//! The correctness gate: every workload's outputs are judged against the
//! URB properties before any number is reported.
//!
//! * **Integrity** — no broadcast is delivered twice at a node, and
//!   nothing is delivered that was never broadcast.
//! * **Validity / uniform agreement** — every accepted broadcast is
//!   delivered, with the payload that was sent, at every correct node;
//!   whatever a faulty node delivered, every correct node delivered too.
//! * Refused and timed-out broadcasts count as failures.
//!
//! A failed broadcast is counted once however many ways it failed;
//! `failed / attempted` is the `failed_share` the ledger prints, and any
//! failure makes the process exit non-zero.

use crate::gen::{fingerprint, fnv1a, payload_index, FNV_SEED};
use urb_types::Tag;

/// What the generator remembers of a broadcast: the tag the product
/// assigned and the fingerprint of the payload it handed over.
pub type Sent = (Tag, u64);

/// What one repetition observed, keyed by broadcast index (`0..attempted`,
/// in issue order; the index travels in the first 8 payload bytes).
#[derive(Clone, Debug, Default)]
pub struct Observed {
    /// Broadcasts the generator attempted.
    pub attempted: usize,
    /// Per node, the broadcast indices it delivered, in delivery order.
    pub delivered: Vec<Vec<u32>>,
    /// Broadcasts the product refused (`broadcast_on` returned `None`).
    pub refused: Vec<u32>,
    /// Broadcasts delivered somewhere with a tag or payload other than
    /// the one sent.
    pub corrupt: Vec<u32>,
    /// Broadcasts not delivered everywhere within the 10 s limit.
    pub timed_out: Vec<u32>,
    /// Deliveries that match no broadcast at all.
    pub unknown: u64,
}

impl Observed {
    /// Room for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Observed {
            delivered: vec![Vec::new(); nodes],
            ..Observed::default()
        }
    }

    /// Files one delivery at `node`: finds the broadcast whose index the
    /// payload carries, checks tag and payload against what was sent, and
    /// appends it to the node's log. Returns the broadcast's index, or
    /// `None` (counted) when the delivery matches no broadcast.
    pub fn file(&mut self, node: usize, sent: &[Sent], tag: Tag, payload: &[u8]) -> Option<usize> {
        let Some(i) = payload_index(payload).filter(|&i| i < sent.len() as u64) else {
            self.unknown += 1;
            return None;
        };
        let i = i as usize;
        if sent[i] != (tag, fingerprint(payload)) {
            self.corrupt.push(i as u32);
        }
        self.delivered[node].push(i as u32);
        Some(i)
    }

    /// `--self-test`: forget the last delivery of the last node that has
    /// one, so the gate can be shown to trip on a single lost delivery.
    pub fn drop_one_delivery(&mut self) {
        if let Some(log) = self.delivered.iter_mut().rev().find(|l| !l.is_empty()) {
            log.pop();
        }
    }
}

/// The gate's judgement of one repetition.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Broadcasts that failed in at least one way, plus unknown deliveries.
    pub failed: u64,
    /// One line per kind of violation found (empty when clean).
    pub violations: Vec<String>,
    /// Deliveries observed, all nodes.
    pub deliveries: u64,
    /// Fingerprint of every node's delivery order; deterministic
    /// workloads must reproduce it across repetitions.
    pub order_hash: u64,
}

/// Judges `obs`. `correct` lists the nodes that never crash; every other
/// node is faulty and only has to deliver a subset, once each.
pub fn judge(obs: &Observed, correct: &[usize]) -> Verdict {
    let mut bad = vec![false; obs.attempted];
    let mut v = Verdict::default();
    let mark = |list: &[u32], what: &str, v: &mut Verdict, bad: &mut Vec<bool>| {
        if !list.is_empty() {
            v.violations
                .push(format!("{} broadcast(s) {what}", list.len()));
        }
        for &i in list {
            bad[i as usize] = true;
        }
    };
    mark(&obs.refused, "refused", &mut v, &mut bad);
    mark(
        &obs.corrupt,
        "delivered with the wrong tag or payload",
        &mut v,
        &mut bad,
    );
    mark(
        &obs.timed_out,
        "not delivered everywhere within the time limit",
        &mut v,
        &mut bad,
    );
    if obs.unknown > 0 {
        v.violations.push(format!(
            "{} delivery(ies) of something never broadcast",
            obs.unknown
        ));
    }

    let accepted = {
        let mut a = vec![true; obs.attempted];
        for &i in &obs.refused {
            a[i as usize] = false;
        }
        a
    };
    let mut hash = FNV_SEED;
    for (node, log) in obs.delivered.iter().enumerate() {
        let mut seen = vec![false; obs.attempted];
        let mut dups = 0u64;
        hash = fnv1a(hash, &(node as u32).to_le_bytes());
        for &i in log {
            hash = fnv1a(hash, &i.to_le_bytes());
            if std::mem::replace(&mut seen[i as usize], true) {
                dups += 1;
                bad[i as usize] = true;
            }
        }
        v.deliveries += log.len() as u64;
        if dups > 0 {
            v.violations.push(format!(
                "integrity: node {node} delivered {dups} broadcast(s) twice"
            ));
        }
        if correct.contains(&node) {
            let mut missing = 0u64;
            for i in (0..obs.attempted).filter(|&i| accepted[i] && !seen[i]) {
                missing += 1;
                bad[i] = true;
            }
            if missing > 0 {
                v.violations.push(format!(
                    "agreement: correct node {node} never delivered {missing} accepted broadcast(s)"
                ));
            }
        }
    }
    v.order_hash = hash;
    v.failed = bad.iter().filter(|&&b| b).count() as u64 + obs.unknown;
    v
}

/// Deterministic workloads: every repetition must produce the same
/// delivery count and order. Returns a violation line when they differ.
pub fn same_across_repetitions(verdicts: &[Verdict]) -> Option<String> {
    let first = verdicts.first()?;
    verdicts
        .iter()
        .position(|v| (v.deliveries, v.order_hash) != (first.deliveries, first.order_hash))
        .map(|rep| {
            format!(
                "determinism: repetition {rep} delivered {} (order hash {:016x}), repetition 0 delivered {} ({:016x})",
                verdicts[rep].deliveries, verdicts[rep].order_hash, first.deliveries, first.order_hash
            )
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean(attempted: usize, nodes: usize) -> Observed {
        let mut o = Observed::new(nodes);
        o.attempted = attempted;
        for log in &mut o.delivered {
            *log = (0..attempted as u32).collect();
        }
        o
    }

    #[test]
    fn filing_checks_index_tag_and_payload() {
        let payload = |i: u64| {
            let mut p = [7u8; 16];
            p[..8].copy_from_slice(&i.to_le_bytes());
            p
        };
        let sent: Vec<Sent> = (0..2)
            .map(|i| (Tag(100 + i), fingerprint(&payload(i as u64))))
            .collect();
        let mut o = Observed::new(2);
        assert_eq!(o.file(1, &sent, Tag(101), &payload(1)), Some(1));
        assert_eq!(o.file(0, &sent, Tag(999), &payload(0)), Some(0)); // wrong tag
        assert_eq!(o.file(0, &sent, Tag(100), &payload(2)), None); // no such broadcast
        assert_eq!(o.file(0, &sent, Tag(100), &[1, 2, 3]), None); // no index at all
        assert_eq!(
            (o.delivered[0].clone(), o.delivered[1].clone()),
            (vec![0], vec![1])
        );
        assert_eq!((o.corrupt.clone(), o.unknown), (vec![0], 2));
    }

    #[test]
    fn clean_run_passes() {
        let v = judge(&clean(5, 3), &[0, 1, 2]);
        assert_eq!(v.failed, 0);
        assert!(v.violations.is_empty());
        assert_eq!(v.deliveries, 15);
    }

    #[test]
    fn one_dropped_delivery_trips_agreement() {
        let mut o = clean(5, 3);
        o.drop_one_delivery();
        let v = judge(&o, &[0, 1, 2]);
        assert_eq!(v.failed, 1);
        assert!(v.violations[0].starts_with("agreement"));
    }

    #[test]
    fn double_delivery_trips_integrity_even_at_a_faulty_node() {
        let mut o = clean(4, 3);
        o.delivered[2] = vec![0, 1, 1];
        let v = judge(&o, &[0, 1]);
        assert_eq!(v.failed, 1);
        assert!(v.violations[0].starts_with("integrity"));
    }

    #[test]
    fn faulty_node_may_deliver_a_subset() {
        let mut o = clean(4, 3);
        o.delivered[2] = vec![0, 3];
        assert_eq!(judge(&o, &[0, 1]).failed, 0);
    }

    #[test]
    fn refused_timed_out_corrupt_and_unknown_all_count_once_per_broadcast() {
        let mut o = clean(6, 2);
        // 0 refused (and so delivered nowhere), 1 timed out *and* corrupt.
        for log in &mut o.delivered {
            log.retain(|&i| i != 0);
        }
        o.refused = vec![0];
        o.timed_out = vec![1];
        o.corrupt = vec![1];
        o.unknown = 2;
        let v = judge(&o, &[0, 1]);
        assert_eq!(v.failed, 2 + 2);
        assert_eq!(v.violations.len(), 4);
    }

    #[test]
    fn order_hash_sees_reordering_and_repetitions_must_agree() {
        let a = judge(&clean(3, 2), &[0, 1]);
        let mut o = clean(3, 2);
        o.delivered[1].swap(0, 1);
        let b = judge(&o, &[0, 1]);
        assert_eq!(b.failed, 0);
        assert_ne!(a.order_hash, b.order_hash);
        assert!(same_across_repetitions(&[a.clone(), a.clone()]).is_none());
        assert!(same_across_repetitions(&[a, b])
            .unwrap()
            .starts_with("determinism"));
    }
}
