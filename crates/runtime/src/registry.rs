//! Registry-backed failure detector for the threaded runtime.
//!
//! Crash injection in the runtime is explicit ([`crate::UrbCluster::crash`]),
//! so a *perfect* detector is honest here: the registry learns of every
//! crash the instant it is injected and removes the victim's label from the
//! views after a configurable detection delay — exactly the `AP*` contract
//! ("eventually and permanently deleted"), with "eventually" made concrete.
//! Both `a_theta` and `a_p*` are served from the same membership state with
//! `number = |alive|` (every alive process knows every alive label), which
//! satisfies the `AΘ` clauses for the same reason the simulator's oracle
//! does.

use parking_lot::RwLock;
use std::time::{Duration, Instant};
use urb_types::{FdPair, FdSnapshot, FdView, Label, SplitMix64};

struct State {
    /// `crashed_at[i] = Some(t)` once a crash for `i` was injected at `t`.
    crashed_at: Vec<Option<Instant>>,
}

/// Shared membership/label registry (one per cluster).
pub struct MembershipRegistry {
    labels: Vec<Label>,
    detection_delay: Duration,
    state: RwLock<State>,
}

impl MembershipRegistry {
    /// New registry for `n` processes with labels drawn from `seed`.
    pub fn new(n: usize, seed: u64, detection_delay: Duration) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x4AB0_11ED_FACE_0001);
        MembershipRegistry {
            labels: (0..n).map(|_| Label::random(&mut rng)).collect(),
            detection_delay,
            state: RwLock::new(State {
                crashed_at: vec![None; n],
            }),
        }
    }

    /// The label of process `pid` (driver-side knowledge; protocol code
    /// never sees the mapping).
    pub fn label_of(&self, pid: usize) -> Label {
        self.labels[pid]
    }

    /// Records a crash at `when` (idempotent, keeps the earliest instant).
    pub fn mark_crashed(&self, pid: usize, when: Instant) {
        let mut st = self.state.write();
        match st.crashed_at[pid] {
            Some(prev) if prev <= when => {}
            _ => st.crashed_at[pid] = Some(when),
        }
    }

    /// True once a crash has been injected for `pid`.
    pub fn is_crashed(&self, pid: usize) -> bool {
        self.state.read().crashed_at[pid].is_some()
    }

    /// The detector snapshot served to process `pid` at `now`, read from
    /// one registry state. Visible labels are those of alive processes
    /// plus crashed ones whose detection delay has not yet elapsed, each
    /// paired with `number` = how many are visible. Crashed processes get
    /// empty views (they are about to stop anyway; an oracle may output
    /// anything for them, and empty is trivially accurate).
    pub fn snapshot(&self, pid: usize, now: Instant) -> FdSnapshot {
        let st = self.state.read();
        if st.crashed_at[pid].is_some() {
            return FdSnapshot::none();
        }
        let mut pairs = Vec::with_capacity(self.labels.len());
        pairs.extend(
            self.labels
                .iter()
                .zip(&st.crashed_at)
                .filter(|(_, crashed)| match crashed {
                    None => true,
                    Some(t) => now.saturating_duration_since(*t) < self.detection_delay,
                })
                .map(|(&label, _)| FdPair { label, number: 0 }),
        );
        drop(st);
        let number = pairs.len() as u32;
        for pair in &mut pairs {
            pair.number = number;
        }
        let view = FdView::from_pairs(pairs);
        FdSnapshot::new(view.clone(), view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_alive_views_are_complete() {
        let r = MembershipRegistry::new(4, 1, Duration::from_millis(100));
        let s = r.snapshot(0, Instant::now());
        assert_eq!(s.a_theta.len(), 4);
        for p in s.a_theta.iter() {
            assert_eq!(p.number, 4);
        }
        assert_eq!(s.a_theta, s.a_p_star);
    }

    #[test]
    fn crash_removes_label_after_delay() {
        let r = MembershipRegistry::new(3, 2, Duration::from_millis(50));
        let t0 = Instant::now();
        r.mark_crashed(2, t0);
        let dead_label = r.label_of(2);
        // Within the detection window the label lingers.
        let s = r.snapshot(0, t0 + Duration::from_millis(10));
        assert!(s.a_theta.contains_label(dead_label));
        // After the window it is permanently gone and numbers shrink.
        let s = r.snapshot(0, t0 + Duration::from_millis(60));
        assert!(!s.a_theta.contains_label(dead_label));
        assert_eq!(s.a_theta.len(), 2);
        for p in s.a_theta.iter() {
            assert_eq!(p.number, 2);
        }
    }

    #[test]
    fn crashed_process_sees_nothing() {
        let r = MembershipRegistry::new(2, 3, Duration::from_millis(10));
        r.mark_crashed(0, Instant::now());
        assert!(r.snapshot(0, Instant::now()).a_theta.is_empty());
        assert!(r.is_crashed(0));
        assert!(!r.is_crashed(1));
    }

    #[test]
    fn mark_crashed_is_idempotent_keeping_earliest() {
        let r = MembershipRegistry::new(2, 4, Duration::from_millis(100));
        let t0 = Instant::now();
        r.mark_crashed(1, t0);
        r.mark_crashed(1, t0 + Duration::from_millis(500));
        // Still measured from t0: gone at t0 + 100ms.
        let s = r.snapshot(0, t0 + Duration::from_millis(150));
        assert!(!s.a_theta.contains_label(r.label_of(1)));
    }

    #[test]
    fn labels_distinct() {
        let r = MembershipRegistry::new(16, 5, Duration::from_millis(1));
        let mut seen = std::collections::HashSet::new();
        for i in 0..16 {
            assert!(seen.insert(r.label_of(i)));
        }
    }

    #[test]
    fn every_snapshot_reads_one_registry_state() {
        // With no detection delay a crash removes the label at once, so
        // a snapshot that read the registry twice around it would pair
        // a 3-process `number` with a 2-label view.
        let r = MembershipRegistry::new(3, 6, Duration::ZERO);
        let consistent = |s: &FdSnapshot| {
            s.a_theta
                .iter()
                .all(|p| p.number as usize == s.a_theta.len())
                && s.a_theta == s.a_p_star
        };
        let before = r.snapshot(0, Instant::now());
        assert_eq!(before.a_theta.len(), 3);
        assert!(consistent(&before));
        std::thread::scope(|s| {
            s.spawn(|| r.mark_crashed(2, Instant::now()));
            for _ in 0..1_000 {
                assert!(consistent(&r.snapshot(0, Instant::now())));
            }
        });
        let after = r.snapshot(0, Instant::now());
        assert_eq!(after.a_theta.len(), 2);
        assert!(consistent(&after));
    }
}
