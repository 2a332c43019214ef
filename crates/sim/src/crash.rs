//! Crash-failure adversaries (paper §II, failure model).
//!
//! Processes are crash-stop: a crashed process executes nothing further and
//! never recovers. A [`CrashPlan`] decides, per process, whether and when it
//! crashes. Besides fixed-time crashes, the plan supports the
//! *crash-on-first-delivery* trigger that the paper's impossibility proof
//! (Theorem 2, run R2) and the uniformity-violation experiments (E11) need:
//! "after it has URB-delivered m, every process of S1 crashes".

use urb_types::{RandomSource, SplitMix64};

/// When one process crashes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashRule {
    /// Never crashes — correct in this run.
    Never,
    /// Crashes at the given simulated time.
    At(u64),
    /// Crashes `delay` ticks after its **first URB-delivery** (0 = crash in
    /// the same instant, before it can relay anything it learned).
    OnFirstDelivery {
        /// Extra ticks of life after the first delivery.
        delay: u64,
    },
}

/// One rule per process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashPlan {
    rules: Vec<CrashRule>,
}

impl CrashPlan {
    /// Everybody correct.
    pub fn none(n: usize) -> Self {
        CrashPlan {
            rules: vec![CrashRule::Never; n],
        }
    }

    /// Explicit per-process rules.
    pub fn from_rules(rules: Vec<CrashRule>) -> Self {
        CrashPlan { rules }
    }

    /// `t` distinct processes crash at uniformly random times in
    /// `[0, horizon]`, chosen deterministically from `seed`. The process at
    /// index `protect` (if given) is never selected — experiments use it to
    /// keep the designated broadcaster alive when validity is being checked.
    pub fn random(n: usize, t: usize, horizon: u64, seed: u64, protect: Option<usize>) -> Self {
        assert!(t < n, "the model requires at least one correct process");
        let mut rng = SplitMix64::new(seed ^ 0xC4A5_4EDC_0FFE_E000);
        let mut candidates: Vec<usize> = (0..n).filter(|&i| Some(i) != protect).collect();
        // Fisher–Yates prefix shuffle for the victim set.
        for i in 0..t.min(candidates.len()) {
            let j = i + rng.gen_range((candidates.len() - i) as u64) as usize;
            candidates.swap(i, j);
        }
        let mut rules = vec![CrashRule::Never; n];
        for &victim in candidates.iter().take(t) {
            rules[victim] = CrashRule::At(rng.gen_range(horizon + 1));
        }
        CrashPlan { rules }
    }

    /// Processes `0..k` crash `delay` ticks after their first delivery; the
    /// rest are correct. The Theorem-2 / E11 adversary shape.
    pub fn first_k_on_delivery(n: usize, k: usize, delay: u64) -> Self {
        let rules = (0..n)
            .map(|i| {
                if i < k {
                    CrashRule::OnFirstDelivery { delay }
                } else {
                    CrashRule::Never
                }
            })
            .collect();
        CrashPlan { rules }
    }

    /// The rule for process `pid`.
    pub fn rule(&self, pid: usize) -> CrashRule {
        self.rules[pid]
    }

    /// System size.
    pub fn n(&self) -> usize {
        self.rules.len()
    }

    /// Number of processes that may crash under this plan.
    pub fn faulty_count(&self) -> usize {
        self.rules
            .iter()
            .filter(|r| !matches!(r, CrashRule::Never))
            .count()
    }

    /// Fixed crash times where known (`OnFirstDelivery` resolves at run
    /// time and is reported as `Some(u64::MAX)` — "will crash, time not yet
    /// known", which is exactly what the failure-detector oracle needs to
    /// classify the process as faulty while deferring the removal clock).
    pub fn static_times(&self) -> Vec<Option<u64>> {
        self.rules
            .iter()
            .map(|r| match r {
                CrashRule::Never => None,
                CrashRule::At(t) => Some(*t),
                CrashRule::OnFirstDelivery { .. } => Some(u64::MAX),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_all_correct() {
        let p = CrashPlan::none(5);
        assert_eq!(p.faulty_count(), 0);
        assert!((0..5).all(|i| p.rule(i) == CrashRule::Never));
        assert_eq!(p.static_times(), vec![None; 5]);
    }

    #[test]
    fn random_plan_crashes_exactly_t() {
        for seed in 0..20 {
            let p = CrashPlan::random(9, 4, 1_000, seed, None);
            assert_eq!(p.faulty_count(), 4);
            for i in 0..9 {
                if let CrashRule::At(t) = p.rule(i) {
                    assert!(t <= 1_000);
                }
            }
        }
    }

    #[test]
    fn random_plan_protects_designated_process() {
        for seed in 0..20 {
            let p = CrashPlan::random(5, 4, 100, seed, Some(2));
            assert!(matches!(p.rule(2), CrashRule::Never));
            assert_eq!(p.faulty_count(), 4);
        }
    }

    #[test]
    fn random_plan_is_deterministic_per_seed() {
        let a = CrashPlan::random(8, 3, 500, 42, None);
        let b = CrashPlan::random(8, 3, 500, 42, None);
        assert_eq!(a, b);
        let c = CrashPlan::random(8, 3, 500, 43, None);
        assert_ne!(a, c, "different seed, different plan (w.h.p.)");
    }

    #[test]
    #[should_panic(expected = "at least one correct")]
    fn random_plan_rejects_all_faulty() {
        let _ = CrashPlan::random(4, 4, 100, 1, None);
    }

    #[test]
    fn first_k_on_delivery_shape() {
        let p = CrashPlan::first_k_on_delivery(6, 3, 2);
        assert_eq!(p.faulty_count(), 3);
        assert!(matches!(p.rule(0), CrashRule::OnFirstDelivery { delay: 2 }));
        assert!(matches!(p.rule(5), CrashRule::Never));
        assert_eq!(p.static_times()[0], Some(u64::MAX));
        assert_eq!(p.static_times()[5], None);
    }
}
