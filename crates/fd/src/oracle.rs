//! Crash-schedule-aware oracle implementations of `AΘ` and `AP*`.
//!
//! ## Why an oracle
//!
//! `AΘ` and `AP*` are axiomatic objects; like Θ and P in the non-anonymous
//! literature they are not implementable in a bare asynchronous system — any
//! realization must embed knowledge of the run's failure pattern. The
//! simulator *has* that knowledge (it owns the crash schedule), so the
//! oracle can emit, at every process and every instant, outputs that satisfy
//! the paper's formal clauses exactly. [`OracleFd::audit`] re-checks the
//! clauses mechanically for any configuration.
//!
//! ## Output model
//!
//! Each process `j` owns one random label `ℓ_j`. For a **correct** process
//! `i` at time `t`:
//!
//! * `a_theta_i(t)` contains `(ℓ_j, number_j(t))` for every `j` whose label
//!   has *appeared* at `i` (appearance is staggered over
//!   [`OracleConfig::appearance_spread`] to exercise Algorithm 2's
//!   label-set-growth path) and, for faulty `j`, has not yet been removed
//!   (removal happens `theta_removal_delay` after the crash — the shrink
//!   path). `number_j(t)` is the current count of correct processes at
//!   which `ℓ_j` has appeared, monotonically converging to `|Correct|`.
//! * `a_p*_i(t)` is **empty** until a global readiness instant (all correct
//!   labels appeared everywhere, plus [`OracleConfig::pstar_ready_slack`]),
//!   then contains `(ℓ_j, |Correct|)` for every correct `j`, plus
//!   `(ℓ_q, |Correct|)` for crashed `q` until `crash_q +
//!   pstar_removal_delay`. Starting empty is essential: Algorithm 2's prune
//!   condition universally quantifies over `a_p*`, so a transiently
//!   *under-complete* `AP*` (fewer pairs than correct processes) would let a
//!   lone sender prune before anyone else holds the message and violate
//!   uniform agreement. The paper's completeness clause only speaks about
//!   the limit; this implementation choice picks the safe representative of
//!   the class (see DESIGN.md D5).
//!
//! **Faulty** processes see empty views by default, which satisfies every
//! clause vacuously. With [`OracleConfig::faulty_knowledge`] enabled they
//! instead see a *restricted* subset of correct labels — at most
//! `|Correct| − 1` faulty processes ever know a given label, and the
//! attributed `number` is floored at `|knowing faulty| + 1`, which keeps
//! the accuracy clause (`every size-number subset of S(label) intersects
//! Correct`) true at every instant while letting doomed processes
//! URB-deliver before they crash (the paper's "fast deliver then crash"
//! scenario).

use crate::FdService;
use urb_types::{FdPair, FdSnapshot, FdView, Label, RandomSource, SplitMix64, WireMessage};

/// Tuning knobs for the oracle. All times are in simulator ticks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OracleConfig {
    /// Labels appear at each correct process at a uniformly random time in
    /// `[0, appearance_spread]`. 0 = everything known from the start.
    pub appearance_spread: u64,
    /// How long after a crash the crashed process's label lingers in
    /// `a_theta` outputs (exercises the ACK label-set shrink path).
    pub theta_removal_delay: u64,
    /// How long after a crash the crashed process's label lingers in `a_p*`
    /// outputs (the paper's "eventually and permanently deleted"). This is
    /// the detector latency that experiment E7 sweeps.
    pub pstar_removal_delay: u64,
    /// Extra delay after full label appearance before `a_p*` becomes
    /// non-empty.
    pub pstar_ready_slack: u64,
    /// Let (a bounded number of) faulty processes know correct labels, so
    /// they can URB-deliver before crashing. Default off.
    pub faulty_knowledge: bool,
}

impl Default for OracleConfig {
    fn default() -> Self {
        OracleConfig {
            appearance_spread: 50,
            theta_removal_delay: 200,
            pstar_removal_delay: 400,
            pstar_ready_slack: 50,
            faulty_knowledge: false,
        }
    }
}

impl OracleConfig {
    /// An oracle with zero latencies: labels known everywhere from t=0,
    /// crashed labels removed instantly, `a_p*` ready immediately.
    /// The "perfect information" corner of experiment E7.
    pub fn instant() -> Self {
        OracleConfig {
            appearance_spread: 0,
            theta_removal_delay: 0,
            pstar_removal_delay: 0,
            pstar_ready_slack: 0,
            faulty_knowledge: false,
        }
    }
}

/// The oracle `AΘ` + `AP*` for one simulated run.
///
/// ```
/// use urb_fd::{OracleConfig, OracleFd};
///
/// // 4 processes, process 2 crashes at t=1000.
/// let crashes = vec![None, None, Some(1_000), None];
/// let fd = OracleFd::new(crashes, 42, OracleConfig::default());
/// assert_eq!(fd.correct_count(), 3);
///
/// // Late views at a correct process contain exactly the 3 correct
/// // labels, each with number = |Correct| = 3 …
/// let late = fd.a_theta(0, 1_000_000);
/// assert_eq!(late.len(), 3);
/// assert!(late.iter().all(|p| p.number == 3));
///
/// // … and the formal AΘ/AP* clauses hold at *every* instant:
/// fd.audit(1_000_000).unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct OracleFd {
    n: usize,
    labels: Vec<Label>,
    /// `crash_time[j] = Some(t)` when process `j` crashes at `t` in this run.
    crash_time: Vec<Option<u64>>,
    /// `appear[i][j]`: time at which `ℓ_j` appears at process `i`
    /// (`u64::MAX` = never).
    appear: Vec<Vec<u64>>,
    /// Number of correct processes.
    correct: u32,
    /// Time from which `a_p*` outputs are populated at correct processes.
    pstar_ready: u64,
    config: OracleConfig,
    /// `faulty_know[q][j]`: faulty process `q` knows correct label `ℓ_j`.
    faulty_know: Vec<Vec<bool>>,
}

impl OracleFd {
    /// Builds the oracle for a run of `n` processes with the given crash
    /// schedule (`crash_time[j] = None` ⇒ `j` is correct in this run).
    ///
    /// # Panics
    /// If every process crashes (the paper assumes at least one correct
    /// process, `t ≤ n − 1`).
    pub fn new(crash_time: Vec<Option<u64>>, seed: u64, config: OracleConfig) -> Self {
        let n = crash_time.len();
        assert!(n >= 1);
        let correct = crash_time.iter().filter(|c| c.is_none()).count() as u32;
        assert!(
            correct >= 1,
            "the model requires at least one correct process (t <= n-1)"
        );
        let mut rng = SplitMix64::new(seed ^ 0x0BAC_1E5E_ED15_EA5E);
        let labels: Vec<Label> = (0..n).map(|_| Label::random(&mut rng)).collect();

        // Staggered appearance times. Labels appear only at correct
        // processes (faulty knowledge handled separately below): keeping
        // S(label) inside Correct is what makes every (label, number) pair
        // trivially accurate in the default configuration.
        let mut appear = vec![vec![u64::MAX; n]; n];
        for i in 0..n {
            if crash_time[i].is_some() {
                continue;
            }
            for slot in appear[i].iter_mut() {
                *slot = if config.appearance_spread == 0 {
                    0
                } else {
                    rng.gen_range(config.appearance_spread + 1)
                };
            }
        }

        // a_p* readiness: all correct labels appeared at all correct
        // processes.
        let mut ready = 0u64;
        for i in 0..n {
            if crash_time[i].is_some() {
                continue;
            }
            for j in 0..n {
                if crash_time[j].is_none() {
                    ready = ready.max(appear[i][j]);
                }
            }
        }
        let pstar_ready = ready.saturating_add(config.pstar_ready_slack);

        // Bounded faulty knowledge (DESIGN.md D5). In this mode doomed
        // processes see (and attach to their ACKs) real label sets —
        // including their *own* label — which is what lets them URB-deliver
        // before crashing and what creates the stale-ACKer entries the D4
        // purge exists for. Accuracy is preserved by two caps:
        //   * only the first `|Correct| − 1` faulty processes (by index)
        //     ever know any label, so every label's faulty-knower count
        //     stays below the `number` floor applied in `number_of`;
        //   * no faulty process ever knows the first correct process's
        //     label — that "clean" label keeps the delivery equality
        //     reachable at every correct process even though faulty ACKers
        //     inflate the other labels' counters.
        let mut faulty_know = vec![vec![false; n]; n];
        if config.faulty_knowledge && correct >= 2 {
            let first_correct = crash_time.iter().position(|c| c.is_none()).unwrap();
            let budget = (correct - 1) as usize;
            let mut eligible = 0usize;
            for q in 0..n {
                if crash_time[q].is_none() {
                    continue;
                }
                if eligible >= budget {
                    break;
                }
                eligible += 1;
                for (j, know) in faulty_know[q].iter_mut().enumerate() {
                    if j != first_correct {
                        *know = true;
                    }
                }
            }
        }

        OracleFd {
            n,
            labels,
            crash_time,
            appear,
            correct,
            pstar_ready,
            config,
            faulty_know,
        }
    }

    /// The label assigned to process `j` (driver/diagnostic use only — no
    /// protocol code ever sees this mapping, preserving anonymity).
    pub fn label_of(&self, j: usize) -> Label {
        self.labels[j]
    }

    /// Number of correct processes in this run.
    pub fn correct_count(&self) -> u32 {
        self.correct
    }

    /// The instant from which `a_p*` outputs are populated.
    pub fn pstar_ready_at(&self) -> u64 {
        self.pstar_ready
    }

    /// `number_j(t)`: count of correct processes at which `ℓ_j` has
    /// appeared by `t`, floored per the faulty-knowledge accuracy rule.
    fn number_of(&self, j: usize, now: u64) -> u32 {
        let knowers = (0..self.n)
            .filter(|&i| self.crash_time[i].is_none() && self.appear[i][j] <= now)
            .count() as u32;
        let faulty_knowers = (0..self.n)
            .filter(|&q| self.crash_time[q].is_some() && self.faulty_know[q][j])
            .count() as u32;
        knowers.max(faulty_knowers + 1)
    }

    /// Is `ℓ_j` present in `a_theta` outputs at time `now`?
    fn theta_visible(&self, j: usize, now: u64) -> bool {
        match self.crash_time[j] {
            None => true,
            Some(c) => now < c.saturating_add(self.config.theta_removal_delay),
        }
    }

    /// Is `ℓ_j` present in `a_p*` outputs at time `now`?
    fn pstar_visible(&self, j: usize, now: u64) -> bool {
        match self.crash_time[j] {
            None => true,
            Some(c) => now < c.saturating_add(self.config.pstar_removal_delay),
        }
    }

    /// The `a_theta` view at process `i`, time `now`.
    pub fn a_theta(&self, i: usize, now: u64) -> FdView {
        if self.crash_time[i].is_some() {
            // Faulty processes: empty by default, restricted correct labels
            // with faulty_knowledge.
            if !self.config.faulty_knowledge {
                return FdView::empty();
            }
            return FdView::from_pairs((0..self.n).filter_map(|j| {
                if self.faulty_know[i][j] {
                    Some(FdPair {
                        label: self.labels[j],
                        number: self.number_of(j, now),
                    })
                } else {
                    None
                }
            }));
        }
        FdView::from_pairs((0..self.n).filter_map(|j| {
            if self.appear[i][j] <= now && self.theta_visible(j, now) {
                Some(FdPair {
                    label: self.labels[j],
                    number: self.number_of(j, now),
                })
            } else {
                None
            }
        }))
    }

    /// The `a_p*` view at process `i`, time `now`.
    pub fn a_p_star(&self, i: usize, now: u64) -> FdView {
        if self.crash_time[i].is_some() || now < self.pstar_ready {
            return FdView::empty();
        }
        FdView::from_pairs((0..self.n).filter_map(|j| {
            if self.pstar_visible(j, now) {
                Some(FdPair {
                    label: self.labels[j],
                    number: self.correct,
                })
            } else {
                None
            }
        }))
    }

    /// Machine-checks the paper's formal clauses over `[0, horizon]`
    /// (sampled at every event-relevant instant: appearances, crashes,
    /// removals, readiness). Returns a description of the first violation.
    ///
    /// Checked clauses:
    /// * **AΘ-accuracy** — for every pair `(ℓ, num)` ever output, the number
    ///   of *faulty* processes that ever know `ℓ` is `< num` (hence every
    ///   size-`num` subset of `S(ℓ)` intersects `Correct`).
    /// * **AΘ-completeness** — at `horizon`, every correct process's
    ///   `a_theta` contains exactly the correct labels, each with
    ///   `number = |S(label) ∩ Correct| = |Correct|`.
    /// * **AP*-completeness** — same at `horizon` for `a_p*`.
    /// * **AP*-accuracy** — at `horizon`, no crashed label appears in any
    ///   correct process's `a_p*`.
    pub fn audit(&self, horizon: u64) -> Result<(), String> {
        // Interesting instants.
        let mut times: Vec<u64> = vec![0, self.pstar_ready, horizon];
        for i in 0..self.n {
            for j in 0..self.n {
                if self.appear[i][j] != u64::MAX {
                    times.push(self.appear[i][j]);
                }
            }
            if let Some(c) = self.crash_time[i] {
                times.push(c);
                times.push(c.saturating_add(self.config.theta_removal_delay));
                times.push(c.saturating_add(self.config.pstar_removal_delay));
            }
        }
        times.retain(|&t| t <= horizon);
        times.sort_unstable();
        times.dedup();

        // S(ℓ_j) over the whole run: processes that ever have ℓ_j in an
        // output. Correct knowers + configured faulty knowers.
        let faulty_in_s = |j: usize| -> u32 {
            (0..self.n)
                .filter(|&q| self.crash_time[q].is_some() && self.faulty_know[q][j])
                .count() as u32
        };

        for &t in &times {
            for i in 0..self.n {
                for view in [self.a_theta(i, t), self.a_p_star(i, t)] {
                    for pair in view.iter() {
                        let j = self
                            .labels
                            .iter()
                            .position(|&l| l == pair.label)
                            .expect("output label must belong to a process");
                        if pair.number == 0 {
                            return Err(format!("accuracy: zero number for label of {j} at t={t}"));
                        }
                        if faulty_in_s(j) >= pair.number {
                            return Err(format!(
                                "accuracy: label of {j} at t={t} has number {} but {} faulty knowers",
                                pair.number,
                                faulty_in_s(j)
                            ));
                        }
                    }
                }
            }
        }

        // Completeness at the horizon (must be past appearance + removals).
        for i in 0..self.n {
            if self.crash_time[i].is_some() {
                continue;
            }
            for (name, view) in [
                ("a_theta", self.a_theta(i, horizon)),
                ("a_p*", self.a_p_star(i, horizon)),
            ] {
                let mut expected = 0;
                for j in 0..self.n {
                    let correct_j = self.crash_time[j].is_none();
                    let present = view.contains_label(self.labels[j]);
                    if correct_j {
                        expected += 1;
                        if !present {
                            return Err(format!(
                                "completeness: {name} at {i} misses correct label of {j}"
                            ));
                        }
                        if view.number_of(self.labels[j]) != Some(self.correct) {
                            return Err(format!(
                                "completeness: {name} at {i} has wrong number for {j}"
                            ));
                        }
                    } else if present {
                        return Err(format!(
                            "AP*/AΘ accuracy: {name} at {i} still contains crashed label of {j} at horizon {horizon}"
                        ));
                    }
                }
                if view.len() != expected {
                    return Err(format!("completeness: {name} at {i} has stray pairs"));
                }
            }
        }
        Ok(())
    }
}

impl OracleFd {
    /// Resolves a dynamically-triggered crash to its actual instant (the
    /// process must already be declared faulty — an oracle cannot change a
    /// process's correctness class mid-run, only refine *when* it crashes).
    pub fn record_crash(&mut self, pid: usize, now: u64) {
        match self.crash_time[pid] {
            Some(planned) if planned > now => self.crash_time[pid] = Some(now),
            Some(_) => {}
            None => panic!(
                "process {pid} crashed at {now} but the oracle classified it correct; \
                 the crash plan and the oracle must be built from the same schedule"
            ),
        }
    }
}

impl FdService for OracleFd {
    fn on_tick(&mut self, _pid: usize, _now: u64, _out: &mut Vec<WireMessage>) {}

    fn on_receive(&mut self, _pid: usize, _now: u64, _msg: &WireMessage) {}

    fn on_crash(&mut self, pid: usize, now: u64) {
        self.record_crash(pid, now);
    }

    fn snapshot(&self, pid: usize, now: u64) -> FdSnapshot {
        FdSnapshot::new(self.a_theta(pid, now), self.a_p_star(pid, now))
    }

    fn name(&self) -> &'static str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_crashes(n: usize) -> Vec<Option<u64>> {
        vec![None; n]
    }

    #[test]
    fn all_correct_instant_oracle_is_complete_from_t0() {
        let fd = OracleFd::new(no_crashes(4), 1, OracleConfig::instant());
        for i in 0..4 {
            let s = fd.snapshot(i, 0);
            assert_eq!(s.a_theta.len(), 4);
            assert_eq!(s.a_p_star.len(), 4);
            for p in s.a_theta.iter() {
                assert_eq!(p.number, 4);
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        let fd = OracleFd::new(no_crashes(8), 2, OracleConfig::default());
        let mut seen = std::collections::HashSet::new();
        for j in 0..8 {
            assert!(seen.insert(fd.label_of(j)));
        }
    }

    #[test]
    fn appearance_is_staggered_then_converges() {
        let cfg = OracleConfig {
            appearance_spread: 1000,
            ..OracleConfig::default()
        };
        let fd = OracleFd::new(no_crashes(6), 3, cfg);
        // Early: typically partial views (with spread 1000 the chance all 36
        // appearances are < 10 is astronomically small).
        let early: usize = (0..6).map(|i| fd.a_theta(i, 10).len()).sum();
        assert!(early < 36, "views should still be partial at t=10");
        // Late: complete.
        for i in 0..6 {
            assert_eq!(fd.a_theta(i, 2000).len(), 6);
            for p in fd.a_theta(i, 2000).iter() {
                assert_eq!(p.number, 6);
            }
        }
    }

    #[test]
    fn numbers_are_monotone_for_correct_labels() {
        let cfg = OracleConfig {
            appearance_spread: 500,
            ..OracleConfig::default()
        };
        let fd = OracleFd::new(no_crashes(5), 4, cfg);
        let l0 = fd.label_of(0);
        let mut prev = 0;
        for t in (0..=600).step_by(25) {
            if let Some(n) = fd.a_theta(0, t).number_of(l0) {
                assert!(n >= prev, "number must not shrink for correct labels");
                prev = n;
            }
        }
        assert_eq!(prev, 5);
    }

    #[test]
    fn crashed_label_lingers_then_leaves_theta() {
        let mut crashes = no_crashes(4);
        crashes[3] = Some(1_000);
        let cfg = OracleConfig {
            appearance_spread: 0,
            theta_removal_delay: 200,
            pstar_removal_delay: 300,
            pstar_ready_slack: 0,
            faulty_knowledge: false,
        };
        let fd = OracleFd::new(crashes, 5, cfg);
        let l3 = fd.label_of(3);
        assert!(fd.a_theta(0, 1_100).contains_label(l3), "still lingering");
        assert!(!fd.a_theta(0, 1_200).contains_label(l3), "removed");
        assert!(fd.a_p_star(0, 1_250).contains_label(l3), "AP* slower");
        assert!(!fd.a_p_star(0, 1_300).contains_label(l3));
    }

    #[test]
    fn pstar_empty_before_ready() {
        let cfg = OracleConfig {
            appearance_spread: 100,
            pstar_ready_slack: 50,
            ..OracleConfig::default()
        };
        let fd = OracleFd::new(no_crashes(4), 6, cfg);
        let ready = fd.pstar_ready_at();
        assert!(ready >= 50);
        assert!(fd.a_p_star(0, 0).is_empty());
        assert!(!fd.a_p_star(0, ready).is_empty());
    }

    #[test]
    fn faulty_processes_have_empty_views_by_default() {
        let mut crashes = no_crashes(4);
        crashes[1] = Some(5_000);
        let fd = OracleFd::new(crashes, 7, OracleConfig::default());
        assert!(fd.snapshot(1, 100).a_theta.is_empty());
        assert!(fd.snapshot(1, 100).a_p_star.is_empty());
    }

    #[test]
    fn faulty_knowledge_is_bounded_and_accurate() {
        let mut crashes = no_crashes(6);
        crashes[4] = Some(10_000);
        crashes[5] = Some(20_000);
        let cfg = OracleConfig {
            faulty_knowledge: true,
            ..OracleConfig::default()
        };
        let fd = OracleFd::new(crashes, 8, cfg);
        // Every pair a faulty process sees must carry number > faulty knowers.
        for q in [4usize, 5] {
            let v = fd.a_theta(q, 100);
            for pair in v.iter() {
                assert!(pair.number >= 1);
            }
            // a_p* stays empty at faulty processes.
            assert!(fd.a_p_star(q, 1_000_000).is_empty());
        }
        fd.audit(2_000_000).expect("audit must pass");
    }

    #[test]
    fn audit_passes_across_configurations() {
        for (seed, spread, crash) in [(1u64, 0u64, None), (2, 200, Some(500)), (3, 50, Some(10))] {
            let mut crashes = no_crashes(5);
            if let Some(c) = crash {
                crashes[2] = Some(c);
                crashes[4] = Some(c * 2 + 7);
            }
            let cfg = OracleConfig {
                appearance_spread: spread,
                ..OracleConfig::default()
            };
            let fd = OracleFd::new(crashes, seed, cfg);
            fd.audit(1_000_000)
                .unwrap_or_else(|e| panic!("audit failed (seed {seed}): {e}"));
        }
    }

    #[test]
    fn minority_correct_is_supported() {
        // The whole point of AΘ: URB with any number of crashes.
        let crashes = vec![Some(100), Some(200), Some(300), None, Some(400)];
        let fd = OracleFd::new(crashes, 9, OracleConfig::default());
        assert_eq!(fd.correct_count(), 1);
        let late = fd.a_theta(3, 1_000_000);
        assert_eq!(late.len(), 1, "only the lone correct label survives");
        assert_eq!(late.iter().next().unwrap().number, 1);
        fd.audit(2_000_000).expect("audit");
    }

    #[test]
    #[should_panic(expected = "at least one correct process")]
    fn all_faulty_rejected() {
        let _ = OracleFd::new(vec![Some(1), Some(2)], 1, OracleConfig::default());
    }

    #[test]
    fn snapshot_matches_component_views() {
        let fd = OracleFd::new(no_crashes(3), 10, OracleConfig::instant());
        let s = fd.snapshot(0, 42);
        assert_eq!(s.a_theta, fd.a_theta(0, 42));
        assert_eq!(s.a_p_star, fd.a_p_star(0, 42));
    }
}
