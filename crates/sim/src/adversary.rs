//! The adversarial scheduler library of the scenario plane.
//!
//! A [`Schedule`] is a *named adversary shape*: a high-level description of
//! a hostile pattern (a healing partition, an acknowledgment blockade, a
//! crash storm racing the dissemination sweep) that compiles down to the
//! primitives the event-queue machinery already executes — time-windowed
//! [`Blackout`]s, per-link [`DelayOverride`]s and [`CrashPlan`] rules.
//! Scenario specs ([`crate::spec`]) carry any number of schedules; each is
//! applied to the compiled [`SimConfig`] in order, so schedules compose
//! (a churn schedule plus a crash storm is a legal, and nasty, run).
//!
//! The library exists so that "as many scenarios as you can imagine" is a
//! data problem, not a recompile: every shape here used to require
//! hand-written Rust in `scenario.rs`, and each is exercised by the corpus
//! under `scenarios/` and experiment E17 (DESIGN.md §9).

use crate::channel::DelayModel;
use crate::crash::{CrashPlan, CrashRule};
use crate::sim::{Blackout, DelayOverride, SimConfig};

/// The most link windows one churn schedule may cut, so no file can ask
/// for more blackouts than memory holds: the corpus cuts 54.
const MAX_WINDOWS: u64 = 1 << 20;

/// One named adversary shape. See the variant docs for the exact
/// compilation; all times are simulated ticks, all windows half-open
/// `[start, end)`.
#[derive(Clone, Debug, PartialEq)]
pub enum Schedule {
    /// Total bidirectional cut between process sets `a` and `b` during the
    /// window, after which fairness resumes (the E14 shape). Compiles to
    /// [`Blackout::partition`].
    PartitionHeal {
        /// One side of the cut.
        a: Vec<usize>,
        /// The other side.
        b: Vec<usize>,
        /// First instant of the cut.
        start: u64,
        /// First instant after the heal.
        end: u64,
    },
    /// Everything *inbound* to `victim` is lost during the window: the
    /// victim can broadcast and be counted by others, but cannot assemble
    /// an ACK quorum itself, so its own delivery is pinned past `end`.
    AckStarvation {
        /// The starved process.
        victim: usize,
        /// First instant of the blockade.
        start: u64,
        /// First instant after the blockade.
        end: u64,
    },
    /// The listed directed links become stragglers: their copies draw
    /// arrival delays from a [`DelayModel::GeometricTail`] instead of the
    /// mesh-wide delay model (maximizes the paper's §III fast-delivery
    /// window — ACKs overtake MSG copies).
    TargetedDelay {
        /// Directed links `(from, to)` to slow down.
        links: Vec<(usize, usize)>,
        /// Base delay of the tail distribution.
        base: u64,
        /// Probability of each additional tick.
        p_more: f64,
        /// Hard delay cap.
        cap: u64,
    },
    /// `count` processes crash at evenly spaced instants inside
    /// `[start, start + width]` — a storm landing mid-sweep, while the
    /// dissemination it races is still in flight. Victims are the highest
    /// process indices, skipping `protect`; deterministic by construction
    /// (no RNG), so specs replay identically everywhere.
    CrashStorm {
        /// Number of crashing processes (must leave one correct).
        count: usize,
        /// First crash instant.
        start: u64,
        /// Span over which the crashes are spread.
        width: u64,
        /// A process index that must survive (usually the broadcaster).
        protect: Option<usize>,
    },
    /// Repeated partition/heal cycles between `a` and `b`: cycle `i` cuts
    /// `[start + i·(cut+heal), start + i·(cut+heal) + cut)`. Models churn
    /// windows — fairness is suspended and restored over and over.
    Churn {
        /// One side of the recurring cut.
        a: Vec<usize>,
        /// The other side.
        b: Vec<usize>,
        /// Start of the first cut.
        start: u64,
        /// Length of each cut window.
        cut: u64,
        /// Healed time between cuts.
        heal: u64,
        /// Number of cut/heal cycles.
        cycles: u32,
    },
}

impl Schedule {
    /// The schedule's spec-file name (`kind = "…"`).
    pub fn kind(&self) -> &'static str {
        crate::spec::schedule_kind(self)
    }

    /// Compiles this schedule onto `cfg`, composing with whatever the spec
    /// (and earlier schedules) already installed. Errors are human-readable
    /// validation messages (out-of-range pids, storms that leave nobody
    /// correct, windows that never open).
    pub fn apply(&self, cfg: &mut SimConfig) -> Result<(), String> {
        let n = cfg.n;
        match self {
            Schedule::PartitionHeal { a, b, start, end } => {
                check_groups(n, a, b)?;
                check_window(*start, *end)?;
                cfg.blackouts
                    .extend(Blackout::partition(a, b, *start, *end));
                Ok(())
            }
            Schedule::AckStarvation { victim, start, end } => {
                check_pid(n, *victim, "victim")?;
                check_window(*start, *end)?;
                cfg.blackouts
                    .extend((0..n).filter(|&p| p != *victim).map(|from| Blackout {
                        from,
                        to: *victim,
                        start: *start,
                        end: *end,
                    }));
                Ok(())
            }
            Schedule::TargetedDelay {
                links,
                base,
                p_more,
                cap,
            } => {
                if !(0.0..1.0).contains(p_more) {
                    return Err(format!("targeted-delay: p_more {p_more} not in [0, 1)"));
                }
                if cap < base {
                    return Err(format!("targeted-delay: cap {cap} below base {base}"));
                }
                for &(from, to) in links {
                    check_pid(n, from, "link.from")?;
                    check_pid(n, to, "link.to")?;
                    cfg.delay_overrides.push(DelayOverride {
                        from,
                        to,
                        delay: DelayModel::GeometricTail {
                            base: *base,
                            p_more: *p_more,
                            cap: *cap,
                        },
                    });
                }
                Ok(())
            }
            Schedule::CrashStorm {
                count,
                start,
                width,
                protect,
            } => {
                let mut rules: Vec<CrashRule> = (0..n).map(|i| cfg.crashes.rule(i)).collect();
                let victims: Vec<usize> = (0..n)
                    .rev()
                    .filter(|&p| Some(p) != *protect)
                    .take(*count)
                    .collect();
                if victims.len() < *count {
                    return Err(format!(
                        "crash-storm: cannot pick {count} victims from {n} processes"
                    ));
                }
                let gaps = victims.len().saturating_sub(1) as u64;
                for (i, &pid) in victims.iter().enumerate() {
                    // Evenly spaced across the window; a single victim (or
                    // zero width) crashes right at `start`. The offset is
                    // at most `width`, so only the sum can overflow.
                    let offset = match gaps {
                        0 => 0,
                        _ => (u128::from(i as u64) * u128::from(*width) / u128::from(gaps)) as u64,
                    };
                    let at = start.checked_add(offset).ok_or_else(|| {
                        format!(
                            "crash-storm: victim {i} at start + width × {i}/{gaps} is past \
                             the last tick (u64::MAX)"
                        )
                    })?;
                    rules[pid] = CrashRule::At(at);
                }
                let plan = CrashPlan::from_rules(rules);
                if plan.faulty_count() >= n {
                    return Err("crash-storm: no correct process would remain".into());
                }
                cfg.crashes = plan;
                Ok(())
            }
            Schedule::Churn {
                a,
                b,
                start,
                cut,
                heal,
                cycles,
            } => {
                check_groups(n, a, b)?;
                if *cut == 0 || *cycles == 0 {
                    return Err("churn: cut length and cycle count must be positive".into());
                }
                // Each cycle cuts every link between the groups both ways.
                let windows = u64::from(*cycles) * (2 * a.len() * b.len()) as u64;
                if windows > MAX_WINDOWS {
                    return Err(format!(
                        "churn: cycles = {cycles} cut {windows} link windows, above the \
                         maximum {MAX_WINDOWS}"
                    ));
                }
                // Cycle `i` cuts from `start + i·(cut + heal)`; a cycle
                // past the last tick is an error, never a wrapped window.
                let past = |i: u32| {
                    format!(
                        "churn: cycle {i} at start + {i}·(cut + heal) runs past the last \
                         tick (u64::MAX)"
                    )
                };
                let mut s = *start;
                for i in 0..*cycles {
                    let end = s.checked_add(*cut).ok_or_else(|| past(i))?;
                    cfg.blackouts.extend(Blackout::partition(a, b, s, end));
                    if i + 1 < *cycles {
                        s = end.checked_add(*heal).ok_or_else(|| past(i + 1))?;
                    }
                }
                Ok(())
            }
        }
    }
}

fn check_pid(n: usize, pid: usize, what: &str) -> Result<(), String> {
    if pid >= n {
        Err(format!("{what} {pid} out of range for n = {n}"))
    } else {
        Ok(())
    }
}

fn check_window(start: u64, end: u64) -> Result<(), String> {
    if start >= end {
        Err(format!("window [{start}, {end}) never opens"))
    } else {
        Ok(())
    }
}

fn check_groups(n: usize, a: &[usize], b: &[usize]) -> Result<(), String> {
    if a.is_empty() || b.is_empty() {
        return Err("partition groups must be non-empty".into());
    }
    for &p in a.iter().chain(b) {
        check_pid(n, p, "group member")?;
    }
    if a.iter().any(|p| b.contains(p)) {
        return Err("partition groups overlap".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::run;
    use urb_core::Algorithm;

    fn base(n: usize, alg: Algorithm) -> SimConfig {
        SimConfig::new(n, alg).seed(7).max_time(60_000)
    }

    #[test]
    fn partition_heal_compiles_to_blackouts() {
        let mut cfg = base(4, Algorithm::Majority);
        Schedule::PartitionHeal {
            a: vec![0, 1],
            b: vec![2, 3],
            start: 0,
            end: 1_000,
        }
        .apply(&mut cfg)
        .unwrap();
        assert_eq!(cfg.blackouts.len(), 8, "2×2 links, both directions");
    }

    #[test]
    fn ack_starvation_pins_victim_delivery_past_the_window() {
        let mut cfg = base(5, Algorithm::Majority);
        cfg.stop_on_full_delivery = true;
        Schedule::AckStarvation {
            victim: 4,
            start: 0,
            end: 1_500,
        }
        .apply(&mut cfg)
        .unwrap();
        let out = run(cfg);
        assert!(out.report.all_ok(), "{:?}", out.report.violations());
        let victim_first = out
            .metrics
            .deliveries
            .iter()
            .filter(|d| d.pid == 4)
            .map(|d| d.time)
            .min()
            .expect("victim eventually delivers");
        assert!(victim_first >= 1_500, "starved until the blockade lifts");
        // The others form their quorum without the victim, inside the window.
        let others_first = out
            .metrics
            .deliveries
            .iter()
            .filter(|d| d.pid != 4)
            .map(|d| d.time)
            .min()
            .unwrap();
        assert!(others_first < 1_500, "the rest of the mesh is unaffected");
    }

    #[test]
    fn crash_storm_is_deterministic_and_spread() {
        let mut cfg = base(6, Algorithm::Quiescent);
        Schedule::CrashStorm {
            count: 4,
            start: 100,
            width: 300,
            protect: Some(0),
        }
        .apply(&mut cfg)
        .unwrap();
        assert_eq!(cfg.crashes.faulty_count(), 4);
        assert!(matches!(cfg.crashes.rule(0), CrashRule::Never), "protected");
        assert_eq!(cfg.crashes.rule(5), CrashRule::At(100), "first victim");
        assert_eq!(cfg.crashes.rule(2), CrashRule::At(400), "last victim");
    }

    #[test]
    fn churn_emits_one_partition_per_cycle() {
        let mut cfg = base(4, Algorithm::Majority);
        Schedule::Churn {
            a: vec![0, 1],
            b: vec![2, 3],
            start: 100,
            cut: 200,
            heal: 300,
            cycles: 3,
        }
        .apply(&mut cfg)
        .unwrap();
        assert_eq!(cfg.blackouts.len(), 3 * 8);
        assert!(cfg.blackouts.iter().any(|b| b.start == 1_100));
        assert!(cfg.blackouts.iter().all(|b| b.end - b.start == 200));
    }

    #[test]
    fn targeted_delay_installs_overrides() {
        let mut cfg = base(4, Algorithm::Majority);
        Schedule::TargetedDelay {
            links: vec![(0, 1), (0, 2)],
            base: 1,
            p_more: 0.7,
            cap: 60,
        }
        .apply(&mut cfg)
        .unwrap();
        assert_eq!(cfg.delay_overrides.len(), 2);
        assert!(matches!(
            cfg.delay_overrides[0].delay,
            DelayModel::GeometricTail { cap: 60, .. }
        ));
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut cfg = base(4, Algorithm::Majority);
        for bad in [
            Schedule::PartitionHeal {
                a: vec![0, 2],
                b: vec![2, 3],
                start: 0,
                end: 10,
            },
            Schedule::PartitionHeal {
                a: vec![0],
                b: vec![1],
                start: 10,
                end: 10,
            },
            Schedule::AckStarvation {
                victim: 9,
                start: 0,
                end: 10,
            },
            Schedule::CrashStorm {
                count: 4,
                start: 0,
                width: 0,
                protect: None,
            },
            Schedule::TargetedDelay {
                links: vec![(0, 1)],
                base: 10,
                p_more: 0.5,
                cap: 5,
            },
            Schedule::Churn {
                a: vec![0],
                b: vec![1],
                start: 0,
                cut: 0,
                heal: 5,
                cycles: 2,
            },
        ] {
            assert!(bad.apply(&mut cfg).is_err(), "should reject {bad:?}");
        }
    }
}
