//! Compaction-equivalence property suite (DESIGN.md §14).
//!
//! The memory plane's core claim: ack-prefix compaction is **delivery
//! invisible**. For any workload interleaving, running the same protocol
//! with a [`MemoryConfig`] armed (compaction sweep after every tick)
//! must produce, at every process, the *identical delivery sequence* —
//! same tags, same payloads, same order — as the unbounded run, because
//! compaction only reclaims tags that are provably stable at every
//! correct process and tombstones make late copies inert.
//!
//! Quiescence (Theorem 3) is preserved the same way: for Algorithm 2 the
//! two runs must reach the same verdict; for Algorithm 1 — non-quiescent
//! by design (its Task 1 rebroadcasts forever) — reclaiming a fully
//! acknowledged tag's `MSG` entry silences it, so bounded Algorithm 1
//! may quiesce where unbounded never does (the documented deviation),
//! but never the reverse.
//!
//! The harness is the soak plane's FIFO flood in miniature: direct
//! protocol stepping, instant lossless flooding of every emission to all
//! `n` processes, and a static full-membership detector view (which
//! satisfies both the `AΘ` delivery condition and the `AP*` prune rule).

use proptest::prelude::*;
use urb_core::Algorithm;
use urb_types::{
    Context, FdPair, FdSnapshot, FdView, Label, MemoryConfig, Payload, SpillPolicy, SplitMix64,
    Tag, WireMessage,
};

/// One run's observable outcome: per-process delivery sequences plus the
/// end-state quiescence verdict.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    deliveries: Vec<Vec<(Tag, String)>>,
    quiescent: bool,
    reclaimed: usize,
}

/// Executes `script` — `(broadcaster, ticks_after)` pairs — on a fresh
/// lossless lockstep cluster and drains it. Deterministic per
/// `(alg, n, seed, script, memory)`.
fn run(
    alg: Algorithm,
    n: usize,
    seed: u64,
    script: &[(usize, u8)],
    memory: Option<MemoryConfig>,
) -> Outcome {
    let seed_mix = SplitMix64::new(seed ^ 0xC0_FFEE);
    let mut procs: Vec<_> = (0..n).map(|_| alg.instantiate(n)).collect();
    let mut rngs: Vec<SplitMix64> = (0..n).map(|i| seed_mix.split(i as u64)).collect();
    if let Some(cfg) = memory {
        for p in &mut procs {
            p.configure_memory(cfg);
        }
    }
    // Static converged detector view: one label every correct process
    // knows, so `counter(label) == number == n` holds for AΘ delivery
    // and the AP* prune rule sees a stable label set. Algorithm 1 reads
    // neither view.
    let fd = match alg {
        Algorithm::Quiescent => {
            let view = FdView::from_pairs([FdPair {
                label: Label(0xEA57),
                number: n as u32,
            }]);
            FdSnapshot::new(view.clone(), view)
        }
        _ => FdSnapshot::none(),
    };

    let mut queue: std::collections::VecDeque<WireMessage> = Default::default();
    let mut deliveries: Vec<Vec<(Tag, String)>> = vec![Vec::new(); n];
    let mut outbox = Vec::new();
    let mut step_deliveries = Vec::new();
    let mut reclaimed = 0usize;

    // Every emission reaches every process, in FIFO order — the lossless
    // instant-flood medium under which stability is reachable fast.
    macro_rules! flood {
        () => {
            while let Some(msg) = queue.pop_front() {
                for pid in 0..n {
                    procs[pid].on_receive(
                        msg.clone(),
                        &mut Context::new(&mut rngs[pid], &fd, &mut outbox, &mut step_deliveries),
                    );
                    queue.extend(outbox.drain(..));
                    for d in step_deliveries.drain(..) {
                        deliveries[pid].push((d.tag, d.payload.as_text()));
                    }
                }
            }
        };
    }
    macro_rules! sweep {
        () => {
            for pid in 0..n {
                procs[pid].on_tick(&mut Context::new(
                    &mut rngs[pid],
                    &fd,
                    &mut outbox,
                    &mut step_deliveries,
                ));
                queue.extend(outbox.drain(..));
                for d in step_deliveries.drain(..) {
                    deliveries[pid].push((d.tag, d.payload.as_text()));
                }
            }
            flood!();
            if memory.is_some() {
                for p in &mut procs {
                    reclaimed += p.compact(&fd).reclaimed;
                }
            }
        };
    }

    for (k, &(broadcaster, ticks)) in script.iter().enumerate() {
        let pid = broadcaster % n;
        let payload = Payload::from(format!("m{k}").as_str());
        procs[pid].urb_broadcast(
            payload,
            &mut Context::new(&mut rngs[pid], &fd, &mut outbox, &mut step_deliveries),
        );
        queue.extend(outbox.drain(..));
        for d in step_deliveries.drain(..) {
            deliveries[pid].push((d.tag, d.payload.as_text()));
        }
        flood!();
        for _ in 0..(ticks % 3) {
            sweep!();
        }
    }
    // Drain until the cluster goes quiet or a generous round budget runs
    // out (Algorithm 1 legitimately never quiets down unbounded).
    let mut quiescent = false;
    for _ in 0..60 {
        sweep!();
        if queue.is_empty() && procs.iter().all(|p| p.is_quiescent()) {
            quiescent = true;
            break;
        }
    }
    Outcome {
        deliveries,
        quiescent,
        reclaimed,
    }
}

fn memory_strategy() -> impl Strategy<Value = MemoryConfig> {
    (
        0u32..3,
        any::<bool>(),
        proptest::option::of(50usize..400),
        any::<bool>(),
    )
        .prop_map(
            |(grace_ticks, conservative, ceiling, spill_tomb)| MemoryConfig {
                grace_ticks,
                conservative,
                tombstones: 64,
                ceiling,
                spill: if spill_tomb {
                    SpillPolicy::Tombstones
                } else {
                    SpillPolicy::StableOnly
                },
            },
        )
}

fn script_strategy() -> impl Strategy<Value = Vec<(usize, u8)>> {
    proptest::collection::vec((0usize..8, any::<u8>()), 1..10)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Algorithm 2: identical delivery sequences AND identical
    /// quiescence verdict (Theorem 3 is insensitive to compaction).
    #[test]
    fn quiescent_compaction_is_delivery_and_quiescence_invisible(
        n in 3usize..6,
        seed in any::<u64>(),
        script in script_strategy(),
        memory in memory_strategy(),
    ) {
        let unbounded = run(Algorithm::Quiescent, n, seed, &script, None);
        let bounded = run(Algorithm::Quiescent, n, seed, &script, Some(memory));
        prop_assert_eq!(&bounded.deliveries, &unbounded.deliveries);
        prop_assert_eq!(bounded.quiescent, unbounded.quiescent);
        // Under the lossless full-view medium the drain budget always
        // suffices: Theorem 3's verdict itself must hold.
        prop_assert!(bounded.quiescent, "Algorithm 2 must go quiescent");
        // URB agreement sanity on the harness: everyone delivered the
        // same message set.
        let reference: std::collections::BTreeSet<_> =
            bounded.deliveries[0].iter().cloned().collect();
        for pid in 1..n {
            let set: std::collections::BTreeSet<_> =
                bounded.deliveries[pid].iter().cloned().collect();
            prop_assert_eq!(&set, &reference, "pid {} delivery set diverged", pid);
        }
    }

    /// Algorithm 1: identical delivery sequences; quiescence implies
    /// one way only (bounded may quiesce, unbounded never retires its
    /// Task-1 entries).
    #[test]
    fn majority_compaction_is_delivery_invisible(
        n in 3usize..6,
        seed in any::<u64>(),
        script in script_strategy(),
        memory in memory_strategy(),
    ) {
        let unbounded = run(Algorithm::Majority, n, seed, &script, None);
        let bounded = run(Algorithm::Majority, n, seed, &script, Some(memory));
        prop_assert_eq!(&bounded.deliveries, &unbounded.deliveries);
        prop_assert!(
            !unbounded.quiescent || bounded.quiescent,
            "compaction may only add quiescence, never remove it"
        );
        prop_assert!(
            !unbounded.quiescent,
            "unbounded Algorithm 1 never stops rebroadcasting"
        );
    }

    /// Compaction genuinely reclaims state on a sustained workload —
    /// the equivalence above is not vacuous.
    #[test]
    fn quiescent_compaction_reclaims_state(
        n in 3usize..5,
        seed in any::<u64>(),
    ) {
        let script: Vec<(usize, u8)> = (0..8).map(|k| (k % n, 1u8)).collect();
        let bounded = run(
            Algorithm::Quiescent,
            n,
            seed,
            &script,
            Some(MemoryConfig { grace_ticks: 1, ..MemoryConfig::default() }),
        );
        let unbounded = run(Algorithm::Quiescent, n, seed, &script, None);
        prop_assert_eq!(&bounded.deliveries, &unbounded.deliveries);
        prop_assert!(bounded.quiescent);
        prop_assert!(bounded.reclaimed > 0, "compaction reclaimed nothing");
        prop_assert_eq!(unbounded.reclaimed, 0, "unbounded run must never compact");
    }
}
