//! The sans-io protocol interface.
//!
//! Every broadcast algorithm in `urb-core` (Algorithm 1, Algorithm 2 and the
//! baselines) is a deterministic state machine implementing
//! [`AnonProcess`]. A state machine never touches the network, the clock or
//! entropy directly; everything it needs is handed to it through a
//! [`Context`]:
//!
//! * messages it wants to broadcast go into `ctx.outbox` (the paper's
//!   `broadcast_i(...)` primitive — a send to *all* processes, itself
//!   included);
//! * URB-deliveries go into `ctx.deliveries` (the paper's
//!   `URB_deliver_i(m)` upcall);
//! * randomness comes from `ctx.rng` (the paper's `random_i()`);
//! * failure-detector reads come from `ctx.fd` (the paper's read-only
//!   `a_theta_i` / `a_p*_i` variables).
//!
//! The split keeps the algorithms word-for-word comparable to the paper's
//! pseudocode, lets the same code run under the discrete-event simulator and
//! the threaded runtime, and makes protocol steps unit-testable without any
//! I/O scaffolding.

use crate::fd::FdSnapshot;
use crate::ids::Tag;
use crate::payload::Payload;
use crate::rng::RandomSource;
use crate::snapshot::SnapshotError;
use crate::wire::WireMessage;

/// One URB-delivery handed to the application layer.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Delivery {
    /// Tag of the delivered message (unique message identity).
    pub tag: Tag,
    /// The delivered application message `m`.
    pub payload: Payload,
    /// True when the deliverer had *not yet received* the `(MSG, m, tag)`
    /// copy at delivery time — the paper's "fast URB_deliver" case (§III,
    /// Remark), possible because ACKs piggyback the payload (DESIGN.md
    /// D1). Measured by experiment E10.
    pub fast: bool,
}

/// Everything a protocol step may read or emit. See the module docs.
pub struct Context<'a> {
    /// Randomness for `random_i()` draws.
    pub rng: &'a mut dyn RandomSource,
    /// Snapshots of `a_theta_i` / `a_p*_i` taken just before this step.
    pub fd: &'a FdSnapshot,
    /// Messages to broadcast to all processes (including self).
    pub outbox: &'a mut Vec<WireMessage>,
    /// URB-deliveries produced by this step.
    pub deliveries: &'a mut Vec<Delivery>,
}

impl<'a> Context<'a> {
    /// Builds a context over caller-owned buffers.
    pub fn new(
        rng: &'a mut dyn RandomSource,
        fd: &'a FdSnapshot,
        outbox: &'a mut Vec<WireMessage>,
        deliveries: &'a mut Vec<Delivery>,
    ) -> Self {
        Context {
            rng,
            fd,
            outbox,
            deliveries,
        }
    }

    /// The paper's `broadcast_i(msg)` primitive.
    pub fn broadcast(&mut self, msg: WireMessage) {
        self.outbox.push(msg);
    }

    /// The paper's `URB_deliver_i(m)` upcall.
    pub fn deliver(&mut self, tag: Tag, payload: Payload, fast: bool) {
        self.deliveries.push(Delivery { tag, payload, fast });
    }
}

/// Sizes of the per-process protocol state, for the memory experiments (E9)
/// and for quiescence diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcessStats {
    /// `|MSG_i|` — messages still being rebroadcast by Task 1.
    pub msg_set: usize,
    /// `|MY_ACK_i|` — own acknowledgment tags.
    pub my_acks: usize,
    /// Total `(tag, tag_ack)` entries across `ALL_ACK_i`.
    pub all_ack_entries: usize,
    /// `|URB_DELIVERED_i|`.
    pub delivered: usize,
    /// Total label-counter entries (Algorithm 2 only; 0 for Algorithm 1).
    pub label_counters: usize,
}

impl ProcessStats {
    /// Total tracked entries — a proxy for resident protocol memory.
    pub fn total(&self) -> usize {
        self.msg_set + self.my_acks + self.all_ack_entries + self.delivered + self.label_counters
    }
}

/// What a forced (over-ceiling) compaction sweep may reclaim beyond the
/// stable prefix (DESIGN.md §14).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpillPolicy {
    /// Only entries that already satisfy the stability rule may go; the
    /// grace period is waived under pressure but unstable state is never
    /// touched. Over-ceiling residency is reported, not forced down.
    #[default]
    StableOnly,
    /// Additionally halve the tombstone ring under pressure, trading
    /// duplicate-suppression coverage of very old tags for space.
    Tombstones,
}

/// Configuration of the bounded-memory mode (DESIGN.md §14).
///
/// When a process runs with a `MemoryConfig`, the driver calls
/// [`AnonProcess::compact`] once per tick sweep and the process may drop
/// `MSG`/`MY_ACK`/`ALL_ACK`/`URB_DELIVERED` entries for tags that are
/// *stable* — acknowledged at every correct process per the per-algorithm
/// stability rule — after [`MemoryConfig::grace_ticks`] consecutive stable
/// sweeps. Compacted tags move to a bounded tombstone ring so late copies
/// are ignored instead of re-entering state. Without a `MemoryConfig`
/// (the default everywhere) compaction never runs and behavior is
/// byte-identical to the unbounded engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryConfig {
    /// Consecutive stable tick sweeps a tag must survive before its
    /// entries are reclaimed. Higher values keep state longer but shrug
    /// off transient detector wobble.
    pub grace_ticks: u32,
    /// Conservative mode ("under suspicion"): reset every grace clock
    /// whenever the failure-detector view changes, so compaction only
    /// proceeds through a stretch of detector stability.
    pub conservative: bool,
    /// Capacity of the tombstone ring remembering compacted tags (oldest
    /// evicted first). A late copy of a tombstoned tag is dropped without
    /// being acknowledged or re-entering state.
    pub tombstones: usize,
    /// Soft ceiling on [`ProcessStats::total`]. While residency exceeds
    /// it, compaction waives the grace period for already-stable tags and
    /// applies the [`SpillPolicy`]. `None` = compact on the grace
    /// schedule only.
    pub ceiling: Option<usize>,
    /// What an over-ceiling sweep may reclaim.
    pub spill: SpillPolicy,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            grace_ticks: 2,
            conservative: false,
            tombstones: 4096,
            ceiling: None,
            spill: SpillPolicy::StableOnly,
        }
    }
}

/// What one [`AnonProcess::compact`] sweep reclaimed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// State entries dropped (summed in [`ProcessStats::total`] units).
    pub reclaimed: usize,
    /// Tags moved into the tombstone ring this sweep.
    pub tombstoned: usize,
}

/// A broadcast protocol instance at one anonymous process.
///
/// Implementations must be deterministic: identical call sequences with
/// identical `Context` inputs must produce identical outputs (the simulator's
/// reproducibility tests rely on it).
pub trait AnonProcess {
    /// The paper's `URB_broadcast_i(m)`: tag `m` and start disseminating it.
    /// Returns the tag assigned to the message.
    fn urb_broadcast(&mut self, payload: Payload, ctx: &mut Context<'_>) -> Tag;

    /// The paper's `receive_i(...)` handler for one incoming wire message.
    fn on_receive(&mut self, msg: WireMessage, ctx: &mut Context<'_>);

    /// One sweep of the paper's Task 1 (the `repeat forever` body). The
    /// driver invokes this periodically (DESIGN.md D7) — but **only while
    /// the instance is not quiescent**: by the
    /// [`is_quiescent`](AnonProcess::is_quiescent) contract a quiescent
    /// instance's sweep is a no-op, and `TopicEngine::tick_all` counts it
    /// without making the call (DESIGN.md §16, tick cost model). Keep no
    /// per-instance state that a tick advances regardless of `MSG_i` (a
    /// sweep counter, a pacing clock): hang it off the entries, the way
    /// the backoff variant does.
    fn on_tick(&mut self, ctx: &mut Context<'_>);

    /// True when this process has nothing left to retransmit — i.e. its
    /// Task 1 sweep would broadcast no messages. Quiescence (Theorem 3) is
    /// "all correct processes quiescent and no messages in flight".
    ///
    /// **Contract** (what lets a node tick skip quiescent topics):
    /// * while this returns `true`, [`on_tick`](AnonProcess::on_tick) is a
    ///   no-op — no emission, no delivery, no `ctx.rng` draw, no state
    ///   change;
    /// * an instance leaves quiescence only through
    ///   [`on_receive`](AnonProcess::on_receive),
    ///   [`urb_broadcast`](AnonProcess::urb_broadcast) or
    ///   [`restore_state`](AnonProcess::restore_state) — never on its own,
    ///   and never through [`compact`](AnonProcess::compact), which may
    ///   only move it *toward* quiescence.
    fn is_quiescent(&self) -> bool;

    /// Current state-size snapshot (experiment E9).
    fn stats(&self) -> ProcessStats;

    /// Short algorithm name, for tables and traces.
    fn algorithm_name(&self) -> &'static str;

    /// Arms the bounded-memory mode (DESIGN.md §14). The default does
    /// nothing: algorithms without a compaction strategy simply keep
    /// their unbounded behavior.
    fn configure_memory(&mut self, _cfg: MemoryConfig) {}

    /// One compaction sweep, called by the driver alongside each tick
    /// sweep when a [`MemoryConfig`] is armed. `fd` is the same snapshot
    /// the tick saw. The default reclaims nothing.
    fn compact(&mut self, _fd: &FdSnapshot) -> CompactionReport {
        CompactionReport::default()
    }

    /// Serializes this process's full protocol state as a deterministic
    /// snapshot body (no envelope), or `None` when the algorithm does not
    /// support snapshotting (the baselines).
    fn save_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Restores state previously produced by [`AnonProcess::save_state`]
    /// on a freshly instantiated process of the same configuration.
    fn restore_state(&mut self, _body: &[u8]) -> Result<(), SnapshotError> {
        Err(SnapshotError::Malformed(format!(
            "algorithm {:?} does not support snapshot restore",
            self.algorithm_name()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn context_buffers_collect_in_order() {
        let mut rng = SplitMix64::new(1);
        let fd = FdSnapshot::none();
        let mut outbox = Vec::new();
        let mut deliveries = Vec::new();
        let mut ctx = Context::new(&mut rng, &fd, &mut outbox, &mut deliveries);
        ctx.broadcast(WireMessage::Msg {
            tag: Tag(1),
            payload: Payload::from("a"),
        });
        ctx.broadcast(WireMessage::Msg {
            tag: Tag(2),
            payload: Payload::from("b"),
        });
        ctx.deliver(Tag(1), Payload::from("a"), false);
        assert_eq!(outbox.len(), 2);
        assert_eq!(outbox[0].tag(), Some(Tag(1)));
        assert_eq!(outbox[1].tag(), Some(Tag(2)));
        assert_eq!(deliveries.len(), 1);
        assert!(!deliveries[0].fast);
    }

    #[test]
    fn process_stats_total() {
        let s = ProcessStats {
            msg_set: 1,
            my_acks: 2,
            all_ack_entries: 3,
            delivered: 4,
            label_counters: 5,
        };
        assert_eq!(s.total(), 15);
    }
}
