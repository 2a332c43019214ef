//! Run-wide measurement: traffic counters, latency records, quiescence
//! detection and state-size sampling.
//!
//! Everything the experiment suite (E4–E10) reports is collected here, in
//! one pass, while the simulation runs — no post-hoc trace scraping.

use urb_types::{Payload, ProcessStats, Tag, TopicId, WireKind};

/// One URB-broadcast invocation, as observed by the driver.
#[derive(Clone, Debug, PartialEq)]
pub struct BroadcastRecord {
    /// Broadcasting process.
    pub pid: usize,
    /// The URB instance (topic) the broadcast went to ([`TopicId::ZERO`]
    /// on single-topic runs).
    pub topic: TopicId,
    /// Tag the protocol assigned.
    pub tag: Tag,
    /// Invocation time.
    pub time: u64,
    /// The broadcast application message (cheap refcounted clone).
    pub payload: Payload,
}

/// One URB-delivery, as observed by the driver.
#[derive(Clone, Debug, PartialEq)]
pub struct DeliveryRecord {
    /// Delivering process.
    pub pid: usize,
    /// The URB instance (topic) that delivered ([`TopicId::ZERO`] on
    /// single-topic runs).
    pub topic: TopicId,
    /// Tag of the delivered message.
    pub tag: Tag,
    /// Delivery time.
    pub time: u64,
    /// The paper's fast-delivery case (ACK majority before the MSG copy).
    pub fast: bool,
    /// The delivered application message.
    pub payload: Payload,
}

/// A timed sample of every process's state sizes (experiment E9).
#[derive(Clone, Debug)]
pub struct StatsSample {
    /// Sample time.
    pub time: u64,
    /// Per-process protocol state sizes.
    pub per_process: Vec<ProcessStats>,
}

/// All measurements for one simulated run.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    /// Transmissions attempted, per message kind (one broadcast to `n`
    /// processes counts `n` transmissions).
    pub sent: [u64; 3],
    /// Transmissions delivered, per kind.
    pub received: [u64; 3],
    /// Transmissions dropped by channels, per kind.
    pub dropped: [u64; 3],
    /// Protocol transmissions (MSG + ACK, heartbeats excluded) per time
    /// window — the quiescence curve of experiment E4.
    pub sends_per_window: Vec<u64>,
    /// Width of the histogram windows, in ticks.
    pub window: u64,
    /// Every URB-broadcast.
    pub broadcasts: Vec<BroadcastRecord>,
    /// Every URB-delivery.
    pub deliveries: Vec<DeliveryRecord>,
    /// Periodic state-size samples (empty unless sampling was enabled).
    pub stats_samples: Vec<StatsSample>,
    /// Time of the last MSG/ACK transmission — "the protocol went silent
    /// at" (quiescence instant, when the run ended quiescent).
    pub last_protocol_send: u64,
    /// Simulated time at which the run ended.
    pub ended_at: u64,
    /// True when the run ended with every correct process quiescent and no
    /// protocol messages in flight.
    pub quiescent_at_end: bool,
    /// FNV-1a hash over the full event sequence (determinism checks).
    pub trace_hash: u64,
    /// Frames offered to channels: one per `(transmitting step,
    /// destination)` pair. On the multiplexed topic plane a multi-topic
    /// step still counts **one** frame per destination — this is the
    /// routing overhead the mux plane amortizes (DESIGN.md §12).
    pub frames_sent: u64,
}

impl Metrics {
    /// New metrics collector with the given histogram window (ticks).
    pub fn new(window: u64) -> Self {
        Metrics {
            window: window.max(1),
            ..Metrics::default()
        }
    }

    /// Records one transmission attempt.
    pub fn on_send(&mut self, kind: WireKind, time: u64) {
        self.sent[kind.index()] += 1;
        if kind != WireKind::Heartbeat {
            let w = (time / self.window) as usize;
            if self.sends_per_window.len() <= w {
                self.sends_per_window.resize(w + 1, 0);
            }
            self.sends_per_window[w] += 1;
            self.last_protocol_send = self.last_protocol_send.max(time);
        }
    }

    /// Records one successful channel delivery.
    pub fn on_receive(&mut self, kind: WireKind) {
        self.received[kind.index()] += 1;
    }

    /// Records one channel drop.
    pub fn on_drop(&mut self, kind: WireKind) {
        self.dropped[kind.index()] += 1;
    }

    /// Records one frame offered to a channel (per destination).
    pub fn on_frame(&mut self) {
        self.frames_sent += 1;
    }

    /// Topics that appear in this run's broadcast/delivery records,
    /// ascending and deduplicated ([`TopicId::ZERO`] alone on
    /// single-topic runs with traffic).
    pub fn topics(&self) -> Vec<TopicId> {
        let mut topics: Vec<TopicId> = self
            .broadcasts
            .iter()
            .map(|b| b.topic)
            .chain(self.deliveries.iter().map(|d| d.topic))
            .collect();
        topics.sort_unstable();
        topics.dedup();
        topics
    }

    /// Folds an event into the determinism hash.
    pub fn hash_event(&mut self, time: u64, discriminant: u64, detail: u64) {
        let mut h = self.trace_hash ^ 0xcbf2_9ce4_8422_2325;
        for word in [time, discriminant, detail] {
            for b in word.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        self.trace_hash = h;
    }

    /// Total MSG + ACK transmissions (the protocol's message complexity).
    pub fn protocol_sends(&self) -> u64 {
        self.sent[WireKind::Msg.index()] + self.sent[WireKind::Ack.index()]
    }

    /// Delivery latency records: for every `(broadcast, delivering process)`
    /// pair, the ticks from broadcast to that delivery.
    pub fn latencies(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.deliveries.len());
        for d in &self.deliveries {
            if let Some(b) = self.broadcasts.iter().find(|b| b.tag == d.tag) {
                out.push(d.time.saturating_sub(b.time));
            }
        }
        out
    }

    /// Percentile (0–100) of a sorted copy of `latencies()`. `None` when no
    /// deliveries happened.
    pub fn latency_percentile(&self, pct: f64) -> Option<u64> {
        let mut lat = self.latencies();
        if lat.is_empty() {
            return None;
        }
        lat.sort_unstable();
        let rank = ((pct / 100.0) * (lat.len() - 1) as f64).round() as usize;
        Some(lat[rank.min(lat.len() - 1)])
    }

    /// Fraction of deliveries with the fast flag (experiment E10).
    pub fn fast_delivery_fraction(&self) -> f64 {
        if self.deliveries.is_empty() {
            return 0.0;
        }
        self.deliveries.iter().filter(|d| d.fast).count() as f64 / self.deliveries.len() as f64
    }

    /// Protocol sends in windows after `time` — "residual traffic", used by
    /// E4/E7 to show Algorithm 1 keeps chattering while Algorithm 2 stops.
    pub fn sends_after(&self, time: u64) -> u64 {
        let first = (time / self.window) as usize;
        self.sends_per_window.iter().skip(first).copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_histogram_buckets_by_window() {
        let mut m = Metrics::new(100);
        m.on_send(WireKind::Msg, 5);
        m.on_send(WireKind::Ack, 150);
        m.on_send(WireKind::Ack, 199);
        m.on_send(WireKind::Msg, 350);
        assert_eq!(m.sends_per_window, vec![1, 2, 0, 1]);
        assert_eq!(m.last_protocol_send, 350);
        assert_eq!(m.protocol_sends(), 4);
    }

    #[test]
    fn heartbeats_do_not_count_as_protocol_traffic() {
        let mut m = Metrics::new(10);
        m.on_send(WireKind::Heartbeat, 5);
        assert_eq!(m.protocol_sends(), 0);
        assert!(m.sends_per_window.is_empty());
        assert_eq!(m.last_protocol_send, 0);
        assert_eq!(m.sent[WireKind::Heartbeat.index()], 1);
    }

    #[test]
    fn latencies_pair_deliveries_with_broadcasts() {
        let mut m = Metrics::new(10);
        m.broadcasts.push(BroadcastRecord {
            pid: 0,
            topic: TopicId::ZERO,
            tag: Tag(1),
            time: 100,
            payload: Payload::empty(),
        });
        for (pid, t) in [(0usize, 120u64), (1, 150), (2, 130)] {
            m.deliveries.push(DeliveryRecord {
                pid,
                topic: TopicId::ZERO,
                tag: Tag(1),
                time: t,
                fast: pid == 1,
                payload: Payload::empty(),
            });
        }
        let mut lat = m.latencies();
        lat.sort_unstable();
        assert_eq!(lat, vec![20, 30, 50]);
        assert_eq!(m.latency_percentile(0.0), Some(20));
        assert_eq!(m.latency_percentile(100.0), Some(50));
        assert_eq!(m.latency_percentile(50.0), Some(30));
        assert!((m.fast_delivery_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_latencies() {
        let m = Metrics::new(10);
        assert!(m.latencies().is_empty());
        assert_eq!(m.latency_percentile(50.0), None);
        assert_eq!(m.fast_delivery_fraction(), 0.0);
    }

    #[test]
    fn sends_after_sums_tail_windows() {
        let mut m = Metrics::new(100);
        for t in [10u64, 110, 210, 310] {
            m.on_send(WireKind::Msg, t);
        }
        assert_eq!(m.sends_after(0), 4);
        assert_eq!(m.sends_after(200), 2);
        assert_eq!(m.sends_after(400), 0);
    }

    #[test]
    fn hash_event_changes_with_inputs() {
        let mut a = Metrics::new(1);
        let mut b = Metrics::new(1);
        a.hash_event(1, 2, 3);
        b.hash_event(1, 2, 4);
        assert_ne!(a.trace_hash, b.trace_hash);
        let mut c = Metrics::new(1);
        c.hash_event(1, 2, 3);
        assert_eq!(a.trace_hash, c.trace_hash);
    }
}
