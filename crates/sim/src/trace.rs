//! Structured event traces: optional, bounded recording of everything that
//! happens in a run, with JSON export.
//!
//! Metrics (`metrics.rs`) aggregate; traces *narrate*. `urb run --trace`
//! and `urb scenario --trace` record every event of a run — the URB
//! broadcasts, deliveries and crashes, and each Send, Receive and Drop on
//! the wire — and write [`Trace::to_json`] for external tooling; when a
//! checker verdict is surprising, the events of one tag show which
//! transmissions were dropped and which ACKs arrived where.
//!
//! Recording is off by default ([`TraceConfig::disabled`]) and bounded by
//! `max_events` when on, so the hot path stays allocation-light.

use crate::metrics::{BroadcastRecord, DeliveryRecord};
use urb_types::{Tag, WireKind};

/// What kind of thing happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A broadcast primitive invocation put copies on the wire.
    Send,
    /// A copy arrived and was processed.
    Receive,
    /// A copy was dropped by a lossy channel.
    Drop,
    /// A process crashed.
    Crash,
    /// `URB_broadcast` was invoked.
    UrbBroadcast,
    /// `URB_deliver` fired.
    UrbDeliver,
}

/// One trace event. `from`/`to` are driver-side indices (the protocol never
/// sees them); `tag` is present for MSG/ACK events.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Simulated time.
    pub time: u64,
    /// Event kind.
    pub kind: TraceKind,
    /// Originating process, where meaningful.
    pub from: Option<usize>,
    /// Receiving process, where meaningful.
    pub to: Option<usize>,
    /// Message kind for wire events.
    pub wire: Option<WireKind>,
    /// Concerned message tag, if any.
    pub tag: Option<Tag>,
}

/// Recording policy.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Master switch.
    pub enabled: bool,
    /// Hard cap on recorded events (oldest kept; recording stops at the
    /// cap — a truncated flag is set instead of silently rotating, so
    /// consumers can tell).
    pub max_events: usize,
}

impl TraceConfig {
    /// No recording (the default for experiments).
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            max_events: 0,
        }
    }

    /// Record everything, up to `max_events`.
    pub fn full(max_events: usize) -> Self {
        TraceConfig {
            enabled: true,
            max_events,
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// A recorded trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// The events, in execution order.
    pub events: Vec<TraceEvent>,
    /// True when the `max_events` cap was hit (events after the cap were
    /// not recorded).
    pub truncated: bool,
}

impl Trace {
    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// JSON export (pretty-printed).
    ///
    /// Hand-rolled emitter; the layout matches what
    /// `serde_json::to_string_pretty` produces for these types.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        fn opt_num(v: Option<impl std::fmt::Display>) -> String {
            v.map_or("null".to_string(), |x| x.to_string())
        }
        let mut out = String::with_capacity(self.events.len() * 96 + 64);
        out.push_str("{\n  \"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\n      \"time\": {},\n      \"kind\": \"{:?}\",\n      \
                 \"from\": {},\n      \"to\": {},\n      \"wire\": {},\n      \
                 \"tag\": {}\n    }}",
                e.time,
                e.kind,
                opt_num(e.from),
                opt_num(e.to),
                e.wire.map_or("null".to_string(), |w| format!("\"{w:?}\"")),
                opt_num(e.tag.map(|t| t.0)),
            );
        }
        if self.events.is_empty() {
            out.push(']');
        } else {
            out.push_str("\n  ]");
        }
        let _ = write!(out, ",\n  \"truncated\": {}\n}}", self.truncated);
        out
    }
}

/// The recorder the driver writes into.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    config: TraceConfig,
    trace: Trace,
}

impl TraceRecorder {
    /// New recorder with the given policy.
    pub fn new(config: TraceConfig) -> Self {
        TraceRecorder {
            config,
            trace: Trace::default(),
        }
    }

    fn push(&mut self, event: TraceEvent) {
        if !self.config.enabled {
            return;
        }
        if self.trace.events.len() >= self.config.max_events {
            self.trace.truncated = true;
            return;
        }
        self.trace.events.push(event);
    }

    /// Records a broadcast-primitive send (one per invocation, not per copy).
    pub fn send(&mut self, time: u64, from: usize, wire: WireKind, tag: Option<Tag>) {
        self.push(TraceEvent {
            time,
            kind: TraceKind::Send,
            from: Some(from),
            to: None,
            wire: Some(wire),
            tag,
        });
    }

    /// Records a processed reception.
    pub fn receive(&mut self, time: u64, to: usize, wire: WireKind, tag: Option<Tag>) {
        self.push(TraceEvent {
            time,
            kind: TraceKind::Receive,
            from: None,
            to: Some(to),
            wire: Some(wire),
            tag,
        });
    }

    /// Records a channel drop.
    pub fn drop_copy(
        &mut self,
        time: u64,
        from: usize,
        to: usize,
        wire: WireKind,
        tag: Option<Tag>,
    ) {
        self.push(TraceEvent {
            time,
            kind: TraceKind::Drop,
            from: Some(from),
            to: Some(to),
            wire: Some(wire),
            tag,
        });
    }

    /// Records a crash.
    pub fn crash(&mut self, time: u64, pid: usize) {
        self.push(TraceEvent {
            time,
            kind: TraceKind::Crash,
            from: Some(pid),
            to: None,
            wire: None,
            tag: None,
        });
    }

    /// Records a `URB_broadcast` invocation.
    pub fn urb_broadcast(&mut self, rec: &BroadcastRecord) {
        self.push(TraceEvent {
            time: rec.time,
            kind: TraceKind::UrbBroadcast,
            from: Some(rec.pid),
            to: None,
            wire: None,
            tag: Some(rec.tag),
        });
    }

    /// Records a `URB_deliver`.
    pub fn urb_deliver(&mut self, rec: &DeliveryRecord) {
        self.push(TraceEvent {
            time: rec.time,
            kind: TraceKind::UrbDeliver,
            from: None,
            to: Some(rec.pid),
            wire: None,
            tag: Some(rec.tag),
        });
    }

    /// Finishes recording and yields the trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recorder(cfg: TraceConfig) -> TraceRecorder {
        TraceRecorder::new(cfg)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = recorder(TraceConfig::disabled());
        r.crash(5, 1);
        r.send(6, 0, WireKind::Msg, Some(Tag(1)));
        let t = r.into_trace();
        assert!(t.is_empty());
        assert!(!t.truncated);
    }

    #[test]
    fn cap_sets_truncated_flag() {
        let mut r = recorder(TraceConfig::full(2));
        for i in 0..5 {
            r.crash(i, 0);
        }
        let t = r.into_trace();
        assert_eq!(t.len(), 2);
        assert!(t.truncated);
    }

    #[test]
    fn timeline_filters_by_tag() {
        let mut r = recorder(TraceConfig::full(100));
        r.send(1, 0, WireKind::Msg, Some(Tag(1)));
        r.send(2, 0, WireKind::Msg, Some(Tag(2)));
        r.receive(3, 1, WireKind::Msg, Some(Tag(1)));
        let t = r.into_trace();
        let tl: Vec<(u64, TraceKind)> = t
            .events
            .iter()
            .filter(|e| e.tag == Some(Tag(1)))
            .map(|e| (e.time, e.kind))
            .collect();
        assert_eq!(tl, vec![(1, TraceKind::Send), (3, TraceKind::Receive)]);
    }

    #[test]
    fn json_and_render_are_nonempty() {
        let mut r = recorder(TraceConfig::full(10));
        r.urb_broadcast(&BroadcastRecord {
            pid: 2,
            topic: urb_types::TopicId::ZERO,
            tag: Tag(9),
            time: 7,
            payload: urb_types::Payload::empty(),
        });
        r.drop_copy(8, 0, 1, WireKind::Ack, Some(Tag(9)));
        let t = r.into_trace();
        let json = t.to_json();
        assert!(json.contains("UrbBroadcast"));
        assert!(json.contains("\"time\": 7"));
        assert!(json.contains("\"kind\": \"Drop\""));
        assert_eq!((t.events[0].time, t.events[0].from), (7, Some(2)));
    }
}
