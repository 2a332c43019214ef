//! In-memory spans recorded by the ledger around its calls into each layer
//! (the product itself is not instrumented — that is a later issue).
//!
//! A span is `(name, start, end, parent, broadcast id)`; spans nest through
//! an explicit stack, and a layer's **self time** is its span's duration
//! minus the part its direct children cover. Spans are kept in memory and
//! written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// Every this-many-th broadcast is traced in a traced workload repetition.
/// A prime, so the sample drifts through every phase of the tick periods
/// (16, 64, 1000): a period of 64 would only ever trace the broadcast
/// right after a tick, with cold caches, and overstate every layer.
pub const SAMPLE_EVERY: u64 = 61;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.receive_mux_frame`.
    pub name: &'static str,
    /// Start, ns since tracer creation.
    pub start_ns: u64,
    /// End, ns since tracer creation (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The broadcast (or tick) this span belongs to.
    pub bcast: u64,
}

/// Span recorder. Disabled tracers record nothing and cost one branch.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    enabled: bool,
}

impl Tracer {
    /// A recorder that is on (`true`) or a no-op (`false`).
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            enabled,
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span when `sampled` (and the tracer is on); the returned
    /// token goes to [`Tracer::close`]. Spans opened while another is open
    /// become its children.
    #[inline]
    pub fn open(&mut self, sampled: bool, name: &'static str, bcast: u64) -> Option<u32> {
        if !(self.enabled && sampled) {
            return None;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            bcast,
        });
        Some(id)
    }

    /// Closes the span `open` returned (a `None` token is a no-op). Spans
    /// close in the reverse order they opened.
    #[inline]
    pub fn close(&mut self, token: Option<u32>) {
        if let Some(id) = token {
            let end = self.origin.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
            self.spans[id as usize].end_ns = end;
        }
    }

    /// Nanoseconds from the tracer's origin to `t` (for [`Tracer::record`]).
    pub fn offset_of(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished root span after the fact — for intervals that
    /// overlap one another (a window of outstanding broadcasts) and so
    /// cannot live on the nesting stack.
    pub fn record(&mut self, name: &'static str, start_ns: u64, end_ns: u64, bcast: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: NO_PARENT,
                bcast,
            });
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total self time per span name, in nanoseconds: each span's duration
/// minus the durations of its direct children.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_time = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_time[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_time) {
        let dur = s.end_ns - s.start_ns;
        *out.entry(s.name).or_insert(0) += dur.saturating_sub(covered);
    }
    out
}

/// Number of spans per name.
pub fn counts(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += 1;
    }
    out
}

/// Renders spans as a JSON array (one object per span, in record order).
pub fn to_json(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 96 + 2);
    out.push('[');
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = if s.parent == NO_PARENT {
            "null".to_string()
        } else {
            s.parent.to_string()
        };
        out.push_str(&format!(
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"bcast\":{}}}",
            s.name, s.start_ns, s.end_ns, s.bcast
        ));
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            bcast: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 { a 10..40 { b 20..30 }, a 50..70 }
        let spans = vec![
            span("root", 0, 100, NO_PARENT),
            span("a", 10, 40, 0),
            span("b", 20, 30, 1),
            span("a", 50, 70, 0),
        ];
        let st = self_times(&spans);
        assert_eq!(st["root"], 100 - 30 - 20);
        assert_eq!(st["a"], (30 - 10) + 20);
        assert_eq!(st["b"], 10);
        // Self times of a tree add up to the root's duration.
        assert_eq!(st.values().sum::<u64>(), 100);
        assert_eq!(counts(&spans)["a"], 2);
    }

    #[test]
    fn tracer_nests_and_skips_unsampled_or_disabled() {
        let mut t = Tracer::new(true);
        let outer = t.open(true, "outer", 7);
        let inner = t.open(true, "inner", 7);
        t.close(inner);
        let skipped = t.open(false, "skipped", 7);
        assert!(skipped.is_none());
        t.close(skipped);
        t.close(outer);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", NO_PARENT));
        assert_eq!((s[1].name, s[1].parent, s[1].bcast), ("inner", 0, 7));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut off = Tracer::new(false);
        let tok = off.open(true, "x", 0);
        off.close(tok);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn json_is_parseable() {
        let spans = vec![span("root", 0, 5, NO_PARENT), span("a", 1, 2, 0)];
        let v = serde_json::from_str(&to_json(&spans)).expect("valid JSON");
        let arr = v.as_array().expect("array");
        assert_eq!(arr.len(), 2);
        assert!(arr[0]["parent"].is_null());
        assert_eq!(arr[1]["parent"].as_u64(), Some(0));
        assert_eq!(arr[1]["name"].as_str(), Some("a"));
    }
}
