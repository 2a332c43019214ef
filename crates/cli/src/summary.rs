//! Machine-readable run summary (`urb run --json`).

use urb_sim::RunOutcome;

/// One topic's verdict row inside a [`RunSummary`] (DESIGN.md §12).
#[derive(Debug, Clone)]
pub struct TopicSummary {
    /// Topic id.
    pub topic: u32,
    /// Broadcasts issued on this topic.
    pub broadcasts: usize,
    /// Deliveries produced on this topic.
    pub deliveries: usize,
    /// Validity verdict for this topic's instance.
    pub validity_ok: bool,
    /// Uniform-agreement verdict.
    pub agreement_ok: bool,
    /// Uniform-integrity verdict.
    pub integrity_ok: bool,
}

/// Everything a script needs from one run, JSON-serializable.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// System size.
    pub n: usize,
    /// Algorithm name.
    pub algorithm: String,
    /// Plan-correct process indices.
    pub correct: Vec<usize>,
    /// Number of URB broadcasts issued.
    pub broadcasts: usize,
    /// Number of URB deliveries (across all processes).
    pub deliveries: usize,
    /// Fraction of deliveries that were "fast" (§III remark).
    pub fast_fraction: f64,
    /// URB property verdicts.
    pub validity_ok: bool,
    /// Uniform agreement verdict.
    pub agreement_ok: bool,
    /// Uniform integrity verdict.
    pub integrity_ok: bool,
    /// Violation messages (empty when all properties hold).
    pub violations: Vec<String>,
    /// Oracle audit: `None` when not applicable.
    pub fd_audit_ok: Option<bool>,
    /// Total MSG+ACK transmissions.
    pub protocol_transmissions: u64,
    /// Transmissions dropped by channels.
    pub dropped: u64,
    /// Median delivery latency in ticks (None if no deliveries).
    pub median_latency: Option<u64>,
    /// 99th-percentile delivery latency.
    pub p99_latency: Option<u64>,
    /// Did the run end quiescent?
    pub quiescent: bool,
    /// Last MSG/ACK transmission instant.
    pub last_protocol_send: u64,
    /// Simulated end time.
    pub ended_at: u64,
    /// Determinism hash of the full event sequence.
    pub trace_hash: u64,
    /// Frames offered to channels (the mux plane's routing unit).
    pub frames_sent: u64,
    /// Per-topic verdict rows, ascending by topic (exactly one row on
    /// single-topic runs).
    pub per_topic: Vec<TopicSummary>,
}

impl RunSummary {
    /// Projects a [`RunOutcome`] into its summary.
    pub fn from_outcome(out: &RunOutcome) -> Self {
        RunSummary {
            n: out.n,
            algorithm: out.algorithm.to_string(),
            correct: (0..out.n).filter(|&i| out.correct[i]).collect(),
            broadcasts: out.metrics.broadcasts.len(),
            deliveries: out.metrics.deliveries.len(),
            fast_fraction: out.metrics.fast_delivery_fraction(),
            validity_ok: out.report.validity.ok(),
            agreement_ok: out.report.agreement.ok(),
            integrity_ok: out.report.integrity.ok(),
            violations: out
                .report
                .violations()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            fd_audit_ok: out.fd_audit.as_ref().map(|r| r.is_ok()),
            protocol_transmissions: out.metrics.protocol_sends(),
            dropped: out.metrics.dropped.iter().sum(),
            median_latency: out.metrics.latency_percentile(50.0),
            p99_latency: out.metrics.latency_percentile(99.0),
            quiescent: out.quiescent,
            last_protocol_send: out.last_protocol_send,
            ended_at: out.metrics.ended_at,
            trace_hash: out.metrics.trace_hash,
            frames_sent: out.metrics.frames_sent,
            per_topic: out
                .per_topic
                .iter()
                .map(|t| TopicSummary {
                    topic: t.topic.0,
                    broadcasts: t.broadcasts,
                    deliveries: t.deliveries,
                    validity_ok: t.report.validity.ok(),
                    agreement_ok: t.report.agreement.ok(),
                    integrity_ok: t.report.integrity.ok(),
                })
                .collect(),
        }
    }

    /// Pretty JSON rendering.
    ///
    /// Hand-rolled emitter; field names and layout match what
    /// `serde_json::to_string_pretty` would produce.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        fn num_list(v: &[usize]) -> String {
            let items: Vec<String> = v.iter().map(|x| x.to_string()).collect();
            format!("[{}]", items.join(", "))
        }
        fn opt_u64(v: Option<u64>) -> String {
            v.map_or("null".to_string(), |x| x.to_string())
        }
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| format!("\"{}\"", serde_json::escape(v)))
            .collect();
        let mut out = String::with_capacity(640);
        out.push_str("{\n");
        let _ = writeln!(out, "  \"n\": {},", self.n);
        let _ = writeln!(
            out,
            "  \"algorithm\": \"{}\",",
            serde_json::escape(&self.algorithm)
        );
        let _ = writeln!(out, "  \"correct\": {},", num_list(&self.correct));
        let _ = writeln!(out, "  \"broadcasts\": {},", self.broadcasts);
        let _ = writeln!(out, "  \"deliveries\": {},", self.deliveries);
        let _ = writeln!(out, "  \"fast_fraction\": {:?},", self.fast_fraction);
        let _ = writeln!(out, "  \"validity_ok\": {},", self.validity_ok);
        let _ = writeln!(out, "  \"agreement_ok\": {},", self.agreement_ok);
        let _ = writeln!(out, "  \"integrity_ok\": {},", self.integrity_ok);
        let _ = writeln!(out, "  \"violations\": [{}],", violations.join(", "));
        let _ = writeln!(
            out,
            "  \"fd_audit_ok\": {},",
            self.fd_audit_ok
                .map_or("null".to_string(), |b| b.to_string())
        );
        let _ = writeln!(
            out,
            "  \"protocol_transmissions\": {},",
            self.protocol_transmissions
        );
        let _ = writeln!(out, "  \"dropped\": {},", self.dropped);
        let _ = writeln!(
            out,
            "  \"median_latency\": {},",
            opt_u64(self.median_latency)
        );
        let _ = writeln!(out, "  \"p99_latency\": {},", opt_u64(self.p99_latency));
        let _ = writeln!(out, "  \"quiescent\": {},", self.quiescent);
        let _ = writeln!(
            out,
            "  \"last_protocol_send\": {},",
            self.last_protocol_send
        );
        let _ = writeln!(out, "  \"ended_at\": {},", self.ended_at);
        let _ = writeln!(out, "  \"trace_hash\": {},", self.trace_hash);
        let _ = writeln!(out, "  \"frames_sent\": {},", self.frames_sent);
        let rows: Vec<String> = self
            .per_topic
            .iter()
            .map(|t| {
                format!(
                    "    {{\"topic\": {}, \"broadcasts\": {}, \"deliveries\": {}, \
                     \"validity_ok\": {}, \"agreement_ok\": {}, \"integrity_ok\": {}}}",
                    t.topic,
                    t.broadcasts,
                    t.deliveries,
                    t.validity_ok,
                    t.agreement_ok,
                    t.integrity_ok
                )
            })
            .collect();
        if rows.is_empty() {
            out.push_str("  \"per_topic\": []\n");
        } else {
            let _ = writeln!(out, "  \"per_topic\": [\n{}\n  ]", rows.join(",\n"));
        }
        out.push('}');
        out
    }

    /// Human rendering (the default CLI output).
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "run: n={} algorithm={} correct={:?}",
            self.n, self.algorithm, self.correct
        );
        let _ = writeln!(
            s,
            "workload: {} broadcasts → {} deliveries ({:.1}% fast)",
            self.broadcasts,
            self.deliveries,
            self.fast_fraction * 100.0
        );
        let _ = writeln!(
            s,
            "URB: validity={} agreement={} integrity={}{}",
            self.validity_ok,
            self.agreement_ok,
            self.integrity_ok,
            match self.fd_audit_ok {
                Some(ok) => format!(" fd-audit={ok}"),
                None => String::new(),
            }
        );
        for v in &self.violations {
            let _ = writeln!(s, "  violation: {v}");
        }
        if let (Some(med), Some(p99)) = (self.median_latency, self.p99_latency) {
            let _ = writeln!(s, "latency: median={med} p99={p99} ticks");
        }
        let _ = writeln!(
            s,
            "traffic: {} MSG/ACK transmissions, {} dropped",
            self.protocol_transmissions, self.dropped
        );
        let _ = writeln!(
            s,
            "quiescent: {} (last protocol send t={}, run ended t={})",
            self.quiescent, self.last_protocol_send, self.ended_at
        );
        if self.per_topic.len() > 1 {
            for t in &self.per_topic {
                let _ = writeln!(
                    s,
                    "topic {}: {} broadcasts → {} deliveries, validity={} agreement={} integrity={}",
                    t.topic,
                    t.broadcasts,
                    t.deliveries,
                    t.validity_ok,
                    t.agreement_ok,
                    t.integrity_ok
                );
            }
        }
        let _ = writeln!(s, "trace hash: {:#018x}", self.trace_hash);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use urb_core::Algorithm;
    use urb_sim::scenario;

    #[test]
    fn summary_projects_outcome() {
        let out = urb_sim::run(scenario::clean(3, Algorithm::Majority, 1, 7));
        let s = RunSummary::from_outcome(&out);
        assert_eq!(s.n, 3);
        assert_eq!(s.broadcasts, 1);
        assert_eq!(s.deliveries, 3);
        assert!(s.validity_ok && s.agreement_ok && s.integrity_ok);
        assert!(s.violations.is_empty());
        assert_eq!(s.correct, vec![0, 1, 2]);
    }

    #[test]
    fn json_roundtrips_and_text_renders() {
        let out = urb_sim::run(scenario::clean(3, Algorithm::Quiescent, 1, 9));
        let s = RunSummary::from_outcome(&out);
        let json = s.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(v["n"], 3);
        assert_eq!(v["agreement_ok"], true);
        let text = s.render_text();
        assert!(text.contains("URB: validity=true"));
        assert!(text.contains("trace hash"));
    }
}
