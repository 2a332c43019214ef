//! Metric names, units and the result line.
//!
//! The names here are the contract later issues cite; `BENCHMARK.json`
//! lists the same names with each end-to-end metric's direction and
//! regression bound (a unit test keeps the two in step).

/// End-to-end metrics: printed by every workload's untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_bcast_s", "1/s"),
    ("deliver_p50_us", "us"),
    ("deliver_p90_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: the result line of every traced run carries every
/// name (the benchmark contract wants that) and 0 for what the run did not
/// measure. Micro-loop metrics are measured once per set, by the traced run
/// of `micro::HOST_WORKLOAD`; the rest come from the traced workload itself,
/// where its backend can show them from outside.
pub const PER_LAYER: &[(&str, &str)] = &[
    // urb-types: codec and pool (micro-loops)
    ("types.encode_ns_per_msg", "ns"),
    ("types.decode_ns_per_msg", "ns"),
    ("types.codec_ns_per_kib", "ns"),
    ("types.frame_bytes_per_msg", "B"),
    ("types.pool_hit_rate", "ratio"),
    // urb-core: protocol steps (micro-loops)
    ("core.alg2_broadcast_ns", "ns"),
    ("core.alg2_receive_ns", "ns"),
    ("core.alg1_receive_ns", "ns"),
    ("core.alg2_tick_ns_per_tag", "ns"),
    ("core.alg1_tick_ns_per_tag", "ns"),
    ("core.msgs_per_bcast", "count"),
    ("core.resident_entries_end", "count"),
    // urb-engine: topic plane (micro-loops)
    ("engine.broadcast_ns", "ns"),
    ("engine.receive_ns_per_msg", "ns"),
    ("engine.dispatch_ns_per_msg", "ns"),
    ("engine.resolve_ns_1", "ns"),
    ("engine.resolve_ns_100k", "ns"),
    ("engine.tick_all_ns_per_slot", "ns"),
    ("engine.tick_all_us", "us"),
    ("engine.build_ms_100k", "ms"),
    ("engine.steps_per_bcast", "count"),
    // failure detector view (micro-loop)
    ("fd.registry_snapshot_ns", "ns"),
    // urb-runtime: CPU-side pieces (micro-loops)
    ("runtime.channel_hop_us", "us"),
    ("runtime.lane_partition_ns_per_entry", "ns"),
    ("runtime.frame_write_ns", "ns"),
    ("runtime.reassemble_ns_per_frame", "ns"),
    ("runtime.reassemble_mb_s", "MB/s"),
    ("runtime.tcp_oneway_p50_us", "us"),
    ("runtime.tcp_frames_s", "1/s"),
    ("runtime.tcp_connect_ms", "ms"),
    ("runtime.state.append_us", "us"),
    ("runtime.state.snapshot_write_ms", "ms"),
    // urb-runtime: seen on the traced workload (inproc_* / tcp_burst)
    ("runtime.broadcast_on_rtt_us", "us"),
    ("runtime.router.frames_per_bcast", "count"),
    ("runtime.router.forwarded_per_bcast", "count"),
    ("runtime.router.reencoded_per_bcast", "count"),
    ("runtime.router.dropped_share", "ratio"),
    ("runtime.net.frames_sent_per_bcast", "count"),
    ("runtime.net.bytes_sent_per_bcast", "B"),
    ("runtime.net.backpressure_drop_share", "ratio"),
    ("runtime.net.dials_failed", "count"),
    // the traced workload's stacked budget (mesh_*), µs per broadcast
    ("budget.engine_broadcast_us", "us"),
    ("budget.types_encode_us", "us"),
    ("budget.types_decode_us", "us"),
    ("budget.engine_dispatch_us", "us"),
    ("budget.core_receive_us", "us"),
    ("budget.engine_tick_all_us", "us"),
    ("budget.driver_us", "us"),
    ("budget.total_us", "us"),
    ("budget.untraced_us", "us"),
    // end-to-end figures reported but not gated (see README "Demoted")
    ("e2e.wire_msgs_per_bcast", "count"),
    ("e2e.wire_bytes_per_bcast", "B"),
    ("e2e.deliver_p99_us", "us"),
    ("e2e.deliver_p999_us", "us"),
    ("e2e.crash_stall_ms", "ms"),
    ("e2e.failed_share", "ratio"),
    ("e2e.latency_samples", "count"),
    // the harness's own cost
    ("bench.gen_late_p99_us", "us"),
    ("bench.pump_ns", "ns"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.unattributed_share", "ratio"),
];

/// An ordered bag of named measurements.
#[derive(Clone, Debug, Default)]
pub struct Metrics(Vec<(String, f64, String)>);

impl Metrics {
    /// Adds (or overwrites) a measurement.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _, _)| n == name) {
            Some(slot) => *slot = (name.to_string(), value, unit.to_string()),
            None => self.0.push((name.to_string(), value, unit.to_string())),
        }
    }

    /// A measurement by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// Every measurement, in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &str)> {
        self.0.iter().map(|(n, v, u)| (n.as_str(), *v, u.as_str()))
    }

    /// Exactly the metrics of `contract`, in its order and with its
    /// units; anything the run did not measure reads 0.
    pub fn select(&self, contract: &[(&str, &str)]) -> Metrics {
        let mut out = Metrics::default();
        for &(name, unit) in contract {
            out.push(name, self.get(name).unwrap_or(0.0), unit);
        }
        out
    }
}

/// The one-line JSON result the benchmark driver reads.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                serde_json::escape(name),
                serde_json::escape(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut m = Metrics::default();
        m.push("setup_s", 0.8127, "s");
        m.push("throughput_bcast_s", 12345.678, "1/s");
        m.push("nan", f64::NAN, "x");
        let v = serde_json::from_str(&result_line(true, 1000, 0, &m)).expect("valid JSON");
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(1000));
        assert_eq!(v["failed"].as_u64(), Some(0));
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(0.8127));
        assert_eq!(
            v["metrics"]["throughput_bcast_s"]["unit"].as_str(),
            Some("1/s")
        );
        assert_eq!(v["metrics"]["nan"]["value"].as_f64(), Some(0.0));
    }

    #[test]
    fn select_orders_fills_and_overwrites() {
        let mut m = Metrics::default();
        m.push("b", 2.0, "x");
        m.push("a", 1.0, "x");
        m.push("b", 3.0, "x");
        let s = m.select(&[("a", "u"), ("missing", "u"), ("b", "u")]);
        let got: Vec<_> = s.iter().collect();
        assert_eq!(
            got,
            vec![("a", 1.0, "u"), ("missing", 0.0, "u"), ("b", 3.0, "u")]
        );
    }

    #[test]
    fn names_fit_the_benchmark_contract() {
        let ok_name = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }
}
