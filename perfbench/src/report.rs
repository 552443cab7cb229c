//! Metric names, units and the one-line JSON result the benchmark prints.

use std::fmt::Write as _;

/// End-to-end metrics: every workload reports every one of them, measured
/// with tracing off. `(name, unit)`; the README maps each to what it means
/// on each workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run. A layer the workload
/// does not exercise reads 0 (listed on the `not exercised:` line).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netgraph.build_ms", "ms"),
    ("fib.compile_ms", "ms"),
    ("fib.walk_ns", "ns"),
    ("fib.query_ns", "ns"),
    ("fib.batch_ns_per_item", "ns"),
    ("fib.batch_over_walk", "ratio"),
    ("fib.fallback_us", "us"),
    ("fib.patch_hit_ratio", "ratio"),
    ("fib.apply_mask_incr_us", "us"),
    ("fib.apply_mask_repair_us", "us"),
    ("fib.vlb_ns", "ns"),
    ("wire.req_encode_ns", "ns"),
    ("wire.req_decode_ns", "ns"),
    ("wire.reply_encode_ns", "ns"),
    ("wire.reply_decode_ns", "ns"),
    ("wire.reply_bytes_per_item", "B"),
    ("serve.group_items", "count"),
    ("serve.layer_ns_per_item", "ns"),
    ("serve.transport_ns_per_item", "ns"),
    ("serve.lookups_per_s", "1/s"),
    ("serve.rtt_p50_us", "us"),
    ("serve.rtt_p99_us", "us"),
    ("serve.mask_rtt_p50_us", "us"),
    ("serve.fail_frac", "ratio"),
    ("netgraph.allpairs_ms", "ms"),
    ("netgraph.bfs_us_per_source", "us"),
    ("netgraph.allpairs_parallel_eff", "ratio"),
    ("analyze.props_s", "s"),
    ("analyze.sim_s", "s"),
    ("workloads.scenario_gen_ms", "ms"),
    ("sim.fluid_ms", "ms"),
    ("sim.packet_ms", "ms"),
    ("sim.fault_ms", "ms"),
    ("sim.maxmin_us_per_call", "us"),
    ("telemetry.overhead_frac", "ratio"),
];

/// What one benchmark run found.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every checked output matched its reference.
    pub correct: bool,
    /// Requests sent (serve: frames; analyze: analysis passes).
    pub attempted: u64,
    /// Requests rejected or never answered.
    pub failed: u64,
    /// `(name, value)` pairs; units come from [`END_TO_END`]/[`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed before the JSON result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        if let Some(slot) = self.metrics.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.metrics.push((name, value));
        }
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1)
    }

    /// Fills every name of `table` not yet recorded with 0 and returns the
    /// names it filled.
    pub fn fill_missing(&mut self, table: &[(&'static str, &str)]) -> Vec<&'static str> {
        let missing: Vec<&'static str> = table
            .iter()
            .map(|&(n, _)| n)
            .filter(|n| self.get(n).is_none())
            .collect();
        for &n in &missing {
            self.set(n, 0.0);
        }
        missing
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, the metrics in `table` order with their units.
    ///
    /// # Errors
    ///
    /// A metric of `table` is absent or not a finite number.
    pub fn json_line(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, &(name, unit)) in table.iter().enumerate() {
            let v = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}
