//! The metric catalogue, the statistics over passes, and the result
//! line.
//!
//! `BENCHMARK.json` at the repository root mirrors [`END_TO_END`] and
//! [`PER_LAYER`]; a test keeps the two in step.

use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory, wasted work).
    Lower,
    /// Larger is better (throughput, useful work).
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Workloads whose calls produce the value. On any other workload
    /// the layer is not called and the value is 0.
    pub workloads: &'static [Workload],
}

use Better::{Higher, Lower};
use Workload::{AuditBatch as AB, FleetReconcile as FR, ScalePipeline as SP};

const ALL: &[Workload] = &[AB, FR, SP];

const fn m(
    name: &'static str,
    unit: &'static str,
    better: Better,
    workloads: &'static [Workload],
) -> Metric {
    Metric {
        name,
        unit,
        better,
        workloads,
    }
}

/// End-to-end metrics, reported by untraced runs on every workload.
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s", Lower, ALL),
    m("wall_s", "s", Lower, ALL),
    m("cpu_s", "s", Lower, ALL),
    m("verdict_s", "s", Lower, ALL),
    m("peak_rss_mb", "MB", Lower, ALL),
];

/// Per-layer metrics, reported by traced runs on every workload.
pub const PER_LAYER: &[Metric] = &[
    // cn-sim (values from the run's `SimProfile` plus the call's span).
    m("sim.run_s", "s", Lower, ALL),
    m("sim.blocks", "count", Higher, ALL),
    m("sim.events", "count", Lower, ALL),
    m("sim.user_txs", "count", Higher, ALL),
    m("sim.blocks_per_s", "1/s", Higher, ALL),
    m("sim.issue_s", "s", Lower, ALL),
    m("sim.pregen_s", "s", Lower, ALL),
    m("sim.rss_mb", "MB", Lower, ALL),
    // cn-mempool, through `SimProfile`.
    m("mempool.admission_s", "s", Lower, ALL),
    m("mempool.eviction_s", "s", Lower, ALL),
    m("mempool.snapshot_s", "s", Lower, ALL),
    m("sim.deliveries", "count", Lower, ALL),
    m("sim.max_delivery_batch", "count", Higher, ALL),
    // cn-miner, through `SimProfile`.
    m("miner.assembly_s", "s", Lower, ALL),
    m("miner.rebuild_ratio", "ratio", Lower, &[AB, FR]),
    // cn-net, through `SimProfile`.
    m("net.relay_s", "s", Lower, ALL),
    // cn-data::log
    m("log.encode_s", "s", Lower, &[SP]),
    m("log.decode_s", "s", Lower, &[SP]),
    m("log.bytes_per_block", "B", Lower, &[SP]),
    m("log.segments", "count", Lower, &[SP]),
    // cn-core::spill
    m("spill.push_s", "s", Lower, &[SP]),
    m("spill.bytes", "B", Lower, &[SP]),
    m("spill.segments", "count", Lower, &[SP]),
    m("spill.verdict_s", "s", Lower, &[SP]),
    m("spill.replay_rss_mb", "MB", Lower, &[SP]),
    m("spill.verdict_rss_mb", "MB", Lower, &[SP]),
    // cn-core::streaming
    m("stream.push_s", "s", Lower, &[AB]),
    m("stream.events", "count", Higher, &[AB]),
    m("stream.rows", "count", Higher, &[AB]),
    m("stream.peak_window_rows", "count", Lower, &[AB]),
    m("stream.verdict_s", "s", Lower, &[AB]),
    // cn-core::index
    m("index.build_s", "s", Lower, &[AB, FR]),
    m("index.txs", "count", Higher, &[AB, FR]),
    // cn-core audit parts
    m("coverage.assess_s", "s", Lower, &[AB]),
    m("attribution.s", "s", Lower, &[AB]),
    m("self_interest.s", "s", Lower, &[AB]),
    m("audit.core_s", "s", Lower, &[AB]),
    m("audit.findings", "count", Higher, &[AB, FR]),
    m("audit.fused_s", "s", Lower, &[FR]),
    // cn-core::pairs
    m("pairs.s", "s", Lower, &[AB]),
    m("pairs.observations", "count", Higher, &[AB]),
    m("pairs.candidates", "count", Higher, &[AB]),
    m("pairs.violating", "count", Higher, &[AB]),
    // cn-core::prioritization + cn-stats
    m("prioritization.windowed_s", "s", Lower, &[AB]),
    m("prioritization.tests", "count", Higher, &[AB]),
    // cn-core::reconcile
    m("reconcile.s", "s", Lower, &[FR]),
    m("reconcile.input_rows", "count", Higher, &[FR]),
    m("reconcile.fused_rows", "count", Lower, &[FR]),
    m("reconcile.fused_over_input", "ratio", Lower, &[FR]),
    // The run itself.
    m("trace.overhead_ratio", "ratio", Lower, ALL),
    m("run.workers", "count", Higher, ALL),
];

/// True for a name made of `[A-Za-z0-9_.-]`, starting with a letter or
/// digit, at most 64 characters long.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Adds the ratios derived from raw counters, then sets every catalogued
/// per-layer metric the pass did not touch to 0.
pub fn finish_layers(raw: &BTreeMap<&'static str, f64>) -> BTreeMap<&'static str, f64> {
    let get = |k: &str| raw.get(k).copied().unwrap_or(0.0);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut out: BTreeMap<&'static str, f64> =
        PER_LAYER.iter().map(|m| (m.name, get(m.name))).collect();
    out.insert(
        "sim.blocks_per_s",
        ratio(get("sim.blocks"), get("sim.run_s")),
    );
    out.insert(
        "miner.rebuild_ratio",
        ratio(
            get("miner.full_rebuilds"),
            get("miner.full_rebuilds") + get("miner.incremental"),
        ),
    );
    out.insert(
        "log.bytes_per_block",
        ratio(get("log.bytes"), get("log.blocks")),
    );
    out.insert(
        "reconcile.fused_over_input",
        ratio(get("reconcile.fused_rows"), get("reconcile.input_rows")),
    );
    out
}

/// The median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Looks up a catalogued metric's unit.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// Renders the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. Values are printed in
/// full (shortest round-trip form); a non-finite value cannot be
/// represented and is a bug in the caller.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<&'static str, f64>,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let unit = unit_of(name).unwrap_or_else(|| panic!("metric {name} is not catalogued"));
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name), "bad metric name {}", m.name);
            assert!(seen.insert(m.name), "duplicate metric name {}", m.name);
            assert!(
                !m.unit.is_empty() && m.unit.len() <= 16,
                "bad unit for {}",
                m.name
            );
            assert!(!m.workloads.is_empty(), "{} maps to no workload", m.name);
        }
        assert!(!valid_name("") && !valid_name(".x") && !valid_name("a b") && !valid_name("a/b"));
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut metrics = BTreeMap::new();
        metrics.insert("wall_s", 1.25);
        metrics.insert("setup_s", 0.5);
        assert_eq!(
            result_line(true, 3, 0, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
