//! The benchmark-side tracer: times each call into a layer's public
//! functions from this crate's own files and records per-layer counters
//! and per-phase peak RSS.
//!
//! An untraced run uses a disabled tracer, whose spans call straight
//! through and whose counters are dropped; the workload code is the same
//! in both modes, so the difference between a traced and an untraced
//! pass is the tracing overhead.

use crate::probe::RssProbe;
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer values gathered over one traced pass.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    rss: Option<RssProbe>,
    /// The current RSS phase's reset: `Err` with the reason when the
    /// kernel refused it.
    phase: Result<(), String>,
    /// Why RSS phases went unrecorded, one line per refused reset.
    unavailable: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            rss: None,
            phase: Ok(()),
            unavailable: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// A recording tracer; `rss` enables per-phase peak-RSS samples.
    pub fn on(rss: Option<RssProbe>) -> Tracer {
        Tracer {
            enabled: true,
            rss,
            phase: Ok(()),
            unavailable: Vec::new(),
            values: BTreeMap::new(),
        }
    }

    /// True for a recording tracer.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, adding its wall seconds to `name` when recording.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed().as_secs_f64());
        out
    }

    /// Adds `v` to the counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            *self.values.entry(name).or_insert(0.0) += v;
        }
    }

    /// Raises the high-water mark `name` to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.enabled {
            let slot = self.values.entry(name).or_insert(v);
            *slot = slot.max(v);
        }
    }

    /// Starts an RSS phase: resets the peak when recording.
    pub fn phase_start(&mut self) {
        if let (true, Some(rss)) = (self.enabled, self.rss) {
            self.phase = rss.reset();
        }
    }

    /// Ends an RSS phase: records the peak since `phase_start` under
    /// `name` (the largest over repeated phases). When the phase's reset
    /// or the reading failed, records nothing for `name` and keeps the
    /// reason, so the metric is reported missing rather than stale.
    pub fn phase_end(&mut self, name: &'static str) {
        if let (true, Some(rss)) = (self.enabled, self.rss) {
            match self.phase.clone().and_then(|()| rss.peak_mb()) {
                Ok(mb) => self.max(name, mb),
                Err(reason) => self
                    .unavailable
                    .push(format!("{name} unavailable: {reason}")),
            }
        }
    }

    /// Why RSS phases went unrecorded (empty when every phase was).
    pub fn unavailable(&self) -> &[String] {
        &self.unavailable
    }

    /// The recorded values by name.
    pub fn values(&self) -> &BTreeMap<&'static str, f64> {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_calls_through_and_records_nothing() {
        let mut t = Tracer::off();
        assert_eq!(t.span("x.s", || 41 + 1), 42);
        t.add("x.count", 3.0);
        t.max("x.peak", 9.0);
        assert!(t.values().is_empty());
    }

    #[test]
    fn a_refused_phase_reset_records_no_peak() {
        let Ok(probe) = RssProbe::new() else { return };
        let mut t = Tracer::on(Some(probe));
        t.phase_start();
        t.phase_end("x.rss_mb");
        assert!(t.values()["x.rss_mb"] > 0.0);
        t.phase = Err("reset refused".into());
        t.phase_end("y.rss_mb");
        assert!(!t.values().contains_key("y.rss_mb"));
        assert_eq!(t.unavailable(), ["y.rss_mb unavailable: reset refused"]);
    }

    #[test]
    fn enabled_tracer_sums_spans_and_counters() {
        let mut t = Tracer::on(None);
        t.span("x.s", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("x.s", || ());
        t.add("x.count", 3.0);
        t.add("x.count", 4.0);
        t.max("x.peak", 2.0);
        t.max("x.peak", 1.0);
        assert!(t.values()["x.s"] >= 0.002);
        assert_eq!(t.values()["x.count"], 7.0);
        assert_eq!(t.values()["x.peak"], 2.0);
    }
}
