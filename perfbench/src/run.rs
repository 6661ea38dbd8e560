//! The runner: set-up, the measured loop, statistics over passes, and
//! the printed record.
//!
//! An untraced run sets up at least `Workload::setup_repeats` times and
//! for at least `SETUP_MIN_SECONDS` (`setup_s` is the median). It then
//! repeats untraced passes until `--seconds` have elapsed, and at least
//! `MIN_PASSES` times, and reports the median of each end-to-end metric
//! over its passes. The peak RSS is reset as each pass starts.
//!
//! A traced run sets up once, then alternates an untraced and a traced
//! pass. The per-layer metrics are medians over the traced passes, and
//! `trace.overhead_ratio` is the ratio of the two kinds' median wall
//! times.
//!
//! Every pass after the first is checked against the first: each verdict
//! must be equal and the run fingerprint identical. In a traced run this
//! is the traced-versus-untraced check.
//!
//! A peak-RSS reset the kernel refuses leaves the metrics it would have
//! bounded unmeasured, with the reason in the record; the run then counts
//! as incorrect rather than report a stale process-wide peak.

use crate::cli::Args;
use crate::metrics::{finish_layers, median, result_line, unit_of, END_TO_END, PER_LAYER};
use crate::probe::{cpu_seconds, steal_seconds, RssProbe};
use crate::trace::Tracer;
use crate::verdict::{run_fingerprint, Checks, Verdict};
use crate::workloads::{self, Inputs, Pass, PassCtx, Size, SETUP_MIN_SECONDS};
use cn_chain::Hash256;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// The fewest passes an untraced run makes, so that one pass slowed by
/// a burst of load elsewhere on the machine does not set the median.
const MIN_PASSES: usize = 3;

/// A finished run.
pub struct Outcome {
    /// Reported metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Oracle checks.
    pub checks: Checks,
    /// True when every check passed and every metric was measured.
    pub correct: bool,
    /// The run fingerprint of the first pass (every later pass must
    /// reproduce it); `None` when no pass finished.
    pub fingerprint: Option<Hash256>,
    /// The human-readable record, ending with the result line.
    pub record: String,
}

/// The first pass's verdicts and fingerprint, which later passes must
/// reproduce.
struct Reference {
    verdicts: Vec<Verdict>,
    fingerprint: Hash256,
}

/// One pass with its wall and CPU time.
struct Timed {
    traced: bool,
    wall_s: f64,
    cpu_s: Option<f64>,
    steal_s: Option<f64>,
    pass: Option<Pass>,
}

/// Everything a run shares across its passes.
struct Session<'a> {
    inputs: &'a Inputs,
    rss: Option<RssProbe>,
    checks: Checks,
    reference: Option<Reference>,
    /// Why measurements went missing, one line per distinct reason.
    notes: Vec<String>,
}

/// Runs the workload `args` names. `started` is when the process began;
/// `scratch` is a private directory for temporary files. With
/// `inject_mismatch`, every report comparison runs against an altered
/// expectation (see [`Checks::new`]), which shows the gate can fail.
pub fn run(
    args: &Args,
    size: Size,
    started: Instant,
    scratch: &Path,
    inject_mismatch: bool,
) -> Outcome {
    let rss = RssProbe::new();
    let mut notes = Vec::new();
    if let Err(reason) = &rss {
        notes.push(format!("peak RSS unavailable: {reason}"));
    }
    let rss = rss.ok();
    let workers = cn_stats::Pool::auto().workers();
    let budget = Duration::from_secs(args.seconds);
    let setup =
        |tracer: &mut Tracer| workloads::setup(args.workload, args.seed, size, scratch, tracer);

    let (mut metrics, passes, session_checks, reference);
    if args.trace {
        let mut setup_tracer = Tracer::on(rss);
        let inputs = setup(&mut setup_tracer);
        let mut session = Session::new(&inputs, rss, inject_mismatch);
        session.note_all(setup_tracer.unavailable());
        (metrics, passes) = session.traced(&setup_tracer, budget);
        metrics.insert("run.workers", workers as f64);
        if rss.is_none() {
            metrics.retain(|name, _| !name.ends_with("rss_mb"));
        }
        notes.append(&mut session.notes);
        (session_checks, reference) = (session.checks, session.reference);
    } else {
        let mut setup_s: Vec<f64> = Vec::new();
        let mut inputs = None;
        while setup_s.len() < args.workload.setup_repeats()
            || setup_s.iter().sum::<f64>() < SETUP_MIN_SECONDS
        {
            // Free the previous inputs first, so set-ups do not stack.
            drop(inputs.take());
            let t0 = if setup_s.is_empty() {
                started
            } else {
                Instant::now()
            };
            inputs = Some(setup(&mut Tracer::off()));
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let inputs = inputs.expect("at least one set-up");
        let mut session = Session::new(&inputs, rss, inject_mismatch);
        (metrics, passes) = session.untraced(budget);
        metrics.insert("setup_s", median(&setup_s));
        notes.append(&mut session.notes);
        (session_checks, reference) = (session.checks, session.reference);
    }
    let checks = session_checks;

    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    let missing: Vec<&str> = catalogue
        .iter()
        .map(|m| m.name)
        .filter(|n| !metrics.contains_key(n))
        .collect();
    if !missing.is_empty() {
        notes.push(format!("metrics not measured: {}", missing.join(", ")));
    }
    let correct = checks.failed() == 0 && missing.is_empty();

    let mut record = String::new();
    let (w, seed) = (args.workload.name(), args.seed);
    let _ = writeln!(
        record,
        "perfbench workload={w} seed={seed} trace={} workers={workers} passes={} seconds={}",
        u8::from(args.trace),
        passes.len(),
        args.seconds
    );
    if let Some(r) = &reference {
        for v in &r.verdicts {
            let _ = writeln!(
                record,
                "fingerprint {w} seed={seed} {}: {}",
                v.label, v.fingerprint
            );
        }
        let _ = writeln!(record, "fingerprint {w} seed={seed} run: {}", r.fingerprint);
    }
    for (k, p) in passes.iter().enumerate() {
        let _ = writeln!(record, "pass {k} {p}");
    }
    for (name, value) in &metrics {
        let _ = writeln!(
            record,
            "metric {name} = {value} {}",
            unit_of(name).unwrap_or("")
        );
    }
    for line in notes.iter().chain(checks.failures()) {
        let _ = writeln!(record, "note: {line}");
    }
    let _ = writeln!(
        record,
        "error_ratio = {} ({} failed of {} attempted exact-verdict checks)",
        checks.error_ratio(),
        checks.failed(),
        checks.attempted()
    );
    record.push_str(&result_line(
        correct,
        checks.attempted(),
        checks.failed(),
        &metrics,
    ));
    record.push('\n');
    let fingerprint = reference.map(|r| r.fingerprint);
    Outcome {
        metrics,
        checks,
        correct,
        fingerprint,
        record,
    }
}

impl<'a> Session<'a> {
    fn new(inputs: &'a Inputs, rss: Option<RssProbe>, inject_mismatch: bool) -> Session<'a> {
        Session {
            inputs,
            rss,
            checks: Checks::new(inject_mismatch),
            reference: None,
            notes: Vec::new(),
        }
    }

    /// Keeps each distinct reason once.
    fn note_all(&mut self, reasons: &[String]) {
        for reason in reasons {
            if !self.notes.contains(reason) {
                self.notes.push(reason.clone());
            }
        }
    }

    /// Untraced passes until `budget` has elapsed, and at least
    /// [`MIN_PASSES`]; the end-to-end metrics except `setup_s` are medians
    /// over them.
    fn untraced(&mut self, budget: Duration) -> (BTreeMap<&'static str, f64>, Vec<Timed>) {
        let mut passes = Vec::new();
        let loop_start = Instant::now();
        while passes.len() < MIN_PASSES || loop_start.elapsed() < budget {
            passes.push(self.timed_pass(Tracer::off()).0);
        }
        let of = |f: &dyn Fn(&Timed) -> Option<f64>| -> Option<f64> {
            let values: Option<Vec<f64>> = passes.iter().map(f).collect();
            values.map(|v| median(&v))
        };
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "wall_s",
            median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
        );
        match of(&|p| p.cpu_s) {
            Some(v) => drop(metrics.insert("cpu_s", v)),
            None => self
                .notes
                .push("cpu_s unavailable: /proc/self/stat unreadable".into()),
        }
        if let Some(v) = of(&|p| p.pass.as_ref().map(|p| p.verdict_s)) {
            metrics.insert("verdict_s", v);
        }
        if let Some(v) = of(&|p| p.pass.as_ref().and_then(|p| p.peak_rss_mb)) {
            metrics.insert("peak_rss_mb", v);
        }
        (metrics, passes)
    }

    /// Untraced and traced passes, alternating, until `budget` has
    /// elapsed; the per-layer metrics are medians over the traced ones,
    /// with the set-up's values for layers only the set-up calls. A
    /// metric missing from any traced pass is left out.
    fn traced(
        &mut self,
        setup: &Tracer,
        budget: Duration,
    ) -> (BTreeMap<&'static str, f64>, Vec<Timed>) {
        let (mut plain, mut traced, mut layers) = (Vec::new(), Vec::new(), Vec::new());
        let loop_start = Instant::now();
        while traced.is_empty() || loop_start.elapsed() < budget {
            plain.push(self.timed_pass(Tracer::off()).0);
            let (pass, tracer) = self.timed_pass(Tracer::on(self.rss));
            self.note_all(tracer.unavailable());
            let mut raw = setup.values().clone();
            raw.extend(tracer.values());
            layers.push(finish_layers(&raw));
            traced.push(pass);
        }
        let mut metrics: BTreeMap<&'static str, f64> = layers[0]
            .keys()
            .filter_map(|&name| {
                let values: Option<Vec<f64>> =
                    layers.iter().map(|l| l.get(name).copied()).collect();
                Some((name, median(&values?)))
            })
            .collect();
        let wall = |passes: &[Timed]| median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        metrics.insert("trace.overhead_ratio", wall(&traced) / wall(&plain));
        plain.extend(traced);
        (metrics, plain)
    }

    /// Runs one pass, timing it from its start until its verdicts are
    /// checked against the first pass's.
    fn timed_pass(&mut self, mut tracer: Tracer) -> (Timed, Tracer) {
        // A traced pass has no pass-wide peak: its phases reset it.
        let mut rss = self.rss.filter(|_| !tracer.enabled());
        if let Some(probe) = rss {
            if let Err(reason) = probe.reset() {
                self.note_all(&[format!("peak_rss_mb unavailable: {reason}")]);
                rss = None;
            }
        }
        let (cpu0, steal0) = (cpu_seconds(), steal_seconds());
        let started = Instant::now();
        let mut ctx = PassCtx {
            tracer: &mut tracer,
            checks: &mut self.checks,
            rss,
            rss_lost: None,
            peak_before_mb: 0.0,
        };
        let outcome = workloads::pass(self.inputs, &mut ctx);
        if let Some(reason) = ctx.rss_lost {
            self.note_all(&[format!("peak_rss_mb unavailable: {reason}")]);
        }
        let pass = match outcome {
            Ok(pass) => {
                self.check_against_reference(&pass);
                Some(pass)
            }
            Err(e) => {
                self.checks.error("pass", e);
                None
            }
        };
        let wall_s = started.elapsed().as_secs_f64();
        let since = |before: Result<f64, String>, now: Result<f64, String>| match (before, now) {
            (Ok(a), Ok(b)) => Some(b - a),
            _ => None,
        };
        let cpu_s = since(cpu0, cpu_seconds());
        let steal_s = since(steal0, steal_seconds());
        (
            Timed {
                traced: tracer.enabled(),
                wall_s,
                cpu_s,
                steal_s,
                pass,
            },
            tracer,
        )
    }

    fn check_against_reference(&mut self, pass: &Pass) {
        let fingerprint = run_fingerprint(&pass.verdicts, &pass.extra);
        let Some(r) = &self.reference else {
            self.reference = Some(Reference {
                verdicts: pass.verdicts.clone(),
                fingerprint,
            });
            return;
        };
        let checks = &mut self.checks;
        checks.record(
            "verdict count vs first pass",
            pass.verdicts.len() == r.verdicts.len(),
        );
        for (now, first) in pass.verdicts.iter().zip(&r.verdicts) {
            checks.same_report(
                &format!("{} vs first pass", now.label),
                &now.report,
                &first.report,
            );
        }
        checks.record(
            "run fingerprint vs first pass",
            fingerprint == r.fingerprint,
        );
    }
}

impl std::fmt::Display for Timed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let opt = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.4}"));
        write!(
            f,
            "{}: wall_s={:.4} cpu_s={} steal_s={} verdict_s={} peak_rss_mb={}",
            if self.traced { "traced" } else { "untraced" },
            self.wall_s,
            opt(self.cpu_s),
            opt(self.steal_s),
            opt(self.pass.as_ref().map(|p| p.verdict_s)),
            opt(self.pass.as_ref().and_then(|p| p.peak_rss_mb)),
        )
    }
}
