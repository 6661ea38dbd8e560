//! The three workloads. Each has a set-up that builds its inputs from the
//! workload seed, and a pass: the timed work, ending with every verdict
//! checked against its oracle.

pub mod audit_batch;
pub mod fleet_reconcile;
pub mod scale_pipeline;

use crate::probe::RssProbe;
use crate::trace::Tracer;
use crate::verdict::{Checks, Verdict};
use cn_sim::SimProfile;
use std::path::Path;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Workload {
    /// The paper's analysis path over in-memory snapshot rows.
    AuditBatch,
    /// Eight-observer worlds, reconciled at several fleet sizes.
    FleetReconcile,
    /// Dataset-M through the event log and the spilled auditor.
    ScalePipeline,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::AuditBatch,
        Workload::FleetReconcile,
        Workload::ScalePipeline,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AuditBatch => "audit_batch",
            Workload::FleetReconcile => "fleet_reconcile",
            Workload::ScalePipeline => "scale_pipeline",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The fewest set-ups an untraced run times (`setup_s` is their
    /// median); it keeps setting up until [`SETUP_MIN_SECONDS`] have been
    /// spent. The last set-up's inputs are kept.
    pub fn setup_repeats(self) -> usize {
        match self {
            // Three quick simulations per set-up: a few seconds each.
            Workload::AuditBatch => 3,
            // One topology and funding build: under a millisecond, so
            // the time floor sets the count.
            Workload::FleetReconcile | Workload::ScalePipeline => 5,
        }
    }
}

/// Set-up time an untraced run spends at least, so a set-up of a
/// millisecond is timed often enough for a steady median.
pub const SETUP_MIN_SECONDS: f64 = 1.0;

/// How large the generated inputs are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's size.
    Standard,
    /// A few seconds in all, for the benchmark's own tests.
    Tiny,
}

/// Simulated span of the quick datasets at [`Size::Tiny`]: long enough
/// for dataset 𝒞's self-interest findings.
pub const TINY_SECONDS: u64 = 3 * 3_600;

/// A workload's generated inputs. A run holds exactly one, so the
/// variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Inputs {
    /// See [`audit_batch`].
    AuditBatch(audit_batch::Inputs),
    /// See [`fleet_reconcile`].
    FleetReconcile(fleet_reconcile::Inputs),
    /// See [`scale_pipeline`].
    ScalePipeline(scale_pipeline::Inputs),
}

/// Builds a workload's inputs. `scratch` is a directory the pass may
/// write temporary files to.
pub fn setup(
    workload: Workload,
    seed: u64,
    size: Size,
    scratch: &Path,
    tracer: &mut Tracer,
) -> Inputs {
    match workload {
        Workload::AuditBatch => Inputs::AuditBatch(audit_batch::setup(seed, size, tracer)),
        Workload::FleetReconcile => Inputs::FleetReconcile(fleet_reconcile::setup(seed, size)),
        Workload::ScalePipeline => {
            Inputs::ScalePipeline(scale_pipeline::setup(seed, size, scratch))
        }
    }
}

/// What one pass hands back besides its per-layer values.
pub struct Pass {
    /// Seconds from complete inputs to each exact verdict, summed over
    /// the pass's verdicts.
    pub verdict_s: f64,
    /// Peak RSS over the pass's pipeline, read before the oracle
    /// replays; `None` when no probe is available.
    pub peak_rss_mb: Option<f64>,
    /// The pass's verdicts, in a fixed order.
    pub verdicts: Vec<Verdict>,
    /// Pass outputs besides the verdicts that must repeat exactly.
    pub extra: String,
}

/// Everything a pass reads besides its inputs.
pub struct PassCtx<'a> {
    /// Per-layer recorder (disabled on untraced passes).
    pub tracer: &'a mut Tracer,
    /// Oracle tally.
    pub checks: &'a mut Checks,
    /// Pass-wide peak-RSS probe, reset by the runner when the pass
    /// starts. `None` when no probe is available, on traced passes
    /// (whose per-phase resets cut the pass-wide peak short), and after a
    /// refused reset.
    pub rss: Option<RssProbe>,
    /// Why the pass-wide peak was lost mid-pass, if it was.
    pub rss_lost: Option<String>,
    /// The peak read before the last oracle that ran outside the peak.
    pub peak_before_mb: f64,
}

impl PassCtx<'_> {
    /// The pass's peak RSS so far, oracle work excluded.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        let now = self.rss?.peak_mb().ok()?;
        Some(now.max(self.peak_before_mb))
    }

    /// Runs oracle work outside the pass's peak RSS: the peak so far is
    /// kept, and the peak is reset once `f` returns, so memory only the
    /// oracle uses does not count. A refused reset leaves the pass
    /// without a peak, with the reason in `rss_lost`.
    pub fn outside_peak<T>(&mut self, f: impl FnOnce(&mut Checks) -> T) -> T {
        let before = self.peak_rss_mb();
        let out = f(self.checks);
        if let Some(probe) = self.rss.take() {
            let reset = before
                .ok_or_else(|| "peak-RSS reading failed".to_string())
                .and_then(|mb| probe.reset().map(|()| mb));
            match reset {
                Ok(mb) => {
                    self.peak_before_mb = mb;
                    self.rss = Some(probe);
                }
                Err(reason) => self.rss_lost = Some(reason),
            }
        }
        out
    }
}

/// Runs one pass over `inputs`.
pub fn pass(inputs: &Inputs, ctx: &mut PassCtx<'_>) -> Result<Pass, String> {
    match inputs {
        Inputs::AuditBatch(i) => Ok(audit_batch::pass(i, ctx)),
        Inputs::FleetReconcile(i) => Ok(fleet_reconcile::pass(i, ctx)),
        Inputs::ScalePipeline(i) => scale_pipeline::pass(i, ctx),
    }
}

/// Records a finished simulation's profile: the `sim.*`, `mempool.*`,
/// `miner.*` and `net.*` per-layer values all come from `SimProfile`.
pub fn record_sim(tracer: &mut Tracer, profile: &SimProfile) {
    tracer.add("sim.blocks", profile.blocks as f64);
    tracer.add("sim.events", profile.events_popped as f64);
    tracer.add("sim.user_txs", profile.user_txs as f64);
    tracer.add("sim.issue_s", profile.issue);
    tracer.add("sim.pregen_s", profile.pregen);
    tracer.add("sim.deliveries", profile.deliveries as f64);
    tracer.max("sim.max_delivery_batch", profile.max_delivery_batch as f64);
    tracer.add("mempool.admission_s", profile.admission);
    tracer.add("mempool.eviction_s", profile.eviction);
    tracer.add("mempool.snapshot_s", profile.snapshot + profile.fleet);
    tracer.add("miner.assembly_s", profile.assembly);
    tracer.add("miner.full_rebuilds", profile.assembly_full_rebuilds as f64);
    tracer.add(
        "miner.incremental",
        profile.assembly_incremental_hits as f64,
    );
    tracer.add("net.relay_s", profile.relay + profile.faults);
}
