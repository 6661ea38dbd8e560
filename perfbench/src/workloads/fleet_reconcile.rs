//! `fleet_reconcile`: the multi-vantage path. Two quick dataset-𝒞 worlds
//! with an eight-observer heterogeneous roster, sampled at 30 s with
//! every 8th snapshot detailed: one clean, one with fleet-wide
//! withholding of high-fee and miner-origin transactions.
//!
//! Set-up builds the shared topology and funding checkpoint. A pass
//! simulates both worlds, then per world builds the chain index,
//! reconciles the first N ∈ {1, 2, 4, 8} observer streams and audits
//! each fused view.
//!
//! The workload seed draws how strongly the spy peers withhold (the two
//! rules' control fractions). It does not reseed the scenario: a quick
//! dataset-𝒞 world spans about 72 blocks, too few for its backlog (and
//! with it the rows and memory of a pass) to be steady across scenario
//! seeds.
//!
//! Oracle, at every N: the serial reference reconciliation
//! (`reconcile_with_pool` at width 1) of the same views. Its fused rows,
//! per-observer and fused coverage, first-seen statistics and expectation
//! must equal those of `reconcile` (at the `Pool::auto()` width), and the
//! audit of its fused stream must equal the timed audit. The fused windows
//! must also be exactly the observers' snapshot times, in order. The
//! oracle runs outside the layer spans and outside the pass's peak RSS.

use super::{record_sim, Pass, PassCtx, Size, TINY_SECONDS};
use crate::verdict::Verdict;
use cn_core::{
    audit_with_snapshots, reconcile, reconcile_with_pool, AuditConfig, ChainIndex, FleetView,
    ObserverView, StreamExpectation,
};
use cn_data::{dataset_c, Scale};
use cn_mempool::{MempoolPolicy, MempoolSnapshot};
use cn_net::{AdversaryPlan, WithholdPredicate, WithholdRule};
use cn_sim::scenario::ObserverConfig;
use cn_sim::{Scenario, SimOutput, WorldCheckpoint};
use cn_stats::{Pool, SimRng};
use std::fmt::Write as _;
use std::time::Instant;

/// The reconciled fleet sizes (prefixes of the roster).
const FLEET_SIZES: [usize; 4] = [1, 2, 4, 8];

/// The shared checkpoint and the two worlds forked from it.
pub struct Inputs {
    checkpoint: WorldCheckpoint,
    worlds: Vec<(&'static str, Scenario)>,
}

/// Eight observers that differ in peer count, admission policy, mempool
/// cap and latency tier. Index 0 is the dataset-𝒜 default node.
fn roster(mempool_cap: u64) -> Vec<ObserverConfig> {
    let node = |label: &str, peers: usize, policy: MempoolPolicy, cap: Option<u64>, latency| {
        ObserverConfig {
            label: label.into(),
            peers,
            policy,
            max_mempool_vsize: cap,
            latency_factor: latency,
        }
    };
    let default = MempoolPolicy::default;
    vec![
        ObserverConfig::default_node().named("dc-a"),
        node("wide", 125, MempoolPolicy::accept_all(), None, 1.0),
        node("edge", 8, default(), None, 1.6),
        node("region", 16, default(), None, 1.25),
        node("capped", 8, default(), Some(mempool_cap), 1.0),
        node("spv", 4, default(), None, 1.4),
        node("backbone", 64, MempoolPolicy::accept_all(), None, 0.9),
        node("far", 8, default(), None, 2.0),
    ]
}

/// Fleet-wide selective withholding: spy peers hold back high-fee
/// traffic and miner-origin transfers from every observer, with
/// seed-drawn strengths around 0.6 and 0.5.
fn withholding(seed: u64) -> AdversaryPlan {
    let mut rng = SimRng::seed_from_u64(seed).fork("withholding");
    let mut control = |centre: f64| centre - 0.1 + 0.2 * rng.next_f64();
    AdversaryPlan {
        withholds: vec![
            WithholdRule {
                observer: None,
                control: control(0.6),
                predicate: WithholdPredicate::HighFee {
                    min_sat_per_kvb: 20_000,
                },
            },
            WithholdRule {
                observer: None,
                control: control(0.5),
                predicate: WithholdPredicate::MinerOrigin,
            },
        ],
        ..AdversaryPlan::none()
    }
}

/// Builds the base scenario and its checkpoint.
pub fn setup(seed: u64, size: Size) -> Inputs {
    let mut base = dataset_c(Scale::Quick);
    if size == Size::Tiny {
        base.duration = TINY_SECONDS;
    }
    base.observers = roster(12 * base.params.max_block_vsize());
    base.snapshot_interval = 30;
    base.snapshot_detail_every = 8;
    let checkpoint = WorldCheckpoint::new(&base);
    let mut withhold = base.clone();
    withhold.adversaries = withholding(seed);
    Inputs {
        checkpoint,
        worlds: vec![("clean", base), ("withhold", withhold)],
    }
}

/// Detailed snapshot rows in a stream.
fn rows(stream: &[MempoolSnapshot]) -> u64 {
    stream
        .iter()
        .filter(|s| s.is_detailed())
        .map(|s| s.entries.len() as u64)
        .sum()
}

/// The first `n` observers' streams as reconcile inputs.
fn views(
    scenario: &Scenario,
    sim: &SimOutput,
    n: usize,
    expectation: StreamExpectation,
) -> Vec<ObserverView> {
    scenario
        .observers
        .iter()
        .zip(&sim.observer_streams)
        .take(n)
        .map(|(cfg, stream)| ObserverView {
            label: cfg.label.clone(),
            snapshots: stream.clone(),
            expectation,
        })
        .collect()
}

/// True when `fleet` and the serial `reference` fused the same views
/// identically.
fn same_fleet(fleet: &FleetView, reference: &FleetView) -> bool {
    fleet.labels == reference.labels
        && fleet.dropped == reference.dropped
        && fleet.per_observer == reference.per_observer
        && fleet.fused == reference.fused
        && fleet.coverage == reference.coverage
        && fleet.first_seen == reference.first_seen
        && fleet.expectation == reference.expectation
}

/// True when the fused windows are exactly the observers' snapshot
/// times, ascending and each once.
fn windows_match(fleet: &FleetView, views: &[ObserverView]) -> bool {
    let mut times: Vec<_> = views
        .iter()
        .flat_map(|v| v.snapshots.iter().map(|s| s.time))
        .collect();
    times.sort_unstable();
    times.dedup();
    fleet.fused.iter().map(|s| s.time).eq(times)
}

/// One pass: both worlds, one after the other.
pub fn pass(inputs: &Inputs, ctx: &mut PassCtx<'_>) -> Pass {
    let config = AuditConfig::default();
    let mut verdict_s = 0.0;
    let mut verdicts = Vec::new();
    let mut extra = String::new();
    for (name, scenario) in &inputs.worlds {
        let t = &mut *ctx.tracer;
        t.phase_start();
        let sim = t.span("sim.run_s", || {
            inputs.checkpoint.fork(scenario.clone()).run()
        });
        t.phase_end("sim.rss_mb");
        record_sim(t, &sim.profile);
        let index = t.span("index.build_s", || ChainIndex::build(&sim.chain));
        t.add("index.txs", index.tx_count() as f64);
        let expectation = StreamExpectation::from_run(
            scenario.duration,
            scenario.snapshot_interval,
            scenario.snapshot_detail_every,
        );
        let tip = sim.chain.tip_hash();

        for n in FLEET_SIZES {
            let t = &mut *ctx.tracer;
            let views = views(scenario, &sim, n, expectation);
            let label = format!("world {name} N={n}");
            let fleet = t.span("reconcile.s", || reconcile(&views));
            let fleet = match fleet {
                Ok(fleet) => fleet,
                Err(e) => {
                    ctx.checks.error(&format!("{label}: reconcile"), e);
                    continue;
                }
            };
            t.add(
                "reconcile.input_rows",
                views.iter().map(|v| rows(&v.snapshots)).sum::<u64>() as f64,
            );
            t.add("reconcile.fused_rows", rows(&fleet.fused) as f64);
            drop(views);

            let started = Instant::now();
            let report =
                audit_with_snapshots(&sim.chain, &index, &fleet.fused, fleet.expectation, config);
            let elapsed = started.elapsed().as_secs_f64();
            verdict_s += elapsed;
            t.add("audit.fused_s", elapsed);
            let report = match report {
                Ok(report) => report,
                Err(e) => {
                    ctx.checks.error(&format!("{label}: fused audit"), e);
                    continue;
                }
            };
            t.add("audit.findings", report.findings.len() as f64);

            ctx.outside_peak(|checks| {
                let views = self::views(scenario, &sim, n, expectation);
                checks.record(
                    &format!("{label}: fused windows vs observer snapshot times"),
                    windows_match(&fleet, &views),
                );
                let reference = match reconcile_with_pool(&views, Pool::serial()) {
                    Ok(reference) => reference,
                    Err(e) => return checks.error(&format!("{label}: serial reconcile"), e),
                };
                drop(views);
                checks.record(
                    &format!("{label}: fleet view vs serial reconcile"),
                    same_fleet(&fleet, &reference),
                );
                let label = format!("{label}: fused audit vs serial-reconcile audit");
                match audit_with_snapshots(
                    &sim.chain,
                    &index,
                    &reference.fused,
                    reference.expectation,
                    config,
                ) {
                    Ok(expected) => checks.same_report(&label, &report, &expected),
                    Err(e) => checks.error(&label, e),
                }
            });
            let _ = writeln!(
                extra,
                "{label} live {} fused rows {} first-seen {:?}",
                fleet.labels.len(),
                rows(&fleet.fused),
                fleet.first_seen
            );
            verdicts.push(Verdict::new(label, report, &tip, fleet.fused.len() as u64));
        }
    }
    Pass {
        verdict_s,
        peak_rss_mb: ctx.peak_rss_mb(),
        verdicts,
        extra,
    }
}
