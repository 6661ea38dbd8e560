//! `audit_batch`: the paper's own analysis path (Tables 2–4, Figs 6–7)
//! over in-memory snapshot rows of the quick 𝒜, ℬ and 𝒞 datasets.
//!
//! Set-up simulates the three datasets from their calibrated scenarios.
//! A pass runs, per dataset: the chain index, the batch audit, the
//! Figure-6 violation-pair counts over every detailed snapshot, the
//! windowed prioritization test per top pool, and a streaming replay
//! whose exact verdict must equal the batch one. The simulator does none
//! of the timed work.
//!
//! The workload seed draws the streaming replay's delivery order: every
//! block and snapshot arrives up to [`MAX_DELAY_SECS`] late, each source
//! keeping its own order, as over a network. The exact verdict must not
//! depend on it. The seed does not reseed the simulations: a quick
//! dataset spans 36–72 blocks, too few for its backlog (and with it the
//! rows, pairs and memory of a pass) to be steady across scenario seeds.
//!
//! `verdict_s` sums, per dataset, the batch path's time from complete
//! inputs to its report (index plus audit) and the streaming path's time
//! from the last ingested event to its exact verdict.
//!
//! On a traced pass the batch audit is composed from its parts
//! (coverage, attribution, self-interest, `audit_attributed`), each timed
//! on its own; the runner checks the composed report against the
//! untraced pass's `audit_with_snapshots` report.

use super::{record_sim, Pass, PassCtx, Size, TINY_SECONDS};
use crate::trace::Tracer;
use crate::verdict::Verdict;
use cn_chain::{Block, Chain, Timestamp};
use cn_core::coverage::SnapshotCoverage;
use cn_core::pairs::{count_violations_cdq, PairObservation, PairStats};
use cn_core::self_interest::find_self_interest_transactions;
use cn_core::streaming::{StreamEvent, StreamingAuditor, StreamingConfig};
use cn_core::{
    attribute, audit_attributed, audit_with_snapshots, windowed_prioritization, Attribution,
    AuditConfig, AuditError, AuditReport, ChainIndex, StreamExpectation,
};
use cn_data::{dataset_a, dataset_b, dataset_c, Scale};
use cn_mempool::MempoolSnapshot;
use cn_sim::{Scenario, SimOutput, World};
use cn_stats::SimRng;
use std::fmt::Write as _;
use std::time::Instant;

/// The Figure-6 ε margins, in seconds.
const EPSILONS: [u64; 3] = [0, 10, 600];

/// Height windows of the §5.1.3 windowed test.
const WINDOWS: usize = 4;

/// Largest delivery delay of the streaming replay, in seconds.
const MAX_DELAY_SECS: u64 = 120;

/// One simulated dataset.
pub struct Dataset {
    name: &'static str,
    out: SimOutput,
    expectation: StreamExpectation,
}

/// The three simulated datasets and the replay seed.
pub struct Inputs {
    datasets: Vec<Dataset>,
    seed: u64,
}

/// A dataset's scenario constructor.
type Ctor = fn(Scale) -> Scenario;

/// Simulates quick 𝒜, ℬ and 𝒞.
pub fn setup(seed: u64, size: Size, tracer: &mut Tracer) -> Inputs {
    let ctors: [(&'static str, Ctor); 3] = [("A", dataset_a), ("B", dataset_b), ("C", dataset_c)];
    let datasets = ctors
        .into_iter()
        .map(|(name, ctor)| {
            let mut scenario = ctor(Scale::Quick);
            if size == Size::Tiny {
                scenario.duration = TINY_SECONDS;
            }
            let expectation = StreamExpectation::from_run(
                scenario.duration,
                scenario.snapshot_interval,
                scenario.snapshot_detail_every,
            );
            tracer.phase_start();
            let out = tracer.span("sim.run_s", || World::new(scenario).run());
            tracer.phase_end("sim.rss_mb");
            record_sim(tracer, &out.profile);
            Dataset {
                name,
                out,
                expectation,
            }
        })
        .collect();
    Inputs { datasets, seed }
}

/// One pass over the three datasets.
pub fn pass(inputs: &Inputs, ctx: &mut PassCtx<'_>) -> Pass {
    let config = AuditConfig::default();
    let mut verdict_s = 0.0;
    let mut verdicts = Vec::with_capacity(inputs.datasets.len());
    let mut extra = String::new();
    for d in &inputs.datasets {
        let (chain, snapshots) = (&d.out.chain, &d.out.snapshots);
        let t = &mut *ctx.tracer;
        // The batch path's time to verdict runs from complete inputs.
        let batch_started = Instant::now();
        let index = t.span("index.build_s", || ChainIndex::build(chain));
        t.add("index.txs", index.tx_count() as f64);

        let batch = if t.enabled() {
            composed_audit(chain, &index, snapshots, d.expectation, config, t)
        } else {
            audit_with_snapshots(chain, &index, snapshots, d.expectation, config)
        };
        verdict_s += batch_started.elapsed().as_secs_f64();
        let batch = match batch {
            Ok(report) => report,
            Err(e) => {
                ctx.checks
                    .error(&format!("dataset {}: batch audit", d.name), e);
                continue;
            }
        };
        t.add("audit.findings", batch.findings.len() as f64);

        let pairs = t.span("pairs.s", || fig6_pairs(snapshots, &index));
        t.add("pairs.observations", pairs.observations as f64);
        for stats in &pairs.stats {
            t.add("pairs.candidates", stats.candidates as f64);
            t.add("pairs.violating", stats.violating as f64);
        }
        let _ = writeln!(extra, "{} pairs {:?}", d.name, pairs.stats);

        let windowed = t.span("prioritization.windowed_s", || {
            windowed_tests(chain, &index, &batch.attribution, config)
        });
        t.add("prioritization.tests", windowed.len() as f64);
        let _ = writeln!(extra, "{} windowed {windowed:?}", d.name);

        // Streaming replay of the canonical event stream.
        let mut auditor =
            StreamingAuditor::new(chain.initial_utxos(), StreamingConfig::new(d.expectation));
        let mut rng = SimRng::seed_from_u64(inputs.seed).fork(d.name);
        let events = delivery_order(chain.blocks(), snapshots, &mut rng);
        let pushed = t.span("stream.push_s", || {
            events.iter().try_for_each(|ev| auditor.push_event(ev))
        });
        // The streaming path's time to verdict runs from the last event.
        let started = Instant::now();
        let streamed = pushed.and_then(|()| auditor.verdict());
        let elapsed = started.elapsed().as_secs_f64();
        verdict_s += elapsed;
        t.add("stream.verdict_s", elapsed);
        let counters = auditor.counters();
        t.add("stream.events", counters.events as f64);
        t.add("stream.rows", counters.rows_processed as f64);
        t.max("stream.peak_window_rows", counters.peak_window_rows as f64);
        let label = format!("dataset {}: streaming verdict vs batch", d.name);
        match streamed {
            Ok(report) => ctx.checks.same_report(&label, &report, &batch),
            Err(e) => ctx.checks.error(&label, e),
        }

        verdicts.push(Verdict::new(
            format!("dataset {}", d.name),
            batch,
            &chain.tip_hash(),
            snapshots.len() as u64,
        ));
    }
    Pass {
        verdict_s,
        peak_rss_mb: ctx.peak_rss_mb(),
        verdicts,
        extra,
    }
}

/// `audit_with_snapshots`, called one part at a time so each part gets
/// its own span.
fn composed_audit(
    chain: &Chain,
    index: &ChainIndex,
    snapshots: &[MempoolSnapshot],
    expectation: StreamExpectation,
    config: AuditConfig,
    t: &mut Tracer,
) -> Result<AuditReport, AuditError> {
    if snapshots.is_empty() {
        return Err(AuditError::EmptySnapshotStream);
    }
    let coverage = t.span("coverage.assess_s", || {
        SnapshotCoverage::assess(snapshots, expectation.windows, expectation.detailed)
            .with_chain(snapshots, index)
    });
    let confidence = coverage.confidence();
    if confidence < expectation.min_coverage {
        return Err(AuditError::InsufficientCoverage {
            coverage: confidence,
            required: expectation.min_coverage,
        });
    }
    let attribution = t.span("attribution.s", || attribute(index));
    let self_map = t.span("self_interest.s", || {
        find_self_interest_transactions(chain, &attribution)
    });
    let mut report = t.span("audit.core_s", || {
        audit_attributed(index, attribution, &self_map, config)
    });
    report.coverage = Some(coverage);
    Ok(report)
}

/// Figure-6 pair counts summed over every detailed snapshot, for each
/// (CPFP filter, ε) combination.
struct Fig6 {
    /// Index `[exclude_cpfp as usize * 3 + ε index]`.
    stats: [PairStats; 6],
    /// Observations built (each snapshot counted once per filter).
    observations: u64,
}

fn fig6_pairs(snapshots: &[MempoolSnapshot], index: &ChainIndex) -> Fig6 {
    let mut fig = Fig6 {
        stats: [PairStats::default(); 6],
        observations: 0,
    };
    let mut obs: Vec<PairObservation> = Vec::new();
    for snap in snapshots.iter().filter(|s| s.is_detailed()) {
        for exclude_cpfp in [false, true] {
            obs.clear();
            obs.extend(snap.entries.iter().filter_map(|e| {
                let rec = index.record(&e.txid)?;
                if exclude_cpfp && (rec.is_cpfp || e.has_unconfirmed_parent) {
                    return None;
                }
                Some(PairObservation {
                    received: e.received,
                    fee_rate: e.fee_rate(),
                    height: rec.height,
                })
            }));
            fig.observations += obs.len() as u64;
            for (k, &eps) in EPSILONS.iter().enumerate() {
                let s = count_violations_cdq(&obs, eps);
                let slot = &mut fig.stats[usize::from(exclude_cpfp) * 3 + k];
                slot.violating += s.violating;
                slot.candidates += s.candidates;
                slot.total_pairs += s.total_pairs;
            }
        }
    }
    fig
}

/// The windowed self-acceleration test for every top pool with enough
/// self-interest transactions: `(pool, x, y, p_accelerate)` per test.
fn windowed_tests(
    chain: &Chain,
    index: &ChainIndex,
    attribution: &Attribution,
    config: AuditConfig,
) -> Vec<(String, u64, u64, f64)> {
    let self_map = find_self_interest_transactions(chain, attribution);
    attribution
        .top(config.top_k)
        .iter()
        .filter_map(|pool| {
            let c_txids = self_map
                .of(&pool.name)
                .filter(|c| c.len() >= config.min_c_txs)?;
            let test = windowed_prioritization(index, c_txids, &pool.name, WINDOWS)?;
            Some((pool.name.clone(), test.x, test.y, test.p_accelerate))
        })
        .collect()
}

/// The replay's delivery order: each event arrives up to
/// [`MAX_DELAY_SECS`] after its timestamp, never before the previous
/// event of its own source, and blocks go first on ties.
fn delivery_order<'a>(
    blocks: &'a [Block],
    snapshots: &'a [MempoolSnapshot],
    rng: &mut SimRng,
) -> Vec<StreamEvent<'a>> {
    let mut arrivals = |times: &mut dyn Iterator<Item = Timestamp>| -> Vec<Timestamp> {
        let mut last = 0;
        times
            .map(|t| {
                last = (t + rng.next_below(MAX_DELAY_SECS + 1)).max(last);
                last
            })
            .collect()
    };
    let block_at = arrivals(&mut blocks.iter().map(|b| b.header.time));
    let snapshot_at = arrivals(&mut snapshots.iter().map(|s| s.time));
    let mut events = Vec::with_capacity(blocks.len() + snapshots.len());
    let (mut bi, mut si) = (0, 0);
    while bi < blocks.len() || si < snapshots.len() {
        if si == snapshots.len() || (bi < blocks.len() && block_at[bi] <= snapshot_at[si]) {
            events.push(StreamEvent::Block(&blocks[bi]));
            bi += 1;
        } else {
            events.push(StreamEvent::Snapshot(&snapshots[si]));
            si += 1;
        }
    }
    events
}
