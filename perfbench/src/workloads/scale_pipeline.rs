//! `scale_pipeline`: the bounded-memory disk path. Dataset-M at about
//! 5,000 blocks through `World::run_streamed` into a `LogWriter` on a
//! temporary file, then a `LogReader` replay into a `SpilledAuditor`
//! and its exact verdict.
//!
//! Set-up builds the topology and funding checkpoint. A pass runs the
//! pipeline in three RSS phases (sim, replay, verdict), reads the pass's
//! peak, and only then runs its oracle: a plain `StreamingAuditor`
//! replay of the same log, whose verdict the spilled one must equal.

use super::{record_sim, Pass, PassCtx, Size};
use crate::trace::Tracer;
use crate::verdict::Verdict;
use cn_chain::{Block, BlockHash, Hash256, Transaction};
use cn_core::streaming::{StreamingAuditor, StreamingConfig};
use cn_core::{SpilledAuditor, StreamExpectation};
use cn_data::dataset_mega;
use cn_data::log::{LogEvent, LogReader, LogWriter};
use cn_mempool::MempoolSnapshot;
use cn_sim::{EventSink, Scenario, WorldCheckpoint};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Dataset-M block target at the standard size.
const TARGET_BLOCKS: u64 = 5_000;

/// Blocks per event-log segment.
const LOG_EPOCH_BLOCKS: u64 = 50;

/// Sealed heights per digest-spill checkpoint.
const SPILL_EPOCH_BLOCKS: u64 = 16;

/// The scenario, its checkpoint and where the pass keeps its files.
pub struct Inputs {
    scenario: Scenario,
    checkpoint: WorldCheckpoint,
    expectation: StreamExpectation,
    log_path: PathBuf,
    spill_path: PathBuf,
}

/// Derives a scenario seed from a dataset's own seed and the workload
/// seed (SplitMix64 finalizer), so every workload seed gives distinct,
/// reproducible inputs.
fn scenario_seed(dataset_seed: u64, workload_seed: u64) -> u64 {
    let mut z = dataset_seed ^ workload_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds dataset-M under a scenario seed derived from `seed`. At about
/// 5,000 blocks the run is long enough for its size to be steady across
/// scenario seeds.
pub fn setup(seed: u64, size: Size, scratch: &Path) -> Inputs {
    let target = match size {
        Size::Standard => TARGET_BLOCKS,
        Size::Tiny => 60,
    };
    let mut scenario = dataset_mega(target);
    scenario.seed = scenario_seed(scenario.seed, seed);
    let expectation = StreamExpectation::from_run(
        scenario.duration,
        scenario.snapshot_interval,
        scenario.snapshot_detail_every,
    );
    let checkpoint = WorldCheckpoint::new(&scenario);
    Inputs {
        scenario,
        checkpoint,
        expectation,
        log_path: scratch.join("events.evlog"),
        spill_path: scratch.join("digest.spill"),
    }
}

/// An [`EventSink`] that times every call into the wrapped log writer.
struct TimedSink<'a, S> {
    inner: &'a mut S,
    seconds: f64,
    enabled: bool,
}

impl<S: EventSink> TimedSink<'_, S> {
    fn timed(&mut self, f: impl FnOnce(&mut S)) {
        if self.enabled {
            let started = Instant::now();
            f(self.inner);
            self.seconds += started.elapsed().as_secs_f64();
        } else {
            f(self.inner);
        }
    }
}

impl<S: EventSink> EventSink for TimedSink<'_, S> {
    fn on_start(&mut self, seeds: &[Transaction]) {
        self.timed(|s| s.on_start(seeds));
    }

    fn on_block(&mut self, block: &Block) {
        self.timed(|s| s.on_block(block));
    }

    fn on_snapshot(&mut self, snapshot: &MempoolSnapshot) {
        self.timed(|s| s.on_snapshot(snapshot));
    }
}

fn open_log(path: &Path) -> Result<LogReader<BufReader<File>>, String> {
    let file = File::open(path).map_err(|e| format!("reopen event log: {e}"))?;
    LogReader::new(BufReader::new(file)).map_err(|e| format!("event log header: {e}"))
}

/// Replays the log through `push`, timing decode and push separately.
/// Returns the tip hash and the snapshot count.
fn replay(
    reader: &mut LogReader<BufReader<File>>,
    t: &mut Tracer,
    mut push: impl FnMut(&LogEvent) -> Result<(), String>,
) -> Result<(BlockHash, u64), String> {
    let mut tip = BlockHash(Hash256([0; 32]));
    let mut snapshots = 0;
    loop {
        let event = t.span("log.decode_s", || reader.next_event());
        let Some(event) = event.map_err(|e| format!("event log replay: {e}"))? else {
            break;
        };
        match &event {
            LogEvent::Block(b) => tip = b.block_hash(),
            LogEvent::Snapshot(_) => snapshots += 1,
        }
        t.span("spill.push_s", || push(&event))?;
    }
    Ok((tip, snapshots))
}

/// One pass of the pipeline and its oracle.
pub fn pass(inputs: &Inputs, ctx: &mut PassCtx<'_>) -> Result<Pass, String> {
    let result = pipeline(inputs, ctx);
    // The files are scratch: remove them whatever happened.
    let _ = std::fs::remove_file(&inputs.log_path);
    let _ = std::fs::remove_file(&inputs.spill_path);
    result
}

fn pipeline(inputs: &Inputs, ctx: &mut PassCtx<'_>) -> Result<Pass, String> {
    let t = &mut *ctx.tracer;

    // Phase 1: simulate, streaming the canonical events into the log.
    t.phase_start();
    let file = File::create(&inputs.log_path).map_err(|e| format!("create event log: {e}"))?;
    let mut writer = LogWriter::new(BufWriter::new(file), LOG_EPOCH_BLOCKS);
    let mut sink = TimedSink {
        inner: &mut writer,
        seconds: 0.0,
        enabled: t.enabled(),
    };
    let world = inputs.checkpoint.fork(inputs.scenario.clone());
    // The sink's encode calls run inside `run_streamed`; they count as
    // log.encode_s, not as simulator time.
    let started = Instant::now();
    let summary = world.run_streamed(&mut sink);
    let encode_s = sink.seconds;
    t.add("sim.run_s", started.elapsed().as_secs_f64() - encode_s);
    let stats = t
        .span("log.encode_s", || writer.finish())
        .map_err(|e| format!("finish event log: {e}"))?;
    t.add("log.encode_s", encode_s);
    t.phase_end("sim.rss_mb");
    record_sim(t, &summary.profile);
    t.add("log.bytes", stats.bytes as f64);
    t.add("log.blocks", stats.blocks as f64);
    t.add("log.segments", stats.segments as f64);

    // Phase 2: replay the log into the spilled auditor.
    t.phase_start();
    let mut reader = open_log(&inputs.log_path)?;
    let store = File::options()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(&inputs.spill_path)
        .map_err(|e| format!("create spill store: {e}"))?;
    let mut spilled = SpilledAuditor::new(
        StreamingAuditor::new(
            reader.initial_utxos(),
            StreamingConfig::new(inputs.expectation),
        ),
        store,
        SPILL_EPOCH_BLOCKS,
    );
    let (tip, snapshots) = replay(&mut reader, t, |event| match event {
        LogEvent::Block(b) => spilled
            .push_block(b)
            .map_err(|e| format!("spilled push: {e}")),
        LogEvent::Snapshot(s) => {
            spilled.push_snapshot(s);
            Ok(())
        }
    })?;
    t.phase_end("spill.replay_rss_mb");
    t.add("spill.bytes", spilled.spilled_bytes() as f64);
    t.add("spill.segments", spilled.spilled_segments() as f64);

    // Phase 3: the exact verdict from the spilled digest.
    t.phase_start();
    let started = Instant::now();
    let verdict = spilled.verdict();
    let verdict_s = started.elapsed().as_secs_f64();
    t.phase_end("spill.verdict_rss_mb");
    t.add("spill.verdict_s", verdict_s);
    let peak_rss_mb = ctx.peak_rss_mb();
    drop(spilled);

    let label = "spilled verdict vs plain replay";
    let report = verdict.map_err(|e| format!("spilled verdict: {e}"))?;

    // Oracle: the same log through a plain, unspilled auditor. Its calls
    // are oracle work, so they stay outside the layer spans.
    let mut reader = open_log(&inputs.log_path)?;
    let mut plain = StreamingAuditor::new(
        reader.initial_utxos(),
        StreamingConfig::new(inputs.expectation),
    );
    replay(&mut reader, &mut Tracer::off(), |event| {
        let pushed = match event {
            LogEvent::Block(b) => plain.push_block(b),
            LogEvent::Snapshot(s) => {
                plain.push_snapshot(s);
                Ok(())
            }
        };
        pushed.map_err(|e| format!("plain replay: {e}"))
    })?;
    match plain.verdict() {
        Ok(expected) => ctx.checks.same_report(label, &report, &expected),
        Err(e) => ctx.checks.error(label, e),
    }

    let extra = format!(
        "blocks {} snapshots {} log bytes {} segments {}",
        summary.blocks, summary.snapshots, stats.bytes, stats.segments
    );
    let verdicts = vec![Verdict::new("dataset M".into(), report, &tip, snapshots)];
    Ok(Pass {
        verdict_s,
        peak_rss_mb,
        verdicts,
        extra,
    })
}
