//! Cross-observer reconciliation: fusing an observer *fleet* into one
//! audit-grade view.
//!
//! The paper's datasets come from single vantage points, and §7 flags the
//! obvious weakness: one node's mempool is one peer neighborhood's
//! opinion. An adversarial network — an eclipsed observer, peers that
//! selectively withhold high-fee or miner-origin transactions, spy-
//! resistant diffusion delays — can bias everything downstream (first-seen
//! times, violation pairs, dark-fee suspicion) without leaving a trace in
//! the stream itself.
//!
//! This module takes N independent observer streams and reconciles them:
//!
//! * **Fused stream** — per snapshot window, the union of every
//!   observer's rows, first-seen taken as the *minimum* across observers
//!   (the earliest time anyone saw the transaction is the best available
//!   bound on its broadcast time). A window is stamped degraded or
//!   truncated only when *every* contributing observer's window was — one
//!   healthy vantage point heals the fleet.
//! * **Disagreement statistics** — how far the observers' first-seen
//!   times spread for transactions seen by more than one of them. Large
//!   spreads are the fingerprint of selective withholding or targeted
//!   delay; a healthy fleet disagrees by network propagation jitter only.
//! * **Fused coverage** — a [`SnapshotCoverage`] over the fused stream,
//!   so [`crate::auditor::audit_with_snapshots`] can consume the fleet
//!   view exactly as it would a single observer's.
//!
//! Observers whose streams are entirely empty (hard-eclipsed from the
//! first window) are dropped and reported, not fatal: the audit proceeds
//! on whoever still saw the network. Only a fleet that is blind in *every*
//! eye refuses to audit.

use crate::auditor::{audit_with_snapshots, AuditConfig, AuditReport};
use crate::coverage::{SnapshotCoverage, StreamExpectation};
use crate::error::AuditError;
use crate::index::ChainIndex;
use cn_chain::{Chain, FastMap, Timestamp, Txid};
use cn_mempool::{MempoolSnapshot, SnapshotEntry};
use cn_stats::Pool;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One observer's contribution to the fleet: its label, its snapshot
/// stream, and what that stream was scheduled to contain.
#[derive(Clone, Debug)]
pub struct ObserverView {
    /// Human-readable vantage-point name (from the scenario config).
    pub label: String,
    /// The snapshots this observer recorded.
    pub snapshots: Vec<MempoolSnapshot>,
    /// What the stream was supposed to contain.
    pub expectation: StreamExpectation,
}

/// How much the fleet's observers disagree about when transactions first
/// appeared — the reconciliation layer's adversary detector.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FirstSeenStats {
    /// Transactions seen pending by at least one live observer.
    pub txs_union: usize,
    /// Transactions seen by *every* live observer.
    pub txs_all: usize,
    /// Transactions seen by at least two observers whose first-seen
    /// times differ.
    pub disagreements: usize,
    /// Mean first-seen spread (max − min, seconds) over transactions
    /// seen by at least two observers.
    pub mean_spread_secs: f64,
    /// Median first-seen spread over the same set.
    pub median_spread_secs: f64,
    /// Largest first-seen spread anywhere.
    pub max_spread_secs: u64,
}

/// The reconciled fleet: who contributed, who was blind, what the fused
/// stream looks like, and how much the vantage points disagreed.
#[derive(Clone, Debug)]
pub struct FleetView {
    /// Labels of observers that contributed at least one snapshot.
    pub labels: Vec<String>,
    /// Labels of observers dropped for having recorded nothing at all.
    pub dropped: Vec<String>,
    /// Per-live-observer coverage, index-aligned with `labels`.
    pub per_observer: Vec<SnapshotCoverage>,
    /// The fused snapshot stream (union rows, min first-seen).
    pub fused: Vec<MempoolSnapshot>,
    /// Coverage of the fused stream.
    pub coverage: SnapshotCoverage,
    /// Cross-observer first-seen agreement statistics.
    pub first_seen: FirstSeenStats,
    /// The fused stream's expectation (the widest of the live
    /// observers'), for feeding straight into an audit.
    pub expectation: StreamExpectation,
}

impl FleetView {
    /// Renders the reconciliation block the fleet experiment prints.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fleet: {} live observer(s){}, fused confidence {:.3}",
            self.labels.len(),
            if self.dropped.is_empty() {
                String::new()
            } else {
                format!(", {} dropped ({})", self.dropped.len(), self.dropped.join(" "))
            },
            self.coverage.confidence(),
        );
        for (label, cov) in self.labels.iter().zip(&self.per_observer) {
            let _ = writeln!(
                out,
                "  {label}: confidence {:.3}, {} degraded window(s)",
                cov.confidence(),
                cov.degraded_windows
            );
        }
        let fs = &self.first_seen;
        let _ = writeln!(
            out,
            "  first-seen: {} txs union, {} seen by all, {} disagreement(s), spread mean {:.1}s median {:.1}s max {}s",
            fs.txs_union,
            fs.txs_all,
            fs.disagreements,
            fs.mean_spread_secs,
            fs.median_spread_secs,
            fs.max_spread_secs,
        );
        out
    }
}

/// Reconciles N observer streams into one [`FleetView`].
///
/// Errors with [`AuditError::EmptySnapshotStream`] only when **every**
/// observer recorded nothing; any single surviving vantage point keeps
/// the fleet auditable (graceful degradation).
pub fn reconcile(views: &[ObserverView]) -> Result<FleetView, AuditError> {
    reconcile_with_pool(views, Pool::auto())
}

/// [`reconcile`] with an explicit fork-join width for the per-window
/// merges. The reconciliation is byte-identical at any width (the pool's
/// order-preserving join); the parameter only moves wall time, and exists
/// so the serial-vs-parallel identity property can be tested without
/// touching process-global state.
///
/// One sorted sweep: every detailed snapshot's rows are sorted by txid,
/// so each window's union is a k-way merge of its contributors' rows, and
/// one serial co-walk of the fused rows against those contributors yields
/// every per-observer first sighting and every distinct-txid count the
/// view reports.
pub fn reconcile_with_pool(views: &[ObserverView], pool: Pool) -> Result<FleetView, AuditError> {
    let (live, dead): (Vec<&ObserverView>, Vec<&ObserverView>) =
        views.iter().partition(|v| !v.snapshots.is_empty());
    if live.is_empty() {
        return Err(AuditError::EmptySnapshotStream);
    }
    let labels: Vec<String> = live.iter().map(|v| v.label.clone()).collect();
    let dropped: Vec<String> = dead.iter().map(|v| v.label.clone()).collect();

    // The fused stream promises the widest schedule any live observer
    // promised; min_coverage is the strictest floor among them.
    let expectation = StreamExpectation {
        windows: live.iter().map(|v| v.expectation.windows).max().unwrap_or(0),
        detailed: live.iter().map(|v| v.expectation.detailed).max().unwrap_or(0),
        min_coverage: live.iter().map(|v| v.expectation.min_coverage).fold(0.0, f64::max),
    };

    let windows = bucket_windows(&live);
    let fused = if let [solo] = live.as_slice() {
        // A one-eyed fleet *is* its observer: share the rows (Arc clones)
        // instead of re-merging every window's union of one.
        solo.snapshots.clone()
    } else {
        pool.map(&windows, |(time, contributors)| fuse_window(*time, contributors))
    };
    let (first_seen, txs_observed) = first_seen_sweep(live.len(), &windows, &fused);

    let per_observer = live
        .iter()
        .zip(txs_observed)
        .map(|(v, txs)| {
            let exp = v.expectation;
            SnapshotCoverage::counted(&v.snapshots, exp.windows, exp.detailed, txs)
        })
        .collect();
    // The fused detailed rows hold every txid any observer saw in detail.
    let coverage = SnapshotCoverage::counted(
        &fused,
        expectation.windows,
        expectation.detailed,
        first_seen.txs_union,
    );

    Ok(FleetView { labels, dropped, per_observer, fused, coverage, first_seen, expectation })
}

/// Reconciles the fleet and runs the standard snapshot audit over the
/// fused stream: the one-call driver for multi-vantage auditing. Returns
/// the report alongside the fleet view so callers can print both the
/// findings and the reconciliation diagnostics.
pub fn audit_with_fleet(
    chain: &Chain,
    index: &ChainIndex,
    views: &[ObserverView],
    config: AuditConfig,
) -> Result<(AuditReport, FleetView), AuditError> {
    let fleet = reconcile(views)?;
    let report = audit_with_snapshots(chain, index, &fleet.fused, fleet.expectation, config)?;
    Ok((report, fleet))
}

/// One fused window's inputs: its time and every snapshot recorded at
/// that time, tagged with the recording observer's roster index, in
/// roster then stream order.
type Window<'a> = (Timestamp, Vec<(usize, &'a MempoolSnapshot)>);

/// Groups the live streams' snapshots into fused windows, index-aligned
/// with the fused stream. A solo fleet's fused stream is its own stream,
/// so each of its snapshots is a window of its own (two snapshots with
/// one timestamp stay two windows); a larger fleet's windows are its
/// distinct snapshot times, ascending.
fn bucket_windows<'a>(live: &[&'a ObserverView]) -> Vec<Window<'a>> {
    if let [solo] = live {
        return solo.snapshots.iter().map(|s| (s.time, vec![(0, s)])).collect();
    }
    let mut by_time: BTreeMap<Timestamp, Vec<(usize, &MempoolSnapshot)>> = BTreeMap::new();
    for (obs, view) in live.iter().enumerate() {
        for snap in &view.snapshots {
            by_time.entry(snap.time).or_default().push((obs, snap));
        }
    }
    by_time.into_iter().collect()
}

/// Fuses one window of a multi-observer fleet.
fn fuse_window(time: Timestamp, contributors: &[(usize, &MempoolSnapshot)]) -> MempoolSnapshot {
    // One healthy contributor heals the window: stamps survive fusion
    // only when unanimous.
    let all_degraded = contributors.iter().all(|(_, s)| s.is_degraded());
    let detailed: Vec<&MempoolSnapshot> =
        contributors.iter().map(|&(_, s)| s).filter(|s| s.is_detailed()).collect();
    let snap = if detailed.is_empty() {
        // Light window: the biggest backlog anyone saw is the
        // least-censored aggregate available.
        let count = contributors.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
        let vsize = contributors.iter().map(|(_, s)| s.total_vsize()).max().unwrap_or(0);
        MempoolSnapshot::light(time, count, vsize)
    } else {
        let rows: Vec<&[SnapshotEntry]> = detailed.iter().map(|s| s.entries.as_slice()).collect();
        let (rows, vsize) = merge_rows(&rows);
        let merged = MempoolSnapshot::from_shared(time, Arc::new(rows), vsize);
        // Every dump was cut off, so the union is still a cut view.
        if detailed.iter().all(|s| s.is_truncated()) {
            merged.mark_truncated()
        } else {
            merged
        }
    };
    if all_degraded {
        snap.mark_degraded()
    } else {
        snap
    }
}

/// K-way merge of txid-sorted row runs into one row per distinct txid,
/// plus the merged rows' total vsize. The first run (roster order)
/// holding a txid supplies its fee and vsize; the earliest sighting wins
/// `received`, and CPFP candidacy stays flagged if any row saw the parent
/// unconfirmed (conservative for §4.2.1). Equal txids repeated within
/// one run fold the same way.
fn merge_rows(runs: &[&[SnapshotEntry]]) -> (Vec<SnapshotEntry>, u64) {
    debug_assert!(runs.iter().all(|r| r.windows(2).all(|w| w[0].txid <= w[1].txid)));
    let mut heads = vec![0usize; runs.len()];
    let mut rows = Vec::with_capacity(runs.iter().map(|r| r.len()).sum());
    let mut vsize = 0;
    loop {
        // The smallest head; ties go to the earliest run, so every run
        // before `first` has a strictly larger head (or none).
        let mut first: Option<(usize, &SnapshotEntry)> = None;
        for (run, (rows, &head)) in runs.iter().zip(&heads).enumerate() {
            if let Some(e) = rows.get(head) {
                if first.is_none_or(|(_, best)| e.txid < best.txid) {
                    first = Some((run, e));
                }
            }
        }
        let Some((first, &row)) = first else { break };
        let mut row = row;
        for (rows, head) in runs.iter().zip(&mut heads).skip(first) {
            while let Some(e) = rows.get(*head).filter(|e| e.txid == row.txid) {
                row.received = row.received.min(e.received);
                row.has_unconfirmed_parent |= e.has_unconfirmed_parent;
                *head += 1;
            }
        }
        vsize += row.vsize;
        rows.push(row);
    }
    rows.shrink_to_fit();
    (rows, vsize)
}

/// Walks each fused window's rows against its contributors' rows once,
/// serially: every fused txid gets a dense id in first-sighting order,
/// and `first[id · observers + obs]` keeps observer `obs`'s earliest
/// sighting of it. Every count the view reports derives from that table.
fn first_seen_sweep(
    observers: usize,
    windows: &[Window<'_>],
    fused: &[MempoolSnapshot],
) -> (FirstSeenStats, Vec<usize>) {
    let mut ids: FastMap<Txid, usize> = FastMap::default();
    let mut first: Vec<Option<Timestamp>> = Vec::new();
    let mut cursors: Vec<(usize, &[SnapshotEntry])> = Vec::new();
    // Consecutive windows share most rows: a forward cursor over the
    // previous detailed window's sorted rows finds their ids without
    // hashing, and only txids new since then reach the map.
    let (mut prev, mut prev_ids, mut row_ids): (&[SnapshotEntry], Vec<usize>, Vec<usize>) =
        (&[], Vec::new(), Vec::new());
    for ((_, contributors), snap) in windows.iter().zip(fused).filter(|(_, s)| s.is_detailed()) {
        row_ids.clear();
        let mut at = 0;
        cursors.clear();
        cursors.extend(
            contributors
                .iter()
                .filter(|(_, s)| s.is_detailed())
                .map(|&(obs, s)| (obs, s.entries.as_slice())),
        );
        for row in snap.entries.iter() {
            while prev.get(at).is_some_and(|p| p.txid < row.txid) {
                at += 1;
            }
            let id = match prev.get(at) {
                Some(p) if p.txid == row.txid => prev_ids[at],
                _ => {
                    let fresh = ids.len();
                    let id = *ids.entry(row.txid).or_insert(fresh);
                    if id == fresh {
                        first.resize(first.len() + observers, None);
                    }
                    id
                }
            };
            row_ids.push(id);
            let sightings = &mut first[id * observers..][..observers];
            // Every run is txid-sorted and the fused rows hold every
            // contributor txid, so each cursor only ever moves forward.
            for (obs, rest) in &mut cursors {
                while let Some((e, tail)) = rest.split_first().filter(|(e, _)| e.txid == row.txid) {
                    let t = &mut sightings[*obs];
                    *t = Some(t.map_or(e.received, |t| t.min(e.received)));
                    *rest = tail;
                }
            }
        }
        prev = &snap.entries;
        std::mem::swap(&mut prev_ids, &mut row_ids);
    }
    tally(&first, observers, ids.len())
}

/// Derives the agreement statistics and each observer's distinct-txid
/// count from the first-sighting table, which holds one row of
/// `observers` sightings per fused txid.
fn tally(
    first: &[Option<Timestamp>],
    observers: usize,
    txs_union: usize,
) -> (FirstSeenStats, Vec<usize>) {
    let mut txs_observed = vec![0; observers];
    let mut txs_all = 0;
    let mut spreads: Vec<u64> = Vec::new();
    for sightings in first.chunks_exact(observers) {
        let mut seen_by = 0;
        let (mut min, mut max) = (Timestamp::MAX, Timestamp::MIN);
        for (count, t) in txs_observed.iter_mut().zip(sightings) {
            if let Some(t) = *t {
                *count += 1;
                seen_by += 1;
                min = min.min(t);
                max = max.max(t);
            }
        }
        if seen_by == observers {
            txs_all += 1;
        }
        if seen_by >= 2 {
            spreads.push(max - min);
        }
    }
    spreads.sort_unstable();
    let disagreements = spreads.iter().filter(|s| **s > 0).count();
    let mean_spread_secs = if spreads.is_empty() {
        0.0
    } else {
        spreads.iter().sum::<u64>() as f64 / spreads.len() as f64
    };
    let median_spread_secs = if spreads.is_empty() {
        0.0
    } else if spreads.len().is_multiple_of(2) {
        (spreads[spreads.len() / 2 - 1] + spreads[spreads.len() / 2]) as f64 / 2.0
    } else {
        spreads[spreads.len() / 2] as f64
    };
    let max_spread_secs = spreads.last().copied().unwrap_or(0);

    let stats = FirstSeenStats {
        txs_union,
        txs_all,
        disagreements,
        mean_spread_secs,
        median_spread_secs,
        max_spread_secs,
    };
    (stats, txs_observed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::Amount;

    fn entry(seed: u8, received: Timestamp) -> SnapshotEntry {
        SnapshotEntry {
            txid: Txid::from([seed; 32]),
            received,
            fee: Amount::from_sat(1_000),
            vsize: 100,
            has_unconfirmed_parent: false,
        }
    }

    fn view(label: &str, snapshots: Vec<MempoolSnapshot>, windows: u64) -> ObserverView {
        ObserverView {
            label: label.into(),
            snapshots,
            expectation: StreamExpectation { windows, detailed: windows, min_coverage: 0.0 },
        }
    }

    #[test]
    fn all_empty_fleet_refuses_to_audit() {
        let views = vec![view("a", Vec::new(), 4), view("b", Vec::new(), 4)];
        assert_eq!(reconcile(&views).expect_err("blind fleet"), AuditError::EmptySnapshotStream);
    }

    #[test]
    fn empty_observers_are_dropped_not_fatal() {
        let snaps = vec![MempoolSnapshot::from_entries(15, vec![entry(1, 10)])];
        let views = vec![view("alive", snaps, 1), view("eclipsed", Vec::new(), 1)];
        let fleet = reconcile(&views).expect("one live eye suffices");
        assert_eq!(fleet.labels, vec!["alive".to_string()]);
        assert_eq!(fleet.dropped, vec!["eclipsed".to_string()]);
        assert_eq!(fleet.fused.len(), 1);
        assert!(fleet.render().contains("1 dropped"));
    }

    #[test]
    fn fusion_takes_union_rows_and_min_first_seen() {
        // Observer a sees tx1 at 10 and tx2 at 20; observer b sees tx1
        // later (withheld) and tx3 that a never saw.
        let a = view(
            "a",
            vec![MempoolSnapshot::from_entries(15, vec![entry(1, 10), entry(2, 20)])],
            1,
        );
        let b = view(
            "b",
            vec![MempoolSnapshot::from_entries(15, vec![entry(1, 14), entry(3, 12)])],
            1,
        );
        let fleet = reconcile(&[a, b]).expect("reconciles");
        assert_eq!(fleet.fused.len(), 1);
        let fused = &fleet.fused[0];
        assert_eq!(fused.len(), 3, "union of rows");
        let tx1 = fused.entries.iter().find(|e| e.txid == Txid::from([1; 32])).expect("tx1");
        assert_eq!(tx1.received, 10, "earliest sighting wins");
        let fs = fleet.first_seen;
        assert_eq!(fs.txs_union, 3);
        assert_eq!(fs.txs_all, 1, "only tx1 seen by both");
        assert_eq!(fs.disagreements, 1);
        assert_eq!(fs.max_spread_secs, 4);
        assert!((fs.mean_spread_secs - 4.0).abs() < 1e-12);
        assert!((fs.median_spread_secs - 4.0).abs() < 1e-12);
    }

    #[test]
    fn one_healthy_observer_heals_degraded_windows() {
        let healthy = view("h", vec![MempoolSnapshot::from_entries(15, vec![entry(1, 10)])], 1);
        let eclipsed = view(
            "e",
            vec![MempoolSnapshot::from_entries(15, vec![entry(2, 11)]).mark_degraded()],
            1,
        );
        let fleet = reconcile(&[healthy, eclipsed]).expect("reconciles");
        assert!(!fleet.fused[0].is_degraded(), "one healthy eye heals the window");
        assert_eq!(fleet.coverage.degraded_windows, 0);
        assert_eq!(fleet.per_observer[1].degraded_windows, 1, "per-observer stamp kept");

        // Unanimously degraded windows stay stamped.
        let e1 = view(
            "e1",
            vec![MempoolSnapshot::from_entries(15, vec![entry(1, 10)]).mark_degraded()],
            1,
        );
        let e2 = view(
            "e2",
            vec![MempoolSnapshot::from_entries(15, vec![entry(2, 11)]).mark_degraded()],
            1,
        );
        let fleet = reconcile(&[e1, e2]).expect("reconciles");
        assert!(fleet.fused[0].is_degraded());
        assert_eq!(fleet.coverage.degraded_windows, 1);
    }

    #[test]
    fn light_windows_fuse_to_widest_backlog() {
        let a = view("a", vec![MempoolSnapshot::light(30, 10, 2_000)], 1);
        let b = view("b", vec![MempoolSnapshot::light(30, 25, 5_000)], 1);
        let fleet = reconcile(&[a, b]).expect("reconciles");
        assert!(!fleet.fused[0].is_detailed());
        assert_eq!(fleet.fused[0].len(), 25);
        assert_eq!(fleet.fused[0].total_vsize(), 5_000);
    }

    #[test]
    fn truncation_survives_only_when_unanimous() {
        let full = MempoolSnapshot::from_entries(15, vec![entry(1, 10), entry(2, 11)]);
        let cut = full.truncate_detail(0.5);
        assert!(cut.is_truncated());
        let fleet =
            reconcile(&[view("a", vec![full.clone()], 1), view("b", vec![cut.clone()], 1)])
                .expect("reconciles");
        assert!(!fleet.fused[0].is_truncated(), "the full dump heals the cut one");
        let fleet = reconcile(&[view("a", vec![cut.clone()], 1), view("b", vec![cut], 1)])
            .expect("reconciles");
        assert!(fleet.fused[0].is_truncated(), "everyone cut: still a cut view");
    }

    #[test]
    fn fleet_expectation_is_the_widest_promise() {
        let snaps = vec![MempoolSnapshot::from_entries(15, vec![entry(1, 10)])];
        let mut a = view("a", snaps.clone(), 3);
        a.expectation.min_coverage = 0.25;
        let b = view("b", snaps, 7);
        let fleet = reconcile(&[a, b]).expect("reconciles");
        assert_eq!(fleet.expectation.windows, 7);
        assert_eq!(fleet.expectation.min_coverage, 0.25);
    }
}
