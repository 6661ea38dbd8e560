//! The sorted-sweep reconciliation against a hash-map reference.
//!
//! `reference` below is the straightforward fold `reconcile` replaced:
//! each window's union in a `FastMap` keyed by txid and then re-sorted,
//! one first-seen map per observer, and a distinct-txid set per coverage
//! assessment. It lives here, outside the public API, as the test oracle.
//! Every field of the fleet view must match it exactly, over fleets with
//! duplicate txids inside one snapshot, several snapshots at one time
//! from one observer, truncated, degraded, light and mixed windows, blind
//! observers and solo fleets.

use cn_chain::{Amount, FastMap, Timestamp, Txid};
use cn_core::reconcile::{
    reconcile, reconcile_with_pool, FirstSeenStats, FleetView, ObserverView,
};
use cn_core::{AuditError, SnapshotCoverage, StreamExpectation};
use cn_mempool::{MempoolSnapshot, SnapshotEntry};
use cn_stats::Pool;
use proptest::prelude::*;
use std::collections::BTreeMap;

mod reference {
    use super::*;

    pub fn reconcile(views: &[ObserverView]) -> Result<FleetView, AuditError> {
        let (live, dead): (Vec<&ObserverView>, Vec<&ObserverView>) =
            views.iter().partition(|v| !v.snapshots.is_empty());
        if live.is_empty() {
            return Err(AuditError::EmptySnapshotStream);
        }
        let per_observer = live
            .iter()
            .map(|v| {
                let exp = v.expectation;
                SnapshotCoverage::assess(&v.snapshots, exp.windows, exp.detailed)
            })
            .collect();
        let expectation = StreamExpectation {
            windows: live.iter().map(|v| v.expectation.windows).max().unwrap_or(0),
            detailed: live.iter().map(|v| v.expectation.detailed).max().unwrap_or(0),
            min_coverage: live.iter().map(|v| v.expectation.min_coverage).fold(0.0, f64::max),
        };
        let fused = fuse_streams(&live);
        let coverage = SnapshotCoverage::assess(&fused, expectation.windows, expectation.detailed);
        Ok(FleetView {
            labels: live.iter().map(|v| v.label.clone()).collect(),
            dropped: dead.iter().map(|v| v.label.clone()).collect(),
            per_observer,
            fused,
            coverage,
            first_seen: first_seen_stats(&live),
            expectation,
        })
    }

    fn fuse_streams(live: &[&ObserverView]) -> Vec<MempoolSnapshot> {
        if let [solo] = live {
            return solo.snapshots.clone();
        }
        let mut by_time: BTreeMap<Timestamp, Vec<&MempoolSnapshot>> = BTreeMap::new();
        for view in live {
            for snap in &view.snapshots {
                by_time.entry(snap.time).or_default().push(snap);
            }
        }
        by_time
            .into_iter()
            .map(|(time, contributors)| {
                let detailed: Vec<&MempoolSnapshot> =
                    contributors.iter().copied().filter(|s| s.is_detailed()).collect();
                let snap = if detailed.is_empty() {
                    let count = contributors.iter().map(|s| s.len()).max().unwrap_or(0);
                    let vsize = contributors.iter().map(|s| s.total_vsize()).max().unwrap_or(0);
                    MempoolSnapshot::light(time, count, vsize)
                } else {
                    let mut rows: FastMap<Txid, SnapshotEntry> = FastMap::default();
                    for s in &detailed {
                        for e in s.entries.iter() {
                            rows.entry(e.txid)
                                .and_modify(|kept| {
                                    kept.received = kept.received.min(e.received);
                                    kept.has_unconfirmed_parent |= e.has_unconfirmed_parent;
                                })
                                .or_insert(*e);
                        }
                    }
                    let merged = MempoolSnapshot::from_entries(time, rows.into_values().collect());
                    if detailed.iter().all(|s| s.is_truncated()) {
                        merged.truncate_detail(1.0)
                    } else {
                        merged
                    }
                };
                if contributors.iter().all(|s| s.is_degraded()) {
                    snap.mark_degraded()
                } else {
                    snap
                }
            })
            .collect()
    }

    fn first_seen_stats(live: &[&ObserverView]) -> FirstSeenStats {
        let mut sightings: FastMap<Txid, (Timestamp, Timestamp, usize)> = FastMap::default();
        for view in live {
            let mut first: FastMap<Txid, Timestamp> = FastMap::default();
            for snap in view.snapshots.iter().filter(|s| s.is_detailed()) {
                for e in snap.entries.iter() {
                    first
                        .entry(e.txid)
                        .and_modify(|t| *t = (*t).min(e.received))
                        .or_insert(e.received);
                }
            }
            for (txid, t) in first {
                sightings
                    .entry(txid)
                    .and_modify(|(min, max, n)| {
                        *min = (*min).min(t);
                        *max = (*max).max(t);
                        *n += 1;
                    })
                    .or_insert((t, t, 1));
            }
        }
        let mut spreads: Vec<u64> =
            sightings.values().filter(|(_, _, n)| *n >= 2).map(|(min, max, _)| max - min).collect();
        spreads.sort_unstable();
        let n = spreads.len();
        FirstSeenStats {
            txs_union: sightings.len(),
            txs_all: sightings.values().filter(|(_, _, n)| *n == live.len()).count(),
            disagreements: spreads.iter().filter(|s| **s > 0).count(),
            mean_spread_secs: if n == 0 {
                0.0
            } else {
                spreads.iter().sum::<u64>() as f64 / n as f64
            },
            median_spread_secs: match n {
                0 => 0.0,
                _ if n.is_multiple_of(2) => (spreads[n / 2 - 1] + spreads[n / 2]) as f64 / 2.0,
                _ => spreads[n / 2] as f64,
            },
            max_spread_secs: spreads.last().copied().unwrap_or(0),
        }
    }
}

fn assert_same(got: &FleetView, want: &FleetView, what: &str) {
    assert_eq!(got.labels, want.labels, "{what}: labels");
    assert_eq!(got.dropped, want.dropped, "{what}: dropped");
    assert_eq!(got.fused, want.fused, "{what}: fused");
    assert_eq!(got.per_observer, want.per_observer, "{what}: per_observer");
    assert_eq!(got.coverage, want.coverage, "{what}: coverage");
    assert_eq!(got.first_seen, want.first_seen, "{what}: first_seen");
    assert_eq!(got.expectation, want.expectation, "{what}: expectation");
}

/// Runs `reconcile` (at its default width, serially and at width 3)
/// against the reference and demands identical outcomes.
fn check(views: &[ObserverView]) {
    let want = reference::reconcile(views);
    let runs = [
        ("reconcile", reconcile(views)),
        ("width 1", reconcile_with_pool(views, Pool::serial())),
        ("width 3", reconcile_with_pool(views, Pool::with_workers(3))),
    ];
    for (what, got) in runs {
        match (&got, &want) {
            (Ok(got), Ok(want)) => assert_same(got, want, what),
            (Err(got), Err(want)) => assert_eq!(got, want, "{what}"),
            _ => panic!("{what}: got ok={}, want ok={}", got.is_ok(), want.is_ok()),
        }
    }
}

/// Rows over a small txid alphabet, so observers share rows and one
/// snapshot can carry a txid twice; fee, vsize and the parent flag vary
/// per row, so whose row supplies them is visible.
fn entry_strategy() -> impl Strategy<Value = SnapshotEntry> {
    (0u8..12, 0u64..400, 1_000u64..50_000, 100u64..400, any::<bool>()).prop_map(
        |(seed, received, fee, vsize, parent)| SnapshotEntry {
            txid: Txid::from([seed; 32]),
            received,
            fee: Amount::from_sat(fee),
            vsize,
            has_unconfirmed_parent: parent,
        },
    )
}

/// One snapshot at one of four times (so one observer often records two
/// at the same time): detailed, cut partway, stamped truncated with every
/// row kept, or light; any of them possibly degraded.
fn snapshot_strategy() -> impl Strategy<Value = MempoolSnapshot> {
    (
        0u64..4,
        proptest::collection::vec(entry_strategy(), 0..7),
        0u8..5,
        0.0f64..1.0,
        any::<bool>(),
        0usize..50,
        0u64..20_000,
    )
        .prop_map(|(slot, rows, kind, keep, degraded, count, vsize)| {
            let time = 300 + slot * 600;
            let snap = match kind {
                0 | 1 => MempoolSnapshot::from_entries(time, rows),
                2 => MempoolSnapshot::from_entries(time, rows).truncate_detail(keep),
                3 => MempoolSnapshot::from_entries(time, rows).truncate_detail(1.0),
                _ => MempoolSnapshot::light(time, count, vsize),
            };
            if degraded {
                snap.mark_degraded()
            } else {
                snap
            }
        })
}

/// One observer; an empty stream is a blind observer.
fn view_strategy() -> impl Strategy<Value = Vec<MempoolSnapshot>> {
    proptest::collection::vec(snapshot_strategy(), 0..7)
}

fn views(streams: Vec<Vec<MempoolSnapshot>>, promise: u64) -> Vec<ObserverView> {
    streams
        .into_iter()
        .enumerate()
        .map(|(i, snapshots)| ObserverView {
            label: format!("obs-{i}"),
            snapshots,
            expectation: StreamExpectation {
                windows: promise + i as u64,
                detailed: promise,
                min_coverage: i as f64 / 10.0,
            },
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    #[test]
    fn fleet_matches_reference(
        streams in proptest::collection::vec(view_strategy(), 1..6),
        promise in 0u64..8,
    ) {
        check(&views(streams, promise));
    }

    #[test]
    fn solo_fleet_matches_reference(
        stream in view_strategy(),
        blind_before in 0usize..2,
        blind_after in 0usize..2,
        promise in 0u64..8,
    ) {
        let mut streams = vec![Vec::new(); blind_before];
        streams.push(stream);
        streams.extend(vec![Vec::new(); blind_after]);
        check(&views(streams, promise));
    }
}

fn entry(seed: u8, received: u64) -> SnapshotEntry {
    SnapshotEntry {
        txid: Txid::from([seed; 32]),
        received,
        fee: Amount::from_sat(1_000 + seed as u64),
        vsize: 100,
        has_unconfirmed_parent: false,
    }
}

#[test]
fn solo_same_time_snapshots_stay_separate_windows() {
    // Two snapshots at one time from the only live observer: the fused
    // stream is the observer's own, so it keeps both windows, and the
    // counts come from the stream, not from a merged time bucket.
    let stream = vec![
        MempoolSnapshot::from_entries(300, vec![entry(1, 10), entry(2, 20)]),
        MempoolSnapshot::from_entries(300, vec![entry(2, 15), entry(3, 30)]),
    ];
    let views = views(vec![stream, Vec::new()], 2);
    check(&views);
    let fleet = reconcile(&views).expect("one live observer");
    assert_eq!(fleet.fused.len(), 2);
    assert_eq!(fleet.per_observer[0].txs_observed, 3);
    assert_eq!(fleet.coverage.txs_observed, 3);
}

#[test]
fn duplicate_rows_fold_to_the_first_contributor() {
    // A txid repeated inside one snapshot and seen by a later observer:
    // one fused row, fee and vsize from the first row in roster order,
    // earliest sighting, any unconfirmed parent kept.
    let mut dup = entry(7, 50);
    dup.fee = Amount::from_sat(9_999);
    dup.has_unconfirmed_parent = true;
    let a = vec![MempoolSnapshot::from_entries(300, vec![entry(7, 40), dup, entry(1, 5)])];
    let b = vec![MempoolSnapshot::from_entries(300, vec![entry(7, 30)])];
    let views = views(vec![a, b], 1);
    check(&views);
    let fleet = reconcile(&views).expect("two live observers");
    let rows = &fleet.fused[0].entries;
    assert_eq!(rows.len(), 2);
    let row = rows.iter().find(|e| e.txid == Txid::from([7; 32])).expect("txid 7 fused");
    assert_eq!(row.received, 30, "earliest sighting");
    assert_eq!(row.fee, Amount::from_sat(1_007), "first row in roster order");
    assert!(row.has_unconfirmed_parent, "any unconfirmed parent kept");
}
