//! Byte-identity of parallel observer folding: `reconcile_with_pool`
//! must produce the same fleet view at any worker count. The per-window
//! k-way merges run on the fork-join pool; the first-seen co-walk and
//! every count derived from it stay serial, and the deterministic join
//! keeps every field identical to the serial sweep (DESIGN.md §8). The
//! field-by-field check against the pre-sweep algorithm lives in
//! `reconcile_oracle.rs`.

use cn_chain::{Amount, Txid};
use cn_core::reconcile::{reconcile_with_pool, FleetView, ObserverView};
use cn_core::StreamExpectation;
use cn_mempool::{MempoolSnapshot, SnapshotEntry};
use cn_stats::Pool;
use proptest::prelude::*;

fn entry(seed: u8, received: u64, fee: u64) -> SnapshotEntry {
    SnapshotEntry {
        txid: Txid::from([seed; 32]),
        received,
        fee: Amount::from_sat(fee),
        vsize: 100 + (seed as u64 % 7) * 30,
        has_unconfirmed_parent: seed.is_multiple_of(5),
    }
}

fn assert_views_identical(a: &FleetView, b: &FleetView, workers: usize) {
    assert_eq!(a.labels, b.labels, "workers={workers}");
    assert_eq!(a.dropped, b.dropped, "workers={workers}");
    assert_eq!(a.fused, b.fused, "workers={workers}");
    assert_eq!(a.first_seen, b.first_seen, "workers={workers}");
    assert_eq!(a.expectation, b.expectation, "workers={workers}");
    assert_eq!(a.per_observer, b.per_observer, "workers={workers}");
    assert_eq!(a.coverage, b.coverage, "workers={workers}");
    assert_eq!(a.render(), b.render(), "workers={workers}");
}

/// Strategy: a fleet of 1–4 observers, each with 0–8 snapshot windows of
/// 0–5 rows; some rows shared across observers (same seed byte) with
/// differing first-seen stamps, some windows degraded.
fn fleet_strategy() -> impl Strategy<Value = Vec<ObserverView>> {
    let entry_s = (0u8..40, 0u64..5_000, 1_000u64..300_000)
        .prop_map(|(seed, received, fee)| entry(seed, received, fee));
    let window_s = (0u64..8, proptest::collection::vec(entry_s, 0..5), any::<bool>()).prop_map(
        |(w, entries, degraded)| {
            let snap = MempoolSnapshot::from_entries(w * 600 + 300, entries);
            if degraded {
                snap.mark_degraded()
            } else {
                snap
            }
        },
    );
    let view_s = proptest::collection::vec(window_s, 0..8);
    proptest::collection::vec(view_s, 1..4).prop_map(|fleets| {
        fleets
            .into_iter()
            .enumerate()
            .map(|(i, snapshots)| ObserverView {
                label: format!("obs-{i}"),
                snapshots,
                expectation: StreamExpectation { windows: 8, detailed: 8, min_coverage: 0.0 },
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn folding_is_worker_invariant(views in fleet_strategy(), workers in 2usize..=8) {
        let serial = reconcile_with_pool(&views, Pool::with_workers(1));
        let parallel = reconcile_with_pool(&views, Pool::with_workers(workers));
        match (serial, parallel) {
            (Ok(a), Ok(b)) => assert_views_identical(&a, &b, workers),
            (Err(a), Err(b)) => prop_assert_eq!(format!("{a}"), format!("{b}")),
            (a, b) => panic!(
                "worker count changed the outcome: serial ok={}, parallel ok={}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
}
