//! Violation-pair counting (§4.2.1, Figure 6).
//!
//! Given the observer's view — for each eventually confirmed transaction,
//! its first-seen time `t`, fee rate `f`, and confirmation height `b` — a
//! pair `(i, j)` *violates* the fee-rate selection norm when
//!
//! ```text
//! t_i + ε < t_j   &&   f_i > f_j   &&   b_i > b_j
//! ```
//!
//! i.e. transaction `i` was seen (ε-robustly) earlier and offered more,
//! yet was committed later. The ε margin (the paper uses 10 s and 10 min)
//! absorbs divergence between the observer's arrival order and the
//! miners'.
//!
//! Counting is a 3-dimensional dominance problem. This module provides an
//! `O(n²)` reference (the test oracle) and one production counter,
//! [`count_violations_cdq`]: a time-ordered sweep over a compressed 2D
//! Fenwick tree (height × fee), `O(n log n · log H)` time and
//! `O(n log H)` memory for `H` distinct confirmation heights. It also
//! returns the candidate-pair count (pairs where the norm makes a
//! prediction at all) for normalization. The function keeps the name of
//! the CDQ divide-and-conquer counter it replaced, for its callers.

use crate::error::AuditError;
use cn_chain::{FeeRate, Timestamp};

/// Checked entry point for degraded streams: violation counting over an
/// empty observation set (every detailed snapshot lost or truncated to
/// nothing) is reported as the data problem it is, instead of a zero
/// count that reads as "no violations".
pub fn count_violations_checked(
    obs: &[PairObservation],
    epsilon: u64,
) -> Result<PairStats, AuditError> {
    if obs.is_empty() {
        return Err(AuditError::NoDetailedSnapshots);
    }
    Ok(count_violations_cdq(obs, epsilon))
}

/// One confirmed transaction as the pair analysis sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairObservation {
    /// First time the observer saw the transaction.
    pub received: Timestamp,
    /// The fee rate it offered.
    pub fee_rate: FeeRate,
    /// The height of the block that finally committed it.
    pub height: u64,
}

/// Violation-count result.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct PairStats {
    /// Pairs meeting all three violation conditions.
    pub violating: u64,
    /// Pairs meeting the time and fee conditions (the norm predicted an
    /// order for these).
    pub candidates: u64,
    /// All unordered pairs, `n·(n−1)/2`.
    pub total_pairs: u64,
}

impl PairStats {
    /// Violating share of all pairs (the Figure 6 y-axis).
    pub fn fraction_of_all(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            self.violating as f64 / self.total_pairs as f64
        }
    }

    /// Violating share of pairs where the norm made a prediction.
    pub fn fraction_of_candidates(&self) -> f64 {
        if self.candidates == 0 {
            0.0
        } else {
            self.violating as f64 / self.candidates as f64
        }
    }
}

/// Quadratic reference implementation (kept as the oracle for property
/// tests and as the ablation baseline for the sweep counter).
pub fn count_violations_reference(obs: &[PairObservation], epsilon: u64) -> PairStats {
    let n = obs.len() as u64;
    let mut stats = PairStats { total_pairs: n * n.saturating_sub(1) / 2, ..PairStats::default() };
    for i in obs {
        for j in obs {
            if i.received.saturating_add(epsilon) < j.received && i.fee_rate > j.fee_rate {
                stats.candidates += 1;
                if i.height > j.height {
                    stats.violating += 1;
                }
            }
        }
    }
    stats
}

/// Fenwick (binary indexed) tree add of 1 at 1-based position `p`; the tree
/// is the slice itself, position `p` stored at index `p - 1`.
fn fenwick_add(tree: &mut [u32], mut p: usize) {
    while p <= tree.len() {
        tree[p - 1] += 1;
        p += p & p.wrapping_neg();
    }
}

/// Fenwick prefix sum over positions `1..=p`.
fn fenwick_prefix(tree: &[u32], mut p: usize) -> u64 {
    let mut acc = 0u64;
    while p > 0 {
        acc += u64::from(tree[p - 1]);
        p -= p & p.wrapping_neg();
    }
    acc
}

/// Outer-tree nodes an insert at 1-based `slot` updates, in path order.
fn insert_path(slot: usize, len: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(slot), |&k| Some(k + (k & k.wrapping_neg())))
        .take_while(move |&k| k <= len)
}

/// Outer-tree nodes whose ranges tile slots `1..=slot`, in path order.
fn query_path(slot: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(slot), |&k| Some(k - (k & k.wrapping_neg()))).take_while(|&k| k > 0)
}

/// Exact violation counter: one time-ordered sweep over a compressed 2D
/// Fenwick tree, `O(n log n · log H)` time and `O(n log H)` memory for `H`
/// distinct heights.
///
/// Rows are sorted by first-seen time once. Row `i` becomes ε-eligible at
/// `t_i + ε` (saturating), which is monotone in `t_i`, so a two-pointer
/// walk over the same order inserts every `i` with `t_i + ε < t_j` before
/// row `j` queries. `candidates` counts the inserted rows with a higher fee
/// through a 1D Fenwick tree over fee rank. `violating` also asks for a
/// higher confirmation height: the outer Fenwick tree is keyed by height
/// rank (tallest first), and each outer node holds an inner Fenwick tree
/// over the fee ranks of only the rows whose inserts reach that node, so
/// the inner trees total `O(n log H)` counters, never `H × F`. Every inner
/// insert and query position is fixed in one fee-ordered pass before the
/// sweep, which therefore does no search.
///
/// The name predates the sweep (it replaced a CDQ divide-and-conquer
/// counter) and is kept for its callers.
pub fn count_violations_cdq(obs: &[PairObservation], epsilon: u64) -> PairStats {
    let n = obs.len();
    let total_pairs = n as u64 * (n as u64).saturating_sub(1) / 2;
    if n < 2 {
        return PairStats { total_pairs, ..PairStats::default() };
    }
    assert!(u32::try_from(n).is_ok(), "pair counting indexes rows with u32 ranks");
    let mut rows = obs.to_vec();
    rows.sort_unstable_by_key(|o| o.received);

    // Height slots 1..=h, tallest first: `b_i > b_j` iff `slot_i < slot_j`.
    let mut heights: Vec<u64> = rows.iter().map(|o| o.height).collect();
    heights.sort_unstable();
    heights.dedup();
    let h = heights.len();
    let slot: Vec<usize> =
        rows.iter().map(|o| h - heights.partition_point(|&x| x < o.height)).collect();
    // Longest insert or query path: the bit length of `h`.
    let stride = (usize::BITS - h.leading_zeros()) as usize;

    // Outer node `k`'s inner tree is `tree[start[k]..start[k + 1]]`, one
    // counter per row whose insert path reaches `k`.
    let mut start = vec![0usize; h + 2];
    for &s in &slot {
        for k in insert_path(s, h) {
            start[k + 1] += 1;
        }
    }
    for k in 1..=h {
        start[k + 1] += start[k];
    }

    // Fee-descending pass, one group of equal fees at a time. A group's
    // queries read each node's fill before the group's own inserts, so
    // they count strictly higher fees only.
    let mut by_fee: Vec<usize> = (0..n).collect();
    by_fee.sort_unstable_by_key(|&r| std::cmp::Reverse(rows[r].fee_rate));
    let mut fill = vec![0u32; h + 1];
    let mut fee_rank = vec![0usize; n];
    let mut higher_fees = vec![0usize; n];
    let mut insert_at = vec![0u32; n * stride];
    let mut query_at = vec![0u32; n * stride];
    let mut placed = 0usize;
    for group in by_fee.chunk_by(|&a, &b| rows[a].fee_rate == rows[b].fee_rate) {
        for &r in group {
            higher_fees[r] = placed;
            for (step, k) in query_path(slot[r] - 1).enumerate() {
                query_at[r * stride + step] = fill[k];
            }
        }
        for &r in group {
            placed += 1;
            fee_rank[r] = placed;
            for (step, k) in insert_path(slot[r], h).enumerate() {
                fill[k] += 1;
                insert_at[r * stride + step] = fill[k];
            }
        }
    }

    let mut by_fee_rank = vec![0u32; n];
    let mut tree = vec![0u32; start[h + 1]];
    let (mut inserted, mut candidates, mut violating) = (0usize, 0u64, 0u64);
    for j in 0..n {
        // `t_i + ε < t_j` implies `t_i < t_j`, so `inserted` never passes `j`.
        while rows[inserted].received.saturating_add(epsilon) < rows[j].received {
            let i = inserted;
            fenwick_add(&mut by_fee_rank, fee_rank[i]);
            for (step, k) in insert_path(slot[i], h).enumerate() {
                let p = insert_at[i * stride + step] as usize;
                fenwick_add(&mut tree[start[k]..start[k + 1]], p);
            }
            inserted += 1;
        }
        if inserted == 0 {
            continue;
        }
        candidates += fenwick_prefix(&by_fee_rank, higher_fees[j]);
        for (step, k) in query_path(slot[j] - 1).enumerate() {
            let p = query_at[j * stride + step] as usize;
            violating += fenwick_prefix(&tree[start[k]..start[k + 1]], p);
        }
    }
    PairStats { violating, candidates, total_pairs }
}

// ---------------------------------------------------------------------------
// Cross-block kernels (streaming window sealing)
// ---------------------------------------------------------------------------
//
// The streaming auditor charges each cross-block pair to the earlier
// block's miner when the later block seals, which asks a two-set variant
// of the dominance question: given a *later* block L and an *earlier*
// block E (both already reduced to eligible `(received, fee)` rows),
//
// ```text
// held(L, E)     = #{(a ∈ L, b ∈ E) : b.recv + ε < a.recv && b.fee > a.fee}
// violating(L,E) = #{(a ∈ L, b ∈ E) : a.recv + ε < b.recv && a.fee > b.fee}
// candidates     = held + violating
// ```
//
// The naive scan is `O(|L|·|E|)` per block pair and dominates window
// sealing. Both directions are instances of one primitive —
// `dominant(X, Y) = #{(x, y) : x.recv + ε < y.recv && x.fee > y.fee}` —
// for which this module provides two exact kernels over pre-sorted
// per-block arrays ([`BlockPairSet`], built once per sealed block and
// reused for every window comparison it participates in):
//
// * a **sorted-merge** kernel: sweep Y by arrival time with a two-pointer
//   insert of ε-eligible X rows into a Fenwick tree keyed by fee rank,
//   `O((|X|+|Y|) log |X|)`;
// * a **bitset** kernel: sweep Y by fee (descending) with a two-pointer
//   marking of higher-fee X rows in a bitset indexed by X's arrival
//   rank, answering each y by a prefix popcount, `O(|Y|·|X|/64)`.
//
// Both are bit-identical to the nested-loop reference (strict
// comparisons, saturating ε) — counting is exact integer arithmetic, so
// kernel choice can never change an audit verdict.

/// Row-count threshold below which the bitset kernel beats the
/// sorted-merge kernel (`|X|/64` words per query vs `log |X|` Fenwick
/// probes, see the `pair_kernels` bench). Real block rowsets are a few
/// hundred rows, so the bitset path is the common case.
pub const BITSET_KERNEL_MAX_ROWS: usize = 4096;

/// One block's eligible rows, pre-sorted for the cross-block kernels.
///
/// Rows carry only what the norm compares: first-seen time and the exact
/// integer fee key (sat/kvB). Ranks are `u32` handles into the block's
/// own arrays, mirroring the interned-txid discipline used elsewhere.
#[derive(Clone, Debug, Default)]
pub struct BlockPairSet {
    /// First-seen times, ascending.
    recv: Vec<u64>,
    /// Fee key of the row at each arrival rank.
    fee_by_recv: Vec<u64>,
    /// Fee keys, ascending.
    fees_asc: Vec<u64>,
    /// Arrival rank of the row at each fee-ascending slot.
    recv_rank_by_fee_asc: Vec<u32>,
    /// Fee-ascending slot of the row at each arrival rank.
    fee_slot_by_recv: Vec<u32>,
}

impl BlockPairSet {
    /// Builds the sorted views from `(received, fee_key)` rows.
    pub fn new(rows: impl IntoIterator<Item = (Timestamp, FeeRate)>) -> BlockPairSet {
        let mut by_recv: Vec<(u64, u64)> =
            rows.into_iter().map(|(t, f)| (t, f.to_sat_per_kvb())).collect();
        by_recv.sort_unstable();
        let recv: Vec<u64> = by_recv.iter().map(|r| r.0).collect();
        let fee_by_recv: Vec<u64> = by_recv.iter().map(|r| r.1).collect();

        let mut fee_order: Vec<u32> = (0..by_recv.len() as u32).collect();
        fee_order.sort_unstable_by_key(|&r| fee_by_recv[r as usize]);
        let fees_asc: Vec<u64> = fee_order.iter().map(|&r| fee_by_recv[r as usize]).collect();
        let mut fee_slot_by_recv = vec![0u32; by_recv.len()];
        for (slot, &r) in fee_order.iter().enumerate() {
            fee_slot_by_recv[r as usize] = slot as u32;
        }
        BlockPairSet { recv, fee_by_recv, fees_asc, recv_rank_by_fee_asc: fee_order, fee_slot_by_recv }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.recv.len()
    }

    /// Whether the block contributed no eligible rows.
    pub fn is_empty(&self) -> bool {
        self.recv.is_empty()
    }

    /// `#{x : x.recv + ε < than}` — the ε-eligible arrival prefix.
    /// `saturating_add` keeps huge ε total (no row is ever eligible).
    fn eligible_before(&self, than: u64, epsilon: u64) -> usize {
        self.recv.partition_point(|&t| t.saturating_add(epsilon) < than)
    }
}

/// `dominant(X, Y)` via arrival-sweep + Fenwick over X's fee ranks.
fn dominant_merge(x: &BlockPairSet, y: &BlockPairSet, epsilon: u64) -> u64 {
    if x.is_empty() || y.is_empty() {
        return 0;
    }
    let mut fenwick = vec![0u32; x.len()];
    let mut xi = 0usize;
    let mut added = 0u64;
    let mut count = 0u64;
    for (&y_recv, &y_fee) in y.recv.iter().zip(&y.fee_by_recv) {
        while xi < x.len() && x.recv[xi].saturating_add(epsilon) < y_recv {
            fenwick_add(&mut fenwick, x.fee_slot_by_recv[xi] as usize + 1);
            added += 1;
            xi += 1;
        }
        if added > 0 {
            // Rows with fee <= y_fee occupy exactly the first `le` fee slots.
            let le = x.fees_asc.partition_point(|&f| f <= y_fee);
            count += added - fenwick_prefix(&fenwick, le);
        }
    }
    count
}

/// `dominant(X, Y)` via fee-descending sweep + arrival-rank bitset.
fn dominant_bitset(x: &BlockPairSet, y: &BlockPairSet, epsilon: u64) -> u64 {
    if x.is_empty() || y.is_empty() {
        return 0;
    }
    let words = x.len().div_ceil(64);
    let mut bits = vec![0u64; words];
    // Y rows in fee-descending order, carrying their arrival times.
    let mut xj = x.len(); // next X fee-desc candidate is fees_asc[xj - 1]
    let mut count = 0u64;
    for ys in (0..y.len()).rev() {
        let y_fee = y.fees_asc[ys];
        let y_recv = y.recv[y.recv_rank_by_fee_asc[ys] as usize];
        while xj > 0 && x.fees_asc[xj - 1] > y_fee {
            let rank = x.recv_rank_by_fee_asc[xj - 1] as usize;
            bits[rank / 64] |= 1u64 << (rank % 64);
            xj -= 1;
        }
        let k = x.eligible_before(y_recv, epsilon);
        for &word in bits.iter().take(k / 64) {
            count += word.count_ones() as u64;
        }
        if !k.is_multiple_of(64) {
            let mask = (1u64 << (k % 64)) - 1;
            count += (bits[k / 64] & mask).count_ones() as u64;
        }
    }
    count
}

/// `dominant(X, Y)` with the kernel picked by X's row count.
fn dominant(x: &BlockPairSet, y: &BlockPairSet, epsilon: u64) -> u64 {
    if x.len() <= BITSET_KERNEL_MAX_ROWS {
        dominant_bitset(x, y, epsilon)
    } else {
        dominant_merge(x, y, epsilon)
    }
}

/// Cross-block pair statistics between a sealing (later) block and one
/// earlier window block, kernel-accelerated. `total_pairs` is the ordered
/// cross-product `|L|·|E|`.
pub fn count_cross_block(later: &BlockPairSet, earlier: &BlockPairSet, epsilon: u64) -> PairStats {
    let violating = dominant(later, earlier, epsilon);
    let held = dominant(earlier, later, epsilon);
    PairStats {
        violating,
        candidates: held + violating,
        total_pairs: later.len() as u64 * earlier.len() as u64,
    }
}

/// [`count_cross_block`] pinned to the sorted-merge (Fenwick) kernel
/// regardless of block size — for ablation benches and equivalence tests.
pub fn count_cross_block_merge(
    later: &BlockPairSet,
    earlier: &BlockPairSet,
    epsilon: u64,
) -> PairStats {
    let violating = dominant_merge(later, earlier, epsilon);
    let held = dominant_merge(earlier, later, epsilon);
    PairStats {
        violating,
        candidates: held + violating,
        total_pairs: later.len() as u64 * earlier.len() as u64,
    }
}

/// [`count_cross_block`] pinned to the bitset kernel regardless of block
/// size — for ablation benches and equivalence tests.
pub fn count_cross_block_bitset(
    later: &BlockPairSet,
    earlier: &BlockPairSet,
    epsilon: u64,
) -> PairStats {
    let violating = dominant_bitset(later, earlier, epsilon);
    let held = dominant_bitset(earlier, later, epsilon);
    PairStats {
        violating,
        candidates: held + violating,
        total_pairs: later.len() as u64 * earlier.len() as u64,
    }
}

/// Quadratic cross-block reference: the literal sealed-block × window-block
/// scan the kernels replace, kept as the oracle for property tests.
pub fn count_cross_block_reference(
    later: &[(Timestamp, FeeRate)],
    earlier: &[(Timestamp, FeeRate)],
    epsilon: u64,
) -> PairStats {
    let mut stats = PairStats {
        total_pairs: later.len() as u64 * earlier.len() as u64,
        ..PairStats::default()
    };
    for &(ra, fa) in later {
        for &(rb, fb) in earlier {
            if rb.saturating_add(epsilon) < ra && fb > fa {
                // Seen earlier at a higher rate, confirmed earlier: held.
                stats.candidates += 1;
            } else if ra.saturating_add(epsilon) < rb && fa > fb {
                // Seen earlier at a higher rate, confirmed later: violation.
                stats.candidates += 1;
                stats.violating += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(t: u64, rate: u64, h: u64) -> PairObservation {
        PairObservation {
            received: t,
            fee_rate: FeeRate::from_sat_per_kvb(rate),
            height: h,
        }
    }

    #[test]
    fn single_clear_violation() {
        // i seen first with a better rate, yet confirmed later.
        let data = [obs(0, 100, 5), obs(10, 50, 4)];
        let stats = count_violations_reference(&data, 0);
        assert_eq!(stats.violating, 1);
        assert_eq!(stats.candidates, 1);
        assert_eq!(stats.total_pairs, 1);
        assert_eq!(count_violations_cdq(&data, 0), stats);
    }

    #[test]
    fn norm_respected_no_violation() {
        let data = [obs(0, 100, 4), obs(10, 50, 5)];
        let stats = count_violations_reference(&data, 0);
        assert_eq!(stats.violating, 0);
        assert_eq!(stats.candidates, 1);
        assert_eq!(count_violations_cdq(&data, 0), stats);
    }

    #[test]
    fn epsilon_filters_close_arrivals() {
        let data = [obs(0, 100, 5), obs(8, 50, 4)];
        assert_eq!(count_violations_reference(&data, 0).violating, 1);
        // With ε = 10, 0 + 10 < 8 is false: the pair is no longer decided.
        assert_eq!(count_violations_reference(&data, 10).violating, 0);
        assert_eq!(count_violations_cdq(&data, 10).violating, 0);
    }

    #[test]
    fn strict_boundary_on_epsilon() {
        // t_i + ε == t_j must NOT count.
        let data = [obs(0, 100, 5), obs(10, 50, 4)];
        assert_eq!(count_violations_reference(&data, 10).violating, 0);
        assert_eq!(count_violations_cdq(&data, 10).violating, 0);
        assert_eq!(count_violations_reference(&data, 9).violating, 1);
        assert_eq!(count_violations_cdq(&data, 9).violating, 1);
    }

    #[test]
    fn equal_fee_rates_never_counted() {
        let data = [obs(0, 100, 5), obs(10, 100, 4)];
        let stats = count_violations_reference(&data, 0);
        assert_eq!(stats.candidates, 0);
        assert_eq!(stats.violating, 0);
        assert_eq!(count_violations_cdq(&data, 0), stats);
    }

    #[test]
    fn same_block_is_not_a_violation() {
        let data = [obs(0, 100, 5), obs(10, 50, 5)];
        let stats = count_violations_reference(&data, 0);
        assert_eq!(stats.violating, 0);
        assert_eq!(stats.candidates, 1);
        assert_eq!(count_violations_cdq(&data, 0), stats);
    }

    #[test]
    fn fractions() {
        let data = [obs(0, 100, 5), obs(10, 50, 4), obs(20, 10, 3)];
        let stats = count_violations_reference(&data, 0);
        assert_eq!(stats.total_pairs, 3);
        assert_eq!(stats.violating, 3);
        assert!((stats.fraction_of_all() - 1.0).abs() < 1e-12);
        assert!((stats.fraction_of_candidates() - 1.0).abs() < 1e-12);
        assert_eq!(PairStats::default().fraction_of_all(), 0.0);
    }

    #[test]
    fn sweep_matches_reference_on_pseudorandom_data() {
        // Deterministic pseudo-random stream via a simple LCG.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for n in [1usize, 2, 3, 10, 64, 257] {
            let data: Vec<PairObservation> = (0..n)
                .map(|_| obs(next() % 1_000, next() % 50, next() % 20))
                .collect();
            for eps in [0u64, 5, 50] {
                let reference = count_violations_reference(&data, eps);
                assert_eq!(count_violations_cdq(&data, eps), reference, "n={n} eps={eps}");
            }
        }
    }

    #[test]
    fn sweep_matches_reference_under_adversarial_ties() {
        // Tiny value domains make exact ties the rule, not the exception:
        // with times drawn from {0, ε, 2ε, …}, fees from three values, and
        // heights from two, almost every pair sits on a tie or exactly on
        // the strict `t_i + ε < t_j` boundary — the regime where the
        // Fenwick sweep's tie-breaking (queries before inserts at equal
        // time, strict fee comparison) is easiest to get subtly wrong.
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for eps in [0u64, 1, 7] {
            for n in [2usize, 3, 5, 17, 128] {
                let data: Vec<PairObservation> = (0..n)
                    .map(|_| {
                        // Times on the exact ε lattice; step 0 collapses
                        // everything onto a single instant.
                        let t = (next() % 4) * eps.max(1);
                        obs(t, [10, 10, 20, 30][(next() % 4) as usize], 1 + next() % 2)
                    })
                    .collect();
                assert_eq!(
                    count_violations_cdq(&data, eps),
                    count_violations_reference(&data, eps),
                    "ties: n={n} eps={eps}"
                );
            }
        }
    }

    #[test]
    fn sweep_matches_reference_with_epsilon_at_every_gap() {
        // For a fixed pseudo-random set, sweep ε across every pairwise
        // time gap and its ±1 neighbours, so each pair in turn flips from
        // decided to undecided exactly at the strict boundary.
        let mut state = 0xda3e_39cb_94b9_5bdbu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let data: Vec<PairObservation> =
            (0..40).map(|_| obs(next() % 200, next() % 30, next() % 8)).collect();
        let mut epsilons = vec![0u64];
        for i in &data {
            for j in &data {
                let gap = j.received.saturating_sub(i.received);
                epsilons.extend([gap.saturating_sub(1), gap, gap + 1]);
            }
        }
        epsilons.sort_unstable();
        epsilons.dedup();
        for eps in epsilons {
            assert_eq!(
                count_violations_cdq(&data, eps),
                count_violations_reference(&data, eps),
                "eps={eps}"
            );
        }
    }

    #[test]
    fn sweep_handles_epsilon_saturation() {
        // `t + ε` saturates instead of wrapping: with ε = u64::MAX no pair
        // can satisfy the strict inequality, however the times tie.
        let data =
            [obs(0, 100, 5), obs(u64::MAX - 1, 50, 4), obs(u64::MAX, 70, 3), obs(3, 60, 2)];
        for eps in [u64::MAX, u64::MAX - 1, u64::MAX / 2] {
            let reference = count_violations_reference(&data, eps);
            assert_eq!(count_violations_cdq(&data, eps), reference, "eps={eps}");
        }
        assert_eq!(count_violations_cdq(&data, u64::MAX).violating, 0);
    }

    #[test]
    fn sweep_matches_reference_with_distinct_heights_and_fees() {
        // H = F = n: every row has its own height and fee. A dense H × F
        // counter table would need n² = 10⁸ cells here; the compressed
        // tree needs O(n log H).
        let n = 10_000u64;
        let mut state = 0x6a09_e667_f3bc_c909u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        // Fees and heights are two different permutations of 0..n.
        let data: Vec<PairObservation> = (0..n)
            .map(|i| obs(next() % 50_000, (i * 7_919) % n, (i * 104_729 + 17) % n))
            .collect();
        for eps in [0u64, 600] {
            let reference = count_violations_reference(&data, eps);
            assert_eq!(count_violations_cdq(&data, eps), reference, "eps={eps}");
        }
    }

    #[test]
    fn fully_degenerate_inputs() {
        // All-identical observations: no pair has a strict fee or time
        // edge, so nothing is a candidate whatever ε says.
        let data = vec![obs(5, 10, 3); 50];
        for eps in [0u64, 1, 100] {
            let stats = count_violations_cdq(&data, eps);
            assert_eq!(stats.candidates, 0);
            assert_eq!(stats.violating, 0);
            assert_eq!(stats, count_violations_reference(&data, eps));
        }
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(count_violations_cdq(&[], 0), PairStats::default());
        let one = [obs(0, 10, 1)];
        let stats = count_violations_cdq(&one, 0);
        assert_eq!(stats.total_pairs, 0);
        assert_eq!(stats.violating, 0);
    }

    // --- cross-block kernels ---

    fn rows(raw: &[(u64, u64)]) -> Vec<(Timestamp, FeeRate)> {
        raw.iter().map(|&(t, f)| (t, FeeRate::from_sat_per_kvb(f))).collect()
    }

    /// Asserts both kernels and the auto selector against the reference.
    fn assert_cross_kernels(later: &[(Timestamp, FeeRate)], earlier: &[(Timestamp, FeeRate)], eps: u64) {
        let reference = count_cross_block_reference(later, earlier, eps);
        let l = BlockPairSet::new(later.iter().copied());
        let e = BlockPairSet::new(earlier.iter().copied());
        let merge = PairStats {
            violating: dominant_merge(&l, &e, eps),
            candidates: dominant_merge(&l, &e, eps) + dominant_merge(&e, &l, eps),
            total_pairs: (l.len() * e.len()) as u64,
        };
        let bitset = PairStats {
            violating: dominant_bitset(&l, &e, eps),
            candidates: dominant_bitset(&l, &e, eps) + dominant_bitset(&e, &l, eps),
            total_pairs: (l.len() * e.len()) as u64,
        };
        assert_eq!(merge, reference, "sorted-merge kernel eps={eps}");
        assert_eq!(bitset, reference, "bitset kernel eps={eps}");
        assert_eq!(count_cross_block(&l, &e, eps), reference, "auto kernel eps={eps}");
    }

    #[test]
    fn cross_block_single_violation_and_hold() {
        // a ∈ later seen first at a higher rate but confirmed later: violation.
        let later = rows(&[(0, 100)]);
        let earlier = rows(&[(10, 50)]);
        let stats = count_cross_block_reference(&later, &earlier, 0);
        assert_eq!((stats.violating, stats.candidates, stats.total_pairs), (1, 1, 1));
        assert_cross_kernels(&later, &earlier, 0);
        // b ∈ earlier seen first at a higher rate and confirmed first: held.
        let stats = count_cross_block_reference(&earlier, &later, 0);
        assert_eq!((stats.violating, stats.candidates), (0, 1));
        assert_cross_kernels(&earlier, &later, 0);
    }

    #[test]
    fn cross_block_strict_epsilon_boundary() {
        // t_a + ε == t_b must NOT count, t_a + ε == t_b − 1 must.
        let later = rows(&[(0, 100)]);
        let earlier = rows(&[(10, 50)]);
        assert_eq!(count_cross_block_reference(&later, &earlier, 10).candidates, 0);
        assert_eq!(count_cross_block_reference(&later, &earlier, 9).violating, 1);
        for eps in [0, 9, 10, 11] {
            assert_cross_kernels(&later, &earlier, eps);
        }
    }

    #[test]
    fn cross_block_equal_fees_and_times_never_counted() {
        // Fee ties and time ties are both strict: all-identical rows on
        // both sides yield zero candidates at every ε.
        let later = rows(&[(5, 10), (5, 10), (5, 10)]);
        let earlier = rows(&[(5, 10), (5, 10)]);
        for eps in [0, 1, u64::MAX] {
            let stats = count_cross_block_reference(&later, &earlier, eps);
            assert_eq!((stats.violating, stats.candidates), (0, 0));
            assert_cross_kernels(&later, &earlier, eps);
        }
    }

    #[test]
    fn cross_block_adversarial_tie_lattice() {
        // Times on the exact ε lattice and fees from a tiny domain: the
        // regime where prefix boundaries (partition_point on `t + ε` and
        // on fee keys) sit exactly on tied values.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for eps in [0u64, 1, 7] {
            for (nl, ne) in [(1usize, 1usize), (3, 2), (17, 5), (64, 129)] {
                let mk = |n: usize, next: &mut dyn FnMut() -> u64| {
                    rows(&(0..n)
                        .map(|_| ((next() % 4) * eps.max(1), [10, 10, 20, 30][(next() % 4) as usize]))
                        .collect::<Vec<_>>())
                };
                let later = mk(nl, &mut next);
                let earlier = mk(ne, &mut next);
                assert_cross_kernels(&later, &earlier, eps);
            }
        }
    }

    #[test]
    fn cross_block_epsilon_at_every_gap() {
        // Sweep ε across every pairwise gap ±1 so each cross pair flips
        // from decided to undecided exactly at the strict boundary.
        let mut state = 0xda3e_39cb_94b9_5bdbu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let later = rows(&(0..23).map(|_| (next() % 100, next() % 20)).collect::<Vec<_>>());
        let earlier = rows(&(0..31).map(|_| (next() % 100, next() % 20)).collect::<Vec<_>>());
        let mut epsilons = vec![0u64];
        for &(ta, _) in &later {
            for &(tb, _) in &earlier {
                let gap = ta.abs_diff(tb);
                epsilons.extend([gap.saturating_sub(1), gap, gap + 1]);
            }
        }
        epsilons.sort_unstable();
        epsilons.dedup();
        for eps in epsilons {
            assert_cross_kernels(&later, &earlier, eps);
        }
    }

    #[test]
    fn cross_block_epsilon_saturation() {
        // `t + ε` saturates instead of wrapping: near-u64::MAX times and
        // huge ε must never produce a candidate through overflow.
        let later = rows(&[(0, 100), (u64::MAX - 1, 50), (u64::MAX, 70)]);
        let earlier = rows(&[(3, 60), (u64::MAX, 10)]);
        for eps in [u64::MAX, u64::MAX - 1, u64::MAX / 2, 0] {
            assert_cross_kernels(&later, &earlier, eps);
        }
        let l = BlockPairSet::new(later.iter().copied());
        let e = BlockPairSet::new(earlier.iter().copied());
        assert_eq!(count_cross_block(&l, &e, u64::MAX).candidates, 0);
    }

    #[test]
    fn cross_block_pseudorandom_equivalence() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for (nl, ne) in [(0usize, 5usize), (5, 0), (1, 1), (40, 7), (130, 130), (257, 64)] {
            let later = rows(&(0..nl).map(|_| (next() % 1_000, next() % 50)).collect::<Vec<_>>());
            let earlier = rows(&(0..ne).map(|_| (next() % 1_000, next() % 50)).collect::<Vec<_>>());
            for eps in [0u64, 5, 50] {
                assert_cross_kernels(&later, &earlier, eps);
            }
        }
    }

    #[test]
    fn cross_block_empty_sides() {
        let some = BlockPairSet::new(rows(&[(1, 10), (2, 20)]));
        let empty = BlockPairSet::new(std::iter::empty());
        assert!(empty.is_empty());
        assert_eq!(count_cross_block(&some, &empty, 0), PairStats::default());
        assert_eq!(count_cross_block(&empty, &some, 0), PairStats::default());
    }
}
