//! One replay of the chain into the per-transaction facts every audit
//! metric consumes.

use crate::cpfp::cpfp_txids_in_block;
use cn_chain::{
    Address, Amount, Block, BlockHash, Chain, FastMap, FeeRate, PoolMarker, Timestamp, Txid,
};

/// Per-transaction audit facts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TxRecord {
    /// The transaction id.
    pub txid: Txid,
    /// Containing block height.
    pub height: u64,
    /// 0-based position within the block body.
    pub position: usize,
    /// The fee actually paid (from validated chain records).
    pub fee: Amount,
    /// Virtual size in vbytes.
    pub vsize: u64,
    /// True under the §E CPFP definition (spends an output created in the
    /// same block).
    pub is_cpfp: bool,
}

impl TxRecord {
    /// Fee rate, the ranking key of the norms.
    pub fn fee_rate(&self) -> FeeRate {
        FeeRate::from_fee_and_vsize(self.fee, self.vsize)
    }
}

/// Per-block audit facts.
#[derive(Clone, Debug)]
pub struct BlockInfo {
    /// Height.
    pub height: u64,
    /// Block hash.
    pub hash: BlockHash,
    /// Block timestamp.
    pub time: Timestamp,
    /// Attributed miner (coinbase marker tag, slashes trimmed), if any.
    pub miner: Option<String>,
    /// Coinbase reward addresses (the pool-wallet signal of Figure 8a).
    pub coinbase_wallets: Vec<Address>,
    /// Body transactions in block order.
    pub txs: Vec<TxRecord>,
}

impl BlockInfo {
    /// Number of body transactions.
    pub fn tx_count(&self) -> usize {
        self.txs.len()
    }

    /// True when the block committed no user transactions.
    pub fn is_empty_block(&self) -> bool {
        self.txs.is_empty()
    }
}

/// The chain, digested for auditing.
///
/// Supports *epoch checkpointing*: [`ChainIndex::drain_below`] hands the
/// oldest block digests off (for a caller to spill to disk) and records the
/// offset in `base`, so a long-running streaming audit retains O(window)
/// digests in memory. Heights stay absolute throughout — a drained index
/// answers [`ChainIndex::block`] for retained heights and `None` below the
/// base, and [`ChainIndex::from_blocks`] rebuilds a full index from
/// re-read segments.
#[derive(Clone, Debug, Default)]
pub struct ChainIndex {
    /// Heights below this have been drained; `blocks[0]` is height `base`.
    base: u64,
    blocks: Vec<BlockInfo>,
    by_txid: FastMap<Txid, (u64, u32)>,
}

impl ChainIndex {
    /// Builds the index from a validated chain.
    ///
    /// # Panics
    /// Panics if the chain's per-block records disagree with its blocks —
    /// impossible for a chain built through [`Chain::connect`].
    pub fn build(chain: &Chain) -> ChainIndex {
        let mut index = ChainIndex::default();
        index.blocks.reserve(chain.blocks().len());
        for (block, record) in chain.blocks().iter().zip(chain.records()) {
            debug_assert_eq!(record.height, index.len() as u64);
            index.push_block(block, &record.tx_fees);
        }
        index
    }

    /// Rebuilds an index from previously drained (or otherwise digested)
    /// blocks — the restore half of the [`ChainIndex::drain_below`]
    /// checkpoint contract. Blocks must be contiguous and in height order;
    /// the first block's height becomes the base.
    ///
    /// # Panics
    /// Panics when the heights are not contiguous.
    pub fn from_blocks(blocks: Vec<BlockInfo>) -> ChainIndex {
        let base = blocks.first().map(|b| b.height).unwrap_or(0);
        // Sized up front: growing to the final size would briefly hold the
        // last two tables at once.
        let txs = blocks.iter().map(|b| b.txs.len()).sum();
        let mut by_txid = FastMap::with_capacity_and_hasher(txs, Default::default());
        for (i, block) in blocks.iter().enumerate() {
            assert_eq!(block.height, base + i as u64, "blocks must be contiguous");
            for tx in &block.txs {
                by_txid.insert(tx.txid, (block.height, tx.position as u32));
            }
        }
        ChainIndex { base, blocks, by_txid }
    }

    /// Appends one connected block to the index — the incremental form of
    /// [`ChainIndex::build`], which is now a fold over this method. The
    /// block's height is the current tip height + 1 (blocks must arrive in
    /// connect order), so an index grown block-by-block is identical to one
    /// built from the finished chain.
    ///
    /// # Panics
    /// Panics when `tx_fees` does not line up with the block body.
    pub fn push_block(&mut self, block: &Block, tx_fees: &[Amount]) {
        assert_eq!(
            tx_fees.len(),
            block.body().len(),
            "chain record out of sync with block body"
        );
        let height = self.base + self.blocks.len() as u64;
        let cpfp = cpfp_txids_in_block(block);
        let miner = block
            .coinbase()
            .and_then(PoolMarker::from_coinbase)
            .map(|m| m.0.trim_matches('/').to_string());
        let coinbase_wallets = block
            .coinbase()
            .map(|cb| cb.output_addresses().collect())
            .unwrap_or_default();
        let mut txs = Vec::with_capacity(block.body().len());
        for (position, (tx, fee)) in block.body().iter().zip(tx_fees).enumerate() {
            let txid = tx.txid();
            self.by_txid.insert(txid, (height, position as u32));
            txs.push(TxRecord {
                txid,
                height,
                position,
                fee: *fee,
                vsize: tx.vsize(),
                is_cpfp: cpfp.contains(&txid),
            });
        }
        self.blocks.push(BlockInfo {
            height,
            hash: block.block_hash(),
            time: block.header.time,
            miner,
            coinbase_wallets,
            txs,
        });
    }

    /// All retained blocks, by height (every block unless
    /// [`ChainIndex::drain_below`] has checkpointed a prefix off).
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.blocks
    }

    /// The height below which blocks have been drained (0 for a full
    /// index).
    pub fn base(&self) -> u64 {
        self.base
    }

    /// The block at `height`, `None` when unknown or drained.
    pub fn block(&self, height: u64) -> Option<&BlockInfo> {
        let offset = height.checked_sub(self.base)?;
        self.blocks.get(offset as usize)
    }

    /// Drains every retained block below `height`, returning them in
    /// height order and forgetting their per-transaction locations. The
    /// caller owns their persistence; [`ChainIndex::from_blocks`] over the
    /// concatenated drained segments (plus the retained tail) reproduces
    /// the undrained index exactly.
    pub fn drain_below(&mut self, height: u64) -> Vec<BlockInfo> {
        let cut = height.clamp(self.base, self.base + self.blocks.len() as u64);
        let drained: Vec<BlockInfo> = self.blocks.drain(..(cut - self.base) as usize).collect();
        for block in &drained {
            for tx in &block.txs {
                self.by_txid.remove(&tx.txid);
            }
        }
        self.base = cut;
        drained
    }

    /// Locates a confirmed transaction as `(height, position)`.
    pub fn locate(&self, txid: &Txid) -> Option<(u64, u32)> {
        self.by_txid.get(txid).copied()
    }

    /// The record of a confirmed transaction.
    pub fn record(&self, txid: &Txid) -> Option<&TxRecord> {
        let (h, p) = self.locate(txid)?;
        self.block(h).and_then(|b| b.txs.get(p as usize))
    }

    /// Chain height covered: drained prefix plus retained blocks.
    pub fn len(&self) -> usize {
        self.base as usize + self.blocks.len()
    }

    /// True when the chain was empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total body transactions across the *retained* blocks.
    pub fn tx_count(&self) -> usize {
        self.blocks.iter().map(|b| b.txs.len()).sum()
    }

    /// Fraction of body transactions that are CPFP (Table 1's
    /// "percentage of CPFP-transactions").
    pub fn cpfp_fraction(&self) -> f64 {
        let total = self.tx_count();
        if total == 0 {
            return 0.0;
        }
        let cpfp: usize =
            self.blocks.iter().map(|b| b.txs.iter().filter(|t| t.is_cpfp).count()).sum();
        cpfp as f64 / total as f64
    }

    /// Count of empty blocks (Table 1).
    pub fn empty_block_count(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_empty_block()).count()
    }

    /// Block timestamps in height order (monotone for simulated chains).
    pub fn block_times(&self) -> Vec<Timestamp> {
        self.blocks.iter().map(|b| b.time).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cn_chain::{Block, CoinbaseBuilder, Params, Transaction};

    /// Builds a tiny two-block chain with a CPFP pair in block 1.
    fn sample_chain() -> Chain {
        let mut chain = Chain::new(Params::mainnet());
        let fund = Transaction::builder()
            .add_input(cn_chain::TxIn::new(cn_chain::OutPoint::NULL))
            .pay_to(Address::from_label("funder"), Amount::from_sat(10_000_000))
            .pay_to(Address::from_label("funder2"), Amount::from_sat(10_000_000))
            .build();
        chain.seed_utxos(&fund);

        let cb0 = CoinbaseBuilder::new(0)
            .marker(cn_chain::PoolMarker::new("/PoolA/"))
            .reward(Address::from_label("pool:A:0"), Amount::from_btc(50))
            .build();
        let b0 = Block::assemble(2, BlockHash::ZERO, 600, 0, cb0, Vec::<Transaction>::new());
        chain.connect(b0).expect("valid");

        let parent = Transaction::builder()
            .add_input_with_sizes(fund.txid(), 0, 107, 0)
            .pay_to(Address::from_label("r"), Amount::from_sat(9_900_000))
            .build();
        let child = Transaction::builder()
            .add_input_with_sizes(parent.txid(), 0, 107, 0)
            .pay_to(Address::from_label("r2"), Amount::from_sat(9_700_000))
            .build();
        let other = Transaction::builder()
            .add_input_with_sizes(fund.txid(), 1, 107, 0)
            .pay_to(Address::from_label("r3"), Amount::from_sat(9_950_000))
            .build();
        let fees = Amount::from_sat(100_000 + 200_000 + 50_000);
        let cb1 = CoinbaseBuilder::new(1)
            .marker(cn_chain::PoolMarker::new("/PoolB/"))
            .reward(Address::from_label("pool:B:0"), Amount::from_btc(50) + fees)
            .build();
        let b1 = Block::assemble(
            2,
            chain.tip_hash(),
            1_200,
            1,
            cb1,
            vec![parent, child, other],
        );
        chain.connect(b1).expect("valid");
        chain
    }

    #[test]
    fn index_captures_fees_positions_and_cpfp() {
        let chain = sample_chain();
        let index = ChainIndex::build(&chain);
        assert_eq!(index.len(), 2);
        assert_eq!(index.tx_count(), 3);
        assert_eq!(index.empty_block_count(), 1);

        let b1 = index.block(1).expect("exists");
        assert_eq!(b1.miner.as_deref(), Some("PoolB"));
        assert_eq!(b1.time, 1_200);
        assert_eq!(b1.txs[0].fee, Amount::from_sat(100_000));
        assert_eq!(b1.txs[1].fee, Amount::from_sat(200_000));
        assert_eq!(b1.txs[2].fee, Amount::from_sat(50_000));
        assert!(!b1.txs[0].is_cpfp);
        assert!(b1.txs[1].is_cpfp, "child spending same-block parent is CPFP");
        assert!(!b1.txs[2].is_cpfp);
        assert!((index.cpfp_fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn locate_and_record_agree() {
        let chain = sample_chain();
        let index = ChainIndex::build(&chain);
        let b1 = index.block(1).expect("exists");
        for (pos, tx) in b1.txs.iter().enumerate() {
            assert_eq!(index.locate(&tx.txid), Some((1, pos as u32)));
            let rec = index.record(&tx.txid).expect("present");
            assert_eq!(rec.position, pos);
            assert_eq!(rec.fee_rate(), FeeRate::from_fee_and_vsize(rec.fee, rec.vsize));
        }
        assert_eq!(index.locate(&Txid::from([0xee; 32])), None);
    }

    #[test]
    fn incremental_push_matches_batch_build() {
        let chain = sample_chain();
        let batch = ChainIndex::build(&chain);
        let mut grown = ChainIndex::default();
        for (block, record) in chain.blocks().iter().zip(chain.records()) {
            grown.push_block(block, &record.tx_fees);
        }
        assert_eq!(grown.len(), batch.len());
        for (a, b) in grown.blocks().iter().zip(batch.blocks()) {
            assert_eq!(a.height, b.height);
            assert_eq!(a.hash, b.hash);
            assert_eq!(a.time, b.time);
            assert_eq!(a.miner, b.miner);
            assert_eq!(a.coinbase_wallets, b.coinbase_wallets);
            assert_eq!(a.txs, b.txs);
        }
        for block in batch.blocks() {
            for tx in &block.txs {
                assert_eq!(grown.locate(&tx.txid), batch.locate(&tx.txid));
            }
        }
    }

    #[test]
    fn drain_below_checkpoints_and_from_blocks_restores() {
        let chain = sample_chain();
        let full = ChainIndex::build(&chain);
        let mut drained = ChainIndex::build(&chain);

        let segment = drained.drain_below(1);
        assert_eq!(segment.len(), 1);
        assert_eq!(segment[0].height, 0);
        assert_eq!(drained.base(), 1);
        assert_eq!(drained.len(), full.len(), "heights stay absolute");
        assert!(drained.block(0).is_none(), "drained height is gone");
        assert_eq!(drained.block(1).map(|b| b.hash), full.block(1).map(|b| b.hash));
        // Drained txids are forgotten; retained ones still resolve.
        for tx in &full.block(1).expect("b1").txs {
            assert_eq!(drained.locate(&tx.txid), full.locate(&tx.txid));
            assert_eq!(drained.record(&tx.txid), full.record(&tx.txid));
        }
        // A no-op drain below the base returns nothing.
        assert!(drained.drain_below(0).is_empty());

        // Restore: drained segments + retained tail = the full index.
        let mut all = segment;
        all.extend(drained.blocks().iter().cloned());
        let restored = ChainIndex::from_blocks(all);
        assert_eq!(restored.base(), 0);
        assert_eq!(restored.len(), full.len());
        assert_eq!(restored.tx_count(), full.tx_count());
        for block in full.blocks() {
            for tx in &block.txs {
                assert_eq!(restored.locate(&tx.txid), full.locate(&tx.txid));
            }
        }
    }

    #[test]
    fn push_block_continues_past_a_drain() {
        let chain = sample_chain();
        let full = ChainIndex::build(&chain);
        let mut grown = ChainIndex::default();
        let (blocks, records): (Vec<_>, Vec<_>) =
            chain.blocks().iter().zip(chain.records()).unzip();
        grown.push_block(blocks[0], &records[0].tx_fees);
        let spilled = grown.drain_below(1);
        grown.push_block(blocks[1], &records[1].tx_fees);
        assert_eq!(grown.len(), 2, "height accounts for the drained prefix");
        assert_eq!(grown.block(1).map(|b| b.hash), full.block(1).map(|b| b.hash));
        assert_eq!(spilled[0].hash, full.block(0).expect("b0").hash);
    }

    #[test]
    fn attribution_fields_populated() {
        let chain = sample_chain();
        let index = ChainIndex::build(&chain);
        assert_eq!(index.block(0).expect("b0").miner.as_deref(), Some("PoolA"));
        assert_eq!(
            index.block(0).expect("b0").coinbase_wallets,
            vec![Address::from_label("pool:A:0")]
        );
        assert_eq!(index.block_times(), vec![600, 1_200]);
    }
}
