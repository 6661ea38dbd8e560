//! Epoch-checkpointed streaming audit: the chain-digest state spilled to a
//! log-structured store, bounding auditor memory to O(window + epoch).
//!
//! [`StreamingAuditor`]'s exact verdict is a function of the whole chain,
//! so its digested per-transaction state (the [`ChainIndex`], the observed
//! txid set, the address→txid log) necessarily grows with run length —
//! the one O(chain) term its module docs concede. [`SpilledAuditor`] moves
//! that term to disk: every `epoch_blocks` sealed heights it drains the
//! settled digest slice ([`StreamingAuditor::drain_digest`]) and appends
//! it, serialized with the chain's own wire primitives, to a seekable
//! store. Push-path memory is then O(window + epoch).
//!
//! The exact verdict still needs the whole chain, but not the whole
//! digest: [`SpilledAuditor::verdict`] streams the store twice, one frame
//! at a time, and never holds the store itself.
//!
//! 1. The blocks and the observed txids are restored into the full
//!    [`ChainIndex`] and observed set, and pools are attributed once.
//! 2. The address log is re-read, keeping only the entries of attributed
//!    pool wallets — the only ones the self-interest map reads.
//!
//! The verdict therefore holds the index, the observed set and the
//! pool-wallet log, and runs [`StreamingAuditor::verdict_with_digest`] —
//! bit-identical to an unspilled auditor's [`StreamingAuditor::verdict`]
//! over the same events. [`StreamingAuditor::rolling`] stays available
//! throughout at its usual O(window) cost.
//!
//! The store is private to one `SpilledAuditor`, but a restore still treats
//! it as outside input and fails closed: a torn frame, bytes a frame's
//! length prefix does not account for, an oversized length, or heights
//! that do not run contiguously from 0 are [`SpillError::Corrupt`], never
//! a panic. Each segment is one frame: a compact-size length, then the
//! segment's blocks, its observed txids and its address log.

#![cfg_attr(not(test), deny(clippy::expect_used, clippy::unwrap_used, clippy::panic))]

use crate::attribution::{attribute, Attribution};
use crate::auditor::AuditReport;
use crate::error::AuditError;
use crate::index::{BlockInfo, ChainIndex, TxRecord};
use crate::streaming::{
    DigestSegment, RollingVerdict, StreamCounters, StreamEvent, StreamingAuditor,
};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use cn_chain::encode::{
    ensure_remaining, read_compact_size, read_compact_size_io, read_exact_or, read_var_bytes,
    write_compact_size, write_var_bytes, DecodeError, MAX_DECODE_LEN,
};
use cn_chain::{Address, Amount, Block, BlockHash, FastMap, FastSet, Hash256, Txid};
use cn_mempool::MempoolSnapshot;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Take, Write};

/// Largest frame, in bytes past its length prefix, a checkpoint may
/// encode to and a restore will allocate for. The writer refuses a larger frame, so the store
/// never holds one the reader rejects.
const MAX_FRAME_LEN: u64 = MAX_DECODE_LEN;

/// Capacity of the restore's read buffer.
const READ_BUF_LEN: usize = 8 * 1024;

/// Error from the spill store or the audit it feeds.
#[derive(Debug)]
pub enum SpillError {
    /// The underlying store failed.
    Io(io::Error),
    /// The store failed to restore; see [`Corruption`].
    Corrupt(Corruption),
    /// A checkpoint encoded to a frame of this many bytes, above the
    /// store's bound; nothing was written. The drained heights are lost,
    /// so a later verdict fails closed with a height gap.
    OversizedFrame(u64),
    /// The restored audit refused or failed.
    Audit(AuditError),
}

/// Why a spill store failed to restore.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// A frame was torn or malformed, or claimed an oversized length.
    Decode(DecodeError),
    /// A frame decoded to fewer bytes than its length prefix, or the
    /// store holds bytes past its last frame.
    TrailingBytes,
    /// The restored heights do not run contiguously from 0 through every
    /// drained height: the store held `found` where `expected` was due,
    /// or its frames ended at `found` short of the `expected` count.
    Height {
        /// The height due next.
        expected: u64,
        /// The height the store held there, or where its frames ended.
        found: u64,
    },
}

impl fmt::Display for SpillError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpillError::Io(e) => write!(f, "spill store i/o: {e}"),
            SpillError::Corrupt(Corruption::Decode(e)) => write!(f, "corrupt spill frame: {e}"),
            SpillError::Corrupt(Corruption::TrailingBytes) => {
                write!(f, "corrupt spill store: bytes no frame accounts for")
            }
            SpillError::Corrupt(Corruption::Height { expected, found }) => {
                write!(f, "corrupt spill store: height {found} where {expected} was due")
            }
            SpillError::OversizedFrame(n) => {
                write!(f, "spill frame of {n} bytes exceeds the {MAX_FRAME_LEN}-byte bound")
            }
            SpillError::Audit(e) => write!(f, "audit: {e}"),
        }
    }
}

impl std::error::Error for SpillError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpillError::Io(e) => Some(e),
            SpillError::Corrupt(Corruption::Decode(e)) => Some(e),
            SpillError::Corrupt(_) | SpillError::OversizedFrame(_) => None,
            SpillError::Audit(e) => Some(e),
        }
    }
}

impl From<io::Error> for SpillError {
    fn from(e: io::Error) -> Self {
        SpillError::Io(e)
    }
}

impl From<DecodeError> for SpillError {
    fn from(e: DecodeError) -> Self {
        SpillError::Corrupt(Corruption::Decode(e))
    }
}

impl From<AuditError> for SpillError {
    fn from(e: AuditError) -> Self {
        SpillError::Audit(e)
    }
}

/// A [`StreamingAuditor`] whose chain-digest state is epoch-checkpointed
/// into a seekable byte store (a spill file at scale, an in-memory
/// `Cursor` in tests). See the module docs for the memory contract.
pub struct SpilledAuditor<S: Read + Write + Seek> {
    auditor: StreamingAuditor,
    store: S,
    epoch_blocks: u64,
    /// Heights drained out of the auditor so far (all checkpointed unless
    /// a spill failed).
    spilled_blocks: u64,
    /// Store length in bytes (restore reads exactly this much).
    spilled_bytes: u64,
    /// Segments appended.
    spilled_segments: u64,
}

impl<S: Read + Write + Seek> SpilledAuditor<S> {
    /// Wraps `auditor`, checkpointing its digest into `store` every
    /// `epoch_blocks` sealed heights (0 disables spilling — the wrapper
    /// then behaves exactly like the inner auditor).
    pub fn new(auditor: StreamingAuditor, store: S, epoch_blocks: u64) -> SpilledAuditor<S> {
        SpilledAuditor {
            auditor,
            store,
            epoch_blocks,
            spilled_blocks: 0,
            spilled_bytes: 0,
            spilled_segments: 0,
        }
    }

    /// The wrapped auditor (rolling state, counters, config).
    pub fn auditor(&self) -> &StreamingAuditor {
        &self.auditor
    }

    /// Ingestion/state counters of the wrapped auditor.
    pub fn counters(&self) -> StreamCounters {
        self.auditor.counters()
    }

    /// Blocks ingested so far.
    pub fn tip_blocks(&self) -> u64 {
        self.auditor.tip_blocks()
    }

    /// Digest segments checkpointed so far.
    pub fn spilled_segments(&self) -> u64 {
        self.spilled_segments
    }

    /// Bytes the checkpointed segments occupy in the store.
    pub fn spilled_bytes(&self) -> u64 {
        self.spilled_bytes
    }

    /// Dispatches one event; blocks may trigger a checkpoint.
    pub fn push_event(&mut self, event: &StreamEvent<'_>) -> Result<(), SpillError> {
        match event {
            StreamEvent::Block(b) => self.push_block(b),
            StreamEvent::Snapshot(s) => {
                self.push_snapshot(s);
                Ok(())
            }
        }
    }

    /// Ingests one snapshot (never spills — snapshot state is O(1)).
    pub fn push_snapshot(&mut self, snap: &MempoolSnapshot) {
        self.auditor.push_snapshot(snap);
    }

    /// Ingests one block, then checkpoints the digest if a full epoch of
    /// heights has sealed since the last spill.
    pub fn push_block(&mut self, block: &Block) -> Result<(), SpillError> {
        self.auditor.push_block(block)?;
        if self.epoch_blocks > 0
            && self.auditor.sealed_blocks().saturating_sub(self.spilled_blocks)
                >= self.epoch_blocks
        {
            self.spill()?;
        }
        Ok(())
    }

    /// Drains the settled digest slice and appends it to the store as one
    /// frame.
    fn spill(&mut self) -> Result<(), SpillError> {
        let segment = self.auditor.drain_digest();
        self.spilled_blocks += segment.blocks.len() as u64;
        let payload = encode_segment(&segment);
        self.store.seek(SeekFrom::Start(self.spilled_bytes))?;
        self.spilled_bytes += write_frame(&mut self.store, &payload)?;
        self.spilled_segments += 1;
        Ok(())
    }

    /// The windowed telemetry — oblivious to spilling.
    pub fn rolling(&self) -> RollingVerdict {
        self.auditor.rolling()
    }

    /// The exact audit: restores the chain digest from the store in two
    /// streaming passes (see the module docs) plus the auditor's retained
    /// remainder, and produces the verdict an unspilled
    /// [`StreamingAuditor::verdict`] would return over the same events —
    /// bit-identical, including refusal semantics.
    pub fn verdict(&mut self) -> Result<AuditReport, SpillError> {
        let Restored { index, observed, attribution, wallet_txids } = self.restore()?;
        Ok(self.auditor.verdict_with_digest(&index, &observed, attribution, &wallet_txids)?)
    }

    /// Restores what the verdict reads, one frame buffer at a time.
    fn restore(&mut self) -> Result<Restored, SpillError> {
        let (live_blocks, live_observed, live_log) = self.auditor.digest_view();

        // Pass 1: the blocks and the observed txids. Each frame's address
        // log is left unparsed; its offset in the frame is kept for pass 2.
        let mut blocks = Vec::with_capacity(self.spilled_blocks as usize + live_blocks.len());
        let mut observed = FastSet::default();
        let mut digest_lens = Vec::with_capacity(self.spilled_segments as usize);
        let mut reader = open_store(&mut self.store, self.spilled_bytes)?;
        for _ in 0..self.spilled_segments {
            let frame_len = read_frame_len(&mut reader)?;
            let mut frame = read_bytes(&mut reader, frame_len)?;
            decode_digest(&mut frame, &mut blocks, &mut observed)?;
            digest_lens.push(frame_len - frame.remaining() as u64);
        }
        expect_end(&mut reader)?;
        // The auditor's base is the drained height count; a frame lost to
        // a failed spill shows here when no later frame exposed the gap.
        if blocks.len() as u64 != self.spilled_blocks {
            return Err(SpillError::Corrupt(Corruption::Height {
                expected: self.spilled_blocks,
                found: blocks.len() as u64,
            }));
        }
        blocks.extend(live_blocks.iter().cloned());
        observed.extend(live_observed.iter().copied());
        let index = ChainIndex::from_blocks(blocks);
        let attribution = attribute(&index);

        // Pass 2: the address logs, kept for pool wallets only. Each must
        // end exactly where its frame does.
        let wallets: FastSet<Address> =
            attribution.pools.iter().flat_map(|pool| pool.wallets.iter().copied()).collect();
        let mut wallet_txids: FastMap<Address, Vec<Txid>> = FastMap::default();
        let mut reader = open_store(&mut self.store, self.spilled_bytes)?;
        for digest_len in digest_lens {
            let frame_len = read_frame_len(&mut reader)?;
            let log_len = frame_len.checked_sub(digest_len).ok_or(DecodeError::UnexpectedEnd)?;
            skip(&mut reader, digest_len)?;
            let mut log = read_bytes(&mut reader, log_len)?;
            decode_addresses(&mut log, &wallets, &mut wallet_txids)?;
            if log.has_remaining() {
                return Err(SpillError::Corrupt(Corruption::TrailingBytes));
            }
        }
        expect_end(&mut reader)?;
        for (addr, txids) in live_log {
            if wallets.contains(addr) {
                wallet_txids.entry(*addr).or_default().extend(txids.iter().copied());
            }
        }
        Ok(Restored { index, observed, attribution, wallet_txids })
    }
}

/// The chain digest a spilled verdict reads: the full index, the observed
/// set, the attribution, and the address log of attributed pool wallets.
struct Restored {
    index: ChainIndex,
    observed: FastSet<Txid>,
    attribution: Attribution,
    wallet_txids: FastMap<Address, Vec<Txid>>,
}

/// Appends one frame — a compact-size length, then `payload` — returning
/// the bytes written. A frame above [`MAX_FRAME_LEN`] is refused before
/// anything is written.
fn write_frame<W: Write>(out: &mut W, payload: &[u8]) -> Result<u64, SpillError> {
    let len = payload.len() as u64;
    if len > MAX_FRAME_LEN {
        return Err(SpillError::OversizedFrame(len));
    }
    let mut head = BytesMut::with_capacity(9);
    write_compact_size(&mut head, len);
    out.write_all(&head)?;
    out.write_all(payload)?;
    Ok(head.len() as u64 + len)
}

/// The first `len` bytes of `store`, read through a buffer of
/// [`READ_BUF_LEN`] bytes.
fn open_store<S: Read + Seek>(store: &mut S, len: u64) -> io::Result<BufReader<Take<&mut S>>> {
    store.seek(SeekFrom::Start(0))?;
    Ok(BufReader::with_capacity(READ_BUF_LEN, store.take(len)))
}

/// Reads a frame's length prefix, bounded by [`MAX_FRAME_LEN`] before
/// anything is allocated for it.
fn read_frame_len<R: Read>(reader: &mut R) -> Result<u64, SpillError> {
    let len = read_compact_size_io(reader, SpillError::from(DecodeError::UnexpectedEnd))?;
    if len > MAX_FRAME_LEN {
        return Err(DecodeError::OversizedLength(len).into());
    }
    Ok(len)
}

/// Reads `n` bytes (at most [`MAX_FRAME_LEN`]) into a buffer of their own;
/// fewer is a torn frame.
fn read_bytes<R: Read>(reader: &mut R, n: u64) -> Result<Bytes, SpillError> {
    let mut raw = vec![0u8; n as usize];
    read_exact_or(reader, &mut raw, SpillError::from(DecodeError::UnexpectedEnd))?;
    Ok(Bytes::from(raw))
}

/// Steps over `n` bytes of `reader`; fewer is a torn frame.
fn skip<R: Read>(reader: &mut R, n: u64) -> Result<(), SpillError> {
    if io::copy(&mut reader.take(n), &mut io::sink())? != n {
        return Err(DecodeError::UnexpectedEnd.into());
    }
    Ok(())
}

/// Fails unless the frames covered the whole store.
fn expect_end<R: BufRead>(reader: &mut R) -> Result<(), SpillError> {
    if !reader.fill_buf()?.is_empty() {
        return Err(SpillError::Corrupt(Corruption::TrailingBytes));
    }
    Ok(())
}

/// Serializes one digest segment — its blocks, its observed txids, then
/// its address log — with the chain's wire primitives.
fn encode_segment(segment: &DigestSegment) -> Bytes {
    let mut buf = BytesMut::new();
    write_compact_size(&mut buf, segment.blocks.len() as u64);
    for block in &segment.blocks {
        write_compact_size(&mut buf, block.height);
        buf.put_slice(block.hash.0.as_bytes());
        write_compact_size(&mut buf, block.time);
        match &block.miner {
            Some(miner) => {
                buf.put_u8(1);
                write_var_bytes(&mut buf, miner.as_bytes());
            }
            None => buf.put_u8(0),
        }
        write_compact_size(&mut buf, block.coinbase_wallets.len() as u64);
        for wallet in &block.coinbase_wallets {
            put_address(&mut buf, wallet);
        }
        write_compact_size(&mut buf, block.txs.len() as u64);
        for tx in &block.txs {
            // Height and position are implied by block membership and row
            // order; only the independent facts are stored.
            buf.put_slice(tx.txid.0.as_bytes());
            write_compact_size(&mut buf, tx.fee.to_sat());
            write_compact_size(&mut buf, tx.vsize);
            buf.put_u8(tx.is_cpfp as u8);
        }
    }
    write_compact_size(&mut buf, segment.observed.len() as u64);
    for txid in &segment.observed {
        buf.put_slice(txid.0.as_bytes());
    }
    write_compact_size(&mut buf, segment.addr_txids.len() as u64);
    for (addr, txids) in &segment.addr_txids {
        put_address(&mut buf, addr);
        write_compact_size(&mut buf, txids.len() as u64);
        for txid in txids {
            buf.put_slice(txid.0.as_bytes());
        }
    }
    buf.freeze()
}

/// Decodes the blocks and observed txids that open a segment (see
/// [`encode_segment`]) onto `blocks` and `observed`, leaving `buf` at the
/// segment's address log. Each block's height must continue the run from
/// 0 that `blocks` holds.
fn decode_digest(
    buf: &mut Bytes,
    blocks: &mut Vec<BlockInfo>,
    observed: &mut FastSet<Txid>,
) -> Result<(), SpillError> {
    let block_count = checked_len(read_compact_size(buf)?)?;
    for _ in 0..block_count {
        let height = read_compact_size(buf)?;
        let expected = blocks.len() as u64;
        if height != expected {
            return Err(SpillError::Corrupt(Corruption::Height { expected, found: height }));
        }
        let hash = BlockHash(read_hash(buf)?);
        let time = read_compact_size(buf)?;
        ensure_remaining(buf, 1)?;
        let miner = if buf.get_u8() == 1 {
            let raw = read_var_bytes(buf)?;
            Some(String::from_utf8(raw).map_err(|_| DecodeError::UnexpectedEnd)?)
        } else {
            None
        };
        let wallet_count = checked_len(read_compact_size(buf)?)?;
        let mut coinbase_wallets = Vec::with_capacity(wallet_count.min(4_096));
        for _ in 0..wallet_count {
            coinbase_wallets.push(read_address(buf)?);
        }
        let tx_count = checked_len(read_compact_size(buf)?)?;
        let mut txs = Vec::with_capacity(tx_count.min(65_536));
        for position in 0..tx_count {
            let txid = Txid(read_hash(buf)?);
            let fee = Amount::from_sat(read_compact_size(buf)?);
            let vsize = read_compact_size(buf)?;
            ensure_remaining(buf, 1)?;
            let is_cpfp = buf.get_u8() != 0;
            txs.push(TxRecord { txid, height, position, fee, vsize, is_cpfp });
        }
        blocks.push(BlockInfo { height, hash, time, miner, coinbase_wallets, txs });
    }
    let observed_count = checked_len(read_compact_size(buf)?)?;
    observed.reserve(observed_count.min(1 << 20));
    for _ in 0..observed_count {
        observed.insert(Txid(read_hash(buf)?));
    }
    Ok(())
}

/// Decodes a segment's address log (see [`encode_segment`]), appending
/// the entries of the addresses in `keep` to `log` and stepping over the
/// rest.
fn decode_addresses(
    buf: &mut Bytes,
    keep: &FastSet<Address>,
    log: &mut FastMap<Address, Vec<Txid>>,
) -> Result<(), SpillError> {
    let addr_count = checked_len(read_compact_size(buf)?)?;
    for _ in 0..addr_count {
        let addr = read_address(buf)?;
        let n = checked_len(read_compact_size(buf)?)?;
        ensure_remaining(buf, n * 32)?;
        if keep.contains(&addr) {
            let txids = log.entry(addr).or_default();
            txids.reserve(n);
            for _ in 0..n {
                txids.push(Txid(read_hash(buf)?));
            }
        } else {
            buf.advance(n * 32);
        }
    }
    Ok(())
}

fn checked_len(n: u64) -> Result<usize, DecodeError> {
    if n > MAX_DECODE_LEN {
        return Err(DecodeError::OversizedLength(n));
    }
    Ok(n as usize)
}

fn read_hash(buf: &mut Bytes) -> Result<Hash256, DecodeError> {
    ensure_remaining(buf, 32)?;
    let mut raw = [0u8; 32];
    buf.copy_to_slice(&mut raw);
    Ok(Hash256(raw))
}

fn put_address(buf: &mut BytesMut, addr: &Address) {
    let kind = match addr {
        Address::P2pkh(_) => 0u8,
        Address::P2sh(_) => 1,
        Address::P2wpkh(_) => 2,
    };
    buf.put_u8(kind);
    buf.put_slice(addr.payload());
}

fn read_address(buf: &mut Bytes) -> Result<Address, DecodeError> {
    ensure_remaining(buf, 21)?;
    let kind = buf.get_u8();
    let mut payload = [0u8; 20];
    buf.copy_to_slice(&mut payload);
    match kind {
        0 => Ok(Address::P2pkh(payload)),
        1 => Ok(Address::P2sh(payload)),
        2 => Ok(Address::P2wpkh(payload)),
        _ => Err(DecodeError::UnexpectedEnd),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::StreamExpectation;
    use crate::streaming::{interleave, StreamingConfig};
    use cn_chain::{Amount, Chain, CoinbaseBuilder, Params, PoolMarker, Transaction};
    use cn_mempool::SnapshotEntry;
    use std::io::Cursor;

    /// The coinbase wallet of the pool that only mines late in [`sample`].
    fn late_wallet() -> Address {
        Address::from_label("pool:Gamma:0")
    }

    /// A small valid chain alternating two pools, with per-block snapshots.
    /// A third pool, Gamma, mines once at three quarters of the run, and
    /// its coinbase wallet was paid at height 0: the first spilled epoch
    /// holds a pool wallet's entry long before anything marks it as one.
    fn sample(blocks: u64) -> (Chain, Vec<MempoolSnapshot>) {
        let mut chain = Chain::new(Params::mainnet());
        let mut fund =
            Transaction::builder().add_input(cn_chain::TxIn::new(cn_chain::OutPoint::NULL));
        for _ in 0..blocks * 2 {
            fund = fund.pay_to(Address::from_label("u"), Amount::from_sat(2_000_000));
        }
        let fund = fund.build();
        chain.seed_utxos(&fund);
        let mut snapshots = Vec::new();
        for h in 0..blocks {
            let t1 = Transaction::builder()
                .add_input_with_sizes(fund.txid(), (h * 2) as u32, 107, 0)
                .pay_to(
                    if h == 0 { late_wallet() } else { Address::from_label("a") },
                    Amount::from_sat(1_800_000),
                )
                .build();
            let t2 = Transaction::builder()
                .add_input_with_sizes(fund.txid(), (h * 2 + 1) as u32, 107, 0)
                .pay_to(Address::from_label("b"), Amount::from_sat(1_900_000))
                .build();
            snapshots.push(MempoolSnapshot::from_entries(
                h * 600 + 300,
                [&t1, &t2]
                    .iter()
                    .enumerate()
                    .map(|(i, tx)| SnapshotEntry {
                        txid: tx.txid(),
                        received: h * 600 + 100 + i as u64,
                        fee: Amount::from_sat(if i == 0 { 200_000 } else { 100_000 }),
                        vsize: tx.vsize(),
                        has_unconfirmed_parent: false,
                    })
                    .collect(),
            ));
            let fees = Amount::from_sat(300_000);
            let pool = match h {
                h if h == blocks * 3 / 4 => "/Gamma/",
                h if h % 2 == 0 => "/Alpha/",
                _ => "/Beta/",
            };
            let cb = CoinbaseBuilder::new(h)
                .marker(PoolMarker::new(pool))
                .reward(
                    Address::from_label(&format!("pool:{}:0", &pool[1..pool.len() - 1])),
                    Amount::from_btc(50) + fees,
                )
                .extra_nonce(h)
                .build();
            let block =
                Block::assemble(2, chain.tip_hash(), (h + 1) * 600, h as u32, cb, vec![t1, t2]);
            chain.connect(block).expect("valid");
        }
        (chain, snapshots)
    }

    fn config(blocks: u64, window: u64) -> StreamingConfig {
        let mut cfg = StreamingConfig::new(StreamExpectation {
            windows: blocks,
            detailed: blocks,
            min_coverage: 0.0,
        });
        cfg.window_blocks = window;
        cfg
    }

    #[test]
    fn spilled_verdict_is_bit_identical_to_unspilled() {
        let (chain, snapshots) = sample(16);
        for epoch in [1u64, 3, 5] {
            let mut plain =
                StreamingAuditor::new(chain.initial_utxos(), config(16, 4));
            let mut spilled = SpilledAuditor::new(
                StreamingAuditor::new(chain.initial_utxos(), config(16, 4)),
                Cursor::new(Vec::new()),
                epoch,
            );
            for ev in interleave(chain.blocks(), &snapshots) {
                plain.push_event(&ev).expect("replays");
                spilled.push_event(&ev).expect("replays");
            }
            assert!(spilled.spilled_segments() > 0, "epoch {epoch} never spilled");
            assert!(
                spilled.auditor().digest_view().0.len() < chain.blocks().len(),
                "epoch {epoch} retained the whole index"
            );
            // The late pool's wallet entry was spilled before its coinbase
            // made it a pool wallet; the restore must keep it.
            let restored = spilled.restore().expect("restores");
            let gamma = restored
                .attribution
                .pools
                .iter()
                .find(|p| p.name == "Gamma")
                .expect("Gamma attributed");
            assert!(gamma.wallets.contains(&late_wallet()), "epoch {epoch}");
            let self_interest = |log: &FastMap<Address, Vec<Txid>>| -> FastSet<Txid> {
                gamma.wallets.iter().filter_map(|w| log.get(w)).flatten().copied().collect()
            };
            let got_set = self_interest(&restored.wallet_txids);
            assert!(!got_set.is_empty(), "epoch {epoch}: Gamma's self-interest set is empty");
            assert_eq!(got_set, self_interest(plain.digest_view().2), "epoch {epoch}");
            let want = plain.verdict().expect("audits");
            let got = spilled.verdict().expect("audits");
            assert_eq!(got, want, "epoch {epoch}");
            assert_eq!(got.render(), want.render(), "epoch {epoch}");
            // Rolling telemetry is oblivious to spilling.
            assert_eq!(spilled.rolling(), plain.rolling(), "epoch {epoch}");
            // Verdict is repeatable (the store survives being replayed).
            let again = spilled.verdict().expect("audits twice");
            assert_eq!(again, want, "epoch {epoch} second verdict");
        }
    }

    #[test]
    fn epoch_zero_never_spills_and_matches() {
        let (chain, snapshots) = sample(8);
        let mut plain = StreamingAuditor::new(chain.initial_utxos(), config(8, 3));
        let mut spilled = SpilledAuditor::new(
            StreamingAuditor::new(chain.initial_utxos(), config(8, 3)),
            Cursor::new(Vec::new()),
            0,
        );
        for ev in interleave(chain.blocks(), &snapshots) {
            plain.push_event(&ev).expect("replays");
            spilled.push_event(&ev).expect("replays");
        }
        assert_eq!(spilled.spilled_segments(), 0);
        assert_eq!(spilled.spilled_bytes(), 0);
        assert_eq!(spilled.verdict().expect("audits"), plain.verdict().expect("audits"));
    }

    #[test]
    fn segment_round_trips_through_the_wire_format() {
        let (chain, snapshots) = sample(10);
        let mut auditor = StreamingAuditor::new(chain.initial_utxos(), config(10, 2));
        for ev in interleave(chain.blocks(), &snapshots) {
            auditor.push_event(&ev).expect("replays");
        }
        let segment = auditor.drain_digest();
        assert!(!segment.blocks.is_empty());
        assert!(!segment.observed.is_empty());
        assert!(!segment.addr_txids.is_empty());

        let encoded = encode_segment(&segment);
        let mut cursor = encoded.clone();
        let (mut blocks, mut observed) = (Vec::new(), FastSet::default());
        decode_digest(&mut cursor, &mut blocks, &mut observed).expect("round trip");
        assert_eq!(observed, segment.observed.iter().copied().collect::<FastSet<_>>());
        assert_eq!(blocks.len(), segment.blocks.len());
        for (a, b) in blocks.iter().zip(&segment.blocks) {
            assert_eq!(a.height, b.height);
            assert_eq!(a.hash, b.hash);
            assert_eq!(a.time, b.time);
            assert_eq!(a.miner, b.miner);
            assert_eq!(a.coinbase_wallets, b.coinbase_wallets);
            assert_eq!(a.txs, b.txs);
        }
        let log_at = encoded.len() - cursor.remaining();
        let every: FastSet<Address> = segment.addr_txids.iter().map(|(a, _)| *a).collect();
        let mut log = FastMap::default();
        decode_addresses(&mut cursor, &every, &mut log).expect("round trip");
        assert!(!cursor.has_remaining(), "decoder consumed everything");
        assert_eq!(log, segment.addr_txids.iter().cloned().collect::<FastMap<_, _>>());
        // Kept addresses only: the rest are stepped over, still in full.
        let one: FastSet<Address> = every.iter().take(1).copied().collect();
        let mut cursor = Bytes::copy_from_slice(&encoded[log_at..]);
        let mut kept = FastMap::default();
        decode_addresses(&mut cursor, &one, &mut kept).expect("filtered");
        assert!(!cursor.has_remaining());
        assert_eq!(kept.len(), 1);

        // A truncated segment is a typed decode error, not a panic.
        let mut torn = Bytes::copy_from_slice(&encoded[..log_at / 2]);
        let (mut blocks, mut observed) = (Vec::new(), FastSet::default());
        assert!(decode_digest(&mut torn, &mut blocks, &mut observed).is_err());
        let mut torn = Bytes::copy_from_slice(&encoded[log_at..(log_at + encoded.len()) / 2]);
        assert!(decode_addresses(&mut torn, &every, &mut FastMap::default()).is_err());
    }

    /// A spilled auditor over `sample(blocks)` with every event pushed.
    fn spilled_run<S: Read + Write + Seek>(
        blocks: u64,
        epoch: u64,
        store: S,
    ) -> (SpilledAuditor<S>, AuditReport, u64) {
        let (chain, snapshots) = sample(blocks);
        let mut plain = StreamingAuditor::new(chain.initial_utxos(), config(blocks, 4));
        let mut spilled = SpilledAuditor::new(
            StreamingAuditor::new(chain.initial_utxos(), config(blocks, 4)),
            store,
            epoch,
        );
        let mut largest_frame = 0;
        for ev in interleave(chain.blocks(), &snapshots) {
            plain.push_event(&ev).expect("replays");
            let before = spilled.spilled_bytes();
            spilled.push_event(&ev).expect("replays");
            largest_frame = largest_frame.max(spilled.spilled_bytes() - before);
        }
        (spilled, plain.verdict().expect("audits"), largest_frame)
    }

    /// The byte ranges of each frame in a store, parsed from its length
    /// prefixes.
    fn frames(store: &[u8]) -> Vec<std::ops::Range<usize>> {
        let mut out = Vec::new();
        let mut at = 0;
        while at < store.len() {
            let mut head = Bytes::copy_from_slice(&store[at..]);
            let len = read_compact_size(&mut head).expect("length prefix");
            let end = store.len() - head.remaining() + len as usize;
            out.push(at..end);
            at = end;
        }
        out
    }

    /// A frame rebuilt with one extra byte at the end.
    fn with_trailing_byte(frame: &[u8]) -> Vec<u8> {
        let mut head = Bytes::copy_from_slice(frame);
        read_compact_size(&mut head).expect("length prefix");
        let mut payload = frame[frame.len() - head.remaining()..].to_vec();
        payload.push(0);
        let mut out = Vec::new();
        write_frame(&mut out, &payload).expect("within bound");
        out
    }

    #[test]
    fn corrupt_stores_fail_closed_without_panicking() {
        let (mut spilled, want, _) = spilled_run(16, 3, Cursor::new(Vec::new()));
        let good = spilled.store.get_ref().clone();
        let f = frames(&good);
        assert!(f.len() >= 3, "need several frames, got {}", f.len());
        assert_eq!(f.last().map(|r| r.end), Some(good.len()));
        let concat = |order: &[Vec<u8>]| order.concat();
        let frame = |i: usize| good[f[i].clone()].to_vec();
        let rest = good[f[2].start..].to_vec();

        // A canonical nine-byte length far above the frame bound.
        let mut oversized = vec![0xff];
        oversized.extend_from_slice(&(1u64 << 40).to_le_bytes());
        let torn = Corruption::Decode(DecodeError::UnexpectedEnd);
        let height = |expected, found| Corruption::Height { expected, found };
        let cases: Vec<(&str, Vec<u8>, u64, Corruption)> = vec![
            ("torn frame", good[..f[1].start + 5].to_vec(), good.len() as u64, torn),
            (
                "trailing byte inside a frame",
                concat(&[frame(0), with_trailing_byte(&frame(1)), rest.clone()]),
                good.len() as u64 + 1,
                Corruption::TrailingBytes,
            ),
            (
                "two frames swapped",
                concat(&[frame(1), frame(0), rest.clone()]),
                good.len() as u64,
                height(0, 3),
            ),
            (
                "a frame repeated",
                concat(&[frame(0), frame(0), rest.clone()]),
                (f[0].len() * 2 + rest.len()) as u64,
                height(3, 0),
            ),
            (
                "oversized length prefix",
                concat(&[oversized.clone(), good[f[1].start..].to_vec()]),
                (oversized.len() + good.len() - f[1].start) as u64,
                Corruption::Decode(DecodeError::OversizedLength(1 << 40)),
            ),
            (
                "bytes past the last frame",
                concat(&[good.clone(), vec![0]]),
                good.len() as u64 + 1,
                Corruption::TrailingBytes,
            ),
        ];
        for (name, bytes, len, want) in cases {
            spilled.store = Cursor::new(bytes);
            spilled.spilled_bytes = len;
            match spilled.verdict() {
                Err(SpillError::Corrupt(got)) => assert_eq!(got, want, "{name}"),
                other => panic!("{name}: expected Corrupt, got {other:?}"),
            }
        }
        // The intact store still restores.
        spilled.store = Cursor::new(good.clone());
        spilled.spilled_bytes = good.len() as u64;
        assert_eq!(spilled.verdict().expect("audits"), want);
    }

    #[test]
    fn oversized_frame_is_refused_before_anything_is_written() {
        let over = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut store = Vec::new();
        match write_frame(&mut store, &over) {
            Err(SpillError::OversizedFrame(n)) => assert_eq!(n, MAX_FRAME_LEN + 1),
            other => panic!("expected OversizedFrame, got {other:?}"),
        }
        assert!(store.is_empty(), "nothing written");
        assert!(write_frame(&mut store, &over[1..]).is_ok(), "the bound itself is writable");
    }

    /// A store that records the largest single `read` request made of it.
    struct ReadRecorder {
        inner: Cursor<Vec<u8>>,
        largest_read: usize,
    }

    impl Read for ReadRecorder {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_read = self.largest_read.max(buf.len());
            self.inner.read(buf)
        }
    }

    impl Write for ReadRecorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.inner.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    impl Seek for ReadRecorder {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn verdict_never_buffers_the_store() {
        let store = ReadRecorder { inner: Cursor::new(Vec::new()), largest_read: 0 };
        let (mut spilled, want, largest_frame) = spilled_run(48, 1, store);
        let bound = largest_frame as usize + READ_BUF_LEN;
        // Reading the whole store at once would break the bound.
        assert!(spilled.spilled_bytes() as usize > bound, "store too small to tell");
        assert_eq!(spilled.verdict().expect("audits"), want);
        let largest = spilled.store.largest_read;
        assert!(largest <= bound, "a {largest}-byte read exceeds frame {largest_frame} + buffer");
    }
}
