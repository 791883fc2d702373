//! One rank's slice of a snapshot: a rank file, its block index, and the
//! decode cache.
//!
//! Opening a shard scans the rank file's frame structure and *peeks* each
//! record's metadata ([`vlasov6d_ckpt::RankFileReader::peek_meta`]) — no
//! payload bytes are decoded, so a shard over a multi-GB file opens in
//! milliseconds and a region query touching one corner of the box decodes
//! only the blocks that corner intersects.

use crate::cache::{CacheStats, DecodedCache};
use crate::request::QueryError;
use std::sync::Arc;
use vlasov6d_ckpt::{CheckpointStore, RankFileReader, Record, RecordMeta};
use vlasov6d_obs::span;
use vlasov6d_phase_space::PhaseSpace;

/// Where one phase-space block sits, known without decoding it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockInfo {
    /// Record index inside the rank file.
    pub record: usize,
    /// Local spatial dims of the block.
    pub sdims: [usize; 3],
    /// Global cell offset of the block.
    pub soffset: [usize; 3],
    /// Global spatial dims of the snapshot.
    pub sglobal: [usize; 3],
}

impl BlockInfo {
    /// Does the global-cell region `[lo, hi)` intersect this block?
    pub fn intersects(&self, lo: [usize; 3], hi: [usize; 3]) -> bool {
        (0..3).all(|d| lo[d].max(self.soffset[d]) < hi[d].min(self.soffset[d] + self.sdims[d]))
    }
}

/// One rank's shard of a snapshot generation.
pub struct SnapshotShard {
    reader: RankFileReader,
    blocks: Vec<BlockInfo>,
    cache: DecodedCache,
}

impl SnapshotShard {
    /// Open rank `rank` of generation `generation` with a decode cache of
    /// `cache_bytes`.
    pub fn open(
        store: &CheckpointStore,
        generation: u64,
        rank: usize,
        cache_bytes: usize,
    ) -> Result<SnapshotShard, QueryError> {
        let reader = store
            .open_rank(generation, rank)
            .map_err(|e| QueryError::Snapshot(e.to_string()))?;
        let mut blocks = Vec::new();
        for i in 0..reader.record_count() {
            if let RecordMeta::PhaseSpace {
                sdims,
                soffset,
                sglobal,
                ..
            } = reader.peek_meta(i)
            {
                blocks.push(BlockInfo {
                    record: i,
                    sdims,
                    soffset,
                    sglobal,
                });
            }
        }
        if blocks.is_empty() {
            return Err(QueryError::Snapshot(format!(
                "rank {rank} of generation {generation} holds no phase-space records"
            )));
        }
        Ok(SnapshotShard {
            reader,
            blocks,
            cache: DecodedCache::new(cache_bytes),
        })
    }

    /// The shard's rank within the snapshot.
    pub fn rank(&self) -> usize {
        self.reader.rank as usize
    }

    /// Ranks in the snapshot.
    pub fn n_ranks(&self) -> usize {
        self.reader.n_ranks as usize
    }

    /// Global spatial dims of the snapshot.
    pub fn sglobal(&self) -> [usize; 3] {
        self.blocks[0].sglobal
    }

    /// The shard's phase-space blocks, in record order.
    pub fn blocks(&self) -> &[BlockInfo] {
        &self.blocks
    }

    /// Decode-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drop the decode cache (forces the next queries cold).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// The decoded block for `blocks()[i]`, through the LRU.
    pub fn block(&mut self, i: usize) -> Result<Arc<PhaseSpace>, QueryError> {
        let record = self.blocks[i].record;
        let reader = &mut self.reader;
        self.cache.get_or_decode(record, || {
            let _g = span!("query.decode", vlasov6d_obs::Bucket::Io);
            match reader.read_record(record) {
                Ok(Record::PhaseSpace(ps)) => Ok(ps),
                Ok(other) => Err(QueryError::Snapshot(format!(
                    "record {record} is {}, expected phase-space",
                    other.kind_name()
                ))),
                Err(e) => Err(QueryError::Snapshot(e.to_string())),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_intersection_is_half_open() {
        let b = BlockInfo {
            record: 0,
            sdims: [4, 4, 4],
            soffset: [4, 0, 0],
            sglobal: [8, 4, 4],
        };
        assert!(b.intersects([0, 0, 0], [5, 4, 4]));
        assert!(!b.intersects([0, 0, 0], [4, 4, 4]), "hi is exclusive");
        assert!(b.intersects([7, 3, 3], [8, 4, 4]));
        assert!(!b.intersects([8, 0, 0], [9, 4, 4]));
        assert!(!b.intersects([5, 0, 0], [5, 4, 4]), "empty region");
    }
}
