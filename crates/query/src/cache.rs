//! Byte-budgeted LRU of decoded snapshot blocks.
//!
//! Decoding a checkpoint record is the expensive step of every query
//! (chunk CRC + codec + `PhaseSpace` reassembly), so the shard fronts its
//! reader with this cache. Entries are `Arc<PhaseSpace>` keyed by record
//! index; the budget counts payload bytes (`f32` grid data), and inserting
//! past the budget evicts least-recently-used entries first. A single entry
//! larger than the whole budget is still admitted alone — refusing it would
//! livelock every query against a small cache.

use std::collections::HashMap;
use std::sync::Arc;
use vlasov6d_phase_space::PhaseSpace;

/// Hit/miss/eviction counters, exported into the service metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Current resident payload bytes.
    pub used_bytes: usize,
}

/// LRU cache of decoded blocks, keyed by record index within one rank file.
#[derive(Debug)]
pub struct DecodedCache {
    budget_bytes: usize,
    used_bytes: usize,
    entries: HashMap<usize, Arc<PhaseSpace>>,
    /// Keys from least- to most-recently used.
    order: Vec<usize>,
    stats: CacheStats,
}

fn payload_bytes(ps: &PhaseSpace) -> usize {
    std::mem::size_of_val(ps.as_slice())
}

impl DecodedCache {
    /// Cache admitting up to `budget_bytes` of decoded payload.
    pub fn new(budget_bytes: usize) -> DecodedCache {
        DecodedCache {
            budget_bytes,
            used_bytes: 0,
            entries: HashMap::new(),
            order: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            used_bytes: self.used_bytes,
            ..self.stats
        }
    }

    /// Drop every entry (the cold-start state for cache-effect benchmarks).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
        self.used_bytes = 0;
    }

    fn touch(&mut self, key: usize) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
        self.order.push(key);
    }

    /// Fetch `key`, decoding through `decode` on a miss. Eviction runs
    /// before insert so the budget bounds *resident* bytes, not peak.
    pub(crate) fn get_or_decode<E>(
        &mut self,
        key: usize,
        decode: impl FnOnce() -> Result<PhaseSpace, E>,
    ) -> Result<Arc<PhaseSpace>, E> {
        if let Some(ps) = self.entries.get(&key).cloned() {
            self.stats.hits += 1;
            self.touch(key);
            return Ok(ps);
        }
        self.stats.misses += 1;
        let ps = Arc::new(decode()?);
        let bytes = payload_bytes(&ps);
        // Evict LRU-first until the newcomer fits (or the cache is empty:
        // an oversized entry is admitted alone).
        while !self.order.is_empty() && self.used_bytes + bytes > self.budget_bytes {
            let victim = self.order.remove(0);
            if let Some(old) = self.entries.remove(&victim) {
                self.used_bytes -= payload_bytes(&old);
                self.stats.evictions += 1;
            }
        }
        self.used_bytes += bytes;
        self.entries.insert(key, Arc::clone(&ps));
        self.order.push(key);
        Ok(ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vlasov6d_phase_space::VelocityGrid;

    fn block(tag: f32) -> PhaseSpace {
        // 2·2·2 spatial × 2³ velocity = 64 f32 = 256 B payload.
        let mut ps = PhaseSpace::zeros([2, 2, 2], VelocityGrid::cubic(2, 1.0));
        ps.as_mut_slice()[0] = tag;
        ps
    }

    #[test]
    fn hit_returns_cached_without_redecoding() {
        let mut cache = DecodedCache::new(1 << 20);
        let a = cache
            .get_or_decode::<()>(0, || Ok(block(1.0)))
            .expect("decode");
        let b = cache
            .get_or_decode::<()>(0, || panic!("must not re-decode on hit"))
            .expect("hit");
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.used_bytes, 256);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        // Budget fits exactly two 256 B blocks.
        let mut cache = DecodedCache::new(512);
        cache.get_or_decode::<()>(0, || Ok(block(0.0))).unwrap();
        cache.get_or_decode::<()>(1, || Ok(block(1.0))).unwrap();
        // Touch 0 so 1 becomes LRU, then insert 2: 1 must be evicted.
        cache
            .get_or_decode::<()>(0, || panic!("0 is resident"))
            .unwrap();
        cache.get_or_decode::<()>(2, || Ok(block(2.0))).unwrap();
        cache
            .get_or_decode::<()>(0, || panic!("0 survived"))
            .unwrap();
        let mut redecoded = false;
        cache
            .get_or_decode::<()>(1, || {
                redecoded = true;
                Ok(block(1.0))
            })
            .unwrap();
        assert!(redecoded, "1 was evicted and must decode again");
        assert_eq!(cache.stats().evictions, 2, "1 evicted, then 0 or 2");
    }

    #[test]
    fn oversized_entry_is_admitted_alone() {
        let mut cache = DecodedCache::new(64); // smaller than one block
        cache.get_or_decode::<()>(0, || Ok(block(0.0))).unwrap();
        assert_eq!(cache.stats().used_bytes, 256);
        // The next insert evicts it and takes its place.
        cache.get_or_decode::<()>(1, || Ok(block(1.0))).unwrap();
        assert_eq!(cache.stats().used_bytes, 256);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn decode_error_is_propagated_and_not_cached() {
        let mut cache = DecodedCache::new(1 << 20);
        let r: Result<_, &str> = cache.get_or_decode(0, || Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        let mut called = false;
        cache
            .get_or_decode::<()>(0, || {
                called = true;
                Ok(block(0.0))
            })
            .unwrap();
        assert!(called, "failed decode must not poison the key");
    }
}
