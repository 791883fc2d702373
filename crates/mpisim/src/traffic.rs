//! Per-pair communication accounting.
//!
//! Every `send` records its payload size here. The performance model replays
//! these counts against the Tofu-torus network model to price communication at
//! the paper's node counts — which is exactly why the counters live in the
//! runtime instead of being estimated after the fact.
//!
//! Besides the per-pair byte/message matrix, `Traffic` keeps a log-spaced
//! message-size histogram (small control messages and bulk ghost exchanges
//! land in clearly separated bins) and offers per-rank send/receive totals,
//! a load-imbalance summary and interval accounting via [`Traffic::diff`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use vlasov6d_obs::metrics::{Histogram, HistogramSnapshot};

/// Byte and message counters for every ordered rank pair, plus a
/// message-size histogram over all sends and a `(src, dst, tag)` use count
/// backing the tag-reuse audit.
#[derive(Debug)]
pub struct Traffic {
    n: usize,
    bytes: Vec<AtomicU64>,
    messages: Vec<AtomicU64>,
    msg_sizes: Histogram,
    /// Sends per `(src, dst, tag)` — user tags only. A count above one means
    /// two in-flight messages shared an edge and a tag, which FIFO matching
    /// tolerates but a split-phase step must never rely on.
    tags: Mutex<HashMap<(usize, usize, u64), u64>>,
}

impl Traffic {
    pub fn new(n_ranks: usize) -> Self {
        Self {
            n: n_ranks,
            bytes: (0..n_ranks * n_ranks).map(|_| AtomicU64::new(0)).collect(),
            messages: (0..n_ranks * n_ranks).map(|_| AtomicU64::new(0)).collect(),
            msg_sizes: Histogram::new(),
            tags: Mutex::new(HashMap::new()),
        }
    }

    #[inline]
    pub(crate) fn record(&self, src: usize, dst: usize, bytes: usize) {
        let idx = src * self.n + dst;
        self.bytes[idx].fetch_add(bytes as u64, Ordering::Relaxed);
        self.messages[idx].fetch_add(1, Ordering::Relaxed);
        self.msg_sizes.record(bytes as u64);
    }

    #[inline]
    pub(crate) fn record_tag(&self, src: usize, dst: usize, tag: u64) {
        *self
            .tags
            .lock()
            .expect("tag map poisoned")
            .entry((src, dst, tag))
            .or_insert(0) += 1;
    }

    /// Every `(src, dst, tag)` triple used by more than one send, with its
    /// use count, sorted. Empty means every posted message had a unique tag
    /// on its edge — the invariant the distributed step's tag counter must
    /// uphold.
    pub fn tag_reuse(&self) -> Vec<((usize, usize, u64), u64)> {
        let mut out: Vec<_> = self
            .tags
            .lock()
            .expect("tag map poisoned")
            .iter()
            .filter(|(_, &count)| count > 1)
            .map(|(&key, &count)| (key, count))
            .collect();
        out.sort_unstable();
        out
    }

    pub fn n_ranks(&self) -> usize {
        self.n
    }

    /// Bytes sent from `src` to `dst`.
    pub fn bytes_between(&self, src: usize, dst: usize) -> u64 {
        self.bytes[src * self.n + dst].load(Ordering::Relaxed)
    }

    /// Messages sent from `src` to `dst`.
    pub fn messages_between(&self, src: usize, dst: usize) -> u64 {
        self.messages[src * self.n + dst].load(Ordering::Relaxed)
    }

    /// Total bytes moved in the universe.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Total message count.
    pub fn total_messages(&self) -> u64 {
        self.messages
            .iter()
            .map(|m| m.load(Ordering::Relaxed))
            .sum()
    }

    /// The `n` heaviest `(src, dst, bytes)` pairs, descending by bytes
    /// (ties broken by `(src, dst)` for determinism). Pairs that moved no
    /// bytes are omitted, so fewer than `n` entries may come back.
    pub fn top_pairs(&self, n: usize) -> Vec<(usize, usize, u64)> {
        let mut pairs: Vec<(usize, usize, u64)> = (0..self.n)
            .flat_map(|src| (0..self.n).map(move |dst| (src, dst)))
            .filter_map(|(src, dst)| {
                let b = self.bytes_between(src, dst);
                (b > 0).then_some((src, dst, b))
            })
            .collect();
        pairs.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
        pairs.truncate(n);
        pairs
    }

    /// Bytes sent by one rank to all destinations.
    pub fn bytes_sent_by(&self, src: usize) -> u64 {
        (0..self.n).map(|d| self.bytes_between(src, d)).sum()
    }

    /// Bytes received by one rank from all sources.
    pub fn bytes_received_by(&self, dst: usize) -> u64 {
        (0..self.n).map(|s| self.bytes_between(s, dst)).sum()
    }

    /// Communication load imbalance: max over mean of each rank's total
    /// traffic (bytes sent plus bytes received). 1.0 is perfectly balanced;
    /// 0.0 when nothing was sent yet.
    pub fn imbalance(&self) -> f64 {
        let totals: Vec<u64> = (0..self.n)
            .map(|r| self.bytes_sent_by(r) + self.bytes_received_by(r))
            .collect();
        let max = totals.iter().copied().max().unwrap_or(0);
        let sum: u64 = totals.iter().sum();
        if sum == 0 {
            return 0.0;
        }
        max as f64 * self.n as f64 / sum as f64
    }

    /// Snapshot of the log-spaced message-size histogram over all sends.
    pub fn msg_size_snapshot(&self) -> HistogramSnapshot {
        self.msg_sizes.snapshot()
    }

    /// Counters accumulated since `earlier` (a snapshot of this universe
    /// taken at some prior point), as an independent `Traffic`. Differences
    /// saturate at zero, so a reset between the two snapshots yields zeros
    /// rather than wrapped counts.
    ///
    /// # Panics
    /// Panics if the two sides track different rank counts.
    pub fn diff(&self, earlier: &Traffic) -> Traffic {
        assert_eq!(
            self.n, earlier.n,
            "Traffic::diff: rank-count mismatch ({} vs {})",
            self.n, earlier.n
        );
        let t = Traffic::new(self.n);
        for i in 0..self.n * self.n {
            let b = self.bytes[i]
                .load(Ordering::Relaxed)
                .saturating_sub(earlier.bytes[i].load(Ordering::Relaxed));
            let m = self.messages[i]
                .load(Ordering::Relaxed)
                .saturating_sub(earlier.messages[i].load(Ordering::Relaxed));
            t.bytes[i].store(b, Ordering::Relaxed);
            t.messages[i].store(m, Ordering::Relaxed);
        }
        let earlier_tags = earlier.tags.lock().expect("tag map poisoned");
        let tags: HashMap<(usize, usize, u64), u64> = self
            .tags
            .lock()
            .expect("tag map poisoned")
            .iter()
            .filter_map(|(&key, &count)| {
                let delta = count.saturating_sub(earlier_tags.get(&key).copied().unwrap_or(0));
                (delta > 0).then_some((key, delta))
            })
            .collect();
        Traffic {
            msg_sizes: Histogram::from_snapshot(
                &self
                    .msg_sizes
                    .snapshot()
                    .delta_since(&earlier.msg_sizes.snapshot()),
            ),
            tags: Mutex::new(tags),
            ..t
        }
    }

    /// Deep copy of the current counter values.
    pub fn clone_snapshot(&self) -> Traffic {
        let t = Traffic::new(self.n);
        for i in 0..self.n * self.n {
            t.bytes[i].store(self.bytes[i].load(Ordering::Relaxed), Ordering::Relaxed);
            t.messages[i].store(self.messages[i].load(Ordering::Relaxed), Ordering::Relaxed);
        }
        Traffic {
            msg_sizes: Histogram::from_snapshot(&self.msg_sizes.snapshot()),
            tags: Mutex::new(self.tags.lock().expect("tag map poisoned").clone()),
            ..t
        }
    }

    /// Reset all counters (e.g. after warm-up steps).
    pub fn reset(&self) {
        for b in &self.bytes {
            b.store(0, Ordering::Relaxed);
        }
        for m in &self.messages {
            m.store(0, Ordering::Relaxed);
        }
        self.msg_sizes.reset();
        self.tags.lock().expect("tag map poisoned").clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let t = Traffic::new(3);
        t.record(0, 1, 100);
        t.record(0, 1, 50);
        t.record(2, 0, 7);
        assert_eq!(t.bytes_between(0, 1), 150);
        assert_eq!(t.messages_between(0, 1), 2);
        assert_eq!(t.total_bytes(), 157);
        assert_eq!(t.total_messages(), 3);
        assert_eq!(t.bytes_sent_by(0), 150);
    }

    #[test]
    fn top_pairs_rank_by_bytes_and_omit_idle_pairs() {
        let t = Traffic::new(4);
        t.record(0, 1, 100);
        t.record(2, 3, 700);
        t.record(1, 0, 100);
        assert_eq!(t.top_pairs(10), vec![(2, 3, 700), (0, 1, 100), (1, 0, 100)]);
        assert_eq!(t.top_pairs(1), vec![(2, 3, 700)]);
        assert!(Traffic::new(2).top_pairs(5).is_empty());
    }

    #[test]
    fn received_mirrors_sent() {
        let t = Traffic::new(3);
        t.record(0, 2, 100);
        t.record(1, 2, 50);
        t.record(2, 0, 30);
        assert_eq!(t.bytes_received_by(2), 150);
        assert_eq!(t.bytes_received_by(0), 30);
        assert_eq!(t.bytes_received_by(1), 0);
        // Conservation: every sent byte is received exactly once.
        let sent: u64 = (0..3).map(|r| t.bytes_sent_by(r)).sum();
        let received: u64 = (0..3).map(|r| t.bytes_received_by(r)).sum();
        assert_eq!(sent, received);
    }

    #[test]
    fn imbalance_bounds() {
        let t = Traffic::new(2);
        assert_eq!(t.imbalance(), 0.0);
        // Symmetric exchange: perfectly balanced.
        t.record(0, 1, 100);
        t.record(1, 0, 100);
        assert!((t.imbalance() - 1.0).abs() < 1e-12);
        // Pile everything onto rank 0 <-> 1 in one direction only: both ends
        // of the pair still carry the bytes (one sends, one receives), so a
        // 2-rank universe stays balanced; verify a 3-rank skew instead.
        let t3 = Traffic::new(3);
        t3.record(0, 1, 300);
        t3.record(1, 0, 300);
        // rank 2 idle: totals are [600, 600, 0], mean 400, max 600.
        assert!((t3.imbalance() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn message_sizes_feed_histogram() {
        let t = Traffic::new(2);
        t.record(0, 1, 8);
        t.record(0, 1, 800);
        t.record(1, 0, 800);
        let h = t.msg_size_snapshot();
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 1608);
        assert_eq!(h.quantile_lower_edge(1.0), 512); // 800 lands in [512, 1024)
    }

    #[test]
    fn diff_isolates_an_interval() {
        let t = Traffic::new(2);
        t.record(0, 1, 10);
        let mark = t.clone_snapshot();
        t.record(0, 1, 25);
        t.record(1, 0, 5);
        let d = t.diff(&mark);
        assert_eq!(d.bytes_between(0, 1), 25);
        assert_eq!(d.messages_between(0, 1), 1);
        assert_eq!(d.bytes_between(1, 0), 5);
        assert_eq!(d.total_messages(), 2);
        assert_eq!(d.msg_size_snapshot().count, 2);
        assert_eq!(d.msg_size_snapshot().sum, 30);
        // The original is untouched.
        assert_eq!(t.total_bytes(), 40);
    }

    #[test]
    #[should_panic(expected = "rank-count mismatch")]
    fn diff_rejects_mismatched_universes() {
        let _ = Traffic::new(2).diff(&Traffic::new(3));
    }

    #[test]
    fn snapshot_is_independent() {
        let t = Traffic::new(2);
        t.record(0, 1, 10);
        let snap = t.clone_snapshot();
        t.record(0, 1, 10);
        assert_eq!(snap.bytes_between(0, 1), 10);
        assert_eq!(t.bytes_between(0, 1), 20);
        assert_eq!(snap.msg_size_snapshot().count, 1);
        assert_eq!(t.msg_size_snapshot().count, 2);
    }

    #[test]
    fn reset_zeroes_counters() {
        let t = Traffic::new(2);
        t.record(1, 0, 99);
        t.record_tag(1, 0, 5);
        t.reset();
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(t.total_messages(), 0);
        assert_eq!(t.msg_size_snapshot().count, 0);
        // The pre-reset use is forgotten: one more is not a reuse.
        t.record_tag(1, 0, 5);
        assert!(t.tag_reuse().is_empty());
    }

    #[test]
    fn tag_reuse_flags_only_repeated_triples() {
        let t = Traffic::new(3);
        t.record_tag(0, 1, 7);
        t.record_tag(0, 1, 8);
        t.record_tag(1, 0, 7); // same tag, different edge: fine
        assert!(t.tag_reuse().is_empty());
        t.record_tag(0, 1, 7); // second use of (0, 1, 7)
        assert_eq!(t.tag_reuse(), vec![((0, 1, 7), 2)]);
    }

    #[test]
    fn tag_audit_survives_snapshot_and_diff() {
        let t = Traffic::new(2);
        t.record_tag(0, 1, 3);
        let mark = t.clone_snapshot();
        t.record_tag(0, 1, 3);
        t.record_tag(0, 1, 4);
        let d = t.diff(&mark);
        // The interval saw one send on each tag: no reuse inside it.
        assert!(d.tag_reuse().is_empty());
        // The full run did reuse (0, 1, 3).
        assert_eq!(t.tag_reuse(), vec![((0, 1, 3), 2)]);
        // The snapshot kept its one use, and the interval one use per tag:
        // one more send each makes exactly those triples reused.
        mark.record_tag(0, 1, 3);
        assert_eq!(mark.tag_reuse(), vec![((0, 1, 3), 2)]);
        d.record_tag(0, 1, 3);
        d.record_tag(0, 1, 4);
        assert_eq!(d.tag_reuse(), vec![((0, 1, 3), 2), ((0, 1, 4), 2)]);
    }
}
