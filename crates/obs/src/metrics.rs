//! Counters, gauges and log-spaced histograms with an allocation-free hot
//! path.
//!
//! Handles are `Arc`s obtained from a [`Registry`] once (allocating), then
//! updated with plain atomic operations — safe to call from every rank
//! thread on every message. Histograms use fixed power-of-two bins so a
//! `record` is a `leading_zeros` plus two atomic adds, never a heap
//! allocation or a lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-writer-wins instantaneous value (stored as `f64` bits).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// New gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `v` (compare-and-swap loop; gauges are low-frequency).
    pub fn add(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of power-of-two bins after the dedicated zero bin: bin `k`
/// (1-based) covers `[2^(k-1), 2^k)`, so `u64::MAX` lands in bin 64.
pub(crate) const HISTOGRAM_BINS: usize = 65;

/// Fixed log-spaced (power-of-two) histogram of `u64` samples.
///
/// Bin 0 counts exact zeros; bin `k ≥ 1` counts values in
/// `[2^(k-1), 2^k)`. The layout matches message sizes well: bins are exact
/// at small sizes and within 2× at large ones, and recording is branch-light
/// with no allocation.
#[derive(Debug)]
pub struct Histogram {
    bins: [AtomicU64; HISTOGRAM_BINS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            bins: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Histogram pre-loaded from a snapshot (e.g. a [`HistogramSnapshot::delta_since`]
    /// result that should be carried forward as a live histogram).
    pub fn from_snapshot(snap: &HistogramSnapshot) -> Histogram {
        Histogram {
            bins: std::array::from_fn(|i| AtomicU64::new(snap.bins[i])),
            count: AtomicU64::new(snap.count),
            sum: AtomicU64::new(snap.sum),
        }
    }

    /// Index of the bin holding `value`.
    pub(crate) fn bin_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive lower edge of bin `i`.
    pub(crate) fn bin_lower_edge(i: usize) -> u64 {
        match i {
            0 => 0,
            _ => 1u64 << (i - 1),
        }
    }

    /// Record one sample.
    pub fn record(&self, value: u64) {
        self.bins[Self::bin_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Zero every bin and the count/sum (e.g. after warm-up).
    pub fn reset(&self) {
        for b in &self.bins {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
    }

    /// Consistent-enough copy of the current state (individual loads are
    /// relaxed; concurrent recording can skew count vs. bins by in-flight
    /// samples, which is acceptable for telemetry).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bins: std::array::from_fn(|i| self.bins[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bin sample counts (see `Histogram::bin_lower_edge`).
    pub bins: [u64; HISTOGRAM_BINS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower edge of the bin containing the `q`-quantile (0 ≤ q ≤ 1) —
    /// a conservative estimate, exact to within one power of two.
    pub fn quantile_lower_edge(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Histogram::bin_lower_edge(i);
            }
        }
        Histogram::bin_lower_edge(HISTOGRAM_BINS - 1)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) under the **upper-bound convention**:
    /// the *exclusive upper edge* `2^k` of the power-of-two bin containing
    /// the `⌈q·count⌉`-th smallest sample — i.e. the smallest power of two
    /// that is guaranteed to exceed at least a `q` fraction of the samples.
    ///
    /// This is the conservative reading for latencies: `quantile(0.99)`
    /// never under-reports a p99, it over-reports by at most 2×. Bin 0
    /// (exact zeros) reports 1; the top bin saturates at `u64::MAX`. An
    /// empty histogram reports 0. Compare [`HistogramSnapshot::quantile_lower_edge`],
    /// which is the matching underestimate.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Upper edge of bin i: bin 0 holds only zeros (edge 1);
                // bin k ≥ 1 covers [2^(k-1), 2^k); bin 64 has no finite edge.
                return match i {
                    64.. => u64::MAX,
                    _ => 1u64 << i,
                };
            }
        }
        u64::MAX
    }

    /// Per-sample difference against an earlier snapshot of the same
    /// histogram (saturating, so a reset between snapshots yields zeros
    /// rather than nonsense).
    pub fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            bins: std::array::from_fn(|i| self.bins[i].saturating_sub(earlier.bins[i])),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }
}

/// Point-in-time value of one registered metric.
// A histogram snapshot is ~0.5 KiB inline; events hold a handful of metrics,
// so the size skew is irrelevant and boxing would just cost an indirection.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
    /// A label, not a reading: which of a fixed set of names applied
    /// (`kernel.isa` = `"avx512f"`).
    Text(String),
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Get-or-create store of named metrics.
///
/// Lookup takes a lock and may allocate; do it once at setup and keep the
/// returned `Arc` for the hot path. Names are free-form dotted strings,
/// e.g. `"comm.msg_size_bytes"`.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        let entry = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match entry {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} is not a counter"),
        }
    }

    /// Get or create the gauge `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        let entry = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())));
        match entry {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} is not a gauge"),
        }
    }

    /// Get or create the histogram `name`.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().expect("registry poisoned");
        let entry = metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())));
        match entry {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} is not a histogram"),
        }
    }

    /// Snapshot every registered metric, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let metrics = self.metrics.lock().expect("registry poisoned");
        metrics
            .iter()
            .map(|(name, m)| {
                let value = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::new();
        c.add(1);
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(1.5);
        g.add(1.0);
        assert!((g.get() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_bin_edges_are_powers_of_two() {
        assert_eq!(Histogram::bin_index(0), 0);
        assert_eq!(Histogram::bin_index(1), 1);
        assert_eq!(Histogram::bin_index(2), 2);
        assert_eq!(Histogram::bin_index(3), 2);
        assert_eq!(Histogram::bin_index(4), 3);
        assert_eq!(Histogram::bin_index(1023), 10);
        assert_eq!(Histogram::bin_index(1024), 11);
        assert_eq!(Histogram::bin_index(u64::MAX), 64);
        assert_eq!(Histogram::bin_lower_edge(0), 0);
        assert_eq!(Histogram::bin_lower_edge(1), 1);
        assert_eq!(Histogram::bin_lower_edge(11), 1024);
        // Every value sits inside [lower_edge(bin), lower_edge(bin+1)).
        for v in [0u64, 1, 2, 7, 8, 100, 4096, 1 << 40] {
            let b = Histogram::bin_index(v);
            assert!(v >= Histogram::bin_lower_edge(b));
            if b + 1 < HISTOGRAM_BINS {
                assert!(v < Histogram::bin_lower_edge(b + 1));
            }
        }
    }

    #[test]
    fn histogram_snapshot_stats() {
        let h = Histogram::new();
        for v in [0u64, 1, 800, 800, 800, 1 << 20] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1 + 3 * 800 + (1 << 20));
        assert_eq!(s.bins[0], 1);
        assert_eq!(s.bins[Histogram::bin_index(800)], 3);
        // Median sample is 800 → bin lower edge 512.
        assert_eq!(s.quantile_lower_edge(0.5), 512);
        assert_eq!(s.quantile_lower_edge(1.0), 1 << 20);
    }

    #[test]
    fn quantile_upper_bound_convention() {
        let h = Histogram::new();
        // Empty histogram: 0 by convention.
        assert_eq!(h.snapshot().quantile(0.5), 0);
        for v in [0u64, 1, 800, 800, 800, 1 << 20] {
            h.record(v);
        }
        let s = h.snapshot();
        // Median sample is 800 → bin [512, 1024) → upper edge 1024.
        assert_eq!(s.quantile(0.5), 1024);
        // The upper edge always brackets the matching lower edge.
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let lo = s.quantile_lower_edge(q);
            let hi = s.quantile(q);
            assert!(hi > lo, "q={q}: upper {hi} must exceed lower {lo}");
            assert!(hi <= lo.saturating_mul(2).max(1), "q={q}: {lo}..{hi}");
        }
        // p99 of six samples is the largest → bin [2^20, 2^21) → 2^21.
        assert_eq!(s.quantile(0.99), 1 << 21);
        // All-zero samples: bin 0's upper edge is 1.
        let z = Histogram::new();
        z.record(0);
        assert_eq!(z.snapshot().quantile(0.5), 1);
        // Top bin saturates instead of overflowing the shift.
        let top = Histogram::new();
        top.record(u64::MAX);
        assert_eq!(top.snapshot().quantile(0.5), u64::MAX);
    }

    #[test]
    fn histogram_delta_since() {
        let h = Histogram::new();
        h.record(10);
        let early = h.snapshot();
        h.record(10);
        h.record(2000);
        let d = h.snapshot().delta_since(&early);
        assert_eq!(d.count, 2);
        assert_eq!(d.sum, 2010);
        assert_eq!(d.bins[Histogram::bin_index(10)], 1);
        assert_eq!(d.bins[Histogram::bin_index(2000)], 1);
    }

    #[test]
    fn registry_get_or_create_shares_handles() {
        let r = Registry::new();
        let a = r.counter("steps");
        let b = r.counter("steps");
        a.add(1);
        b.add(1);
        assert_eq!(r.counter("steps").get(), 2);
        r.gauge("load").set(0.9);
        r.histogram("sizes").record(100);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["load", "sizes", "steps"]);
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn registry_rejects_kind_mismatch() {
        let r = Registry::new();
        let _ = r.gauge("x");
        let _ = r.counter("x");
    }
}
