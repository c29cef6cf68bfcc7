//! The metric primitives: atomic counters, gauges, and log2 histograms.
//!
//! Every update is a handful of relaxed atomic operations — no locks, no
//! allocation, no formatting — so instrumented hot paths (the affect-rt
//! classify workers, the decoder's per-block counters) pay nanoseconds,
//! not microseconds, and the `alloc-counter` zero-allocation proofs keep
//! holding with instrumentation enabled.
//!
//! The [`Histogram`] keeps one atomic per power-of-two bucket, so a
//! reported quantile is the upper bound of its bucket (within 2× of the
//! true value) — plenty for deadline triage and distribution shape. Its
//! plain copy, [`HistogramSnapshot`], merges exactly and is what
//! `affect-rt`'s reports carry per session.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of log2 buckets in a [`Histogram`] (one per power of two of a
/// `u64` sample).
pub const BUCKETS: usize = 64;

/// A monotonically increasing event count.
///
/// Updates are relaxed atomics; reads are point-in-time snapshots. Handles
/// from a [`crate::MetricsRegistry`] are `Arc`-shared, so clones observe
/// the same value.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value instrument for quantities that go up *and* down (queue
/// depth, resident processes, bytes in flight).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub const fn new() -> Self {
        Self(AtomicI64::new(0))
    }

    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` (may be negative via [`Gauge::sub`]).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below it (high-water marks).
    #[inline]
    pub fn max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Log2-bucketed histogram with atomic buckets.
///
/// A sample `v` lands in bucket `floor(log2(max(v, 1)))`, i.e. bucket `i`
/// covers `[2^i, 2^(i+1) - 1]` (zero shares bucket 0). Quantiles are
/// bucket-upper-bound approximations, within 2× of the true value.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = (u64::BITS - value.max(1).leading_zeros() - 1) as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// The inclusive upper bound of bucket `i` (`2^(i+1) - 1`, saturating
    /// at `u64::MAX` for the top bucket).
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i + 1 >= BUCKETS {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    /// The value at quantile `q` in `[0, 1]`, as the upper bound of the
    /// containing bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// Snapshot of count, mean, p50/p95/p99 and max.
    pub fn summary(&self) -> LatencySummary {
        self.snapshot().summary()
    }

    /// Copies the buckets and totals out into a plain, mergeable
    /// [`HistogramSnapshot`].
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }
}

/// A point-in-time, plain (non-atomic) copy of a [`Histogram`]'s buckets
/// and totals. Reports carry it so distributions can be merged across
/// sessions, shards and whole runtimes without losing bucket resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` covers `[2^i, 2^(i+1) - 1]`).
    pub buckets: [u64; BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Largest sample (exact).
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Index of the highest non-empty bucket, or `None` when empty.
    pub fn highest_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&b| b > 0)
    }

    /// Adds every bucket of `other` into `self`. Bucket-wise addition is
    /// exact: merging two snapshots gives the snapshot of the combined
    /// sample set, so merge order never matters.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `[0, 1]`, as the upper bound of the
    /// containing bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket;
            if seen >= rank {
                return Histogram::bucket_upper_bound(i);
            }
        }
        self.max
    }

    /// Count, mean, p50/p95/p99 and max of the snapshot.
    pub fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.count,
            mean_ns: self.sum.checked_div(self.count).unwrap_or(0),
            p50_ns: self.quantile(0.50),
            p95_ns: self.quantile(0.95),
            p99_ns: self.quantile(0.99),
            max_ns: self.max,
        }
    }
}

/// Percentile snapshot of a latency distribution (nanoseconds).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean_ns: u64,
    /// Median (bucket upper bound).
    pub p50_ns: u64,
    /// 95th percentile (bucket upper bound).
    pub p95_ns: u64,
    /// 99th percentile (bucket upper bound).
    pub p99_ns: u64,
    /// Exact maximum.
    pub max_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.set(10);
        g.add(5);
        g.sub(3);
        assert_eq!(g.get(), 12);
        g.max(7);
        assert_eq!(g.get(), 12, "max never lowers");
        g.max(20);
        assert_eq!(g.get(), 20);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket i covers [2^i, 2^(i+1) - 1]; zero lands in bucket 0.
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 2, "0 and 1 share bucket 0");
        assert_eq!(snap.buckets[1], 2, "2 and 3");
        assert_eq!(snap.buckets[2], 2, "4 and 7");
        assert_eq!(snap.buckets[3], 1, "8");
        assert_eq!(snap.buckets[9], 1, "1023 = 2^10 - 1");
        assert_eq!(snap.buckets[10], 1, "1024 = 2^10");
        assert_eq!(snap.count, 9);
        assert_eq!(snap.max, 1024);
    }

    #[test]
    fn bucket_upper_bounds() {
        assert_eq!(Histogram::bucket_upper_bound(0), 1);
        assert_eq!(Histogram::bucket_upper_bound(3), 15);
        assert_eq!(Histogram::bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_bracket_samples() {
        let h = Histogram::new();
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.record(ns);
        }
        let s = h.summary();
        assert!(s.p50_ns >= 200 && s.p50_ns < 800, "p50 {}", s.p50_ns);
        assert!(s.p99_ns >= 100_000, "p99 {}", s.p99_ns);
        assert_eq!(s.max_ns, 100_000);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::new();
        assert_eq!(h.summary(), LatencySummary::default());
        assert!(h.snapshot().highest_bucket().is_none());
    }

    #[test]
    fn latency_histogram_merges_exactly() {
        let a = Histogram::new();
        let b = Histogram::new();
        let both = Histogram::new();
        for v in [3u64, 900, 1_048_576] {
            a.record(v);
            both.record(v);
        }
        for v in [17u64, 17, 2_000_000_000] {
            b.record(v);
            both.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, both.snapshot(), "merge == snapshot of the union");
        assert_eq!(merged.summary(), both.summary());
        assert_eq!(merged.summary().count, 6);
        assert_eq!(merged.max, 2_000_000_000);
    }

    #[test]
    fn concurrent_counter_increments_all_land() {
        use std::sync::Arc;
        let c = Arc::new(Counter::new());
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        c.inc();
                        h.record(t * 10_000 + i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
        assert_eq!(h.count(), 80_000);
        assert_eq!(
            h.snapshot().buckets.iter().sum::<u64>(),
            80_000,
            "every sample in exactly one bucket"
        );
    }
}
