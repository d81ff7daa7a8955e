//! Log-bucketed latency histograms with a lock-free record path.
//!
//! Values (nanoseconds by convention) land in power-of-two buckets:
//! bucket `k` holds `[2^(k−1), 2^k)`, so 64 buckets cover the full
//! `u64` range with ≤ 2× relative quantile error — plenty for latency
//! monitoring, and recording stays four relaxed atomic RMWs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Number of power-of-two buckets (the full `u64` range).
pub const BUCKETS: usize = 64;

struct HistInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistInner {
    fn default() -> Self {
        HistInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// A lock-free log-bucketed histogram handle. Clones share storage.
/// A disabled handle (from [`Registry::disabled`]) holds none:
/// recording is a single branch.
///
/// [`Registry::disabled`]: crate::Registry::disabled
#[derive(Clone, Default)]
pub struct Histogram {
    inner: Option<Arc<HistInner>>,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            Some(_) => write!(f, "Histogram({:?})", self.snapshot()),
            None => write!(f, "Histogram(disabled)"),
        }
    }
}

/// Bucket index for a value: its bit length, clamped to the top bucket.
#[inline]
fn bucket_of(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

impl Histogram {
    /// A live histogram with its own storage.
    pub fn enabled() -> Self {
        Histogram {
            inner: Some(Arc::new(HistInner::default())),
        }
    }

    /// A no-op handle: `record` is one branch, `start` reads no clock.
    pub fn disabled() -> Self {
        Histogram { inner: None }
    }

    /// Whether this handle records anywhere.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Record one value. Lock-free and relaxed, except that the count
    /// is bumped with release ordering (paired with the acquire load in
    /// [`Histogram::snapshot`]): whoever sees this record in a snapshot
    /// also sees every counter the recording thread bumped before it —
    /// the guarantee `Registry::snapshot` documents.
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(inner) = &self.inner {
            inner.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
            inner.count.fetch_add(1, Ordering::Release);
            inner.sum.fetch_add(value, Ordering::Relaxed);
            inner.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Record a duration in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos() as u64);
    }

    /// Start timing a section; the timer records on [`HistTimer::stop`]
    /// or drop. Disabled handles skip the clock read entirely.
    #[inline]
    pub fn start(&self) -> HistTimer<'_> {
        HistTimer {
            hist: self,
            start: self.inner.as_ref().map(|_| Instant::now()),
        }
    }

    /// A point-in-time copy (zeroed for disabled handles).
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.inner {
            None => HistogramSnapshot::default(),
            Some(inner) => HistogramSnapshot {
                count: inner.count.load(Ordering::Acquire),
                sum: inner.sum.load(Ordering::Relaxed),
                max: inner.max.load(Ordering::Relaxed),
                buckets: inner
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
            },
        }
    }
}

/// Guard returned by [`Histogram::start`]: records the elapsed
/// nanoseconds into the histogram when stopped or dropped.
pub struct HistTimer<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl HistTimer<'_> {
    /// Stop now and record, returning the elapsed nanoseconds
    /// (0 when the histogram is disabled).
    pub fn stop(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        match self.start.take() {
            None => 0,
            Some(start) => {
                let nanos = start.elapsed().as_nanos() as u64;
                self.hist.record(nanos);
                nanos
            }
        }
    }
}

impl Drop for HistTimer<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Plain-data copy of a [`Histogram`] at one instant.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Per-bucket counts; bucket `k` holds values in `[2^(k−1), 2^k)`.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Inclusive upper bound of bucket `k`.
    pub fn bucket_upper(k: usize) -> u64 {
        if k >= BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << k) - 1
        }
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate: the upper bound of the first bucket whose
    /// cumulative count reaches `q · count`, clamped to the observed
    /// max (so `quantile(1.0) == max`). `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (k, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(k).min(self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_bit_lengths() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn records_count_sum_max_and_quantiles() {
        let h = Histogram::enabled();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1106);
        assert_eq!(s.max, 1000);
        // p50 falls in the bucket holding 2 and 3 (upper bound 3).
        assert_eq!(s.p50(), 3);
        // Top quantiles clamp to the observed max.
        assert_eq!(s.quantile(1.0), 1000);
        assert!(s.p99() <= 1000);
        assert!((s.mean() - 221.2).abs() < 1e-9);
    }

    #[test]
    fn quantile_error_is_bounded_by_bucket_width() {
        let h = Histogram::enabled();
        for _ in 0..100 {
            h.record(700);
        }
        let s = h.snapshot();
        // 700 lands in [512, 1024); the estimate is clamped to max.
        assert_eq!(s.p50(), 700);
        assert_eq!(s.p99(), 700);
    }

    #[test]
    fn disabled_histogram_is_inert() {
        let h = Histogram::disabled();
        h.record(42);
        let t = h.start();
        assert_eq!(t.stop(), 0);
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), 0);
    }

    #[test]
    fn timer_records_on_stop_and_on_drop() {
        let h = Histogram::enabled();
        let nanos = h.start().stop();
        assert!(h.snapshot().count == 1 && nanos == h.snapshot().sum);
        {
            let _t = h.start();
        }
        assert_eq!(h.snapshot().count, 2);
    }

    #[test]
    // Exact zero: an empty histogram's mean is computed as 0.0, not near-0.
    #[allow(clippy::float_cmp)]
    fn empty_snapshot_quantiles_are_zero() {
        let s = Histogram::enabled().snapshot();
        assert_eq!((s.p50(), s.p99(), s.max), (0, 0, 0));
        assert_eq!(s.mean(), 0.0);
    }
}
