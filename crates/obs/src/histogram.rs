//! The registry's lock-free latency histogram.
//!
//! Log-bucketed: 32 doubling upper bounds starting at 100 µs
//! (`100µs · 2^i`), plus an overflow bucket. Recording is two relaxed
//! atomic RMWs (bucket + sum) and one `fetch_max`, so the handle is
//! safe on read hot paths. Percentile queries walk the cumulative
//! bucket counts to the shared [`nearest_rank_index`] rank and report
//! the bucket's upper bound — the same rank rule the exact
//! [`LatencyHistogram`](crate::LatencyHistogram) uses, so a bucketed
//! P99 is the exact P99 rounded up to its bucket bound.

use crate::percentile::{nearest_rank_index, LatencySummary};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of finite buckets; bound `i` is `100µs · 2^i`.
const BUCKETS: usize = 32;

/// First bucket's upper bound, in microseconds.
const BASE_MICROS: u64 = 100;

/// The upper bound of finite bucket `i`, in microseconds.
fn bound_micros(i: usize) -> u64 {
    BASE_MICROS << i
}

/// The finite bucket index for a sample, or `BUCKETS` for overflow.
fn bucket_index(micros: u64) -> usize {
    (0..BUCKETS)
        .find(|&i| micros <= bound_micros(i))
        .unwrap_or(BUCKETS)
}

#[derive(Debug)]
struct HistogramCore {
    /// `BUCKETS` finite buckets plus one overflow bucket.
    buckets: [AtomicU64; BUCKETS + 1],
    count: AtomicU64,
    sum_micros: AtomicU64,
    max_micros: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
            max_micros: AtomicU64::new(0),
        }
    }
}

/// A lock-free, bounded-memory latency histogram handle. Cloning
/// shares the cells, exactly like [`Counter`](crate::Counter).
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramCore>);

/// A point-in-time read of a [`Histogram`], shaped for the exposition
/// writers: cumulative Prometheus-style buckets, total count, and the
/// sum in seconds.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    /// `(le, cumulative_count)` per finite bucket; `le` is the upper
    /// bound in seconds, pre-formatted (`"0.0001"`, `"0.0002"`, ...).
    pub cumulative_buckets: Vec<(String, u64)>,
    /// Total samples recorded (the `+Inf` bucket).
    pub count: u64,
    /// Sum of all samples, in seconds.
    pub sum_seconds: f64,
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one latency sample: two relaxed adds and a `fetch_max`.
    pub fn record(&self, latency: Duration) {
        let micros = latency.as_micros().min(u64::MAX as u128) as u64;
        self.0.buckets[bucket_index(micros)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum_micros.fetch_add(micros, Ordering::Relaxed);
        self.0.max_micros.fetch_max(micros, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Nearest-rank percentile, reported as the matching bucket's
    /// upper bound (`Duration::ZERO` when empty; the tracked maximum
    /// for samples in the overflow bucket).
    pub fn percentile(&self, quantile: f64) -> Duration {
        let counts: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return Duration::ZERO;
        }
        let rank = nearest_rank_index(quantile, n as usize) as u64;
        let mut cumulative = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cumulative += c;
            if cumulative > rank {
                if i < BUCKETS {
                    return Duration::from_micros(bound_micros(i));
                }
                break;
            }
        }
        Duration::from_micros(self.0.max_micros.load(Ordering::Relaxed))
    }

    /// Summarises the histogram with the shared percentile rule. The
    /// mean is exact (true sum / count); percentiles carry at most one
    /// bucket's rounding (reported as the bucket upper bound).
    pub fn summary(&self) -> LatencySummary {
        let n = self.count();
        if n == 0 {
            return LatencySummary::default();
        }
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        LatencySummary {
            mean_ms: self.0.sum_micros.load(Ordering::Relaxed) as f64 / 1e3 / n as f64,
            p50_ms: ms(self.percentile(0.50)),
            p95_ms: ms(self.percentile(0.95)),
            p99_ms: ms(self.percentile(0.99)),
            p999_ms: ms(self.percentile(0.999)),
            max_ms: self.0.max_micros.load(Ordering::Relaxed) as f64 / 1e3,
            samples: n as usize,
        }
    }

    /// A snapshot shaped for exposition: cumulative finite buckets
    /// with pre-formatted second bounds, plus count and sum. Reads are
    /// per-field relaxed loads — see `AtomicCacheStats` for the drift
    /// caveat, which applies here identically.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = 0u64;
        let cumulative_buckets = (0..BUCKETS)
            .map(|i| {
                cumulative += self.0.buckets[i].load(Ordering::Relaxed);
                let seconds = bound_micros(i) as f64 / 1e6;
                (format!("{seconds}"), cumulative)
            })
            .collect();
        HistogramSnapshot {
            cumulative_buckets,
            count: self.count(),
            sum_seconds: self.0.sum_micros.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_double_from_100_micros() {
        assert_eq!(bound_micros(0), 100);
        assert_eq!(bound_micros(1), 200);
        assert_eq!(bound_micros(10), 102_400);
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(100), 0);
        assert_eq!(bucket_index(101), 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS);
    }

    #[test]
    fn percentiles_round_up_to_bucket_bounds() {
        let h = Histogram::new();
        // 99 fast samples in the 100µs bucket, one slow 50 ms sample.
        for _ in 0..99 {
            h.record(Duration::from_micros(80));
        }
        h.record(Duration::from_millis(50));
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(0.50), Duration::from_micros(100));
        // Rank 100 lands on the slow sample; 50 ms rounds up to the
        // 100µs·2^9 = 51.2 ms bucket bound.
        assert_eq!(h.percentile(1.0), Duration::from_micros(51_200));
        let s = h.summary();
        assert_eq!(s.samples, 100);
        assert!((s.max_ms - 50.0).abs() < 1e-9, "max is exact: {}", s.max_ms);
        assert!((s.mean_ms - (99.0 * 0.08 + 50.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn overflow_reports_tracked_max() {
        let h = Histogram::new();
        let huge = Duration::from_secs(1_000_000); // beyond the last bound
        h.record(huge);
        assert_eq!(h.percentile(0.99), huge);
        assert_eq!(h.summary().max_ms, 1e9);
    }

    #[test]
    fn empty_summary_is_default() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.99), Duration::ZERO);
        assert_eq!(h.summary(), LatencySummary::default());
    }

    #[test]
    fn clones_share_cells() {
        let a = Histogram::new();
        let b = a.clone();
        b.record(Duration::from_millis(1));
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn snapshot_is_cumulative_and_in_seconds() {
        let h = Histogram::new();
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(150));
        let s = h.snapshot();
        assert_eq!(s.cumulative_buckets.len(), BUCKETS);
        assert_eq!(s.cumulative_buckets[0], ("0.0001".to_string(), 1));
        assert_eq!(s.cumulative_buckets[1], ("0.0002".to_string(), 2));
        assert_eq!(s.cumulative_buckets[BUCKETS - 1].1, 2);
        assert_eq!(s.count, 2);
        assert!((s.sum_seconds - 0.00025).abs() < 1e-12);
    }
}
