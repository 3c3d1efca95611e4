//! The single source of truth for percentile math.
//!
//! Two very different histogram shapes answer percentile queries in
//! this workspace — the experiment harness's *exact*
//! [`LatencyHistogram`] (every sample retained) and the registry's
//! lock-free log-bucketed [`Histogram`](crate::Histogram) — and both
//! must agree on what "P99" means. The rank rule lives here, once:
//! **nearest rank**, `rank = ceil(q · n)` clamped to `[1, n]`,
//! 1-indexed into the sorted sample set. The exact histogram indexes
//! its sorted samples with it; the bucketed histogram walks its
//! cumulative counts to the same rank. Experiments and tests take their
//! percentiles from one of the two; none ranks samples of its own.

use std::time::Duration;

/// The shared nearest-rank rule: the 0-based index of the `quantile`
/// percentile in a sorted collection of `n` samples.
///
/// `rank = ceil(quantile · n)`, clamped to `[1, n]`, minus one. Both
/// histogram implementations use this exact rule, so a P99 computed
/// from retained samples and one computed from log buckets refer to
/// the same ranked sample.
pub fn nearest_rank_index(quantile: f64, n: usize) -> usize {
    let rank = (quantile * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// Percentile summary of a latency sample set, in milliseconds. The
/// shared shape every experiment's P50/P95/P99/P999 columns and the
/// JSON bench output are built from.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean_ms: f64,
    /// Median (nearest rank).
    pub p50_ms: f64,
    /// 95th percentile (nearest rank).
    pub p95_ms: f64,
    /// 99th percentile (nearest rank).
    pub p99_ms: f64,
    /// 99.9th percentile (nearest rank).
    pub p999_ms: f64,
    /// Largest sample.
    pub max_ms: f64,
    /// Number of samples summarised.
    pub samples: usize,
}

impl LatencySummary {
    /// The four percentile columns as formatted table cells
    /// (`P50 P95 P99 P999`, whole milliseconds).
    pub fn percentile_cells(&self) -> Vec<String> {
        [self.p50_ms, self.p95_ms, self.p99_ms, self.p999_ms]
            .iter()
            .map(|ms| format!("{ms:.0}"))
            .collect()
    }

    /// The matching headers for [`LatencySummary::percentile_cells`].
    pub fn percentile_headers() -> Vec<String> {
        ["P50 (ms)", "P95 (ms)", "P99 (ms)", "P999 (ms)"]
            .map(String::from)
            .to_vec()
    }
}

/// An exact latency histogram: collects every sample and answers
/// nearest-rank percentile queries. Experiment runs are at most a few
/// hundred thousand operations, so exactness costs nothing and the
/// P999 column never suffers bucketing error. (The registry's
/// [`Histogram`](crate::Histogram) is the lock-free, bounded-memory
/// sibling for long-lived hot paths; both use the
/// [`nearest_rank_index`] rule.)
#[derive(Clone, Debug, Default)]
pub struct LatencyHistogram {
    samples: Vec<Duration>,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency: Duration) {
        self.samples.push(latency);
    }

    /// Absorbs every sample of `other`.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        self.samples.extend_from_slice(&other.samples);
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Nearest-rank percentile; `Duration::ZERO` when empty.
    pub fn percentile(&self, quantile: f64) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        sorted[nearest_rank_index(quantile, sorted.len())]
    }

    /// Summarises the histogram (single sort, all percentiles).
    pub fn summary(&self) -> LatencySummary {
        if self.samples.is_empty() {
            return LatencySummary::default();
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        let n = sorted.len();
        let at = |quantile: f64| sorted[nearest_rank_index(quantile, n)].as_secs_f64() * 1e3;
        let total: Duration = sorted.iter().sum();
        LatencySummary {
            mean_ms: total.as_secs_f64() * 1e3 / n as f64,
            p50_ms: at(0.50),
            p95_ms: at(0.95),
            p99_ms: at(0.99),
            p999_ms: at(0.999),
            max_ms: sorted[n - 1].as_secs_f64() * 1e3,
            samples: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_documented_rule() {
        // 1000 samples: P50 is the 500th (index 499), P999 the 999th.
        assert_eq!(nearest_rank_index(0.50, 1000), 499);
        assert_eq!(nearest_rank_index(0.95, 1000), 949);
        assert_eq!(nearest_rank_index(0.99, 1000), 989);
        assert_eq!(nearest_rank_index(0.999, 1000), 998);
        assert_eq!(nearest_rank_index(1.0, 1000), 999);
        // Tiny sets clamp into range instead of underflowing.
        assert_eq!(nearest_rank_index(0.01, 3), 0);
        assert_eq!(nearest_rank_index(0.99, 1), 0);
    }

    #[test]
    fn histogram_percentiles_are_exact() {
        let mut h = LatencyHistogram::new();
        for ms in (1..=1000u64).rev() {
            h.record(Duration::from_millis(ms));
        }
        assert_eq!(h.len(), 1000);
        assert_eq!(h.percentile(0.50), Duration::from_millis(500));
        assert_eq!(h.percentile(0.99), Duration::from_millis(990));
        let s = h.summary();
        assert!((s.mean_ms - 500.5).abs() < 1e-9);
        assert!((s.p50_ms - 500.0).abs() < 1e-9);
        assert!((s.p95_ms - 950.0).abs() < 1e-9);
        assert!((s.p99_ms - 990.0).abs() < 1e-9);
        assert!((s.p999_ms - 999.0).abs() < 1e-9);
        assert!((s.max_ms - 1000.0).abs() < 1e-9);
        assert_eq!(s.samples, 1000);
    }

    #[test]
    fn empty_and_merge() {
        let empty = LatencyHistogram::new();
        assert!(empty.is_empty());
        assert_eq!(empty.percentile(0.99), Duration::ZERO);
        assert_eq!(empty.summary(), LatencySummary::default());
        let mut a = LatencyHistogram::new();
        a.record(Duration::from_millis(10));
        let mut b = LatencyHistogram::new();
        b.record(Duration::from_millis(30));
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.percentile(1.0), Duration::from_millis(30));
    }
}
