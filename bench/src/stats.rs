//! Estimators shared by every workload.
//!
//! The host is a small shared VM: interference only ever *slows* a
//! stretch of the run, it never speeds one up. Wall metrics are
//! therefore computed per segment (a fixed number of consecutive
//! operations) and reported as the **quiet-quarter mean** — the mean
//! of the per-segment statistic over the better quarter of the
//! segments — with the median and the inter-quartile range across all
//! segments printed beside it as the noise gauge. (Measured on the
//! reference VM over 12 runs of 20 s: the single quartile point, the
//! median and the minimum each spread 2–16 % run to run depending on
//! the workload; averaging the quiet quarter stayed at 5–8 % on all
//! four.)

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `[0, 1]`).
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    v
}

/// Median (nearest rank); 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile_sorted(&sorted(values), 0.5)
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Summary of one per-segment statistic across the run's segments.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SegmentSummary {
    /// Mean over the better quarter of the segments (the reported
    /// value).
    pub quiet: f64,
    /// Median across segments.
    pub median: f64,
    /// Inter-quartile range across segments.
    pub iqr: f64,
    /// Number of segments.
    pub segments: usize,
}

impl SegmentSummary {
    /// IQR as a share of the median — the run's own noise gauge.
    pub fn iqr_frac(&self) -> f64 {
        if self.median > 0.0 {
            self.iqr / self.median
        } else {
            0.0
        }
    }
}

/// The quiet-quarter estimator over per-segment values.
pub fn quiet_quarter(per_segment: &[f64], better: Better) -> SegmentSummary {
    if per_segment.is_empty() {
        return SegmentSummary::default();
    }
    let mut v = sorted(per_segment);
    let (q1, q3) = (percentile_sorted(&v, 0.25), percentile_sorted(&v, 0.75));
    let median = percentile_sorted(&v, 0.5);
    if better == Better::Higher {
        v.reverse();
    }
    let quarter = (v.len() / 4).max(1);
    SegmentSummary {
        quiet: mean(&v[..quarter]),
        median,
        iqr: q3 - q1,
        segments: v.len(),
    }
}

/// A tail percentile is only reported when at least this many samples
/// lie beyond it; fewer and the "percentile" is a handful of outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank `q`-percentile, or `None` when fewer than
/// [`MIN_SAMPLES_BEYOND`] samples lie beyond it.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<f64> {
    let beyond = ((1.0 - q) * values.len() as f64).floor() as usize;
    if beyond < MIN_SAMPLES_BEYOND {
        return None;
    }
    Some(percentile_sorted(&sorted(values), q))
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_quarter_averages_the_better_side() {
        // Eight segments; two were disturbed (slow).
        let us = [10.0, 10.2, 9.9, 10.1, 10.0, 14.0, 10.3, 19.0];
        let low = quiet_quarter(&us, Better::Lower);
        assert!(
            (low.quiet - (9.9 + 10.0) / 2.0).abs() < 1e-12,
            "two quietest of eight"
        );
        assert_eq!(low.median, 10.1);
        assert_eq!(low.segments, 8);
        assert!((low.iqr - (10.3 - 10.0)).abs() < 1e-12);
        // Throughput of the same segments: higher is better.
        let ops: Vec<f64> = us.iter().map(|u| 1e6 / u).collect();
        let high = quiet_quarter(&ops, Better::Higher);
        assert!((high.quiet - (1e6 / 9.9 + 1e6 / 10.0) / 2.0).abs() < 1e-6);
        // A disturbance moves the mean far more than the quiet quarter.
        assert!(mean(&us) > 11.0 && low.quiet < 10.0);
        // Fewer than four segments: the single best one.
        assert_eq!(quiet_quarter(&[3.0, 2.0, 4.0], Better::Lower).quiet, 2.0);
    }

    #[test]
    fn quiet_quarter_of_nothing_is_zero() {
        assert_eq!(quiet_quarter(&[], Better::Lower), SegmentSummary::default());
        assert_eq!(SegmentSummary::default().iqr_frac(), 0.0);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&v, 0.99), Some(990.0));
        assert_eq!(tail_percentile(&v, 0.999), None, "only 1 sample beyond");
        assert_eq!(tail_percentile(&v[..999], 0.99), None, "9.99 beyond");
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail_percentile(&big, 0.999), Some(9990.0));
    }

    #[test]
    fn nearest_rank_edges() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 0.5), 2.0);
        assert_eq!(percentile_sorted(&v, 1.0), 4.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
