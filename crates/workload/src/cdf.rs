//! Popularity CDF computation — the data behind the paper's Figure 9.
//!
//! Figure 9 plots, for Zipfian skews 0.5/0.8/1.1/1.4, the cumulative
//! percentage of requests that refer to the most popular `x` objects
//! (e.g. x = 5, y = 40% means the top 5 objects account for 40% of
//! requests).

use crate::error::WorkloadError;
use crate::zipf::Zipfian;

/// One point of a popularity CDF: point `i` (0-based) of
/// [`zipf_popularity_cdf`] is the `i + 1` most popular objects.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CdfPoint {
    /// Fraction of requests those objects capture, in `[0, 1]`.
    pub cumulative_fraction: f64,
}

/// Computes the exact popularity CDF of a Zipfian workload for the top
/// `max_top` objects (Figure 9 uses 50), most popular first.
///
/// # Errors
///
/// Propagates [`Zipfian::new`] validation; additionally rejects
/// `max_top > object_count` or `max_top == 0`.
pub fn zipf_popularity_cdf(
    object_count: u64,
    skew: f64,
    max_top: u64,
) -> Result<Vec<CdfPoint>, WorkloadError> {
    if max_top == 0 || max_top > object_count {
        return Err(WorkloadError::InvalidParameter {
            what: "max_top must be in 1..=object_count",
        });
    }
    let zipf = Zipfian::new(object_count, skew)?;
    Ok((1..=max_top)
        .map(|top| CdfPoint {
            cumulative_fraction: zipf.cumulative_probability(top),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_is_monotone_and_bounded() {
        for skew in [0.5, 0.8, 1.1, 1.4] {
            let cdf = zipf_popularity_cdf(300, skew, 50).unwrap();
            assert_eq!(cdf.len(), 50);
            let mut prev = 0.0;
            for p in &cdf {
                assert!(p.cumulative_fraction >= prev, "skew {skew}");
                assert!(p.cumulative_fraction <= 1.0 + 1e-12);
                prev = p.cumulative_fraction;
            }
        }
    }

    #[test]
    fn higher_skew_dominates_pointwise() {
        let low = zipf_popularity_cdf(300, 0.5, 50).unwrap();
        let high = zipf_popularity_cdf(300, 1.4, 50).unwrap();
        for (l, h) in low.iter().zip(&high) {
            assert!(h.cumulative_fraction >= l.cumulative_fraction);
        }
    }

    #[test]
    fn paper_figure9_reading() {
        // Fig. 9's example reading: around skew 1.1 the top-5 objects
        // capture roughly 40% of requests.
        let cdf = zipf_popularity_cdf(300, 1.1, 50).unwrap();
        let top5 = cdf[4].cumulative_fraction;
        assert!(top5 > 0.30 && top5 < 0.55, "top-5 mass {top5}");
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(zipf_popularity_cdf(300, 1.1, 0).is_err());
        assert!(zipf_popularity_cdf(300, 1.1, 301).is_err());
        assert!(zipf_popularity_cdf(0, 1.1, 1).is_err());
    }
}
