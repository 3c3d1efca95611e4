//! Zipfian key-popularity distribution.
//!
//! The paper's workloads draw keys "from a Zipfian distribution with a
//! skew exponent of 1.1" (and sweeps 0.2–1.4 in Figure 8b). YCSB's
//! Gray-et-al. rejection formula only covers skew < 1, so this generator
//! uses exact inverse-CDF sampling over the precomputed rank weights —
//! the catalogue is only a few hundred objects, making exactness cheap —
//! and supports any non-negative skew, including the paper's 1.1 and 1.4.
//!
//! Rank 0 is the most popular key, and a key is its rank.

use rand::RngCore;

/// Exact Zipfian sampler over `n` ranks with parameter `skew`.
///
/// # Examples
///
/// ```
/// use agar_workload::Zipfian;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let zipf = Zipfian::new(300, 1.1)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let k = zipf.sample(&mut rng);
/// assert!(k < 300);
/// // Rank 0 is most popular.
/// assert!(zipf.probability(0) > zipf.probability(299));
/// # Ok::<(), agar_workload::WorkloadError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Zipfian {
    n: u64,
    skew: f64,
    /// `cumulative[i]` = P(rank <= i); last entry is 1.0.
    cumulative: Vec<f64>,
}

impl Zipfian {
    /// Creates a Zipfian distribution over `n` keys.
    ///
    /// # Errors
    ///
    /// Returns [`crate::WorkloadError::InvalidParameter`] if `n == 0`,
    /// `skew` is negative, or `skew` is not finite.
    pub fn new(n: u64, skew: f64) -> Result<Self, crate::WorkloadError> {
        if n == 0 || !skew.is_finite() || skew < 0.0 {
            return Err(crate::WorkloadError::InvalidParameter {
                what: "zipfian n must be positive and skew non-negative",
            });
        }
        let weights: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-skew)).collect();
        let total: f64 = weights.iter().sum();
        let mut cumulative = Vec::with_capacity(n as usize);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cumulative.push(acc);
        }
        // Guard against floating-point drift.
        *cumulative.last_mut().expect("n > 0") = 1.0;
        Ok(Zipfian {
            n,
            skew,
            cumulative,
        })
    }

    /// Number of keys.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The skew exponent.
    pub fn skew(&self) -> f64 {
        self.skew
    }

    /// Exact probability of the key at popularity `rank` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `rank >= n`.
    pub fn probability(&self, rank: u64) -> f64 {
        assert!(rank < self.n, "rank out of range");
        let i = rank as usize;
        if i == 0 {
            self.cumulative[0]
        } else {
            self.cumulative[i] - self.cumulative[i - 1]
        }
    }

    /// Cumulative probability of the `top` most popular keys.
    ///
    /// # Panics
    ///
    /// Panics if `top` is zero or exceeds `n`.
    pub fn cumulative_probability(&self, top: u64) -> f64 {
        assert!(top >= 1 && top <= self.n, "top out of range");
        self.cumulative[(top - 1) as usize]
    }

    /// Draws a key (its popularity rank).
    pub fn sample(&self, rng: &mut dyn RngCore) -> u64 {
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("cdf entries are finite"))
        {
            Ok(i) => i + 1,
            Err(i) => i,
        }
        .min(self.n as usize - 1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Zipfian::new(0, 1.0).is_err());
        assert!(Zipfian::new(10, -0.1).is_err());
        assert!(Zipfian::new(10, f64::NAN).is_err());
        assert!(Zipfian::new(10, f64::INFINITY).is_err());
        assert!(Zipfian::new(1, 0.0).is_ok());
    }

    #[test]
    fn probabilities_sum_to_one() {
        for skew in [0.0, 0.5, 0.99, 1.1, 1.4] {
            let z = Zipfian::new(300, skew).unwrap();
            let sum: f64 = (0..300).map(|r| z.probability(r)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "skew {skew}: sum {sum}");
            assert!((z.cumulative_probability(300) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn zero_skew_is_uniform() {
        let z = Zipfian::new(100, 0.0).unwrap();
        for r in 0..100 {
            assert!((z.probability(r) - 0.01).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_skew_concentrates_mass() {
        let low = Zipfian::new(300, 0.5).unwrap();
        let high = Zipfian::new(300, 1.4).unwrap();
        assert!(high.cumulative_probability(10) > low.cumulative_probability(10));
        assert!(high.probability(0) > low.probability(0));
    }

    #[test]
    fn paper_skew_1_1_top_heavy() {
        // Paper §II-B: with heavy skews a small set of objects dominates.
        let z = Zipfian::new(300, 1.1).unwrap();
        let top10 = z.cumulative_probability(10);
        assert!(top10 > 0.45 && top10 < 0.65, "top-10 mass {top10}");
    }

    #[test]
    fn sampling_matches_pmf() {
        let z = Zipfian::new(50, 1.1).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let n = 200_000;
        let mut counts = vec![0u64; 50];
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for r in 0..50u64 {
            let expected = z.probability(r) * n as f64;
            let got = counts[r as usize] as f64;
            // 5 sigma Poisson tolerance plus a small absolute floor.
            let tolerance = 5.0 * expected.sqrt() + 5.0;
            assert!(
                (got - expected).abs() < tolerance,
                "rank {r}: got {got}, expected {expected}"
            );
        }
    }

    #[test]
    fn samples_always_in_range() {
        let z = Zipfian::new(7, 1.4).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let z = Zipfian::new(100, 0.9).unwrap();
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32).map(|_| z.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }
}
