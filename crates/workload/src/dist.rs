//! The key-distribution trait and the uniform control: every experiment
//! draws [`UniformKeys`] or [`Zipfian`].

use crate::error::WorkloadError;
use crate::zipf::Zipfian;
use rand::RngCore;

/// An object-key popularity distribution over keys `0..n`.
pub trait KeyDistribution: Send + Sync {
    /// Draws one key.
    fn sample(&self, rng: &mut dyn RngCore) -> u64;

    /// Number of keys in the catalogue.
    fn n(&self) -> u64;

    /// Short human-readable name for reports (e.g. `"zipf(1.1)"`).
    fn label(&self) -> String;
}

impl KeyDistribution for Zipfian {
    fn sample(&self, rng: &mut dyn RngCore) -> u64 {
        Zipfian::sample(self, rng)
    }

    fn n(&self) -> u64 {
        Zipfian::n(self)
    }

    fn label(&self) -> String {
        format!("zipf({})", self.skew())
    }
}

/// Every key equally likely (the paper's "uniform" workload in Fig. 8b).
#[derive(Clone, Copy, Debug)]
pub struct UniformKeys {
    n: u64,
}

impl UniformKeys {
    /// Creates a uniform distribution over `n` keys.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] if `n == 0`.
    pub fn new(n: u64) -> Result<Self, WorkloadError> {
        if n == 0 {
            return Err(WorkloadError::InvalidParameter {
                what: "uniform distribution needs at least one key",
            });
        }
        Ok(UniformKeys { n })
    }
}

impl KeyDistribution for UniformKeys {
    fn sample(&self, rng: &mut dyn RngCore) -> u64 {
        // Unbiased modulo via 128-bit multiply (Lemire).
        let x = rng.next_u64();
        ((x as u128 * self.n as u128) >> 64) as u64
    }

    fn n(&self) -> u64 {
        self.n
    }

    fn label(&self) -> String {
        "uniform".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_covers_range_evenly() {
        let d = UniformKeys::new(10).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng) as usize] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "key {k}: {c}");
        }
        assert_eq!(d.label(), "uniform");
        assert!(UniformKeys::new(0).is_err());
    }

    #[test]
    fn zipfian_implements_the_trait() {
        let d: Box<dyn KeyDistribution> = Box::new(Zipfian::new(10, 1.1).unwrap());
        let mut rng = StdRng::seed_from_u64(4);
        assert!(d.sample(&mut rng) < 10);
        assert_eq!(d.label(), "zipf(1.1)");
    }
}
