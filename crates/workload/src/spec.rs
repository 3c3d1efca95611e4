//! Workload specification and operation streams.
//!
//! A [`WorkloadSpec`] captures the paper's experiment knobs — catalogue
//! size, object size, request distribution, read/write mix — and turns
//! them into a deterministic, seeded [`OpStream`] of operations, playing
//! the role of the (modified) YCSB client driver.

use crate::error::WorkloadError;
use crate::zipf::Zipfian;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};

/// Which key distribution a workload draws from.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum Distribution {
    /// Every object equally popular.
    Uniform,
    /// Zipfian with the given skew (the paper's default is 1.1).
    Zipfian {
        /// Skew exponent (θ).
        skew: f64,
    },
}

impl Distribution {
    /// The sampler for a catalogue of `n` keys.
    fn build(self, n: u64) -> Result<Keys, WorkloadError> {
        match self {
            Distribution::Uniform if n == 0 => Err(WorkloadError::InvalidParameter {
                what: "uniform distribution needs at least one key",
            }),
            Distribution::Uniform => Ok(Keys::Uniform(n)),
            Distribution::Zipfian { skew } => Ok(Keys::Zipf(Zipfian::new(n, skew)?)),
        }
    }

    /// Human-readable label matching the paper's figure axes.
    pub fn label(&self) -> String {
        match self {
            Distribution::Uniform => "uniform".into(),
            Distribution::Zipfian { skew } => format!("zipf {skew}"),
        }
    }
}

/// The key sampler a stream draws from, over keys `0..n`.
enum Keys {
    /// Every key equally likely (the paper's "uniform" workload in
    /// Fig. 8b): Lemire's unbiased 128-bit multiply of one draw.
    Uniform(u64),
    /// [`Zipfian`]: rank 0 is the most popular key.
    Zipf(Zipfian),
}

impl Keys {
    /// Draws one key.
    fn sample(&self, rng: &mut StdRng) -> u64 {
        match self {
            Keys::Uniform(n) => ((u128::from(rng.next_u64()) * u128::from(*n)) >> 64) as u64,
            Keys::Zipf(zipf) => zipf.sample(rng),
        }
    }
}

impl std::fmt::Debug for Keys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Keys::Uniform(n) => write!(f, "uniform over {n}"),
            Keys::Zipf(zipf) => write!(f, "zipf({}) over {}", zipf.skew(), zipf.n()),
        }
    }
}

/// Distribution of write payload sizes in a mixed workload.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub enum WriteSizeDist {
    /// Every write rewrites the object at the catalogue's object size.
    Fixed,
    /// Payload sizes drawn uniformly from `[min, max]` bytes
    /// (inclusive), independent of the catalogue size.
    UniformBytes {
        /// Smallest write payload in bytes (must be positive).
        min: usize,
        /// Largest write payload in bytes (must be ≥ `min`).
        max: usize,
    },
}

impl WriteSizeDist {
    /// Validates the distribution parameters.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for a zero minimum
    /// or an inverted range.
    pub fn validate(self) -> Result<(), WorkloadError> {
        if let WriteSizeDist::UniformBytes { min, max } = self {
            if min == 0 {
                return Err(WorkloadError::InvalidParameter {
                    what: "write size minimum must be positive",
                });
            }
            if min > max {
                return Err(WorkloadError::InvalidParameter {
                    what: "write size minimum must not exceed the maximum",
                });
            }
        }
        Ok(())
    }

    /// Samples one write payload size for a catalogue of `base`-byte
    /// objects.
    pub fn sample(self, base: usize, rng: &mut dyn RngCore) -> usize {
        match self {
            WriteSizeDist::Fixed => base,
            WriteSizeDist::UniformBytes { min, max } => {
                min + (rng.next_u64() % (max - min + 1) as u64) as usize
            }
        }
    }

    /// Human-readable label for reports.
    pub fn label(self) -> String {
        match self {
            WriteSizeDist::Fixed => "fixed".into(),
            WriteSizeDist::UniformBytes { min, max } => format!("uniform {min}..={max} B"),
        }
    }
}

/// The read/write mix of a cluster workload: which fraction of
/// operations are writes and how large their payloads are.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct ReadWriteMix {
    /// Fraction of operations that are writes, in `[0, 1]`.
    pub write_ratio: f64,
    /// Write payload size distribution.
    pub write_size: WriteSizeDist,
}

impl ReadWriteMix {
    /// A mix with the given write ratio and fixed-size writes.
    pub fn with_ratio(write_ratio: f64) -> Self {
        ReadWriteMix {
            write_ratio,
            write_size: WriteSizeDist::Fixed,
        }
    }

    /// Validates the mix.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for a write ratio
    /// outside `[0, 1]` or invalid write-size parameters.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if !(0.0..=1.0).contains(&self.write_ratio) {
            return Err(WorkloadError::InvalidParameter {
                what: "write_ratio must be in [0, 1]",
            });
        }
        self.write_size.validate()
    }

    /// Human-readable label (e.g. `"20% writes, fixed"`).
    pub fn label(&self) -> String {
        format!(
            "{:.0}% writes, {}",
            self.write_ratio * 100.0,
            self.write_size.label()
        )
    }
}

/// One generated operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Op {
    /// Read the whole object with this key.
    Read {
        /// Object key in `0..object_count`.
        key: u64,
    },
    /// Overwrite the object with this key.
    Write {
        /// Object key in `0..object_count`.
        key: u64,
    },
}

impl Op {
    /// The key the operation touches.
    pub fn key(self) -> u64 {
        match self {
            Op::Read { key } | Op::Write { key } => key,
        }
    }

    /// Whether this is a read.
    pub fn is_read(self) -> bool {
        matches!(self, Op::Read { .. })
    }
}

/// A complete workload description (the YCSB workload file equivalent).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of objects in the catalogue (the paper uses 300).
    pub object_count: u64,
    /// Size of each object in bytes (the paper uses 1 MB).
    pub object_size: usize,
    /// Number of operations to generate per run (the paper uses 1 000).
    pub operations: usize,
    /// Fraction of operations that are reads (the paper's workloads are
    /// read-only: 1.0).
    pub read_fraction: f64,
    /// Key popularity distribution.
    pub distribution: Distribution,
}

impl WorkloadSpec {
    /// The paper's default workload: 300 × 1 MB objects, 1 000 reads,
    /// Zipfian skew 1.1, read-only.
    pub fn paper_default() -> Self {
        WorkloadSpec {
            object_count: 300,
            object_size: 1_000_000,
            operations: 1_000,
            read_fraction: 1.0,
            distribution: Distribution::Zipfian { skew: 1.1 },
        }
    }

    /// Validates the specification.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for an empty catalogue,
    /// zero-byte objects, or a read fraction outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.object_count == 0 {
            return Err(WorkloadError::InvalidParameter {
                what: "object_count must be positive",
            });
        }
        if self.object_size == 0 {
            return Err(WorkloadError::InvalidParameter {
                what: "object_size must be positive",
            });
        }
        if !(0.0..=1.0).contains(&self.read_fraction) {
            return Err(WorkloadError::InvalidParameter {
                what: "read_fraction must be in [0, 1]",
            });
        }
        Ok(())
    }

    /// Builds a deterministic operation stream for this spec.
    ///
    /// # Errors
    ///
    /// Propagates validation errors from the spec or distribution.
    pub fn stream(&self, seed: u64) -> Result<OpStream, WorkloadError> {
        self.validate()?;
        Ok(OpStream {
            keys: self.distribution.build(self.object_count)?,
            rng: StdRng::seed_from_u64(seed),
            read_fraction: self.read_fraction,
            remaining: self.operations,
        })
    }

    /// Builds a deterministic mixed read/write stream: keys come from
    /// this spec's distribution, the read/write split and write
    /// payload sizes from `mix` (the spec's own `read_fraction` is
    /// ignored in favour of the mix).
    ///
    /// # Errors
    ///
    /// Propagates validation errors from the spec, distribution or
    /// mix.
    pub fn mixed_stream(&self, mix: ReadWriteMix, seed: u64) -> Result<MixedStream, WorkloadError> {
        self.validate()?;
        mix.validate()?;
        Ok(MixedStream {
            keys: self.distribution.build(self.object_count)?,
            rng: StdRng::seed_from_u64(seed),
            mix,
            base_size: self.object_size,
            remaining: self.operations,
        })
    }
}

/// A seeded iterator of operations.
pub struct OpStream {
    keys: Keys,
    rng: StdRng,
    read_fraction: f64,
    remaining: usize,
}

impl OpStream {
    /// Draws the next operation without consuming the stream budget
    /// (useful for open-ended simulations).
    pub fn draw(&mut self) -> Op {
        let key = self.keys.sample(&mut self.rng);
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.read_fraction {
            Op::Read { key }
        } else {
            Op::Write { key }
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.draw())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for OpStream {}

impl std::fmt::Debug for OpStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpStream")
            .field("keys", &self.keys)
            .field("read_fraction", &self.read_fraction)
            .field("remaining", &self.remaining)
            .finish()
    }
}

/// One mixed-workload operation: writes carry their sampled payload
/// size (see [`WriteSizeDist`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MixedOp {
    /// Read the whole object with this key.
    Read {
        /// Object key in `0..object_count`.
        key: u64,
    },
    /// Overwrite the object with this key.
    Write {
        /// Object key in `0..object_count`.
        key: u64,
        /// Payload size in bytes.
        size: usize,
    },
}

impl MixedOp {
    /// The key the operation touches.
    pub fn key(self) -> u64 {
        match self {
            MixedOp::Read { key } | MixedOp::Write { key, .. } => key,
        }
    }

    /// Whether this is a read.
    pub fn is_read(self) -> bool {
        matches!(self, MixedOp::Read { .. })
    }
}

/// A seeded iterator of mixed read/write operations (see
/// [`WorkloadSpec::mixed_stream`]).
pub struct MixedStream {
    keys: Keys,
    rng: StdRng,
    mix: ReadWriteMix,
    base_size: usize,
    remaining: usize,
}

impl MixedStream {
    /// Draws the next operation without consuming the stream budget.
    pub fn draw(&mut self) -> MixedOp {
        let key = self.keys.sample(&mut self.rng);
        let u = (self.rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.mix.write_ratio {
            let size = self.mix.write_size.sample(self.base_size, &mut self.rng);
            MixedOp::Write { key, size }
        } else {
            MixedOp::Read { key }
        }
    }
}

impl Iterator for MixedStream {
    type Item = MixedOp;

    fn next(&mut self) -> Option<MixedOp> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.draw())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for MixedStream {}

impl std::fmt::Debug for MixedStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MixedStream")
            .field("keys", &self.keys)
            .field("mix", &self.mix.label())
            .field("remaining", &self.remaining)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_keys_cover_the_range_evenly() {
        let keys = Distribution::Uniform.build(10).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0u64; 10];
        for _ in 0..100_000 {
            counts[keys.sample(&mut rng) as usize] += 1;
        }
        for (k, &c) in counts.iter().enumerate() {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "key {k}: {c}");
        }
        assert!(Distribution::Uniform.build(0).is_err());
        let zipf = Distribution::Zipfian { skew: 1.1 }.build(10).unwrap();
        assert!(zipf.sample(&mut rng) < 10);
    }

    #[test]
    fn paper_default_is_valid() {
        let spec = WorkloadSpec::paper_default();
        spec.validate().unwrap();
        assert_eq!(spec.object_count, 300);
        assert_eq!(spec.object_size, 1_000_000);
        assert_eq!(spec.operations, 1_000);
        assert_eq!(spec.read_fraction, 1.0);
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let mut spec = WorkloadSpec::paper_default();
        spec.object_count = 0;
        assert!(spec.validate().is_err());

        let mut spec = WorkloadSpec::paper_default();
        spec.object_size = 0;
        assert!(spec.validate().is_err());

        let mut spec = WorkloadSpec::paper_default();
        spec.read_fraction = 1.5;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn stream_yields_exactly_n_ops() {
        let spec = WorkloadSpec::paper_default();
        let ops: Vec<Op> = spec.stream(1).unwrap().collect();
        assert_eq!(ops.len(), 1_000);
        assert!(ops.iter().all(|op| op.is_read()));
        assert!(ops.iter().all(|op| op.key() < 300));
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let spec = WorkloadSpec::paper_default();
        let a: Vec<Op> = spec.stream(42).unwrap().collect();
        let b: Vec<Op> = spec.stream(42).unwrap().collect();
        let c: Vec<Op> = spec.stream(43).unwrap().collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn read_fraction_mixes_writes() {
        let mut spec = WorkloadSpec::paper_default();
        spec.read_fraction = 0.5;
        spec.operations = 10_000;
        let reads = spec.stream(7).unwrap().filter(|op| op.is_read()).count();
        let frac = reads as f64 / 10_000.0;
        assert!((frac - 0.5).abs() < 0.03, "read fraction {frac}");
    }

    #[test]
    fn all_distributions_build() {
        for dist in [Distribution::Uniform, Distribution::Zipfian { skew: 1.1 }] {
            let mut spec = WorkloadSpec::paper_default();
            spec.distribution = dist;
            let ops: Vec<Op> = spec.stream(3).unwrap().collect();
            assert_eq!(ops.len(), 1_000, "{}", dist.label());
            assert!(!dist.label().is_empty());
        }
    }

    #[test]
    fn mixed_stream_respects_ratio_and_size_bounds() {
        let mut spec = WorkloadSpec::paper_default();
        spec.operations = 10_000;
        let mix = ReadWriteMix {
            write_ratio: 0.3,
            write_size: WriteSizeDist::UniformBytes { min: 100, max: 500 },
        };
        let ops: Vec<MixedOp> = spec.mixed_stream(mix, 9).unwrap().collect();
        assert_eq!(ops.len(), 10_000);
        let writes: Vec<usize> = ops
            .iter()
            .filter_map(|op| match op {
                MixedOp::Write { size, .. } => Some(*size),
                MixedOp::Read { .. } => None,
            })
            .collect();
        let ratio = writes.len() as f64 / ops.len() as f64;
        assert!((ratio - 0.3).abs() < 0.03, "write ratio {ratio}");
        assert!(writes.iter().all(|&s| (100..=500).contains(&s)));
        assert!(ops.iter().all(|op| op.key() < 300));
        // Fixed-size writes rewrite at the catalogue object size.
        let mix = ReadWriteMix::with_ratio(1.0);
        let ops: Vec<MixedOp> = spec.mixed_stream(mix, 9).unwrap().collect();
        assert!(ops
            .iter()
            .all(|op| matches!(op, MixedOp::Write { size, .. } if *size == spec.object_size)));
    }

    #[test]
    fn mixed_stream_is_deterministic_per_seed() {
        let spec = WorkloadSpec::paper_default();
        let mix = ReadWriteMix {
            write_ratio: 0.5,
            write_size: WriteSizeDist::UniformBytes {
                min: 10,
                max: 1_000,
            },
        };
        let a: Vec<MixedOp> = spec.mixed_stream(mix, 4).unwrap().collect();
        let b: Vec<MixedOp> = spec.mixed_stream(mix, 4).unwrap().collect();
        let c: Vec<MixedOp> = spec.mixed_stream(mix, 5).unwrap().collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(format!("{:?}", spec.mixed_stream(mix, 4).unwrap()).contains("50% writes"));
    }

    #[test]
    fn mix_validation_rejects_bad_parameters() {
        assert!(ReadWriteMix::with_ratio(1.5).validate().is_err());
        assert!(ReadWriteMix::with_ratio(-0.1).validate().is_err());
        assert!(ReadWriteMix {
            write_ratio: 0.5,
            write_size: WriteSizeDist::UniformBytes { min: 0, max: 5 },
        }
        .validate()
        .is_err());
        assert!(ReadWriteMix {
            write_ratio: 0.5,
            write_size: WriteSizeDist::UniformBytes { min: 9, max: 5 },
        }
        .validate()
        .is_err());
        assert!(ReadWriteMix::with_ratio(0.0).validate().is_ok());
        assert!(!WriteSizeDist::Fixed.label().is_empty());
        assert!(ReadWriteMix::with_ratio(0.25).label().contains("25%"));
    }

    #[test]
    fn size_hint_is_exact() {
        let spec = WorkloadSpec::paper_default();
        let mut stream = spec.stream(1).unwrap();
        assert_eq!(stream.len(), 1_000);
        stream.next();
        assert_eq!(stream.len(), 999);
    }

    #[test]
    fn debug_output_nonempty() {
        let spec = WorkloadSpec::paper_default();
        let stream = spec.stream(1).unwrap();
        assert!(format!("{stream:?}").contains("zipf"));
    }
}
