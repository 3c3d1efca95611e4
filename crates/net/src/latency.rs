//! Latency models for wide-area chunk fetches.
//!
//! The Agar algorithm consumes *observed* per-region chunk-read latencies;
//! everything else in the system only needs a way to sample "how long does
//! it take a client in region A to fetch `n` bytes from the store in
//! region B". A [`LatencyModel`] provides exactly that, with a
//! deterministic mean (for analysis and option generation) and a jittered
//! sample (for simulation).

use crate::error::NetError;
use crate::region::RegionId;
use rand::RngCore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A source of wide-area fetch latencies.
///
/// Implementations must be cheap to call: the simulator samples once per
/// chunk fetch.
pub trait LatencyModel: Send + Sync {
    /// Mean latency for a client in `from` to fetch `bytes` bytes from
    /// the storage service in `to`.
    fn mean(&self, from: RegionId, to: RegionId, bytes: usize) -> Duration;

    /// A randomised latency sample for one fetch.
    ///
    /// The default implementation returns the mean (no jitter).
    fn sample(
        &self,
        from: RegionId,
        to: RegionId,
        bytes: usize,
        rng: &mut dyn RngCore,
    ) -> Duration {
        let _ = rng;
        self.mean(from, to, bytes)
    }

    /// A randomised latency sample for one *batched* fetch of several
    /// chunks from the same region in **one** round trip: the fixed
    /// per-request overhead is paid once and the size-proportional
    /// transfer cost covers the summed payload, so it is one sample of
    /// the total size. Draws exactly one jitter sample per batch, not
    /// one per chunk; an empty batch costs nothing.
    fn sample_batch(
        &self,
        from: RegionId,
        to: RegionId,
        chunk_bytes: &[usize],
        rng: &mut dyn RngCore,
    ) -> Duration {
        if chunk_bytes.is_empty() {
            return Duration::ZERO;
        }
        self.sample(from, to, chunk_bytes.iter().sum(), rng)
    }
}

/// The same fixed latency between every pair of regions — handy for unit
/// tests and microbenchmarks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConstantLatency(Duration);

impl ConstantLatency {
    /// Creates a model that always returns `latency`.
    pub fn new(latency: Duration) -> Self {
        ConstantLatency(latency)
    }
}

impl LatencyModel for ConstantLatency {
    fn mean(&self, _from: RegionId, _to: RegionId, _bytes: usize) -> Duration {
        self.0
    }
}

/// Multiplicative noise applied to sampled latencies.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum Jitter {
    /// No noise; samples equal the mean.
    #[default]
    None,
    /// Mean-preserving log-normal noise, the classic model for WAN
    /// latency tails.
    LogNormal {
        /// Standard deviation of the underlying normal distribution.
        sigma: f64,
    },
}

/// Draws a standard normal variate via the Box-Muller transform.
///
/// `rand` deliberately ships without distributions; this is the only
/// normal sampling the workspace needs.
fn standard_normal(rng: &mut dyn RngCore) -> f64 {
    loop {
        // Uniform in (0, 1]: avoid ln(0).
        let u1 = ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
        let u2 = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let r = (-2.0 * u1.ln()).sqrt();
        let z = r * (std::f64::consts::TAU * u2).cos();
        if z.is_finite() {
            return z;
        }
    }
}

impl Jitter {
    /// Applies the noise to a mean value in milliseconds.
    pub fn apply(self, mean_millis: f64, rng: &mut dyn RngCore) -> f64 {
        match self {
            Jitter::None => mean_millis,
            Jitter::LogNormal { sigma } => {
                let z = standard_normal(rng);
                // exp(σz − σ²/2) has mean 1, so samples stay centred on
                // the configured matrix entry.
                mean_millis * (sigma * z - sigma * sigma / 2.0).exp()
            }
        }
    }
}

/// Latency derived from a per-region-pair matrix of chunk-read times.
///
/// Matrix entry `[from][to]` is the *total* observed latency, in
/// milliseconds, for a client in `from` to read one nominal-size chunk
/// from the store in `to` — exactly what the paper's region manager
/// estimates (Table I). A fixed share of that total
/// (40 %) is treated as size-proportional transfer time so that fetches of other sizes scale sensibly.
///
/// # Examples
///
/// ```
/// use agar_net::{MatrixLatency, RegionId};
/// use agar_net::latency::LatencyModel;
///
/// let model = MatrixLatency::from_millis(vec![
///     vec![10.0, 100.0],
///     vec![100.0, 10.0],
/// ])?;
/// let near = model.mean(RegionId::new(0), RegionId::new(0), model.nominal_bytes());
/// let far = model.mean(RegionId::new(0), RegionId::new(1), model.nominal_bytes());
/// assert!(far > near);
/// # Ok::<(), agar_net::NetError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MatrixLatency {
    millis: Vec<Vec<f64>>,
    nominal_bytes: usize,
    jitter: Jitter,
}

impl MatrixLatency {
    /// Default nominal chunk size the matrix is calibrated at: a 1 MB
    /// object split into 9 data chunks, as in the paper.
    const DEFAULT_NOMINAL_BYTES: usize = 1_000_000usize.div_ceil(9);

    /// Share of each entry that scales with transfer size; the rest is
    /// fixed round-trip overhead.
    const TRANSFER_FRACTION: f64 = 0.4;

    /// Creates a model from a square matrix of per-chunk latencies in
    /// milliseconds.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidMatrix`] if the matrix is empty,
    /// ragged, or contains non-finite/negative entries.
    pub fn from_millis(millis: Vec<Vec<f64>>) -> Result<Self, NetError> {
        let n = millis.len();
        if n == 0
            || millis.iter().any(|row| row.len() != n)
            || millis.iter().flatten().any(|v| !v.is_finite() || *v < 0.0)
        {
            return Err(NetError::InvalidMatrix {
                rows: n,
                cols: millis.first().map_or(0, Vec::len),
            });
        }
        Ok(MatrixLatency {
            millis,
            nominal_bytes: Self::DEFAULT_NOMINAL_BYTES,
            jitter: Jitter::None,
        })
    }

    /// Sets the jitter applied to samples. Returns `self` for chaining.
    #[must_use]
    pub fn with_jitter(mut self, jitter: Jitter) -> Self {
        self.jitter = jitter;
        self
    }

    /// Sets the nominal chunk size the matrix entries are calibrated at.
    #[must_use]
    pub fn with_nominal_bytes(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "nominal chunk size must be positive");
        self.nominal_bytes = bytes;
        self
    }

    /// Number of regions the matrix covers.
    pub fn regions(&self) -> usize {
        self.millis.len()
    }

    /// The nominal chunk size entries are calibrated at.
    pub fn nominal_bytes(&self) -> usize {
        self.nominal_bytes
    }

    fn mean_millis(&self, from: RegionId, to: RegionId, bytes: usize) -> f64 {
        let entry = self.millis[from.index()][to.index()];
        let fixed = entry * (1.0 - Self::TRANSFER_FRACTION);
        let variable = entry * Self::TRANSFER_FRACTION * (bytes as f64 / self.nominal_bytes as f64);
        fixed + variable
    }
}

impl LatencyModel for MatrixLatency {
    /// # Panics
    ///
    /// Panics if either region index is outside the matrix.
    fn mean(&self, from: RegionId, to: RegionId, bytes: usize) -> Duration {
        Duration::from_secs_f64(self.mean_millis(from, to, bytes) / 1_000.0)
    }

    fn sample(
        &self,
        from: RegionId,
        to: RegionId,
        bytes: usize,
        rng: &mut dyn RngCore,
    ) -> Duration {
        let jittered = self
            .jitter
            .apply(self.mean_millis(from, to, bytes), rng)
            .max(0.0);
        Duration::from_secs_f64(jittered / 1_000.0)
    }
}

/// A deterministic periodic slowdown applied to fetches *served by* one
/// region: every `every`-th draw against that region takes `factor`×
/// longer. This is the building block of the straggler scenarios — the
/// classic "one in N requests hits a GC pause / queue spike" tail.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LatencySpike {
    /// Region whose responses are slowed.
    pub region: RegionId,
    /// Period: the Nth, 2Nth, … draws against the region are spiked.
    pub every: u64,
    /// Latency multiplier applied to spiked draws (≥ 1).
    pub factor: f64,
}

struct SpikeState {
    spike: LatencySpike,
    draws: AtomicU64,
}

/// Wraps another [`LatencyModel`] with deterministic per-region
/// slowdown spikes.
///
/// Spikes apply only to `sample`/`sample_batch` — the *tail* of the
/// distribution. `mean` still reports the inner model's optimistic
/// estimate, exactly the situation hedged reads are built for: the
/// planner's estimates look fine while the occasional response
/// straggles.
///
/// The spike schedule counts draws per spiked region with atomic
/// counters, so a single-threaded simulation replays identically under
/// the same seed while multi-threaded harnesses stay race-free.
pub struct SpikedLatency {
    inner: Arc<dyn LatencyModel>,
    spikes: Vec<SpikeState>,
    spiked_draws: AtomicU64,
}

impl SpikedLatency {
    /// Wraps `inner` with the given spike schedule.
    ///
    /// # Panics
    ///
    /// Panics if any spike has a zero period or a factor below 1 (or
    /// non-finite).
    pub fn new(inner: Arc<dyn LatencyModel>, spikes: Vec<LatencySpike>) -> Self {
        for spike in &spikes {
            assert!(spike.every > 0, "spike period must be at least 1");
            assert!(
                spike.factor.is_finite() && spike.factor >= 1.0,
                "spike factor must be finite and at least 1"
            );
        }
        SpikedLatency {
            inner,
            spikes: spikes
                .into_iter()
                .map(|spike| SpikeState {
                    spike,
                    draws: AtomicU64::new(0),
                })
                .collect(),
            spiked_draws: AtomicU64::new(0),
        }
    }

    /// Total number of draws that were actually spiked so far.
    fn spiked_draws(&self) -> u64 {
        self.spiked_draws.load(Ordering::Relaxed)
    }

    fn stretch(&self, to: RegionId, latency: Duration) -> Duration {
        let Some(state) = self.spikes.iter().find(|s| s.spike.region == to) else {
            return latency;
        };
        let draw = state.draws.fetch_add(1, Ordering::Relaxed) + 1;
        if draw % state.spike.every == 0 {
            self.spiked_draws.fetch_add(1, Ordering::Relaxed);
            latency.mul_f64(state.spike.factor)
        } else {
            latency
        }
    }
}

impl std::fmt::Debug for SpikedLatency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpikedLatency")
            .field(
                "spikes",
                &self.spikes.iter().map(|s| s.spike).collect::<Vec<_>>(),
            )
            .field("spiked_draws", &self.spiked_draws())
            .finish_non_exhaustive()
    }
}

impl LatencyModel for SpikedLatency {
    fn mean(&self, from: RegionId, to: RegionId, bytes: usize) -> Duration {
        self.inner.mean(from, to, bytes)
    }

    fn sample(
        &self,
        from: RegionId,
        to: RegionId,
        bytes: usize,
        rng: &mut dyn RngCore,
    ) -> Duration {
        self.stretch(to, self.inner.sample(from, to, bytes, rng))
    }

    fn sample_batch(
        &self,
        from: RegionId,
        to: RegionId,
        chunk_bytes: &[usize],
        rng: &mut dyn RngCore,
    ) -> Duration {
        if chunk_bytes.is_empty() {
            return Duration::ZERO;
        }
        self.stretch(to, self.inner.sample_batch(from, to, chunk_bytes, rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_matrix() -> MatrixLatency {
        MatrixLatency::from_millis(vec![vec![10.0, 100.0], vec![100.0, 10.0]]).unwrap()
    }

    #[test]
    fn constant_latency_ignores_everything() {
        let m = ConstantLatency::new(Duration::from_millis(5));
        let a = RegionId::new(0);
        let b = RegionId::new(7);
        assert_eq!(m.mean(a, b, 1), Duration::from_millis(5));
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(m.sample(a, b, 123, &mut rng), Duration::from_millis(5));
    }

    #[test]
    fn matrix_validation() {
        assert!(matches!(
            MatrixLatency::from_millis(vec![]),
            Err(NetError::InvalidMatrix { .. })
        ));
        assert!(matches!(
            MatrixLatency::from_millis(vec![vec![1.0], vec![1.0]]),
            Err(NetError::InvalidMatrix { .. })
        ));
        assert!(matches!(
            MatrixLatency::from_millis(vec![vec![1.0, 2.0], vec![f64::NAN, 1.0]]),
            Err(NetError::InvalidMatrix { .. })
        ));
        assert!(matches!(
            MatrixLatency::from_millis(vec![vec![-1.0]]),
            Err(NetError::InvalidMatrix { .. })
        ));
    }

    #[test]
    fn mean_at_nominal_size_matches_entry() {
        let m = sample_matrix();
        let d = m.mean(RegionId::new(0), RegionId::new(1), m.nominal_bytes());
        assert!((d.as_secs_f64() - 0.1).abs() < 1e-9, "{d:?}");
    }

    #[test]
    fn mean_scales_with_bytes() {
        let m = sample_matrix();
        let a = RegionId::new(0);
        let b = RegionId::new(1);
        let nominal = m.mean(a, b, m.nominal_bytes()).as_secs_f64();
        let double = m.mean(a, b, 2 * m.nominal_bytes()).as_secs_f64();
        let tiny = m.mean(a, b, 0).as_secs_f64();
        // The fixed 60 % stays; the variable 40 % doubles / disappears.
        assert!((double - nominal * 1.4).abs() < 1e-9);
        assert!((tiny - nominal * 0.6).abs() < 1e-9);
    }

    #[test]
    fn lognormal_jitter_is_mean_preserving() {
        let m = sample_matrix().with_jitter(Jitter::LogNormal { sigma: 0.2 });
        let mut rng = StdRng::seed_from_u64(7);
        let a = RegionId::new(0);
        let b = RegionId::new(1);
        let mean = m.mean(a, b, m.nominal_bytes()).as_secs_f64();
        let n = 20_000;
        let sum: f64 = (0..n)
            .map(|_| m.sample(a, b, m.nominal_bytes(), &mut rng).as_secs_f64())
            .sum();
        let avg = sum / n as f64;
        assert!(
            (avg - mean).abs() / mean < 0.02,
            "avg {avg} vs mean {mean} drifted"
        );
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let m = sample_matrix().with_jitter(Jitter::LogNormal { sigma: 0.3 });
        let a = RegionId::new(0);
        let b = RegionId::new(1);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..10)
                .map(|_| m.sample(a, b, 100, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn batch_pays_the_fixed_overhead_once() {
        let m = sample_matrix(); // 40% of each entry scales with size
        let a = RegionId::new(0);
        let b = RegionId::new(1);
        let chunk = m.nominal_bytes();
        let one = m.mean(a, b, chunk);
        // Without jitter a sample is the mean.
        let mut rng = StdRng::seed_from_u64(0);
        let batch = m.sample_batch(a, b, &[chunk; 4], &mut rng);
        let four_separate = 4 * one;
        // One round trip: cheaper than four sequential fetches, dearer
        // than a single one (the extra bytes still cost transfer time).
        assert!(batch < four_separate, "{batch:?} vs {four_separate:?}");
        assert!(batch > one, "{batch:?} vs {one:?}");
        // Exactly: fixed once + 4x the variable part.
        let fixed = m.mean(a, b, 0);
        let expected = fixed + (one - fixed) * 4;
        assert!(
            (batch.as_secs_f64() - expected.as_secs_f64()).abs() < 1e-9,
            "{batch:?} vs {expected:?}"
        );
    }

    #[test]
    fn empty_batch_is_free_and_singleton_matches_sample() {
        let m = sample_matrix();
        let a = RegionId::new(0);
        let b = RegionId::new(1);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(m.sample_batch(a, b, &[], &mut rng), Duration::ZERO);
        assert_eq!(m.sample_batch(a, b, &[123], &mut rng), m.mean(a, b, 123));
    }

    #[test]
    fn sample_batch_draws_one_jitter_sample() {
        let m = sample_matrix().with_jitter(Jitter::LogNormal { sigma: 0.2 });
        let a = RegionId::new(0);
        let b = RegionId::new(1);
        // Same seed: the batch sample equals a single sample of the
        // total size (one draw), not a combination of per-chunk draws.
        let mut rng = StdRng::seed_from_u64(11);
        let batch = m.sample_batch(a, b, &[100, 200, 300], &mut rng);
        let mut rng = StdRng::seed_from_u64(11);
        let single = m.sample(a, b, 600, &mut rng);
        assert_eq!(batch, single);
    }

    #[test]
    fn spikes_slow_every_nth_draw_to_the_region() {
        let inner = Arc::new(ConstantLatency::new(Duration::from_millis(10)));
        let model = SpikedLatency::new(
            inner,
            vec![LatencySpike {
                region: RegionId::new(1),
                every: 3,
                factor: 10.0,
            }],
        );
        let a = RegionId::new(0);
        let spiked = RegionId::new(1);
        let calm = RegionId::new(2);
        let mut rng = StdRng::seed_from_u64(0);
        let draws: Vec<Duration> = (0..6)
            .map(|_| model.sample(a, spiked, 100, &mut rng))
            .collect();
        let fast = Duration::from_millis(10);
        let slow = Duration::from_millis(100);
        assert_eq!(draws, vec![fast, fast, slow, fast, fast, slow]);
        assert_eq!(model.spiked_draws(), 2);
        // Other regions are untouched, and the mean stays optimistic.
        assert_eq!(model.sample(a, calm, 100, &mut rng), fast);
        assert_eq!(model.mean(a, spiked, 100), fast);
    }

    #[test]
    fn spiked_batches_count_as_one_draw() {
        let inner = Arc::new(ConstantLatency::new(Duration::from_millis(10)));
        let model = SpikedLatency::new(
            inner,
            vec![LatencySpike {
                region: RegionId::new(0),
                every: 2,
                factor: 3.0,
            }],
        );
        let r = RegionId::new(0);
        let mut rng = StdRng::seed_from_u64(0);
        // Empty batches don't advance the schedule.
        assert_eq!(model.sample_batch(r, r, &[], &mut rng), Duration::ZERO);
        let first = model.sample_batch(r, r, &[50, 50], &mut rng);
        let second = model.sample_batch(r, r, &[50, 50], &mut rng);
        assert_eq!(first, Duration::from_millis(10));
        assert_eq!(second, Duration::from_millis(30));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_spike_period_rejected() {
        let inner = Arc::new(ConstantLatency::new(Duration::from_millis(1)));
        let _ = SpikedLatency::new(
            inner,
            vec![LatencySpike {
                region: RegionId::new(0),
                every: 0,
                factor: 2.0,
            }],
        );
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
