//! The region manager (paper §III-a).
//!
//! Maintains an up-to-date estimate of the chunk-read latency from the
//! local region to every region of the topology, seeded by a
//! warm-up probing phase and refreshed by observing live fetches (EWMA).
//! Failure handling: a region observed unreachable is penalised to an
//! effectively infinite latency until a successful observation heals it.

use agar_net::latency::LatencyModel;
use agar_net::{RegionId, Topology};
use rand::RngCore;
use std::time::Duration;

/// The effectively-infinite latency assigned to unreachable regions.
const UNREACHABLE: Duration = Duration::from_secs(3600);

/// Live latency estimation, from its home region to every region of the
/// topology, for one Agar node.
#[derive(Clone, Debug)]
pub struct RegionManager {
    home: RegionId,
    /// Chunk-read latency estimate per region, indexed by region id.
    estimates: Vec<Duration>,
    /// Exponentially weighted mean deviation per region (TCP-rttvar
    /// style): the dispersion signal hedged reads price Δ from.
    deviations: Vec<Duration>,
    /// EWMA weight for live observations.
    alpha: f64,
}

impl RegionManager {
    /// Creates a manager for a node homed in `home`; estimates start at
    /// zero and must be seeded with [`RegionManager::warm_up`].
    ///
    /// # Panics
    ///
    /// Panics if `home` is not in the topology.
    pub fn new(home: RegionId, topology: Topology) -> Self {
        assert!(
            topology.region(home).is_some(),
            "home region must be part of the topology"
        );
        let n = topology.len();
        RegionManager {
            home,
            estimates: vec![Duration::ZERO; n],
            deviations: vec![Duration::ZERO; n],
            alpha: 0.3,
        }
    }

    /// Seeds the estimates by probing every region `probes` times with
    /// `chunk_bytes`-sized reads (the paper's warm-up phase): region by
    /// region, each estimate is the samples' mean and each deviation
    /// their population standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `probes` is zero.
    pub fn warm_up(
        &mut self,
        model: &dyn LatencyModel,
        chunk_bytes: usize,
        probes: usize,
        rng: &mut dyn RngCore,
    ) {
        assert!(probes > 0, "need at least one probe per region");
        let mut samples = Vec::with_capacity(probes);
        for region in 0..self.estimates.len() {
            let to = RegionId::new(region as u16);
            samples.clear();
            samples.extend((0..probes).map(|_| model.sample(self.home, to, chunk_bytes, rng)));
            let mean = samples.iter().sum::<Duration>() / probes as u32;
            let mean_s = mean.as_secs_f64();
            let variance = samples
                .iter()
                .map(|s| {
                    let d = s.as_secs_f64() - mean_s;
                    d * d
                })
                .sum::<f64>()
                / probes as f64;
            self.estimates[region] = mean;
            self.deviations[region] = Duration::from_secs_f64(variance.sqrt());
        }
    }

    /// Folds a live fetch observation into the estimate (EWMA) and the
    /// deviation (exponentially weighted mean deviation against the
    /// pre-update estimate, as TCP's rttvar does).
    pub fn observe(&mut self, region: RegionId, latency: Duration) {
        let index = region.index();
        let prev = self.estimates[index];
        // A previously-unreachable or unseeded region adopts the
        // observation outright (and resets its deviation).
        if prev == Duration::ZERO || prev >= UNREACHABLE {
            self.estimates[index] = latency;
            self.deviations[index] = Duration::ZERO;
        } else {
            let error = latency.abs_diff(prev);
            self.deviations[index] =
                self.deviations[index].mul_f64(1.0 - self.alpha) + error.mul_f64(self.alpha);
            self.estimates[index] = prev.mul_f64(1.0 - self.alpha) + latency.mul_f64(self.alpha);
        }
    }

    /// Penalises a region after a failed fetch: it sorts last until a
    /// successful observation heals it.
    pub fn mark_unreachable(&mut self, region: RegionId) {
        self.estimates[region.index()] = UNREACHABLE;
    }

    /// Whether the region is currently considered reachable.
    pub fn is_reachable(&self, region: RegionId) -> bool {
        self.estimates[region.index()] < UNREACHABLE
    }

    /// The current latency estimate for a region.
    pub fn estimate(&self, region: RegionId) -> Duration {
        self.estimates[region.index()]
    }

    /// All estimates, indexed by region id.
    pub fn estimates(&self) -> &[Duration] {
        &self.estimates
    }

    /// All mean-deviation estimates, indexed by region id.
    pub fn deviations(&self) -> &[Duration] {
        &self.deviations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_net::presets::{aws_six_regions, FRANKFURT, SYDNEY};
    use agar_net::ConstantLatency;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn warmed_manager() -> RegionManager {
        let preset = aws_six_regions();
        let mut manager = RegionManager::new(FRANKFURT, preset.topology.clone());
        let mut rng = StdRng::seed_from_u64(0);
        manager.warm_up(
            &preset.latency,
            preset.latency.nominal_bytes(),
            10,
            &mut rng,
        );
        manager
    }

    /// Nearest-first region order by the manager's current estimates.
    fn order(manager: &RegionManager) -> Vec<RegionId> {
        let mut regions: Vec<RegionId> = (0..manager.estimates().len())
            .map(|r| RegionId::new(r as u16))
            .collect();
        regions.sort_by_key(|&r| manager.estimate(r));
        regions
    }

    #[test]
    fn warm_up_orders_regions_sensibly() {
        let manager = warmed_manager();
        let order = order(&manager);
        assert_eq!(order[0], FRANKFURT, "home region is nearest");
        assert_eq!(
            *order.last().unwrap(),
            SYDNEY,
            "Sydney is furthest from Frankfurt"
        );
        // Estimates close to the calibrated means.
        let est = manager.estimate(SYDNEY).as_secs_f64() * 1e3;
        assert!((est - 1050.0).abs() < 100.0, "Sydney estimate {est}ms");
    }

    /// Answers every sample with the next latency of a fixed script.
    struct Scripted {
        millis: Vec<u64>,
        next: AtomicUsize,
    }

    impl LatencyModel for Scripted {
        fn mean(&self, _from: RegionId, _to: RegionId, _bytes: usize) -> Duration {
            unreachable!("warm-up samples, it never asks for the mean")
        }

        fn sample(
            &self,
            _from: RegionId,
            _to: RegionId,
            _bytes: usize,
            _rng: &mut dyn RngCore,
        ) -> Duration {
            let n = self.next.fetch_add(1, Ordering::Relaxed);
            Duration::from_millis(self.millis[n % self.millis.len()])
        }
    }

    #[test]
    fn warm_up_takes_the_mean_and_population_deviation_of_the_probes() {
        let topology = agar_net::Topology::from_names(["a", "b"]);
        let mut manager = RegionManager::new(RegionId::new(0), topology);
        let model = Scripted {
            millis: vec![10, 20, 30],
            next: AtomicUsize::new(0),
        };
        let mut rng = StdRng::seed_from_u64(0);
        manager.warm_up(&model, 1000, 3, &mut rng);
        for region in [RegionId::new(0), RegionId::new(1)] {
            assert_eq!(manager.estimate(region), Duration::from_millis(20));
            // Population std-dev of {10, 20, 30} ms is sqrt(200/3) ≈ 8.165ms.
            let std_ms = manager.deviations()[region.index()].as_secs_f64() * 1e3;
            assert!((std_ms - 8.165).abs() < 0.01, "std {std_ms}");
        }
        assert_eq!(
            model.next.load(Ordering::Relaxed),
            6,
            "3 probes x 2 regions"
        );
    }

    #[test]
    fn constant_model_probes_exactly() {
        let topology = agar_net::Topology::from_names(["a", "b"]);
        let mut manager = RegionManager::new(RegionId::new(0), topology);
        let mut rng = StdRng::seed_from_u64(0);
        manager.warm_up(
            &ConstantLatency::new(Duration::from_millis(25)),
            1000,
            3,
            &mut rng,
        );
        assert_eq!(manager.estimates(), &[Duration::from_millis(25); 2]);
        assert_eq!(manager.deviations(), &[Duration::ZERO; 2]);
    }

    #[test]
    #[should_panic(expected = "at least one probe")]
    fn zero_probes_rejected() {
        let topology = agar_net::Topology::from_names(["a"]);
        let mut rng = StdRng::seed_from_u64(0);
        RegionManager::new(RegionId::new(0), topology).warm_up(
            &ConstantLatency::new(Duration::from_millis(1)),
            1,
            0,
            &mut rng,
        );
    }

    #[test]
    fn observe_moves_estimates() {
        let mut manager = warmed_manager();
        let before = manager.estimate(SYDNEY);
        for _ in 0..50 {
            manager.observe(SYDNEY, Duration::from_millis(100));
        }
        let after = manager.estimate(SYDNEY);
        assert!(after < before);
        assert!(after >= Duration::from_millis(100));
    }

    #[test]
    fn unreachable_regions_sort_last_and_heal() {
        let mut manager = warmed_manager();
        manager.mark_unreachable(FRANKFURT);
        assert!(!manager.is_reachable(FRANKFURT));
        assert_eq!(*order(&manager).last().unwrap(), FRANKFURT);
        // A successful observation heals the region outright.
        manager.observe(FRANKFURT, Duration::from_millis(50));
        assert!(manager.is_reachable(FRANKFURT));
        assert_eq!(manager.estimate(FRANKFURT), Duration::from_millis(50));
        assert_eq!(order(&manager)[0], FRANKFURT);
    }

    #[test]
    fn unseeded_estimate_adopts_first_observation() {
        let preset = aws_six_regions();
        let mut manager = RegionManager::new(FRANKFURT, preset.topology);
        manager.observe(SYDNEY, Duration::from_millis(900));
        assert_eq!(manager.estimate(SYDNEY), Duration::from_millis(900));
        assert_eq!(manager.deviations()[SYDNEY.index()], Duration::ZERO);
    }

    #[test]
    fn warm_up_seeds_deviations_from_probe_dispersion() {
        let manager = warmed_manager();
        // The calibrated preset is jittered, so far regions show spread.
        assert!(manager.deviations()[SYDNEY.index()] > Duration::ZERO);
        assert_eq!(manager.deviations().len(), manager.estimates().len());
    }

    #[test]
    fn deviation_tracks_observation_spread() {
        let mut manager = warmed_manager();
        // Steady observations collapse the deviation towards zero...
        for _ in 0..100 {
            manager.observe(SYDNEY, Duration::from_millis(500));
        }
        let steady = manager.deviations()[SYDNEY.index()];
        assert!(steady < Duration::from_millis(1), "steady dev {steady:?}");
        // ...while alternating fast/slow observations grow it.
        for i in 0..100 {
            let ms = if i % 2 == 0 { 100 } else { 900 };
            manager.observe(SYDNEY, Duration::from_millis(ms));
        }
        let noisy = manager.deviations()[SYDNEY.index()];
        assert!(noisy > Duration::from_millis(100), "noisy dev {noisy:?}");
    }

    #[test]
    #[should_panic(expected = "part of the topology")]
    fn home_outside_topology_panics() {
        let _ = RegionManager::new(RegionId::new(5), agar_net::Topology::from_names(["a"]));
    }
}
