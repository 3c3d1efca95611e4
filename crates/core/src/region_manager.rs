//! The region manager (paper §III-a).
//!
//! Maintains the deployment topology and an up-to-date estimate of the
//! chunk-read latency from the local region to every region, seeded by a
//! warm-up probing phase and refreshed by observing live fetches (EWMA).
//! Failure handling: a region observed unreachable is penalised to an
//! effectively infinite latency until a successful observation heals it.

use crate::options::region_order_by_estimates;
use agar_net::latency::LatencyModel;
use agar_net::{Prober, RegionId, Topology};
use rand::RngCore;
use std::time::Duration;

/// The effectively-infinite latency assigned to unreachable regions.
const UNREACHABLE: Duration = Duration::from_secs(3600);

/// Topology view plus live latency estimation for one Agar node.
#[derive(Clone, Debug)]
pub struct RegionManager {
    home: RegionId,
    topology: Topology,
    estimates: Vec<Duration>,
    /// Exponentially weighted mean deviation per region (TCP-rttvar
    /// style): the dispersion signal hedged reads price Δ from.
    deviations: Vec<Duration>,
    /// EWMA weight for live observations.
    alpha: f64,
    observations: u64,
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
            topology,
            estimates: vec![Duration::ZERO; n],
            deviations: vec![Duration::ZERO; n],
            alpha: 0.3,
            observations: 0,
        }
    }

    /// The node's home region.
    pub fn home(&self) -> RegionId {
        self.home
    }

    /// The deployment topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Seeds the estimates by probing every region `probes` times with
    /// `chunk_bytes`-sized reads (the paper's warm-up phase).
    pub fn warm_up(
        &mut self,
        model: &dyn LatencyModel,
        chunk_bytes: usize,
        probes: usize,
        rng: &mut dyn RngCore,
    ) {
        let prober = Prober::new(chunk_bytes, probes);
        let estimates = prober.probe_all(model, self.home, self.topology.len(), rng);
        self.estimates = estimates.iter().map(|e| e.mean()).collect();
        self.deviations = estimates.iter().map(|e| e.std_dev()).collect();
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
        self.observations += 1;
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

    /// The current mean-deviation estimate for a region.
    pub fn deviation(&self, region: RegionId) -> Duration {
        self.deviations[region.index()]
    }

    /// All mean-deviation estimates, indexed by region id.
    pub fn deviations(&self) -> &[Duration] {
        &self.deviations
    }

    /// Regions ordered nearest-first by current estimates.
    pub fn region_order(&self) -> Vec<RegionId> {
        region_order_by_estimates(&self.estimates)
    }

    /// Number of live observations folded in so far.
    pub fn observations(&self) -> u64 {
        self.observations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_net::presets::{aws_six_regions, FRANKFURT, SYDNEY};
    use agar_net::ConstantLatency;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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

    #[test]
    fn warm_up_orders_regions_sensibly() {
        let manager = warmed_manager();
        let order = manager.region_order();
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
        assert_eq!(manager.observations(), 50);
    }

    #[test]
    fn unreachable_regions_sort_last_and_heal() {
        let mut manager = warmed_manager();
        manager.mark_unreachable(FRANKFURT);
        assert!(!manager.is_reachable(FRANKFURT));
        let order = manager.region_order();
        assert_eq!(*order.last().unwrap(), FRANKFURT);
        // A successful observation heals the region outright.
        manager.observe(FRANKFURT, Duration::from_millis(50));
        assert!(manager.is_reachable(FRANKFURT));
        assert_eq!(manager.estimate(FRANKFURT), Duration::from_millis(50));
        assert_eq!(manager.region_order()[0], FRANKFURT);
    }

    #[test]
    fn unseeded_estimate_adopts_first_observation() {
        let preset = aws_six_regions();
        let mut manager = RegionManager::new(FRANKFURT, preset.topology);
        manager.observe(SYDNEY, Duration::from_millis(900));
        assert_eq!(manager.estimate(SYDNEY), Duration::from_millis(900));
        assert_eq!(manager.deviation(SYDNEY), Duration::ZERO);
    }

    #[test]
    fn warm_up_seeds_deviations_from_probe_dispersion() {
        let manager = warmed_manager();
        // The calibrated preset is jittered, so far regions show spread.
        assert!(manager.deviation(SYDNEY) > Duration::ZERO);
        assert_eq!(manager.deviations().len(), manager.estimates().len());
    }

    #[test]
    fn deviation_tracks_observation_spread() {
        let mut manager = warmed_manager();
        // Steady observations collapse the deviation towards zero...
        for _ in 0..100 {
            manager.observe(SYDNEY, Duration::from_millis(500));
        }
        let steady = manager.deviation(SYDNEY);
        assert!(steady < Duration::from_millis(1), "steady dev {steady:?}");
        // ...while alternating fast/slow observations grow it.
        for i in 0..100 {
            let ms = if i % 2 == 0 { 100 } else { 900 };
            manager.observe(SYDNEY, Duration::from_millis(ms));
        }
        let noisy = manager.deviation(SYDNEY);
        assert!(noisy > Duration::from_millis(100), "noisy dev {noisy:?}");
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
        assert_eq!(
            manager.estimate(RegionId::new(1)),
            Duration::from_millis(25)
        );
        assert_eq!(manager.estimates().len(), 2);
        assert_eq!(manager.home(), RegionId::new(0));
        assert_eq!(manager.topology().len(), 2);
    }

    #[test]
    #[should_panic(expected = "part of the topology")]
    fn home_outside_topology_panics() {
        let _ = RegionManager::new(RegionId::new(5), agar_net::Topology::from_names(["a"]));
    }
}
