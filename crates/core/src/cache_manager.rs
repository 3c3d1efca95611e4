//! The cache manager (paper §III-c): periodically turns popularity
//! statistics and latency estimates into a static cache configuration by
//! running the Knapsack dynamic program.

use crate::config::CacheConfiguration;
use crate::knapsack::KnapsackSolver;
use crate::monitor::RequestMonitor;
use crate::options::{generate_disk_options, generate_options, ObjectOptions};
use crate::region_manager::RegionManager;
use agar_ec::ObjectId;
use agar_store::{Backend, ObjectManifest};
use std::collections::HashMap;
use std::time::Duration;

/// Computes cache configurations from live statistics.
///
/// Weights are counted in chunks: the paper's catalogue is homogeneous
/// (300 × 1 MB objects), so capacity in bytes divides evenly by the
/// chunk size of the first known object. Heterogeneous object sizes
/// would need byte-granular weights; see DESIGN.md.
#[derive(Clone, Debug)]
pub struct CacheManager {
    capacity_bytes: usize,
    disk_capacity_bytes: usize,
    solver: KnapsackSolver,
}

impl CacheManager {
    /// Creates a manager for a RAM cache of `capacity_bytes` (no disk
    /// tier).
    pub fn new(capacity_bytes: usize) -> Self {
        CacheManager {
            capacity_bytes,
            disk_capacity_bytes: 0,
            solver: KnapsackSolver::new(),
        }
    }

    /// Overrides the Knapsack solver (e.g. to enable §VI early
    /// termination).
    #[must_use]
    pub fn with_solver(mut self, solver: KnapsackSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Attaches a disk-tier budget of `bytes` (0, the default, leaves
    /// the disk phase of [`CacheManager::recompute_tiered`] nothing to
    /// place).
    #[must_use]
    pub fn with_disk_capacity(mut self, bytes: usize) -> Self {
        self.disk_capacity_bytes = bytes;
        self
    }

    /// The configured RAM capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// The configured disk-tier capacity in bytes.
    pub fn disk_capacity_bytes(&self) -> usize {
        self.disk_capacity_bytes
    }

    /// Generates the option sets for every object the monitor tracks.
    ///
    /// Exposed separately so benchmarks can time option generation and
    /// the Knapsack independently.
    pub fn build_options(
        &self,
        monitor: &RequestMonitor,
        region_manager: &RegionManager,
        backend: &Backend,
        cache_read: Duration,
    ) -> HashMap<ObjectId, ObjectOptions> {
        ram_options(
            &tracked(monitor, backend),
            region_manager.estimates(),
            cache_read,
        )
    }

    /// Recomputes the cache configuration from current statistics.
    /// Phase 1 solves the RAM tier (the paper's single-budget
    /// knapsack); phase 2 generates disk-tier options conditioned on
    /// the RAM allocation (the chunks it left on the remote path,
    /// priced against `disk_read`) and solves them against the disk
    /// budget — with a zero disk budget it places nothing and the
    /// result is the paper's RAM-only configuration.
    ///
    /// Returns the empty configuration when the monitor has seen nothing
    /// (or capacity fits no chunk).
    pub fn recompute_tiered(
        &self,
        monitor: &RequestMonitor,
        region_manager: &RegionManager,
        backend: &Backend,
        cache_read: Duration,
        disk_read: Duration,
        epoch: u64,
    ) -> CacheConfiguration {
        let tracked = tracked(monitor, backend);
        let estimates = region_manager.estimates();
        let all_options = ram_options(&tracked, estimates, cache_read);
        let Some(first) = all_options.keys().next() else {
            return CacheConfiguration::empty();
        };
        let chunk_size = backend
            .manifest(*first)
            .map(|m| m.chunk_size())
            .unwrap_or(0);
        if chunk_size == 0 {
            return CacheConfiguration::empty();
        }
        let capacity_chunks = (self.capacity_bytes / chunk_size) as u32;
        let disk_chunks = (self.disk_capacity_bytes / chunk_size) as u32;
        let tiered =
            self.solver
                .populate_tiered(&all_options, capacity_chunks, disk_chunks, |ram| {
                    let in_ram: HashMap<ObjectId, &[u8]> = ram
                        .options()
                        .iter()
                        .map(|option| (option.object(), option.chunks()))
                        .collect();
                    tracked
                        .iter()
                        .filter_map(|(manifest, popularity)| {
                            let object = manifest.object();
                            let ram_chunks = in_ram.get(&object).copied().unwrap_or(&[]);
                            generate_disk_options(
                                manifest,
                                estimates,
                                cache_read,
                                disk_read,
                                ram_chunks,
                                *popularity,
                            )
                            .map(|options| (object, options))
                        })
                        .collect()
                });
        CacheConfiguration::from_tiered(tiered.ram(), tiered.disk(), epoch)
    }
}

/// Every object the monitor tracks that the backend still stores
/// (deleted or never-written ones drop out), with its popularity.
fn tracked(monitor: &RequestMonitor, backend: &Backend) -> Vec<(ObjectManifest, f64)> {
    monitor
        .popularities()
        .into_iter()
        .filter_map(|(object, popularity)| Some((backend.manifest(object).ok()?, popularity)))
        .collect()
}

/// The RAM-tier option set of every tracked object.
fn ram_options(
    tracked: &[(ObjectManifest, f64)],
    estimates: &[Duration],
    cache_read: Duration,
) -> HashMap<ObjectId, ObjectOptions> {
    tracked
        .iter()
        .map(|(manifest, popularity)| {
            let options = generate_options(manifest, estimates, cache_read, *popularity);
            (manifest.object(), options)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_ec::CodingParams;
    use agar_net::presets::{aws_six_regions, FRANKFURT};
    use agar_store::{populate, RoundRobin};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn setup() -> (Arc<Backend>, RegionManager, RequestMonitor) {
        let preset = aws_six_regions();
        let backend = Backend::new(
            preset.topology.clone(),
            Arc::new(preset.latency.clone()),
            CodingParams::paper_default(),
            Box::new(RoundRobin),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        populate(&backend, 20, 900, &mut rng).unwrap();

        let mut region_manager = RegionManager::new(FRANKFURT, preset.topology);
        region_manager.warm_up(&preset.latency, 100, 5, &mut rng);

        let mut monitor = RequestMonitor::new();
        // Object popularity proportional to (20 - id).
        for id in 0..20u64 {
            for _ in 0..(20 - id) * 5 {
                monitor.record_read(agar_ec::ObjectId::new(id));
            }
        }
        monitor.end_epoch();
        (Arc::new(backend), region_manager, monitor)
    }

    /// The paper's single-budget recompute: a manager without a disk
    /// budget, through the one (tiered) entry.
    fn recompute_ram_only(
        manager: &CacheManager,
        monitor: &RequestMonitor,
        region_manager: &RegionManager,
        backend: &Backend,
        epoch: u64,
    ) -> CacheConfiguration {
        assert_eq!(manager.disk_capacity_bytes(), 0);
        let config = manager.recompute_tiered(
            monitor,
            region_manager,
            backend,
            Duration::from_millis(40),
            Duration::from_millis(45),
            epoch,
        );
        assert_eq!(config.disk_chunks(), 0, "no disk budget, no disk chunks");
        config
    }

    #[test]
    fn recompute_fills_capacity_with_popular_objects() {
        let (backend, region_manager, monitor) = setup();
        // Chunk size = 100 bytes; 1 000-byte cache = 10 chunks.
        let manager = CacheManager::new(1_000);
        let config = recompute_ram_only(&manager, &monitor, &region_manager, &backend, 1);
        assert!(config.total_chunks() > 0);
        assert!(config.total_chunks() <= 10);
        // The hottest object must be in the configuration.
        assert!(config.objects().any(|o| o == agar_ec::ObjectId::new(0)));
        assert_eq!(config.epoch(), 1);
    }

    #[test]
    fn empty_monitor_yields_empty_config() {
        let (backend, region_manager, _) = setup();
        let manager = CacheManager::new(1_000);
        let monitor = RequestMonitor::new();
        let config = recompute_ram_only(&manager, &monitor, &region_manager, &backend, 0);
        assert_eq!(config.total_chunks(), 0);
    }

    #[test]
    fn tiny_capacity_yields_few_chunks() {
        let (backend, region_manager, monitor) = setup();
        // 150 bytes = 1 chunk.
        let manager = CacheManager::new(150);
        let config = recompute_ram_only(&manager, &monitor, &region_manager, &backend, 0);
        assert!(config.total_chunks() <= 1);
    }

    #[test]
    fn unknown_objects_are_skipped() {
        let (backend, region_manager, mut monitor) = setup();
        // Record traffic for an object the backend never stored.
        for _ in 0..1000 {
            monitor.record_read(agar_ec::ObjectId::new(999));
        }
        monitor.end_epoch();
        let manager = CacheManager::new(1_000);
        let config = recompute_ram_only(&manager, &monitor, &region_manager, &backend, 0);
        assert!(config.objects().all(|o| o.index() != 999));
    }

    #[test]
    fn tiered_recompute_fills_both_budgets() {
        let (backend, region_manager, monitor) = setup();
        // 10 RAM chunks + 30 disk chunks over a hot 20-object catalogue.
        let manager = CacheManager::new(1_000).with_disk_capacity(3_000);
        assert_eq!(manager.disk_capacity_bytes(), 3_000);
        let config = manager.recompute_tiered(
            &monitor,
            &region_manager,
            &backend,
            Duration::from_millis(40),
            Duration::from_millis(45),
            2,
        );
        assert!(config.ram_chunks() > 0);
        assert!(config.ram_chunks() <= 10);
        assert!(config.disk_chunks() > 0, "disk budget must be used");
        assert!(config.disk_chunks() <= 30);
        assert_eq!(config.epoch(), 2);
    }

    #[test]
    fn build_options_covers_tracked_objects() {
        let (backend, region_manager, monitor) = setup();
        let manager = CacheManager::new(1_000);
        let options = manager.build_options(
            &monitor,
            &region_manager,
            &backend,
            Duration::from_millis(40),
        );
        assert_eq!(options.len(), 20);
        assert_eq!(manager.capacity_bytes(), 1_000);
    }
}
