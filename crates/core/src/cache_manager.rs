//! The cache manager (paper §III-c): periodically turns popularity
//! statistics and latency estimates into a static cache configuration by
//! running the Knapsack dynamic program.
//!
//! What it returns names chunks of three classes (see [`crate::config`]):
//! **RAM** and **disk**, the two budgets' solves, and **carried** — the
//! chunks of objects the previous configuration named and the solve no
//! longer does, kept on disk in whatever room the solve left there. RAM
//! is the paper's answer and nothing is carried into it.

use crate::config::CacheConfiguration;
use crate::knapsack::KnapsackSolver;
use crate::monitor::RequestMonitor;
use crate::options::{generate_disk_options, generate_options, ObjectOptions};
use crate::region_manager::RegionManager;
use agar_cache::disk::HEADER_LEN;
use agar_ec::{ChunkId, ObjectId};
use agar_store::{Backend, ObjectManifest};
use std::collections::HashMap;
use std::time::Duration;

/// Computes cache configurations from live statistics.
///
/// Weights are counted in chunks: the paper's catalogue is homogeneous
/// (300 × 1 MB objects), so capacity in bytes divides evenly by the
/// chunk size of the first known object. Heterogeneous object sizes
/// would need byte-granular weights (README, "Deviations from the
/// paper's pseudocode").
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
    /// result is the paper's RAM-only configuration. The disk budget
    /// is counted in log frames ([`HEADER_LEN`] more than a chunk
    /// each), which is what the tier stores.
    ///
    /// Whatever the solve leaves of the disk budget then goes to
    /// **carried** entries ([`CacheConfiguration::carry`]): objects
    /// `previous` named and this solve did not — the monitor forgets
    /// an object after a few idle epochs, long before a warm tier with
    /// room has a reason to — keep their still-`cached` chunks on disk.
    /// RAM is never carried into (see the [`crate::config`] docs), a
    /// manager without a disk budget carries nothing and neither does
    /// one whose solve fills the disk.
    ///
    /// The configuration is tagged with the monitor's epoch. Returns the
    /// empty configuration when neither the monitor nor
    /// `previous` names a stored object (or capacity fits no chunk).
    #[allow(clippy::too_many_arguments)]
    pub fn recompute_tiered(
        &self,
        monitor: &RequestMonitor,
        region_manager: &RegionManager,
        backend: &Backend,
        cache_read: Duration,
        disk_read: Duration,
        previous: &CacheConfiguration,
        cached: impl Fn(ChunkId) -> bool,
    ) -> CacheConfiguration {
        let tracked = tracked(monitor, backend);
        let estimates = region_manager.estimates();
        let all_options = ram_options(&tracked, estimates, cache_read);
        // The catalogue is homogeneous: any stored object's chunk size
        // will do. A monitor that forgot everything still has the
        // previous configuration's objects to carry.
        let chunk_size = match tracked.first() {
            Some((manifest, _)) => manifest.chunk_size(),
            None => previous
                .objects()
                .min()
                .and_then(|object| backend.manifest(object).ok())
                .map_or(0, |manifest| manifest.chunk_size()),
        };
        if chunk_size == 0 {
            return CacheConfiguration::empty();
        }
        let capacity_chunks = (self.capacity_bytes / chunk_size) as u32;
        let disk_chunks = (self.disk_capacity_bytes / (HEADER_LEN + chunk_size)) as u32;
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
        let mut config =
            CacheConfiguration::from_tiered(tiered.ram(), tiered.disk(), monitor.epoch());
        config.carry(previous, disk_chunks - config.disk_chunks(), cached);
        config
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

    /// `recompute_tiered` at the test latencies, every chunk of
    /// `previous` still cached.
    fn recompute(
        manager: &CacheManager,
        monitor: &RequestMonitor,
        region_manager: &RegionManager,
        backend: &Backend,
        previous: &CacheConfiguration,
    ) -> CacheConfiguration {
        manager.recompute_tiered(
            monitor,
            region_manager,
            backend,
            Duration::from_millis(40),
            Duration::from_millis(45),
            previous,
            |_| true,
        )
    }

    /// The paper's single-budget recompute: a manager without a disk
    /// budget, through the one (tiered) entry.
    fn recompute_ram_only(
        manager: &CacheManager,
        monitor: &RequestMonitor,
        region_manager: &RegionManager,
        backend: &Backend,
    ) -> CacheConfiguration {
        assert_eq!(manager.disk_capacity_bytes(), 0);
        let config = recompute(
            manager,
            monitor,
            region_manager,
            backend,
            &CacheConfiguration::empty(),
        );
        assert_eq!(config.disk_chunks(), 0, "no disk budget, no disk chunks");
        config
    }

    #[test]
    fn recompute_fills_capacity_with_popular_objects() {
        let (backend, region_manager, monitor) = setup();
        // Chunk size = 100 bytes; 1 000-byte cache = 10 chunks.
        let manager = CacheManager::new(1_000);
        let config = recompute_ram_only(&manager, &monitor, &region_manager, &backend);
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
        let config = recompute_ram_only(&manager, &monitor, &region_manager, &backend);
        assert_eq!(config.total_chunks(), 0);
    }

    #[test]
    fn tiny_capacity_yields_few_chunks() {
        let (backend, region_manager, monitor) = setup();
        // 150 bytes = 1 chunk.
        let manager = CacheManager::new(150);
        let config = recompute_ram_only(&manager, &monitor, &region_manager, &backend);
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
        let config = recompute_ram_only(&manager, &monitor, &region_manager, &backend);
        assert!(config.objects().all(|o| o.index() != 999));
    }

    #[test]
    fn tiered_recompute_fills_both_budgets() {
        let (backend, region_manager, monitor) = setup();
        // 10 RAM chunks + 30 disk chunks over a hot 20-object catalogue.
        let manager = CacheManager::new(1_000).with_disk_capacity(3_000);
        assert_eq!(manager.disk_capacity_bytes(), 3_000);
        let previous = CacheConfiguration::empty();
        let config = recompute(&manager, &monitor, &region_manager, &backend, &previous);
        assert!(config.ram_chunks() > 0);
        assert!(config.ram_chunks() <= 10);
        assert!(config.disk_chunks() > 0, "disk budget must be used");
        // 100-byte chunks are 133-byte frames: 22 fit, not 30.
        assert!(config.disk_chunks() <= 22);
        assert_eq!(config.carried_chunks(), 0, "nothing to carry");
        assert_eq!(config.epoch(), monitor.epoch());
    }

    /// A monitor that forgot objects 10..20 (here: never saw them).
    fn monitor_of_the_hot_half() -> RequestMonitor {
        let mut monitor = RequestMonitor::new();
        for id in 0..10u64 {
            for _ in 0..(20 - id) * 5 {
                monitor.record_read(ObjectId::new(id));
            }
        }
        monitor.end_epoch();
        monitor
    }

    #[test]
    fn unused_disk_budget_carries_what_the_solve_forgot_in_whole_frames() {
        let (backend, region_manager, monitor) = setup();
        // Disk: 200 frames of 133 bytes — a payload count would say 266.
        let manager = CacheManager::new(1_000).with_disk_capacity(26_600);
        let empty = CacheConfiguration::empty();
        let first = recompute(&manager, &monitor, &region_manager, &backend, &empty);
        assert_eq!(first.object_count(), 20);

        let hot = monitor_of_the_hot_half();
        let second = recompute(&manager, &hot, &region_manager, &backend, &first);
        assert!(second.carried_chunks() > 0);
        let mut carried = 0;
        for id in 0..20u64 {
            let object = ObjectId::new(id);
            assert_eq!(second.is_carried(object), id >= 10, "object {id}");
            if id >= 10 {
                // The whole previous entry, RAM chunks included, on disk.
                assert_eq!(second.chunks_for(object), first.chunks_for(object));
                assert_eq!(second.disk_chunks_for(object), first.chunks_for(object));
                carried += first.chunks_for(object).len() as u32;
            }
        }
        assert_eq!(second.carried_chunks(), carried);
        let frames = second.disk_chunks() as usize * (HEADER_LEN + 100);
        assert!(
            frames <= manager.disk_capacity_bytes(),
            "{frames} B of frames"
        );
        // RAM is the knapsack's answer alone.
        let alone = recompute(&manager, &hot, &region_manager, &backend, &empty);
        assert_eq!(second.ram_chunks(), alone.ram_chunks());
        assert_eq!(second.planned_value(), alone.planned_value());

        // A tier the solve and the carry fill to the last frame still
        // fits: 100 frames.
        let tight = CacheManager::new(1_000).with_disk_capacity(100 * 133 + 132);
        let second = recompute(&tight, &hot, &region_manager, &backend, &first);
        assert!(second.carried_chunks() > 0);
        assert_eq!(second.disk_chunks(), 100, "the carry fills the budget");
        assert!(second.disk_chunks() as usize * (HEADER_LEN + 100) <= tight.disk_capacity_bytes());
    }

    #[test]
    fn nothing_is_carried_without_a_disk_budget_or_into_a_full_one() {
        let (backend, region_manager, monitor) = setup();
        let hot = monitor_of_the_hot_half();
        let empty = CacheConfiguration::empty();
        // 20 objects compete for 30 frames: the solve fills them.
        for disk_bytes in [0, 30 * 133] {
            let manager = CacheManager::new(1_000).with_disk_capacity(disk_bytes);
            let first = recompute(&manager, &monitor, &region_manager, &backend, &empty);
            let second = recompute(&manager, &hot, &region_manager, &backend, &first);
            let alone = recompute(&manager, &hot, &region_manager, &backend, &empty);
            assert_eq!(second.carried_chunks(), 0, "disk of {disk_bytes} B");
            assert_eq!(second.object_count(), alone.object_count());
            assert_eq!(second.total_chunks(), alone.total_chunks());
        }
    }

    #[test]
    fn a_monitor_that_forgot_everything_still_carries() {
        let (backend, region_manager, monitor) = setup();
        let manager = CacheManager::new(1_000).with_disk_capacity(26_600);
        let empty = CacheConfiguration::empty();
        let first = recompute(&manager, &monitor, &region_manager, &backend, &empty);
        let idle = RequestMonitor::new();
        let second = recompute(&manager, &idle, &region_manager, &backend, &first);
        assert_eq!(second.ram_chunks(), 0);
        assert_eq!(second.carried_chunks(), first.total_chunks());
        // Nothing left in the cache: nothing carried, nothing configured.
        let gone = manager.recompute_tiered(
            &idle,
            &region_manager,
            &backend,
            Duration::from_millis(40),
            Duration::from_millis(45),
            &second,
            |_| false,
        );
        assert_eq!(gone.object_count(), 0);
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
