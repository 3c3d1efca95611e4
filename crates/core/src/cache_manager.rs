//! The cache manager (paper §III-c): periodically turns popularity
//! statistics and latency estimates into a static cache configuration by
//! running the Knapsack dynamic program.
//!
//! What it returns names chunks of three classes (see [`crate::config`]):
//! **RAM** and **disk**, the two budgets' solves, and **carried** — the
//! chunks of objects the previous configuration named and the solve no
//! longer does, kept on disk in whatever room the solve left there. RAM
//! is the paper's answer and nothing is carried into it. A whole
//! object's entry names its data chunks in the places of the solve's
//! parity chunks ([`CacheConfiguration::from_tiered`]), so its reads
//! skip the decode at the price the solve gave them.

use crate::config::CacheConfiguration;
use crate::knapsack::{optimum, optimum_tiered, Config};
use crate::monitor::RequestMonitor;
use crate::node::AgarSettings;
use crate::options::{generate_options, generate_tiered_options};
use crate::region_manager::RegionManager;
use agar_cache::disk::HEADER_LEN;
use agar_ec::ChunkId;
use agar_store::{Backend, ObjectManifest};

/// Computes the cache configuration from current statistics, with the
/// budgets and the tier latencies of `settings`.
///
/// Without a disk budget this is the paper's single-budget knapsack:
/// [`optimum`] over the RAM options, and the result is the paper's
/// RAM-only configuration. With one, RAM and disk are solved as one
/// knapsack ([`optimum_tiered`]) over each object's joint options,
/// priced as the read is: whether a chunk is worth a RAM slot depends
/// on what lands on disk, since a read partly in RAM and partly on disk
/// costs the slower tier. The disk budget is counted in log frames
/// ([`HEADER_LEN`] more than a chunk each), which is what the tier
/// stores.
///
/// Weights are counted in chunks: the paper's catalogue is homogeneous
/// (300 × 1 MB objects), so capacity in bytes divides evenly by the
/// chunk size of the first known object. Heterogeneous object sizes
/// would need byte-granular weights (README, "Deviations from the
/// paper's pseudocode").
///
/// Whatever the solve leaves of the disk budget then goes to
/// **carried** entries ([`CacheConfiguration::carry`]): objects
/// `previous` named and this solve did not — the monitor forgets an
/// object after a few idle epochs, long before a warm tier with room
/// has a reason to — keep their still-`cached` chunks on disk. RAM is
/// never carried into (see the [`crate::config`] docs), a node without
/// a disk budget carries nothing and neither does one whose solve fills
/// the disk.
///
/// The configuration is tagged with the monitor's epoch. Returns the
/// empty configuration when neither the monitor nor `previous` names a
/// stored object (or capacity fits no chunk).
pub fn solve(
    settings: &AgarSettings,
    monitor: &RequestMonitor,
    region_manager: &RegionManager,
    backend: &Backend,
    previous: &CacheConfiguration,
    cached: impl Fn(ChunkId) -> bool,
) -> CacheConfiguration {
    let (cache_read, disk_read) = (settings.cache_read, settings.disk_read);
    // Every object the monitor tracks that the backend still stores
    // (deleted or never-written ones drop out), with its popularity.
    let tracked: Vec<(ObjectManifest, f64)> = monitor
        .popularities()
        .into_iter()
        .filter_map(|(object, popularity)| Some((backend.manifest(object).ok()?, popularity)))
        .collect();
    let estimates = region_manager.estimates();
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
    let capacity_chunks = (settings.cache_capacity_bytes / chunk_size) as u32;
    let disk_chunks = (settings.disk_capacity_bytes / (HEADER_LEN + chunk_size)) as u32;
    let (ram, disk) = if disk_chunks == 0 {
        let all_options = tracked
            .iter()
            .map(|(manifest, popularity)| {
                let options = generate_options(manifest, estimates, cache_read, *popularity);
                (manifest.object(), options)
            })
            .collect();
        (optimum(&all_options, capacity_chunks), Config::empty())
    } else {
        let all_options = tracked
            .iter()
            .map(|(manifest, popularity)| {
                let options = generate_tiered_options(
                    manifest,
                    estimates,
                    cache_read,
                    disk_read,
                    *popularity,
                );
                (manifest.object(), options)
            })
            .collect();
        optimum_tiered(&all_options, capacity_chunks, disk_chunks)
    };
    let k = backend.params().data_chunks();
    let mut config = CacheConfiguration::from_tiered(&ram, &disk, k, monitor.epoch());
    config.carry(previous, disk_chunks - config.disk_chunks(), cached);
    config
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_ec::{CodingParams, ObjectId};
    use agar_net::presets::{aws_six_regions, FRANKFURT};
    use agar_store::{populate, RoundRobin};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;
    use std::time::Duration;

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

    /// The paper's settings with the given budgets and a 45 ms disk.
    fn budgets(cache_bytes: usize, disk_bytes: usize) -> AgarSettings {
        AgarSettings {
            disk_capacity_bytes: disk_bytes,
            disk_read: Duration::from_millis(45),
            ..AgarSettings::paper_default(cache_bytes)
        }
    }

    /// `solve` with every chunk of `previous` still cached.
    fn recompute(
        settings: &AgarSettings,
        monitor: &RequestMonitor,
        region_manager: &RegionManager,
        backend: &Backend,
        previous: &CacheConfiguration,
    ) -> CacheConfiguration {
        solve(settings, monitor, region_manager, backend, previous, |_| {
            true
        })
    }

    /// The paper's single-budget recompute: settings without a disk
    /// budget, through the one (tiered) entry.
    fn recompute_ram_only(
        settings: &AgarSettings,
        monitor: &RequestMonitor,
        region_manager: &RegionManager,
        backend: &Backend,
    ) -> CacheConfiguration {
        assert_eq!(settings.disk_capacity_bytes, 0);
        let config = recompute(
            settings,
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
        let settings = budgets(1_000, 0);
        let config = recompute_ram_only(&settings, &monitor, &region_manager, &backend);
        assert!(config.total_chunks() > 0);
        assert!(config.total_chunks() <= 10);
        // The hottest object must be in the configuration.
        assert!(config.objects().any(|o| o == agar_ec::ObjectId::new(0)));
        assert_eq!(config.epoch(), 1);
    }

    #[test]
    fn empty_monitor_yields_empty_config() {
        let (backend, region_manager, _) = setup();
        let settings = budgets(1_000, 0);
        let monitor = RequestMonitor::new();
        let config = recompute_ram_only(&settings, &monitor, &region_manager, &backend);
        assert_eq!(config.total_chunks(), 0);
    }

    #[test]
    fn tiny_capacity_yields_few_chunks() {
        let (backend, region_manager, monitor) = setup();
        // 150 bytes = 1 chunk.
        let settings = budgets(150, 0);
        let config = recompute_ram_only(&settings, &monitor, &region_manager, &backend);
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
        let settings = budgets(1_000, 0);
        let config = recompute_ram_only(&settings, &monitor, &region_manager, &backend);
        assert!(config.objects().all(|o| o.index() != 999));
    }

    #[test]
    fn tiered_recompute_fills_both_budgets() {
        let (backend, region_manager, monitor) = setup();
        // 10 RAM chunks + 30 disk chunks over a hot 20-object catalogue.
        let settings = budgets(1_000, 3_000);
        let previous = CacheConfiguration::empty();
        let config = recompute(&settings, &monitor, &region_manager, &backend, &previous);
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
        let settings = budgets(1_000, 26_600);
        let empty = CacheConfiguration::empty();
        let first = recompute(&settings, &monitor, &region_manager, &backend, &empty);
        assert_eq!(first.object_count(), 20);

        let hot = monitor_of_the_hot_half();
        let second = recompute(&settings, &hot, &region_manager, &backend, &first);
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
            frames <= settings.disk_capacity_bytes,
            "{frames} B of frames"
        );
        // RAM is the knapsack's answer alone.
        let alone = recompute(&settings, &hot, &region_manager, &backend, &empty);
        assert_eq!(second.ram_chunks(), alone.ram_chunks());
        assert_eq!(second.planned_value(), alone.planned_value());

        // A tier the solve and the carry fill to the last frame still
        // fits: 100 frames.
        let tight = budgets(1_000, 100 * 133 + 132);
        let second = recompute(&tight, &hot, &region_manager, &backend, &first);
        assert!(second.carried_chunks() > 0);
        assert_eq!(second.disk_chunks(), 100, "the carry fills the budget");
        assert!(second.disk_chunks() as usize * (HEADER_LEN + 100) <= tight.disk_capacity_bytes);
    }

    #[test]
    fn nothing_is_carried_without_a_disk_budget_or_into_a_full_one() {
        let (backend, region_manager, monitor) = setup();
        let hot = monitor_of_the_hot_half();
        let empty = CacheConfiguration::empty();
        // 20 objects compete for 30 frames: the solve fills them.
        for disk_bytes in [0, 30 * 133] {
            let settings = budgets(1_000, disk_bytes);
            let first = recompute(&settings, &monitor, &region_manager, &backend, &empty);
            let second = recompute(&settings, &hot, &region_manager, &backend, &first);
            let alone = recompute(&settings, &hot, &region_manager, &backend, &empty);
            assert_eq!(second.carried_chunks(), 0, "disk of {disk_bytes} B");
            assert_eq!(second.object_count(), alone.object_count());
            assert_eq!(second.total_chunks(), alone.total_chunks());
        }
    }

    #[test]
    fn a_monitor_that_forgot_everything_still_carries() {
        let (backend, region_manager, monitor) = setup();
        let settings = budgets(1_000, 26_600);
        let empty = CacheConfiguration::empty();
        let first = recompute(&settings, &monitor, &region_manager, &backend, &empty);
        let idle = RequestMonitor::new();
        let second = recompute(&settings, &idle, &region_manager, &backend, &first);
        assert_eq!(second.ram_chunks(), 0);
        assert_eq!(second.carried_chunks(), first.total_chunks());
        // Nothing left in the cache: nothing carried, nothing configured.
        let gone = solve(&settings, &idle, &region_manager, &backend, &second, |_| {
            false
        });
        assert_eq!(gone.object_count(), 0);
    }
}
