//! The static cache configuration Agar's cache manager produces
//! (paper §III-c): which objects to cache and which chunks of each.

use crate::knapsack::Config;
use agar_cache::CacheTier;
use agar_ec::{ChunkId, ObjectId};
use std::collections::{BTreeMap, HashMap};

/// The per-object chunk sets the cache should hold until the next
/// reconfiguration.
///
/// `per_object` is the **union** across tiers — [`Self::chunks_for`] and
/// [`Self::contains`] answer "should this chunk be cached at all?",
/// which is what fill hints and purge predicates want regardless of
/// tier. The disk-tier subset is tracked separately so
/// [`Self::tier_for`] can route each fill to its planned tier.
#[derive(Clone, Debug, Default)]
pub struct CacheConfiguration {
    per_object: HashMap<ObjectId, Vec<u8>>,
    disk_per_object: HashMap<ObjectId, Vec<u8>>,
    total_chunks: u32,
    disk_chunks: u32,
    planned_value: f64,
    epoch: u64,
}

impl CacheConfiguration {
    /// The empty configuration (cache nothing).
    pub fn empty() -> Self {
        CacheConfiguration::default()
    }

    /// Converts a two-budget solve into a cache configuration, tagged
    /// with the epoch that produced it: the RAM and disk allocations
    /// (disjoint by construction — the disk phase only sees chunks the
    /// RAM phase left behind) merge into the per-object union, and the
    /// disk subset is kept for [`Self::tier_for`]. An empty disk
    /// allocation leaves every chunk RAM-tier.
    pub fn from_tiered(ram: &Config, disk: &Config, epoch: u64) -> Self {
        let mut per_object = HashMap::with_capacity(ram.options().len());
        for option in ram.options() {
            per_object.insert(option.object(), option.chunks().to_vec());
        }
        let mut disk_per_object = HashMap::with_capacity(disk.options().len());
        for option in disk.options() {
            per_object
                .entry(option.object())
                .or_default()
                .extend_from_slice(option.chunks());
            disk_per_object.insert(option.object(), option.chunks().to_vec());
        }
        CacheConfiguration {
            per_object,
            disk_per_object,
            total_chunks: ram.weight() + disk.weight(),
            disk_chunks: disk.weight(),
            planned_value: ram.value() + disk.value(),
            epoch,
        }
    }

    /// The chunks to cache for `object` (empty when the object is not in
    /// the configuration).
    pub fn chunks_for(&self, object: ObjectId) -> &[u8] {
        self.per_object.get(&object).map_or(&[], Vec::as_slice)
    }

    /// Whether a specific chunk belongs to the configuration.
    pub fn contains(&self, chunk: ChunkId) -> bool {
        self.chunks_for(chunk.object())
            .contains(&chunk.index().value())
    }

    /// Objects in the configuration.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.per_object.keys().copied()
    }

    /// Number of configured objects.
    pub fn object_count(&self) -> usize {
        self.per_object.len()
    }

    /// Total chunks across all objects and both tiers.
    pub fn total_chunks(&self) -> u32 {
        self.total_chunks
    }

    /// Chunks planned for the RAM tier.
    pub fn ram_chunks(&self) -> u32 {
        self.total_chunks - self.disk_chunks
    }

    /// Chunks planned for the disk tier.
    pub fn disk_chunks(&self) -> u32 {
        self.disk_chunks
    }

    /// The disk-tier chunks planned for `object` (empty when the object
    /// has no disk allocation).
    pub fn disk_chunks_for(&self, object: ObjectId) -> &[u8] {
        self.disk_per_object.get(&object).map_or(&[], Vec::as_slice)
    }

    /// Which tier the configuration plans `chunk` for, or `None` when
    /// the chunk is not in the configuration at all.
    pub fn tier_for(&self, chunk: ChunkId) -> Option<CacheTier> {
        if self
            .disk_chunks_for(chunk.object())
            .contains(&chunk.index().value())
        {
            Some(CacheTier::Disk)
        } else if self.contains(chunk) {
            Some(CacheTier::Ram)
        } else {
            None
        }
    }

    /// The solver's predicted value (popularity-weighted improvement).
    pub fn planned_value(&self) -> f64 {
        self.planned_value
    }

    /// The epoch that produced this configuration.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Figure 10's breakdown: how many objects are cached with each
    /// chunk count.
    pub fn breakdown(&self) -> BTreeMap<usize, usize> {
        let mut out = BTreeMap::new();
        for chunks in self.per_object.values() {
            *out.entry(chunks.len()).or_insert(0) += 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knapsack::KnapsackSolver;
    use crate::options::generate_options;
    use agar_ec::CodingParams;
    use agar_net::RegionId;
    use agar_store::ObjectManifest;
    use std::time::Duration;

    fn solved_config() -> CacheConfiguration {
        let latencies: Vec<Duration> = [80u64, 200, 600, 1400, 3400, 4600]
            .into_iter()
            .map(Duration::from_millis)
            .collect();
        let params = CodingParams::paper_default();
        let options: HashMap<ObjectId, _> = [(0u64, 100.0), (1, 10.0)]
            .into_iter()
            .map(|(i, pop)| {
                let object = ObjectId::new(i);
                let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
                let manifest = ObjectManifest::new(object, 1_000_000, 1, params, locations);
                (
                    object,
                    generate_options(&manifest, &latencies, Duration::from_millis(40), pop),
                )
            })
            .collect();
        let solved = KnapsackSolver::new().populate(&options, 12);
        CacheConfiguration::from_tiered(&solved, &Config::empty(), 3)
    }

    #[test]
    fn ram_only_solve_preserves_totals_and_places_every_chunk_in_ram() {
        let config = solved_config();
        assert!(config.total_chunks() <= 12);
        assert!(config.planned_value() > 0.0);
        assert_eq!(config.epoch(), 3);
        let sum: usize = config.objects().map(|o| config.chunks_for(o).len()).sum();
        assert_eq!(sum as u32, config.total_chunks());
        assert_eq!(config.disk_chunks(), 0);
        for object in config.objects() {
            assert!(config.disk_chunks_for(object).is_empty());
            for &index in config.chunks_for(object) {
                let chunk = ChunkId::new(object, index);
                assert_eq!(config.tier_for(chunk), Some(CacheTier::Ram));
            }
        }
    }

    #[test]
    fn contains_matches_chunks_for() {
        let config = solved_config();
        for object in config.objects() {
            for &index in config.chunks_for(object) {
                assert!(config.contains(ChunkId::new(object, index)));
            }
            assert!(!config.contains(ChunkId::new(object, 200)));
        }
        assert!(!config.contains(ChunkId::new(ObjectId::new(99), 0)));
        assert!(config.chunks_for(ObjectId::new(99)).is_empty());
    }

    #[test]
    fn breakdown_counts_objects_by_chunk_count() {
        let config = solved_config();
        let breakdown = config.breakdown();
        let objects: usize = breakdown.values().sum();
        assert_eq!(objects, config.object_count());
        let chunks: usize = breakdown.iter().map(|(&c, &n)| c * n).sum();
        assert_eq!(chunks as u32, config.total_chunks());
    }

    #[test]
    fn empty_configuration() {
        let config = CacheConfiguration::empty();
        assert_eq!(config.object_count(), 0);
        assert_eq!(config.total_chunks(), 0);
        assert!(config.breakdown().is_empty());
        assert!(!config.contains(ChunkId::new(ObjectId::new(0), 0)));
        assert!(config.tier_for(ChunkId::new(ObjectId::new(0), 0)).is_none());
    }

    fn tiered_config() -> CacheConfiguration {
        let latencies: Vec<Duration> = [80u64, 200, 600, 1400, 3400, 4600]
            .into_iter()
            .map(Duration::from_millis)
            .collect();
        let params = CodingParams::paper_default();
        let manifests: HashMap<ObjectId, _> = [(0u64, 100.0), (1, 10.0)]
            .into_iter()
            .map(|(i, pop)| {
                let object = ObjectId::new(i);
                let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
                (
                    object,
                    (
                        ObjectManifest::new(object, 1_000_000, 1, params, locations),
                        pop,
                    ),
                )
            })
            .collect();
        let options: HashMap<ObjectId, _> = manifests
            .iter()
            .map(|(&object, (manifest, pop))| {
                (
                    object,
                    generate_options(manifest, &latencies, Duration::from_millis(40), *pop),
                )
            })
            .collect();
        let tiered = KnapsackSolver::new().populate_tiered(&options, 9, 9, |ram| {
            manifests
                .iter()
                .filter_map(|(&object, (manifest, pop))| {
                    let ram_chunks = ram
                        .options()
                        .iter()
                        .find(|o| o.object() == object)
                        .map_or(&[][..], |o| o.chunks());
                    crate::options::generate_disk_options(
                        manifest,
                        &latencies,
                        Duration::from_millis(40),
                        Duration::from_millis(150),
                        ram_chunks,
                        *pop,
                    )
                    .map(|opts| (object, opts))
                })
                .collect()
        });
        CacheConfiguration::from_tiered(tiered.ram(), tiered.disk(), 5)
    }

    #[test]
    fn from_tiered_merges_both_tiers_into_the_union() {
        let config = tiered_config();
        assert_eq!(config.epoch(), 5);
        assert!(config.ram_chunks() > 0);
        assert!(config.disk_chunks() > 0, "disk tier must be used");
        assert_eq!(
            config.ram_chunks() + config.disk_chunks(),
            config.total_chunks()
        );
        let union: usize = config.objects().map(|o| config.chunks_for(o).len()).sum();
        assert_eq!(union as u32, config.total_chunks(), "union holds all");
    }

    #[test]
    fn tier_for_routes_each_configured_chunk() {
        let config = tiered_config();
        let mut ram_seen = 0u32;
        let mut disk_seen = 0u32;
        for object in config.objects() {
            for &index in config.chunks_for(object) {
                let chunk = ChunkId::new(object, index);
                assert!(config.contains(chunk));
                match config.tier_for(chunk) {
                    Some(CacheTier::Ram) => ram_seen += 1,
                    Some(CacheTier::Disk) => {
                        disk_seen += 1;
                        assert!(config.disk_chunks_for(object).contains(&index));
                    }
                    None => panic!("configured chunk {chunk:?} has no tier"),
                }
            }
        }
        assert_eq!(ram_seen, config.ram_chunks());
        assert_eq!(disk_seen, config.disk_chunks());
    }
}
