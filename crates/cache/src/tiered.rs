//! The two-tier cache: sharded RAM fronting a disk append-log.
//!
//! [`TieredChunkCache`] composes the lock-striped [`ShardedChunkCache`]
//! (the fast tier) with an optional [`DiskStore`] (the warm tier) into
//! one *exclusive* hierarchy:
//!
//! - a RAM hit serves from RAM, exactly as before;
//! - a RAM miss that hits disk **promotes** the chunk to RAM (demoting
//!   RAM victims as needed) and removes the disk copy, so each chunk
//!   lives in at most one tier;
//! - a RAM eviction victim is **demoted** to disk instead of dropped,
//!   so the aggregate catalogue is RAM + disk bytes;
//! - removal and bulk invalidation purge **both** tiers, so the write
//!   path's coherence guarantees are tier-blind.
//!
//! Counter semantics: both tiers record into the RAM tier's counter
//! cells, and `chunk_hits`/`chunk_misses` keep meaning *RAM* lookups
//! (the identity stated in the [`crate::stats`] module docs), so RAM
//! hit-ratio time series stay comparable across tiered and untiered
//! runs. The tier traffic shows up in the four dedicated counters
//! `disk_hits`, `tier_promotions`, `tier_demotions` and
//! `disk_evictions`.
//!
//! With no disk tier configured every operation delegates verbatim to
//! the inner [`ShardedChunkCache`] — byte-identical behaviour, which
//! the node relies on to keep `disk_capacity = 0` deployments exactly
//! reproducing the untiered engine.

use crate::cache::CachedChunk;
use crate::disk::DiskStore;
use crate::policy::PolicyKind;
use crate::sharded::ShardedChunkCache;
use crate::stats::{AtomicCacheStats, CacheStats};
use agar_ec::ChunkId;

/// Which tier a chunk was found in (or is destined for).
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord, Hash)]
pub enum CacheTier {
    /// The sharded in-memory tier.
    Ram,
    /// The per-node disk append-log tier.
    Disk,
}

/// A RAM-over-disk chunk cache with promotion, demotion and tier-blind
/// invalidation.
///
/// # Examples
///
/// ```
/// use agar_cache::{CachedChunk, CacheTier, PolicyKind, TieredChunkCache};
/// use agar_ec::{ChunkId, ObjectId};
/// use bytes::Bytes;
///
/// let cache = TieredChunkCache::with_disk(300, PolicyKind::Lru, 2, 10_000);
/// let a = ChunkId::new(ObjectId::new(1), 0);
/// let b = ChunkId::new(ObjectId::new(2), 0);
/// cache.insert(a, CachedChunk::new(Bytes::from(vec![1u8; 200]), 1));
/// // Inserting b evicts a from RAM — a demotes to disk, not the floor.
/// cache.insert(b, CachedChunk::new(Bytes::from(vec![2u8; 200]), 1));
/// let (chunk, tier) = cache.get(&a).unwrap();
/// assert_eq!(tier, CacheTier::Disk);
/// assert_eq!(chunk.data().len(), 200);
/// ```
#[derive(Debug)]
pub struct TieredChunkCache {
    ram: ShardedChunkCache,
    disk: Option<DiskStore>,
}

impl TieredChunkCache {
    /// A RAM-only cache (no disk tier): every operation is a verbatim
    /// delegation to [`ShardedChunkCache`].
    pub fn ram_only(ram_capacity_bytes: usize, policy: PolicyKind, shards: usize) -> Self {
        TieredChunkCache {
            ram: ShardedChunkCache::new(ram_capacity_bytes, policy, shards),
            disk: None,
        }
    }

    /// A tiered cache with `disk_capacity_bytes` of warm storage under
    /// a private temp directory. `disk_capacity_bytes == 0` yields a
    /// RAM-only cache; if the disk directory cannot be created the
    /// cache degrades to RAM-only (the warm tier is best-effort).
    pub fn with_disk(
        ram_capacity_bytes: usize,
        policy: PolicyKind,
        shards: usize,
        disk_capacity_bytes: usize,
    ) -> Self {
        let disk = if disk_capacity_bytes == 0 {
            None
        } else {
            DiskStore::new(disk_capacity_bytes).ok()
        };
        TieredChunkCache {
            ram: ShardedChunkCache::new(ram_capacity_bytes, policy, shards),
            disk,
        }
    }

    /// Whether a disk tier is attached.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }

    /// The inner RAM tier (shared statistics live here).
    pub fn ram(&self) -> &ShardedChunkCache {
        &self.ram
    }

    /// The disk tier, if attached.
    pub fn disk(&self) -> Option<&DiskStore> {
        self.disk.as_ref()
    }

    /// Reads a chunk: RAM first, then disk. A disk hit promotes the
    /// chunk to RAM (demoting RAM victims to disk) and reports which
    /// tier served it. Records RAM hit/miss plus `disk_hits` /
    /// `tier_promotions` as appropriate.
    pub fn get(&self, key: &ChunkId) -> Option<(CachedChunk, CacheTier)> {
        if let Some(chunk) = self.ram.get(key) {
            return Some((chunk, CacheTier::Ram));
        }
        // RAM miss already recorded by `ram.get`.
        let disk = self.disk.as_ref()?;
        let chunk = disk.get(key)?;
        self.counters().disk_hits.inc();
        // Promote: move the chunk up; victims cascade down. If RAM
        // rejects it (larger than the whole RAM tier) the disk copy
        // stays where it is.
        if let Some(victims) = self.ram.insert_collect(*key, chunk.clone()) {
            disk.remove(key);
            self.counters().tier_promotions.inc();
            self.demote(victims);
        }
        Some((chunk, CacheTier::Disk))
    }

    /// Reads a chunk without promotion, recency updates or hit/miss
    /// accounting (the tiered analogue of [`ShardedChunkCache::peek`]).
    pub fn peek(&self, key: &ChunkId) -> Option<(CachedChunk, CacheTier)> {
        if let Some(chunk) = self.ram.peek(key) {
            return Some((chunk, CacheTier::Ram));
        }
        let chunk = self.disk.as_ref()?.get(key)?;
        Some((chunk, CacheTier::Disk))
    }

    /// Inserts into the RAM tier, demoting eviction victims to disk.
    /// Returns whether the chunk was stored.
    pub fn insert(&self, key: ChunkId, value: CachedChunk) -> bool {
        match self.ram.insert_collect(key, value) {
            Some(victims) => {
                // The key may have had a stale disk copy (e.g. an old
                // version demoted earlier): the RAM copy is now
                // authoritative, so drop it to keep tiers exclusive.
                if let Some(disk) = &self.disk {
                    disk.remove(&key);
                }
                self.demote(victims);
                true
            }
            None => false,
        }
    }

    /// Inserts directly into the requested tier. `Disk` placement with
    /// no disk tier attached falls back to RAM. Returns whether the
    /// chunk was stored.
    pub fn insert_to_tier(&self, key: ChunkId, value: CachedChunk, tier: CacheTier) -> bool {
        match (tier, &self.disk) {
            (CacheTier::Ram, _) | (CacheTier::Disk, None) => self.insert(key, value),
            (CacheTier::Disk, Some(disk)) => {
                // Keep tiers exclusive: a RAM copy would shadow the new
                // disk frame on reads.
                self.ram.remove(&key);
                let outcome = disk.put(key, &value);
                if outcome.evicted > 0 {
                    self.counters().disk_evictions.add(outcome.evicted);
                }
                outcome.stored
            }
        }
    }

    /// Demotes RAM eviction victims to the disk tier (dropped if no
    /// disk is attached).
    fn demote(&self, victims: Vec<(ChunkId, CachedChunk)>) {
        let Some(disk) = &self.disk else { return };
        for (key, chunk) in victims {
            let outcome = disk.put(key, &chunk);
            if outcome.stored {
                self.counters().tier_demotions.inc();
            }
            if outcome.evicted > 0 {
                self.counters().disk_evictions.add(outcome.evicted);
            }
        }
    }

    /// Removes a chunk from **both** tiers, returning the RAM copy if
    /// one existed (the disk copy is purged regardless).
    pub fn remove(&self, key: &ChunkId) -> Option<CachedChunk> {
        let from_ram = self.ram.remove(key);
        if let Some(disk) = &self.disk {
            disk.remove(key);
        }
        from_ram
    }

    /// Removes every chunk matching the predicate from **both** tiers
    /// (bulk invalidation); returns how many entries were removed
    /// across tiers.
    pub fn remove_matching(&self, mut pred: impl FnMut(&ChunkId) -> bool) -> usize {
        let mut removed = self.ram.remove_matching(&mut pred);
        if let Some(disk) = &self.disk {
            removed += disk.remove_matching(&mut pred);
        }
        removed
    }

    /// Whether the chunk is present in either tier.
    pub fn contains(&self, key: &ChunkId) -> bool {
        self.ram.contains(key) || self.disk.as_ref().is_some_and(|disk| disk.contains(key))
    }

    /// Which tier currently holds the chunk, if any (no I/O beyond the
    /// disk index lookup, no recency updates).
    pub fn tier_of(&self, key: &ChunkId) -> Option<CacheTier> {
        if self.ram.contains(key) {
            Some(CacheTier::Ram)
        } else if self.disk.as_ref().is_some_and(|disk| disk.contains(key)) {
            Some(CacheTier::Disk)
        } else {
            None
        }
    }

    /// Every cached chunk id across both tiers (sorted, deduplicated).
    pub fn keys(&self) -> Vec<ChunkId> {
        let mut keys = self.ram.keys();
        if let Some(disk) = &self.disk {
            keys.extend(disk.keys());
        }
        keys.sort();
        keys.dedup();
        keys
    }

    /// Live entries across both tiers.
    pub fn len(&self) -> usize {
        self.ram.len() + self.disk.as_ref().map_or(0, |d| d.len())
    }

    /// Whether both tiers are empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes held by the RAM tier.
    pub fn used_bytes(&self) -> usize {
        self.ram.used_bytes()
    }

    /// RAM tier byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.ram.capacity_bytes()
    }

    /// Bytes held by the disk tier (0 without one).
    pub fn disk_used_bytes(&self) -> usize {
        self.disk.as_ref().map_or(0, |d| d.used_bytes())
    }

    /// Disk tier byte budget (0 without one).
    pub fn disk_capacity_bytes(&self) -> usize {
        self.disk.as_ref().map_or(0, |d| d.capacity_bytes())
    }

    /// A point-in-time snapshot of the shared statistics (both tiers
    /// account into the RAM tier's counters).
    pub fn stats(&self) -> CacheStats {
        self.ram.stats()
    }

    /// The live counter cells both tiers (and the node on top) record
    /// into; see [`ShardedChunkCache::counters`].
    pub fn counters(&self) -> &AtomicCacheStats {
        self.ram.counters()
    }

    /// Late-binds the shared tier counters into a metrics registry;
    /// see [`AtomicCacheStats::register_with`]. With a disk tier
    /// attached its corruption counter
    /// (`agar_disk_corrupt_frames_total`) is registered too.
    pub fn register_metrics(&self, registry: &agar_obs::MetricsRegistry, base: &agar_obs::Labels) {
        self.counters().register_with(registry, base);
        if let Some(disk) = &self.disk {
            disk.register_metrics(registry, base.clone());
        }
    }

    /// Disk-tier frames that failed verification so far (0 without a
    /// disk tier).
    pub fn disk_corrupt_frames(&self) -> u64 {
        self.disk.as_ref().map_or(0, |d| d.corrupt_frames())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_ec::ObjectId;
    use bytes::Bytes;

    fn chunk(byte: u8, len: usize, version: u64) -> CachedChunk {
        CachedChunk::new(Bytes::from(vec![byte; len]), version)
    }

    fn id(object: u64, index: u8) -> ChunkId {
        ChunkId::new(ObjectId::new(object), index)
    }

    #[test]
    fn ram_eviction_demotes_to_disk_and_hit_promotes_back() {
        // RAM holds two 100 B chunks; the third insert demotes the LRU
        // victim to disk.
        let cache = TieredChunkCache::with_disk(200, PolicyKind::Lru, 1, 10_000);
        cache.insert(id(1, 0), chunk(1, 100, 1));
        cache.insert(id(2, 0), chunk(2, 100, 1));
        cache.insert(id(3, 0), chunk(3, 100, 1));
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Disk));
        assert_eq!(cache.stats().tier_demotions(), 1);

        // Reading the demoted chunk serves from disk and promotes it
        // back, demoting the new RAM victim.
        let (back, tier) = cache.get(&id(1, 0)).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(back.data().as_ref(), &vec![1u8; 100][..]);
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Ram));
        let stats = cache.stats();
        assert_eq!(stats.disk_hits(), 1);
        assert_eq!(stats.tier_promotions(), 1);
        assert_eq!(stats.tier_demotions(), 2);
        // The promoted chunk's disk copy is gone (exclusive tiers).
        assert!(!cache.disk().unwrap().contains(&id(1, 0)));

        // A second read is a plain RAM hit.
        let (_, tier) = cache.get(&id(1, 0)).unwrap();
        assert_eq!(tier, CacheTier::Ram);
    }

    #[test]
    fn ram_only_never_touches_tier_counters() {
        let cache = TieredChunkCache::ram_only(200, PolicyKind::Lru, 1);
        assert!(!cache.has_disk());
        cache.insert(id(1, 0), chunk(1, 100, 1));
        cache.insert(id(2, 0), chunk(2, 100, 1));
        cache.insert(id(3, 0), chunk(3, 100, 1));
        assert!(
            cache.get(&id(1, 0)).is_none(),
            "victim dropped, not demoted"
        );
        let stats = cache.stats();
        assert_eq!(stats.tier_demotions(), 0);
        assert_eq!(stats.disk_hits(), 0);
        assert_eq!(stats.evictions(), 1);
    }

    #[test]
    fn zero_disk_capacity_means_no_disk_tier() {
        let cache = TieredChunkCache::with_disk(200, PolicyKind::Lru, 1, 0);
        assert!(!cache.has_disk());
        assert_eq!(cache.disk_capacity_bytes(), 0);
    }

    #[test]
    fn insert_to_disk_tier_places_directly() {
        let cache = TieredChunkCache::with_disk(1_000, PolicyKind::Lru, 1, 10_000);
        assert!(cache.insert_to_tier(id(5, 0), chunk(5, 100, 2), CacheTier::Disk));
        assert_eq!(cache.tier_of(&id(5, 0)), Some(CacheTier::Disk));
        assert_eq!(cache.ram().len(), 0, "direct disk placement skips RAM");
        let (back, tier) = cache.peek(&id(5, 0)).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(back.version(), 2);
        // Without a disk tier the placement falls back to RAM.
        let ram_only = TieredChunkCache::ram_only(1_000, PolicyKind::Lru, 1);
        assert!(ram_only.insert_to_tier(id(5, 0), chunk(5, 100, 2), CacheTier::Disk));
        assert_eq!(ram_only.tier_of(&id(5, 0)), Some(CacheTier::Ram));
    }

    #[test]
    fn removal_purges_both_tiers() {
        let cache = TieredChunkCache::with_disk(1_000, PolicyKind::Lru, 1, 10_000);
        cache.insert(id(1, 0), chunk(1, 100, 1));
        cache.insert_to_tier(id(1, 1), chunk(2, 100, 1), CacheTier::Disk);
        assert_eq!(cache.len(), 2);
        let removed = cache.remove_matching(|k| k.object() == ObjectId::new(1));
        assert_eq!(removed, 2);
        assert!(cache.is_empty());
        assert!(cache.get(&id(1, 0)).is_none());
        assert!(cache.get(&id(1, 1)).is_none());
    }

    #[test]
    fn reinsert_drops_stale_disk_copy() {
        let cache = TieredChunkCache::with_disk(200, PolicyKind::Lru, 1, 10_000);
        // Demote version 1 of chunk (1,0) to disk.
        cache.insert(id(1, 0), chunk(1, 100, 1));
        cache.insert(id(2, 0), chunk(2, 100, 1));
        cache.insert(id(3, 0), chunk(3, 100, 1));
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Disk));
        // Re-insert version 2 into RAM: the stale disk frame must go.
        cache.insert(id(1, 0), chunk(9, 100, 2));
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Ram));
        assert!(!cache.disk().unwrap().contains(&id(1, 0)));
        assert_eq!(cache.get(&id(1, 0)).unwrap().0.version(), 2);
    }

    #[test]
    fn keys_cover_both_tiers() {
        let cache = TieredChunkCache::with_disk(200, PolicyKind::Lru, 1, 10_000);
        cache.insert(id(1, 0), chunk(1, 100, 1));
        cache.insert(id(2, 0), chunk(2, 100, 1));
        cache.insert(id(3, 0), chunk(3, 100, 1)); // demotes (1,0)
        let keys = cache.keys();
        assert_eq!(keys, vec![id(1, 0), id(2, 0), id(3, 0)]);
        assert_eq!(cache.len(), 3);
        assert!(cache.contains(&id(1, 0)));
    }

    #[test]
    fn disk_capacity_evictions_flow_into_stats() {
        // Tiny disk: 4 KiB across 512 B segments; heavy demotion churn
        // must surface disk_evictions.
        let cache = TieredChunkCache::with_disk(200, PolicyKind::Lru, 1, 4 * 1024);
        for i in 0..64u64 {
            cache.insert(id(i, 0), chunk(i as u8, 200, 1));
        }
        let stats = cache.stats();
        assert!(stats.tier_demotions() > 0);
        assert!(stats.disk_evictions() > 0, "disk churn must evict");
        assert!(cache.disk_used_bytes() <= cache.disk_capacity_bytes() + 512);
    }
}
