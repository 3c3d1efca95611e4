//! The two-tier cache: sharded RAM fronting a disk append-log.
//!
//! [`TieredChunkCache`] composes the lock-striped [`ShardedChunkCache`]
//! (the fast tier) with an optional [`DiskStore`] (the warm tier) into
//! one *exclusive* hierarchy whose placement is decided by the caller,
//! never by a read:
//!
//! - a RAM hit serves from RAM, exactly as before;
//! - a RAM miss that hits disk is **served in place**: the verified
//!   frame is returned and neither tier changes, so a chunk stays where
//!   it was put until [`TieredChunkCache::insert_to_tier`] moves it
//!   (the node does, once per epoch, from the knapsack's configuration);
//! - a RAM eviction victim is **demoted** to disk instead of dropped —
//!   the spill path for transient RAM overflow;
//! - every insert leaves the chunk in exactly one tier, and removal
//!   and bulk invalidation purge **both**, so the write path's
//!   coherence guarantees are tier-blind;
//! - an insert **older** than the resident chunk of its key — in
//!   either tier — is refused, so a cached chunk's version never goes
//!   backwards. Each tier checks its own entry under its own lock;
//!   the look at the *other* tier is not atomic with the insert, which
//!   only matters to two inserters that disagree on the tier (a
//!   reconfiguration between their snapshots) — the node sweeps the
//!   one in the wrong tier when it revalidates after its insert.
//!
//! Counter semantics: both tiers record into the RAM tier's counter
//! cells, and `chunk_hits`/`chunk_misses` keep meaning *RAM* lookups
//! (the identity stated in the [`crate::stats`] module docs), so RAM
//! hit-ratio time series stay comparable across tiered and untiered
//! runs. `disk_hits` counts lookups served from a disk frame;
//! `tier_demotions` chunks written down (victims spilled here, moves
//! configured by the node), `tier_promotions` chunks the node moved up
//! and `disk_evictions` live chunks lost when the disk log reclaims
//! space: the log's cleaner copies a victim segment's live frames
//! forward up to half the segment's length and drops the rest (see
//! [`crate::disk`]), so none is lost while live bytes stay at most
//! 40 % of the tier and losses are routine in a log the node has
//! filled with carried chunks (best effort by design; a solved chunk
//! that is lost is re-downloaded by the reconfiguration that lost it
//! or the next) — no lookup moves those three.
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

/// A RAM-over-disk chunk cache with caller-decided placement, spill
/// demotion and tier-blind invalidation.
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
/// assert_eq!((chunk.data().len(), tier), (200, CacheTier::Disk));
/// // It is served from disk until a configuration moves it.
/// assert_eq!(cache.tier_of(&a), Some(CacheTier::Disk));
/// assert!(cache.insert_to_tier(a, chunk, CacheTier::Ram));
/// assert_eq!(cache.get(&a).unwrap().1, CacheTier::Ram);
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

    /// Reads a chunk: RAM first, then disk (served in place: neither
    /// tier changes). Records RAM hit/miss, and `disk_hits` on one.
    pub fn get(&self, key: &ChunkId) -> Option<(CachedChunk, CacheTier)> {
        if let Some(chunk) = self.ram.get(key) {
            return Some((chunk, CacheTier::Ram));
        }
        // RAM miss already recorded by `ram.get`.
        let chunk = self.disk.as_ref()?.get(key)?;
        self.counters().disk_hits.inc();
        Some((chunk, CacheTier::Disk))
    }

    /// [`TieredChunkCache::get`] without recency updates or hit/miss
    /// accounting (the tiered analogue of [`ShardedChunkCache::peek`]).
    pub fn peek(&self, key: &ChunkId) -> Option<(CachedChunk, CacheTier)> {
        if let Some(chunk) = self.ram.peek(key) {
            return Some((chunk, CacheTier::Ram));
        }
        let chunk = self.disk.as_ref()?.get(key)?;
        Some((chunk, CacheTier::Disk))
    }

    /// Inserts into the RAM tier, demoting eviction victims to disk.
    /// Returns whether the chunk was stored (not if it is larger than
    /// the tier or older than the resident chunk; see the module docs).
    pub fn insert(&self, key: ChunkId, value: CachedChunk) -> bool {
        let on_disk = self.disk.as_ref().and_then(|disk| disk.version_of(&key));
        if on_disk.is_some_and(|on_disk| on_disk > value.version()) {
            self.counters().rejected_inserts.inc();
            return false;
        }
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
                let in_ram = self.ram.version_of(&key);
                if in_ram.is_some_and(|in_ram| in_ram > value.version()) {
                    return false;
                }
                let outcome = disk.put(key, &value);
                if outcome.evicted > 0 {
                    self.counters().disk_evictions.add(outcome.evicted);
                }
                // Exclusive tiers: a RAM copy would shadow the frame. It
                // goes only once the frame is stored — a refused put
                // must not lose the chunk from both tiers.
                if outcome.stored {
                    self.ram.remove(&key);
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
    /// attached its own counters (`agar_disk_corrupt_frames_total`,
    /// `agar_disk_appended_bytes_total`,
    /// `agar_disk_compacted_bytes_total`) are registered too.
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
    use crate::disk::HEADER_LEN;
    use agar_ec::ObjectId;
    use bytes::Bytes;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn chunk(byte: u8, len: usize, version: u64) -> CachedChunk {
        CachedChunk::new(Bytes::from(vec![byte; len]), version)
    }

    fn id(object: u64, index: u8) -> ChunkId {
        ChunkId::new(ObjectId::new(object), index)
    }

    #[test]
    fn disk_hit_is_served_in_place() {
        // RAM holds two 100 B chunks; the third insert demotes the LRU
        // victim to disk.
        let cache = TieredChunkCache::with_disk(200, PolicyKind::Lru, 1, 10_000);
        cache.insert(id(1, 0), chunk(1, 100, 4));
        cache.insert(id(2, 0), chunk(2, 100, 1));
        cache.insert(id(3, 0), chunk(3, 100, 1));
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Disk));
        let before = cache.stats();
        assert_eq!(before.tier_demotions(), 1);
        let disk = cache.disk().unwrap();
        let (disk_keys, disk_used, appended) =
            (disk.keys(), disk.used_bytes(), disk.appended_bytes());
        let ram_keys = || {
            let mut keys = cache.ram().keys();
            keys.sort_unstable();
            keys
        };
        let ram_before = ram_keys();

        // Reading the demoted chunk — twice — serves the frame and
        // changes neither tier.
        for _ in 0..2 {
            let (back, tier) = cache.get(&id(1, 0)).unwrap();
            assert_eq!(tier, CacheTier::Disk);
            assert_eq!(back.data().as_ref(), &[1u8; 100][..]);
            assert_eq!(back.version(), 4);
        }
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Disk));
        assert_eq!(disk.keys(), disk_keys);
        assert_eq!(disk.used_bytes(), disk_used);
        assert_eq!(disk.appended_bytes(), appended, "a read writes nothing");
        assert_eq!(ram_keys(), ram_before);
        assert_eq!(cache.used_bytes(), 200);
        let delta = cache.stats().delta_since(&before);
        assert_eq!(delta.disk_hits(), 2);
        assert_eq!(delta.chunk_misses(), 2, "each was a RAM miss first");
        assert_eq!(delta.tier_promotions(), 0);
        assert_eq!(delta.tier_demotions(), 0);
        assert_eq!(delta.evictions(), 0);

        // Only a placement moves it up, and that keeps tiers exclusive.
        let (back, _) = cache.peek(&id(1, 0)).unwrap();
        assert!(cache.insert_to_tier(id(1, 0), back, CacheTier::Ram));
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Ram));
        assert!(!disk.contains(&id(1, 0)));
        assert_eq!(cache.get(&id(1, 0)).unwrap().1, CacheTier::Ram);
    }

    #[test]
    fn failed_disk_move_keeps_the_ram_copy() {
        // A 300 B chunk fits RAM but not the 256 B disk tier: the move
        // down is refused and must leave the chunk where it was.
        let cache = TieredChunkCache::with_disk(1_000, PolicyKind::Lru, 1, 256);
        assert!(cache.insert(id(1, 0), chunk(7, 300, 2)));
        assert!(!cache.insert_to_tier(id(1, 0), chunk(7, 300, 2), CacheTier::Disk));
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Ram));
        let (back, tier) = cache.get(&id(1, 0)).unwrap();
        assert_eq!(tier, CacheTier::Ram);
        assert_eq!(back, chunk(7, 300, 2));
        assert_eq!(cache.disk().unwrap().appended_bytes(), 0);
        // A chunk that does fit still moves, and leaves RAM.
        assert!(cache.insert(id(2, 0), chunk(8, 100, 1)));
        assert!(cache.insert_to_tier(id(2, 0), chunk(8, 100, 1), CacheTier::Disk));
        assert_eq!(cache.tier_of(&id(2, 0)), Some(CacheTier::Disk));
        assert!(!cache.ram().contains(&id(2, 0)));
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
    fn an_insert_older_than_the_chunk_in_the_other_tier_is_refused() {
        let cache = TieredChunkCache::with_disk(1_000, PolicyKind::Lru, 1, 10_000);
        // Version 3 on disk: an older RAM placement must not shadow
        // and then drop it.
        assert!(cache.insert_to_tier(id(1, 0), chunk(3, 100, 3), CacheTier::Disk));
        assert!(!cache.insert(id(1, 0), chunk(2, 100, 2)));
        assert!(!cache.insert_to_tier(id(1, 0), chunk(2, 100, 2), CacheTier::Ram));
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Disk));
        assert_eq!(cache.peek(&id(1, 0)).unwrap().0.version(), 3);
        assert_eq!(cache.stats().rejected_inserts(), 2);
        // Version 5 in RAM: an older disk placement must not evict it.
        assert!(cache.insert(id(2, 0), chunk(5, 100, 5)));
        assert!(!cache.insert_to_tier(id(2, 0), chunk(4, 100, 4), CacheTier::Disk));
        assert_eq!(cache.tier_of(&id(2, 0)), Some(CacheTier::Ram));
        assert_eq!(cache.disk().unwrap().appended_bytes(), 133);
        // The same version moves between tiers, as a re-tier does.
        assert!(cache.insert_to_tier(id(2, 0), chunk(5, 100, 5), CacheTier::Disk));
        assert!(cache.insert_to_tier(id(1, 0), chunk(3, 100, 3), CacheTier::Ram));
        assert_eq!(cache.tier_of(&id(2, 0)), Some(CacheTier::Disk));
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Ram));
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
        // Tiny disk: 4 KiB across 512 B segments; demoting 63 distinct
        // live chunks (14 KB) must surface disk_evictions.
        let cache = TieredChunkCache::with_disk(200, PolicyKind::Lru, 1, 4 * 1024);
        for i in 0..64u64 {
            cache.insert(id(i, 0), chunk(i as u8, 200, 1));
        }
        let stats = cache.stats();
        assert!(stats.tier_demotions() > 0);
        assert!(stats.disk_evictions() > 0, "disk churn must evict");
        assert!(cache.disk_used_bytes() <= cache.disk_capacity_bytes());
    }

    /// What the oracle expects a tier to hold: `(version, bytes)`.
    type Model = std::collections::HashMap<ChunkId, (u64, Vec<u8>)>;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Drives every mutating entry point with mixed versions and
        /// sizes (some larger than a tier, so inserts are refused)
        /// against a two-map oracle of what was *placed* in each tier.
        /// Capacity eviction may lose a chunk or spill it RAM → disk,
        /// never more: a chunk is in at most one tier, an insert older
        /// than the resident chunk (in either tier) is refused, a hit
        /// returns the newest stored version's exact bytes, only a
        /// placement puts a chunk in RAM, and both byte budgets hold.
        #[test]
        fn model_never_two_tiers_never_stale_never_over_budget(
            ops in vec((0u8..6, 0u64..3, 0u8..2, 1u64..4, 0usize..5), 1..80),
        ) {
            const RAM: usize = 600;
            const DISK: usize = 2_000;
            const LENS: [usize; 5] = [40, 120, 200, 700, 5_000];
            let cache = TieredChunkCache::with_disk(RAM, PolicyKind::Lru, 2, DISK);
            let (mut ram, mut disk) = (Model::new(), Model::new());
            for (step, (op, object, index, version, len)) in ops.into_iter().enumerate() {
                let key = id(object, index);
                let bytes = vec![step as u8; LENS[len]];
                let value = CachedChunk::new(Bytes::from(bytes.clone()), version);
                match op {
                    0 | 1 => {
                        let tier = if op == 0 { CacheTier::Ram } else { CacheTier::Disk };
                        let resident = cache.peek(&key).map(|(chunk, _)| chunk.version());
                        let stored = if op == 0 && version % 2 == 0 {
                            cache.insert(key, value)
                        } else {
                            cache.insert_to_tier(key, value, tier)
                        };
                        let fits = LENS[len] <= if op == 0 { RAM } else { DISK - HEADER_LEN };
                        let newer_resident = resident.is_some_and(|resident| resident > version);
                        prop_assert_eq!(stored, fits && !newer_resident);
                        if stored {
                            let (into, other) = if op == 0 {
                                (&mut ram, &mut disk)
                            } else {
                                (&mut disk, &mut ram)
                            };
                            into.insert(key, (version, bytes));
                            other.remove(&key);
                        }
                    }
                    2 => {
                        cache.remove(&key);
                        ram.remove(&key);
                        disk.remove(&key);
                    }
                    3 => {
                        cache.remove_matching(|k| k.object() == key.object());
                        ram.retain(|k, _| k.object() != key.object());
                        disk.retain(|k, _| k.object() != key.object());
                    }
                    _ => {
                        let before = cache.tier_of(&key);
                        let found = if op == 4 { cache.get(&key) } else { cache.peek(&key) };
                        prop_assert_eq!(cache.tier_of(&key), before, "a read moved the chunk");
                        prop_assert_eq!(found.as_ref().map(|(_, tier)| *tier), before);
                        if let Some((chunk, _)) = found {
                            let placed = ram.get(&key).or(disk.get(&key));
                            prop_assert_eq!(
                                Some((chunk.version(), chunk.data().as_ref())),
                                placed.map(|(v, b)| (*v, b.as_slice()))
                            );
                        }
                    }
                }
                for object in 0..3 {
                    for index in 0..2 {
                        let key = id(object, index);
                        let in_ram = cache.ram().contains(&key);
                        let on_disk = cache.disk().unwrap().contains(&key);
                        prop_assert!(!(in_ram && on_disk), "{key:?} in both tiers");
                        prop_assert!(!in_ram || ram.contains_key(&key), "{key:?} promoted");
                        prop_assert!(
                            !on_disk || ram.contains_key(&key) || disk.contains_key(&key),
                            "{key:?} resurrected"
                        );
                    }
                }
                prop_assert!(cache.used_bytes() <= RAM);
                prop_assert!(cache.disk_used_bytes() <= DISK);
            }
            prop_assert_eq!(cache.stats().tier_promotions(), 0);
        }
    }
}
