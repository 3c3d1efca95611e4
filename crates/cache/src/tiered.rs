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
//! - a RAM capacity eviction **drops** its victims: nothing reaches the
//!   disk tier that was not placed there, so a cached chunk is always
//!   in the tier its last placement named;
//! - every insert leaves the chunk in exactly one tier, and removal
//!   purges **both**, so the write path's coherence guarantees are
//!   tier-blind;
//! - the object calls — [`TieredChunkCache::lookup_object`],
//!   [`TieredChunkCache::absent`], [`TieredChunkCache::remove_object`]
//!   and [`TieredChunkCache::replace_object`] — visit the RAM tier once
//!   per step (the shard holds every chunk of the object, so that is
//!   one lock), and each equals its per-chunk calls made once per
//!   index;
//! - a lookup names the reader's version and each tier applies the
//!   version rule inside the visit that finds a chunk: one at that
//!   version is served, a newer one stays put unserved, and an older
//!   one is removed there and then (on disk without reading its
//!   frame). That is the only removal a read makes, and no caller
//!   compares a cached chunk's version itself.
//!   [`TieredChunkCache::peek`] serves any version: a reconfiguration
//!   moves whatever is cached;
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
//! (the identity stated in the [`crate::stats`] module docs): a hit is
//! a chunk RAM served at the reader's version, and a chunk of any
//! other version is a miss. RAM hit-ratio time series stay comparable
//! across tiered and untiered runs. `disk_hits` counts lookups served
//! from a disk frame;
//! `tier_demotions` placements that moved a chunk down out of RAM and
//! `tier_promotions` placements that moved one up off the disk (in the
//! node: the configured moves of a reconfiguration, nothing else),
//! `rejected_inserts` placements either tier refused, and
//! `disk_evictions` live chunks lost when the disk log reclaims
//! space: the log's cleaner copies a victim segment's live frames
//! forward up to half the segment's length and drops the rest (see
//! [`crate::disk`]), so none is lost while live bytes stay at most
//! 40 % of the tier and losses are routine in a log the node has
//! filled with carried chunks (best effort by design; a solved chunk
//! that is lost is re-downloaded by the reconfiguration that lost it
//! or the next) — no lookup moves any of these.
//!
//! With no disk tier configured every operation delegates verbatim to
//! the inner [`ShardedChunkCache`] — byte-identical behaviour, which
//! the node relies on to keep `disk_capacity = 0` deployments exactly
//! reproducing the untiered engine.

use crate::disk::DiskStore;
use crate::sharded::{CachedChunk, PolicyKind, ShardedChunkCache};
use crate::stats::{AtomicCacheStats, CacheStats};
use agar_ec::{ChunkId, ChunkSet, ObjectId};

/// Which tier a chunk was found in (or is destined for).
#[derive(Clone, Copy, PartialEq, Eq, Debug, PartialOrd, Ord, Hash)]
pub enum CacheTier {
    /// The sharded in-memory tier.
    Ram,
    /// The per-node disk append-log tier.
    Disk,
}

/// A RAM-over-disk chunk cache with caller-decided placement and
/// tier-blind invalidation.
///
/// # Examples
///
/// ```
/// use agar_cache::{CachedChunk, CacheTier, TieredChunkCache};
/// use agar_ec::{ChunkId, ObjectId};
/// use bytes::Bytes;
///
/// let cache = TieredChunkCache::with_disk(300, 1, 10_000);
/// let a = ChunkId::new(ObjectId::new(1), 0);
/// let b = ChunkId::new(ObjectId::new(2), 0);
/// let chunk = |byte| CachedChunk::new(Bytes::from(vec![byte; 200]), 1);
/// assert!(cache.insert_to_tier(a, chunk(1), CacheTier::Disk));
/// assert!(cache.insert_to_tier(b, chunk(2), CacheTier::Ram));
/// // A lookup at version 1 serves it from disk, and it stays there
/// // until a placement moves it.
/// let mut tiers = Vec::new();
/// cache.lookup_object(a.object(), [0], 1, true, |_, _, tier| tiers.push(tier));
/// assert_eq!(tiers, [CacheTier::Disk]);
/// let (found, tier) = cache.peek(&a).unwrap();
/// assert_eq!((found.data().len(), tier), (200, CacheTier::Disk));
/// // RAM has room for one: moving a up evicts b, and b is gone — a
/// // capacity eviction drops its victim, it never spills to disk.
/// assert!(cache.insert_to_tier(a, found, CacheTier::Ram));
/// assert_eq!(cache.peek(&a).unwrap().1, CacheTier::Ram);
/// assert!(cache.peek(&b).is_none());
/// ```
#[derive(Debug)]
pub struct TieredChunkCache {
    ram: ShardedChunkCache,
    disk: Option<DiskStore>,
}

impl TieredChunkCache {
    /// A tiered cache: `shards` LRU shards of RAM over
    /// `disk_capacity_bytes` of warm storage under a private temp
    /// directory. `disk_capacity_bytes == 0` yields a RAM-only cache; if
    /// the disk directory cannot be created the cache degrades to
    /// RAM-only (the warm tier is best-effort).
    pub fn with_disk(ram_capacity_bytes: usize, shards: usize, disk_capacity_bytes: usize) -> Self {
        let disk = if disk_capacity_bytes == 0 {
            None
        } else {
            DiskStore::new(disk_capacity_bytes).ok()
        };
        TieredChunkCache {
            ram: ShardedChunkCache::new(ram_capacity_bytes, PolicyKind::Lru, shards),
            disk,
        }
    }

    /// The inner RAM tier (shared statistics live here).
    pub fn ram(&self) -> &ShardedChunkCache {
        &self.ram
    }

    /// The disk tier, if attached.
    pub fn disk(&self) -> Option<&DiskStore> {
        self.disk.as_ref()
    }

    /// Reads a chunk, whatever its version, without recency updates or
    /// hit/miss accounting: RAM first, then disk (neither tier
    /// changes). What a reconfiguration moves between tiers.
    pub fn peek(&self, key: &ChunkId) -> Option<(CachedChunk, CacheTier)> {
        if let Some(chunk) = self.ram.peek(key) {
            return Some((chunk, CacheTier::Ram));
        }
        let chunk = self.disk.as_ref()?.get(key)?;
        Some((chunk, CacheTier::Disk))
    }

    /// Looks up chunks `indices` of `object` at a reader's `version` —
    /// one read's hinted chunks, or a neighbour's offers — with one RAM
    /// visit ([`ShardedChunkCache::lookup_object`]: one shard lock for
    /// the whole object), then one disk visit ([`DiskStore::get_many`])
    /// for what RAM did not serve, so a run of one object's frames
    /// costs one positioned read. Each tier applies the version rule
    /// inside its own visit: a chunk at `version` is served, a newer
    /// one stays where it is, unserved, and an older one is removed
    /// (from disk without reading its frame). Calls `found` with
    /// `(index, &chunk, tier)` for every chunk served: the RAM hits in
    /// `indices` order, then the disk hits in log order. With
    /// `record_stats` each index counts as one RAM lookup (a hit when
    /// RAM serves it, else a miss) and `disk_hits` counts the chunks
    /// disk serves; without, nothing is counted. No served chunk moves.
    /// `found` runs under the RAM shard's lock or the disk tier's, so
    /// it must not call back into the cache.
    pub fn lookup_object(
        &self,
        object: ObjectId,
        indices: impl IntoIterator<Item = u8>,
        version: u64,
        record_stats: bool,
        mut found: impl FnMut(u8, &CachedChunk, CacheTier),
    ) {
        let missed =
            self.ram
                .lookup_object(object, indices, version, record_stats, |index, chunk| {
                    found(index, chunk, CacheTier::Ram);
                });
        let Some(disk) = self.disk.as_ref().filter(|_| !missed.is_empty()) else {
            return;
        };
        let ids = missed.iter().map(|index| ChunkId::new(object, index));
        disk.get_many(ids, version, |id, chunk| {
            if record_stats {
                self.counters().disk_hits.inc();
            }
            found(id.index().value(), &chunk, CacheTier::Disk);
        });
    }

    /// Places a chunk in the requested tier and takes it out of the
    /// other (`Disk` with no disk tier attached falls back to RAM); a
    /// placement that found the chunk there is a move, counted in
    /// `tier_demotions` or `tier_promotions`. Returns whether the chunk
    /// was stored; a refusal — the chunk is larger than the tier or
    /// older than the resident chunk of its key in either tier, or the
    /// disk log could not keep the frame — is counted in
    /// `rejected_inserts` and changes neither tier.
    pub fn insert_to_tier(&self, key: ChunkId, value: CachedChunk, tier: CacheTier) -> bool {
        let counters = self.counters();
        let log = self.disk.as_ref().filter(|_| tier == CacheTier::Disk);
        let elsewhere = match log {
            Some(_) => self.ram.version_of(&key),
            None => self.disk.as_ref().and_then(|disk| disk.version_of(&key)),
        };
        if elsewhere.is_some_and(|resident| resident > value.version()) {
            counters.rejected_inserts.inc();
            return false;
        }
        // Exclusive tiers: the copy in the other tier would shadow this
        // one or be shadowed by it. It goes only once this one is
        // stored — a refused placement must not lose the chunk from
        // both tiers.
        match log {
            Some(log) => {
                let outcome = log.put(key, &value);
                counters.disk_evictions.add(outcome.evicted);
                if !outcome.stored {
                    counters.rejected_inserts.inc();
                } else if self.ram.remove(&key).is_some() {
                    counters.tier_demotions.inc();
                }
                outcome.stored
            }
            None => {
                // The RAM tier counts its own refusals.
                let stored = self.ram.insert(key, value);
                if stored && self.disk.as_ref().is_some_and(|disk| disk.remove(&key)) {
                    counters.tier_promotions.inc();
                }
                stored
            }
        }
    }

    /// Replaces the cached chunks of `object` (indices `0..total`) with
    /// `ram` (distinct indices) in the RAM tier: the object's disk
    /// frames go first, then its RAM chunks are dropped and `ram`
    /// inserted in one visit to its shard
    /// ([`ShardedChunkCache::replace_object`]). Equal to a
    /// [`remove_object`](TieredChunkCache::remove_object) followed by an
    /// [`insert_to_tier`](TieredChunkCache::insert_to_tier) per chunk —
    /// the same chunks stored, the same counts —, except that a
    /// concurrent lookup finds the object's old RAM chunks or the new
    /// ones, never a gap between them. Returns the indices of `ram`
    /// stored.
    pub fn replace_object(
        &self,
        object: ObjectId,
        total: u8,
        ram: impl IntoIterator<Item = (u8, CachedChunk)>,
    ) -> ChunkSet {
        if let Some(disk) = &self.disk {
            disk.remove_object(object, 0..total);
        }
        self.ram.replace_object(object, 0..total, ram)
    }

    /// Removes a chunk from **both** tiers; returns whether either held
    /// it.
    pub fn remove(&self, key: &ChunkId) -> bool {
        let from_ram = self.ram.remove(key).is_some();
        let from_disk = self.disk.as_ref().is_some_and(|disk| disk.remove(key));
        from_ram | from_disk
    }

    /// Removes chunks `indices` of `object` from **both** tiers, one
    /// visit to each (a [`TieredChunkCache::remove`] per index); returns
    /// the ones either tier held.
    pub fn remove_object(
        &self,
        object: ObjectId,
        indices: impl IntoIterator<Item = u8>,
    ) -> ChunkSet {
        let indices: ChunkSet = indices.into_iter().collect();
        let from_ram = self.ram.remove_object(object, indices.iter());
        let from_disk = self.disk.as_ref().map_or_else(ChunkSet::new, |disk| {
            disk.remove_object(object, indices.iter())
        });
        from_ram.union(from_disk)
    }

    /// Whether the chunk is present in either tier.
    pub fn contains(&self, key: &ChunkId) -> bool {
        self.ram.contains(key) || self.disk.as_ref().is_some_and(|disk| disk.contains(key))
    }

    /// The chunks of `indices` of `object` in neither tier: one RAM
    /// visit, then one look at the disk index for the RAM misses (a
    /// [`TieredChunkCache::contains`] per index; no frame is read).
    pub fn absent(&self, object: ObjectId, indices: impl IntoIterator<Item = u8>) -> ChunkSet {
        let missed = self.ram.absent(object, indices);
        match &self.disk {
            Some(disk) if !missed.is_empty() => disk.absent(object, missed.iter()),
            _ => missed,
        }
    }

    /// One snapshot of what is cached and where: every chunk of the RAM
    /// tier (in no particular order), then every chunk of the disk tier
    /// (sorted). What a reconfiguration diffs its configuration against.
    pub fn residency(&self) -> Vec<(ChunkId, CacheTier)> {
        let ram = self.ram.keys().into_iter().map(|id| (id, CacheTier::Ram));
        let mut cached: Vec<_> = ram.collect();
        if let Some(disk) = &self.disk {
            cached.extend(disk.keys().into_iter().map(|id| (id, CacheTier::Disk)));
        }
        cached
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

    /// Late-binds the shared tier counters and the RAM tier's lock
    /// visits into a metrics registry; see
    /// [`ShardedChunkCache::register_metrics`]. With a disk tier
    /// attached its [`DiskCounters`](crate::disk::DiskCounters) are
    /// registered too.
    pub fn register_metrics(&self, registry: &agar_obs::MetricsRegistry, base: &agar_obs::Labels) {
        self.ram.register_metrics(registry, base);
        if let Some(disk) = &self.disk {
            disk.counters().register_with(registry, base);
        }
    }
}

#[cfg(test)]
impl TieredChunkCache {
    /// Reads a chunk, whatever its version: RAM first, then disk
    /// (served in place: neither tier changes). Records RAM hit/miss,
    /// and `disk_hits` on one. The per-chunk reference the tests hold
    /// [`TieredChunkCache::lookup_object`] to.
    fn get(&self, key: &ChunkId) -> Option<(CachedChunk, CacheTier)> {
        if let Some(chunk) = self.ram.get(key) {
            return Some((chunk, CacheTier::Ram));
        }
        // RAM miss already recorded by `ram.get`.
        let chunk = self.disk.as_ref()?.get(key)?;
        self.counters().disk_hits.inc();
        Some((chunk, CacheTier::Disk))
    }

    /// Which tier currently holds the chunk, if any (no I/O beyond the
    /// disk index lookup, no recency updates).
    fn tier_of(&self, key: &ChunkId) -> Option<CacheTier> {
        if self.ram.contains(key) {
            Some(CacheTier::Ram)
        } else if self.disk.as_ref().is_some_and(|disk| disk.contains(key)) {
            Some(CacheTier::Disk)
        } else {
            None
        }
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
        // One chunk placed on disk under a full RAM tier.
        let cache = TieredChunkCache::with_disk(200, 1, 10_000);
        cache.insert_to_tier(id(1, 0), chunk(1, 100, 4), CacheTier::Disk);
        cache.insert_to_tier(id(2, 0), chunk(2, 100, 1), CacheTier::Ram);
        cache.insert_to_tier(id(3, 0), chunk(3, 100, 1), CacheTier::Ram);
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Disk));
        let before = cache.stats();
        let disk = cache.disk().unwrap();
        let (disk_keys, disk_used, appended) = (
            disk.keys(),
            disk.used_bytes(),
            disk.counters().appended_bytes.get(),
        );
        let ram_keys = || {
            let mut keys = cache.ram().keys();
            keys.sort_unstable();
            keys
        };
        let ram_before = ram_keys();

        // Reading the disk chunk — twice — serves the frame and changes
        // neither tier.
        for _ in 0..2 {
            let (back, tier) = cache.get(&id(1, 0)).unwrap();
            assert_eq!(tier, CacheTier::Disk);
            assert_eq!(back.data().as_ref(), &[1u8; 100][..]);
            assert_eq!(back.version(), 4);
        }
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Disk));
        assert_eq!(disk.keys(), disk_keys);
        assert_eq!(disk.used_bytes(), disk_used);
        assert_eq!(
            disk.counters().appended_bytes.get(),
            appended,
            "a read writes nothing"
        );
        assert_eq!(ram_keys(), ram_before);
        assert_eq!(cache.used_bytes(), 200);
        let delta = cache.stats().delta_since(&before);
        assert_eq!(delta.disk_hits(), 2);
        assert_eq!(delta.chunk_misses(), 2, "each was a RAM miss first");
        assert_eq!(delta.tier_promotions(), 0);
        assert_eq!(delta.tier_demotions(), 0);
        assert_eq!(delta.evictions(), 0);

        // Only a placement moves it up, and that keeps tiers exclusive.
        // RAM was full: the LRU victim is dropped, not spilled to disk.
        let (back, _) = cache.peek(&id(1, 0)).unwrap();
        assert!(cache.insert_to_tier(id(1, 0), back, CacheTier::Ram));
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Ram));
        assert!(!disk.contains(&id(1, 0)));
        assert_eq!(cache.get(&id(1, 0)).unwrap().1, CacheTier::Ram);
        assert_eq!(cache.tier_of(&id(2, 0)), None);
        assert!(disk.is_empty());
        assert_eq!(
            disk.counters().appended_bytes.get(),
            appended,
            "an eviction writes nothing"
        );
        assert_eq!(cache.stats().delta_since(&before).evictions(), 1);
    }

    #[test]
    fn an_object_lookup_serves_and_counts_as_a_lookup_per_chunk() {
        // Object 1: chunks 0 and 1 in RAM, 2..6 back to back on disk,
        // 6 nowhere; object 2's chunk in RAM is not asked for.
        let build = || {
            let cache = TieredChunkCache::with_disk(300, 1, 10_000);
            for index in 0..6u8 {
                let tier = if index < 2 {
                    CacheTier::Ram
                } else {
                    CacheTier::Disk
                };
                assert!(cache.insert_to_tier(id(1, index), chunk(index, 100, 3), tier));
            }
            cache.insert_to_tier(id(2, 0), chunk(9, 100, 1), CacheTier::Ram);
            cache
        };
        let indices = [6u8, 5, 0, 3, 1, 4, 2];
        for record_stats in [true, false] {
            let (batched, single) = (build(), build());
            let mut found = Vec::new();
            let calls = batched.disk().unwrap().counters().read_calls.get();
            batched.lookup_object(
                ObjectId::new(1),
                indices,
                3,
                record_stats,
                |index, chunk, tier| {
                    found.push((index, chunk.clone(), tier));
                },
            );
            assert_eq!(
                batched.disk().unwrap().counters().read_calls.get() - calls,
                1,
                "one run"
            );
            found.sort_unstable_by_key(|hit| hit.0);
            let mut expected: Vec<_> = indices
                .iter()
                .filter_map(|&index| {
                    let key = id(1, index);
                    let hit = if record_stats {
                        single.get(&key)
                    } else {
                        single.peek(&key)
                    };
                    hit.map(|(chunk, tier)| (index, chunk, tier))
                })
                .collect();
            expected.sort_unstable_by_key(|hit| hit.0);
            assert_eq!(found, expected);
            assert_eq!(found.len(), 6);
            assert_eq!(
                batched.stats(),
                single.stats(),
                "record_stats {record_stats}"
            );
            assert_eq!(batched.ram().keys().len(), 3);
        }
        // All RAM hits: the disk tier is not visited.
        let cache = build();
        cache.lookup_object(ObjectId::new(1), [0, 1], 3, true, |_, _, tier| {
            assert_eq!(tier, CacheTier::Ram);
        });
        assert_eq!(cache.disk().unwrap().counters().read_calls.get(), 0);
    }

    #[test]
    fn a_lookup_serves_its_version_leaves_newer_and_drops_older_in_each_tier() {
        // Object 1 at versions 1, 2, 3: chunks 0..3 in RAM, 3..6 on
        // disk, back to back. A reader at version 2 asks for all six.
        let cache = TieredChunkCache::with_disk(1_000, 1, 10_000);
        for (index, version) in [(0, 1), (1, 2), (2, 3), (3, 1), (4, 2), (5, 3)] {
            let tier = if index < 3 {
                CacheTier::Ram
            } else {
                CacheTier::Disk
            };
            assert!(cache.insert_to_tier(id(1, index), chunk(index, 100, version), tier));
        }
        let disk = cache.disk().unwrap();
        let (visits, calls, before) = (
            cache.ram().lock_visits(),
            disk.counters().read_calls.get(),
            cache.stats(),
        );
        let mut served = Vec::new();
        cache.lookup_object(ObjectId::new(1), 0..6, 2, true, |index, chunk, tier| {
            served.push((index, chunk.version(), tier));
        });
        assert_eq!(served, [(1, 2, CacheTier::Ram), (4, 2, CacheTier::Disk)]);
        assert_eq!(cache.ram().lock_visits() - visits, 1, "one RAM visit");
        assert_eq!(
            disk.counters().read_calls.get() - calls,
            1,
            "the served frame only: the older and newer ones are not read"
        );
        let held = |index| {
            cache
                .peek(&id(1, index))
                .map(|(c, tier)| (c.version(), tier))
        };
        assert_eq!(held(0), None, "older, dropped from RAM");
        assert_eq!(held(3), None, "older, dropped from disk");
        assert_eq!(held(2), Some((3, CacheTier::Ram)), "newer, left in RAM");
        assert_eq!(held(5), Some((3, CacheTier::Disk)), "newer, left on disk");
        let delta = cache.stats().delta_since(&before);
        assert_eq!(
            (delta.chunk_hits(), delta.chunk_misses(), delta.disk_hits()),
            (1, 5, 1)
        );
    }

    #[test]
    fn failed_disk_move_keeps_the_ram_copy() {
        // A 300 B chunk fits RAM but not the 256 B disk tier: the move
        // down is refused and must leave the chunk where it was.
        let cache = TieredChunkCache::with_disk(1_000, 1, 256);
        assert!(cache.insert_to_tier(id(1, 0), chunk(7, 300, 2), CacheTier::Ram));
        assert!(!cache.insert_to_tier(id(1, 0), chunk(7, 300, 2), CacheTier::Disk));
        assert_eq!(cache.stats().rejected_inserts(), 1, "refused and counted");
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Ram));
        let (back, tier) = cache.get(&id(1, 0)).unwrap();
        assert_eq!(tier, CacheTier::Ram);
        assert_eq!(back, chunk(7, 300, 2));
        assert_eq!(cache.disk().unwrap().counters().appended_bytes.get(), 0);
        // A chunk that does fit still moves, and leaves RAM.
        assert!(cache.insert_to_tier(id(2, 0), chunk(8, 100, 1), CacheTier::Ram));
        assert!(cache.insert_to_tier(id(2, 0), chunk(8, 100, 1), CacheTier::Disk));
        assert_eq!(cache.tier_of(&id(2, 0)), Some(CacheTier::Disk));
        assert!(!cache.ram().contains(&id(2, 0)));
        assert_eq!(cache.stats().rejected_inserts(), 1);
    }

    #[test]
    fn a_frame_older_than_the_live_one_is_refused_and_counted() {
        let cache = TieredChunkCache::with_disk(1_000, 1, 10_000);
        assert!(cache.insert_to_tier(id(1, 0), chunk(3, 100, 3), CacheTier::Disk));
        assert!(!cache.insert_to_tier(id(1, 0), chunk(2, 100, 2), CacheTier::Disk));
        assert_eq!(cache.stats().rejected_inserts(), 1);
        assert_eq!(cache.peek(&id(1, 0)).unwrap().0.version(), 3);
        assert_eq!(
            cache.disk().unwrap().counters().appended_bytes.get(),
            133,
            "nothing written"
        );
    }

    #[test]
    fn a_frame_the_log_cannot_write_is_refused_and_counted() {
        // 133 B frames in 133 B segments: every put opens a new segment
        // file, which fails once the directory is gone.
        let cache = TieredChunkCache::with_disk(1_000, 1, 8 * 133);
        assert!(cache.insert_to_tier(id(1, 0), chunk(1, 100, 1), CacheTier::Disk));
        let segment = cache.disk().unwrap().segment_paths().remove(0);
        std::fs::remove_dir_all(segment.parent().unwrap()).unwrap();
        // The chunk to move is in RAM: the failed move must leave it there.
        assert!(cache.insert_to_tier(id(2, 0), chunk(2, 100, 1), CacheTier::Ram));
        assert!(!cache.insert_to_tier(id(2, 0), chunk(2, 100, 1), CacheTier::Disk));
        assert_eq!(cache.stats().rejected_inserts(), 1);
        assert_eq!(cache.tier_of(&id(2, 0)), Some(CacheTier::Ram));
    }

    #[test]
    fn a_frame_its_own_clean_drops_is_refused_and_counted() {
        // 900 B of log in 112 B segments. Twelve 70 B frames fill six
        // segments, two each (840 B), and one of the first pair dies.
        let cache = TieredChunkCache::with_disk(1_000, 1, 900);
        for i in 0..12 {
            assert!(cache.insert_to_tier(id(i, 0), chunk(i as u8, 37, 1), CacheTier::Disk));
        }
        cache.remove(&id(1, 0));
        // A 133 B frame gets a segment of its own and takes the log to
        // 973 B. The cleaner reclaims the half-dead first segment and
        // copies its survivor forward, which seals the new frame's
        // segment — now the one with the fewest live bytes and still
        // 3 B over: it is cleaned next, and 133 B is more than the half
        // of it the cleaner rewrites.
        assert!(!cache.insert_to_tier(id(99, 0), chunk(9, 100, 1), CacheTier::Disk));
        assert_eq!(cache.tier_of(&id(99, 0)), None);
        let stats = cache.stats();
        assert_eq!(stats.rejected_inserts(), 1);
        assert_eq!(stats.disk_evictions(), 1, "the frame itself, nothing else");
        assert_eq!(cache.disk().unwrap().len(), 11);
    }

    #[test]
    fn ram_only_never_touches_tier_counters() {
        let cache = TieredChunkCache::with_disk(200, 1, 0);
        assert!(cache.disk().is_none());
        cache.insert_to_tier(id(1, 0), chunk(1, 100, 1), CacheTier::Ram);
        cache.insert_to_tier(id(2, 0), chunk(2, 100, 1), CacheTier::Ram);
        cache.insert_to_tier(id(3, 0), chunk(3, 100, 1), CacheTier::Ram);
        assert!(cache.get(&id(1, 0)).is_none(), "victim dropped");
        let stats = cache.stats();
        assert_eq!(stats.tier_demotions(), 0);
        assert_eq!(stats.disk_hits(), 0);
        assert_eq!(stats.evictions(), 1);
    }

    #[test]
    fn zero_disk_capacity_means_no_disk_tier() {
        let cache = TieredChunkCache::with_disk(200, 1, 0);
        assert!(cache.disk().is_none());
        assert_eq!(cache.disk_capacity_bytes(), 0);
    }

    #[test]
    fn insert_to_disk_tier_places_directly() {
        let cache = TieredChunkCache::with_disk(1_000, 1, 10_000);
        assert!(cache.insert_to_tier(id(5, 0), chunk(5, 100, 2), CacheTier::Disk));
        assert_eq!(cache.tier_of(&id(5, 0)), Some(CacheTier::Disk));
        assert_eq!(cache.ram().len(), 0, "direct disk placement skips RAM");
        let (back, tier) = cache.peek(&id(5, 0)).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(back.version(), 2);
        // Without a disk tier the placement falls back to RAM.
        let ram_only = TieredChunkCache::with_disk(1_000, 1, 0);
        assert!(ram_only.insert_to_tier(id(5, 0), chunk(5, 100, 2), CacheTier::Disk));
        assert_eq!(ram_only.tier_of(&id(5, 0)), Some(CacheTier::Ram));
    }

    #[test]
    fn reinsert_drops_stale_disk_copy() {
        let cache = TieredChunkCache::with_disk(200, 1, 10_000);
        cache.insert_to_tier(id(1, 0), chunk(1, 100, 1), CacheTier::Disk);
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Disk));
        // Re-insert version 2 into RAM: the stale disk frame must go.
        cache.insert_to_tier(id(1, 0), chunk(9, 100, 2), CacheTier::Ram);
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Ram));
        assert!(!cache.disk().unwrap().contains(&id(1, 0)));
        assert_eq!(cache.get(&id(1, 0)).unwrap().0.version(), 2);
    }

    #[test]
    fn an_insert_older_than_the_chunk_in_the_other_tier_is_refused() {
        let cache = TieredChunkCache::with_disk(1_000, 1, 10_000);
        // Version 3 on disk: an older RAM placement must not shadow
        // and then drop it.
        assert!(cache.insert_to_tier(id(1, 0), chunk(3, 100, 3), CacheTier::Disk));
        assert!(!cache.insert_to_tier(id(1, 0), chunk(2, 100, 2), CacheTier::Ram));
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Disk));
        assert_eq!(cache.peek(&id(1, 0)).unwrap().0.version(), 3);
        assert_eq!(cache.stats().rejected_inserts(), 1);
        // Version 5 in RAM: an older disk placement must not evict it,
        // and is counted like the RAM refusal was.
        assert!(cache.insert_to_tier(id(2, 0), chunk(5, 100, 5), CacheTier::Ram));
        assert!(!cache.insert_to_tier(id(2, 0), chunk(4, 100, 4), CacheTier::Disk));
        assert_eq!(cache.tier_of(&id(2, 0)), Some(CacheTier::Ram));
        assert_eq!(cache.disk().unwrap().counters().appended_bytes.get(), 133);
        assert_eq!(cache.stats().rejected_inserts(), 2);
        // The same version moves between tiers, as a re-tier does.
        assert!(cache.insert_to_tier(id(2, 0), chunk(5, 100, 5), CacheTier::Disk));
        assert!(cache.insert_to_tier(id(1, 0), chunk(3, 100, 3), CacheTier::Ram));
        assert_eq!(cache.tier_of(&id(2, 0)), Some(CacheTier::Disk));
        assert_eq!(cache.tier_of(&id(1, 0)), Some(CacheTier::Ram));
    }

    #[test]
    fn residency_covers_both_tiers() {
        let cache = TieredChunkCache::with_disk(200, 1, 10_000);
        cache.insert_to_tier(id(3, 0), chunk(3, 100, 1), CacheTier::Disk);
        cache.insert_to_tier(id(2, 0), chunk(2, 100, 1), CacheTier::Ram);
        cache.insert_to_tier(id(1, 0), chunk(1, 100, 1), CacheTier::Disk);
        let cached = cache.residency();
        assert_eq!(
            cached,
            vec![
                (id(2, 0), CacheTier::Ram),
                (id(1, 0), CacheTier::Disk),
                (id(3, 0), CacheTier::Disk)
            ]
        );
        assert_eq!(cache.len(), 3);
        assert!(cache.contains(&id(1, 0)));
    }

    #[test]
    fn disk_capacity_evictions_flow_into_stats() {
        // Tiny disk: 4 KiB across 512 B segments; placing 64 distinct
        // live chunks (15 KB of frames) must surface disk_evictions.
        let cache = TieredChunkCache::with_disk(200, 1, 4 * 1024);
        for i in 0..64u64 {
            cache.insert_to_tier(id(i, 0), chunk(i as u8, 200, 1), CacheTier::Disk);
        }
        let stats = cache.stats();
        assert_eq!(stats.rejected_inserts(), 0);
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
        /// Capacity eviction may lose a chunk, never more: a cached
        /// chunk is in the tier its last placement named and in no
        /// other, an insert older than the resident chunk (in either
        /// tier) is refused, a hit returns the newest stored version's
        /// exact bytes, and both byte budgets hold. A versioned lookup
        /// equals its restatement (peek, compare, remove the older
        /// chunk): it serves the resident chunk only at its version,
        /// drops an older one from both tiers, leaves a newer one where
        /// it was and counts one RAM lookup.
        #[test]
        fn model_never_two_tiers_never_stale_never_over_budget(
            ops in vec((0u8..6, 0u64..3, 0u8..2, 1u64..4, 0usize..5), 1..80),
        ) {
            const RAM: usize = 600;
            const DISK: usize = 2_000;
            const LENS: [usize; 5] = [40, 120, 200, 700, 5_000];
            let cache = TieredChunkCache::with_disk(RAM, 2, DISK);
            let (mut ram, mut disk) = (Model::new(), Model::new());
            // Placements that took the chunk out of the other tier: up, down.
            let mut moves = [0u64; 2];
            for (step, (op, object, index, version, len)) in ops.into_iter().enumerate() {
                let key = id(object, index);
                let bytes = vec![step as u8; LENS[len]];
                let value = CachedChunk::new(Bytes::from(bytes.clone()), version);
                match op {
                    0 | 1 => {
                        let tier = if op == 0 { CacheTier::Ram } else { CacheTier::Disk };
                        let resident = cache.peek(&key).map(|(chunk, _)| chunk.version());
                        let held_in = cache.tier_of(&key);
                        let stored = cache.insert_to_tier(key, value, tier);
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
                            // A move, if the cache still held the copy.
                            moves[op as usize] += u64::from(held_in.is_some_and(|held| held != tier));
                        }
                    }
                    2 => {
                        cache.remove(&key);
                        ram.remove(&key);
                        disk.remove(&key);
                    }
                    3 => {
                        // An object's invalidation: each of its ids. A
                        // placed chunk may since have been evicted.
                        for index in 0..2 {
                            let key = id(object, index);
                            let placed = ram.remove(&key).is_some() | disk.remove(&key).is_some();
                            prop_assert!(!cache.remove(&key) || placed, "{key:?} was never placed");
                        }
                    }
                    4 => {
                        // A lookup at `version` is a peek, a compare and
                        // the removal of an older chunk, in one call.
                        let resident = cache.peek(&key);
                        let before = cache.stats();
                        let mut found = Vec::new();
                        cache.lookup_object(ObjectId::new(object), [index], version, true, |_, chunk, tier| {
                            found.push((chunk.clone(), tier));
                        });
                        let served = resident.clone().filter(|(chunk, _)| chunk.version() == version);
                        prop_assert_eq!(found.first(), served.as_ref());
                        let older = resident.as_ref().is_some_and(|(chunk, _)| chunk.version() < version);
                        if older {
                            ram.remove(&key);
                            disk.remove(&key);
                        }
                        let left = resident.filter(|_| !older).map(|(chunk, tier)| (chunk.version(), tier));
                        prop_assert_eq!(cache.peek(&key).map(|(chunk, tier)| (chunk.version(), tier)), left);
                        let delta = cache.stats().delta_since(&before);
                        let counted = match served.map(|(_, tier)| tier) {
                            Some(CacheTier::Ram) => (1, 0, 0),
                            Some(CacheTier::Disk) => (0, 1, 1),
                            None => (0, 1, 0),
                        };
                        prop_assert_eq!((delta.chunk_hits(), delta.chunk_misses(), delta.disk_hits()), counted);
                    }
                    _ => {
                        let before = cache.tier_of(&key);
                        let found = cache.peek(&key);
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
                        prop_assert!(!on_disk || disk.contains_key(&key), "{key:?} spilled");
                    }
                }
                prop_assert!(cache.used_bytes() <= RAM);
                prop_assert!(cache.disk_used_bytes() <= DISK);
            }
            let stats = cache.stats();
            prop_assert_eq!([stats.tier_promotions(), stats.tier_demotions()], moves);
        }

        /// `replace_object` is a `remove_object` of the whole stripe
        /// and an `insert_to_tier(Ram)` per chunk: over random
        /// placements in either tier and replacements of whole objects
        /// (some overflowing RAM part-way), both caches store the same
        /// chunks, hold them at the same versions in the same tiers and
        /// count the same.
        #[test]
        fn an_object_replacement_is_a_drop_and_an_insert_per_chunk(
            steps in vec((0u8..3, 0u64..3, 1u64..4, 0usize..4, vec(0u8..4, 0..5)), 1..40),
        ) {
            const LENS: [usize; 4] = [40, 120, 200, 700];
            const TOTAL: u8 = 4;
            let (whole, single) = (
                TieredChunkCache::with_disk(600, 2, 2_000),
                TieredChunkCache::with_disk(600, 2, 2_000),
            );
            for (op, object, version, len, indices) in steps {
                let mut distinct = ChunkSet::new();
                let chunks: Vec<(u8, CachedChunk)> = indices
                    .into_iter()
                    .filter(|&index| distinct.insert(index))
                    .map(|index| (index, chunk(index, LENS[(len + usize::from(index)) % 4], version)))
                    .collect();
                if op < 2 {
                    // Placements that fill both tiers with older copies.
                    let tier = if op == 0 { CacheTier::Ram } else { CacheTier::Disk };
                    for (index, c) in &chunks {
                        let key = id(object, *index);
                        prop_assert_eq!(
                            whole.insert_to_tier(key, c.clone(), tier),
                            single.insert_to_tier(key, c.clone(), tier)
                        );
                    }
                } else {
                    single.remove_object(ObjectId::new(object), 0..TOTAL);
                    let expected: ChunkSet = chunks
                        .iter()
                        .filter(|(index, c)| single.insert_to_tier(id(object, *index), c.clone(), CacheTier::Ram))
                        .map(|(index, _)| *index)
                        .collect();
                    let stored = whole.replace_object(ObjectId::new(object), TOTAL, chunks);
                    prop_assert_eq!(stored, expected);
                }
                let held = |cache: &TieredChunkCache| {
                    let mut held: Vec<_> = cache
                        .residency()
                        .into_iter()
                        .map(|(key, tier)| (key, tier, cache.peek(&key).map(|(c, _)| c.version())))
                        .collect();
                    held.sort_unstable();
                    held
                };
                prop_assert_eq!(held(&whole), held(&single));
                prop_assert_eq!(whole.stats(), single.stats());
            }
        }
    }
}
