//! The RAM chunk store: lock-striped LRU shards under one byte budget.
//!
//! [`ShardedChunkCache`] is the only in-memory chunk store in the
//! workspace — the Agar node's RAM tier (inside
//! [`crate::TieredChunkCache`]) and, with one shard, the cache of the
//! paper's LRU-c / LFU-c baselines:
//!
//! - entries are spread over `N` shards by a deterministic hash of the
//!   chunk's **object** id, so all `k + m` chunks of an object share
//!   one shard; a shard is one `HashMap<ChunkId, (CachedChunk, u64)>`
//!   behind its own mutex, so lookups of different objects proceed in
//!   parallel;
//! - every caller on the read and write paths asks about an object,
//!   and the object calls — [`lookup_object`](ShardedChunkCache::lookup_object),
//!   [`absent`](ShardedChunkCache::absent),
//!   [`remove_object`](ShardedChunkCache::remove_object) and
//!   [`replace_object`](ShardedChunkCache::replace_object) — take that
//!   one shard lock once for all the chunks they name. Each is equal
//!   to the per-chunk calls it folds (a `version_of` then a `get` or
//!   `peek` of a chunk at the reader's version or a `remove` of an
//!   older one; `contains`; `remove`; `insert`) made once per index,
//!   and a concurrent object call sees all of its effect or none of it;
//! - the cache owns the version rule: a lookup names the reader's
//!   version, serves the chunks at it, leaves newer ones in place and
//!   removes older ones under the lock that found them. A chunk of
//!   another version is a miss, and no caller compares versions or
//!   removes what a lookup found stale in a second visit;
//! - each shard counts the acquisitions of its lock while it holds it,
//!   and [`lock_visits`](ShardedChunkCache::lock_visits) sums them: a
//!   fully cached read is one visit;
//! - the `u64` is the shard's clock at the entry's last insert or
//!   [`get`](ShardedChunkCache::get): a hit is one hash probe that
//!   stamps the entry, and `peek`, `version_of` and `contains` do not
//!   stamp;
//! - the byte capacity is **global**: an atomic counter tracks the
//!   total, and an insert that leaves the cache over budget evicts
//!   until it fits again, one entry at a time, from the shards in
//!   round-robin order — each step removes the smallest stamp (the
//!   least recently used entry) of the next non-empty shard the cursor
//!   reaches, a scan of that one shard. With one shard this is exact
//!   LRU; with more it is approximate global LRU under an exact global
//!   capacity, and the walk is the only eviction: a victim comes from
//!   the shard the cursor reaches, not from the shard that took the
//!   insert, even when that shard alone holds more than the budget. No
//!   gated report depends on the order: a configuration-driven node
//!   evicts 0 chunks per 1 000 operations on every benchmark workload
//!   and in every Agar cell of `tail`, `tiers` and `chaos`, and the
//!   baselines run one shard;
//! - an insert older than the resident entry of its key is refused
//!   under the shard lock, so a cached chunk's version never goes
//!   backwards whatever order racing inserters arrive in;
//! - statistics live in one [`AtomicCacheStats`], so hot-path hit/miss
//!   accounting never takes a lock.
//!
//! Everything is deterministic under single-threaded use: shard
//! selection hashes only the object id, stamps are unique within a
//! shard, and the clocks and the eviction cursor advance in call order.

use crate::stats::{AtomicCacheStats, CacheStats};
use agar_ec::{ChunkId, ChunkSet, ObjectId};
use agar_obs::{Counter, Labels, MetricsRegistry};
use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default shard count: enough to keep a handful of client threads off
/// each other's locks without fragmenting tiny test caches.
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// A cached erasure-coded chunk: payload plus the object version it was
/// encoded from (used by the write-path coherence protocol).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CachedChunk {
    data: Bytes,
    version: u64,
}

impl CachedChunk {
    /// Creates a cached chunk.
    pub fn new(data: Bytes, version: u64) -> Self {
        CachedChunk { data, version }
    }

    /// The chunk payload.
    pub fn data(&self) -> &Bytes {
        &self.data
    }

    /// The object version this chunk was encoded from.
    pub fn version(&self) -> u64 {
        self.version
    }
}

/// The eviction policy of a [`ShardedChunkCache`]. LRU is the only one
/// any experiment runs; the type stays because it is
/// [`ShardedChunkCache::new`]'s argument in the benchmark's pinned
/// surface.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PolicyKind {
    /// Least Recently Used (memcached's default, the paper's LRU
    /// baseline).
    Lru,
}

/// One lock stripe: every entry carries the shard clock at its last
/// insert or `get`.
#[derive(Default)]
struct Shard {
    entries: HashMap<ChunkId, (CachedChunk, u64)>,
    clock: u64,
}

impl Shard {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Removes the least recently stamped entry. Stamps are unique, so
    /// the victim does not depend on the map's iteration order.
    fn evict_lru(&mut self) -> Option<CachedChunk> {
        let (&key, _) = self.entries.iter().min_by_key(|(_, (_, stamp))| *stamp)?;
        self.entries.remove(&key).map(|(chunk, _)| chunk)
    }
}

/// A concurrently accessible chunk cache: `N` independently locked LRU
/// shards under one global byte budget.
///
/// # Examples
///
/// ```
/// use agar_cache::{CachedChunk, PolicyKind, ShardedChunkCache};
/// use agar_ec::{ChunkId, ObjectId};
/// use bytes::Bytes;
///
/// let cache = ShardedChunkCache::new(1_000, PolicyKind::Lru, 4);
/// let id = ChunkId::new(ObjectId::new(0), 3);
/// cache.insert(id, CachedChunk::new(Bytes::from(vec![0u8; 100]), 1));
/// assert_eq!(cache.get(&id).map(|c| c.version()), Some(1));
/// assert_eq!(cache.stats().chunk_hits(), 1);
/// ```
pub struct ShardedChunkCache {
    shards: Vec<Mutex<Shard>>,
    /// Acquisitions of each shard's lock, counted while holding it: one
    /// writer at a time per cell, and no cell shared between shards.
    visits: Vec<Counter>,
    capacity: usize,
    used: AtomicUsize,
    evict_cursor: AtomicUsize,
    stats: AtomicCacheStats,
}

impl ShardedChunkCache {
    /// Creates a cache bounded to `capacity_bytes` with `shards` LRU
    /// shards (clamped to at least one).
    pub fn new(capacity_bytes: usize, policy: PolicyKind, shards: usize) -> Self {
        let PolicyKind::Lru = policy;
        ShardedChunkCache {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            visits: (0..shards.max(1)).map(|_| Counter::new()).collect(),
            capacity: capacity_bytes,
            used: AtomicUsize::new(0),
            evict_cursor: AtomicUsize::new(0),
            stats: AtomicCacheStats::new(),
        }
    }

    fn shard_index(&self, object: ObjectId) -> usize {
        // Deterministic multiply-xor mix of the object id; `HashMap`'s
        // default hasher is randomly keyed per process, which would
        // break run-to-run reproducibility.
        let mut h = object.index().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 32;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 33) as usize % self.shards.len()
    }

    /// Locks shard `index`, counting the visit.
    fn lock(&self, index: usize) -> MutexGuard<'_, Shard> {
        let shard = self.shards[index].lock();
        self.visits[index].inc();
        shard
    }

    /// Locks the shard holding every chunk of `object`.
    fn shard(&self, object: ObjectId) -> MutexGuard<'_, Shard> {
        self.lock(self.shard_index(object))
    }

    /// Reads a chunk, stamping it most recently used and counting the
    /// hit or miss. Returns a clone (cheap: the payload is
    /// reference-counted [`bytes::Bytes`]).
    pub fn get(&self, key: &ChunkId) -> Option<CachedChunk> {
        let found = {
            let mut shard = self.shard(key.object());
            let now = shard.tick();
            shard.entries.get_mut(key).map(|(chunk, stamp)| {
                *stamp = now;
                chunk.clone()
            })
        };
        let counter = match found {
            Some(_) => &self.stats.chunk_hits,
            None => &self.stats.chunk_misses,
        };
        counter.inc();
        found
    }

    /// Reads a chunk without stamping it or touching counters.
    pub fn peek(&self, key: &ChunkId) -> Option<CachedChunk> {
        self.shard(key.object())
            .entries
            .get(key)
            .map(|(chunk, _)| chunk.clone())
    }

    /// The version of the cached chunk, if any (no stamp, no payload
    /// clone).
    pub fn version_of(&self, key: &ChunkId) -> Option<u64> {
        self.shard(key.object())
            .entries
            .get(key)
            .map(|(chunk, _)| chunk.version)
    }

    /// Whether the chunk is present (no stamp).
    pub fn contains(&self, key: &ChunkId) -> bool {
        self.shard(key.object()).entries.contains_key(key)
    }

    /// Looks up chunks `indices` of `object` at a reader's `version`
    /// under one shard lock, and applies the version rule to each chunk
    /// it finds, in `indices` order: a chunk at `version` is served
    /// (`found` gets a borrow; the caller clones what it keeps); a
    /// newer one stays cached and is not served; an older one can
    /// never be served again and is removed under the same lock.
    /// Returns every index not served. With `record_stats` each index
    /// counts, a served chunk as a hit and anything else as a miss, and
    /// a served chunk is stamped as [`get`](ShardedChunkCache::get)
    /// stamps it; without, nothing is counted or stamped. `found` runs
    /// under the shard lock, so it must not call back into the cache.
    pub fn lookup_object(
        &self,
        object: ObjectId,
        indices: impl IntoIterator<Item = u8>,
        version: u64,
        record_stats: bool,
        mut found: impl FnMut(u8, &CachedChunk),
    ) -> ChunkSet {
        let mut missed = ChunkSet::new();
        let (mut hits, mut lookups) = (0, 0);
        {
            let mut shard = self.shard(object);
            for index in indices {
                lookups += 1;
                let id = ChunkId::new(object, index);
                let now = if record_stats { shard.tick() } else { 0 };
                let Some((chunk, stamp)) = shard.entries.get_mut(&id) else {
                    missed.insert(index);
                    continue;
                };
                if chunk.version == version {
                    if record_stats {
                        *stamp = now;
                    }
                    hits += 1;
                    found(index, chunk);
                    continue;
                }
                if chunk.version < version {
                    self.take(&mut shard, &id);
                }
                missed.insert(index);
            }
        }
        if record_stats && hits > 0 {
            self.stats.chunk_hits.add(hits);
        }
        if record_stats && lookups > hits {
            self.stats.chunk_misses.add(lookups - hits);
        }
        missed
    }

    /// The chunks of `indices` of `object` that are not cached, under
    /// one shard lock (a [`contains`](ShardedChunkCache::contains) per
    /// index: no stamp, no count).
    pub fn absent(&self, object: ObjectId, indices: impl IntoIterator<Item = u8>) -> ChunkSet {
        let shard = self.shard(object);
        indices
            .into_iter()
            .filter(|&index| !shard.entries.contains_key(&ChunkId::new(object, index)))
            .collect()
    }

    /// Removes chunks `indices` of `object` under one shard lock (a
    /// [`remove`](ShardedChunkCache::remove) per index); returns the
    /// ones that were cached.
    pub fn remove_object(
        &self,
        object: ObjectId,
        indices: impl IntoIterator<Item = u8>,
    ) -> ChunkSet {
        let mut shard = self.shard(object);
        indices
            .into_iter()
            .filter(|&index| {
                self.take(&mut shard, &ChunkId::new(object, index))
                    .is_some()
            })
            .collect()
    }

    /// Inserts a chunk, stamped most recently used, then evicts until
    /// the global byte budget fits (victims are dropped and counted in
    /// `evictions`). Returns whether the chunk was stored: an entry
    /// larger than the whole cache is rejected, and so is one *older*
    /// than the resident entry of its key — checked under the shard
    /// lock, so a reader filling the version it bound cannot overwrite
    /// what a later write left behind.
    pub fn insert(&self, key: ChunkId, value: CachedChunk) -> bool {
        let stored = self.place(&mut self.shard(key.object()), key, value);
        if stored {
            self.evict_to_capacity();
        }
        stored
    }

    /// Removes chunks `indices` of `object` and inserts `chunks` in
    /// their place, in order — a [`remove`](ShardedChunkCache::remove)
    /// per index, then an [`insert`](ShardedChunkCache::insert) per
    /// chunk — taking the object's shard lock once for all of it while
    /// the chunks fit the byte budget, so a concurrent object call sees
    /// the object before or after, never in between. A chunk that takes
    /// the cache over budget ends the batch; the eviction it calls for
    /// runs, and the rest are inserted one by one. Returns the indices
    /// of `chunks` stored.
    pub fn replace_object(
        &self,
        object: ObjectId,
        indices: impl IntoIterator<Item = u8>,
        chunks: impl IntoIterator<Item = (u8, CachedChunk)>,
    ) -> ChunkSet {
        let mut chunks = chunks.into_iter();
        let mut stored = ChunkSet::new();
        {
            let mut shard = self.shard(object);
            for index in indices {
                self.take(&mut shard, &ChunkId::new(object, index));
            }
            for (index, value) in chunks.by_ref() {
                if self.place(&mut shard, ChunkId::new(object, index), value) {
                    stored.insert(index);
                }
                if self.used.load(Ordering::Acquire) > self.capacity {
                    break;
                }
            }
        }
        self.evict_to_capacity();
        for (index, value) in chunks {
            if self.insert(ChunkId::new(object, index), value) {
                stored.insert(index);
            }
        }
        stored
    }

    /// An insert under the shard lock the caller holds: refuses (and
    /// counts) an entry larger than the whole cache or older than the
    /// resident entry of its key, else stores it stamped most recently
    /// used. Eviction is the caller's.
    fn place(&self, shard: &mut Shard, key: ChunkId, value: CachedChunk) -> bool {
        let weight = value.data.len();
        let older = shard
            .entries
            .get(&key)
            .is_some_and(|(resident, _)| resident.version > value.version);
        if weight > self.capacity || older {
            self.stats.rejected_inserts.inc();
            return false;
        }
        // `used` is adjusted while the shard lock is still held: an
        // entry's weight is always added before any concurrent
        // remove/evict of that entry can subtract it, so the counter
        // can never underflow.
        let now = shard.tick();
        self.used.fetch_add(weight, Ordering::AcqRel);
        if let Some((replaced, _)) = shard.entries.insert(key, (value, now)) {
            self.used.fetch_sub(replaced.data.len(), Ordering::AcqRel);
        }
        self.stats.insertions.inc();
        true
    }

    /// Evicts the least recently used entry of the next non-empty shard
    /// the round-robin cursor reaches until the global byte budget fits.
    /// Holds at most one shard lock at a time, so it can never deadlock
    /// against concurrent lookups.
    fn evict_to_capacity(&self) {
        let n = self.shards.len();
        while self.used.load(Ordering::Acquire) > self.capacity {
            let start = self.evict_cursor.fetch_add(1, Ordering::Relaxed);
            let evicted = (0..n).any(|offset| {
                let mut shard = self.lock((start + offset) % n);
                let Some(victim) = shard.evict_lru() else {
                    return false;
                };
                // Subtract under the shard lock (see `place`).
                self.used.fetch_sub(victim.data.len(), Ordering::AcqRel);
                self.stats.evictions.inc();
                true
            });
            if !evicted {
                break; // every shard is already empty
            }
        }
    }

    /// Removes a chunk, returning it.
    pub fn remove(&self, key: &ChunkId) -> Option<CachedChunk> {
        self.take(&mut self.shard(key.object()), key)
    }

    /// A remove under the shard lock the caller holds.
    fn take(&self, shard: &mut Shard, key: &ChunkId) -> Option<CachedChunk> {
        let (chunk, _) = shard.entries.remove(key)?;
        // Subtract under the shard lock (see `place`).
        self.used.fetch_sub(chunk.data.len(), Ordering::AcqRel);
        Some(chunk)
    }

    /// Removes every chunk matching a predicate (bulk invalidation),
    /// returning how many were removed.
    pub fn remove_matching(&self, mut pred: impl FnMut(&ChunkId) -> bool) -> usize {
        let mut removed = 0;
        for index in 0..self.shards.len() {
            let mut shard = self.lock(index);
            let mut freed = 0;
            shard.entries.retain(|key, (chunk, _)| {
                let drop = pred(key);
                if drop {
                    freed += chunk.data.len();
                    removed += 1;
                }
                !drop
            });
            // Subtract under the shard lock (see `place`).
            self.used.fetch_sub(freed, Ordering::AcqRel);
        }
        removed
    }

    /// Every cached chunk id, in no particular order.
    pub fn keys(&self) -> Vec<ChunkId> {
        let mut keys = Vec::new();
        for index in 0..self.shards.len() {
            // Every caller sorts the ids or only counts them.
            // agar-lint: allow(determinism)
            keys.extend(self.lock(index).entries.keys().copied());
        }
        keys
    }

    /// Number of cached chunks.
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|index| self.lock(index).entries.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        (0..self.shards.len()).all(|index| self.lock(index).entries.is_empty())
    }

    /// Bytes currently stored (approximate only while inserts are
    /// mid-flight on other threads).
    pub fn used_bytes(&self) -> usize {
        self.used.load(Ordering::Acquire)
    }

    /// Configured global capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// A point-in-time snapshot of the shared statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    /// The live counter cells. Whoever assembles objects on top of this
    /// cache records its own events straight into them
    /// (`cache.counters().hedge_wins.inc()`,
    /// [`AtomicCacheStats::record_object_read`]); bind them into a
    /// metrics registry with [`AtomicCacheStats::register_with`].
    pub fn counters(&self) -> &AtomicCacheStats {
        &self.stats
    }

    /// Shard lock acquisitions so far, over every shard: each call
    /// takes one per shard it visits (an eviction step, a `keys` or
    /// `len` one per shard it walks). Reading it takes no lock.
    pub fn lock_visits(&self) -> u64 {
        self.visits.iter().map(Counter::get).sum()
    }

    /// Late-binds the counter cells into a metrics registry
    /// ([`AtomicCacheStats::register_with`]) and the shards' visit
    /// counts as one series, `agar_cache_lock_visits_total`.
    pub fn register_metrics(&self, registry: &MetricsRegistry, base: &Labels) {
        self.stats.register_with(registry, base);
        registry.register_counter_sum(
            "agar_cache_lock_visits_total",
            "RAM-tier shard lock acquisitions (one per shard a cache call visits).",
            base.clone(),
            &self.visits,
        );
    }
}

impl std::fmt::Debug for ShardedChunkCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedChunkCache")
            .field("shards", &self.shards.len())
            .field("capacity", &self.capacity)
            .field("used", &self.used_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::{Arc, Barrier};

    fn chunk(bytes: usize, version: u64) -> CachedChunk {
        CachedChunk::new(Bytes::from(vec![0u8; bytes]), version)
    }

    fn id(object: u64, index: u8) -> ChunkId {
        ChunkId::new(ObjectId::new(object), index)
    }

    #[test]
    fn insert_get_roundtrip_across_shards() {
        let cache = ShardedChunkCache::new(10_000, PolicyKind::Lru, 4);
        for i in 0..20u8 {
            assert!(cache.insert(id(0, i), chunk(100, 1)));
        }
        assert_eq!(cache.len(), 20);
        assert_eq!(cache.used_bytes(), 2_000);
        for i in 0..20u8 {
            assert!(cache.get(&id(0, i)).is_some());
        }
        assert!(cache.get(&id(9, 0)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.chunk_hits(), 20);
        assert_eq!(stats.chunk_misses(), 1);
        assert_eq!(stats.insertions(), 20);
    }

    #[test]
    fn global_capacity_is_enforced_even_with_skewed_shards() {
        // 9 chunks of 100 bytes in a 900-byte cache must ALL fit, no
        // matter how unevenly they hash across shards (the Agar node
        // relies on this for whole-object caching).
        let cache = ShardedChunkCache::new(900, PolicyKind::Lru, 8);
        for i in 0..9u8 {
            assert!(cache.insert(id(0, i), chunk(100, 1)));
        }
        assert_eq!(cache.len(), 9);
        assert_eq!(cache.stats().evictions(), 0);
        // One more chunk forces exactly one eviction somewhere.
        assert!(cache.insert(id(1, 0), chunk(100, 1)));
        assert_eq!(cache.len(), 9);
        assert!(cache.used_bytes() <= 900);
        assert_eq!(cache.stats().evictions(), 1);
    }

    #[test]
    fn oversized_entry_rejected() {
        let cache = ShardedChunkCache::new(50, PolicyKind::Lru, 2);
        assert!(!cache.insert(id(0, 0), chunk(51, 1)));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().rejected_inserts(), 1);
    }

    #[test]
    fn exact_fit_accepted_and_zero_capacity_refuses_everything() {
        let cache = ShardedChunkCache::new(50, PolicyKind::Lru, 2);
        assert!(cache.insert(id(0, 0), chunk(50, 1)));
        assert_eq!(cache.used_bytes(), cache.capacity_bytes());
        assert_eq!(cache.stats().evictions(), 0);

        let empty = ShardedChunkCache::new(0, PolicyKind::Lru, 2);
        assert!(!empty.insert(id(0, 0), chunk(1, 1)));
        assert!(empty.is_empty());
        assert_eq!(empty.stats().rejected_inserts(), 1);
    }

    #[test]
    fn replace_frees_old_weight() {
        let cache = ShardedChunkCache::new(1_000, PolicyKind::Lru, 4);
        cache.insert(id(0, 0), chunk(400, 1));
        cache.insert(id(0, 0), chunk(100, 2));
        assert_eq!(cache.used_bytes(), 100);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&id(0, 0)).unwrap().version(), 2);
    }

    #[test]
    fn a_growing_replace_may_evict_others() {
        let cache = ShardedChunkCache::new(200, PolicyKind::Lru, 1);
        cache.insert(id(1, 0), chunk(100, 1));
        cache.insert(id(2, 0), chunk(100, 1));
        // Growing the first entry to 150 bytes forces the other out,
        // although the first is older: the replace stamped it.
        assert!(cache.insert(id(1, 0), chunk(150, 1)));
        assert!(!cache.contains(&id(2, 0)));
        assert_eq!((cache.used_bytes(), cache.len()), (150, 1));
        let stats = cache.stats();
        assert_eq!((stats.insertions(), stats.evictions()), (3, 1));
    }

    #[test]
    fn get_and_reinsert_refresh_recency() {
        // One shard: the victim is exactly the least recently stamped.
        let cache = ShardedChunkCache::new(300, PolicyKind::Lru, 1);
        for object in 1..=3 {
            cache.insert(id(object, 0), chunk(100, 1));
        }
        cache.get(&id(1, 0)); // 2 is now the LRU entry
        cache.insert(id(4, 0), chunk(100, 1));
        assert!(!cache.contains(&id(2, 0)));
        cache.insert(id(3, 0), chunk(100, 2)); // 1 is now the LRU entry
        cache.insert(id(5, 0), chunk(100, 1));
        assert!(!cache.contains(&id(1, 0)));
        let mut keys = cache.keys();
        keys.sort_unstable();
        assert_eq!(keys, vec![id(3, 0), id(4, 0), id(5, 0)]);
    }

    #[test]
    fn peek_version_of_and_contains_neither_stamp_nor_count() {
        let cache = ShardedChunkCache::new(200, PolicyKind::Lru, 1);
        cache.insert(id(1, 0), chunk(100, 7));
        cache.insert(id(2, 0), chunk(100, 1));
        assert_eq!(cache.peek(&id(1, 0)).unwrap().version(), 7);
        assert_eq!(cache.version_of(&id(1, 0)), Some(7));
        assert!(cache.contains(&id(1, 0)));
        assert!(cache.peek(&id(9, 0)).is_none());
        assert_eq!(cache.version_of(&id(9, 0)), None);
        assert_eq!(cache.stats().chunk_hits(), 0);
        assert_eq!(cache.stats().chunk_misses(), 0);
        // 1 was not refreshed, so it is still the LRU victim.
        cache.insert(id(3, 0), chunk(100, 1));
        assert!(!cache.contains(&id(1, 0)));
        assert!(cache.contains(&id(2, 0)));
    }

    #[test]
    fn an_insert_older_than_the_resident_entry_is_refused() {
        let cache = ShardedChunkCache::new(1_000, PolicyKind::Lru, 4);
        assert!(cache.insert(id(0, 0), chunk(100, 2)));
        // Older: refused, reported as not stored, counted, nothing moved.
        assert!(!cache.insert(id(0, 0), chunk(400, 1)));
        assert!(!cache.insert(id(0, 0), chunk(400, 1)));
        assert_eq!(cache.peek(&id(0, 0)).unwrap().version(), 2);
        assert_eq!((cache.used_bytes(), cache.len()), (100, 1));
        assert_eq!(cache.stats().rejected_inserts(), 2);
        assert_eq!(cache.stats().insertions(), 1);
        // The same version again and a newer one both replace it.
        assert!(cache.insert(id(0, 0), chunk(50, 2)));
        assert!(cache.insert(id(0, 0), chunk(60, 3)));
        assert_eq!(cache.peek(&id(0, 0)).unwrap().version(), 3);
        assert_eq!(cache.used_bytes(), 60);
        // Once the entry is gone any version is admitted.
        cache.remove(&id(0, 0));
        assert!(cache.insert(id(0, 0), chunk(10, 1)));
    }

    #[test]
    fn remove_and_remove_matching_update_accounting() {
        let cache = ShardedChunkCache::new(10_000, PolicyKind::Lru, 4);
        for object in 0..4u64 {
            for i in 0..3u8 {
                cache.insert(id(object, i), chunk(50, 1));
            }
        }
        assert_eq!(cache.remove(&id(0, 0)).map(|c| c.data().len()), Some(50));
        assert_eq!(cache.remove(&id(0, 0)), None);
        let removed = cache.remove_matching(|k| k.object() == ObjectId::new(1));
        assert_eq!(removed, 3);
        assert_eq!(cache.len(), 8);
        assert_eq!(cache.used_bytes(), 8 * 50);
        assert_eq!(cache.keys().len(), 8);
    }

    #[test]
    fn shard_selection_is_deterministic_and_spread() {
        let a = ShardedChunkCache::new(1_000, PolicyKind::Lru, 8);
        let b = ShardedChunkCache::new(1_000, PolicyKind::Lru, 8);
        let mut seen = std::collections::HashSet::new();
        for object in (0..16u64).map(ObjectId::new) {
            assert_eq!(a.shard_index(object), b.shard_index(object));
            seen.insert(a.shard_index(object));
        }
        assert!(seen.len() > 4, "16 objects should touch most of 8 shards");
    }

    #[test]
    fn object_read_accounting_is_shared() {
        let cache = ShardedChunkCache::new(1_000, PolicyKind::Lru, 2);
        cache.counters().record_object_read(9, 9);
        cache.counters().record_object_read(3, 9);
        cache.counters().record_object_read(0, 9);
        let stats = cache.stats();
        assert_eq!(stats.object_total_hits(), 1);
        assert_eq!(stats.object_partial_hits(), 1);
        assert_eq!(stats.object_misses(), 1);
    }

    /// Keys that all land in one shard of an 8-shard cache (one
    /// object's chunks, then the next colliding object's, found by
    /// probing the deterministic shard hash), used to stress the
    /// global-capacity path under maximal skew.
    fn same_shard_keys(cache: &ShardedChunkCache, count: usize) -> Vec<ChunkId> {
        let target = cache.shard_index(ObjectId::new(0));
        let keys: Vec<ChunkId> = (0..10_000u64)
            .filter(|&object| cache.shard_index(ObjectId::new(object)) == target)
            .flat_map(|object| (0..12u8).map(move |index| id(object, index)))
            .take(count)
            .collect();
        assert_eq!(keys.len(), count, "not enough colliding keys found");
        keys
    }

    #[test]
    fn skewed_shard_still_respects_global_capacity() {
        // Every insert lands in ONE shard of eight; the global byte
        // budget must hold anyway, with evictions drawn from that
        // shard (the round-robin cursor walks the empties harmlessly).
        let cache = ShardedChunkCache::new(500, PolicyKind::Lru, 8);
        let keys = same_shard_keys(&cache, 50);
        for &key in &keys {
            assert!(cache.insert(key, chunk(100, 1)));
            assert!(
                cache.used_bytes() <= 500,
                "budget exceeded at {} bytes",
                cache.used_bytes()
            );
        }
        assert_eq!(cache.len(), 5, "500 B holds exactly five 100 B chunks");
        assert_eq!(cache.stats().insertions(), 50);
        assert_eq!(cache.stats().evictions(), 45);
        // The survivors are the five most recent inserts (shard-local
        // LRU is exact LRU when one shard holds everything).
        for key in &keys[45..] {
            assert!(cache.contains(key), "recent insert evicted");
        }
    }

    #[test]
    fn eviction_never_livelocks_when_most_shards_are_empty() {
        // An entry as large as the whole cache forces `evict_to_capacity`
        // to sweep the (empty) sibling shards repeatedly; the cursor
        // walk must terminate every time instead of spinning.
        let cache = ShardedChunkCache::new(300, PolicyKind::Lru, 8);
        let keys = same_shard_keys(&cache, 4);
        for &key in &keys {
            assert!(cache.insert(key, chunk(300, 1)));
            assert_eq!(cache.len(), 1, "each full-size insert evicts the last");
            assert!(cache.used_bytes() <= 300);
        }
        // Drain the cache entirely; eviction from every (now empty)
        // shard must keep returning None, never hang.
        cache.remove_matching(|_| true);
        assert!(cache.is_empty());
        for shard in &cache.shards {
            assert!(shard.lock().evict_lru().is_none());
        }
        assert_eq!(cache.used_bytes(), 0);
        // And the cache still works afterwards.
        assert!(cache.insert(id(7, 7), chunk(10, 1)));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // thread hammer: minutes under Miri
    fn concurrent_skewed_inserts_hold_the_budget() {
        // Four threads hammer keys that all hash to one shard: the
        // worst case for the shared byte counter. Capacity must hold
        // at the end and nothing may deadlock.
        let cache = Arc::new(ShardedChunkCache::new(1_000, PolicyKind::Lru, 8));
        let keys = Arc::new(same_shard_keys(&cache, 64));
        std::thread::scope(|scope| {
            for t in 0..4usize {
                let cache = Arc::clone(&cache);
                let keys = Arc::clone(&keys);
                scope.spawn(move || {
                    for round in 0..100usize {
                        let key = keys[(t * 17 + round) % keys.len()];
                        if cache.get(&key).is_none() {
                            cache.insert(key, chunk(100, 1));
                        }
                    }
                });
            }
        });
        assert!(cache.used_bytes() <= 1_000);
        assert_eq!(cache.used_bytes(), cache.len() * 100);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // thread hammer: minutes under Miri
    fn concurrent_hammer_holds_invariants() {
        let cache = Arc::new(ShardedChunkCache::new(2_000, PolicyKind::Lru, 4));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for round in 0..200u64 {
                        let object = (t * 7 + round) % 10;
                        for index in 0..6u8 {
                            let key = id(object, index);
                            if cache.get(&key).is_none() {
                                cache.insert(key, chunk(40, 1));
                            }
                        }
                    }
                });
            }
        });
        assert!(cache.used_bytes() <= 2_000);
        let stats = cache.stats();
        assert_eq!(stats.chunk_hits() + stats.chunk_misses(), 4 * 200 * 6);
    }

    #[test]
    fn an_object_call_visits_its_shard_once() {
        let cache = ShardedChunkCache::new(10_000, PolicyKind::Lru, 8);
        for index in 0..12u8 {
            cache.insert(id(5, index), chunk(10, 2));
        }
        let object = ObjectId::new(5);
        let visits = cache.lock_visits();
        let mut hits = 0;
        let missed = cache.lookup_object(object, 0..14, 2, true, |_, _| hits += 1);
        assert_eq!(
            (hits, missed.iter().collect::<Vec<_>>()),
            (12, vec![12, 13])
        );
        assert_eq!(cache.absent(object, 10..14).len(), 2);
        assert_eq!(cache.remove_object(object, [0, 1, 13]).len(), 2);
        let chunks = [(0, chunk(10, 3)), (1, chunk(10, 3))];
        assert_eq!(cache.replace_object(object, 0..3, chunks).len(), 2);
        assert_eq!(cache.absent(object, 0..3).iter().collect::<Vec<_>>(), [2]);
        assert_eq!(cache.lock_visits() - visits, 5, "one visit per call");
        // A per-chunk call is a visit each.
        cache.contains(&id(5, 3));
        cache.get(&id(5, 4));
        assert_eq!(cache.lock_visits() - visits, 7);
    }

    #[test]
    fn a_lookup_serves_its_version_leaves_newer_and_drops_older_in_one_visit() {
        let cache = ShardedChunkCache::new(10_000, PolicyKind::Lru, 8);
        let object = ObjectId::new(3);
        cache.insert(id(3, 0), chunk(10, 1));
        cache.insert(id(3, 1), chunk(10, 2));
        cache.insert(id(3, 2), chunk(20, 3));
        let (visits, before) = (cache.lock_visits(), cache.stats());
        let mut served = Vec::new();
        let missed = cache.lookup_object(object, 0..4, 2, true, |index, chunk| {
            served.push((index, chunk.version()));
        });
        assert_eq!(served, [(1, 2)]);
        assert_eq!(missed.iter().collect::<Vec<_>>(), [0, 2, 3]);
        assert_eq!(cache.lock_visits() - visits, 1, "the drop is in the visit");
        assert_eq!(cache.version_of(&id(3, 0)), None, "the older chunk is gone");
        assert_eq!(cache.version_of(&id(3, 2)), Some(3), "the newer one stays");
        assert_eq!(cache.used_bytes(), 30);
        let delta = cache.stats().delta_since(&before);
        assert_eq!((delta.chunk_hits(), delta.chunk_misses()), (1, 3));
        // Without statistics nothing is counted, and the rule holds.
        cache.insert(id(3, 0), chunk(10, 1));
        let before = cache.stats();
        let missed = cache.lookup_object(object, 0..3, 2, false, |_, _| {});
        assert_eq!(missed.iter().collect::<Vec<_>>(), [0, 2]);
        assert!(!cache.contains(&id(3, 0)));
        assert_eq!(cache.version_of(&id(3, 2)), Some(3));
        assert_eq!(cache.stats(), before);
    }

    /// One step of [`object_calls_equal_the_per_id_calls`]: `(op,
    /// object, index, version, size)` with `indices` for the object
    /// calls (repeats allowed).
    type Step = (u8, u64, u8, u64, usize, Vec<u8>);

    fn step() -> impl Strategy<Value = Step> {
        (
            0u8..7,
            0u64..3,
            0u8..5,
            1u64..4,
            0usize..3,
            vec(0u8..6, 0..8),
        )
    }

    /// Everything a caller can observe of a cache: what is cached, at
    /// which version, how many bytes, and every counter.
    fn observe(cache: &ShardedChunkCache) -> (Vec<(ChunkId, u64)>, usize, CacheStats) {
        let mut keys: Vec<_> = cache
            .keys()
            .into_iter()
            .map(|key| (key, cache.version_of(&key).expect("listed")))
            .collect();
        keys.sort_unstable();
        (keys, cache.used_bytes(), cache.stats())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Each object call equals the per-id calls it folds, over
        /// random inserts (some older than the resident entry, some
        /// evicting), removals and lookups at 1 and 8 shards. A lookup
        /// at a version equals, per index, a `version_of` and then: a
        /// `get` (or a `peek`) of a chunk at that version; a `remove`
        /// of an older one; for a newer one, the miss a `get` counts,
        /// with the entry left alone. The same hits in the same order,
        /// the same counts, the same stamps, so the same later victims.
        /// `absent` is a `contains` per index, `remove_object` a
        /// `remove` per index and `replace_object` a `remove` per index
        /// then an `insert` per chunk (overflowing batches included).
        #[test]
        fn object_calls_equal_the_per_id_calls(
            shards in prop_oneof![Just(1usize), Just(8)],
            steps in vec(step(), 1..60),
        ) {
            const SIZES: [usize; 3] = [40, 90, 130];
            let (whole, single) = (
                ShardedChunkCache::new(600, PolicyKind::Lru, shards),
                ShardedChunkCache::new(600, PolicyKind::Lru, shards),
            );
            for (op, object, index, version, size, indices) in steps {
                let key = id(object, index);
                let o = ObjectId::new(object);
                match op {
                    0 | 1 => {
                        let value = chunk(SIZES[size], version);
                        prop_assert_eq!(whole.insert(key, value.clone()), single.insert(key, value));
                    }
                    2 | 3 => {
                        let record_stats = op == 2;
                        let mut found = Vec::new();
                        let missed = whole.lookup_object(o, indices.iter().copied(), version, record_stats, |i, c| {
                            found.push((i, c.clone()));
                        });
                        let mut expected = Vec::new();
                        let mut expected_missed = ChunkSet::new();
                        for &i in &indices {
                            let key = id(object, i);
                            let resident = single.version_of(&key);
                            if resident == Some(version) {
                                let hit = if record_stats { single.get(&key) } else { single.peek(&key) };
                                expected.push((i, hit.expect("resident")));
                                continue;
                            }
                            expected_missed.insert(i);
                            if resident.is_some_and(|resident| resident < version) {
                                single.remove(&key);
                            }
                            if !record_stats {
                                continue;
                            }
                            if resident.is_some_and(|resident| resident > version) {
                                single.shard(o).tick();
                                single.stats.chunk_misses.inc();
                            } else {
                                prop_assert!(single.get(&key).is_none());
                            }
                        }
                        prop_assert_eq!(found, expected);
                        prop_assert_eq!(missed, expected_missed);
                    }
                    4 => {
                        let expected: ChunkSet = indices
                            .iter()
                            .copied()
                            .filter(|&i| !single.contains(&id(object, i)))
                            .collect();
                        prop_assert_eq!(whole.absent(o, indices.iter().copied()), expected);
                    }
                    5 => {
                        let expected: ChunkSet = indices
                            .iter()
                            .copied()
                            .filter(|&i| single.remove(&id(object, i)).is_some())
                            .collect();
                        prop_assert_eq!(whole.remove_object(o, indices.iter().copied()), expected);
                    }
                    _ => {
                        // Drop indices `0..index`, insert `indices`:
                        // sizes vary by index, so a batch may overflow
                        // the budget part-way.
                        let chunks = indices
                            .iter()
                            .map(|&i| (i, chunk(SIZES[(size + usize::from(i)) % 3], version)));
                        for i in 0..index {
                            single.remove(&id(object, i));
                        }
                        let expected: ChunkSet = chunks
                            .clone()
                            .filter(|(i, c)| single.insert(id(object, *i), c.clone()))
                            .map(|(i, _)| i)
                            .collect();
                        prop_assert_eq!(whole.replace_object(o, 0..index, chunks), expected);
                    }
                }
                prop_assert_eq!(observe(&whole), observe(&single));
                prop_assert!(whole.used_bytes() <= 600);
            }
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)] // thread hammer: minutes under Miri
    fn object_lookups_never_see_a_version_go_backwards() {
        // Two writers each own three objects and insert every chunk of
        // them at versions 1, 2, 3, …, publishing each version once all
        // its chunks are in; a dropper removes whole objects; two
        // readers look whole objects up at the published version (one
        // counting, one not), which drops the older chunks they meet.
        // Six objects of four 50 B chunks are 1 200 B in a 700 B cache
        // over two shards, so inserts evict too. A lookup serves only
        // its own version, and the published version only grows: a
        // reader must never see a chunk older than one it saw before.
        const OBJECTS: u64 = 6;
        const INDICES: u8 = 4;
        const ROUNDS: u64 = 300;
        const LOOKUPS: u64 = 2_000;
        let cache = ShardedChunkCache::new(700, PolicyKind::Lru, 2);
        let published: [AtomicU64; OBJECTS as usize] = Default::default();
        let start = Barrier::new(5);
        let writing = AtomicBool::new(true);
        std::thread::scope(|scope| {
            let writers: Vec<_> = (0..2u64)
                .map(|writer| {
                    let (cache, published, start) = (&cache, &published, &start);
                    scope.spawn(move || {
                        start.wait();
                        for version in 1..=ROUNDS {
                            for object in (writer..OBJECTS).step_by(2) {
                                for index in 0..INDICES {
                                    cache.insert(id(object, index), chunk(50, version));
                                }
                                published[object as usize].store(version, Ordering::Release);
                            }
                        }
                    })
                })
                .collect();
            scope.spawn(|| {
                start.wait();
                let mut object = 0;
                while writing.load(Ordering::Relaxed) {
                    cache.remove_object(ObjectId::new(object % OBJECTS), 0..INDICES);
                    object += 1;
                }
            });
            for reader in 0..2 {
                let (cache, published, start) = (&cache, &published, &start);
                scope.spawn(move || {
                    start.wait();
                    let mut seen = [[0u64; INDICES as usize]; OBJECTS as usize];
                    for round in 0..LOOKUPS {
                        let object = (round * 5 + reader) % OBJECTS;
                        let version = published[object as usize].load(Ordering::Acquire);
                        let last = &mut seen[object as usize];
                        cache.lookup_object(
                            ObjectId::new(object),
                            0..INDICES,
                            version,
                            reader == 0,
                            |index, chunk| {
                                let before = last[index as usize];
                                assert_eq!(chunk.version(), version, "{object}/{index}");
                                assert!(
                                    chunk.version() >= before,
                                    "{object}/{index} went back from {before}"
                                );
                                last[index as usize] = chunk.version();
                            },
                        );
                    }
                });
            }
            for writer in writers {
                writer.join().expect("writer panicked");
            }
            writing.store(false, Ordering::Relaxed);
        });
        assert!(cache.used_bytes() <= 700);
        assert_eq!(cache.used_bytes(), cache.len() * 50);
        let stats = cache.stats();
        assert_eq!(
            stats.chunk_hits() + stats.chunk_misses(),
            LOOKUPS * u64::from(INDICES)
        );
    }
}
