//! The RAM chunk store: lock-striped LRU shards under one byte budget.
//!
//! [`ShardedChunkCache`] is the only in-memory chunk store in the
//! workspace — the Agar node's RAM tier (inside
//! [`crate::TieredChunkCache`]) and, with one shard, the cache of the
//! paper's LRU-c / LFU-c baselines:
//!
//! - entries are spread over `N` shards by a deterministic hash of the
//!   [`ChunkId`]; a shard is one `HashMap<ChunkId, (CachedChunk, u64)>`
//!   behind its own mutex, so lookups of different chunks proceed in
//!   parallel;
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
//! selection hashes only the chunk id, stamps are unique within a shard,
//! and the clocks and the eviction cursor advance in call order.

use crate::stats::{AtomicCacheStats, CacheStats};
use agar_ec::ChunkId;
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
            capacity: capacity_bytes,
            used: AtomicUsize::new(0),
            evict_cursor: AtomicUsize::new(0),
            stats: AtomicCacheStats::new(),
        }
    }

    fn shard_index(&self, key: &ChunkId) -> usize {
        // Deterministic multiply-xor mix of (object id, chunk index);
        // `HashMap`'s default hasher is randomly keyed per process, which
        // would break run-to-run reproducibility.
        let mut h = key
            .object()
            .index()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(u64::from(key.index().value()).wrapping_mul(0xA24B_AED4_963E_E407));
        h ^= h >> 32;
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 33) as usize % self.shards.len()
    }

    fn shard(&self, key: &ChunkId) -> MutexGuard<'_, Shard> {
        self.shards[self.shard_index(key)].lock()
    }

    /// Reads a chunk, stamping it most recently used and counting the
    /// hit or miss. Returns a clone (cheap: the payload is
    /// reference-counted [`bytes::Bytes`]).
    pub fn get(&self, key: &ChunkId) -> Option<CachedChunk> {
        let found = {
            let mut shard = self.shard(key);
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
        self.shard(key)
            .entries
            .get(key)
            .map(|(chunk, _)| chunk.clone())
    }

    /// The version of the cached chunk, if any (no stamp, no payload
    /// clone).
    pub fn version_of(&self, key: &ChunkId) -> Option<u64> {
        self.shard(key)
            .entries
            .get(key)
            .map(|(chunk, _)| chunk.version)
    }

    /// Whether the chunk is present (no stamp).
    pub fn contains(&self, key: &ChunkId) -> bool {
        self.shard(key).entries.contains_key(key)
    }

    /// Inserts a chunk, stamped most recently used, then evicts until
    /// the global byte budget fits (victims are dropped and counted in
    /// `evictions`). Returns whether the chunk was stored: an entry
    /// larger than the whole cache is rejected, and so is one *older*
    /// than the resident entry of its key — checked under the shard
    /// lock, so a reader filling the version it bound cannot overwrite
    /// what a later write left behind.
    pub fn insert(&self, key: ChunkId, value: CachedChunk) -> bool {
        let weight = value.data.len();
        if weight > self.capacity {
            self.stats.rejected_inserts.inc();
            return false;
        }
        // `used` is adjusted while the shard lock is still held: an
        // entry's weight is always added before any concurrent
        // remove/evict of that entry can subtract it, so the counter
        // can never underflow.
        {
            let mut shard = self.shard(&key);
            if shard
                .entries
                .get(&key)
                .is_some_and(|(resident, _)| resident.version > value.version)
            {
                self.stats.rejected_inserts.inc();
                return false;
            }
            let now = shard.tick();
            self.used.fetch_add(weight, Ordering::AcqRel);
            if let Some((replaced, _)) = shard.entries.insert(key, (value, now)) {
                self.used.fetch_sub(replaced.data.len(), Ordering::AcqRel);
            }
            self.stats.insertions.inc();
        }
        self.evict_to_capacity();
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
                let mut shard = self.shards[(start + offset) % n].lock();
                let Some(victim) = shard.evict_lru() else {
                    return false;
                };
                // Subtract under the shard lock (see `insert`).
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
        let mut shard = self.shard(key);
        let (chunk, _) = shard.entries.remove(key)?;
        // Subtract under the shard lock (see `insert`).
        self.used.fetch_sub(chunk.data.len(), Ordering::AcqRel);
        Some(chunk)
    }

    /// Removes every chunk matching a predicate (bulk invalidation),
    /// returning how many were removed.
    pub fn remove_matching(&self, mut pred: impl FnMut(&ChunkId) -> bool) -> usize {
        let mut removed = 0;
        for shard in &self.shards {
            let mut shard = shard.lock();
            let mut freed = 0;
            shard.entries.retain(|key, (chunk, _)| {
                let drop = pred(key);
                if drop {
                    freed += chunk.data.len();
                    removed += 1;
                }
                !drop
            });
            // Subtract under the shard lock (see `insert`).
            self.used.fetch_sub(freed, Ordering::AcqRel);
        }
        removed
    }

    /// Every cached chunk id, in no particular order.
    pub fn keys(&self) -> Vec<ChunkId> {
        let mut keys = Vec::new();
        for shard in &self.shards {
            // Every caller sorts the ids or only counts them.
            // agar-lint: allow(determinism)
            keys.extend(shard.lock().entries.keys().copied());
        }
        keys
    }

    /// Number of cached chunks.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().entries.is_empty())
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
    use agar_ec::ObjectId;
    use std::sync::Arc;

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
        for object in 0..16u64 {
            for index in 0..12u8 {
                let key = id(object, index);
                assert_eq!(a.shard_index(&key), b.shard_index(&key));
                seen.insert(a.shard_index(&key));
            }
        }
        assert!(seen.len() > 4, "192 chunks should touch most of 8 shards");
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

    /// Keys that all land in one shard of an 8-shard cache (found by
    /// probing the deterministic shard hash), used to stress the
    /// global-capacity path under maximal skew.
    fn same_shard_keys(cache: &ShardedChunkCache, count: usize) -> Vec<ChunkId> {
        let mut keys = Vec::with_capacity(count);
        let target = cache.shard_index(&id(0, 0));
        'outer: for object in 0..10_000u64 {
            for index in 0..12u8 {
                let key = id(object, index);
                if cache.shard_index(&key) == target {
                    keys.push(key);
                    if keys.len() == count {
                        break 'outer;
                    }
                }
            }
        }
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
}
