//! The byte-bounded cache core.
//!
//! [`Cache`] plays the role memcached plays in the paper's deployment: a
//! bounded in-memory store of erasure-coded chunks, one entry per chunk,
//! with eviction delegated to a pluggable [`EvictionPolicy`]. Capacity is
//! accounted in *bytes* (the paper sizes caches in MB: "10 MB — which
//! fits ten full objects, 9 chunks each").

use crate::policy::EvictionPolicy;
use crate::stats::CacheStats;
use bytes::Bytes;
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

/// Types that know their own size in bytes for capacity accounting.
pub trait Weigh {
    /// The entry's size in bytes.
    fn weight(&self) -> usize;
}

impl Weigh for Bytes {
    fn weight(&self) -> usize {
        self.len()
    }
}

impl Weigh for Vec<u8> {
    fn weight(&self) -> usize {
        self.len()
    }
}

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

impl Weigh for CachedChunk {
    fn weight(&self) -> usize {
        self.data.len()
    }
}

/// Result of [`Cache::insert`].
#[derive(Debug, PartialEq, Eq)]
pub enum InsertOutcome<K, V> {
    /// The entry was stored; zero or more victims were evicted for room.
    Inserted {
        /// Entries evicted to make room, in eviction order.
        evicted: Vec<(K, V)>,
    },
    /// The key already existed; its value was replaced.
    Replaced {
        /// The value previously stored under the key.
        previous: V,
        /// Entries evicted to make room, in eviction order.
        evicted: Vec<(K, V)>,
    },
    /// The entry is larger than the entire cache and was not stored.
    Rejected {
        /// The value handed back to the caller.
        value: V,
    },
}

impl<K, V> InsertOutcome<K, V> {
    /// Whether the value ended up in the cache.
    pub fn was_stored(&self) -> bool {
        !matches!(self, InsertOutcome::Rejected { .. })
    }

    /// The evicted entries, if any.
    pub fn evicted(&self) -> &[(K, V)] {
        match self {
            InsertOutcome::Inserted { evicted } | InsertOutcome::Replaced { evicted, .. } => {
                evicted
            }
            InsertOutcome::Rejected { .. } => &[],
        }
    }
}

/// A byte-bounded cache with pluggable eviction.
///
/// # Examples
///
/// ```
/// use agar_cache::{Cache, Lru};
/// use bytes::Bytes;
///
/// let mut cache: Cache<&str, Bytes, Lru<&str>> =
///     Cache::with_capacity(8, Lru::new());
/// cache.insert("a", Bytes::from_static(&[0; 4]));
/// cache.insert("b", Bytes::from_static(&[0; 4]));
/// // Inserting 4 more bytes evicts the LRU entry ("a").
/// let out = cache.insert("c", Bytes::from_static(&[0; 4]));
/// assert_eq!(out.evicted().len(), 1);
/// assert!(cache.get(&"a").is_none());
/// assert!(cache.get(&"b").is_some());
/// ```
#[derive(Debug)]
pub struct Cache<K, V, P> {
    entries: HashMap<K, V>,
    policy: P,
    capacity: usize,
    used: usize,
    stats: CacheStats,
}

impl<K, V, P> Cache<K, V, P>
where
    K: Eq + Hash + Clone + Debug,
    V: Weigh,
    P: EvictionPolicy<K>,
{
    /// Creates a cache bounded to `capacity` bytes.
    pub fn with_capacity(capacity: usize, policy: P) -> Self {
        Cache {
            entries: HashMap::new(),
            policy,
            capacity,
            used: 0,
            stats: CacheStats::new(),
        }
    }

    /// Reads an entry, updating recency metadata and hit/miss counters.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        if self.entries.contains_key(key) {
            self.stats.chunk_hits += 1;
            self.policy.on_access(key);
            self.entries.get(key)
        } else {
            self.stats.chunk_misses += 1;
            None
        }
    }

    /// Reads an entry without touching recency metadata or counters.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.entries.get(key)
    }

    /// Whether the key is present (no metadata update).
    pub fn contains(&self, key: &K) -> bool {
        self.entries.contains_key(key)
    }

    /// Inserts an entry, evicting according to policy until it fits.
    ///
    /// An entry larger than the whole cache is rejected and handed back.
    pub fn insert(&mut self, key: K, value: V) -> InsertOutcome<K, V> {
        let weight = value.weight();
        if weight > self.capacity {
            self.stats.rejected_inserts += 1;
            return InsertOutcome::Rejected { value };
        }

        // Replacing an existing entry frees its weight first.
        let previous = self.entries.remove(&key).inspect(|old| {
            self.used -= old.weight();
            self.policy.on_remove(&key);
        });

        let mut evicted = Vec::new();
        while self.used + weight > self.capacity {
            let Some(victim) = self.policy.evict_candidate() else {
                unreachable!("cache is over capacity but the policy tracks no keys");
            };
            let entry = self
                .entries
                .remove(&victim)
                .expect("policy and entry map agree");
            self.used -= entry.weight();
            self.stats.evictions += 1;
            evicted.push((victim, entry));
        }

        self.used += weight;
        self.entries.insert(key.clone(), value);
        self.policy.on_insert(&key);
        self.stats.insertions += 1;

        match previous {
            Some(previous) => InsertOutcome::Replaced { previous, evicted },
            None => InsertOutcome::Inserted { evicted },
        }
    }

    /// Evicts the policy's current victim, returning it (or `None` when
    /// the cache is empty). Used by wrappers that enforce a capacity
    /// bound spanning several caches (see the sharded cache).
    pub fn evict_one(&mut self) -> Option<(K, V)> {
        let victim = self.policy.evict_candidate()?;
        let entry = self
            .entries
            .remove(&victim)
            .expect("policy and entry map agree");
        self.used -= entry.weight();
        self.stats.evictions += 1;
        Some((victim, entry))
    }

    /// Removes an entry, returning it.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let value = self.entries.remove(key)?;
        self.used -= value.weight();
        self.policy.on_remove(key);
        Some(value)
    }

    /// Removes every entry matching a predicate, returning how many were
    /// removed. Used by the coherence protocol to invalidate an object's
    /// chunks.
    pub fn remove_matching(&mut self, mut pred: impl FnMut(&K) -> bool) -> usize {
        // Victim order does not escape: each removal is independent and
        // the final cache and policy state are order-insensitive.
        // agar-lint: allow(determinism)
        let victims: Vec<K> = self.entries.keys().filter(|k| pred(k)).cloned().collect();
        let n = victims.len();
        for key in victims {
            self.remove(&key);
        }
        n
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently stored.
    pub fn used_bytes(&self) -> usize {
        self.used
    }

    /// Configured capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// Iterates over cached keys in arbitrary order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.keys()
    }

    /// Iterates over entries in arbitrary order (no metadata update).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter()
    }

    /// Drops every entry (statistics are kept).
    pub fn clear(&mut self) {
        // Removal order is immaterial: the loop empties the map.
        // agar-lint: allow(determinism)
        let keys: Vec<K> = self.entries.keys().cloned().collect();
        for key in keys {
            self.remove(&key);
        }
        debug_assert_eq!(self.used, 0);
    }

    /// Read access to the statistics counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Mutable access to the statistics counters (for recording
    /// object-level outcomes).
    pub fn stats_mut(&mut self) -> &mut CacheStats {
        &mut self.stats
    }

    /// Borrows the eviction policy (diagnostics).
    pub fn policy(&self) -> &P {
        &self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lfu::Lfu;
    use crate::lru::Lru;

    fn bytes(n: usize) -> Bytes {
        Bytes::from(vec![0u8; n])
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut cache = Cache::with_capacity(100, Lru::new());
        assert!(cache.insert("k", bytes(10)).was_stored());
        assert_eq!(cache.get(&"k").map(Weigh::weight), Some(10));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.used_bytes(), 10);
        assert_eq!(cache.stats().chunk_hits(), 1);
    }

    #[test]
    fn miss_is_counted() {
        let mut cache: Cache<&str, Bytes, Lru<&str>> = Cache::with_capacity(10, Lru::new());
        assert!(cache.get(&"nope").is_none());
        assert_eq!(cache.stats().chunk_misses(), 1);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut cache = Cache::with_capacity(25, Lru::new());
        for i in 0..100u32 {
            cache.insert(i, bytes(10));
            assert!(cache.used_bytes() <= 25, "at insert {i}");
            assert!(cache.len() <= 2);
        }
        assert_eq!(cache.stats().evictions(), 98);
    }

    #[test]
    fn eviction_follows_lru_order() {
        let mut cache = Cache::with_capacity(30, Lru::new());
        cache.insert(1u32, bytes(10));
        cache.insert(2, bytes(10));
        cache.insert(3, bytes(10));
        cache.get(&1); // refresh 1
        let out = cache.insert(4, bytes(10));
        match out {
            InsertOutcome::Inserted { evicted } => {
                assert_eq!(evicted.len(), 1);
                assert_eq!(evicted[0].0, 2);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(cache.contains(&1));
    }

    #[test]
    fn eviction_follows_lfu_order() {
        let mut cache = Cache::with_capacity(30, Lfu::new());
        cache.insert(1u32, bytes(10));
        cache.insert(2, bytes(10));
        cache.insert(3, bytes(10));
        cache.get(&1);
        cache.get(&1);
        cache.get(&3);
        let out = cache.insert(4, bytes(10));
        assert_eq!(out.evicted()[0].0, 2);
    }

    #[test]
    fn oversized_entry_rejected() {
        let mut cache = Cache::with_capacity(5, Lru::new());
        let out = cache.insert("big", bytes(6));
        assert!(matches!(out, InsertOutcome::Rejected { .. }));
        assert!(!out.was_stored());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().rejected_inserts(), 1);
    }

    #[test]
    fn exact_fit_accepted() {
        let mut cache = Cache::with_capacity(5, Lru::new());
        assert!(cache.insert("k", bytes(5)).was_stored());
        assert_eq!(cache.used_bytes(), cache.capacity_bytes());
    }

    #[test]
    fn replace_frees_old_weight() {
        let mut cache = Cache::with_capacity(20, Lru::new());
        cache.insert("k", bytes(15));
        let out = cache.insert("k", bytes(10));
        match out {
            InsertOutcome::Replaced { previous, evicted } => {
                assert_eq!(previous.weight(), 15);
                assert!(evicted.is_empty());
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(cache.used_bytes(), 10);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn replace_may_still_evict_others() {
        let mut cache = Cache::with_capacity(20, Lru::new());
        cache.insert(1u32, bytes(10));
        cache.insert(2, bytes(10));
        // Growing entry 1 to 15 bytes forces 2 out.
        let out = cache.insert(1, bytes(15));
        match out {
            InsertOutcome::Replaced { evicted, .. } => {
                assert_eq!(evicted[0].0, 2);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(cache.used_bytes(), 15);
    }

    #[test]
    fn remove_and_clear() {
        let mut cache = Cache::with_capacity(100, Lru::new());
        cache.insert(1u32, bytes(10));
        cache.insert(2, bytes(20));
        assert_eq!(cache.remove(&1).map(|v| v.weight()), Some(10));
        assert_eq!(cache.remove(&1), None);
        assert_eq!(cache.used_bytes(), 20);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn remove_matching_bulk_invalidation() {
        let mut cache = Cache::with_capacity(100, Lru::new());
        for i in 0..10u32 {
            cache.insert(i, bytes(5));
        }
        let removed = cache.remove_matching(|k| k % 2 == 0);
        assert_eq!(removed, 5);
        assert_eq!(cache.len(), 5);
        assert!(cache.keys().all(|k| k % 2 == 1));
    }

    #[test]
    fn peek_does_not_touch_stats_or_order() {
        let mut cache = Cache::with_capacity(20, Lru::new());
        cache.insert(1u32, bytes(10));
        cache.insert(2, bytes(10));
        let _ = cache.peek(&1);
        let _ = cache.peek(&1);
        assert_eq!(cache.stats().chunk_hits(), 0);
        // 1 was not refreshed by peek, so it is still the LRU victim.
        let out = cache.insert(3, bytes(10));
        assert_eq!(out.evicted()[0].0, 1);
    }

    #[test]
    fn cached_chunk_weighs_its_payload() {
        let c = CachedChunk::new(bytes(123), 9);
        assert_eq!(c.weight(), 123);
        assert_eq!(c.version(), 9);
        assert_eq!(c.data().len(), 123);
    }

    #[test]
    fn evict_one_follows_policy_order() {
        let mut cache = Cache::with_capacity(100, Lru::new());
        cache.insert(1u32, bytes(10));
        cache.insert(2, bytes(10));
        cache.get(&1); // refresh 1: the LRU victim is now 2
        let (key, value) = cache.evict_one().unwrap();
        assert_eq!(key, 2);
        assert_eq!(value.weight(), 10);
        assert_eq!(cache.used_bytes(), 10);
        assert_eq!(cache.stats().evictions(), 1);
        assert!(cache.evict_one().is_some());
        assert!(cache.evict_one().is_none());
        assert_eq!(cache.used_bytes(), 0);
    }

    #[test]
    fn zero_capacity_cache_rejects_everything() {
        let mut cache = Cache::with_capacity(0, Lru::new());
        assert!(!cache.insert("k", bytes(1)).was_stored());
        assert!(cache.is_empty());
    }
}
