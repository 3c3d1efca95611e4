//! Least Recently Used eviction.
//!
//! The recency order is kept in a `BTreeMap<sequence, key>`: every insert
//! or access assigns a fresh monotonically increasing sequence number, so
//! the map's first entry is always the least recently used key. All
//! operations are `O(log n)`.

use crate::policy::EvictionPolicy;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
use std::hash::Hash;

/// Least Recently Used policy state.
#[derive(Clone, Debug, Default)]
pub struct Lru<K> {
    seq: u64,
    by_seq: BTreeMap<u64, K>,
    by_key: HashMap<K, u64>,
}

impl<K: Eq + Hash + Clone> Lru<K> {
    /// Creates an empty LRU policy.
    pub fn new() -> Self {
        Lru {
            seq: 0,
            by_seq: BTreeMap::new(),
            by_key: HashMap::new(),
        }
    }

    fn touch(&mut self, key: &K) {
        if let Some(old) = self.by_key.get(key).copied() {
            self.by_seq.remove(&old);
        }
        let seq = self.seq;
        self.seq += 1;
        self.by_seq.insert(seq, key.clone());
        self.by_key.insert(key.clone(), seq);
    }
}

impl<K: Eq + Hash + Clone + Debug> EvictionPolicy<K> for Lru<K> {
    fn on_insert(&mut self, key: &K) {
        self.touch(key);
    }

    fn on_access(&mut self, key: &K) {
        debug_assert!(
            self.by_key.contains_key(key),
            "access to untracked key {key:?}"
        );
        self.touch(key);
    }

    fn on_remove(&mut self, key: &K) {
        if let Some(seq) = self.by_key.remove(key) {
            self.by_seq.remove(&seq);
        }
    }

    fn evict_candidate(&mut self) -> Option<K> {
        let (&seq, _) = self.by_seq.iter().next()?;
        let key = self.by_seq.remove(&seq).expect("peeked entry exists");
        self.by_key.remove(&key);
        Some(key)
    }

    fn tracked(&self) -> usize {
        self.by_key.len()
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut lru = Lru::new();
        for k in 1..=3u32 {
            lru.on_insert(&k);
        }
        assert_eq!(lru.evict_candidate(), Some(1));
        assert_eq!(lru.evict_candidate(), Some(2));
        assert_eq!(lru.evict_candidate(), Some(3));
        assert_eq!(lru.evict_candidate(), None);
    }

    #[test]
    fn access_refreshes_recency() {
        let mut lru = Lru::new();
        for k in 1..=3u32 {
            lru.on_insert(&k);
        }
        lru.on_access(&1); // 1 becomes most recent
        assert_eq!(lru.evict_candidate(), Some(2));
        assert_eq!(lru.evict_candidate(), Some(3));
        assert_eq!(lru.evict_candidate(), Some(1));
    }

    #[test]
    fn reinsert_refreshes_recency() {
        let mut lru = Lru::new();
        lru.on_insert(&1u32);
        lru.on_insert(&2);
        lru.on_insert(&1); // refresh, not duplicate
        assert_eq!(lru.tracked(), 2);
        assert_eq!(lru.evict_candidate(), Some(2));
    }

    #[test]
    fn remove_untracks() {
        let mut lru = Lru::new();
        lru.on_insert(&1u32);
        lru.on_insert(&2);
        lru.on_remove(&1);
        assert_eq!(lru.tracked(), 1);
        assert_eq!(lru.evict_candidate(), Some(2));
        // Removing an unknown key is a no-op.
        lru.on_remove(&99);
        assert_eq!(lru.tracked(), 0);
    }
}
