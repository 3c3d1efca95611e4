//! Least Frequently Used eviction.
//!
//! Keys are ordered by `(access_count, recency_sequence)` in a `BTreeMap`,
//! so the victim is the least frequently used key, with LRU as the
//! tie-break (the hybrid the WLFU literature recommends and what the
//! paper's LFU baseline needs). All operations are `O(log n)`.

use crate::policy::EvictionPolicy;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Debug;
use std::hash::Hash;

/// Least Frequently Used policy state.
#[derive(Clone, Debug, Default)]
pub struct Lfu<K> {
    seq: u64,
    /// Ordered by (frequency, recency sequence): first = coldest.
    by_rank: BTreeMap<(u64, u64), K>,
    by_key: HashMap<K, (u64, u64)>,
}

impl<K: Eq + Hash + Clone> Lfu<K> {
    /// Creates an empty LFU policy.
    pub fn new() -> Self {
        Lfu {
            seq: 0,
            by_rank: BTreeMap::new(),
            by_key: HashMap::new(),
        }
    }

    fn bump(&mut self, key: &K, reset: bool) {
        let freq = match self.by_key.get(key).copied() {
            Some(rank @ (freq, _)) => {
                self.by_rank.remove(&rank);
                if reset {
                    1
                } else {
                    freq + 1
                }
            }
            None => 1,
        };
        let rank = (freq, self.seq);
        self.seq += 1;
        self.by_rank.insert(rank, key.clone());
        self.by_key.insert(key.clone(), rank);
    }

    /// The access count currently recorded for `key`.
    pub fn frequency(&self, key: &K) -> u64 {
        self.by_key.get(key).map_or(0, |&(f, _)| f)
    }
}

impl<K: Eq + Hash + Clone + Debug> EvictionPolicy<K> for Lfu<K> {
    fn on_insert(&mut self, key: &K) {
        // A re-insert after eviction starts counting afresh; a re-insert
        // of a live key just counts as an access.
        let live = self.by_key.contains_key(key);
        self.bump(key, !live);
    }

    fn on_access(&mut self, key: &K) {
        debug_assert!(
            self.by_key.contains_key(key),
            "access to untracked key {key:?}"
        );
        self.bump(key, false);
    }

    fn on_remove(&mut self, key: &K) {
        if let Some(rank) = self.by_key.remove(key) {
            self.by_rank.remove(&rank);
        }
    }

    fn evict_candidate(&mut self) -> Option<K> {
        let (&rank, _) = self.by_rank.iter().next()?;
        let key = self.by_rank.remove(&rank).expect("peeked entry exists");
        self.by_key.remove(&key);
        Some(key)
    }

    fn tracked(&self) -> usize {
        self.by_key.len()
    }

    fn name(&self) -> &'static str {
        "lfu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_frequent() {
        let mut lfu = Lfu::new();
        for k in [1u32, 2, 3] {
            lfu.on_insert(&k);
        }
        lfu.on_access(&1);
        lfu.on_access(&1);
        lfu.on_access(&3);
        // Frequencies: 1 -> 3, 2 -> 1, 3 -> 2.
        assert_eq!(lfu.evict_candidate(), Some(2));
        assert_eq!(lfu.evict_candidate(), Some(3));
        assert_eq!(lfu.evict_candidate(), Some(1));
        assert_eq!(lfu.evict_candidate(), None);
    }

    #[test]
    fn lru_breaks_frequency_ties() {
        let mut lfu = Lfu::new();
        for k in [1u32, 2, 3] {
            lfu.on_insert(&k);
        }
        // All frequency 1; 1 is stalest.
        assert_eq!(lfu.clone().evict_candidate(), Some(1));
        lfu.on_access(&1); // bump 1 to freq 2 AND most recent
        assert_eq!(lfu.evict_candidate(), Some(2));
    }

    #[test]
    fn frequency_accessor() {
        let mut lfu = Lfu::new();
        lfu.on_insert(&7u32);
        assert_eq!(lfu.frequency(&7), 1);
        lfu.on_access(&7);
        lfu.on_access(&7);
        assert_eq!(lfu.frequency(&7), 3);
        assert_eq!(lfu.frequency(&8), 0);
    }

    #[test]
    fn reinsert_after_eviction_resets_count() {
        let mut lfu = Lfu::new();
        lfu.on_insert(&1u32);
        for _ in 0..10 {
            lfu.on_access(&1);
        }
        assert_eq!(lfu.evict_candidate(), Some(1));
        lfu.on_insert(&1);
        assert_eq!(lfu.frequency(&1), 1, "history must not survive eviction");
    }

    #[test]
    fn reinsert_of_live_key_counts_as_access() {
        let mut lfu = Lfu::new();
        lfu.on_insert(&1u32);
        lfu.on_insert(&1);
        assert_eq!(lfu.tracked(), 1);
        assert_eq!(lfu.frequency(&1), 2);
    }

    #[test]
    fn remove_untracks() {
        let mut lfu = Lfu::new();
        lfu.on_insert(&1u32);
        lfu.on_insert(&2);
        lfu.on_remove(&2);
        assert_eq!(lfu.tracked(), 1);
        lfu.on_remove(&42); // unknown: no-op
        assert_eq!(lfu.evict_candidate(), Some(1));
    }
}
