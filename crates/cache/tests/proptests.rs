//! Property-based tests for the cache: capacity invariants, policy/map
//! agreement, and reference-model equivalence for LRU.

use agar_cache::{AnyPolicy, Cache, EvictionPolicy, PolicyKind};
use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::VecDeque;

/// A scripted cache operation.
#[derive(Clone, Debug)]
enum Op {
    Insert(u8, usize),
    Get(u8),
    Remove(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 1usize..=64).prop_map(|(k, w)| Op::Insert(k % 32, w)),
        any::<u8>().prop_map(|k| Op::Get(k % 32)),
        any::<u8>().prop_map(|k| Op::Remove(k % 32)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For every policy: capacity is never exceeded, byte accounting
    /// matches the entries, and the policy tracks exactly the live keys.
    #[test]
    fn cache_invariants_hold_under_any_script(
        ops in vec(op_strategy(), 1..200),
        kind_idx in 0usize..PolicyKind::ALL.len(),
        capacity in 1usize..256,
    ) {
        let kind = PolicyKind::ALL[kind_idx];
        let mut cache = Cache::with_capacity(capacity, AnyPolicy::new(kind));
        for op in &ops {
            match *op {
                Op::Insert(k, w) => {
                    let stored = cache.insert(k, Bytes::from(vec![0u8; w])).was_stored();
                    prop_assert_eq!(stored, w <= capacity);
                }
                Op::Get(k) => {
                    let _ = cache.get(&k);
                }
                Op::Remove(k) => {
                    let _ = cache.remove(&k);
                }
            }
            // Invariant 1: never over capacity.
            prop_assert!(cache.used_bytes() <= capacity);
            // Invariant 2: used bytes equals the sum of entry weights.
            let sum: usize = cache.iter().map(|(_, v)| v.len()).sum();
            prop_assert_eq!(cache.used_bytes(), sum);
            // Invariant 3: policy and map agree on membership count.
            prop_assert_eq!(cache.policy().tracked(), cache.len());
        }
    }

    /// The LRU cache behaves exactly like a straightforward reference
    /// model (unbounded-cost simulation with a recency deque).
    #[test]
    fn lru_matches_reference_model(
        ops in vec(op_strategy(), 1..150),
        capacity_units in 1usize..20,
    ) {
        // Fixed-size entries make the reference model exact.
        const UNIT: usize = 8;
        let capacity = capacity_units * UNIT;
        let mut cache = Cache::with_capacity(capacity, AnyPolicy::<u8>::new(PolicyKind::Lru));
        let mut model: VecDeque<u8> = VecDeque::new(); // front = LRU

        for op in &ops {
            match *op {
                Op::Insert(k, _) => {
                    let _ = cache.insert(k, Bytes::from(vec![0u8; UNIT]));
                    model.retain(|&x| x != k);
                    model.push_back(k);
                    while model.len() > capacity_units {
                        model.pop_front();
                    }
                }
                Op::Get(k) => {
                    let hit = cache.get(&k).is_some();
                    let model_hit = model.contains(&k);
                    prop_assert_eq!(hit, model_hit, "get({}) divergence", k);
                    if model_hit {
                        model.retain(|&x| x != k);
                        model.push_back(k);
                    }
                }
                Op::Remove(k) => {
                    let removed = cache.remove(&k).is_some();
                    let model_had = model.contains(&k);
                    prop_assert_eq!(removed, model_had);
                    model.retain(|&x| x != k);
                }
            }
            prop_assert_eq!(cache.len(), model.len());
            for k in &model {
                prop_assert!(cache.contains(k), "model key {} missing from cache", k);
            }
        }
    }

    /// Statistics identities: hits + misses == gets, stored inserts ==
    /// insertions, and evictions never exceed insertions.
    #[test]
    fn stats_identities(
        ops in vec(op_strategy(), 1..150),
        kind_idx in 0usize..PolicyKind::ALL.len(),
    ) {
        let kind = PolicyKind::ALL[kind_idx];
        let mut cache = Cache::with_capacity(64, AnyPolicy::new(kind));
        let mut gets = 0u64;
        let mut stored = 0u64;
        for op in &ops {
            match *op {
                Op::Insert(k, w) => {
                    if cache.insert(k, Bytes::from(vec![0u8; w])).was_stored() {
                        stored += 1;
                    }
                }
                Op::Get(k) => {
                    gets += 1;
                    let _ = cache.get(&k);
                }
                Op::Remove(k) => {
                    let _ = cache.remove(&k);
                }
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.chunk_hits() + stats.chunk_misses(), gets);
        prop_assert_eq!(stats.insertions(), stored);
        prop_assert!(stats.evictions() <= stats.insertions());
    }

    /// Eviction candidates under every policy are always live keys, and
    /// draining the policy yields each key exactly once.
    #[test]
    fn policy_drain_yields_each_key_once(
        keys in vec(any::<u8>(), 1..64),
        kind_idx in 0usize..PolicyKind::ALL.len(),
    ) {
        let kind = PolicyKind::ALL[kind_idx];
        let mut policy: AnyPolicy<u8> = AnyPolicy::new(kind);
        let mut live = std::collections::HashSet::new();
        for k in &keys {
            policy.on_insert(k);
            live.insert(*k);
        }
        prop_assert_eq!(policy.tracked(), live.len());
        let mut drained = std::collections::HashSet::new();
        while let Some(victim) = policy.evict_candidate() {
            prop_assert!(live.contains(&victim), "victim {} was never live", victim);
            prop_assert!(drained.insert(victim), "victim {} yielded twice", victim);
        }
        prop_assert_eq!(drained, live);
    }
}
