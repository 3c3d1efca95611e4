//! Property-based tests for the sharded chunk cache: exact LRU against a
//! reference model on one shard, and the budget, accounting, counter and
//! version invariants on any number of shards.

use agar_cache::{CachedChunk, PolicyKind, ShardedChunkCache};
use agar_ec::{ChunkId, ObjectId};
use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::{HashMap, VecDeque};

/// A scripted cache operation over 32 keys.
#[derive(Clone, Debug)]
enum Op {
    Insert {
        key: u8,
        weight: usize,
        version: u64,
    },
    Get(u8),
    Remove(u8),
    RemoveObject(u8),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 1usize..=64, 0u64..4).prop_map(|(k, weight, version)| Op::Insert {
            key: k % 32,
            weight,
            version,
        }),
        any::<u8>().prop_map(|k| Op::Get(k % 32)),
        any::<u8>().prop_map(|k| Op::Remove(k % 32)),
        any::<u8>().prop_map(|k| Op::RemoveObject(k % 8)),
    ]
}

/// Key `k` is chunk `k % 4` of object `k / 4`.
fn id(key: u8) -> ChunkId {
    ChunkId::new(ObjectId::new(u64::from(key / 4)), key % 4)
}

fn chunk(weight: usize, version: u64) -> CachedChunk {
    CachedChunk::new(Bytes::from(vec![0u8; weight]), version)
}

/// What is cached, with its version.
fn resident(cache: &ShardedChunkCache) -> HashMap<ChunkId, u64> {
    cache
        .keys()
        .into_iter()
        .map(|key| (key, cache.version_of(&key).expect("a listed key is cached")))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One shard behaves exactly like a straightforward reference model
    /// (a recency deque over fixed-size entries).
    #[test]
    fn one_shard_matches_the_lru_reference_model(
        ops in vec(op_strategy(), 1..150),
        capacity_units in 1usize..20,
    ) {
        // Fixed-size entries make the reference model exact.
        const UNIT: usize = 8;
        let cache = ShardedChunkCache::new(capacity_units * UNIT, PolicyKind::Lru, 1);
        let mut model: VecDeque<u8> = VecDeque::new(); // front = LRU

        for op in &ops {
            match *op {
                Op::Insert { key, .. } => {
                    prop_assert!(cache.insert(id(key), chunk(UNIT, 1)));
                    model.retain(|&x| x != key);
                    model.push_back(key);
                    while model.len() > capacity_units {
                        model.pop_front();
                    }
                }
                Op::Get(key) => {
                    let hit = cache.get(&id(key)).is_some();
                    let model_hit = model.contains(&key);
                    prop_assert_eq!(hit, model_hit, "get({}) divergence", key);
                    if model_hit {
                        model.retain(|&x| x != key);
                        model.push_back(key);
                    }
                }
                Op::Remove(key) => {
                    let removed = cache.remove(&id(key)).is_some();
                    prop_assert_eq!(removed, model.contains(&key));
                    model.retain(|&x| x != key);
                }
                Op::RemoveObject(object) => {
                    let removed = cache.remove_matching(|c| c.object() == ObjectId::new(object.into()));
                    let before = model.len();
                    model.retain(|&x| x / 4 != object);
                    prop_assert_eq!(removed, before - model.len());
                }
            }
            prop_assert_eq!(cache.len(), model.len());
            for &key in &model {
                prop_assert!(cache.contains(&id(key)), "model key {} missing from cache", key);
            }
        }
    }

    /// Over 1–8 shards, variable weights and versions: the byte budget
    /// holds, `used_bytes` is the sum of the cached weights, every get is
    /// one hit or one miss, `insertions` counts exactly the stored
    /// inserts and bounds `evictions`, an insert is refused exactly when
    /// it is too large or older than the resident entry, and a key's
    /// cached version never decreases while it stays cached.
    #[test]
    fn any_shard_count_holds_budget_accounting_and_versions(
        ops in vec(op_strategy(), 1..200),
        shards in 1usize..=8,
        capacity in 0usize..256,
    ) {
        let cache = ShardedChunkCache::new(capacity, PolicyKind::Lru, shards);
        let (mut gets, mut stored) = (0u64, 0u64);
        let mut before = HashMap::new();
        for op in &ops {
            match *op {
                Op::Insert { key, weight, version } => {
                    let newer_resident = before.get(&id(key)).is_some_and(|&v| v > version);
                    let ok = cache.insert(id(key), chunk(weight, version));
                    prop_assert_eq!(ok, weight <= capacity && !newer_resident);
                    stored += u64::from(ok);
                }
                Op::Get(key) => {
                    gets += 1;
                    let _ = cache.get(&id(key));
                }
                Op::Remove(key) => {
                    let _ = cache.remove(&id(key));
                }
                Op::RemoveObject(object) => {
                    cache.remove_matching(|c| c.object() == ObjectId::new(object.into()));
                }
            }
            let now = resident(&cache);
            prop_assert!(cache.used_bytes() <= capacity);
            let weights: usize = now
                .keys()
                .map(|key| cache.peek(key).expect("a listed key is cached").data().len())
                .sum();
            prop_assert_eq!(cache.used_bytes(), weights);
            prop_assert_eq!(cache.len(), now.len());
            for (key, version) in &now {
                if let Some(old) = before.get(key) {
                    prop_assert!(version >= old, "{:?} went from v{} to v{}", key, old, version);
                }
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.chunk_hits() + stats.chunk_misses(), gets);
            prop_assert_eq!(stats.insertions(), stored);
            prop_assert!(stats.evictions() <= stats.insertions());
            before = now;
        }
    }
}
