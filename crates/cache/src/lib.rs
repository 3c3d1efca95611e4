//! # agar-cache — the in-memory chunk cache substrate
//!
//! The Agar paper deploys one memcached instance per region and drives it
//! either with memcached's native LRU (the LRU baselines), with an
//! LFU-tracking proxy (the LFU baselines), or with explicit hints from
//! Agar's cache manager. This crate provides that caching layer in Rust:
//!
//! - [`Cache`] — a byte-bounded map with per-entry weights and
//!   hit/miss/eviction [`CacheStats`] (including the paper's
//!   total-vs-partial object hit accounting for Figure 7);
//! - the two eviction policies the paper's baselines use, [`Lru`] and
//!   [`Lfu`], selectable at runtime through [`AnyPolicy`]/[`PolicyKind`];
//! - [`ShardedChunkCache`] and [`TieredChunkCache`] — the lock-striped
//!   RAM tier and the RAM-over-disk hierarchy an Agar node runs on,
//!   recording into one table of live counters ([`AtomicCacheStats`]).
//!
//! # Examples
//!
//! A 10 MB chunk cache with the runtime-selectable policy the experiment
//! harness uses:
//!
//! ```
//! use agar_cache::{AnyPolicy, Cache, CachedChunk, PolicyKind};
//! use agar_ec::{ChunkId, ObjectId};
//! use bytes::Bytes;
//!
//! let mut cache = Cache::with_capacity(
//!     10 * 1_000_000,
//!     AnyPolicy::new(PolicyKind::Lfu),
//! );
//! let id = ChunkId::new(ObjectId::new(0), 3);
//! cache.insert(id, CachedChunk::new(Bytes::from(vec![0u8; 111_112]), 1));
//! assert!(cache.get(&id).is_some());
//! assert_eq!(cache.stats().chunk_hits(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cache;
pub mod disk;
pub mod lfu;
pub mod lru;
pub mod policy;
pub mod sharded;
pub mod stats;
pub mod tiered;

pub use cache::{Cache, CachedChunk, InsertOutcome, Weigh};
pub use disk::{DiskPutOutcome, DiskStore};
pub use lfu::Lfu;
pub use lru::Lru;
pub use policy::{AnyPolicy, EvictionPolicy, PolicyKind};
pub use sharded::{ShardedChunkCache, DEFAULT_CACHE_SHARDS};
pub use stats::{AtomicCacheStats, CacheStats};
pub use tiered::{CacheTier, TieredChunkCache};

use agar_ec::ChunkId;

/// The chunk cache type the rest of the system uses: keyed by
/// [`ChunkId`], holding [`CachedChunk`]s, with a runtime-selected policy.
pub type ChunkCache = Cache<ChunkId, CachedChunk, AnyPolicy<ChunkId>>;

/// Builds a [`ChunkCache`] of `capacity_bytes` with the given policy.
pub fn chunk_cache(capacity_bytes: usize, kind: PolicyKind) -> ChunkCache {
    Cache::with_capacity(capacity_bytes, AnyPolicy::new(kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_ec::ObjectId;
    use bytes::Bytes;

    #[test]
    fn chunk_cache_alias_works_end_to_end() {
        let mut cache = chunk_cache(1000, PolicyKind::Lru);
        for i in 0..20u8 {
            let id = ChunkId::new(ObjectId::new(0), i);
            cache.insert(id, CachedChunk::new(Bytes::from(vec![i; 100]), 0));
        }
        // 1000 bytes capacity, 100-byte chunks: at most 10 live entries.
        assert_eq!(cache.len(), 10);
        assert!(cache.used_bytes() <= 1000);
        // The last 10 inserted survive under LRU.
        for i in 10..20u8 {
            assert!(cache.contains(&ChunkId::new(ObjectId::new(0), i)));
        }
    }
}
