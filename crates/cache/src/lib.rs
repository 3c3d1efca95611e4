//! # agar-cache — the chunk cache substrate
//!
//! The Agar paper deploys one memcached instance per region and runs it
//! in two regimes: memcached's own LRU (the LRU-c baselines; the LFU-c
//! baseline's frequency proxy only decides what is admitted), and
//! contents dictated by Agar's cache manager. This crate provides that
//! layer in Rust:
//!
//! - [`ShardedChunkCache`] — the one RAM chunk store: lock-striped LRU
//!   shards under a global byte budget, with version-monotone inserts
//!   (one shard is exact LRU, what the baselines run);
//! - [`TieredChunkCache`] — the RAM-over-disk hierarchy an Agar node
//!   runs on, the [`DiskStore`] append-log under the sharded RAM tier;
//! - [`CacheStats`] / [`AtomicCacheStats`] — one table of counters,
//!   including the paper's total-vs-partial object hit accounting for
//!   Figure 7.
//!
//! # Examples
//!
//! A 10 MB chunk cache with one shard — exact LRU, as the baselines
//! run it:
//!
//! ```
//! use agar_cache::{CachedChunk, PolicyKind, ShardedChunkCache};
//! use agar_ec::{ChunkId, ObjectId};
//! use bytes::Bytes;
//!
//! let cache = ShardedChunkCache::new(10 * 1_000_000, PolicyKind::Lru, 1);
//! let id = ChunkId::new(ObjectId::new(0), 3);
//! cache.insert(id, CachedChunk::new(Bytes::from(vec![0u8; 111_112]), 1));
//! assert!(cache.get(&id).is_some());
//! assert_eq!(cache.stats().chunk_hits(), 1);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod disk;
pub mod sharded;
pub mod stats;
pub mod tiered;

pub use disk::{DiskCounters, DiskPutOutcome, DiskStore};
pub use sharded::{CachedChunk, PolicyKind, ShardedChunkCache, DEFAULT_CACHE_SHARDS};
pub use stats::{AtomicCacheStats, CacheStats};
pub use tiered::{CacheTier, TieredChunkCache};
