//! The paper's baseline clients (§V-A):
//!
//! - **LRU-c** — memcached-style: per-chunk LRU cache storing a
//!   predefined number `c` of chunks per object, populated on every read;
//! - **LFU-c** — the paper's LFU client: a proxy tracks per-object
//!   request frequency and the cache is reconfigured every period to the
//!   top objects' `c` chunks (the paper sets the same 30 s period for
//!   Agar and LFU);
//! - **Backend** — no cache at all ([`BackendOnlyClient`]).
//!
//! Both caching baselines keep their chunks in a one-shard
//! [`ShardedChunkCache`] — exact LRU, memcached's order. All implement
//! [`CachingClient`], so the experiment harness drives Agar and the
//! baselines identically.

use crate::error::AgarError;
use crate::monitor::RequestMonitor;
use crate::node::{CachingClient, ReadMetrics, RECONFIGURATION_PERIOD};
use crate::options::generate_options;
use agar_cache::{AtomicCacheStats, CacheStats, CachedChunk, PolicyKind, ShardedChunkCache};
use agar_ec::{ChunkId, ObjectId};
use agar_net::{RegionId, SimTime};
use agar_store::{Backend, ObjectManifest, StoreError};
use bytes::Bytes;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Which fixed-chunk baseline policy to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BaselinePolicy {
    /// Online per-chunk LRU (memcached's behaviour): every miss inserts,
    /// the least recently used chunks are evicted.
    Lru,
    /// The paper's LFU-c baseline as every figure runs it: a
    /// request-frequency proxy admits only the most popular objects at
    /// each 30 s reconfiguration; admitted objects fill on a miss, in
    /// LRU order. (What an online per-chunk LFU reads on fig8b instead:
    /// EXPERIMENTS.md 2026-10-15 (i).)
    LfuEpoch,
}

impl std::fmt::Display for BaselinePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselinePolicy::Lru => f.write_str("LRU"),
            BaselinePolicy::LfuEpoch => f.write_str("LFUtop"),
        }
    }
}

/// Static per-region latency estimates from `region`: the model's mean
/// for a 100 kB chunk. Baselines do not probe; they rank chunks nearest
/// first, as the paper's YCSB clients do.
fn static_estimates(backend: &Backend, region: RegionId) -> Vec<Duration> {
    let model = backend.latency_model();
    backend
        .topology()
        .ids()
        .map(|r| model.mean(region, r, 100_000))
        .collect()
}

/// The backend half of one baseline read.
struct BackendRead {
    data: Bytes,
    /// Whether the decode used a parity chunk.
    decoded: bool,
    /// The slowest fetch: the fetches run in parallel.
    worst: Duration,
    /// The fetched `(index, payload)` chunks, in rank order.
    fetched: Vec<(u8, Bytes)>,
}

/// Fetches the first `k − held` ranked chunks of the manifest's object
/// that are available and not `held`, decodes the object from the held
/// and fetched chunks together, and counts the read in `counters`.
///
/// # Errors
///
/// [`StoreError::NotEnoughChunks`] when too few chunks are reachable;
/// fetch and decode errors as they come.
fn fetch_and_decode(
    backend: &Backend,
    region: RegionId,
    manifest: &ObjectManifest,
    estimates: &[Duration],
    held: &[(u8, Bytes)],
    rng: &mut dyn RngCore,
    counters: &AtomicCacheStats,
) -> Result<BackendRead, AgarError> {
    let object = manifest.object();
    let k = manifest.params().data_chunks();
    let needed = k.saturating_sub(held.len());
    let plan: Vec<u8> = manifest
        .rank_chunks(estimates)
        .into_iter()
        .map(|(index, _)| index)
        .filter(|&index| {
            backend.is_region_available(manifest.location(index as usize))
                && !held.iter().any(|&(i, _)| i == index)
        })
        .take(needed)
        .collect();
    if plan.len() < needed {
        return Err(StoreError::NotEnoughChunks {
            object,
            reachable: plan.len() + held.len(),
            needed: k,
        }
        .into());
    }
    let mut worst = Duration::ZERO;
    let mut fetched = Vec::with_capacity(needed);
    for index in plan {
        let fetch = backend.fetch_chunk(region, ChunkId::new(object, index), rng)?;
        worst = worst.max(fetch.latency);
        fetched.push((index, fetch.data));
    }
    let mut shards: Vec<Option<Bytes>> = vec![None; manifest.params().total_chunks()];
    for (index, data) in held.iter().chain(&fetched) {
        shards[*index as usize] = Some(data.clone());
    }
    let (data, report) = backend
        .codec()
        .reconstruct_object_report(&shards, manifest.size())?;
    if report.systematic_fast_path {
        counters.systematic_fast_reads.inc();
    } else if report.plan_cache_hit {
        counters.decode_plan_hits.inc();
    }
    counters.record_object_read(held.len(), k);
    Ok(BackendRead {
        data,
        decoded: !report.systematic_fast_path,
        worst,
        fetched,
    })
}

struct BaselineInner {
    monitor: RequestMonitor,
    /// LFU only: objects admitted this epoch.
    admitted: HashSet<ObjectId>,
    rng: StdRng,
    last_reconfiguration: Option<SimTime>,
}

/// The LRU-c / LFU-c baseline client.
pub struct FixedChunksClient {
    region: RegionId,
    backend: Arc<Backend>,
    policy: BaselinePolicy,
    chunks_per_object: usize,
    cache_read: Duration,
    client_overhead: Duration,
    estimates: Vec<Duration>,
    /// One shard: exact LRU.
    cache: ShardedChunkCache,
    inner: Mutex<BaselineInner>,
}

impl FixedChunksClient {
    /// Creates a baseline client caching `chunks_per_object` chunks per
    /// object in a `capacity_bytes` cache.
    ///
    /// # Errors
    ///
    /// Returns [`AgarError::InvalidSetting`] if `chunks_per_object` is
    /// zero or exceeds the code's `k`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        region: RegionId,
        backend: Arc<Backend>,
        policy: BaselinePolicy,
        chunks_per_object: usize,
        capacity_bytes: usize,
        cache_read: Duration,
        client_overhead: Duration,
        seed: u64,
    ) -> Result<Self, AgarError> {
        let k = backend.params().data_chunks();
        if chunks_per_object == 0 || chunks_per_object > k {
            return Err(AgarError::InvalidSetting {
                what: "chunks_per_object must be in 1..=k",
            });
        }
        Ok(FixedChunksClient {
            region,
            estimates: static_estimates(&backend, region),
            backend,
            policy,
            chunks_per_object,
            cache_read,
            client_overhead,
            cache: ShardedChunkCache::new(capacity_bytes, PolicyKind::Lru, 1),
            inner: Mutex::new(BaselineInner {
                monitor: RequestMonitor::new(),
                admitted: HashSet::new(),
                rng: StdRng::seed_from_u64(seed),
                last_reconfiguration: None,
            }),
        })
    }

    /// The fixed number of chunks cached per object.
    pub fn chunks_per_object(&self) -> usize {
        self.chunks_per_object
    }

    /// The `c` most distant used chunks of `object` — what this client
    /// caches, mirroring the motivating experiment's policy.
    fn designated_chunks(&self, manifest: &ObjectManifest) -> Vec<u8> {
        let options = generate_options(manifest, &self.estimates, self.cache_read, 1.0);
        options
            .by_weight(self.chunks_per_object as u32)
            .map(|o| o.chunks().to_vec())
            .unwrap_or_default()
    }

    fn read_inner(
        &self,
        inner: &mut BaselineInner,
        object: ObjectId,
    ) -> Result<ReadMetrics, AgarError> {
        inner.monitor.record_read(object);
        let manifest = self.backend.manifest(object)?;
        let version = manifest.version();

        // Which chunks this client would cache for the object, and
        // whether caching is allowed for it right now.
        let designated = self.designated_chunks(&manifest);
        let may_cache = match self.policy {
            BaselinePolicy::Lru => true,
            BaselinePolicy::LfuEpoch => inner.admitted.contains(&object),
        };

        // 1. Cache lookups (version-checked).
        let mut have: Vec<(u8, Bytes)> = Vec::new();
        for &index in &designated {
            let id = ChunkId::new(object, index);
            let stale = match self.cache.get(&id) {
                Some(chunk) if chunk.version() == version => {
                    have.push((index, chunk.data().clone()));
                    false
                }
                Some(_) => true,
                None => false,
            };
            if stale {
                self.cache.remove(&id);
            }
        }
        let cache_hits = have.len();

        // 2. Backend fetches for the remainder, and the decode.
        let read = fetch_and_decode(
            &self.backend,
            self.region,
            &manifest,
            &self.estimates,
            &have,
            &mut inner.rng,
            self.cache.counters(),
        )?;

        // 3. Latency.
        let cache_component = if cache_hits > 0 {
            self.cache_read
        } else {
            Duration::ZERO
        };
        let latency = self.client_overhead + cache_component.max(read.worst);

        // 4. Populate the cache (async in the paper: no latency impact).
        let mut fill_fetches = 0;
        if may_cache {
            for &index in &designated {
                let id = ChunkId::new(object, index);
                if self.cache.contains(&id) {
                    continue;
                }
                let payload = read
                    .fetched
                    .iter()
                    .find(|&&(i, _)| i == index)
                    .map(|(_, d)| d.clone())
                    .or_else(|| {
                        self.backend
                            .fetch_chunk(self.region, id, &mut inner.rng)
                            .ok()
                            .map(|f| {
                                fill_fetches += 1;
                                f.data
                            })
                    });
                if let Some(p) = payload {
                    self.cache.insert(id, CachedChunk::new(p, version));
                }
            }
        }

        Ok(ReadMetrics {
            data: read.data,
            latency,
            cache_hits,
            backend_fetches: read.fetched.len(),
            fill_fetches,
            remote_hits: 0,
            decoded: read.decoded,
        })
    }

    fn reconfigure_lfu(&self, inner: &mut BaselineInner) {
        inner.monitor.end_epoch();
        // Admit the top-N objects by popularity, N = capacity / (c
        // chunks per object); the catalogue is homogeneous, so any
        // manifest's chunk size sizes it.
        let chunk_size = self
            .backend
            .object_ids()
            .first()
            .and_then(|&id| self.backend.manifest(id).ok())
            .map_or(0, |m| m.chunk_size());
        if chunk_size == 0 {
            return;
        }
        let capacity_chunks = self.cache.capacity_bytes() / chunk_size;
        let n = capacity_chunks / self.chunks_per_object;
        inner.admitted = inner
            .monitor
            .popularities()
            .into_iter()
            .take(n)
            .map(|(object, _)| object)
            .collect();
        let admitted = &inner.admitted;
        self.cache
            .remove_matching(|id| !admitted.contains(&id.object()));
    }
}

impl CachingClient for FixedChunksClient {
    fn read(&self, object: ObjectId) -> Result<ReadMetrics, AgarError> {
        let inner = &mut *self.inner.lock();
        self.read_inner(inner, object)
    }

    fn maybe_reconfigure(&self, now: SimTime) -> bool {
        if self.policy != BaselinePolicy::LfuEpoch {
            return false; // LRU is purely online
        }
        let inner = &mut *self.inner.lock();
        match inner.last_reconfiguration {
            None => {
                inner.last_reconfiguration = Some(now);
                false
            }
            Some(last) => {
                if now.saturating_duration_since(last) >= RECONFIGURATION_PERIOD {
                    self.reconfigure_lfu(inner);
                    inner.last_reconfiguration = Some(now);
                    true
                } else {
                    false
                }
            }
        }
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn cache_contents(&self) -> BTreeMap<ObjectId, Vec<u8>> {
        let mut out: BTreeMap<ObjectId, Vec<u8>> = BTreeMap::new();
        for id in self.cache.keys() {
            out.entry(id.object()).or_default().push(id.index().value());
        }
        for chunks in out.values_mut() {
            chunks.sort_unstable();
        }
        out
    }

    fn label(&self) -> String {
        format!("{}-{}", self.policy, self.chunks_per_object)
    }
}

impl std::fmt::Debug for FixedChunksClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FixedChunksClient")
            .field("label", &self.label())
            .field("region", &self.region)
            .field("capacity_bytes", &self.cache.capacity_bytes())
            .finish()
    }
}

/// The cache-less "Backend" client: every chunk comes from the store.
pub struct BackendOnlyClient {
    region: RegionId,
    backend: Arc<Backend>,
    client_overhead: Duration,
    estimates: Vec<Duration>,
    rng: Mutex<StdRng>,
    stats: AtomicCacheStats,
}

impl BackendOnlyClient {
    /// Creates a backend-only client.
    pub fn new(
        region: RegionId,
        backend: Arc<Backend>,
        client_overhead: Duration,
        seed: u64,
    ) -> Self {
        BackendOnlyClient {
            region,
            estimates: static_estimates(&backend, region),
            backend,
            client_overhead,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
            stats: AtomicCacheStats::new(),
        }
    }
}

impl CachingClient for BackendOnlyClient {
    fn read(&self, object: ObjectId) -> Result<ReadMetrics, AgarError> {
        let rng = &mut *self.rng.lock();
        let manifest = self.backend.manifest(object)?;
        let read = fetch_and_decode(
            &self.backend,
            self.region,
            &manifest,
            &self.estimates,
            &[],
            rng,
            &self.stats,
        )?;
        Ok(ReadMetrics {
            data: read.data,
            latency: self.client_overhead + read.worst,
            cache_hits: 0,
            backend_fetches: read.fetched.len(),
            fill_fetches: 0,
            remote_hits: 0,
            decoded: read.decoded,
        })
    }

    fn maybe_reconfigure(&self, _now: SimTime) -> bool {
        false
    }

    fn cache_stats(&self) -> CacheStats {
        self.stats.snapshot()
    }

    fn cache_contents(&self) -> BTreeMap<ObjectId, Vec<u8>> {
        BTreeMap::new()
    }

    fn label(&self) -> String {
        "Backend".to_string()
    }
}

impl std::fmt::Debug for BackendOnlyClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BackendOnlyClient")
            .field("region", &self.region)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_ec::CodingParams;
    use agar_net::presets::{aws_six_regions, FRANKFURT};
    use agar_store::{expected_payload, populate, RoundRobin};

    fn test_backend(objects: u64, size: usize) -> Arc<Backend> {
        let preset = aws_six_regions();
        let backend = Backend::new(
            preset.topology,
            Arc::new(preset.latency),
            CodingParams::paper_default(),
            Box::new(RoundRobin),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        populate(&backend, objects, size, &mut rng).unwrap();
        Arc::new(backend)
    }

    fn lru_client(backend: Arc<Backend>, c: usize, capacity: usize) -> FixedChunksClient {
        FixedChunksClient::new(
            FRANKFURT,
            backend,
            BaselinePolicy::Lru,
            c,
            capacity,
            Duration::from_millis(40),
            Duration::from_millis(100),
            3,
        )
        .unwrap()
    }

    #[test]
    fn lru_client_caches_designated_chunks() {
        let backend = test_backend(3, 900);
        let client = lru_client(backend, 3, 900);
        assert_eq!(client.label(), "LRU-3");
        let cold = client.read(ObjectId::new(0)).unwrap();
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.data.as_ref(), expected_payload(0, 900).as_slice());
        let warm = client.read(ObjectId::new(0)).unwrap();
        assert_eq!(warm.cache_hits, 3);
        assert_eq!(warm.backend_fetches, 6, "held chunks are not fetched");
        assert!(warm.latency < cold.latency);
        // The cached chunks are the most distant used ones (Tokyo + São
        // Paulo under the calibrated matrix).
        let contents = client.cache_contents();
        assert_eq!(contents[&ObjectId::new(0)].len(), 3);
    }

    #[test]
    fn lru_evicts_older_objects() {
        let backend = test_backend(5, 900);
        // Capacity: 3 chunks of 100 bytes — one object's worth at c = 3.
        let client = lru_client(backend, 3, 300);
        client.read(ObjectId::new(0)).unwrap();
        client.read(ObjectId::new(1)).unwrap();
        // Object 0's chunks were evicted by object 1's.
        let contents = client.cache_contents();
        assert!(!contents.contains_key(&ObjectId::new(0)));
        assert!(contents.contains_key(&ObjectId::new(1)));
        let again = client.read(ObjectId::new(0)).unwrap();
        assert_eq!(again.cache_hits, 0);
    }

    #[test]
    fn full_replica_mode_hits_everything() {
        let backend = test_backend(2, 900);
        let client = lru_client(backend, 9, 1_800);
        client.read(ObjectId::new(0)).unwrap();
        let warm = client.read(ObjectId::new(0)).unwrap();
        assert_eq!(warm.cache_hits, 9);
        assert_eq!(warm.backend_fetches, 0);
        // Full hit: latency = overhead + cache read.
        assert_eq!(warm.latency, Duration::from_millis(140));
        let stats = client.cache_stats();
        assert_eq!(stats.object_total_hits(), 1);
    }

    #[test]
    fn lfu_epoch_client_admits_only_after_reconfiguration() {
        let backend = test_backend(4, 900);
        let client = FixedChunksClient::new(
            FRANKFURT,
            backend,
            BaselinePolicy::LfuEpoch,
            9,
            900, // one object's worth
            Duration::from_millis(40),
            Duration::from_millis(100),
            3,
        )
        .unwrap();
        assert_eq!(client.label(), "LFUtop-9");
        // Before any reconfiguration nothing is admitted.
        client.read(ObjectId::new(0)).unwrap();
        let warm = client.read(ObjectId::new(0)).unwrap();
        assert_eq!(warm.cache_hits, 0, "LFU must not cache unadmitted objects");

        // Make object 0 clearly hottest, then reconfigure.
        for _ in 0..20 {
            client.read(ObjectId::new(0)).unwrap();
        }
        client.read(ObjectId::new(1)).unwrap();
        assert!(!client.maybe_reconfigure(SimTime::from_secs(0))); // anchor
        assert!(client.maybe_reconfigure(SimTime::from_secs(30)));

        client.read(ObjectId::new(0)).unwrap(); // fill
        let warm = client.read(ObjectId::new(0)).unwrap();
        assert_eq!(warm.cache_hits, 9);
        // Object 1 is not admitted: no fill for it.
        client.read(ObjectId::new(1)).unwrap();
        let cold = client.read(ObjectId::new(1)).unwrap();
        assert_eq!(cold.cache_hits, 0);
    }

    #[test]
    fn lfu_epoch_reconfiguration_evicts_demoted_objects() {
        let backend = test_backend(3, 900);
        let client = FixedChunksClient::new(
            FRANKFURT,
            backend,
            BaselinePolicy::LfuEpoch,
            9,
            900,
            Duration::from_millis(40),
            Duration::from_millis(100),
            3,
        )
        .unwrap();
        // Epoch 1: object 0 hot.
        for _ in 0..20 {
            client.read(ObjectId::new(0)).unwrap();
        }
        client.maybe_reconfigure(SimTime::from_secs(0));
        client.maybe_reconfigure(SimTime::from_secs(30));
        client.read(ObjectId::new(0)).unwrap(); // fill
        assert!(client.cache_contents().contains_key(&ObjectId::new(0)));
        // Epochs 2-4: object 1 takes over.
        for epoch in 1..=3 {
            for _ in 0..100 {
                client.read(ObjectId::new(1)).unwrap();
            }
            client.maybe_reconfigure(SimTime::from_secs(30 + 30 * epoch));
        }
        let contents = client.cache_contents();
        assert!(!contents.contains_key(&ObjectId::new(0)), "{contents:?}");
    }

    #[test]
    fn invalid_chunk_count_rejected() {
        let backend = test_backend(1, 900);
        for c in [0usize, 10] {
            assert!(matches!(
                FixedChunksClient::new(
                    FRANKFURT,
                    Arc::clone(&backend),
                    BaselinePolicy::Lru,
                    c,
                    900,
                    Duration::from_millis(40),
                    Duration::from_millis(100),
                    0,
                ),
                Err(AgarError::InvalidSetting { .. })
            ));
        }
    }

    #[test]
    fn backend_only_client_never_caches() {
        let backend = test_backend(2, 900);
        let client = BackendOnlyClient::new(FRANKFURT, backend, Duration::from_millis(100), 5);
        assert_eq!(client.label(), "Backend");
        for _ in 0..3 {
            let metrics = client.read(ObjectId::new(0)).unwrap();
            assert_eq!(metrics.cache_hits, 0);
            assert_eq!(metrics.backend_fetches, 9);
            assert_eq!(metrics.data.as_ref(), expected_payload(0, 900).as_slice());
        }
        assert!(!client.maybe_reconfigure(SimTime::from_secs(100)));
        assert_eq!(client.cache_stats().object_misses(), 3);
        assert!(client.cache_contents().is_empty());
    }

    #[test]
    fn stale_versions_dropped_in_baselines() {
        let backend = test_backend(2, 900);
        let client = lru_client(Arc::clone(&backend), 3, 900);
        let object = ObjectId::new(0);
        client.read(object).unwrap();
        let warm = client.read(object).unwrap();
        assert_eq!(warm.cache_hits, 3);
        // Overwrite behind the cache's back.
        let mut rng = StdRng::seed_from_u64(2);
        let payload = vec![5u8; 900];
        backend
            .put_object(FRANKFURT, object, &payload, &mut rng)
            .unwrap();
        let metrics = client.read(object).unwrap();
        assert_eq!(metrics.cache_hits, 0);
        assert_eq!(metrics.data.as_ref(), payload.as_slice());
    }
}
