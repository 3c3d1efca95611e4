//! The paper's baseline clients (§V-A), all one [`FixedChunksClient`]:
//!
//! - **LRU-c** — memcached-style: per-chunk LRU cache storing a
//!   predefined number `c` of chunks per object, populated on every read;
//! - **LFU-c** — the paper's LFU client: a proxy tracks per-object
//!   request frequency and the cache is reconfigured every period to the
//!   top objects' `c` chunks (the paper sets the same 30 s period for
//!   Agar and LFU);
//! - **Backend** — no cache at all: the zero-chunk, zero-byte LRU
//!   client of [`FixedChunksClient::backend_only`].
//!
//! The caching baselines keep their chunks in a one-shard
//! [`ShardedChunkCache`] — exact LRU, memcached's order. Every baseline
//! reads through the node's stages (`read.rs`: one route for every
//! client): one object lookup at the manifest's version (the cache
//! serves chunks at it and drops older ones; no baseline runs beside a
//! writer, so none ever holds a newer one), [`ReadPlanner::plan`] with
//! the hits as RAM hits and static estimates, a [`DirectFetcher`], then
//! bind, decode and price — so a baseline differs from Agar only in
//! what it caches. All implement [`CachingClient`], so the experiment harness
//! drives Agar and the baselines identically.

use crate::config::CacheConfiguration;
use crate::error::AgarError;
use crate::fetcher::{ChunkFetcher, DirectFetcher};
use crate::monitor::RequestMonitor;
use crate::node::read::{backend_requests, bind, decode, fill_fetch, price};
use crate::node::{CachingClient, EpochClock, ReadMetrics};
use crate::options::generate_options;
use crate::planner::{LocalHits, ReadPlanner};
use agar_cache::{CacheStats, CachedChunk, PolicyKind, ShardedChunkCache};
use agar_ec::{ChunkId, ObjectId};
use agar_net::{RegionId, SimTime};
use agar_obs::DecodeKind;
use agar_store::{Backend, ObjectManifest};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
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

struct BaselineInner {
    monitor: RequestMonitor,
    /// LFU only: objects admitted this epoch.
    admitted: HashSet<ObjectId>,
    rng: StdRng,
    epoch_clock: EpochClock,
}

/// The LRU-c / LFU-c / Backend baseline client.
pub struct FixedChunksClient {
    region: RegionId,
    backend: Arc<Backend>,
    fetcher: DirectFetcher,
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
            policy,
            chunks_per_object,
            cache_read,
            cache: ShardedChunkCache::new(capacity_bytes, PolicyKind::Lru, 1),
            ..Self::backend_only(region, backend, client_overhead, seed)
        })
    }

    /// The paper's cache-less "Backend" client: every chunk comes from
    /// the store. It is the zero-chunk, zero-byte LRU baseline.
    pub fn backend_only(
        region: RegionId,
        backend: Arc<Backend>,
        client_overhead: Duration,
        seed: u64,
    ) -> Self {
        FixedChunksClient {
            region,
            estimates: static_estimates(&backend, region),
            fetcher: DirectFetcher::new(Arc::clone(&backend)),
            backend,
            policy: BaselinePolicy::Lru,
            chunks_per_object: 0,
            cache_read: Duration::ZERO,
            client_overhead,
            cache: ShardedChunkCache::new(0, PolicyKind::Lru, 1),
            inner: Mutex::new(BaselineInner {
                monitor: RequestMonitor::new(),
                admitted: HashSet::new(),
                rng: StdRng::seed_from_u64(seed),
                epoch_clock: EpochClock::default(),
            }),
        }
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

        // Lookup: one visit at the manifest's version, which drops
        // older chunks.
        let mut hits = LocalHits::default();
        self.cache.lookup_object(
            object,
            designated.iter().copied(),
            version,
            true,
            |index, chunk| hits.ram.push((index, chunk.data().clone())),
        );
        let cache_hits = hits.ram.len();

        // Plan → fetch → bind → decode → price, as the node reads.
        let plan = ReadPlanner::new(&manifest, &CacheConfiguration::empty()).plan(
            hits,
            &[],
            &self.backend,
            &self.estimates,
            Duration::ZERO,
        )?;
        let requests = backend_requests(&plan, &manifest);
        let mut arrivals = Vec::with_capacity(requests.len());
        let responses = self.fetcher.fetch(self.region, &requests, &mut inner.rng);
        for (position, (request, result)) in responses.into_iter().enumerate() {
            let fetch = result?;
            if fetch.version != version {
                return Err(AgarError::ReadContention { object });
            }
            arrivals.push((position, request, fetch));
        }
        let total = manifest.params().total_chunks();
        let bound = bind(total, plan.sources, arrivals, requests.len());
        let counters = self.cache.counters();
        let (data, kind) = decode(self.backend.codec(), &manifest, &bound.shards, counters)?;
        counters.record_object_read(cache_hits, manifest.params().data_chunks());
        let costs = (self.client_overhead, self.cache_read, Duration::ZERO);
        let (_, latency) = price(costs, cache_hits, &bound, Duration::ZERO);

        // Populate the cache (async in the paper: no latency impact).
        let mut fill_fetches = 0;
        if may_cache {
            for &index in &designated {
                let id = ChunkId::new(object, index);
                if self.cache.contains(&id) {
                    continue;
                }
                let payload = bound.shards[index as usize].clone().or_else(|| {
                    fill_fetch(
                        &self.fetcher,
                        self.region,
                        &manifest,
                        index,
                        &mut inner.rng,
                        &mut fill_fetches,
                    )
                });
                if let Some(p) = payload {
                    self.cache.insert(id, CachedChunk::new(p, version));
                }
            }
        }

        Ok(ReadMetrics {
            data,
            latency,
            cache_hits,
            backend_fetches: bound.backend_fetches,
            fill_fetches: fill_fetches as usize,
            remote_hits: 0,
            decoded: kind != DecodeKind::Systematic,
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
        let due = inner.epoch_clock.tick(now);
        if due {
            self.reconfigure_lfu(inner);
        }
        due
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
        match self.chunks_per_object {
            0 => "Backend".to_string(),
            c => format!("{}-{c}", self.policy),
        }
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
        let client =
            FixedChunksClient::backend_only(FRANKFURT, backend, Duration::from_millis(100), 5);
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

    /// What [`pinned_run`] leaves: a fold of every read, the stats that
    /// moved and the cache contents.
    type Pinned = (u64, [u64; 10], String);

    /// 200 Zipf reads through `client` on RS(9, 3) over six regions,
    /// with one region failed at read 100 and a second at read 150
    /// (8 < k chunks left outside the cache), the clock 400 ms a read.
    /// Folds every read's (latency µs, cache hits, backend fetches,
    /// fill fetches, decoded), or its error, into one word.
    fn pinned_run(client: &dyn CachingClient, backend: &Backend) -> Pinned {
        use agar_net::presets::{SYDNEY, TOKYO};
        use agar_workload::Zipfian;
        let zipf = Zipfian::new(20, 1.1).unwrap();
        let mut rng = StdRng::seed_from_u64(38);
        let mut fold = 0xcbf2_9ce4_8422_2325u64;
        let mut mix = |word: u64| fold = (fold ^ word).wrapping_mul(0x0100_0000_01b3);
        for i in 0..200u64 {
            match i {
                100 => backend.fail_region(SYDNEY),
                150 => backend.fail_region(TOKYO),
                _ => {}
            }
            client.maybe_reconfigure(SimTime::from_micros(i * 400_000));
            match client.read(ObjectId::new(zipf.sample(&mut rng))) {
                Ok(m) => [
                    m.latency.as_micros() as u64,
                    m.cache_hits as u64,
                    m.backend_fetches as u64,
                    m.fill_fetches as u64,
                    u64::from(m.decoded),
                ]
                .into_iter()
                .for_each(&mut mix),
                Err(error) => error.to_string().bytes().for_each(|b| mix(u64::from(b))),
            }
        }
        let s = client.cache_stats();
        let stats = [
            s.chunk_hits,
            s.chunk_misses,
            s.insertions,
            s.evictions,
            s.rejected_inserts,
            s.object_total_hits,
            s.object_partial_hits,
            s.object_misses,
            s.decode_plan_hits,
            s.systematic_fast_reads,
        ];
        (fold, stats, format!("{:?}", client.cache_contents()))
    }

    #[test]
    fn baseline_reads_are_pinned() {
        let (overhead, cache_read) = (Duration::from_millis(100), Duration::from_millis(40));
        let fixed = |policy| {
            let backend = test_backend(20, 900);
            let client = FixedChunksClient::new(
                FRANKFURT,
                Arc::clone(&backend),
                policy,
                3,
                1_500,
                cache_read,
                overhead,
                9,
            );
            pinned_run(&client.unwrap(), &backend)
        };
        let contents = |objects: [u64; 5]| {
            let chunks = objects.map(|o| (ObjectId::new(o), vec![3u8, 4, 9]));
            format!("{:?}", BTreeMap::from(chunks))
        };
        let lru = (
            2_108_222_303_992_557_720,
            [324, 276, 195, 180, 0, 0, 108, 65, 172, 0],
            contents([0, 1, 3, 10, 17]),
        );
        assert_eq!(fixed(BaselinePolicy::Lru), lru);
        let lfu = (
            15_368_570_679_258_185_643,
            [240, 360, 15, 0, 0, 0, 80, 99, 178, 0],
            contents([0, 1, 2, 3, 7]),
        );
        assert_eq!(fixed(BaselinePolicy::LfuEpoch), lfu);
        let backend = test_backend(20, 900);
        let cacheless =
            FixedChunksClient::backend_only(FRANKFURT, Arc::clone(&backend), overhead, 9);
        let cacheless_run = (
            103_986_614_790_712_302,
            [0, 0, 0, 0, 0, 0, 0, 150, 149, 0],
            "{}".to_string(),
        );
        assert_eq!(pinned_run(&cacheless, &backend), cacheless_run);
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
