//! The geo-distributed erasure-coded backend (the paper's Figure 1
//! substrate): one bucket per region, round-robin chunk placement, and
//! latency-modelled chunk fetches.

use crate::bucket::{Bucket, StoredChunk};
use crate::error::StoreError;
use crate::manifest::ObjectManifest;
use crate::placement::PlacementPolicy;
use agar_ec::{ChunkId, CodingParams, ObjectId, ReedSolomon};
use agar_net::latency::LatencyModel;
use agar_net::{RegionId, Topology};
use bytes::Bytes;
use parking_lot::RwLock;
use rand::RngCore;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Result of fetching one chunk from the backend.
#[derive(Clone, Debug)]
pub struct ChunkFetch {
    /// The chunk payload.
    pub data: Bytes,
    /// Version of the owning object the chunk encodes.
    pub version: u64,
    /// Simulated fetch latency.
    pub latency: Duration,
}

/// Result of an acknowledged [`Backend::put_object`].
#[derive(Clone, Debug)]
pub struct ObjectPut {
    /// The version the write created.
    pub version: u64,
    /// Simulated write latency: the slowest of the parallel chunk
    /// writes.
    pub latency: Duration,
    /// The `k + m` shards the write encoded and stored, by chunk index
    /// — what the writer's cache keeps of the version it just made
    /// instead of fetching it back. The data shards are slices of the
    /// encoder's one `k × chunk` buffer (the parity shards of its
    /// `m × chunk` one), which this in-process backend's buckets keep
    /// alive anyway, so holding some of them costs no extra memory; a
    /// networked backend would hand back copies.
    pub shards: Vec<Bytes>,
}

/// Result of a region-batched multi-chunk fetch
/// ([`Backend::fetch_chunks`]).
#[derive(Clone, Debug)]
pub struct BatchFetchOutcome {
    /// Per-chunk outcomes, in request order. Every chunk of a batch
    /// that hit the same region carries that region's single
    /// round-trip latency.
    pub results: Vec<(ChunkId, Result<ChunkFetch, StoreError>)>,
    /// The priced round trips issued: one `(region, latency)` entry
    /// per region that served at least one chunk.
    pub round_trips: Vec<(RegionId, Duration)>,
    /// The slowest round trip (groups fetch in parallel, so this is
    /// the batch's end-to-end latency).
    pub worst_latency: Duration,
}

impl BatchFetchOutcome {
    /// Number of priced round trips (region groups) the batch issued.
    pub fn batches(&self) -> usize {
        self.round_trips.len()
    }
}

/// The multi-region erasure-coded object store.
///
/// Thread-safe behind `&self`; clients own their RNGs so all randomness
/// stays caller-seeded and deterministic.
pub struct Backend {
    topology: Topology,
    latency: Arc<dyn LatencyModel>,
    params: CodingParams,
    codec: ReedSolomon,
    placement: Box<dyn PlacementPolicy>,
    buckets: Vec<Bucket>,
    manifests: RwLock<HashMap<ObjectId, ObjectManifest>>,
}

impl Backend {
    /// Creates an empty backend.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Coding`] if the coding parameters are
    /// rejected by the codec, or [`StoreError::InvalidPlacement`] if the
    /// topology is empty.
    pub fn new(
        topology: Topology,
        latency: Arc<dyn LatencyModel>,
        params: CodingParams,
        placement: Box<dyn PlacementPolicy>,
    ) -> Result<Self, StoreError> {
        if topology.is_empty() {
            return Err(StoreError::InvalidPlacement {
                what: "topology must have at least one region",
            });
        }
        let codec = ReedSolomon::new(params)?;
        let buckets = topology.ids().map(Bucket::new).collect();
        Ok(Backend {
            topology,
            latency,
            params,
            codec,
            placement,
            buckets,
            manifests: RwLock::new(HashMap::new()),
        })
    }

    /// The deployment topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The erasure-coding parameters.
    pub fn params(&self) -> CodingParams {
        self.params
    }

    /// The shared latency model.
    pub fn latency_model(&self) -> &Arc<dyn LatencyModel> {
        &self.latency
    }

    /// The codec (shared with clients so they can decode).
    pub fn codec(&self) -> &ReedSolomon {
        &self.codec
    }

    fn bucket(&self, region: RegionId) -> Result<&Bucket, StoreError> {
        self.buckets
            .get(region.index())
            .ok_or(StoreError::InvalidPlacement {
                what: "region outside topology",
            })
    }

    /// Encodes and stores an object, creating or bumping its manifest,
    /// and hands back what it stored (see [`ObjectPut`]).
    ///
    /// The write latency is the maximum over the sampled per-chunk write
    /// latencies (chunks are written in parallel from `writer_region`).
    ///
    /// # Errors
    ///
    /// - [`StoreError::RegionUnavailable`] if any placement target is
    ///   failed (writes require full placement, like S3's durability).
    /// - [`StoreError::Coding`] for empty payloads.
    pub fn put_object(
        &self,
        writer_region: RegionId,
        object: ObjectId,
        data: &[u8],
        rng: &mut dyn RngCore,
    ) -> Result<ObjectPut, StoreError> {
        let (version, shards, locations) = self.install(object, data, usize::MAX)?;
        let mut worst = Duration::ZERO;
        for (shard, &region) in shards.iter().zip(&locations) {
            let latency = self.latency.sample(writer_region, region, shard.len(), rng);
            worst = worst.max(latency);
        }
        Ok(ObjectPut {
            version,
            latency: worst,
            shards,
        })
    }

    /// Simulates a writer process dying mid-[`Backend::put_object`]:
    /// the manifest is installed (version bumped, same lock discipline
    /// as a real write) but only the first `written_chunks` chunks land
    /// carrying the new version — the rest keep their previous bytes
    /// *and* previous version tag. Readers racing the torn state see
    /// cross-chunk version mismatches, never a torn decode: the chunks
    /// that did land are internally consistent with the new manifest,
    /// and the stale remainder is rejected by the version check. A
    /// subsequent full `put_object` (the fencing writer's rewrite)
    /// repairs the object. Returns the torn manifest version.
    ///
    /// This is a fault-injection hook for chaos tests; no latency is
    /// charged because the writer never lived to observe one.
    ///
    /// # Errors
    ///
    /// Same preconditions as [`Backend::put_object`].
    pub fn put_object_interrupted(
        &self,
        object: ObjectId,
        data: &[u8],
        written_chunks: usize,
    ) -> Result<u64, StoreError> {
        let (version, _, _) = self.install(object, data, written_chunks)?;
        Ok(version)
    }

    /// The write both puts share: encode, place, check that every
    /// target region is reachable, install the new manifest, and store
    /// the first `landed` shards at its version. Draws no randomness
    /// and charges no latency. Returns the version, the shards and
    /// their regions, by chunk index.
    fn install(
        &self,
        object: ObjectId,
        data: &[u8],
        landed: usize,
    ) -> Result<(u64, Vec<Bytes>, Vec<RegionId>), StoreError> {
        let shards = self.codec.encode_object(data)?;
        let total = self.params.total_chunks();
        let locations = self.placement.place(object, total, self.topology.len());
        if locations.len() != total {
            return Err(StoreError::InvalidPlacement {
                what: "placement did not cover every chunk",
            });
        }
        for &region in &locations {
            if !self.bucket(region)?.is_available() {
                return Err(StoreError::RegionUnavailable { region });
            }
        }

        // Install the new manifest under the lock: a rewrite replaces
        // the whole entry (bumped version, the NEW payload size and
        // placement), not just the version — a rewrite with a
        // different size re-encodes every chunk at a new chunk size,
        // and a manifest still advertising the old size would make
        // readers truncate decodes against the wrong length (leaking
        // the codec's zero padding into returned data).
        let version = {
            let mut manifests = self.manifests.write();
            let version = manifests
                .get(&object)
                .map_or(1, |manifest| manifest.version() + 1);
            manifests.insert(
                object,
                ObjectManifest::new(object, data.len(), version, self.params, locations.clone()),
            );
            version
        };
        for (i, (shard, &region)) in shards.iter().zip(&locations).enumerate().take(landed) {
            let id = ChunkId::new(object, i as u8);
            self.bucket(region)?.put(id, shard.clone(), version);
        }
        Ok((version, shards, locations))
    }

    /// Returns a copy of the object's manifest.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownObject`] if the object was never
    /// written.
    pub fn manifest(&self, object: ObjectId) -> Result<ObjectManifest, StoreError> {
        self.manifests
            .read()
            .get(&object)
            .cloned()
            .ok_or(StoreError::UnknownObject { object })
    }

    /// Fetches one chunk on behalf of a client in `client_region`,
    /// sampling the WAN latency.
    ///
    /// # Errors
    ///
    /// - [`StoreError::UnknownObject`] / [`StoreError::UnknownChunk`] for
    ///   missing metadata or data;
    /// - [`StoreError::RegionUnavailable`] if the hosting region is
    ///   failed.
    pub fn fetch_chunk(
        &self,
        client_region: RegionId,
        chunk: ChunkId,
        rng: &mut dyn RngCore,
    ) -> Result<ChunkFetch, StoreError> {
        let (region, stored) = self.resolve(chunk)?;
        let latency = self
            .latency
            .sample(client_region, region, stored.data.len(), rng);
        Ok(ChunkFetch {
            data: stored.data,
            version: stored.version,
            latency,
        })
    }

    /// Fetches several chunks in region-batched round trips on behalf
    /// of a client in `client_region`.
    ///
    /// Chunks are grouped by hosting region (in first-appearance
    /// order, so latency sampling stays deterministic) and each group
    /// is priced as **one** round trip via
    /// [`agar_net::latency::LatencyModel::sample_batch`]: the fixed
    /// per-request overhead is paid once per region instead of once
    /// per chunk. Groups are conceptually issued in parallel, so a
    /// whole-plan batch completes in `worst_latency` — the slowest
    /// group's round trip.
    ///
    /// Failures are reported per chunk (unknown objects, missing
    /// chunks, failed regions); one bad chunk never poisons the rest
    /// of the batch. A failed region's group samples no latency.
    pub fn fetch_chunks(
        &self,
        client_region: RegionId,
        chunks: &[ChunkId],
        rng: &mut dyn RngCore,
    ) -> BatchFetchOutcome {
        // Resolve every chunk to (region, payload) first, then price
        // one round trip per region over the successfully resolved
        // payload sizes.
        let mut resolved: Vec<Result<(RegionId, StoredChunk), StoreError>> =
            chunks.iter().map(|&chunk| self.resolve(chunk)).collect();

        // One priced round trip per region, grouped in first-appearance
        // order (deterministic sampling order).
        let mut regions: Vec<RegionId> = Vec::new();
        for entry in resolved.iter().flatten() {
            if !regions.contains(&entry.0) {
                regions.push(entry.0);
            }
        }
        let mut worst = Duration::ZERO;
        let mut round_trips = Vec::with_capacity(regions.len());
        let mut latency_of = vec![Duration::ZERO; self.topology.len()];
        for &region in &regions {
            let sizes: Vec<usize> = resolved
                .iter()
                .flatten()
                .filter(|(r, _)| *r == region)
                .map(|(_, stored)| stored.data.len())
                .collect();
            let latency = self
                .latency
                .sample_batch(client_region, region, &sizes, rng);
            latency_of[region.index()] = latency;
            worst = worst.max(latency);
            round_trips.push((region, latency));
        }

        let results = chunks
            .iter()
            .zip(resolved.drain(..))
            .map(|(&chunk, entry)| {
                let outcome = entry.map(|(region, stored)| ChunkFetch {
                    data: stored.data,
                    version: stored.version,
                    latency: latency_of[region.index()],
                });
                (chunk, outcome)
            })
            .collect();
        BatchFetchOutcome {
            results,
            round_trips,
            worst_latency: worst,
        }
    }

    /// The per-chunk half of both fetches: manifest → region → bucket →
    /// stored chunk, failing on an unknown object or chunk or a failed
    /// region.
    fn resolve(&self, chunk: ChunkId) -> Result<(RegionId, StoredChunk), StoreError> {
        let manifest = self.manifest(chunk.object())?;
        let region = manifest.location(chunk.index().value() as usize);
        let bucket = self.bucket(region)?;
        if !bucket.is_available() {
            return Err(StoreError::RegionUnavailable { region });
        }
        let stored = bucket
            .get(&chunk)
            .ok_or(StoreError::UnknownChunk { chunk, region })?;
        Ok((region, stored))
    }

    /// Marks a region failed: every fetch from it errors until healed.
    pub fn fail_region(&self, region: RegionId) {
        if let Ok(bucket) = self.bucket(region) {
            bucket.set_available(false);
        }
    }

    /// Heals a previously failed region.
    pub fn heal_region(&self, region: RegionId) {
        if let Ok(bucket) = self.bucket(region) {
            bucket.set_available(true);
        }
    }

    /// Whether the region is currently reachable.
    pub fn is_region_available(&self, region: RegionId) -> bool {
        self.bucket(region)
            .map(Bucket::is_available)
            .unwrap_or(false)
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.manifests.read().len()
    }

    /// All stored object ids (sorted, for deterministic iteration).
    pub fn object_ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.manifests.read().keys().copied().collect();
        ids.sort();
        ids
    }

    /// Total bytes stored across all buckets (data + parity).
    pub fn stored_bytes(&self) -> usize {
        self.buckets.iter().map(Bucket::stored_bytes).sum()
    }
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backend")
            .field("regions", &self.topology.len())
            .field("params", &self.params)
            .field("placement", &self.placement.name())
            .field("objects", &self.object_count())
            .field("stored_bytes", &self.stored_bytes())
            .finish()
    }
}

/// Fills a backend with `count` deterministic objects of `size` bytes
/// each, written from region 0 (population is not part of any timed
/// experiment).
///
/// # Errors
///
/// Propagates [`Backend::put_object`] failures.
pub fn populate(
    backend: &Backend,
    count: u64,
    size: usize,
    rng: &mut dyn RngCore,
) -> Result<(), StoreError> {
    let writer = RegionId::new(0);
    for i in 0..count {
        backend.put_object(writer, ObjectId::new(i), &expected_payload(i, size), rng)?;
    }
    Ok(())
}

/// The deterministic payload [`populate`] writes for object `i`: cheap,
/// and different per object — contents only matter for integrity
/// assertions in tests, examples and the benchmark. Byte `j` is
/// `(i·31 + 7j) mod 251`, the products and the sum wrapping in `u64`.
pub fn expected_payload(i: u64, size: usize) -> Vec<u8> {
    const PERIOD: usize = 251;
    let base = i.wrapping_mul(31);
    let byte = |j: usize| (base.wrapping_add(j as u64 * 7) % PERIOD as u64) as u8;
    let wraps = (size as u64)
        .checked_mul(7)
        .and_then(|span| base.checked_add(span))
        .is_none();
    if wraps {
        return (0..size).map(byte).collect();
    }
    // Without a wrap, byte `j + 251` is byte `j` (7 · 251 ≡ 0): compute
    // one period and tile it instead of a division per byte.
    let mut period = [0u8; PERIOD];
    for (j, b) in period.iter_mut().enumerate() {
        *b = byte(j);
    }
    let mut payload = Vec::with_capacity(size);
    while payload.len() < size {
        let take = (size - payload.len()).min(PERIOD);
        payload.extend_from_slice(&period[..take]);
    }
    payload
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::RoundRobin;
    use agar_net::ConstantLatency;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_backend(regions: usize) -> Backend {
        let names: Vec<String> = (0..regions).map(|i| format!("r{i}")).collect();
        Backend::new(
            Topology::from_names(names),
            Arc::new(ConstantLatency::new(Duration::from_millis(10))),
            CodingParams::new(4, 2).unwrap(),
            Box::new(RoundRobin),
        )
        .unwrap()
    }

    #[test]
    fn put_creates_manifest_and_chunks() {
        let backend = test_backend(3);
        let mut rng = StdRng::seed_from_u64(0);
        let put = backend
            .put_object(
                RegionId::new(0),
                ObjectId::new(1),
                &[1, 2, 3, 4, 5, 6, 7, 8],
                &mut rng,
            )
            .unwrap();
        assert_eq!(put.version, 1);
        assert_eq!(put.latency, Duration::from_millis(10));
        // The shards handed back are the stored ones, by chunk index.
        assert_eq!(put.shards.len(), 6);
        for (index, shard) in put.shards.iter().enumerate() {
            let id = ChunkId::new(ObjectId::new(1), index as u8);
            let stored = backend.fetch_chunk(RegionId::new(0), id, &mut rng).unwrap();
            assert_eq!((&stored.data, stored.version), (shard, 1));
        }
        let manifest = backend.manifest(ObjectId::new(1)).unwrap();
        assert_eq!(manifest.size(), 8);
        assert_eq!(manifest.chunk_size(), 2);
        assert_eq!(backend.object_count(), 1);
        // 6 chunks x 2 bytes.
        assert_eq!(backend.stored_bytes(), 12);
    }

    #[test]
    fn rewrites_bump_versions() {
        let backend = test_backend(3);
        let mut rng = StdRng::seed_from_u64(0);
        let id = ObjectId::new(0);
        backend
            .put_object(RegionId::new(0), id, &[1; 8], &mut rng)
            .unwrap();
        let v2 = backend
            .put_object(RegionId::new(0), id, &[2; 8], &mut rng)
            .unwrap()
            .version;
        assert_eq!(v2, 2);
        assert_eq!(backend.manifest(id).unwrap().version(), 2);
        // Chunks carry the new version.
        let fetch = backend
            .fetch_chunk(RegionId::new(0), ChunkId::new(id, 0), &mut rng)
            .unwrap();
        assert_eq!(fetch.version, 2);
    }

    #[test]
    fn rewrites_with_a_different_size_update_the_manifest() {
        // Regression: the manifest must advertise the NEW payload size
        // after a rewrite — the chunks are re-encoded at a new chunk
        // size, and decoding against the stale size either truncates
        // the payload or leaks the codec's zero padding.
        let backend = test_backend(3);
        let mut rng = StdRng::seed_from_u64(0);
        let id = ObjectId::new(0);
        backend
            .put_object(RegionId::new(0), id, &[1; 16], &mut rng)
            .unwrap();
        assert_eq!(backend.manifest(id).unwrap().size(), 16);
        for &size in &[6usize, 23, 16] {
            let payload = vec![9u8; size];
            let version = backend
                .put_object(RegionId::new(0), id, &payload, &mut rng)
                .unwrap()
                .version;
            let manifest = backend.manifest(id).unwrap();
            assert_eq!(manifest.version(), version);
            assert_eq!(manifest.size(), size, "manifest kept a stale size");
            // A full decode returns exactly the written payload.
            let mut shards: Vec<Option<Bytes>> = vec![None; 6];
            for (chunk, _) in manifest.chunk_locations() {
                let fetch = backend
                    .fetch_chunk(RegionId::new(0), chunk, &mut rng)
                    .unwrap();
                assert_eq!(fetch.version, version);
                shards[chunk.index().value() as usize] = Some(fetch.data);
            }
            let decoded = backend
                .codec()
                .reconstruct_object_report(&shards, manifest.size())
                .unwrap()
                .0;
            assert_eq!(decoded.as_ref(), payload.as_slice());
        }
    }

    #[test]
    fn fetch_chunk_roundtrip() {
        let backend = test_backend(3);
        let mut rng = StdRng::seed_from_u64(0);
        let id = ObjectId::new(5);
        backend
            .put_object(RegionId::new(0), id, &[9; 8], &mut rng)
            .unwrap();
        let fetch = backend
            .fetch_chunk(RegionId::new(1), ChunkId::new(id, 3), &mut rng)
            .unwrap();
        assert_eq!(fetch.data.len(), 2);
        assert_eq!(fetch.latency, Duration::from_millis(10));
    }

    #[test]
    fn unknown_object_and_chunk_errors() {
        let backend = test_backend(3);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            backend.manifest(ObjectId::new(9)),
            Err(StoreError::UnknownObject { .. })
        ));
        assert!(matches!(
            backend.fetch_chunk(
                RegionId::new(0),
                ChunkId::new(ObjectId::new(9), 0),
                &mut rng
            ),
            Err(StoreError::UnknownObject { .. })
        ));
    }

    #[test]
    fn failed_region_rejects_fetches_and_writes() {
        let backend = test_backend(3);
        let mut rng = StdRng::seed_from_u64(0);
        let id = ObjectId::new(0);
        backend
            .put_object(RegionId::new(0), id, &[1; 8], &mut rng)
            .unwrap();

        backend.fail_region(RegionId::new(1));
        assert!(!backend.is_region_available(RegionId::new(1)));
        // Chunk 1 lives in region 1 under round-robin.
        assert!(matches!(
            backend.fetch_chunk(RegionId::new(0), ChunkId::new(id, 1), &mut rng),
            Err(StoreError::RegionUnavailable { .. })
        ));
        // Writes need all target regions.
        assert!(matches!(
            backend.put_object(RegionId::new(0), ObjectId::new(2), &[1; 8], &mut rng),
            Err(StoreError::RegionUnavailable { .. })
        ));

        backend.heal_region(RegionId::new(1));
        assert!(backend
            .fetch_chunk(RegionId::new(0), ChunkId::new(id, 1), &mut rng)
            .is_ok());
    }

    #[test]
    fn populate_writes_expected_payloads() {
        let backend = test_backend(3);
        let mut rng = StdRng::seed_from_u64(0);
        populate(&backend, 5, 64, &mut rng).unwrap();
        assert_eq!(backend.object_count(), 5);
        assert_eq!(backend.object_ids().len(), 5);
        // Reconstruct object 3 from its data chunks and compare.
        let manifest = backend.manifest(ObjectId::new(3)).unwrap();
        let mut shards: Vec<Option<Bytes>> = vec![None; 6];
        for (chunk, _) in manifest.chunk_locations() {
            let fetch = backend
                .fetch_chunk(RegionId::new(0), chunk, &mut rng)
                .unwrap();
            shards[chunk.index().value() as usize] = Some(fetch.data);
        }
        let object = backend
            .codec()
            .reconstruct_object_report(&shards, manifest.size())
            .unwrap()
            .0;
        assert_eq!(object.as_ref(), expected_payload(3, 64).as_slice());
    }

    /// The tiled payload against its formula byte for byte: sizes
    /// around one period and a 1 MB object, ids whose `i·31 + 7·size`
    /// wraps `u64` (the per-byte fallback) or lands just short of it,
    /// and an id past 32 bits.
    #[test]
    fn expected_payload_matches_its_formula() {
        let wrap_edge = (u64::MAX - 7 * (1 << 20)) / 31;
        for i in [
            0,
            3,
            1 << 40,
            wrap_edge,
            wrap_edge + 1,
            u64::MAX / 31,
            u64::MAX / 31 + 1,
            u64::MAX,
        ] {
            for size in [0, 1, 250, 251, 252, 1 << 20] {
                let payload = expected_payload(i, size);
                assert_eq!(payload.len(), size);
                for (j, &b) in payload.iter().enumerate() {
                    let want = i.wrapping_mul(31).wrapping_add(j as u64 * 7) % 251;
                    assert_eq!(u64::from(b), want, "object {i}, size {size}, byte {j}");
                }
            }
        }
    }

    #[test]
    fn batched_fetch_prices_one_round_trip_per_region() {
        let backend = test_backend(3); // RS(4, 2): chunk i in region i % 3
        let mut rng = StdRng::seed_from_u64(0);
        let id = ObjectId::new(0);
        backend
            .put_object(RegionId::new(0), id, &[5; 8], &mut rng)
            .unwrap();
        // All six chunks: two per region, three round trips.
        let chunks: Vec<ChunkId> = (0..6u8).map(|i| ChunkId::new(id, i)).collect();
        let outcome = backend.fetch_chunks(RegionId::new(0), &chunks, &mut rng);
        assert_eq!(outcome.batches(), 3);
        assert_eq!(outcome.results.len(), 6);
        for (chunk, result) in &outcome.results {
            let fetch = result.as_ref().unwrap();
            assert_eq!(fetch.data.len(), 2);
            assert_eq!(fetch.version, 1);
            // ConstantLatency: every round trip is 10 ms regardless of
            // batch size, and each chunk carries its region's trip.
            assert_eq!(fetch.latency, Duration::from_millis(10));
            let _ = chunk;
        }
        assert_eq!(outcome.worst_latency, Duration::from_millis(10));
    }

    #[test]
    fn batched_fetch_reports_per_chunk_failures() {
        let backend = test_backend(3);
        let mut rng = StdRng::seed_from_u64(0);
        let id = ObjectId::new(0);
        backend
            .put_object(RegionId::new(0), id, &[5; 8], &mut rng)
            .unwrap();
        backend.fail_region(RegionId::new(1));
        let chunks = vec![
            ChunkId::new(id, 0),               // region 0: fine
            ChunkId::new(id, 1),               // region 1: failed
            ChunkId::new(ObjectId::new(9), 0), // never written
            ChunkId::new(id, 3),               // region 0: fine
        ];
        let outcome = backend.fetch_chunks(RegionId::new(0), &chunks, &mut rng);
        // Only the healthy region 0 is priced.
        assert_eq!(outcome.batches(), 1);
        assert_eq!(outcome.round_trips[0].0, RegionId::new(0));
        assert!(outcome.results[0].1.is_ok());
        assert!(matches!(
            outcome.results[1].1,
            Err(StoreError::RegionUnavailable { .. })
        ));
        assert!(matches!(
            outcome.results[2].1,
            Err(StoreError::UnknownObject { .. })
        ));
        assert!(outcome.results[3].1.is_ok());
    }

    #[test]
    fn empty_batched_fetch_is_free() {
        let backend = test_backend(3);
        let mut rng = StdRng::seed_from_u64(0);
        let outcome = backend.fetch_chunks(RegionId::new(0), &[], &mut rng);
        assert_eq!(outcome.batches(), 0);
        assert!(outcome.results.is_empty());
        assert_eq!(outcome.worst_latency, Duration::ZERO);
    }

    #[test]
    fn empty_topology_rejected() {
        let result = Backend::new(
            Topology::new(),
            Arc::new(ConstantLatency::new(Duration::ZERO)),
            CodingParams::new(2, 1).unwrap(),
            Box::new(RoundRobin),
        );
        assert!(matches!(result, Err(StoreError::InvalidPlacement { .. })));
    }

    #[test]
    fn debug_output_is_informative() {
        let backend = test_backend(3);
        let s = format!("{backend:?}");
        assert!(s.contains("round-robin"));
        assert!(s.contains("regions: 3"));
    }

    #[test]
    fn a_populated_catalogue_balances_round_robin() {
        let backend = test_backend(3);
        let mut rng = StdRng::seed_from_u64(0);
        populate(&backend, 6, 60, &mut rng).unwrap();
        // 6 chunks of 15 B over 3 regions: 2 chunks/region/object.
        assert_eq!(backend.stored_bytes(), 6 * 6 * 15);
        for object in backend.object_ids() {
            let manifest = backend.manifest(object).unwrap();
            for region in 0..3 {
                let held = manifest
                    .chunk_locations()
                    .filter(|&(_, r)| r.index() == region);
                assert_eq!(held.count(), 2);
            }
        }
    }
}
