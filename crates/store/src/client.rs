//! The cache-less storage client — the paper's "Backend" baseline.
//!
//! The read path follows §V-A: request the `k` cheapest chunks in
//! parallel (skipping the `m` furthest, which would only be needed under
//! failures), wait for all of them (latency = the slowest fetch), decode
//! if any parity chunk was used. Under region failures the plan degrades
//! to further regions automatically.

use crate::backend::Backend;
use crate::error::StoreError;
use agar_ec::{ChunkId, ObjectId};
use agar_net::RegionId;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::time::Duration;

/// Outcome of a whole-object read.
#[derive(Clone, Debug)]
pub struct ReadOutcome {
    /// The reconstructed object payload.
    pub data: Bytes,
    /// End-to-end latency (slowest parallel chunk fetch; the harness adds
    /// client-side overhead).
    pub latency: Duration,
    /// Which chunks were fetched and from where.
    pub sources: Vec<(ChunkId, RegionId)>,
    /// Whether Reed-Solomon decoding was required (a parity chunk was
    /// fetched or a data chunk was missing).
    pub decoded: bool,
}

/// Plans which chunks a client in a given region should fetch.
///
/// Regions are visited in ascending mean-latency order; failed regions
/// are skipped; within a region, data chunks are preferred over parity
/// (cheaper reconstruction). Exposed for reuse by the Agar node, whose
/// region manager supplies its *measured* latency ordering instead.
///
/// # Errors
///
/// Returns [`StoreError::NotEnoughChunks`] if fewer than `k` chunks are
/// reachable.
pub fn plan_backend_fetch(
    backend: &Backend,
    client_region: RegionId,
    object: ObjectId,
    region_order: &[RegionId],
    exclude: &[ChunkId],
) -> Result<Vec<(ChunkId, RegionId)>, StoreError> {
    let manifest = backend.manifest(object)?;
    let k = manifest.params().data_chunks();
    let excluded_count = exclude
        .iter()
        .filter(|c| c.object() == object)
        .count()
        .min(k);
    let needed = k - excluded_count;

    let mut plan = Vec::with_capacity(needed);
    for &region in region_order {
        if plan.len() == needed {
            break;
        }
        if !backend.is_region_available(region) {
            continue;
        }
        let mut indices = manifest.chunks_in_region(region);
        indices.sort_unstable(); // prefer data chunks (lower indices)
        for index in indices {
            if plan.len() == needed {
                break;
            }
            let id = ChunkId::new(object, index);
            if exclude.contains(&id) {
                continue;
            }
            plan.push((id, region));
        }
    }
    if plan.len() < needed {
        return Err(StoreError::NotEnoughChunks {
            object,
            reachable: plan.len() + excluded_count,
            needed: k,
        });
    }
    let _ = client_region;
    Ok(plan)
}

/// One backend source a read planner can choose from: a chunk, the
/// region holding it, and the caller-estimated fetch latency.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkCandidate {
    /// The chunk this candidate would fetch.
    pub chunk: ChunkId,
    /// The region holding the chunk.
    pub region: RegionId,
    /// Estimated fetch latency (the caller's per-region estimate for
    /// the chunk's region).
    pub estimate: Duration,
}

/// The estimate-aware companion of [`plan_backend_fetch`]: enumerates
/// *every* reachable chunk of `object` as a [`ChunkCandidate`] carrying
/// its per-chunk latency estimate, sorted cheapest-first (ties broken by
/// chunk index, so data chunks are preferred over parity at equal
/// latency). `estimates` is indexed by region id — an Agar node passes
/// its region manager's live estimates, reproducing the measured
/// ordering `plan_backend_fetch` derives from `region_order`.
///
/// Unlike [`plan_backend_fetch`] this does not pick the `k` chunks to
/// fetch: it hands the planner a uniformly priced candidate list it can
/// merge with other sources (local cache hits, collaborating
/// neighbours' caches) before choosing.
///
/// # Errors
///
/// Returns [`StoreError::UnknownObject`] if the object was never
/// written. An empty candidate list (every region down) is *not* an
/// error here; the planner decides whether it can still reconstruct.
pub fn plan_backend_fetch_with_estimates(
    backend: &Backend,
    object: ObjectId,
    estimates: &[Duration],
) -> Result<Vec<ChunkCandidate>, StoreError> {
    let manifest = backend.manifest(object)?;
    let mut candidates = Vec::with_capacity(manifest.params().total_chunks());
    for index in 0..manifest.params().total_chunks() as u8 {
        let region = manifest.location(index as usize);
        if !backend.is_region_available(region) {
            continue;
        }
        let estimate = estimates
            .get(region.index())
            .copied()
            .unwrap_or(Duration::MAX);
        candidates.push(ChunkCandidate {
            chunk: ChunkId::new(object, index),
            region,
            estimate,
        });
    }
    candidates.sort_by(|a, b| {
        a.estimate
            .cmp(&b.estimate)
            .then(a.chunk.index().cmp(&b.chunk.index()))
    });
    Ok(candidates)
}

/// Orders all regions by mean chunk-fetch latency from `client_region`.
pub fn regions_by_latency(backend: &Backend, client_region: RegionId) -> Vec<RegionId> {
    let model = backend.latency_model();
    // Nominal chunk size only scales the comparison uniformly; any
    // positive size yields the same ordering for the matrix model.
    let probe_bytes = 100_000;
    let mut regions: Vec<RegionId> = backend.topology().ids().collect();
    regions.sort_by(|&a, &b| {
        model
            .mean(client_region, a, probe_bytes)
            .cmp(&model.mean(client_region, b, probe_bytes))
    });
    regions
}

/// A closed-loop client reading whole objects directly from the backend.
#[derive(Debug)]
pub struct StorageClient {
    region: RegionId,
    rng: StdRng,
}

impl StorageClient {
    /// Creates a client homed in `region`, with its own deterministic RNG.
    pub fn new(region: RegionId, seed: u64) -> Self {
        StorageClient {
            region,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The client's home region.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// Exclusive access to the client's RNG (for composed read paths).
    pub fn rng(&mut self) -> &mut impl RngCore {
        &mut self.rng
    }

    /// Reads an object end to end: plan, parallel fetch, decode.
    ///
    /// # Errors
    ///
    /// Propagates planning and fetch errors; fails with
    /// [`StoreError::NotEnoughChunks`] when too many regions are down.
    pub fn read(&mut self, backend: &Backend, object: ObjectId) -> Result<ReadOutcome, StoreError> {
        let manifest = backend.manifest(object)?;
        let order = regions_by_latency(backend, self.region);
        let plan = plan_backend_fetch(backend, self.region, object, &order, &[])?;

        let total = manifest.params().total_chunks();
        let mut shards: Vec<Option<Bytes>> = vec![None; total];
        let mut worst = Duration::ZERO;
        for &(chunk, _) in &plan {
            let fetch = backend.fetch_chunk(self.region, chunk, &mut self.rng)?;
            worst = worst.max(fetch.latency);
            shards[chunk.index().value() as usize] = Some(fetch.data);
        }

        let k = manifest.params().data_chunks();
        let decoded = !(0..k).all(|i| shards[i].is_some());
        let data = backend
            .codec()
            .reconstruct_object(&shards, manifest.size())?;
        Ok(ReadOutcome {
            data,
            latency: worst,
            sources: plan,
            decoded,
        })
    }

    /// Writes an object through the backend.
    ///
    /// # Errors
    ///
    /// Propagates [`Backend::put_object`] failures.
    pub fn write(
        &mut self,
        backend: &Backend,
        object: ObjectId,
        data: &[u8],
    ) -> Result<(u64, Duration), StoreError> {
        let put = backend.put_object(self.region, object, data, &mut self.rng)?;
        Ok((put.version, put.latency))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{expected_payload, populate};
    use crate::placement::RoundRobin;
    use agar_ec::CodingParams;
    use agar_net::presets::{aws_six_regions, FRANKFURT, SYDNEY, TOKYO};
    use agar_net::Topology;
    use std::sync::Arc;

    fn six_region_backend() -> Backend {
        let preset = aws_six_regions();
        Backend::new(
            preset.topology,
            Arc::new(preset.latency),
            CodingParams::paper_default(),
            Box::new(RoundRobin),
        )
        .unwrap()
    }

    #[test]
    fn read_reconstructs_objects() {
        let backend = six_region_backend();
        let mut rng = StdRng::seed_from_u64(1);
        populate(&backend, 3, 900, &mut rng).unwrap();
        let mut client = StorageClient::new(FRANKFURT, 7);
        for i in 0..3 {
            let out = client.read(&backend, ObjectId::new(i)).unwrap();
            assert_eq!(out.data.as_ref(), expected_payload(i, 900).as_slice());
            assert_eq!(out.sources.len(), 9);
        }
    }

    #[test]
    fn frankfurt_plan_avoids_sydney_and_uses_tokyo_once() {
        let backend = six_region_backend();
        let mut rng = StdRng::seed_from_u64(1);
        populate(&backend, 1, 900, &mut rng).unwrap();
        let order = regions_by_latency(&backend, FRANKFURT);
        assert_eq!(order[0], FRANKFURT);
        let plan = plan_backend_fetch(&backend, FRANKFURT, ObjectId::new(0), &order, &[]).unwrap();
        let from_sydney = plan.iter().filter(|(_, r)| *r == SYDNEY).count();
        let from_tokyo = plan.iter().filter(|(_, r)| *r == TOKYO).count();
        assert_eq!(from_sydney, 0, "the m furthest chunks are never planned");
        assert_eq!(from_tokyo, 1, "only one Tokyo chunk is needed");
    }

    #[test]
    fn read_latency_dominated_by_furthest_contacted() {
        let backend = six_region_backend();
        let mut rng = StdRng::seed_from_u64(1);
        populate(&backend, 1, 900, &mut rng).unwrap();
        let mut client = StorageClient::new(FRANKFURT, 7);
        let out = client.read(&backend, ObjectId::new(0)).unwrap();
        // Tokyo's calibrated mean is 1000 ms at nominal chunk size; test
        // chunks are tiny so only the fixed 60% applies (~600 ms), plus
        // 5% log-normal jitter.
        let ms = out.latency.as_secs_f64() * 1e3;
        assert!(ms > 450.0 && ms < 850.0, "latency {ms}ms");
    }

    #[test]
    fn degraded_read_uses_parity_from_further_regions() {
        let backend = six_region_backend();
        let mut rng = StdRng::seed_from_u64(1);
        populate(&backend, 1, 900, &mut rng).unwrap();
        // Fail Frankfurt itself: the client must reach further out.
        backend.fail_region(FRANKFURT);
        let mut client = StorageClient::new(FRANKFURT, 7);
        let out = client.read(&backend, ObjectId::new(0)).unwrap();
        assert_eq!(out.data.as_ref(), expected_payload(0, 900).as_slice());
        assert!(out.sources.iter().all(|(_, r)| *r != FRANKFURT));
    }

    #[test]
    fn decode_flag_reflects_parity_usage() {
        // 3-region deployment, RS(2,1): chunk i lives in region i; the
        // parity chunk 2 sits in the most distant region.
        let matrix = agar_net::MatrixLatency::from_millis(vec![
            vec![1.0, 10.0, 100.0],
            vec![10.0, 1.0, 100.0],
            vec![100.0, 100.0, 1.0],
        ])
        .unwrap();
        let backend = Backend::new(
            Topology::from_names(["a", "b", "c"]),
            Arc::new(matrix),
            CodingParams::new(2, 1).unwrap(),
            Box::new(RoundRobin),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        populate(&backend, 1, 100, &mut rng).unwrap();
        let mut client = StorageClient::new(RegionId::new(0), 3);
        // Healthy: fetches data chunks 0 (local) and 1 (near); no decode.
        let out = client.read(&backend, ObjectId::new(0)).unwrap();
        assert!(!out.decoded);
        // Region 1 down: must use the far parity chunk 2; decode required.
        backend.fail_region(RegionId::new(1));
        let out = client.read(&backend, ObjectId::new(0)).unwrap();
        assert!(out.decoded);
        assert_eq!(out.data.as_ref(), expected_payload(0, 100).as_slice());
    }

    #[test]
    fn too_many_failures_error() {
        let backend = six_region_backend();
        let mut rng = StdRng::seed_from_u64(1);
        populate(&backend, 1, 900, &mut rng).unwrap();
        // 4 regions down leaves only 4 chunks < k = 9.
        for r in 0..4 {
            backend.fail_region(RegionId::new(r));
        }
        let mut client = StorageClient::new(FRANKFURT, 7);
        assert!(matches!(
            client.read(&backend, ObjectId::new(0)),
            Err(StoreError::NotEnoughChunks { .. })
        ));
    }

    #[test]
    fn exclusions_shrink_the_plan() {
        let backend = six_region_backend();
        let mut rng = StdRng::seed_from_u64(1);
        populate(&backend, 1, 900, &mut rng).unwrap();
        let order = regions_by_latency(&backend, FRANKFURT);
        let object = ObjectId::new(0);
        // Pretend chunks 4 and 9 are already cached.
        let cached = vec![ChunkId::new(object, 4), ChunkId::new(object, 9)];
        let plan = plan_backend_fetch(&backend, FRANKFURT, object, &order, &cached).unwrap();
        assert_eq!(plan.len(), 7);
        assert!(plan.iter().all(|(c, _)| !cached.contains(c)));
    }

    #[test]
    fn estimate_candidates_rank_cheapest_first_and_skip_failures() {
        let backend = six_region_backend();
        let mut rng = StdRng::seed_from_u64(1);
        populate(&backend, 1, 900, &mut rng).unwrap();
        let estimates: Vec<Duration> = backend
            .topology()
            .ids()
            .map(|r| backend.latency_model().mean(FRANKFURT, r, 100))
            .collect();
        let object = ObjectId::new(0);
        let candidates = plan_backend_fetch_with_estimates(&backend, object, &estimates).unwrap();
        // All 12 chunks are reachable; estimates are non-decreasing.
        assert_eq!(candidates.len(), 12);
        for pair in candidates.windows(2) {
            assert!(pair[0].estimate <= pair[1].estimate);
        }
        // Each candidate carries its own region's estimate.
        for c in &candidates {
            assert_eq!(c.estimate, estimates[c.region.index()]);
        }
        // Taking the 9 cheapest matches plan_backend_fetch's choice set.
        let order = regions_by_latency(&backend, FRANKFURT);
        let plan = plan_backend_fetch(&backend, FRANKFURT, object, &order, &[]).unwrap();
        let planned: std::collections::BTreeSet<ChunkId> = plan.iter().map(|&(c, _)| c).collect();
        let cheapest: std::collections::BTreeSet<ChunkId> =
            candidates.iter().take(9).map(|c| c.chunk).collect();
        assert_eq!(planned, cheapest);

        // Failed regions drop out of the candidate list.
        backend.fail_region(SYDNEY);
        let degraded = plan_backend_fetch_with_estimates(&backend, object, &estimates).unwrap();
        assert_eq!(degraded.len(), 10);
        assert!(degraded.iter().all(|c| c.region != SYDNEY));
        // Unknown objects still error.
        assert!(matches!(
            plan_backend_fetch_with_estimates(&backend, ObjectId::new(99), &estimates),
            Err(StoreError::UnknownObject { .. })
        ));
    }

    #[test]
    fn writes_via_client_bump_versions() {
        let backend = six_region_backend();
        let mut client = StorageClient::new(SYDNEY, 5);
        let (v1, _) = client.write(&backend, ObjectId::new(42), &[1; 90]).unwrap();
        let (v2, d) = client.write(&backend, ObjectId::new(42), &[2; 90]).unwrap();
        assert_eq!((v1, v2), (1, 2));
        assert!(d > Duration::ZERO);
        let out = client.read(&backend, ObjectId::new(42)).unwrap();
        assert_eq!(out.data.as_ref(), [2; 90].as_slice());
    }
}
