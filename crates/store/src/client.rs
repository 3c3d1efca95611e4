//! Read planning over the backend: which chunks a client fetches.
//!
//! The paper's cache-less read (§V-A) requests the `k` cheapest chunks
//! in parallel (skipping the `m` furthest, which would only be needed
//! under failures), waits for all of them (latency = the slowest fetch)
//! and decodes if any parity chunk was used; under region failures the
//! plan degrades to further regions automatically. The baselines' read
//! loop (`agar::baselines`) runs [`plan_backend_fetch`]; the Agar node's
//! planner prices [`plan_backend_fetch_with_estimates`]' candidates.

use crate::backend::Backend;
use crate::error::StoreError;
use agar_ec::{ChunkId, ObjectId};
use agar_net::RegionId;
use std::time::Duration;

/// Plans which `k` chunks of `object` to fetch, minus the `exclude`d
/// ones the caller already holds.
///
/// Regions are visited in `region_order` (a client's ascending
/// mean-latency order, [`regions_by_latency`]); failed regions are
/// skipped; within a region, data chunks are preferred over parity
/// (cheaper reconstruction).
///
/// # Errors
///
/// Returns [`StoreError::NotEnoughChunks`] if fewer than `k` chunks are
/// reachable.
pub fn plan_backend_fetch(
    backend: &Backend,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::populate;
    use crate::placement::RoundRobin;
    use agar_ec::CodingParams;
    use agar_net::presets::{aws_six_regions, FRANKFURT, SYDNEY, TOKYO};
    use agar_net::Topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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
    fn frankfurt_plan_avoids_sydney_and_uses_tokyo_once() {
        let backend = six_region_backend();
        let mut rng = StdRng::seed_from_u64(1);
        populate(&backend, 1, 900, &mut rng).unwrap();
        let order = regions_by_latency(&backend, FRANKFURT);
        assert_eq!(order[0], FRANKFURT);
        let plan = plan_backend_fetch(&backend, ObjectId::new(0), &order, &[]).unwrap();
        let from_sydney = plan.iter().filter(|(_, r)| *r == SYDNEY).count();
        let from_tokyo = plan.iter().filter(|(_, r)| *r == TOKYO).count();
        assert_eq!(from_sydney, 0, "the m furthest chunks are never planned");
        assert_eq!(from_tokyo, 1, "only one Tokyo chunk is needed");
    }

    #[test]
    fn degraded_plan_reaches_further_regions() {
        let backend = six_region_backend();
        let mut rng = StdRng::seed_from_u64(1);
        populate(&backend, 1, 900, &mut rng).unwrap();
        // Fail Frankfurt itself: the plan must reach further out.
        backend.fail_region(FRANKFURT);
        let order = regions_by_latency(&backend, FRANKFURT);
        let plan = plan_backend_fetch(&backend, ObjectId::new(0), &order, &[]).unwrap();
        assert_eq!(plan.len(), 9);
        assert!(plan.iter().all(|(_, r)| *r != FRANKFURT));
    }

    #[test]
    fn a_failed_region_pulls_parity_into_the_plan() {
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
        let order = regions_by_latency(&backend, RegionId::new(0));
        let chunks = |backend: &Backend| -> Vec<u8> {
            let plan = plan_backend_fetch(backend, ObjectId::new(0), &order, &[]).unwrap();
            plan.iter().map(|(c, _)| c.index().value()).collect()
        };
        // Healthy: data chunks 0 (local) and 1 (near); nothing to decode.
        assert_eq!(chunks(&backend), vec![0, 1]);
        // Region 1 down: the far parity chunk 2 replaces data chunk 1.
        backend.fail_region(RegionId::new(1));
        assert_eq!(chunks(&backend), vec![0, 2]);
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
        let order = regions_by_latency(&backend, FRANKFURT);
        assert!(matches!(
            plan_backend_fetch(&backend, ObjectId::new(0), &order, &[]),
            Err(StoreError::NotEnoughChunks {
                reachable: 4,
                needed: 9,
                ..
            })
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
        let plan = plan_backend_fetch(&backend, object, &order, &cached).unwrap();
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
        let plan = plan_backend_fetch(&backend, object, &order, &[]).unwrap();
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
}
