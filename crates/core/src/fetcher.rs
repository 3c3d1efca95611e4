//! The backend-fetch hook of the read pipeline.
//!
//! The [`ReadPlanner`](crate::planner::ReadPlanner) decides *which*
//! chunks come from the backend; **how** they are fetched is pluggable
//! behind [`ChunkFetcher`]. The default [`DirectFetcher`] issues one
//! store call per chunk, exactly like the pre-hook node. The cluster
//! tier (`agar-cluster`'s `FetchCoordinator`) swaps in a coordinator
//! that coalesces concurrent fetches of the same chunk (single-flight)
//! and batches same-region chunks into one priced round trip.
//!
//! The contract keeps the node's fetch stage oblivious to the
//! strategy:
//!
//! - results come back **in request order** (the node folds latency
//!   observations and version checks in that order, which keeps
//!   single-threaded runs bit-deterministic);
//! - a fetcher may stop early after pushing a
//!   [`StoreError::RegionUnavailable`] result — the node re-plans
//!   around the failed region and never looks at the tail;
//! - fetchers are called with **no node lock held**, so they may block
//!   (the single-flight coordinator parks losers until the winner's
//!   fetch completes).

use agar_ec::ChunkId;
use agar_net::RegionId;
use agar_store::{Backend, ChunkFetch, StoreError};
use rand::RngCore;
use std::sync::Arc;

/// One backend fetch the planner scheduled: a chunk, the region the
/// manifest places it in, and the object version the read's manifest
/// snapshot expects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FetchRequest {
    /// The chunk to fetch.
    pub chunk: ChunkId,
    /// The region holding it (from the plan; the fetcher trusts it).
    pub region: RegionId,
    /// The manifest version this read is decoding. Fetchers use it to
    /// discriminate in-flight fetches (a reader planning against a
    /// newer manifest must never share a stale flight's result) and to
    /// stop early when a concurrent write is detected.
    pub version: u64,
}

/// Strategy for executing the backend-fetch portion of a read plan.
pub trait ChunkFetcher: Send + Sync {
    /// Fetches the requested chunks on behalf of a client in
    /// `client_region`, returning one result per request **in request
    /// order**. Implementations may return early after a
    /// [`StoreError::RegionUnavailable`] entry; every preceding
    /// request must still carry its result.
    fn fetch(
        &self,
        client_region: RegionId,
        requests: &[FetchRequest],
        rng: &mut dyn RngCore,
    ) -> Vec<(FetchRequest, Result<ChunkFetch, StoreError>)>;
}

/// The default strategy: one store round trip per chunk,
/// short-circuiting on the first unavailable region (the node re-plans
/// immediately) and on the first version mismatch (the node abandons
/// the attempt for a fresh manifest) — fetching the tail would be
/// wasted work either way, and stopping exactly where the pre-hook
/// node stopped keeps its RNG draw sequence identical.
pub struct DirectFetcher {
    backend: Arc<Backend>,
}

impl DirectFetcher {
    /// Creates a direct fetcher against `backend`.
    pub fn new(backend: Arc<Backend>) -> Self {
        DirectFetcher { backend }
    }
}

impl ChunkFetcher for DirectFetcher {
    fn fetch(
        &self,
        client_region: RegionId,
        requests: &[FetchRequest],
        rng: &mut dyn RngCore,
    ) -> Vec<(FetchRequest, Result<ChunkFetch, StoreError>)> {
        let mut results = Vec::with_capacity(requests.len());
        for &request in requests {
            let outcome = self.backend.fetch_chunk(client_region, request.chunk, rng);
            let stop = match &outcome {
                // The caller re-plans around the failed region.
                Err(StoreError::RegionUnavailable { .. }) => true,
                // A write raced the read; the caller restarts on a
                // fresh manifest.
                Ok(fetch) => fetch.version != request.version,
                Err(_) => false,
            };
            results.push((request, outcome));
            if stop {
                break; // the tail would be wasted work
            }
        }
        results
    }
}

impl std::fmt::Debug for DirectFetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirectFetcher").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_ec::{CodingParams, ObjectId};
    use agar_net::{ConstantLatency, Topology};
    use agar_store::{populate, RoundRobin};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::Duration;

    fn backend() -> Arc<Backend> {
        let names: Vec<String> = (0..3).map(|i| format!("r{i}")).collect();
        let backend = Backend::new(
            Topology::from_names(names),
            Arc::new(ConstantLatency::new(Duration::from_millis(10))),
            CodingParams::new(4, 2).unwrap(),
            Box::new(RoundRobin),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        populate(&backend, 1, 8, &mut rng).unwrap();
        Arc::new(backend)
    }

    fn request(backend: &Backend, index: u8) -> FetchRequest {
        let object = ObjectId::new(0);
        let manifest = backend.manifest(object).unwrap();
        FetchRequest {
            chunk: ChunkId::new(object, index),
            region: manifest.location(index as usize),
            version: manifest.version(),
        }
    }

    #[test]
    fn direct_fetcher_returns_results_in_request_order() {
        let backend = backend();
        let fetcher = DirectFetcher::new(Arc::clone(&backend));
        let requests = [request(&backend, 3), request(&backend, 0)];
        let mut rng = StdRng::seed_from_u64(1);
        let results = fetcher.fetch(RegionId::new(0), &requests, &mut rng);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].0, requests[0]);
        assert_eq!(results[1].0, requests[1]);
        assert!(results.iter().all(|(_, r)| r.is_ok()));
    }

    #[test]
    fn direct_fetcher_short_circuits_on_unavailable_regions() {
        let backend = backend();
        backend.fail_region(RegionId::new(1)); // chunks 1 and 4 live here
        let fetcher = DirectFetcher::new(Arc::clone(&backend));
        let requests = [
            request(&backend, 0),
            request(&backend, 1),
            request(&backend, 2),
        ];
        let mut rng = StdRng::seed_from_u64(1);
        let results = fetcher.fetch(RegionId::new(0), &requests, &mut rng);
        // Chunk 0 fetched, chunk 1 errored, chunk 2 never attempted.
        assert_eq!(results.len(), 2);
        assert!(results[0].1.is_ok());
        assert!(matches!(
            results[1].1,
            Err(StoreError::RegionUnavailable { .. })
        ));
    }

    #[test]
    fn direct_fetcher_short_circuits_on_version_races() {
        let backend = backend();
        let fetcher = DirectFetcher::new(Arc::clone(&backend));
        // Requests planned against version 1, but a write bumped the
        // object to version 2: the first mismatching fetch ends the
        // attempt, exactly like the pre-hook fetch loop.
        let requests = [
            request(&backend, 0),
            request(&backend, 1),
            request(&backend, 2),
        ];
        let mut rng = StdRng::seed_from_u64(2);
        backend
            .put_object(RegionId::new(0), ObjectId::new(0), &[7; 8], &mut rng)
            .unwrap();
        let results = fetcher.fetch(RegionId::new(0), &requests, &mut rng);
        assert_eq!(results.len(), 1, "stop at the first stale fetch");
        assert_eq!(results[0].1.as_ref().unwrap().version, 2);
    }
}
