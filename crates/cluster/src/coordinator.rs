//! Single-flight, region-batched backend fetches.
//!
//! Every node of a cluster shares one [`FetchCoordinator`], installed
//! as the node's [`ChunkFetcher`]. It improves on per-chunk direct
//! fetches in two ways:
//!
//! - **Single-flight coalescing** — a per-chunk in-flight table
//!   deduplicates concurrent fetches: the first reader to request a
//!   chunk becomes the *leader* and actually fetches it; readers that
//!   arrive while the fetch is in flight park on the flight's condvar
//!   and share the leader's result (one backend round trip instead of
//!   N identical ones — the thundering-herd killer for hot cold
//!   objects).
//! - **Region batching** — the leader's chunks are grouped by hosting
//!   region and each group travels as **one** batched store call
//!   ([`Backend::fetch_chunks`]), so the fixed WAN round-trip overhead
//!   is paid once per region instead of once per chunk.
//!
//! Coalesced fetches draw no RNG of their own (they reuse the
//! leader's sampled latency), so coalescing never perturbs another
//! read's latency stream. The in-flight table is keyed by **(client
//! region, chunk, expected version)**: a fetch in flight toward
//! Frankfurt does not move the bytes to Sydney, so readers only
//! coalesce with leaders in their own region — sharing across regions
//! would hand the joiner a latency sampled for someone else's WAN
//! path and poison its region manager's estimates — and a reader
//! planning against a fresh manifest never joins a flight started for
//! a stale one (its retry after a version race leads its own fetch
//! instead of re-joining the doomed flight until the attempts run
//! out). Version races are otherwise handled exactly as in the direct
//! path: results carry the stored version and the node validates it
//! against its manifest snapshot.

use agar::fetcher::{ChunkFetcher, FetchRequest};
use agar_ec::ChunkId;
use agar_net::RegionId;
use agar_store::{Backend, ChunkFetch, StoreError};
use rand::RngCore;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// One in-flight chunk fetch: the leader publishes into `slot` and
/// notifies; losers wait on the condvar.
struct Flight {
    slot: Mutex<Option<Result<ChunkFetch, StoreError>>>,
    done: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight {
            slot: Mutex::new(None),
            done: Condvar::new(),
        }
    }

    fn publish(&self, result: Result<ChunkFetch, StoreError>) {
        *self.slot.lock().expect("flight lock poisoned") = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> Result<ChunkFetch, StoreError> {
        let mut slot = self.slot.lock().expect("flight lock poisoned");
        while slot.is_none() {
            slot = self.done.wait(slot).expect("flight lock poisoned");
        }
        slot.clone().expect("guarded by the loop above")
    }
}

/// The shared fetch coordinator of a cluster (see the module docs).
///
/// Thread-safe behind `&self`; installed per node via
/// [`agar::AgarNode::set_chunk_fetcher`].
pub struct FetchCoordinator {
    backend: Arc<Backend>,
    /// In-flight fetches keyed by (client region, chunk, expected
    /// version) — see the module docs for why flights cross neither
    /// regions nor manifest versions.
    inflight: Mutex<HashMap<(RegionId, ChunkId, u64), Arc<Flight>>>,
    counters: CoordinatorCounters,
}

agar_obs::cell_table! {
    /// The coordination counters: fetches that joined another reader's
    /// flight, region-grouped round trips, and fetches that actually hit
    /// the backend (flight leaders).
    pub struct CoordinatorCounters {
        coalesced_fetches: Counter "agar_fetch_coalesced_total" [("source", "coordinator")]
            "Backend fetches served by an in-flight duplicate (single-flight).";
        batched_requests: Counter "agar_fetch_batched_round_trips_total" [("source", "coordinator")]
            "Region-grouped backend round trips issued.";
        primary_fetches: Counter "agar_fetch_primary_total" []
            "Chunk fetches that actually hit the backend (flight leaders).";
    }
}

impl FetchCoordinator {
    /// Creates a coordinator against `backend`.
    pub fn new(backend: Arc<Backend>) -> Self {
        FetchCoordinator {
            backend,
            inflight: Mutex::new(HashMap::new()),
            counters: CoordinatorCounters::default(),
        }
    }

    /// Chunk fetches that actually hit the backend (flight leaders).
    pub fn primary_fetches(&self) -> u64 {
        self.counters.primary_fetches.get()
    }

    /// Chunk fetches served by piggybacking on another reader's
    /// in-flight fetch.
    pub fn coalesced_fetches(&self) -> u64 {
        self.counters.coalesced_fetches.get()
    }

    /// Batched (region-grouped) round trips issued.
    pub fn batched_requests(&self) -> u64 {
        self.counters.batched_requests.get()
    }

    /// Number of entries currently in the single-flight table. Quiesced
    /// coordinators must report zero — a nonzero count with no fetch in
    /// progress means a leader leaked its entry (and any joiners parked
    /// on its condvar are stranded). Tests assert this after hedged
    /// reads discard stragglers.
    pub fn in_flight(&self) -> usize {
        self.inflight
            .lock()
            .expect("in-flight table poisoned")
            .len()
    }

    /// The coordination counters (see [`CoordinatorCounters`]).
    pub fn counters(&self) -> &CoordinatorCounters {
        &self.counters
    }
}

/// Unwind insurance for a flight leader: if the leader panics between
/// registering its flights and publishing their results, the guard's
/// `Drop` clears the table entries and publishes an error, so parked
/// joiners (and every future reader of those chunks) surface a
/// failure instead of hanging on a dead flight forever.
struct LeadGuard<'a> {
    coordinator: &'a FetchCoordinator,
    keys: Vec<(RegionId, ChunkId, u64)>,
}

impl LeadGuard<'_> {
    /// Normal completion: the leader published everything itself.
    fn disarm(mut self) {
        self.keys.clear();
    }
}

impl Drop for LeadGuard<'_> {
    fn drop(&mut self) {
        if self.keys.is_empty() {
            return;
        }
        let mut table = self
            .coordinator
            .inflight
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for key in self.keys.drain(..) {
            if let Some(flight) = table.remove(&key) {
                flight.publish(Err(StoreError::FetchInterrupted { chunk: key.1 }));
            }
        }
    }
}

impl ChunkFetcher for FetchCoordinator {
    fn fetch(
        &self,
        client_region: RegionId,
        requests: &[FetchRequest],
        rng: &mut dyn RngCore,
    ) -> Vec<(FetchRequest, Result<ChunkFetch, StoreError>)> {
        // Classify under the table lock: chunks with no flight are led
        // by this call; chunks already in flight are joined.
        let mut lead: Vec<usize> = Vec::new();
        let mut joined: Vec<(usize, Arc<Flight>)> = Vec::new();
        {
            let mut table = self.inflight.lock().expect("in-flight table poisoned");
            for (i, request) in requests.iter().enumerate() {
                match table.entry((client_region, request.chunk, request.version)) {
                    Entry::Occupied(entry) => joined.push((i, Arc::clone(entry.get()))),
                    Entry::Vacant(entry) => {
                        entry.insert(Arc::new(Flight::new()));
                        lead.push(i);
                    }
                }
            }
        }

        let mut slots: Vec<Option<Result<ChunkFetch, StoreError>>> = vec![None; requests.len()];

        // Lead: one region-batched store call for every led chunk, then
        // publish and clear the flights (whether fetched or failed —
        // a flight must never outlive its leader, even across a panic:
        // the guard error-publishes anything left unresolved).
        if !lead.is_empty() {
            let guard = LeadGuard {
                coordinator: self,
                keys: lead
                    .iter()
                    .map(|&i| (client_region, requests[i].chunk, requests[i].version))
                    .collect(),
            };
            let chunks: Vec<ChunkId> = lead.iter().map(|&i| requests[i].chunk).collect();
            let outcome = self.backend.fetch_chunks(client_region, &chunks, rng);
            self.counters.batched_requests.add(outcome.batches() as u64);
            self.counters.primary_fetches.add(lead.len() as u64);
            {
                let mut table = self.inflight.lock().expect("in-flight table poisoned");
                for (&i, (chunk, result)) in lead.iter().zip(outcome.results) {
                    debug_assert_eq!(chunk, requests[i].chunk);
                    if let Some(flight) = table.remove(&(client_region, chunk, requests[i].version))
                    {
                        flight.publish(result.clone());
                    }
                    slots[i] = Some(result);
                }
            }
            guard.disarm();
        }

        // Join: park until each leader publishes.
        for (i, flight) in joined {
            self.counters.coalesced_fetches.inc();
            slots[i] = Some(flight.wait());
        }

        requests
            .iter()
            .zip(slots)
            .map(|(&request, slot)| (request, slot.expect("every request classified")))
            .collect()
    }
}

impl std::fmt::Debug for FetchCoordinator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FetchCoordinator")
            .field("primary_fetches", &self.primary_fetches())
            .field("coalesced_fetches", &self.coalesced_fetches())
            .field("batched_requests", &self.batched_requests())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_ec::{CodingParams, ObjectId};
    use agar_net::latency::LatencyModel;
    use agar_net::{ConstantLatency, Topology};
    use agar_store::{populate, RoundRobin};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::time::{Duration, Instant};

    /// A constant latency model whose batched samples park while it is
    /// shut: a flight leader's `fetch_chunks` waits in it, so its
    /// flights stay in the table until the test opens the gate.
    struct Gate {
        inner: ConstantLatency,
        /// Whether the gate is open, and how many samplers are parked.
        state: Mutex<(bool, u64)>,
        opened: Condvar,
    }

    impl Gate {
        fn shut() -> Self {
            Gate {
                inner: ConstantLatency::new(Duration::from_millis(10)),
                state: Mutex::new((false, 0)),
                opened: Condvar::new(),
            }
        }

        /// Opens the gate once every one of `threads` callers has either
        /// parked in it as a leader or joined a flight: a joiner counts
        /// itself coalesced before it waits, and a leader holds its
        /// flights until the gate opens, so neither count moves on
        /// until then.
        fn open_once_arrived(&self, coordinator: &FetchCoordinator, threads: u64) {
            let start = Instant::now();
            while self.state.lock().unwrap().1 + coordinator.coalesced_fetches() < threads {
                if start.elapsed() > Duration::from_secs(10) {
                    self.open();
                    panic!("callers never reached the coordinator");
                }
                std::thread::yield_now();
            }
            self.open();
        }

        fn open(&self) {
            self.state.lock().unwrap().0 = true;
            self.opened.notify_all();
        }
    }

    impl LatencyModel for Gate {
        fn mean(&self, from: RegionId, to: RegionId, bytes: usize) -> Duration {
            self.inner.mean(from, to, bytes)
        }

        fn sample_batch(
            &self,
            from: RegionId,
            to: RegionId,
            chunk_bytes: &[usize],
            rng: &mut dyn RngCore,
        ) -> Duration {
            let mut state = self.state.lock().unwrap();
            state.1 += 1;
            while !state.0 {
                state = self.opened.wait(state).unwrap();
            }
            state.1 -= 1;
            drop(state);
            self.inner.sample_batch(from, to, chunk_bytes, rng)
        }
    }

    fn backend(regions: usize) -> Arc<Backend> {
        backend_with(
            regions,
            Arc::new(ConstantLatency::new(Duration::from_millis(10))),
        )
    }

    fn backend_with(regions: usize, latency: Arc<dyn LatencyModel>) -> Arc<Backend> {
        let names: Vec<String> = (0..regions).map(|i| format!("r{i}")).collect();
        let backend = Backend::new(
            Topology::from_names(names),
            latency,
            CodingParams::new(4, 2).unwrap(),
            Box::new(RoundRobin),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        populate(&backend, 2, 8, &mut rng).unwrap();
        Arc::new(backend)
    }

    fn requests(backend: &Backend, object: u64, indices: &[u8]) -> Vec<FetchRequest> {
        let object = ObjectId::new(object);
        let manifest = backend.manifest(object).unwrap();
        indices
            .iter()
            .map(|&i| FetchRequest {
                chunk: ChunkId::new(object, i),
                region: manifest.location(i as usize),
                version: manifest.version(),
            })
            .collect()
    }

    #[test]
    fn uncontended_fetch_batches_by_region() {
        let backend = backend(3);
        let coordinator = FetchCoordinator::new(Arc::clone(&backend));
        let reqs = requests(&backend, 0, &[0, 1, 2, 3, 4, 5]);
        let mut rng = StdRng::seed_from_u64(1);
        let results = coordinator.fetch(RegionId::new(0), &reqs, &mut rng);
        assert_eq!(results.len(), 6);
        assert!(results.iter().all(|(_, r)| r.is_ok()));
        // Six chunks over three regions: three priced round trips.
        assert_eq!(coordinator.batched_requests(), 3);
        assert_eq!(coordinator.primary_fetches(), 6);
        assert_eq!(coordinator.coalesced_fetches(), 0);
        // The in-flight table drains completely.
        assert!(coordinator.inflight.lock().unwrap().is_empty());
    }

    #[test]
    fn concurrent_identical_fetches_coalesce() {
        let gate = Arc::new(Gate::shut());
        let backend = backend_with(3, Arc::clone(&gate) as _);
        let coordinator = Arc::new(FetchCoordinator::new(Arc::clone(&backend)));
        let reqs = requests(&backend, 0, &[0, 1, 2, 3]);
        let threads = 6;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let coordinator = Arc::clone(&coordinator);
                let reqs = reqs.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(t as u64);
                    let results = coordinator.fetch(RegionId::new(0), &reqs, &mut rng);
                    for (_, result) in results {
                        assert_eq!(result.unwrap().data.len(), 2);
                    }
                });
            }
            gate.open_once_arrived(&coordinator, threads as u64);
        });
        let primary = coordinator.primary_fetches();
        let coalesced = coordinator.coalesced_fetches();
        assert_eq!(
            primary + coalesced,
            (threads * reqs.len()) as u64,
            "every request resolved exactly once"
        );
        assert!(coalesced > 0, "overlapping fetches must coalesce");
        // The first caller led every chunk; the other five joined.
        assert_eq!(primary, reqs.len() as u64);
        assert!(coordinator.inflight.lock().unwrap().is_empty());
    }

    #[test]
    fn failures_propagate_to_coalesced_waiters_and_flights_clear() {
        let backend = backend(3);
        backend.fail_region(RegionId::new(1)); // chunks 1 and 4
        let coordinator = FetchCoordinator::new(Arc::clone(&backend));
        let reqs = requests(&backend, 0, &[0, 1]);
        let mut rng = StdRng::seed_from_u64(1);
        let results = coordinator.fetch(RegionId::new(0), &reqs, &mut rng);
        assert!(results[0].1.is_ok());
        assert!(matches!(
            results[1].1,
            Err(StoreError::RegionUnavailable { .. })
        ));
        // Failed flights are cleared too: a retry leads fresh flights
        // rather than waiting forever on a dead one.
        assert!(coordinator.inflight.lock().unwrap().is_empty());
        backend.heal_region(RegionId::new(1));
        let results = coordinator.fetch(RegionId::new(0), &reqs, &mut rng);
        assert!(results.iter().all(|(_, r)| r.is_ok()));
    }

    #[test]
    fn readers_in_different_regions_never_coalesce() {
        // A flight toward region 0 does not move bytes to region 1:
        // same chunks, different client regions, overlapping in time —
        // each region must lead its own fetch (and so observe a
        // latency sampled for its own WAN path).
        // The gate opens only once both leaders are parked in it, so
        // their flights are in the table at the same time.
        let gate = Arc::new(Gate::shut());
        let backend = backend_with(3, Arc::clone(&gate) as _);
        let coordinator = Arc::new(FetchCoordinator::new(Arc::clone(&backend)));
        let reqs = requests(&backend, 0, &[0, 1, 2, 3]);
        std::thread::scope(|scope| {
            for region in 0..2u16 {
                let coordinator = Arc::clone(&coordinator);
                let reqs = reqs.clone();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(region as u64);
                    let results = coordinator.fetch(RegionId::new(region), &reqs, &mut rng);
                    assert!(results.iter().all(|(_, r)| r.is_ok()));
                });
            }
            gate.open_once_arrived(&coordinator, 2);
        });
        assert_eq!(coordinator.coalesced_fetches(), 0);
        assert_eq!(coordinator.primary_fetches(), 2 * reqs.len() as u64);
    }

    #[test]
    fn empty_request_list_is_a_no_op() {
        let backend = backend(3);
        let coordinator = FetchCoordinator::new(Arc::clone(&backend));
        let mut rng = StdRng::seed_from_u64(1);
        assert!(coordinator
            .fetch(RegionId::new(0), &[], &mut rng)
            .is_empty());
        assert_eq!(coordinator.batched_requests(), 0);
    }
}
