//! Integration tests for the cluster tier: consistent-hash routing,
//! single-flight coalescing and region-batched backend fetches.
//!
//! The acceptance bar (ISSUE 3): cluster reads are byte-identical to
//! single-node reads for the same seed and workload; ≥ 8 concurrent
//! cold readers of one object trigger at most one backend fetch per
//! chunk (with `coalesced_fetches > 0`); and a read's same-region
//! chunks collapse into one priced round trip.

use agar::{AgarNode, AgarSettings, CachingClient};
use agar_cluster::{ClusterRouter, ClusterSettings, FetchCoordinator};
use agar_ec::{CodingParams, ObjectId};
use agar_net::latency::LatencyModel;
use agar_net::presets::{aws_six_regions, FRANKFURT};
use agar_net::RegionId;
use agar_store::{expected_payload, populate, Backend, RoundRobin};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const SIZE: usize = 900;
const K: usize = 9; // RS(9, 3) data chunks

fn backend(objects: u64) -> Arc<Backend> {
    backend_with(objects, Arc::new(aws_six_regions().latency))
}

fn backend_with(objects: u64, latency: Arc<dyn LatencyModel>) -> Arc<Backend> {
    let backend = Backend::new(
        aws_six_regions().topology,
        latency,
        CodingParams::paper_default(),
        Box::new(RoundRobin),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    populate(&backend, objects, SIZE, &mut rng).unwrap();
    Arc::new(backend)
}

/// The preset latency model with a gate on batched samples: while it
/// is shut, a flight leader's region-batched backend call parks in it
/// and the leader's flights stay in the coordinator's table.
struct Gate {
    inner: Arc<dyn LatencyModel>,
    /// Whether the gate is open, and how many samplers are parked.
    state: Mutex<(bool, u64)>,
    opened: Condvar,
}

impl Gate {
    fn shut() -> Self {
        Gate {
            inner: Arc::new(aws_six_regions().latency),
            state: Mutex::new((false, 0)),
            opened: Condvar::new(),
        }
    }

    /// Opens the gate once every one of `readers` has either parked in
    /// it as a flight leader or joined a flight: a joiner counts itself
    /// coalesced before it waits, and nothing publishes while the gate
    /// is shut, so neither count moves on until it opens.
    fn open_once_arrived(&self, coordinator: &FetchCoordinator, readers: u64) {
        let start = Instant::now();
        while self.state.lock().unwrap().1 + coordinator.coalesced_fetches() < readers {
            if start.elapsed() > Duration::from_secs(10) {
                self.open();
                panic!("readers never reached the coordinator");
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

    fn sample(
        &self,
        from: RegionId,
        to: RegionId,
        bytes: usize,
        rng: &mut dyn RngCore,
    ) -> Duration {
        self.inner.sample(from, to, bytes, rng)
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

fn node(backend: &Arc<Backend>, seed: u64) -> Arc<AgarNode> {
    Arc::new(
        AgarNode::new(
            FRANKFURT,
            Arc::clone(backend),
            AgarSettings::paper_default(3 * SIZE),
            seed,
        )
        .unwrap(),
    )
}

fn cluster(backend: &Arc<Backend>, members: usize) -> ClusterRouter {
    let router = ClusterRouter::new(Arc::clone(backend), ClusterSettings::default(), 7).unwrap();
    for i in 0..members {
        router.add_node(node(backend, i as u64));
    }
    router
}

#[test]
fn concurrent_cold_readers_share_one_fetch_per_chunk() {
    // The simulated store returns instantly in wall-clock terms, so the
    // leader's backend call waits at a gate until every reader has
    // reached the coordinator: the in-flight window a real WAN round
    // trip provides for free.
    let gate = Arc::new(Gate::shut());
    let backend = backend_with(2, Arc::clone(&gate) as _);
    let router = Arc::new(cluster(&backend, 2));
    let object = ObjectId::new(0);
    let threads = 8;
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let router = Arc::clone(&router);
            scope.spawn(move || {
                let metrics = router.read(object).unwrap();
                assert_eq!(
                    metrics.metrics().data.as_ref(),
                    expected_payload(0, SIZE).as_slice()
                );
                assert_eq!(
                    metrics.metrics().cache_hits + metrics.metrics().backend_fetches,
                    K
                );
            });
        }
        gate.open_once_arrived(router.coordinator(), threads as u64);
    });
    let coordinator = router.coordinator();
    let primary = coordinator.primary_fetches();
    let coalesced = coordinator.coalesced_fetches();
    assert_eq!(
        primary + coalesced,
        (threads * K) as u64,
        "every requested chunk resolved exactly once"
    );
    assert!(
        primary <= K as u64,
        "at most one backend fetch per chunk, got {primary} for {K} chunks"
    );
    assert!(coalesced > 0, "concurrent readers must coalesce");
    // The coordination counters surface through the merged statistics.
    let stats = router.cache_stats();
    assert_eq!(stats.coalesced_fetches(), coalesced);
    assert!(stats.batched_requests() > 0);
}

#[test]
fn one_cold_read_batches_same_region_chunks_into_one_round_trip() {
    let backend = backend(1);
    let router = cluster(&backend, 2);
    let metrics = router.read(ObjectId::new(0)).unwrap();
    assert_eq!(metrics.metrics().backend_fetches, K);
    let coordinator = router.coordinator();
    assert_eq!(coordinator.primary_fetches(), K as u64);
    // A healthy Frankfurt plan takes 2 chunks each from the 4 nearest
    // regions plus 1 from the 5th: 9 fetches, 5 priced round trips.
    assert_eq!(
        coordinator.batched_requests(),
        5,
        "same-region chunks must collapse into one priced round trip"
    );
    assert_eq!(coordinator.coalesced_fetches(), 0, "no concurrency here");
}

#[test]
fn cluster_reads_are_byte_identical_to_single_node_reads() {
    let backend = backend(12);
    let solo = node(&backend, 99);
    let router = cluster(&backend, 4);
    for i in 0..12u64 {
        let object = ObjectId::new(i);
        let single = solo.read(object).unwrap();
        let routed = router.read(object).unwrap();
        assert_eq!(
            routed.metrics().data.as_ref(),
            single.data.as_ref(),
            "cluster read of object {i} diverged from the single node"
        );
        assert_eq!(single.data.as_ref(), expected_payload(i, SIZE).as_slice());
    }
}

#[test]
fn routed_reads_are_deterministic_per_seed() {
    // Two identically seeded clusters replay the same read sequence
    // with identical metrics (routing, latency sampling and cache
    // behaviour all derive from the seed and the operation order).
    let run = || {
        let backend = backend(6);
        let router = cluster(&backend, 3);
        let mut log = Vec::new();
        for i in 0..40u64 {
            let metrics = router.read(ObjectId::new(i % 6)).unwrap();
            log.push((
                metrics.home,
                metrics.metrics().latency,
                metrics.metrics().cache_hits,
                metrics.metrics().backend_fetches,
            ));
        }
        router.force_reconfigure_all();
        for i in 0..20u64 {
            let metrics = router.read(ObjectId::new(i % 6)).unwrap();
            log.push((
                metrics.home,
                metrics.metrics().latency,
                metrics.metrics().cache_hits,
                metrics.metrics().backend_fetches,
            ));
        }
        log
    };
    assert_eq!(run(), run());
}

#[test]
fn membership_changes_never_serve_stale_data() {
    let backend = backend(10);
    let router = cluster(&backend, 3);
    // Warm everything through the router.
    for round in 0..3 {
        for i in 0..10u64 {
            router.read(ObjectId::new(i)).unwrap();
        }
        if round == 0 {
            router.force_reconfigure_all();
        }
    }
    // Write through the router, then add a member (re-homing part of
    // the catalogue) and write again: every subsequent routed read must
    // see the latest version, wherever the object now lives.
    let v2 = vec![0xAA; SIZE];
    router.write(ObjectId::new(3), &v2).unwrap();
    let change = router.add_node(node(&backend, 77));
    let v2b = vec![0xBB; SIZE];
    router.write(ObjectId::new(4), &v2b).unwrap();
    for i in 0..10u64 {
        let expected = match i {
            3 => v2.clone(),
            4 => v2b.clone(),
            _ => expected_payload(i, SIZE),
        };
        let metrics = router.read(ObjectId::new(i)).unwrap();
        assert_eq!(
            metrics.metrics().data.as_ref(),
            expected.as_slice(),
            "stale read of object {i} after adding node {}",
            change.node
        );
    }
    // And again after removing the member.
    router.remove_node(change.node).unwrap();
    for i in 0..10u64 {
        let expected = match i {
            3 => v2.clone(),
            4 => v2b.clone(),
            _ => expected_payload(i, SIZE),
        };
        let metrics = router.read(ObjectId::new(i)).unwrap();
        assert_eq!(metrics.metrics().data.as_ref(), expected.as_slice());
    }
}
