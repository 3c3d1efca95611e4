//! Systematic failure-injection tests for the erasure-coded backend,
//! read through `FixedChunksClient::backend_only` — the cache-less
//! "Backend" client the figures run, which reads through the node's
//! plan → fetch → bind → decode stages: every combination of failed
//! regions either degrades gracefully or fails loudly, never silently
//! corrupts.

use agar::{AgarError, CachingClient, FixedChunksClient};
use agar_ec::{CodingParams, ObjectId};
use agar_net::presets::aws_six_regions;
use agar_net::RegionId;
use agar_store::{expected_payload, populate, Backend, RoundRobin, StoreError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

const SIZE: usize = 900;

fn backend() -> Arc<Backend> {
    let preset = aws_six_regions();
    let backend = Backend::new(
        preset.topology,
        Arc::new(preset.latency),
        CodingParams::paper_default(),
        Box::new(RoundRobin),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(0);
    populate(&backend, 3, SIZE, &mut rng).unwrap();
    Arc::new(backend)
}

fn client(backend: &Arc<Backend>, home: u16, seed: u64) -> FixedChunksClient {
    FixedChunksClient::backend_only(
        RegionId::new(home),
        Arc::clone(backend),
        Duration::from_millis(100),
        seed,
    )
}

#[test]
fn every_single_region_failure_is_survivable() {
    // RS(9,3), 2 chunks per region: any one region (2 chunks) may fail.
    for r in 0..6u16 {
        let backend = backend();
        backend.fail_region(RegionId::new(r));
        let client = client(&backend, 0, 1);
        for i in 0..3 {
            let out = client.read(ObjectId::new(i)).unwrap();
            assert_eq!(
                out.data.as_ref(),
                expected_payload(i, SIZE).as_slice(),
                "region {r} down, object {i}"
            );
            // Exactly k = 9 chunks fetched, none from the failed region:
            // a fetch there fails the read with `RegionUnavailable`.
            assert_eq!(out.backend_fetches, 9, "region {r} down, object {i}");
        }
    }
}

#[test]
fn every_two_region_failure_fails_loudly() {
    // Two regions = 4 chunks lost > m = 3: reads must error, not return
    // garbage.
    for a in 0..6u16 {
        for b in (a + 1)..6 {
            let backend = backend();
            backend.fail_region(RegionId::new(a));
            backend.fail_region(RegionId::new(b));
            let result = client(&backend, 0, 1).read(ObjectId::new(0));
            assert!(
                matches!(
                    result,
                    Err(AgarError::Store(StoreError::NotEnoughChunks { .. }))
                ),
                "regions {a}+{b} down: expected NotEnoughChunks, got {:?}",
                result.map(|metrics| metrics.backend_fetches)
            );
        }
    }
}

#[test]
fn failure_and_heal_cycles_are_idempotent() {
    let backend = backend();
    let client = client(&backend, 2, 9);
    for cycle in 0..4 {
        let region = RegionId::new(cycle % 6);
        backend.fail_region(region);
        backend.fail_region(region); // double-fail is a no-op
        let out = client.read(ObjectId::new(1)).unwrap();
        assert_eq!(out.data.as_ref(), expected_payload(1, SIZE).as_slice());
        backend.heal_region(region);
        backend.heal_region(region); // double-heal is a no-op
        let out = client.read(ObjectId::new(1)).unwrap();
        assert_eq!(out.data.as_ref(), expected_payload(1, SIZE).as_slice());
    }
}

#[test]
fn writes_resume_after_heal() {
    let backend = backend();
    let client = client(&backend, 0, 5);
    let mut rng = StdRng::seed_from_u64(5);
    let home = RegionId::new(0);
    backend.fail_region(RegionId::new(4));
    assert!(backend
        .put_object(home, ObjectId::new(9), &[1; SIZE], &mut rng)
        .is_err());
    backend.heal_region(RegionId::new(4));
    let put = backend
        .put_object(home, ObjectId::new(9), &[1; SIZE], &mut rng)
        .unwrap();
    assert_eq!(put.version, 1);
    let out = client.read(ObjectId::new(9)).unwrap();
    assert_eq!(out.data.as_ref(), [1; SIZE].as_slice());
}

#[test]
fn reads_from_every_client_region_survive_remote_failure() {
    let backend = backend();
    // Sydney fails; clients in all other regions still read everything.
    backend.fail_region(RegionId::new(5));
    for home in 0..5u16 {
        let client = client(&backend, home, u64::from(home));
        for i in 0..3 {
            let out = client.read(ObjectId::new(i)).unwrap();
            assert_eq!(out.data.as_ref(), expected_payload(i, SIZE).as_slice());
        }
    }
}
