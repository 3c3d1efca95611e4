//! Integration tests for the §VI extensions: write coherence across
//! regions and cache collaboration between neighbours, both served by
//! the ring-routed `ClusterRouter` over one member per region (one
//! inter-node story for the collab pattern, the write path and the
//! cluster tier alike).

use agar::{AgarNode, AgarSettings, CachingClient};
use agar_cluster::{ClusterRouter, ClusterSettings};
use agar_ec::{CodingParams, ObjectId};
use agar_net::presets::{aws_six_regions, DUBLIN, FRANKFURT, SYDNEY};
use agar_store::{populate, Backend, RoundRobin};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

const SIZE: usize = 9_000;

fn deployment() -> (Arc<Backend>, Vec<Arc<AgarNode>>) {
    let preset = aws_six_regions();
    let backend = Arc::new(
        Backend::new(
            preset.topology.clone(),
            Arc::new(preset.latency.clone()),
            CodingParams::paper_default(),
            Box::new(RoundRobin),
        )
        .unwrap(),
    );
    let mut rng = StdRng::seed_from_u64(2);
    populate(&backend, 10, SIZE, &mut rng).unwrap();
    let nodes = preset
        .topology
        .ids()
        .map(|region| {
            Arc::new(
                AgarNode::new(
                    region,
                    Arc::clone(&backend),
                    AgarSettings::paper_default(3 * SIZE),
                    region.index() as u64 + 100,
                )
                .unwrap(),
            )
        })
        .collect();
    (backend, nodes)
}

/// Fronts the six per-region nodes with a ring router configured for
/// the collaboration pattern: reads stay homed at the client's region
/// (`read_from`), and the probe budget covers every other member, so
/// any warm neighbour is found — in deterministic ring order rather
/// than by scanning members linearly. Returns the router and the
/// member id of each region-indexed node.
fn collab_router(backend: &Arc<Backend>, nodes: &[Arc<AgarNode>]) -> (ClusterRouter, Vec<u64>) {
    let settings = ClusterSettings {
        sibling_probes: nodes.len() - 1,
    };
    let router = ClusterRouter::new(Arc::clone(backend), settings, 9).unwrap();
    let ids = nodes
        .iter()
        .map(|node| router.add_node(Arc::clone(node)).node)
        .collect();
    (router, ids)
}

fn warm(node: &AgarNode, object: ObjectId) {
    for _ in 0..40 {
        node.read(object).unwrap();
    }
    node.force_reconfigure();
    node.read(object).unwrap();
}

/// A routed write leaves the new bytes readable in every region: the
/// owner keeps the configured chunks of the version it wrote, and
/// every other region's cache dropped the object.
#[test]
fn writes_propagate_through_all_region_caches() {
    let (backend, nodes) = deployment();
    let (router, ids) = collab_router(&backend, &nodes);
    let object = ObjectId::new(0);
    for node in &nodes {
        warm(node, object);
    }
    let payload = vec![0xCDu8; SIZE];
    let write = router.write(object, &payload).unwrap();
    assert_eq!(write.version, 2);
    assert!(!write.latency.is_zero());
    assert_eq!(write.invalidations, nodes.len() as u64 - 1);
    for (node, &id) in nodes.iter().zip(&ids) {
        let held = node.cache_contents().contains_key(&object);
        assert_eq!(held, id == write.home, "{}", node.region());
    }
    for node in &nodes {
        let metrics = node.read(object).unwrap();
        assert_eq!(
            metrics.data.as_ref(),
            payload.as_slice(),
            "stale read at {}",
            node.region()
        );
    }
}

#[test]
fn repeated_writes_keep_monotonic_versions() {
    let (backend, nodes) = deployment();
    let (router, _) = collab_router(&backend, &nodes);
    let object = ObjectId::new(3);
    for round in 2..6u64 {
        let payload = vec![round as u8; SIZE];
        let write = router.write(object, &payload).unwrap();
        assert_eq!(write.version, round);
    }
    assert_eq!(router.cache_stats().lease_grants(), 4);
}

/// Version validation alone keeps a write that bypasses the router —
/// no lease, no invalidation — from being served stale: the warm
/// region's older chunks are misses, and the read returns the new
/// bytes.
#[test]
fn version_validation_alone_guarantees_freshness() {
    let (backend, nodes) = deployment();
    let object = ObjectId::new(1);
    let (router, ids) = collab_router(&backend, &nodes);
    let sydney = &nodes[SYDNEY.index()];
    warm(sydney, object);
    let payload = vec![8u8; SIZE];
    backend
        .put_object(FRANKFURT, object, &payload, &mut StdRng::seed_from_u64(4))
        .unwrap();
    assert!(sydney.cache_contents().contains_key(&object));
    let read = router.read_from(ids[SYDNEY.index()], object).unwrap();
    assert_eq!(read.metrics().cache_hits, 0);
    assert_eq!(read.metrics().data.as_ref(), payload.as_slice());
}

#[test]
fn collaborative_reads_tap_neighbour_caches() {
    let (backend, nodes) = deployment();
    let object = ObjectId::new(0);
    // Dublin holds the object; Frankfurt's cache is cold.
    warm(&nodes[DUBLIN.index()], object);
    let (router, ids) = collab_router(&backend, &nodes);
    let solo = nodes[FRANKFURT.index()].read(object).unwrap();
    let collab = router.read_from(ids[FRANKFURT.index()], object).unwrap();
    assert_eq!(collab.metrics().data.as_ref(), solo.data.as_ref());
    assert!(
        collab.metrics().latency <= solo.latency,
        "collaboration must not be slower: {:?} vs {:?}",
        collab.metrics().latency,
        solo.latency
    );
    assert!(
        router.counters().remote_hits.get() > 0,
        "no neighbour hits recorded"
    );
    assert_eq!(collab.home, ids[FRANKFURT.index()]);
}

#[test]
fn collaboration_across_the_planet_is_useless() {
    let (backend, nodes) = deployment();
    let object = ObjectId::new(1);
    // Sydney holds the object; Frankfurt reads. Sydney's cache is as far
    // as the worst backend region, so collaboration should change little.
    warm(&nodes[SYDNEY.index()], object);
    let (router, ids) = collab_router(&backend, &nodes);
    let collab = router.read_from(ids[FRANKFURT.index()], object).unwrap();
    assert_eq!(collab.metrics().data.len(), SIZE);
    // Latency must stay in the backend ballpark (no magic).
    assert!(collab.metrics().latency.as_millis() > 300);
}
