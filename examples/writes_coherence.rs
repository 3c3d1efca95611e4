//! Writes and cache coherence (the paper's §VI extension) on a
//! six-region cluster: a routed write leaves the new bytes at the
//! object's owner and drops the object's chunks in every other region,
//! and version checks guarantee no stale data is ever returned — even
//! for a write that bypasses the router.
//!
//! ```sh
//! cargo run --release --example writes_coherence
//! ```

use agar::{AgarNode, AgarSettings, CachingClient};
use agar_cluster::{ClusterRouter, ClusterSettings};
use agar_ec::{CodingParams, ObjectId};
use agar_net::presets::{aws_six_regions, FRANKFURT, SYDNEY};
use agar_store::{populate, Backend, RoundRobin};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::error::Error;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn Error>> {
    let preset = aws_six_regions();
    let backend = Arc::new(Backend::new(
        preset.topology.clone(),
        Arc::new(preset.latency.clone()),
        CodingParams::paper_default(),
        Box::new(RoundRobin),
    )?);
    let mut rng = StdRng::seed_from_u64(13);
    const SIZE: usize = 45_000;
    populate(&backend, 10, SIZE, &mut rng)?;

    // One Agar node per region, all members of one router.
    let router = ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), 23)?;
    let mut members = Vec::new();
    for region in preset.topology.ids() {
        let node = Arc::new(AgarNode::new(
            region,
            Arc::clone(&backend),
            AgarSettings::paper_default(3 * SIZE),
            region.index() as u64,
        )?);
        let id = router.add_node(Arc::clone(&node)).node;
        members.push((id, node));
    }
    let name = |node: &AgarNode| backend.topology().region(node.region()).unwrap().name();

    // Warm every region's cache on object 0.
    let object = ObjectId::new(0);
    for (_, node) in &members {
        for _ in 0..50 {
            node.read(object)?;
        }
        node.force_reconfigure();
        node.read(object)?; // prefill
        println!(
            "{:<12} cached {} chunks of {object}",
            name(node),
            node.cache_contents().get(&object).map_or(0, Vec::len),
        );
    }

    // A routed write: the owner writes under the object's lease, then
    // every other region drops the object's chunks.
    let new_payload = vec![0xEEu8; SIZE];
    let write = router.write(object, &new_payload)?;
    let owner = &members.iter().find(|(id, _)| *id == write.home).unwrap().1;
    println!(
        "\nwrite via {}: version {}, {:.0} ms, invalidated {} other caches",
        name(owner),
        write.version,
        write.latency.as_secs_f64() * 1e3,
        write.invalidations,
    );

    // Every region now reads the new bytes (the owner from its cache,
    // the others refill theirs).
    for (_, node) in &members {
        let metrics = node.read(object)?;
        assert_eq!(metrics.data.as_ref(), new_payload.as_slice());
        println!(
            "{:<12} read v{}: {:>5.0} ms, cache hits {}",
            name(node),
            write.version,
            metrics.latency.as_secs_f64() * 1e3,
            metrics.cache_hits
        );
    }

    // Even an *uncoordinated* write cannot serve stale data: version
    // checks reject outdated chunks on read.
    let sneaky = vec![0x11u8; SIZE];
    let mut rng = StdRng::seed_from_u64(29);
    backend.put_object(FRANKFURT, object, &sneaky, &mut rng)?;
    let metrics = members[SYDNEY.index()].1.read(object)?;
    assert_eq!(metrics.data.as_ref(), sneaky.as_slice());
    assert_eq!(metrics.cache_hits, 0, "stale chunks must not count as hits");
    println!("\nuncoordinated write still read fresh via version validation");
    Ok(())
}
