//! Observability: warm a node and a small cluster, bind their counters
//! and per-stage read histograms into a metrics registry, and print the
//! Prometheus text exposition a scrape endpoint would serve. Everything
//! on stdout is scrape text — pipe it straight into a format checker:
//!
//! ```sh
//! cargo run --release --example observability | python3 ci/check_exposition.py
//! ```

use agar::{AgarNode, AgarSettings, CachingClient, DirectFetcher};
use agar_chaos::{ChaosClock, ChaosPlane, ChaosSpec};
use agar_cluster::{ClusterRouter, ClusterSettings};
use agar_ec::{CodingParams, ObjectId};
use agar_net::presets::{aws_six_regions, FRANKFURT};
use agar_net::SimTime;
use agar_obs::{Labels, MetricsRegistry};
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
    let mut rng = StdRng::seed_from_u64(3);
    populate(&backend, 40, 45_000, &mut rng)?;

    // Trace every read: the per-stage histograms below come from the
    // read traces. A production node would sample sparsely instead.
    let mut settings = AgarSettings::paper_default(8 * 45_000);
    settings.trace_sample_every = 1;
    // A warm disk tier under the RAM cache, so the disk-tier families
    // (hits, appended bytes, corrupt frames) show up in the scrape body.
    settings.disk_capacity_bytes = 4 * 45_000;
    let node = AgarNode::new(FRANKFURT, Arc::clone(&backend), settings, 11)?;

    // Route fetches through a quiet chaos plane: it injects nothing
    // (byte-identical to no plane at all) but exports the fault
    // counters a hardened deployment would scrape.
    let plane = Arc::new(ChaosPlane::new(
        Arc::new(DirectFetcher::new(Arc::clone(&backend))) as _,
        ChaosSpec::quiet(),
        ChaosClock::new(),
    ));
    node.set_chunk_fetcher(Arc::clone(&plane) as _);

    // Register BEFORE the traffic: registration late-binds the node's
    // live counters, so the order doesn't matter for correctness —
    // but a real service registers once at startup.
    let registry = MetricsRegistry::new();
    let labels = Labels::new().with("region", "eu-central-1");
    node.register_metrics(&registry, &labels);
    plane.counters().register_with(&registry, &labels);

    // Warm the cache: a Zipf-ish skew via repeated low keys, a
    // reconfiguration, then a hot re-read pass.
    for round in 0..3u64 {
        for id in 0..40u64 {
            node.set_sim_now(SimTime::from_millis(round * 1_000 + id * 20));
            node.read(ObjectId::new(id % (8 + id / 5).max(1)))?;
        }
    }
    node.force_reconfigure();
    for id in 0..8u64 {
        node.set_sim_now(SimTime::from_millis(4_000 + id * 20));
        node.read(ObjectId::new(id))?;
    }

    // A three-member cluster in the same registry: the router's own
    // counters plus the fetch coordinator's and the lease manager's
    // (the `source=` series), each member labelled by id.
    let router = ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), 5)?;
    for seed in 0..3 {
        let settings = AgarSettings::paper_default(8 * 45_000);
        router.add_node(Arc::new(AgarNode::new(
            FRANKFURT,
            Arc::clone(&backend),
            settings,
            seed,
        )?));
    }
    router.register_metrics(&registry, &Labels::new().with("cluster", "demo"));
    for id in 0..12u64 {
        router.read(ObjectId::new(id % 5))?;
    }
    router.write(ObjectId::new(0), &[0xA5; 45_000])?;

    // The scrape body — exactly what a `/metrics` endpoint serves.
    print!("{}", registry.render_prometheus());
    Ok(())
}
