//! Direct probes: a layer's public function timed on inputs captured
//! from the workload after its timed phase (object and chunk size,
//! cache capacities, the node's popularity snapshot and latency
//! estimates). They run in the traced run only and touch no metric of
//! the timed phase.

use crate::record::timed;
use crate::stats;
use agar::{generate_disk_options, generate_options, AgarNode, ObjectOptions};
use agar_cache::{CachedChunk, DiskStore, PolicyKind, ShardedChunkCache, DEFAULT_CACHE_SHARDS};
use agar_cluster::ClusterRouter;
use agar_ec::{gf256, ChunkId, ObjectId};
use agar_net::RegionId;
use agar_obs::{Counter, Labels, MetricsRegistry};
use agar_store::Backend;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// What the probes need to know about the workload they follow.
pub struct ProbeInputs<'a> {
    pub backend: &'a Backend,
    /// The node whose snapshot feeds the knapsack probes (a cluster
    /// passes its busiest member).
    pub node: &'a AgarNode,
    pub router: Option<&'a ClusterRouter>,
    pub object_size: usize,
    pub seed: u64,
}

/// Median over `batches` batches of the mean time of one `call`, ns.
fn per_call_ns(batches: usize, per_batch: usize, mut call: impl FnMut(usize)) -> f64 {
    let means: Vec<f64> = (0..batches)
        .map(|batch| {
            let start = Instant::now();
            for i in 0..per_batch {
                call(batch * per_batch + i);
            }
            start.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    stats::median(&means)
}

/// Runs every probe; returns `(metric, value)` pairs.
pub fn run(inputs: &ProbeInputs<'_>) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let params = inputs.backend.params();
    let chunk = params.chunk_size(inputs.object_size);
    let settings = inputs.node.settings();
    let payload = Bytes::from(vec![0xA5u8; chunk]);
    let chunk_id = |i: usize| ChunkId::new(ObjectId::new((i / 12) as u64), (i % 12) as u8);

    // cache.sharded: inserts at capacity (every one evicts), then hits.
    let ram = ShardedChunkCache::new(
        settings.cache_capacity_bytes,
        PolicyKind::Lru,
        DEFAULT_CACHE_SHARDS,
    );
    let resident = (settings.cache_capacity_bytes / chunk).max(1);
    let insert_ns = per_call_ns(5, 4 * resident.max(256), |i| {
        ram.insert(chunk_id(i), CachedChunk::new(payload.clone(), 1));
    });
    let keys = ram.keys();
    let get_ns = per_call_ns(5, 20_000, |i| {
        black_box(ram.get(&keys[i % keys.len()]));
    });
    out.push(("cache.sharded.insert_ns", insert_ns));
    out.push(("cache.sharded.get_ns", get_ns));

    // cache.disk: frame append + checksum, frame read + verify.
    let frames = 32;
    let disk = DiskStore::new(2 * frames * (chunk + 64)).expect("disk probe directory");
    let cached = CachedChunk::new(payload.clone(), 1);
    let put_ns = per_call_ns(3, frames, |i| {
        disk.put(chunk_id(i % frames), &cached);
    });
    let disk_get_ns = per_call_ns(3, frames, |i| {
        black_box(disk.get(&chunk_id(i % frames)));
    });
    drop(disk);
    out.push(("cache.disk.put_us", put_ns / 1e3));
    out.push(("cache.disk.get_us", disk_get_ns / 1e3));

    // ec: whole-object encode, one-missing-data-shard decode, raw kernel.
    let codec = inputs.backend.codec();
    let object: Vec<u8> = (0..inputs.object_size)
        .map(|i| (i * 7 % 251) as u8)
        .collect();
    let reps = (16_000_000 / inputs.object_size).clamp(3, 200);
    let encode_ns = per_call_ns(3, reps, |_| {
        black_box(codec.encode_object(&object).expect("encode"));
    });
    let mut shards: Vec<Option<Bytes>> = codec
        .encode_object(&object)
        .expect("encode")
        .into_iter()
        .map(Some)
        .collect();
    shards[0] = None;
    let decode_ns = per_call_ns(3, reps, |_| {
        black_box(
            codec
                .reconstruct_object_report(&shards, object.len())
                .expect("degraded decode"),
        );
    });
    let src = vec![0x5Au8; chunk.max(4096)];
    let mut dst = vec![0u8; src.len()];
    let kernel_reps = (8_000_000 / src.len()).max(8);
    let kernel_ns = per_call_ns(3, kernel_reps, |i| {
        gf256::mul_add_slice(&mut dst, &src, 2 + (i % 250) as u8);
    });
    let mbps = |bytes: usize, ns: f64| bytes as f64 / ns * 1e3;
    out.push(("ec.encode_mbps", mbps(object.len(), encode_ns)));
    out.push(("ec.decode_degraded_mbps", mbps(object.len(), decode_ns)));
    out.push(("ec.gf256.mul_add_mbps", mbps(src.len(), kernel_ns)));

    // store: a whole-object put, on an id outside every key range.
    let mut rng = StdRng::seed_from_u64(inputs.seed ^ 0x9B0B);
    let region = inputs.node.region();
    let put_object_ns = per_call_ns(3, 4, |_| {
        inputs
            .backend
            .put_object(region, ObjectId::new(1 << 40), &object, &mut rng)
            .expect("probe put");
    });
    out.push(("store.put_us", put_object_ns / 1e3));

    // core.monitor / core.options / core.knapsack on the node's own
    // end-of-run statistics.
    let snapshot_ns = per_call_ns(3, 50, |_| {
        black_box(inputs.node.popularity_snapshot());
    });
    out.push(("core.monitor.snapshot_us", snapshot_ns / 1e3));
    let popularity = inputs.node.popularity_snapshot();
    let estimates = inputs.node.latency_estimates();
    let manifests: Vec<_> = popularity
        .iter()
        .filter_map(|&(object, p)| inputs.backend.manifest(object).ok().map(|m| (m, p)))
        .collect();
    let build_options = || -> HashMap<ObjectId, ObjectOptions> {
        manifests
            .iter()
            .map(|(m, p)| {
                (
                    m.object(),
                    generate_options(m, &estimates, settings.cache_read, *p),
                )
            })
            .collect()
    };
    let options_ns = per_call_ns(3, 1, |_| {
        black_box(build_options());
    });
    out.push(("core.options.generate_ms", options_ns / 1e6));
    let options = build_options();
    let ram_chunks = (settings.cache_capacity_bytes / chunk) as u32;
    let disk_chunks = (settings.disk_capacity_bytes / chunk) as u32;
    let populate_ns = per_call_ns(3, 1, |_| {
        let solved = settings
            .solver
            .populate_tiered(&options, ram_chunks, disk_chunks, |ram| {
                manifests
                    .iter()
                    .filter_map(|(m, p)| {
                        let held = ram
                            .options()
                            .iter()
                            .find(|o| o.object() == m.object())
                            .map_or(&[][..], |o| o.chunks());
                        generate_disk_options(
                            m,
                            &estimates,
                            settings.cache_read,
                            settings.disk_read,
                            held,
                            *p,
                        )
                        .map(|options| (m.object(), options))
                    })
                    .collect()
            });
        black_box(solved);
    });
    out.push(("core.knapsack.populate_ms", populate_ns / 1e6));

    // net: one latency sample, as every backend chunk fetch draws.
    let model = inputs.backend.latency_model();
    let regions = inputs.backend.topology().len();
    let sample_ns = per_call_ns(5, 20_000, |i| {
        black_box(model.sample(region, RegionId::new((i % regions) as u16), chunk, &mut rng));
    });
    out.push(("net.sample_ns", sample_ns));

    // obs: a counter increment and a full scrape of what the workload
    // registers.
    let counter = Counter::new();
    let inc_ns = per_call_ns(5, 200_000, |_| counter.inc());
    black_box(counter.get());
    out.push(("obs.counter_inc_ns", inc_ns));
    let registry = MetricsRegistry::new();
    match inputs.router {
        Some(router) => router.register_metrics(&registry, &Labels::new()),
        None => inputs.node.register_metrics(&registry, &Labels::new()),
    }
    let scrape_ns = per_call_ns(3, 20, |_| {
        black_box(registry.render_prometheus());
    });
    out.push(("obs.scrape_us", scrape_ns / 1e3));

    // cluster.ring: owner lookup on the live ring.
    let owner_ns = inputs.router.map_or(0.0, |router| {
        let ring = router.ring();
        per_call_ns(5, 100_000, |i| {
            black_box(ring.owner_of_object(ObjectId::new(i as u64)));
        })
    });
    out.push(("cluster.ring.owner_ns", owner_ns));

    // bench: what the harness's own clock + counter sampling costs.
    let timer_ns = per_call_ns(5, 100_000, |_| {
        black_box(timed(|| ()));
    });
    out.push(("bench.timer_ns", timer_ns));
    out
}

/// The GF(2^8) kernel tier the codec dispatches to on this host (the
/// crate's own detection is private; this mirrors it, including the
/// `AGAR_GF256_KERNEL` cap).
pub fn gf_kernel_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        let detected = if std::arch::is_x86_feature_detected!("gfni")
            && std::arch::is_x86_feature_detected!("avx2")
        {
            3
        } else if std::arch::is_x86_feature_detected!("avx2") {
            2
        } else if std::arch::is_x86_feature_detected!("ssse3") {
            1
        } else {
            0
        };
        let cap = match std::env::var("AGAR_GF256_KERNEL")
            .map(|v| v.to_ascii_lowercase())
            .as_deref()
        {
            Ok("scalar") => 0,
            Ok("ssse3") => 1,
            Ok("avx2") => 2,
            _ => 3,
        };
        ["scalar", "ssse3", "avx2", "gfni"][detected.min(cap)]
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "scalar"
    }
}
