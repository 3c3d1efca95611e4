//! Multi-threaded wall-clock throughput harness.
//!
//! Everything else in this crate measures *simulated* latency on a
//! deterministic clock; this module measures how fast the host actually
//! executes reads when `M` OS-thread clients hammer **one shared
//! [`AgarNode`]** — the workload the concurrent read pipeline exists
//! for. A cache-hit-heavy run (hot set fully configured and
//! pre-filled) isolates the node's own locking: with the old node-wide
//! mutex, aggregate ops/s stayed flat as threads were added; with the
//! sharded pipeline it scales.

use crate::harness::Deployment;
use crate::table::{LatencyHistogram, LatencySummary};
use agar::{AgarError, AgarNode, CachingClient, ReadMetrics};
use agar_ec::ObjectId;
use agar_net::RegionId;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one multi-threaded hammering run.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputRun {
    /// Number of client threads.
    pub threads: usize,
    /// Total reads completed across all threads.
    pub total_ops: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Aggregate reads per second.
    pub ops_per_sec: f64,
    /// Chunks served from the cache across all reads.
    pub cache_hits: u64,
    /// Chunks fetched from the backend across all reads.
    pub backend_fetches: u64,
    /// Percentile summary of per-operation wall-clock latency.
    pub latency: LatencySummary,
}

/// Builds an Agar node whose cache is warm for objects `0..hot_objects`:
/// the hot set is made popular, the node reconfigures (downloading the
/// configured chunks a priori), and one verification pass confirms the
/// reads are full cache hits.
///
/// # Panics
///
/// Panics if the cache cannot hold the hot set (caller sizing bug) or a
/// read fails.
pub fn build_warm_node(
    deployment: &Deployment,
    region: RegionId,
    cache_mb: f64,
    hot_objects: u64,
    seed: u64,
) -> Arc<AgarNode> {
    assert!(hot_objects > 0, "need at least one hot object");
    let settings = deployment.settings(deployment.scale.cache_bytes(cache_mb));
    let node = Arc::new(
        AgarNode::new(region, Arc::clone(&deployment.backend), settings, seed)
            .expect("paper settings are valid"),
    );
    for object in 0..hot_objects {
        for _ in 0..3 {
            node.read(ObjectId::new(object)).expect("warm-up read");
        }
    }
    node.force_reconfigure();
    let k = deployment.backend.params().data_chunks();
    for object in 0..hot_objects {
        let metrics = node.read(ObjectId::new(object)).expect("verification read");
        assert_eq!(
            metrics.cache_hits, k,
            "object {object} not fully cached; shrink the hot set or grow the cache"
        );
    }
    node
}

/// Hammers one shared reader — a node's `read`, a router's routed
/// `read` — with `threads` OS threads, each performing
/// `ops_per_thread` reads round-robin over the hot set, and reports
/// aggregate wall-clock throughput.
///
/// # Panics
///
/// Panics if a read fails (the backend is healthy in this harness).
pub fn run_threads(
    read: impl Fn(ObjectId) -> Result<ReadMetrics, AgarError> + Sync,
    threads: usize,
    ops_per_thread: usize,
    hot_objects: u64,
) -> ThroughputRun {
    let threads = threads.max(1);
    let start = Instant::now();
    let mut cache_hits = 0u64;
    let mut backend_fetches = 0u64;
    let mut histogram = LatencyHistogram::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let read = &read;
                scope.spawn(move || {
                    let mut hits = 0u64;
                    let mut fetches = 0u64;
                    let mut local = LatencyHistogram::new();
                    for i in 0..ops_per_thread {
                        // Offset each thread so they touch different
                        // objects (distinct cache shards, distinct
                        // cluster members) at any instant.
                        let object = (t * 3 + i) as u64 % hot_objects;
                        let op_start = Instant::now();
                        let metrics = read(ObjectId::new(object)).expect("healthy backend read");
                        local.record(op_start.elapsed());
                        hits += metrics.cache_hits as u64;
                        fetches += metrics.backend_fetches as u64;
                    }
                    (hits, fetches, local)
                })
            })
            .collect();
        for handle in handles {
            let (hits, fetches, local) = handle.join().expect("client thread panicked");
            cache_hits += hits;
            backend_fetches += fetches;
            histogram.merge(&local);
        }
    });
    let elapsed = start.elapsed();
    let total_ops = (threads * ops_per_thread) as u64;
    ThroughputRun {
        threads,
        total_ops,
        elapsed,
        ops_per_sec: total_ops as f64 / elapsed.as_secs_f64().max(1e-9),
        cache_hits,
        backend_fetches,
        latency: histogram.summary(),
    }
}

/// Runs the thread-count sweep against one warm node and returns one
/// [`ThroughputRun`] per entry in `thread_counts`.
pub fn throughput_scaling(
    deployment: &Deployment,
    region: RegionId,
    thread_counts: &[usize],
    ops_per_thread: usize,
) -> Vec<ThroughputRun> {
    // 8 hot objects in a 10-"MB" cache: fully cacheable at every scale.
    let hot_objects = 8;
    let node = build_warm_node(deployment, region, 10.0, hot_objects, 0xC0C0);
    thread_counts
        .iter()
        .map(|&threads| run_threads(|o| node.read(o), threads, ops_per_thread, hot_objects))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn warm_node_serves_pure_hits_across_threads() {
        let deployment = Deployment::build(Scale::tiny());
        let region = deployment.region("Frankfurt");
        let node = build_warm_node(&deployment, region, 10.0, 4, 1);
        let run = run_threads(|o| node.read(o), 4, 25, 4);
        assert_eq!(run.total_ops, 100);
        assert_eq!(run.backend_fetches, 0, "warm hot set must not fetch");
        assert_eq!(run.cache_hits, 100 * 9);
        assert!(run.ops_per_sec > 0.0);
        assert_eq!(run.latency.samples, 100);
        assert!(run.latency.p50_ms <= run.latency.p999_ms);
    }

    #[test]
    fn scaling_sweep_reports_every_thread_count() {
        let deployment = Deployment::build(Scale::tiny());
        let region = deployment.region("Frankfurt");
        let runs = throughput_scaling(&deployment, region, &[1, 2], 20);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].threads, 1);
        assert_eq!(runs[1].threads, 2);
        assert!(runs.iter().all(|r| r.backend_fetches == 0));
    }
}
