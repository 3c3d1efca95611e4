//! Mixed read/write cluster workloads: the `mixed` experiment.
//!
//! It measures what **writes cost reads**, and checks the write path
//! while doing it. `clients` closed-loop clients drive a `K`-node
//! [`ClusterRouter`] with a seeded
//! [`MixedStream`](agar_workload::MixedStream) (write ratio and
//! write-size distribution from `agar-workload`) on the simulated clock
//! of [`closed_loop`], ticking every member's reconfiguration clock once
//! a simulated second. Every write is filed in a [`WriteHistory`] and
//! every read is checked against it. On the simulated clock each
//! operation runs to completion at the instant it starts, so a read
//! must return exactly the newest completed version of its key. Bytes
//! no write produced (a **mixed-version decode**) or an older version
//! (a **stale read**) count as stale, and that count must be zero.
//!
//! The run also reports simulated read and write latency, the cache
//! hits that explain the read latency, and invalidations per write (the
//! other members that held chunks of the written object). Lease
//! contention needs two writers at once; `bench/`'s `cluster-mixed`
//! workload measures it with OS threads.

use crate::cell::cell_labels;
use crate::cluster::build_warm_cluster;
use crate::experiments::ExperimentParams;
use crate::harness::{closed_loop, OpSample, Serve};
use crate::history::WriteHistory;
use crate::table::Table;
use agar::AgarNode;
use agar_cluster::ClusterRouter;
use agar_ec::ObjectId;
use agar_net::SimTime;
use agar_obs::{LatencyHistogram, LatencySummary, MetricsRegistry, ReadTrace, StageSummaries};
use agar_store::expected_payload;
use agar_workload::{Distribution, MixedOp, ReadWriteMix, WorkloadSpec, WriteSizeDist};

/// Outcome of one mixed read/write run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MixedRun {
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Operations that failed. **Must be zero.**
    pub errors: usize,
    /// Reads that returned anything but the newest version of their
    /// key. **Must be zero.**
    pub stale_reads: u64,
    /// Reads served at least one chunk by the home member's cache (the
    /// paper's Figure 7 hit: total or partial): a write that leaves the
    /// owner's cache empty shows here before it shows in milliseconds.
    pub hit_reads: u64,
    /// Percentile summary of per-read simulated latency.
    pub read_latency: LatencySummary,
    /// Percentile summary of per-write simulated latency.
    pub write_latency: LatencySummary,
    /// Members found holding a written object, across all writes.
    pub invalidations: u64,
    /// Per-stage latency breakdown (plan/lookup/fetch/bind/decode) of
    /// the measured reads' traces, aggregated across members. Empty
    /// when the cluster was built without tracing.
    pub stages: StageSummaries,
}

/// The `mixed` clients' server: routed reads checked against the write
/// history, routed writes filed in it, and every member's
/// reconfiguration tick.
struct RoutedOps<'a> {
    router: &'a ClusterRouter,
    history: WriteHistory,
    reads: LatencyHistogram,
    writes: LatencyHistogram,
    stale_reads: u64,
    hit_reads: u64,
    invalidations: u64,
}

impl Serve for RoutedOps<'_> {
    fn serve(&mut self, op: MixedOp) -> Option<OpSample> {
        let object = ObjectId::new(op.key());
        let (latency, backend_fetches) = match op {
            MixedOp::Read { key } => {
                let metrics = self.router.read(object).ok()?.into_inner();
                let newest = self.history.newest(key);
                self.stale_reads +=
                    u64::from(self.history.classify(key, &metrics.data) != Some(newest));
                self.hit_reads += u64::from(metrics.cache_hits > 0);
                self.reads.record(metrics.latency);
                (metrics.latency, metrics.backend_fetches)
            }
            MixedOp::Write { key, size } => {
                let payload = self.history.next_payload(key, size);
                let metrics = self.router.write(object, &payload).ok()?;
                self.history.complete(key, &payload, metrics.version);
                self.invalidations += metrics.invalidations;
                self.writes.record(metrics.latency);
                (metrics.latency, 0)
            }
        };
        Some(OpSample {
            latency,
            backend_fetches,
        })
    }

    fn tick(&mut self, now: SimTime) {
        self.router.maybe_reconfigure_all(now);
    }
}

/// Drives `clients` closed-loop clients through `operations` mixed
/// operations (keys Zipfian over `0..catalogue`, split and write sizes
/// from `mix`) against the router on the simulated clock, checking
/// every read against the write history.
///
/// # Panics
///
/// Panics if the mix fails validation or the catalogue reset fails.
pub fn run_mixed_cluster(
    router: &ClusterRouter,
    clients: usize,
    operations: usize,
    catalogue: u64,
    base_size: usize,
    mix: ReadWriteMix,
    seed: u64,
) -> MixedRun {
    // Reset the catalogue to the pristine pattern through the router:
    // the history classifies payloads against a known initial state,
    // and earlier runs against the same backend (other write ratios)
    // leave their fill bytes behind otherwise.
    for key in 0..catalogue {
        router
            .write(ObjectId::new(key), &expected_payload(key, base_size))
            .expect("catalogue reset write");
    }
    let spec = WorkloadSpec {
        object_count: catalogue,
        object_size: base_size,
        operations,
        distribution: Distribution::Zipfian { skew: 1.1 },
        ..WorkloadSpec::paper_default()
    };
    let ops = spec.mixed_stream(mix, seed).expect("validated mix");
    let members: Vec<_> = router
        .member_ids()
        .into_iter()
        .map(|id| router.member(id).expect("member listed but missing"))
        .collect();
    // Trace scoping: the warm-up and catalogue-reset reads were traced
    // too (when tracing is on), so remember how many traces each member
    // has recorded so far and keep only the younger ones.
    let recorded = |node: &AgarNode| node.trace_snapshot().len() as u64 + node.traces_dropped();
    let marks: Vec<u64> = members.iter().map(|node| recorded(node)).collect();
    let mut served = RoutedOps {
        router,
        history: WriteHistory::new(catalogue, base_size),
        reads: LatencyHistogram::new(),
        writes: LatencyHistogram::new(),
        stale_reads: 0,
        hit_reads: 0,
        invalidations: 0,
    };
    let outcome = closed_loop(&mut served, ops, clients, SimTime::ZERO, &mut |now| {
        members.iter().for_each(|node| node.set_sim_now(now));
    });
    let mut measured: Vec<ReadTrace> = Vec::new();
    for (node, before) in members.iter().zip(marks) {
        let traces = node.trace_snapshot();
        let fresh = (recorded(node) - before).min(traces.len() as u64) as usize;
        measured.extend_from_slice(&traces[traces.len() - fresh..]);
    }
    MixedRun {
        reads: served.reads.len() as u64,
        writes: served.writes.len() as u64,
        errors: outcome.errors,
        stale_reads: served.stale_reads,
        hit_reads: served.hit_reads,
        read_latency: served.reads.summary(),
        write_latency: served.writes.summary(),
        invalidations: served.invalidations,
        stages: StageSummaries::from_traces(&measured),
    }
}

/// The `mixed` experiment: 4 closed-loop clients × 3 ring-routed nodes
/// at 5 %, 20 % and 50 % writes, `params.operations` per ratio, with
/// uniform write sizes around the catalogue object size, on one fresh
/// deployment. With a registry, every ratio's cluster binds its
/// counters and stage histograms into it under `{scenario}` labels so
/// a `--metrics` dump carries the whole grid.
pub(crate) fn mixed_table(params: &ExperimentParams, registry: Option<&MetricsRegistry>) -> Table {
    let deployment = &params.deployment();
    let region = deployment.region("Frankfurt");
    let (members, clients, hot_objects) = (3, 4, 8);
    let mut headers: Vec<String> = [
        "write %", "nodes", "clients", "reads", "writes", "errors", "stale", "hit %", "read ms",
    ]
    .map(String::from)
    .into();
    headers.extend(LatencySummary::percentile_headers());
    headers.extend(StageSummaries::p99_headers());
    headers.extend(["write ms".into(), "inval/write".into()]);
    let mut table = Table::new(
        "Mixed — closed-loop clients x K ring-routed nodes under a read/write mix \
         (per-object write leases, invalidation by chunk id)",
        headers,
    );
    let base_size = deployment.scale.object_size;
    for ratio in [0.05, 0.2, 0.5] {
        // A fresh warm cluster per ratio (the run itself resets the
        // experiment's catalogue contents before measuring).
        let router = build_warm_cluster(
            deployment,
            region,
            members,
            hot_objects,
            0,
            true,
            0xF00D ^ (ratio * 1000.0) as u64,
        );
        if let Some(registry) = registry {
            let labels = cell_labels(&format!("write {:.0}%", ratio * 100.0), "mixed");
            router.register_metrics(registry, &labels);
        }
        let mix = ReadWriteMix {
            write_ratio: ratio,
            write_size: WriteSizeDist::UniformBytes {
                min: (base_size / 2).max(1),
                max: base_size,
            },
        };
        let run = run_mixed_cluster(
            &router,
            clients,
            params.operations,
            hot_objects,
            base_size,
            mix,
            0x111ED ^ (ratio * 1000.0) as u64,
        );
        eprintln!(
            "  [mixed] {:.0}% writes: {} reads + {} writes, {} stale, {} errors",
            ratio * 100.0,
            run.reads,
            run.writes,
            run.stale_reads,
            run.errors
        );
        let mut row = vec![
            format!("{:.0}", ratio * 100.0),
            members.to_string(),
            clients.to_string(),
            run.reads.to_string(),
            run.writes.to_string(),
            run.errors.to_string(),
            run.stale_reads.to_string(),
            format!(
                "{:.1}",
                100.0 * run.hit_reads as f64 / run.reads.max(1) as f64
            ),
            format!("{:.1}", run.read_latency.mean_ms),
        ];
        row.extend(run.read_latency.percentile_cells());
        row.extend(run.stages.p99_cells());
        row.extend([
            format!("{:.1}", run.write_latency.mean_ms),
            format!("{:.2}", run.invalidations as f64 / run.writes.max(1) as f64),
        ]);
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Deployment, Scale};

    #[test]
    fn mixed_run_reports_zero_stale_reads() {
        let deployment = Deployment::build(Scale::tiny());
        let region = deployment.region("Frankfurt");
        let router = build_warm_cluster(&deployment, region, 2, 4, 0, false, 3);
        let mix = ReadWriteMix::with_ratio(0.25);
        let run = run_mixed_cluster(&router, 4, 160, 4, deployment.scale.object_size, mix, 11);
        assert_eq!(run.reads + run.writes, 160);
        assert_eq!(run.errors, 0);
        assert!(run.writes > 0, "a 25% mix must produce writes");
        assert_eq!(run.stale_reads, 0, "stale or mixed-version reads");
        assert!(run.read_latency.mean_ms > 0.0);
        assert_eq!(run.read_latency.samples as u64, run.reads);
        assert!(run.read_latency.p50_ms <= run.read_latency.p999_ms);
        assert_eq!(run.write_latency.samples as u64, run.writes);
        assert!(run.write_latency.mean_ms > 0.0);
    }

    #[test]
    fn fresh_cells_on_one_seed_are_equal_field_for_field() {
        let deployment = Deployment::build(Scale::tiny());
        let region = deployment.region("Frankfurt");
        let size = deployment.scale.object_size;
        let mix = ReadWriteMix {
            write_ratio: 0.3,
            write_size: WriteSizeDist::UniformBytes {
                min: size / 2,
                max: size,
            },
        };
        let cell = || {
            let router = build_warm_cluster(&deployment, region, 3, 8, 0, true, 0xF00D);
            run_mixed_cluster(&router, 4, 200, 8, size, mix, 0x111ED)
        };
        let first = cell();
        assert!(first.writes > 0 && first.stages.samples() > 0);
        assert_eq!(first, cell());
    }

    #[test]
    fn traced_cluster_yields_a_measured_stage_breakdown() {
        let deployment = Deployment::build(Scale::tiny());
        let region = deployment.region("Frankfurt");
        let router = build_warm_cluster(&deployment, region, 2, 4, 0, true, 3);
        let mix = ReadWriteMix::with_ratio(0.25);
        let run = run_mixed_cluster(&router, 2, 80, 4, deployment.scale.object_size, mix, 11);
        // Only the measured reads are summarised — warm-up and
        // catalogue-reset traffic is scoped out by the trace marks.
        assert_eq!(run.stages.samples() as u64, run.reads);
        // An untraced cluster reports an empty breakdown.
        let untraced = build_warm_cluster(&deployment, region, 2, 4, 0, false, 3);
        let bare = run_mixed_cluster(
            &untraced,
            2,
            40,
            4,
            deployment.scale.object_size,
            ReadWriteMix::with_ratio(0.0),
            5,
        );
        assert_eq!(bare.stages.samples(), 0);
    }

    #[test]
    fn read_only_mix_degenerates_to_the_cluster_harness() {
        let deployment = Deployment::build(Scale::tiny());
        let region = deployment.region("Frankfurt");
        let router = build_warm_cluster(&deployment, region, 2, 4, 0, false, 3);
        let run = run_mixed_cluster(
            &router,
            2,
            60,
            4,
            deployment.scale.object_size,
            ReadWriteMix::with_ratio(0.0),
            5,
        );
        assert_eq!(run.writes, 0);
        assert_eq!(run.reads, 60);
        assert_eq!(
            run.hit_reads, 60,
            "a warm cluster with no writes misses nothing"
        );
        assert_eq!((run.errors, run.stale_reads, run.invalidations), (0, 0, 0));
    }

    /// Regression for the stale-manifest-size bug: writes whose sizes
    /// differ from the catalogue size (the table's uniform write-size
    /// distribution) used to decode against the original manifest
    /// size, leaking codec zero padding into read payloads — every
    /// such read classified as a mixed-version decode.
    #[test]
    fn variable_size_writes_never_produce_stale_or_torn_reads() {
        let deployment = Deployment::build(Scale::tiny());
        let region = deployment.region("Frankfurt");
        let base_size = deployment.scale.object_size;
        let router = build_warm_cluster(&deployment, region, 3, 8, 0, false, 0xF00D);
        let mix = ReadWriteMix {
            write_ratio: 0.2,
            write_size: WriteSizeDist::UniformBytes {
                min: (base_size / 2).max(1),
                max: base_size,
            },
        };
        let run = run_mixed_cluster(&router, 4, 600, 8, base_size, mix, 0x111ED);
        assert!(run.writes > 0);
        assert_eq!(run.errors, 0);
        assert_eq!(
            run.stale_reads, 0,
            "variable-size writes produced stale or torn reads"
        );
    }
}
