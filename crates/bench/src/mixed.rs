//! Mixed read/write cluster workloads: the `mixed` scenario.
//!
//! The read-oriented harness ([`throughput`](crate::throughput))
//! measures how fast reads go; this module measures what **writes cost
//! them** — and proves the write path honest while doing it. `M` client threads drive a `K`-node
//! [`ClusterRouter`] with a seeded
//! [`MixedStream`](agar_workload::MixedStream) (write ratio +
//! write-size distribution from `agar-workload`), and every read is
//! checked against a per-key write history:
//!
//! - each write's payload is a constant fill byte unique to that write
//!   of the key, registered *before* the write is issued and stamped
//!   with its backend version after it completes;
//! - a read must decode to exactly one registered payload (or the
//!   pristine populate pattern) — anything else is a **mixed-version
//!   decode** and counts as stale;
//! - a read that starts after version `v` of its key completed must
//!   return version ≥ `v` — anything older is a **stale read**.
//!
//! Both counters must be zero: the per-object write lease serialises
//! same-key writers, version validation keeps racing readers off
//! half-written state, and each write's invalidation of the other
//! members keeps sibling caches honest. The run also reports simulated
//! read/write latency, lease contention and invalidations-per-write
//! (the other members that held chunks of the written object).

use crate::harness::Deployment;
use crate::table::{LatencyHistogram, LatencySummary};
use agar_cluster::ClusterRouter;
use agar_ec::ObjectId;
use agar_obs::{Labels, MetricsRegistry, ReadTrace, StageSummaries};
use agar_store::expected_payload;
use agar_workload::{Distribution, MixedOp, ReadWriteMix, WorkloadSpec, WriteSizeDist};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-key write history backing the stale-read checker (see the
/// module docs). Fill bytes are registered before the write is issued
/// (`inflight`) and moved to `completed` with their backend version
/// once it returns.
struct KeyHistory {
    /// `(version, fill byte, payload size)` per completed write, in
    /// completion order (versions may arrive out of append order;
    /// lookups scan).
    completed: Vec<(u64, u8, usize)>,
    /// `(fill byte, payload size)` of writes issued but not yet
    /// completed.
    inflight: Vec<(u8, usize)>,
    /// Monotonic per-key sequence used to derive distinct fill bytes.
    seq: u64,
}

/// What a decoded read corresponds to.
enum ReadVersion {
    /// A definite version: 1 for the pristine populate pattern, else
    /// the matching completed write's version.
    Version(u64),
    /// A write still in flight — concurrent with the read, never stale.
    InFlight,
    /// Matches nothing ever written: a mixed-version decode.
    Corrupt,
}

/// The shared checker: one [`KeyHistory`] per catalogue key.
struct StaleChecker {
    keys: Vec<Mutex<KeyHistory>>,
    base_size: usize,
}

impl StaleChecker {
    fn new(catalogue: u64, base_size: usize) -> Self {
        StaleChecker {
            keys: (0..catalogue)
                .map(|_| {
                    Mutex::new(KeyHistory {
                        completed: Vec::new(),
                        inflight: Vec::new(),
                        seq: 0,
                    })
                })
                .collect(),
            base_size,
        }
    }

    /// The newest completed version of `key` (1 = the populate write).
    /// A read snapshots this *before* it starts: whatever it decodes
    /// must be at least this new.
    fn floor(&self, key: u64) -> u64 {
        let history = self.keys[key as usize].lock().expect("checker poisoned");
        history
            .completed
            .iter()
            .map(|&(version, _, _)| version)
            .max()
            .unwrap_or(1)
    }

    /// Registers a write about to be issued; returns its fill byte.
    fn begin_write(&self, key: u64, size: usize) -> u8 {
        let mut history = self.keys[key as usize].lock().expect("checker poisoned");
        history.seq += 1;
        // Fill bytes cycle through 1..=250 (a byte only holds so
        // many), skipping 0 so leaked codec zero padding can never
        // masquerade as a legitimate payload. `classify` checks the
        // in-flight set before the completed set, matches on (byte,
        // length), and takes the NEWEST completed version per match,
        // so recycling only ever makes the check *lenient* — a
        // recycled byte can never turn a fresh read into a false
        // stale report; past 250 writes to one key, a genuinely stale
        // payload of identical length may escape under a recycled
        // byte's newer version.
        let fill = ((history.seq - 1) % 250) as u8 + 1;
        history.inflight.push((fill, size));
        fill
    }

    /// Completes a write: moves its fill byte to the completed set
    /// under the version the backend assigned.
    fn complete_write(&self, key: u64, fill: u8, size: usize, version: u64) {
        let mut history = self.keys[key as usize].lock().expect("checker poisoned");
        if let Some(pos) = history
            .inflight
            .iter()
            .position(|&entry| entry == (fill, size))
        {
            history.inflight.swap_remove(pos);
        }
        history.completed.push((version, fill, size));
    }

    /// Classifies a decoded payload for `key`. Matches require the
    /// fill byte AND the exact payload length — a truncated or
    /// padded all-fill decode must read as corrupt, not as the write
    /// it was torn from.
    fn classify(&self, key: u64, data: &[u8]) -> ReadVersion {
        if data.len() == self.base_size && data == expected_payload(key, self.base_size).as_slice()
        {
            return ReadVersion::Version(1);
        }
        let Some(&first) = data.first() else {
            return ReadVersion::Corrupt;
        };
        if !data.iter().all(|&b| b == first) {
            return ReadVersion::Corrupt; // mixed-version decode
        }
        let history = self.keys[key as usize].lock().expect("checker poisoned");
        // In-flight first: once fill bytes recycle (>250 writes to one
        // key), a (byte, length) pair can be in BOTH sets — matching
        // the old completed entry would misreport a still-in-flight
        // write's payload as an ancient version (a false stale).
        if history.inflight.contains(&(first, data.len())) {
            ReadVersion::InFlight
        } else if let Some(version) = history
            .completed
            .iter()
            .filter(|&&(_, fill, size)| fill == first && size == data.len())
            .map(|&(version, _, _)| version)
            .max()
        {
            ReadVersion::Version(version)
        } else {
            ReadVersion::Corrupt
        }
    }
}

/// Outcome of one mixed read/write run.
#[derive(Clone, Copy, Debug)]
pub struct MixedRun {
    /// Client threads.
    pub threads: usize,
    /// The driven write ratio.
    pub write_ratio: f64,
    /// Reads completed.
    pub reads: u64,
    /// Writes completed.
    pub writes: u64,
    /// Reads that returned a version older than their start floor or
    /// decoded to no known payload. **Must be zero.**
    pub stale_reads: u64,
    /// Reads that gave up after three version-raced attempts
    /// (`AgarError::ReadContention`) — safe, counted separately.
    pub contended_reads: u64,
    /// Reads served at least one chunk by the home member's cache (the
    /// paper's Figure 7 hit: total or partial) — why the read latency
    /// is what it is: a write that leaves the owner's cache empty shows
    /// here before it shows in milliseconds.
    pub hit_reads: u64,
    /// Mean simulated read latency.
    pub read_latency_mean: Duration,
    /// Percentile summary of per-read simulated latency.
    pub read_latency: LatencySummary,
    /// Mean simulated write latency.
    pub write_latency_mean: Duration,
    /// Writes that waited behind another writer's lease.
    pub lease_contentions: u64,
    /// Members found holding a written object, across all writes.
    pub invalidations: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Aggregate operations per second (host wall clock).
    pub ops_per_sec: f64,
    /// Per-stage latency breakdown (plan/lookup/fetch/bind/decode) of
    /// the measured reads' traces, aggregated across members. Empty
    /// when the cluster was built without tracing.
    pub stages: StageSummaries,
}

impl MixedRun {
    /// Share of reads that were cache hits, total or partial.
    fn hit_ratio(&self) -> f64 {
        self.hit_reads as f64 / self.reads.max(1) as f64
    }

    /// Mean members per write that held chunks of the written object.
    fn invalidations_per_write(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.invalidations as f64 / self.writes as f64
        }
    }
}

/// Drives `threads` client threads of `ops_per_thread` mixed
/// operations each (keys Zipfian over `0..catalogue`, split and write
/// sizes from `mix`) against the router, verifying every read against
/// the write history.
///
/// # Panics
///
/// Panics if an operation fails for any reason other than read
/// contention, or if the mix fails validation.
pub fn run_mixed_cluster(
    router: &Arc<ClusterRouter>,
    threads: usize,
    ops_per_thread: usize,
    catalogue: u64,
    base_size: usize,
    mix: ReadWriteMix,
    seed: u64,
) -> MixedRun {
    let threads = threads.max(1);
    // Reset the catalogue to the pristine pattern through the router:
    // the checker classifies payloads against a known initial state,
    // and earlier runs against the same backend (other write ratios)
    // leave their fill bytes behind otherwise.
    for key in 0..catalogue {
        router
            .write(ObjectId::new(key), &expected_payload(key, base_size))
            .expect("catalogue reset write");
    }
    let checker = StaleChecker::new(catalogue, base_size);
    let spec = WorkloadSpec {
        object_count: catalogue,
        object_size: base_size,
        operations: ops_per_thread,
        read_fraction: 1.0,
        distribution: Distribution::Zipfian { skew: 1.1 },
    };
    #[derive(Default)]
    struct ThreadTotals {
        reads: u64,
        writes: u64,
        stale: u64,
        contended_reads: u64,
        hit_reads: u64,
        read_latency: Duration,
        read_histogram: LatencyHistogram,
        write_latency: Duration,
        lease_contentions: u64,
        invalidations: u64,
    }
    // Trace scoping: the warm-up and catalogue-reset reads above were
    // traced too (when tracing is on), so remember how many traces
    // each member has recorded so far and keep only the younger ones.
    let trace_marks: Vec<(u64, u64)> = router
        .member_ids()
        .iter()
        .map(|&id| {
            let node = router.member(id).expect("member listed but missing");
            (
                id,
                node.trace_snapshot().len() as u64 + node.traces_dropped(),
            )
        })
        .collect();
    let start = Instant::now();
    let mut totals = ThreadTotals::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let router = Arc::clone(router);
                let checker = &checker;
                let spec = &spec;
                scope.spawn(move || {
                    let stream = spec
                        .mixed_stream(mix, seed ^ (t as u64).wrapping_mul(0x9E37_79B9))
                        .expect("validated mix");
                    let mut out = ThreadTotals::default();
                    for op in stream {
                        match op {
                            MixedOp::Read { key } => {
                                let floor = checker.floor(key);
                                let metrics = match router.read(ObjectId::new(key)) {
                                    Ok(metrics) => metrics,
                                    Err(agar::AgarError::ReadContention { .. }) => {
                                        out.contended_reads += 1;
                                        continue;
                                    }
                                    Err(e) => panic!("mixed read failed: {e}"),
                                };
                                out.reads += 1;
                                out.hit_reads += u64::from(metrics.metrics().cache_hits > 0);
                                out.read_latency += metrics.metrics().latency;
                                out.read_histogram.record(metrics.metrics().latency);
                                let stale =
                                    match checker.classify(key, metrics.metrics().data.as_ref()) {
                                        ReadVersion::Version(version) => version < floor,
                                        ReadVersion::InFlight => false,
                                        ReadVersion::Corrupt => true,
                                    };
                                out.stale += stale as u64;
                            }
                            MixedOp::Write { key, size } => {
                                let fill = checker.begin_write(key, size);
                                let payload = vec![fill; size];
                                let metrics = router
                                    .write(ObjectId::new(key), &payload)
                                    .expect("mixed write failed");
                                checker.complete_write(key, fill, size, metrics.version);
                                out.writes += 1;
                                out.write_latency += metrics.latency;
                                out.lease_contentions += metrics.lease_contended as u64;
                                out.invalidations += metrics.invalidations;
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        for handle in handles {
            let out = handle.join().expect("mixed client thread panicked");
            totals.reads += out.reads;
            totals.writes += out.writes;
            totals.stale += out.stale;
            totals.contended_reads += out.contended_reads;
            totals.hit_reads += out.hit_reads;
            totals.read_latency += out.read_latency;
            totals.read_histogram.merge(&out.read_histogram);
            totals.write_latency += out.write_latency;
            totals.lease_contentions += out.lease_contentions;
            totals.invalidations += out.invalidations;
        }
    });
    let elapsed = start.elapsed();
    let mut measured_traces: Vec<ReadTrace> = Vec::new();
    for &(id, before) in &trace_marks {
        let node = router.member(id).expect("member listed but missing");
        let traces = node.trace_snapshot();
        let recorded = traces.len() as u64 + node.traces_dropped();
        let fresh = (recorded - before).min(traces.len() as u64) as usize;
        measured_traces.extend_from_slice(&traces[traces.len() - fresh..]);
    }
    let total_ops = totals.reads + totals.writes + totals.contended_reads;
    MixedRun {
        threads,
        write_ratio: mix.write_ratio,
        reads: totals.reads,
        writes: totals.writes,
        stale_reads: totals.stale,
        contended_reads: totals.contended_reads,
        hit_reads: totals.hit_reads,
        read_latency_mean: totals
            .read_latency
            .checked_div(totals.reads.max(1) as u32)
            .unwrap_or_default(),
        read_latency: totals.read_histogram.summary(),
        write_latency_mean: totals
            .write_latency
            .checked_div(totals.writes.max(1) as u32)
            .unwrap_or_default(),
        lease_contentions: totals.lease_contentions,
        invalidations: totals.invalidations,
        elapsed,
        ops_per_sec: total_ops as f64 / elapsed.as_secs_f64().max(1e-9),
        stages: StageSummaries::from_traces(&measured_traces),
    }
}

/// The `mixed` experiment: 4 client threads × 3 ring-routed nodes at
/// 5 %, 20 % and 50 % writes, with uniform write sizes around the
/// catalogue object size. With a registry, every ratio's cluster binds
/// its counters and stage histograms into it under `{scenario}` labels
/// so a `--metrics` dump carries the whole grid.
pub(crate) fn mixed_table(
    deployment: &Deployment,
    ops_per_thread: usize,
    registry: Option<&MetricsRegistry>,
) -> crate::table::Table {
    let region = deployment.region("Frankfurt");
    let (members, threads) = (3, 4);
    let mut table = crate::table::Table::new(
        "Mixed — M client threads x K ring-routed nodes under a read/write mix \
         (per-object write leases, invalidation by chunk id)",
        {
            let mut headers: Vec<String> = vec![
                "write %".into(),
                "nodes".into(),
                "threads".into(),
                "reads".into(),
                "writes".into(),
                "stale".into(),
                "hit %".into(),
                "read ms".into(),
            ];
            headers.extend(LatencySummary::percentile_headers());
            headers.extend(StageSummaries::p99_headers());
            headers.extend([
                "write ms".into(),
                "lease waits".into(),
                "inval/write".into(),
                "ops/s".into(),
            ]);
            headers
        },
    );
    let hot_objects = 8;
    let base_size = deployment.scale.object_size;
    for ratio in [0.05, 0.2, 0.5] {
        // A fresh warm cluster per ratio (the run itself resets the
        // shared backend's catalogue contents before measuring).
        let router = crate::cluster::build_warm_cluster(
            deployment,
            region,
            members,
            hot_objects,
            0,
            true,
            0xF00D ^ (ratio * 1000.0) as u64,
        );
        if let Some(registry) = registry {
            let labels = Labels::new()
                .with("scenario", format!("write {:.0}%", ratio * 100.0))
                .with("policy", "mixed");
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
            threads,
            ops_per_thread,
            hot_objects,
            base_size,
            mix,
            0x111ED ^ (ratio * 1000.0) as u64,
        );
        eprintln!(
            "  [mixed] {:.0}% writes: {} reads + {} writes, {} stale, {:.1}% hits, \
             read {:.1} ms / write {:.1} ms, \
             {} lease wait(s), {:.2} invalidations/write, {:.0} ops/s",
            ratio * 100.0,
            run.reads,
            run.writes,
            run.stale_reads,
            run.hit_ratio() * 100.0,
            run.read_latency_mean.as_secs_f64() * 1e3,
            run.write_latency_mean.as_secs_f64() * 1e3,
            run.lease_contentions,
            run.invalidations_per_write(),
            run.ops_per_sec
        );
        let mut row = vec![
            format!("{:.0}", ratio * 100.0),
            members.to_string(),
            run.threads.to_string(),
            run.reads.to_string(),
            run.writes.to_string(),
            run.stale_reads.to_string(),
            format!("{:.1}", run.hit_ratio() * 100.0),
            format!("{:.1}", run.read_latency_mean.as_secs_f64() * 1e3),
        ];
        row.extend(run.read_latency.percentile_cells());
        row.extend(run.stages.p99_cells());
        row.extend([
            format!("{:.1}", run.write_latency_mean.as_secs_f64() * 1e3),
            run.lease_contentions.to_string(),
            format!("{:.2}", run.invalidations_per_write()),
            format!("{:.0}", run.ops_per_sec),
        ]);
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::build_warm_cluster;
    use crate::harness::Scale;

    #[test]
    fn mixed_run_reports_zero_stale_reads() {
        let deployment = Deployment::build(Scale::tiny());
        let region = deployment.region("Frankfurt");
        let router = build_warm_cluster(&deployment, region, 2, 4, 0, false, 3);
        let mix = ReadWriteMix::with_ratio(0.25);
        let run = run_mixed_cluster(&router, 4, 40, 4, deployment.scale.object_size, mix, 11);
        assert_eq!(run.reads + run.writes + run.contended_reads, 160);
        assert!(run.writes > 0, "a 25% mix must produce writes");
        assert_eq!(run.stale_reads, 0, "stale or mixed-version reads");
        assert!(run.read_latency_mean > Duration::ZERO);
        assert_eq!(run.read_latency.samples as u64, run.reads);
        assert!(run.read_latency.p50_ms <= run.read_latency.p999_ms);
        assert!(run.write_latency_mean > Duration::ZERO);
        assert!(run.ops_per_sec > 0.0);
    }

    #[test]
    fn traced_cluster_yields_a_measured_stage_breakdown() {
        let deployment = Deployment::build(Scale::tiny());
        let region = deployment.region("Frankfurt");
        let router = build_warm_cluster(&deployment, region, 2, 4, 0, true, 3);
        let mix = ReadWriteMix::with_ratio(0.25);
        let run = run_mixed_cluster(&router, 2, 40, 4, deployment.scale.object_size, mix, 11);
        // Only the measured reads are summarised — warm-up and
        // catalogue-reset traffic is scoped out by the trace marks.
        assert_eq!(run.stages.samples() as u64, run.reads);
        // An untraced cluster reports an empty breakdown.
        let untraced = build_warm_cluster(&deployment, region, 2, 4, 0, false, 3);
        let bare = run_mixed_cluster(
            &untraced,
            2,
            20,
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
            30,
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
        assert_eq!(run.stale_reads, 0);
        assert_eq!(run.invalidations, 0);
    }

    #[test]
    fn checker_flags_mixed_version_decodes_and_stale_data() {
        let checker = StaleChecker::new(2, 16);
        // Pristine data is version 1.
        assert!(matches!(
            checker.classify(0, &expected_payload(0, 16)),
            ReadVersion::Version(1)
        ));
        // An unknown constant fill is corrupt; an in-flight one is not.
        assert!(matches!(
            checker.classify(0, &[7u8; 16]),
            ReadVersion::Corrupt
        ));
        let fill = checker.begin_write(0, 16);
        assert_ne!(fill, 0, "fill 0 would mimic codec zero padding");
        assert!(matches!(
            checker.classify(0, &[fill; 16]),
            ReadVersion::InFlight
        ));
        // The right fill at the WRONG length is torn, not a match.
        assert!(matches!(
            checker.classify(0, &[fill; 12]),
            ReadVersion::Corrupt
        ));
        checker.complete_write(0, fill, 16, 2);
        assert!(matches!(
            checker.classify(0, &[fill; 16]),
            ReadVersion::Version(2)
        ));
        assert!(matches!(
            checker.classify(0, &[fill; 12]),
            ReadVersion::Corrupt
        ));
        assert_eq!(checker.floor(0), 2);
        assert_eq!(checker.floor(1), 1);
        // Mixed bytes decode to nothing that was ever written.
        let mut torn = vec![fill; 16];
        torn[3] = fill.wrapping_add(1);
        assert!(matches!(checker.classify(0, &torn), ReadVersion::Corrupt));
    }
}

#[cfg(test)]
mod variable_size_tests {
    use super::*;
    use crate::cluster::build_warm_cluster;
    use crate::harness::Scale;

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
        let run = run_mixed_cluster(&router, 4, 150, 8, base_size, mix, 0x111ED);
        assert!(run.writes > 0);
        assert_eq!(
            run.stale_reads, 0,
            "variable-size writes produced stale or torn reads"
        );
    }

    /// Regression for the checker itself: past 250 writes to one key
    /// the fill bytes recycle; a recycled byte in flight must classify
    /// as in-flight (lenient), never as its ancient completed
    /// namesake (a false stale report).
    #[test]
    fn fill_byte_recycling_never_reports_false_stales() {
        let deployment = Deployment::build(Scale::tiny());
        let region = deployment.region("Frankfurt");
        let router = build_warm_cluster(&deployment, region, 2, 2, 0, false, 0x10);
        // 4 threads x 350 ops at 90% writes over 2 keys: the hot key
        // takes well over 250 writes, wrapping the fill space.
        let mix = ReadWriteMix::with_ratio(0.9);
        let run = run_mixed_cluster(&router, 4, 350, 2, deployment.scale.object_size, mix, 0x77);
        assert!(
            run.writes > 500,
            "wrap not exercised: {} writes",
            run.writes
        );
        assert_eq!(run.stale_reads, 0, "recycled fill bytes misclassified");
    }
}
