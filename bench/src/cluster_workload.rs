//! `cluster-mixed`: two OS-thread clients drive a three-member
//! `ClusterRouter` with Zipf reads and 20 % writes under latency
//! spikes. The only workload with real thread concurrency — and the
//! only one whose bytes change, so it carries its own write-history
//! checker.

use crate::deploy::{self, ClusterParams, Deployment};
use crate::node_workload::FULL_CHECK_EVERY;
use crate::probes::{self, ProbeInputs};
use crate::record::{timed, Outcome, Recorder};
use crate::reduce::{self, Phase};
use crate::stats::{self, ratio};
use crate::trace::{TimingFetcher, Tracer};
use crate::RunArgs;
use agar::{AgarError, AgarNode, CachingClient, ChunkFetcher};
use agar_cache::CacheStats;
use agar_cluster::ClusterRouter;
use agar_ec::ObjectId;
use agar_workload::{Distribution, MixedOp, ReadWriteMix, WorkloadSpec, WriteSizeDist};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---- the write-history checker -----------------------------------------

/// Fill bytes cycle through `1..=FILLS`; 0 is never used, so leaked
/// codec zero padding cannot pass for a payload.
const FILLS: usize = 250;

/// What is known about one key's writes. Every write's payload is one
/// fill byte repeated, registered before the write is issued and filed
/// under the backend's version once it completes.
struct KeyHistory {
    /// Newest completed `(version, size)` per fill byte.
    completed: [Option<(u64, usize)>; FILLS + 1],
    /// Newest completed version (1 = the populate write).
    floor: u64,
    /// `(fill, size)` of writes issued but not yet completed.
    inflight: Vec<(u8, usize)>,
    issued: u64,
}

/// What a returned payload turned out to be.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    /// A definite version of the object.
    Version(u64),
    /// A write concurrent with the read — never stale.
    InFlight,
    /// No write ever produced these bytes: a mixed-version decode, a
    /// torn length, or a payload older than the history remembers.
    Unknown,
}

struct WriteHistory {
    keys: Vec<Mutex<KeyHistory>>,
    base_size: usize,
}

impl WriteHistory {
    fn new(key_space: u64, base_size: usize) -> Self {
        WriteHistory {
            keys: (0..key_space)
                .map(|_| {
                    Mutex::new(KeyHistory {
                        completed: [None; FILLS + 1],
                        floor: 1,
                        inflight: Vec::new(),
                        issued: 0,
                    })
                })
                .collect(),
            base_size,
        }
    }

    fn key(&self, key: u64) -> std::sync::MutexGuard<'_, KeyHistory> {
        self.keys[key as usize]
            .lock()
            .expect("a client thread panicked holding the write history")
    }

    /// The newest version completed before now. A read samples this
    /// before it starts; whatever it returns must be at least this new.
    fn floor(&self, key: u64) -> u64 {
        self.key(key).floor
    }

    /// Registers a write about to be issued; returns its fill byte.
    fn begin_write(&self, key: u64, size: usize) -> u8 {
        let mut history = self.key(key);
        history.issued += 1;
        let fill = ((history.issued - 1) % FILLS as u64) as u8 + 1;
        history.inflight.push((fill, size));
        fill
    }

    /// Files a finished write under the version the backend gave it
    /// (`None`: the write failed and produced no version).
    fn end_write(&self, key: u64, fill: u8, size: usize, version: Option<u64>) {
        let mut history = self.key(key);
        if let Some(at) = history.inflight.iter().position(|&w| w == (fill, size)) {
            history.inflight.swap_remove(at);
        }
        if let Some(version) = version {
            let slot = &mut history.completed[fill as usize];
            if slot.is_none_or(|(newest, _)| version > newest) {
                *slot = Some((version, size));
            }
            history.floor = history.floor.max(version);
        }
    }

    /// Classifies a returned payload. Head and tail bytes are always
    /// inspected; every byte when `full`.
    fn classify(&self, key: u64, data: &[u8], full: bool) -> Verdict {
        let Some(&fill) = data.first() else {
            return Verdict::Unknown;
        };
        let uniform = |range: std::ops::Range<usize>| data[range].iter().all(|&b| b == fill);
        let edge = 32.min(data.len());
        let looks_written = fill != 0
            && fill as usize <= FILLS
            && if full {
                uniform(0..data.len())
            } else {
                uniform(0..edge) && uniform(data.len() - edge..data.len())
            };
        if !looks_written {
            return if deploy::verify_pristine(key, self.base_size, data, full) {
                Verdict::Version(1)
            } else {
                Verdict::Unknown
            };
        }
        let history = self.key(key);
        // In flight first: once fill bytes recycle, a (byte, size) pair
        // can be in both sets, and the old completed entry would turn a
        // concurrent write into a false stale report.
        if history.inflight.contains(&(fill, data.len())) {
            return Verdict::InFlight;
        }
        match history.completed[fill as usize] {
            Some((version, size)) if size == data.len() => Verdict::Version(version),
            _ => Verdict::Unknown,
        }
    }
}

// ---- one client thread ---------------------------------------------------

/// How often a client re-issues a read that lost to concurrent writes
/// before counting it failed.
const MAX_READ_ATTEMPTS: u64 = 64;

/// Sums one client keeps beside its recorder.
#[derive(Default)]
struct ClientSums {
    stale: u64,
    unknown: u64,
    contended_reads: u64,
    remote_hits: u64,
    lease_contended: u64,
    invalidations: u64,
    /// Wall time of the owner's own `read`, paired with sampled routed
    /// reads, nanoseconds.
    owner_read_ns: Vec<f64>,
    routed_read_ns: Vec<f64>,
}

/// What every client of one set-up shares.
struct Shared {
    deployment: Deployment,
    router: Arc<ClusterRouter>,
    history: WriteHistory,
    /// The ring owner of each key (membership never changes here).
    owners: Vec<Arc<AgarNode>>,
}

impl Shared {
    fn new(params: &ClusterParams, (deployment, router): (Deployment, Arc<ClusterRouter>)) -> Self {
        let ring = router.ring();
        let owners = (0..params.key_space)
            .map(|key| {
                let id = ring
                    .owner_of_object(ObjectId::new(key))
                    .expect("non-empty ring");
                router.member(id).expect("ring member exists")
            })
            .collect();
        Shared {
            history: WriteHistory::new(params.key_space, params.object_size),
            deployment,
            router,
            owners,
        }
    }
}

struct Client<'a> {
    shared: &'a Shared,
    ops: Vec<MixedOp>,
    rec: Recorder,
    tracer: Option<Tracer>,
    sums: ClientSums,
}

impl Client<'_> {
    fn run(mut self) -> Self {
        loop {
            let op = self.rec.ops;
            match self.ops[op % self.ops.len()] {
                MixedOp::Read { key } => self.read(op, key),
                MixedOp::Write { key, size } => self.write(op, key, size),
            }
            if self.rec.should_stop() {
                return self;
            }
        }
    }

    fn read(&mut self, op: usize, key: u64) {
        let object = ObjectId::new(key);
        let owner = &self.shared.owners[key as usize];
        let open = self
            .tracer
            .as_mut()
            .map(|tracer| tracer.begin_read(op as u64, owner, object));
        let in_window = self.rec.in_window();
        let floor = self.shared.history.floor(key);
        let (mut result, mut cost) = timed(|| self.shared.router.read(object));
        // Three version races in a row make the node give up with
        // `ReadContention`: safe, and the caller's cue to retry. The
        // lost attempt is busy time; the operation is the retry.
        let mut attempts = 1;
        while matches!(result, Err(AgarError::ReadContention { .. }))
            && attempts < MAX_READ_ATTEMPTS
        {
            self.sums.contended_reads += 1;
            self.rec.lost_attempt(cost);
            // The writer it lost to may be descheduled mid-write; give
            // it time (off the clock) instead of burning the attempts.
            std::thread::sleep(Duration::from_micros(20 * attempts));
            (result, cost) = timed(|| self.shared.router.read(object));
            attempts += 1;
        }
        match result {
            Ok(read) => {
                let metrics = read.metrics();
                let check = Instant::now();
                let full = op.is_multiple_of(FULL_CHECK_EVERY);
                match self.shared.history.classify(key, &metrics.data, full) {
                    Verdict::Version(version) if version < floor => {
                        self.sums.stale += 1;
                        self.rec.failed += 1;
                    }
                    Verdict::Unknown => {
                        self.sums.unknown += 1;
                        self.rec.failed += 1;
                    }
                    Verdict::Version(_) | Verdict::InFlight => {}
                }
                self.rec.verify_ns += check.elapsed().as_nanos() as u64;
                self.sums.remote_hits += read.remote_hits as u64;
                if in_window {
                    self.rec.window.read(cost, metrics);
                }
                let sampled = open.as_ref().is_some_and(|open| open.sampled);
                if let (Some(tracer), Some(open)) = (&mut self.tracer, open) {
                    tracer.end_read(open, "router.read", cost, &metrics.data);
                }
                self.rec.read_done(cost);
                if sampled {
                    // The pair for `cluster.router.overhead_us`: the
                    // same read issued straight at the owner.
                    let (direct, direct_cost) = timed(|| owner.read(object));
                    if direct.is_ok() {
                        self.sums.routed_read_ns.push(cost.ns as f64);
                        self.sums.owner_read_ns.push(direct_cost.ns as f64);
                    }
                }
            }
            Err(_) => self.rec.failed_op(cost),
        }
    }

    fn write(&mut self, op: usize, key: u64, size: usize) {
        let object = ObjectId::new(key);
        let fill = self.shared.history.begin_write(key, size);
        let payload = vec![fill; size];
        let open = self
            .tracer
            .as_mut()
            .map(|tracer| tracer.begin_write(op as u64, &payload));
        let in_window = self.rec.in_window();
        let (result, cost) = timed(|| self.shared.router.write(object, &payload));
        match result {
            Ok(write) => {
                self.shared
                    .history
                    .end_write(key, fill, size, Some(write.version));
                self.sums.lease_contended += u64::from(write.lease_contended);
                self.sums.invalidations += write.invalidations;
                if in_window {
                    self.rec.window.writes += 1;
                }
                if let (Some(tracer), Some(open)) = (&mut self.tracer, open) {
                    tracer.end_write(open, cost);
                }
                self.rec.write_done(cost);
            }
            Err(_) => {
                self.shared.history.end_write(key, fill, size, None);
                self.rec.failed_op(cost);
            }
        }
    }
}

// ---- the run -----------------------------------------------------------

/// Cluster-wide public counters at one instant.
struct Counters {
    stats: CacheStats,
    primary_fetches: u64,
    retries: u64,
    degraded: u64,
}

impl Counters {
    fn of(router: &ClusterRouter, members: &[Arc<AgarNode>]) -> Self {
        Counters {
            stats: router.cache_stats(),
            primary_fetches: router.coordinator().primary_fetches(),
            retries: members.iter().map(|m| m.retries()).sum(),
            degraded: members.iter().map(|m| m.degraded_reads()).sum(),
        }
    }
}

fn members_of(router: &ClusterRouter) -> Vec<Arc<AgarNode>> {
    router
        .member_ids()
        .into_iter()
        .map(|id| router.member(id).expect("listed member exists"))
        .collect()
}

/// The mixed operation list of one client.
fn client_ops(params: &ClusterParams, seed: u64, client: usize) -> Vec<MixedOp> {
    WorkloadSpec {
        object_count: params.key_space,
        object_size: params.object_size,
        operations: params.window_ops,
        read_fraction: 1.0,
        distribution: Distribution::Zipfian { skew: deploy::SKEW },
    }
    .mixed_stream(
        ReadWriteMix {
            write_ratio: params.write_ratio,
            write_size: WriteSizeDist::UniformBytes {
                min: (params.object_size / 2).max(1),
                max: params.object_size,
            },
        },
        seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9),
    )
    .expect("valid mix")
    .collect()
}

/// One timed phase: `params.clients` threads until the deadline.
fn phase<'a>(
    params: &ClusterParams,
    args: &RunArgs,
    shared: &'a Shared,
    ops: &[Vec<MixedOp>],
    window_ops: usize,
    measure_for: Duration,
    traced: bool,
) -> Vec<Client<'a>> {
    let clients: Vec<Client<'a>> = ops
        .iter()
        .enumerate()
        .map(|(c, ops)| Client {
            shared,
            ops: ops.clone(),
            rec: Recorder::new(params.segment_ops, window_ops, measure_for),
            tracer: traced.then(|| {
                Tracer::new(
                    Arc::clone(&shared.deployment.backend),
                    params.sample_every,
                    args.seed ^ c as u64,
                )
            }),
            sums: ClientSums::default(),
        })
        .collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .map(|client| scope.spawn(move || client.run()))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

pub fn run(params: &ClusterParams, args: &RunArgs) -> Outcome {
    let measure_for = Duration::from_secs_f64(args.seconds);
    let generate = Instant::now();
    let ops: Vec<Vec<MixedOp>> = (0..params.clients)
        .map(|client| client_ops(params, args.seed, client))
        .collect();
    let generated: usize = ops.iter().map(Vec::len).sum();
    let gen_ns_per_op = generate.elapsed().as_nanos() as f64 / generated as f64;

    // Traced run: an untraced baseline on a set-up of its own.
    let baseline: Vec<Vec<f64>> = if args.trace {
        let shared = Shared::new(params, deploy::setup_cluster(params, args.seed, false));
        phase(params, args, &shared, &ops, 0, measure_for / 5, false)
            .iter()
            .map(|c| c.rec.segment_read_means_us().to_vec())
            .collect()
    } else {
        Vec::new()
    };

    let (setup, setup_s) = deploy::timed_setups(params.setups, || {
        deploy::setup_cluster(params, args.seed, args.trace)
    });
    let shared = Shared::new(params, setup);
    let (deployment, router) = (&shared.deployment, &*shared.router);
    let members = members_of(router);
    if args.trace {
        // `add_node` installed the shared coordinator; wrap it.
        let coordinator: Arc<dyn ChunkFetcher> = Arc::clone(router.coordinator()) as _;
        for member in &members {
            member.set_chunk_fetcher(Arc::new(TimingFetcher::new(Arc::clone(&coordinator))));
        }
    }
    let before = Counters::of(router, &members);
    let mut clients = phase(
        params,
        args,
        &shared,
        &ops,
        params.window_ops,
        measure_for,
        args.trace,
    );
    let after = Counters::of(router, &members);

    // ---- end-of-run invariants ---------------------------------------
    let in_flight = router.coordinator().in_flight();
    let fences = router.lease_manager().fences();
    let active_leases = router.lease_manager().active_leases();
    let capacity = params.ram_objects * params.object_size;
    let chunk = deployment.backend.params().chunk_size(params.object_size);
    // A member's contents listing counts chunks; rewritten objects can
    // be smaller than the base size, so chunk-size × count bounds it.
    let ram_used_frac = members
        .iter()
        .map(|m| {
            let chunks: usize = m.cache_contents().values().map(Vec::len).sum();
            (chunks * chunk) as f64 / capacity as f64
        })
        .fold(0.0, f64::max);
    let mismatches: u64 = clients
        .iter()
        .filter_map(|c| c.tracer.as_ref())
        .map(|t| t.mismatches)
        .sum();
    let invariants_hold = in_flight == 0
        && active_leases == 0
        && fences == 0
        && ram_used_frac <= 1.0
        && mismatches == 0;

    let mut recorders: Vec<Recorder> = Vec::new();
    let mut tracers: Vec<Tracer> = Vec::new();
    let mut sums: Vec<ClientSums> = Vec::new();
    for client in clients.drain(..) {
        recorders.push(client.rec);
        tracers.extend(client.tracer);
        sums.push(client.sums);
    }
    let phase = Phase::of(&recorders);
    let (attempted, failed) = (phase.attempted(), phase.failed());
    let (reads, writes) = (phase.reads(), phase.writes());
    let csum = |f: fn(&ClientSums) -> u64| sums.iter().map(f).sum::<u64>() as f64;
    let mut notes = phase.notes();
    notes.push(format!(
        "timed phase: {attempted} ops ({reads} reads, {writes} writes) on {} clients; \
         stale {}, unknown-pattern {}, contended reads {}",
        recorders.len(),
        csum(|s| s.stale),
        csum(|s| s.unknown),
        csum(|s| s.contended_reads),
    ));

    let metrics = if let Some(mut tracer) = tracers.pop() {
        for other in tracers.drain(..) {
            tracer.merge(other);
        }
        let delta = after.stats.delta_since(&before.stats);
        let kops = attempted as f64 / 1e3;
        let snapshots: Vec<_> = members.iter().flat_map(|m| m.trace_snapshot()).collect();
        let pooled = |field: fn(&ClientSums) -> &Vec<f64>| -> Vec<f64> {
            sums.iter().flat_map(|s| field(s).iter().copied()).collect()
        };
        // The knapsack probes run on the member that saw the most reads.
        let busiest = members
            .iter()
            .max_by_key(|m| m.cache_stats().object_reads())
            .expect("cluster has members");
        let probe = probes::run(&ProbeInputs {
            backend: &deployment.backend,
            node: busiest,
            router: Some(router),
            object_size: params.object_size,
            seed: args.seed,
        });
        let fetched =
            (after.primary_fetches - before.primary_fetches + delta.coalesced_fetches()) as f64;
        let (overhead, overhead_note) = phase.trace_overhead(&baseline);
        notes.push(overhead_note);
        notes.push(tracer.note());
        crate::write_trace_file("cluster-mixed", args, &tracer);
        let mut metrics = vec![
            (
                "core.node.retries_per_kop",
                (after.retries - before.retries) as f64 / kops,
            ),
            (
                "core.node.degraded_per_kop",
                (after.degraded - before.degraded) as f64 / kops,
            ),
            ("cache.ram_used_frac", ram_used_frac),
            (
                "core.knapsack.config_chunks_ram",
                members
                    .iter()
                    .map(|m| f64::from(m.current_config().ram_chunks()))
                    .sum(),
            ),
            (
                "cluster.router.overhead_us",
                (stats::median(&pooled(|s| &s.routed_read_ns))
                    - stats::median(&pooled(|s| &s.owner_read_ns)))
                    / 1e3,
            ),
            (
                "cluster.router.remote_hits_per_read",
                ratio(csum(|s| s.remote_hits), reads),
            ),
            (
                "cluster.coordinator.coalesced_frac",
                ratio(delta.coalesced_fetches() as f64, fetched),
            ),
            (
                "cluster.coordinator.batched_per_read",
                ratio(delta.batched_requests() as f64, reads),
            ),
            ("cluster.coordinator.in_flight_end", in_flight as f64),
            (
                "cluster.lease.contended_frac",
                ratio(csum(|s| s.lease_contended), writes),
            ),
            (
                "cluster.lease.invalidations_per_write",
                ratio(csum(|s| s.invalidations), writes),
            ),
            ("cluster.lease.fences", fences as f64),
            ("workload.gen_ns_per_op", gen_ns_per_op),
        ];
        metrics.extend(tracer.metrics());
        metrics.extend(phase.per_layer());
        // The counters cover the whole timed phase here: with two
        // threads no instant separates "inside the window" for both.
        metrics.extend(reduce::counter_metrics(&delta, reads, kops));
        metrics.extend(reduce::stage_metrics(&snapshots));
        metrics.extend(overhead);
        metrics.extend(probe);
        reduce::with_zeros(metrics)
    } else {
        phase.end_to_end(setup_s)
    };

    Outcome {
        attempted,
        failed,
        correct: failed == 0 && invariants_hold,
        metrics,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_store::expected_payload;

    #[test]
    fn history_flags_stale_and_unknown_payloads_only() {
        let history = WriteHistory::new(4, 1_000);
        let pristine = expected_payload(2, 1_000);
        assert_eq!(history.classify(2, &pristine, true), Verdict::Version(1));
        assert_eq!(history.floor(2), 1);

        let fill = history.begin_write(2, 700);
        let payload = vec![fill; 700];
        assert_eq!(history.classify(2, &payload, true), Verdict::InFlight);
        history.end_write(2, fill, 700, Some(2));
        assert_eq!(history.classify(2, &payload, false), Verdict::Version(2));
        assert_eq!(history.floor(2), 2);
        // The pristine payload is now older than the floor: stale.
        assert!(matches!(history.classify(2, &pristine, true), Verdict::Version(v) if v < 2));

        // Torn length, mixed fill and never-written bytes are unknown.
        assert_eq!(history.classify(2, &payload[..699], true), Verdict::Unknown);
        let mut mixed = payload.clone();
        mixed[350] = fill + 1;
        assert_eq!(history.classify(2, &mixed, true), Verdict::Unknown);
        assert_eq!(
            history.classify(2, &mixed, false),
            Verdict::Version(2),
            "edges only"
        );
        assert_eq!(
            history.classify(2, &vec![200u8; 700], true),
            Verdict::Unknown
        );
        assert_eq!(history.classify(2, &[], true), Verdict::Unknown);
        // Another key's history is separate.
        assert_eq!(history.classify(3, &payload, true), Verdict::Unknown);
    }

    #[test]
    fn a_failed_write_leaves_no_version_behind() {
        let history = WriteHistory::new(1, 100);
        let fill = history.begin_write(0, 60);
        history.end_write(0, fill, 60, None);
        assert_eq!(history.floor(0), 1);
        assert_eq!(history.classify(0, &[fill; 60], true), Verdict::Unknown);
    }

    #[test]
    fn recycled_fill_bytes_prefer_the_in_flight_write() {
        let history = WriteHistory::new(1, 100);
        for version in 2..2 + FILLS as u64 {
            let fill = history.begin_write(0, 80);
            history.end_write(0, fill, 80, Some(version));
        }
        let recycled = history.begin_write(0, 80);
        assert_eq!(recycled, 1, "the cycle restarts");
        assert_eq!(history.classify(0, &[1u8; 80], true), Verdict::InFlight);
        history.end_write(0, recycled, 80, Some(2 + FILLS as u64));
        assert_eq!(
            history.classify(0, &[1u8; 80], true),
            Verdict::Version(2 + FILLS as u64),
            "the newest completed version wins"
        );
    }
}
