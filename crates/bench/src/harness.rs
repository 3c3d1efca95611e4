//! The experiment harness: deployment construction and the closed-loop
//! simulated YCSB driver (paper §V-A).
//!
//! Each run deploys clients in one region against the six-region
//! backend, drives a seeded workload closed-loop (a client issues its
//! next operation when the previous one completes — the paper runs two
//! such clients per YCSB instance), fires the 30-second reconfiguration
//! ticks on the simulated clock, and aggregates latency and hit-ratio
//! statistics. [`closed_loop`] is the only such driver in the crate:
//! the paper figures, `tail`, `tiers`, `chaos` and `mixed` all replay it
//! and differ only in what [`Serve`]s their operations and in their
//! clock hook.

use agar::{
    AgarNode, AgarSettings, BaselinePolicy, CachingClient, FixedChunksClient, KnapsackSolver,
};
use agar_ec::{CodingParams, ObjectId};
use agar_net::latency::LatencyModel;
use agar_net::presets::{aws_six_regions, paper_table_one, GeoPreset};
use agar_net::sim::{Scheduler, Simulation};
use agar_net::{LatencySpike, RegionId, SimTime, SpikedLatency};
use agar_obs::{Labels, LatencyHistogram, LatencySummary, MetricsRegistry};
use agar_store::{populate, Backend, RoundRobin};
use agar_workload::{MixedOp, MixedStream, ReadWriteMix, StragglerScenario, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Experiment scale: the paper runs 300 × 1 MB objects; tests can run
/// the identical pipeline over smaller objects (the latency matrix is
/// re-anchored to the actual chunk size, so results are scale-free).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Size of each object in bytes.
    pub object_size: usize,
    /// Number of objects in the catalogue.
    pub object_count: u64,
}

impl Scale {
    /// The paper's full scale: 300 × 1 MB.
    pub(crate) fn paper() -> Self {
        Scale {
            object_size: 1_000_000,
            object_count: 300,
        }
    }

    /// A fast scale for unit/integration tests: the paper's 300-object
    /// catalogue over 9 KB objects (latencies are re-anchored to the
    /// chunk size, so shapes are preserved).
    pub fn tiny() -> Self {
        Scale {
            object_size: 9_000,
            object_count: 300,
        }
    }

    /// Cache capacity in bytes for a paper-units "cache of N MB" (the
    /// paper's MB double as object counts because objects are 1 MB).
    pub fn cache_bytes(&self, paper_mb: f64) -> usize {
        (paper_mb * self.object_size as f64) as usize
    }

    /// The chunk size under RS(9, 3).
    pub(crate) fn chunk_size(&self) -> usize {
        CodingParams::paper_default().chunk_size(self.object_size)
    }
}

/// Which WAN latency profile a deployment uses. The paper provides two
/// inconsistent latency pictures; both are available:
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyProfile {
    /// Calibrated to the *measured* Figure 2 curve shapes (every
    /// experiment's default). Latency spread between mid-distance
    /// regions is modest, so Agar's structural edge over the best fixed
    /// policy is a few percent.
    Calibrated,
    /// The paper's illustrative Table I numbers (3 400 ms Tokyo,
    /// 4 600 ms Sydney from Frankfurt). The much wider spread makes
    /// partial caching far more valuable and reproduces the paper's
    /// double-digit Agar margins.
    PaperTable1,
}

impl LatencyProfile {
    /// The profile's geo preset, its latency matrix anchored at
    /// `scale`'s chunk size so the calibrated per-chunk latencies hold
    /// verbatim at any scale.
    pub(crate) fn preset(self, scale: Scale) -> GeoPreset {
        let mut preset = match self {
            LatencyProfile::Calibrated => aws_six_regions(),
            LatencyProfile::PaperTable1 => paper_table_one(),
        };
        preset.latency = preset
            .latency
            .clone()
            .with_nominal_bytes(scale.chunk_size());
        preset
    }
}

/// A populated six-region deployment, shared by the runs of one
/// experiment. Reads leave its objects as they are, so one backend
/// serves all of an experiment's policies; its codec's decode-plan cache
/// does warm, and writes replace objects, so no two experiments share
/// one.
pub struct Deployment {
    /// The geo preset (topology + calibrated latencies).
    pub preset: GeoPreset,
    /// The populated erasure-coded store.
    pub backend: Arc<Backend>,
    /// The scale it was populated at.
    pub scale: Scale,
}

impl Deployment {
    /// Builds and populates the paper's Figure 1 deployment at the given
    /// scale: the default (Figure-2-calibrated) latency profile, no
    /// straggler overlay.
    ///
    /// # Panics
    ///
    /// Same as [`Deployment::build_with`].
    pub fn build(scale: Scale) -> Self {
        Self::build_with(scale, LatencyProfile::Calibrated, None)
    }

    /// Builds a deployment with an explicit latency profile and,
    /// optionally, a straggler/fault scenario overlaid: slowdown spikes
    /// wrap the latency model (samples spike, planner-visible means
    /// stay optimistic — exactly the blind spot hedging covers), and
    /// dead regions are failed outright. Flaky regions are *not*
    /// applied here: drivers schedule their fail/heal cycle on the
    /// simulated clock (see the `tail` experiment).
    ///
    /// # Panics
    ///
    /// Panics if population fails or a spike descriptor is invalid
    /// (programming errors: the presets and the scenario family are
    /// internally consistent).
    pub fn build_with(
        scale: Scale,
        profile: LatencyProfile,
        scenario: Option<&StragglerScenario>,
    ) -> Self {
        let preset = profile.preset(scale);
        let spikes: Vec<LatencySpike> = scenario
            .iter()
            .flat_map(|s| &s.spikes)
            .map(|s| LatencySpike {
                region: RegionId::new(s.region),
                every: s.every,
                factor: s.factor,
            })
            .collect();
        let model: Arc<dyn LatencyModel> = if spikes.is_empty() {
            Arc::new(preset.latency.clone())
        } else {
            Arc::new(SpikedLatency::new(Arc::new(preset.latency.clone()), spikes))
        };
        let backend = Backend::new(
            preset.topology.clone(),
            model,
            CodingParams::paper_default(),
            Box::new(RoundRobin),
        )
        .expect("preset deployment is valid");
        let mut rng = StdRng::seed_from_u64(0xA6A2);
        populate(&backend, scale.object_count, scale.object_size, &mut rng)
            .expect("population cannot fail on a healthy deployment");
        for &dead in scenario.iter().flat_map(|s| &s.dead) {
            backend.fail_region(RegionId::new(dead));
        }
        Deployment {
            preset,
            backend: Arc::new(backend),
            scale,
        }
    }

    /// Region id by name (panics on unknown name, as in [`GeoPreset`]).
    pub fn region(&self, name: &str) -> RegionId {
        self.preset.region(name)
    }

    /// Clamps a workload to this deployment's catalogue and object size.
    fn fit(&self, mut workload: WorkloadSpec) -> WorkloadSpec {
        workload.object_count = workload.object_count.min(self.scale.object_count);
        workload.object_size = self.scale.object_size;
        workload
    }

    /// The paper's default workload (Zipf 1.1 reads) at this scale.
    pub(crate) fn paper_workload(&self, operations: usize) -> WorkloadSpec {
        self.fit(WorkloadSpec {
            operations,
            ..WorkloadSpec::paper_default()
        })
    }

    /// Builds every Agar node the harness measures — figure runs, grid
    /// cells and cluster members alike: the paper's settings with this
    /// deployment's calibrated cache-read and client-overhead
    /// constants, then `tune`, then the large-cache solver guard; the
    /// node draws from `seed`. With `metrics`, the node binds its
    /// counters and stage histograms into the registry under the given
    /// labels *before* the run — the registry scrapes live cells, so a
    /// dump taken afterwards reads the same either way.
    ///
    /// # Panics
    ///
    /// Panics if `tune` produces invalid settings (caller bug).
    pub(crate) fn agar_node(
        &self,
        region: RegionId,
        cache_bytes: usize,
        seed: u64,
        tune: impl FnOnce(&mut AgarSettings),
        metrics: Option<(&MetricsRegistry, &Labels)>,
    ) -> Arc<AgarNode> {
        let mut settings = AgarSettings::paper_default(cache_bytes);
        settings.cache_read = self.preset.cache_read;
        settings.client_overhead = self.preset.client_overhead;
        tune(&mut settings);
        // §VI: the paper stops the dynamic program a fixed number of
        // iterations after a full-capacity configuration first
        // appears, so reconfiguration cost depends on the cache
        // size, not the catalogue. Enable it for large budgets (RAM
        // or disk) where the exact run would dominate the experiment.
        let budget = cache_bytes.max(settings.disk_capacity_bytes);
        if budget / self.scale.chunk_size().max(1) >= 200 {
            settings.solver = KnapsackSolver::new()
                .with_early_termination(30)
                .with_passes(1);
        }
        #[cfg(test)]
        if let Some(perturb) = crate::census::PERTURB.get() {
            perturb(&mut settings);
        }
        let node = AgarNode::new(region, Arc::clone(&self.backend), settings, seed)
            .expect("paper settings are valid");
        if let Some((registry, labels)) = metrics {
            node.register_metrics(registry, labels);
        }
        Arc::new(node)
    }
}

/// The read-only operation stream of `spec` from `seed`. At write ratio
/// 0 a mixed stream makes the same key draw and then the same uniform
/// draw from the same seeded RNG as `spec.stream(seed)`, and never draws
/// a size, so the paper's read sequences replay unchanged.
///
/// # Panics
///
/// Panics on an invalid workload specification (caller bug).
pub(crate) fn read_stream(spec: &WorkloadSpec, seed: u64) -> MixedStream {
    spec.mixed_stream(ReadWriteMix::with_ratio(0.0), seed)
        .expect("workload spec validated")
}

/// The RNG seed a run's client draws from: the run seed with a fixed
/// mix, so the client's latency samples never replay the workload
/// stream generated from the same run seed.
pub(crate) fn client_seed(seed: u64) -> u64 {
    seed ^ 0x5EED
}

/// Closed-loop clients per read-only run: the paper's two YCSB clients
/// per region (§V-A).
pub const CLIENTS: usize = 2;

/// Which caching client a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicySpec {
    /// Agar with its knapsack-driven configuration.
    Agar,
    /// LRU caching a fixed number of chunks per object.
    Lru(usize),
    /// LFU (frequency proxy + periodic reconfiguration), fixed chunks.
    Lfu(usize),
    /// No cache: read every chunk from the backend.
    Backend,
}

impl PolicySpec {
    /// Report label, matching the paper's figure axes.
    pub fn label(&self) -> String {
        match self {
            PolicySpec::Agar => "Agar".into(),
            PolicySpec::Lru(c) => format!("LRU-{c}"),
            PolicySpec::Lfu(c) => format!("LFU-{c}"),
            PolicySpec::Backend => "Backend".into(),
        }
    }
}

/// One experiment run's parameters.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Where the clients (and the cache) live.
    pub client_region: RegionId,
    /// The caching policy under test.
    pub policy: PolicySpec,
    /// Cache size in paper MB units (1 MB = one object's worth).
    pub cache_mb: f64,
    /// The workload to drive.
    pub workload: WorkloadSpec,
    /// Maximum hedge chunks Δ per read (Agar policy only; 0 disables
    /// hedging and reproduces the unhedged engine byte for byte).
    pub max_hedges: usize,
    /// RNG seed for this run.
    pub seed: u64,
}

impl RunConfig {
    /// The paper's default run: Zipf 1.1, 1 000 reads, 10 MB cache.
    pub fn paper_default(client_region: RegionId, policy: PolicySpec) -> Self {
        RunConfig {
            client_region,
            policy,
            cache_mb: 10.0,
            workload: WorkloadSpec::paper_default(),
            max_hedges: 0,
            seed: 1,
        }
    }
}

/// Aggregated metrics from one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// The policy label.
    pub label: String,
    /// Mean end-to-end read latency in milliseconds.
    pub mean_latency_ms: f64,
    /// Percentile summary of every per-operation latency in the run
    /// (pooled across batches for [`run_averaged`]).
    pub latency: LatencySummary,
    /// The paper's Figure 7 hit ratio: (total + partial hits) / reads.
    pub hit_ratio: f64,
    /// Object reads fully served by the cache.
    pub total_hits: u64,
    /// Operations completed.
    pub operations: usize,
    /// Final cache contents (object → cached chunk indices).
    pub cache_contents: BTreeMap<ObjectId, Vec<u8>>,
    /// Simulated wall-clock duration of the run.
    pub sim_duration: Duration,
}

fn make_client(
    deployment: &Deployment,
    config: &RunConfig,
) -> Arc<dyn CachingClient + Send + Sync> {
    let cache_bytes = deployment.scale.cache_bytes(config.cache_mb);
    let preset = &deployment.preset;
    let seed = client_seed(config.seed);
    match config.policy {
        PolicySpec::Agar => deployment.agar_node(
            config.client_region,
            cache_bytes,
            seed,
            |settings| settings.max_hedges = config.max_hedges,
            None,
        ),
        PolicySpec::Lru(c) | PolicySpec::Lfu(c) => {
            // The paper's LFU baseline reconfigures every 30 s from its
            // frequency proxy — the epoch-based top-N variant.
            let policy = match config.policy {
                PolicySpec::Lru(_) => BaselinePolicy::Lru,
                _ => BaselinePolicy::LfuEpoch,
            };
            Arc::new(
                FixedChunksClient::new(
                    config.client_region,
                    Arc::clone(&deployment.backend),
                    policy,
                    c,
                    cache_bytes,
                    preset.cache_read,
                    preset.client_overhead,
                    seed,
                )
                .expect("chunk counts are validated by the caller"),
            )
        }
        PolicySpec::Backend => Arc::new(FixedChunksClient::backend_only(
            config.client_region,
            Arc::clone(&deployment.backend),
            preset.client_overhead,
            seed,
        )),
    }
}

/// What one closed-loop operation cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpSample {
    /// Simulated end-to-end latency (a failed operation is charged a
    /// 2 s penalty).
    pub latency: Duration,
    /// Backend chunk round trips the operation completed (0 for a write
    /// and for a failed operation).
    pub backend_fetches: usize,
}

/// What [`closed_loop`] observed.
#[derive(Clone, Debug)]
pub struct LoopOutcome {
    /// One sample per operation, in completion-scheduling order.
    pub samples: Vec<OpSample>,
    /// Operations that failed outright.
    pub errors: usize,
    /// The simulated instant the last event fired.
    pub end: SimTime,
}

impl LoopOutcome {
    /// Percentile summary of the per-operation latencies.
    pub(crate) fn latency(&self) -> LatencySummary {
        let mut histogram = LatencyHistogram::new();
        self.samples
            .iter()
            .for_each(|s| histogram.record(s.latency));
        histogram.summary()
    }

    /// Total backend round trips across all operations.
    pub(crate) fn backend_fetches(&self) -> u64 {
        self.samples.iter().map(|s| s.backend_fetches as u64).sum()
    }
}

/// What [`closed_loop`] drives: it serves each operation to completion
/// at the instant the operation starts, and takes the once-a-second
/// reconfiguration tick.
pub trait Serve {
    /// Runs `op` to completion; `None` when it failed.
    fn serve(&mut self, op: MixedOp) -> Option<OpSample>;

    /// The reconfiguration chance at `now`.
    fn tick(&mut self, now: SimTime);
}

/// A caching client serves reads, and ticks its own reconfiguration
/// clock.
///
/// # Panics
///
/// `serve` panics on a write: a caching client only reads.
impl<C: CachingClient + ?Sized> Serve for &C {
    fn serve(&mut self, op: MixedOp) -> Option<OpSample> {
        let MixedOp::Read { key } = op else {
            panic!("a caching client only reads; it was sent {op:?}");
        };
        let metrics = self.read(ObjectId::new(key)).ok()?;
        Some(OpSample {
            latency: metrics.latency,
            backend_fetches: metrics.backend_fetches,
        })
    }

    fn tick(&mut self, now: SimTime) {
        self.maybe_reconfigure(now);
    }
}

/// Lends a server to [`closed_loop`], so the caller reads what it
/// tallied afterwards.
impl<S: Serve + ?Sized> Serve for &mut S {
    fn serve(&mut self, op: MixedOp) -> Option<OpSample> {
        (**self).serve(op)
    }

    fn tick(&mut self, now: SimTime) {
        (**self).tick(now);
    }
}

/// What a failed operation costs its client: a backend-style slow round
/// trip, so closed-loop pacing continues.
const FAILED_OP_PENALTY: Duration = Duration::from_secs(2);

struct World<'a> {
    server: &'a mut dyn Serve,
    clock: &'a mut dyn FnMut(SimTime),
    pending: VecDeque<MixedOp>,
    samples: Vec<OpSample>,
    in_flight: usize,
    errors: usize,
}

fn client_loop<'a>(world: &mut World<'a>, sched: &mut Scheduler<World<'a>>) {
    let Some(op) = world.pending.pop_front() else {
        world.in_flight -= 1;
        return;
    };
    (world.clock)(sched.now());
    let sample = world.server.serve(op).unwrap_or_else(|| {
        world.errors += 1;
        OpSample {
            latency: FAILED_OP_PENALTY,
            backend_fetches: 0,
        }
    });
    world.samples.push(sample);
    sched.schedule_in(sample.latency, client_loop);
}

/// Once per simulated second: the reconfiguration chance. The first
/// tick anchors the epoch clock at `start`.
fn tick<'a>(world: &mut World<'a>, sched: &mut Scheduler<World<'a>>) {
    (world.clock)(sched.now());
    world.server.tick(sched.now());
    if world.in_flight > 0 {
        sched.schedule_in(Duration::from_secs(1), tick);
    }
}

/// The paper's evaluation procedure (§V-A), once: `clients` closed-loop
/// clients drain `ops` against `server` on the simulated clock starting
/// at `start` (so epochs continue across batches), with a
/// reconfiguration chance every simulated second while any client is
/// still running.
///
/// `clock` is called with the simulated instant exactly once before
/// every operation and before every tick, in simulated-time order. It
/// is the only thing the experiments vary besides the server: stamping
/// the nodes' trace clocks, advancing a chaos clock, applying a
/// fail/heal schedule.
pub fn closed_loop(
    mut server: impl Serve,
    ops: impl IntoIterator<Item = MixedOp>,
    clients: usize,
    start: SimTime,
    clock: &mut dyn FnMut(SimTime),
) -> LoopOutcome {
    let clients = clients.max(1);
    let pending: VecDeque<MixedOp> = ops.into_iter().collect();
    let mut sim = Simulation::new(World {
        server: &mut server,
        clock,
        samples: Vec::with_capacity(pending.len()),
        pending,
        in_flight: clients,
        errors: 0,
    });
    sim.schedule_at(start, tick);
    for _ in 0..clients {
        sim.schedule_at(start, client_loop);
    }
    let end = sim.run();
    let world = sim.into_world();
    LoopOutcome {
        samples: world.samples,
        errors: world.errors,
        end,
    }
}

/// Executes one closed-loop run (fresh client, cold cache) on the
/// simulated clock.
///
/// # Panics
///
/// Panics on invalid workload specifications (caller bugs).
pub fn run_once(deployment: &Deployment, config: &RunConfig) -> RunResult {
    run_averaged(deployment, config, 1)
}

/// Averages `runs` consecutive batches against one live deployment,
/// exactly like the paper's methodology: YCSB is re-run five times
/// against deployed caches, so only the first batch is cold — cache
/// state, popularity statistics and configurations persist.
pub fn run_averaged(deployment: &Deployment, config: &RunConfig, runs: usize) -> RunResult {
    assert!(runs > 0, "need at least one run");
    let client = make_client(deployment, config);
    let mut start = SimTime::ZERO;
    let mut batch_means = Vec::with_capacity(runs);
    let mut batch_ratios = Vec::with_capacity(runs);
    let mut previous_stats = client.cache_stats();
    let mut operations = 0;
    let mut histogram = LatencyHistogram::new();
    for i in 0..runs {
        let seed = config.seed.wrapping_add(i as u64 * 7919);
        let ops = read_stream(&deployment.fit(config.workload.clone()), seed);
        // The figure runs stamp no clock: nothing in them reads it.
        let batch = closed_loop(&*client, ops, CLIENTS, start, &mut |_| {});
        operations = batch.samples.len();
        let total: f64 = batch
            .samples
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .sum();
        batch_means.push(total / operations.max(1) as f64);
        batch
            .samples
            .iter()
            .for_each(|s| histogram.record(s.latency));
        let now = client.cache_stats();
        batch_ratios.push(now.delta_since(&previous_stats).object_hit_ratio());
        previous_stats = now;
        start = batch.end;
    }
    let n = runs as f64;
    let stats = client.cache_stats();
    RunResult {
        label: config.policy.label(),
        mean_latency_ms: batch_means.iter().sum::<f64>() / n,
        latency: histogram.summary(),
        hit_ratio: batch_ratios.iter().sum::<f64>() / n,
        total_hits: stats.object_total_hits(),
        operations,
        cache_contents: client.cache_contents(),
        sim_duration: start.saturating_duration_since(SimTime::ZERO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_net::presets::FRANKFURT;

    fn quick_workload(ops: usize) -> WorkloadSpec {
        let mut w = WorkloadSpec::paper_default();
        w.operations = ops;
        w
    }

    #[test]
    fn scale_conversions() {
        let scale = Scale::paper();
        assert_eq!(scale.cache_bytes(10.0), 10_000_000);
        assert_eq!(scale.chunk_size(), 111_112);
        let tiny = Scale::tiny();
        assert_eq!(tiny.cache_bytes(1.0), 9_000);
        assert_eq!(tiny.chunk_size(), 1_000);
    }

    #[test]
    fn backend_run_completes_all_ops() {
        let deployment = Deployment::build(Scale::tiny());
        let mut config = RunConfig::paper_default(FRANKFURT, PolicySpec::Backend);
        config.workload = quick_workload(50);
        let result = run_once(&deployment, &config);
        assert_eq!(result.operations, 50);
        assert_eq!(result.hit_ratio, 0.0);
        assert!(result.mean_latency_ms > 500.0, "{}", result.mean_latency_ms);
        assert!(result.sim_duration > Duration::ZERO);
    }

    #[test]
    fn lru_run_gets_hits_and_beats_backend() {
        let deployment = Deployment::build(Scale::tiny());
        let mut backend_cfg = RunConfig::paper_default(FRANKFURT, PolicySpec::Backend);
        backend_cfg.workload = quick_workload(200);
        let mut lru_cfg = RunConfig::paper_default(FRANKFURT, PolicySpec::Lru(5));
        lru_cfg.workload = quick_workload(200);

        let backend = run_once(&deployment, &backend_cfg);
        let lru = run_once(&deployment, &lru_cfg);
        assert!(lru.hit_ratio > 0.2, "hit ratio {}", lru.hit_ratio);
        assert!(
            lru.mean_latency_ms < backend.mean_latency_ms,
            "lru {} vs backend {}",
            lru.mean_latency_ms,
            backend.mean_latency_ms
        );
        assert_eq!(lru.label, "LRU-5");
    }

    #[test]
    fn agar_run_reconfigures_and_caches() {
        let deployment = Deployment::build(Scale::tiny());
        let mut config = RunConfig::paper_default(FRANKFURT, PolicySpec::Agar);
        config.workload = quick_workload(400);
        let result = run_once(&deployment, &config);
        assert!(result.hit_ratio > 0.0, "Agar should get hits");
        assert!(!result.cache_contents.is_empty());
        // Closed loop: 400 ops at ~0.2-1.1 s across 2 clients spans
        // minutes of simulated time — enough for several epochs.
        assert!(result.sim_duration > Duration::from_secs(60));
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let deployment = Deployment::build(Scale::tiny());
        let mut config = RunConfig::paper_default(FRANKFURT, PolicySpec::Lfu(5));
        config.workload = quick_workload(150);
        let a = run_once(&deployment, &config);
        let b = run_once(&deployment, &config);
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms);
        assert_eq!(a.hit_ratio, b.hit_ratio);
        config.seed += 1;
        let c = run_once(&deployment, &config);
        assert_ne!(a.mean_latency_ms, c.mean_latency_ms);
    }

    #[test]
    fn averaging_smooths_runs() {
        let deployment = Deployment::build(Scale::tiny());
        let mut config = RunConfig::paper_default(FRANKFURT, PolicySpec::Lru(3));
        config.workload = quick_workload(60);
        let avg = run_averaged(&deployment, &config, 3);
        assert_eq!(avg.operations, 60);
        assert!(avg.mean_latency_ms > 0.0);
    }

    #[test]
    fn run_result_reports_percentiles() {
        let deployment = Deployment::build(Scale::tiny());
        let mut config = RunConfig::paper_default(FRANKFURT, PolicySpec::Backend);
        config.workload = quick_workload(50);
        let result = run_once(&deployment, &config);
        assert_eq!(result.latency.samples, 50);
        assert!((result.latency.mean_ms - result.mean_latency_ms).abs() < 1e-9);
        assert!(result.latency.p50_ms <= result.latency.p99_ms);
        assert!(result.latency.p99_ms <= result.latency.max_ms);
    }

    #[test]
    fn scenario_deployment_spikes_the_tail() {
        let calm = Deployment::build_with(
            Scale::tiny(),
            LatencyProfile::Calibrated,
            Some(&StragglerScenario::calm()),
        );
        let spiky = Deployment::build_with(
            Scale::tiny(),
            LatencyProfile::Calibrated,
            Some(&StragglerScenario::slow_spikes()),
        );
        let mut config = RunConfig::paper_default(FRANKFURT, PolicySpec::Backend);
        config.workload = quick_workload(120);
        let calm_run = run_once(&calm, &config);
        let spiky_run = run_once(&spiky, &config);
        assert!(
            spiky_run.latency.p99_ms > calm_run.latency.p99_ms * 2.0,
            "spikes should own the tail: {} vs {}",
            spiky_run.latency.p99_ms,
            calm_run.latency.p99_ms
        );
        // Means barely move: spikes are a tail phenomenon.
        assert!(spiky_run.mean_latency_ms < calm_run.mean_latency_ms * 3.0);
    }

    #[test]
    fn dead_region_deployment_still_serves_reads() {
        let deployment = Deployment::build_with(
            Scale::tiny(),
            LatencyProfile::Calibrated,
            Some(&StragglerScenario::dead_region()),
        );
        let mut config = RunConfig::paper_default(FRANKFURT, PolicySpec::Agar);
        config.workload = quick_workload(60);
        config.max_hedges = 2;
        let result = run_once(&deployment, &config);
        assert_eq!(result.operations, 60);
    }

    #[test]
    #[should_panic(expected = "a caching client only reads")]
    fn a_write_sent_to_a_caching_client_panics() {
        let deployment = Deployment::build(Scale::tiny());
        let config = RunConfig::paper_default(FRANKFURT, PolicySpec::Backend);
        let client = make_client(&deployment, &config);
        let write = MixedOp::Write { key: 0, size: 9 };
        closed_loop(&*client, [write], 1, SimTime::ZERO, &mut |_| {});
    }

    #[test]
    fn policy_labels() {
        assert_eq!(PolicySpec::Agar.label(), "Agar");
        assert_eq!(PolicySpec::Lru(7).label(), "LRU-7");
        assert_eq!(PolicySpec::Lfu(9).label(), "LFU-9");
        assert_eq!(PolicySpec::Backend.label(), "Backend");
    }
}
