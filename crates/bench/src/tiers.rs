//! The `tiers` experiment: RAM-only vs two-tier (RAM + disk) caching
//! under catalogue pressure.
//!
//! Every cell fixes the catalogue and shrinks the RAM budget to 1×, 4×
//! and 16× below it, then replays the same seeded warm-then-measure
//! run with the disk tier off (`disk_capacity_bytes = 0`,
//! byte-identical to the single-tier engine) and on (a
//! local-SSD-priced tier sized to hold the whole catalogue). The
//! warm-up phase drives the measured workload's own Zipf stream plus
//! one full catalogue sweep through the node — popularity statistics
//! cover every object — and installs the resulting configuration
//! (with its a-priori fill) before the measured closed loop starts;
//! both engines warm identically, so the measured deltas are the
//! hierarchy's. At 1× the two engines tie — RAM already holds
//! everything worth holding; the gap opens as the catalogue outgrows
//! RAM and the two-budget knapsack starts spilling warm objects to
//! disk instead of the WAN.
//!
//! Reported per cell: the full latency percentile ladder, per-tier
//! chunk hit ratios (RAM hits and disk hits over all chunk lookups),
//! the knapsack's tier split (RAM vs disk chunks in the final
//! configuration) and the tier traffic (epoch promotions, log
//! evictions, bytes appended to the log). Everything runs on
//! the deterministic simulated clock, so the JSON output is
//! host-independent and CI-gateable exactly like the `tail` experiment.

use crate::harness::{Deployment, Scale};
use crate::table::{LatencyHistogram, LatencySummary, Table};
use agar::{AgarNode, AgarSettings, CachingClient};
use agar_ec::ObjectId;
use agar_net::sim::Simulation;
use agar_net::SimTime;
use agar_obs::{Labels, MetricsRegistry, StageSummaries};
use agar_workload::{Op, WorkloadSpec};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Duration;

/// Catalogue-to-RAM multipliers the experiment sweeps.
pub const CATALOGUE_MULTIPLES: [usize; 3] = [1, 4, 16];

/// Parameters of one tiers run (shared by every cell of the table).
#[derive(Clone, Copy, Debug)]
pub struct TiersParams {
    /// Deployment scale.
    pub scale: Scale,
    /// Operations per run.
    pub operations: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Simulated disk chunk-read latency (a local SSD, not the
    /// conservative engine default).
    pub disk_read: Duration,
    /// Simulated disk chunk-write latency.
    pub disk_write: Duration,
    /// Seed shared by the RAM-only and tiered runs of each cell.
    pub seed: u64,
}

impl TiersParams {
    /// Full-scale defaults: the paper workload over a local-SSD disk
    /// tier.
    pub fn paper() -> Self {
        TiersParams {
            scale: Scale::paper(),
            operations: 1_000,
            clients: 2,
            disk_read: Duration::from_millis(45),
            disk_write: Duration::from_millis(60),
            seed: 0x71E2,
        }
    }

    /// Test-scale defaults (same shapes, small objects, fewer ops).
    pub fn tiny() -> Self {
        TiersParams {
            scale: Scale::tiny(),
            operations: 300,
            ..TiersParams::paper()
        }
    }
}

/// One (catalogue multiple, engine) cell of the tiers experiment.
#[derive(Clone, Debug)]
pub struct TiersResult {
    /// Scenario name (`catalogue Nx` — the catalogue is N× RAM).
    pub scenario: String,
    /// Engine label (`ram-only` or `tiered`).
    pub policy: String,
    /// The catalogue-to-RAM multiple this cell ran at.
    pub catalogue_multiple: usize,
    /// Operations completed.
    pub operations: usize,
    /// Reads that failed outright (counted as 2 s penalty ops).
    pub errors: usize,
    /// Percentile summary of per-read simulated latency.
    pub latency: LatencySummary,
    /// Chunk lookups served by the RAM tier.
    pub ram_hits: u64,
    /// Chunk lookups served by the disk tier.
    pub disk_hits: u64,
    /// Total chunk lookups (RAM hits + RAM misses; disk hits are a
    /// subset of the misses).
    pub chunk_lookups: u64,
    /// RAM chunks in the final knapsack configuration.
    pub ram_chunks: u32,
    /// Disk chunks in the final knapsack configuration.
    pub disk_chunks: u32,
    /// Chunks reconfigurations moved disk → RAM over the run.
    pub tier_promotions: u64,
    /// Chunks dropped off the end of the disk log over the run.
    pub disk_evictions: u64,
    /// Frame bytes written to the disk log over the run (a-priori
    /// fills, re-tier moves and spilled RAM victims).
    pub disk_appended_bytes: u64,
    /// Per-stage latency breakdown (plan/lookup/fetch/bind/decode) of
    /// the measured window's read traces.
    pub stages: StageSummaries,
}

impl TiersResult {
    /// RAM-tier chunk hit ratio.
    pub fn ram_hit_ratio(&self) -> f64 {
        ratio(self.ram_hits, self.chunk_lookups)
    }

    /// Disk-tier chunk hit ratio.
    pub fn disk_hit_ratio(&self) -> f64 {
        ratio(self.disk_hits, self.chunk_lookups)
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

struct TiersState {
    node: Arc<AgarNode>,
    pending: VecDeque<Op>,
    latencies: Vec<Duration>,
    in_flight: usize,
    errors: usize,
}

fn tiers_client_loop(state: &mut TiersState, sched: &mut agar_net::Scheduler<TiersState>) {
    let Some(op) = state.pending.pop_front() else {
        state.in_flight -= 1;
        return;
    };
    // Stamp the trace layer's clock so spans carry simulated time.
    state.node.set_sim_now(sched.now());
    let latency = match state.node.read(ObjectId::new(op.key())) {
        Ok(metrics) => metrics.latency,
        Err(_) => {
            state.errors += 1;
            // Same closed-loop pacing as the main harness: a failed op
            // costs a backend-style slow round trip.
            Duration::from_secs(2)
        }
    };
    state.latencies.push(latency);
    sched.schedule_in(latency, tiers_client_loop);
}

fn reconfigure_tick(state: &mut TiersState, sched: &mut agar_net::Scheduler<TiersState>) {
    state.node.set_sim_now(sched.now());
    state.node.maybe_reconfigure(sched.now());
    if state.in_flight > 0 {
        sched.schedule_in(Duration::from_secs(1), reconfigure_tick);
    }
}

/// Runs one (catalogue multiple, engine) cell against a shared
/// deployment: RAM = catalogue / `multiple`; `tiered` additionally
/// attaches a disk tier sized to the whole catalogue.
///
/// # Panics
///
/// Panics on invalid parameters (caller bugs).
pub fn tiers_run(
    deployment: &Deployment,
    params: &TiersParams,
    multiple: usize,
    tiered: bool,
) -> TiersResult {
    tiers_run_with(deployment, params, multiple, tiered, None)
}

/// [`tiers_run`] with an optional metrics registry: when given, the
/// cell's node binds its counters and stage histograms into it under
/// `{scenario, policy}` labels so a `--metrics` dump carries every
/// cell of the experiment.
pub fn tiers_run_with(
    deployment: &Deployment,
    params: &TiersParams,
    multiple: usize,
    tiered: bool,
    registry: Option<&MetricsRegistry>,
) -> TiersResult {
    assert!(multiple > 0, "catalogue multiple must be positive");
    let scale = deployment.scale;
    let catalogue_bytes = scale.object_count as usize * scale.object_size;
    let ram_bytes = catalogue_bytes / multiple;
    let preset = &deployment.preset;
    let mut settings = AgarSettings::paper_default(ram_bytes);
    settings.cache_read = preset.cache_read;
    settings.client_overhead = preset.client_overhead;
    if tiered {
        settings.disk_capacity_bytes = catalogue_bytes;
        settings.disk_read = params.disk_read;
        settings.disk_write = params.disk_write;
    }
    // Trace every read: the per-stage breakdown columns come from the
    // measured window's traces. Sampling is a deterministic counter,
    // so it never perturbs the engine.
    settings.trace_sample_every = 1;
    // Same large-capacity guard as the main harness: with the catalogue
    // (or a sizeable slice of it) as the budget, the exact DP would
    // dominate the experiment's wall clock.
    let capacity_chunks = ram_bytes.max(settings.disk_capacity_bytes) / scale.chunk_size().max(1);
    if capacity_chunks >= 200 {
        settings.solver = agar::KnapsackSolver::new()
            .with_early_termination(30)
            .with_passes(1);
    }
    let node = Arc::new(
        AgarNode::new(
            preset.region("Frankfurt"),
            Arc::clone(&deployment.backend),
            settings,
            params.seed ^ 0x5EED,
        )
        .expect("paper settings are valid"),
    );

    let mut workload = WorkloadSpec::paper_default();
    workload.operations = params.operations;
    workload.object_count = workload.object_count.min(scale.object_count);
    workload.object_size = scale.object_size;

    // Warm-up: the measured workload's own distribution seeds the
    // popularity statistics and a full catalogue sweep registers the
    // long tail with the monitor (so the disk budget can cover it);
    // the forced reconfiguration then installs the configuration —
    // including the a-priori fill — before measurement starts. Both
    // engines run the identical warm-up, off the measured clock.
    for op in workload
        .stream(params.seed ^ 0x3A3A)
        .expect("workload spec validated")
    {
        let _ = node.read(ObjectId::new(op.key()));
    }
    for id in 0..scale.object_count {
        let _ = node.read(ObjectId::new(id));
    }
    node.force_reconfigure();
    let warm_stats = node.cache_stats();
    let warm_appended = node.disk_appended_bytes();

    let ops: VecDeque<Op> = workload
        .stream(params.seed)
        .expect("workload spec validated")
        .collect();

    let mut sim = Simulation::new(TiersState {
        node: Arc::clone(&node),
        pending: ops,
        latencies: Vec::with_capacity(params.operations),
        in_flight: params.clients.max(1),
        errors: 0,
    });
    sim.schedule_at(SimTime::ZERO, reconfigure_tick);
    for _ in 0..params.clients.max(1) {
        sim.schedule_at(SimTime::ZERO, tiers_client_loop);
    }
    sim.run();
    let state = sim.into_world();

    let scenario = format!("catalogue {multiple}x");
    let policy = if tiered { "tiered" } else { "ram-only" }.to_string();
    if let Some(registry) = registry {
        let labels = Labels::new()
            .with("scenario", scenario.clone())
            .with("policy", policy.clone());
        node.register_metrics(registry, &labels);
    }
    let mut histogram = LatencyHistogram::new();
    state.latencies.iter().for_each(|&l| histogram.record(l));
    // Counters scoped to the measured window: the warm-up's cold
    // misses are methodology, not results. The trace ring is scoped
    // the same way — warm-up reads were traced too, so keep only the
    // youngest `operations` traces (the measured closed loop).
    let stats = node.cache_stats().delta_since(&warm_stats);
    let traces = node.trace_snapshot();
    let measured = &traces[traces.len().saturating_sub(state.latencies.len())..];
    let stages = StageSummaries::from_traces(measured);
    let config = node.current_config();
    TiersResult {
        scenario,
        policy,
        catalogue_multiple: multiple,
        operations: state.latencies.len(),
        errors: state.errors,
        latency: histogram.summary(),
        ram_hits: stats.chunk_hits(),
        disk_hits: stats.disk_hits(),
        chunk_lookups: stats.chunk_hits() + stats.chunk_misses(),
        ram_chunks: config.ram_chunks(),
        disk_chunks: config.disk_chunks(),
        tier_promotions: stats.tier_promotions(),
        disk_evictions: stats.disk_evictions(),
        disk_appended_bytes: node.disk_appended_bytes() - warm_appended,
        stages,
    }
}

/// Runs the full sweep: RAM-only and tiered at every catalogue
/// multiple.
pub fn tiers_results(deployment: &Deployment, params: &TiersParams) -> Vec<TiersResult> {
    tiers_results_with(deployment, params, None)
}

/// [`tiers_results`] with an optional metrics registry (see
/// [`tiers_run_with`]).
pub fn tiers_results_with(
    deployment: &Deployment,
    params: &TiersParams,
    registry: Option<&MetricsRegistry>,
) -> Vec<TiersResult> {
    let mut results = Vec::new();
    for multiple in CATALOGUE_MULTIPLES {
        for tiered in [false, true] {
            let result = tiers_run_with(deployment, params, multiple, tiered, registry);
            eprintln!(
                "  [tiers] {:<13} {:<8} mean {:5.0} ms (P50 {:4.0}, P99 {:6.0}), \
                 hits RAM {:4.1}% disk {:4.1}%, split {}+{} chunks",
                result.scenario,
                result.policy,
                result.latency.mean_ms,
                result.latency.p50_ms,
                result.latency.p99_ms,
                result.ram_hit_ratio() * 100.0,
                result.disk_hit_ratio() * 100.0,
                result.ram_chunks,
                result.disk_chunks,
            );
            results.push(result);
        }
    }
    results
}

/// Renders tiers results as the `tiers` experiment table.
pub fn tiers_table(results: &[TiersResult]) -> Table {
    let mut headers: Vec<String> = vec!["scenario".into(), "engine".into(), "mean (ms)".into()];
    headers.extend(LatencySummary::percentile_headers());
    headers.extend(StageSummaries::p99_headers());
    headers.extend([
        "max (ms)".into(),
        "RAM hit %".into(),
        "disk hit %".into(),
        "RAM chunks".into(),
        "disk chunks".into(),
        "promotions".into(),
        "errors".into(),
    ]);
    let mut table = Table::new(
        "Tiers — RAM-only vs two-tier cache under catalogue pressure (Frankfurt, Zipf 1.1)",
        headers,
    );
    for r in results {
        let mut row = vec![
            r.scenario.clone(),
            r.policy.clone(),
            format!("{:.0}", r.latency.mean_ms),
        ];
        row.extend(r.latency.percentile_cells());
        row.extend(r.stages.p99_cells());
        row.extend([
            format!("{:.0}", r.latency.max_ms),
            format!("{:.1}", r.ram_hit_ratio() * 100.0),
            format!("{:.1}", r.disk_hit_ratio() * 100.0),
            r.ram_chunks.to_string(),
            r.disk_chunks.to_string(),
            r.tier_promotions.to_string(),
            r.errors.to_string(),
        ]);
        table.push_row(row);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> TiersParams {
        let mut params = TiersParams::tiny();
        params.operations = 250;
        params
    }

    #[test]
    fn tiered_beats_ram_only_under_catalogue_pressure() {
        let params = quick_params();
        let deployment = Deployment::build(params.scale);
        let ram_only = tiers_run(&deployment, &params, 16, false);
        let tiered = tiers_run(&deployment, &params, 16, true);
        assert_eq!(ram_only.operations, 250);
        assert_eq!(tiered.operations, 250);
        assert!(
            tiered.latency.mean_ms < ram_only.latency.mean_ms,
            "tiered mean {} must beat ram-only {}",
            tiered.latency.mean_ms,
            ram_only.latency.mean_ms
        );
        assert!(
            tiered.latency.p99_ms < ram_only.latency.p99_ms,
            "tiered P99 {} must beat ram-only {}",
            tiered.latency.p99_ms,
            ram_only.latency.p99_ms
        );
        assert!(tiered.disk_hits > 0, "no disk-tier hits at 16x pressure");
        assert!(
            tiered.disk_chunks > 0,
            "knapsack never used the disk budget"
        );
        assert!(tiered.ram_chunks > 0, "RAM budget must stay in use");
        // Reads serve disk hits in place, so the log only takes each
        // epoch's fills and re-tier moves: it never wraps, the disk
        // tier keeps what the knapsack put there, and the tail is a
        // disk read, not a WAN fetch.
        assert_eq!(tiered.disk_evictions, 0, "the disk log wrapped");
        assert!(
            tiered.latency.p99_ms <= 160.0,
            "tiered P99 {} ms is not a local read",
            tiered.latency.p99_ms
        );
        // No epoch falls inside the 250-op measured window, and reads
        // write nothing.
        assert_eq!(tiered.disk_appended_bytes, 0);
        // The RAM-only engine never touches a disk tier.
        assert_eq!(ram_only.disk_hits, 0);
        assert_eq!(ram_only.disk_chunks, 0);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let params = quick_params();
        let deployment = Deployment::build(params.scale);
        let a = tiers_run(&deployment, &params, 4, true);
        let b = tiers_run(&deployment, &params, 4, true);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.ram_hits, b.ram_hits);
        assert_eq!(a.disk_hits, b.disk_hits);
        assert_eq!(a.ram_chunks, b.ram_chunks);
        assert_eq!(a.disk_chunks, b.disk_chunks);
    }

    #[test]
    fn stage_breakdown_is_scoped_to_the_measured_window() {
        let params = quick_params();
        let deployment = Deployment::build(params.scale);
        let registry = MetricsRegistry::new();
        let result = tiers_run_with(&deployment, &params, 4, true, Some(&registry));
        // Only the measured closed loop is summarised, not the warm-up.
        assert_eq!(result.stages.samples(), result.operations);
        assert!(result.stages.lookup.p99_ms >= 0.0);
        let text = registry.render_prometheus();
        assert!(text.contains("scenario=\"catalogue 4x\""));
        assert!(text.contains("policy=\"tiered\""));
    }

    #[test]
    fn table_covers_every_cell() {
        let mut params = quick_params();
        params.operations = 60;
        let deployment = Deployment::build(params.scale);
        let results = tiers_results(&deployment, &params);
        assert_eq!(results.len(), CATALOGUE_MULTIPLES.len() * 2);
        let table = tiers_table(&results);
        assert_eq!(table.len(), results.len());
        assert!(table.title().contains("Tiers"));
        // Hit ratios are well-formed percentages.
        for r in &results {
            assert!((0.0..=1.0).contains(&r.ram_hit_ratio()));
            assert!((0.0..=1.0).contains(&r.disk_hit_ratio()));
        }
    }
}
