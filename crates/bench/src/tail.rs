//! The `tail` experiment: hedged vs unhedged read latency under the
//! straggler/fault scenario family.
//!
//! Mean latency barely distinguishes the two engines — stragglers are
//! rare by construction. The tail does: every cell of this experiment
//! replays the same seeded closed-loop run twice, once with hedging
//! off (Δ = 0, byte-identical to the original engine) and once with
//! Δ = 2 hedge chunks, against a fresh deployment overlaid with one
//! [`StragglerScenario`]. Per-region slowdown spikes live in the
//! latency model ([`Deployment::build_with`]); flaky regions fail and
//! heal on the simulated clock right here, from their
//! [`FlakyRegion`](agar_workload::FlakyRegion) schedule; dead regions
//! stay down throughout.
//!
//! Each run is fully deterministic per seed — deployments (and so the
//! spike phase counters) are rebuilt per cell — so hedged-vs-unhedged
//! deltas are attributable to the engine alone, and the CI gate can
//! compare P99s across commits.

use crate::cell::{cell_labels, Cell, ColumnSpec, Layout, Value};
use crate::harness::{closed_loop, read_stream, Deployment, LatencyProfile, Scale};
use agar::CachingClient;
use agar_net::{RegionId, SimTime};
use agar_obs::{MetricsRegistry, StageSummaries};
use agar_workload::StragglerScenario;

/// Parameters of one tail run (shared by every cell of the table).
#[derive(Clone, Copy, Debug)]
pub struct TailParams {
    /// Deployment scale.
    pub scale: Scale,
    /// Operations per run.
    pub operations: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Cache size in paper MB units.
    pub cache_mb: f64,
    /// Hedge chunks Δ for the hedged cells.
    pub max_hedges: usize,
    /// Seed shared by the hedged and unhedged runs of each scenario.
    pub seed: u64,
}

impl TailParams {
    /// Full-scale defaults: the paper workload with Δ = 2 hedges.
    pub(crate) fn paper() -> Self {
        TailParams {
            scale: Scale::paper(),
            operations: 1_000,
            clients: 2,
            cache_mb: 10.0,
            max_hedges: 2,
            seed: 0x7A11,
        }
    }

    /// Test-scale defaults (same shapes, small objects, fewer ops).
    pub fn tiny() -> Self {
        TailParams {
            scale: Scale::tiny(),
            operations: 300,
            ..TailParams::paper()
        }
    }
}

/// The `tail` cell layout. `param` is the Δ the cell ran with;
/// `backend_fetches` counts successful backend chunk round trips,
/// stragglers included — the hedging budget: hedged ≤ (1 + Δ/k) ×
/// unhedged. Every read is traced, so the stage columns cover the
/// whole run.
pub(crate) static TAIL: Layout = Layout {
    title: "Tail — hedged vs unhedged read latency under straggler scenarios (Frankfurt, Zipf 1.1)",
    policy_header: "engine",
    param: Some("max_hedges"),
    stages: true,
    columns: &[
        ColumnSpec::shown("backend_fetches", "fetches"),
        ColumnSpec::shown("hedged_requests", "hedges"),
        ColumnSpec::shown("hedge_wins", "wins"),
        ColumnSpec::shown("hedges_cancelled", "cancelled"),
    ],
};

/// Runs one (scenario, Δ) cell: fresh deployment, fresh node, seeded
/// closed-loop clients on the simulated clock. With a registry, the
/// cell's node binds its counters and stage histograms into it under
/// `{scenario, policy}` labels.
///
/// # Panics
///
/// Panics on invalid parameters (caller bugs).
pub fn tail_run(
    params: &TailParams,
    scenario: &StragglerScenario,
    max_hedges: usize,
    registry: Option<&MetricsRegistry>,
) -> Cell {
    // A fresh deployment per cell: the spike counters inside the
    // latency model are run-local state, and sharing them across cells
    // would shift the straggler phase between the engines under test.
    let deployment =
        Deployment::build_with(params.scale, LatencyProfile::Calibrated, Some(scenario));
    let policy = if max_hedges == 0 {
        "unhedged".to_string()
    } else {
        format!("hedged d={max_hedges}")
    };
    let labels = cell_labels(scenario.name, &policy);
    let node = deployment.agar_node(
        deployment.region("Frankfurt"),
        deployment.scale.cache_bytes(params.cache_mb),
        params.seed,
        |settings| {
            settings.max_hedges = max_hedges;
            // Trace every read: the per-stage breakdown columns and the
            // chrome://tracing dump both come from this. Sampling is a
            // deterministic counter, so it never perturbs the engine.
            settings.trace_sample_every = 1;
        },
        registry.map(|r| (r, &labels)),
    );
    let ops = read_stream(&deployment.paper_workload(params.operations), params.seed);
    // The clock hook: flaky regions fail and heal on their schedule
    // (whole simulated seconds), and the trace layer's clock is
    // stamped so spans carry simulated time.
    let outcome = closed_loop(
        &*node,
        ops,
        params.clients,
        SimTime::ZERO,
        &mut |now: SimTime| {
            let now_s = now.saturating_duration_since(SimTime::ZERO).as_secs();
            for flaky in &scenario.flaky {
                if flaky.cycle.is_down_at(now_s) {
                    deployment.backend.fail_region(RegionId::new(flaky.region));
                } else {
                    deployment.backend.heal_region(RegionId::new(flaky.region));
                }
            }
            node.set_sim_now(now);
        },
    );
    let stats = node.cache_stats();
    TAIL.cell(
        scenario.name.to_string(),
        policy,
        max_hedges as u64,
        &outcome,
        StageSummaries::from_traces(&node.trace_snapshot()),
        vec![
            Value::Count(outcome.backend_fetches()),
            Value::Count(stats.hedged_requests()),
            Value::Count(stats.hedge_wins()),
            Value::Count(stats.hedges_cancelled()),
        ],
    )
}

/// Runs the full scenario family, unhedged and hedged per scenario.
pub(crate) fn tail_results(params: &TailParams, registry: Option<&MetricsRegistry>) -> Vec<Cell> {
    let mut results = Vec::new();
    for scenario in StragglerScenario::all() {
        for delta in [0, params.max_hedges] {
            results.push(tail_run(params, &scenario, delta, registry));
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> TailParams {
        let mut params = TailParams::tiny();
        params.operations = 150;
        params
    }

    #[test]
    fn hedging_beats_the_unhedged_tail_under_spikes() {
        let mut params = quick_params();
        // No cache: with one, the engines' different latency
        // observations drift the knapsack configurations apart, and
        // the round-trip comparison would measure caching, not
        // hedging. Cacheless, both runs issue exactly k primaries per
        // read and the budget inequality is exact.
        params.cache_mb = 0.0;
        let scenario = StragglerScenario::slow_spikes();
        let unhedged = tail_run(&params, &scenario, 0, None);
        let hedged = tail_run(&params, &scenario, 2, None);
        assert_eq!(unhedged.operations, 150);
        assert_eq!(hedged.operations, 150);
        assert!(
            hedged.latency.p99_ms < unhedged.latency.p99_ms,
            "hedged P99 {} must beat unhedged {}",
            hedged.latency.p99_ms,
            unhedged.latency.p99_ms
        );
        assert!(
            hedged.count("hedged_requests") > 0,
            "spiky run must admit hedges"
        );
        // Round-trip budget: Δ = 2 over k = 9 primaries.
        let budget = unhedged.count("backend_fetches") as f64 * (1.0 + 2.0 / 9.0);
        assert!(
            (hedged.count("backend_fetches") as f64) <= budget,
            "hedged fetches {} exceed budget {budget:.0}",
            hedged.count("backend_fetches")
        );
    }

    #[test]
    fn flaky_region_fails_and_heals_on_schedule() {
        let mut params = quick_params();
        params.operations = 200;
        let scenario = StragglerScenario::flaky_backend();
        let unhedged = tail_run(&params, &scenario, 0, None);
        let hedged = tail_run(&params, &scenario, 2, None);
        // Both engines must survive the churn without giving up reads.
        assert_eq!(unhedged.errors, 0);
        assert_eq!(hedged.errors, 0);
        assert_eq!(unhedged.operations, 200);
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let params = quick_params();
        let scenario = StragglerScenario::slow_spikes();
        let a = tail_run(&params, &scenario, 2, None);
        let b = tail_run(&params, &scenario, 2, None);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.count("backend_fetches"), b.count("backend_fetches"));
        assert_eq!(a.count("hedged_requests"), b.count("hedged_requests"));
    }

    #[test]
    fn stage_breakdown_covers_every_read_and_lands_in_the_registry() {
        let mut params = quick_params();
        params.operations = 60;
        let registry = MetricsRegistry::new();
        let scenario = StragglerScenario::slow_spikes();
        let result = tail_run(&params, &scenario, 2, Some(&registry));
        // Every read is traced (sample_every = 1), so the per-stage
        // summaries cover the full run.
        assert_eq!(result.stages.samples(), result.operations);
        // Fetch dominates a cold straggler run; the P99 must be real.
        assert!(result.stages.fetch.p99_ms > 0.0);
        assert!(result.stages.fetch.p99_ms <= result.latency.max_ms);
        let text = registry.render_prometheus();
        assert!(text.contains("agar_read_stage_seconds_bucket"));
        assert!(text.contains("scenario=\"slow-spikes\""));
        assert!(text.contains("policy=\"hedged d=2\""));
    }

    #[test]
    fn table_covers_every_cell() {
        let mut params = quick_params();
        params.operations = 40;
        let results = tail_results(&params, None);
        assert_eq!(results.len(), StragglerScenario::all().len() * 2);
        let table = TAIL.table(&results);
        assert_eq!(table.len(), results.len());
        assert!(table.title().contains("Tail"));
    }
}
