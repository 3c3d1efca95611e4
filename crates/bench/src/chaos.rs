//! The `chaos` experiment: hardened vs baseline failure handling under
//! deterministic fault injection.
//!
//! Every cell replays the same seeded closed-loop run against a fresh
//! deployment whose chunk fetches pass through an
//! [`agar_chaos::ChaosPlane`]: region partitions and per-fetch error
//! faults fail and heal on the simulated clock, drawn from the
//! scenario's seed — bit-identical per replay. Each scenario runs
//! twice: once with the `baseline` policy (the historical fixed
//! 3-attempt loop, breaker off — byte-identical to the pre-hardening
//! engine) and once `hardened` (retry budget with priced backoff plus
//! an enabled per-region circuit breaker), so every delta in the table
//! is attributable to the hardening alone.

use crate::cell::{cell_labels, Cell, ColumnSpec, Layout, Value};
use crate::harness::{closed_loop, read_stream, Deployment, Scale};
use agar::{BreakerPolicy, DirectFetcher, RetryPolicy};
use agar_chaos::{ChaosClock, ChaosPlane, ChaosSpec, FetchFaultSpec, RegionOutage};
use agar_net::{RegionId, SimTime};
use agar_obs::{MetricsRegistry, StageSummaries};
use agar_workload::FailureCycle;
use std::sync::Arc;
use std::time::Duration;

/// Parameters shared by every cell of the chaos experiment.
#[derive(Clone, Copy, Debug)]
pub struct ChaosParams {
    /// Deployment scale.
    pub scale: Scale,
    /// Operations per run.
    pub operations: usize,
    /// Closed-loop clients.
    pub clients: usize,
    /// Cache size in paper MB units.
    pub cache_mb: f64,
    /// Seed shared by the baseline and hardened runs of each scenario.
    pub seed: u64,
}

impl ChaosParams {
    /// Full-scale defaults.
    pub(crate) fn paper() -> Self {
        ChaosParams {
            scale: Scale::paper(),
            operations: 1_000,
            clients: 2,
            cache_mb: 10.0,
            seed: 0xC4A0,
        }
    }

    /// Test-scale defaults (same shapes, small objects, fewer ops).
    pub fn tiny() -> Self {
        ChaosParams {
            scale: Scale::tiny(),
            operations: 300,
            ..ChaosParams::paper()
        }
    }
}

/// The failure-handling policy a cell runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosPolicy {
    /// Defaults: fixed 3-attempt loop, no backoff, breaker disabled —
    /// byte-identical to the pre-hardening engine.
    Baseline,
    /// Retry budget with capped exponential backoff plus an enabled
    /// per-region circuit breaker.
    Hardened,
}

impl ChaosPolicy {
    /// The policy's display label.
    fn label(&self) -> &'static str {
        match self {
            ChaosPolicy::Baseline => "baseline",
            ChaosPolicy::Hardened => "hardened",
        }
    }

    /// The retry policy this cell runs with.
    fn retry(&self) -> RetryPolicy {
        match self {
            ChaosPolicy::Baseline => RetryPolicy::default(),
            ChaosPolicy::Hardened => RetryPolicy {
                max_attempts: 4,
                base_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(200),
                deadline: Duration::from_secs(2),
            },
        }
    }

    /// The breaker policy this cell runs with.
    fn breaker(&self) -> BreakerPolicy {
        match self {
            ChaosPolicy::Baseline => BreakerPolicy::default(),
            ChaosPolicy::Hardened => BreakerPolicy {
                failure_threshold: 3,
                cooldown: Duration::from_secs(10),
            },
        }
    }
}

/// A named fault schedule for one scenario row.
#[derive(Clone, Debug)]
pub struct ChaosScenario {
    /// Scenario name (table row key).
    pub name: &'static str,
    /// The fault schedule (the seed is filled in per run).
    pub spec: ChaosSpec,
}

impl ChaosScenario {
    /// The scenario family: calm control, a fail/heal region
    /// partition, probabilistic per-fetch errors, and both at once.
    /// `partitioned` is the region whose outages the partition rows
    /// schedule (pick one the client does not live in).
    pub fn family(partitioned: RegionId) -> Vec<ChaosScenario> {
        let outage = RegionOutage {
            region: partitioned,
            cycle: FailureCycle {
                first_failure_s: 5,
                down_s: 20,
                period_s: 40,
            },
        };
        let flaky = FetchFaultSpec {
            per_1024: 200,
            cycle: FailureCycle {
                first_failure_s: 5,
                down_s: 15,
                period_s: 30,
            },
        };
        vec![
            ChaosScenario {
                name: "calm",
                spec: ChaosSpec::quiet(),
            },
            ChaosScenario {
                name: "partition",
                spec: ChaosSpec {
                    outages: vec![outage],
                    ..ChaosSpec::quiet()
                },
            },
            ChaosScenario {
                name: "flaky-fetch",
                spec: ChaosSpec {
                    fetch_faults: Some(flaky),
                    ..ChaosSpec::quiet()
                },
            },
            ChaosScenario {
                name: "combined",
                spec: ChaosSpec {
                    outages: vec![outage],
                    fetch_faults: Some(flaky),
                    ..ChaosSpec::quiet()
                },
            },
        ]
    }
}

/// The `chaos` cell layout: faults the chaos plane injected, replans
/// charged against the retry budget, reads that fell back to an
/// ungated plan after breaker exclusion left fewer than `k` reachable
/// chunks, and circuit-breaker open transitions. Reads are not traced,
/// so there is no stage breakdown.
pub(crate) static CHAOS: Layout = Layout {
    title:
        "Chaos — baseline vs hardened failure handling under injected faults (Frankfurt, Zipf 1.1)",
    policy_header: "policy",
    param: None,
    stages: false,
    columns: &[
        ColumnSpec::shown("faults_injected", "faults"),
        ColumnSpec::shown("retries", "retries"),
        ColumnSpec::shown("degraded_reads", "degraded"),
        ColumnSpec::shown("breaker_opens", "opens"),
    ],
};

/// Runs one (scenario, policy) cell: fresh deployment, fresh node
/// behind a fresh chaos plane, seeded closed-loop clients on the
/// simulated clock. With a registry, the cell's node and chaos plane
/// bind their counters into it under `{scenario, policy}` labels.
///
/// # Panics
///
/// Panics on invalid parameters (caller bugs).
pub fn chaos_run(
    params: &ChaosParams,
    scenario: &ChaosScenario,
    policy: ChaosPolicy,
    registry: Option<&MetricsRegistry>,
) -> Cell {
    let deployment = Deployment::build(params.scale);
    let labels = cell_labels(scenario.name, policy.label());
    let node = deployment.agar_node(
        deployment.region("Frankfurt"),
        deployment.scale.cache_bytes(params.cache_mb),
        params.seed,
        |settings| {
            settings.retry = policy.retry();
            settings.breaker = policy.breaker();
        },
        registry.map(|r| (r, &labels)),
    );
    let mut spec = scenario.spec.clone();
    spec.seed = params.seed;
    let clock = ChaosClock::new();
    let plane = Arc::new(ChaosPlane::new(
        Arc::new(DirectFetcher::new(Arc::clone(&deployment.backend))),
        spec,
        clock.clone(),
    ));
    node.set_chunk_fetcher(Arc::clone(&plane) as _);
    if let Some(registry) = registry {
        plane.register_metrics(registry, labels);
    }

    let ops = read_stream(&deployment.paper_workload(params.operations), params.seed);
    // Both clocks advance together: the fault schedule and the
    // breaker/backoff pricing see the same simulated instant.
    let outcome = closed_loop(&*node, ops, params.clients, SimTime::ZERO, &mut |now| {
        clock.set(now);
        node.set_sim_now(now);
    });
    CHAOS.cell(
        scenario.name.to_string(),
        policy.label().to_string(),
        0,
        &outcome,
        StageSummaries::default(),
        vec![
            Value::Count(plane.faults_injected()),
            Value::Count(node.retries()),
            Value::Count(node.degraded_reads()),
            Value::Count(node.breaker().opens()),
        ],
    )
}

/// Runs the full scenario family, baseline and hardened per scenario.
pub(crate) fn chaos_results(params: &ChaosParams, registry: Option<&MetricsRegistry>) -> Vec<Cell> {
    // Partition a region the Frankfurt client does not live in; Tokyo
    // is far enough that its chunks are marginal in calm plans, so the
    // outage's effect is isolated to the fault path under test.
    let partitioned = agar_net::presets::TOKYO;
    let mut results = Vec::new();
    for scenario in ChaosScenario::family(partitioned) {
        for policy in [ChaosPolicy::Baseline, ChaosPolicy::Hardened] {
            results.push(chaos_run(params, &scenario, policy, registry));
        }
    }
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_params() -> ChaosParams {
        let mut params = ChaosParams::tiny();
        params.operations = 120;
        params
    }

    #[test]
    fn calm_cells_inject_nothing_and_err_nothing() {
        let params = quick_params();
        let scenario = &ChaosScenario::family(RegionId::new(4))[0];
        assert_eq!(scenario.name, "calm");
        for policy in [ChaosPolicy::Baseline, ChaosPolicy::Hardened] {
            let result = chaos_run(&params, scenario, policy, None);
            assert_eq!(result.operations, 120);
            assert_eq!(result.errors, 0);
            assert_eq!(result.count("faults_injected"), 0);
            assert_eq!(result.count("breaker_opens"), 0);
        }
    }

    #[test]
    fn faulty_cells_inject_and_both_policies_survive() {
        let params = quick_params();
        let partitioned = agar_net::presets::TOKYO;
        let scenarios = ChaosScenario::family(partitioned);
        let flaky = scenarios.iter().find(|s| s.name == "flaky-fetch").unwrap();
        let baseline = chaos_run(&params, flaky, ChaosPolicy::Baseline, None);
        let hardened = chaos_run(&params, flaky, ChaosPolicy::Hardened, None);
        assert!(baseline.count("faults_injected") > 0, "schedule must fire");
        assert!(hardened.count("faults_injected") > 0, "schedule must fire");
        // The 20% per-fetch fault rate is harsh enough that some reads
        // exhaust any bounded budget; the hardened budget (4 attempts
        // vs 3) must never do worse. Seeds are fixed, so this is a
        // deterministic comparison, not a statistical one.
        assert!(
            hardened.errors <= baseline.errors,
            "hardened errors {} exceed baseline {}",
            hardened.errors,
            baseline.errors
        );
        assert!(
            hardened.count("retries") > 0,
            "faults must charge the retry budget"
        );
    }

    #[test]
    fn cells_are_deterministic_per_seed() {
        let params = quick_params();
        let partitioned = agar_net::presets::TOKYO;
        let scenario = &ChaosScenario::family(partitioned)[1];
        let a = chaos_run(&params, scenario, ChaosPolicy::Hardened, None);
        let b = chaos_run(&params, scenario, ChaosPolicy::Hardened, None);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.count("faults_injected"), b.count("faults_injected"));
        assert_eq!(a.count("retries"), b.count("retries"));
        assert_eq!(a.count("breaker_opens"), b.count("breaker_opens"));
    }
}
