//! The hedged-read acceptance claims, asserted end to end:
//!
//! - under slowdown spikes, the hedged engine's P99 is strictly below
//!   the unhedged engine's on the same seed, and its total backend
//!   round trips stay within the (1 + Δ/k)× budget;
//! - Δ = 0 reproduces the unhedged engine byte for byte, run over run;
//! - hedged reads never decode stale or mixed versions under a seeded
//!   read/write workload (`cluster_writes.rs` races them against writes
//!   on threads);
//! - cancelled stragglers leave no in-flight entries behind in the
//!   cluster's fetch coordinator.

use agar_bench::{
    build_warm_cluster, run_mixed_cluster, tail_run, Deployment, ExperimentParams, LatencyProfile,
    Scale,
};
use agar_ec::ObjectId;
use agar_workload::{ReadWriteMix, StragglerScenario};

/// The tail cells run cacheless: with zero cache capacity both engines
/// issue exactly k backend primaries per read, so the round-trip
/// budget comparison is exact instead of drifting with the knapsack
/// configurations the two runs independently converge to.
const CACHELESS: f64 = 0.0;

/// Hedge chunks Δ of the hedged runs.
const DELTA: usize = 2;

#[test]
fn hedged_p99_beats_unhedged_within_the_round_trip_budget() {
    let params = ExperimentParams::tiny();
    let scenario = StragglerScenario::slow_spikes();
    let unhedged = tail_run(&params, &scenario, 0, CACHELESS, None);
    let hedged = tail_run(&params, &scenario, DELTA, CACHELESS, None);

    assert_eq!(unhedged.errors, 0);
    assert_eq!(hedged.errors, 0);
    assert!(
        hedged.latency.p99_ms < unhedged.latency.p99_ms,
        "hedged P99 {:.0} ms must be strictly below unhedged {:.0} ms",
        hedged.latency.p99_ms,
        unhedged.latency.p99_ms
    );
    assert!(
        hedged.count("hedged_requests") > 0,
        "spikes must trigger hedges"
    );

    // k = 9 data chunks at every scale; Δ = 2 hedges.
    let k = 9.0;
    let delta = DELTA as f64;
    assert!(
        hedged.count("backend_fetches") as f64
            <= unhedged.count("backend_fetches") as f64 * (1.0 + delta / k),
        "hedged fetches {} blow the (1 + Δ/k)x budget over unhedged {}",
        hedged.count("backend_fetches"),
        unhedged.count("backend_fetches")
    );
}

#[test]
fn delta_zero_reproduces_the_unhedged_engine_byte_for_byte() {
    let params = ExperimentParams::tiny();
    for scenario in [StragglerScenario::calm(), StragglerScenario::slow_spikes()] {
        let first = tail_run(&params, &scenario, 0, CACHELESS, None);
        let second = tail_run(&params, &scenario, 0, CACHELESS, None);
        assert_eq!(first.latency, second.latency, "{}", scenario.name);
        assert_eq!(
            first.count("backend_fetches"),
            second.count("backend_fetches")
        );
        assert_eq!(first.errors, second.errors);
        assert_eq!(first.count("hedged_requests"), 0, "Δ = 0 must never hedge");
        assert_eq!(first.count("hedge_wins"), 0);
        assert_eq!(first.count("hedges_cancelled"), 0);
    }
}

#[test]
fn hedged_mixed_workload_never_decodes_mixed_versions() {
    let deployment = Deployment::build_with(
        Scale::tiny(),
        LatencyProfile::Calibrated,
        Some(&StragglerScenario::slow_spikes()),
    );
    let region = deployment.region("Frankfurt");
    let router = build_warm_cluster(&deployment, region, 2, 4, 2, false, 3);
    let run = run_mixed_cluster(
        &router,
        4,
        160,
        4,
        deployment.scale.object_size,
        ReadWriteMix::with_ratio(0.25),
        11,
    );
    assert!(run.writes > 0, "a 25% mix must produce writes");
    assert_eq!(run.errors, 0);
    assert_eq!(
        run.stale_reads, 0,
        "hedged reads decoded stale or mixed-version chunk sets"
    );
    assert_eq!(
        router.coordinator().in_flight(),
        0,
        "cancelled stragglers leaked in-flight fetch entries"
    );
}

#[test]
fn cancelled_stragglers_leave_no_in_flight_entries() {
    let deployment = Deployment::build_with(
        Scale::tiny(),
        LatencyProfile::Calibrated,
        Some(&StragglerScenario::slow_spikes()),
    );
    let region = deployment.region("Frankfurt");
    let router = build_warm_cluster(&deployment, region, 2, 4, 2, false, 7);
    // Cold keys (outside the warm hot set) force every read through the
    // coordinator's backend fetch path, where spikes make hedges fire
    // and stragglers get discarded.
    for _ in 0..3 {
        for key in 4..12u64 {
            router.read(ObjectId::new(key)).expect("cold hedged read");
        }
    }
    let stats = router.cache_stats();
    assert!(stats.hedged_requests() > 0, "spiky cold reads must hedge");
    assert_eq!(
        router.coordinator().in_flight(),
        0,
        "straggler discard left entries in the fetch coordinator"
    );
}
