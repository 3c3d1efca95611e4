//! The reproduction's headline claims, asserted as tests (tiny scale,
//! same shapes as the paper's Figure 6/7/8):
//!
//! - Agar's mean latency beats every fixed LRU-c/LFU-c policy and the
//!   backend, at both Frankfurt and Sydney;
//! - Agar beats LRU-1 by a wide margin (the paper's 41% case);
//! - under a uniform workload all policies converge (Figure 8b's left
//!   edge);
//! - the margin survives the straggler scenario family (slowdown
//!   spikes, a dead region), with hedging protecting the tail.

use agar_bench::{run_averaged, Deployment, LatencyProfile, PolicySpec, RunConfig, Scale};
use agar_net::presets::{FRANKFURT, SYDNEY};
use agar_workload::{Distribution, StragglerScenario};

fn config(region: agar_net::RegionId, policy: PolicySpec, dist: Distribution) -> RunConfig {
    let mut config = RunConfig::paper_default(region, policy);
    config.workload.operations = 1_000;
    config.workload.distribution = dist;
    config
}

#[test]
fn agar_beats_every_baseline_on_the_paper_workload() {
    let deployment = Deployment::build(Scale::tiny());
    let zipf = Distribution::Zipfian { skew: 1.1 };
    for region in [FRANKFURT, SYDNEY] {
        let agar = run_averaged(&deployment, &config(region, PolicySpec::Agar, zipf), 3);
        for c in [1usize, 3, 5, 7, 9] {
            for policy in [PolicySpec::Lru(c), PolicySpec::Lfu(c)] {
                let baseline = run_averaged(&deployment, &config(region, policy, zipf), 3);
                assert!(
                    agar.mean_latency_ms < baseline.mean_latency_ms * 1.01,
                    "{} at {region}: Agar {:.0} vs {:.0}",
                    baseline.label,
                    agar.mean_latency_ms,
                    baseline.mean_latency_ms
                );
            }
        }
        let backend = run_averaged(&deployment, &config(region, PolicySpec::Backend, zipf), 1);
        assert!(
            agar.mean_latency_ms < backend.mean_latency_ms * 0.75,
            "Agar {:.0} vs backend {:.0}",
            agar.mean_latency_ms,
            backend.mean_latency_ms
        );
    }
}

#[test]
fn agar_beats_lru1_by_a_wide_margin() {
    // The paper: "compared to the worst-performing setup, LRU-1, Agar
    // yields 41% lower latency" (Frankfurt).
    let deployment = Deployment::build(Scale::tiny());
    let zipf = Distribution::Zipfian { skew: 1.1 };
    let agar = run_averaged(&deployment, &config(FRANKFURT, PolicySpec::Agar, zipf), 3);
    let lru1 = run_averaged(&deployment, &config(FRANKFURT, PolicySpec::Lru(1), zipf), 3);
    let reduction = 1.0 - agar.mean_latency_ms / lru1.mean_latency_ms;
    assert!(
        reduction > 0.30,
        "expected a ≥30% latency reduction vs LRU-1, got {:.1}%",
        reduction * 100.0
    );
}

#[test]
fn uniform_workload_levels_the_field() {
    // Figure 8b's left edge: with no popularity skew, caching policy
    // choice makes little difference.
    let deployment = Deployment::build(Scale::tiny());
    let uniform = Distribution::Uniform;
    let agar = run_averaged(
        &deployment,
        &config(FRANKFURT, PolicySpec::Agar, uniform),
        2,
    );
    let backend = run_averaged(
        &deployment,
        &config(FRANKFURT, PolicySpec::Backend, uniform),
        1,
    );
    // Agar cannot be much better than the backend when nothing is hot.
    assert!(
        agar.mean_latency_ms > backend.mean_latency_ms * 0.85,
        "Agar {:.0} vs backend {:.0} under uniform",
        agar.mean_latency_ms,
        backend.mean_latency_ms
    );
}

#[test]
fn hit_ratio_shapes_match_figure7() {
    let deployment = Deployment::build(Scale::tiny());
    let zipf = Distribution::Zipfian { skew: 1.1 };
    // Fewer chunks per object -> higher hit ratio (more objects fit).
    let lru1 = run_averaged(&deployment, &config(FRANKFURT, PolicySpec::Lru(1), zipf), 2);
    let lru9 = run_averaged(&deployment, &config(FRANKFURT, PolicySpec::Lru(9), zipf), 2);
    assert!(
        lru1.hit_ratio > lru9.hit_ratio + 0.15,
        "LRU-1 {:.2} vs LRU-9 {:.2}",
        lru1.hit_ratio,
        lru9.hit_ratio
    );
    // Agar's hit ratio exceeds the 7- and 9-chunk fixed policies'.
    let agar = run_averaged(&deployment, &config(FRANKFURT, PolicySpec::Agar, zipf), 2);
    for c in [7usize, 9] {
        let fixed = run_averaged(&deployment, &config(FRANKFURT, PolicySpec::Lfu(c), zipf), 2);
        assert!(
            agar.hit_ratio > fixed.hit_ratio - 0.02,
            "Agar {:.2} vs LFU-{c} {:.2}",
            agar.hit_ratio,
            fixed.hit_ratio
        );
    }
}

#[test]
fn agar_holds_its_margin_across_the_straggler_scenarios() {
    // The scenario family from `agar_workload::scenario`, applied to
    // the deployment itself: regional slowdown spikes and a dead
    // region. Hedged Agar (Δ = 2) must still beat the backend on the
    // mean, and hedging must keep its P99 below the unhedged run's
    // wherever stragglers actually bite (the calm scenario is the
    // control: hedges barely fire and nothing changes).
    let zipf = Distribution::Zipfian { skew: 1.1 };
    for scenario in [
        StragglerScenario::calm(),
        StragglerScenario::slow_spikes(),
        StragglerScenario::dead_region(),
    ] {
        let deployment =
            Deployment::build_with(Scale::tiny(), LatencyProfile::Calibrated, Some(&scenario));
        let mut hedged_config = config(FRANKFURT, PolicySpec::Agar, zipf);
        hedged_config.max_hedges = 2;
        let hedged = run_averaged(&deployment, &hedged_config, 2);
        let backend = run_averaged(
            &deployment,
            &config(FRANKFURT, PolicySpec::Backend, zipf),
            1,
        );
        assert!(
            hedged.mean_latency_ms < backend.mean_latency_ms,
            "{}: hedged Agar {:.0} vs backend {:.0}",
            scenario.name,
            hedged.mean_latency_ms,
            backend.mean_latency_ms
        );
        if !scenario.is_calm() {
            let unhedged = run_averaged(&deployment, &config(FRANKFURT, PolicySpec::Agar, zipf), 2);
            assert!(
                hedged.latency.p99_ms <= unhedged.latency.p99_ms,
                "{}: hedged P99 {:.0} vs unhedged {:.0}",
                scenario.name,
                hedged.latency.p99_ms,
                unhedged.latency.p99_ms
            );
        }
    }
}
