//! Cross-crate integration: the full pipeline from workload generation
//! through Agar to the erasure-coded backend, at test scale.

use agar::{AgarNode, AgarSettings, CachingClient, FixedChunksClient};
use agar_bench::{closed_loop, run_once, Deployment, PolicySpec, RunConfig, Scale};
use agar_ec::{CodingParams, ObjectId};
use agar_net::presets::{aws_six_regions, FRANKFURT, SYDNEY};
use agar_net::SimTime;
use agar_store::{expected_payload, populate, Backend, RoundRobin};
use agar_workload::ReadWriteMix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn small_workload(ops: usize) -> agar_workload::WorkloadSpec {
    let mut w = agar_workload::WorkloadSpec::paper_default();
    w.operations = ops;
    w
}

#[test]
fn every_policy_reads_correct_data_end_to_end() {
    let preset = aws_six_regions();
    let backend = Arc::new(
        Backend::new(
            preset.topology.clone(),
            Arc::new(preset.latency.clone()),
            CodingParams::paper_default(),
            Box::new(RoundRobin),
        )
        .unwrap(),
    );
    let mut rng = StdRng::seed_from_u64(1);
    populate(&backend, 20, 9_000, &mut rng).unwrap();

    let node = AgarNode::new(
        FRANKFURT,
        Arc::clone(&backend),
        AgarSettings::paper_default(5 * 9_000),
        3,
    )
    .unwrap();
    for round in 0..3 {
        for i in 0..20 {
            let metrics = node.read(ObjectId::new(i)).unwrap();
            assert_eq!(
                metrics.data.as_ref(),
                expected_payload(i, 9_000).as_slice(),
                "round {round} object {i}"
            );
        }
        node.force_reconfigure();
    }
}

#[test]
fn harness_runs_all_policies_at_both_regions() {
    let deployment = Deployment::build(Scale::tiny());
    for region in [FRANKFURT, SYDNEY] {
        for policy in [
            PolicySpec::Agar,
            PolicySpec::Lru(3),
            PolicySpec::Lfu(9),
            PolicySpec::Backend,
        ] {
            let mut config = RunConfig::paper_default(region, policy);
            config.workload = small_workload(80);
            let result = run_once(&deployment, &config);
            assert_eq!(result.operations, 80, "{policy:?} at {region}");
            assert!(
                result.mean_latency_ms > 100.0,
                "{policy:?}: latency {} suspiciously low",
                result.mean_latency_ms
            );
        }
    }
}

#[test]
fn simulated_time_reflects_closed_loop_clients() {
    let deployment = Deployment::build(Scale::tiny());
    // 1 client vs 4 clients: same op count, ~4x less simulated time.
    let sim_time = |clients: usize| {
        let client = FixedChunksClient::backend_only(
            FRANKFURT,
            Arc::clone(&deployment.backend),
            deployment.preset.client_overhead,
            1,
        );
        let ops = small_workload(120)
            .mixed_stream(ReadWriteMix::with_ratio(0.0), 1)
            .unwrap();
        let outcome = closed_loop(&client, ops, clients, SimTime::ZERO, &mut |_| {});
        assert_eq!(outcome.samples.len(), 120);
        outcome.end.saturating_duration_since(SimTime::ZERO)
    };
    let (t1, t4) = (sim_time(1), sim_time(4));
    let ratio = t1.as_secs_f64() / t4.as_secs_f64();
    assert!(ratio > 2.5 && ratio < 6.0, "parallelism ratio {ratio}");
}

#[test]
fn degraded_mode_single_region_failure_is_transparent() {
    let deployment = Deployment::build(Scale::tiny());
    deployment.backend.fail_region(SYDNEY);
    let mut config = RunConfig::paper_default(FRANKFURT, PolicySpec::Agar);
    config.workload = small_workload(100);
    let result = run_once(&deployment, &config);
    assert_eq!(result.operations, 100);
    deployment.backend.heal_region(SYDNEY);
}
