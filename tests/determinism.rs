//! Reproducibility: every layer of the system is seeded, so identical
//! seeds must yield bit-identical experiment results.

use agar_bench::{run_once, Deployment, PolicySpec, RunConfig, Scale};
use agar_net::presets::{FRANKFURT, SYDNEY};

#[test]
fn full_experiment_runs_are_bit_deterministic() {
    let deployment = Deployment::build(Scale::tiny());
    for policy in [PolicySpec::Agar, PolicySpec::Lru(5), PolicySpec::Lfu(7)] {
        let mut config = RunConfig::paper_default(FRANKFURT, policy);
        config.workload.operations = 300;
        let a = run_once(&deployment, &config);
        let b = run_once(&deployment, &config);
        assert_eq!(a.mean_latency_ms, b.mean_latency_ms, "{policy:?}");
        assert_eq!(a.hit_ratio, b.hit_ratio, "{policy:?}");
        assert_eq!(a.total_hits, b.total_hits, "{policy:?}");
        assert_eq!(a.cache_contents, b.cache_contents, "{policy:?}");
        assert_eq!(a.sim_duration, b.sim_duration, "{policy:?}");
    }
}

#[test]
fn seeded_runs_are_byte_identical_across_fresh_deployments() {
    // Stronger than field-by-field equality: the entire `RunResult` —
    // including float bit patterns and the full cache-contents map —
    // must match byte for byte, even when the deployment itself is
    // rebuilt from scratch. This pins the discrete-event simulator's
    // determinism so future refactors (parallelism, event reordering,
    // hash-map iteration) cannot silently change results.
    for region in [FRANKFURT, SYDNEY] {
        for policy in [PolicySpec::Agar, PolicySpec::Lru(3), PolicySpec::Backend] {
            let mut config = RunConfig::paper_default(region, policy);
            config.workload.operations = 200;
            let a = run_once(&Deployment::build(Scale::tiny()), &config);
            let b = run_once(&Deployment::build(Scale::tiny()), &config);
            assert_eq!(
                a.mean_latency_ms.to_bits(),
                b.mean_latency_ms.to_bits(),
                "{policy:?} at {region}: mean latency bits diverged"
            );
            assert_eq!(
                a.hit_ratio.to_bits(),
                b.hit_ratio.to_bits(),
                "{policy:?} at {region}: hit ratio bits diverged"
            );
            assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{policy:?} at {region}: full run result diverged"
            );
        }
    }
}

#[test]
fn different_seeds_differ() {
    let deployment = Deployment::build(Scale::tiny());
    let mut config = RunConfig::paper_default(FRANKFURT, PolicySpec::Lru(5));
    config.workload.operations = 300;
    let a = run_once(&deployment, &config);
    config.seed += 1;
    let b = run_once(&deployment, &config);
    assert_ne!(a.mean_latency_ms, b.mean_latency_ms);
}

#[test]
fn deployments_are_reproducible() {
    let a = Deployment::build(Scale::tiny());
    let b = Deployment::build(Scale::tiny());
    assert_eq!(a.backend.object_count(), b.backend.object_count());
    assert_eq!(a.backend.stored_bytes(), b.backend.stored_bytes());
}

#[test]
fn trace_dumps_are_byte_identical_per_seed() {
    // Trace sampling is a deterministic counter and every span is
    // priced on the simulated clock, so two identically-seeded runs
    // must serialise byte-for-byte identical chrome://tracing dumps —
    // the trace is part of the reproducible result, not a side channel.
    let scenario = agar_workload::StragglerScenario::slow_spikes();
    let dump = || {
        let params = agar_bench::ExperimentParams {
            operations: 120,
            ..agar_bench::ExperimentParams::tiny()
        };
        // tail_run traces every read; rebuild the deployment from
        // scratch each time so nothing is shared between the runs.
        agar_bench::tail_run(&params, &scenario, 2, agar_bench::TAIL_CACHE_MB, None);
        // The node is internal to tail_run; drive a node directly for
        // the dump itself so the bytes come from the public API.
        let deployment = Deployment::build(Scale::tiny());
        let mut settings = agar::AgarSettings::paper_default(64 * 1024);
        settings.trace_sample_every = 1;
        let node = agar::AgarNode::new(
            deployment.region("Frankfurt"),
            std::sync::Arc::clone(&deployment.backend),
            settings,
            42,
        )
        .unwrap();
        use agar::CachingClient;
        for i in 0..40u64 {
            node.set_sim_now(agar_net::SimTime::from_millis(i * 25));
            node.read(agar_ec::ObjectId::new(i % 8)).unwrap();
        }
        node.trace_chrome_json().expect("tracing is on")
    };
    let a = dump();
    let b = dump();
    assert_eq!(a, b, "chrome trace dumps diverged across identical seeds");
    assert!(a.contains("\"traceEvents\""));
}

#[test]
fn disabled_tracing_leaves_the_read_path_byte_identical() {
    // `trace_sample_every = 0` must be indistinguishable from a build
    // without the trace layer: same latency bit patterns, same
    // counters, and no trace state accumulated anywhere.
    use agar::CachingClient;
    let run = |sample_every: u64| {
        let deployment = Deployment::build(Scale::tiny());
        let mut settings = agar::AgarSettings::paper_default(64 * 1024);
        settings.trace_sample_every = sample_every;
        let node = agar::AgarNode::new(
            deployment.region("Frankfurt"),
            std::sync::Arc::clone(&deployment.backend),
            settings,
            7,
        )
        .unwrap();
        let latencies: Vec<std::time::Duration> = (0..60u64)
            .map(|i| node.read(agar_ec::ObjectId::new(i % 6)).unwrap().latency)
            .collect();
        (
            latencies,
            format!("{:?}", node.cache_stats()),
            node.trace_snapshot().len(),
        )
    };
    let (lat_off, stats_off, traces_off) = run(0);
    let (lat_on, stats_on, traces_on) = run(1);
    assert_eq!(lat_off, lat_on, "tracing perturbed the latency stream");
    assert_eq!(stats_off, stats_on, "tracing perturbed the cache counters");
    assert_eq!(traces_off, 0, "disabled tracing must record nothing");
    assert_eq!(traces_on, 60, "full sampling must record every read");
}
