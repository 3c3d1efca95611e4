//! Pins the metric surface: every series a warm tiered node, a
//! 3-member cluster router and a chaos cell export, by family and
//! label set, and their whole scrapes byte for byte.
//!
//! The counters are generated from tables, so no struct literal names
//! them; this is where a dropped table row, a renamed label or a
//! component that stops registering a cell fails — not in a dashboard.
//! The byte pins (`tests/data/metrics_surface/`) also catch a reordered
//! row, an edited help string and a row bound to the wrong cell.

use agar::{AgarNode, AgarSettings, CachingClient};
use agar_bench::{chaos_run, ChaosPolicy, ChaosScenario, ExperimentParams};
use agar_cluster::{ClusterRouter, ClusterSettings};
use agar_ec::{CodingParams, ObjectId};
use agar_net::presets::{aws_six_regions, FRANKFURT, TOKYO};
use agar_obs::{Labels, MetricsRegistry};
use agar_store::{populate, Backend, RoundRobin};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

const SIZE: usize = 900;

fn backend() -> Arc<Backend> {
    let preset = aws_six_regions();
    let backend = Backend::new(
        preset.topology,
        Arc::new(preset.latency),
        CodingParams::paper_default(),
        Box::new(RoundRobin),
    )
    .unwrap();
    populate(&backend, 12, SIZE, &mut StdRng::seed_from_u64(7)).unwrap();
    Arc::new(backend)
}

/// A tiered node with tracing and the circuit breaker on: every
/// optional metric family a node can export is present.
fn node(backend: &Arc<Backend>, seed: u64) -> Arc<AgarNode> {
    let mut settings = AgarSettings::paper_default(2 * SIZE);
    settings.disk_capacity_bytes = 8 * SIZE;
    settings.trace_sample_every = 1;
    settings.breaker.failure_threshold = 3;
    Arc::new(AgarNode::new(FRANKFURT, Arc::clone(backend), settings, seed).unwrap())
}

/// Reduces a Prometheus exposition to its sorted, de-duplicated series
/// identities: `family{label=value,…}` with labels sorted, histogram
/// sample suffixes folded into their family (and `le` dropped), and
/// the per-member id replaced by `*`.
fn surface(text: &str) -> Vec<String> {
    let histograms: Vec<&str> = text
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE ")?.strip_suffix(" histogram"))
        .collect();
    let mut series = BTreeSet::new();
    for line in text.lines().filter(|line| !line.starts_with('#')) {
        let (identity, _value) = line.rsplit_once(' ').expect("sample line");
        let (name, labels) = match identity.split_once('{') {
            Some((name, rest)) => (name, rest.trim_end_matches('}')),
            None => (identity, ""),
        };
        let family = histograms
            .iter()
            .find(|family| {
                name.strip_prefix(**family)
                    .is_some_and(|suffix| matches!(suffix, "_bucket" | "_sum" | "_count"))
            })
            .copied()
            .unwrap_or(name);
        let mut labels: Vec<String> = labels
            .split(',')
            .filter(|pair| !pair.is_empty() && !pair.starts_with("le="))
            .map(|pair| match pair.split_once('=') {
                Some(("member", _)) => "member=*".to_string(),
                _ => pair.replace('"', ""),
            })
            .collect();
        labels.sort();
        series.insert(format!("{family}{{{}}}", labels.join(",")));
    }
    series.into_iter().collect()
}

/// Every series one node exports, as (family, labels beyond the base).
const NODE_SERIES: &[(&str, &str)] = &[
    ("agar_breaker_closes_total", ""),
    ("agar_breaker_opens_total", ""),
    ("agar_breaker_probes_total", ""),
    ("agar_cache_chunk_hits_total", "tier=disk"),
    ("agar_cache_chunk_hits_total", "tier=ram"),
    ("agar_cache_chunk_misses_total", ""),
    ("agar_cache_evictions_total", "tier=disk"),
    ("agar_cache_evictions_total", "tier=ram"),
    ("agar_cache_insertions_total", ""),
    ("agar_cache_lock_visits_total", ""),
    ("agar_cache_rejected_inserts_total", ""),
    ("agar_config_carried_chunks", ""),
    ("agar_decode_plan_hits_total", ""),
    ("agar_decode_systematic_fast_total", ""),
    ("agar_degraded_reads_total", ""),
    ("agar_disk_appended_bytes_total", ""),
    ("agar_disk_compacted_bytes_total", ""),
    ("agar_disk_corrupt_frames_total", ""),
    ("agar_disk_read_calls_total", ""),
    ("agar_disk_write_calls_total", ""),
    ("agar_fill_fetches_total", ""),
    ("agar_hedge_cancelled_total", ""),
    ("agar_hedge_requests_total", ""),
    ("agar_hedge_wins_total", ""),
    ("agar_object_reads_total", "result=miss"),
    ("agar_object_reads_total", "result=partial_hit"),
    ("agar_object_reads_total", "result=total_hit"),
    ("agar_read_retries_total", ""),
    ("agar_read_stage_seconds", "stage=bind"),
    ("agar_read_stage_seconds", "stage=decode"),
    ("agar_read_stage_seconds", "stage=fetch"),
    ("agar_read_stage_seconds", "stage=lookup"),
    ("agar_read_stage_seconds", "stage=plan"),
    ("agar_reconfigurations_total", ""),
    ("agar_retry_backoff_micros_total", ""),
    ("agar_tier_demotions_total", ""),
    ("agar_tier_promotions_total", ""),
    ("agar_write_update_chunks_total", ""),
];

/// [`NODE_SERIES`] under the base labels `base` (which must sort
/// before `result`, `stage` and `tier`).
fn node_surface(base: &str) -> Vec<String> {
    NODE_SERIES
        .iter()
        .map(|(family, extra)| match *extra {
            "" => format!("{family}{{{base}}}"),
            extra => format!("{family}{{{base},{extra}}}"),
        })
        .collect()
}

/// Compares both renderings of `registry` with their checked-in copies
/// `tests/data/metrics_surface/{name}.prom` and `{name}.json`. Every
/// rendering that differs is written under the test target's scratch
/// directory before the test fails, naming each, so a deliberate change
/// is one run and one `cp` away.
fn assert_pinned(name: &str, registry: &MetricsRegistry) {
    let pinned = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data/metrics_surface");
    let mut moved = Vec::new();
    for (extension, actual) in [
        ("prom", registry.render_prometheus()),
        ("json", registry.render_json()),
    ] {
        let file = format!("{name}.{extension}");
        let expected = std::fs::read_to_string(pinned.join(&file)).unwrap_or_default();
        if actual != expected {
            let rendered = Path::new(env!("CARGO_TARGET_TMPDIR")).join(&file);
            std::fs::write(&rendered, &actual).unwrap();
            moved.push(format!("{file} (this run's: {})", rendered.display()));
        }
    }
    assert!(
        moved.is_empty(),
        "differ from {}: {}",
        pinned.display(),
        moved.join(", ")
    );
}

fn warm(read: impl Fn(ObjectId)) {
    for round in 0..3u64 {
        for id in 0..12u64 {
            read(ObjectId::new(id % (3 + round)));
        }
    }
}

#[test]
fn warm_tiered_node_exports_exactly_the_pinned_series() {
    let backend = backend();
    let node = node(&backend, 1);
    let registry = MetricsRegistry::new();
    node.register_metrics(&registry, &Labels::new().with("region", "fra"));
    warm(|object| drop(node.read(object).unwrap()));
    node.force_reconfigure();
    warm(|object| drop(node.read(object).unwrap()));
    assert!(node.cache_stats().disk_hits() > 0, "disk tier idle");

    assert_eq!(
        surface(&registry.render_prometheus()),
        node_surface("region=fra")
    );
    assert_pinned("node", &registry);
}

#[test]
fn three_member_router_exports_exactly_the_pinned_series() {
    let backend = backend();
    let router = ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), 5).unwrap();
    for seed in 0..3 {
        router.add_node(node(&backend, seed));
    }
    let registry = MetricsRegistry::new();
    router.register_metrics(&registry, &Labels::new().with("cluster", "c"));
    warm(|object| drop(router.read(object).unwrap()));
    router.write(ObjectId::new(0), &[7; SIZE]).unwrap();

    let mut expected: Vec<String> = [
        "agar_cluster_remote_hits_total{cluster=c}",
        "agar_cluster_routed_reads_total{cluster=c}",
        "agar_fetch_batched_round_trips_total{cluster=c,source=coordinator}",
        "agar_fetch_coalesced_total{cluster=c,source=coordinator}",
        "agar_fetch_primary_total{cluster=c}",
        "agar_invalidations_targeted_total{cluster=c,source=router}",
        "agar_lease_contentions_total{cluster=c,source=leases}",
        "agar_lease_fences_total{cluster=c}",
        "agar_lease_grants_total{cluster=c,source=leases}",
    ]
    .map(String::from)
    .into_iter()
    .chain(node_surface("cluster=c,member=*"))
    .collect();
    expected.sort();
    assert_eq!(surface(&registry.render_prometheus()), expected);
    assert_pinned("router", &registry);
}

/// A chaos cell registers its node and its `ChaosPlane` under the same
/// labels. The `combined` scenario schedules one region partition and
/// one per-fetch fault window, and its hardened run faults fetches of
/// both kinds, so every chaos family carries a nonzero count.
#[test]
fn chaos_cell_exports_exactly_the_pinned_scrape() {
    let scenario = ChaosScenario::family(TOKYO)
        .into_iter()
        .find(|scenario| scenario.name == "combined")
        .unwrap();
    let registry = MetricsRegistry::new();
    chaos_run(
        &ExperimentParams::tiny(),
        &scenario,
        ChaosPolicy::Hardened,
        Some(&registry),
    );
    let text = registry.render_prometheus();
    for family in [
        "agar_chaos_faults_injected_total",
        "agar_chaos_partition_faults_total",
        "agar_chaos_fetch_error_faults_total",
    ] {
        let sample = text
            .lines()
            .find(|line| line.starts_with(&format!("{family}{{")))
            .unwrap_or_else(|| panic!("{family} missing:\n{text}"));
        assert!(!sample.ends_with(" 0"), "{sample}");
    }
    assert_pinned("chaos", &registry);
}
