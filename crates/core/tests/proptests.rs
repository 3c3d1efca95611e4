//! Property-based tests for the Agar core: Knapsack solver invariants
//! against random instances, option-generation invariants against
//! random latency landscapes, and the read planner's cold plans against
//! the one chunk ranking.

use agar::knapsack::{exhaustive_optimum, greedy, KnapsackSolver};
use agar::options::{generate_options, ObjectOptions};
use agar::{CacheConfiguration, ChunkSource, LocalHits, ReadPlanner, RequestMonitor};
use agar_ec::{CodingParams, ObjectId};
use agar_net::presets::aws_six_regions;
use agar_net::RegionId;
use agar_store::{populate, Backend, ObjectManifest, RoundRobin};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Builds option sets from random per-region latencies and popularities.
fn build_instance(
    latencies_ms: &[u64; 6],
    popularities: &[f64],
) -> HashMap<ObjectId, ObjectOptions> {
    let latencies: Vec<Duration> = latencies_ms
        .iter()
        .map(|&ms| Duration::from_millis(ms))
        .collect();
    let params = CodingParams::paper_default();
    popularities
        .iter()
        .enumerate()
        .map(|(i, &pop)| {
            let object = ObjectId::new(i as u64);
            let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
            let manifest = ObjectManifest::new(object, 1_000_000, 1, params, locations);
            (
                object,
                generate_options(&manifest, &latencies, Duration::from_millis(40), pop),
            )
        })
        .collect()
}

fn latency_strategy() -> impl Strategy<Value = [u64; 6]> {
    [
        50u64..200,
        50u64..500,
        100u64..1000,
        200u64..2000,
        500u64..4000,
        500u64..5000,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The dynamic program never exceeds the true optimum, never busts
    /// capacity, and never holds two options for one object.
    #[test]
    fn dp_bounded_by_optimum(
        latencies in latency_strategy(),
        pops in vec(0.1f64..100.0, 1..4),
        capacity in 0u32..20,
    ) {
        let instance = build_instance(&latencies, &pops);
        let dp = KnapsackSolver::new().populate(&instance, capacity);
        let optimum = exhaustive_optimum(&instance, capacity);

        prop_assert!(dp.weight() <= capacity);
        prop_assert!(dp.value() <= optimum.value() + 1e-6,
            "dp {} beat 'optimum' {}", dp.value(), optimum.value());

        let mut seen = std::collections::HashSet::new();
        for option in dp.options() {
            prop_assert!(seen.insert(option.object()));
        }
    }

    /// The dynamic program is at least as good as the greedy heuristic
    /// (§II-D: greedy can err badly; the DP must not do worse).
    #[test]
    fn dp_dominates_greedy(
        latencies in latency_strategy(),
        pops in vec(0.1f64..100.0, 1..6),
        capacity in 0u32..40,
    ) {
        let instance = build_instance(&latencies, &pops);
        let dp = KnapsackSolver::new().populate(&instance, capacity);
        let g = greedy(&instance, capacity);
        prop_assert!(g.weight() <= capacity);
        prop_assert!(dp.value() >= g.value() - 1e-6,
            "dp {} < greedy {}", dp.value(), g.value());
    }

    /// DP stays within 5% of the exhaustive optimum on small instances.
    /// The paper's single-table algorithm is an approximation (§VII-B
    /// concedes this); the relaxation + replacement + second-sweep moves
    /// close most of the gap, and the property bounds what remains.
    #[test]
    fn dp_close_to_optimum_small(
        latencies in latency_strategy(),
        pops in vec(0.5f64..50.0, 1..3),
        capacity in 0u32..=18,
    ) {
        let instance = build_instance(&latencies, &pops);
        let dp = KnapsackSolver::new().populate(&instance, capacity);
        let optimum = exhaustive_optimum(&instance, capacity);
        prop_assert!(dp.value() >= 0.95 * optimum.value() - 1e-6,
            "dp {} vs optimum {}", dp.value(), optimum.value());
    }

    /// Option invariants: weights are 1..=k, values are non-negative and
    /// monotone in weight, chunk lists have the stated length and never
    /// repeat a chunk.
    #[test]
    fn option_generation_invariants(
        latencies in latency_strategy(),
        pop in 0.0f64..1000.0,
    ) {
        let instance = build_instance(&latencies, &[pop]);
        let options = &instance[&ObjectId::new(0)];
        let mut last_value = -1.0;
        let mut last_weight = 0;
        for option in options.iter() {
            prop_assert_eq!(option.weight() as usize, option.chunks().len());
            prop_assert_eq!(option.weight(), last_weight + 1);
            prop_assert!(option.value() >= last_value);
            prop_assert!(option.value() >= 0.0);
            let set: std::collections::HashSet<u8> =
                option.chunks().iter().copied().collect();
            prop_assert_eq!(set.len(), option.chunks().len());
            last_value = option.value();
            last_weight = option.weight();
        }
        prop_assert_eq!(last_weight, 9);
    }

    /// EWMA popularity stays within the convex hull of observed
    /// frequencies: never negative, never above the max epoch frequency.
    #[test]
    fn monitor_popularity_bounded(epoch_freqs in vec(0u32..500, 1..12)) {
        let mut monitor = RequestMonitor::new();
        let key = ObjectId::new(7);
        let max_freq = *epoch_freqs.iter().max().unwrap() as f64;
        for &freq in &epoch_freqs {
            for _ in 0..freq {
                monitor.record_read(key);
            }
            monitor.end_epoch();
            let pop = monitor.popularity(key);
            prop_assert!(pop >= 0.0);
            prop_assert!(pop <= max_freq + 1e-9, "pop {} > max freq {}", pop, max_freq);
        }
    }

    /// With no cache hits and no neighbour offers, a plan fetches
    /// exactly the first k entries of `ObjectManifest::rank_chunks`
    /// whose region is up (cheapest estimate first, ties to the lower
    /// index), each priced at its region's estimate — and fails exactly
    /// when fewer than k are up. Few distinct estimates force ties.
    #[test]
    fn cold_plans_take_the_first_k_available_ranked_chunks(
        data in 2usize..10,
        parity in 1usize..5,
        steps in [1u64..5, 1u64..5, 1u64..5, 1u64..5, 1u64..5, 1u64..5],
        scale in 1u64..1000,
        failed in 0u8..64,
    ) {
        let preset = aws_six_regions();
        let params = CodingParams::new(data, parity).unwrap();
        let backend = Backend::new(
            preset.topology,
            Arc::new(preset.latency),
            params,
            Box::new(RoundRobin),
        )
        .unwrap();
        populate(&backend, 1, 900, &mut StdRng::seed_from_u64(scale)).unwrap();
        for region in (0..6u16).filter(|r| failed & (1 << r) != 0) {
            backend.fail_region(RegionId::new(region));
        }
        let estimates: Vec<Duration> = steps
            .iter()
            .map(|&step| Duration::from_millis(step * scale))
            .collect();
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let expected: Vec<u8> = manifest
            .rank_chunks(&estimates)
            .into_iter()
            .map(|(index, _)| index)
            .filter(|&index| backend.is_region_available(manifest.location(index as usize)))
            .take(data)
            .collect();

        let config = CacheConfiguration::empty();
        let plan = ReadPlanner::new(&manifest, &config).plan(
            LocalHits::default(),
            &[],
            &backend,
            &estimates,
            Duration::from_millis(150),
        );
        match plan {
            Ok(plan) => {
                prop_assert_eq!(plan.cache_hits, 0);
                prop_assert_eq!(plan.hedges, 0);
                let planned: Vec<u8> = plan.sources.iter().map(|&(index, _)| index).collect();
                prop_assert_eq!(&planned, &expected);
                prop_assert_eq!(planned.len(), data);
                for (index, source) in &plan.sources {
                    let region = manifest.location(*index as usize);
                    match source {
                        ChunkSource::Backend { region: planned, estimate } => {
                            prop_assert_eq!(*planned, region);
                            prop_assert_eq!(*estimate, estimates[region.index()]);
                        }
                        other => prop_assert!(false, "cold plan chose {:?}", other),
                    }
                }
            }
            Err(_) => prop_assert!(expected.len() < data, "{} chunks up", expected.len()),
        }
    }
}
