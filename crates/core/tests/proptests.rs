//! Property-based tests for the Agar core: Knapsack solver invariants
//! against random instances, the exact solve against the paper's
//! `populate` on paper-shaped ones, option-generation invariants against
//! random latency landscapes, and the read planner against the one
//! chunk ranking (cold plans) and an exhaustive cheapest-cover search
//! (plans with RAM hits, disk hits, offers and hedges).

use agar::knapsack::{greedy, optimum, optimum_tiered, Config, KnapsackSolver};
use agar::options::{
    generate_disk_options, generate_options, generate_tiered_options, ObjectOptions, TieredOptions,
};
use agar::{
    AgarError, CacheConfiguration, ChunkSource, HedgePolicy, LocalHits, ReadPlanner, RemoteChunk,
    RequestMonitor,
};
use agar_ec::{CodingParams, ObjectId};
use agar_net::latency::LatencyModel;
use agar_net::presets::aws_six_regions;
use agar_net::RegionId;
use agar_store::{populate, Backend, ObjectManifest, RoundRobin, StoreError};
use agar_workload::Zipfian;
use bytes::Bytes;
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

/// A paper-shaped epoch: `objects` RS(9, 3) objects placed round-robin
/// on the six preset regions, each with its Zipf(`skew`) share of
/// `reads` reads as popularity, and the preset matrix's mean chunk-read
/// latencies from `client`.
struct PaperEpoch {
    objects: Vec<(ObjectManifest, f64)>,
    latencies: Vec<Duration>,
}

impl PaperEpoch {
    fn new(client: u16, objects: u64, skew: f64, reads: f64) -> Self {
        let preset = aws_six_regions();
        let latencies = (0..6)
            .map(|region| {
                preset.latency.mean(
                    RegionId::new(client),
                    RegionId::new(region),
                    preset.latency.nominal_bytes(),
                )
            })
            .collect();
        let zipf = Zipfian::new(objects, skew).expect("a valid Zipf");
        let objects = (0..objects)
            .map(|rank| {
                let object = ObjectId::new(rank);
                let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
                let manifest = ObjectManifest::new(
                    object,
                    1_000_000,
                    1,
                    CodingParams::paper_default(),
                    locations,
                );
                (manifest, reads * zipf.probability(rank))
            })
            .collect();
        PaperEpoch { objects, latencies }
    }

    /// The RAM phase's options.
    fn options(&self) -> HashMap<ObjectId, ObjectOptions> {
        self.objects
            .iter()
            .map(|(manifest, popularity)| {
                let options = generate_options(
                    manifest,
                    &self.latencies,
                    Duration::from_millis(40),
                    *popularity,
                );
                (manifest.object(), options)
            })
            .collect()
    }

    /// The disk phase's options, conditioned on `ram` as the cache
    /// manager conditions them.
    fn disk_options(&self, ram: &Config) -> HashMap<ObjectId, ObjectOptions> {
        self.objects
            .iter()
            .filter_map(|(manifest, popularity)| {
                let object = manifest.object();
                let in_ram = ram.options().iter().find(|o| o.object() == object);
                generate_disk_options(
                    manifest,
                    &self.latencies,
                    Duration::from_millis(40),
                    Duration::from_millis(45),
                    in_ram.map_or(&[][..], |o| o.chunks()),
                    *popularity,
                )
                .map(|options| (object, options))
            })
            .collect()
    }
}

/// A configuration's picks as (object, weight), in object order.
fn picks(config: &Config) -> Vec<(ObjectId, u32)> {
    let mut picks: Vec<_> = config
        .options()
        .iter()
        .map(|o| (o.object(), o.weight()))
        .collect();
    picks.sort_unstable();
    picks
}

/// What `object`'s option in `config` is worth, 0 without one.
fn worth(config: &Config, object: ObjectId) -> f64 {
    config
        .options()
        .iter()
        .find(|o| o.object() == object)
        .map_or(0.0, |o| o.value())
}

/// One object of a small two-tier instance: its manifest, popularity,
/// and `values[r][d]`, what a read is worth with the `r` most distant
/// used chunks in RAM and the next `d` on disk (0 for (0, 0)), priced by
/// the one option rule: the RAM option of weight `r` plus the disk
/// option of weight `d` conditioned on it.
struct TieredObject {
    manifest: ObjectManifest,
    popularity: f64,
    values: Vec<Vec<f64>>,
}

/// A small two-tier instance: RS(9, 3) objects placed round-robin on
/// six regions at the given latencies, a 40 ms RAM tier and a disk tier
/// read at `disk_read`.
struct TieredInstance {
    objects: Vec<TieredObject>,
    latencies: Vec<Duration>,
    cache_read: Duration,
    disk_read: Duration,
}

impl TieredInstance {
    fn new(latencies_ms: &[u64; 6], disk_read_ms: u64, popularities: &[f64]) -> Self {
        let latencies: Vec<Duration> = latencies_ms
            .iter()
            .copied()
            .map(Duration::from_millis)
            .collect();
        let (cache_read, disk_read) = (
            Duration::from_millis(40),
            Duration::from_millis(disk_read_ms),
        );
        let objects = popularities
            .iter()
            .enumerate()
            .map(|(i, &popularity)| {
                let object = ObjectId::new(i as u64);
                let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
                let params = CodingParams::paper_default();
                let manifest = ObjectManifest::new(object, 1_000_000, 1, params, locations);
                let ram = generate_options(&manifest, &latencies, cache_read, popularity);
                let k = params.data_chunks() as u32;
                let values = (0..=k)
                    .map(|r| {
                        let (in_ram, base) = ram
                            .by_weight(r)
                            .map_or((&[][..], 0.0), |o| (o.chunks(), o.value()));
                        let disk = generate_disk_options(
                            &manifest, &latencies, cache_read, disk_read, in_ram, popularity,
                        );
                        (0..=k - r)
                            .map(|d| {
                                base + disk
                                    .as_ref()
                                    .and_then(|o| o.by_weight(d))
                                    .map_or(0.0, |o| o.value())
                            })
                            .collect()
                    })
                    .collect();
                TieredObject {
                    manifest,
                    popularity,
                    values,
                }
            })
            .collect();
        TieredInstance {
            objects,
            latencies,
            cache_read,
            disk_read,
        }
    }

    fn tiered_options(&self) -> HashMap<ObjectId, TieredOptions> {
        self.objects
            .iter()
            .map(|o| {
                let options = generate_tiered_options(
                    &o.manifest,
                    &self.latencies,
                    self.cache_read,
                    self.disk_read,
                    o.popularity,
                );
                (o.manifest.object(), options)
            })
            .collect()
    }

    /// The chunks a failure-free read of `object` uses: its heaviest
    /// RAM option's.
    fn used_chunks(&self, object: &TieredObject) -> Vec<u8> {
        let options = generate_options(&object.manifest, &self.latencies, self.cache_read, 1.0);
        options
            .iter()
            .last()
            .map_or(Vec::new(), |o| o.chunks().to_vec())
    }

    fn ram_options(&self) -> HashMap<ObjectId, ObjectOptions> {
        self.objects
            .iter()
            .map(|o| {
                let options =
                    generate_options(&o.manifest, &self.latencies, self.cache_read, o.popularity);
                (o.manifest.object(), options)
            })
            .collect()
    }

    fn disk_options(&self, ram: &Config) -> HashMap<ObjectId, ObjectOptions> {
        self.objects
            .iter()
            .filter_map(|o| {
                let object = o.manifest.object();
                let in_ram = ram
                    .options()
                    .iter()
                    .find(|option| option.object() == object);
                generate_disk_options(
                    &o.manifest,
                    &self.latencies,
                    self.cache_read,
                    self.disk_read,
                    in_ram.map_or(&[][..], |option| option.chunks()),
                    o.popularity,
                )
                .map(|options| (object, options))
            })
            .collect()
    }

    /// The optimum of the two-budget instance, by a dynamic program over
    /// every (RAM, disk) pair of chunk counts reached so far: one state
    /// per pair, every object tried at every (r, d) split.
    fn oracle(&self, ram_capacity: u32, disk_capacity: u32) -> f64 {
        let mut states: HashMap<(u32, u32), f64> = HashMap::from([((0, 0), 0.0)]);
        for object in &self.objects {
            let mut next = states.clone();
            for (&(ram, disk), &value) in &states {
                for (r, row) in object.values.iter().enumerate() {
                    for (d, &gain) in row.iter().enumerate() {
                        let at = (ram + r as u32, disk + d as u32);
                        if at.0 > ram_capacity || at.1 > disk_capacity {
                            continue;
                        }
                        let best = next.entry(at).or_insert(f64::NEG_INFINITY);
                        *best = best.max(value + gain);
                    }
                }
            }
            states = next;
        }
        states.into_values().fold(0.0, f64::max)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The exact solve against the paper's `populate` on paper-shaped
    /// epochs: the same configuration, or a strictly higher value (a
    /// case where `populate` missed the optimum), or a tie. A tie is two
    /// optimal configurations worth the same to 1e-12: most often they
    /// differ only in which object holds a chunk that adds nothing (a
    /// weight whose option is worth what the next lighter one is), and
    /// sometimes in a genuine coincidence (at Zipf 1.0 the first object
    /// is exactly 23 times as popular as the 23rd). `populate` settles a
    /// tie by the path its table took, which no rule over the final
    /// values reproduces; `optimum_breaks_ties_as_populate_does` pins the
    /// rule the exact solve follows. Every case that is not the same
    /// configuration is printed (`--nocapture` shows them). Epochs run to
    /// 120 objects and 120 chunks: `populate` materialises a
    /// configuration per accepted move, so it is quadratic in the budget.
    /// At 300 × 300 the exact solve is held to the branch-and-bound
    /// oracle in `knapsack`'s unit tests instead.
    #[test]
    fn exact_solve_answers_as_populate_on_paper_epochs(
        client in 0u16..6,
        objects in 1u64..=120,
        skew_tenths in 5u32..=15,
        reads in 100u32..=3000,
        capacity in 1u32..=120,
    ) {
        let epoch = PaperEpoch::new(client, objects, f64::from(skew_tenths) / 10.0, f64::from(reads));
        let options = epoch.options();
        let exact = optimum(&options, capacity);
        let paper = KnapsackSolver::new().populate(&options, capacity);
        let case = format!(
            "client {client}, {objects} objects, skew {skew_tenths}/10, {reads} reads, capacity {capacity}"
        );
        prop_assert!(exact.weight() <= capacity, "{case}");
        let tolerance = 1e-12 * exact.value();
        prop_assert!(paper.value() <= exact.value() + tolerance,
            "{case}: populate {} beat the optimum {}", paper.value(), exact.value());
        if picks(&exact) != picks(&paper) {
            let class = if exact.value() > paper.value() + tolerance {
                "strict"
            } else if options.keys().all(|&o| worth(&exact, o) == worth(&paper, o)) {
                "tie, a zero-gain chunk moved"
            } else {
                "tie"
            };
            eprintln!(
                "{class}: {case}: optimum {} {:?}, populate {} {:?}",
                exact.value(), picks(&exact), paper.value(), picks(&paper)
            );
        }
    }

    /// The two-budget solve against the two-dimensional oracle on small
    /// instances. The answer fits both budgets, keeps each object's RAM
    /// and disk chunks disjoint and among its used chunks, and is worth
    /// no less than the sequential solve (`populate_tiered`: RAM first,
    /// then disk on what it left) and no more than the oracle's optimum.
    /// Where the disk budget does not bind (the oracle with room for
    /// every chunk is worth no more) it is worth the optimum: the first
    /// relaxation fits. Where it binds the solve is a heuristic; a case
    /// short of the optimum is printed (`--nocapture`; 11 of 3 000 cases
    /// at the default seed, at most 7 % short). The sequential solve
    /// falls short of the oracle at the default seed, case 4 (disk read
    /// 74 ms, budgets 16 / 8: 418 062.78 against 419 106.65).
    #[test]
    fn the_tiered_solve_reaches_the_two_dimensional_optimum(
        latencies in latency_strategy(),
        disk_read_ms in 20u64..400,
        pops in vec(0.1f64..100.0, 1..=5),
        ram_capacity in 0u32..=20,
        disk_capacity in 0u32..=30,
    ) {
        let instance = TieredInstance::new(&latencies, disk_read_ms, &pops);
        let (ram, disk) = optimum_tiered(&instance.tiered_options(), ram_capacity, disk_capacity);
        prop_assert!(ram.weight() <= ram_capacity && disk.weight() <= disk_capacity);
        for object in &instance.objects {
            let id = object.manifest.object();
            let chunks = |config: &Config| -> Vec<u8> {
                let options = config.options().iter().filter(|o| o.object() == id);
                options.flat_map(|o| o.chunks().to_vec()).collect()
            };
            let (in_ram, on_disk) = (chunks(&ram), chunks(&disk));
            let used = instance.used_chunks(object);
            prop_assert!(in_ram.iter().all(|c| !on_disk.contains(c)), "{in_ram:?} / {on_disk:?}");
            prop_assert!(in_ram.iter().chain(&on_disk).all(|c| used.contains(c)),
                "{in_ram:?} / {on_disk:?} of {used:?}");
        }
        let case = format!("disk read {disk_read_ms} ms, budgets {ram_capacity} / {disk_capacity}");
        let (value, best) = (ram.value() + disk.value(), instance.oracle(ram_capacity, disk_capacity));
        let (seq_ram, seq_disk) = KnapsackSolver::new().populate_tiered(
            &instance.ram_options(), ram_capacity, disk_capacity, |ram| instance.disk_options(ram),
        );
        let sequential = seq_ram.value() + seq_disk.value();
        prop_assert!(value >= sequential * (1.0 - 1e-12), "{case}: {value} below the sequential {sequential}");
        prop_assert!(value <= best * (1.0 + 1e-9), "{case}: {value} beat the optimum {best}");
        if value < best * (1.0 - 1e-9) {
            let unbound = instance.oracle(ram_capacity, 9 * pops.len() as u32);
            prop_assert!(unbound > best * (1.0 + 1e-12), "{case}: {value} against the optimum {best}");
            eprintln!("binding disk: {case}: {value} against the optimum {best}");
        }
    }

    /// Each phase of the two-budget solve reaches the optimum of its own
    /// instance, whatever the solver's passes and early termination:
    /// the RAM phase on the RAM options, the disk phase on the options
    /// conditioned on the RAM answer. The paper's `populate` never beats
    /// either; it is quadratic in the budget, so on the disk phase it
    /// runs at budgets up to 120 chunks, as in `dp_bounded_by_optimum`.
    #[test]
    fn each_tiered_phase_reaches_the_optimum(
        client in 0u16..6,
        objects in 1u64..=120,
        skew_tenths in 5u32..=15,
        ram_capacity in 0u32..=120,
        disk_capacity in 0u32..=400,
        bounded in any::<bool>(),
    ) {
        let epoch = PaperEpoch::new(client, objects, f64::from(skew_tenths) / 10.0, 1_000.0);
        let options = epoch.options();
        let solver = if bounded {
            KnapsackSolver::new().with_early_termination(2).with_passes(1)
        } else {
            KnapsackSolver::new()
        };
        let (ram, disk) = solver.populate_tiered(&options, ram_capacity, disk_capacity, |ram| {
            epoch.disk_options(ram)
        });
        let ram_optimum = optimum(&options, ram_capacity);
        prop_assert_eq!(picks(&ram), picks(&ram_optimum));
        prop_assert_eq!(ram.value().to_bits(), ram_optimum.value().to_bits());
        prop_assert!(solver.populate(&options, ram_capacity).value() <= ram.value() * (1.0 + 1e-12));
        let disk_options = epoch.disk_options(&ram);
        let disk_optimum = if disk_capacity == 0 {
            Config::empty()
        } else {
            optimum(&disk_options, disk_capacity)
        };
        prop_assert_eq!(picks(&disk), picks(&disk_optimum));
        prop_assert_eq!(disk.value().to_bits(), disk_optimum.value().to_bits());
        if disk_capacity <= 120 {
            prop_assert!(solver.populate(&disk_options, disk_capacity).value() <= disk.value() * (1.0 + 1e-12));
        }
    }

    /// The dynamic program never exceeds the true optimum, never busts
    /// capacity, and never holds two options for one object.
    #[test]
    fn dp_bounded_by_optimum(
        latencies in latency_strategy(),
        pops in vec(0.1f64..100.0, 1..=40),
        capacity in 0u32..=120,
    ) {
        let instance = build_instance(&latencies, &pops);
        let dp = KnapsackSolver::new().populate(&instance, capacity);
        let optimum = optimum(&instance, capacity);

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
        let optimum = optimum(&instance, capacity);
        prop_assert!(dp.value() >= 0.95 * optimum.value() - 1e-6,
            "dp {} vs optimum {}", dp.value(), optimum.value());
    }

    /// When every object's best option (its lightest of greatest value)
    /// fits at once, the dynamic program finds the optimum's value.
    #[test]
    fn dp_takes_every_best_option_when_all_fit(
        latencies in latency_strategy(),
        pops in vec(0.1f64..100.0, 1..=40),
        slack in 0u32..10,
    ) {
        let instance = build_instance(&latencies, &pops);
        let fits: u32 = instance
            .values()
            .map(|options| {
                let best = options.best_value();
                options.iter().find(|o| o.value() == best).map_or(0, |o| o.weight())
            })
            .sum();
        let capacity = fits + slack;
        let dp = KnapsackSolver::new().populate(&instance, capacity);
        let optimum = optimum(&instance, capacity);
        let best: f64 = instance.values().map(|o| o.best_value()).sum();
        prop_assert!((optimum.value() - best).abs() <= 1e-9 * best);
        prop_assert!((dp.value() - optimum.value()).abs() <= 1e-9 * best,
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

/// How the restatement below ranks one chunk's sources at equal price:
/// a disk hit first (no round trip to lose), then the backend, then a
/// neighbour's offer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Disk,
    Backend,
    Remote,
}

/// One chunk's cheapest source in the restatement: price, tie rank,
/// and the offer (position in the offer list) when it is a neighbour's.
type Cheapest = (Duration, Kind, Option<usize>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `plan_hedged` against an exhaustive restatement of its rules.
    /// Every unheld chunk is priced by its cheapest source (a disk hit
    /// at `disk_read`, the cheapest current-version offer, the backend
    /// at its region's estimate unless the region is down or excluded;
    /// ties: disk, backend, offer). Of every set of `k − RAM hits`
    /// priced chunks, the plan takes one of least total price, and
    /// among those the one whose (price, index) list sorts first; it
    /// lists RAM hits, then those primaries cheapest first, then the
    /// hedges: backend spares in (price, index) order, within `z` of
    /// the primaries' worst deviation above their worst estimate, at
    /// most `Δ · backend primaries / k` of them. Few distinct prices
    /// force ties everywhere.
    #[test]
    fn hedged_plans_are_the_exhaustive_cheapest_cover(
        data in 2usize..7,
        parity in 1usize..5,
        steps in [1u64..5, 1u64..5, 1u64..5, 1u64..5, 1u64..5, 1u64..5],
        deviation_steps in [0u64..3, 0u64..3, 0u64..3, 0u64..3, 0u64..3, 0u64..3],
        disk_step in 1u64..5,
        ram_masks in [any::<u16>(), any::<u16>(), any::<u16>()],
        disk_masks in [any::<u16>(), any::<u16>()],
        offers in vec((0u8..12, 1u64..5, 0u64..2), 0..8),
        (failed, excluded_region) in (0u16..9, 0usize..9),
        (max_hedges, z) in (0usize..4, prop_oneof![Just(0.0), Just(0.5), Just(2.0)]),
    ) {
        let ms = |step: u64| Duration::from_millis(step * 10);
        let preset = aws_six_regions();
        let params = CodingParams::new(data, parity).unwrap();
        let total = params.total_chunks();
        let backend = Backend::new(
            preset.topology,
            Arc::new(preset.latency),
            params,
            Box::new(RoundRobin),
        )
        .unwrap();
        populate(&backend, 1, 900, &mut StdRng::seed_from_u64(1)).unwrap();
        // At most one region down and one held open by the breaker
        // (6..9: none), so most plans have a cover to find.
        if failed < 6 {
            backend.fail_region(RegionId::new(failed));
        }
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let version = manifest.version();
        let estimates: Vec<Duration> = steps.iter().map(|&s| ms(s)).collect();
        let deviations: Vec<Duration> = deviation_steps.iter().map(|&s| ms(s)).collect();
        let excluded: Vec<bool> = (0..6).map(|r| r == excluded_region).collect();
        let disk_read = ms(disk_step);
        let payload = |tag: u8, index: usize| Bytes::from(vec![tag, index as u8]);
        // About one chunk in eight in RAM, one in four of the rest on
        // disk (the tiers are exclusive).
        let ram_mask = ram_masks[0] & ram_masks[1] & ram_masks[2];
        let disk_mask = disk_masks[0] & disk_masks[1] & !ram_mask;
        let ram: Vec<usize> = (0..total).filter(|i| ram_mask & (1 << i) != 0).collect();
        let disk: Vec<usize> = (0..total).filter(|i| disk_mask & (1 << i) != 0).collect();
        let hits = LocalHits {
            ram: ram.iter().map(|&i| (i as u8, payload(0xA0, i))).collect(),
            disk: disk.iter().map(|&i| (i as u8, payload(0xD0, i))).collect(),
        };
        let remote: Vec<RemoteChunk> = offers
            .iter()
            .enumerate()
            .map(|(n, &(index, step, ahead))| RemoteChunk {
                index,
                data: payload(0xE0 + n as u8, usize::from(index)),
                latency: ms(step),
                version: version + ahead,
            })
            .collect();

        // The restatement: each unheld chunk's cheapest source.
        let cheapest = |index: usize| -> Option<Cheapest> {
            let mut options: Vec<Cheapest> = Vec::new();
            if disk.contains(&index) {
                options.push((disk_read, Kind::Disk, None));
            }
            let region = manifest.location(index);
            if backend.is_region_available(region) && !excluded[region.index()] {
                options.push((estimates[region.index()], Kind::Backend, None));
            }
            // Among equally cheap offers, the first listed.
            let offer = remote
                .iter()
                .enumerate()
                .filter(|(_, o)| usize::from(o.index) == index && o.version == version)
                .min_by_key(|&(n, o)| (o.latency, n));
            if let Some((n, offer)) = offer {
                options.push((offer.latency, Kind::Remote, Some(n)));
            }
            options.into_iter().min_by_key(|&(price, kind, _)| (price, kind))
        };
        let priced: Vec<(usize, Cheapest)> = (0..total)
            .filter(|i| !ram.contains(i))
            .filter_map(|i| Some((i, cheapest(i)?)))
            .collect();
        let needed = data.saturating_sub(ram.len());

        let config = CacheConfiguration::empty();
        let hedging = HedgePolicy {
            max_hedges,
            z,
            deviations: &deviations,
            excluded: &excluded,
        };
        let planner = ReadPlanner::new(&manifest, &config);
        let plan = planner.plan_hedged(&hits, &remote, &backend, &estimates, disk_read, hedging);
        if priced.len() < needed {
            let is_short = matches!(
                plan,
                Err(AgarError::Store(StoreError::NotEnoughChunks { reachable, needed: k, .. }))
                    if reachable == ram.len() + priced.len() && k == data
            );
            prop_assert!(is_short, "{} priced, {} needed: {:?}", priced.len(), needed, plan);
            return;
        }
        let plan = plan.unwrap();

        // Every `needed`-subset of the priced chunks, by (total price,
        // sorted (price, index) list): the first is the cover.
        let key = |set: &[(usize, Cheapest)]| {
            let mut list: Vec<(Duration, usize)> = set.iter().map(|(i, c)| (c.0, *i)).collect();
            list.sort_unstable();
            (list.iter().map(|p| p.0).sum::<Duration>(), list)
        };
        let mut best: Option<(Duration, Vec<(Duration, usize)>)> = None;
        for mask in 0u32..1 << priced.len() {
            if mask.count_ones() as usize != needed {
                continue;
            }
            let subset: Vec<(usize, Cheapest)> = (0..priced.len())
                .filter(|bit| mask & (1 << bit) != 0)
                .map(|bit| priced[bit])
                .collect();
            let candidate = key(&subset);
            if best.as_ref().is_none_or(|b| candidate < *b) {
                best = Some(candidate);
            }
        }
        let primaries: Vec<usize> = best.unwrap().1.into_iter().map(|(_, i)| i).collect();

        // Hedges from the rest, in (price, index) order.
        let of = |index: usize| priced.iter().find(|(i, _)| *i == index).unwrap().1;
        let backend_primaries: Vec<usize> =
            primaries.iter().copied().filter(|&i| of(i).1 == Kind::Backend).collect();
        let cap = backend_primaries.len() * max_hedges / data;
        let region_of = |i: usize| manifest.location(i).index();
        let sigma = backend_primaries.iter().map(|&i| deviations[region_of(i)]).max();
        let worst = backend_primaries.iter().map(|&i| of(i).0).max();
        let mut rest: Vec<(Duration, usize)> = priced
            .iter()
            .filter(|(i, _)| !primaries.contains(i))
            .map(|(i, c)| (c.0, *i))
            .collect();
        rest.sort_unstable();
        let mut hedges = Vec::new();
        if let (Some(sigma), Some(worst)) = (sigma, worst) {
            if cap > 0 && z > 0.0 && sigma > Duration::ZERO {
                let threshold = worst + sigma.mul_f64(z);
                for (price, index) in rest {
                    if hedges.len() == cap || price > threshold {
                        break;
                    }
                    if of(index).1 == Kind::Backend {
                        hedges.push(index);
                    }
                }
            }
        }

        let expected: Vec<usize> = ram.iter().chain(&primaries).chain(&hedges).copied().collect();
        let planned: Vec<usize> = plan.sources.iter().map(|(i, _)| usize::from(*i)).collect();
        prop_assert_eq!(planned, expected);
        prop_assert_eq!((plan.cache_hits, plan.hedges), (ram.len(), hedges.len()));
        for (index, source) in &plan.sources {
            let index = usize::from(*index);
            let region = manifest.location(index);
            match source {
                ChunkSource::Local { data } => prop_assert_eq!(data, &payload(0xA0, index)),
                ChunkSource::LocalDisk { data } => {
                    prop_assert_eq!(of(index).1, Kind::Disk);
                    prop_assert_eq!(data, &payload(0xD0, index));
                }
                ChunkSource::Remote { data, latency } => {
                    let (price, kind, offer) = of(index);
                    prop_assert_eq!((kind, *latency), (Kind::Remote, price));
                    prop_assert_eq!(data, &remote[offer.unwrap()].data);
                }
                ChunkSource::Backend { region: planned, estimate } => {
                    prop_assert_eq!(of(index).1, Kind::Backend);
                    prop_assert_eq!((*planned, *estimate), (region, estimates[region.index()]));
                }
            }
        }
    }
}
