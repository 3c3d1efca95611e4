//! `CacheConfiguration::transition` against a ten-line model.
//!
//! A reconfiguration's decision is a pure function of the new
//! configuration and one snapshot of what is cached, so it can be
//! checked without a node, a cache or a lock. One seed makes one case:
//! two consecutive two-budget solves over shifting popularities (the
//! second carries what the first named and it does not), and a cached
//! set that is mostly the first configuration's chunks — some lost, some
//! in the wrong tier — plus strays no configuration names. The model is
//! a `BTreeMap<ChunkId, CacheTier>`:
//!
//! - every cached chunk gets exactly one verdict — purge, down, up, or
//!   none because it already is where the configuration wants it — and
//!   the three lists are sorted and name nothing that is not cached;
//! - a purged chunk is one the configuration does not name;
//! - a move crosses tiers, from where the chunk is to where the
//!   configuration wants it;
//! - the ensure list is the solved objects, sorted; a carried entry is
//!   never in it;
//! - applying the transition to the model (purge, move, then make every
//!   chunk of an ensured entry present) yields exactly the
//!   configuration restricted to cached ∪ solved.

use agar::{generate_tiered_options, optimum_tiered, CacheConfiguration, TieredOptions};
use agar_cache::CacheTier;
use agar_ec::{ChunkId, CodingParams, ObjectId};
use agar_net::RegionId;
use agar_store::ObjectManifest;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

const CASES: u64 = 1_500;
const OBJECTS: u64 = 10;
const CACHE_READ: Duration = Duration::from_millis(40);
const DISK_READ: Duration = Duration::from_millis(150);

fn latencies() -> Vec<Duration> {
    [80u64, 200, 600, 1400, 3400, 4600]
        .into_iter()
        .map(Duration::from_millis)
        .collect()
}

fn manifest(object: ObjectId) -> ObjectManifest {
    let locations = (0..12).map(|chunk| RegionId::new(chunk % 6)).collect();
    ObjectManifest::new(
        object,
        1_000_000,
        1,
        CodingParams::paper_default(),
        locations,
    )
}

/// One two-budget solve over a random subset of the catalogue with
/// random popularities and budgets, with the solve `cache_manager::solve`
/// runs.
fn solve(rng: &mut StdRng, epoch: u64) -> (CacheConfiguration, u32) {
    let latencies = latencies();
    let tracked: Vec<(ObjectManifest, f64)> = (0..OBJECTS)
        .filter_map(|id| {
            let popularity = rng.random_range(0..300u32).checked_sub(100)?;
            Some((manifest(ObjectId::new(id)), f64::from(popularity + 1)))
        })
        .collect();
    let options: HashMap<ObjectId, TieredOptions> = tracked
        .iter()
        .map(|(manifest, popularity)| {
            let options =
                generate_tiered_options(manifest, &latencies, CACHE_READ, DISK_READ, *popularity);
            (manifest.object(), options)
        })
        .collect();
    let ram_budget = rng.random_range(0..30u32);
    let disk_budget = [0, rng.random_range(1..60u32)][rng.random_range(0..2usize)];
    let (ram, disk) = optimum_tiered(&options, ram_budget, disk_budget);
    let config = CacheConfiguration::from_tiered(
        &ram,
        &disk,
        CodingParams::paper_default().data_chunks(),
        epoch,
    );
    let room = disk_budget - config.disk_chunks();
    (config, room)
}

fn other(tier: CacheTier) -> CacheTier {
    match tier {
        CacheTier::Ram => CacheTier::Disk,
        CacheTier::Disk => CacheTier::Ram,
    }
}

/// What a cache might hold when `config` replaces `previous`: most of
/// `previous`, a few chunks lost or left in the other tier, and strays.
fn cached_set(rng: &mut StdRng, previous: &CacheConfiguration) -> BTreeMap<ChunkId, CacheTier> {
    let mut cached = BTreeMap::new();
    for object in previous.objects() {
        for &index in previous.chunks_for(object) {
            let id = ChunkId::new(object, index);
            let tier = previous.tier_for(id).unwrap();
            // One in ten is lost, one in ten sits in the other tier.
            match rng.random_range(0..10u32) {
                0 => None,
                1 => cached.insert(id, other(tier)),
                _ => cached.insert(id, tier),
            };
        }
    }
    for _ in 0..rng.random_range(0..6u32) {
        let object = ObjectId::new(rng.random_range(0..OBJECTS + 3));
        let id = ChunkId::new(object, rng.random_range(0..12u8));
        let tier = [CacheTier::Ram, CacheTier::Disk][rng.random_range(0..2usize)];
        cached.entry(id).or_insert(tier);
    }
    cached
}

fn strictly_sorted<T: Ord>(items: &[T]) -> bool {
    items.windows(2).all(|pair| pair[0] < pair[1])
}

#[test]
fn transition_matches_the_model_on_generated_configurations() {
    let (mut moves, mut purges, mut carried_entries) = (0usize, 0usize, 0usize);
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut previous, room) = solve(&mut rng, 1);
        // Every other case starts from a configuration that already
        // carries entries of its own.
        if seed % 2 == 1 {
            let (older, _) = solve(&mut rng, 0);
            previous.carry(&older, room, |_| true);
        }
        let cached = cached_set(&mut rng, &previous);
        let (mut config, room) = solve(&mut rng, 2);
        config.carry(&previous, room, |id| cached.contains_key(&id));

        // The snapshot's order is the cache's business, not the plan's.
        let mut snapshot: Vec<(ChunkId, CacheTier)> =
            cached.iter().map(|(&k, &v)| (k, v)).collect();
        if seed % 3 == 0 {
            snapshot.reverse();
        }
        let plan = config.transition(&snapshot);

        assert!(strictly_sorted(&plan.purge), "seed {seed}");
        assert!(strictly_sorted(&plan.down), "seed {seed}");
        assert!(strictly_sorted(&plan.up), "seed {seed}");
        assert!(strictly_sorted(&plan.ensure), "seed {seed}");
        let listed = plan.purge.len() + plan.down.len() + plan.up.len();
        let mut verdicts = 0;
        for (&id, &tier) in &cached {
            let (purged, down, up) = (
                plan.purge.binary_search(&id).is_ok(),
                plan.down.binary_search(&id).is_ok(),
                plan.up.binary_search(&id).is_ok(),
            );
            let want = match config.tier_for(id) {
                None => (true, false, false),
                Some(planned) if planned == tier => (false, false, false),
                Some(CacheTier::Disk) => (false, true, false),
                Some(CacheTier::Ram) => (false, false, true),
            };
            assert_eq!(
                (purged, down, up),
                want,
                "seed {seed}: {id:?} cached in {tier:?}"
            );
            verdicts += usize::from(purged) + usize::from(down) + usize::from(up);
        }
        assert_eq!(
            verdicts, listed,
            "seed {seed}: a list names a chunk that is not cached"
        );
        for id in &plan.purge {
            assert!(
                !config.contains(*id),
                "seed {seed}: purged {id:?} is configured"
            );
        }
        for object in config.objects() {
            let ensured = plan.ensure.binary_search(&object).is_ok();
            assert_eq!(
                ensured,
                !config.is_carried(object),
                "seed {seed}: {object:?}"
            );
        }
        assert!(plan
            .ensure
            .iter()
            .all(|object| !config.chunks_for(*object).is_empty()));

        // Apply it to the model.
        let mut model = cached.clone();
        for id in &plan.purge {
            model.remove(id);
        }
        for id in &plan.down {
            assert_eq!(model.insert(*id, CacheTier::Disk), Some(CacheTier::Ram));
        }
        for id in &plan.up {
            assert_eq!(model.insert(*id, CacheTier::Ram), Some(CacheTier::Disk));
        }
        for &object in &plan.ensure {
            for &index in config.chunks_for(object) {
                let id = ChunkId::new(object, index);
                model
                    .entry(id)
                    .or_insert_with(|| config.tier_for(id).unwrap());
            }
        }
        let mut expected = BTreeMap::new();
        for object in config.objects() {
            for &index in config.chunks_for(object) {
                let id = ChunkId::new(object, index);
                if cached.contains_key(&id) || !config.is_carried(object) {
                    expected.insert(id, config.tier_for(id).unwrap());
                }
            }
        }
        assert_eq!(model, expected, "seed {seed}");

        moves += plan.down.len() + plan.up.len();
        purges += plan.purge.len();
        carried_entries += config.objects().filter(|o| config.is_carried(*o)).count();
    }
    // The generator reaches every verdict, or the test checks nothing.
    assert!(
        moves > CASES as usize && purges > CASES as usize,
        "{moves} moves, {purges} purges"
    );
    assert!(
        carried_entries > CASES as usize / 4,
        "{carried_entries} carried entries"
    );
}
