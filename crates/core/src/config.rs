//! The static cache configuration Agar's cache manager produces
//! (paper §III-c): which objects to cache and which chunks of each.
//!
//! A configured chunk is in one of three classes:
//!
//! - **RAM** — the knapsack's first-budget answer, the paper's cache.
//!   Solved, so a missing chunk is downloaded a priori.
//! - **disk** — the second-budget answer over what RAM left on the
//!   remote path. Solved as well.
//! - **carried** — chunks of an object the previous configuration named
//!   and this solve did not (the monitor forgot it, or it lost the
//!   knapsack), kept on the disk tier in the room the solve left there.
//!   Never downloaded: an entry names only chunks that were cached when
//!   it was carried and leaves the configuration once none is.
//!
//! Nothing is ever carried into RAM: the RAM configuration is the
//! paper's answer bit for bit (on the paper workload the solve leaves
//! one spare RAM chunk, and filling it would change every figure this
//! repository reproduces), while a warm tier with room exists to hold
//! the tail the monitor's bounded memory forgets.
//!
//! A solved entry of exactly `k` chunks — a whole object — names the
//! `k` **data** chunks: the options pick the paper's k most distant
//! used chunks, parity included, and [`CacheConfiguration::from_tiered`]
//! swaps each parity chunk, in its place and tier, for a data chunk the
//! entry leaves out. Reads are priced by how many chunks each tier
//! serves, not by which, so the swap costs a whole object nothing and
//! lets its reads skip the decode. Partial and carried entries are
//! kept as they are.

use crate::knapsack::Config;
use agar_cache::CacheTier;
use agar_ec::{ChunkId, ObjectId};
use std::cmp::Reverse;
use std::collections::HashMap;

/// One object's configured chunks: the RAM-tier ones first, the
/// disk-tier ones from `split` on.
#[derive(Clone, Debug)]
struct Entry {
    chunks: Vec<u8>,
    split: usize,
    /// For a carried entry, the epoch of the last solve that named the
    /// object; `None` for a solved one.
    carried: Option<u64>,
}

impl Entry {
    /// A solved entry: the `ram` chunks, then the `disk` ones. A whole
    /// entry (`k` chunks) names the data chunks `0..k`: its parity
    /// chunks, in entry order, take the data chunks it leaves out in
    /// ascending order, so every chunk keeps its place and tier.
    /// Partial entries are kept as solved.
    fn solved(ram: &[u8], disk: &[u8], k: usize) -> Entry {
        let mut chunks = [ram, disk].concat();
        if chunks.len() == k {
            // As many left-out data chunks as parity chunks: the entry
            // holds k distinct chunks.
            let left_out = (0..k as u8).filter(|data| !ram.contains(data) && !disk.contains(data));
            let parity = chunks.iter_mut().filter(|chunk| usize::from(**chunk) >= k);
            for (chunk, data) in parity.zip(left_out) {
                *chunk = data;
            }
        }
        Entry {
            split: ram.len(),
            chunks,
            carried: None,
        }
    }
}

/// The per-object chunk sets the cache should hold until the next
/// reconfiguration, and the tier of each chunk.
///
/// [`Self::chunks_for`] and [`Self::contains`] answer "should this chunk
/// be cached at all?", which is what fill hints want regardless of
/// tier; [`Self::tier_for`] routes a chunk to its planned tier, and
/// [`Self::transition`] turns a snapshot of what is cached into the
/// steps that make the cache match.
#[derive(Clone, Debug, Default)]
pub struct CacheConfiguration {
    per_object: HashMap<ObjectId, Entry>,
    total_chunks: u32,
    disk_chunks: u32,
    carried_chunks: u32,
    planned_value: f64,
    epoch: u64,
}

/// What it takes to make a cache holding one snapshot of chunks match a
/// configuration ([`CacheConfiguration::transition`]): a decision, not
/// yet any data movement. Every chunk of the snapshot is purged, moved
/// or — being where the configuration wants it — left out.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Transition {
    /// Cached chunks the configuration does not name, sorted.
    pub purge: Vec<ChunkId>,
    /// Chunks cached in RAM that the configuration places on disk,
    /// sorted.
    pub down: Vec<ChunkId>,
    /// Chunks cached on disk that the configuration places in RAM,
    /// sorted.
    pub up: Vec<ChunkId>,
    /// The objects a solve placed, sorted: every chunk of their entries
    /// ([`CacheConfiguration::chunks_for`], in entry order) is to be
    /// present when the transition is done, downloaded if it is not.
    /// Whether one is present is for the executor to test when it gets
    /// there — the moves before it can push chunks out of a full disk
    /// log — so the snapshot has no say in this list. Carried objects
    /// are never in it.
    pub ensure: Vec<ObjectId>,
}

impl CacheConfiguration {
    /// The empty configuration (cache nothing).
    pub fn empty() -> Self {
        CacheConfiguration::default()
    }

    /// Converts a two-budget solve into a cache configuration, tagged
    /// with the epoch that produced it: an object's entry is its RAM
    /// allocation followed by its disk allocation (disjoint by
    /// construction — an object's disk options only hold chunks its RAM
    /// allocation left). An empty disk allocation leaves every chunk
    /// RAM-tier.
    ///
    /// An entry of exactly `k` chunks, a whole object, names the data
    /// chunks `0..k`, each parity chunk swapped in its place and tier
    /// (see the module docs).
    pub fn from_tiered(ram: &Config, disk: &Config, k: usize, epoch: u64) -> Self {
        let disk_of: HashMap<ObjectId, &[u8]> = disk
            .options()
            .iter()
            .map(|option| (option.object(), option.chunks()))
            .collect();
        let mut per_object: HashMap<ObjectId, Entry> =
            HashMap::with_capacity(ram.options().len() + disk_of.len());
        for option in ram.options() {
            let object = option.object();
            let on_disk = disk_of.get(&object).copied().unwrap_or_default();
            per_object.insert(object, Entry::solved(option.chunks(), on_disk, k));
        }
        for option in disk.options() {
            let object = option.object();
            per_object
                .entry(object)
                .or_insert_with(|| Entry::solved(&[], option.chunks(), k));
        }
        CacheConfiguration {
            per_object,
            total_chunks: ram.weight() + disk.weight(),
            disk_chunks: disk.weight(),
            carried_chunks: 0,
            planned_value: ram.value() + disk.value(),
            epoch,
        }
    }

    /// Fills `room` disk-tier chunks with **carried** entries: every
    /// object `previous` named and this configuration does not keeps
    /// the chunks of its entry that are still `cached`, all of them on
    /// the disk tier, most recently solved first (ties by `ObjectId`)
    /// until the room is used up — the entry at the edge is cut to what
    /// is left. An object with no cached chunk is not carried, so the
    /// configuration holds at most `room` carried objects however many
    /// distinct objects pass through.
    pub fn carry(
        &mut self,
        previous: &CacheConfiguration,
        mut room: u32,
        cached: impl Fn(ChunkId) -> bool,
    ) {
        if room == 0 {
            return; // no disk tier, or the solve filled it
        }
        let mut candidates: Vec<(Reverse<u64>, ObjectId)> = previous
            .per_object
            .iter()
            .filter(|(object, _)| !self.per_object.contains_key(object))
            .map(|(&object, entry)| (Reverse(entry.carried.unwrap_or(previous.epoch)), object))
            .collect();
        candidates.sort_unstable();
        for (Reverse(solved), object) in candidates {
            if room == 0 {
                break;
            }
            let chunks: Vec<u8> = previous
                .chunks_for(object)
                .iter()
                .copied()
                .filter(|&index| cached(ChunkId::new(object, index)))
                .take(room as usize)
                .collect();
            if chunks.is_empty() {
                continue;
            }
            let count = chunks.len() as u32;
            room -= count;
            self.total_chunks += count;
            self.disk_chunks += count;
            self.carried_chunks += count;
            let entry = Entry {
                chunks,
                split: 0,
                carried: Some(solved),
            };
            self.per_object.insert(object, entry);
        }
    }

    /// The steps that take a cache holding exactly `cached` — one
    /// snapshot of chunk and tier — to this configuration (see
    /// [`Transition`]). Pure: it reads no cache and takes no lock, so
    /// the decision can be tested, dumped and re-ordered apart from the
    /// I/O that carries it out.
    pub fn transition(&self, cached: &[(ChunkId, CacheTier)]) -> Transition {
        let mut ensure: Vec<ObjectId> = self
            .per_object
            .iter()
            .filter(|(_, entry)| entry.carried.is_none())
            .map(|(&object, _)| object)
            .collect();
        ensure.sort_unstable();
        let mut plan = Transition {
            ensure,
            ..Transition::default()
        };
        for &(id, tier) in cached {
            match self.tier_for(id) {
                None => plan.purge.push(id),
                Some(planned) if planned == tier => {}
                Some(CacheTier::Disk) => plan.down.push(id),
                Some(CacheTier::Ram) => plan.up.push(id),
            }
        }
        plan.purge.sort_unstable();
        plan.down.sort_unstable();
        plan.up.sort_unstable();
        plan
    }

    /// The chunks to cache for `object` (empty when the object is not in
    /// the configuration), RAM-tier ones first.
    pub fn chunks_for(&self, object: ObjectId) -> &[u8] {
        self.per_object
            .get(&object)
            .map_or(&[], |entry| &entry.chunks)
    }

    /// Whether a specific chunk belongs to the configuration.
    pub fn contains(&self, chunk: ChunkId) -> bool {
        self.chunks_for(chunk.object())
            .contains(&chunk.index().value())
    }

    /// Objects in the configuration.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.per_object.keys().copied()
    }

    /// Number of configured objects.
    pub fn object_count(&self) -> usize {
        self.per_object.len()
    }

    /// Total chunks across all objects and both tiers.
    pub fn total_chunks(&self) -> u32 {
        self.total_chunks
    }

    /// Chunks planned for the RAM tier.
    pub fn ram_chunks(&self) -> u32 {
        self.total_chunks - self.disk_chunks
    }

    /// Chunks planned for the disk tier, solved and carried.
    pub fn disk_chunks(&self) -> u32 {
        self.disk_chunks
    }

    /// The part of [`Self::disk_chunks`] no solve placed: chunks of
    /// carried entries (see [`Self::carry`]).
    pub fn carried_chunks(&self) -> u32 {
        self.carried_chunks
    }

    /// Whether `object`'s entry is carried rather than solved.
    pub fn is_carried(&self, object: ObjectId) -> bool {
        self.per_object
            .get(&object)
            .is_some_and(|entry| entry.carried.is_some())
    }

    /// The disk-tier chunks planned for `object` (empty when the object
    /// has no disk allocation).
    pub fn disk_chunks_for(&self, object: ObjectId) -> &[u8] {
        self.per_object
            .get(&object)
            .map_or(&[], |entry| &entry.chunks[entry.split..])
    }

    /// Which tier the configuration plans `chunk` for, or `None` when
    /// the chunk is not in the configuration at all.
    pub fn tier_for(&self, chunk: ChunkId) -> Option<CacheTier> {
        let entry = self.per_object.get(&chunk.object())?;
        let index = chunk.index().value();
        let at = entry.chunks.iter().position(|&c| c == index)?;
        Some(if at < entry.split {
            CacheTier::Ram
        } else {
            CacheTier::Disk
        })
    }

    /// The solver's predicted value (popularity-weighted improvement).
    pub fn planned_value(&self) -> f64 {
        self.planned_value
    }

    /// The epoch that produced this configuration.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knapsack::{optimum_tiered, KnapsackSolver};
    use crate::options::{generate_options, generate_tiered_options, TieredOptions};
    use agar_ec::CodingParams;
    use agar_net::RegionId;
    use agar_store::ObjectManifest;
    use std::time::Duration;

    fn solved_config() -> CacheConfiguration {
        let latencies: Vec<Duration> = [80u64, 200, 600, 1400, 3400, 4600]
            .into_iter()
            .map(Duration::from_millis)
            .collect();
        let params = CodingParams::paper_default();
        let options: HashMap<ObjectId, _> = [(0u64, 100.0), (1, 10.0)]
            .into_iter()
            .map(|(i, pop)| {
                let object = ObjectId::new(i);
                let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
                let manifest = ObjectManifest::new(object, 1_000_000, 1, params, locations);
                (
                    object,
                    generate_options(&manifest, &latencies, Duration::from_millis(40), pop),
                )
            })
            .collect();
        let solved = KnapsackSolver::new().populate(&options, 12);
        CacheConfiguration::from_tiered(&solved, &Config::empty(), 9, 3)
    }

    #[test]
    fn ram_only_solve_preserves_totals_and_places_every_chunk_in_ram() {
        let config = solved_config();
        assert!(config.total_chunks() <= 12);
        assert!(config.planned_value() > 0.0);
        assert_eq!(config.epoch(), 3);
        let sum: usize = config.objects().map(|o| config.chunks_for(o).len()).sum();
        assert_eq!(sum as u32, config.total_chunks());
        assert_eq!(config.disk_chunks(), 0);
        for object in config.objects() {
            assert!(config.disk_chunks_for(object).is_empty());
            for &index in config.chunks_for(object) {
                let chunk = ChunkId::new(object, index);
                assert_eq!(config.tier_for(chunk), Some(CacheTier::Ram));
            }
        }
    }

    #[test]
    fn contains_matches_chunks_for() {
        let config = solved_config();
        for object in config.objects() {
            for &index in config.chunks_for(object) {
                assert!(config.contains(ChunkId::new(object, index)));
            }
            assert!(!config.contains(ChunkId::new(object, 200)));
        }
        assert!(!config.contains(ChunkId::new(ObjectId::new(99), 0)));
        assert!(config.chunks_for(ObjectId::new(99)).is_empty());
    }

    #[test]
    fn empty_configuration() {
        let config = CacheConfiguration::empty();
        assert_eq!(config.object_count(), 0);
        assert_eq!(config.total_chunks(), 0);
        assert!(!config.contains(ChunkId::new(ObjectId::new(0), 0)));
        assert!(config.tier_for(ChunkId::new(ObjectId::new(0), 0)).is_none());
    }

    /// The joint options of objects `0..` with the given popularities,
    /// their chunks round-robin over six regions, under a disk read at
    /// `disk_ms`.
    fn tiered_options(popularities: &[f64], disk_ms: u64) -> HashMap<ObjectId, TieredOptions> {
        let latencies: Vec<Duration> = [80u64, 200, 600, 1400, 3400, 4600]
            .into_iter()
            .map(Duration::from_millis)
            .collect();
        let params = CodingParams::paper_default();
        (0u64..)
            .zip(popularities)
            .map(|(i, &pop)| {
                let object = ObjectId::new(i);
                let locations = (0..12).map(|c| RegionId::new(c % 6)).collect();
                let manifest = ObjectManifest::new(object, 1_000_000, 1, params, locations);
                let options = generate_tiered_options(
                    &manifest,
                    &latencies,
                    Duration::from_millis(40),
                    Duration::from_millis(disk_ms),
                    pop,
                );
                (object, options)
            })
            .collect()
    }

    fn tiered_config() -> CacheConfiguration {
        let (ram, disk) = optimum_tiered(&tiered_options(&[100.0, 10.0], 150), 9, 9);
        CacheConfiguration::from_tiered(&ram, &disk, 9, 5)
    }

    #[test]
    fn from_tiered_merges_both_tiers_into_the_union() {
        let config = tiered_config();
        assert_eq!(config.epoch(), 5);
        assert!(config.ram_chunks() > 0);
        assert!(config.disk_chunks() > 0, "disk tier must be used");
        assert_eq!(
            config.ram_chunks() + config.disk_chunks(),
            config.total_chunks()
        );
        let union: usize = config.objects().map(|o| config.chunks_for(o).len()).sum();
        assert_eq!(union as u32, config.total_chunks(), "union holds all");
    }

    /// A solved configuration written out by hand: per object its RAM
    /// chunks and its disk chunks.
    fn solved(epoch: u64, entries: &[(u64, &[u8], &[u8])]) -> CacheConfiguration {
        let mut config = CacheConfiguration {
            epoch,
            ..CacheConfiguration::empty()
        };
        for &(id, ram, disk) in entries {
            let object = ObjectId::new(id);
            let entry = Entry {
                chunks: [ram, disk].concat(),
                split: ram.len(),
                carried: None,
            };
            config.per_object.insert(object, entry);
            config.total_chunks += (ram.len() + disk.len()) as u32;
            config.disk_chunks += disk.len() as u32;
        }
        config
    }

    fn carried_objects(config: &CacheConfiguration) -> Vec<u64> {
        let mut ids: Vec<u64> = config
            .objects()
            .filter(|o| config.is_carried(*o))
            .map(|o| o.index())
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn carried_entries_are_disk_tier_and_leave_the_solve_untouched() {
        let previous = solved(4, &[(1, &[0, 1], &[2, 3]), (2, &[], &[5]), (3, &[7], &[])]);
        let mut config = solved(5, &[(1, &[0], &[1])]);
        config.planned_value = 9.5;
        config.carry(&previous, 10, |_| true);
        // Object 1 is solved: its entry is the solve's, not the old one.
        assert_eq!(config.chunks_for(ObjectId::new(1)), [0, 1]);
        assert!(!config.is_carried(ObjectId::new(1)));
        assert_eq!(carried_objects(&config), [2, 3]);
        assert_eq!(config.carried_chunks(), 2);
        assert_eq!((config.ram_chunks(), config.disk_chunks()), (1, 3));
        assert_eq!(config.total_chunks(), 4);
        assert_eq!(config.planned_value(), 9.5);
        // A carried RAM chunk is now a disk-tier chunk.
        let moved = ChunkId::new(ObjectId::new(3), 7);
        assert_eq!(previous.tier_for(moved), Some(CacheTier::Ram));
        assert_eq!(config.tier_for(moved), Some(CacheTier::Disk));
        assert_eq!(config.disk_chunks_for(ObjectId::new(3)), [7]);
    }

    #[test]
    fn carry_order_is_most_recently_solved_then_object_id() {
        // Epoch 7 solved {5, 6}; epoch 8 solved {9} and carried both.
        let mut older = solved(8, &[(9, &[0], &[1, 2])]);
        older.carry(
            &solved(7, &[(5, &[], &[0, 1]), (6, &[], &[0, 1])]),
            4,
            |_| true,
        );
        assert_eq!(carried_objects(&older), [5, 6]);
        // Epoch 9 solves nothing: 9 (solved at 8) goes before 5 and 6
        // (solved at 7), 5 before 6, and the edge entry is cut.
        for room in 0..=7u32 {
            let mut config = solved(9, &[]);
            config.carry(&older, room, |_| true);
            let sizes: Vec<usize> = [9u64, 5, 6]
                .iter()
                .map(|&id| config.chunks_for(ObjectId::new(id)).len())
                .collect();
            let want = [
                room.min(3),
                room.saturating_sub(3).min(2),
                room.saturating_sub(5),
            ];
            assert_eq!(sizes, want.map(|n| n as usize), "room {room}");
            assert_eq!(config.carried_chunks(), room);
            assert_eq!(
                config.object_count(),
                want.iter().filter(|&&n| n > 0).count()
            );
        }
        // The cut keeps the front of the entry (most distant first).
        let mut config = solved(9, &[]);
        config.carry(&older, 2, |_| true);
        assert_eq!(config.chunks_for(ObjectId::new(9)), [0, 1]);
    }

    #[test]
    fn a_carried_entry_names_only_cached_chunks_and_leaves_when_none_is() {
        let previous = solved(4, &[(1, &[0, 1], &[2, 3]), (2, &[], &[5, 6])]);
        let mut config = solved(5, &[]);
        config.carry(&previous, 10, |id| {
            id.object() == ObjectId::new(1) && id.index().value() % 2 == 1
        });
        assert_eq!(config.chunks_for(ObjectId::new(1)), [1, 3]);
        assert_eq!(carried_objects(&config), [1]);
        assert_eq!(config.object_count(), 1);
        assert!(!config.contains(ChunkId::new(ObjectId::new(2), 5)));
        // Lost chunks do not use up the room.
        let mut config = solved(5, &[]);
        config.carry(&previous, 2, |id| id.index().value() >= 3);
        assert_eq!(config.chunks_for(ObjectId::new(1)), [3]);
        assert_eq!(config.chunks_for(ObjectId::new(2)), [5]);
    }

    /// Whole entries — all in RAM, all on disk, split — name the data
    /// chunks `0..k`, each in the place and so the tier of the solve's
    /// chunk it stands for; partial entries are the solve's.
    #[test]
    fn a_whole_entry_names_the_data_chunks_in_the_solves_places() {
        let k = CodingParams::paper_default().data_chunks();
        // A disk read faster than the nearest region: every budget pair
        // is filled.
        let options = tiered_options(&[100.0], 50);
        let object = ObjectId::new(0);
        let mut parity_swapped = 0;
        for (ram_budget, disk_budget) in [(9, 0), (0, 9), (4, 5), (8, 1), (3, 0), (0, 3), (1, 2)] {
            let case = format!("RAM {ram_budget}, disk {disk_budget}");
            let (ram, disk) = optimum_tiered(&options, ram_budget, disk_budget);
            let config = CacheConfiguration::from_tiered(&ram, &disk, k, 1);
            let solve: Vec<(u8, CacheTier)> = ram
                .options()
                .iter()
                .flat_map(|option| option.chunks().iter().map(|&c| (c, CacheTier::Ram)))
                .chain(
                    disk.options()
                        .iter()
                        .flat_map(|option| option.chunks().iter().map(|&c| (c, CacheTier::Disk))),
                )
                .collect();
            let whole = ram_budget + disk_budget == 9;
            assert_eq!(solve.len(), (ram_budget + disk_budget) as usize, "{case}");
            let chunks = config.chunks_for(object);
            assert_eq!(chunks.len(), solve.len(), "{case}");
            assert_eq!(config.ram_chunks(), ram_budget, "{case}");
            for (&chunk, &(picked, tier)) in chunks.iter().zip(&solve) {
                let id = ChunkId::new(object, chunk);
                assert_eq!(config.tier_for(id), Some(tier), "{case}: {chunk}");
                if !whole || usize::from(picked) < k {
                    assert_eq!(chunk, picked, "{case}");
                } else {
                    assert!(usize::from(chunk) < k, "{case}: {chunk}");
                    assert!(solve.iter().all(|&(c, _)| c != chunk), "{case}: {chunk}");
                    parity_swapped += 1;
                }
            }
            if whole {
                let mut sorted = chunks.to_vec();
                sorted.sort_unstable();
                assert_eq!(sorted, (0..k as u8).collect::<Vec<_>>(), "{case}");
            }
        }
        assert!(
            parity_swapped >= 4,
            "every whole solve holds a parity chunk"
        );
    }

    #[test]
    fn a_carried_entry_keeps_its_chunks_whatever_they_are() {
        // A hand-written whole entry with parity chunk 9 and one with
        // parity chunks 9 and 10: carried as they stand.
        let previous = solved(
            4,
            &[
                (7, &[1, 2, 3, 4], &[0, 6, 7, 8, 9]),
                (8, &[10], &[9, 0, 1, 2, 3, 4, 5, 6]),
            ],
        );
        let mut config = CacheConfiguration::from_tiered(&Config::empty(), &Config::empty(), 9, 5);
        config.carry(&previous, 18, |_| true);
        assert_eq!(carried_objects(&config), [7, 8]);
        assert_eq!(
            config.chunks_for(ObjectId::new(7)),
            [1, 2, 3, 4, 0, 6, 7, 8, 9]
        );
        assert_eq!(
            config.chunks_for(ObjectId::new(8)),
            [10, 9, 0, 1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn tier_for_routes_each_configured_chunk() {
        let config = tiered_config();
        let mut ram_seen = 0u32;
        let mut disk_seen = 0u32;
        for object in config.objects() {
            for &index in config.chunks_for(object) {
                let chunk = ChunkId::new(object, index);
                assert!(config.contains(chunk));
                match config.tier_for(chunk) {
                    Some(CacheTier::Ram) => ram_seen += 1,
                    Some(CacheTier::Disk) => {
                        disk_seen += 1;
                        assert!(config.disk_chunks_for(object).contains(&index));
                    }
                    None => panic!("configured chunk {chunk:?} has no tier"),
                }
            }
        }
        assert_eq!(ram_seen, config.ram_chunks());
        assert_eq!(disk_seen, config.disk_chunks());
    }
}
