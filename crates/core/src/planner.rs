//! The read planner: one ranking over every candidate chunk source.
//!
//! The [`ReadPlanner`] is the lookup and plan stages of the node's
//! read path (lookup → plan → fetch → bind → decode → fill; the rest
//! lives in `read.rs`). Plain reads (local cache + backend) and
//! collaborative reads (local cache + neighbour caches + backend) are
//! one plan: every way of obtaining a chunk is a [`ChunkSource`], every
//! source gets a price (zero for local hits, the transfer latency for a
//! neighbour's cache, the live per-region estimate for a backend
//! fetch), and the plan is simply the `k` cheapest sources covering `k`
//! distinct chunks.
//!
//! Planning touches no locks and performs no I/O; the node fetches the
//! returned [`ReadPlan`]'s sources entirely outside its internal locks, so
//! backend fetches from concurrent clients overlap (read latency is the
//! *maximum* over the parallel fetches, as in the paper's §V-A model).

use crate::config::CacheConfiguration;
use crate::error::AgarError;
use crate::inline::{Inline, INLINE_CHUNKS};
use agar_cache::{CacheTier, TieredChunkCache};
use agar_ec::ChunkSet;
use agar_net::RegionId;
use agar_store::{Backend, ObjectManifest, StoreError};
use bytes::Bytes;
use std::borrow::Borrow;
use std::time::Duration;

/// A chunk offered by a collaborating neighbour's cache.
#[derive(Clone, Debug)]
pub struct RemoteChunk {
    /// The offered chunk's index.
    pub index: u8,
    /// The neighbour's cached payload.
    pub data: Bytes,
    /// Simulated transfer latency from the neighbour.
    pub latency: Duration,
    /// The object version the payload was encoded from. Offers whose
    /// version does not match the read's manifest snapshot are dropped
    /// at planning time — mixing versions would decode garbage.
    pub version: u64,
}

/// The version-checked local cache hits feeding one read plan, split by
/// tier: RAM hits are free and always bound into the plan; disk hits
/// carry the configured disk-read latency and *compete* with remote and
/// backend sources for their chunk.
#[derive(Clone, Debug, Default)]
pub struct LocalHits {
    /// RAM-tier hits (`(index, payload)`), cost one parallel cache read.
    pub ram: Vec<(u8, Bytes)>,
    /// Disk-tier hits, cost one parallel disk read each.
    pub disk: Vec<(u8, Bytes)>,
}

impl LocalHits {
    /// Total hits across both tiers.
    pub fn len(&self) -> usize {
        self.ram.len() + self.disk.len()
    }

    /// Whether no tier produced a hit.
    pub fn is_empty(&self) -> bool {
        self.ram.is_empty() && self.disk.is_empty()
    }
}

/// One way of obtaining a chunk, with everything needed to execute it.
#[derive(Clone, Debug)]
pub enum ChunkSource {
    /// Already in the local cache (version-checked); costs one cache
    /// read, which runs in parallel with every other source.
    Local {
        /// The cached payload.
        data: Bytes,
    },
    /// Already in the local disk tier (version-checked); costs one disk
    /// read, which runs in parallel with every other source. Chosen
    /// only when the disk read is priced no worse than the chunk's
    /// remote and backend alternatives.
    LocalDisk {
        /// The disk-resident payload.
        data: Bytes,
    },
    /// Served out of a collaborating neighbour's cache.
    Remote {
        /// The neighbour's payload.
        data: Bytes,
        /// Simulated transfer latency from the neighbour.
        latency: Duration,
    },
    /// Fetch from the backend region holding the chunk.
    Backend {
        /// The region to fetch from.
        region: RegionId,
        /// The planner's latency estimate for that region (the realised
        /// fetch latency is sampled at execution time).
        estimate: Duration,
    },
}

/// The executable outcome of planning one object read: at least `k`
/// `(chunk index, source)` pairs covering distinct chunks — exactly `k`
/// primaries, plus up to Δ trailing backend hedges when a
/// [`HedgePolicy`] prices the extra requests as worthwhile.
#[derive(Clone, Debug, Default)]
pub struct ReadPlan {
    /// The chosen source per chunk, local hits first, then the
    /// remaining primary sources cheapest-first, then any hedges.
    pub sources: Vec<(u8, ChunkSource)>,
    /// How many of the sources are local cache hits.
    pub cache_hits: usize,
    /// How many trailing entries of `sources` are speculative hedges
    /// (always backend fetches of spare chunks beyond the k the decode
    /// needs). Zero when hedging is disabled or unpriced.
    pub hedges: usize,
}

/// Prices speculative over-provisioning of backend fetches (Dean &
/// Barroso's hedged requests): issue k+Δ, bind the first k arrivals,
/// discard the stragglers.
///
/// A spare chunk qualifies as a hedge only while its latency estimate
/// stays within `z` mean-deviations of the slowest planned backend
/// primary — hedging is worth paying for exactly when the primaries'
/// regions are high-variance, and free of spurious duplicates when the
/// network is steady (zero deviation admits no hedges).
#[derive(Clone, Copy, Debug)]
pub struct HedgePolicy<'a> {
    /// Maximum number of extra backend fetches (Δ) per read, applied at
    /// full backend fan-out; reads partially served by caches get a cap
    /// pro-rated by their backend share (`Δ · backend primaries / k`),
    /// keeping total round trips within `(1 + Δ/k)×` the unhedged cost.
    pub max_hedges: usize,
    /// Dispersion multiplier on the admission threshold.
    pub z: f64,
    /// Per-region mean-deviation estimates (σ), indexed by region id;
    /// typically `RegionManager::deviations`.
    pub deviations: &'a [Duration],
    /// Per-region exclusion mask from the circuit breaker
    /// ([`CircuitBreaker::exclusion_mask`](crate::breaker::CircuitBreaker::exclusion_mask)):
    /// `excluded[region] == true` drops the region's chunks from the
    /// backend candidate set, so an open region is priced into neither
    /// primaries nor hedges. An empty slice (the default and the
    /// disabled-breaker value) excludes nothing.
    pub excluded: &'a [bool],
}

impl HedgePolicy<'static> {
    /// A policy that never hedges; `plan` with this policy is
    /// byte-identical to unhedged planning.
    fn disabled() -> Self {
        HedgePolicy {
            max_hedges: 0,
            z: 0.0,
            deviations: &[],
            excluded: &[],
        }
    }
}

/// Plans object reads against a config snapshot: ranks local cache
/// hits, neighbour offers and backend fetches behind [`ChunkSource`]
/// and picks the cheapest cover.
///
/// The planner borrows immutable *snapshots* (manifest, configuration,
/// latency estimates) so a node can plan while holding no locks at all.
pub struct ReadPlanner<'a> {
    manifest: &'a ObjectManifest,
    config: &'a CacheConfiguration,
}

impl<'a> ReadPlanner<'a> {
    /// Creates a planner for one object read.
    pub fn new(manifest: &'a ObjectManifest, config: &'a CacheConfiguration) -> Self {
        ReadPlanner { manifest, config }
    }

    /// The chunk indices the configuration hints for this object.
    pub fn hinted(&self) -> &[u8] {
        self.config.chunks_for(self.manifest.object())
    }

    /// The lookup stage of a read: looks the hinted chunks up in the local
    /// tiered cache at the manifest's version and returns the hits split
    /// by serving tier.
    ///
    /// The lookup is one [`TieredChunkCache::lookup_object`]: one visit
    /// to the RAM shard that holds every chunk of the object, and one
    /// to the disk tier for what RAM did not serve, which reads each
    /// run of the object's back-to-back frames with one positioned read
    /// and leaves every chunk where the configuration put it. The cache
    /// applies the version rule inside those visits: a chunk *older*
    /// than the manifest is stale and is dropped there and then; a
    /// chunk *newer* than the manifest is no hit either, but it is the
    /// manifest snapshot that is behind (a write completed after this
    /// attempt took it, and left its chunks here): the chunk stays, and
    /// the attempt will lose the version race at its first fetch. Each
    /// hit list is allocated once, at its first hit, for every hinted
    /// chunk.
    ///
    /// `record_stats` controls whether the lookups count toward the
    /// cache's chunk-level hit/miss statistics and recency metadata;
    /// a version-race *retry* of the same logical read passes `false`
    /// so one read never double-counts.
    pub fn lookup_local(&self, cache: &TieredChunkCache, record_stats: bool) -> LocalHits {
        let hinted = self.hinted();
        let mut have = LocalHits::default();
        cache.lookup_object(
            self.manifest.object(),
            hinted.iter().copied(),
            self.manifest.version(),
            record_stats,
            |index, chunk, tier| {
                let hits = match tier {
                    CacheTier::Ram => &mut have.ram,
                    CacheTier::Disk => &mut have.disk,
                };
                if hits.capacity() == 0 {
                    hits.reserve_exact(hinted.len());
                }
                hits.push((index, chunk.data().clone()));
            },
        );
        have
    }

    /// The plan stage of a read: ranks every candidate source for every
    /// chunk the local cache does not hold and returns the cheapest
    /// executable plan.
    ///
    /// `hits` are the local cache hits from
    /// [`ReadPlanner::lookup_local`]; `remote` lists chunks offered by
    /// collaborating neighbours; `estimates` are the caller's live
    /// per-region latency estimates; `disk_read` prices the local disk
    /// tier's hits. RAM hits are always bound. For every other chunk
    /// the cheapest source wins: a disk hit beats remote and backend at
    /// equal price (it is local), while between remote and backend the
    /// backend wins ties (keeping plain reads byte-identical to the
    /// pre-collaboration behaviour).
    ///
    /// # Errors
    ///
    /// [`StoreError::NotEnoughChunks`] (wrapped in [`AgarError`]) when
    /// fewer than `k` distinct chunks are obtainable from all sources
    /// combined.
    pub fn plan(
        &self,
        hits: impl Borrow<LocalHits>,
        remote: &[RemoteChunk],
        backend: &Backend,
        estimates: &[Duration],
        disk_read: Duration,
    ) -> Result<ReadPlan, AgarError> {
        self.plan_hedged(
            hits,
            remote,
            backend,
            estimates,
            disk_read,
            HedgePolicy::disabled(),
        )
    }

    /// [`ReadPlanner::plan`] with speculative over-provisioning: after
    /// picking the k cheapest primaries, appends up to
    /// `hedging.max_hedges` spare backend chunks whose estimates fall
    /// within the policy's dispersion threshold. The spares are
    /// *distinct* chunk indices — with an any-k decode, racing k+Δ
    /// distinct chunks and binding the first k arrivals needs no
    /// request cancellation protocol at all.
    ///
    /// # Errors
    ///
    /// Same as [`ReadPlanner::plan`]; hedge availability never affects
    /// plan feasibility.
    pub fn plan_hedged(
        &self,
        hits: impl Borrow<LocalHits>,
        remote: &[RemoteChunk],
        backend: &Backend,
        estimates: &[Duration],
        disk_read: Duration,
        hedging: HedgePolicy<'_>,
    ) -> Result<ReadPlan, AgarError> {
        let hits = hits.borrow();
        let object = self.manifest.object();
        let k = self.manifest.params().data_chunks();
        let total = self.manifest.params().total_chunks();
        let cache_hits = hits.ram.len();
        let held: ChunkSet = hits.ram.iter().map(|&(index, _)| index).collect();
        let mut sources: Vec<(u8, ChunkSource)> = hits
            .ram
            .iter()
            .map(|(index, data)| (*index, ChunkSource::Local { data: data.clone() }))
            .collect();
        let needed = k.saturating_sub(cache_hits);
        if needed == 0 {
            return Ok(ReadPlan {
                sources,
                cache_hits,
                hedges: 0,
            });
        }

        // Disk-tier hits by chunk index: candidates priced at the disk
        // read latency, not automatic wins (a nearby backend region can
        // legitimately beat a slow disk).
        let mut disk_at: Inline<Option<&Bytes>, INLINE_CHUNKS> = Inline::defaults(total);
        for (index, data) in &hits.disk {
            if let Some(slot) = disk_at.get_mut(*index as usize) {
                *slot = Some(data);
            }
        }

        // Cheapest remote offer per chunk index, O(1) lookup. Offers
        // outside the object's chunk domain or encoded from a different
        // version than this read's manifest snapshot are ignored, not
        // an error (the neighbour raced a write; decoding its payload
        // alongside current-version chunks would produce garbage).
        let version = self.manifest.version();
        let mut remote_at: Inline<Option<(&Bytes, Duration)>, INLINE_CHUNKS> =
            Inline::defaults(total);
        for offer in remote {
            if offer.version != version {
                continue;
            }
            let Some(slot) = remote_at.get_mut(offer.index as usize) else {
                continue;
            };
            if slot.is_none_or(|(_, best)| offer.latency < best) {
                *slot = Some((&offer.data, offer.latency));
            }
        }
        // A chunk's backend source, priced from this attempt's manifest
        // snapshot: its region's live estimate, or none while the region
        // is down or held open by the circuit breaker (the single gate
        // both primaries and hedges price through).
        let backend_at = |index: u8| -> Option<(RegionId, Duration)> {
            let region = self.manifest.location(index as usize);
            let open = hedging.excluded.get(region.index()).copied();
            if open.unwrap_or(false) || !backend.is_region_available(region) {
                return None;
            }
            let estimate = estimates.get(region.index()).copied();
            Some((region, estimate.unwrap_or(Duration::MAX)))
        };

        // Rank every unheld chunk by its cheapest source.
        let mut candidates: Vec<(Duration, u8, ChunkSource)> = Vec::with_capacity(total);
        for index in 0..total as u8 {
            if held.contains(index) {
                continue;
            }
            let networked = match (remote_at[index as usize], backend_at(index)) {
                (Some((data, latency)), Some((_, estimate))) if latency < estimate => Some((
                    ChunkSource::Remote {
                        data: data.clone(),
                        latency,
                    },
                    latency,
                )),
                (Some((data, latency)), None) => Some((
                    ChunkSource::Remote {
                        data: data.clone(),
                        latency,
                    },
                    latency,
                )),
                (_, Some((region, estimate))) => {
                    Some((ChunkSource::Backend { region, estimate }, estimate))
                }
                (None, None) => None,
            };
            // A disk hit wins ties against any networked source: equal
            // modelled latency, but no round trip to lose.
            let (source, price) = match (disk_at[index as usize], networked) {
                (Some(data), Some((_, best))) if disk_read <= best => {
                    (ChunkSource::LocalDisk { data: data.clone() }, disk_read)
                }
                (Some(data), None) => (ChunkSource::LocalDisk { data: data.clone() }, disk_read),
                (_, Some((source, price))) => (source, price),
                (None, None) => continue,
            };
            candidates.push((price, index, source));
        }
        if candidates.len() < needed {
            return Err(StoreError::NotEnoughChunks {
                object,
                reachable: cache_hits + candidates.len(),
                needed: k,
            }
            .into());
        }
        candidates.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut ranked = candidates.into_iter();
        // The worst planned backend primary sets the hedge admission
        // threshold; σ is the largest dispersion among the primaries'
        // regions (hedge when *they* look risky, not when the spare is
        // cheap).
        let mut worst_backend: Option<Duration> = None;
        let mut sigma = Duration::ZERO;
        let mut backend_primaries = 0usize;
        for (price, index, source) in ranked.by_ref().take(needed) {
            if let ChunkSource::Backend { region, .. } = &source {
                backend_primaries += 1;
                worst_backend = Some(worst_backend.map_or(price, |w| w.max(price)));
                if let Some(&dev) = hedging.deviations.get(region.index()) {
                    sigma = sigma.max(dev);
                }
            }
            sources.push((index, source));
        }
        // Pro-rate Δ by the read's backend share: a read the cache
        // mostly serves carries little straggler risk, and full-Δ
        // hedging there would blow the (1 + Δ/k)× round-trip budget.
        let max_hedges = backend_primaries * hedging.max_hedges / k;
        let mut hedges = 0;
        if max_hedges > 0 && hedging.z > 0.0 && sigma > Duration::ZERO {
            if let Some(worst) = worst_backend {
                let threshold = worst + sigma.mul_f64(hedging.z);
                for (price, index, source) in ranked {
                    if hedges == max_hedges || price > threshold {
                        break;
                    }
                    if !matches!(source, ChunkSource::Backend { .. }) {
                        continue;
                    }
                    sources.push((index, source));
                    hedges += 1;
                }
            }
        }
        Ok(ReadPlan {
            sources,
            cache_hits,
            hedges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_ec::{CodingParams, ObjectId};
    use agar_net::latency::LatencyModel;
    use agar_net::presets::{aws_six_regions, FRANKFURT, SYDNEY, TOKYO};
    use agar_store::{populate, RoundRobin};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Disk-read price used across the planner tests (slower than the
    /// local region, faster than anything overseas).
    const DISK_READ: Duration = Duration::from_millis(150);

    fn setup() -> (Arc<Backend>, Vec<Duration>) {
        let preset = aws_six_regions();
        let backend = Backend::new(
            preset.topology,
            Arc::new(preset.latency.clone()),
            CodingParams::paper_default(),
            Box::new(RoundRobin),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        populate(&backend, 2, 900, &mut rng).unwrap();
        let estimates: Vec<Duration> = backend
            .topology()
            .ids()
            .map(|r| preset.latency.mean(FRANKFURT, r, 100))
            .collect();
        (Arc::new(backend), estimates)
    }

    #[test]
    fn cold_plan_picks_the_k_nearest_backend_chunks() {
        let (backend, estimates) = setup();
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let config = CacheConfiguration::empty();
        let planner = ReadPlanner::new(&manifest, &config);
        let plan = planner
            .plan(LocalHits::default(), &[], &backend, &estimates, DISK_READ)
            .unwrap();
        assert_eq!(plan.sources.len(), 9);
        assert_eq!(plan.cache_hits, 0);
        // The furthest region (Sydney) is never planned when healthy.
        for (_, source) in &plan.sources {
            match source {
                ChunkSource::Backend { region, .. } => assert_ne!(*region, SYDNEY),
                other => panic!("cold read planned {other:?}"),
            }
        }
    }

    #[test]
    fn local_hits_shrink_the_fetch_set() {
        let (backend, estimates) = setup();
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let config = CacheConfiguration::empty();
        let planner = ReadPlanner::new(&manifest, &config);
        let hits = vec![
            (4u8, Bytes::from(vec![0u8; 100])),
            (9u8, Bytes::from(vec![0u8; 100])),
        ];
        let hits = LocalHits {
            ram: hits,
            disk: Vec::new(),
        };
        let plan = planner
            .plan(hits, &[], &backend, &estimates, DISK_READ)
            .unwrap();
        assert_eq!(plan.sources.len(), 9);
        assert_eq!(plan.cache_hits, 2);
        let fetched: Vec<u8> = plan
            .sources
            .iter()
            .filter(|(_, s)| matches!(s, ChunkSource::Backend { .. }))
            .map(|&(i, _)| i)
            .collect();
        assert_eq!(fetched.len(), 7);
        assert!(!fetched.contains(&4) && !fetched.contains(&9));
    }

    #[test]
    fn cheaper_remote_offers_beat_backend_estimates() {
        let (backend, estimates) = setup();
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let config = CacheConfiguration::empty();
        let planner = ReadPlanner::new(&manifest, &config);
        // Chunk 4 lives in Tokyo (round-robin, index 4 % 6), the most
        // expensive region a healthy Frankfurt plan touches. Offer it
        // for nearly nothing.
        let offer = |index: u8, bytes: Vec<u8>, latency: Duration, version: u64| RemoteChunk {
            index,
            data: Bytes::from(bytes),
            latency,
            version,
        };
        let remote = vec![offer(4, vec![7u8; 100], Duration::from_millis(1), 1)];
        let plan = planner
            .plan(
                LocalHits::default(),
                &remote,
                &backend,
                &estimates,
                DISK_READ,
            )
            .unwrap();
        let chunk4 = plan.sources.iter().find(|&&(i, _)| i == 4).unwrap();
        assert!(matches!(chunk4.1, ChunkSource::Remote { .. }));
        // An expensive remote offer loses to the local region.
        let remote = vec![offer(0, vec![1u8; 100], Duration::from_secs(10), 1)];
        let plan = planner
            .plan(
                LocalHits::default(),
                &remote,
                &backend,
                &estimates,
                DISK_READ,
            )
            .unwrap();
        let chunk0 = plan.sources.iter().find(|&&(i, _)| i == 0).unwrap();
        assert!(matches!(chunk0.1, ChunkSource::Backend { .. }));
        // An offer from a stale version is ignored outright, even when
        // it is by far the cheapest source.
        let remote = vec![offer(4, vec![7u8; 100], Duration::from_millis(1), 99)];
        let plan = planner
            .plan(
                LocalHits::default(),
                &remote,
                &backend,
                &estimates,
                DISK_READ,
            )
            .unwrap();
        let chunk4 = plan.sources.iter().find(|&&(i, _)| i == 4).unwrap();
        assert!(matches!(chunk4.1, ChunkSource::Backend { .. }));
        let _ = TOKYO;
    }

    #[test]
    fn out_of_range_remote_offers_are_ignored() {
        let (backend, estimates) = setup();
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let config = CacheConfiguration::empty();
        let planner = ReadPlanner::new(&manifest, &config);
        // Index 200 is outside RS(9,3)'s 12-chunk domain: no panic, no
        // effect on the plan.
        let remote = vec![RemoteChunk {
            index: 200,
            data: Bytes::from(vec![0u8; 100]),
            latency: Duration::from_millis(1),
            version: 1,
        }];
        let plan = planner
            .plan(
                LocalHits::default(),
                &remote,
                &backend,
                &estimates,
                DISK_READ,
            )
            .unwrap();
        assert_eq!(plan.sources.len(), 9);
        assert!(plan
            .sources
            .iter()
            .all(|(_, s)| matches!(s, ChunkSource::Backend { .. })));
    }

    #[test]
    fn disk_hits_beat_distant_sources_but_lose_to_the_local_region() {
        let (backend, estimates) = setup();
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let config = CacheConfiguration::empty();
        let planner = ReadPlanner::new(&manifest, &config);
        // Chunk 4 lives in Tokyo (expensive); chunk 0 in Frankfurt
        // (cheaper than the 150 ms disk). Both sit in the disk tier.
        let hits = LocalHits {
            ram: Vec::new(),
            disk: vec![
                (4u8, Bytes::from(vec![4u8; 100])),
                (0u8, Bytes::from(vec![0u8; 100])),
            ],
        };
        let plan = planner
            .plan(hits, &[], &backend, &estimates, DISK_READ)
            .unwrap();
        assert_eq!(plan.sources.len(), 9);
        assert_eq!(plan.cache_hits, 0, "disk hits are not RAM cache hits");
        let source_of = |i: u8| &plan.sources.iter().find(|&&(x, _)| x == i).unwrap().1;
        assert!(
            matches!(source_of(4), ChunkSource::LocalDisk { .. }),
            "disk must beat Tokyo"
        );
        assert!(
            matches!(source_of(0), ChunkSource::Backend { .. }),
            "the local region must beat a slower disk"
        );
    }

    #[test]
    fn disk_hits_outrank_equally_priced_remote_offers() {
        let (backend, estimates) = setup();
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let config = CacheConfiguration::empty();
        let planner = ReadPlanner::new(&manifest, &config);
        let hits = LocalHits {
            ram: Vec::new(),
            disk: vec![(4u8, Bytes::from(vec![4u8; 100]))],
        };
        // A neighbour offers the same chunk at exactly the disk price:
        // the tie goes to the disk (no network round trip).
        let remote = vec![RemoteChunk {
            index: 4,
            data: Bytes::from(vec![9u8; 100]),
            latency: DISK_READ,
            version: 1,
        }];
        let plan = planner
            .plan(hits, &remote, &backend, &estimates, DISK_READ)
            .unwrap();
        let chunk4 = plan.sources.iter().find(|&&(i, _)| i == 4).unwrap();
        assert!(matches!(chunk4.1, ChunkSource::LocalDisk { .. }));
        // A strictly cheaper offer wins.
        let hits = LocalHits {
            ram: Vec::new(),
            disk: vec![(4u8, Bytes::from(vec![4u8; 100]))],
        };
        let remote = vec![RemoteChunk {
            index: 4,
            data: Bytes::from(vec![9u8; 100]),
            latency: DISK_READ - Duration::from_millis(1),
            version: 1,
        }];
        let plan = planner
            .plan(hits, &remote, &backend, &estimates, DISK_READ)
            .unwrap();
        let chunk4 = plan.sources.iter().find(|&&(i, _)| i == 4).unwrap();
        assert!(matches!(chunk4.1, ChunkSource::Remote { .. }));
    }

    #[test]
    fn ram_and_disk_hits_compose_into_one_plan() {
        let (backend, estimates) = setup();
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let config = CacheConfiguration::empty();
        let planner = ReadPlanner::new(&manifest, &config);
        let hits = LocalHits {
            ram: vec![(9u8, Bytes::from(vec![9u8; 100]))],
            disk: vec![(4u8, Bytes::from(vec![4u8; 100]))],
        };
        assert_eq!(hits.len(), 2);
        assert!(!hits.is_empty());
        let plan = planner
            .plan(hits, &[], &backend, &estimates, DISK_READ)
            .unwrap();
        assert_eq!(plan.sources.len(), 9);
        assert_eq!(plan.cache_hits, 1);
        let disk_sourced = plan
            .sources
            .iter()
            .filter(|(_, s)| matches!(s, ChunkSource::LocalDisk { .. }))
            .count();
        assert_eq!(disk_sourced, 1);
        let backend_sourced = plan
            .sources
            .iter()
            .filter(|(_, s)| matches!(s, ChunkSource::Backend { .. }))
            .count();
        assert_eq!(backend_sourced, 7);
    }

    #[test]
    fn hedged_plan_appends_distinct_spare_backend_chunks() {
        let (backend, estimates) = setup();
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let config = CacheConfiguration::empty();
        let planner = ReadPlanner::new(&manifest, &config);
        let deviations = vec![Duration::from_millis(400); 6];
        let policy = HedgePolicy {
            max_hedges: 2,
            z: 3.0,
            deviations: &deviations,
            excluded: &[],
        };
        let plan = planner
            .plan_hedged(
                LocalHits::default(),
                &[],
                &backend,
                &estimates,
                DISK_READ,
                policy,
            )
            .unwrap();
        assert_eq!(plan.hedges, 2);
        assert_eq!(plan.sources.len(), 11, "k=9 primaries + 2 hedges");
        // Hedges are spare, distinct chunk indices (any-k decode needs
        // no duplicates), trailing in the plan, and backend-sourced.
        let distinct: ChunkSet = plan.sources.iter().map(|&(i, _)| i).collect();
        assert_eq!(distinct.len(), 11);
        for (_, source) in plan.sources.iter().rev().take(2) {
            assert!(matches!(source, ChunkSource::Backend { .. }));
        }
    }

    #[test]
    fn steady_network_admits_no_hedges() {
        let (backend, estimates) = setup();
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let config = CacheConfiguration::empty();
        let planner = ReadPlanner::new(&manifest, &config);
        // Zero observed dispersion: duplicates would be pure waste.
        let deviations = vec![Duration::ZERO; 6];
        let policy = HedgePolicy {
            max_hedges: 3,
            z: 3.0,
            deviations: &deviations,
            excluded: &[],
        };
        let plan = planner
            .plan_hedged(
                LocalHits::default(),
                &[],
                &backend,
                &estimates,
                DISK_READ,
                policy,
            )
            .unwrap();
        assert_eq!(plan.hedges, 0);
        assert_eq!(plan.sources.len(), 9);
    }

    #[test]
    fn breaker_mask_excludes_a_region_from_primaries_and_hedges() {
        let (backend, estimates) = setup();
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let config = CacheConfiguration::empty();
        let planner = ReadPlanner::new(&manifest, &config);
        let deviations = vec![Duration::from_millis(400); 6];
        let mut excluded = vec![false; 6];
        excluded[FRANKFURT.index()] = true; // the cheapest region
        let policy = HedgePolicy {
            max_hedges: 3,
            z: 3.0,
            deviations: &deviations,
            excluded: &excluded,
        };
        let plan = planner
            .plan_hedged(
                LocalHits::default(),
                &[],
                &backend,
                &estimates,
                DISK_READ,
                policy,
            )
            .unwrap();
        for (_, source) in &plan.sources {
            match source {
                ChunkSource::Backend { region, .. } => assert_ne!(*region, FRANKFURT),
                other => panic!("cold read planned {other:?}"),
            }
        }
        // 12 chunks total, 2 in the excluded region: 10 candidates
        // cover k=9 primaries and leave exactly one spare to hedge.
        assert_eq!(plan.sources.len(), 10);
        assert_eq!(plan.hedges, 1);
    }

    #[test]
    fn excluding_too_many_regions_is_not_enough_chunks() {
        let (backend, estimates) = setup();
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let config = CacheConfiguration::empty();
        let planner = ReadPlanner::new(&manifest, &config);
        // Two regions out = 8 reachable chunks < k = 9: the planner
        // reports it and the node falls back to an ungated re-plan
        // (degraded read) rather than stalling.
        let mut excluded = vec![false; 6];
        excluded[FRANKFURT.index()] = true;
        excluded[TOKYO.index()] = true;
        let policy = HedgePolicy {
            max_hedges: 0,
            z: 0.0,
            deviations: &[],
            excluded: &excluded,
        };
        let result = planner.plan_hedged(
            LocalHits::default(),
            &[],
            &backend,
            &estimates,
            DISK_READ,
            policy,
        );
        assert!(matches!(
            result,
            Err(AgarError::Store(StoreError::NotEnoughChunks { .. }))
        ));
    }

    #[test]
    fn disabled_policy_matches_plain_plan() {
        let (backend, estimates) = setup();
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let config = CacheConfiguration::empty();
        let planner = ReadPlanner::new(&manifest, &config);
        let plain = planner
            .plan(LocalHits::default(), &[], &backend, &estimates, DISK_READ)
            .unwrap();
        let hedged = planner
            .plan_hedged(
                LocalHits::default(),
                &[],
                &backend,
                &estimates,
                DISK_READ,
                HedgePolicy::disabled(),
            )
            .unwrap();
        assert_eq!(plain.hedges, 0);
        assert_eq!(plain.sources.len(), hedged.sources.len());
        let indices = |p: &ReadPlan| p.sources.iter().map(|&(i, _)| i).collect::<Vec<_>>();
        assert_eq!(indices(&plain), indices(&hedged));
    }

    #[test]
    fn too_few_sources_is_an_error() {
        let (backend, estimates) = setup();
        let manifest = backend.manifest(ObjectId::new(0)).unwrap();
        let config = CacheConfiguration::empty();
        for region in backend.topology().ids().take(4) {
            backend.fail_region(region);
        }
        let planner = ReadPlanner::new(&manifest, &config);
        let err = planner
            .plan(LocalHits::default(), &[], &backend, &estimates, DISK_READ)
            .unwrap_err();
        assert!(matches!(
            err,
            AgarError::Store(StoreError::NotEnoughChunks { needed: 9, .. })
        ));
    }
}
