//! The read path: one route for every client (paper §III–IV), as the
//! six stages the `node` module docs describe — lookup
//! ([`ReadPlanner::lookup_local`]) → plan → fetch → [`bind`] →
//! [`decode`] → fill — plus [`price`], the latency formula. A read
//! whose lookup served every hinted chunk skips the fill: its one cache
//! visit is the lookup's. Collaboration, hedging, tiers and the breaker
//! are not routes of their own: a read without neighbour offers passes
//! `&[]`, an unhedged read is the Δ = 0 case of "issue k + Δ, bind the
//! first k", a RAM-only node has no disk hits to price, a disabled
//! breaker excludes nothing. Nor are the paper's baselines
//! (`baselines.rs`): they plan with [`ReadPlanner::plan`] and read
//! through these stage functions, so a figure's Agar and baseline cells
//! differ only in what each client caches.
//!
//! One loop wraps plan → fetch ([`AgarNode::passes`]). A pass that
//! binds k chunks serves the read; one that too few regions answered
//! re-plans on the same snapshot after a backoff; one that met a newer
//! version than its manifest snapshot restarts on a fresh snapshot.
//! Re-plans and restarts draw on one [`Ledger`], so the
//! [`RetryPolicy`](crate::retry::RetryPolicy)'s attempt cap and
//! deadline bound the logical read, and the read's counters and trace
//! are written once, from the ledger, when it ends.

use super::{AgarNode, ReadMetrics};
use crate::config::CacheConfiguration;
use crate::error::AgarError;
use crate::fetcher::{ChunkFetcher, FetchRequest};
use crate::inline::{Inline, INLINE_CHUNKS, INLINE_REGIONS};
use crate::planner::{ChunkSource, HedgePolicy, LocalHits, ReadPlan, ReadPlanner, RemoteChunk};
use agar_cache::{AtomicCacheStats, CachedChunk};
use agar_ec::{ChunkId, ObjectId, ReedSolomon};
use agar_net::{RegionId, SimTime};
use agar_obs::{DecodeKind, ReadOutcome, ReadTrace};
use agar_store::{ChunkFetch, ObjectManifest, StoreError};
use bytes::Bytes;
use rand::rngs::StdRng;
use std::sync::{atomic::Ordering, Arc};
use std::time::Duration;

/// One successful backend response: its position in the request list
/// (primaries first, spares last), the request, and the response —
/// whose latency is its arrival time, all requests being issued at once.
pub(crate) type Arrival = (usize, FetchRequest, ChunkFetch);

/// The chunks the last pass decodes from and what obtaining them cost:
/// what [`bind`] hands to [`price`], decode and fill.
#[derive(Clone, Debug, Default)]
pub(crate) struct Bound {
    /// Payloads by chunk index (`k + m` slots, at least k filled). A
    /// straggler's payload never lands here.
    pub(crate) shards: Inline<Option<Bytes>, INLINE_CHUNKS>,
    /// Slowest bound networked source (neighbour or backend).
    worst: Duration,
    disk_hits: usize,
    remote_hits: usize,
    /// Successful backend responses, bound or straggling: issued work
    /// is issued work, and the hedging budget counts it all.
    pub(crate) backend_fetches: usize,
    /// Spares that arrived among the first k.
    hedge_wins: u64,
    /// Arrivals past the k-th, dropped.
    hedges_cancelled: u64,
    /// How far the slowest dropped straggler flew past `worst`.
    overhang: Duration,
}

/// What one logical read spent across its plan → fetch passes.
#[derive(Debug, Default)]
struct Ledger {
    /// Passes made (the policy's attempts).
    attempts: u32,
    /// Passes too few regions answered, re-planned on their snapshot.
    replans: u32,
    /// Passes that lost a version race and restarted on a fresh one.
    races: u32,
    /// Backoff charged before the re-plans: priced, never slept.
    backoff: Duration,
    /// Spares issued beyond the needed requests, over every pass.
    hedges: usize,
}

/// What a pass reads through: one manifest snapshot, the configuration
/// and fetcher taken with it, its local hits and its RNG. A re-plan
/// keeps it; a lost version race takes a fresh one.
struct Snapshot {
    manifest: ObjectManifest,
    config: Arc<CacheConfiguration>,
    hits: LocalHits,
    /// The fetcher the snapshot started with serves its fill too.
    fetcher: Arc<dyn ChunkFetcher>,
    rng: StdRng,
}

impl AgarNode {
    /// Reads one object. `offers` lists chunks available from other
    /// nodes' caches (a cluster router collects them; a plain read
    /// passes `&[]`): each needed chunk comes from the cheapest of
    /// {local cache, neighbour cache, backend estimate}.
    ///
    /// # Errors
    ///
    /// Propagates backend failures. When the retry policy's budget
    /// runs out, returns the last pass's error:
    /// [`StoreError::RegionUnavailable`] if too few regions answered,
    /// [`AgarError::ReadContention`] if it raced a concurrent write (a
    /// fetched chunk was newer than the pass's manifest snapshot;
    /// mixing versions would decode garbage).
    pub fn read_with_offers(
        &self,
        object: ObjectId,
        offers: &[RemoteChunk],
    ) -> Result<ReadMetrics, AgarError> {
        // Once per logical read, whatever the number of passes.
        self.monitor.lock().record_read(object);
        // Sampling is a counter, never a draw, and a trace is built
        // from what the read reports anyway: a traced run behaves
        // byte-identically to an untraced one.
        let traced = self.trace.as_ref().filter(|layer| layer.sampled());
        let start = SimTime::from_micros(self.sim_now_micros.load(Ordering::Relaxed));
        let mut ledger = Ledger::default();
        let served = self.passes(object, offers, &mut ledger);
        let counters = self.cache.counters();
        if ledger.attempts > 1 {
            self.counters.retries.add(u64::from(ledger.attempts - 1));
            let backoff = ledger.backoff.as_micros() as u64;
            self.counters.retry_backoff_micros.add(backoff);
        }
        counters.hedged_requests.add(ledger.hedges as u64);
        let (mut snapshot, bound) = served?;

        let ram_hits = snapshot.hits.ram.len();
        let s = &self.settings;
        let costs = (s.client_overhead, s.cache_read, s.disk_read);
        let (local, latency) = price(costs, ram_hits, &bound, ledger.backoff);
        let codec = self.backend.codec();
        let (data, kind) = decode(codec, &snapshot.manifest, &bound.shards, counters)?;
        let hinted = snapshot.config.chunks_for(object);
        // The lookup found every hinted chunk at this version: there is
        // nothing to fill, and no reason to visit the cache again.
        let fill = if snapshot.hits.len() == hinted.len() {
            0
        } else {
            self.fill(
                &*snapshot.fetcher,
                &snapshot.manifest,
                hinted,
                &bound.shards,
                &mut snapshot.rng,
            )
        };
        // Disk-sourced chunks are local cache hits at the object level
        // (Figure 7's accounting).
        let cache_hits = ram_hits + bound.disk_hits;
        counters.record_object_read(cache_hits, snapshot.manifest.params().data_chunks());
        counters.hedge_wins.add(bound.hedge_wins);
        counters.hedges_cancelled.add(bound.hedges_cancelled);
        if let Some(layer) = traced {
            let outcome = ReadOutcome {
                replans: ledger.replans,
                version_races: ledger.races,
                ram_hits: ram_hits as u32,
                disk_hits: bound.disk_hits as u32,
                remote_hits: bound.remote_hits as u32,
                backend_fetches: bound.backend_fetches as u32,
                hedges_issued: ledger.hedges as u32,
                hedge_wins: bound.hedge_wins as u32,
                hedges_cancelled: bound.hedges_cancelled as u32,
                decode: kind,
                total: latency,
            };
            let region = self.region.index() as u64;
            let stages = [local, bound.worst, bound.overhang];
            let trace = ReadTrace::new(object.index(), region, start, outcome, stages);
            layer.record(trace);
        }
        Ok(ReadMetrics {
            data,
            latency,
            cache_hits,
            backend_fetches: bound.backend_fetches,
            fill_fetches: fill,
            remote_hits: bound.remote_hits,
            decoded: kind != DecodeKind::Systematic,
        })
    }

    /// The read's one retry loop (see the module docs): plan → fetch →
    /// bind passes, each charged to `ledger`, until one binds k chunks
    /// or the policy allows no further pass — whose error is the read's.
    /// A re-plan goes around the regions fetch marked unreachable.
    fn passes(
        &self,
        object: ObjectId,
        offers: &[RemoteChunk],
        ledger: &mut Ledger,
    ) -> Result<(Snapshot, Bound), AgarError> {
        let mut snapshot = self.snapshot(object, true)?;
        loop {
            ledger.attempts += 1;
            let planner = ReadPlanner::new(&snapshot.manifest, &snapshot.config);
            let plan = self.plan(&planner, &snapshot.hits, offers)?;
            // Backend primaries first, the Δ spares last; the decode
            // needs all but Δ of them (Δ = 0: every one).
            let requests = backend_requests(&plan, &snapshot.manifest);
            let needed = requests.len() - plan.hedges;
            ledger.hedges += plan.hedges;
            let error = match self.fetch(&*snapshot.fetcher, &requests, &mut snapshot.rng) {
                // A dead spare's region does not fail the pass; too
                // few survivors to cover k does.
                Ok((arrivals, _)) if arrivals.len() >= needed => {
                    let total = snapshot.manifest.params().total_chunks();
                    return Ok((snapshot, bind(total, plan.sources, arrivals, needed)));
                }
                Ok((_, refused)) => {
                    let region = refused.unwrap_or(self.region);
                    StoreError::RegionUnavailable { region }.into()
                }
                Err(raced @ AgarError::ReadContention { .. }) => raced,
                Err(other) => return Err(other),
            };
            let retry = &self.settings.retry;
            if !retry.allows_retry(ledger.attempts, ledger.backoff) {
                return Err(error);
            }
            if let AgarError::ReadContention { .. } = error {
                ledger.races += 1;
                snapshot = self.snapshot(object, false)?;
            } else {
                ledger.replans += 1;
                ledger.backoff += retry.backoff_for(ledger.attempts);
            }
        }
    }

    /// **Lookup** on a fresh manifest snapshot, taken with the live
    /// configuration and fetcher and a fresh RNG. `record_stats` is
    /// false on a restart, so a read's lookups count once.
    fn snapshot(&self, object: ObjectId, record_stats: bool) -> Result<Snapshot, AgarError> {
        let manifest = self.backend.manifest(object)?;
        let config = Arc::clone(&self.config.read());
        let hits = ReadPlanner::new(&manifest, &config).lookup_local(&self.cache, record_stats);
        Ok(Snapshot {
            fetcher: Arc::clone(&self.fetcher.read()),
            rng: self.derive_rng(),
            manifest,
            config,
            hits,
        })
    }

    /// **Plan**: the cheapest cover priced against *current* health —
    /// fresh region estimates and the breaker's exclusion mask (empty
    /// when the breaker is disabled). When the exclusions alone starve
    /// the plan the read is served *degraded* through the excluded
    /// regions rather than stalled: availability beats breaker hygiene.
    fn plan(
        &self,
        planner: &ReadPlanner<'_>,
        hits: &LocalHits,
        offers: &[RemoteChunk],
    ) -> Result<ReadPlan, AgarError> {
        let (estimates, deviations) = {
            let region_manager = self.region_manager.lock();
            (
                Inline::<_, INLINE_REGIONS>::copied(region_manager.estimates()),
                Inline::<_, INLINE_REGIONS>::copied(region_manager.deviations()),
            )
        };
        let now_micros = self.sim_now_micros.load(Ordering::Relaxed);
        let gated = self.breaker.exclusion_mask(now_micros);
        let plan_excluding = |excluded: &[bool]| {
            let hedging = HedgePolicy {
                max_hedges: self.settings.max_hedges,
                z: self.settings.hedge_z,
                deviations: &deviations,
                excluded,
            };
            planner.plan_hedged(
                hits,
                offers,
                &self.backend,
                &estimates,
                self.settings.disk_read,
                hedging,
            )
        };
        match plan_excluding(&gated) {
            Err(AgarError::Store(StoreError::NotEnoughChunks { .. })) if gated.contains(&true) => {
                self.counters.degraded_reads.inc();
                plan_excluding(&[])
            }
            planned => planned,
        }
    }

    /// **Fetch**: races `requests` through the fetcher with no node
    /// lock held and folds every response into the node's view of the
    /// network: a success — bound later or not — feeds the latency
    /// estimator (stragglers are exactly the observations that grow
    /// the deviation) and the breaker; a refusing region is marked
    /// unreachable and returned beside the arrivals. A response of
    /// another version than its request's manifest snapshot is a lost
    /// version race: [`AgarError::ReadContention`].
    fn fetch(
        &self,
        fetcher: &dyn ChunkFetcher,
        requests: &[FetchRequest],
        rng: &mut StdRng,
    ) -> Result<(Vec<Arrival>, Option<RegionId>), AgarError> {
        let mut arrivals = Vec::with_capacity(requests.len());
        let mut refused = None;
        let responses = fetcher.fetch(self.region, requests, rng);
        for (position, (request, result)) in responses.into_iter().enumerate() {
            match result {
                Ok(fetch) => {
                    self.region_manager
                        .lock()
                        .observe(request.region, fetch.latency);
                    self.breaker.record_success(request.region);
                    if fetch.version != request.version {
                        let object = request.chunk.object();
                        return Err(AgarError::ReadContention { object });
                    }
                    arrivals.push((position, request, fetch));
                }
                Err(StoreError::RegionUnavailable { region }) => {
                    self.region_manager.lock().mark_unreachable(region);
                    let now_micros = self.sim_now_micros.load(Ordering::Relaxed);
                    self.breaker.record_failure(region, now_micros);
                    refused = Some(region);
                }
                Err(other) => return Err(other.into()),
            }
        }
        Ok((arrivals, refused))
    }

    /// **Fill**: moves the cache toward the hinted configuration, off
    /// the critical path (the paper uses a separate thread pool), and
    /// returns how many chunks it fetched for that. A read whose lookup
    /// found every hinted chunk at its version does not call it.
    /// `shards` is what the read has in hand, by chunk index — nothing,
    /// when a reconfiguration downloads an entry a priori. Which hinted
    /// chunks the cache lacks is one [`TieredChunkCache::absent`] visit,
    /// taken again after each insert (an insert can evict, or clean
    /// away, a chunk the loop has yet to reach), so the loop fills what
    /// a `contains` per chunk would. Each chunk is checked against the
    /// *live* configuration before the insert and revalidated after it
    /// ([`AgarNode::insert_revalidated`]), so a fill racing a
    /// reconfiguration cannot leave behind chunks the new configuration
    /// purged or placed in the other tier. The absence check and the
    /// insert are not atomic either: a write may land its chunks of the
    /// next version in between, and the cache then refuses this
    /// attempt's older one.
    ///
    /// [`TieredChunkCache::absent`]: agar_cache::TieredChunkCache::absent
    pub(super) fn fill(
        &self,
        fetcher: &dyn ChunkFetcher,
        manifest: &ObjectManifest,
        hinted: &[u8],
        shards: &[Option<Bytes>],
        rng: &mut StdRng,
    ) -> usize {
        let object = manifest.object();
        let mut fill_fetches = 0;
        let live_config = Arc::clone(&self.config.read());
        let absent = || self.cache.absent(object, hinted.iter().copied());
        let mut missing = absent();
        for &index in hinted {
            let id = ChunkId::new(object, index);
            if !live_config.contains(id) || !missing.contains(index) {
                continue;
            }
            // A hinted chunk that was neither cached nor on the fetch
            // path (estimate drift) is fetched in the background.
            let payload = shards.get(index as usize).cloned().flatten().or_else(|| {
                fill_fetch(
                    fetcher,
                    self.region,
                    manifest,
                    index,
                    rng,
                    &mut fill_fetches,
                )
            });
            let Some(payload) = payload else { continue };
            let chunk = CachedChunk::new(payload, manifest.version());
            self.insert_revalidated(id, chunk);
            missing = absent();
        }
        self.counters.fill_fetches.add(fill_fetches);
        fill_fetches as usize
    }
}

/// Fetches chunk `index` of the manifest's object for a cache fill
/// through `fetcher`, so under a cluster it piggybacks on an identical
/// in-flight critical-path fetch instead of duplicating it.
/// Best-effort: a failed fetch is `None`; a completed one counts into
/// `fill_fetches`, and is still `None` when it raced a write (caching
/// the new payload under the snapshot's version label would poison
/// later version checks).
pub(crate) fn fill_fetch(
    fetcher: &dyn ChunkFetcher,
    client: RegionId,
    manifest: &ObjectManifest,
    index: u8,
    rng: &mut StdRng,
    fill_fetches: &mut u64,
) -> Option<Bytes> {
    let request = FetchRequest {
        chunk: ChunkId::new(manifest.object(), index),
        region: manifest.location(index as usize),
        version: manifest.version(),
    };
    let (_, result) = fetcher.fetch(client, &[request], rng).pop()?;
    let fetch = result.ok()?;
    *fill_fetches += 1;
    (fetch.version == request.version).then_some(fetch.data)
}

/// The plan's backend sources as fetch requests, in plan order.
pub(crate) fn backend_requests(plan: &ReadPlan, manifest: &ObjectManifest) -> Vec<FetchRequest> {
    let backend = plan
        .sources
        .iter()
        .filter_map(|(index, source)| match source {
            ChunkSource::Backend { region, .. } => Some(FetchRequest {
                chunk: ChunkId::new(manifest.object(), *index),
                region: *region,
                version: manifest.version(),
            }),
            _ => None,
        });
    // Sized exactly: a fully cached read allocates nothing here.
    let mut requests = Vec::with_capacity(backend.clone().count());
    requests.extend(backend);
    requests
}

/// **Bind**: places what the plan had in hand (`sources`: RAM, disk and
/// neighbour payloads) and late-binds the first `needed` arrivals —
/// smallest latencies; request position breaks ties, so primaries win
/// them. A straggler's payload never reaches `shards`, so it can
/// neither mix versions into the decode nor displace a bound chunk.
/// With no spares all arrivals bind, none wins, none is cancelled.
pub(crate) fn bind(
    total: usize,
    sources: Vec<(u8, ChunkSource)>,
    mut arrivals: Vec<Arrival>,
    needed: usize,
) -> Bound {
    let mut bound = Bound {
        shards: Inline::defaults(total),
        backend_fetches: arrivals.len(),
        ..Bound::default()
    };
    for (index, source) in sources {
        let payload = match source {
            ChunkSource::Local { data } => data,
            ChunkSource::LocalDisk { data } => {
                bound.disk_hits += 1;
                data
            }
            ChunkSource::Remote { data, latency } => {
                bound.remote_hits += 1;
                bound.worst = bound.worst.max(latency);
                data
            }
            ChunkSource::Backend { .. } => continue, // an arrival, or nothing
        };
        bound.shards[index as usize] = Some(payload);
    }
    arrivals.sort_by(|a, b| a.2.latency.cmp(&b.2.latency).then(a.0.cmp(&b.0)));
    let mut slowest_straggler = Duration::ZERO;
    for (slot, (position, request, fetch)) in arrivals.into_iter().enumerate() {
        if slot < needed {
            bound.worst = bound.worst.max(fetch.latency);
            bound.shards[request.chunk.index().value() as usize] = Some(fetch.data);
            bound.hedge_wins += u64::from(position >= needed);
        } else {
            bound.hedges_cancelled += 1;
            slowest_straggler = slowest_straggler.max(fetch.latency);
        }
    }
    bound.overhang = slowest_straggler.saturating_sub(bound.worst);
    bound
}

/// **Decode**: with all k data shards in hand the codec takes its
/// systematic fast path (no GF arithmetic, no locks); a degraded decode
/// reuses the cached decode plan when this erasure pattern has been
/// seen before, at the cost of a brief codec-level lock. Counts which
/// of the two it was into `counters`.
pub(crate) fn decode(
    codec: &ReedSolomon,
    manifest: &ObjectManifest,
    shards: &[Option<Bytes>],
    counters: &AtomicCacheStats,
) -> Result<(Bytes, DecodeKind), AgarError> {
    let (data, report) = codec.reconstruct_object_report(shards, manifest.size())?;
    let kind = if report.systematic_fast_path {
        counters.systematic_fast_reads.inc();
        DecodeKind::Systematic
    } else if report.plan_cache_hit {
        counters.decode_plan_hits.inc();
        DecodeKind::PlanCacheHit
    } else {
        DecodeKind::Inversion
    };
    Ok((data, kind))
}

/// The latency formula (paper §V-A): every source is read in parallel,
/// so a read costs its slowest one — the local component (one cache
/// read if any RAM chunk was used, one disk read if any disk chunk
/// was) or the slowest networked source — plus the fixed client
/// overhead, plus the backoff the retry policy made the client wait.
/// Returns the local component and the end-to-end latency.
pub(crate) fn price(
    (client_overhead, cache_read, disk_read): (Duration, Duration, Duration),
    ram_hits: usize,
    bound: &Bound,
    backoff: Duration,
) -> (Duration, Duration) {
    let mut local = Duration::ZERO;
    if ram_hits > 0 {
        local = cache_read;
    }
    if bound.disk_hits > 0 {
        local = local.max(disk_read);
    }
    let latency = client_overhead + local.max(bound.worst) + backoff;
    (local, latency)
}

#[cfg(test)]
mod tests {
    use super::super::tests::{test_backend, test_backend_coded};
    use super::super::{AgarSettings, CachingClient};
    use super::*;
    use crate::breaker::BreakerPolicy;
    use crate::fetcher::DirectFetcher;
    use crate::retry::RetryPolicy;
    use agar_ec::CodingParams;
    use agar_net::presets::{DUBLIN, FRANKFURT, N_VIRGINIA, SAO_PAULO, SYDNEY, TOKYO};
    use agar_store::{expected_payload, Backend};
    use proptest::prelude::*;
    use rand::RngCore;
    use std::sync::atomic::AtomicUsize;

    const MS: fn(u64) -> Duration = Duration::from_millis;

    /// Backend arrivals for chunks `0..`, one per latency, in request
    /// order; the payload byte names the chunk.
    fn arrivals(latencies_ms: &[u64]) -> Vec<Arrival> {
        latencies_ms
            .iter()
            .enumerate()
            .map(|(position, &ms)| {
                let request = FetchRequest {
                    chunk: ChunkId::new(ObjectId::new(0), position as u8),
                    region: FRANKFURT,
                    version: 1,
                };
                let fetch = ChunkFetch {
                    data: Bytes::from(vec![position as u8]),
                    version: 1,
                    latency: MS(ms),
                };
                (position, request, fetch)
            })
            .collect()
    }

    #[test]
    fn bind_takes_the_first_needed_arrivals_and_drops_the_rest() {
        // (latencies by request position, needed) → (chunks bound,
        // wins, cancelled, worst, overhang), all in ms.
        let check = |latencies: &[u64], needed, chunks: &[usize], hedges, worst, overhang| {
            let bound = bind(4, Vec::new(), arrivals(latencies), needed);
            let landed: Vec<usize> = (0..4).filter(|&i| bound.shards[i].is_some()).collect();
            assert_eq!(landed, chunks, "a straggler's payload never lands");
            assert_eq!(bound.backend_fetches, latencies.len(), "issued work");
            assert_eq!((bound.hedge_wins, bound.hedges_cancelled), hedges);
            assert_eq!((bound.worst, bound.overhang), (MS(worst), MS(overhang)));
        };
        // No spares: every arrival binds, none wins, none is cancelled.
        check(&[30, 10, 20], 3, &[0, 1, 2], (0, 0), 30, 0);
        // A spare tying with the slower primary: position decides.
        check(&[10, 20, 20], 2, &[0, 1], (0, 1), 20, 0);
        // The 20 ms spare beats the 50 ms primary; the slowest
        // straggler flies 70 ms past the k-th arrival.
        check(&[10, 50, 20, 90], 2, &[0, 2], (1, 2), 20, 70);
        // What the plan had in hand is placed, counted and priced too.
        let offer = ChunkSource::Remote {
            data: Bytes::from_static(b"offered"),
            latency: MS(35),
        };
        let bound = bind(4, vec![(3, offer)], arrivals(&[10, 20]), 2);
        assert!(bound.shards[3].is_some() && bound.shards[2].is_none());
        assert_eq!((bound.remote_hits, bound.worst), (1, MS(35)));
    }

    #[test]
    fn price_takes_the_slowest_parallel_source_plus_overhead_and_backoff() {
        let settings = AgarSettings::paper_default(0);
        let (overhead, ram, disk) = (MS(100), MS(40), MS(150));
        assert_eq!(
            (
                settings.client_overhead,
                settings.cache_read,
                settings.disk_read
            ),
            (overhead, ram, disk)
        );
        let price = |ram_hits, disk_hits, worst_ms, backoff_ms| {
            let bound = Bound {
                disk_hits,
                worst: MS(worst_ms),
                ..Bound::default()
            };
            super::price((overhead, ram, disk), ram_hits, &bound, MS(backoff_ms))
        };
        // RAM only: one parallel cache read.
        assert_eq!(price(9, 0, 0, 0), (ram, overhead + ram));
        // Disk only: one parallel disk read.
        assert_eq!(price(0, 3, 0, 0), (disk, overhead + disk));
        // Mixed: the slower local tier, unless the network is slower.
        assert_eq!(price(4, 2, 90, 0), (disk, overhead + disk));
        assert_eq!(price(4, 2, 300, 0), (disk, overhead + MS(300)));
        assert_eq!(price(4, 0, 300, 0), (ram, overhead + MS(300)));
        // Cold, after two backed-off re-plans.
        assert_eq!(
            price(0, 0, 200, 75),
            (Duration::ZERO, overhead + MS(200) + MS(75))
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `bind` against a restatement. Each chunk index is nothing, a
        /// RAM, disk or neighbour source, or a backend request; requests
        /// go out in a random order and arrive at one of four
        /// latencies, so ties are common. The first `needed` arrivals by
        /// (latency, position) bind, the rest are cancelled; a win is a
        /// bound arrival at a position ≥ `needed`; `worst` is the
        /// slowest neighbour or bound arrival, and `overhang` how far
        /// the slowest cancelled one flew past it.
        #[test]
        fn bind_matches_its_restatement(
            slots in collection::vec((0u8..5, 0u64..4, any::<u16>()), 1..=16),
            needed_pick in 0usize..17,
        ) {
            let total = slots.len();
            let ms = |step: u64| MS(step * 10);
            let payload = |index: usize| Bytes::from(vec![index as u8]);
            let mut sources = Vec::new();
            let mut requested = Vec::new();
            for (index, &(kind, step, order)) in slots.iter().enumerate() {
                let data = payload(index);
                let source = match kind {
                    1 => ChunkSource::Local { data },
                    2 => ChunkSource::LocalDisk { data },
                    3 => ChunkSource::Remote { data, latency: ms(step) },
                    4 => {
                        requested.push((order, index));
                        ChunkSource::Backend { region: FRANKFURT, estimate: ms(step) }
                    }
                    _ => continue,
                };
                sources.push((index as u8, source));
            }
            requested.sort_unstable();
            let arrivals: Vec<Arrival> = requested
                .iter()
                .enumerate()
                .map(|(position, &(_, index))| {
                    let chunk = ChunkId::new(ObjectId::new(0), index as u8);
                    let request = FetchRequest { chunk, region: FRANKFURT, version: 1 };
                    let latency = ms(slots[index].1);
                    let fetch = ChunkFetch { data: payload(index), version: 1, latency };
                    (position, request, fetch)
                })
                .collect();
            let needed = needed_pick % (arrivals.len() + 1);

            let mut order: Vec<&Arrival> = arrivals.iter().collect();
            order.sort_by_key(|(position, _, fetch)| (fetch.latency, *position));
            let (binding, cancelled) = order.split_at(needed);
            let mut shards = vec![None; total];
            let mut worst = Duration::ZERO;
            for (index, source) in &sources {
                if let ChunkSource::Remote { latency, .. } = source {
                    worst = worst.max(*latency);
                }
                if !matches!(source, ChunkSource::Backend { .. }) {
                    shards[*index as usize] = Some(payload(*index as usize));
                }
            }
            for (_, request, fetch) in binding {
                shards[request.chunk.index().value() as usize] = Some(fetch.data.clone());
                worst = worst.max(fetch.latency);
            }
            let slowest = cancelled.iter().map(|a| a.2.latency).max().unwrap_or_default();
            let wins = binding.iter().filter(|a| a.0 >= needed).count() as u64;
            let count = |kind| slots.iter().filter(|slot| slot.0 == kind).count();

            let bound = bind(total, sources.clone(), arrivals.clone(), needed);
            prop_assert_eq!(&bound.shards[..], &shards[..]);
            prop_assert_eq!((bound.disk_hits, bound.remote_hits), (count(2), count(3)));
            prop_assert_eq!(bound.backend_fetches, arrivals.len());
            prop_assert_eq!((bound.hedge_wins, bound.hedges_cancelled), (wins, cancelled.len() as u64));
            prop_assert_eq!((bound.worst, bound.overhang), (worst, slowest.saturating_sub(worst)));
        }

        /// `price` against its formula: client overhead, plus the
        /// slower of the local component and `worst`, plus the backoff;
        /// the local component is the larger of the cache read (if any
        /// RAM hit) and the disk read (if any disk hit). Four values
        /// per cost, so ties are common.
        #[test]
        fn price_matches_its_restatement(
            steps in [0u64..4, 0u64..4, 0u64..4, 0u64..4, 0u64..4],
            (ram_hits, disk_hits) in (0usize..3, 0usize..3),
        ) {
            let [overhead, cache_read, disk_read, worst, backoff] = steps.map(|s| MS(s * 10));
            let bound = Bound { disk_hits, worst, ..Bound::default() };
            let local = [(ram_hits > 0, cache_read), (disk_hits > 0, disk_read)]
                .into_iter()
                .filter_map(|(used, cost)| used.then_some(cost))
                .max()
                .unwrap_or_default();
            let expected = (local, overhead + local.max(worst) + backoff);
            let priced = price((overhead, cache_read, disk_read), ram_hits, &bound, backoff);
            prop_assert_eq!(priced, expected);
        }
    }

    #[test]
    fn breaker_starved_reads_are_served_degraded_and_counted_once_each() {
        let backend = test_backend(2, 900);
        let mut settings = AgarSettings::paper_default(0);
        settings.breaker = BreakerPolicy {
            failure_threshold: 1,
            cooldown: Duration::from_secs(60),
        };
        let node = AgarNode::new(FRANKFURT, backend, settings, 7).unwrap();
        for round in 1..=3 {
            // One open region leaves 10 of the 12 chunks: planned
            // around, not degraded.
            node.breaker().record_failure(SYDNEY, 0);
            node.read(ObjectId::new(0)).unwrap();
            assert_eq!(node.degraded_reads(), round - 1);
            // Two leave 8 < k = 9: only the ungated re-plan can serve
            // the read (both regions are in fact healthy).
            node.breaker().record_failure(TOKYO, 0);
            assert_eq!(node.breaker().open_regions(), 2);
            let metrics = node.read(ObjectId::new(0)).unwrap();
            assert_eq!(metrics.data.as_ref(), expected_payload(0, 900).as_slice());
            assert_eq!(metrics.backend_fetches, 9);
            assert_eq!(node.degraded_reads(), round, "exactly one per starved read");
            // Its fetch through Tokyo succeeded and closed that breaker.
            assert_eq!(node.breaker().open_regions(), 1);
        }
        assert_eq!(node.retries(), 0, "a degraded plan is not a retry");
    }

    /// What [`Faulty`] does to one pass's responses: `dead` regions
    /// refuse (they died after the plan was made; the planner skips
    /// the ones the backend already reports down) and every other
    /// payload is `ahead` versions newer than its request's manifest
    /// snapshot (1: a writer that wins the race).
    #[derive(Default)]
    struct Pass {
        dead: Vec<RegionId>,
        ahead: u64,
    }

    fn refuse(dead: &[RegionId]) -> Pass {
        Pass {
            dead: dead.to_vec(),
            ahead: 0,
        }
    }

    fn race() -> Pass {
        Pass {
            dead: Vec::new(),
            ahead: 1,
        }
    }

    fn serve() -> Pass {
        Pass::default()
    }

    /// The direct fetcher with faults no plan can see coming: its n-th
    /// call plays `script[n % script.len()]`.
    struct Faulty {
        inner: DirectFetcher,
        script: Vec<Pass>,
        calls: AtomicUsize,
    }

    impl Faulty {
        fn new(backend: Arc<Backend>, script: Vec<Pass>) -> Arc<Self> {
            Arc::new(Faulty {
                inner: DirectFetcher::new(backend),
                script,
                calls: AtomicUsize::new(0),
            })
        }

        fn calls(&self) -> usize {
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl ChunkFetcher for Faulty {
        fn fetch(
            &self,
            client_region: RegionId,
            requests: &[FetchRequest],
            rng: &mut dyn RngCore,
        ) -> Vec<(FetchRequest, Result<ChunkFetch, StoreError>)> {
            let call = self.calls.fetch_add(1, Ordering::Relaxed);
            let pass = &self.script[call % self.script.len()];
            let mut results = self.inner.fetch(client_region, requests, rng);
            for (request, result) in &mut results {
                if pass.dead.contains(&request.region) {
                    let region = request.region;
                    *result = Err(StoreError::RegionUnavailable { region });
                } else if let Ok(fetch) = result {
                    fetch.version += pass.ahead;
                }
            }
            results
        }
    }

    #[test]
    fn an_unhedged_read_marks_every_refusing_region_of_a_pass_at_once() {
        // RS(6, 6) over six regions, two chunks each: the read decodes
        // from any three regions, so it survives three dead ones.
        let serve = |dead: &[RegionId]| {
            let backend = test_backend_coded(CodingParams::new(6, 6).unwrap(), 1, 900);
            let refusing = Faulty::new(Arc::clone(&backend), vec![refuse(dead)]);
            let mut settings = AgarSettings::paper_default(0);
            assert_eq!((settings.max_hedges, settings.retry.max_attempts), (0, 3));
            settings.retry.base_backoff = MS(10);
            let node = AgarNode::new(FRANKFURT, backend, settings, 7).unwrap();
            node.set_chunk_fetcher(refusing);
            let metrics = node.read(ObjectId::new(0)).unwrap();
            assert_eq!(metrics.data.as_ref(), expected_payload(0, 900).as_slice());
            assert_eq!(metrics.backend_fetches, 6);
            let manager = node.region_manager.lock();
            let unreachable: Vec<RegionId> = (0..6)
                .map(RegionId::new)
                .filter(|&region| !manager.is_reachable(region))
                .collect();
            assert_eq!(unreachable, dead);
            (node.retries(), node.counters().retry_backoff_micros.get())
        };
        // The first plan takes the three nearest regions; both dead
        // ones refuse in the same pass and are marked together, so one
        // re-plan (10 ms) serves the read — Δ = 0 gets the feedback a
        // hedged read always got, not one dead region per re-plan.
        assert_eq!(serve(&[DUBLIN, N_VIRGINIA]), (1, 10_000));
        // The second plan meets the third dead region; the last
        // allowed attempt (10 + 20 ms) reads from the three left.
        assert_eq!(serve(&[DUBLIN, N_VIRGINIA, SAO_PAULO]), (2, 30_000));
    }

    #[test]
    fn a_read_that_always_loses_the_version_race_ends_in_contention() {
        const ATTEMPTS: u32 = 4;
        let backend = test_backend(1, 900);
        // Room for 5 of the 9 chunks: every read looks 5 chunks up and
        // still needs the backend.
        let mut settings = AgarSettings::paper_default(500);
        settings.trace_sample_every = 1;
        settings.retry.max_attempts = ATTEMPTS;
        let node = AgarNode::new(FRANKFURT, Arc::clone(&backend), settings, 7).unwrap();
        let object = ObjectId::new(0);
        for _ in 0..10 {
            node.read(object).unwrap();
        }
        node.force_reconfigure();
        let hinted = node.current_config().chunks_for(object).len() as u64;
        assert_eq!(hinted, 5);
        let before = node.cache_stats();
        let traces = node.trace_snapshot().len();

        let racing = Faulty::new(backend, vec![race()]);
        node.set_chunk_fetcher(Arc::clone(&racing) as Arc<dyn ChunkFetcher>);
        let error = node.read(object).unwrap_err();
        assert!(matches!(error, AgarError::ReadContention { object: o } if o == object));
        assert_eq!(racing.calls(), ATTEMPTS as usize);
        assert_eq!(node.retries(), u64::from(ATTEMPTS) - 1);

        // The lookups of the one logical read counted once, not once
        // per attempt; no object-level outcome, no trace.
        let after = node.cache_stats();
        assert_eq!(after.chunk_hits() - before.chunk_hits(), hinted);
        assert_eq!(after.chunk_misses(), before.chunk_misses());
        assert_eq!(after.object_reads(), before.object_reads());
        assert_eq!(node.trace_snapshot().len(), traces);
    }

    /// A cold read through a node in Frankfurt (RS(9, 3), two chunks a
    /// region, so its first plan fetches Frankfurt's) that plays
    /// `script` under `retry`, traced; returns the node and the fetcher.
    fn scripted(retry: RetryPolicy, script: Vec<Pass>) -> (AgarNode, Arc<Faulty>) {
        let backend = test_backend(1, 900);
        let faulty = Faulty::new(Arc::clone(&backend), script);
        let mut settings = AgarSettings::paper_default(0);
        settings.retry = retry;
        settings.trace_sample_every = 1;
        let node = AgarNode::new(FRANKFURT, backend, settings, 7).unwrap();
        node.set_chunk_fetcher(Arc::clone(&faulty) as Arc<dyn ChunkFetcher>);
        (node, faulty)
    }

    fn policy(max_attempts: u32, deadline: Duration) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base_backoff: MS(10),
            max_backoff: Duration::ZERO,
            deadline,
        }
    }

    #[test]
    fn a_replan_then_a_race_share_one_budget_and_one_backoff() {
        let script = vec![refuse(&[FRANKFURT]), race(), serve()];
        let (node, faulty) = scripted(policy(3, Duration::ZERO), script);
        let metrics = node.read(ObjectId::new(0)).unwrap();
        assert_eq!(metrics.data.as_ref(), expected_payload(0, 900).as_slice());
        assert_eq!(faulty.calls(), 3, "served on the third and last pass");
        assert_eq!(
            (node.retries(), node.counters().retry_backoff_micros.get()),
            (2, 10_000)
        );
        let traces = node.trace_snapshot();
        let outcome = traces[0].outcome;
        assert_eq!((outcome.replans, outcome.version_races), (1, 1));
        // The backoff charged before the race is priced into the read
        // the restart served.
        let fetch = traces[0].spans[2];
        assert_eq!(fetch.stage, agar_obs::ReadStage::Fetch);
        let overhead = AgarSettings::paper_default(0).client_overhead;
        assert_eq!(metrics.latency, overhead + fetch.duration + MS(10));
        assert_eq!(outcome.total, metrics.latency);
    }

    #[test]
    fn refusals_and_races_forever_stop_after_max_attempts_passes() {
        const ATTEMPTS: u32 = 4;
        let all: Vec<RegionId> = (0..6).map(RegionId::new).collect();
        let (node, faulty) = scripted(policy(ATTEMPTS, Duration::ZERO), vec![refuse(&all), race()]);
        let error = node.read(ObjectId::new(0)).unwrap_err();
        // The fourth pass, a race, is the last the budget allows.
        assert!(matches!(error, AgarError::ReadContention { .. }));
        assert_eq!(faulty.calls(), ATTEMPTS as usize, "not 2 x max_attempts");
        assert_eq!(node.retries(), u64::from(ATTEMPTS) - 1);
        // Two re-plans: 10 ms after the first pass, 40 ms after the
        // third.
        assert_eq!(node.counters().retry_backoff_micros.get(), 50_000);
        assert!(
            node.trace_snapshot().is_empty(),
            "a failed read has no trace"
        );
    }

    #[test]
    fn a_deadline_spent_on_backoff_allows_no_restart_after_a_race() {
        // The first pass's re-plan charges the whole 10 ms budget; the
        // race on the second pass finds nothing left to restart with,
        // though the third pass would have served the read.
        let script = vec![refuse(&[FRANKFURT]), race(), serve()];
        let (node, faulty) = scripted(policy(5, MS(10)), script);
        let error = node.read(ObjectId::new(0)).unwrap_err();
        assert!(matches!(error, AgarError::ReadContention { .. }));
        assert_eq!(faulty.calls(), 2);
        assert_eq!(
            (node.retries(), node.counters().retry_backoff_micros.get()),
            (1, 10_000)
        );
    }
}
