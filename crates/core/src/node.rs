//! The Agar node: the per-region deployment tying together cache,
//! request monitor, region manager and cache manager (paper Figure 3).
//!
//! This module holds the node itself — construction, accessors,
//! `write`, reconfiguration and metrics registration. The read path
//! ([`AgarNode::read_with_offers`]) lives in `read.rs`, a child module
//! (it works on the node's private fields).
//!
//! # Placement has one owner
//!
//! Every cached chunk sits in exactly one tier, the one the
//! configuration names — no exception: a RAM capacity eviction drops
//! its victims, and nothing reaches a tier but through the one placer
//! (`insert_revalidated`), which a write's update, a read's fill and a
//! reconfiguration's moves and a-priori downloads all share. A
//! reconfiguration is **solve → swap → snapshot → transition →
//! execute**: the decision is
//! [`CacheConfiguration::transition`](crate::config::CacheConfiguration::transition),
//! a pure function of the new configuration and one snapshot of what is
//! cached, and `reconfigure` only carries it out (purge, moves down,
//! moves up, downloads). The snapshot is taken *after* the swap, and
//! the downloads test presence *live* — see `reconfigure` for why.
//!
//! # Concurrency model
//!
//! The node serves every client in its region, so every concern is
//! locked independently instead of behind one node-wide mutex. A read
//! first records the request in the monitor (its own mutex, one
//! hash-map increment) and then runs the six stages of `read.rs`:
//!
//! 1. **lookup** — hinted chunks in the sharded cache at the
//!    manifest's version (one visit to the shard that holds the
//!    object, which also drops older chunks; atomic statistics);
//! 2. **plan** — the [`ReadPlanner`](crate::planner::ReadPlanner)
//!    ranks every candidate source against *snapshots* (the
//!    `Arc<CacheConfiguration>` swapped at reconfiguration, a copy of
//!    the region manager's estimates) — no locks held;
//! 3. **fetch** — backend fetches run with **no** node lock held, so
//!    concurrent clients' fetches overlap exactly like the paper's
//!    parallel chunk reads (each response briefly locks the region
//!    manager to fold in its latency observation);
//! 4. **bind** — the first k arrivals are bound into the decode,
//!    stragglers dropped (pure);
//! 5. **decode** — Reed-Solomon decoding is lock-free;
//! 6. **fill** — cache fill takes per-shard locks only, and a read
//!    whose lookup found every hinted chunk skips it.
//!
//! Randomness is drawn from per-operation RNGs derived from the node
//! seed and an atomic operation counter, so single-threaded runs stay
//! bit-deterministic while concurrent readers never share an RNG lock.
//!
//! # Writes are write-updates
//!
//! [`AgarNode::write`] does not throw away what it has just encoded:
//! after the backend acknowledges version v it drops the object's older
//! chunks and inserts the configured ones at v (solved entries only; a
//! carried entry is dropped, a failed put changes nothing). Updating a
//! cache in place of invalidating it races with everything else that
//! inserts, takes no lock of its own, and relies on four mechanisms:
//!
//! - a **reader that bound v−1** before the put may reach its fill
//!   stage after the update, and `contains`-then-insert is not atomic.
//!   The cache's insert is *version-monotone*: under the shard lock
//!   (and in the disk log) a chunk older than the resident one is
//!   refused, so a cached chunk's version never goes backwards;
//! - a **reconfiguration** may swap the configuration between the
//!   write's snapshot and its inserts. The write revalidates each
//!   insert against the live configuration exactly as the fill stage
//!   does (`insert_revalidated`), so no chunk stays in a tier or set
//!   the new configuration does not name; the reconfiguration's own
//!   moves and a-priori fills go through the same placer and meet the
//!   monotone insert in turn;
//! - **two writers** of one object are serialised by the cluster's
//!   per-object lease (`agar-cluster`); writes that bypass it are
//!   ordered by their versions, again through the monotone insert;
//! - whatever slips through is a chunk of the wrong version, which
//!   **every lookup** turns into a miss, never into a stale byte: a
//!   lookup names the reader's manifest version, and the cache drops
//!   older chunks and leaves newer ones alone inside the visit that
//!   finds them ([`TieredChunkCache::lookup_object`]), so an attempt
//!   whose snapshot predates the write cannot sweep what it placed.

use crate::breaker::{BreakerPolicy, CircuitBreaker};
use crate::cache_manager;
use crate::config::CacheConfiguration;
use crate::error::AgarError;
use crate::fetcher::{ChunkFetcher, DirectFetcher};
use crate::knapsack::KnapsackSolver;
use crate::monitor::RequestMonitor;
use crate::region_manager::RegionManager;
use crate::retry::RetryPolicy;
use agar_cache::{
    CacheStats, CacheTier, CachedChunk, DiskCounters, DiskStore, TieredChunkCache,
    DEFAULT_CACHE_SHARDS,
};
use agar_ec::{ChunkId, ChunkSet, ObjectId};
use agar_net::{RegionId, SimTime};
use agar_obs::{
    chrome_trace_json, Labels, MetricsRegistry, ReadTrace, StageHistograms, TraceBuffer,
};
use agar_store::Backend;
use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[path = "read.rs"]
pub(crate) mod read;

/// Per-read metrics every caching client in this workspace reports.
#[derive(Clone, Debug)]
pub struct ReadMetrics {
    /// The reconstructed object payload.
    pub data: Bytes,
    /// End-to-end read latency (client overhead included).
    pub latency: Duration,
    /// Chunks served from the local cache.
    pub cache_hits: usize,
    /// Successful backend chunk fetches issued for this read: the
    /// critical-path fetches, plus — on a hedged read — any straggler
    /// responses that arrived after the decode was already satisfied
    /// (issued work is issued work; the hedging budget counts it all).
    pub backend_fetches: usize,
    /// Chunks fetched off the critical path to fill the cache.
    pub fill_fetches: usize,
    /// Chunks served from a neighbour's cache (only a read given
    /// [`RemoteChunk`](crate::planner::RemoteChunk) offers has any).
    pub remote_hits: usize,
    /// Whether Reed-Solomon decoding was needed.
    pub decoded: bool,
}

/// The interface the experiment harness drives: Agar, the LRU/LFU
/// baselines and the cache-less backend client all implement it.
pub trait CachingClient: Send {
    /// Reads one object end to end.
    ///
    /// # Errors
    ///
    /// Propagates backend failures (e.g. too many regions down).
    fn read(&self, object: ObjectId) -> Result<ReadMetrics, AgarError>;

    /// Gives the client a chance to run its periodic reconfiguration.
    /// Returns whether a reconfiguration happened.
    fn maybe_reconfigure(&self, now: SimTime) -> bool;

    /// Snapshot of the cache statistics.
    fn cache_stats(&self) -> CacheStats;

    /// Actual cache contents grouped by object: object → cached chunk
    /// indices (Figure 10's raw data). Empty for cache-less clients.
    fn cache_contents(&self) -> BTreeMap<ObjectId, Vec<u8>>;

    /// Label for reports (e.g. `"Agar"`, `"LRU-3"`, `"Backend"`).
    fn label(&self) -> String;
}

/// Tunables for an [`AgarNode`] (defaults follow the paper's §V-A).
#[derive(Clone, Debug)]
pub struct AgarSettings {
    /// Cache capacity in bytes (paper default: 10 MB).
    pub cache_capacity_bytes: usize,
    /// Local cache chunk-read latency.
    pub cache_read: Duration,
    /// Fixed client-side overhead per object read.
    pub client_overhead: Duration,
    /// Maximum speculative hedge fetches (Δ) per read: race k+Δ
    /// distinct chunks and bind the first k arrivals. With `0` (the
    /// default) every request is needed and every arrival is bound —
    /// the same route, not a separate unhedged one.
    pub max_hedges: usize,
    /// Dispersion multiplier for hedge admission: a spare chunk is
    /// hedged only while its latency estimate stays within `hedge_z`
    /// mean-deviations of the slowest planned backend primary.
    pub hedge_z: f64,
    /// Disk-tier capacity in bytes. `0` (the default) attaches no disk
    /// tier: the epoch solves the paper's RAM-only knapsack and no read
    /// has a disk hit to price — the paper's RAM-only node.
    pub disk_capacity_bytes: usize,
    /// Modelled chunk-read latency of the local disk tier. Prices disk
    /// placements in the two-budget knapsack and disk hits in the
    /// read planner (between a RAM cache read and remote sources).
    pub disk_read: Duration,
    /// Modelled chunk-write latency of the local disk tier. Every
    /// disk write — a-priori fills and re-tier moves at the epoch, a
    /// write's update, a read's fill — runs off the critical path, so
    /// this only informs diagnostics and the experiment harness.
    pub disk_write: Duration,
    /// The paper's `populate` configuration. The epoch's solve is exact
    /// and reads none of it; it stays while `bench/src/deploy.rs` sets
    /// it.
    pub solver: KnapsackSolver,
    /// Per-request trace sampling: record a [`ReadTrace`] for every
    /// Nth read. `0` (the default) disables tracing entirely — the
    /// read path builds no trace, allocates nothing for telemetry
    /// and stays byte-identical to the untraced engine. Sampling is a
    /// deterministic counter, never a random draw, so traced runs
    /// remain reproducible per seed.
    pub trace_sample_every: u64,
    /// Retry budget for the read path: attempt cap, capped exponential
    /// backoff priced on the simulated clock, and a per-read deadline.
    /// The default reproduces the historical fixed 3-attempt loop
    /// exactly (zero backoff, no deadline — byte-identical).
    pub retry: RetryPolicy,
    /// Per-region circuit breaker policy. The default
    /// (`failure_threshold = 0`) disables the breaker and keeps the
    /// read path byte-identical to pre-breaker builds.
    pub breaker: BreakerPolicy,
}

impl AgarSettings {
    /// The paper's defaults with the given cache capacity.
    pub fn paper_default(cache_capacity_bytes: usize) -> Self {
        AgarSettings {
            cache_capacity_bytes,
            cache_read: Duration::from_millis(40),
            client_overhead: Duration::from_millis(100),
            max_hedges: 0,
            hedge_z: 3.0,
            disk_capacity_bytes: 0,
            disk_read: Duration::from_millis(150),
            disk_write: Duration::from_millis(250),
            solver: KnapsackSolver::new(),
            trace_sample_every: 0,
            retry: RetryPolicy::default(),
            breaker: BreakerPolicy::default(),
        }
    }

    fn validate(&self) -> Result<(), AgarError> {
        if !(self.hedge_z.is_finite() && self.hedge_z > 0.0) {
            return Err(AgarError::InvalidSetting {
                what: "hedge dispersion multiplier must be positive and finite",
            });
        }
        if self.disk_capacity_bytes > 0 && (self.disk_read.is_zero() || self.disk_write.is_zero()) {
            return Err(AgarError::InvalidSetting {
                what: "disk I/O latencies must be positive when the disk tier is enabled",
            });
        }
        if self.retry.max_attempts == 0 {
            return Err(AgarError::InvalidSetting {
                what: "retry policy must allow at least one attempt",
            });
        }
        if self.breaker.failure_threshold > 0 && self.breaker.cooldown.is_zero() {
            return Err(AgarError::InvalidSetting {
                what: "breaker cooldown must be positive when the breaker is enabled",
            });
        }
        Ok(())
    }
}

/// The reconfiguration clock behind [`CachingClient::maybe_reconfigure`]
/// (paper §V-A: 30 s epochs): when the current period started, `None`
/// until the first tick. The LFU-epoch baseline keeps the same clock.
#[derive(Debug, Default)]
pub(crate) struct EpochClock(Option<SimTime>);

impl EpochClock {
    const PERIOD: Duration = Duration::from_secs(30);

    /// Whether a whole period has elapsed at `now`. The first tick
    /// anchors the clock and a due one restarts it at `now`.
    pub(crate) fn tick(&mut self, now: SimTime) -> bool {
        let due = self
            .0
            .is_some_and(|start| now.saturating_duration_since(start) >= Self::PERIOD);
        if due || self.0.is_none() {
            self.0 = Some(now);
        }
        due
    }
}

/// Warm-up probes the region manager sends per region before the first
/// read.
const WARMUP_PROBES: usize = 3;

/// Warm-up probe payload in bytes: 100 kB, roughly one paper-scale
/// chunk.
const WARMUP_PROBE_BYTES: usize = 100_000;

/// Retained traces per node when sampling is on. A ring: the newest
/// traces win, and [`TraceBuffer::dropped`] records what scrolled out.
const TRACE_BUFFER_CAPACITY: usize = 4096;

/// Per-node tracing state, present only when
/// [`AgarSettings::trace_sample_every`] is non-zero — an absent layer
/// is the zero-cost path (one `Option` check per read).
///
/// Timestamps come from [`AgarNode::set_sim_now`], which harnesses
/// call as their simulated clock advances; the engine itself never
/// reads a wall clock, so trace dumps are byte-identical per seed.
#[derive(Debug)]
struct TraceLayer {
    /// Sample every Nth read (≥ 1).
    every: u64,
    /// Read sequence counter driving the deterministic sampler.
    seq: AtomicU64,
    /// Ring of completed traces.
    buffer: TraceBuffer,
    /// Per-stage latency histograms fed by every completed trace.
    stages: StageHistograms,
}

impl TraceLayer {
    fn new(every: u64) -> Self {
        TraceLayer {
            every: every.max(1),
            seq: AtomicU64::new(0),
            buffer: TraceBuffer::new(TRACE_BUFFER_CAPACITY),
            stages: StageHistograms::new(),
        }
    }

    /// Whether the next read is sampled (every Nth, starting with the
    /// first); advances the sampler.
    fn sampled(&self) -> bool {
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        n.is_multiple_of(self.every)
    }

    /// Files a completed read's trace into the ring and the stage
    /// histograms.
    fn record(&self, trace: ReadTrace) {
        self.stages.observe(&trace);
        self.buffer.record(trace);
    }
}

/// A per-region Agar deployment.
///
/// Thread-safe behind `&self`: every concern is locked independently
/// (see the module docs). Closed-loop simulated clients and real OS threads can
/// share one node, like the paper's YCSB clients sharing the region's
/// Agar instance.
pub struct AgarNode {
    region: RegionId,
    backend: Arc<Backend>,
    settings: AgarSettings,
    /// Node seed; combined with `ops` to derive per-operation RNGs.
    seed: u64,
    /// Monotonic operation counter for RNG derivation.
    ops: AtomicU64,
    cache: TieredChunkCache,
    monitor: Mutex<RequestMonitor>,
    region_manager: Mutex<RegionManager>,
    /// Immutable configuration snapshot, swapped at reconfiguration.
    config: RwLock<Arc<CacheConfiguration>>,
    /// Serialises whole reconfigurations (solve, swap, snapshot,
    /// transition, execute): overlapping `force_reconfigure` /
    /// `maybe_reconfigure` calls must not interleave their purge, move
    /// and fill steps. Readers never take it.
    reconfigure_serial: Mutex<()>,
    /// The reconfiguration clock. Its mutex guards only the decision
    /// of *whether* a period elapsed; it is released before the
    /// reconfiguration itself runs, so concurrent `maybe_reconfigure`
    /// callers neither block behind the a-priori chunk downloads nor
    /// double-trigger (the clock is advanced before the guard drops).
    epoch_clock: Mutex<EpochClock>,
    counters: NodeCounters,
    /// Per-region circuit breaker consulted by the planner. Disabled
    /// (stateless) under the default policy.
    breaker: CircuitBreaker,
    /// Latest harness-provided sim-clock instant in microseconds — the
    /// breaker's cooldown clock and the start stamp of sampled traces.
    sim_now_micros: AtomicU64,
    /// Strategy executing the plan's backend fetches. Defaults to
    /// per-chunk [`DirectFetcher`] calls; a cluster deployment swaps in
    /// its coordinator (single-flight + batching) via
    /// [`AgarNode::set_chunk_fetcher`].
    fetcher: RwLock<Arc<dyn ChunkFetcher>>,
    /// Per-request trace sampling state; `None` when
    /// [`AgarSettings::trace_sample_every`] is zero (the default) —
    /// the zero-cost path.
    trace: Option<TraceLayer>,
}

agar_obs::cell_table! {
    /// The node's own cells. Write-update chunks are the configured
    /// chunks a write left in the cache (see [`AgarNode::write`]);
    /// carried chunks are those of the live configuration's carried
    /// entries; retries are re-plans and version-race restarts beyond
    /// each read's first attempt; backoff is zero under the default
    /// retry policy; a degraded read re-planned *ungated* because
    /// breaker exclusions left fewer than k reachable chunks — degraded
    /// but served.
    pub struct NodeCounters {
        reconfigurations: Counter "agar_reconfigurations_total" []
            "Knapsack reconfigurations performed by this node.";
        fill_fetches: Counter "agar_fill_fetches_total" []
            "Off-critical-path cache fill fetches issued by this node.";
        write_update_chunks: Counter "agar_write_update_chunks_total" []
            "Configured chunks this node's writes left in its cache at the new version.";
        carried_chunks: Gauge "agar_config_carried_chunks" []
            "Disk-tier chunks the configuration carries for objects no solve names.";
        retries: Counter "agar_read_retries_total" []
            "Read re-plans and version-race restarts beyond first attempts.";
        retry_backoff_micros: Counter "agar_retry_backoff_micros_total" []
            "Exponential-backoff time charged to reads, simulated microseconds.";
        degraded_reads: Counter "agar_degraded_reads_total" []
            "Reads re-planned ungated because breaker exclusions left under k chunks.";
    }
}

impl AgarNode {
    /// Creates a node homed in `region`, warming up the region manager.
    ///
    /// # Errors
    ///
    /// Returns [`AgarError::InvalidSetting`] for a non-positive hedge
    /// multiplier, zero disk latencies with the disk tier enabled, a
    /// retry policy without attempts or an enabled breaker without a
    /// cooldown.
    pub fn new(
        region: RegionId,
        backend: Arc<Backend>,
        settings: AgarSettings,
        seed: u64,
    ) -> Result<Self, AgarError> {
        settings.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut region_manager = RegionManager::new(region, backend.topology().clone());
        region_manager.warm_up(
            backend.latency_model().as_ref(),
            WARMUP_PROBE_BYTES,
            WARMUP_PROBES,
            &mut rng,
        );
        let breaker = CircuitBreaker::new(settings.breaker, backend.topology().len());
        Ok(AgarNode {
            region,
            fetcher: RwLock::new(Arc::new(DirectFetcher::new(Arc::clone(&backend)))),
            backend,
            seed,
            ops: AtomicU64::new(0),
            cache: TieredChunkCache::with_disk(
                settings.cache_capacity_bytes,
                DEFAULT_CACHE_SHARDS,
                settings.disk_capacity_bytes,
            ),
            monitor: Mutex::new(RequestMonitor::new()),
            region_manager: Mutex::new(region_manager),
            config: RwLock::new(Arc::new(CacheConfiguration::empty())),
            reconfigure_serial: Mutex::new(()),
            epoch_clock: Mutex::new(EpochClock::default()),
            counters: NodeCounters::default(),
            breaker,
            sim_now_micros: AtomicU64::new(0),
            trace: (settings.trace_sample_every > 0)
                .then(|| TraceLayer::new(settings.trace_sample_every)),
            settings,
        })
    }

    /// Derives a fresh RNG for one operation: deterministic in
    /// operation order (bit-identical single-threaded runs), shared by
    /// no one (no lock on the fetch path).
    fn derive_rng(&self) -> StdRng {
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        StdRng::seed_from_u64(
            self.seed
                ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0xD1B5_4A32_D192_ED03),
        )
    }

    /// The node's home region.
    pub fn region(&self) -> RegionId {
        self.region
    }

    /// The current cache configuration (clone of the live snapshot).
    pub fn current_config(&self) -> CacheConfiguration {
        self.config.read().as_ref().clone()
    }

    /// Number of reconfigurations performed.
    pub fn reconfigurations(&self) -> u64 {
        self.counters.reconfigurations.get()
    }

    /// Snapshot of the popularity table (diagnostics).
    pub fn popularity_snapshot(&self) -> Vec<(ObjectId, f64)> {
        self.monitor.lock().popularities()
    }

    /// Current latency estimates indexed by region.
    pub fn latency_estimates(&self) -> Vec<Duration> {
        self.region_manager.lock().estimates().to_vec()
    }

    /// Immediately recomputes the configuration from current statistics
    /// (closing the monitoring epoch), regardless of the period.
    pub fn force_reconfigure(&self) {
        self.reconfigure();
    }

    /// Swaps the strategy executing backend fetches. A cluster
    /// deployment installs its fetch coordinator here so concurrent
    /// readers of one chunk share a single in-flight fetch and
    /// same-region chunks travel in one batched round trip; the
    /// default is per-chunk [`DirectFetcher`] calls. Takes effect for
    /// subsequent reads (in-flight reads keep the fetcher they
    /// started with).
    pub fn set_chunk_fetcher(&self, fetcher: Arc<dyn ChunkFetcher>) {
        *self.fetcher.write() = fetcher;
    }

    /// Drops every cached chunk of `object` from both tiers and returns
    /// how many were cached: one visit to each tier
    /// ([`TieredChunkCache::remove_object`], n hash probes a tier), never
    /// a scan of the cache. A write drops the older version this way,
    /// and a cluster router invalidates the other members' copies with
    /// it.
    pub fn invalidate_object(&self, object: ObjectId) -> usize {
        let total = self.backend.params().total_chunks() as u8;
        self.cache.remove_object(object, 0..total).len()
    }

    /// Writes an object through the backend and leaves the chunks the
    /// configuration names behind: a **write-update** (see the module
    /// docs). Once the backend acknowledges version v the object's
    /// older chunks are dropped and, for an object a solve placed,
    /// exactly `chunks_for(object)` are inserted at v into the tiers
    /// the configuration names — the RAM ones in place of the old
    /// version in one visit to the object's shard
    /// ([`TieredChunkCache::replace_object`]), so a racing read finds
    /// all of the old chunks or all of the new ones — out of the shards
    /// the put just encoded ([`ObjectPut::shards`](agar_store::ObjectPut), no
    /// backend traffic), so the next read of a hot object is the hit
    /// it was before the write. An object the configuration does not
    /// name, or only carries, keeps nothing; a failed put changes
    /// nothing. Other nodes' copies are the cluster router's to
    /// invalidate.
    ///
    /// # Errors
    ///
    /// Propagates backend write failures.
    pub fn write(&self, object: ObjectId, data: &[u8]) -> Result<(u64, Duration), AgarError> {
        let mut rng = self.derive_rng();
        let put = self
            .backend
            .put_object(self.region, object, data, &mut rng)?;
        let config = Arc::clone(&self.config.read());
        // A carried entry is what the cache still held of an object no
        // solve names: a write removes it everywhere, as it always did.
        let configured = if config.is_carried(object) {
            &[][..]
        } else {
            config.chunks_for(object)
        };
        let chunk = |index: u8| CachedChunk::new(put.shards[index as usize].clone(), put.version);
        // The chunks the live configuration puts in RAM replace the old
        // version in one visit to the object's shard, so a read racing
        // this write finds all of the old chunks or all of the new ones;
        // they are revalidated as `insert_revalidated` revalidates.
        let in_ram = |index| {
            let live = self.config.read();
            live.tier_for(ChunkId::new(object, index)) == Some(CacheTier::Ram)
        };
        let ram: Vec<(u8, CachedChunk)> = configured
            .iter()
            .filter(|&&index| in_ram(index))
            .map(|&index| (index, chunk(index)))
            .collect();
        let total = self.backend.params().total_chunks() as u8;
        let mut placed = 0;
        for index in self.cache.replace_object(object, total, ram).iter() {
            if in_ram(index) {
                placed += 1;
            } else {
                self.cache.remove(&ChunkId::new(object, index));
            }
        }
        for &index in configured.iter().filter(|&&index| !in_ram(index)) {
            let id = ChunkId::new(object, index);
            placed += u64::from(self.insert_revalidated(id, chunk(index)));
        }
        self.counters.write_update_chunks.add(placed);
        Ok((put.version, put.latency))
    }

    /// The one placer: every configured chunk that enters the cache or
    /// changes tier — a write's update (its RAM chunks a whole object
    /// at a time, revalidated the same way), a read's fill, a
    /// reconfiguration's moves and a-priori downloads — goes through
    /// here. Inserts the chunk into the tier the live configuration
    /// names and revalidates: the caller chose the chunk from a
    /// configuration *snapshot*, a reconfiguration may swap the live one
    /// at any point, and its purge and re-tier may already have run, so
    /// a chunk the live configuration no longer names in that tier is
    /// swept here (a swap after the check is followed by the
    /// reconfiguration's own purge and re-tier). Returns whether the
    /// chunk is in the cache because of this call — not if the
    /// configuration does not name it, the cache refused it (larger
    /// than the tier, or older than the resident chunk) or the sweep
    /// took it.
    fn insert_revalidated(&self, id: ChunkId, chunk: CachedChunk) -> bool {
        let Some(tier) = self.config.read().tier_for(id) else {
            return false;
        };
        if !self.cache.insert_to_tier(id, chunk, tier) {
            return false;
        }
        if self.config.read().tier_for(id) != Some(tier) {
            self.cache.remove(&id);
            return false;
        }
        true
    }

    /// Advances the node's notion of the simulated clock: the circuit
    /// breaker's cooldown clock and — when tracing is on — the
    /// timestamp for sampled [`ReadTrace`]s. Harnesses call this as
    /// their discrete-event clock ticks.
    pub fn set_sim_now(&self, now: SimTime) {
        self.sim_now_micros
            .store(now.as_micros(), Ordering::Relaxed);
    }

    /// The per-region circuit breaker (disabled and stateless under
    /// the default policy).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// The node's own cells (see [`NodeCounters`]).
    pub fn counters(&self) -> &NodeCounters {
        &self.counters
    }

    /// Re-plans and version-race restarts beyond first attempts.
    pub fn retries(&self) -> u64 {
        self.counters.retries.get()
    }

    /// Reads served by an ungated re-plan after breaker exclusions
    /// left fewer than k reachable chunks.
    pub fn degraded_reads(&self) -> u64 {
        self.counters.degraded_reads.get()
    }

    /// The sampled traces currently retained in the node's ring
    /// buffer, oldest first (empty with tracing off).
    pub fn trace_snapshot(&self) -> Vec<ReadTrace> {
        self.trace
            .as_ref()
            .map_or_else(Vec::new, |trace| trace.buffer.snapshot())
    }

    /// Traces evicted from the ring since the node was built (0 with
    /// tracing off).
    pub fn traces_dropped(&self) -> u64 {
        self.trace
            .as_ref()
            .map_or(0, |trace| trace.buffer.dropped())
    }

    /// The retained traces rendered as a chrome://tracing JSON
    /// document (load in `chrome://tracing` or Perfetto); `None` with
    /// tracing off.
    pub fn trace_chrome_json(&self) -> Option<String> {
        self.trace
            .as_ref()
            .map(|trace| chrome_trace_json(&trace.buffer.snapshot()))
    }

    /// Late-binds this node's telemetry into `registry` under `base`
    /// labels by walking its tables in order: the tiered cache's (see
    /// [`TieredChunkCache::register_metrics`]), the node's own
    /// [`NodeCounters`], the breaker's, and — when tracing is on — the
    /// per-stage read latency histograms.
    pub fn register_metrics(&self, registry: &MetricsRegistry, base: &Labels) {
        self.cache.register_metrics(registry, base);
        self.counters.register_with(registry, base);
        self.breaker.counters().register_with(registry, base);
        if let Some(trace) = &self.trace {
            trace.stages.register_with(registry, base);
        }
    }

    /// Looks a chunk up in the local cache at `version` without touching
    /// recency metadata, statistics or tier placement; returns the
    /// payload and the tier holding it. A chunk older than `version` is
    /// dropped, as every versioned lookup drops it. One RAM visit per
    /// call: a caller asking about several chunks of one object takes
    /// one with [`AgarNode::offer_object`].
    pub fn peek_chunk_tier(&self, chunk: &ChunkId, version: u64) -> Option<(Bytes, CacheTier)> {
        let mut found = None;
        let index = chunk.index().value();
        self.cache
            .lookup_object(chunk.object(), [index], version, false, |_, chunk, tier| {
                found = Some((chunk.data().clone(), tier));
            });
        found
    }

    /// The chunks of `object` the local cache holds at `version`, as
    /// [`AgarNode::peek_chunk_tier`] would find them for each index of
    /// `indices`, with one visit to the object's RAM shard and at most
    /// one disk visit: calls `found` with `(index, payload, tier)` for
    /// each. A cluster router turns these into neighbour offers,
    /// pricing a disk-resident one with the owner's disk-read penalty
    /// on top of the transfer cost. No recency update and no
    /// statistics. No placement change either, with the one exception
    /// every versioned lookup makes: a chunk older than `version` is
    /// dropped.
    pub fn offer_object(
        &self,
        object: ObjectId,
        version: u64,
        indices: ChunkSet,
        mut found: impl FnMut(u8, Bytes, CacheTier),
    ) {
        self.cache
            .lookup_object(object, indices.iter(), version, false, |i, c, tier| {
                found(i, c.data().clone(), tier);
            });
    }

    /// The chunks of `object` the RAM tier holds at `version`: the RAM
    /// tier's versioned lookup, one visit to the object's shard (no
    /// recency update, no statistics, no payload clone, no disk read;
    /// an older chunk is dropped). A cluster router gathers no
    /// neighbour offers for these: the home's own RAM hit is free.
    pub fn held_in_ram(&self, object: ObjectId, version: u64) -> ChunkSet {
        let total = self.backend.params().total_chunks() as u8;
        let mut held = ChunkSet::new();
        self.cache
            .ram()
            .lookup_object(object, 0..total, version, false, |index, _| {
                held.insert(index);
            });
        held
    }

    /// Shard lock acquisitions the RAM tier has counted so far (see
    /// [`ShardedChunkCache::lock_visits`](agar_cache::ShardedChunkCache::lock_visits)):
    /// a fully cached read adds one.
    pub fn cache_lock_visits(&self) -> u64 {
        self.cache.ram().lock_visits()
    }

    /// Every tier that holds a copy of `chunk`, with the version of
    /// that copy (no recency update, no statistics, no disk read).
    /// Placement keeps a chunk in one tier, so this is empty or one
    /// entry; it exists so tests can check exactly that from outside.
    pub fn chunk_residency(&self, chunk: &ChunkId) -> Vec<(CacheTier, u64)> {
        let in_ram = self.cache.ram().version_of(chunk);
        let on_disk = self.cache.disk().and_then(|disk| disk.version_of(chunk));
        [(CacheTier::Ram, in_ram), (CacheTier::Disk, on_disk)]
            .into_iter()
            .filter_map(|(tier, version)| Some((tier, version?)))
            .collect()
    }

    /// Bytes the RAM tier and the disk log hold right now (the disk
    /// figure counts dead frames too and is 0 without a disk tier):
    /// what [`AgarSettings::cache_capacity_bytes`] and
    /// [`AgarSettings::disk_capacity_bytes`] bound.
    pub fn cached_bytes(&self) -> (usize, usize) {
        (self.cache.used_bytes(), self.cache.disk_used_bytes())
    }

    /// The node's settings (read-only).
    pub fn settings(&self) -> &AgarSettings {
        &self.settings
    }

    /// The disk tier's backing segment files (empty without a disk
    /// tier). Exposed so corruption-tolerance tests can damage the
    /// store underneath a live node.
    pub fn disk_segment_paths(&self) -> Vec<std::path::PathBuf> {
        self.cache
            .disk()
            .map_or_else(Vec::new, |disk| disk.segment_paths())
    }

    /// The disk tier's cells (`None` without a disk tier). Appended
    /// bytes count every disk-tier placement (a-priori fill, re-tier
    /// move, write-update, read fill) plus what the log's cleaner copied
    /// forward; serving a read adds none but its read calls.
    pub fn disk_counters(&self) -> Option<&DiskCounters> {
        self.cache.disk().map(DiskStore::counters)
    }

    /// Disk-tier frames that failed verification and degraded to
    /// misses (0 without a disk tier).
    pub fn disk_corrupt_frames(&self) -> u64 {
        self.disk_counters()
            .map_or(0, |disk| disk.corrupt_frames.get())
    }

    /// **Solve**: closes the monitoring epoch and recomputes the
    /// configuration. The solve is handed the outgoing configuration,
    /// so objects it no longer names keep their cached chunks as carried
    /// disk-tier entries while the disk budget has room. Only this step
    /// holds the monitor and region-manager locks.
    fn solve(&self) -> CacheConfiguration {
        let previous = Arc::clone(&self.config.read());
        let mut monitor = self.monitor.lock();
        monitor.end_epoch();
        let region_manager = self.region_manager.lock();
        cache_manager::solve(
            &self.settings,
            &monitor,
            &region_manager,
            &self.backend,
            &previous,
            |id| self.cache.contains(&id),
        )
    }

    /// Reconfigures: solve → swap → snapshot → transition → execute.
    /// The decision is [`CacheConfiguration::transition`], a pure
    /// function of the new configuration and one snapshot of what is
    /// cached; this function carries it out in a fixed order. Chunks
    /// the configuration does not name leave the cache. Cached chunks
    /// it placed in the other tier move there (a read serves a disk hit
    /// in place, so nothing else moves a chunk between tiers), down
    /// before up: that frees the RAM the knapsack counted on for the
    /// chunks it moved up and for the fills. Then every chunk a solve
    /// placed is downloaded *a priori* if it is missing (§IV-A:
    /// "caching items implies downloading them a priori") — off the
    /// clients' critical path; a carried entry is whatever the cache
    /// still holds of it, never backend traffic.
    ///
    /// Two orderings are load-bearing. The snapshot is taken **after**
    /// the swap: a reader's fill that raced the swap sweeps itself only
    /// when it revalidates against the new configuration, so whatever
    /// it placed before that must be in the snapshot to be purged. And
    /// the downloads test presence **live**, not against the snapshot:
    /// the moves before them can overflow a full disk log, and the
    /// chunks its cleaner drops are due in this pass, not the next.
    ///
    /// On return every cached chunk sits in exactly one tier, the one
    /// the configuration names; reads never change that. The moves and
    /// downloads hold only the reconfiguration-serialising mutex, which
    /// readers never take; under it the live configuration *is* the new
    /// one, so they go through the same revalidating insert as a read's
    /// fill and a write without losing anything to it.
    fn reconfigure(&self) {
        // Overlapping reconfigurations must not interleave swap, purge
        // and fill (a stale purge running after a newer swap would
        // evict the newer configuration's chunks).
        let _serial = self.reconfigure_serial.lock();
        let config = Arc::new(self.solve());
        self.counters
            .carried_chunks
            .set(u64::from(config.carried_chunks()));
        *self.config.write() = Arc::clone(&config);
        let plan = config.transition(&self.cache.residency());
        for id in &plan.purge {
            self.cache.remove(id);
        }
        for &id in plan.down.iter().chain(&plan.up) {
            let Some((chunk, _)) = self.cache.peek(&id) else {
                continue; // invalidated or evicted meanwhile
            };
            self.insert_revalidated(id, chunk);
        }
        // The a-priori downloads are the read path's fill stage with
        // nothing in hand: they flow through the installed fetcher, so
        // under a cluster they coalesce with concurrent critical-path
        // reads of the same chunks. A fill that overflows the disk log
        // makes its cleaner drop frames, solved chunks of objects this
        // loop already passed among them. A second pass downloads those
        // now instead of after an epoch of partial hits; the cleaner
        // frees at least the room of the frames it loses, so that pass
        // fits unless the victim was all live, and it is the last
        // either way.
        let fetcher = Arc::clone(&self.fetcher.read());
        let mut rng = self.derive_rng();
        let lost = &self.cache.counters().disk_evictions;
        for _pass in 0..2 {
            let lost_before = lost.get();
            for &object in &plan.ensure {
                if let Ok(manifest) = self.backend.manifest(object) {
                    let solved = config.chunks_for(object);
                    self.fill(&*fetcher, &manifest, solved, &[], &mut rng);
                }
            }
            if lost.get() == lost_before {
                break;
            }
        }
        self.counters.reconfigurations.inc();
    }
}

impl CachingClient for AgarNode {
    fn read(&self, object: ObjectId) -> Result<ReadMetrics, AgarError> {
        self.read_with_offers(object, &[])
    }

    fn maybe_reconfigure(&self, now: SimTime) -> bool {
        let due = self.epoch_clock.lock().tick(now);
        if due {
            self.reconfigure();
        }
        due
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn cache_contents(&self) -> BTreeMap<ObjectId, Vec<u8>> {
        let mut out: BTreeMap<ObjectId, Vec<u8>> = BTreeMap::new();
        for (id, _) in self.cache.residency() {
            out.entry(id.object()).or_default().push(id.index().value());
        }
        for chunks in out.values_mut() {
            chunks.sort_unstable();
            chunks.dedup(); // a move in flight is in both tiers
        }
        out
    }

    fn label(&self) -> String {
        "Agar".to_string()
    }
}

impl std::fmt::Debug for AgarNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgarNode")
            .field("region", &self.region)
            .field("cache_used", &self.cache.used_bytes())
            .field("config_chunks", &self.config.read().total_chunks())
            .field("reconfigurations", &self.reconfigurations())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_ec::CodingParams;
    use agar_net::presets::{aws_six_regions, FRANKFURT};
    use agar_net::MatrixLatency;
    use agar_store::{expected_payload, populate, RoundRobin};

    pub(super) fn test_backend(objects: u64, size: usize) -> Arc<Backend> {
        test_backend_coded(CodingParams::paper_default(), objects, size)
    }

    pub(super) fn test_backend_coded(
        params: CodingParams,
        objects: u64,
        size: usize,
    ) -> Arc<Backend> {
        backend_with(aws_six_regions().latency, params, objects, size)
    }

    fn backend_with(
        latency: MatrixLatency,
        params: CodingParams,
        objects: u64,
        size: usize,
    ) -> Arc<Backend> {
        let backend = Backend::new(
            aws_six_regions().topology,
            Arc::new(latency),
            params,
            Box::new(RoundRobin),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        populate(&backend, objects, size, &mut rng).unwrap();
        Arc::new(backend)
    }

    fn test_node(backend: Arc<Backend>, cache_bytes: usize) -> AgarNode {
        AgarNode::new(
            FRANKFURT,
            backend,
            AgarSettings::paper_default(cache_bytes),
            7,
        )
        .unwrap()
    }

    #[test]
    fn cold_reads_return_correct_data() {
        let backend = test_backend(5, 900);
        let node = test_node(backend, 1_000);
        for i in 0..5 {
            let metrics = node.read(ObjectId::new(i)).unwrap();
            assert_eq!(metrics.data.as_ref(), expected_payload(i, 900).as_slice());
            assert_eq!(metrics.cache_hits, 0, "cold cache");
            assert_eq!(metrics.backend_fetches, 9);
        }
    }

    #[test]
    fn reconfiguration_enables_cache_hits_and_cuts_latency() {
        let backend = test_backend(5, 900);
        // Cache fits 9 chunks of 100 bytes: one full object.
        let node = test_node(backend, 900);
        let object = ObjectId::new(0);
        let cold = node.read(object).unwrap();
        for _ in 0..20 {
            node.read(object).unwrap();
        }
        node.force_reconfigure();
        // The reconfiguration downloads the configured chunks a priori,
        // so the very next read already hits.
        let warm = node.read(object).unwrap();
        assert!(
            warm.cache_hits > 0,
            "expected cache hits after reconfiguration"
        );
        assert!(
            warm.latency < cold.latency,
            "warm {:?} vs cold {:?}",
            warm.latency,
            cold.latency
        );
        assert_eq!(warm.data.as_ref(), expected_payload(0, 900).as_slice());
    }

    #[test]
    fn maybe_reconfigure_respects_period() {
        let backend = test_backend(3, 900);
        let node = test_node(backend, 900);
        node.read(ObjectId::new(0)).unwrap();
        // First call only anchors the clock.
        assert!(!node.maybe_reconfigure(SimTime::from_secs(0)));
        assert!(!node.maybe_reconfigure(SimTime::from_secs(29)));
        assert!(node.maybe_reconfigure(SimTime::from_secs(30)));
        assert_eq!(node.reconfigurations(), 1);
        assert!(!node.maybe_reconfigure(SimTime::from_secs(31)));
        assert!(node.maybe_reconfigure(SimTime::from_secs(61)));
        assert_eq!(node.reconfigurations(), 2);
    }

    #[test]
    fn config_changes_evict_stale_objects() {
        let backend = test_backend(4, 900);
        let node = test_node(backend, 900); // one object's worth

        // Make object 0 hot, reconfigure, warm it.
        for _ in 0..50 {
            node.read(ObjectId::new(0)).unwrap();
        }
        node.force_reconfigure();
        node.read(ObjectId::new(0)).unwrap();
        assert!(node.cache_contents().contains_key(&ObjectId::new(0)));

        // Popularity flips to object 1 (several epochs so the EWMA
        // decays object 0 to irrelevance).
        for _ in 0..3 {
            for _ in 0..200 {
                node.read(ObjectId::new(1)).unwrap();
            }
            node.force_reconfigure();
        }
        // Object 1 now owns (almost) the whole cache. Object 0 may keep
        // at most one free-rider chunk: with the tiny test chunks the
        // local region reads faster than the cache constant, so the 9th
        // chunk of object 1 adds zero marginal value and the solver may
        // legitimately hand that slot to object 0.
        let contents = node.cache_contents();
        assert!(contents[&ObjectId::new(1)].len() >= 8, "{contents:?}");
        let obj0_chunks = contents
            .get(&ObjectId::new(0))
            .map_or(0, |chunks| chunks.len());
        assert!(
            obj0_chunks <= 1,
            "object 0 should have shrunk: {contents:?}"
        );
    }

    #[test]
    fn stale_cached_versions_are_dropped_on_read() {
        let backend = test_backend(2, 900);
        let node = test_node(Arc::clone(&backend), 1_800);
        let object = ObjectId::new(0);
        for _ in 0..30 {
            node.read(object).unwrap();
        }
        node.force_reconfigure();
        node.read(object).unwrap(); // fill cache at version 1

        // Write behind the node's back (another region's client).
        let mut rng = StdRng::seed_from_u64(1);
        let payload = vec![9u8; 900];
        backend
            .put_object(FRANKFURT, object, &payload, &mut rng)
            .unwrap();

        // Version check rejects the stale chunks; data is fresh.
        let metrics = node.read(object).unwrap();
        assert_eq!(metrics.cache_hits, 0, "stale chunks must not count as hits");
        assert_eq!(metrics.data.as_ref(), payload.as_slice());
    }

    #[test]
    fn failure_adaptation_resteers_reads() {
        let backend = test_backend(2, 900);
        let node = test_node(Arc::clone(&backend), 900);
        let object = ObjectId::new(0);
        node.read(object).unwrap();
        // São Paulo (region 3) fails; planning routes around it (its two
        // chunks are replaced by Tokyo's pair and one Sydney chunk) and
        // reads keep succeeding with correct data.
        backend.fail_region(agar_net::presets::SAO_PAULO);
        let metrics = node.read(object).unwrap();
        assert_eq!(metrics.data.as_ref(), expected_payload(0, 900).as_slice());
        assert_eq!(metrics.backend_fetches, 9);
        // Healing restores the original plan.
        backend.heal_region(agar_net::presets::SAO_PAULO);
        let metrics = node.read(object).unwrap();
        assert_eq!(metrics.data.as_ref(), expected_payload(0, 900).as_slice());
    }

    #[test]
    fn hedged_reads_return_correct_data_and_count_hedges() {
        let backend = test_backend(3, 900);
        let mut settings = AgarSettings::paper_default(900);
        settings.max_hedges = 2;
        let node = AgarNode::new(FRANKFURT, backend, settings, 7).unwrap();
        for i in 0..3 {
            let metrics = node.read(ObjectId::new(i)).unwrap();
            assert_eq!(metrics.data.as_ref(), expected_payload(i, 900).as_slice());
            assert!(
                metrics.backend_fetches >= 9,
                "hedged cold reads issue at least k fetches"
            );
        }
        let stats = node.cache_stats();
        // The jittered preset seeds nonzero deviations, so at least the
        // equal-estimate spare chunk is hedged on every cold read; with
        // no failures every hedge ends as a win or leaves an equally
        // priced straggler cancelled.
        assert!(stats.hedged_requests() > 0);
        assert_eq!(stats.hedged_requests(), stats.hedges_cancelled());
        assert!(stats.hedge_wins() <= stats.hedged_requests());
    }

    #[test]
    fn zero_hedges_is_byte_identical_to_the_unhedged_engine() {
        // Two fresh nodes, same seed: one built before hedging existed
        // (defaults) and one with hedging explicitly disabled must
        // produce identical latency sequences and identical stats.
        let run = |settings: AgarSettings| {
            let backend = test_backend(4, 900);
            let node = AgarNode::new(FRANKFURT, backend, settings, 7).unwrap();
            let mut latencies = Vec::new();
            for round in 0..12 {
                let metrics = node.read(ObjectId::new(round % 4)).unwrap();
                latencies.push(metrics.latency);
            }
            node.force_reconfigure();
            for round in 0..12 {
                let metrics = node.read(ObjectId::new(round % 4)).unwrap();
                latencies.push(metrics.latency);
            }
            (latencies, node.cache_stats())
        };
        let (default_latencies, default_stats) = run(AgarSettings::paper_default(1_800));
        let mut disabled = AgarSettings::paper_default(1_800);
        disabled.max_hedges = 0;
        disabled.hedge_z = 1.0;
        let (disabled_latencies, disabled_stats) = run(disabled);
        assert_eq!(default_latencies, disabled_latencies);
        assert_eq!(default_stats, disabled_stats);
        assert_eq!(default_stats.hedged_requests(), 0);
    }

    #[test]
    fn tracing_is_passive_and_byte_identical_to_the_untraced_engine() {
        // Two fresh nodes, same seed: one untraced (defaults) and one
        // tracing every read. Tracing is passive scratch — no RNG
        // draws, no counters — so latencies and stats must match
        // exactly, and only the traced node retains traces.
        let run = |settings: AgarSettings| {
            let backend = test_backend(4, 900);
            let node = AgarNode::new(FRANKFURT, backend, settings, 7).unwrap();
            let mut latencies = Vec::new();
            for round in 0..12 {
                node.set_sim_now(SimTime::from_millis(round * 250));
                let metrics = node.read(ObjectId::new(round % 4)).unwrap();
                latencies.push(metrics.latency);
            }
            node.force_reconfigure();
            for round in 0..12 {
                let metrics = node.read(ObjectId::new(round % 4)).unwrap();
                latencies.push(metrics.latency);
            }
            (latencies, node.cache_stats(), node.trace_snapshot())
        };
        let (untraced_latencies, untraced_stats, untraced_traces) =
            run(AgarSettings::paper_default(1_800));
        let mut traced = AgarSettings::paper_default(1_800);
        traced.trace_sample_every = 1;
        let (traced_latencies, traced_stats, traces) = run(traced);
        assert_eq!(untraced_latencies, traced_latencies);
        assert_eq!(untraced_stats, traced_stats);
        assert!(untraced_traces.is_empty(), "tracing off retains nothing");
        assert_eq!(traces.len(), 24, "every read sampled");
        // Traces carry the modelled stage decomposition: the end of
        // the fetch span never exceeds the total read latency.
        for (trace, latency) in traces.iter().zip(&traced_latencies) {
            assert_eq!(trace.outcome.total, *latency);
            assert!(trace.spans.iter().all(|s| s.duration <= *latency));
        }
        // Timestamps follow the harness-set sim clock.
        assert_eq!(traces[3].start, SimTime::from_millis(750));
    }

    #[test]
    fn trace_sampling_knob_is_deterministic() {
        let backend = test_backend(4, 900);
        let mut settings = AgarSettings::paper_default(1_800);
        settings.trace_sample_every = 3;
        let node = AgarNode::new(FRANKFURT, backend, settings, 7).unwrap();
        for round in 0..9 {
            node.read(ObjectId::new(round % 4)).unwrap();
        }
        // Reads 0, 3 and 6 are sampled: a counter, not a random draw.
        assert_eq!(node.trace_snapshot().len(), 3);
        assert_eq!(node.traces_dropped(), 0);
        let json = node.trace_chrome_json().expect("tracing is on");
        assert!(json.starts_with("{\"traceEvents\":["));
    }

    #[test]
    fn node_metrics_registration_exposes_live_counters() {
        let backend = test_backend(2, 900);
        let mut settings = AgarSettings::paper_default(1_800);
        settings.trace_sample_every = 1;
        let node = AgarNode::new(FRANKFURT, backend, settings, 7).unwrap();
        let registry = MetricsRegistry::new();
        node.register_metrics(&registry, &Labels::new().with("region", "Frankfurt"));
        for _ in 0..5 {
            node.read(ObjectId::new(0)).unwrap();
        }
        node.force_reconfigure();
        node.read(ObjectId::new(0)).unwrap();
        let text = registry.render_prometheus();
        assert!(text.contains("agar_object_reads_total{region=\"Frankfurt\",result=\"miss\"}"));
        assert!(text.contains("agar_reconfigurations_total{region=\"Frankfurt\"} 1"));
        assert!(
            text.contains("agar_read_stage_seconds_bucket{region=\"Frankfurt\",stage=\"fetch\""),
            "stage histograms registered: {text}"
        );
        // The registry scrapes the live cells: counts recorded after
        // registration are visible.
        let snap = node.cache_stats();
        assert!(snap.object_reads() >= 6);
        assert!(text.contains(&format!(
            "agar_decode_systematic_fast_total{{region=\"Frankfurt\"}} {}",
            snap.systematic_fast_reads()
        )));
    }

    #[test]
    fn invalid_settings_rejected() {
        let backend = test_backend(1, 900);
        let mut settings = AgarSettings::paper_default(900);
        settings.hedge_z = 0.0;
        assert!(matches!(
            AgarNode::new(FRANKFURT, Arc::clone(&backend), settings, 0),
            Err(AgarError::InvalidSetting { .. })
        ));
        let mut settings = AgarSettings::paper_default(900);
        settings.disk_capacity_bytes = 10_000;
        settings.disk_read = Duration::ZERO;
        assert!(matches!(
            AgarNode::new(FRANKFURT, Arc::clone(&backend), settings, 0),
            Err(AgarError::InvalidSetting { .. })
        ));
        let mut settings = AgarSettings::paper_default(900);
        settings.disk_capacity_bytes = 10_000;
        settings.disk_write = Duration::ZERO;
        assert!(matches!(
            AgarNode::new(FRANKFURT, backend, settings, 0),
            Err(AgarError::InvalidSetting { .. })
        ));
    }

    #[test]
    fn hit_ratio_accounting_counts_partial_hits() {
        let backend = test_backend(2, 900);
        // Cache fits 5 chunks only: partial caching of one object.
        let node = test_node(backend, 500);
        let object = ObjectId::new(0);
        for _ in 0..30 {
            node.read(object).unwrap();
        }
        node.force_reconfigure();
        node.read(object).unwrap(); // fill
        node.read(object).unwrap(); // partial hit
        let stats = node.cache_stats();
        assert!(stats.object_partial_hits() > 0);
        assert!(stats.object_hit_ratio() > 0.0);
    }

    /// Settings for a tiered node: RAM fits one object, disk fits
    /// three more, and the disk is fast enough (45 ms, just over the
    /// 40 ms cache constant) to beat every non-local region.
    fn tiered_settings(ram_bytes: usize, disk_bytes: usize) -> AgarSettings {
        let mut settings = AgarSettings::paper_default(ram_bytes);
        settings.disk_capacity_bytes = disk_bytes;
        settings.disk_read = Duration::from_millis(45);
        settings.disk_write = Duration::from_millis(60);
        settings
    }

    #[test]
    fn disk_tier_extends_the_catalogue_beyond_ram() {
        let backend = test_backend(4, 900);
        // RAM: 9 chunks (one object). Disk: 27 chunks (three more).
        let node = AgarNode::new(FRANKFURT, backend, tiered_settings(900, 2_700), 7).unwrap();
        for _ in 0..20 {
            for i in 0..4 {
                node.read(ObjectId::new(i)).unwrap();
            }
        }
        node.force_reconfigure();
        let config = node.current_config();
        assert!(config.ram_chunks() > 0, "RAM budget unused: {config:?}");
        assert!(config.disk_chunks() > 0, "disk budget unused: {config:?}");

        // Every object reads correctly, and reads of disk-configured
        // objects count their disk-sourced chunks as local cache hits.
        let mut disk_served_hits = 0;
        for i in 0..4 {
            let metrics = node.read(ObjectId::new(i)).unwrap();
            assert_eq!(metrics.data.as_ref(), expected_payload(i, 900).as_slice());
            let object = ObjectId::new(i);
            if !config.disk_chunks_for(object).is_empty() && metrics.cache_hits > 0 {
                disk_served_hits += 1;
            }
        }
        assert!(disk_served_hits > 0, "no disk-configured object hit");
        let stats = node.cache_stats();
        assert!(stats.disk_hits() > 0, "disk tier never served: {stats:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The exact pricing oracle with a disk tier. With a jitter-free
        /// latency matrix (every sample is its mean), no hedging and no
        /// faults, a read of an object the solve placed wholly in the
        /// cache — in RAM, on disk, or split between them — costs exactly
        /// its joint option's expected latency plus the client overhead:
        /// the solve's price and the read's are one rule.
        #[test]
        fn a_wholly_configured_read_costs_its_joint_options_latency(
            millis in proptest::collection::vec(5u64..400, 36),
            disk_read_ms in 20u64..200,
            ram_objects in 0usize..4,
            disk_frames in 0usize..60,
        ) {
            let matrix = millis
                .chunks(6)
                .map(|row| row.iter().map(|&ms| ms as f64).collect())
                .collect();
            let latency = MatrixLatency::from_millis(matrix).unwrap();
            let backend = backend_with(latency, CodingParams::paper_default(), 8, 900);
            let mut settings = tiered_settings(ram_objects * 900, disk_frames * FRAME);
            settings.disk_read = Duration::from_millis(disk_read_ms);
            let node = AgarNode::new(FRANKFURT, Arc::clone(&backend), settings, 7).unwrap();
            for i in 0..8u64 {
                for _ in 0..(8 - i) * 3 {
                    node.read(ObjectId::new(i)).unwrap();
                }
            }
            node.force_reconfigure();
            let config = node.current_config();
            let settings = node.settings();
            for object in config.objects() {
                if config.chunks_for(object).len() < 9 {
                    continue;
                }
                let on_disk = config.disk_chunks_for(object).len() as u32;
                let split = (9 - on_disk, on_disk);
                let options = crate::options::generate_tiered_options(
                    &backend.manifest(object).unwrap(),
                    &node.latency_estimates(),
                    settings.cache_read,
                    settings.disk_read,
                    1.0,
                );
                let metrics = node.read(object).unwrap();
                proptest::prop_assert_eq!(metrics.cache_hits, 9, "{:?} {:?}", object, split);
                proptest::prop_assert_eq!(
                    metrics.latency,
                    settings.client_overhead + options.expected_latency(split.0, split.1),
                    "{:?} {:?}", object, split
                );
            }
        }
    }

    /// The placement invariant: every cached chunk sits in exactly one
    /// tier, the one the configuration names, every configured chunk is
    /// cached (a carried entry names what was cached when it was
    /// carried, so this holds for it until the log drops a frame), and
    /// both byte budgets hold.
    fn assert_placement(node: &AgarNode, backend: &Backend, epoch: u64) {
        let config = node.current_config();
        let cached = node.cache.residency();
        assert_eq!(cached.len(), config.total_chunks() as usize);
        for (id, tier) in cached {
            let in_ram = node.cache.ram().contains(&id);
            let on_disk = node.cache.disk().unwrap().contains(&id);
            assert!(in_ram != on_disk, "{id:?} is in both tiers");
            assert_eq!(Some(tier), config.tier_for(id), "{id:?} epoch {epoch}");
            let version = backend.manifest(id.object()).unwrap().version();
            assert!(node.peek_chunk_tier(&id, version).is_some(), "{id:?} stale");
        }
        assert!(node.cache.used_bytes() <= node.cache.capacity_bytes());
        assert!(node.cache.disk_used_bytes() <= node.cache.disk_capacity_bytes());
    }

    /// When `reconfigure` returns the placement invariant holds, and
    /// reads never change it.
    #[test]
    fn placement_follows_the_configuration_across_shifting_epochs() {
        const OBJECTS: u64 = 24;
        let backend = test_backend(OBJECTS, 900);
        // RAM holds two objects' chunks; the disk tier has room for the
        // whole catalogue plus the frames re-tier moves leave behind.
        let node = AgarNode::new(
            FRANKFURT,
            Arc::clone(&backend),
            tiered_settings(1_800, 64_000),
            7,
        )
        .unwrap();
        let zipf = agar_workload::Zipfian::new(OBJECTS, 1.1).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let tier_moves = |node: &AgarNode| {
            let stats = node.cache_stats();
            (stats.tier_promotions(), stats.tier_demotions())
        };
        let mut settled = tier_moves(&node);
        for epoch in 0..8u64 {
            // The hot set slides five keys along every epoch.
            for _ in 0..120 {
                let key = (zipf.sample(&mut rng) + epoch * 5) % OBJECTS;
                let metrics = node.read(ObjectId::new(key)).unwrap();
                assert_eq!(metrics.data.as_ref(), expected_payload(key, 900).as_slice());
            }
            assert_eq!(tier_moves(&node), settled, "a read moved a chunk");
            node.force_reconfigure();
            settled = tier_moves(&node);
            assert_placement(&node, &backend, epoch);
        }
        let (promotions, demotions) = settled;
        assert!(
            promotions > 0 && demotions > 0,
            "the shifting hot set never re-tiered a chunk ({promotions} up, {demotions} down)"
        );
        assert_eq!(node.cache_stats().disk_evictions(), 0);
    }

    /// A reconfiguration's disk frames leave in few positioned writes:
    /// one per full write-combining tail, one per segment that seals and
    /// one before each disk read it makes (a move up reads its frame),
    /// plus one for the frames the reads before it left in the tail
    /// (`cells` takes the segment paths after the write count, which
    /// writes them).
    #[test]
    fn a_reconfiguration_writes_its_frames_in_a_few_positioned_writes() {
        const OBJECTS: u64 = 24;
        let backend = test_backend(OBJECTS, 900);
        let node = AgarNode::new(FRANKFURT, backend, tiered_settings(1_800, 64_000), 7).unwrap();
        let zipf = agar_workload::Zipfian::new(OBJECTS, 1.1).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let newest_segment = |node: &AgarNode| {
            let paths = node.disk_segment_paths();
            let name = paths.last().and_then(|path| path.file_stem()?.to_str());
            name.map_or(0, |name| name["seg-".len()..].parse::<u64>().unwrap())
        };
        let (mut frames, mut writes) = (0, 0);
        for epoch in 0..8u64 {
            for _ in 0..120 {
                let key = (zipf.sample(&mut rng) + epoch * 5) % OBJECTS;
                node.read(ObjectId::new(key)).unwrap();
            }
            let disk = node.disk_counters().unwrap();
            let cells = || {
                (
                    disk.appended_bytes.get(),
                    disk.read_calls.get(),
                    disk.write_calls.get(),
                    newest_segment(&node),
                )
            };
            let before = cells();
            node.force_reconfigure();
            let after = cells();
            let appended = after.0 - before.0;
            let bound = appended.div_ceil(agar_cache::disk::TAIL_BYTES as u64)
                + (after.3 - before.3)
                + (after.1 - before.1)
                + 1;
            let issued = after.2 - before.2;
            assert!(
                issued <= bound,
                "epoch {epoch}: {issued} writes, bound {bound}"
            );
            frames += appended / FRAME as u64;
            writes += issued;
        }
        assert!(frames > 3 * writes, "{frames} frames in {writes} writes");
    }

    /// Frame bytes of one 100-byte test chunk in the disk log.
    const FRAME: usize = 100 + agar_cache::disk::HEADER_LEN;

    /// A backend of 900-byte objects whose latency matrix is anchored
    /// at their 100-byte chunks, as every experiment anchors it at its
    /// scale: the local region then costs its nominal 50 ms, more than
    /// a disk read, so the knapsack places all k chunks of an object
    /// and a read of them is k local hits.
    fn anchored_backend(objects: u64) -> Arc<Backend> {
        let latency = aws_six_regions().latency.with_nominal_bytes(100);
        backend_with(latency, CodingParams::paper_default(), objects, 900)
    }

    /// Reads `cold` once, then keeps objects 0 and 1 hot over forced
    /// epochs until the monitor has forgotten `cold`.
    fn forget(node: &AgarNode, cold: ObjectId) {
        node.read(cold).unwrap();
        for epoch in 0.. {
            for _ in 0..10 {
                node.read(ObjectId::new(0)).unwrap();
                node.read(ObjectId::new(1)).unwrap();
            }
            node.force_reconfigure();
            if node.monitor.lock().popularity(cold) == 0.0 {
                break;
            }
            assert!(epoch < 12, "the monitor never forgot {cold:?}");
        }
    }

    /// The warm tier keeps what it has room for: an object the monitor
    /// forgot stays configured on disk and is served from there.
    #[test]
    fn a_forgotten_object_is_still_served_from_a_disk_tier_with_room() {
        let backend = anchored_backend(8);
        let settings = tiered_settings(900, 8 * 9 * FRAME);
        let node = AgarNode::new(FRANKFURT, Arc::clone(&backend), settings, 7).unwrap();
        let cold = ObjectId::new(7);
        forget(&node, cold);
        let config = node.current_config();
        assert!(config.is_carried(cold), "{config:?}");
        assert_eq!(config.carried_chunks(), 9);
        assert_placement(&node, &backend, 0);
        let fills = node.counters().fill_fetches.get();
        let metrics = node.read(cold).unwrap();
        assert_eq!(metrics.data.as_ref(), expected_payload(7, 900).as_slice());
        assert_eq!(metrics.backend_fetches, 0);
        assert_eq!(metrics.cache_hits, 9);
        assert_eq!(node.counters().fill_fetches.get(), fills);
        // Read again, it is the monitor's and the solve's once more.
        node.force_reconfigure();
        let config = node.current_config();
        assert!(config.contains(ChunkId::new(cold, 0)) && !config.is_carried(cold));
        assert_eq!(config.carried_chunks(), 0);
    }

    /// A disk budget the solve fills leaves no room: the forgotten
    /// object leaves the configuration and the cache, as it always did.
    #[test]
    fn nothing_is_carried_into_a_disk_budget_the_solve_fills() {
        let backend = anchored_backend(8);
        // RAM holds one of the two hot objects, the disk the other.
        let settings = tiered_settings(900, 9 * FRAME);
        let node = AgarNode::new(FRANKFURT, Arc::clone(&backend), settings, 7).unwrap();
        let cold = ObjectId::new(7);
        forget(&node, cold);
        let config = node.current_config();
        assert_eq!((config.ram_chunks(), config.disk_chunks()), (9, 9));
        assert_eq!(config.carried_chunks(), 0);
        assert_eq!(config.object_count(), 2, "{config:?}");
        assert!(!node.cache_contents().contains_key(&cold));
        assert_placement(&node, &backend, 0);
        let metrics = node.read(cold).unwrap();
        assert_eq!((metrics.cache_hits, metrics.backend_fetches), (0, 9));
    }

    /// A carried entry is what the cache still holds of it: a lost
    /// chunk is never downloaded again for it, and an entry without
    /// chunks is gone.
    #[test]
    fn a_carried_entry_shrinks_with_its_chunks_and_costs_no_backend_traffic() {
        let backend = anchored_backend(8);
        let settings = tiered_settings(900, 8 * 9 * FRAME);
        let node = AgarNode::new(FRANKFURT, Arc::clone(&backend), settings, 7).unwrap();
        let cold = ObjectId::new(7);
        forget(&node, cold);
        let lost = node.current_config().chunks_for(cold)[0];
        assert!(node.cache.disk().unwrap().remove(&ChunkId::new(cold, lost)));
        let fills = node.counters().fill_fetches.get();
        node.force_reconfigure();
        assert_eq!(
            node.counters().fill_fetches.get(),
            fills,
            "a carried chunk was downloaded"
        );
        let config = node.current_config();
        assert!(config.is_carried(cold));
        assert_eq!(config.chunks_for(cold).len(), 8);
        assert!(!config.chunks_for(cold).contains(&lost));
        assert_placement(&node, &backend, 1);

        node.invalidate_object(cold);
        node.force_reconfigure();
        assert_eq!(node.counters().fill_fetches.get(), fills);
        let config = node.current_config();
        assert!(!config.is_carried(cold) && config.chunks_for(cold).is_empty());
        assert_eq!(config.carried_chunks(), 0);
        assert_placement(&node, &backend, 2);
    }

    /// Asserts the node caches exactly `chunks_for(object)`, each at
    /// `version`, in the tier the configuration names and no other.
    fn assert_holds_configured(node: &AgarNode, object: ObjectId, version: u64) {
        let config = node.current_config();
        let mut configured = config.chunks_for(object).to_vec();
        configured.sort_unstable();
        let cached = node.cache_contents().remove(&object).unwrap_or_default();
        assert_eq!(cached, configured, "{object:?}");
        for index in configured {
            let id = ChunkId::new(object, index);
            let tier = config.tier_for(id).unwrap();
            assert_eq!(node.chunk_residency(&id), [(tier, version)], "{id:?}");
        }
    }

    /// A write is a write-update: the owner keeps the configured chunks
    /// of the version it just encoded, in the configured tier, and the
    /// next read is the hit it was before the write.
    #[test]
    fn a_write_leaves_the_configured_chunks_of_the_new_version_behind() {
        let backend = anchored_backend(4);
        // RAM holds nine chunks, the disk tier the rest of both objects.
        let settings = tiered_settings(900, 4 * 9 * FRAME);
        let node = AgarNode::new(FRANKFURT, Arc::clone(&backend), settings, 7).unwrap();
        let (hot, warm, unread) = (ObjectId::new(0), ObjectId::new(1), ObjectId::new(2));
        for round in 0..30 {
            node.read(hot).unwrap();
            if round % 3 == 0 {
                node.read(warm).unwrap();
            }
        }
        node.force_reconfigure();
        let config = node.current_config();
        assert_eq!((config.ram_chunks(), config.disk_chunks()), (9, 9));
        let on_disk = |object| config.disk_chunks_for(object).len() as u64;
        assert_eq!(on_disk(hot) + on_disk(warm), 9, "{config:?}");
        assert_holds_configured(&node, hot, 1);
        let fills = node.counters().fill_fetches.get();
        let appended = node.disk_counters().unwrap().appended_bytes.get();

        // Same size: every chunk lands in the tier the configuration
        // names, and only the disk-tier ones are written to the log.
        let payload = vec![7u8; 900];
        assert_eq!(node.write(hot, &payload).unwrap().0, 2);
        assert_holds_configured(&node, hot, 2);
        assert_eq!(node.counters().write_update_chunks.get(), 9);
        let hot_frames = on_disk(hot) * FRAME as u64;
        assert_eq!(
            node.disk_counters().unwrap().appended_bytes.get() - appended,
            hot_frames
        );
        let metrics = node.read(hot).unwrap();
        assert_eq!(metrics.data.as_ref(), payload.as_slice());
        assert_eq!((metrics.cache_hits, metrics.backend_fetches), (9, 0));

        // Half the size: served byte-exact from the updated chunks,
        // which are frames of the new chunk size.
        let half = vec![9u8; 450];
        assert_eq!(node.write(warm, &half).unwrap().0, 2);
        assert_holds_configured(&node, warm, 2);
        assert_eq!(
            node.disk_counters().unwrap().appended_bytes.get() - appended - hot_frames,
            on_disk(warm) * (50 + agar_cache::disk::HEADER_LEN) as u64
        );
        let metrics = node.read(warm).unwrap();
        assert_eq!(metrics.data.as_ref(), half.as_slice());
        assert_eq!((metrics.cache_hits, metrics.backend_fetches), (9, 0));

        // An object the configuration does not name keeps nothing.
        node.write(unread, &payload).unwrap();
        assert!(!node.cache_contents().contains_key(&unread));
        assert_eq!(node.counters().write_update_chunks.get(), 18);
        assert_eq!(
            node.counters().fill_fetches.get(),
            fills,
            "a write fetched a chunk"
        );
        assert!(node.cache.used_bytes() <= node.cache.capacity_bytes());

        // A write that fails leaves the old version cached, valid and
        // served: the put checks its placement targets before it
        // installs anything.
        backend.fail_region(agar_net::presets::SAO_PAULO);
        assert!(node.write(hot, &[1u8; 900]).is_err());
        assert_holds_configured(&node, hot, 2);
        assert_eq!(backend.manifest(hot).unwrap().version(), 2);
        let metrics = node.read(hot).unwrap();
        assert_eq!(metrics.data.as_ref(), payload.as_slice());
        assert_eq!((metrics.cache_hits, metrics.backend_fetches), (9, 0));
        assert_eq!(node.counters().write_update_chunks.get(), 18);
    }

    /// A carried entry is what the cache still held of an object no
    /// solve names: a write removes it everywhere, as it always did.
    #[test]
    fn a_write_to_a_carried_object_leaves_nothing_cached() {
        let backend = anchored_backend(8);
        let settings = tiered_settings(900, 8 * 9 * FRAME);
        let node = AgarNode::new(FRANKFURT, Arc::clone(&backend), settings, 7).unwrap();
        let cold = ObjectId::new(7);
        forget(&node, cold);
        assert!(node.current_config().is_carried(cold));
        assert_eq!(node.cache_contents()[&cold].len(), 9);
        let payload = vec![3u8; 900];
        node.write(cold, &payload).unwrap();
        assert!(!node.cache_contents().contains_key(&cold));
        assert_eq!(node.counters().write_update_chunks.get(), 0);
        let metrics = node.read(cold).unwrap();
        assert_eq!(metrics.data.as_ref(), payload.as_slice());
        assert_eq!(metrics.cache_hits, 0);
    }

    /// An invalidation drops every chunk id of the object's stripe, the
    /// last one included, from both tiers, and nothing of any other
    /// object.
    #[test]
    fn invalidation_purges_both_tiers() {
        let backend = test_backend(2, 900);
        let node = AgarNode::new(FRANKFURT, backend, tiered_settings(900, 2_700), 7).unwrap();
        let (object, other) = (ObjectId::new(0), ObjectId::new(1));
        let chunk = || CachedChunk::new(Bytes::from(vec![1u8; 100]), 1);
        let placed = [
            (ChunkId::new(object, 0), CacheTier::Ram),
            (ChunkId::new(object, 11), CacheTier::Disk),
            (ChunkId::new(other, 0), CacheTier::Disk),
        ];
        for (id, tier) in placed {
            assert!(node.cache.insert_to_tier(id, chunk(), tier));
        }
        assert_eq!(node.invalidate_object(object), 2);
        assert_eq!(node.cache.residency(), [placed[2]]);
        assert_eq!(node.cached_bytes().0, 0);
        assert_eq!(node.invalidate_object(object), 0);
    }

    /// The read-side twin of the monotone insert: an attempt whose
    /// manifest snapshot predates a write finds the writer's chunks
    /// ahead of it. They are not hits for that attempt (it loses the
    /// version race at its first fetch and comes back), and they are
    /// not stale either: the lookup leaves them where the write put
    /// them.
    #[test]
    fn a_lookup_behind_a_write_leaves_the_newer_chunks_alone() {
        let backend = anchored_backend(2);
        let node = test_node(Arc::clone(&backend), 900);
        let object = ObjectId::new(0);
        for _ in 0..10 {
            node.read(object).unwrap();
        }
        node.force_reconfigure();
        let behind = backend.manifest(object).unwrap();
        node.write(object, &[5u8; 900]).unwrap();
        let config = node.current_config();
        let planner = crate::planner::ReadPlanner::new(&behind, &config);
        let hits = planner.lookup_local(&node.cache, true);
        assert!(hits.ram.is_empty() && hits.disk.is_empty());
        assert_holds_configured(&node, object, 2);
        let metrics = node.read(object).unwrap();
        assert_eq!((metrics.cache_hits, metrics.backend_fetches), (9, 0));
    }

    /// The direct fetcher with a writer that lands in the worst place:
    /// the fetch of `victim` completes at the version its reader bound
    /// and, before the reader has it back, `write` runs.
    struct WriteBehindTheFetch {
        inner: DirectFetcher,
        victim: ChunkId,
        write: Mutex<Option<Box<dyn FnOnce() + Send>>>,
    }

    impl ChunkFetcher for WriteBehindTheFetch {
        fn fetch(
            &self,
            client_region: RegionId,
            requests: &[crate::fetcher::FetchRequest],
            rng: &mut dyn rand::RngCore,
        ) -> Vec<(
            crate::fetcher::FetchRequest,
            Result<agar_store::ChunkFetch, agar_store::StoreError>,
        )> {
            let results = self.inner.fetch(client_region, requests, rng);
            if requests.iter().any(|request| request.chunk == self.victim) {
                if let Some(write) = self.write.lock().take() {
                    write();
                }
            }
            results
        }
    }

    /// Hazard: a reader that bound version 1 reaches its fill stage,
    /// finds a configured chunk missing, and fetches it; the object is
    /// rewritten (and the writer's chunks of version 2 placed) between
    /// the fill's `contains` check and its insert. The cache must
    /// refuse the reader's version-1 chunk.
    #[test]
    fn a_fill_of_the_bound_version_never_overwrites_a_later_writes_chunk() {
        let backend = test_backend(1, 900);
        // Room for 5 of the 9 chunks a read needs.
        let node = Arc::new(test_node(Arc::clone(&backend), 500));
        let object = ObjectId::new(0);
        for _ in 0..10 {
            node.read(object).unwrap();
        }
        node.force_reconfigure();
        let configured = node.current_config().chunks_for(object).to_vec();
        assert_eq!(configured.len(), 5);
        // One configured chunk goes missing, and every unconfigured one
        // is on offer from a neighbour at 1 ms: the read binds 4 hits
        // and 5 offers, so the missing chunk is not on its fetch path
        // and is left to the fill.
        let victim = ChunkId::new(object, configured[0]);
        node.cache.remove(&victim);
        let mut rng = StdRng::seed_from_u64(5);
        let offers: Vec<crate::planner::RemoteChunk> = (0..12u8)
            .filter(|index| !configured.contains(index))
            .map(|index| crate::planner::RemoteChunk {
                index,
                data: backend
                    .fetch_chunk(FRANKFURT, ChunkId::new(object, index), &mut rng)
                    .unwrap()
                    .data,
                latency: Duration::from_millis(1),
                version: 1,
            })
            .collect();
        let payload = vec![8u8; 900];
        let writer = {
            let (node, payload) = (Arc::clone(&node), payload.clone());
            move || assert_eq!(node.write(object, &payload).unwrap().0, 2)
        };
        node.set_chunk_fetcher(Arc::new(WriteBehindTheFetch {
            inner: DirectFetcher::new(Arc::clone(&backend)),
            victim,
            write: Mutex::new(Some(Box::new(writer))),
        }));

        let racing = node.read_with_offers(object, &offers).unwrap();
        assert_eq!(racing.data.as_ref(), expected_payload(0, 900).as_slice());
        assert_eq!((racing.cache_hits, racing.remote_hits), (4, 5));
        assert_eq!((racing.backend_fetches, racing.fill_fetches), (0, 1));
        assert_eq!(backend.manifest(object).unwrap().version(), 2);

        // The cache holds version 2 of every configured chunk, the one
        // the reader tried to fill with version 1 included, and the
        // next read is a full configured hit at version 2.
        assert_holds_configured(&node, object, 2);
        assert_eq!(node.cache_stats().rejected_inserts(), 1);
        let fills = node.counters().fill_fetches.get();
        let next = node.read(object).unwrap();
        assert_eq!(next.data.as_ref(), payload.as_slice());
        assert_eq!((next.cache_hits, next.backend_fetches), (5, 4));
        assert_eq!(node.counters().fill_fetches.get(), fills);
    }

    /// The configuration must not become the leak the monitor's prune
    /// exists to prevent: over ten times more distinct objects than the
    /// disk holds it never names more chunks than the two budgets, and
    /// what it carries is the same on every run.
    #[test]
    fn carried_entries_stay_within_the_disk_budget_over_a_long_tail() {
        const DISK_OBJECTS: usize = 12;
        const OBJECTS: u64 = 10 * DISK_OBJECTS as u64;
        let run = || {
            let backend = anchored_backend(OBJECTS);
            let settings = tiered_settings(900, DISK_OBJECTS * 9 * FRAME);
            let node = AgarNode::new(FRANKFURT, Arc::clone(&backend), settings, 7).unwrap();
            let mut carried_per_epoch = Vec::new();
            // A new object every epoch, read once and never again: the
            // monitor tracks five at a time, the disk has room for more.
            for epoch in 0..OBJECTS {
                let metrics = node.read(ObjectId::new(epoch)).unwrap();
                assert_eq!(
                    metrics.data.as_ref(),
                    expected_payload(epoch, 900).as_slice()
                );
                node.force_reconfigure();
                let config = node.current_config();
                let disk_bytes = config.disk_chunks() as usize * FRAME;
                assert!(
                    disk_bytes <= node.cache.disk_capacity_bytes(),
                    "epoch {epoch}"
                );
                assert!(config.ram_chunks() <= 9);
                assert!(config.object_count() <= 9 + DISK_OBJECTS * 9);
                assert!(node.cache.disk_used_bytes() <= node.cache.disk_capacity_bytes());
                for (id, tier) in node.cache.residency() {
                    assert_eq!(Some(tier), config.tier_for(id), "{id:?} epoch {epoch}");
                }
                let mut carried: Vec<(ObjectId, Vec<u8>)> = config
                    .objects()
                    .filter(|object| config.is_carried(*object))
                    .map(|object| (object, config.chunks_for(object).to_vec()))
                    .collect();
                carried.sort_unstable();
                carried_per_epoch.push(carried);
            }
            let last = carried_per_epoch.last().unwrap();
            // The carry filled the budget, and the full log dropped
            // live frames along the way without breaking any of the above.
            assert_eq!(
                node.current_config().disk_chunks() as usize,
                DISK_OBJECTS * 9
            );
            assert!(node.cache_stats().disk_evictions() > 0);
            assert!(!last.is_empty(), "the tail was never carried");
            // The most recently solved objects are the ones still carried.
            assert!(last.iter().all(|(object, _)| object.index() >= OBJECTS / 2));
            carried_per_epoch
        };
        assert_eq!(run(), run());
    }

    /// The disk log keeps what the knapsack **solved** for: while the
    /// solved disk set is at most 40 % of the disk budget, a log that
    /// wraps again and again under re-tier churn never loses a chunk —
    /// solved or carried, there being room for both. (Carried chunks
    /// are best effort: a log they fill is out of that regime, and what
    /// it drops then shrinks their entries; see
    /// `carried_entries_stay_within_the_disk_budget_over_a_long_tail`.)
    #[test]
    fn a_wrapping_disk_log_keeps_every_configured_chunk() {
        const OBJECTS: u64 = 24;
        const DISK: usize = 50_000;
        let backend = test_backend(OBJECTS, 900);
        // RAM holds eight objects' chunks, so a hot set that slides
        // eight keys an epoch re-tiers a third of the catalogue.
        let node = AgarNode::new(
            FRANKFURT,
            Arc::clone(&backend),
            tiered_settings(7_200, DISK),
            7,
        )
        .unwrap();
        let zipf = agar_workload::Zipfian::new(OBJECTS, 1.1).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for epoch in 0..36u64 {
            for _ in 0..150 {
                let key = (zipf.sample(&mut rng) + epoch * 8) % OBJECTS;
                let metrics = node.read(ObjectId::new(key)).unwrap();
                assert_eq!(metrics.data.as_ref(), expected_payload(key, 900).as_slice());
            }
            node.force_reconfigure();
            assert_placement(&node, &backend, epoch);
            let disk_frames = node.current_config().disk_chunks() as usize * FRAME;
            assert!(
                disk_frames * 5 <= DISK * 2,
                "configured disk set {disk_frames} B is over 40 %"
            );
            assert_eq!(node.cache_stats().disk_evictions(), 0, "epoch {epoch}");
        }
        let first_time = node.disk_counters().unwrap().appended_bytes.get()
            - node.disk_counters().unwrap().compacted_bytes.get();
        assert!(
            first_time >= 3 * DISK as u64,
            "the log wrapped under 3 times: {first_time} B"
        );
        assert!(
            node.disk_counters().unwrap().compacted_bytes.get() > 0,
            "no survivor was copied"
        );
        assert_eq!(node.disk_corrupt_frames(), 0);
    }

    /// A fill that overflows a full log costs frames of objects the
    /// fill loop has already passed: the reconfiguration that lost
    /// them downloads them again, not the next one.
    #[test]
    fn solved_chunks_a_fill_pushed_out_of_the_log_are_back_before_it_returns() {
        const OBJECTS: u64 = 8;
        let backend = anchored_backend(OBJECTS);
        // RAM holds one object, the disk the other seven and 18 frames
        // of room that the refills below turn into dead space.
        let settings = tiered_settings(900, (7 * 9 + 18) * FRAME);
        let node = AgarNode::new(FRANKFURT, Arc::clone(&backend), settings, 7).unwrap();
        let disk = node.cache.disk().unwrap();
        for round in 0..60u64 {
            for key in 0..OBJECTS {
                node.read(ObjectId::new(key)).unwrap();
            }
            // A different object is the most popular each round, so RAM
            // changes hands and moves chunks through the log.
            node.read(ObjectId::new(round % OBJECTS)).unwrap();
            // One solved chunk a round goes missing behind the node's back.
            let mut keys = disk.keys();
            keys.sort_unstable();
            if let Some(id) = keys.get((round * 7) as usize % keys.len().max(1)) {
                disk.remove(id);
            }
            node.force_reconfigure();
            let config = node.current_config();
            assert_eq!(config.carried_chunks(), 0);
            assert_eq!(config.total_chunks(), 72, "round {round}");
            assert_placement(&node, &backend, round);
        }
        assert!(
            node.cache_stats().disk_evictions() > 0,
            "the log never overflowed"
        );
    }

    #[test]
    fn corrupted_disk_tier_falls_back_to_the_backend() {
        let backend = test_backend(2, 900);
        let node = AgarNode::new(FRANKFURT, backend, tiered_settings(900, 1_800), 7).unwrap();
        for _ in 0..20 {
            node.read(ObjectId::new(0)).unwrap();
            node.read(ObjectId::new(1)).unwrap();
        }
        node.force_reconfigure();
        let config = node.current_config();
        assert!(config.disk_chunks() > 0, "need a disk allocation");

        // Zero out every disk segment: checksums break for every
        // frame, so each disk lookup must degrade to a miss.
        let paths = node.disk_segment_paths();
        assert!(!paths.is_empty(), "disk tier must have segments");
        for path in &paths {
            let len = std::fs::metadata(path).unwrap().len() as usize;
            std::fs::write(path, vec![0u8; len]).unwrap();
        }

        // Reads still return correct bytes — corrupted frames are
        // misses served by the backend, never garbage or a panic.
        for i in 0..2 {
            let metrics = node.read(ObjectId::new(i)).unwrap();
            assert_eq!(metrics.data.as_ref(), expected_payload(i, 900).as_slice());
        }
        // And the damage is visible: every failed frame was counted.
        assert!(
            node.disk_corrupt_frames() > 0,
            "corrupted frames must be counted"
        );
    }

    #[test]
    fn zero_disk_capacity_is_byte_identical_to_the_untiered_engine() {
        // Two fresh nodes, same seed: one with defaults (disk off) and
        // one with every disk knob twisted but the capacity still zero
        // must produce identical latency sequences and statistics.
        let run = |settings: AgarSettings| {
            let backend = test_backend(4, 900);
            let node = AgarNode::new(FRANKFURT, backend, settings, 7).unwrap();
            let mut latencies = Vec::new();
            for round in 0..12 {
                let metrics = node.read(ObjectId::new(round % 4)).unwrap();
                latencies.push(metrics.latency);
            }
            node.force_reconfigure();
            for round in 0..12 {
                let metrics = node.read(ObjectId::new(round % 4)).unwrap();
                latencies.push(metrics.latency);
            }
            (latencies, node.cache_stats())
        };
        let (default_latencies, default_stats) = run(AgarSettings::paper_default(1_800));
        let mut disabled = AgarSettings::paper_default(1_800);
        disabled.disk_capacity_bytes = 0;
        disabled.disk_read = Duration::from_millis(1);
        disabled.disk_write = Duration::from_millis(1);
        let (disabled_latencies, disabled_stats) = run(disabled);
        assert_eq!(default_latencies, disabled_latencies);
        assert_eq!(default_stats, disabled_stats);
        assert_eq!(default_stats.disk_hits(), 0);
        assert_eq!(default_stats.tier_demotions(), 0);
    }

    #[test]
    fn debug_and_label() {
        let backend = test_backend(1, 900);
        let node = test_node(backend, 900);
        assert_eq!(node.label(), "Agar");
        assert!(format!("{node:?}").contains("AgarNode"));
    }

    /// A node whose configuration names all nine RS(9, 3) chunks of
    /// object 0 (a cache of one object), warmed by the reconfiguration's
    /// a-priori download.
    fn one_hot_object() -> (AgarNode, ObjectId) {
        let node = test_node(test_backend(2, 900), 900);
        let object = ObjectId::new(0);
        for _ in 0..20 {
            node.read(object).unwrap();
        }
        node.force_reconfigure();
        assert_eq!(node.current_config().chunks_for(object).len(), 9);
        (node, object)
    }

    fn sorted_residency(node: &AgarNode) -> Vec<(ChunkId, CacheTier)> {
        let mut cached = node.cache.residency();
        cached.sort_unstable();
        cached
    }

    #[test]
    fn a_fully_cached_read_visits_the_ram_tier_once_and_fills_nothing() {
        let (node, object) = one_hot_object();
        let residency = sorted_residency(&node);
        assert_eq!(residency.len(), 9);
        let (fills, stats) = (node.counters().fill_fetches.get(), node.cache_stats());
        let visits = node.cache_lock_visits();
        let metrics = node.read(object).unwrap();
        assert_eq!(metrics.data.as_ref(), expected_payload(0, 900).as_slice());
        assert_eq!((metrics.cache_hits, metrics.fill_fetches), (9, 0));
        // The lookup's one visit to the object's shard; the fill, which
        // re-checked all nine chunks one lock each after a lookup that
        // took nine more (18 in all), no longer runs.
        assert_eq!(node.cache_lock_visits() - visits, 1);
        assert_eq!(node.counters().fill_fetches.get(), fills);
        assert_eq!(sorted_residency(&node), residency);
        let delta = node.cache_stats().delta_since(&stats);
        assert_eq!((delta.chunk_hits(), delta.chunk_misses()), (9, 0));
        assert_eq!((delta.insertions(), delta.rejected_inserts()), (0, 0));
    }

    #[test]
    fn a_read_missing_one_hinted_chunk_still_fills_it() {
        let (node, object) = one_hot_object();
        let residency = sorted_residency(&node);
        for index in [0u8, 4, 8] {
            let id = ChunkId::new(object, index);
            assert!(node.cache.remove(&id));
            let stats = node.cache_stats();
            let metrics = node.read(object).unwrap();
            assert_eq!(metrics.data.as_ref(), expected_payload(0, 900).as_slice());
            assert_eq!(metrics.cache_hits, 8);
            // Back in the cache, from the read's own fetch or from a
            // fill fetch, and nothing else was touched.
            assert_eq!(sorted_residency(&node), residency, "{id:?}");
            assert_eq!(node.cache_stats().delta_since(&stats).insertions(), 1);
            assert_eq!(node.read(object).unwrap().cache_hits, 9);
        }
    }
}
