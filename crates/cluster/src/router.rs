//! The cluster router: N Agar nodes behind one read/write front door.
//!
//! A [`ClusterRouter`] owns the ring, the membership list and the
//! shared [`FetchCoordinator`]. Reads route to the object's ring owner
//! (so each object's popularity concentrates in one node's monitor and
//! its chunks in one node's cache); chunks the owner does not hold are
//! offered from the next members on the ring walk — the deterministic
//! *preference list* — as [`RemoteChunk`]s before falling back to the
//! backend. The planner prices every offer against the live backend
//! estimates, so a far sibling's cache never beats a near region.
//! Gathering the offers visits each member's RAM once: one look at
//! the home's shard for the chunks it holds at the manifest's version
//! ([`AgarNode::held_in_ram`]), then one [`AgarNode::offer_object`] per
//! probed sibling for the rest (one RAM visit, at most one disk visit).
//! Disk-resident chunks stay in the auction on both sides: the home's
//! own disk tier is priced at its disk-read latency by the planner,
//! and a sibling's disk chunks are offered with the owner's disk
//! penalty added to the discounted WAN hop.
//!
//! This subsumes the paper's §VI collaboration sketch: the old
//! `CollaborativeGroup` scanned every member linearly on each lookup.
//! The probe rule is Dynamo's preference list over the whole
//! membership: a read probes every other member once, in ring-preference
//! order from the object's position. No deployment here runs more than
//! six members, so the walk is always short.
//!
//! Writes go to the object's ring owner too, under the object's write
//! lease ([`WriteLeaseManager`]). The owner keeps the configured chunks
//! of the version it wrote, and every other member then drops the
//! object's chunk ids. That broadcast is cheap: it holds no router
//! lock, it costs each member one visit to each tier (n hash probes
//! under one lock) instead of a cache scan, and no deployment here runs
//! more than six members.

use crate::coordinator::FetchCoordinator;
use crate::lease::WriteLeaseManager;
use crate::ring::{ClusterRing, DEFAULT_VNODES};
use agar::planner::RemoteChunk;
use agar::{AgarError, AgarNode, DirectFetcher, ReadMetrics};
use agar_cache::{CacheStats, CacheTier};
use agar_ec::{ChunkSet, ObjectId};
use agar_net::SimTime;
use agar_obs::{Labels, MetricsRegistry};
use agar_store::Backend;
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Tunables of a [`ClusterRouter`]: none today (a read probes every
/// other member; see the module docs). The type keeps
/// [`ClusterRouter::new`]'s signature, which `bench/` calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct ClusterSettings {}

/// Fraction of the WAN latency a sibling *cache* read costs (caches
/// skip the storage-service overhead; the §VI sketch's discount).
const REMOTE_CACHE_DISCOUNT: f64 = 0.5;

/// Metrics of one routed read.
#[derive(Clone, Debug)]
pub struct ClusterReadMetrics {
    metrics: ReadMetrics,
    /// Chunks served from a sibling member's cache.
    pub remote_hits: usize,
    /// The member that served the read (the ring owner for routed
    /// reads; the caller's choice for [`ClusterRouter::read_from`]).
    pub home: u64,
}

impl ClusterReadMetrics {
    /// The underlying read metrics.
    pub fn into_inner(self) -> ReadMetrics {
        self.metrics
    }

    /// Borrow the underlying read metrics.
    pub fn metrics(&self) -> &ReadMetrics {
        &self.metrics
    }
}

/// Metrics of one routed write (the per-object-lease write path).
#[derive(Clone, Copy, Debug)]
pub struct ClusterWriteMetrics {
    /// The object version the write created.
    pub version: u64,
    /// Simulated write latency (invalidation is off the latency path).
    pub latency: Duration,
    /// The ring owner that performed the write.
    pub home: u64,
    /// Members that held chunks of the object when the write
    /// invalidated them: every member but the owner, whose own write
    /// replaced its chunks, is invalidated and counted if it held any.
    /// A fenced write also counts what its fence dropped, the owner's
    /// copy included.
    pub invalidations: u64,
    /// Whether this write had to wait behind another writer's lease on
    /// the same object.
    pub lease_contended: bool,
}

/// Outcome of a membership change: which member changed and exactly
/// which objects re-homed (the moved ring segment — nothing else).
#[derive(Clone, Debug)]
pub struct MembershipChange {
    /// The added/removed member's id.
    pub node: u64,
    /// Objects whose ring owner changed, sorted. On add they all moved
    /// *to* the new member; on remove they all moved *off* it.
    pub moved_objects: Vec<ObjectId>,
}

struct Member {
    id: u64,
    node: Arc<AgarNode>,
}

struct RouterState {
    ring: ClusterRing,
    members: Vec<Member>,
}

impl RouterState {
    fn member(&self, id: u64) -> Option<&Arc<AgarNode>> {
        self.members
            .iter()
            .find(|member| member.id == id)
            .map(|member| &member.node)
    }
}

/// Consistent-hash front door over N [`AgarNode`]s (see module docs).
///
/// Thread-safe behind `&self`: reads take the membership snapshot
/// under a short read lock and run lock-free afterwards; membership
/// changes serialise on the write lock.
pub struct ClusterRouter {
    backend: Arc<Backend>,
    coordinator: Arc<FetchCoordinator>,
    leases: WriteLeaseManager,
    state: RwLock<RouterState>,
    seed: u64,
    ops: AtomicU64,
    next_id: AtomicU64,
    counters: RouterCounters,
}

agar_obs::cell_table! {
    /// The router's own counters: routed reads, chunks served from a
    /// sibling member's cache, and members a routed write found holding
    /// chunks of the object.
    pub struct RouterCounters {
        routed_reads: Counter "agar_cluster_routed_reads_total" []
            "Reads routed through the cluster router.";
        remote_hits: Counter "agar_cluster_remote_hits_total" []
            "Chunk lookups served from a sibling member's cache.";
        targeted_invalidations: Counter "agar_invalidations_targeted_total" [("source", "router")]
            "Members that held chunks of an object a routed write invalidated.";
    }
}

impl ClusterRouter {
    /// Creates an empty router over `backend`. Members join via
    /// [`ClusterRouter::add_node`]; each gets the shared
    /// [`FetchCoordinator`] installed as its chunk fetcher.
    ///
    /// # Errors
    ///
    /// None today: [`ClusterSettings`] has nothing to reject. The
    /// `Result` stays because callers (the `bench/` pinned surface among
    /// them) unwrap it.
    pub fn new(
        backend: Arc<Backend>,
        settings: ClusterSettings,
        seed: u64,
    ) -> Result<Self, AgarError> {
        let ClusterSettings {} = settings;
        Ok(ClusterRouter {
            coordinator: Arc::new(FetchCoordinator::new(Arc::clone(&backend))),
            backend,
            leases: WriteLeaseManager::new(),
            state: RwLock::new(RouterState {
                ring: ClusterRing::new(seed, DEFAULT_VNODES),
                members: Vec::new(),
            }),
            seed,
            ops: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            counters: RouterCounters::default(),
        })
    }

    /// The shared fetch coordinator (single-flight / batching counters
    /// live here).
    pub fn coordinator(&self) -> &Arc<FetchCoordinator> {
        &self.coordinator
    }

    /// The per-object write leases.
    pub fn lease_manager(&self) -> &WriteLeaseManager {
        &self.leases
    }

    /// Member ids in join order.
    pub fn member_ids(&self) -> Vec<u64> {
        self.state.read().ring.nodes().to_vec()
    }

    /// The member node registered under `id`.
    pub fn member(&self, id: u64) -> Option<Arc<AgarNode>> {
        self.state.read().member(id).cloned()
    }

    /// The router's own counters (see [`RouterCounters`]).
    pub fn counters(&self) -> &RouterCounters {
        &self.counters
    }

    /// A snapshot of the current ring (diagnostics and tests).
    pub fn ring(&self) -> ClusterRing {
        self.state.read().ring.clone()
    }

    fn derive_rng(&self) -> StdRng {
        let n = self.ops.fetch_add(1, Ordering::Relaxed);
        StdRng::seed_from_u64(
            self.seed
                ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0x243F_6A88_85A3_08D3),
        )
    }

    /// Objects whose owner differs between two rings (sorted; the
    /// backend's catalogue is the key universe).
    fn moved_objects(&self, before: &ClusterRing, after: &ClusterRing) -> Vec<ObjectId> {
        self.backend
            .object_ids()
            .into_iter()
            .filter(|&object| before.owner_of_object(object) != after.owner_of_object(object))
            .collect()
    }

    /// Adds a member, re-homing only the ring segment it takes over:
    /// each moved object is dropped from its previous owner's cache
    /// (the new owner re-caches it through its own knapsack epochs) —
    /// untouched segments keep their cache contents. The shared fetch
    /// coordinator is installed as the node's chunk fetcher.
    pub fn add_node(&self, node: Arc<AgarNode>) -> MembershipChange {
        node.set_chunk_fetcher(Arc::clone(&self.coordinator) as _);
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.write();
        let before = state.ring.clone();
        state.ring.add_node(id);
        state.members.push(Member { id, node });
        let moved = self.moved_objects(&before, &state.ring);
        for &object in &moved {
            if let Some(old_owner) = before.owner_of_object(object) {
                if let Some(previous) = state.member(old_owner) {
                    previous.invalidate_object(object);
                }
            }
        }
        MembershipChange {
            node: id,
            moved_objects: moved,
        }
    }

    /// Removes a member. Only the segment it owned re-homes (onto the
    /// surviving members); every other object keeps its owner and its
    /// cache. The departing node is detached from the cluster
    /// machinery — the shared fetch coordinator is replaced by a
    /// default [`DirectFetcher`], so it no longer fetches through, or
    /// parks readers on, the cluster's in-flight table — and its cached
    /// chunks of the re-homed objects are dropped (a later re-join must
    /// not resurrect the old segment's contents). Returns `None` for an
    /// unknown id.
    pub fn remove_node(&self, id: u64) -> Option<MembershipChange> {
        let (node, moved_objects) = self.detach(id)?;
        for &object in &moved_objects {
            node.invalidate_object(object);
        }
        Some(MembershipChange {
            node: id,
            moved_objects,
        })
    }

    /// Removes a member *as a crash*: the ring and the fetcher are
    /// cleaned up exactly like [`ClusterRouter::remove_node`], but the
    /// departed node gets no graceful cache sweep — its RAM and disk
    /// keep whatever chunks they held at the instant of the crash, the
    /// way a real process death would leave them. A lease the crashed
    /// member held is *not* released here; the write path's poison set
    /// handles that (see `WriteLease::crash`), and the next writer
    /// fences it. Returns `None` for an unknown id.
    pub fn crash_node(&self, id: u64) -> Option<MembershipChange> {
        let (_, moved_objects) = self.detach(id)?;
        Some(MembershipChange {
            node: id,
            moved_objects,
        })
    }

    /// Takes member `id` off the ring and out of the member list and
    /// points it back at a default [`DirectFetcher`]; returns the node
    /// and the objects that re-homed, or `None` for an unknown id.
    fn detach(&self, id: u64) -> Option<(Arc<AgarNode>, Vec<ObjectId>)> {
        let (node, moved) = {
            let mut state = self.state.write();
            let node = state.member(id).cloned()?;
            let before = state.ring.clone();
            state.ring.remove_node(id);
            state.members.retain(|member| member.id != id);
            (node, self.moved_objects(&before, &state.ring))
        };
        // Outside the state lock: membership readers need not wait.
        node.set_chunk_fetcher(Arc::new(DirectFetcher::new(Arc::clone(&self.backend))));
        Some((node, moved))
    }

    /// Reads an object through its ring owner (see the module docs).
    ///
    /// # Errors
    ///
    /// [`AgarError::InvalidSetting`] on an empty cluster; otherwise
    /// the owner node's read errors.
    pub fn read(&self, object: ObjectId) -> Result<ClusterReadMetrics, AgarError> {
        self.counters.routed_reads.inc();
        self.read_at(None, object)
    }

    /// Reads an object from an explicit member (the §VI collaboration
    /// pattern: the client sits next to `home_id`, whatever the ring
    /// says), consulting every other member in ring preference order
    /// for cached chunks.
    ///
    /// # Errors
    ///
    /// [`AgarError::InvalidSetting`] for an unknown member id;
    /// otherwise the home node's read errors.
    pub fn read_from(
        &self,
        home_id: u64,
        object: ObjectId,
    ) -> Result<ClusterReadMetrics, AgarError> {
        self.read_at(Some(home_id), object)
    }

    /// The shared read body: resolve the members, collect sibling
    /// offers for chunks the home cache lacks, then let the home node
    /// plan and execute (single-flight + batching apply inside via the
    /// coordinator).
    fn read_at(
        &self,
        home: Option<u64>,
        object: ObjectId,
    ) -> Result<ClusterReadMetrics, AgarError> {
        // One visit to the membership state: the home (`home`, or the
        // object's ring owner) and, in ring preference order, every
        // other member — the siblings the read probes.
        let (home_id, home, probes) = {
            let state = self.state.read();
            let prefs = state.ring.preference_of_object(object, state.members.len());
            let Some(home_id) = home.or_else(|| prefs.first().copied()) else {
                return Err(AgarError::InvalidSetting {
                    what: "cluster router has no member nodes",
                });
            };
            let Some(home) = state.member(home_id).cloned() else {
                return Err(AgarError::InvalidSetting {
                    what: "unknown cluster member id",
                });
            };
            let probes: Vec<Arc<AgarNode>> = prefs
                .iter()
                .filter(|&&id| id != home_id)
                .filter_map(|&id| state.member(id).cloned())
                .collect();
            (home_id, home, probes)
        };
        let manifest = self.backend.manifest(object)?;
        let version = manifest.version();
        let total = manifest.params().total_chunks() as u8;
        let model = self.backend.latency_model();
        let mut rng = self.derive_rng();
        // A home RAM hit is free; a home *disk* hit is only a candidate
        // (priced at `disk_read` by the planner), so sibling offers
        // still compete for it — a nearby sibling's RAM can beat the
        // local disk. The check is one visit to the home's RAM shard
        // and reads no disk frame: the home's own lookup reads those, a
        // run at a time.
        let held = home.held_in_ram(object, version);
        let wanted: ChunkSet = (0..total).filter(|&index| !held.contains(index)).collect();
        // Each probed sibling is asked once for the whole object: one
        // RAM visit, at most one disk visit.
        let mut found = Vec::new();
        if !wanted.is_empty() {
            for (probe, sibling) in probes.iter().enumerate() {
                sibling.offer_object(object, version, wanted, |index, data, tier| {
                    found.push((index, probe, data, tier));
                });
            }
        }
        // Offer every probed holder; the planner keeps the cheapest per
        // chunk and discards offers dearer than the backend estimate.
        // Disk-resident sibling chunks pay the owner's disk-read penalty
        // on top of the WAN hop. The WAN draws go chunk by chunk, then
        // probe by probe: that order fixes which of the read's seeded
        // draws prices which offer.
        found.sort_unstable_by_key(|&(index, probe, ..)| (index, probe));
        let remote: Vec<RemoteChunk> = found
            .into_iter()
            .map(|(index, probe, data, tier)| {
                let sibling = &probes[probe];
                let wan = model.sample(home.region(), sibling.region(), data.len(), &mut rng);
                let mut latency = wan.mul_f64(REMOTE_CACHE_DISCOUNT);
                if tier == CacheTier::Disk {
                    latency += sibling.settings().disk_read;
                }
                RemoteChunk {
                    index,
                    data,
                    latency,
                    version,
                }
            })
            .collect();
        let metrics = home.read_with_offers(object, &remote)?;
        if metrics.remote_hits > 0 {
            self.counters.remote_hits.add(metrics.remote_hits as u64);
        }
        Ok(ClusterReadMetrics {
            remote_hits: metrics.remote_hits,
            metrics,
            home: home_id,
        })
    }

    /// Writes an object through its ring owner under the object's
    /// write lease — the owner keeps the configured chunks of the
    /// version it wrote (`AgarNode::write` is a write-update) — then
    /// invalidates the object on every other member (write coherence
    /// across the cluster). A grant that fences a crashed predecessor
    /// first invalidates every member, the owner included: the dead
    /// writer may have half-replaced the object's chunks anywhere.
    ///
    /// The router's state lock is held only to resolve the members:
    /// neither the backend round trip nor the invalidations run under
    /// it, so writes to distinct objects proceed in parallel and
    /// membership changes never stall behind write I/O. Same-object
    /// writes serialise on the lease.
    ///
    /// # Errors
    ///
    /// [`AgarError::InvalidSetting`] on an empty cluster; otherwise
    /// backend write failures (the lease is released either way — a
    /// failed write invalidates nothing but a fence and never leaks
    /// the lease).
    pub fn write(&self, object: ObjectId, data: &[u8]) -> Result<ClusterWriteMetrics, AgarError> {
        let (owner_id, owner, others) = {
            let state = self.state.read();
            let Some(owner_id) = state.ring.owner_of_object(object) else {
                return Err(AgarError::InvalidSetting {
                    what: "cluster router has no member nodes",
                });
            };
            let owner = state
                .member(owner_id)
                .expect("ring and members agree")
                .clone();
            let others: Vec<Arc<AgarNode>> = state
                .members
                .iter()
                .filter(|member| member.id != owner_id)
                .map(|member| Arc::clone(&member.node))
                .collect();
            (owner_id, owner, others)
        };
        let lease = self.leases.acquire(object);
        let mut invalidations = 0;
        if lease.fenced() {
            invalidations += self.invalidate(std::iter::once(&owner).chain(&others), object);
        }
        let (version, latency) = owner.write(object, data)?;
        invalidations += self.invalidate(&others, object);
        Ok(ClusterWriteMetrics {
            version,
            latency,
            home: owner_id,
            invalidations,
            lease_contended: lease.contended(),
        })
    }

    /// Invalidates `object` on each of `members`; counts and returns
    /// how many held a chunk of it.
    fn invalidate<'a>(
        &self,
        members: impl IntoIterator<Item = &'a Arc<AgarNode>>,
        object: ObjectId,
    ) -> u64 {
        let held = members
            .into_iter()
            .filter(|node| node.invalidate_object(object) > 0)
            .count() as u64;
        self.counters.targeted_invalidations.add(held);
        held
    }

    /// Ticks every member's reconfiguration clock; returns how many
    /// members reconfigured.
    pub fn maybe_reconfigure_all(&self, now: SimTime) -> usize {
        use agar::CachingClient;
        let members: Vec<Arc<AgarNode>> = {
            let state = self.state.read();
            state.members.iter().map(|m| Arc::clone(&m.node)).collect()
        };
        members
            .iter()
            .filter(|node| node.maybe_reconfigure(now))
            .count()
    }

    /// Immediately reconfigures every member.
    pub fn force_reconfigure_all(&self) {
        let members: Vec<Arc<AgarNode>> = {
            let state = self.state.read();
            state.members.iter().map(|m| Arc::clone(&m.node)).collect()
        };
        for node in members {
            node.force_reconfigure();
        }
    }

    /// Aggregated cache statistics: every member's counters plus the
    /// coordinator's `coalesced_fetches` / `batched_requests`, the
    /// lease manager's `lease_grants` / `lease_contentions` and the
    /// router's own `targeted_invalidations`.
    pub fn cache_stats(&self) -> CacheStats {
        use agar::CachingClient;
        let mut merged = CacheStats::new();
        {
            let state = self.state.read();
            for member in &state.members {
                merged.merge(&member.node.cache_stats());
            }
        }
        let leases = self.leases.counters();
        merged.merge(&CacheStats {
            coalesced_fetches: self.coordinator.coalesced_fetches(),
            batched_requests: self.coordinator.batched_requests(),
            lease_grants: leases.lease_grants.get(),
            lease_contentions: leases.lease_contentions.get(),
            targeted_invalidations: self.counters.targeted_invalidations.get(),
            ..CacheStats::default()
        });
        merged
    }

    /// Late-binds the whole cluster's telemetry into `registry` by
    /// walking the tables in order: the router's own [`RouterCounters`],
    /// the shared coordinator's and lease manager's, then every member
    /// node (labelled by member id on top of the caller's base labels).
    pub fn register_metrics(&self, registry: &MetricsRegistry, base: &Labels) {
        self.counters.register_with(registry, base);
        self.coordinator.counters().register_with(registry, base);
        self.leases.counters().register_with(registry, base);
        let state = self.state.read();
        for member in &state.members {
            let labels = base.clone().with("member", member.id.to_string());
            member.node.register_metrics(registry, &labels);
        }
    }
}

impl std::fmt::Debug for ClusterRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.read();
        f.debug_struct("ClusterRouter")
            .field("members", &state.members.len())
            .field("counters", &self.counters)
            .field("coordinator", &self.coordinator)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar::fetcher::{ChunkFetcher, FetchRequest};
    use agar::{AgarSettings, CachingClient};
    use agar_ec::{ChunkId, CodingParams};
    use agar_net::presets::{aws_six_regions, DUBLIN, FRANKFURT, SAO_PAULO};
    use agar_store::{expected_payload, populate, RoundRobin};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const SIZE: usize = 900;

    fn backend(objects: u64) -> Arc<Backend> {
        let preset = aws_six_regions();
        let backend = Backend::new(
            preset.topology,
            Arc::new(preset.latency),
            CodingParams::paper_default(),
            Box::new(RoundRobin),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        populate(&backend, objects, SIZE, &mut rng).unwrap();
        Arc::new(backend)
    }

    fn node(backend: &Arc<Backend>, region: agar_net::RegionId, seed: u64) -> Arc<AgarNode> {
        Arc::new(
            AgarNode::new(
                region,
                Arc::clone(backend),
                AgarSettings::paper_default(3 * SIZE),
                seed,
            )
            .unwrap(),
        )
    }

    fn tiered_node(
        backend: &Arc<Backend>,
        region: agar_net::RegionId,
        seed: u64,
        ram_bytes: usize,
        disk_bytes: usize,
    ) -> Arc<AgarNode> {
        let mut settings = AgarSettings::paper_default(ram_bytes);
        settings.disk_capacity_bytes = disk_bytes;
        settings.disk_read = Duration::from_millis(45);
        settings.disk_write = Duration::from_millis(60);
        Arc::new(AgarNode::new(region, Arc::clone(backend), settings, seed).unwrap())
    }

    fn frankfurt_cluster(objects: u64, members: usize) -> (Arc<Backend>, ClusterRouter) {
        let backend = backend(objects);
        let router =
            ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), 5).unwrap();
        for i in 0..members {
            router.add_node(node(&backend, FRANKFURT, i as u64));
        }
        (backend, router)
    }

    #[test]
    fn empty_cluster_rejects_reads_and_writes() {
        let backend = backend(1);
        let router = ClusterRouter::new(backend, ClusterSettings::default(), 0).unwrap();
        assert!(matches!(
            router.read(ObjectId::new(0)),
            Err(AgarError::InvalidSetting { .. })
        ));
        assert!(matches!(
            router.write(ObjectId::new(0), &[1; 8]),
            Err(AgarError::InvalidSetting { .. })
        ));
        assert!(matches!(
            router.read_from(7, ObjectId::new(0)),
            Err(AgarError::InvalidSetting { .. })
        ));
    }

    #[test]
    fn reads_route_to_a_stable_owner_and_return_correct_bytes() {
        let (_, router) = frankfurt_cluster(8, 4);
        for i in 0..8u64 {
            let object = ObjectId::new(i);
            let first = router.read(object).unwrap();
            assert_eq!(
                first.metrics().data.as_ref(),
                expected_payload(i, SIZE).as_slice()
            );
            for _ in 0..3 {
                assert_eq!(router.read(object).unwrap().home, first.home);
            }
        }
        // Four members, eight objects: ownership actually spreads.
        let homes: std::collections::BTreeSet<u64> = (0..8u64)
            .map(|i| router.read(ObjectId::new(i)).unwrap().home)
            .collect();
        assert!(homes.len() > 1, "all objects landed on one member");
        assert_eq!(router.counters().routed_reads.get(), 8 * 5);
    }

    #[test]
    fn sibling_caches_serve_ring_walk_offers() {
        // Two members; warm the object on a NON-owner member, then
        // route a read from the other: the ring walk must find the
        // warm sibling's chunks (priced under the cross-region
        // discount) and record remote hits.
        let backend = backend(4);
        let router =
            ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), 5).unwrap();
        let frankfurt = node(&backend, FRANKFURT, 0);
        let dublin = node(&backend, DUBLIN, 1);
        let frankfurt_id = router.add_node(Arc::clone(&frankfurt)).node;
        let dublin_id = router.add_node(Arc::clone(&dublin)).node;
        let object = ObjectId::new(0);
        // Warm Dublin directly (node-level reads, off the router).
        for _ in 0..30 {
            dublin.read(object).unwrap();
        }
        dublin.force_reconfigure();
        dublin.read(object).unwrap();
        assert!(!dublin.cache_contents().is_empty());

        let solo = frankfurt.read(object).unwrap();
        let collab = router.read_from(frankfurt_id, object).unwrap();
        assert_eq!(collab.home, frankfurt_id);
        assert_eq!(collab.metrics().data.as_ref(), solo.data.as_ref());
        assert!(
            collab.metrics().latency <= solo.latency,
            "sibling offers must not slow the read: {:?} vs {:?}",
            collab.metrics().latency,
            solo.latency
        );
        assert!(
            router.counters().remote_hits.get() > 0,
            "no sibling hits recorded"
        );
        let _ = dublin_id;
    }

    #[test]
    fn a_read_probes_every_other_member_in_ring_preference_order() {
        // Four members; the only warm one is third in the object's ring
        // preference after its owner. The routed read must reach it and
        // take its chunks.
        let (_, router) = frankfurt_cluster(4, 4);
        let object = ObjectId::new(0);
        let preference = router.ring().preference_of_object(object, 4);
        assert_eq!(preference.len(), 4);
        let warm = router.member(preference[3]).unwrap();
        for _ in 0..30 {
            warm.read(object).unwrap();
        }
        warm.force_reconfigure();
        warm.read(object).unwrap();
        for &id in &preference {
            let holds = router
                .member(id)
                .unwrap()
                .cache_contents()
                .contains_key(&object);
            assert_eq!(holds, id == preference[3], "member {id}");
        }

        let read = router.read(object).unwrap();
        assert_eq!(read.home, preference[0]);
        assert_eq!(
            read.metrics().data.as_ref(),
            expected_payload(0, SIZE).as_slice()
        );
        assert!(
            read.remote_hits > 0,
            "the third sibling's chunks went unused"
        );
        assert_eq!(router.counters().remote_hits.get(), read.remote_hits as u64);
    }

    #[test]
    fn disk_resident_sibling_chunks_join_the_ring_walk() {
        // Dublin's RAM holds a sliver of the catalogue and its disk
        // tier the rest; the ring walk must still surface the
        // disk-resident chunks (with the disk penalty priced into the
        // offer) and the read must stay correct and no slower.
        let backend = backend(4);
        let router =
            ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), 5).unwrap();
        let frankfurt = node(&backend, FRANKFURT, 0);
        let dublin = tiered_node(&backend, DUBLIN, 1, SIZE, 16 * SIZE);
        let frankfurt_id = router.add_node(Arc::clone(&frankfurt)).node;
        router.add_node(Arc::clone(&dublin));
        // Warm the whole catalogue on Dublin so its knapsack spills
        // beyond the one-object RAM budget onto disk.
        for i in 0..4u64 {
            for _ in 0..30 {
                dublin.read(ObjectId::new(i)).unwrap();
            }
        }
        dublin.force_reconfigure();
        for i in 0..4u64 {
            dublin.read(ObjectId::new(i)).unwrap();
            dublin.read(ObjectId::new(i)).unwrap();
        }
        let dublin_stats = dublin.cache_stats();
        assert!(
            dublin_stats.disk_hits() > 0,
            "warm-up never touched Dublin's disk tier"
        );

        let object = ObjectId::new(0);
        let solo = frankfurt.read(object).unwrap();
        let collab = router.read_from(frankfurt_id, object).unwrap();
        assert_eq!(collab.home, frankfurt_id);
        assert_eq!(collab.metrics().data.as_ref(), solo.data.as_ref());
        assert!(
            collab.metrics().latency <= solo.latency,
            "disk-tier offers must not slow the read: {:?} vs {:?}",
            collab.metrics().latency,
            solo.latency
        );
        assert!(
            router.counters().remote_hits.get() > 0,
            "no sibling hits recorded"
        );
    }

    #[test]
    fn a_warm_routed_read_visits_each_member_ram_once() {
        let (_, router) = frankfurt_cluster(2, 3);
        let object = ObjectId::new(0);
        for _ in 0..30 {
            router.read(object).unwrap();
        }
        router.force_reconfigure_all();
        router.read(object).unwrap();
        let members: Vec<Arc<AgarNode>> = {
            let state = router.state.read();
            state.members.iter().map(|m| Arc::clone(&m.node)).collect()
        };
        let visits = || {
            members
                .iter()
                .map(|node| node.cache_lock_visits())
                .sum::<u64>()
        };
        let before = visits();
        let read = router.read(object).unwrap();
        assert_eq!(read.metrics().cache_hits, 9);
        // The home's RAM check and its lookup, one visit to each other
        // member for the three chunks the home does not hold, and no
        // fill: over 30 when every call visited one chunk.
        let probes = members.len() as u64 - 1;
        assert_eq!(visits() - before, 2 + probes);
    }

    #[test]
    fn writes_route_to_the_owner_and_invalidate_siblings() {
        let (_, router) = frankfurt_cluster(2, 3);
        let object = ObjectId::new(0);
        // Warm the owner so there is something to invalidate.
        for _ in 0..30 {
            router.read(object).unwrap();
        }
        router.force_reconfigure_all();
        router.read(object).unwrap();

        let payload = vec![0xABu8; SIZE];
        let metrics = router.write(object, &payload).unwrap();
        assert_eq!(metrics.version, 2);
        assert!(!metrics.lease_contended, "single writer cannot contend");
        // Routed warm-up only filled the ring owner's cache, and the
        // owner's write replaces its own chunks: the two siblings are
        // invalidated but held nothing, so none is counted.
        assert_eq!(metrics.invalidations, 0);
        // Every member now returns the new payload (no stale cache).
        for id in router.member_ids() {
            let read = router.read_from(id, object).unwrap();
            assert_eq!(read.metrics().data.as_ref(), payload.as_slice());
        }
    }

    #[test]
    fn writes_invalidate_exactly_the_holders() {
        let backend = backend(2);
        let router =
            ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), 5).unwrap();
        for i in 0..4 {
            router.add_node(node(&backend, FRANKFURT, i));
        }
        let object = ObjectId::new(0);
        let owner_id = router.ring().owner_of_object(object).unwrap();
        let sibling_id = router
            .member_ids()
            .into_iter()
            .find(|&id| id != owner_id)
            .unwrap();
        // Warm the object on its owner AND one explicit non-owner.
        for _ in 0..30 {
            router.read(object).unwrap();
            router.read_from(sibling_id, object).unwrap();
        }
        router.force_reconfigure_all();
        router.read(object).unwrap();
        router.read_from(sibling_id, object).unwrap();
        let holders = || -> Vec<u64> {
            let holds = |id: &u64| {
                router
                    .member(*id)
                    .unwrap()
                    .cache_contents()
                    .contains_key(&object)
            };
            router.member_ids().into_iter().filter(holds).collect()
        };
        let mut warm = vec![owner_id, sibling_id];
        warm.sort_unstable();
        assert_eq!(holders(), warm, "exactly the two warmed members hold it");

        let metrics = router.write(object, &[0x5A; SIZE]).unwrap();
        assert_eq!(metrics.home, owner_id);
        // Exactly the one non-owner holder counts; the two members that
        // never cached the object had nothing to drop. The owner holds
        // the configured chunks of the version it wrote.
        assert_eq!(metrics.invalidations, 1);
        assert_eq!(holders(), [owner_id]);
        // A second write finds no other holder.
        let metrics = router.write(object, &[0x5B; SIZE]).unwrap();
        assert_eq!(metrics.invalidations, 0);
        assert_eq!(holders(), [owner_id]);
        let stats = router.cache_stats();
        assert_eq!(stats.lease_grants(), 2);
        assert_eq!(stats.targeted_invalidations(), 1);
    }

    /// A holder whose copy sits on disk loses it too: the broadcast
    /// drops the object's chunk ids from both tiers.
    #[test]
    fn a_tiered_routed_read_reads_each_run_of_disk_frames_once() {
        // Three tiered members whose RAM holds no chunk: the home's
        // configured chunks all sit on its disk, and the siblings hold
        // none of the object.
        let backend = backend(4);
        let router =
            ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), 5).unwrap();
        let members: Vec<Arc<AgarNode>> = (0..3)
            .map(|seed| tiered_node(&backend, FRANKFURT, seed, 50, 64 * SIZE))
            .collect();
        let ids: Vec<u64> = members
            .iter()
            .map(|member| router.add_node(Arc::clone(member)).node)
            .collect();
        let object = ObjectId::new(0);
        let home_id = router.ring().owner_of_object(object).unwrap();
        let home = &members[ids.iter().position(|&id| id == home_id).unwrap()];
        for _ in 0..30 {
            router.read(object).unwrap();
        }
        router.force_reconfigure_all();
        router.read(object).unwrap();
        let on_disk = (0..12u8)
            .filter(|&index| {
                let held = home.chunk_residency(&ChunkId::new(object, index));
                held == [(CacheTier::Disk, 1)]
            })
            .count();
        assert!(
            on_disk > 1,
            "{on_disk} configured chunks on the home's disk"
        );

        let calls: Vec<u64> = members
            .iter()
            .map(|m| m.disk_counters().unwrap().read_calls.get())
            .collect();
        let before = home.cache_stats();
        let read = router.read(object).unwrap();
        assert_eq!(read.home, home_id);
        assert_eq!(
            read.metrics().data.as_ref(),
            expected_payload(0, SIZE).as_slice()
        );
        let disk_hits = home.cache_stats().delta_since(&before).disk_hits();
        assert_eq!(disk_hits, on_disk as u64);
        let issued: Vec<u64> = members
            .iter()
            .zip(&calls)
            .map(|(member, before)| member.disk_counters().unwrap().read_calls.get() - before)
            .collect();
        // The fill appended the configured frames back to back: one
        // run, one read — not one more per chunk for the router's RAM
        // check.
        let expected: Vec<u64> = ids.iter().map(|&id| u64::from(id == home_id)).collect();
        assert_eq!(issued, expected);
    }

    #[test]
    fn writes_empty_both_tiers_of_a_tiered_holder() {
        let backend = backend(8);
        let router =
            ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), 5).unwrap();
        let owner_id = router.add_node(node(&backend, FRANKFURT, 0)).node;
        let tiered = tiered_node(&backend, FRANKFURT, 1, 100, 16 * SIZE);
        let tiered_id = router.add_node(Arc::clone(&tiered)).node;
        let object = (0..8)
            .map(ObjectId::new)
            .find(|&object| router.ring().owner_of_object(object) == Some(owner_id))
            .unwrap();
        for _ in 0..30 {
            router.read_from(tiered_id, object).unwrap();
        }
        router.force_reconfigure_all();
        router.read_from(tiered_id, object).unwrap();
        let residency = |tier| {
            (0..12u8)
                .filter(|&index| {
                    let held = tiered.chunk_residency(&ChunkId::new(object, index));
                    held.iter().any(|&(at, _)| at == tier)
                })
                .count()
        };
        assert!(residency(CacheTier::Disk) > 0, "no copy on disk");

        let metrics = router.write(object, &[0x5C; SIZE]).unwrap();
        assert_eq!((metrics.home, metrics.invalidations), (owner_id, 1));
        assert_eq!(
            (residency(CacheTier::Ram), residency(CacheTier::Disk)),
            (0, 0)
        );
        let read = router.read_from(tiered_id, object).unwrap();
        assert_eq!(read.metrics().data.as_ref(), [0x5C; SIZE].as_slice());
    }

    /// The fence's own work shows when the repairing write fails: a
    /// successful write's broadcast would drop the other members'
    /// copies anyway, a failed one leaves what the fence dropped —
    /// every member's, the owner's included.
    #[test]
    fn a_fenced_write_drops_every_copy_even_when_the_write_fails() {
        let (backend, router) = frankfurt_cluster(2, 2);
        let object = ObjectId::new(0);
        for id in router.member_ids() {
            let member = router.member(id).unwrap();
            for _ in 0..30 {
                member.read(object).unwrap();
            }
            member.force_reconfigure();
            member.read(object).unwrap();
            assert!(member.cache_contents().contains_key(&object));
        }
        router.lease_manager().acquire(object).crash();
        backend.fail_region(SAO_PAULO);
        assert!(router.write(object, &[1; SIZE]).is_err());
        assert_eq!(router.lease_manager().fences(), 1);
        assert_eq!(router.cache_stats().targeted_invalidations(), 2);
        for id in router.member_ids() {
            let member = router.member(id).unwrap();
            assert!(!member.cache_contents().contains_key(&object), "{id}");
        }
    }

    #[test]
    fn membership_changes_move_only_the_rehomed_segment() {
        let backend = backend(24);
        let router =
            ClusterRouter::new(Arc::clone(&backend), ClusterSettings::default(), 5).unwrap();
        for i in 0..3 {
            router.add_node(node(&backend, FRANKFURT, i));
        }
        let before = router.ring();
        let owner_before: Vec<(ObjectId, u64)> = (0..24u64)
            .map(|i| {
                let object = ObjectId::new(i);
                (object, before.owner_of_object(object).unwrap())
            })
            .collect();

        // Add a member: every moved object is now owned by it; every
        // other object keeps its owner.
        let change = router.add_node(node(&backend, FRANKFURT, 9));
        let after = router.ring();
        assert!(!change.moved_objects.is_empty(), "nothing re-homed");
        for (object, old_owner) in &owner_before {
            let new_owner = after.owner_of_object(*object).unwrap();
            if change.moved_objects.contains(object) {
                assert_eq!(new_owner, change.node);
            } else {
                assert_eq!(new_owner, *old_owner, "untouched segment moved");
            }
        }

        // Remove it again: exactly its segment re-homes, back onto the
        // survivors, and reads stay correct throughout.
        let removal = router.remove_node(change.node).unwrap();
        for object in &removal.moved_objects {
            assert_eq!(after.owner_of_object(*object), Some(change.node));
        }
        assert!(router.remove_node(change.node).is_none(), "double remove");
        for i in 0..24u64 {
            let metrics = router.read(ObjectId::new(i)).unwrap();
            assert_eq!(
                metrics.metrics().data.as_ref(),
                expected_payload(i, SIZE).as_slice()
            );
        }
    }

    #[test]
    fn maybe_reconfigure_ticks_every_member() {
        let (_, router) = frankfurt_cluster(2, 2);
        router.read(ObjectId::new(0)).unwrap();
        assert_eq!(router.maybe_reconfigure_all(SimTime::from_secs(0)), 0);
        assert_eq!(router.maybe_reconfigure_all(SimTime::from_secs(31)), 2);
    }

    #[test]
    fn stats_merge_members_and_coordinator() {
        let (_, router) = frankfurt_cluster(3, 2);
        for i in 0..3u64 {
            router.read(ObjectId::new(i)).unwrap();
        }
        let stats = router.cache_stats();
        assert_eq!(stats.object_reads(), 3);
        // Cold reads batch their backend fetches by region.
        assert!(stats.batched_requests() > 0);
        assert!(format!("{router:?}").contains("ClusterRouter"));
    }

    #[test]
    fn register_metrics_exposes_live_cluster_cells() {
        let (backend, router) = frankfurt_cluster(3, 2);
        let registry = MetricsRegistry::new();
        // Register BEFORE any traffic: late binding means the cells go
        // live immediately and every later read shows up in the scrape.
        router.register_metrics(&registry, &Labels::new().with("cluster", "test"));
        for i in 0..3u64 {
            router.read(ObjectId::new(i)).unwrap();
        }
        // Drive every coordinator and lease cell off zero. One fetch
        // call naming a chunk twice: the second request joins the
        // first's flight.
        let object = ObjectId::new(0);
        let manifest = backend.manifest(object).unwrap();
        let request = FetchRequest {
            chunk: ChunkId::new(object, 0),
            region: manifest.location(0),
            version: manifest.version(),
        };
        let fetched = router.coordinator().fetch(
            FRANKFURT,
            &[request, request],
            &mut StdRng::seed_from_u64(1),
        );
        assert!(fetched.iter().all(|(_, result)| result.is_ok()));
        // A second writer parks behind a held lease (contention). Then
        // a member other than the owner is warmed directly, a lease is
        // crashed, and the next routed write fences and invalidates it.
        let leases = router.lease_manager();
        let held = leases.acquire(object);
        std::thread::scope(|scope| {
            scope.spawn(|| drop(leases.acquire(object)));
            while leases.counters().lease_contentions.get() == 0 {
                std::thread::yield_now();
            }
            drop(held);
        });
        let owner = router.ring().owner_of_object(object).unwrap();
        let sibling = router.member_ids().into_iter().find(|&id| id != owner);
        let sibling = router.member(sibling.unwrap()).unwrap();
        for _ in 0..30 {
            sibling.read(object).unwrap();
        }
        sibling.force_reconfigure();
        sibling.read(object).unwrap();
        leases.acquire(object).crash();
        assert_eq!(router.write(object, &[1; SIZE]).unwrap().invalidations, 1);
        assert!(!sibling.cache_contents().contains_key(&object));

        let text = registry.render_prometheus();
        assert!(text.contains("agar_cluster_routed_reads_total{cluster=\"test\"} 3"));
        // The seven coordinator / lease series are present and moving …
        let value = |series: &str| -> u64 {
            text.lines()
                .find_map(|line| line.strip_prefix(series)?.trim().parse().ok())
                .unwrap_or_else(|| panic!("{series} missing from\n{text}"))
        };
        for series in [
            "agar_fetch_coalesced_total{cluster=\"test\",source=\"coordinator\"}",
            "agar_fetch_batched_round_trips_total{cluster=\"test\",source=\"coordinator\"}",
            "agar_fetch_primary_total{cluster=\"test\"}",
            "agar_lease_grants_total{cluster=\"test\",source=\"leases\"}",
            "agar_lease_contentions_total{cluster=\"test\",source=\"leases\"}",
            "agar_invalidations_targeted_total{cluster=\"test\",source=\"router\"}",
            "agar_lease_fences_total{cluster=\"test\"}",
        ] {
            assert!(value(series) > 0, "{series} never moved");
        }
        // … and they are the only ones: no other `source=` series, and
        // no member exporting a lease / fetch-coordination family it
        // never writes.
        let sourced = text.lines().filter(|l| l.contains("source=\"")).count();
        assert_eq!(sourced, 5, "{text}");
        assert!(text.contains("member=\"0\"") && text.contains("member=\"1\""));
        for line in text.lines().filter(|l| l.contains("member=\"")) {
            let foreign = ["agar_fetch_", "agar_lease_", "agar_invalidations_"];
            assert!(!foreign.iter().any(|f| line.starts_with(f)), "{line}");
        }
        // Registration is idempotent: a second scrape pass registers
        // nothing new and renders identically.
        let before = registry.len();
        router.register_metrics(&registry, &Labels::new().with("cluster", "test"));
        assert_eq!(registry.len(), before);
        assert_eq!(registry.render_prometheus(), text);
    }
}
