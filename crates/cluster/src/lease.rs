//! Per-object write leases and the holder registry backing targeted
//! invalidation.
//!
//! The first cluster write path broadcast an invalidation to **every**
//! member on **every** write, while holding the router's state lock
//! across the owner's backend round trip — concurrent writes
//! serialised on that lock even when they touched different objects,
//! and membership changes stalled behind WAN I/O. This module replaces
//! both mechanisms, following the lease discipline of Nishtala et al.
//! (*Scaling Memcache at Facebook*, NSDI 2013) with per-key ownership
//! in the style of Dynamo (DeCandia et al., SOSP 2007):
//!
//! - **Per-object lease** — a write acquires the object's lease
//!   (granted on behalf of the object's ring owner) before touching
//!   the backend. Writes to the *same* object serialise on the lease;
//!   writes to *different* objects share nothing and proceed in
//!   parallel. The router's state lock is only held long enough to
//!   resolve the owner.
//! - **Holder registry** — every member reports its object-level
//!   cache occupancy through the node's
//!   [`CacheEventSink`] write hook (installed by
//!   the router on join). The registry is a *superset* of true
//!   holders: capacity evictions drop entries silently, and
//!   invalidating a non-holder is harmless — the version check on
//!   read remains the correctness backstop.
//! - **Targeted invalidation on release** —
//!   [`WriteLease::release_after_write`] invalidates the written
//!   object on exactly the registered holders minus the writer,
//!   instead of every member. The writer is skipped because its own
//!   write already replaced its chunks: it holds the *new* version's
//!   configured chunks (`AgarNode::write` is a write-update) and
//!   reported so through its sink, so its registration **survives the
//!   release** — consuming it with the siblings' would leave a member
//!   that holds chunks outside the registry, and the next write routed
//!   elsewhere (a re-homed segment, a crashed lease's fence) would not
//!   reach it.
//!
//! A lease dropped without `release_after_write` (a failed write, a
//! panic) releases the slot without invalidating — waiters wake, and
//! no lease leaks. Statistics (`lease_grants`, `lease_contentions`,
//! `targeted_invalidations`) surface through [`CacheStats`].
//!
//! **Lease failover.** An owner that *crashes* mid-write
//! ([`WriteLease::crash`], driven by the fault plane) leaves the lease
//! *poisoned*: the slot is released so waiters wake, but the object is
//! marked dirty in the manager. The next writer to acquire the lease
//! **fences** first — every registered holder of the object is
//! invalidated before the new lease is granted, so no member keeps
//! serving chunks the dead writer may have half-replaced. Torn backend
//! state itself is harmless: the manifest is installed before the
//! chunks, so readers of a half-written object see version mismatches
//! and retry rather than decode across versions. The fence count
//! surfaces as `agar_lease_fences_total`.

use agar::{AgarNode, CacheEventSink};
use agar_cache::stats::ROWS;
use agar_cache::CacheStats;
use agar_ec::ObjectId;
use agar_obs::Counter;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Arc, Condvar, Mutex, Weak};

/// One per-object lease slot: `held` flips under the mutex, waiters
/// park on the condvar.
struct LeaseSlot {
    held: Mutex<bool>,
    freed: Condvar,
}

impl LeaseSlot {
    fn new() -> Self {
        LeaseSlot {
            held: Mutex::new(false),
            freed: Condvar::new(),
        }
    }
}

/// Table entry: the slot plus a reference count so the entry can be
/// dropped once the last writer (holder or waiter) leaves.
struct SlotEntry {
    slot: Arc<LeaseSlot>,
    refs: usize,
}

/// The cluster's write-path coordinator (see the module docs):
/// per-object leases, the member/holder registry, and targeted
/// invalidation on lease release.
///
/// Thread-safe behind `&self`; owned by the `ClusterRouter`, which
/// registers members on join and unregisters them on departure.
pub struct WriteLeaseManager {
    /// Registered members by id (strong refs; the router removes an
    /// entry when the member leaves the cluster).
    members: Mutex<BTreeMap<u64, Arc<AgarNode>>>,
    /// Object → member ids whose caches (are believed to) hold chunks
    /// of it. Superset semantics — see the module docs.
    holders: Mutex<HashMap<ObjectId, BTreeSet<u64>>>,
    /// Active lease slots by object.
    leases: Mutex<HashMap<ObjectId, SlotEntry>>,
    /// Objects whose last lease holder crashed mid-write. Kept on the
    /// manager, not the slot: a crash with no waiters tears the slot
    /// entry down, and the poison must survive until the next writer
    /// arrives to fence.
    poisoned: Mutex<BTreeSet<ObjectId>>,
    /// Poisoned leases fenced and reclaimed by a subsequent writer.
    fences: Counter,
    lease_grants: Counter,
    lease_contentions: Counter,
    targeted_invalidations: Counter,
}

impl WriteLeaseManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        WriteLeaseManager {
            members: Mutex::new(BTreeMap::new()),
            holders: Mutex::new(HashMap::new()),
            leases: Mutex::new(HashMap::new()),
            poisoned: Mutex::new(BTreeSet::new()),
            fences: Counter::new(),
            lease_grants: Counter::new(),
            lease_contentions: Counter::new(),
            targeted_invalidations: Counter::new(),
        }
    }

    /// Registers a member and seeds the holder registry from whatever
    /// its cache already contains (a node warmed before joining must
    /// not be invisible to targeted invalidation).
    pub fn register_member(&self, id: u64, node: Arc<AgarNode>) {
        use agar::CachingClient;
        let warm: Vec<ObjectId> = node.cache_contents().keys().copied().collect();
        self.members
            .lock()
            .expect("member table poisoned")
            .insert(id, node);
        if !warm.is_empty() {
            let mut holders = self.holders.lock().expect("holder registry poisoned");
            for object in warm {
                holders.entry(object).or_default().insert(id);
            }
        }
    }

    /// Unregisters a member: removes it from the member table and
    /// purges it from every holder set. Outstanding leases are
    /// untouched — a write in flight to the departed owner completes
    /// against the `Arc` it already holds and releases normally.
    pub fn unregister_member(&self, id: u64) {
        self.members
            .lock()
            .expect("member table poisoned")
            .remove(&id);
        let mut holders = self.holders.lock().expect("holder registry poisoned");
        holders.retain(|_, members| {
            members.remove(&id);
            !members.is_empty()
        });
    }

    /// Marks `member` as holding chunks of `object`.
    pub fn record_fill(&self, member: u64, object: ObjectId) {
        self.holders
            .lock()
            .expect("holder registry poisoned")
            .entry(object)
            .or_default()
            .insert(member);
    }

    /// Marks `member` as no longer holding chunks of `object`.
    pub fn record_drop(&self, member: u64, object: ObjectId) {
        let mut holders = self.holders.lock().expect("holder registry poisoned");
        if let Some(members) = holders.get_mut(&object) {
            members.remove(&member);
            if members.is_empty() {
                holders.remove(&object);
            }
        }
    }

    /// The member ids currently registered as holding chunks of
    /// `object` (sorted).
    pub fn holders_of(&self, object: ObjectId) -> Vec<u64> {
        self.holders
            .lock()
            .expect("holder registry poisoned")
            .get(&object)
            .map(|members| members.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Acquires the write lease for `object` on behalf of its ring
    /// owner `owner`, blocking behind any writer already holding it
    /// (same-object writes serialise; different objects share
    /// nothing). The returned guard releases on drop; call
    /// [`WriteLease::release_after_write`] after a successful write to
    /// also run the targeted invalidation.
    pub fn acquire(&self, object: ObjectId, owner: u64) -> WriteLease<'_> {
        let slot = {
            let mut leases = self.leases.lock().expect("lease table poisoned");
            let entry = leases.entry(object).or_insert_with(|| SlotEntry {
                slot: Arc::new(LeaseSlot::new()),
                refs: 0,
            });
            entry.refs += 1;
            Arc::clone(&entry.slot)
        };
        let mut contended = false;
        {
            let mut held = slot.held.lock().expect("lease slot poisoned");
            if *held {
                contended = true;
                self.lease_contentions.inc();
                while *held {
                    held = slot.freed.wait(held).expect("lease slot poisoned");
                }
            }
            *held = true;
        }
        // Fence a crashed predecessor before the grant becomes usable:
        // every registered holder is invalidated (no skip — the dead
        // writer may have half-replaced the object's chunks anywhere),
        // so stale chunks cannot outlive the crash.
        let fenced = self
            .poisoned
            .lock()
            .expect("poison set poisoned")
            .remove(&object);
        if fenced {
            self.fences.inc();
            self.invalidate_holders(object, u64::MAX);
        }
        self.lease_grants.inc();
        WriteLease {
            manager: self,
            object,
            owner,
            slot,
            contended,
            fenced,
        }
    }

    /// Poisoned leases fenced and reclaimed by a subsequent writer.
    pub fn fences(&self) -> u64 {
        self.fences.get()
    }

    /// Leases currently held or waited on (diagnostics; the race suite
    /// asserts this drains to zero — no leaked leases).
    pub fn active_leases(&self) -> usize {
        self.leases.lock().expect("lease table poisoned").len()
    }

    /// The lease counters as a [`CacheStats`] report (only the
    /// `lease_grants` / `lease_contentions` / `targeted_invalidations`
    /// fields are set); the router merges this into its aggregated
    /// statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lease_grants: self.lease_grants.get(),
            lease_contentions: self.lease_contentions.get(),
            targeted_invalidations: self.targeted_invalidations.get(),
            ..CacheStats::default()
        }
    }

    /// Late-binds the lease counters into a metrics registry: the three
    /// counter-table rows this struct owns (labelled `source="leases"`)
    /// plus the fence count.
    pub fn register_metrics(&self, registry: &agar_obs::MetricsRegistry, base: &agar_obs::Labels) {
        let sourced = base.clone().with("source", "leases");
        ROWS.lease_grants
            .register(registry, &sourced, &self.lease_grants);
        ROWS.lease_contentions
            .register(registry, &sourced, &self.lease_contentions);
        ROWS.targeted_invalidations
            .register(registry, &sourced, &self.targeted_invalidations);
        registry.register_counter(
            "agar_lease_fences_total",
            "Poisoned leases fenced and reclaimed after an owner crash.",
            base.clone(),
            &self.fences,
        );
    }

    /// Invalidates `object` on every registered holder except `skip`
    /// (the writer, whose own write already replaced its chunks);
    /// returns how many members were invalidated. The invalidated
    /// holders' registrations are consumed — they re-register on their
    /// next fill — while `skip`'s, if it has one, stays: it is
    /// registered exactly when its write left chunks behind.
    fn invalidate_holders(&self, object: ObjectId, skip: u64) -> u64 {
        let holder_ids: Vec<u64> = {
            let mut holders = self.holders.lock().expect("holder registry poisoned");
            let mut ids = holders.remove(&object).unwrap_or_default();
            if ids.remove(&skip) {
                holders.insert(object, BTreeSet::from([skip]));
            }
            ids.into_iter().collect()
        };
        let targets: Vec<Arc<AgarNode>> = {
            let members = self.members.lock().expect("member table poisoned");
            holder_ids
                .iter()
                .filter_map(|id| members.get(id).cloned())
                .collect()
        };
        // No registry or member lock is held across the cache work.
        let invalidated = targets.len() as u64;
        for node in targets {
            node.invalidate_object(object);
        }
        self.targeted_invalidations.add(invalidated);
        invalidated
    }

    /// Releases the slot acquired by [`WriteLeaseManager::acquire`].
    fn release_slot(&self, object: ObjectId, slot: &Arc<LeaseSlot>) {
        {
            let mut held = slot
                .held
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            *held = false;
        }
        slot.freed.notify_one();
        let mut leases = self
            .leases
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if let Some(entry) = leases.get_mut(&object) {
            entry.refs -= 1;
            if entry.refs == 0 {
                leases.remove(&object);
            }
        }
    }
}

impl Default for WriteLeaseManager {
    fn default() -> Self {
        WriteLeaseManager::new()
    }
}

impl std::fmt::Debug for WriteLeaseManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteLeaseManager")
            .field("active_leases", &self.active_leases())
            .field(
                "tracked_objects",
                &self.holders.lock().expect("holder registry poisoned").len(),
            )
            .field("lease_grants", &self.lease_grants.get())
            .field("lease_contentions", &self.lease_contentions.get())
            .field("targeted_invalidations", &self.targeted_invalidations.get())
            .field("fences", &self.fences.get())
            .finish()
    }
}

/// A held per-object write lease (see [`WriteLeaseManager::acquire`]).
///
/// Dropping the guard releases the lease *without* invalidating —
/// that is the failure path (backend write error, panic), so waiters
/// always wake and no lease leaks. The success path is
/// [`WriteLease::release_after_write`].
#[must_use = "dropping a lease releases it without invalidating"]
pub struct WriteLease<'a> {
    manager: &'a WriteLeaseManager,
    object: ObjectId,
    owner: u64,
    slot: Arc<LeaseSlot>,
    contended: bool,
    fenced: bool,
}

impl WriteLease<'_> {
    /// The leased object.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// The ring owner the lease was granted on behalf of.
    pub fn owner(&self) -> u64 {
        self.owner
    }

    /// Whether this acquisition had to wait behind another writer.
    pub fn contended(&self) -> bool {
        self.contended
    }

    /// Whether this acquisition fenced a crashed predecessor (every
    /// registered holder was invalidated before the grant).
    pub fn fenced(&self) -> bool {
        self.fenced
    }

    /// Simulates the holder dying mid-write: the lease is *poisoned*
    /// and released without any invalidation — waiters wake, but the
    /// next writer to acquire this object's lease fences (invalidates
    /// all registered holders) before its grant becomes usable. Fault
    /// injection's crash driver; real code paths release via drop or
    /// [`WriteLease::release_after_write`].
    pub fn crash(self) {
        self.manager
            .poisoned
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(self.object);
        // Drop releases the slot without invalidating: waiters wake
        // and the first of them finds the poison.
    }

    /// Completes a successful write: targeted invalidation of every
    /// registered holder except the owner (whose write replaced its
    /// own chunks, and whose registration stays), then release.
    /// Returns the number of members invalidated.
    pub fn release_after_write(self) -> u64 {
        self.manager.invalidate_holders(self.object, self.owner)
        // Drop releases the slot.
    }
}

impl Drop for WriteLease<'_> {
    fn drop(&mut self) {
        self.manager.release_slot(self.object, &self.slot);
    }
}

/// The per-member [`CacheEventSink`] the router installs on join: it
/// forwards the node's object-level occupancy events into the holder
/// registry.
///
/// The manager is held weakly: it owns the member nodes and each node
/// owns its sink, so a strong reference here would close a cycle and
/// no member of a dropped router (nor its disk tier's directory) would
/// ever be freed. Events after the router is gone have no registry to
/// update.
pub(crate) struct MemberCacheSink {
    pub(crate) manager: Weak<WriteLeaseManager>,
    pub(crate) member: u64,
}

impl CacheEventSink for MemberCacheSink {
    fn object_filled(&self, object: ObjectId) {
        if let Some(manager) = self.manager.upgrade() {
            manager.record_fill(self.member, object);
        }
    }

    fn object_dropped(&self, object: ObjectId) {
        if let Some(manager) = self.manager.upgrade() {
            manager.record_drop(self.member, object);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    #[test]
    fn same_object_leases_serialise_and_count_contention() {
        let manager = Arc::new(WriteLeaseManager::new());
        let object = ObjectId::new(1);
        let lease = manager.acquire(object, 0);
        assert!(!lease.contended());
        assert_eq!(manager.active_leases(), 1);

        let acquired = Arc::new(AtomicBool::new(false));
        let handle = {
            let manager = Arc::clone(&manager);
            let acquired = Arc::clone(&acquired);
            std::thread::spawn(move || {
                let second = manager.acquire(object, 0);
                acquired.store(true, Ordering::SeqCst);
                assert!(second.contended());
            })
        };
        // The second writer must park behind the held lease.
        std::thread::sleep(Duration::from_millis(50));
        assert!(!acquired.load(Ordering::SeqCst), "lease did not serialise");
        drop(lease);
        handle.join().unwrap();
        assert!(acquired.load(Ordering::SeqCst));
        assert_eq!(manager.active_leases(), 0, "leaked lease slot");
        let stats = manager.stats();
        assert_eq!(stats.lease_grants(), 2);
        assert_eq!(stats.lease_contentions(), 1);
    }

    #[test]
    fn distinct_object_leases_are_independent() {
        let manager = WriteLeaseManager::new();
        let a = manager.acquire(ObjectId::new(1), 0);
        let b = manager.acquire(ObjectId::new(2), 1);
        assert!(!a.contended());
        assert!(!b.contended(), "distinct objects must not contend");
        assert_eq!(manager.active_leases(), 2);
        drop(a);
        drop(b);
        assert_eq!(manager.active_leases(), 0);
        assert_eq!(manager.stats().lease_contentions(), 0);
    }

    #[test]
    fn holder_registry_tracks_fills_and_drops() {
        let manager = WriteLeaseManager::new();
        let object = ObjectId::new(3);
        manager.record_fill(0, object);
        manager.record_fill(2, object);
        assert_eq!(manager.holders_of(object), vec![0, 2]);
        manager.record_drop(0, object);
        assert_eq!(manager.holders_of(object), vec![2]);
        manager.record_drop(2, object);
        assert!(manager.holders_of(object).is_empty());
        // Dropping an unknown holder is a no-op.
        manager.record_drop(9, object);
    }

    #[test]
    fn a_release_consumes_the_siblings_registrations_and_keeps_the_writers() {
        let manager = WriteLeaseManager::new();
        let object = ObjectId::new(4);
        // The owner (0) re-registered through its write; 1 and 2 hold
        // the old version.
        for member in 0..3 {
            manager.record_fill(member, object);
        }
        manager.acquire(object, 0).release_after_write();
        assert_eq!(manager.holders_of(object), vec![0]);
        // An owner whose write left nothing behind reported a drop and
        // is not resurrected by the release.
        manager.record_fill(1, object);
        manager.record_drop(0, object);
        manager.acquire(object, 0).release_after_write();
        assert!(manager.holders_of(object).is_empty());
    }

    #[test]
    fn unregister_purges_the_member_from_every_holder_set() {
        let manager = WriteLeaseManager::new();
        manager.record_fill(1, ObjectId::new(0));
        manager.record_fill(1, ObjectId::new(7));
        manager.record_fill(2, ObjectId::new(7));
        manager.unregister_member(1);
        assert!(manager.holders_of(ObjectId::new(0)).is_empty());
        assert_eq!(manager.holders_of(ObjectId::new(7)), vec![2]);
    }

    #[test]
    fn debug_output() {
        let manager = WriteLeaseManager::default();
        assert!(format!("{manager:?}").contains("WriteLeaseManager"));
    }

    #[test]
    fn crashed_lease_is_fenced_by_the_next_writer() {
        let manager = WriteLeaseManager::new();
        let object = ObjectId::new(5);
        manager.record_fill(3, object);
        let lease = manager.acquire(object, 0);
        assert!(!lease.fenced());
        lease.crash();
        assert_eq!(manager.active_leases(), 0, "crash released the slot");
        assert!(
            !manager.holders_of(object).is_empty(),
            "the crash itself must not invalidate (no release_after_write ran)"
        );
        let next = manager.acquire(object, 1);
        assert!(next.fenced(), "the reclaiming writer fences");
        assert_eq!(manager.fences(), 1);
        assert!(
            manager.holders_of(object).is_empty(),
            "fencing purges every registered holder"
        );
        drop(next);
        // The poison is consumed by the fence, not sticky.
        let third = manager.acquire(object, 2);
        assert!(!third.fenced());
        drop(third);
        assert_eq!(manager.fences(), 1);
        assert_eq!(manager.active_leases(), 0);
    }

    #[test]
    fn crash_poison_reaches_a_parked_waiter() {
        let manager = Arc::new(WriteLeaseManager::new());
        let object = ObjectId::new(8);
        manager.record_fill(4, object);
        let lease = manager.acquire(object, 0);
        let handle = {
            let manager = Arc::clone(&manager);
            std::thread::spawn(move || {
                let waiter = manager.acquire(object, 1);
                assert!(waiter.contended());
                assert!(waiter.fenced(), "the woken waiter must fence the crash");
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        lease.crash();
        handle.join().unwrap();
        assert_eq!(manager.fences(), 1);
        assert!(manager.holders_of(object).is_empty());
        assert_eq!(manager.active_leases(), 0);
    }
}
