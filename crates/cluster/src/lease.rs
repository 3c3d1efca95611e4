//! Per-object write leases.
//!
//! The first cluster write path held the router's state lock across
//! the owner's backend round trip — concurrent writes serialised on
//! that lock even when they touched different objects, and membership
//! changes stalled behind WAN I/O. A write now acquires the object's
//! lease instead, following the lease discipline of Nishtala et al.
//! (*Scaling Memcache at Facebook*, NSDI 2013) with per-key ownership
//! in the style of Dynamo (DeCandia et al., SOSP 2007): writes to the
//! *same* object serialise on the lease; writes to *different* objects
//! share nothing and proceed in parallel. The router's state lock is
//! only held long enough to resolve the members.
//!
//! What the lease covers is the router's (`ClusterRouter::write`): the
//! owner's write-update, then the invalidation of the object on every
//! other member. A lease is released by dropping it — after a
//! successful write, a failed one or a panic alike — so waiters always
//! wake and no lease leaks. Statistics (`lease_grants`,
//! `lease_contentions`) surface through [`CacheStats`].
//!
//! **Lease failover.** An owner that *crashes* mid-write
//! ([`WriteLease::crash`], driven by the fault plane) leaves the lease
//! *poisoned*: the slot is released so waiters wake, but the object is
//! marked dirty in the manager. The next writer to acquire the lease
//! **fences** ([`WriteLease::fenced`]): the router invalidates the
//! object on every member, the new owner included, before it writes,
//! so no member keeps serving chunks the dead writer may have
//! half-replaced. Torn backend state itself is harmless: the manifest
//! is installed before the chunks, so readers of a half-written object
//! see version mismatches and retry rather than decode across versions.
//! The fence count surfaces as `agar_lease_fences_total`.

use agar_cache::stats::ROWS;
use agar_cache::CacheStats;
use agar_ec::ObjectId;
use agar_obs::Counter;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Condvar, Mutex};

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

/// The cluster's per-object write leases and the poison set of writers
/// that crashed holding one (see the module docs).
///
/// Thread-safe behind `&self`; owned by the `ClusterRouter`.
pub struct WriteLeaseManager {
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
}

impl WriteLeaseManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        WriteLeaseManager {
            leases: Mutex::new(HashMap::new()),
            poisoned: Mutex::new(BTreeSet::new()),
            fences: Counter::new(),
            lease_grants: Counter::new(),
            lease_contentions: Counter::new(),
        }
    }

    /// Acquires the write lease for `object`, blocking behind any
    /// writer already holding it (same-object writes serialise;
    /// different objects share nothing). The returned guard releases
    /// on drop. A grant that consumed a crashed predecessor's poison
    /// reports [`WriteLease::fenced`]: its holder must invalidate the
    /// object everywhere before writing.
    pub fn acquire(&self, object: ObjectId) -> WriteLease<'_> {
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
        let fenced = self
            .poisoned
            .lock()
            .expect("poison set poisoned")
            .remove(&object);
        if fenced {
            self.fences.inc();
        }
        self.lease_grants.inc();
        WriteLease {
            manager: self,
            object,
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
    /// `lease_grants` / `lease_contentions` fields are set); the router
    /// merges this into its aggregated statistics.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lease_grants: self.lease_grants.get(),
            lease_contentions: self.lease_contentions.get(),
            ..CacheStats::default()
        }
    }

    /// Late-binds the lease counters into a metrics registry: the two
    /// counter-table rows this struct owns (labelled `source="leases"`)
    /// plus the fence count.
    pub fn register_metrics(&self, registry: &agar_obs::MetricsRegistry, base: &agar_obs::Labels) {
        let sourced = base.clone().with("source", "leases");
        ROWS.lease_grants
            .register(registry, &sourced, &self.lease_grants);
        ROWS.lease_contentions
            .register(registry, &sourced, &self.lease_contentions);
        registry.register_counter(
            "agar_lease_fences_total",
            "Poisoned leases fenced and reclaimed after an owner crash.",
            base.clone(),
            &self.fences,
        );
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
            .field("lease_grants", &self.lease_grants.get())
            .field("lease_contentions", &self.lease_contentions.get())
            .field("fences", &self.fences.get())
            .finish()
    }
}

/// A held per-object write lease (see [`WriteLeaseManager::acquire`]).
/// Dropping the guard releases the lease, so waiters always wake and
/// no lease leaks.
#[must_use = "dropping a lease releases it"]
pub struct WriteLease<'a> {
    manager: &'a WriteLeaseManager,
    object: ObjectId,
    slot: Arc<LeaseSlot>,
    contended: bool,
    fenced: bool,
}

impl WriteLease<'_> {
    /// Whether this acquisition had to wait behind another writer.
    pub fn contended(&self) -> bool {
        self.contended
    }

    /// Whether this acquisition fenced a crashed predecessor: the
    /// holder must invalidate the object on every member before it
    /// writes.
    pub fn fenced(&self) -> bool {
        self.fenced
    }

    /// Simulates the holder dying mid-write: the lease is *poisoned*
    /// and released — waiters wake, and the next writer to acquire this
    /// object's lease fences before it writes. Only fault injection
    /// calls this; real code paths release by dropping the guard.
    pub fn crash(self) {
        self.manager
            .poisoned
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .insert(self.object);
        // Drop releases the slot: waiters wake and the first of them
        // finds the poison.
    }
}

impl Drop for WriteLease<'_> {
    fn drop(&mut self) {
        self.manager.release_slot(self.object, &self.slot);
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
        let lease = manager.acquire(object);
        assert!(!lease.contended());
        assert_eq!(manager.active_leases(), 1);

        let acquired = Arc::new(AtomicBool::new(false));
        let handle = {
            let manager = Arc::clone(&manager);
            let acquired = Arc::clone(&acquired);
            std::thread::spawn(move || {
                let second = manager.acquire(object);
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
        let a = manager.acquire(ObjectId::new(1));
        let b = manager.acquire(ObjectId::new(2));
        assert!(!a.contended());
        assert!(!b.contended(), "distinct objects must not contend");
        assert_eq!(manager.active_leases(), 2);
        drop(a);
        drop(b);
        assert_eq!(manager.active_leases(), 0);
        assert_eq!(manager.stats().lease_contentions(), 0);
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
        let lease = manager.acquire(object);
        assert!(!lease.fenced());
        lease.crash();
        assert_eq!(manager.active_leases(), 0, "crash released the slot");
        assert_eq!(manager.fences(), 0, "the crash itself fences nothing");
        let next = manager.acquire(object);
        assert!(next.fenced(), "the reclaiming writer fences");
        assert_eq!(manager.fences(), 1);
        drop(next);
        // The poison is consumed by the fence, not sticky.
        let third = manager.acquire(object);
        assert!(!third.fenced());
        drop(third);
        assert_eq!(manager.fences(), 1);
        assert_eq!(manager.active_leases(), 0);
    }

    #[test]
    fn crash_poison_reaches_a_parked_waiter() {
        let manager = Arc::new(WriteLeaseManager::new());
        let object = ObjectId::new(8);
        let lease = manager.acquire(object);
        let handle = {
            let manager = Arc::clone(&manager);
            std::thread::spawn(move || {
                let waiter = manager.acquire(object);
                assert!(waiter.contended());
                assert!(waiter.fenced(), "the woken waiter must fence the crash");
            })
        };
        std::thread::sleep(Duration::from_millis(50));
        lease.crash();
        handle.join().unwrap();
        assert_eq!(manager.fences(), 1);
        assert_eq!(manager.active_leases(), 0);
    }
}
