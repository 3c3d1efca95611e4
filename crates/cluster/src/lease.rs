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
//! proceed in parallel, sharing only the lease table's mutex, which is
//! held for a set lookup and never across I/O. The router's state lock
//! is only held long enough to resolve the members.
//!
//! What the lease covers is the router's (`ClusterRouter::write`): the
//! owner's write-update, then the invalidation of the object on every
//! other member. A lease is released by dropping it — after a
//! successful write, a failed one or a panic alike — so waiters always
//! wake and no lease leaks. Grants and contentions are cells of
//! [`LeaseCounters`] and surface in the router's `CacheStats` too.
//!
//! **Lease failover.** An owner that *crashes* mid-write
//! ([`WriteLease::crash`], driven by the fault plane) leaves the lease
//! *poisoned*: the lease is released so waiters wake, but the object is
//! marked dirty in the manager. The next writer to acquire the lease
//! **fences** ([`WriteLease::fenced`]): the router invalidates the
//! object on every member, the new owner included, before it writes,
//! so no member keeps serving chunks the dead writer may have
//! half-replaced. Torn backend state itself is harmless: the manifest
//! is installed before the chunks, so readers of a half-written object
//! see version mismatches and retry rather than decode across versions.
//! Fences are counted in [`LeaseCounters`].

use agar_ec::ObjectId;
use std::collections::HashSet;
use std::sync::{Condvar, Mutex, PoisonError};

/// The lease table: objects whose lease is held, and objects whose last
/// holder crashed mid-write. A poison outlives the lease it marks and
/// is consumed by the next writer, who fences.
#[derive(Debug, Default)]
struct Table {
    held: HashSet<ObjectId>,
    poisoned: HashSet<ObjectId>,
}

/// The cluster's per-object write leases and the poison set of writers
/// that crashed holding one (see the module docs): one table under one
/// mutex, one condvar every release wakes all waiters on.
///
/// Thread-safe behind `&self`; owned by the `ClusterRouter`.
#[derive(Debug, Default)]
pub struct WriteLeaseManager {
    table: Mutex<Table>,
    /// Signalled on every release. Waiters on different objects share
    /// it, so a release wakes them all and each re-checks its object.
    released: Condvar,
    counters: LeaseCounters,
}

agar_obs::cell_table! {
    /// The lease counters: grants, writes that waited behind another
    /// writer, and poisoned leases a subsequent writer fenced.
    pub struct LeaseCounters {
        lease_grants: Counter "agar_lease_grants_total" [("source", "leases")]
            "Per-object write leases granted.";
        lease_contentions: Counter "agar_lease_contentions_total" [("source", "leases")]
            "Writes that waited behind another writer's lease.";
        fences: Counter "agar_lease_fences_total" []
            "Poisoned leases fenced and reclaimed after an owner crash.";
    }
}

impl WriteLeaseManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        WriteLeaseManager::default()
    }

    /// Acquires the write lease for `object`, blocking behind any
    /// writer already holding it (same-object writes serialise;
    /// different objects do not wait on each other). The returned guard
    /// releases on drop. A grant that consumed a crashed predecessor's
    /// poison reports [`WriteLease::fenced`]: its holder must invalidate
    /// the object everywhere before writing.
    pub fn acquire(&self, object: ObjectId) -> WriteLease<'_> {
        let mut table = self.table.lock().expect("lease table poisoned");
        let contended = table.held.contains(&object);
        if contended {
            self.counters.lease_contentions.inc();
            table = self
                .released
                .wait_while(table, |table| table.held.contains(&object))
                .expect("lease table poisoned");
        }
        table.held.insert(object);
        let fenced = table.poisoned.remove(&object);
        drop(table);
        if fenced {
            self.counters.fences.inc();
        }
        self.counters.lease_grants.inc();
        WriteLease {
            manager: self,
            object,
            contended,
            fenced,
        }
    }

    /// Poisoned leases fenced and reclaimed by a subsequent writer.
    pub fn fences(&self) -> u64 {
        self.counters.fences.get()
    }

    /// Leases currently held (diagnostics; the race suite asserts this
    /// drains to zero — no leaked leases).
    pub fn active_leases(&self) -> usize {
        self.table.lock().expect("lease table poisoned").held.len()
    }

    /// The lease counters (see [`LeaseCounters`]).
    pub fn counters(&self) -> &LeaseCounters {
        &self.counters
    }
}

/// A held per-object write lease (see [`WriteLeaseManager::acquire`]).
/// Dropping the guard releases the lease, so waiters always wake and
/// no lease leaks.
#[must_use = "dropping a lease releases it"]
pub struct WriteLease<'a> {
    manager: &'a WriteLeaseManager,
    object: ObjectId,
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
        let table = &self.manager.table;
        let mut table = table.lock().unwrap_or_else(PoisonError::into_inner);
        table.poisoned.insert(self.object);
        // Drop releases the lease: waiters wake and the first of them
        // finds the poison.
    }
}

impl Drop for WriteLease<'_> {
    fn drop(&mut self) {
        // Released even by a panicking holder's unwind.
        let table = &self.manager.table;
        let mut table = table.lock().unwrap_or_else(PoisonError::into_inner);
        table.held.remove(&self.object);
        drop(table);
        self.manager.released.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    /// Returns once `contentions` writers have counted themselves
    /// contended. `acquire` counts under the table lock and releases it
    /// only by parking, so a caller that takes the lock next (a drop, a
    /// crash) finds every counted writer parked.
    fn wait_for_contentions(manager: &WriteLeaseManager, contentions: u64) {
        while manager.counters().lease_contentions.get() < contentions {
            std::thread::yield_now();
        }
    }

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
        wait_for_contentions(&manager, 1);
        assert!(!acquired.load(Ordering::SeqCst), "lease did not serialise");
        drop(lease);
        handle.join().unwrap();
        assert!(acquired.load(Ordering::SeqCst));
        assert_eq!(manager.active_leases(), 0, "leaked lease");
        let counters = manager.counters();
        assert_eq!(counters.lease_grants.get(), 2);
        assert_eq!(counters.lease_contentions.get(), 1);
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
        assert_eq!(manager.counters().lease_contentions.get(), 0);
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
        assert_eq!(manager.active_leases(), 0, "crash released the lease");
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
        wait_for_contentions(&manager, 1);
        lease.crash();
        handle.join().unwrap();
        assert_eq!(manager.fences(), 1);
        assert_eq!(manager.active_leases(), 0);
    }
}
