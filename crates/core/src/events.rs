//! The cluster-facing write hook: object-level cache occupancy events.
//!
//! A single [`AgarNode`](crate::AgarNode) keeps its cache coherent on
//! its own (version validation on read; its own write replaces the
//! object's chunks with the configured ones of the new version).
//! A *cluster* additionally needs to know **which members hold chunks
//! of which objects**, so a write can invalidate exactly the caches
//! that matter instead of broadcasting to every member (the
//! per-object-lease write path in `agar-cluster`, after Nishtala et
//! al., *Scaling Memcache at Facebook*, NSDI 2013).
//!
//! [`CacheEventSink`] is that hook. A cluster deployment installs one
//! per member via
//! [`AgarNode::set_cache_event_sink`](crate::AgarNode::set_cache_event_sink);
//! the node then reports, off its critical path:
//!
//! - [`object_filled`](CacheEventSink::object_filled) — chunks of an
//!   object entered the cache (a read's fill stage, an a-priori
//!   reconfiguration download, or the node's own write leaving the
//!   configured chunks of the new version behind);
//! - [`object_dropped`](CacheEventSink::object_dropped) — the node
//!   dropped every cached chunk of an object on an explicit
//!   invalidation or on its own write of an object it keeps nothing of
//!   (a reconfiguration's purge deliberately reports no drops: the
//!   event could arrive after a concurrent fill re-inserted the
//!   object, deregistering a member that really holds chunks).
//!
//! The receiving registry must treat its view as a **superset** of
//! true holders: capacity evictions drop chunks silently, so an
//! object can leave the cache without a `object_dropped` event.
//! Invalidating a non-holder is harmless (the version check on read
//! is the correctness backstop either way); the events only make the
//! common case targeted. The one residual skew runs the other way: a
//! best-effort fill racing an explicit invalidation can leave a real
//! holder briefly unregistered — its stale chunks are then swept
//! lazily by the version check on that member's next read of the
//! object instead of by the write's invalidation, never served.

use agar_ec::ObjectId;

/// Observer of a node's object-level cache occupancy (see the module
/// docs). Callbacks run on the node's calling thread and
/// must not call back into the node.
pub trait CacheEventSink: Send + Sync {
    /// At least one chunk of `object` entered this node's cache.
    fn object_filled(&self, object: ObjectId);

    /// This node dropped every cached chunk of `object`.
    fn object_dropped(&self, object: ObjectId);
}
