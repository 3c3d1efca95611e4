//! The cluster-facing write hook: object-level cache occupancy events.
//!
//! A single [`AgarNode`](crate::AgarNode) keeps its cache coherent on
//! its own (version validation on read, local invalidation on write).
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
//!   object entered the cache (a read's fill stage or an
//!   a-priori reconfiguration download);
//! - [`object_dropped`](CacheEventSink::object_dropped) — the node
//!   dropped every cached chunk of an object on an explicit
//!   invalidation (a reconfiguration's purge deliberately reports no
//!   drops: the event could arrive after a concurrent fill re-inserted
//!   the object, deregistering a member that really holds chunks);
//! - [`object_written`](CacheEventSink::object_written) — the node
//!   itself wrote the object through the backend.
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

/// Observer of a node's object-level cache occupancy and writes (see
/// the module docs). Callbacks run on the node's calling thread and
/// must not call back into the node.
pub trait CacheEventSink: Send + Sync {
    /// At least one chunk of `object` entered this node's cache.
    fn object_filled(&self, object: ObjectId);

    /// This node dropped every cached chunk of `object`.
    fn object_dropped(&self, object: ObjectId);

    /// This node wrote `object` through the backend (its local cache
    /// is already invalidated when this fires).
    fn object_written(&self, object: ObjectId, version: u64);
}
