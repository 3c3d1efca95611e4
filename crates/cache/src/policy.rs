//! The eviction-policy abstraction.
//!
//! A policy tracks key recency/frequency metadata and nominates eviction
//! victims; the [`crate::Cache`] owns the actual entries and byte
//! accounting. Policies see only keys, which keeps them reusable across
//! value types.

use std::fmt::Debug;
use std::hash::Hash;

/// An eviction policy over keys of type `K`.
///
/// The cache calls the `on_*` hooks to keep the policy's metadata in sync
/// with the entry map, and [`EvictionPolicy::evict_candidate`] when it
/// needs space. A policy must uphold:
///
/// - after `on_insert(k)` (and before `on_remove(k)`), `k` is eligible to
///   be returned by `evict_candidate`;
/// - `evict_candidate` removes the returned key from the policy's own
///   metadata (the cache removes the entry itself);
/// - `evict_candidate` returns `None` only when the policy tracks no keys.
pub trait EvictionPolicy<K: Eq + Hash + Clone> {
    /// A new key was inserted into the cache.
    fn on_insert(&mut self, key: &K);

    /// An existing key was read.
    fn on_access(&mut self, key: &K);

    /// A key was removed from the cache (explicitly, not by eviction).
    fn on_remove(&mut self, key: &K);

    /// Nominates and removes the next eviction victim.
    fn evict_candidate(&mut self) -> Option<K>;

    /// Number of keys currently tracked.
    fn tracked(&self) -> usize;

    /// Short human-readable policy name (e.g. `"lru"`).
    fn name(&self) -> &'static str;
}

/// Which built-in eviction policy to instantiate.
///
/// This is the runtime-selectable counterpart of the concrete policy
/// types; the experiment harness uses it to switch between the paper's
/// LRU and LFU baselines from CLI arguments.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum PolicyKind {
    /// Least Recently Used (memcached's default, the paper's LRU baseline).
    #[default]
    Lru,
    /// Least Frequently Used (the paper's LFU baseline, which required an
    /// extra proxy to track frequencies).
    Lfu,
}

impl PolicyKind {
    /// All built-in policy kinds.
    pub const ALL: [PolicyKind; 2] = [PolicyKind::Lru, PolicyKind::Lfu];
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Lfu => "lfu",
        };
        f.write_str(s)
    }
}

/// A runtime-selected eviction policy (enum dispatch over the built-ins).
#[derive(Clone, Debug)]
pub enum AnyPolicy<K: Eq + Hash + Clone + Debug> {
    /// Least Recently Used.
    Lru(crate::lru::Lru<K>),
    /// Least Frequently Used.
    Lfu(crate::lfu::Lfu<K>),
}

impl<K: Eq + Hash + Clone + Debug> AnyPolicy<K> {
    /// Instantiates the policy selected by `kind`.
    pub fn new(kind: PolicyKind) -> Self {
        match kind {
            PolicyKind::Lru => AnyPolicy::Lru(crate::lru::Lru::new()),
            PolicyKind::Lfu => AnyPolicy::Lfu(crate::lfu::Lfu::new()),
        }
    }

    /// The kind this policy was instantiated from.
    pub fn kind(&self) -> PolicyKind {
        match self {
            AnyPolicy::Lru(_) => PolicyKind::Lru,
            AnyPolicy::Lfu(_) => PolicyKind::Lfu,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            AnyPolicy::Lru($p) => $body,
            AnyPolicy::Lfu($p) => $body,
        }
    };
}

impl<K: Eq + Hash + Clone + Debug> EvictionPolicy<K> for AnyPolicy<K> {
    fn on_insert(&mut self, key: &K) {
        dispatch!(self, p => p.on_insert(key))
    }
    fn on_access(&mut self, key: &K) {
        dispatch!(self, p => p.on_access(key))
    }
    fn on_remove(&mut self, key: &K) {
        dispatch!(self, p => p.on_remove(key))
    }
    fn evict_candidate(&mut self) -> Option<K> {
        dispatch!(self, p => p.evict_candidate())
    }
    fn tracked(&self) -> usize {
        dispatch!(self, p => p.tracked())
    }
    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_kind_display() {
        assert_eq!(PolicyKind::Lru.to_string(), "lru");
        assert_eq!(PolicyKind::Lfu.to_string(), "lfu");
        assert_eq!(PolicyKind::default(), PolicyKind::Lru);
    }

    #[test]
    fn any_policy_dispatches_and_reports_kind() {
        for kind in PolicyKind::ALL {
            let mut p: AnyPolicy<u32> = AnyPolicy::new(kind);
            assert_eq!(p.kind(), kind);
            assert_eq!(p.tracked(), 0);
            p.on_insert(&1);
            p.on_insert(&2);
            p.on_access(&1);
            assert_eq!(p.tracked(), 2);
            let victim = p.evict_candidate().unwrap();
            assert!(victim == 1 || victim == 2);
            assert_eq!(p.tracked(), 1);
            p.on_remove(&if victim == 1 { 2 } else { 1 });
            assert_eq!(p.tracked(), 0);
            assert!(p.evict_candidate().is_none());
            assert!(!p.name().is_empty());
        }
    }
}
