//! The deterministic consistent-hash ring.
//!
//! A [`ClusterRing`] maps objects (and chunks) to the member node that
//! *owns* them, so a router can send every read of an object to the
//! same node — concentrating that object's popularity in one monitor
//! and its chunks in one cache. Each member contributes 64 virtual
//! points to a 64-bit ring; a key is owned by the first point at or
//! after its hash (wrapping).
//!
//! Two properties the rest of the cluster tier leans on:
//!
//! - **Determinism** — point positions mix only `(seed, node id,
//!   vnode index)` and key hashes mix only the object/chunk id, so the
//!   same seed always produces the same mapping (run-to-run and
//!   machine-to-machine; `HashMap`'s randomly keyed hasher is
//!   deliberately avoided).
//! - **Minimal movement** — adding a member re-homes only the keys the
//!   new member now owns; removing one re-homes only the keys it owned
//!   (the classic consistent-hashing guarantee, asserted by the unit
//!   tests and relied on by [`ClusterRouter`](crate::ClusterRouter)'s
//!   rebalance).

use agar_ec::ObjectId;

/// Virtual nodes per member: enough to keep the ownership split within
/// a few percent of uniform for single-digit clusters without bloating
/// the point table.
const VNODES: usize = 64;

/// SplitMix64-style finaliser used for both ring points and keys.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A deterministic consistent-hash ring over member node ids.
///
/// # Examples
///
/// ```
/// use agar_cluster::ClusterRing;
/// use agar_ec::ObjectId;
///
/// let mut ring = ClusterRing::new(42);
/// ring.add_node(0);
/// ring.add_node(1);
/// let owner = ring.owner_of_object(ObjectId::new(7)).unwrap();
/// assert!(owner <= 1);
/// // Same seed, same mapping.
/// let mut twin = ClusterRing::new(42);
/// twin.add_node(0);
/// twin.add_node(1);
/// assert_eq!(twin.owner_of_object(ObjectId::new(7)), Some(owner));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClusterRing {
    seed: u64,
    nodes: Vec<u64>,
    /// `(position, node id)`, sorted; ties broken by node id so the
    /// ring is identical regardless of insertion order.
    points: Vec<(u64, u64)>,
}

impl ClusterRing {
    /// Creates an empty ring.
    pub fn new(seed: u64) -> Self {
        ClusterRing {
            seed,
            nodes: Vec::new(),
            points: Vec::new(),
        }
    }

    /// The member node ids, in insertion order.
    pub fn nodes(&self) -> &[u64] {
        &self.nodes
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn point(&self, node: u64, vnode: usize) -> u64 {
        mix64(self.seed ^ mix64(node) ^ mix64(vnode as u64 ^ 0xC1A5_7E12))
    }

    /// Adds a member; returns whether it was new.
    pub fn add_node(&mut self, node: u64) -> bool {
        if self.nodes.contains(&node) {
            return false;
        }
        self.nodes.push(node);
        for vnode in 0..VNODES {
            self.points.push((self.point(node, vnode), node));
        }
        self.points.sort_unstable();
        true
    }

    /// Removes a member; returns whether it was present.
    pub fn remove_node(&mut self, node: u64) -> bool {
        let before = self.nodes.len();
        self.nodes.retain(|&n| n != node);
        if self.nodes.len() == before {
            return false;
        }
        self.points.retain(|&(_, n)| n != node);
        true
    }

    /// The member owning a raw 64-bit key; `None` on an empty ring.
    fn owner_of(&self, key: u64) -> Option<u64> {
        if self.points.is_empty() {
            return None;
        }
        let hash = mix64(key);
        let at = self.points.partition_point(|&(pos, _)| pos < hash);
        let (_, node) = self.points[at % self.points.len()];
        Some(node)
    }

    /// The member owning an object (reads of the object route here).
    pub fn owner_of_object(&self, object: ObjectId) -> Option<u64> {
        self.owner_of(object.index())
    }

    /// The first `n` *distinct* members encountered walking the ring
    /// from the object's hash: the owner first, then the deterministic
    /// fallback order a router probes on owner misses.
    pub fn preference_of_object(&self, object: ObjectId, n: usize) -> Vec<u64> {
        let mut order = Vec::with_capacity(n.min(self.nodes.len()));
        if self.points.is_empty() || n == 0 {
            return order;
        }
        let hash = mix64(object.index());
        let start = self.points.partition_point(|&(pos, _)| pos < hash);
        for offset in 0..self.points.len() {
            let (_, node) = self.points[(start + offset) % self.points.len()];
            if !order.contains(&node) {
                order.push(node);
                if order.len() == n || order.len() == self.nodes.len() {
                    break;
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn ring_of(seed: u64, nodes: &[u64]) -> ClusterRing {
        let mut ring = ClusterRing::new(seed);
        for &node in nodes {
            ring.add_node(node);
        }
        ring
    }

    #[test]
    fn empty_ring_owns_nothing() {
        let ring = ClusterRing::new(0);
        assert!(ring.is_empty());
        assert_eq!(ring.owner_of_object(ObjectId::new(0)), None);
        assert!(ring.preference_of_object(ObjectId::new(0), 3).is_empty());
    }

    #[test]
    fn same_seed_same_mapping_regardless_of_insertion_order() {
        let a = ring_of(7, &[0, 1, 2, 3]);
        let b = ring_of(7, &[3, 1, 0, 2]);
        for i in 0..500u64 {
            let object = ObjectId::new(i);
            assert_eq!(a.owner_of_object(object), b.owner_of_object(object));
            assert_eq!(
                a.preference_of_object(object, 4),
                b.preference_of_object(object, 4)
            );
        }
        // A different seed shuffles the mapping.
        let c = ring_of(8, &[0, 1, 2, 3]);
        assert!((0..500u64).any(|i| {
            a.owner_of_object(ObjectId::new(i)) != c.owner_of_object(ObjectId::new(i))
        }));
    }

    #[test]
    fn ownership_is_reasonably_balanced() {
        let ring = ring_of(1, &[0, 1, 2, 3]);
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        let keys = 4_000u64;
        for i in 0..keys {
            *counts
                .entry(ring.owner_of_object(ObjectId::new(i)).unwrap())
                .or_insert(0) += 1;
        }
        assert_eq!(counts.len(), 4, "every node owns something");
        let expected = keys as usize / 4;
        for (&node, &count) in &counts {
            assert!(
                count > expected / 3 && count < expected * 3,
                "node {node} owns {count} of {keys} (expected ~{expected})"
            );
        }
    }

    #[test]
    fn adding_a_node_moves_only_keys_it_now_owns() {
        let before = ring_of(3, &[0, 1, 2]);
        let mut after = before.clone();
        assert!(after.add_node(3));
        assert!(!after.add_node(3), "duplicate add is a no-op");
        let mut moved = 0;
        for i in 0..2_000u64 {
            let object = ObjectId::new(i);
            let old = before.owner_of_object(object).unwrap();
            let new = after.owner_of_object(object).unwrap();
            if old != new {
                assert_eq!(new, 3, "a moved key must move TO the new node");
                moved += 1;
            }
        }
        // Roughly a quarter of the key space re-homes, never all of it.
        assert!(moved > 0 && moved < 1_000, "moved {moved} of 2000");
    }

    #[test]
    fn removing_a_node_moves_only_keys_it_owned() {
        let before = ring_of(9, &[10, 20, 30, 40]);
        let mut after = before.clone();
        assert!(after.remove_node(20));
        assert!(!after.remove_node(20), "double remove is a no-op");
        for i in 0..2_000u64 {
            let object = ObjectId::new(i);
            let old = before.owner_of_object(object).unwrap();
            let new = after.owner_of_object(object).unwrap();
            if old != 20 {
                assert_eq!(old, new, "keys not owned by the removed node stay put");
            } else {
                assert_ne!(new, 20);
            }
        }
    }

    #[test]
    fn preference_walk_starts_at_the_owner_and_is_distinct() {
        let ring = ring_of(5, &[0, 1, 2, 3, 4]);
        for i in 0..200u64 {
            let object = ObjectId::new(i);
            let prefs = ring.preference_of_object(object, 5);
            assert_eq!(prefs.len(), 5);
            assert_eq!(prefs[0], ring.owner_of_object(object).unwrap());
            let mut sorted = prefs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "preference list has duplicates");
        }
        // Truncated walks are prefixes of the full walk.
        let object = ObjectId::new(17);
        let full = ring.preference_of_object(object, 5);
        assert_eq!(ring.preference_of_object(object, 2), full[..2].to_vec());
    }

    #[test]
    fn single_node_owns_everything() {
        let ring = ring_of(0, &[99]);
        for i in 0..50u64 {
            assert_eq!(ring.owner_of_object(ObjectId::new(i)), Some(99));
        }
        assert_eq!(ring.preference_of_object(ObjectId::new(0), 4), vec![99]);
    }
}
