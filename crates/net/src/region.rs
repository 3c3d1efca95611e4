//! Regions and the geo-distributed topology.
//!
//! A [`Topology`] is the set of geographic regions a deployment spans —
//! the paper's Figure 1 uses six AWS regions. Regions are identified by a
//! dense [`RegionId`] index so latency matrices and placement maps can be
//! plain vectors.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense index of a region within a [`Topology`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct RegionId(u16);

impl RegionId {
    /// Creates a region id from a dense index.
    pub const fn new(index: u16) -> Self {
        RegionId(index)
    }

    /// The dense index backing this id.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region-{}", self.0)
    }
}

impl From<u16> for RegionId {
    fn from(index: u16) -> Self {
        RegionId(index)
    }
}

/// A named geographic region.
#[derive(Clone, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct Region {
    id: RegionId,
    name: String,
}

impl Region {
    /// Creates a region.
    pub fn new(id: RegionId, name: impl Into<String>) -> Self {
        Region {
            id,
            name: name.into(),
        }
    }

    /// The region's dense id.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// The region's human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// The set of regions a deployment spans.
///
/// # Examples
///
/// ```
/// use agar_net::{RegionId, Topology};
///
/// let topo = Topology::from_names(["Frankfurt", "Sydney"]);
/// assert_eq!(topo.len(), 2);
/// assert_eq!(topo.by_name("Sydney").unwrap().index(), 1);
/// assert_eq!(topo.region(RegionId::new(0)).unwrap().name(), "Frankfurt");
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub struct Topology {
    regions: Vec<Region>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Builds a topology from region names, assigning dense ids in order.
    pub fn from_names<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let regions = names
            .into_iter()
            .enumerate()
            .map(|(i, name)| Region::new(RegionId::new(i as u16), name))
            .collect();
        Topology { regions }
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the topology has no regions.
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Looks up a region by id.
    pub fn region(&self, id: RegionId) -> Option<&Region> {
        self.regions.get(id.index())
    }

    /// Looks up a region id by name.
    pub fn by_name(&self, name: &str) -> Option<RegionId> {
        self.regions.iter().find(|r| r.name == name).map(|r| r.id)
    }

    /// Iterates over all regions in id order.
    pub fn iter(&self) -> impl Iterator<Item = &Region> {
        self.regions.iter()
    }

    /// Iterates over all region ids in order.
    pub fn ids(&self) -> impl Iterator<Item = RegionId> + '_ {
        self.regions.iter().map(|r| r.id)
    }
}

impl<S: Into<String>> FromIterator<S> for Topology {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        Topology::from_names(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_id_basics() {
        let id = RegionId::new(3);
        assert_eq!(id.index(), 3);
        assert_eq!(id.to_string(), "region-3");
        assert_eq!(RegionId::from(3u16), id);
    }

    #[test]
    fn topology_construction_and_lookup() {
        let topo = Topology::from_names(["a", "b", "c"]);
        assert_eq!(topo.len(), 3);
        assert!(!topo.is_empty());
        assert_eq!(topo.by_name("b"), Some(RegionId::new(1)));
        assert_eq!(topo.by_name("zz"), None);
        assert_eq!(topo.region(RegionId::new(2)).unwrap().name(), "c");
        assert!(topo.region(RegionId::new(9)).is_none());
    }

    #[test]
    fn from_names_assigns_dense_ids() {
        assert!(Topology::new().is_empty());
        let topo = Topology::from_names(["x", "y"]);
        assert_eq!(
            topo.ids().collect::<Vec<_>>(),
            vec![RegionId::new(0), RegionId::new(1)]
        );
    }

    #[test]
    fn from_iterator_collects() {
        let topo: Topology = ["p", "q"].into_iter().collect();
        assert_eq!(topo.len(), 2);
        let names: Vec<&str> = topo.iter().map(Region::name).collect();
        assert_eq!(names, vec!["p", "q"]);
    }

    #[test]
    fn region_display_uses_name() {
        let r = Region::new(RegionId::new(0), "Frankfurt");
        assert_eq!(r.to_string(), "Frankfurt");
    }
}
