//! Chunk placement policies.
//!
//! The paper distributes "the resulting twelve chunks among the regions
//! in a round-robin manner, with each S3 bucket storing two data chunks"
//! (Figure 1). [`RoundRobin`] reproduces exactly that.

use agar_ec::ObjectId;
use agar_net::RegionId;

/// Maps each of an object's `total_chunks` chunks to a region.
pub trait PlacementPolicy: Send + Sync {
    /// Returns a region per chunk index (`result.len() == total_chunks`).
    ///
    /// `regions` is the number of regions in the topology; every returned
    /// id must be below it.
    fn place(&self, object: ObjectId, total_chunks: usize, regions: usize) -> Vec<RegionId>;

    /// Short policy name for reports.
    fn name(&self) -> &'static str;
}

/// The paper's placement: chunk `i` lives in region `i mod regions`,
/// identically for every object.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobin;

impl PlacementPolicy for RoundRobin {
    fn place(&self, _object: ObjectId, total_chunks: usize, regions: usize) -> Vec<RegionId> {
        assert!(regions > 0, "placement needs at least one region");
        (0..total_chunks)
            .map(|i| RegionId::new((i % regions) as u16))
            .collect()
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_matches_paper_layout() {
        // 12 chunks over 6 regions: region r holds chunks r and r + 6.
        let placement = RoundRobin.place(ObjectId::new(7), 12, 6);
        assert_eq!(placement.len(), 12);
        for (i, region) in placement.iter().enumerate() {
            assert_eq!(region.index(), i % 6);
        }
        // Identical for every object.
        assert_eq!(placement, RoundRobin.place(ObjectId::new(8), 12, 6));
    }

    #[test]
    fn round_robin_balances_chunk_counts() {
        let placement = RoundRobin.place(ObjectId::new(0), 12, 6);
        for r in 0..6 {
            let count = placement.iter().filter(|id| id.index() == r).count();
            assert_eq!(count, 2, "region {r}");
        }
    }

    #[test]
    fn fewer_chunks_than_regions() {
        let placement = RoundRobin.place(ObjectId::new(0), 3, 6);
        let regions: Vec<usize> = placement.iter().map(|r| r.index()).collect();
        assert_eq!(regions, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "at least one region")]
    fn zero_regions_panics() {
        let _ = RoundRobin.place(ObjectId::new(0), 3, 0);
    }

    #[test]
    fn names_are_nonempty() {
        assert_eq!(RoundRobin.name(), "round-robin");
    }
}
