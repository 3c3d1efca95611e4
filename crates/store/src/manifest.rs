//! Object manifests: the metadata a client needs to locate and decode an
//! object's chunks.

use agar_ec::{ChunkId, CodingParams, ObjectId};
use agar_net::RegionId;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Chunks whose regions a manifest holds inline: every code the
/// workspace ships (RS(9, 3) has 12 chunks, RS(12, 4) 16).
const INLINE_LOCATIONS: usize = 16;

/// The region of chunk `i` at index `i`, held so that cloning never
/// allocates: inline up to [`INLINE_LOCATIONS`] chunks (a manifest
/// then owns no heap memory at all), shared behind one `Arc` above.
/// Unused inline slots are always region 0, so equal maps are equal.
#[derive(Clone, PartialEq, Eq, Debug)]
enum Locations {
    Inline {
        regions: [RegionId; INLINE_LOCATIONS],
        len: u8,
    },
    Shared(Arc<[RegionId]>),
}

impl Locations {
    fn new(regions: Vec<RegionId>) -> Self {
        if regions.len() > INLINE_LOCATIONS {
            return Locations::Shared(regions.into());
        }
        let mut inline = [RegionId::new(0); INLINE_LOCATIONS];
        inline[..regions.len()].copy_from_slice(&regions);
        Locations::Inline {
            regions: inline,
            len: regions.len() as u8, // at most INLINE_LOCATIONS
        }
    }
}

impl std::ops::Deref for Locations {
    type Target = [RegionId];

    fn deref(&self) -> &[RegionId] {
        match self {
            Locations::Inline { regions, len } => &regions[..usize::from(*len)],
            Locations::Shared(regions) => regions,
        }
    }
}

/// Metadata for one stored object. Cloning one allocates nothing, so
/// a read's manifest snapshot is free.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct ObjectManifest {
    object: ObjectId,
    size: usize,
    version: u64,
    params: CodingParams,
    /// Region of chunk `i` at index `i`; length is `k + m`.
    locations: Locations,
}

impl ObjectManifest {
    /// Creates a manifest.
    ///
    /// # Panics
    ///
    /// Panics if `locations.len() != params.total_chunks()` — manifests
    /// are created only by the backend, so a mismatch is a bug.
    pub fn new(
        object: ObjectId,
        size: usize,
        version: u64,
        params: CodingParams,
        locations: Vec<RegionId>,
    ) -> Self {
        assert_eq!(
            locations.len(),
            params.total_chunks(),
            "manifest must map every chunk to a region"
        );
        ObjectManifest {
            object,
            size,
            version,
            params,
            locations: Locations::new(locations),
        }
    }

    /// The object this manifest describes.
    pub fn object(&self) -> ObjectId {
        self.object
    }

    /// Object payload size in bytes (pre-padding).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current version; bumped by every write.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Erasure-coding parameters.
    pub fn params(&self) -> CodingParams {
        self.params
    }

    /// Size of each chunk in bytes.
    pub fn chunk_size(&self) -> usize {
        self.params.chunk_size(self.size)
    }

    /// The region hosting chunk `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn location(&self, index: usize) -> RegionId {
        self.locations[index]
    }

    /// All (chunk id, region) pairs in chunk-index order.
    pub fn chunk_locations(&self) -> impl Iterator<Item = (ChunkId, RegionId)> + '_ {
        self.locations
            .iter()
            .enumerate()
            .map(|(i, &region)| (ChunkId::new(self.object, i as u8), region))
    }

    /// The object's chunks ranked cheapest first by the estimate of the
    /// region holding each (`estimates` is indexed by region id), as
    /// `(chunk index, estimate)` pairs. Ties go to the lower index, so
    /// data chunks come before parity at equal latency. A k-of-n read
    /// fetches a prefix of this ranking; caching options drop its last
    /// `m` entries.
    ///
    /// # Panics
    ///
    /// Panics if `estimates` has no entry for a region holding a chunk.
    pub fn rank_chunks(&self, estimates: &[Duration]) -> Vec<(u8, Duration)> {
        let mut ranked: Vec<(u8, Duration)> = self
            .locations
            .iter()
            .enumerate()
            .map(|(index, region)| (index as u8, estimates[region.index()]))
            .collect();
        ranked.sort_unstable_by_key(|&(index, estimate)| (estimate, index));
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObjectManifest {
        let params = CodingParams::new(4, 2).unwrap();
        let locations = (0..6).map(|i| RegionId::new(i % 3)).collect();
        ObjectManifest::new(ObjectId::new(9), 1000, 0, params, locations)
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!(m.object(), ObjectId::new(9));
        assert_eq!(m.size(), 1000);
        assert_eq!(m.version(), 0);
        assert_eq!(m.params().data_chunks(), 4);
        assert_eq!(m.chunk_size(), 250);
        assert_eq!(m.location(4), RegionId::new(1));
    }

    #[test]
    fn a_wide_code_shares_its_locations() {
        let params = CodingParams::new(20, 4).unwrap();
        let regions: Vec<RegionId> = (0..24).map(|i| RegionId::new(i % 5)).collect();
        let wide = ObjectManifest::new(ObjectId::new(1), 2_400, 3, params, regions.clone());
        let copy = wide.clone();
        assert!(matches!(copy.locations, Locations::Shared(_)));
        assert_eq!(copy, wide);
        let pairs: Vec<RegionId> = copy.chunk_locations().map(|(_, r)| r).collect();
        assert_eq!(pairs, regions);
        assert_eq!(copy.location(23), RegionId::new(3));
        assert!(matches!(sample().locations, Locations::Inline { .. }));
    }

    #[test]
    fn chunk_locations_enumerates_in_order() {
        let m = sample();
        let locs: Vec<(u8, usize)> = m
            .chunk_locations()
            .map(|(c, r)| (c.index().value(), r.index()))
            .collect();
        assert_eq!(locs, vec![(0, 0), (1, 1), (2, 2), (3, 0), (4, 1), (5, 2)]);
    }

    #[test]
    fn ranking_is_cheapest_first_with_ties_to_the_lower_index() {
        let m = sample();
        let estimates = [30, 10, 20].map(Duration::from_millis);
        let ranked: Vec<u8> = m.rank_chunks(&estimates).iter().map(|&(i, _)| i).collect();
        assert_eq!(ranked, vec![1, 4, 2, 5, 0, 3]);
        // Equal estimates everywhere: plain index order, data first.
        let flat: Vec<u8> = m
            .rank_chunks(&[Duration::from_millis(5); 3])
            .iter()
            .map(|&(i, _)| i)
            .collect();
        assert_eq!(flat, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn frankfurt_ranking_skips_sydney_and_needs_tokyo_once() {
        use agar_net::latency::LatencyModel;
        use agar_net::presets::{aws_six_regions, FRANKFURT, SYDNEY, TOKYO};
        let preset = aws_six_regions();
        let params = CodingParams::paper_default();
        let locations = (0..12).map(|i| RegionId::new(i % 6)).collect();
        let m = ObjectManifest::new(ObjectId::new(0), 9_000, 1, params, locations);
        let estimates: Vec<Duration> = preset
            .topology
            .ids()
            .map(|r| preset.latency.mean(FRANKFURT, r, 100_000))
            .collect();
        let ranked = m.rank_chunks(&estimates);
        // Every chunk exactly once, estimates non-decreasing.
        let mut indices: Vec<u8> = ranked.iter().map(|&(i, _)| i).collect();
        assert!(ranked.windows(2).all(|w| w[0].1 <= w[1].1));
        indices.sort_unstable();
        assert_eq!(indices, (0..12).collect::<Vec<u8>>());
        // The k = 9 a Frankfurt read fetches: the m furthest (Sydney's
        // two and Tokyo's parity) are never among them.
        let first_k: Vec<RegionId> = ranked[..9]
            .iter()
            .map(|&(i, _)| m.location(i as usize))
            .collect();
        assert_eq!(first_k.iter().filter(|&&r| r == SYDNEY).count(), 0);
        assert_eq!(first_k.iter().filter(|&&r| r == TOKYO).count(), 1);
    }

    #[test]
    #[should_panic(expected = "every chunk")]
    fn mismatched_locations_panic() {
        let params = CodingParams::new(4, 2).unwrap();
        let _ = ObjectManifest::new(ObjectId::new(0), 10, 0, params, vec![RegionId::new(0)]);
    }
}
