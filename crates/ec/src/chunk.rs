//! Object and chunk identity types shared across the whole system.
//!
//! An *object* is the unit clients read and write (1 MB in the paper's
//! evaluation). Erasure coding splits an object into `k` data chunks and
//! `m` parity chunks (see [`CodingParams`]); a [`ChunkId`] names one of
//! those `k + m` chunks.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies an object in the store.
///
/// YCSB-style workloads draw keys from a dense `0..n` index space, so the
/// identifier is a plain integer; `Display` renders the familiar
/// `user###` form.
///
/// # Examples
///
/// ```
/// use agar_ec::ObjectId;
///
/// let id = ObjectId::new(42);
/// assert_eq!(id.index(), 42);
/// assert_eq!(id.to_string(), "obj-42");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ObjectId(u64);

impl ObjectId {
    /// Creates an object identifier from a dense index.
    pub const fn new(index: u64) -> Self {
        ObjectId(index)
    }

    /// The dense index backing this identifier.
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj-{}", self.0)
    }
}

impl From<u64> for ObjectId {
    fn from(index: u64) -> Self {
        ObjectId(index)
    }
}

/// Index of a chunk within an object's `k + m` erasure-coded chunks.
///
/// Indices `0..k` are data chunks; `k..k+m` are parity chunks.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ChunkIndex(u8);

impl ChunkIndex {
    /// Creates a chunk index.
    pub const fn new(index: u8) -> Self {
        ChunkIndex(index)
    }

    /// The raw index value.
    pub const fn value(self) -> u8 {
        self.0
    }
}

impl fmt::Display for ChunkIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

impl From<u8> for ChunkIndex {
    fn from(index: u8) -> Self {
        ChunkIndex(index)
    }
}

/// Fully-qualified chunk identity: which object, which chunk.
///
/// # Examples
///
/// ```
/// use agar_ec::{ChunkId, ObjectId};
///
/// let id = ChunkId::new(ObjectId::new(7), 3);
/// assert_eq!(id.object().index(), 7);
/// assert_eq!(id.index().value(), 3);
/// assert_eq!(id.to_string(), "obj-7/#3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct ChunkId {
    object: ObjectId,
    index: ChunkIndex,
}

impl ChunkId {
    /// Creates a chunk identifier.
    pub fn new(object: ObjectId, index: impl Into<ChunkIndex>) -> Self {
        ChunkId {
            object,
            index: index.into(),
        }
    }

    /// The object this chunk belongs to.
    pub const fn object(self) -> ObjectId {
        self.object
    }

    /// The chunk's index within the object.
    pub const fn index(self) -> ChunkIndex {
        self.index
    }
}

impl fmt::Display for ChunkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.object, self.index)
    }
}

/// A set of chunk indices backed by a fixed bitmask.
///
/// Chunk indices are `u8`, so four 64-bit words cover the entire domain
/// with O(1) insert/contains. The read planner uses it to deduplicate
/// candidate sources, and the Reed-Solomon codec keys its decode-plan
/// cache on the present-shard pattern — `Hash`/`Eq` compare the raw
/// words, so equal sets are equal keys. (Every shipped preset fits in
/// the first word: RS(9, 3) has 12 chunks.)
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq, Hash)]
pub struct ChunkSet {
    words: [u64; 4],
}

impl ChunkSet {
    /// The empty set.
    pub const fn new() -> Self {
        ChunkSet { words: [0; 4] }
    }

    /// Adds an index; returns whether it was newly inserted.
    pub fn insert(&mut self, index: u8) -> bool {
        let word = &mut self.words[(index >> 6) as usize];
        let bit = 1u64 << (index & 63);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Whether the index is in the set.
    pub fn contains(&self, index: u8) -> bool {
        self.words[(index >> 6) as usize] & (1u64 << (index & 63)) != 0
    }

    /// Number of indices in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The indices in either set.
    pub fn union(self, other: ChunkSet) -> ChunkSet {
        let mut words = self.words;
        for (word, other) in words.iter_mut().zip(other.words) {
            *word |= other;
        }
        ChunkSet { words }
    }

    /// The indices in the set, ascending.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        self.words
            .into_iter()
            .enumerate()
            .flat_map(|(word, mut bits)| {
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let bit = bits.trailing_zeros();
                        bits &= bits - 1;
                        (word as u32 * 64 + bit) as u8
                    })
                })
            })
    }
}

impl FromIterator<u8> for ChunkSet {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        let mut set = ChunkSet::new();
        for index in iter {
            set.insert(index);
        }
        set
    }
}

/// Erasure-coding parameters: `k` data chunks, `m` parity chunks.
///
/// The paper's deployment uses RS(9, 3): `k = 9`, `m = 3`.
///
/// # Examples
///
/// ```
/// use agar_ec::CodingParams;
///
/// let params = CodingParams::new(9, 3)?;
/// assert_eq!(params.total_chunks(), 12);
/// // A 1 MB object yields chunks of ceil(size / k) bytes.
/// assert_eq!(params.chunk_size(1_000_000), 111_112);
/// # Ok::<(), agar_ec::EcError>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct CodingParams {
    data_chunks: usize,
    parity_chunks: usize,
}

impl CodingParams {
    /// Creates coding parameters.
    ///
    /// # Errors
    ///
    /// Returns [`crate::EcError::InvalidCodingParams`] unless
    /// `1 <= k`, `1 <= m` and `k + m <= 255` (field-size limit for the
    /// GF(2^8) Reed-Solomon construction).
    pub fn new(data_chunks: usize, parity_chunks: usize) -> Result<Self, crate::EcError> {
        if data_chunks == 0 || parity_chunks == 0 || data_chunks + parity_chunks > 255 {
            return Err(crate::EcError::InvalidCodingParams {
                data_chunks,
                parity_chunks,
            });
        }
        Ok(CodingParams {
            data_chunks,
            parity_chunks,
        })
    }

    /// The paper's RS(9, 3) configuration.
    pub fn paper_default() -> Self {
        CodingParams {
            data_chunks: 9,
            parity_chunks: 3,
        }
    }

    /// Number of data chunks (`k`).
    pub const fn data_chunks(self) -> usize {
        self.data_chunks
    }

    /// Number of parity chunks (`m`).
    pub const fn parity_chunks(self) -> usize {
        self.parity_chunks
    }

    /// Total number of chunks (`k + m`).
    pub const fn total_chunks(self) -> usize {
        self.data_chunks + self.parity_chunks
    }

    /// Size in bytes of each chunk for an object of `object_size` bytes
    /// (objects are padded up to a multiple of `k`).
    pub const fn chunk_size(self, object_size: usize) -> usize {
        object_size.div_ceil(self.data_chunks)
    }
}

impl fmt::Display for CodingParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RS({},{})", self.data_chunks, self.parity_chunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn object_id_roundtrip_and_display() {
        let id = ObjectId::new(123);
        assert_eq!(id.index(), 123);
        assert_eq!(id.to_string(), "obj-123");
        assert_eq!(ObjectId::from(123u64), id);
    }

    #[test]
    fn chunk_id_accessors() {
        let id = ChunkId::new(ObjectId::new(5), ChunkIndex::new(2));
        assert_eq!(id.object(), ObjectId::new(5));
        assert_eq!(id.index(), ChunkIndex::new(2));
        assert_eq!(id.to_string(), "obj-5/#2");
    }

    #[test]
    fn coding_params_validation() {
        assert!(CodingParams::new(0, 3).is_err());
        assert!(CodingParams::new(9, 0).is_err());
        assert!(CodingParams::new(200, 56).is_err());
        assert!(CodingParams::new(200, 55).is_ok());
        let p = CodingParams::paper_default();
        assert_eq!(p.data_chunks(), 9);
        assert_eq!(p.parity_chunks(), 3);
        assert_eq!(p.total_chunks(), 12);
        assert_eq!(p.to_string(), "RS(9,3)");
    }

    #[test]
    fn chunk_size_rounds_up() {
        let p = CodingParams::new(9, 3).unwrap();
        assert_eq!(p.chunk_size(9), 1);
        assert_eq!(p.chunk_size(10), 2);
        assert_eq!(p.chunk_size(1_000_000), 111_112);
        assert_eq!(p.chunk_size(0), 0);
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let a = ChunkId::new(ObjectId::new(1), 0);
        let b = ChunkId::new(ObjectId::new(1), 1);
        let c = ChunkId::new(ObjectId::new(2), 0);
        assert!(a < b && b < c);
        let set: HashSet<ChunkId> = [a, b, c, a].into_iter().collect();
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn chunk_set_basics() {
        let mut set = ChunkSet::new();
        assert!(set.is_empty());
        assert!(set.insert(0));
        assert!(set.insert(63));
        assert!(set.insert(64));
        assert!(set.insert(255));
        assert!(!set.insert(0), "duplicate insert");
        assert_eq!(set.len(), 4);
        for index in [0u8, 63, 64, 255] {
            assert!(set.contains(index));
        }
        assert!(!set.contains(1));
        assert!(!set.contains(128));
        let from_iter: ChunkSet = [3u8, 5, 3].into_iter().collect();
        assert_eq!(from_iter.len(), 2);
        let both = set.union(from_iter);
        assert_eq!(both.iter().collect::<Vec<_>>(), [0, 3, 5, 63, 64, 255]);
        assert_eq!(ChunkSet::new().iter().count(), 0);
    }
}
