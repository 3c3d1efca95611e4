//! Systematic Reed-Solomon encoding and reconstruction over GF(2^8).
//!
//! The encoder is *systematic*: the first `k` chunks are the data itself,
//! the last `m` chunks are parity. The `(k + m) x k` encoding matrix is a
//! Vandermonde matrix normalised so its top `k x k` block is the
//! identity (the same construction as Backblaze's codec), which
//! guarantees that *any* `k` of the `k + m` chunks suffice to
//! reconstruct the object — the MDS property Agar depends on. The codec
//! needs no other linear algebra: the encoding rows are built once per
//! code, and a degraded read inverts the `k x k` block of the rows it
//! holds (memoised per erasure pattern).
//!
//! # Examples
//!
//! ```
//! use agar_ec::{CodingParams, ReedSolomon};
//!
//! let rs = ReedSolomon::new(CodingParams::new(4, 2)?)?;
//! let object = b"abcdefghijklmnop";
//! let mut shards: Vec<_> = rs.encode_object(object)?.into_iter().map(Some).collect();
//! assert_eq!(shards.len(), 6);
//!
//! // Lose any two shards; the object still comes back.
//! shards[0] = None;
//! shards[5] = None;
//! let (back, report) = rs.reconstruct_object_report(&shards, object.len())?;
//! assert_eq!(back.as_ref(), object);
//! assert!(!report.systematic_fast_path);
//! # Ok::<(), agar_ec::EcError>(())
//! ```

use crate::chunk::{ChunkSet, CodingParams};
use crate::error::EcError;
use crate::gf256::{self, mul_add_slice};
use bytes::Bytes;
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::mem::MaybeUninit;
use std::sync::Arc;

/// A cached decode plan: which `k` shards to decode from and the
/// inverse of their encoding rows. Computing one costs a Gauss-Jordan
/// inversion; reusing one costs a `HashMap` lookup.
#[derive(Debug)]
struct DecodePlan {
    /// The `k` shard indices (ascending) the plan decodes from.
    chosen: Vec<usize>,
    /// `k x k` inverse of the encoding rows selected by `chosen`,
    /// row-major: row `target` maps the chosen shards back to data
    /// shard `target`.
    decode: Vec<u8>,
}

/// Decode-plan caches outlive any realistic erasure-pattern population
/// (RS(9, 3) has 220 possible k-subsets), but a pathological caller
/// cycling synthetic patterns must not grow the map unboundedly.
const PLAN_CACHE_CAP: usize = 1024;

/// Per-shard width of one column block of the encode and the degraded
/// decode: the `k` source blocks of a column (18 KiB at RS(9, 3)) stay
/// in L1 while the column's parity or missing blocks are computed from
/// them.
const COLUMN_BLOCK: usize = 2048;

/// Shards up to this length are coded as a single column block.
const SINGLE_BLOCK_MAX: usize = 16 * 1024;

/// The per-block source slices stay on the stack for codes up to this
/// `k` (a larger array costs every small read its zeroing); wider codes,
/// up to the `k = 254` [`CodingParams`] allows, use a `Vec`.
const INLINE_SOURCES: usize = 32;

/// What one [`ReedSolomon::reconstruct_object_report`] call did —
/// the observability hook behind the `systematic_fast_reads` /
/// `decode_plan_hits` cache counters and the fast-path assertions in
/// the test suite.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DecodeReport {
    /// All `k` data shards were present: the object was assembled
    /// without touching the GF(2^8) kernels or the decode matrix.
    pub systematic_fast_path: bool,
    /// The decode plan (erasure pattern → inverted matrix) came from
    /// the cache instead of a fresh Gaussian inversion.
    pub plan_cache_hit: bool,
    /// Bytes run through the GF multiply kernel (coefficient ≥ 2).
    /// Zero on the systematic path by construction.
    pub gf_multiply_bytes: u64,
}

/// A systematic Reed-Solomon codec for fixed `(k, m)`.
#[derive(Clone)]
pub struct ReedSolomon {
    params: CodingParams,
    /// The `(k + m) x k` encoding matrix, row-major
    /// ([`systematic_rows`]): its top `k x k` block is the identity.
    encoding: Vec<u8>,
    /// Decode plans keyed by the chosen-shard bitmask. Shared across
    /// clones (the cache is a pure memo of deterministic inversions),
    /// so every node reading through one codec reuses warm plans —
    /// under a read lock: concurrent degraded reads only contend while
    /// a cold pattern is being inserted.
    plan_cache: Arc<RwLock<HashMap<ChunkSet, Arc<DecodePlan>>>>,
}

impl fmt::Debug for ReedSolomon {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReedSolomon")
            .field("params", &self.params)
            .field("cached_plans", &self.plan_cache.read().len())
            .finish_non_exhaustive()
    }
}

impl ReedSolomon {
    /// Creates a codec using the systematic-Vandermonde construction.
    ///
    /// # Errors
    ///
    /// Returns [`EcError::SingularMatrix`] if the top `k x k` block of
    /// the Vandermonde matrix has no inverse, which distinct evaluation
    /// points rule out for every [`CodingParams`].
    pub fn new(params: CodingParams) -> Result<Self, EcError> {
        let encoding = systematic_rows(params.total_chunks(), params.data_chunks())?;
        Ok(ReedSolomon {
            params,
            encoding,
            plan_cache: Arc::new(RwLock::new(HashMap::new())),
        })
    }

    /// Row `row` of the encoding matrix: the coefficients that map the
    /// `k` data shards to shard `row`.
    fn encoding_row(&self, row: usize) -> &[u8] {
        let k = self.params.data_chunks();
        &self.encoding[row * k..(row + 1) * k]
    }

    /// The decode plan for the `k` shards in `chosen`: their indices
    /// and the inverse of their encoding rows, memoised by the bitmask.
    /// Returns the plan and whether it was a cache hit.
    ///
    /// Two threads racing on a cold pattern may both invert; the loser
    /// adopts the winner's entry (both are byte-identical, the
    /// inversion is deterministic).
    fn decode_plan(&self, chosen: ChunkSet) -> Result<(Arc<DecodePlan>, bool), EcError> {
        if let Some(plan) = self.plan_cache.read().get(&chosen) {
            return Ok((Arc::clone(plan), true));
        }
        let rows: Vec<usize> = (0..self.params.total_chunks())
            .filter(|&i| chosen.contains(i as u8))
            .collect();
        let selected: Vec<u8> = rows
            .iter()
            .flat_map(|&row| self.encoding_row(row))
            .copied()
            .collect();
        let plan = Arc::new(DecodePlan {
            decode: invert(&selected, rows.len())?,
            chosen: rows,
        });
        let mut cache = self.plan_cache.write();
        if cache.len() >= PLAN_CACHE_CAP {
            cache.clear();
        }
        let entry = cache.entry(chosen).or_insert(plan);
        Ok((Arc::clone(entry), false))
    }

    /// The codec's coding parameters.
    pub fn params(&self) -> CodingParams {
        self.params
    }

    /// Splits an object into `k` padded data chunks and appends `m`
    /// parity chunks, returning all `k + m` shards.
    ///
    /// The object is zero-padded so every chunk has exactly
    /// [`CodingParams::chunk_size`] bytes;
    /// [`Self::reconstruct_object_report`] strips the padding again. The
    /// data shards are zero-copy slices of one padded buffer (a single
    /// copy of the object). The parity shards are slices of one
    /// uninitialised `Arc<[u8]>`, built in the degraded decode's column
    /// blocks: per block, each parity block is written once by the
    /// fused GF(2^8) dot kernel from the `k` data blocks and its parity
    /// row. Nothing is zero-filled or accumulated twice.
    ///
    /// # Errors
    ///
    /// Returns [`EcError::ShardSizeMismatch`] if `object` is empty.
    pub fn encode_object(&self, object: &[u8]) -> Result<Vec<Bytes>, EcError> {
        if object.is_empty() {
            return Err(EcError::ShardSizeMismatch);
        }
        let k = self.params.data_chunks();
        let m = self.params.parity_chunks();
        let chunk_size = self.params.chunk_size(object.len());
        let mut padded = vec![0u8; k * chunk_size];
        padded[..object.len()].copy_from_slice(object);
        // SAFETY: `encode_columns` writes every byte of the buffer (see
        // its docs).
        let parity = unsafe {
            fill_uninit(m * chunk_size, |out| {
                encode_columns(out, &padded, &self.encoding[k * k..], chunk_size);
            })
        };
        let data_buf = Bytes::from(padded);
        let parity_buf = Bytes::from(parity);
        Ok((0..k)
            .map(|i| data_buf.slice(i * chunk_size..(i + 1) * chunk_size))
            .chain((0..m).map(|p| parity_buf.slice(p * chunk_size..(p + 1) * chunk_size)))
            .collect())
    }

    /// Validates a shard vector for reconstruction — `k + m` slots, at
    /// least `k` filled, every filled one the same non-zero length —
    /// and returns that length with the first `k` present indices (the
    /// shards to decode from, and the decode plan's key).
    fn check_present(&self, shards: &[Option<Bytes>]) -> Result<(usize, ChunkSet), EcError> {
        let k = self.params.data_chunks();
        let total = self.params.total_chunks();
        if shards.len() != total {
            return Err(EcError::WrongShardCount {
                provided: shards.len(),
                expected: total,
            });
        }
        let mut chosen = ChunkSet::new();
        let mut present = 0;
        let mut len = None;
        let mut ragged = false;
        for (i, shard) in shards.iter().enumerate() {
            let Some(shard) = shard else { continue };
            ragged |= *len.get_or_insert(shard.len()) != shard.len();
            if present < k {
                chosen.insert(i as u8);
            }
            present += 1;
        }
        if present < k {
            return Err(EcError::NotEnoughShards { present, needed: k });
        }
        match len {
            Some(len) if len > 0 && !ragged => Ok((len, chosen)),
            _ => Err(EcError::ShardSizeMismatch),
        }
    }

    /// Reassembles an object of `object_size` bytes from at least `k` of
    /// its shards (missing shards are `None`) and reports how the decode
    /// went.
    ///
    /// The fast paths, in decreasing order of cheapness:
    ///
    /// - **systematic, `k = 1`** — the object *is* the single data
    ///   shard: return a zero-copy [`Bytes::slice`] of it;
    /// - **systematic** — all `k` data shards present: one object-sized
    ///   buffer, one `memcpy` per shard, zero GF arithmetic;
    /// - **degraded** — one pass over the sources in column blocks
    ///   (≈ 2 KiB per shard; a shard of ≤ 16 KiB is one block): per
    ///   block, copy the present data blocks and write each missing
    ///   one once with the fused GF(2^8) dot kernel, using the
    ///   [cached decode plan](DecodeReport::plan_cache_hit) for the
    ///   erasure pattern. Nothing is zero-filled or accumulated twice.
    ///
    /// Both copying paths build the object in one uninitialised
    /// `Arc<[u8]>` that the returned [`Bytes`] takes over: one
    /// allocation per decoded object, counts and bytes together.
    ///
    /// # Errors
    ///
    /// - [`EcError::WrongShardCount`] if `shards.len() != k + m`.
    /// - [`EcError::NotEnoughShards`] if fewer than `k` shards are present.
    /// - [`EcError::ShardSizeMismatch`] on inconsistent shard lengths.
    pub fn reconstruct_object_report(
        &self,
        shards: &[Option<Bytes>],
        object_size: usize,
    ) -> Result<(Bytes, DecodeReport), EcError> {
        let k = self.params.data_chunks();
        let (shard_len, chosen) = self.check_present(shards)?;
        let out_len = object_size.min(k * shard_len);
        let mut report = DecodeReport {
            systematic_fast_path: shards[..k].iter().all(Option::is_some),
            ..DecodeReport::default()
        };
        if report.systematic_fast_path && k == 1 {
            // The single data shard is the object: pure slice.
            let shard = shards[0].as_ref().expect("present");
            return Ok((shard.slice(0..out_len), report));
        }
        let plan = if report.systematic_fast_path {
            None
        } else {
            let (plan, cache_hit) = self.decode_plan(chosen)?;
            report.plan_cache_hit = cache_hit;
            Some(plan)
        };
        // SAFETY: `copy_data_shards` and `decode_columns` each write
        // every byte of the buffer (see their docs).
        let object = unsafe {
            fill_uninit(out_len, |out| match plan {
                None => copy_data_shards(out, &shards[..k], shard_len),
                Some(plan) => {
                    report.gf_multiply_bytes = decode_columns(out, shards, &plan, shard_len);
                }
            })
        };
        Ok((Bytes::from(object), report))
    }
}

/// A `len`-byte buffer built in place by `fill`, never zero-filled: the
/// one allocation of an encode's parity and of a decoded object, which
/// the returned shards or object take over.
///
/// # Safety
///
/// `fill` must write every byte of the slice it is handed.
// SAFETY: sound only for such a `fill`; each caller names the function
// that writes every byte.
unsafe fn fill_uninit(len: usize, fill: impl FnOnce(&mut [MaybeUninit<u8>])) -> Arc<[u8]> {
    let mut buffer = Arc::<[u8]>::new_uninit_slice(len);
    fill(Arc::get_mut(&mut buffer).expect("a fresh Arc is unique"));
    // SAFETY: the caller's `fill` has written every byte.
    unsafe { buffer.assume_init() }
}

/// The column blocks of a `shard_len`-byte shard (`shard_len > 0`):
/// [`COLUMN_BLOCK`]-wide ranges that tile `0..shard_len`, or the whole
/// shard when it is at most [`SINGLE_BLOCK_MAX`] long.
fn column_blocks(shard_len: usize) -> impl Iterator<Item = (usize, usize)> {
    let block = if shard_len <= SINGLE_BLOCK_MAX {
        shard_len
    } else {
        COLUMN_BLOCK
    };
    (0..shard_len)
        .step_by(block)
        .map(move |start| (start, (start + block).min(shard_len)))
}

/// Runs `f` on `k` source-slice slots: on the stack up to
/// [`INLINE_SOURCES`], else in a `Vec`.
fn with_sources<'a, R>(k: usize, f: impl FnOnce(&mut [&'a [u8]]) -> R) -> R {
    if k <= INLINE_SOURCES {
        f(&mut [&[][..]; INLINE_SOURCES][..k])
    } else {
        f(&mut vec![&[][..]; k])
    }
}

/// The encode: writes the parity shards into `out` (parity shard `p` at
/// bytes `p * shard_len..`) from the `k` data shards that tile `data`,
/// with the `m x k` row-major `parity_rows`. Per column block, each
/// parity block is written once by the fused dot kernel from the data
/// blocks, which stay in cache across the `m` parity rows.
///
/// Writes every byte of `out`: `out` is exactly `m` shards long, each
/// parity shard's blocks tile it, and `dot_slice` writes every byte of
/// its output.
fn encode_columns(out: &mut [MaybeUninit<u8>], data: &[u8], parity_rows: &[u8], shard_len: usize) {
    let k = data.len() / shard_len;
    // The caller's `assume_init` rests on this.
    assert_eq!(
        out.len(),
        parity_rows.len() / k * shard_len,
        "one output shard per parity row"
    );
    with_sources(k, |sources| {
        for (start, end) in column_blocks(shard_len) {
            for (source, shard) in sources.iter_mut().zip(data.chunks_exact(shard_len)) {
                *source = &shard[start..end];
            }
            for (parity, row) in out
                .chunks_exact_mut(shard_len)
                .zip(parity_rows.chunks_exact(k))
            {
                gf256::dot_slice(&mut parity[start..end], sources, row);
            }
        }
    });
}

/// The systematic path: copies the data shards (all present) into
/// `out`, data shard `t` to bytes `t * shard_len..`, clipped to
/// `out.len() ≤ shards.len() * shard_len`. Writes every byte of `out`:
/// the `shard_len` pieces of `out` tile it, and there are at most
/// `shards.len()` of them, so the zip visits every one.
fn copy_data_shards(out: &mut [MaybeUninit<u8>], shards: &[Option<Bytes>], shard_len: usize) {
    // The caller's `assume_init` rests on this.
    assert!(
        out.len() <= shards.len() * shard_len,
        "object longer than its shards"
    );
    for (dst, shard) in out.chunks_mut(shard_len).zip(shards) {
        let shard = shard.as_ref().expect("present");
        dst.write_copy_of_slice(&shard[..dst.len()]);
    }
}

/// The degraded path: builds the object in `out` from the shards
/// `plan` chose and returns the bytes run through the GF multiply
/// kernel. Data shard `t` owns bytes `t * shard_len..` of the object;
/// only the first `out.len()` are materialised, so a range past it is
/// padding and never written. The object is built in column blocks:
/// per block, the present data blocks are copied into place and each
/// missing one is written once by the fused dot kernel from the chosen
/// shards' blocks, which the copy has just pulled into cache. Every
/// source byte is read from memory once and no byte of the object is
/// written twice.
///
/// Writes every byte of `out`: the column blocks of data shard `t` tile
/// `t * shard_len..(t + 1) * shard_len`, clipped to `out.len()`, and
/// the k data shards tile `0..k * shard_len`, which covers `out`.
fn decode_columns(
    out: &mut [MaybeUninit<u8>],
    shards: &[Option<Bytes>],
    plan: &DecodePlan,
    shard_len: usize,
) -> u64 {
    let k = plan.chosen.len();
    let out_len = out.len();
    // The caller's `assume_init` rests on this.
    assert!(out_len <= k * shard_len, "object longer than its shards");
    let mut gf_multiply_bytes = 0;
    with_sources(k, |sources| {
        for (start, end) in column_blocks(shard_len) {
            for (source, &index) in sources.iter_mut().zip(&plan.chosen) {
                *source = &shards[index].as_ref().expect("chosen shard present")[start..end];
            }
            for (target, shard) in shards[..k].iter().enumerate() {
                let at = target * shard_len + start;
                if at >= out_len {
                    break; // this and every later range is padding
                }
                let len = (end - start).min(out_len - at);
                let dst = &mut out[at..at + len];
                match shard {
                    Some(shard) => {
                        dst.write_copy_of_slice(&shard[start..start + len]);
                    }
                    None => {
                        // Only the range `out_len` cuts short is clipped,
                        // and every later range of the column is padding.
                        for source in sources.iter_mut() {
                            *source = &source[..len];
                        }
                        let row = &plan.decode[target * k..(target + 1) * k];
                        gf256::dot_slice(dst, sources, row);
                        let multiplied = row.iter().filter(|&&c| c >= 2).count();
                        gf_multiply_bytes += (multiplied * len) as u64;
                    }
                }
            }
        }
    });
    gf_multiply_bytes
}

/// The `n x k` systematic encoding matrix, row-major: the Vandermonde
/// matrix (entry `(r, c) = r^c`, at the distinct points `r < n ≤ 255`)
/// times the inverse of its top `k x k` block. Its top block is
/// therefore the identity, and any `k` of its rows stay invertible.
///
/// # Errors
///
/// [`EcError::SingularMatrix`] from [`invert`].
fn systematic_rows(n: usize, k: usize) -> Result<Vec<u8>, EcError> {
    let vandermonde: Vec<u8> = (0..n)
        .flat_map(|r| (0..k).map(move |c| gf256::pow(r as u8, c)))
        .collect();
    let top_inverse = invert(&vandermonde[..k * k], k)?;
    let mut rows = vec![0u8; n * k];
    for (row, powers) in rows.chunks_exact_mut(k).zip(vandermonde.chunks_exact(k)) {
        for (inverse_row, &coefficient) in top_inverse.chunks_exact(k).zip(powers) {
            mul_add_slice(row, inverse_row, coefficient);
        }
    }
    Ok(rows)
}

/// The inverse of the `k x k` row-major `matrix`, by Gauss-Jordan
/// elimination on `[matrix | I]`.
///
/// # Errors
///
/// [`EcError::SingularMatrix`] if some column has no pivot.
fn invert(matrix: &[u8], k: usize) -> Result<Vec<u8>, EcError> {
    let width = 2 * k;
    let mut work = vec![0u8; k * width];
    for (r, row) in work.chunks_exact_mut(width).enumerate() {
        row[..k].copy_from_slice(&matrix[r * k..(r + 1) * k]);
        row[k + r] = 1;
    }
    for col in 0..k {
        let pivot = (col..k)
            .find(|&r| work[r * width + col] != 0)
            .ok_or(EcError::SingularMatrix)?;
        if pivot != col {
            let (upper, lower) = work.split_at_mut(pivot * width);
            upper[col * width..(col + 1) * width].swap_with_slice(&mut lower[..width]);
        }
        let (above, rest) = work.split_at_mut(col * width);
        let (pivot_row, below) = rest.split_at_mut(width);
        let scale = gf256::inverse(pivot_row[col]);
        for entry in pivot_row.iter_mut() {
            *entry = gf256::mul(*entry, scale);
        }
        for row in above
            .chunks_exact_mut(width)
            .chain(below.chunks_exact_mut(width))
        {
            let factor = row[col];
            mul_add_slice(row, pivot_row, factor);
        }
    }
    Ok(work
        .chunks_exact(width)
        .flat_map(|row| &row[k..])
        .copied()
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gf256::naive;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn sample_object(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    fn present(shards: &[Bytes]) -> Vec<Option<Bytes>> {
        shards.iter().cloned().map(Some).collect()
    }

    fn cached_plans(rs: &ReedSolomon) -> usize {
        rs.plan_cache.read().len()
    }

    /// The parity a systematic code must produce: each parity shard is
    /// the dot product of its encoding row with the data shards, summed
    /// with the naive log/exp kernel rather than the one `encode_object`
    /// runs.
    fn reference_parity(rs: &ReedSolomon, data: &[&[u8]]) -> Vec<Vec<u8>> {
        let k = rs.params.data_chunks();
        (k..rs.params.total_chunks())
            .map(|row| {
                let mut out = vec![0u8; data[0].len()];
                for (shard, &coefficient) in data.iter().zip(rs.encoding_row(row)) {
                    naive::mul_add_slice(&mut out, shard, coefficient);
                }
                out
            })
            .collect()
    }

    /// `encode_object`'s shards against a chunk-by-chunk padded split
    /// of the object and the reference parity.
    fn check_encoding(rs: &ReedSolomon, object: &[u8]) {
        let params = rs.params;
        let shards = rs.encode_object(object).unwrap();
        assert_eq!(shards.len(), params.total_chunks());
        let chunk_size = params.chunk_size(object.len());
        let manual: Vec<Vec<u8>> = (0..params.data_chunks())
            .map(|i| {
                let start = (i * chunk_size).min(object.len());
                let end = ((i + 1) * chunk_size).min(object.len());
                let mut chunk = object[start..end].to_vec();
                chunk.resize(chunk_size, 0);
                chunk
            })
            .collect();
        let data: Vec<&[u8]> = manual.iter().map(Vec::as_slice).collect();
        let parity = reference_parity(rs, &data);
        for (i, expected) in manual.iter().chain(&parity).enumerate() {
            assert_eq!(
                shards[i].as_ref(),
                expected.as_slice(),
                "{params} shard {i}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        #[cfg_attr(miri, ignore)]
        fn encode_object_matches_manual_split(
            object in vec(any::<u8>(), 1..2048),
            k in 1usize..=10,
            m in 1usize..=4,
        ) {
            let rs = ReedSolomon::new(CodingParams::new(k, m).unwrap()).unwrap();
            check_encoding(&rs, &object);
        }
    }

    #[test]
    fn encode_is_deterministic() {
        let rs = ReedSolomon::new(CodingParams::new(6, 2).unwrap()).unwrap();
        let object = sample_object(600);
        assert_eq!(
            rs.encode_object(&object).unwrap(),
            rs.encode_object(&object).unwrap()
        );
    }

    #[test]
    fn empty_object_rejected() {
        let rs = ReedSolomon::new(CodingParams::new(4, 2).unwrap()).unwrap();
        assert!(matches!(
            rs.encode_object(&[]),
            Err(EcError::ShardSizeMismatch)
        ));
    }

    #[test]
    fn reconstruct_fails_below_k() {
        let rs = ReedSolomon::new(CodingParams::new(4, 2).unwrap()).unwrap();
        let mut shards = present(&rs.encode_object(&sample_object(32)).unwrap());
        shards[0] = None;
        shards[1] = None;
        shards[4] = None;
        assert!(matches!(
            rs.reconstruct_object_report(&shards, 32),
            Err(EcError::NotEnoughShards {
                present: 3,
                needed: 4
            })
        ));
    }

    #[test]
    fn reconstruct_wrong_count_rejected() {
        let rs = ReedSolomon::new(CodingParams::new(4, 2).unwrap()).unwrap();
        let shards = vec![Some(Bytes::from_static(&[1; 4])); 5];
        assert!(matches!(
            rs.reconstruct_object_report(&shards, 16),
            Err(EcError::WrongShardCount {
                provided: 5,
                expected: 6
            })
        ));
    }

    #[test]
    fn reconstruct_inconsistent_sizes_rejected() {
        let rs = ReedSolomon::new(CodingParams::new(2, 1).unwrap()).unwrap();
        let shards = vec![
            Some(Bytes::from_static(&[1; 4])),
            Some(Bytes::from_static(&[2; 5])),
            None,
        ];
        assert!(matches!(
            rs.reconstruct_object_report(&shards, 8),
            Err(EcError::ShardSizeMismatch)
        ));
    }

    #[test]
    fn object_roundtrip_with_padding() {
        let rs = ReedSolomon::new(CodingParams::new(9, 3).unwrap()).unwrap();
        for size in [1usize, 8, 9, 10, 1000, 12_345] {
            let object: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            let shards = rs.encode_object(&object).unwrap();
            assert_eq!(shards.len(), 12);

            // Every shard present: the systematic path.
            let opts = present(&shards);
            let (back, _) = rs.reconstruct_object_report(&opts, size).unwrap();
            assert_eq!(back.as_ref(), object.as_slice(), "size {size}");

            // Drop three data shards, decode through parity.
            let mut degraded = opts.clone();
            degraded[0] = None;
            degraded[4] = None;
            degraded[8] = None;
            let (back, _) = rs.reconstruct_object_report(&degraded, size).unwrap();
            assert_eq!(back.as_ref(), object.as_slice(), "degraded size {size}");
        }
    }

    #[test]
    fn systematic_top_block_is_identity() {
        let rs = ReedSolomon::new(CodingParams::new(9, 3).unwrap()).unwrap();
        for row in 0..9 {
            let unit: Vec<u8> = (0..9).map(|col| u8::from(col == row)).collect();
            assert_eq!(rs.encoding_row(row), unit.as_slice(), "row {row}");
        }
    }

    #[test]
    fn systematic_fast_path_touches_no_gf_kernel() {
        let rs = ReedSolomon::new(CodingParams::new(9, 3).unwrap()).unwrap();
        let object: Vec<u8> = (0..9_000).map(|i| (i % 253) as u8).collect();
        let opts = present(&rs.encode_object(&object).unwrap());
        let (back, report) = rs.reconstruct_object_report(&opts, object.len()).unwrap();
        assert_eq!(back.as_ref(), object.as_slice());
        assert!(report.systematic_fast_path);
        assert_eq!(report.gf_multiply_bytes, 0, "systematic read multiplied");
        assert!(!report.plan_cache_hit);
        assert_eq!(cached_plans(&rs), 0, "no inversion should run");
    }

    #[test]
    fn k1_systematic_read_is_zero_copy() {
        let rs = ReedSolomon::new(CodingParams::new(1, 2).unwrap()).unwrap();
        let object = vec![42u8; 4096];
        let opts = present(&rs.encode_object(&object).unwrap());
        let (back, report) = rs.reconstruct_object_report(&opts, object.len()).unwrap();
        assert_eq!(back.as_ref(), object.as_slice());
        assert!(report.systematic_fast_path);
        // The returned object aliases the data shard's buffer.
        assert_eq!(
            back.as_ref().as_ptr(),
            opts[0].as_ref().unwrap().as_ref().as_ptr()
        );
    }

    #[test]
    fn decode_plan_cache_hits_on_repeated_erasure_pattern() {
        let rs = ReedSolomon::new(CodingParams::new(9, 3).unwrap()).unwrap();
        let object: Vec<u8> = (0..27_001).map(|i| (i % 251) as u8).collect();
        let shards = rs.encode_object(&object).unwrap();
        let mut degraded = present(&shards);
        degraded[1] = None;
        degraded[5] = None;

        let (cold, cold_report) = rs
            .reconstruct_object_report(&degraded, object.len())
            .unwrap();
        assert!(!cold_report.plan_cache_hit);
        assert!(!cold_report.systematic_fast_path);
        assert!(cold_report.gf_multiply_bytes > 0);
        assert_eq!(cached_plans(&rs), 1);

        let (warm, warm_report) = rs
            .reconstruct_object_report(&degraded, object.len())
            .unwrap();
        assert!(
            warm_report.plan_cache_hit,
            "same pattern must hit the cache"
        );
        assert_eq!(cached_plans(&rs), 1, "no re-inversion");
        assert_eq!(cold.as_ref(), warm.as_ref(), "cached plan changed bytes");
        assert_eq!(cold.as_ref(), object.as_slice());

        // A different pattern is a fresh plan...
        let mut other = present(&shards);
        other[0] = None;
        let (_, other_report) = rs.reconstruct_object_report(&other, object.len()).unwrap();
        assert!(!other_report.plan_cache_hit);
        assert_eq!(cached_plans(&rs), 2);
        // ...and clones share the memo.
        let clone = rs.clone();
        let (_, clone_report) = clone
            .reconstruct_object_report(&degraded, object.len())
            .unwrap();
        assert!(clone_report.plan_cache_hit);
    }

    #[test]
    fn encode_object_data_shards_share_one_buffer() {
        let rs = ReedSolomon::new(CodingParams::new(4, 2).unwrap()).unwrap();
        let object: Vec<u8> = (0..400).map(|i| (i % 256) as u8).collect();
        let shards = rs.encode_object(&object).unwrap();
        let base = shards[0].as_ref().as_ptr();
        for (i, shard) in shards.iter().take(4).enumerate() {
            assert_eq!(
                shard.as_ref().as_ptr(),
                // SAFETY: `base` points into the shared 400-byte padded
                // buffer and `i * 100 <= 300` stays within it.
                unsafe { base.add(i * 100) },
                "data shard {i} is not a slice of the padded buffer"
            );
        }
    }

    /// Every way to keep exactly `k` of the `k + m` shards of one
    /// object: the decoder must return the original bytes, and the
    /// report must account the GF work exactly — per missing data
    /// shard, its non-trivial decode coefficients × the bytes of it the
    /// object needs; nothing on the systematic path.
    fn check_all_erasure_patterns(params: CodingParams, object_size: usize) {
        let (k, total) = (params.data_chunks(), params.total_chunks());
        let rs = ReedSolomon::new(params).unwrap();
        let object = sample_object(object_size);
        let full = rs.encode_object(&object).unwrap();
        let shard_len = full[0].len();
        let data: Vec<&[u8]> = full[..k].iter().map(Bytes::as_ref).collect();
        for (computed, expected) in full[k..].iter().zip(reference_parity(&rs, &data)) {
            assert_eq!(computed.as_ref(), expected.as_slice(), "{params} parity");
        }
        let masks = (0u32..1 << total).filter(|mask| mask.count_ones() as usize == k);
        let mut degraded = 0;
        // Under Miri, a sample: the first (systematic) pattern and every
        // 47th after it.
        for mask in masks.step_by(if cfg!(miri) { 47 } else { 1 }) {
            let case = format!("{params:?}, {object_size} bytes, mask {mask:#b}");
            let kept: Vec<usize> = (0..total).filter(|i| mask & (1 << i) != 0).collect();

            let shards: Vec<Option<Bytes>> = (0..total)
                .map(|i| kept.contains(&i).then(|| full[i].clone()))
                .collect();
            let (back, report) = rs.reconstruct_object_report(&shards, object_size).unwrap();
            assert_eq!(back.as_ref(), object.as_slice(), "{case}");
            let selected: Vec<u8> = kept
                .iter()
                .flat_map(|&i| rs.encoding_row(i))
                .copied()
                .collect();
            let decode = invert(&selected, k).unwrap();
            let expected_gf: usize = (0..k)
                .filter(|target| !kept.contains(target))
                .map(|target| {
                    let needed = object_size
                        .saturating_sub(target * shard_len)
                        .min(shard_len);
                    let row = &decode[target * k..(target + 1) * k];
                    row.iter().filter(|&&c| c >= 2).count() * needed
                })
                .sum();
            assert_eq!(report.gf_multiply_bytes, expected_gf as u64, "{case}");
            assert_eq!(report.systematic_fast_path, kept[k - 1] == k - 1, "{case}");
            if report.systematic_fast_path {
                assert_eq!(report.gf_multiply_bytes, 0, "{case}");
            }
            degraded += usize::from(!report.systematic_fast_path);
        }
        assert_eq!(cached_plans(&rs), degraded, "one plan per degraded pattern");
    }

    #[test]
    fn every_erasure_pattern_decodes_byte_equal() {
        let sizes: &[usize] = if cfg!(miri) {
            &[1, 9_000]
        } else {
            &[1, 9_000, 999_999, 1_000_000]
        };
        for &object_size in sizes {
            check_all_erasure_patterns(CodingParams::paper_default(), object_size);
        }
        for (k, m) in [(1, 2), (4, 3), (6, 2)] {
            check_all_erasure_patterns(CodingParams::new(k, m).unwrap(), 1_001);
        }
    }

    /// The degraded decode's column blocks at their edges: shard lengths
    /// either side of one block, of the single-block limit and of whole
    /// multiples of the block, each with a last data shard that ends in
    /// padding (up to `k - 1` bytes of it, the most `chunk_size` leaves),
    /// under every erasure pattern. Under Miri, one shard length either
    /// side of the single-block limit, with `k - 1` bytes of padding.
    #[test]
    fn degraded_decode_across_column_block_edges() {
        let params = CodingParams::paper_default();
        let k = params.data_chunks();
        let shard_lens: &[usize] = if cfg!(miri) {
            &[COLUMN_BLOCK + 1, SINGLE_BLOCK_MAX + 1]
        } else {
            &[
                COLUMN_BLOCK - 1,
                COLUMN_BLOCK,
                COLUMN_BLOCK + 1,
                SINGLE_BLOCK_MAX - 1,
                SINGLE_BLOCK_MAX,
                SINGLE_BLOCK_MAX + 1,
                9 * COLUMN_BLOCK - 1,
                9 * COLUMN_BLOCK,
                9 * COLUMN_BLOCK + 1,
                11 * COLUMN_BLOCK + 37,
            ]
        };
        let paddings = [k - 1, 1];
        for &shard_len in shard_lens {
            for &padding in &paddings[..if cfg!(miri) { 1 } else { 2 }] {
                let object_size = k * shard_len - padding;
                assert_eq!(params.chunk_size(object_size), shard_len);
                check_all_erasure_patterns(params, object_size);
            }
        }
    }

    /// A code wider than the inline source array: the sources spill to a
    /// `Vec`, and the decode is still byte-equal, multi-block shards
    /// included.
    #[test]
    fn degraded_decode_wider_than_the_inline_sources() {
        let params = CodingParams::new(INLINE_SOURCES + 8, 3).unwrap();
        let (k, total) = (params.data_chunks(), params.total_chunks());
        let rs = ReedSolomon::new(params).unwrap();
        let sizes = [k * 100 - 7, k * (SINGLE_BLOCK_MAX + 3) - 1];
        for &object_size in &sizes[..if cfg!(miri) { 1 } else { 2 }] {
            let object = sample_object(object_size);
            let full = rs.encode_object(&object).unwrap();
            for missing in [[0, k / 2, k - 1], [k - 1, k, total - 1]] {
                let mut shards = present(&full);
                for &i in &missing {
                    shards[i] = None;
                }
                let (back, report) = rs.reconstruct_object_report(&shards, object_size).unwrap();
                assert_eq!(
                    back.as_ref(),
                    object.as_slice(),
                    "{object_size} {missing:?}"
                );
                assert!(report.gf_multiply_bytes > 0);
            }
        }
    }

    /// The parity rows as stored chunks carry them: encoding the
    /// `k × k` identity (data shard `j` is the unit vector `e_j`) makes
    /// parity shard `p` equal to parity row `p` of the encoding matrix.
    fn parity_rows(k: usize, m: usize) -> Vec<Vec<u8>> {
        let rs = ReedSolomon::new(CodingParams::new(k, m).unwrap()).unwrap();
        let identity: Vec<u8> = (0..k * k).map(|i| u8::from(i % (k + 1) == 0)).collect();
        let shards = rs.encode_object(&identity).unwrap();
        shards[k..].iter().map(|shard| shard.to_vec()).collect()
    }

    /// The chunk format, pinned: a change to the code's construction
    /// changes these bytes, and with them the parity of every stored
    /// chunk, so it must fail here rather than pass silently.
    #[test]
    fn parity_rows_are_pinned() {
        assert_eq!(
            parity_rows(9, 3),
            [
                [158, 158, 137, 137, 247, 247, 225, 225, 1],
                [160, 183, 160, 183, 33, 55, 33, 55, 1],
                [41, 62, 62, 41, 192, 214, 214, 192, 1],
            ]
        );
        assert_eq!(parity_rows(4, 2), [[27, 28, 18, 20], [28, 27, 20, 18]]);
    }

    /// The widest codes the field allows still build and decode: a
    /// `k + m = 255` code, with every parity shard standing in for a
    /// lost data shard.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn wide_code_builds_and_decodes() {
        let (k, m) = (200, 55);
        let rs = ReedSolomon::new(CodingParams::new(k, m).unwrap()).unwrap();
        let object = sample_object(k * 3 - 1);
        let mut shards = present(&rs.encode_object(&object).unwrap());
        for shard in &mut shards[..m] {
            *shard = None;
        }
        let (back, _) = rs.reconstruct_object_report(&shards, object.len()).unwrap();
        assert_eq!(back.as_ref(), object.as_slice());
    }

    /// Gauss-Jordan pivots past a zero on the diagonal and reports a
    /// matrix with no inverse.
    #[test]
    fn invert_pivots_and_detects_singular_matrices() {
        assert_eq!(invert(&[0, 1, 1, 0], 2), Ok(vec![0, 1, 1, 0]));
        let m = [56, 23, 98, 3, 100, 200, 45, 201, 123];
        let inverse = invert(&m, 3).unwrap();
        assert_eq!(invert(&inverse, 3), Ok(m.to_vec()));
        for singular in [[1, 2, 1, 2], [0, 0, 1, 2]] {
            assert_eq!(invert(&singular, 2), Err(EcError::SingularMatrix));
        }
    }

    #[test]
    #[cfg_attr(miri, ignore)]
    fn paper_configuration_rs_9_3() {
        let rs = ReedSolomon::new(CodingParams::paper_default()).unwrap();
        // 1 MB object, like the paper's workload.
        let object: Vec<u8> = (0..1_000_000).map(|i| (i % 241) as u8).collect();
        let shards = rs.encode_object(&object).unwrap();
        assert_eq!(shards.len(), 12);
        assert_eq!(shards[0].len(), 111_112);
        // Lose an entire "region" worth of chunks (2) plus one more.
        let mut opts = present(&shards);
        opts[1] = None;
        opts[7] = None;
        opts[10] = None;
        let (back, _) = rs.reconstruct_object_report(&opts, object.len()).unwrap();
        assert_eq!(back.as_ref(), object.as_slice());
    }
}
