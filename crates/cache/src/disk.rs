//! The per-node disk cache tier: a segmented append-log chunk store.
//!
//! The Agar paper caps the cacheable catalogue at what fits in each
//! node's memcached; f4-style warm tiers show that the long tail of an
//! erasure-coded working set belongs on cheap, slower storage. This
//! module is that tier: a byte-capped store of versioned chunks kept in
//! append-only segment files under a private temp directory, fronted by
//! an in-memory index.
//!
//! Design points:
//!
//! - **Append-log segments.** Writes append a checksummed frame to the
//!   active segment; a segment seals once it passes its target size and
//!   a fresh one becomes active. Overwrites leave the old frame behind
//!   as dead space — the index only ever points at the newest frame.
//! - **One handle per segment, positioned I/O.** A segment's file is
//!   opened once (read + write) when the log rotates onto it and closed
//!   and unlinked when the segment is cleaned. A `put` is one positioned
//!   write *at the offset the index records* — so a torn tail or a
//!   failed write can never shift where later frames land. A `get` is
//!   one positioned read of header + payload into a single buffer whose
//!   payload is handed out as a zero-copy [`Bytes::slice`]; a
//!   [`DiskStore::get_many`] (one object's chunks at a reader's
//!   version, which a placement tends to append back to back) takes
//!   the lock once, applies the version rule from the index alone — a
//!   newer frame is left in place and an older one forgotten, neither
//!   read — sorts the frames at the version by (segment, offset) and
//!   reads each run of back-to-back frames with one positioned read
//!   into one buffer, whose payloads are all slices of it. The
//!   `read_calls` cell of [`DiskCounters`] counts the positioned reads.
//!   There is no `fsync`: this is a cache of re-fetchable chunks. (The
//!   positioned calls are `std::os::unix::fs::FileExt`; the crate is
//!   Unix-only.)
//! - **Capacity is reclaimed by a log cleaner.** Every segment counts
//!   the bytes of its frames the index still points at. When total
//!   segment bytes exceed the budget the victim is the *sealed segment
//!   with the fewest live bytes* (ties: the lowest segment id; never the
//!   active one). Its live frames are **copied forward** in ascending
//!   offset order — each is read and verified exactly as `get` does,
//!   appended to the active segment and its index entry repointed —
//!   until the copies add up to half the victim's length; then the file
//!   is deleted. Rewriting never costs more than it reclaims, so copied
//!   bytes never exceed first-time bytes (write amplification ≤ 2 by
//!   construction, no setting). A victim at most half live therefore
//!   loses nothing. One that is more than half live keeps the frames
//!   that fit the allowance — the oldest: a frame that outlived its
//!   neighbours is the stable one, and what a caller re-fetches is what
//!   it wrote last — and the rest are lost (reported as
//!   [`DiskPutOutcome::evicted`]): that is what a log filled to the
//!   brim with live data degrades to, half a segment at a time and not
//!   a whole one. What a caller may rely on is therefore
//!   *live ⇒ present while live bytes are at most 40 % of the budget*
//!   (the churn tests below hold it), not "live ⇒ present": the node
//!   keeps the chunks its knapsack **solved** for inside that regime on
//!   its workloads and re-downloads a lost one at the epoch, and fills
//!   the rest of the log with **carried** chunks that are best effort
//!   — one the cleaner drops simply leaves its entry. Victim
//!   choice and copy order read only counters, ids and offsets —
//!   `HashMap` iteration order never reaches the disk — so equal
//!   operation sequences leave byte-equal segment files. The budget is
//!   a hard bound: a frame that would push the active segment alone
//!   past the budget seals it first.
//! - **Corruption is a miss, never bad bytes.** Every frame carries its
//!   identity, version, length and a checksum over all of those and the
//!   payload (`frame_checksum`). A read rebuilds the header it
//!   expects from the index entry and the payload bytes it got and
//!   compares it with the header on disk byte for byte, so a wrong
//!   magic, object, index, version, length or checksum — or a short
//!   read — purges the index entry and reports a miss so the caller
//!   falls back to the backend; it never panics and never returns
//!   payload bytes that failed verification. A run read verifies each
//!   of its frames on its own, so a bad frame costs only itself, and a
//!   run whose read comes back short (a torn tail) is re-read a frame
//!   at a time, so a cut at its j-th frame costs frames j and later
//!   and no earlier one. The cleaner applies the
//!   same check to every frame it copies: a survivor that fails it is
//!   counted and dropped, never rewritten.
//!
//! # Frame layout
//!
//! All integers little-endian; a frame is the 33-byte header followed
//! by `len` payload bytes, frames back to back from offset 0.
//!
//! | bytes  | field                                              |
//! |--------|----------------------------------------------------|
//! | 0..4   | magic `0xA6A7_C4CF` (`…CE` was the FNV-1a format)  |
//! | 4..12  | object id                                          |
//! | 12     | chunk index                                        |
//! | 13..21 | version                                            |
//! | 21..25 | payload length                                     |
//! | 25..33 | `frame_checksum` of the four fields + payload      |
//!
//! The store removes its directory on drop.

use crate::sharded::CachedChunk;
use agar_ec::{ChunkId, ChunkSet, ObjectId};
use bytes::Bytes;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Frame magic, little-endian, first 4 bytes of every frame. Bumped
/// from `0xA6A7_C4CE` when the checksum changed, so a frame in the old
/// format can never verify.
const FRAME_MAGIC: u32 = 0xA6A7_C4CF;

/// Fixed frame header size: magic(4) + object(8) + index(1) + version(8)
/// + len(4) + checksum(8).
///
/// What a chunk costs in the log beyond its payload: a caller budgeting
/// the tier in chunks divides the capacity by `HEADER_LEN + chunk size`,
/// not by the chunk size.
pub const HEADER_LEN: usize = 4 + 8 + 1 + 8 + 4 + 8;

/// Global counter so concurrent stores in one process get distinct dirs.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Independent checksum lanes: payload word `i` goes to lane `i % 4`.
const LANES: usize = 4;

/// Lane seeds and multipliers: the 64-bit golden ratio and xxHash's
/// odd primes. Only "distinct" (seeds) and "odd" (multipliers, so that
/// multiplying mod 2^64 is a bijection) matter below.
const LANE_SEEDS: [u64; LANES] = [
    0x9E37_79B9_7F4A_7C15,
    0xC2B2_AE3D_27D4_EB4F,
    0x1656_67B1_9E37_79F9,
    0x27D4_EB2F_1656_67C5,
];
const MUL_WORD: u64 = 0xC2B2_AE3D_27D4_EB4F;
const MUL_STATE: u64 = 0x9E37_79B1_85EB_CA87;

/// One checksum step: folds `word` into `state`.
///
/// For a fixed `word` this is a bijection of `state`, and for a fixed
/// `state` a bijection of `word`: adding a constant, rotating, and
/// multiplying by an odd constant are each invertible mod 2^64.
#[inline(always)]
fn absorb(state: u64, word: u64) -> u64 {
    state
        .wrapping_add(word.wrapping_mul(MUL_WORD))
        .rotate_left(31)
        .wrapping_mul(MUL_STATE)
}

/// Zero-extends up to 8 little-endian bytes to a word.
fn le_word(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The frame checksum: covers every payload byte and the header's
/// object / index / version / length fields.
///
/// The payload is cut into little-endian 8-byte words from its start;
/// word `i` is [`absorb`]ed by lane `i % 4`, so four multiply chains
/// run in parallel (≈ 11 GB/s on the 2.1 GHz Xeon EXPERIMENTS.md
/// describes). The trailing `len % 8` bytes are zero-extended to one
/// more word. A single accumulator, seeded with the payload length,
/// then absorbs the four lanes, the tail word, the object id, the
/// chunk index and the version. There is no final avalanche: the sum
/// is only ever compared for equality, which a bijective finisher
/// cannot change.
///
/// **A corruption confined to one payload word, to the tail, or to one
/// header field always changes the result.** It changes exactly one
/// absorbed value — one step of one lane, or one step of the
/// accumulator. At that step the state going in is unchanged and the
/// word differs, so (bijection in `word`) the state coming out
/// differs; every later step of that lane takes the same word on both
/// sides, so (bijection in `state`) the lane's final value differs;
/// the accumulator absorbs it from an equal state, so the accumulator
/// differs, and every later absorb is again a bijection of the
/// accumulator. The length seeds the accumulator, so a payload and the
/// same payload with zero bytes appended to its tail also differ.
/// Corruption spread over several words is caught with probability
/// 1 − 2⁻⁶⁴-ish, as with any 64-bit checksum; this is an integrity
/// check against torn and flipped bytes, not a MAC.
fn frame_checksum(id: &ChunkId, version: u64, payload: &[u8]) -> u64 {
    // Whole four-word blocks first: a fixed trip count lets the four
    // chains unroll (one `chunks(LANES)` loop over all the words
    // measured 8 GB/s against 13 at 10 KB).
    let (blocks, rest) = payload.as_chunks::<{ 8 * LANES }>();
    let mut lanes = LANE_SEEDS;
    for block in blocks {
        let (words, _) = block.as_chunks::<8>();
        for (lane, word) in lanes.iter_mut().zip(words) {
            *lane = absorb(*lane, u64::from_le_bytes(*word));
        }
    }
    let (words, tail) = rest.as_chunks::<8>();
    for (lane, word) in lanes.iter_mut().zip(words) {
        *lane = absorb(*lane, u64::from_le_bytes(*word));
    }
    let mut sum = payload.len() as u64;
    for word in lanes {
        sum = absorb(sum, word);
    }
    sum = absorb(sum, le_word(tail));
    sum = absorb(sum, id.object().index());
    sum = absorb(sum, u64::from(id.index().value()));
    absorb(sum, version)
}

/// The header a verified frame for (`id`, `version`, `payload`) has.
/// `put` writes it; `get` compares it with what it read.
fn encode_header(id: &ChunkId, version: u64, len: u32, payload: &[u8]) -> [u8; HEADER_LEN] {
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&FRAME_MAGIC.to_le_bytes());
    header[4..12].copy_from_slice(&id.object().index().to_le_bytes());
    header[12] = id.index().value();
    header[13..21].copy_from_slice(&version.to_le_bytes());
    header[21..25].copy_from_slice(&len.to_le_bytes());
    header[25..33].copy_from_slice(&frame_checksum(id, version, payload).to_le_bytes());
    header
}

/// Where a live chunk's newest frame sits.
#[derive(Clone, Copy, Debug)]
struct Location {
    segment: u64,
    /// Byte offset of the frame header within the segment file.
    offset: u64,
    /// Payload length (excludes the header).
    len: u32,
    version: u64,
}

impl Location {
    /// Header + payload bytes of the frame.
    fn frame_len(&self) -> u64 {
        HEADER_LEN as u64 + u64::from(self.len)
    }

    /// Whether `next` starts in the same segment right where this
    /// frame ends: the two can be read with one positioned read.
    fn precedes(&self, next: &Location) -> bool {
        self.segment == next.segment && self.offset + self.frame_len() == next.offset
    }
}

#[derive(Debug)]
struct Segment {
    id: u64,
    path: PathBuf,
    /// Read + write handle, held from rotation to cleaning.
    file: File,
    /// Bytes written to this segment (headers + payloads); the offset
    /// the next frame is written at.
    len: u64,
    /// Bytes of this segment's frames the index still points at:
    /// credited when a frame is appended, debited wherever its index
    /// entry dies.
    live: u64,
}

#[derive(Debug)]
struct Inner {
    dir: PathBuf,
    /// Ascending id; the last entry is the active (append) segment.
    segments: Vec<Segment>,
    index: HashMap<ChunkId, Location>,
    /// Sum of all segment lengths, live and dead frames alike.
    used: u64,
    next_segment: u64,
    /// The frame being written (header + payload), reused across puts
    /// so a put is one write call and no allocation.
    frame: Vec<u8>,
    /// The frames a `get_many` found, reused across calls so sorting
    /// them allocates nothing once it has grown to an object's width.
    located: Vec<(ChunkId, Location)>,
}

impl Inner {
    /// Debits the frame of a dead index entry from its segment.
    fn debit(segments: &mut [Segment], dead: Location) {
        if let Some(segment) = segments.iter_mut().find(|s| s.id == dead.segment) {
            segment.live = segment.live.saturating_sub(dead.frame_len());
        }
    }

    /// Drops the index entry for `id`; returns whether one existed.
    fn forget(&mut self, id: &ChunkId) -> bool {
        let dead = self.index.remove(id);
        if let Some(dead) = dead {
            Self::debit(&mut self.segments, dead);
        }
        dead.is_some()
    }
}

/// Outcome of a [`DiskStore::put`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DiskPutOutcome {
    /// Whether the chunk was stored (false: larger than the whole tier,
    /// the tier has zero capacity, or a newer version of the chunk is
    /// live).
    pub stored: bool,
    /// Live entries lost while reclaiming space: those of a cleaned
    /// segment beyond the half of its length the cleaner rewrites, plus
    /// any survivor whose rewrite failed. 0 while the live set leaves
    /// the cleaner a mostly-dead segment to pick.
    pub evicted: u64,
}

/// A byte-capped, checksummed, segmented append-log store of versioned
/// chunks under a private temp directory.
///
/// All operations take `&self`; the store is internally synchronised
/// with a single mutex (this is the slow tier — its lock is not on the
/// RAM hot path).
///
/// # Examples
///
/// ```
/// use agar_cache::{CachedChunk, DiskStore};
/// use agar_ec::{ChunkId, ObjectId};
/// use bytes::Bytes;
///
/// let store = DiskStore::new(1 << 20).unwrap();
/// let id = ChunkId::new(ObjectId::new(1), 0);
/// store.put(id, &CachedChunk::new(Bytes::from(vec![7u8; 128]), 3));
/// let back = store.get(&id).unwrap();
/// assert_eq!(back.version(), 3);
/// assert_eq!(back.data().len(), 128);
/// ```
#[derive(Debug)]
pub struct DiskStore {
    capacity: u64,
    /// Target size after which the active segment seals.
    segment_target: u64,
    counters: DiskCounters,
    inner: Mutex<Inner>,
}

agar_obs::cell_table! {
    /// The disk tier's cells. Appended bytes are the tier's write
    /// traffic, exact per seed where wall time is not; compacted bytes
    /// are the part of them the cleaner copied forward out of victim
    /// segments. A read call is one positioned read: one per `get`, one
    /// per run of frames a `get_many` reads (plus one per frame of a run
    /// re-read after a short read), one per frame the cleaner copies. A
    /// corrupt frame is an indexed frame that failed verification (torn
    /// frame, identity/length mismatch, checksum failure, I/O error) and
    /// was served as a miss.
    pub struct DiskCounters {
        corrupt_frames: Counter "agar_disk_corrupt_frames_total" []
            "Disk-tier frames that failed verification and were served as misses.";
        appended_bytes: Counter "agar_disk_appended_bytes_total" []
            "Frame bytes (header + payload) written to the disk-tier log.";
        compacted_bytes: Counter "agar_disk_compacted_bytes_total" []
            "Frame bytes the disk-tier log cleaner copied forward (part of appended).";
        read_calls: Counter "agar_disk_read_calls_total" []
            "Positioned reads issued against disk-tier segment files.";
    }
}

impl DiskStore {
    /// Creates a store of `capacity_bytes` under a fresh private
    /// directory in the system temp dir (removed on drop).
    pub fn new(capacity_bytes: usize) -> std::io::Result<Self> {
        let seq = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("agar-disk-{}-{}", std::process::id(), seq));
        std::fs::create_dir_all(&dir)?;
        let capacity = capacity_bytes as u64;
        // Eight segments per tier keeps whole-segment cleaning
        // reasonably granular without a file per chunk.
        let segment_target = (capacity / 8).max(1);
        Ok(DiskStore {
            capacity,
            segment_target,
            counters: DiskCounters::default(),
            inner: Mutex::new(Inner {
                dir,
                segments: Vec::new(),
                index: HashMap::new(),
                used: 0,
                next_segment: 0,
                frame: Vec::new(),
                located: Vec::new(),
            }),
        })
    }

    /// Locks the store. A poisoned mutex is recovered, not propagated:
    /// the index is only a cache of re-fetchable frames, every frame is
    /// verified against its index entry on read, and `put` re-applies
    /// the byte budget, so state left by a panicking holder degrades to
    /// misses at worst.
    fn inner(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity as usize
    }

    /// Bytes currently held in segment files (including dead frames
    /// left behind by overwrites).
    pub fn used_bytes(&self) -> usize {
        self.inner().used as usize
    }

    /// Number of live (indexed) chunks.
    pub fn len(&self) -> usize {
        self.inner().index.len()
    }

    /// Whether no live chunks are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a live entry exists for `id`.
    pub fn contains(&self, id: &ChunkId) -> bool {
        self.inner().index.contains_key(id)
    }

    /// The version of the live entry for `id`, if any.
    pub fn version_of(&self, id: &ChunkId) -> Option<u64> {
        self.inner().index.get(id).map(|l| l.version)
    }

    /// The chunks of `indices` of `object` with no live entry, under
    /// one lock (a [`DiskStore::contains`] per index; no frame is read).
    pub fn absent(&self, object: ObjectId, indices: impl IntoIterator<Item = u8>) -> ChunkSet {
        let inner = self.inner();
        indices
            .into_iter()
            .filter(|&index| !inner.index.contains_key(&ChunkId::new(object, index)))
            .collect()
    }

    /// All live chunk ids, in sorted order.
    pub fn keys(&self) -> Vec<ChunkId> {
        let mut keys: Vec<ChunkId> = self.inner().index.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Paths of the current segment files, oldest first. Exposed for
    /// crash/corruption tests and diagnostics; treat the contents as
    /// opaque.
    pub fn segment_paths(&self) -> Vec<PathBuf> {
        self.inner()
            .segments
            .iter()
            .map(|s| s.path.clone())
            .collect()
    }

    /// Appends `chunk` under `id`, replacing the live entry of an equal
    /// or older version (the old frame becomes dead space), then cleans
    /// segments as needed to stay within the byte budget (see the module
    /// docs). A chunk older than the live entry is refused and nothing
    /// is written: like the RAM tier, the log never takes a key's
    /// version backwards.
    pub fn put(&self, id: ChunkId, chunk: &CachedChunk) -> DiskPutOutcome {
        const NOT_STORED: DiskPutOutcome = DiskPutOutcome {
            stored: false,
            evicted: 0,
        };
        let payload = chunk.data();
        let frame_len = HEADER_LEN as u64 + payload.len() as u64;
        let Ok(len) = u32::try_from(payload.len()) else {
            return NOT_STORED;
        };
        if frame_len > self.capacity {
            return NOT_STORED;
        }
        let header = encode_header(&id, chunk.version(), len, payload);

        let mut inner = self.inner();
        let inner = &mut *inner;
        let live = inner.index.get(&id);
        if live.is_some_and(|live| live.version > chunk.version()) {
            return NOT_STORED;
        }
        // The disk tier is a single-writer log: the frame write and the
        // index update must be atomic with respect to concurrent gets,
        // so the I/O happens under the store mutex by design.
        // agar-lint: allow(lock-across-blocking)
        let Ok((segment, offset)) = self.append_frame(inner, &header, payload) else {
            // An I/O failure on the slow tier degrades to "not cached":
            // drop any stale index entry and move on.
            inner.forget(&id);
            return NOT_STORED;
        };
        let loc = Location {
            segment,
            offset,
            len,
            version: chunk.version(),
        };
        if let Some(overwritten) = inner.index.insert(id, loc) {
            Inner::debit(&mut inner.segments, overwritten);
        }
        let evicted = self.clean_to_capacity(inner);
        DiskPutOutcome {
            stored: inner.index.contains_key(&id),
            evicted,
        }
    }

    /// Looks up `id`, verifying the frame's magic, identity, version,
    /// length and checksum. Any verification failure (torn frame,
    /// corrupted payload, I/O error) drops the index entry and returns
    /// `None` — a miss, never unverified bytes.
    pub fn get(&self, id: &ChunkId) -> Option<CachedChunk> {
        let mut inner = self.inner();
        let loc = *inner.index.get(id)?;
        // Reads verify against the index entry they resolved, so the
        // frame read stays under the store mutex (single-writer log).
        // agar-lint: allow(lock-across-blocking)
        self.get_located(&mut inner, *id, loc)
    }

    /// Looks up every chunk of `ids` at a reader's `version` under one
    /// lock, applying the version rule to each live entry from the
    /// index alone: a frame at `version` is read and served, a newer
    /// one is left in place unread, and an older one is forgotten
    /// unread (it can never be served again). Calls `found` with each
    /// verified hit, in log order (not `ids` order). The frames to read
    /// are sorted by (segment, offset), and each run of back-to-back
    /// frames is read with one positioned read into one buffer that
    /// every payload of the run is a zero-copy slice of. Each frame is
    /// verified as [`DiskStore::get`] verifies it, and one that fails
    /// is a counted miss whose index entry is dropped, as there; its
    /// neighbours in the run are served. A run whose read fails or
    /// comes back short is re-read one frame at a time.
    ///
    /// Equal, for distinct ids, to a [`DiskStore::version_of`] per id
    /// followed by a [`DiskStore::get`] of a chunk at `version` or a
    /// [`DiskStore::remove`] of an older one (a repeated id is read once
    /// per occurrence). `found` runs under the store's lock, so it must
    /// not call back into the store.
    pub fn get_many(
        &self,
        ids: impl IntoIterator<Item = ChunkId>,
        version: u64,
        mut found: impl FnMut(ChunkId, CachedChunk),
    ) {
        let mut inner = self.inner();
        let inner = &mut *inner;
        let mut located = std::mem::take(&mut inner.located);
        located.clear();
        located.extend(ids.into_iter().filter_map(|id| {
            let loc = *inner.index.get(&id)?;
            if loc.version < version {
                inner.forget(&id);
            }
            (loc.version == version).then_some((id, loc))
        }));
        located.sort_unstable_by_key(|(_, loc)| (loc.segment, loc.offset));
        let mut rest = &located[..];
        while !rest.is_empty() {
            let adjacent = rest
                .windows(2)
                .take_while(|pair| pair[0].1.precedes(&pair[1].1))
                .count();
            let (run, after) = rest.split_at(adjacent + 1);
            // As in `get`: verification against the index entries
            // needs the frames read under the store mutex.
            // agar-lint: allow(lock-across-blocking)
            self.read_run(inner, run, &mut found);
            rest = after;
        }
        inner.located = located;
    }

    /// Reads one frame with one positioned read and verifies it; a
    /// frame that fails is counted in `corrupt_frames` and forgotten.
    fn get_located(&self, inner: &mut Inner, id: ChunkId, loc: Location) -> Option<CachedChunk> {
        let segment = inner.segments.iter().find(|s| s.id == loc.segment);
        let frame =
            segment.and_then(|segment| self.read_at(&segment.file, loc.offset, loc.frame_len()));
        let verified = frame.and_then(|frame| Self::verified(&frame, 0, &id, loc));
        if verified.is_none() {
            // An index entry existed but its frame failed verification:
            // that is corruption (or a torn write), not a clean miss —
            // count it so operators can see the tier eating bad frames,
            // then fall through.
            self.counters.corrupt_frames.inc();
            inner.forget(&id);
        }
        verified
    }

    /// Reads `run` — frames back to back in one segment, in offset
    /// order — with one positioned read, and serves each verified frame
    /// to `found`. A failed or short read re-reads the frames one at a
    /// time.
    fn read_run(
        &self,
        inner: &mut Inner,
        run: &[(ChunkId, Location)],
        found: &mut impl FnMut(ChunkId, CachedChunk),
    ) {
        let (first, last) = (run[0].1, run[run.len() - 1].1);
        let len = last.offset + last.frame_len() - first.offset;
        let segment = inner.segments.iter().find(|s| s.id == first.segment);
        // A lone frame is read as `get` reads it, and so, one frame at a
        // time, is a run whose read failed or came back short.
        let buffer = match (run, segment) {
            ([_, _, ..], Some(segment)) => self.read_at(&segment.file, first.offset, len),
            _ => None,
        };
        let Some(buffer) = buffer else {
            for &(id, loc) in run {
                if let Some(chunk) = self.get_located(inner, id, loc) {
                    found(id, chunk);
                }
            }
            return;
        };
        for &(id, loc) in run {
            let at = (loc.offset - first.offset) as usize;
            match Self::verified(&buffer, at, &id, loc) {
                Some(chunk) => found(id, chunk),
                None => {
                    self.counters.corrupt_frames.inc();
                    inner.forget(&id);
                }
            }
        }
    }

    /// One positioned read of `len` bytes at `offset` into a fresh
    /// buffer; `None` if the read fails or comes back short. Callers
    /// size it from index entries, never from a length read off disk.
    fn read_at(&self, file: &File, offset: u64, len: u64) -> Option<Bytes> {
        self.counters.read_calls.inc();
        // `repeat_n` is exact-length, so this is one allocation holding
        // the counts and the bytes, and the fresh `Arc` is unique.
        let mut buffer: Arc<[u8]> = std::iter::repeat_n(0u8, len as usize).collect();
        file.read_exact_at(Arc::get_mut(&mut buffer)?, offset)
            .ok()?;
        Some(Bytes::from(buffer))
    }

    /// The chunk whose frame starts at `at` of `buffer`, if the frame
    /// verifies against its index entry: the header read must equal,
    /// byte for byte, the header [`encode_header`] builds from the entry
    /// and the payload bytes read — which checks magic, object, index,
    /// version, length and checksum at once. The payload is a zero-copy
    /// slice of `buffer`.
    fn verified(buffer: &Bytes, at: usize, id: &ChunkId, loc: Location) -> Option<CachedChunk> {
        let end = at + loc.frame_len() as usize;
        let (header, payload) = buffer.get(at..end)?.split_at(HEADER_LEN);
        (header == encode_header(id, loc.version, loc.len, payload))
            .then(|| CachedChunk::new(buffer.slice(at + HEADER_LEN..end), loc.version))
    }

    /// The tier's cells (see [`DiskCounters`]).
    pub fn counters(&self) -> &DiskCounters {
        &self.counters
    }

    /// Drops the live entry for `id` (dead space remains until its
    /// segment is cleaned). Returns whether an entry existed.
    pub fn remove(&self, id: &ChunkId) -> bool {
        self.inner().forget(id)
    }

    /// Drops the live entries of chunks `indices` of `object` under one
    /// lock (a [`DiskStore::remove`] per index); returns the ones that
    /// existed.
    pub fn remove_object(
        &self,
        object: ObjectId,
        indices: impl IntoIterator<Item = u8>,
    ) -> ChunkSet {
        let mut inner = self.inner();
        indices
            .into_iter()
            .filter(|&index| inner.forget(&ChunkId::new(object, index)))
            .collect()
    }

    /// Writes `header` + `payload` as one frame at the active segment's
    /// tracked length and returns the frame's `(segment, offset)`,
    /// crediting it to the segment's live bytes and to `appended_bytes`.
    /// Rotates first if the active segment is full, or if this frame
    /// would grow it past the whole budget — the active segment is never
    /// cleaned, so it alone must always fit. The write is positioned, not
    /// `O_APPEND`: if the file is shorter or longer than the tracked
    /// length (a torn tail, a write that failed part-way) the frame
    /// still lands exactly where the index will look for it.
    fn append_frame(
        &self,
        inner: &mut Inner,
        header: &[u8],
        payload: &[u8],
    ) -> std::io::Result<(u64, u64)> {
        let frame_len = (header.len() + payload.len()) as u64;
        let needs_new = match inner.segments.last() {
            Some(active) => {
                active.len >= self.segment_target || active.len + frame_len > self.capacity
            }
            None => true,
        };
        if needs_new {
            let id = inner.next_segment;
            inner.next_segment += 1;
            let path = inner.dir.join(format!("seg-{id}.log"));
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(&path)?;
            inner.segments.push(Segment {
                id,
                path,
                file,
                len: 0,
                live: 0,
            });
        }
        let active = inner.segments.last_mut().expect("active segment exists");
        let frame = &mut inner.frame;
        frame.clear();
        frame.extend_from_slice(header);
        frame.extend_from_slice(payload);
        active.file.write_all_at(frame, active.len)?;
        let offset = active.len;
        active.len += frame_len;
        active.live += frame_len;
        inner.used += frame_len;
        self.counters.appended_bytes.add(frame_len);
        Ok((active.id, offset))
    }

    /// Cleans sealed segments, fewest live bytes first, until within
    /// the budget; returns how many live entries were lost. A victim's
    /// survivors are copied forward (verified, in offset order) up to
    /// half its length; those past that are dropped.
    fn clean_to_capacity(&self, inner: &mut Inner) -> u64 {
        let mut lost = 0u64;
        while inner.used > self.capacity {
            // All but the last (active) segment are sealed.
            let sealed = inner.segments.len().saturating_sub(1);
            let victim = (0..sealed).min_by_key(|&at| {
                let segment = &inner.segments[at];
                (segment.live, segment.id)
            });
            let Some(victim) = victim else { break };
            let victim = inner.segments.remove(victim);
            inner.used = inner.used.saturating_sub(victim.len);
            let mut survivors: Vec<(ChunkId, Location)> = inner
                .index
                .iter()
                .filter(|(_, loc)| loc.segment == victim.id)
                .map(|(id, loc)| (*id, *loc))
                .collect();
            survivors.sort_unstable_by_key(|(_, loc)| loc.offset);
            // Rewriting at most half of what the victim frees keeps
            // copied bytes ≤ first-time bytes over any history.
            let mut allowance = victim.len / 2;
            for (id, loc) in survivors {
                inner.index.remove(&id);
                if loc.frame_len() > allowance {
                    lost += 1;
                    continue;
                }
                allowance -= loc.frame_len();
                let frame = self.read_at(&victim.file, loc.offset, loc.frame_len());
                let Some(frame) =
                    frame.filter(|frame| Self::verified(frame, 0, &id, loc).is_some())
                else {
                    self.counters.corrupt_frames.inc();
                    continue;
                };
                let (header, payload) = frame.split_at(HEADER_LEN);
                match self.append_frame(inner, header, payload) {
                    Ok((segment, offset)) => {
                        self.counters.compacted_bytes.add(loc.frame_len());
                        inner.index.insert(
                            id,
                            Location {
                                segment,
                                offset,
                                ..loc
                            },
                        );
                    }
                    Err(_) => lost += 1,
                }
            }
            // Unlink; the handle closes when `victim` drops.
            let _ = std::fs::remove_file(&victim.path);
        }
        lost
    }
}

#[cfg(test)]
impl DiskStore {
    /// Asserts what the cleaner relies on and promises: every segment's
    /// live counter equals the sum recomputed from the index, `used` is
    /// the sum of segment lengths and within the budget, and copied
    /// bytes never exceed first-time bytes.
    fn check_invariants(&self) {
        let inner = self.inner();
        let mut live: HashMap<u64, u64> = HashMap::new();
        for loc in inner.index.values() {
            *live.entry(loc.segment).or_default() += loc.frame_len();
        }
        for segment in &inner.segments {
            let recomputed = live.remove(&segment.id).unwrap_or(0);
            assert_eq!(segment.live, recomputed, "segment {}", segment.id);
            assert!(segment.live <= segment.len, "segment {}", segment.id);
        }
        assert!(live.is_empty(), "index points at cleaned segments");
        let total: u64 = inner.segments.iter().map(|s| s.len).sum();
        assert_eq!(inner.used, total);
        assert!(inner.used <= self.capacity, "over budget: {}", inner.used);
        let (appended, copied) = (
            self.counters().appended_bytes.get(),
            self.counters().compacted_bytes.get(),
        );
        assert!(copied <= appended - copied, "copied {copied} of {appended}");
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.inner().dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use agar_ec::ObjectId;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::path::Path;

    fn chunk(byte: u8, len: usize, version: u64) -> CachedChunk {
        CachedChunk::new(Bytes::from(vec![byte; len]), version)
    }

    fn id(object: u64, index: u8) -> ChunkId {
        ChunkId::new(ObjectId::new(object), index)
    }

    /// A payload whose every byte differs from its neighbours.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    /// XORs `mask` into the byte at `offset` of `path`, through a second
    /// handle as `agar_chaos::corrupt_segments` does.
    fn flip(path: &Path, offset: u64, mask: u8) {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .unwrap();
        let mut byte = [0u8; 1];
        file.read_exact_at(&mut byte, offset).unwrap();
        file.write_all_at(&[byte[0] ^ mask], offset).unwrap();
    }

    fn sum(payload: &[u8]) -> u64 {
        frame_checksum(&id(1, 2), 3, payload)
    }

    #[test]
    fn put_get_roundtrip_with_versions() {
        let store = DiskStore::new(1 << 20).unwrap();
        for i in 0..12u8 {
            let out = store.put(id(7, i), &chunk(i, 256, 5));
            assert!(out.stored);
        }
        assert_eq!(store.len(), 12);
        for i in 0..12u8 {
            let back = store.get(&id(7, i)).unwrap();
            assert_eq!(back.version(), 5);
            assert_eq!(back.data().as_ref(), &vec![i; 256][..]);
        }
        assert_eq!(store.version_of(&id(7, 3)), Some(5));
        assert!(store.get(&id(8, 0)).is_none());
    }

    #[test]
    fn overwrite_serves_newest_version() {
        let store = DiskStore::new(1 << 20).unwrap();
        store.put(id(1, 0), &chunk(0xAA, 100, 1));
        store.put(id(1, 0), &chunk(0xBB, 120, 2));
        let back = store.get(&id(1, 0)).unwrap();
        assert_eq!(back.version(), 2);
        assert_eq!(back.data().len(), 120);
        assert_eq!(store.len(), 1);
        // An older version is refused: nothing stored, nothing written.
        let appended = store.counters().appended_bytes.get();
        let outcome = store.put(id(1, 0), &chunk(0xCC, 80, 1));
        assert_eq!(outcome, DiskPutOutcome::default());
        assert_eq!(store.counters().appended_bytes.get(), appended);
        let back = store.get(&id(1, 0)).unwrap();
        assert_eq!((back.version(), back.data().len()), (2, 120));
        // The same version again replaces it; a removed entry admits any.
        assert!(store.put(id(1, 0), &chunk(0xDD, 90, 2)).stored);
        assert_eq!(store.get(&id(1, 0)).unwrap().data().len(), 90);
        store.remove(&id(1, 0));
        assert!(store.put(id(1, 0), &chunk(0xEE, 70, 1)).stored);
    }

    #[test]
    fn a_fully_live_log_keeps_the_older_half_of_each_victim() {
        // 8 KiB budget, 1 KiB segments of two 545 B frames, every frame
        // live: all segments tie on live bytes, so the oldest is
        // cleaned; half its length is one frame, so its first frame is
        // copied forward and its second is lost.
        const FRAME: u64 = HEADER_LEN as u64 + 512;
        let store = DiskStore::new(8 * 1024).unwrap();
        let mut total_evicted = 0;
        for i in 0..64u64 {
            let out = store.put(id(i, 0), &chunk(i as u8, 512, 1));
            assert!(out.stored);
            total_evicted += out.evicted;
            store.check_invariants();
        }
        assert!(store.used_bytes() <= 8 * 1024);
        assert!(
            total_evicted > 0,
            "a full log of live frames must lose some"
        );
        assert_eq!(
            store.counters().compacted_bytes.get(),
            total_evicted * FRAME
        );
        // The most recent insert is always live.
        assert!(store.contains(&id(63, 0)));
        // Of the first segment the older frame survives, intact.
        assert_eq!(store.get(&id(0, 0)).unwrap().data().as_ref(), [0u8; 512]);
        assert!(!store.contains(&id(1, 0)));
        assert_eq!(store.counters().corrupt_frames.get(), 0);
    }

    #[test]
    fn a_mostly_live_victim_keeps_what_half_its_length_rewrites() {
        // 4 KiB budget, 512 B segments of four 161 B frames. Six full
        // segments, then key 0 dies: segment 0 is three quarters live,
        // the others wholly, so it is the victim when the log overflows.
        const FRAME: u64 = HEADER_LEN as u64 + 128;
        let store = DiskStore::new(4096).unwrap();
        for i in 0..24u64 {
            assert_eq!(store.put(id(i, 0), &chunk(i as u8, 128, 1)).evicted, 0);
        }
        assert!(store.remove(&id(0, 0)));
        assert_eq!(store.put(id(24, 0), &chunk(24, 128, 1)).evicted, 0);
        // Half of 644 B rewrites two frames: 1 and 2 move, 3 is lost.
        let out = store.put(id(25, 0), &chunk(25, 128, 1));
        assert_eq!((out.stored, out.evicted), (true, 1));
        assert_eq!(store.counters().compacted_bytes.get(), 2 * FRAME);
        for (key, kept) in [(1u64, true), (2, true), (3, false), (4, true), (25, true)] {
            assert_eq!(store.contains(&id(key, 0)), kept, "key {key}");
        }
        assert_eq!(store.get(&id(2, 0)).unwrap().data().as_ref(), [2u8; 128]);
        store.check_invariants();
    }

    #[test]
    fn the_byte_budget_is_a_hard_bound() {
        // 128 B segments: the 93 B frame leaves the active segment open,
        // and the 993 B frame appended to it would make a lone segment
        // of 1 086 B that nothing could evict.
        let store = DiskStore::new(1024).unwrap();
        assert!(store.put(id(1, 0), &chunk(1, 60, 1)).stored);
        let out = store.put(id(2, 0), &chunk(2, 960, 1));
        assert!(out.stored);
        assert_eq!(out.evicted, 1, "the small frame made room");
        assert_eq!(store.used_bytes(), 993);
        assert_eq!(store.get(&id(2, 0)).unwrap().data().len(), 960);
        assert!(!store.contains(&id(1, 0)));
        store.check_invariants();
    }

    /// The payload `key` holds at `version`.
    fn payload_of(key: u64, version: u64) -> Vec<u8> {
        let len = 200 + (key % 5) as usize * 50;
        (0..len)
            .map(|i| (i as u64 * 31 + key * 7 + version) as u8)
            .collect()
    }

    const KEYS: u64 = 75;

    /// Overwrite churn over `KEYS` keys holding ≈ 38 % of a 64 KiB
    /// store: key `k` is rewritten every 1, 2, 5 or 16 rounds (by
    /// `k % 4`), so segments keep a minority of long-lived frames among
    /// the dead ones; the round is the version written. Asserts that no
    /// put loses a live frame and returns the newest version of each key.
    fn skewed_churn(store: &DiskStore, rounds: std::ops::Range<u64>) -> Vec<u64> {
        let mut newest = vec![0u64; KEYS as usize];
        for round in rounds {
            for key in (0..KEYS).filter(|key| round % [1, 2, 5, 16][(key % 4) as usize] == 0) {
                let value = CachedChunk::new(Bytes::from(payload_of(key, round)), round);
                let out = store.put(id(key, 0), &value);
                assert!(out.stored);
                assert_eq!(out.evicted, 0, "round {round} key {key} lost a live frame");
                newest[key as usize] = round;
                store.check_invariants();
            }
        }
        newest
    }

    #[test]
    fn a_mostly_dead_log_is_cleaned_without_losing_a_live_frame() {
        const CAPACITY: usize = 64 * 1024;
        let store = DiskStore::new(CAPACITY).unwrap();
        let newest = skewed_churn(&store, 0..48);
        let live: usize = (0..KEYS).map(|k| HEADER_LEN + payload_of(k, 0).len()).sum();
        assert!(live * 5 <= CAPACITY * 2, "live set {live} B is over 40 %");
        let first_time =
            store.counters().appended_bytes.get() - store.counters().compacted_bytes.get();
        assert!(
            first_time >= 5 * CAPACITY as u64,
            "the log wrapped under 5 times: {first_time} B"
        );
        assert!(
            store.counters().compacted_bytes.get() > 0,
            "no survivor was ever copied"
        );
        assert_eq!(store.len(), KEYS as usize);
        for key in 0..KEYS {
            let version = newest[key as usize];
            let back = store.get(&id(key, 0)).expect("a live frame");
            assert_eq!(back.version(), version, "key {key}");
            assert_eq!(back.data().as_ref(), payload_of(key, version), "key {key}");
        }
        assert_eq!(store.counters().corrupt_frames.get(), 0);
    }

    /// `(file name, contents)` of every segment file, oldest first.
    fn segment_files(store: &DiskStore) -> Vec<(std::ffi::OsString, Vec<u8>)> {
        store
            .segment_paths()
            .iter()
            .map(|path| {
                (
                    path.file_name().unwrap().to_owned(),
                    std::fs::read(path).unwrap(),
                )
            })
            .collect()
    }

    #[test]
    fn equal_operation_sequences_leave_byte_equal_logs() {
        let run = || {
            let store = DiskStore::new(64 * 1024).unwrap();
            skewed_churn(&store, 0..24);
            for key in store.keys() {
                if key.object().index() % 7 == 0 {
                    store.remove(&key);
                }
            }
            store.remove(&id(1, 0));
            skewed_churn(&store, 24..29);
            store
        };
        let (one, two) = (run(), run());
        assert!(
            one.counters().compacted_bytes.get() > 0,
            "the cleaner never copied"
        );
        assert_eq!(one.keys(), two.keys());
        assert_eq!(one.used_bytes(), two.used_bytes());
        assert_eq!(
            one.counters().appended_bytes.get(),
            two.counters().appended_bytes.get()
        );
        assert_eq!(
            one.counters().compacted_bytes.get(),
            two.counters().compacted_bytes.get()
        );
        assert_eq!(segment_files(&one), segment_files(&two));
    }

    #[test]
    fn a_corrupt_survivor_is_dropped_and_its_neighbours_are_copied() {
        // 1 KiB segments. Segment 0: three 133 B keepers between two
        // 333 B versions of a churn key — 399 live of 1 065 B once the
        // churn key is rewritten into segment 1.
        let store = DiskStore::new(8 * 1024).unwrap();
        let keeper = |n: u64| chunk(0xA0 + n as u8, 100, n);
        let churn = id(9, 9);
        for n in 0..3u64 {
            store.put(id(n, 0), &keeper(n));
            if n < 2 {
                store.put(churn, &chunk(0xC0, 300, n));
            }
        }
        store.put(churn, &chunk(0xC0, 300, 2));
        let sealed = store.segment_paths();
        assert_eq!(sealed.len(), 2);
        // One byte of the middle keeper's payload, through a second
        // handle as `agar_chaos::corrupt_segments` does.
        flip(&sealed[0], 133 + 333 + HEADER_LEN as u64 + 10, 0x40);
        // Fill the log with distinct live frames: every other sealed
        // segment is fully live, so segment 0 is the first one cleaned.
        let mut filler = 100u64;
        while store.segment_paths().contains(&sealed[0]) {
            let out = store.put(id(filler, 0), &chunk(filler as u8, 300, 1));
            assert!(out.stored);
            assert_eq!(out.evicted, 0);
            filler += 1;
            store.check_invariants();
        }
        assert_eq!(
            store.counters().corrupt_frames.get(),
            1,
            "the flipped frame was counted"
        );
        assert_eq!(
            store.counters().compacted_bytes.get(),
            2 * 133,
            "and was not copied"
        );
        assert!(!store.contains(&id(1, 0)));
        assert!(store.get(&id(1, 0)).is_none());
        assert_eq!(
            store.counters().corrupt_frames.get(),
            1,
            "a clean miss afterwards"
        );
        for n in [0, 2] {
            let back = store.get(&id(n, 0)).expect("a copied neighbour");
            assert_eq!(back, keeper(n));
        }
        for key in 100..filler {
            assert!(store.contains(&id(key, 0)), "filler {key}");
        }
    }

    #[test]
    fn copied_bytes_never_exceed_first_time_bytes() {
        // Twenty-four long-lived keys, one rewritten every 29th put,
        // among a stream of short-lived ones hold ≈ 75 % of the store
        // live: victims sit on both sides of the half-live line, so
        // some are copied and some dropped whole.
        let store = DiskStore::new(16 * 1024).unwrap();
        let (mut copied_victims, mut lost) = (0u64, 0u64);
        for step in 0..3_000u64 {
            let key = if step % 29 == 0 {
                step / 29 % 24
            } else {
                100 + step % 23
            };
            let len = 100 + (step % 7) as usize * 60;
            let before = store.counters().compacted_bytes.get();
            lost += store.put(id(key, 0), &chunk(step as u8, len, step)).evicted;
            copied_victims += u64::from(store.counters().compacted_bytes.get() > before);
            // Checks the bound after every put, not only at the end.
            store.check_invariants();
        }
        assert!(copied_victims > 100, "{copied_victims} victims copied");
        assert!(lost > 0, "no victim was over half live");
        let first_time =
            store.counters().appended_bytes.get() - store.counters().compacted_bytes.get();
        assert!(first_time > 50 * 16 * 1024, "the log barely wrapped");
    }

    #[test]
    fn oversized_entry_is_rejected_not_stored() {
        let store = DiskStore::new(1024).unwrap();
        let out = store.put(id(1, 0), &chunk(1, 4096, 1));
        assert!(!out.stored);
        assert!(store.is_empty());
    }

    #[test]
    fn truncated_frame_is_a_miss_not_a_panic() {
        let store = DiskStore::new(1 << 20).unwrap();
        store.put(id(1, 0), &chunk(0xCC, 300, 1));
        // Tear the frame: cut the active segment mid-payload.
        let paths = store.segment_paths();
        let active = paths.last().unwrap();
        let len = std::fs::metadata(active).unwrap().len();
        let file = OpenOptions::new().write(true).open(active).unwrap();
        file.set_len(len - 100).unwrap();
        assert!(store.get(&id(1, 0)).is_none());
        // The index entry is purged: a later lookup stays a clean miss.
        assert!(!store.contains(&id(1, 0)));
        assert_eq!(store.counters().corrupt_frames.get(), 1);
        // The clean miss that followed the purge is not corruption.
        assert!(store.get(&id(1, 0)).is_none());
        assert_eq!(store.counters().corrupt_frames.get(), 1);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let store = DiskStore::new(1 << 20).unwrap();
        store.put(id(1, 0), &chunk(0xDD, 300, 1));
        let paths = store.segment_paths();
        let active = paths.last().unwrap();
        // Flip a byte inside the payload (past the 33-byte header).
        flip(active, 50, 0xFF);
        assert!(store.get(&id(1, 0)).is_none());
        assert!(!store.contains(&id(1, 0)));
        assert_eq!(store.counters().corrupt_frames.get(), 1);
    }

    #[test]
    fn a_frame_lands_where_the_index_says_after_a_torn_tail() {
        let store = DiskStore::new(1 << 20).unwrap();
        store.put(id(1, 0), &chunk(0xAA, 300, 1));
        let active = store.segment_paths().pop().unwrap();
        let len = std::fs::metadata(&active).unwrap().len();
        let file = OpenOptions::new().write(true).open(&active).unwrap();
        file.set_len(len - 100).unwrap();
        // The next put must be readable: its frame is written at the
        // tracked offset, not at the (now shorter) end of file.
        assert!(store.put(id(2, 0), &chunk(0xBB, 300, 1)).stored);
        let back = store.get(&id(2, 0)).expect("frame after a torn tail");
        assert_eq!(back.data().as_ref(), &[0xBB; 300][..]);
        assert_eq!(store.counters().corrupt_frames.get(), 0);
        // Only the torn frame is corrupt, and only once it is read.
        assert!(store.get(&id(1, 0)).is_none());
        assert_eq!(store.counters().corrupt_frames.get(), 1);
        assert!(store.get(&id(2, 0)).is_some());
    }

    /// 32-byte block + one whole word + 5 tail bytes: every part of the
    /// checksum's input is on disk.
    const SMALL: usize = 45;

    #[test]
    fn every_single_byte_corruption_is_a_counted_miss() {
        let frame_len = (HEADER_LEN + SMALL) as u64;
        let masks = [0xFFu8, 0x01, 0x80];
        let cases = frame_len * masks.len() as u64;
        let store = DiskStore::new(1 << 20).unwrap();
        let payload = CachedChunk::new(Bytes::from(patterned(SMALL)), 9);
        // One frame per (byte offset, mask) case, plus a control frame
        // on either side, all in the one active segment.
        for case in 0..cases + 2 {
            assert!(store.put(id(case, 4), &payload).stored);
        }
        let paths = store.segment_paths();
        assert_eq!(paths.len(), 1);
        for case in 0..cases {
            let (offset, mask) = (case / 3, masks[(case % 3) as usize]);
            flip(&paths[0], (case + 1) * frame_len + offset, mask);
        }
        for case in 0..cases {
            let key = id(case + 1, 4);
            assert!(store.get(&key).is_none(), "case {case} returned bytes");
            assert_eq!(
                store.counters().corrupt_frames.get(),
                case + 1,
                "case {case}"
            );
            assert!(!store.contains(&key), "case {case} not purged");
            // The follow-up lookup is a clean miss, not more corruption.
            assert!(store.get(&key).is_none());
            assert_eq!(store.counters().corrupt_frames.get(), case + 1);
        }
        for control in [0, cases + 1] {
            let back = store.get(&id(control, 4)).expect("control frame");
            assert_eq!(back.data(), payload.data());
        }
        assert_eq!(store.counters().corrupt_frames.get(), cases);
    }

    #[test]
    fn every_truncation_point_of_the_last_frame_is_a_counted_miss() {
        let frame_len = (HEADER_LEN + SMALL) as u64;
        for kept in 0..frame_len {
            let store = DiskStore::new(1 << 20).unwrap();
            for object in 0..3u64 {
                let payload = vec![object as u8 + 1; SMALL];
                store.put(id(object, 0), &CachedChunk::new(Bytes::from(payload), 2));
            }
            let tail = store.segment_paths().pop().unwrap();
            let file = OpenOptions::new().write(true).open(&tail).unwrap();
            file.set_len(2 * frame_len + kept).unwrap();
            assert!(store.get(&id(2, 0)).is_none(), "{kept} bytes kept");
            assert_eq!(
                store.counters().corrupt_frames.get(),
                1,
                "{kept} bytes kept"
            );
            assert!(!store.contains(&id(2, 0)));
            for object in 0..2u64 {
                let back = store.get(&id(object, 0)).expect("earlier frame");
                assert_eq!(back.data().as_ref(), &[object as u8 + 1; SMALL][..]);
            }
            assert_eq!(store.counters().corrupt_frames.get(), 1);
        }
    }

    #[test]
    fn empty_payload_roundtrips() {
        let store = DiskStore::new(1 << 10).unwrap();
        assert!(store.put(id(1, 0), &chunk(0, 0, 7)).stored);
        let back = store.get(&id(1, 0)).unwrap();
        assert_eq!((back.data().len(), back.version()), (0, 7));
        assert_ne!(sum(&[]), sum(&[0]));
    }

    #[test]
    fn checksum_covers_length_and_header_fields() {
        let payload = patterned(SMALL);
        // A trailing zero byte extends the tail word with a zero: only
        // the length tells the two apart.
        let mut longer = payload.clone();
        longer.push(0);
        assert_ne!(sum(&payload), sum(&longer));
        let base = frame_checksum(&id(1, 2), 3, &payload);
        assert_ne!(base, frame_checksum(&id(9, 2), 3, &payload));
        assert_ne!(base, frame_checksum(&id(1, 5), 3, &payload));
        assert_ne!(base, frame_checksum(&id(1, 2), 4, &payload));
    }

    #[test]
    fn checksum_sees_every_lane_and_the_tail() {
        // Three blocks, two whole words, three tail bytes.
        let base = patterned(96 + 16 + 3);
        // Word 4·b + l is lane l's b-th word; 12 and 13 come after the
        // last whole block; bytes 112.. are the tail.
        for word in [0usize, 5, 10, 7, 12, 13] {
            let mut other = base.clone();
            other[word * 8 + 3] ^= 0x10;
            assert_ne!(sum(&base), sum(&other), "word {word}");
        }
        let mut other = base.clone();
        other[114] ^= 0x10;
        assert_ne!(sum(&base), sum(&other), "tail");
    }

    #[test]
    fn checksum_sees_word_order() {
        let base = patterned(96);
        let swapped = |a: usize, b: usize| {
            let mut other = base.clone();
            for i in 0..8 {
                other.swap(a * 8 + i, b * 8 + i);
            }
            sum(&other)
        };
        // Across lanes (words 0 and 1), within a lane (words 1 and 5).
        assert_ne!(sum(&base), swapped(0, 1));
        assert_ne!(sum(&base), swapped(1, 5));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The doc comment's claim: a change confined to one 8-byte
        /// word (or to the tail) always changes the checksum.
        #[test]
        fn any_single_word_change_changes_the_checksum(
            payload in vec(any::<u8>(), 1..400),
            word in any::<usize>(),
            delta in 1u64..=u64::MAX,
        ) {
            let start = word % payload.len().div_ceil(8) * 8;
            let end = (start + 8).min(payload.len());
            let mut changed = payload.clone();
            for (byte, d) in changed[start..end].iter_mut().zip(delta.to_le_bytes()) {
                *byte ^= d;
            }
            // A short tail may have met only the delta's zero bytes.
            if changed == payload {
                changed[start] ^= 1;
            }
            prop_assert_ne!(sum(&payload), sum(&changed));
        }

        /// Every mutating entry point with mixed sizes (one larger than
        /// the store) and versions against a `HashMap` oracle: a put
        /// older than the live entry is refused, a hit is the newest
        /// version's exact bytes, an entry vanishes only
        /// through a remove or a reported `evicted` (nothing here
        /// corrupts a frame), and the budget, the live counters and the
        /// amplification bound hold after every operation.
        #[test]
        fn model_cleaning_loses_only_what_it_reports(
            ops in vec((0u8..8, 0u64..4, 0u8..3, 1u64..4, 0usize..6), 1..160),
        ) {
            const CAPACITY: usize = 4096;
            const LENS: [usize; 6] = [0, 40, 120, 300, 700, 5_000];
            let store = DiskStore::new(CAPACITY).unwrap();
            let mut model: HashMap<ChunkId, (u64, Vec<u8>)> = HashMap::new();
            for (step, (op, object, index, version, len)) in ops.into_iter().enumerate() {
                let key = id(object, index);
                match op {
                    0..=4 => {
                        let bytes = vec![step as u8; LENS[len]];
                        let value = CachedChunk::new(Bytes::from(bytes.clone()), version);
                        let out = store.put(key, &value);
                        let newer_live = model.get(&key).is_some_and(|(live, _)| *live > version);
                        let admitted = HEADER_LEN + LENS[len] <= CAPACITY && !newer_live;
                        if admitted {
                            model.insert(key, (version, bytes));
                        } else {
                            prop_assert_eq!(out, DiskPutOutcome::default());
                        }
                        let before = model.len();
                        model.retain(|key, _| store.contains(key));
                        prop_assert_eq!((before - model.len()) as u64, out.evicted);
                        prop_assert_eq!(out.stored, admitted && model.contains_key(&key));
                    }
                    5 => {
                        prop_assert_eq!(store.remove(&key), model.remove(&key).is_some());
                    }
                    6 => {
                        // An object's invalidation: each of its ids.
                        for index in 0..3 {
                            let key = id(object, index);
                            prop_assert_eq!(store.remove(&key), model.remove(&key).is_some());
                        }
                    }
                    _ => {
                        let found = store.get(&key);
                        prop_assert_eq!(
                            found.as_ref().map(|c| (c.version(), c.data().as_ref())),
                            model.get(&key).map(|(v, b)| (*v, b.as_slice()))
                        );
                    }
                }
                let mut expected: Vec<ChunkId> = model.keys().copied().collect();
                expected.sort_unstable();
                prop_assert_eq!(store.keys(), expected);
                prop_assert!(store.used_bytes() <= store.capacity_bytes());
                store.check_invariants();
            }
            prop_assert_eq!(store.counters().corrupt_frames.get(), 0);
        }
    }

    /// `get_many` over `ids` at `version`: the hits as `(id, version,
    /// payload)`, sorted by id, and the positioned reads it issued.
    fn many(
        store: &DiskStore,
        ids: &[ChunkId],
        version: u64,
    ) -> (Vec<(ChunkId, u64, Vec<u8>)>, u64) {
        let calls = store.counters().read_calls.get();
        let mut hits = Vec::new();
        store.get_many(ids.iter().copied(), version, |id, chunk| {
            hits.push((id, chunk.version(), chunk.data().to_vec()));
        });
        hits.sort_unstable();
        (hits, store.counters().read_calls.get() - calls)
    }

    /// One object's chunks `0..count` (4 + `i` bytes each), put back to
    /// back into a 1 MiB store's one segment.
    fn one_run(count: u8) -> (DiskStore, Vec<ChunkId>) {
        let store = DiskStore::new(1 << 20).unwrap();
        let ids: Vec<ChunkId> = (0..count).map(|i| id(1, i)).collect();
        for (i, key) in ids.iter().enumerate() {
            store.put(*key, &chunk(i as u8 + 1, 4 + i, 2));
        }
        (store, ids)
    }

    #[test]
    fn a_run_of_back_to_back_frames_is_one_read() {
        let (store, ids) = one_run(9);
        let (hits, calls) = many(&store, &ids, 2);
        assert_eq!(calls, 1);
        assert_eq!(hits.len(), 9);
        for (i, (key, version, payload)) in hits.into_iter().enumerate() {
            assert_eq!((key, version), (ids[i], 2));
            assert_eq!(payload, vec![i as u8 + 1; 4 + i]);
        }
        // Misses, unknown ids and an empty list read nothing more.
        let (hits, calls) = many(&store, &[id(2, 0), id(1, 20)], 2);
        assert_eq!((hits.len(), calls), (0, 0));
        assert_eq!(many(&store, &[], 2).1, 0);
        // A `get` is one read too.
        assert!(store.get(&ids[3]).is_some());
        assert_eq!(store.counters().read_calls.get(), 2);
        assert_eq!(store.counters().corrupt_frames.get(), 0);
    }

    #[test]
    fn a_lookup_reads_only_its_version_and_forgets_older_frames_unread() {
        // Back to back: chunk 0 at version 1, 1 at 2, 2 at 3, 3 at 2.
        let store = DiskStore::new(1 << 20).unwrap();
        for (index, version) in [(0, 1), (1, 2), (2, 3), (3, 2)] {
            store.put(id(1, index), &chunk(index + 1, 8, version));
        }
        let ids: Vec<ChunkId> = (0..5).map(|i| id(1, i)).collect();
        let (hits, calls) = many(&store, &ids, 2);
        let served: Vec<(ChunkId, u64)> = hits.iter().map(|hit| (hit.0, hit.1)).collect();
        assert_eq!(served, [(id(1, 1), 2), (id(1, 3), 2)]);
        assert_eq!(calls, 2, "one read per served frame; 2 splits the run");
        assert!(!store.contains(&id(1, 0)), "the older frame is forgotten");
        assert_eq!(store.version_of(&id(1, 2)), Some(3), "the newer one stays");
        // Nothing left to serve at 2 but the two frames: no more reads
        // for the skipped one.
        assert_eq!(many(&store, &ids, 2).1, 2);
        assert_eq!(many(&store, &[id(1, 2)], 2), (Vec::new(), 0));
        assert_eq!(store.counters().corrupt_frames.get(), 0);
    }

    #[test]
    fn a_corrupt_middle_frame_of_a_run_is_a_counted_miss_and_its_neighbours_are_served() {
        let (store, ids) = one_run(3);
        // The middle frame's payload: frame 0 is `HEADER_LEN + 4` long.
        let path = store.segment_paths().pop().unwrap();
        flip(&path, (HEADER_LEN + 4 + HEADER_LEN + 1) as u64, 0x08);
        let (hits, calls) = many(&store, &ids, 2);
        assert_eq!(calls, 1, "one read for the run, bad frame and all");
        let served: Vec<ChunkId> = hits.iter().map(|hit| hit.0).collect();
        assert_eq!(served, [ids[0], ids[2]]);
        assert_eq!(hits[1].2, vec![3u8; 6]);
        assert_eq!(store.counters().corrupt_frames.get(), 1);
        assert!(!store.contains(&ids[1]), "the bad frame is forgotten");
        // The next lookup is a clean miss for it, a run of one for
        // each neighbour.
        let (hits, calls) = many(&store, &ids, 2);
        assert_eq!(
            (hits.len(), calls, store.counters().corrupt_frames.get()),
            (2, 2, 1)
        );
    }

    #[test]
    fn a_truncation_inside_a_run_serves_the_frames_before_the_cut() {
        const COUNT: u8 = 4;
        let frame = |i: usize| (HEADER_LEN + 4 + i) as u64;
        let start = |j: usize| (0..j).map(frame).sum::<u64>();
        for cut in 0..COUNT as usize {
            for into in [0, 1, HEADER_LEN as u64, frame(cut) - 1] {
                let (store, ids) = one_run(COUNT);
                let path = store.segment_paths().pop().unwrap();
                let file = OpenOptions::new().write(true).open(&path).unwrap();
                file.set_len(start(cut) + into).unwrap();
                let (hits, calls) = many(&store, &ids, 2);
                let served: Vec<ChunkId> = hits.iter().map(|hit| hit.0).collect();
                assert_eq!(served, ids[..cut], "cut in frame {cut} at +{into}");
                // The short run read, then one read per frame.
                assert_eq!(calls, 1 + u64::from(COUNT));
                let lost = u64::from(COUNT) - cut as u64;
                assert_eq!(store.counters().corrupt_frames.get(), lost);
                assert_eq!(store.len(), cut);
            }
        }
    }

    #[test]
    fn runs_split_by_rotation_or_by_other_objects_frames_each_get_their_own_read() {
        // 8 KiB budget, 1 KiB segments of four 300 B frames: object 1's
        // chunks 0..4 fill segment 0, 4..6 start segment 1, then
        // object 2's frame sits between 5 and 6.
        let store = DiskStore::new(8 * 1024).unwrap();
        let payload = |i: u8| chunk(i, 300 - HEADER_LEN, 1);
        for i in 0..6 {
            store.put(id(1, i), &payload(i));
        }
        store.put(id(2, 0), &payload(99));
        store.put(id(1, 6), &payload(6));
        assert_eq!(store.segment_paths().len(), 2);
        let ids: Vec<ChunkId> = (0..7).rev().map(|i| id(1, i)).collect();
        let (hits, calls) = many(&store, &ids, 1);
        assert_eq!(hits.len(), 7);
        assert_eq!(calls, 3, "0..4 | 4..6 | 6");
        for (i, (key, _, bytes)) in hits.iter().enumerate() {
            assert_eq!(*key, id(1, i as u8));
            assert_eq!(bytes, &vec![i as u8; 300 - HEADER_LEN]);
        }
        // A removed frame in the middle of a run splits it too.
        store.remove(&id(1, 2));
        assert_eq!(many(&store, &ids, 1).1, 4, "0..2 | 3 | 4..6 | 6");
        assert_eq!(store.counters().corrupt_frames.get(), 0);
    }

    /// One step of [`driven`]: `(op, object, index, version, len, at)`.
    type Op = (u8, u64, u8, u64, usize, u16);

    /// A store driven by `ops` (put, remove, a flipped byte, a torn
    /// tail), cleaned by its byte budget. Equal ops leave equal stores.
    fn driven(ops: &[Op]) -> DiskStore {
        const LENS: [usize; 4] = [0, 40, 120, 300];
        let store = DiskStore::new(4096).unwrap();
        for (step, &(op, object, index, version, len, at)) in ops.iter().enumerate() {
            let key = id(object, index);
            let paths = store.segment_paths();
            match op {
                0..=5 => {
                    store.put(key, &chunk(step as u8, LENS[len], version));
                }
                6 => {
                    store.remove(&key);
                }
                _ if paths.is_empty() => {}
                7 => {
                    let path = &paths[usize::from(at) % paths.len()];
                    let file_len = std::fs::metadata(path).unwrap().len();
                    if file_len > 0 {
                        flip(path, u64::from(at) * 7 % file_len, 0x20);
                    }
                }
                _ => {
                    let file = OpenOptions::new()
                        .write(true)
                        .open(&paths[paths.len() - 1])
                        .unwrap();
                    let file_len = file.metadata().unwrap().len();
                    file.set_len(file_len.saturating_sub(u64::from(at) % 400))
                        .unwrap();
                }
            }
        }
        store
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `get_many` at a version is, per id, a `version_of`, then a
        /// `get` of a chunk at that version or a `remove` of an older
        /// one: over random puts, removes, cleans, byte flips and torn
        /// tails, and lookups of each object at versions 1, 2 and 3,
        /// two equal stores serve the same hits, count the same corrupt
        /// frames and keep the same keys whether each object is read at
        /// once or id by id.
        #[test]
        fn get_many_matches_a_get_per_id(
            ops in vec((0u8..9, 0u64..3, 0u8..4, 1u64..4, 0usize..4, any::<u16>()), 1..60),
        ) {
            let (batched, single) = (driven(&ops), driven(&ops));
            prop_assert_eq!(segment_files(&batched), segment_files(&single));
            for object in 0..3 {
                for version in 1..4 {
                    let ids: Vec<ChunkId> = (0..4).map(|index| id(object, index)).collect();
                    let (hits, _) = many(&batched, &ids, version);
                    let mut expected: Vec<(ChunkId, u64, Vec<u8>)> = ids
                        .iter()
                        .filter_map(|key| {
                            let resident = single.version_of(key)?;
                            if resident < version {
                                single.remove(key);
                            }
                            if resident != version {
                                return None;
                            }
                            let chunk = single.get(key)?;
                            Some((*key, chunk.version(), chunk.data().to_vec()))
                        })
                        .collect();
                    expected.sort_unstable();
                    prop_assert_eq!(hits, expected);
                    prop_assert_eq!(batched.counters().corrupt_frames.get(), single.counters().corrupt_frames.get());
                    prop_assert_eq!(batched.keys(), single.keys());
                }
            }
            batched.check_invariants();
        }
    }

    #[test]
    fn a_poisoned_mutex_neither_wedges_the_store_nor_leaks_its_directory() {
        let store = DiskStore::new(1 << 20).unwrap();
        store.put(id(1, 0), &chunk(1, 64, 1));
        let dir = store.segment_paths()[0].parent().unwrap().to_path_buf();
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = store.inner();
                panic!("poison the store mutex");
            });
            assert!(holder.join().is_err());
        });
        assert!(store.inner.is_poisoned());
        assert!(store.get(&id(1, 0)).is_some());
        assert!(store.put(id(2, 0), &chunk(2, 64, 1)).stored);
        drop(store);
        assert!(!dir.exists());
    }

    /// Open descriptors of this process that point into `dir`
    /// (unlinked-but-open files included: their link reads
    /// `<path> (deleted)`).
    #[cfg(target_os = "linux")]
    fn open_handles_under(dir: &Path) -> usize {
        std::fs::read_dir("/proc/self/fd")
            .unwrap()
            .filter_map(|entry| std::fs::read_link(entry.ok()?.path()).ok())
            .filter(|target| target.starts_with(dir))
            .count()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn rotation_and_eviction_leak_neither_handles_nor_files() {
        let store = DiskStore::new(64 * 1024).unwrap();
        let dir = store.inner().dir.clone();
        let mut evicted = 0;
        for i in 0..10_000u64 {
            evicted += store.put(id(i, 0), &chunk(i as u8, 1000, 1)).evicted;
        }
        assert!(evicted > 9_000, "the log must have wrapped many times");
        let mut live = store.segment_paths();
        assert!(live.len() <= 9);
        // One handle per live segment, none for evicted ones.
        assert_eq!(open_handles_under(&dir), live.len());
        let mut on_disk: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .collect();
        on_disk.sort();
        live.sort();
        assert_eq!(on_disk, live, "stray segment files");
        drop(store);
        assert_eq!(open_handles_under(&dir), 0);
    }

    #[test]
    fn directory_is_removed_on_drop() {
        let store = DiskStore::new(1 << 20).unwrap();
        store.put(id(1, 0), &chunk(1, 64, 1));
        let dir = store.segment_paths()[0].parent().unwrap().to_path_buf();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists());
    }
}
