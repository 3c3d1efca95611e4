//! The per-key write-history oracle: what a read of a key must return,
//! given every write to it that has completed.
//!
//! Each write's payload is one fill byte repeated, the byte derived from
//! how many writes of the key completed before it (`1..=250`, skipping 0
//! so leaked codec zero padding never passes for a payload). The oracle
//! files each completed write under the version the backend gave it.
//! Version 1 is the catalogue's pristine populate pattern.
//!
//! The oracle is exact only for single-threaded callers, where every
//! operation runs to completion before the next starts: a read must then
//! return exactly [`WriteHistory::newest`]. The `mixed` experiment and
//! `tests/write_schedules.rs` are such callers. Fill bytes recycle after
//! 250 writes to one key; [`WriteHistory::classify`] takes the newest
//! matching write, so recycling can only make the check lenient (an old
//! payload of the same length and fill reads as the newer write), never
//! report a fresh read as stale.

use agar_store::expected_payload;

/// Completed writes per key (see the module docs).
#[derive(Clone, Debug)]
pub struct WriteHistory {
    /// `(version, fill, size)` of every completed write, oldest first.
    keys: Vec<Vec<(u64, u8, usize)>>,
    /// Size of the pristine populate payload.
    pristine_size: usize,
}

impl WriteHistory {
    /// An empty history over keys `0..objects`, whose pristine payloads
    /// are `pristine_size` bytes of [`expected_payload`].
    pub fn new(objects: u64, pristine_size: usize) -> Self {
        WriteHistory {
            keys: vec![Vec::new(); objects as usize],
            pristine_size,
        }
    }

    /// The payload of the next write to `key`: `size` copies of a fill
    /// byte in `1..=250`.
    pub fn next_payload(&self, key: u64, size: usize) -> Vec<u8> {
        let fill = (self.keys[key as usize].len() % 250) as u8 + 1;
        vec![fill; size]
    }

    /// Files a completed write of `payload` (from
    /// [`WriteHistory::next_payload`]) under the version the backend
    /// gave it.
    pub fn complete(&mut self, key: u64, payload: &[u8], version: u64) {
        self.keys[key as usize].push((version, payload[0], payload.len()));
    }

    /// The version of the newest completed write of `key`; 1 when no
    /// write completed.
    pub fn newest(&self, key: u64) -> u64 {
        self.keys[key as usize]
            .last()
            .map_or(1, |&(version, ..)| version)
    }

    /// The newest completed version whose payload is exactly `data`
    /// (fill and length), else 1 for the pristine payload, else `None`:
    /// bytes no write produced, such as a mixed-version decode, a torn
    /// length or leaked padding.
    pub fn classify(&self, key: u64, data: &[u8]) -> Option<u64> {
        let written = self.keys[key as usize].iter().rev();
        let as_write = written
            .filter(|&&(_, fill, size)| size == data.len() && data.iter().all(|&b| b == fill))
            .map(|&(version, ..)| version)
            .next();
        as_write
            .or_else(|| (data == expected_payload(key, self.pristine_size).as_slice()).then_some(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pristine_is_version_one_and_anything_unwritten_is_none() {
        let mut history = WriteHistory::new(2, 16);
        assert_eq!(history.newest(0), 1);
        assert_eq!(history.classify(0, &expected_payload(0, 16)), Some(1));
        // Another key's pattern, or the right one at the wrong length.
        assert_eq!(history.classify(0, &expected_payload(1, 16)), None);
        assert_eq!(history.classify(0, &expected_payload(0, 12)), None);
        // A constant fill nothing wrote.
        assert_eq!(history.classify(0, &[7u8; 16]), None);

        let payload = history.next_payload(0, 16);
        assert_ne!(payload[0], 0, "fill 0 would mimic codec zero padding");
        history.complete(0, &payload, 2);
        assert_eq!(history.newest(0), 2);
        assert_eq!(history.newest(1), 1);
        assert_eq!(history.classify(0, &payload), Some(2));
        // The right fill at the wrong length is torn, not a match.
        assert_eq!(history.classify(0, &payload[..12]), None);
        // Mixed bytes decode to nothing that was ever written.
        let mut mixed = payload.clone();
        mixed[3] = payload[0].wrapping_add(1);
        assert_eq!(history.classify(0, &mixed), None);
        // The pristine payload is still version 1: older than newest.
        assert_eq!(history.classify(0, &expected_payload(0, 16)), Some(1));
    }

    #[test]
    fn each_fill_and_length_is_its_own_version() {
        let mut history = WriteHistory::new(1, 16);
        // Writes of two sizes: each (fill, length) is its own version.
        let small = history.next_payload(0, 8);
        history.complete(0, &small, 2);
        let large = history.next_payload(0, 16);
        history.complete(0, &large, 3);
        assert_ne!(small[0], large[0]);
        assert_eq!(history.classify(0, &small), Some(2));
        assert_eq!(history.classify(0, &large), Some(3));
        assert_eq!(history.newest(0), 3);
    }

    /// Past 250 writes of one key the fill bytes recycle. For each count
    /// of earlier writes, the payload just written classifies as the
    /// newest version, never as the older write that used its byte.
    #[test]
    fn recycled_fills_never_read_as_stale() {
        for writes in [1u64, 249, 250, 251, 300, 501] {
            let mut history = WriteHistory::new(1, 16);
            for version in 2..=writes + 1 {
                let payload = history.next_payload(0, 16);
                history.complete(0, &payload, version);
                assert_eq!(history.classify(0, &payload), Some(version), "{writes}");
            }
            assert_eq!(history.newest(0), writes + 1);
        }
        // The byte of the first write comes back at the 251st.
        let mut history = WriteHistory::new(1, 16);
        let first = history.next_payload(0, 16);
        for version in 2..=251 {
            let payload = history.next_payload(0, 16);
            history.complete(0, &payload, version);
        }
        assert_eq!(history.next_payload(0, 16), first);
    }
}
