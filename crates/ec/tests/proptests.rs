//! Property-based tests for the erasure-coding substrate: the slice
//! kernel against the field and the naive reference, every erasure
//! pattern of two codes, the MDS reconstruction invariant, and
//! equivalence of the decode fast paths. The field laws themselves live beside the crate-private
//! `inverse`/`pow` in `gf256`'s unit tests.

use agar_ec::gf256::{self, mul, mul_add_slice};
use agar_ec::{CodingParams, ReedSolomon};
use bytes::Bytes;
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #[test]
    fn mul_add_slice_matches_elementwise(
        src in vec(any::<u8>(), 1..64),
        c in any::<u8>(),
    ) {
        let init = vec![0xA5u8; src.len()];
        let mut dst = init.clone();
        mul_add_slice(&mut dst, &src, c);
        for ((d, s), i) in dst.iter().zip(&src).zip(&init) {
            prop_assert_eq!(*d, *i ^ mul(*s, c));
        }
    }

    // The split-nibble kernel against the retained naive log/exp
    // reference, over arbitrary lengths and the empty slice (0..); the
    // SIMD tiers of the codec's dot kernel are held to the same
    // reference in `gf256`'s unit tests and, through the codec, by the
    // erasure-pattern tests below.
    #[test]
    fn mul_add_slice_matches_naive_reference(
        pair in vec((any::<u8>(), any::<u8>()), 0..500),
        c in any::<u8>(),
    ) {
        let src: Vec<u8> = pair.iter().map(|&(s, _)| s).collect();
        let init: Vec<u8> = pair.iter().map(|&(_, d)| d).collect();
        let mut fast = init.clone();
        let mut reference = init;
        mul_add_slice(&mut fast, &src, c);
        gf256::naive::mul_add_slice(&mut reference, &src, c);
        prop_assert_eq!(fast, reference);
    }
}

/// Every way to keep exactly `k` of an object's `k + m` shards, for
/// RS(9, 3) (220 patterns) and RS(4, 2) (15): each decodes bit-exact,
/// at a single-block shard length and at a multi-block one (past the
/// decode's 16 KiB single-block limit, so eight 2 KiB column blocks and
/// a 5-byte one) whose last data shard is clipped by the object's end.
/// The second decode of each degraded pattern is a plan-cache hit.
/// Under Miri, a handful of patterns at the small size.
#[test]
fn every_erasure_pattern_decodes_bit_exact() {
    for (k, m, all_patterns) in [(9, 3, 220), (4, 2, 15)] {
        let params = CodingParams::new(k, m).unwrap();
        let total = params.total_chunks();
        let sizes: &[usize] = if cfg!(miri) {
            &[k * 100 - 1]
        } else {
            &[k * 100 - 1, k * (16 * 1024 + 5) - 3]
        };
        for &size in sizes {
            let rs = ReedSolomon::new(params).unwrap();
            let object: Vec<u8> = (0..size).map(|i| (i * 131 % 251) as u8).collect();
            let full = rs.encode_object(&object).unwrap();
            let masks = (0u32..1 << total).filter(|mask| mask.count_ones() as usize == k);
            let mut patterns = 0;
            for mask in masks.step_by(if cfg!(miri) { 47 } else { 1 }) {
                patterns += 1;
                let shards: Vec<Option<Bytes>> = (0..total)
                    .map(|i| (mask & (1 << i) != 0).then(|| full[i].clone()))
                    .collect();
                let case = format!("{params}, {size} bytes, mask {mask:#b}");
                let (cold, cold_report) = rs.reconstruct_object_report(&shards, size).unwrap();
                assert_eq!(cold.as_ref(), object.as_slice(), "{case}");
                assert!(!cold_report.plan_cache_hit, "{case}");
                let (warm, warm_report) = rs.reconstruct_object_report(&shards, size).unwrap();
                assert_eq!(warm.as_ref(), object.as_slice(), "{case}");
                assert_eq!(
                    warm_report.plan_cache_hit, !warm_report.systematic_fast_path,
                    "{case}"
                );
            }
            if !cfg!(miri) {
                assert_eq!(patterns, all_patterns, "{params}");
            }
        }
    }
}

/// Strategy producing (k, m, shard_len, missing-set) with k+m <= 12.
fn code_scenario() -> impl Strategy<Value = (usize, usize, usize, Vec<usize>)> {
    (1usize..=8, 1usize..=4, 1usize..=48).prop_flat_map(|(k, m, len)| {
        let total = k + m;
        // Pick up to m shards to erase.
        vec(0usize..total, 0..=m).prop_map(move |missing| (k, m, len, missing))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn mds_any_m_erasures_recoverable(
        (k, m, len, missing) in code_scenario(),
        seed in any::<u64>(),
    ) {
        let rs = ReedSolomon::new(CodingParams::new(k, m).unwrap()).unwrap();
        let object: Vec<u8> = (0..k * len)
            .map(|j| (seed ^ (j as u64 * 104729)) as u8)
            .collect();
        let mut shards: Vec<Option<Bytes>> =
            rs.encode_object(&object).unwrap().into_iter().map(Some).collect();
        for &i in &missing {
            shards[i] = None;
        }
        let (back, _) = rs.reconstruct_object_report(&shards, object.len()).unwrap();
        prop_assert_eq!(back.as_ref(), object.as_slice());
    }

    #[test]
    fn object_roundtrip_arbitrary_sizes(
        object in vec(any::<u8>(), 1..4096),
        k in 2usize..=10,
        m in 1usize..=4,
    ) {
        let params = CodingParams::new(k, m).unwrap();
        let rs = ReedSolomon::new(params).unwrap();
        let shards = rs.encode_object(&object).unwrap();
        prop_assert_eq!(shards.len(), k + m);

        // Erase the last m shards (worst case for systematic layout is
        // erasing data shards, covered above; here exercise size-trim).
        let mut opts: Vec<Option<bytes::Bytes>> = shards.into_iter().map(Some).collect();
        for slot in opts.iter_mut().take(m) {
            *slot = None;
        }
        let (back, _) = rs.reconstruct_object_report(&opts, object.len()).unwrap();
        prop_assert_eq!(back.as_ref(), object.as_slice());
    }

    // The zero-copy/in-place decode against the original object, and a
    // warm decode-plan-cache hit against a cold inversion in a fresh
    // codec: both must produce the object's bytes.
    #[test]
    fn reconstruct_object_fast_paths_match_reference(
        object in vec(any::<u8>(), 1..2048),
        k in 1usize..=10,
        m in 1usize..=4,
        erase_seed in any::<u64>(),
        erasures in 0usize..=4,
    ) {
        let params = CodingParams::new(k, m).unwrap();
        let rs = ReedSolomon::new(params).unwrap();
        let shards = rs.encode_object(&object).unwrap();
        let mut opts: Vec<Option<Bytes>> = shards.iter().cloned().map(Some).collect();
        // Erase up to min(erasures, m) pseudo-random shards.
        for round in 0..erasures.min(m) {
            let i = (erase_seed.wrapping_mul(6364136223846793005).wrapping_add(round as u64)
                % (k + m) as u64) as usize;
            opts[i] = None;
        }

        // Cold decode (fresh codec, empty plan cache).
        let cold_rs = ReedSolomon::new(params).unwrap();
        let (cold, cold_report) = cold_rs
            .reconstruct_object_report(&opts, object.len())
            .unwrap();
        prop_assert_eq!(cold.as_ref(), object.as_slice());
        prop_assert!(!cold_report.plan_cache_hit);
        if cold_report.systematic_fast_path {
            prop_assert_eq!(cold_report.gf_multiply_bytes, 0);
        }

        // Warm decode: the same erasure pattern again must hit the
        // plan cache (degraded case) and stay byte-identical.
        let (warm, warm_report) = cold_rs
            .reconstruct_object_report(&opts, object.len())
            .unwrap();
        prop_assert_eq!(warm.as_ref(), cold.as_ref());
        prop_assert_eq!(
            warm_report.plan_cache_hit,
            !warm_report.systematic_fast_path
        );
    }
}
