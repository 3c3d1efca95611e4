//! Arithmetic in the Galois field GF(2^8).
//!
//! The field is constructed as GF(2)\[x\] / (x^8 + x^4 + x^3 + x^2 + 1),
//! i.e. with the reducing polynomial `0x11D` that is conventional for
//! Reed-Solomon codes. A field element is a plain `u8`: addition is XOR,
//! and multiplication is table-driven — exponentiation/logarithm tables
//! with respect to the generator `x` (`0x02`) are computed at compile
//! time by a `const fn`, so there is no lazy initialisation.
//!
//! The codec's slice arithmetic is one crate-private kernel family, the
//! fused dot product `dot_slice` (`out = Σ cⱼ · srcⱼ`, GFNI / AVX2 /
//! SSSE3 / scalar tiers), which the encode and the degraded decode both
//! run. [`mul_add_slice`] is its plain scalar sibling, and
//! [`naive::mul_add_slice`] the ground truth both are tested against.
//!
//! # Examples
//!
//! ```
//! use agar_ec::gf256::{mul, mul_add_slice};
//!
//! let (a, b, c) = (0x53, 0xCA, 7);
//! // Multiplication distributes over addition (XOR).
//! assert_eq!(mul(c, a ^ b), mul(c, a) ^ mul(c, b));
//! // The slice kernel accumulates `c * src` into `dst`.
//! let mut dst = [a];
//! mul_add_slice(&mut dst, &[b], c);
//! assert_eq!(dst, [a ^ mul(c, b)]);
//! ```

use std::mem::MaybeUninit;

/// The reducing polynomial x^8 + x^4 + x^3 + x^2 + 1 (without the x^8 bit
/// it is `0x1D`); this is the polynomial used by most Reed-Solomon
/// implementations, including the one in the paper's Longhair dependency.
const REDUCING_POLYNOMIAL: u16 = 0x11D;

/// Order of the multiplicative group of GF(2^8).
const GROUP_ORDER: usize = 255;

const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < GROUP_ORDER {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= REDUCING_POLYNOMIAL;
        }
        i += 1;
    }
    // Mirror the table so `exp[log a + log b]` never needs a modulo.
    let mut j = GROUP_ORDER;
    while j < 512 {
        exp[j] = exp[j - GROUP_ORDER];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();
/// `EXP[i]` is the generator raised to the `i`-th power; doubled in length
/// so that indices up to `2 * 254` need no reduction.
const EXP: [u8; 512] = TABLES.0;
/// `LOG[a]` is the discrete logarithm of `a` (undefined, stored as 0, for
/// `a == 0`; all callers must check for zero first).
const LOG: [u8; 256] = TABLES.1;

/// Field multiplication: one log/exp walk.
#[inline]
pub const fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        return 0;
    }
    EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
}

/// Multiplicative inverse.
///
/// # Panics
///
/// Panics if `a` is zero, which has no inverse.
pub(crate) fn inverse(a: u8) -> u8 {
    assert!(a != 0, "zero has no multiplicative inverse in GF(2^8)");
    EXP[GROUP_ORDER - LOG[a as usize] as usize]
}

/// `a` raised to `exponent`. `0^0` is 1, the convention Vandermonde
/// construction needs.
pub(crate) fn pow(a: u8, exponent: usize) -> u8 {
    if exponent == 0 {
        return 1;
    }
    if a == 0 {
        return 0;
    }
    EXP[(LOG[a as usize] as usize * (exponent % GROUP_ORDER)) % GROUP_ORDER]
}

/// Split-nibble multiplication tables for every coefficient.
///
/// `c * s` factors over the byte's nibbles — `c * s = c * (s & 0x0F) +
/// c * (s & 0xF0)` because multiplication distributes over XOR — so two
/// 16-entry tables per coefficient replace the log/exp walk with two
/// independent loads and one XOR, with no zero-check branch. All 256
/// coefficients fit in 8 KiB (half an L1 way), so the full table is
/// built at compile time rather than lazily per codec instance; every
/// `ReedSolomon` shares it for free.
const fn build_nibble_tables() -> ([[u8; 16]; 256], [[u8; 16]; 256]) {
    let mut lo = [[0u8; 16]; 256];
    let mut hi = [[0u8; 16]; 256];
    let mut c = 0;
    while c < 256 {
        let mut n = 0;
        while n < 16 {
            lo[c][n] = mul(c as u8, n as u8);
            hi[c][n] = mul(c as u8, (n << 4) as u8);
            n += 1;
        }
        c += 1;
    }
    (lo, hi)
}

const NIBBLE_TABLES: ([[u8; 16]; 256], [[u8; 16]; 256]) = build_nibble_tables();
const NIB_LO: [[u8; 16]; 256] = NIBBLE_TABLES.0;
const NIB_HI: [[u8; 16]; 256] = NIBBLE_TABLES.1;

/// GF(2^8) multiplication by a constant is GF(2)-linear, so each
/// coefficient is an 8x8 bit matrix — exactly the operand shape of the
/// `GF2P8AFFINEQB` instruction, which applies it to 32 bytes at once.
/// Byte `7 - i` of the packed matrix holds output bit `i`'s row; bit
/// `j` of that row is bit `i` of `c * x^j` (convention verified against
/// the table multiply by `gfni_matrices_encode_multiplication`).
#[cfg(target_arch = "x86_64")]
const fn build_gfni_matrices() -> [u64; 256] {
    let mut out = [0u64; 256];
    let mut c = 0;
    while c < 256 {
        let mut matrix = 0u64;
        let mut i = 0;
        while i < 8 {
            let mut row = 0u8;
            let mut j = 0;
            while j < 8 {
                if mul(c as u8, 1 << j) >> i & 1 != 0 {
                    row |= 1 << j;
                }
                j += 1;
            }
            matrix |= (row as u64) << (8 * (7 - i));
            i += 1;
        }
        out[c] = matrix;
        c += 1;
    }
    out
}

#[cfg(target_arch = "x86_64")]
const GFNI_MATRICES: [u64; 256] = build_gfni_matrices();

/// The widest [`dot_slice`] tier this CPU supports, detected once.
/// `AGAR_GF256_KERNEL` (`gfni`/`avx2`/`ssse3`/`scalar`) caps the
/// level for A/B benchmarking; detection still gates what actually
/// runs, so the override can only *lower* the tier.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SimdLevel {
    Scalar,
    Ssse3,
    Avx2,
    Gfni,
}

#[cfg(target_arch = "x86_64")]
fn simd_level() -> SimdLevel {
    static LEVEL: std::sync::OnceLock<SimdLevel> = std::sync::OnceLock::new();
    *LEVEL.get_or_init(|| {
        let detected = if std::arch::is_x86_feature_detected!("gfni")
            && std::arch::is_x86_feature_detected!("avx2")
        {
            SimdLevel::Gfni
        } else if std::arch::is_x86_feature_detected!("avx2") {
            SimdLevel::Avx2
        } else if std::arch::is_x86_feature_detected!("ssse3") {
            SimdLevel::Ssse3
        } else {
            SimdLevel::Scalar
        };
        let cap = match std::env::var("AGAR_GF256_KERNEL") {
            Ok(value) => match value.to_ascii_lowercase().as_str() {
                "scalar" => SimdLevel::Scalar,
                "ssse3" => SimdLevel::Ssse3,
                "avx2" => SimdLevel::Avx2,
                "gfni" => SimdLevel::Gfni,
                other => {
                    // A typo must not silently benchmark the wrong
                    // tier; warn once and apply no cap.
                    eprintln!(
                        "AGAR_GF256_KERNEL={other:?} not recognised \
                         (expected gfni|avx2|ssse3|scalar); ignoring"
                    );
                    SimdLevel::Gfni
                }
            },
            Err(_) => SimdLevel::Gfni,
        };
        detected.min(cap)
    })
}

/// The vector bodies of [`dot_slice`](super::dot_slice). Each consumes
/// as many whole blocks as its width allows and returns the byte count
/// handled; the caller finishes the tail with the scalar kernel.
///
/// # Safety
///
/// Each function requires the CPU features named in its
/// `target_feature` attribute; [`simd_level`] gates every call site.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;
    use std::mem::MaybeUninit;

    /// Split-nibble product of one 32-byte block via two `PSHUFB`s.
    // SAFETY: caller must have verified AVX2 (via `simd_level`).
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn nibble_product_avx2(s: __m256i, lo: __m256i, hi: __m256i) -> __m256i {
        let mask = _mm256_set1_epi8(0x0F);
        let s_lo = _mm256_and_si256(s, mask);
        let s_hi = _mm256_and_si256(_mm256_srli_epi16::<4>(s), mask);
        _mm256_xor_si256(_mm256_shuffle_epi8(lo, s_lo), _mm256_shuffle_epi8(hi, s_hi))
    }

    /// Split-nibble product of one 16-byte block (SSSE3).
    // SAFETY: caller must have verified SSSE3 (via `simd_level`).
    #[inline]
    #[target_feature(enable = "ssse3")]
    unsafe fn nibble_product_ssse3(s: __m128i, lo: __m128i, hi: __m128i) -> __m128i {
        let mask = _mm_set1_epi8(0x0F);
        let s_lo = _mm_and_si128(s, mask);
        let s_hi = _mm_and_si128(_mm_srli_epi16::<4>(s), mask);
        _mm_xor_si128(_mm_shuffle_epi8(lo, s_lo), _mm_shuffle_epi8(hi, s_hi))
    }

    /// `out = Σ cⱼ · srcⱼ` (GFNI): one affine op per source per
    /// 32-byte block, accumulated in registers and stored once; four
    /// blocks per pass share each source's setup.
    // SAFETY: caller must have verified GFNI+AVX2 (via `simd_level`).
    #[target_feature(enable = "gfni,avx2")]
    pub unsafe fn dot_gfni(
        out: &mut [MaybeUninit<u8>],
        sources: &[&[u8]],
        coefficients: &[u8],
    ) -> usize {
        let (wide, end) = (out.len() & !127, out.len() & !31);
        for offset in (0..wide).step_by(128) {
            dot_gfni_lanes::<4>(out, offset, sources, coefficients);
        }
        for offset in (wide..end).step_by(32) {
            dot_gfni_lanes::<1>(out, offset, sources, coefficients);
        }
        end
    }

    /// `LANES` 32-byte blocks of [`dot_gfni`] from `offset` on.
    // SAFETY: as `dot_gfni`.
    #[inline]
    #[target_feature(enable = "gfni,avx2")]
    unsafe fn dot_gfni_lanes<const LANES: usize>(
        out: &mut [MaybeUninit<u8>],
        offset: usize,
        sources: &[&[u8]],
        coefficients: &[u8],
    ) {
        let mut acc = [_mm256_setzero_si256(); LANES];
        for (s, &c) in sources.iter().zip(coefficients) {
            if c == 0 {
                continue;
            }
            let s = &s[offset..offset + 32 * LANES];
            let m = _mm256_set1_epi64x(super::GFNI_MATRICES[c as usize] as i64);
            for (a, block) in acc.iter_mut().zip(s.chunks_exact(32)) {
                let sv = _mm256_loadu_si256(block.as_ptr().cast());
                let product = if c == 1 {
                    sv
                } else {
                    _mm256_gf2p8affine_epi64_epi8::<0>(sv, m)
                };
                *a = _mm256_xor_si256(*a, product);
            }
        }
        let out = &mut out[offset..offset + 32 * LANES];
        for (a, block) in acc.iter().zip(out.chunks_exact_mut(32)) {
            _mm256_storeu_si256(block.as_mut_ptr().cast(), *a);
        }
    }

    /// `out = Σ cⱼ · srcⱼ` (AVX2): split-nibble `PSHUFB` per source per
    /// 32-byte block, accumulated in registers and stored once; four
    /// blocks per pass share each source's table loads.
    // SAFETY: caller must have verified AVX2 (via `simd_level`).
    #[target_feature(enable = "avx2")]
    pub unsafe fn dot_avx2(
        out: &mut [MaybeUninit<u8>],
        sources: &[&[u8]],
        coefficients: &[u8],
    ) -> usize {
        let (wide, end) = (out.len() & !127, out.len() & !31);
        for offset in (0..wide).step_by(128) {
            dot_avx2_lanes::<4>(out, offset, sources, coefficients);
        }
        for offset in (wide..end).step_by(32) {
            dot_avx2_lanes::<1>(out, offset, sources, coefficients);
        }
        end
    }

    /// `LANES` 32-byte blocks of [`dot_avx2`] from `offset` on.
    // SAFETY: as `dot_avx2`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn dot_avx2_lanes<const LANES: usize>(
        out: &mut [MaybeUninit<u8>],
        offset: usize,
        sources: &[&[u8]],
        coefficients: &[u8],
    ) {
        let mut acc = [_mm256_setzero_si256(); LANES];
        for (s, &c) in sources.iter().zip(coefficients) {
            if c == 0 {
                continue;
            }
            let s = &s[offset..offset + 32 * LANES];
            let lo = _mm_loadu_si128(super::NIB_LO[c as usize].as_ptr().cast());
            let hi = _mm_loadu_si128(super::NIB_HI[c as usize].as_ptr().cast());
            let (lo, hi) = (
                _mm256_broadcastsi128_si256(lo),
                _mm256_broadcastsi128_si256(hi),
            );
            for (a, block) in acc.iter_mut().zip(s.chunks_exact(32)) {
                let sv = _mm256_loadu_si256(block.as_ptr().cast());
                let product = if c == 1 {
                    sv
                } else {
                    nibble_product_avx2(sv, lo, hi)
                };
                *a = _mm256_xor_si256(*a, product);
            }
        }
        let out = &mut out[offset..offset + 32 * LANES];
        for (a, block) in acc.iter().zip(out.chunks_exact_mut(32)) {
            _mm256_storeu_si256(block.as_mut_ptr().cast(), *a);
        }
    }

    /// `out = Σ cⱼ · srcⱼ` (SSSE3): split-nibble `PSHUFB` per source per
    /// 16-byte block, accumulated in registers and stored once; four
    /// blocks per pass share each source's table loads.
    // SAFETY: caller must have verified SSSE3 (via `simd_level`).
    #[target_feature(enable = "ssse3")]
    pub unsafe fn dot_ssse3(
        out: &mut [MaybeUninit<u8>],
        sources: &[&[u8]],
        coefficients: &[u8],
    ) -> usize {
        let (wide, end) = (out.len() & !63, out.len() & !15);
        for offset in (0..wide).step_by(64) {
            dot_ssse3_lanes::<4>(out, offset, sources, coefficients);
        }
        for offset in (wide..end).step_by(16) {
            dot_ssse3_lanes::<1>(out, offset, sources, coefficients);
        }
        end
    }

    /// `LANES` 16-byte blocks of [`dot_ssse3`] from `offset` on.
    // SAFETY: as `dot_ssse3`.
    #[inline]
    #[target_feature(enable = "ssse3")]
    unsafe fn dot_ssse3_lanes<const LANES: usize>(
        out: &mut [MaybeUninit<u8>],
        offset: usize,
        sources: &[&[u8]],
        coefficients: &[u8],
    ) {
        let mut acc = [_mm_setzero_si128(); LANES];
        for (s, &c) in sources.iter().zip(coefficients) {
            if c == 0 {
                continue;
            }
            let s = &s[offset..offset + 16 * LANES];
            let lo = _mm_loadu_si128(super::NIB_LO[c as usize].as_ptr().cast());
            let hi = _mm_loadu_si128(super::NIB_HI[c as usize].as_ptr().cast());
            for (a, block) in acc.iter_mut().zip(s.chunks_exact(16)) {
                let sv = _mm_loadu_si128(block.as_ptr().cast());
                let product = if c == 1 {
                    sv
                } else {
                    nibble_product_ssse3(sv, lo, hi)
                };
                *a = _mm_xor_si128(*a, product);
            }
        }
        let out = &mut out[offset..offset + 16 * LANES];
        for (a, block) in acc.iter().zip(out.chunks_exact_mut(16)) {
            _mm_storeu_si128(block.as_mut_ptr().cast(), *a);
        }
    }
}

/// `dst[i] ^= coefficient * src[i]` for every `i`, one byte at a time
/// through the split-nibble tables.
///
/// Not on any hot path: the codec builds its encoding rows and decode
/// inverses with it, and both the encode and the degraded decode run
/// the crate-private fused dot kernel (`dot_slice`) instead. It stays public, with the
/// exact result of the reference [`naive::mul_add_slice`], as the
/// simplest form of the field's slice arithmetic.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn mul_add_slice(dst: &mut [u8], src: &[u8], coefficient: u8) {
    assert_eq!(
        dst.len(),
        src.len(),
        "mul_add_slice requires equal-length slices"
    );
    let (lo, hi) = (&NIB_LO[coefficient as usize], &NIB_HI[coefficient as usize]);
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= lo[(s & 0x0F) as usize] ^ hi[(s >> 4) as usize];
    }
}

/// Scalar `out = Σ cⱼ · srcⱼ` from byte `start` on: each 32-byte block
/// accumulates every source in a stack buffer and is written once.
/// Also finishes the tail behind the SIMD dot kernels.
fn dot_scalar(out: &mut [MaybeUninit<u8>], sources: &[&[u8]], coefficients: &[u8], start: usize) {
    for (offset, block) in (start..).step_by(32).zip(out[start..].chunks_mut(32)) {
        let mut acc = [0u8; 32];
        let acc = &mut acc[..block.len()];
        for (s, &c) in sources.iter().zip(coefficients) {
            let s = &s[offset..offset + block.len()];
            match c {
                0 => {}
                1 => acc.iter_mut().zip(s).for_each(|(a, b)| *a ^= b),
                _ => {
                    let (lo, hi) = (&NIB_LO[c as usize], &NIB_HI[c as usize]);
                    for (a, b) in acc.iter_mut().zip(s) {
                        *a ^= lo[(b & 0x0F) as usize] ^ hi[(b >> 4) as usize];
                    }
                }
            }
        }
        for (o, a) in block.iter_mut().zip(acc.iter()) {
            o.write(*a);
        }
    }
}

/// `out[i] = Σⱼ coefficients[j] · sources[j][i]`: the codec's one slice
/// kernel, behind both the encode (a parity row over the data shards)
/// and the degraded decode (an inverse row over the chosen shards).
///
/// Where [`mul_add_slice`] reads and writes its destination once per
/// source, this kernel keeps each output block in a register while it
/// walks every source, then stores it once — so `out` is written exactly
/// once and never read, and may be uninitialised. It dispatches once
/// (CPU detection cached, `AGAR_GF256_KERNEL` caps the tier) to the
/// widest tier the CPU offers: `GF2P8AFFINEQB` (one instruction per
/// source per 32 bytes), AVX2 or SSSE3 split-nibble `PSHUFB`, or the
/// scalar split-nibble loop, which also finishes every tier's tail. A
/// zero coefficient skips its source and coefficient 1 XORs it. Every
/// tier computes bit-identical output.
///
/// # Panics
///
/// Panics unless there is one coefficient per source and every source
/// is `out.len()` bytes long.
pub(crate) fn dot_slice(out: &mut [MaybeUninit<u8>], sources: &[&[u8]], coefficients: &[u8]) {
    assert_eq!(
        sources.len(),
        coefficients.len(),
        "dot_slice requires one coefficient per source"
    );
    assert!(
        sources.iter().all(|s| s.len() == out.len()),
        "dot_slice requires equal-length slices"
    );
    #[cfg(target_arch = "x86_64")]
    let done = match simd_level() {
        // SAFETY: simd_level() verified GFNI and AVX2 at runtime.
        SimdLevel::Gfni => unsafe { x86::dot_gfni(out, sources, coefficients) },
        // SAFETY: simd_level() verified AVX2 at runtime.
        SimdLevel::Avx2 => unsafe { x86::dot_avx2(out, sources, coefficients) },
        // SAFETY: simd_level() verified SSSE3 at runtime.
        SimdLevel::Ssse3 => unsafe { x86::dot_ssse3(out, sources, coefficients) },
        SimdLevel::Scalar => 0,
    };
    #[cfg(not(target_arch = "x86_64"))]
    let done = 0;
    dot_scalar(out, sources, coefficients, done);
}

/// Naive scalar reference kernel.
///
/// The pre-optimization log/exp-table loop, retained verbatim as the
/// ground truth the tests hold [`mul_add_slice`], the fused dot kernel
/// and the codec's parity to. Never called on a hot path.
pub mod naive {
    use super::{EXP, LOG};

    /// Reference `dst[i] ^= coefficient * src[i]`: per-byte log/exp
    /// walk with a zero-check branch.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn mul_add_slice(dst: &mut [u8], src: &[u8], coefficient: u8) {
        assert_eq!(
            dst.len(),
            src.len(),
            "mul_add_slice requires equal-length slices"
        );
        if coefficient == 0 {
            return;
        }
        if coefficient == 1 {
            for (d, s) in dst.iter_mut().zip(src) {
                *d ^= *s;
            }
            return;
        }
        let log_c = LOG[coefficient as usize] as usize;
        for (d, s) in dst.iter_mut().zip(src) {
            if *s != 0 {
                *d ^= EXP[log_c + LOG[*s as usize] as usize];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_products() {
        // Worked examples with the 0x11D polynomial.
        assert_eq!(mul(2, 2), 4);
        assert_eq!(mul(0x80, 2), 0x1D); // overflow wraps through the polynomial
        assert_eq!(mul(0x8E, 2), 0x01); // 0x8E is the inverse of the generator
        assert_eq!(inverse(2), 0x8E);
    }

    #[test]
    fn identities_and_every_inverse() {
        for a in 0..=255u8 {
            assert_eq!(mul(a, 1), a);
            assert_eq!(mul(a, 0), 0);
            if a != 0 {
                assert_eq!(mul(a, inverse(a)), 1, "inverse failed for {a}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "zero has no multiplicative inverse")]
    fn zero_inverse_panics() {
        let _ = inverse(0);
    }

    #[test]
    fn generator_has_full_order() {
        let mut seen = [false; 256];
        let mut x = 1u8;
        for _ in 0..GROUP_ORDER {
            assert!(!seen[x as usize], "generator cycled early");
            seen[x as usize] = true;
            x = mul(x, 2);
        }
        assert_eq!(x, 1, "generator order is not 255");
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        for a in [0u8, 1, 2, 5, 97, 255] {
            let mut acc = 1u8;
            for e in 0..20 {
                assert_eq!(pow(a, e), acc, "pow mismatch for {a}^{e}");
                acc = mul(acc, a);
            }
        }
        assert_eq!(pow(0, 0), 1);
    }

    #[test]
    fn pow_reduces_exponent_modulo_group_order() {
        assert_eq!(pow(29, GROUP_ORDER), 1);
        assert_eq!(pow(29, GROUP_ORDER + 3), pow(29, 3));
        assert_eq!(pow(29, 2 * GROUP_ORDER), 1);
    }

    // The field laws, on `u8` elements: `^` is addition, `mul`,
    // `inverse` and `pow` the rest of the field.
    proptest! {
        #[test]
        #[cfg_attr(miri, ignore)]
        #[allow(clippy::identity_op)] // `a ^ 0 == a` is the identity law
        fn addition_is_an_abelian_group(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
            prop_assert_eq!(a ^ b, b ^ a);
            prop_assert_eq!((a ^ b) ^ c, a ^ (b ^ c));
            prop_assert_eq!(a ^ 0, a);
            prop_assert_eq!(a ^ a, 0);
        }

        #[test]
        #[cfg_attr(miri, ignore)]
        fn multiplication_commutes_associates_and_distributes(a in any::<u8>(), b in any::<u8>(), c in any::<u8>()) {
            prop_assert_eq!(mul(a, b), mul(b, a));
            prop_assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
            prop_assert_eq!(mul(a, b ^ c), mul(a, b) ^ mul(a, c));
        }

        #[test]
        #[cfg_attr(miri, ignore)]
        fn inverse_undoes_multiplication(a in any::<u8>(), b in 1u8..=255) {
            prop_assert_eq!(mul(mul(a, b), inverse(b)), a);
            prop_assert_eq!(inverse(inverse(b)), b);
            prop_assert_eq!(mul(b, inverse(b)), 1);
        }

        #[test]
        #[cfg_attr(miri, ignore)]
        fn pow_adds_exponents(a in 1u8..=255, e1 in 0usize..300, e2 in 0usize..300) {
            prop_assert_eq!(mul(pow(a, e1), pow(a, e2)), pow(a, e1 + e2));
        }
    }

    #[test]
    fn mul_add_slice_accumulates() {
        let src = [1u8, 2, 3, 0, 255];
        let mut dst = [9u8, 9, 9, 9, 9];
        let expected: Vec<u8> = dst
            .iter()
            .zip(src.iter())
            .map(|(&d, &s)| d ^ mul(s, 29))
            .collect();
        mul_add_slice(&mut dst, &src, 29);
        assert_eq!(dst.as_slice(), expected.as_slice());
    }

    #[test]
    fn mul_add_slice_zero_coefficient_is_noop() {
        let src = [7u8; 16];
        let mut dst = [3u8; 16];
        mul_add_slice(&mut dst, &src, 0);
        assert_eq!(dst, [3u8; 16]);
    }

    #[test]
    fn mul_add_slice_one_coefficient_is_xor() {
        let src = [0xF0u8; 4];
        let mut dst = [0x0Fu8; 4];
        mul_add_slice(&mut dst, &src, 1);
        assert_eq!(dst, [0xFFu8; 4]);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn mul_add_slice_length_mismatch_panics() {
        mul_add_slice(&mut [0u8; 3], &[0u8; 4], 1);
    }

    #[test]
    fn nibble_tables_factor_every_product() {
        for c in 0..=255u8 {
            let (lo, hi) = (&NIB_LO[c as usize], &NIB_HI[c as usize]);
            for s in 0..=255u8 {
                assert_eq!(
                    lo[(s & 0x0F) as usize] ^ hi[(s >> 4) as usize],
                    mul(c, s),
                    "coefficient {c}, byte {s}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn gfni_matrices_encode_multiplication() {
        // Validates the packed 8x8 bit-matrix convention with plain
        // scalar arithmetic (runs on every host, GFNI or not): output
        // bit `i` must be the parity of row `7 - i` ANDed with the
        // input byte.
        for c in 0..=255u8 {
            let matrix = GFNI_MATRICES[c as usize];
            for s in [0u8, 1, 2, 0x53, 0x80, 0xCA, 0xFF] {
                let mut out = 0u8;
                for i in 0..8 {
                    let row = (matrix >> (8 * (7 - i))) as u8;
                    out |= (((row & s).count_ones() as u8) & 1) << i;
                }
                assert_eq!(out, mul(c, s), "coefficient {c}, byte {s}");
            }
        }
    }

    #[test]
    fn kernels_match_naive_across_lengths_and_coefficients() {
        // Short, block-sized and odd lengths, and the coefficients the
        // reference special-cases (0, 1) besides general ones.
        for len in [
            0usize, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 130, 200, 1025,
        ] {
            let src: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let init: Vec<u8> = (0..len).map(|i| (i * 101 + 5) as u8).collect();
            for c in [0u8, 1, 2, 29, 143, 255] {
                let mut fast = init.clone();
                let mut slow = init.clone();
                mul_add_slice(&mut fast, &src, c);
                naive::mul_add_slice(&mut slow, &src, c);
                assert_eq!(fast, slow, "mul_add_slice len {len} coefficient {c}");
            }
        }
    }

    /// The fused dot kernel against a sum of naive multiply-adds into a
    /// zeroed buffer, with `out` pre-filled with garbage to show the
    /// kernel overwrites it: every length up to 300 (all the SIMD tails)
    /// plus longer odd ones, 1..=12 sources (up to `k + m` of RS(9, 3))
    /// and pseudo-random coefficients, one in four of them 0 and one in
    /// four 1. Under Miri, which runs only the scalar tier, a sample.
    #[test]
    fn dot_slice_matches_summed_naive_kernel() {
        let lengths: Vec<usize> = if cfg!(miri) {
            vec![0, 1, 7, 31, 33, 65]
        } else {
            (0..=300).chain([1021, 2053, 4099]).collect()
        };
        let source_counts: Vec<usize> = if cfg!(miri) {
            vec![1, 3, 12]
        } else {
            (1..=12).collect()
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for &len in &lengths {
            for &count in &source_counts {
                let sources: Vec<Vec<u8>> = (0..count)
                    .map(|_| (0..len).map(|_| next() as u8).collect())
                    .collect();
                let coefficients: Vec<u8> = (0..count)
                    .map(|_| match next() % 4 {
                        0 => 0,
                        1 => 1,
                        _ => next() as u8,
                    })
                    .collect();
                let mut want = vec![0u8; len];
                for (source, &c) in sources.iter().zip(&coefficients) {
                    naive::mul_add_slice(&mut want, source, c);
                }
                let refs: Vec<&[u8]> = sources.iter().map(Vec::as_slice).collect();
                let mut out = vec![MaybeUninit::new(0xA5u8); len];
                dot_slice(&mut out, &refs, &coefficients);
                // SAFETY: `out` was initialised with 0xA5 and the kernel
                // writes only initialised bytes.
                let got: Vec<u8> = out.iter().map(|b| unsafe { b.assume_init() }).collect();
                assert_eq!(got, want, "len {len}, coefficients {coefficients:?}");
            }
        }
    }

    #[test]
    fn dot_slice_with_no_sources_zeroes_out() {
        let mut out = [MaybeUninit::new(0xFFu8); 40];
        dot_slice(&mut out, &[], &[]);
        // SAFETY: initialised above; the kernel writes initialised bytes.
        assert!(out.iter().all(|b| unsafe { b.assume_init() } == 0));
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn dot_slice_length_mismatch_panics() {
        dot_slice(&mut [MaybeUninit::new(0u8); 3], &[&[0u8; 4]], &[2]);
    }
}
