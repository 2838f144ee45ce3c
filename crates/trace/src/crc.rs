//! CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over frame
//! payloads.
//!
//! Two implementations compute the same function. On x86-64 hosts with
//! PCLMULQDQ and SSE4.1, inputs of 64 bytes or more fold four 16-byte
//! lanes at a time with carry-less multiplies ([`clmul`]), at several
//! times the speed of the portable path. Everywhere else, and for short
//! inputs and the sub-16-byte tail, slice-by-8 does the work: eight
//! 256-entry tables, built at compile time, fold eight input bytes per
//! step with eight independent lookups instead of a chain of eight
//! dependent ones. `TABLES[0]` is the classic bytewise table and
//! finishes the sub-8-byte tail; `TABLES[k][b]` is the CRC contribution
//! of byte `b` followed by `k` zero bytes. The tests check both paths
//! against a bitwise reference.

const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes`, on the fastest path the host supports.
pub fn crc32(bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if let Some(crc) = clmul::crc32(bytes) {
        return crc;
    }
    crc32_sliced(bytes)
}

/// CRC-32 of `bytes` by slice-by-8 alone: the portable path.
fn crc32_sliced(bytes: &[u8]) -> u32 {
    !update_sliced(0xFFFF_FFFF, bytes)
}

/// Advances the raw (uninverted) CRC register `crc` over `bytes`.
fn update_sliced(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// Carry-less-multiply CRC-32 (PCLMULQDQ), after Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction"
/// (Intel, 2009), in its bit-reflected form.
///
/// The input is treated as one long polynomial over GF(2). Four 128-bit
/// accumulators each take every fourth 16-byte block: an accumulator is
/// carried 512 bits forward by multiplying its two 64-bit halves by the
/// constants `x^(512±32) mod P` and XORing the products into the next
/// block (so 64 bytes at a time, four independent multiply chains). The four are then folded into one (constants for 128 bits
/// forward), any remaining whole 16-byte blocks are folded in the same
/// way, the 128-bit remainder is cut to 64 bits, and a Barrett reduction
/// gives the 32-bit CRC register. Bytes past the last whole block go
/// through [`update_sliced`].
///
/// This module holds the workspace's only `unsafe` code: the intrinsics need
/// the CPU features that [`crc32`](clmul::crc32) detects at run time.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Fold constants: `K(n)` is `x^n mod P`, shifted up 32 bits,
    /// bit-reflected over 64 bits and shifted left one. K1 = K(544) and
    /// K2 = K(480) carry an accumulator 512 bits forward.
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    /// K3 = K(160) and K4 = K(96): 128 bits forward.
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    /// K5 = K(64): reduces the 96-bit intermediate to 64 bits.
    const K5: i64 = 0x1_63CD_6124;
    /// The polynomial P = 0x1_04C1_1DB7 and the Barrett constant
    /// μ = floor(x^64 / P), each bit-reflected over 33 bits.
    const P: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    /// CRC-32 of `bytes`, or `None` if the CPU lacks PCLMULQDQ or SSE4.1.
    pub(super) fn crc32(bytes: &[u8]) -> Option<u32> {
        if !(is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")) {
            return None;
        }
        // SAFETY: `update` requires PCLMULQDQ and SSE4.1, and both were
        // detected on this CPU just above.
        Some(!unsafe { update(0xFFFF_FFFF, bytes) })
    }

    /// Advances the raw (uninverted) CRC register `crc` over `bytes`.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    unsafe fn update(crc: u32, bytes: &[u8]) -> u32 {
        if bytes.len() < 64 {
            return super::update_sliced(crc, bytes);
        }
        // SAFETY (for every intrinsic and `fold` call below): each needs
        // at most PCLMULQDQ and SSE4.1, which the caller guarantees.
        let (head, mut rest) = bytes.split_at(64);
        let mut x3 = _mm_xor_si128(load(&head[..16]), _mm_cvtsi32_si128(crc as i32));
        let mut x2 = load(&head[16..32]);
        let mut x1 = load(&head[32..48]);
        let mut x0 = load(&head[48..]);

        let k1k2 = _mm_set_epi64x(K2, K1);
        while rest.len() >= 64 {
            x3 = fold(x3, load(&rest[..16]), k1k2);
            x2 = fold(x2, load(&rest[16..32]), k1k2);
            x1 = fold(x1, load(&rest[32..48]), k1k2);
            x0 = fold(x0, load(&rest[48..64]), k1k2);
            rest = &rest[64..];
        }

        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold(x3, x2, k3k4);
        x = fold(x, x1, k3k4);
        x = fold(x, x0, k3k4);
        let mut blocks = rest.chunks_exact(16);
        for block in &mut blocks {
            x = fold(x, load(block), k3k4);
        }

        // 128 → 96 bits: the low half times K4, plus the high half.
        let x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        // 96 → 64 bits: the low 32 bits times K5, plus the rest.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction, 64 → 32 bits: T1 = (R mod x^32)·μ,
        // T2 = (T1 mod x^32)·P, and the register is the upper half of
        // R ^ T2 (the reflected form keeps its result high).
        let pmu = _mm_set_epi64x(MU, P);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let crc = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        super::update_sliced(crc, blocks.remainder())
    }

    /// Carries `acc` forward over one fold distance and adds `next`:
    /// `acc.lo · keys.lo ^ acc.hi · keys.hi ^ next`.
    ///
    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, keys, 0x00);
        let hi = _mm_clmulepi64_si128(acc, keys, 0x11);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    }

    /// The 16 bytes of `block` as one vector.
    ///
    /// # Panics
    ///
    /// Panics if `block` is not exactly 16 bytes long.
    #[inline]
    fn load(block: &[u8]) -> __m128i {
        let block: &[u8; 16] = block.try_into().expect("a 16-byte block");
        // SAFETY: `block` is 16 readable bytes; `_mm_loadu_si128` has no
        // alignment requirement and needs only SSE2, which every x86-64
        // CPU has.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook bit-at-a-time CRC (no tables at all): the reference
    /// model the sliced version must agree with.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// The carry-less path, when this host can run it.
    #[cfg(target_arch = "x86_64")]
    fn clmul_path() -> Option<fn(&[u8]) -> u32> {
        clmul::crc32(b"")?;
        Some(|b| clmul::crc32(b).expect("features detected once"))
    }

    #[cfg(not(target_arch = "x86_64"))]
    fn clmul_path() -> Option<fn(&[u8]) -> u32> {
        None
    }

    /// `len` bytes of xorshift64 output.
    fn random_bytes(len: usize) -> Vec<u8> {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect()
    }

    /// Checks `f` against the bitwise reference on every length
    /// 0..=1024 at every start offset 0..16, so each tail length and
    /// each alignment of the 8- and 16-byte steps is hit on both sides of
    /// the 64-byte switch to carry-less folds, and on one random buffer
    /// of just over 1 MiB (not a multiple of 16 or 64).
    fn equals_bitwise(f: fn(&[u8]) -> u32) {
        let buf = random_bytes(1024 + 16);
        for start in 0..16 {
            for len in 0..=1024 {
                let s = &buf[start..start + len];
                assert_eq!(f(s), crc32_bitwise(s), "start {start} len {len}");
            }
        }
        let big = random_bytes((1 << 20) + 77);
        assert_eq!(f(&big), crc32_bitwise(&big), "1 MiB buffer");
    }

    #[test]
    fn matches_known_vectors() {
        // Standard check value for the IEEE polynomial, on the
        // dispatching entry point, each path directly, and the reference.
        let mut paths: Vec<fn(&[u8]) -> u32> = vec![crc32, crc32_sliced, crc32_bitwise];
        paths.extend(clmul_path());
        for f in paths {
            assert_eq!(f(b"123456789"), 0xCBF4_3926);
            assert_eq!(f(b""), 0);
            assert_eq!(f(b"a"), 0xE8B7_BE43);
            assert_eq!(
                f(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
            // Long enough for the carry-less path to fold.
            assert_eq!(f(&[0u8; 64]), 0x758D_6336);
        }
    }

    #[test]
    fn single_bit_flip_changes_the_crc() {
        let a = crc32(b"hello trace");
        let b = crc32(b"hellp trace");
        assert_ne!(a, b);
    }

    #[test]
    fn sliced_equals_bitwise_on_random_buffers() {
        equals_bitwise(crc32_sliced);
    }

    #[test]
    fn clmul_equals_bitwise_on_random_buffers() {
        match clmul_path() {
            Some(f) => equals_bitwise(f),
            None => eprintln!("no PCLMULQDQ/SSE4.1 on this host: carry-less path not run"),
        }
    }
}
