//! LEB128 varints and zigzag signed mapping.
//!
//! Encoding appends to an in-memory chunk buffer; decoding reads from a
//! checksum-validated chunk slice, so a varint running off the end is
//! *corruption* (the chunk lied about its contents), not truncation.

use crate::TraceError;

/// Appends `v` as an LEB128 varint (1–10 bytes).
#[inline]
pub fn write_u64(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Reads an LEB128 varint from `buf` at `*pos`, advancing it.
///
/// Word at a time: with at least 8 bytes left, one unaligned 8-byte load
/// covers every varint of up to 8 bytes. The stop byte (the first with
/// its high bit clear) is found with a mask, the bytes past it are
/// masked off, and the 7-bit groups are packed together with three
/// shift-and-mask steps. Full-width words (load values) are 9 or 10
/// bytes long and take one or two more byte reads.
/// Near the end of the buffer, and on every malformed input, decoding
/// falls back to [`read_u64_slow`], so errors come out of one place.
/// Forced inline: the instruction decoder calls it at up to seven sites,
/// and at that count the compiler otherwise keeps it out of line.
#[inline(always)]
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let p = *pos;
    let Some(head) = buf.get(p..p + 8) else {
        return read_u64_slow(buf, pos);
    };
    let w = u64::from_le_bytes(head.try_into().expect("8 bytes"));
    // Delta-encoded instruction streams are dominated by one-byte
    // varints (PC strides, small address deltas).
    if w & 0x80 == 0 {
        *pos = p + 1;
        return Ok(w & 0x7F);
    }
    let stops = !w & 0x8080_8080_8080_8080;
    if stops != 0 {
        // `stops ^ (stops - 1)` keeps every bit up to and including the
        // first stop bit: exactly this varint's bytes.
        *pos = p + (stops.trailing_zeros() / 8 + 1) as usize;
        return Ok(pack7(w & (stops ^ (stops - 1))));
    }
    let low = pack7(w);
    match buf.get(p + 8..p + 10) {
        Some(&[b8, _]) if b8 < 0x80 => {
            *pos = p + 9;
            Ok(low | u64::from(b8) << 56)
        }
        // The 10th byte of a u64 varint may only carry the top bit.
        Some(&[b8, b9]) if b9 <= 1 => {
            *pos = p + 10;
            Ok(low | u64::from(b8 & 0x7F) << 56 | u64::from(b9) << 63)
        }
        _ => read_u64_slow(buf, pos),
    }
}

/// Packs the low 7 bits of each of the 8 bytes of `w` into 56 bits,
/// byte 0 lowest.
#[inline]
fn pack7(w: u64) -> u64 {
    let x = w & 0x7F7F_7F7F_7F7F_7F7F;
    let x = (x & 0x007F_007F_007F_007F) | (x & 0x7F00_7F00_7F00_7F00) >> 1;
    let x = (x & 0x0000_3FFF_0000_3FFF) | (x & 0x3FFF_0000_3FFF_0000) >> 2;
    (x & 0x0000_0000_0FFF_FFFF) | (x & 0x0FFF_FFFF_0000_0000) >> 4
}

/// The byte-serial LEB128 decode loop: the reference decoding, used
/// within 8 bytes of the end of the buffer (where [`read_u64`] cannot
/// load a whole word) and for every malformed varint, so all varint
/// errors are produced here.
#[cold]
#[inline(never)]
fn read_u64_slow(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err(TraceError::Corrupt("varint runs off chunk end".into()));
        };
        *pos += 1;
        // The 10th byte of a u64 varint may only carry the top bit.
        if shift == 63 && byte > 1 {
            return Err(TraceError::Corrupt("varint overflows u64".into()));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(TraceError::Corrupt("varint longer than 10 bytes".into()));
        }
    }
}

/// Maps a signed delta onto small unsigned values (zigzag).
#[inline]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_representative_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_u64(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn zigzag_round_trips_extremes() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // Small magnitudes map to small codes (one-byte varints).
        assert!(zigzag(-3) < 8);
        assert!(zigzag(3) < 8);
    }

    /// Decodes `buf` at `pos` with both the fast path and the reference
    /// loop; they must agree on the value or error and on the position.
    fn both(buf: &[u8], pos: usize) -> (Result<u64, String>, usize) {
        let (mut fast_pos, mut slow_pos) = (pos, pos);
        let fast = read_u64(buf, &mut fast_pos).map_err(|e| e.to_string());
        let slow = read_u64_slow(buf, &mut slow_pos).map_err(|e| e.to_string());
        assert_eq!(fast, slow, "value/error at {pos} of {buf:02x?}");
        assert_eq!(fast_pos, slow_pos, "position at {pos} of {buf:02x?}");
        (fast, fast_pos)
    }

    #[test]
    fn every_width_round_trips_at_every_distance_from_the_end() {
        // The smallest and largest value of each width 1..=10, followed by
        // 0..12 padding bytes, so the varint ends at every offset relative
        // to the 8-byte load and to the 9th/10th-byte lookahead.
        for width in 1..=10u32 {
            let lo = if width == 1 {
                0
            } else {
                1u64 << (7 * (width - 1))
            };
            let hi = if width == 10 {
                u64::MAX
            } else {
                (1u64 << (7 * width)) - 1
            };
            for v in [lo, hi, lo | 0x55 | (hi & 0xAAAA_AAAA_AAAA_AAAA)] {
                for pad in 0..12 {
                    for pad_byte in [0x00u8, 0xFF] {
                        let mut buf = vec![0xFFu8; 3];
                        write_u64(&mut buf, v);
                        assert_eq!(buf.len(), 3 + width as usize, "width of {v:#x}");
                        buf.resize(buf.len() + pad, pad_byte);
                        assert_eq!(both(&buf, 3), (Ok(v), 3 + width as usize));
                    }
                }
            }
        }
    }

    #[test]
    fn fast_path_equals_reference_on_random_bytes() {
        // Random bytes biased towards continuation bits reach every
        // width, the overflow check and the run-off-the-end error.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for len in 0..40 {
            for _ in 0..200 {
                let buf: Vec<u8> = (0..len)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        // Three bytes in four continue the varint.
                        if x >> 62 == 0 {
                            x as u8 & 0x7F
                        } else {
                            x as u8 | 0x80
                        }
                    })
                    .collect();
                for pos in 0..=len {
                    let _ = both(&buf, pos);
                }
            }
        }
    }

    /// Asserts `buf` fails with exactly `message`, the byte loop's
    /// wording, and that fast path and reference agree.
    fn assert_corrupt(buf: &[u8], message: &str) {
        let mut pos = 0;
        match read_u64(buf, &mut pos) {
            Err(TraceError::Corrupt(m)) => assert_eq!(m, message, "{buf:02x?}"),
            other => panic!("{buf:02x?}: expected Corrupt({message}), got {other:?}"),
        }
        let _ = both(buf, 0);
    }

    #[test]
    fn truncated_varint_is_corrupt() {
        assert_corrupt(&[0x80u8, 0x80], "varint runs off chunk end");
        // A full-width varint cut short inside its 8-byte head and in
        // its 9th/10th bytes.
        let mut full = Vec::new();
        write_u64(&mut full, u64::MAX);
        for cut in 1..full.len() {
            assert_corrupt(&full[..cut], "varint runs off chunk end");
        }
    }

    #[test]
    fn tenth_byte_above_one_is_corrupt() {
        for tenth in [0x02u8, 0x7F, 0x80, 0x81] {
            let mut buf = vec![0xFFu8; 9];
            buf.push(tenth);
            assert_corrupt(&buf, "varint overflows u64");
            buf.extend_from_slice(&[0; 8]);
            assert_corrupt(&buf, "varint overflows u64");
        }
    }

    #[test]
    fn overlong_varint_is_corrupt() {
        assert_corrupt(&[0x80u8; 11], "varint overflows u64");
        let mut buf = vec![0x80u8; 10];
        buf.extend_from_slice(&[0x00; 8]);
        assert_corrupt(&buf, "varint overflows u64");
    }
}
