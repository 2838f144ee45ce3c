//! Error-path coverage: truncation, corruption, and version skew all
//! surface as the right typed error — never a panic or an infinite loop.

use dol_isa::{InstKind, Reg, RetiredInst, SparseMemory};
use dol_trace::{decode_workload, encode_workload, TraceError, TraceHeader, MAGIC, VERSION};

/// A small valid trace with a memory image and a few hundred
/// instructions (spans header, memory, instruction, and end frames).
fn sample_trace() -> Vec<u8> {
    let mut memory = SparseMemory::new();
    for i in 0..64u64 {
        memory.write_u64(0x1000 + i * 8, i.wrapping_mul(0x9E37_79B9));
    }
    let insts: Vec<RetiredInst> = (0..300u64)
        .map(|i| RetiredInst {
            pc: 0x4000 + i * 4,
            kind: if i % 3 == 0 {
                InstKind::Load {
                    addr: 0x1000 + (i % 64) * 8,
                    value: i,
                }
            } else {
                InstKind::Alu { latency: 1 }
            },
            dst: Some(Reg::R1),
            srcs: [Some(Reg::R2), None],
        })
        .collect();
    let header = TraceHeader {
        name: "sample".into(),
        seed: 1,
        insts: insts.len() as u64,
    };
    let mut bytes = Vec::new();
    encode_workload(&mut bytes, &header, &memory, &insts).expect("valid trace encodes");
    bytes
}

#[test]
fn truncation_mid_chunk_is_reported_as_truncated() {
    let bytes = sample_trace();
    // Cut the file mid-way: inside a frame's payload, past the header.
    for cut in [bytes.len() / 3, bytes.len() / 2, bytes.len() - 1] {
        let err = decode_workload(&bytes[..cut]).expect_err("truncated file must not decode");
        assert!(
            matches!(err, TraceError::Truncated(_)),
            "cut at {cut}: expected Truncated, got {err:?}"
        );
    }
}

#[test]
fn truncation_at_a_frame_boundary_is_still_truncated() {
    let bytes = sample_trace();
    // Dropping only the end frame leaves every remaining frame intact;
    // the missing end frame must still be detected (9 bytes of frame
    // header + 8 bytes of count payload).
    let err = decode_workload(&bytes[..bytes.len() - 17]).expect_err("missing end frame");
    assert!(
        matches!(err, TraceError::Truncated(_)),
        "expected Truncated, got {err:?}"
    );
}

#[test]
fn a_flipped_payload_byte_is_a_checksum_mismatch() {
    let bytes = sample_trace();
    // Flip one byte deep inside a frame payload (well past the magic,
    // version, and any frame header).
    for at in [bytes.len() / 3, bytes.len() / 2, bytes.len() * 3 / 4] {
        let mut bad = bytes.clone();
        bad[at] ^= 0x40;
        let err = decode_workload(&bad[..]).expect_err("corrupted file must not decode");
        assert!(
            matches!(
                err,
                TraceError::ChecksumMismatch { .. } | TraceError::Corrupt(_)
            ),
            "flip at {at}: expected ChecksumMismatch/Corrupt, got {err:?}"
        );
    }
}

#[test]
fn checksum_mismatch_names_the_frame_and_both_crcs() {
    let bytes = sample_trace();
    // The header frame payload starts at magic(8) + version(4) +
    // tag(1) + len(4) + crc(4) = byte 21.
    let mut bad = bytes.clone();
    bad[21] ^= 0xFF;
    match decode_workload(&bad[..]) {
        Err(TraceError::ChecksumMismatch { frame, expect, got }) => {
            assert_eq!(frame, "header");
            assert_ne!(expect, got);
        }
        other => panic!("expected ChecksumMismatch on the header frame, got {other:?}"),
    }
}

#[test]
fn a_future_format_version_is_unsupported() {
    let mut bytes = sample_trace();
    let future = VERSION + 1;
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&future.to_le_bytes());
    match decode_workload(&bytes[..]) {
        Err(TraceError::UnsupportedVersion(v)) => assert_eq!(v, future),
        other => panic!("expected UnsupportedVersion({future}), got {other:?}"),
    }
}

#[test]
fn a_version_1_file_is_unsupported() {
    // Version 1 stored memory pages as per-word varints; no reader for
    // it is kept, so such a file is refused before any frame is read.
    let mut bytes = sample_trace();
    bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&1u32.to_le_bytes());
    match decode_workload(&bytes[..]) {
        Err(TraceError::UnsupportedVersion(1)) => {}
        other => panic!("expected UnsupportedVersion(1), got {other:?}"),
    }
}

/// The textbook bit-at-a-time CRC-32 (IEEE), to re-seal edited frames.
fn crc32(bytes: &[u8]) -> u32 {
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

/// `bytes` with the payload of its only memory frame passed through
/// `edit`, and that frame's length and CRC rewritten to match, so the
/// damage gets past the checksum to the page decoder.
fn with_memory_frame_edited(bytes: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    // After the 12-byte magic and version, frames are
    // `tag u8 | len u32 LE | crc u32 LE | payload`.
    let mut at = MAGIC.len() + 4;
    while bytes[at] != b'M' {
        at += 9 + u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
    }
    let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap()) as usize;
    let mut payload = bytes[at + 9..at + 9 + len].to_vec();
    edit(&mut payload);
    let mut out = bytes[..at + 1].to_vec();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out.extend_from_slice(&bytes[at + 9 + len..]);
    out
}

#[test]
fn a_memory_frame_that_lies_about_its_pages_is_corrupt() {
    let bytes = sample_trace();
    // The frame holds one page: the page count, a one-byte page delta
    // and 4096 raw bytes. Cut the page by one word and by all but one
    // byte, and add bytes after it; each edit re-seals the CRC, so the
    // page decoder must catch it.
    for (delta, want) in [
        (-8, "past the frame end"),
        (-4095, "past the frame end"),
        (3, "trailing"),
    ] {
        let bad = with_memory_frame_edited(&bytes, |p| {
            p.resize(p.len().checked_add_signed(delta).unwrap(), 0)
        });
        match decode_workload(&bad[..]) {
            Err(TraceError::Corrupt(msg)) => assert!(msg.contains(want), "{delta:+}: {msg}"),
            other => panic!("{delta:+} bytes: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn a_wrong_magic_is_bad_magic() {
    let mut bytes = sample_trace();
    bytes[0] = b'X';
    assert!(matches!(
        decode_workload(&bytes[..]),
        Err(TraceError::BadMagic)
    ));
    // An empty stream is also not a trace file.
    assert!(matches!(
        decode_workload(&[][..]),
        Err(TraceError::BadMagic) | Err(TraceError::Truncated(_))
    ));
}

#[test]
fn errors_render_useful_messages() {
    let display = |e: TraceError| e.to_string();
    assert!(display(TraceError::BadMagic).contains("magic"));
    assert!(display(TraceError::UnsupportedVersion(9)).contains('9'));
    assert!(display(TraceError::Truncated("end frame")).contains("end frame"));
    assert!(display(TraceError::ChecksumMismatch {
        frame: "insts",
        expect: 1,
        got: 2
    })
    .contains("insts"));
}
