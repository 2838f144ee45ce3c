#![warn(missing_docs)]

//! `dol-trace` (format version 2): a compact, versioned binary
//! capture/replay format for retired-instruction streams.
//!
//! The paper evaluates prefetchers on retired-instruction traces recorded
//! from real binaries under gem5. This crate gives the reproduction the
//! same decoupling: any workload the `dol_isa` VM can execute is recorded
//! once to disk and replayed through the timing model arbitrarily many
//! times — and, later, externally generated traces can be imported by
//! writing this format.
//!
//! # On-disk layout
//!
//! ```text
//! file    := magic version frame*
//! magic   := "DOLTRACE"                      (8 bytes)
//! version := u32 LE                          (currently 2)
//! frame   := tag u8 | payload_len u32 LE | crc32 u32 LE | payload
//! ```
//!
//! Frames appear in a fixed order: one `'H'` header frame (workload name,
//! seed, declared instruction count), zero or more `'M'` memory frames
//! (the final memory image pointer prefetchers dereference during
//! replay), one or more `'I'` instruction frames, and exactly one `'E'`
//! end frame (total instruction count, cross-checked against the header
//! and against what was actually decoded). Every payload is covered by a
//! CRC-32 (IEEE); a missing end frame distinguishes truncation from
//! corruption.
//!
//! Instruction frames are self-contained: the PC/address delta state
//! resets at each frame boundary, so a frame can be decoded knowing only
//! its own bytes. Within a frame each [`dol_isa::RetiredInst`] is one
//! opcode byte (kind + operand-presence bits), a zigzag-varint PC delta,
//! optional register bytes, and a kind-specific payload with memory
//! addresses delta-encoded against the previous memory access and control
//! targets delta-encoded against the instruction's own PC. On the bundled
//! kernels instruction frames take 5–10 bytes per instruction.
//!
//! Memory frames carry up to [`PAGES_PER_FRAME`] 4 KiB pages, addresses
//! ascending:
//!
//! ```text
//! memory  := page_count u16 LE | page*
//! page    := page_delta varint | word u64 LE × 512   (4096 raw bytes)
//! ```
//!
//! The page number is a varint delta against the previous page in the
//! frame (the first against page 0). Words are stored raw because image
//! words are mostly full-width data, which a varint stretches to 9–10
//! bytes, and raw pages let the reader copy each page straight into
//! [`dol_isa::SparseMemory`]. A page that runs past its frame's end, or
//! bytes left after the last page, are [`TraceError::Corrupt`]. The
//! memory section usually dominates a file: nine 200 000-instruction
//! `spec21` kernels record to 18–55 bytes per instruction in total, of
//! which 5.9–10.2 are instruction frames. Their memory sections take
//! 50.0 MB, against 51.2 MB under version 1's per-word varints. Images
//! of mostly small words grow (`btree_search` 1.0 → 4.2 MB, `spmv_csr`
//! 7.8 → 9.5 MB, `listchase` 1.7 → 2.1 MB); the other six shrink 16%.
//!
//! [`TraceWriter`] and [`TraceReader`] stream chunk by chunk — neither
//! ever materializes the whole instruction stream. [`ReplaySource`]
//! adapts a reader into a [`dol_isa::InstSource`] so a file on disk is a
//! drop-in, fully monomorphized instruction source for
//! `dol_cpu::System::run` — no `dyn` dispatch per retired instruction.
//!
//! ```
//! use dol_isa::{InstKind, RetiredInst, SparseMemory};
//! use dol_trace::{TraceHeader, TraceReader, TraceWriter};
//!
//! let inst = RetiredInst {
//!     pc: 0x1000,
//!     kind: InstKind::Load { addr: 0x8000, value: 7 },
//!     dst: Some(dol_isa::Reg::R1),
//!     srcs: [Some(dol_isa::Reg::R2), None],
//! };
//! let header = TraceHeader { name: "demo".into(), seed: 1, insts: 1 };
//! let mut w = TraceWriter::new(Vec::new(), &header).unwrap();
//! w.write_memory(&SparseMemory::new()).unwrap();
//! w.push(&inst).unwrap();
//! let (bytes, _size) = w.finish().unwrap();
//!
//! let mut r = TraceReader::new(&bytes[..]).unwrap();
//! assert_eq!(r.header().name, "demo");
//! let _memory = r.read_memory().unwrap();
//! assert_eq!(r.next_inst().unwrap(), Some(inst));
//! assert_eq!(r.next_inst().unwrap(), None);
//! ```

mod codec;
mod crc;
mod reader;
mod varint;
mod writer;

pub(crate) use crc::crc32;
pub use reader::{decode_workload, ReplaySource, TraceReader};
pub use writer::{encode_workload, TraceWriter};

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"DOLTRACE";

/// The format version this crate reads and writes.
pub const VERSION: u32 = 2;

/// Frame tags.
pub(crate) const FRAME_HEADER: u8 = b'H';
pub(crate) const FRAME_MEM: u8 = b'M';
pub(crate) const FRAME_INST: u8 = b'I';
pub(crate) const FRAME_END: u8 = b'E';

/// Upper bound on a single frame's payload; anything larger is treated
/// as corruption rather than allocated.
pub(crate) const MAX_FRAME_BYTES: u32 = 16 << 20;

/// Instruction frames are flushed once their encoded payload reaches
/// this size.
pub(crate) const CHUNK_TARGET_BYTES: usize = 64 << 10;

/// Maximum 4 KiB pages per memory frame.
pub const PAGES_PER_FRAME: usize = 32;

/// Bytes of one memory-image page as stored in a memory frame.
pub(crate) const PAGE_BYTES: usize = 8 * dol_isa::SparseMemory::PAGE_WORDS;

/// The metadata carried by a trace file's header frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHeader {
    /// Workload name (for harness path mapping and sanity checks).
    pub name: String,
    /// The seed the workload was built with.
    pub seed: u64,
    /// Total retired instructions in the file. Declared up front so
    /// readers can validate truncation and pre-size buffers; the writer
    /// refuses to finish on a mismatch.
    pub insts: u64,
}

/// Everything that can go wrong reading or writing a trace.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure (not a format problem).
    Io(std::io::Error),
    /// The stream does not start with the `DOLTRACE` magic.
    BadMagic,
    /// The file declares a format version this reader does not support.
    UnsupportedVersion(u32),
    /// The stream ended before the bytes it promised (mid-frame, or
    /// missing the end frame). The context names what was being read.
    Truncated(&'static str),
    /// A frame's payload does not match its recorded CRC-32.
    ChecksumMismatch {
        /// Which frame kind failed ("header", "memory", "insts", "end").
        frame: &'static str,
        /// CRC recorded in the frame.
        expect: u32,
        /// CRC computed over the payload.
        got: u32,
    },
    /// Structurally invalid content: bad frame tag, oversized frame,
    /// invalid kind/register encoding, or an instruction-count mismatch.
    Corrupt(String),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace I/O error: {e}"),
            TraceError::BadMagic => write!(f, "not a dol-trace file (bad magic)"),
            TraceError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported dol-trace version {v} (reader supports {VERSION})"
                )
            }
            TraceError::Truncated(ctx) => write!(f, "truncated trace: {ctx}"),
            TraceError::ChecksumMismatch { frame, expect, got } => write!(
                f,
                "checksum mismatch in {frame} frame: recorded {expect:#010x}, computed {got:#010x}"
            ),
            TraceError::Corrupt(msg) => write!(f, "corrupt trace: {msg}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}
