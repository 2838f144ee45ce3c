//! Streaming, validated trace decoding and the replay instruction
//! source.

use std::io::Read;

use dol_isa::{InstSource, RetiredInst, SparseMemory, Trace};

use crate::codec::{decode_inst, DeltaState};
use crate::varint::read_u64;
use crate::{
    crc32, TraceError, TraceHeader, FRAME_END, FRAME_HEADER, FRAME_INST, FRAME_MEM, MAGIC,
    MAX_FRAME_BYTES, PAGE_BYTES, VERSION,
};

/// Reads a `dol-trace` stream frame by frame.
///
/// Construction parses and validates the magic, version, and header
/// frame. [`read_memory`](Self::read_memory) then consumes the memory
/// frames (callers that only want the instruction stream may skip it —
/// [`next_inst`](Self::next_inst) discards any unread memory frames,
/// still validating their checksums). Only one instruction frame is
/// resident at a time.
pub struct TraceReader<R: Read> {
    r: R,
    header: TraceHeader,
    /// The payload of the frame read last. One buffer serves every
    /// frame; while an instruction frame is being decoded it holds that
    /// frame, count prefix included.
    chunk: Vec<u8>,
    pos: usize,
    chunk_insts_left: u32,
    state: DeltaState,
    memory_done: bool,
    ended: bool,
    decoded_insts: u64,
    bytes_read: u64,
}

impl<R: Read> TraceReader<R> {
    /// Opens a stream: reads the magic, version, and header frame.
    pub fn new(mut r: R) -> Result<Self, TraceError> {
        let mut magic = [0u8; 8];
        read_exact_or(&mut r, &mut magic, "file magic")?;
        if magic != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut ver = [0u8; 4];
        read_exact_or(&mut r, &mut ver, "format version")?;
        let version = u32::from_le_bytes(ver);
        if version != VERSION {
            return Err(TraceError::UnsupportedVersion(version));
        }
        let mut bytes_read = 12u64;
        let mut chunk = Vec::new();
        let tag = read_frame(&mut r, &mut bytes_read, &mut chunk)?
            .ok_or(TraceError::Truncated("missing header frame"))?;
        if tag != FRAME_HEADER {
            return Err(TraceError::Corrupt(format!(
                "expected header frame, found tag {tag:#04x}"
            )));
        }
        let header = parse_header(&chunk)?;
        Ok(TraceReader {
            r,
            header,
            chunk,
            pos: 0,
            chunk_insts_left: 0,
            state: DeltaState::new(),
            memory_done: false,
            ended: false,
            decoded_insts: 0,
            bytes_read,
        })
    }

    /// The header frame's metadata.
    pub fn header(&self) -> &TraceHeader {
        &self.header
    }

    /// Bytes consumed from the underlying stream so far.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Instructions decoded so far.
    pub fn insts_decoded(&self) -> u64 {
        self.decoded_insts
    }

    /// Reconstructs the memory image from the memory frames. Must be
    /// called before the first [`next_inst`](Self::next_inst); returns an
    /// empty image for a trace with no memory section.
    pub fn read_memory(&mut self) -> Result<SparseMemory, TraceError> {
        assert!(
            !self.memory_done,
            "read_memory may only be called once, before next_inst"
        );
        let mut mem = SparseMemory::new();
        loop {
            let Some(tag) = read_frame(&mut self.r, &mut self.bytes_read, &mut self.chunk)? else {
                return Err(TraceError::Truncated("missing end frame"));
            };
            if tag != FRAME_MEM {
                // The one-frame lookahead that found the end of the
                // memory section is consumed eagerly: it is either the
                // first instruction chunk or the end frame.
                match tag {
                    FRAME_INST => self.load_inst_chunk()?,
                    FRAME_END => self.check_end()?,
                    _ => {
                        return Err(TraceError::Corrupt(format!(
                            "unexpected frame tag {tag:#04x}"
                        )))
                    }
                }
                self.memory_done = true;
                // Memory frames are the largest; do not hold their
                // buffer through the instruction stream.
                self.chunk.shrink_to_fit();
                return Ok(mem);
            }
            decode_memory_frame(&self.chunk, &mut mem)?;
        }
    }

    /// Starts decoding the instruction frame just read into `chunk`.
    fn load_inst_chunk(&mut self) -> Result<(), TraceError> {
        let Some(prefix) = self.chunk.get(..4) else {
            return Err(TraceError::Corrupt(
                "instruction frame smaller than its count prefix".into(),
            ));
        };
        let count = u32::from_le_bytes(prefix.try_into().expect("4 bytes"));
        if count == 0 {
            return Err(TraceError::Corrupt("empty instruction frame".into()));
        }
        self.pos = 4;
        self.chunk_insts_left = count;
        self.state = DeltaState::new();
        Ok(())
    }

    /// Validates the end frame just read into `chunk`.
    fn check_end(&mut self) -> Result<(), TraceError> {
        let Ok(total) = <[u8; 8]>::try_from(&self.chunk[..]) else {
            return Err(TraceError::Corrupt(format!(
                "end frame payload is {} bytes, expected 8",
                self.chunk.len()
            )));
        };
        let total = u64::from_le_bytes(total);
        if total != self.decoded_insts || total != self.header.insts {
            return Err(TraceError::Corrupt(format!(
                "instruction count mismatch: header {}, end frame {}, decoded {}",
                self.header.insts, total, self.decoded_insts
            )));
        }
        self.ended = true;
        Ok(())
    }

    /// Advances frames until the current chunk holds an undecoded
    /// instruction. Returns `false` at a validated end of stream.
    fn refill(&mut self) -> Result<bool, TraceError> {
        loop {
            if self.ended {
                return Ok(false);
            }
            if self.chunk_insts_left > 0 {
                return Ok(true);
            }
            let tag = read_frame(&mut self.r, &mut self.bytes_read, &mut self.chunk)?
                .ok_or(TraceError::Truncated("missing end frame"))?;
            match tag {
                FRAME_MEM if !self.memory_done => {
                    // Caller skipped read_memory; the image is discarded
                    // but the frame is still checksum-validated (done in
                    // read_frame) and structurally decoded.
                    let mut scratch = SparseMemory::new();
                    decode_memory_frame(&self.chunk, &mut scratch)?;
                }
                FRAME_INST => {
                    self.memory_done = true;
                    self.load_inst_chunk()?;
                }
                FRAME_END => {
                    self.memory_done = true;
                    self.check_end()?;
                }
                _ => {
                    return Err(TraceError::Corrupt(format!(
                        "unexpected frame tag {tag:#04x}"
                    )))
                }
            }
        }
    }

    /// Decodes one instruction out of the current chunk (which must hold
    /// one — see [`refill`](Self::refill)), maintaining the counters and
    /// checking that the frame's last instruction ends at its last byte.
    /// Forced inline for the reason given on [`decode_inst`].
    #[inline(always)]
    fn decode_one(&mut self) -> Result<RetiredInst, TraceError> {
        let inst = decode_inst(&self.chunk, &mut self.pos, &mut self.state)?;
        self.chunk_insts_left -= 1;
        self.decoded_insts += 1;
        if self.chunk_insts_left == 0 && self.pos != self.chunk.len() {
            return Err(TraceError::Corrupt(format!(
                "instruction frame has {} trailing bytes",
                self.chunk.len() - self.pos
            )));
        }
        Ok(inst)
    }

    /// Decodes the next instruction, or returns `Ok(None)` at a
    /// validated end of stream.
    ///
    /// While the current frame still holds instructions this decodes in
    /// place; the next frame is read only once this one is drained. That
    /// skips no check: the stream is marked ended only when a drained
    /// frame is followed by a valid end frame.
    #[inline]
    pub fn next_inst(&mut self) -> Result<Option<RetiredInst>, TraceError> {
        if self.chunk_insts_left == 0 && !self.refill()? {
            return Ok(None);
        }
        self.decode_one().map(Some)
    }
}

/// Adapts a [`TraceReader`] into an infallible [`InstSource`] for the
/// timing model's generic hot edge: the simulator pulls one instruction
/// per retire through [`TraceReader::next_inst`].
///
/// A decode failure ends the stream; the run completes on the
/// instructions decoded so far (for a bad checksum, exactly those of
/// the frames before the damaged one) and the caller must check
/// [`error`](Self::error) afterwards (the harness treats a stored error
/// — or a short stream — as fatal).
pub struct ReplaySource<R: Read> {
    reader: TraceReader<R>,
    error: Option<TraceError>,
}

impl<R: Read> ReplaySource<R> {
    /// Wraps a reader positioned at the instruction section (i.e. after
    /// [`TraceReader::read_memory`]).
    pub fn new(reader: TraceReader<R>) -> Self {
        ReplaySource {
            reader,
            error: None,
        }
    }

    /// The first decode error hit mid-stream, if any.
    pub fn error(&self) -> Option<&TraceError> {
        self.error.as_ref()
    }

    /// The underlying reader (for byte/instruction counters).
    pub fn reader(&self) -> &TraceReader<R> {
        &self.reader
    }
}

impl<R: Read> InstSource for ReplaySource<R> {
    #[inline]
    fn next_inst(&mut self) -> Option<RetiredInst> {
        if self.error.is_some() {
            return None;
        }
        match self.reader.next_inst() {
            Ok(inst) => inst,
            Err(e) => {
                self.error = Some(e);
                None
            }
        }
    }
}

/// Decodes a whole trace: header, memory image, and instruction stream.
pub fn decode_workload<R: Read>(r: R) -> Result<(TraceHeader, SparseMemory, Trace), TraceError> {
    let mut reader = TraceReader::new(r)?;
    let memory = reader.read_memory()?;
    let mut trace = Trace::new();
    while let Some(inst) = reader.next_inst()? {
        trace.push(inst);
    }
    Ok((reader.header, memory, trace))
}

fn parse_header(payload: &[u8]) -> Result<TraceHeader, TraceError> {
    if payload.len() < 2 {
        return Err(TraceError::Corrupt("header frame too small".into()));
    }
    let name_len = u16::from_le_bytes(payload[..2].try_into().expect("2 bytes")) as usize;
    let rest = &payload[2..];
    if rest.len() != name_len + 16 {
        return Err(TraceError::Corrupt(format!(
            "header frame is {} bytes, expected {}",
            payload.len(),
            2 + name_len + 16
        )));
    }
    let name = std::str::from_utf8(&rest[..name_len])
        .map_err(|_| TraceError::Corrupt("workload name is not UTF-8".into()))?
        .to_string();
    let seed = u64::from_le_bytes(rest[name_len..name_len + 8].try_into().expect("8 bytes"));
    let insts = u64::from_le_bytes(rest[name_len + 8..].try_into().expect("8 bytes"));
    Ok(TraceHeader { name, seed, insts })
}

fn decode_memory_frame(payload: &[u8], mem: &mut SparseMemory) -> Result<(), TraceError> {
    if payload.len() < 2 {
        return Err(TraceError::Corrupt("memory frame too small".into()));
    }
    let count = u16::from_le_bytes(payload[..2].try_into().expect("2 bytes")) as usize;
    let mut pos = 2;
    let mut page = 0u64;
    for _ in 0..count {
        page = page.wrapping_add(read_u64(payload, &mut pos)?);
        let Some(bytes) = payload.get(pos..pos + PAGE_BYTES) else {
            return Err(TraceError::Corrupt(format!(
                "memory page runs {} bytes past the frame end",
                pos + PAGE_BYTES - payload.len()
            )));
        };
        pos += PAGE_BYTES;
        // The raw words copy straight into the page's storage; on an
        // error the half-filled image is discarded with the rest of the
        // read.
        let words = mem.page_mut(page.wrapping_mul(PAGE_BYTES as u64));
        for (w, b) in words.iter_mut().zip(bytes.chunks_exact(8)) {
            *w = u64::from_le_bytes(b.try_into().expect("8 bytes"));
        }
    }
    if pos != payload.len() {
        return Err(TraceError::Corrupt(format!(
            "memory frame has {} trailing bytes",
            payload.len() - pos
        )));
    }
    Ok(())
}

/// Reads one frame's payload into `payload` (reusing its allocation)
/// and returns the frame's tag: `Ok(None)` at a clean EOF on the tag
/// byte, `Err(Truncated)` if the stream dies inside the frame.
fn read_frame<R: Read>(
    r: &mut R,
    bytes_read: &mut u64,
    payload: &mut Vec<u8>,
) -> Result<Option<u8>, TraceError> {
    let mut tag = [0u8; 1];
    loop {
        match r.read(&mut tag) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(TraceError::Io(e)),
        }
    }
    let mut len4 = [0u8; 4];
    read_exact_or(r, &mut len4, "frame length")?;
    let len = u32::from_le_bytes(len4);
    if len > MAX_FRAME_BYTES {
        return Err(TraceError::Corrupt(format!(
            "frame declares {len} payload bytes (cap {MAX_FRAME_BYTES})"
        )));
    }
    let mut crc4 = [0u8; 4];
    read_exact_or(r, &mut crc4, "frame checksum")?;
    let expect = u32::from_le_bytes(crc4);
    // Growing zero-fills only the new tail; `read_exact_or` overwrites
    // the rest.
    payload.resize(len as usize, 0);
    read_exact_or(r, payload, "frame payload")?;
    let got = crc32(payload);
    if got != expect {
        let frame = match tag[0] {
            FRAME_HEADER => "header",
            FRAME_MEM => "memory",
            FRAME_INST => "insts",
            FRAME_END => "end",
            _ => "unknown",
        };
        return Err(TraceError::ChecksumMismatch { frame, expect, got });
    }
    *bytes_read += 9 + len as u64;
    Ok(Some(tag[0]))
}

/// `read_exact` with EOF mapped to [`TraceError::Truncated`].
fn read_exact_or<R: Read>(r: &mut R, buf: &mut [u8], ctx: &'static str) -> Result<(), TraceError> {
    r.read_exact(buf).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            TraceError::Truncated(ctx)
        } else {
            TraceError::Io(e)
        }
    })
}
