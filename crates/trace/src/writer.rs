//! Streaming, chunked trace encoding.

use std::io::Write;

use dol_isa::{RetiredInst, SparseMemory};

use crate::codec::{encode_inst, DeltaState};
use crate::varint::write_u64;
use crate::{
    crc32, TraceError, TraceHeader, CHUNK_TARGET_BYTES, FRAME_END, FRAME_HEADER, FRAME_INST,
    FRAME_MEM, MAGIC, PAGES_PER_FRAME, PAGE_BYTES, VERSION,
};

/// Writes a `dol-trace` stream chunk by chunk.
///
/// Usage order is fixed: construct (writes magic + header), optionally
/// [`write_memory`](Self::write_memory), then [`push`](Self::push)
/// instructions, then [`finish`](Self::finish). Memory must precede
/// instructions because a streaming replayer needs the image loaded
/// before the first value callback; pushing first and then writing
/// memory is a caller bug and panics.
///
/// Only one instruction chunk is buffered at a time — the writer never
/// holds the whole trace.
pub struct TraceWriter<W: Write> {
    w: W,
    declared_insts: u64,
    chunk: Vec<u8>,
    chunk_insts: u32,
    total_insts: u64,
    bytes_written: u64,
    state: DeltaState,
    insts_started: bool,
}

impl<W: Write> TraceWriter<W> {
    /// Starts a stream on `w`: writes the magic, version, and header
    /// frame.
    pub fn new(mut w: W, header: &TraceHeader) -> Result<Self, TraceError> {
        let name = header.name.as_bytes();
        if name.len() > u16::MAX as usize {
            return Err(TraceError::Corrupt(format!(
                "workload name is {} bytes; the header caps it at {}",
                name.len(),
                u16::MAX
            )));
        }
        w.write_all(&MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        let mut payload = Vec::with_capacity(2 + name.len() + 16);
        payload.extend_from_slice(&(name.len() as u16).to_le_bytes());
        payload.extend_from_slice(name);
        payload.extend_from_slice(&header.seed.to_le_bytes());
        payload.extend_from_slice(&header.insts.to_le_bytes());
        let mut bytes_written = (MAGIC.len() + 4) as u64;
        bytes_written += write_frame(&mut w, FRAME_HEADER, &payload)?;
        Ok(TraceWriter {
            w,
            declared_insts: header.insts,
            chunk: Vec::with_capacity(CHUNK_TARGET_BYTES + 64),
            chunk_insts: 0,
            total_insts: 0,
            bytes_written,
            state: DeltaState::new(),
            insts_started: false,
        })
    }

    /// Serializes `mem` as memory frames (pages ascending, up to
    /// [`PAGES_PER_FRAME`] per frame).
    ///
    /// # Panics
    ///
    /// Panics if any instruction has already been pushed.
    pub fn write_memory(&mut self, mem: &SparseMemory) -> Result<(), TraceError> {
        assert!(
            !self.insts_started,
            "memory frames must precede instruction frames"
        );
        let pages = mem.pages_sorted();
        for group in pages.chunks(PAGES_PER_FRAME) {
            // At most ten varint bytes per page delta, then the raw page.
            let mut payload = Vec::with_capacity(2 + group.len() * (10 + PAGE_BYTES));
            payload.extend_from_slice(&(group.len() as u16).to_le_bytes());
            let mut prev_page = 0u64;
            for &(addr, words) in group {
                let page = addr / PAGE_BYTES as u64;
                write_u64(&mut payload, page.wrapping_sub(prev_page));
                prev_page = page;
                for &word in words.iter() {
                    payload.extend_from_slice(&word.to_le_bytes());
                }
            }
            self.bytes_written += write_frame(&mut self.w, FRAME_MEM, &payload)?;
        }
        Ok(())
    }

    /// Appends one instruction, flushing a frame when the chunk target
    /// is reached.
    pub fn push(&mut self, inst: &RetiredInst) -> Result<(), TraceError> {
        self.insts_started = true;
        encode_inst(&mut self.chunk, &mut self.state, inst);
        self.chunk_insts += 1;
        self.total_insts += 1;
        if self.chunk.len() >= CHUNK_TARGET_BYTES {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), TraceError> {
        if self.chunk_insts == 0 {
            return Ok(());
        }
        let mut payload = Vec::with_capacity(4 + self.chunk.len());
        payload.extend_from_slice(&self.chunk_insts.to_le_bytes());
        payload.extend_from_slice(&self.chunk);
        self.bytes_written += write_frame(&mut self.w, FRAME_INST, &payload)?;
        self.chunk.clear();
        self.chunk_insts = 0;
        // Frames are self-contained: the decoder's delta state resets at
        // each frame boundary, so the encoder's must too.
        self.state = DeltaState::new();
        Ok(())
    }

    /// Flushes the tail chunk and writes the end frame, returning the
    /// sink and the total bytes written. Errors if the pushed
    /// instruction count does not match the header's declaration.
    pub fn finish(mut self) -> Result<(W, u64), TraceError> {
        self.flush_chunk()?;
        if self.total_insts != self.declared_insts {
            return Err(TraceError::Corrupt(format!(
                "header declared {} instructions but {} were written",
                self.declared_insts, self.total_insts
            )));
        }
        let payload = self.total_insts.to_le_bytes();
        self.bytes_written += write_frame(&mut self.w, FRAME_END, &payload)?;
        self.w.flush()?;
        Ok((self.w, self.bytes_written))
    }
}

/// Writes one `tag | len | crc | payload` frame; returns its total size.
fn write_frame<W: Write>(w: &mut W, tag: u8, payload: &[u8]) -> Result<u64, TraceError> {
    w.write_all(&[tag])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(&crc32(payload).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(9 + payload.len() as u64)
}

/// Encodes a whole workload (memory image + instruction stream) to `w`.
/// Returns the total bytes written. The header's `insts` must equal
/// `insts.len()`.
pub fn encode_workload<W: Write>(
    w: W,
    header: &TraceHeader,
    memory: &SparseMemory,
    insts: &[RetiredInst],
) -> Result<u64, TraceError> {
    let mut writer = TraceWriter::new(w, header)?;
    writer.write_memory(memory)?;
    for inst in insts {
        writer.push(inst)?;
    }
    let (_, bytes) = writer.finish()?;
    Ok(bytes)
}
