//! Per-instruction binary encoding.
//!
//! One opcode byte (kind code in the low 4 bits, operand-presence flags
//! above), a zigzag-varint PC delta against the previous instruction,
//! optional register bytes, then a kind-specific payload. Memory
//! addresses are delta-encoded against the previous load/store address
//! (one shared stream — strided kernels interleave loads and stores over
//! the same regions); control-flow targets are delta-encoded against the
//! instruction's own PC, which keeps loop back-edges at one or two
//! bytes.
//!
//! The delta state resets at every instruction-frame boundary so frames
//! decode independently.

use dol_isa::{InstKind, Reg, RetiredInst};

use crate::varint::{read_u64, unzigzag, write_u64, zigzag};
use crate::TraceError;

const K_ALU: u8 = 0;
const K_LOAD: u8 = 1;
const K_STORE: u8 = 2;
const K_BRANCH_TAKEN: u8 = 3;
const K_BRANCH_NOT: u8 = 4;
const K_JUMP: u8 = 5;
const K_CALL: u8 = 6;
const K_RET: u8 = 7;
const K_OTHER: u8 = 8;

const FLAG_DST: u8 = 1 << 4;
const FLAG_SRC0: u8 = 1 << 5;
const FLAG_SRC1: u8 = 1 << 6;

/// The rolling prediction context for delta encoding.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeltaState {
    prev_pc: u64,
    prev_addr: u64,
}

impl DeltaState {
    pub(crate) fn new() -> Self {
        DeltaState::default()
    }
}

#[inline]
fn delta(from: u64, to: u64) -> u64 {
    zigzag(to.wrapping_sub(from) as i64)
}

#[inline]
fn undelta(from: u64, code: u64) -> u64 {
    from.wrapping_add(unzigzag(code) as u64)
}

/// Appends one encoded instruction to `buf`, updating `st`.
pub(crate) fn encode_inst(buf: &mut Vec<u8>, st: &mut DeltaState, inst: &RetiredInst) {
    let code = match inst.kind {
        InstKind::Alu { .. } => K_ALU,
        InstKind::Load { .. } => K_LOAD,
        InstKind::Store { .. } => K_STORE,
        InstKind::Branch { taken: true, .. } => K_BRANCH_TAKEN,
        InstKind::Branch { taken: false, .. } => K_BRANCH_NOT,
        InstKind::Jump { .. } => K_JUMP,
        InstKind::Call { .. } => K_CALL,
        InstKind::Ret { .. } => K_RET,
        InstKind::Other => K_OTHER,
    };
    let mut op = code;
    if inst.dst.is_some() {
        op |= FLAG_DST;
    }
    if inst.srcs[0].is_some() {
        op |= FLAG_SRC0;
    }
    if inst.srcs[1].is_some() {
        op |= FLAG_SRC1;
    }
    buf.push(op);
    write_u64(buf, delta(st.prev_pc, inst.pc));
    if let Some(r) = inst.dst {
        buf.push(r.index() as u8);
    }
    for r in inst.srcs.iter().flatten() {
        buf.push(r.index() as u8);
    }
    match inst.kind {
        InstKind::Alu { latency } => buf.push(latency),
        InstKind::Load { addr, value } => {
            write_u64(buf, delta(st.prev_addr, addr));
            write_u64(buf, value);
            st.prev_addr = addr;
        }
        InstKind::Store { addr } => {
            write_u64(buf, delta(st.prev_addr, addr));
            st.prev_addr = addr;
        }
        InstKind::Branch { target, .. } | InstKind::Jump { target } | InstKind::Ret { target } => {
            write_u64(buf, delta(inst.pc, target));
        }
        InstKind::Call { target, return_to } => {
            write_u64(buf, delta(inst.pc, target));
            write_u64(buf, delta(inst.pc, return_to));
        }
        InstKind::Other => {}
    }
    st.prev_pc = inst.pc;
}

#[inline]
fn read_reg(buf: &[u8], pos: &mut usize) -> Result<Reg, TraceError> {
    let Some(&b) = buf.get(*pos) else {
        return Err(corrupt("register byte runs off chunk end"));
    };
    *pos += 1;
    Reg::from_index(b as usize).ok_or_else(|| bad_register(b))
}

/// Error constructors, kept out of line so the decoder's hot path stays
/// small enough to inline.
#[cold]
#[inline(never)]
fn corrupt(msg: &'static str) -> TraceError {
    TraceError::Corrupt(msg.into())
}

#[cold]
#[inline(never)]
fn bad_register(b: u8) -> TraceError {
    TraceError::Corrupt(format!("register index {b} out of range"))
}

#[cold]
#[inline(never)]
fn bad_opcode(op: u8) -> TraceError {
    TraceError::Corrupt(format!("invalid opcode byte {op:#04x}"))
}

/// Decodes one instruction from `buf` at `*pos`, updating `st`.
///
/// Forced inline, together with [`read_u64`] and the reader's
/// `decode_one`: left to itself the compiler outlines the decoder, and
/// replay decode then runs at about a third of the speed (the result
/// travels through memory at every call level).
#[inline(always)]
pub(crate) fn decode_inst(
    buf: &[u8],
    pos: &mut usize,
    st: &mut DeltaState,
) -> Result<RetiredInst, TraceError> {
    let Some(&op) = buf.get(*pos) else {
        return Err(corrupt("opcode byte runs off chunk end"));
    };
    *pos += 1;
    let code = op & 0x0F;
    if code > K_OTHER || op & 0x80 != 0 {
        return Err(bad_opcode(op));
    }
    let pc = undelta(st.prev_pc, read_u64(buf, pos)?);
    let dst = if op & FLAG_DST != 0 {
        Some(read_reg(buf, pos)?)
    } else {
        None
    };
    let src0 = if op & FLAG_SRC0 != 0 {
        Some(read_reg(buf, pos)?)
    } else {
        None
    };
    let src1 = if op & FLAG_SRC1 != 0 {
        Some(read_reg(buf, pos)?)
    } else {
        None
    };
    let kind = match code {
        K_ALU => {
            let Some(&latency) = buf.get(*pos) else {
                return Err(corrupt("latency byte runs off chunk end"));
            };
            *pos += 1;
            InstKind::Alu { latency }
        }
        K_LOAD => {
            let addr = undelta(st.prev_addr, read_u64(buf, pos)?);
            let value = read_u64(buf, pos)?;
            st.prev_addr = addr;
            InstKind::Load { addr, value }
        }
        K_STORE => {
            let addr = undelta(st.prev_addr, read_u64(buf, pos)?);
            st.prev_addr = addr;
            InstKind::Store { addr }
        }
        K_BRANCH_TAKEN | K_BRANCH_NOT => InstKind::Branch {
            taken: code == K_BRANCH_TAKEN,
            target: undelta(pc, read_u64(buf, pos)?),
        },
        K_JUMP => InstKind::Jump {
            target: undelta(pc, read_u64(buf, pos)?),
        },
        K_CALL => {
            let target = undelta(pc, read_u64(buf, pos)?);
            let return_to = undelta(pc, read_u64(buf, pos)?);
            InstKind::Call { target, return_to }
        }
        K_RET => InstKind::Ret {
            target: undelta(pc, read_u64(buf, pos)?),
        },
        _ => InstKind::Other,
    };
    st.prev_pc = pc;
    Ok(RetiredInst {
        pc,
        kind,
        dst,
        srcs: [src0, src1],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(insts: &[RetiredInst]) {
        let mut buf = Vec::new();
        let mut enc = DeltaState::new();
        for i in insts {
            encode_inst(&mut buf, &mut enc, i);
        }
        let mut dec = DeltaState::new();
        let mut pos = 0;
        for want in insts {
            let got = decode_inst(&buf, &mut pos, &mut dec).unwrap();
            assert_eq!(&got, want);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn every_kind_round_trips() {
        let r = |i: usize| Reg::from_index(i);
        round_trip(&[
            RetiredInst {
                pc: 0x1000,
                kind: InstKind::Alu { latency: 3 },
                dst: r(1),
                srcs: [r(2), r(3)],
            },
            RetiredInst {
                pc: 0x1004,
                kind: InstKind::Load {
                    addr: 0x8000,
                    value: u64::MAX,
                },
                dst: r(31),
                srcs: [r(0), None],
            },
            RetiredInst {
                pc: 0x1008,
                kind: InstKind::Store { addr: 0x7FF8 },
                dst: None,
                srcs: [r(4), r(5)],
            },
            RetiredInst {
                pc: 0x100C,
                kind: InstKind::Branch {
                    taken: true,
                    target: 0x1000,
                },
                dst: None,
                srcs: [r(6), None],
            },
            RetiredInst {
                pc: 0x1010,
                kind: InstKind::Branch {
                    taken: false,
                    target: 0x2000,
                },
                dst: None,
                srcs: [None, None],
            },
            RetiredInst {
                pc: 0x1014,
                kind: InstKind::Jump { target: 0x40 },
                dst: None,
                srcs: [None, None],
            },
            RetiredInst {
                pc: 0x44,
                kind: InstKind::Call {
                    target: 0x3000,
                    return_to: 0x48,
                },
                dst: None,
                srcs: [None, None],
            },
            RetiredInst {
                pc: 0x3000,
                kind: InstKind::Ret { target: 0x48 },
                dst: None,
                srcs: [None, None],
            },
            RetiredInst {
                pc: 0x48,
                kind: InstKind::Other,
                dst: None,
                srcs: [None, None],
            },
        ]);
    }

    #[test]
    fn sequential_stream_is_compact() {
        // A +4 PC stride and +8 address stride: the common case must
        // stay well under the 48-byte in-memory footprint.
        let insts: Vec<RetiredInst> = (0..1000u64)
            .map(|i| RetiredInst {
                pc: 0x1000 + 4 * i,
                kind: InstKind::Load {
                    addr: 0x8000 + 8 * i,
                    value: i % 5,
                },
                dst: Reg::from_index(1),
                srcs: [Reg::from_index(2), None],
            })
            .collect();
        let mut buf = Vec::new();
        let mut st = DeltaState::new();
        for i in &insts {
            encode_inst(&mut buf, &mut st, i);
        }
        assert!(
            buf.len() < insts.len() * 8,
            "{} bytes for {} insts",
            buf.len(),
            insts.len()
        );
        round_trip(&insts);
    }

    #[test]
    fn invalid_opcode_and_register_are_corrupt() {
        let mut st = DeltaState::new();
        // Kind code 9 does not exist.
        assert!(matches!(
            decode_inst(&[0x09, 0x00], &mut 0, &mut st),
            Err(TraceError::Corrupt(_))
        ));
        // High bit must be zero.
        assert!(matches!(
            decode_inst(&[0x80, 0x00], &mut 0, &mut st),
            Err(TraceError::Corrupt(_))
        ));
        // Register index 40 is out of range (opcode: ALU + dst flag).
        assert!(matches!(
            decode_inst(&[K_ALU | FLAG_DST, 0x00, 40, 1], &mut 0, &mut st),
            Err(TraceError::Corrupt(_))
        ));
    }
}
