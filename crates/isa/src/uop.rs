//! Pre-decoded micro-op execution: the fast capture path.
//!
//! [`crate::Vm::step`] re-decodes every dynamic instruction: it validates
//! the PC against the program bounds, matches over [`Inst`], resolves
//! [`Operand`]s, and re-derives the destination/source register sets for
//! the retirement record. All of that is a pure function of the *static*
//! instruction, so a workload's program can be decoded **once** into a
//! flat array of micro-ops — branch targets resolved to array indices,
//! operand forms split into register/immediate variants, `dst`/`srcs`
//! and ALU latencies precomputed — and executed with a tight
//! threaded-dispatch loop that does nothing per retired instruction but
//! the architectural work.
//!
//! [`Vm::run_uop`] is the drop-in replacement for [`Vm::run`]: it reads
//! and writes the same architectural state (registers, memory, call
//! stack, PC, retirement count, halt flag) and produces a bit-identical
//! [`Trace`] and bit-identical [`VmError`]s — the equivalence proptests
//! and the all-workload golden test in `tests/uop_equivalence.rs` pin
//! this. The interpreter stays as the reference path.
//!
//! Every [`Vm::run_uop`] call decodes its program afresh: decode is one
//! linear pass over the static instructions, and memoizing it showed no
//! end-to-end gain.

use crate::vm::MAX_CALL_DEPTH;
use crate::{
    AluOp, Cond, Inst, InstKind, Operand, Program, Reg, RetiredInst, Trace, Vm, VmError, INST_BYTES,
};

/// A resolved control-flow edge: the target's micro-op index alongside
/// its byte PC (the PC is still needed for trace records and for
/// faithful `BadPc` values when the target is invalid).
#[derive(Debug, Clone, Copy)]
struct JumpTo {
    /// Micro-op index of the target; `usize::MAX` when the target PC is
    /// below the program base or misaligned (execution then raises
    /// `BadPc(pc)` exactly like the interpreter's fetch).
    ix: usize,
    /// Absolute target PC.
    pc: u64,
}

/// One pre-decoded micro-op. Operand forms are split (`AluRR`/`AluRI`,
/// `BranchRR`/`BranchRI`) so the hot loop never matches on [`Operand`];
/// register operands are pre-lowered to array indices and ALU latencies
/// are baked in.
#[derive(Debug, Clone, Copy)]
enum UopKind {
    /// `regs[dst] = value`.
    Imm { dst: usize, value: u64 },
    /// `regs[dst] = op(regs[a], regs[b])`.
    AluRR {
        op: AluOp,
        dst: usize,
        a: usize,
        b: usize,
        lat: u8,
    },
    /// `regs[dst] = op(regs[a], imm)`.
    AluRI {
        op: AluOp,
        dst: usize,
        a: usize,
        imm: u64,
        lat: u8,
    },
    /// `regs[dst] = mem[(regs[base] + offset) & !7]`.
    Load {
        dst: usize,
        base: usize,
        offset: u64,
    },
    /// `mem[(regs[base] + offset) & !7] = regs[src]`.
    Store {
        src: usize,
        base: usize,
        offset: u64,
    },
    /// `if cond(regs[a], regs[b]) goto to`.
    BranchRR {
        cond: Cond,
        a: usize,
        b: usize,
        to: JumpTo,
    },
    /// `if cond(regs[a], imm) goto to`.
    BranchRI {
        cond: Cond,
        a: usize,
        imm: u64,
        to: JumpTo,
    },
    /// Unconditional jump.
    Jump { to: JumpTo },
    /// Subroutine call.
    Call { to: JumpTo },
    /// Subroutine return.
    Ret,
    /// No operation.
    Nop,
    /// Stop execution.
    Halt,
}

/// A micro-op with its precomputed retirement metadata.
#[derive(Debug, Clone, Copy)]
struct Uop {
    kind: UopKind,
    dst: Option<Reg>,
    srcs: [Option<Reg>; 2],
}

/// A fully pre-decoded program: flat micro-op array, branch targets
/// resolved to indices.
#[derive(Debug)]
pub struct UopProgram {
    base_pc: u64,
    uops: Vec<Uop>,
}

/// Maps a PC to a candidate micro-op index. Below-base or misaligned
/// PCs map to `usize::MAX`; in-range validity is checked by the bounds
/// check of the execution loop's fetch.
#[inline]
fn pc_ix(base_pc: u64, pc: u64) -> usize {
    if pc < base_pc {
        return usize::MAX;
    }
    let off = pc - base_pc;
    if off % INST_BYTES != 0 {
        return usize::MAX;
    }
    (off / INST_BYTES) as usize
}

impl UopProgram {
    /// Decodes `program` into micro-ops.
    pub fn decode(program: &Program) -> Self {
        let base_pc = program.base_pc();
        let to = |pc: u64| JumpTo {
            ix: pc_ix(base_pc, pc),
            pc,
        };
        let uops = program
            .insts()
            .iter()
            .map(|inst| {
                let kind = match *inst {
                    Inst::Imm { dst, value } => UopKind::Imm {
                        dst: dst.index(),
                        value: value as u64,
                    },
                    Inst::Alu { op, dst, a, b } => match b {
                        Operand::Reg(b) => UopKind::AluRR {
                            op,
                            dst: dst.index(),
                            a: a.index(),
                            b: b.index(),
                            lat: op.latency(),
                        },
                        Operand::Imm(imm) => UopKind::AluRI {
                            op,
                            dst: dst.index(),
                            a: a.index(),
                            imm: imm as u64,
                            lat: op.latency(),
                        },
                    },
                    Inst::Load { dst, base, offset } => UopKind::Load {
                        dst: dst.index(),
                        base: base.index(),
                        offset: offset as u64,
                    },
                    Inst::Store { src, base, offset } => UopKind::Store {
                        src: src.index(),
                        base: base.index(),
                        offset: offset as u64,
                    },
                    Inst::Branch { cond, a, b, target } => match b {
                        Operand::Reg(b) => UopKind::BranchRR {
                            cond,
                            a: a.index(),
                            b: b.index(),
                            to: to(target),
                        },
                        Operand::Imm(imm) => UopKind::BranchRI {
                            cond,
                            a: a.index(),
                            imm: imm as u64,
                            to: to(target),
                        },
                    },
                    Inst::Jump { target } => UopKind::Jump { to: to(target) },
                    Inst::Call { target } => UopKind::Call { to: to(target) },
                    Inst::Ret => UopKind::Ret,
                    Inst::Nop => UopKind::Nop,
                    Inst::Halt => UopKind::Halt,
                };
                Uop {
                    kind,
                    dst: inst.dst(),
                    srcs: inst.srcs(),
                }
            })
            .collect();
        UopProgram { base_pc, uops }
    }

    /// Number of micro-ops (== static instructions).
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the program decoded to no micro-ops.
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }
}

/// Largest trace capacity reserved up front (full budgets are reserved
/// exactly below this; gigantic budgets grow geometrically as usual).
const MAX_RESERVE_INSTS: u64 = 1 << 21;

impl Vm {
    /// Runs until `Halt` or until `max_insts` instructions have retired
    /// (cumulative, like [`Vm::run`]), executing from the pre-decoded
    /// micro-op program. State transitions, the produced trace, and
    /// every error case are bit-identical to [`Vm::run`].
    pub fn run_uop(&mut self, max_insts: u64) -> Result<Trace, VmError> {
        let prog = UopProgram::decode(&self.program);
        let mut trace = Trace::new();
        if !self.halted && self.retired < max_insts {
            trace.reserve((max_insts - self.retired).min(MAX_RESERVE_INSTS) as usize);
        }
        self.run_uop_into(&prog, max_insts, &mut trace)?;
        Ok(trace)
    }

    /// The dispatch loop. Architectural state lives in locals where the
    /// interpreter would re-read it through `self`, and is committed
    /// back on every exit path so errors observe exactly the
    /// interpreter's state (PC at the erring instruction, retirement
    /// count without it).
    fn run_uop_into(
        &mut self,
        prog: &UopProgram,
        max_insts: u64,
        trace: &mut Trace,
    ) -> Result<(), VmError> {
        if self.halted {
            return Ok(());
        }
        let uops = prog.uops.as_slice();
        let base_pc = prog.base_pc;
        let mut pc = self.pc;
        let mut ix = pc_ix(base_pc, pc);
        let mut retired = self.retired;
        while retired < max_insts {
            let Some(u) = uops.get(ix) else {
                self.pc = pc;
                self.retired = retired;
                return Err(VmError::BadPc(pc));
            };
            let mut next_pc = pc + INST_BYTES;
            let mut next_ix = ix + 1;
            let kind = match u.kind {
                UopKind::Imm { dst, value } => {
                    self.regs[dst] = value;
                    InstKind::Alu { latency: 1 }
                }
                UopKind::AluRR { op, dst, a, b, lat } => {
                    self.regs[dst] = op.apply(self.regs[a], self.regs[b]);
                    InstKind::Alu { latency: lat }
                }
                UopKind::AluRI {
                    op,
                    dst,
                    a,
                    imm,
                    lat,
                } => {
                    self.regs[dst] = op.apply(self.regs[a], imm);
                    InstKind::Alu { latency: lat }
                }
                UopKind::Load { dst, base, offset } => {
                    let addr = self.regs[base].wrapping_add(offset) & !7;
                    let value = self.memory.read_u64(addr);
                    self.regs[dst] = value;
                    InstKind::Load { addr, value }
                }
                UopKind::Store { src, base, offset } => {
                    let addr = self.regs[base].wrapping_add(offset) & !7;
                    self.memory.write_u64(addr, self.regs[src]);
                    InstKind::Store { addr }
                }
                UopKind::BranchRR { cond, a, b, to } => {
                    let taken = cond.holds(self.regs[a], self.regs[b]);
                    if taken {
                        next_pc = to.pc;
                        next_ix = to.ix;
                    }
                    InstKind::Branch {
                        taken,
                        target: to.pc,
                    }
                }
                UopKind::BranchRI { cond, a, imm, to } => {
                    let taken = cond.holds(self.regs[a], imm);
                    if taken {
                        next_pc = to.pc;
                        next_ix = to.ix;
                    }
                    InstKind::Branch {
                        taken,
                        target: to.pc,
                    }
                }
                UopKind::Jump { to } => {
                    next_pc = to.pc;
                    next_ix = to.ix;
                    InstKind::Jump { target: to.pc }
                }
                UopKind::Call { to } => {
                    if self.call_stack.len() >= MAX_CALL_DEPTH {
                        self.pc = pc;
                        self.retired = retired;
                        return Err(VmError::CallOverflow { pc });
                    }
                    let return_to = pc + INST_BYTES;
                    self.call_stack.push(return_to);
                    next_pc = to.pc;
                    next_ix = to.ix;
                    InstKind::Call {
                        target: to.pc,
                        return_to,
                    }
                }
                UopKind::Ret => {
                    let Some(target) = self.call_stack.pop() else {
                        self.pc = pc;
                        self.retired = retired;
                        return Err(VmError::ReturnUnderflow { pc });
                    };
                    next_pc = target;
                    next_ix = pc_ix(base_pc, target);
                    InstKind::Ret { target }
                }
                UopKind::Nop => InstKind::Other,
                UopKind::Halt => {
                    trace.push(RetiredInst {
                        pc,
                        kind: InstKind::Other,
                        dst: None,
                        srcs: [None, None],
                    });
                    self.pc = next_pc;
                    self.retired = retired + 1;
                    self.halted = true;
                    return Ok(());
                }
            };
            trace.push(RetiredInst {
                pc,
                kind,
                dst: u.dst,
                srcs: u.srcs,
            });
            retired += 1;
            pc = next_pc;
            ix = next_ix;
        }
        self.pc = pc;
        self.retired = retired;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProgramBuilder, Reg};

    fn counting_loop(n: i64) -> Program {
        let mut b = ProgramBuilder::new();
        b.imm(Reg::R1, 0);
        b.imm(Reg::R2, n);
        let top = b.label();
        b.bind(top);
        b.alu_ri(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.branch(Cond::Ne, Reg::R1, Operand::Reg(Reg::R2), top);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn uop_run_matches_interpreter_on_a_loop() {
        let prog = counting_loop(10);
        let mut a = Vm::new(prog.clone());
        let mut b = Vm::new(prog);
        let ta = a.run(1_000_000).unwrap();
        let tb = b.run_uop(1_000_000).unwrap();
        assert_eq!(ta.as_slice(), tb.as_slice());
        assert_eq!(a.reg(Reg::R1), b.reg(Reg::R1));
        assert_eq!(a.pc(), b.pc());
        assert_eq!(a.retired(), b.retired());
        assert_eq!(a.is_halted(), b.is_halted());
    }

    #[test]
    fn uop_budget_is_cumulative_across_calls() {
        let prog = counting_loop(1_000_000);
        let mut vm = Vm::new(prog);
        let first = vm.run_uop(100).unwrap();
        assert_eq!(first.len(), 100);
        assert!(!vm.is_halted());
        let more = vm.run_uop(150).unwrap();
        assert_eq!(more.len(), 50);
    }

    #[test]
    fn uop_and_interpreter_interleave_on_shared_state() {
        // Half the budget on the reference path, half on the uop path:
        // the combined trace must equal an all-reference run.
        let prog = counting_loop(40);
        let mut split = Vm::new(prog.clone());
        let mut t = split.run(30).unwrap();
        for r in split.run_uop(u64::MAX).unwrap().iter() {
            t.push(*r);
        }
        let mut whole = Vm::new(prog);
        let tw = whole.run(u64::MAX).unwrap();
        assert_eq!(t.as_slice(), tw.as_slice());
        assert_eq!(split.reg(Reg::R1), whole.reg(Reg::R1));
    }

    #[test]
    fn bad_branch_target_retires_the_branch_then_faults() {
        // A taken branch to a misaligned PC retires; the *next* step
        // faults with BadPc(target) — same as the interpreter.
        let mut b = ProgramBuilder::new();
        b.push(Inst::Branch {
            cond: Cond::Eq,
            a: Reg::R0,
            b: Operand::Imm(0),
            target: 0x1002,
        });
        b.halt();
        let prog = b.build().unwrap();
        let mut reference = Vm::new(prog.clone());
        let mut uop = Vm::new(prog);
        let re = reference.run(10);
        let ue = uop.run_uop(10);
        assert_eq!(re.unwrap_err(), ue.unwrap_err());
        assert_eq!(reference.pc(), uop.pc());
        assert_eq!(reference.retired(), uop.retired());
    }

    #[test]
    fn bad_branch_target_with_exhausted_budget_is_not_an_error() {
        let mut b = ProgramBuilder::new();
        b.push(Inst::Jump { target: 0x3 });
        let prog = b.build().unwrap();
        let mut vm = Vm::new(prog);
        let t = vm.run_uop(1).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(vm.pc(), 0x3);
        assert!(matches!(vm.run_uop(2), Err(VmError::BadPc(0x3))));
    }

    #[test]
    fn call_and_ret_errors_match_reference() {
        let mut b = ProgramBuilder::new();
        b.ret();
        let prog = b.build().unwrap();
        let mut reference = Vm::new(prog.clone());
        let mut uop = Vm::new(prog);
        assert_eq!(reference.run(10).unwrap_err(), uop.run_uop(10).unwrap_err());
        assert_eq!(reference.retired(), uop.retired());

        // Runaway recursion overflows identically.
        let mut b = ProgramBuilder::new();
        let f = b.label();
        b.bind(f);
        b.call(f);
        let prog = b.build().unwrap();
        let mut reference = Vm::new(prog.clone());
        let mut uop = Vm::new(prog);
        assert_eq!(
            reference.run(1 << 20).unwrap_err(),
            uop.run_uop(1 << 20).unwrap_err()
        );
        assert_eq!(reference.retired(), uop.retired());
        assert_eq!(reference.pc(), uop.pc());
    }

    #[test]
    fn decode_resolves_branch_targets_to_indices() {
        let prog = counting_loop(4);
        let d = UopProgram::decode(&prog);
        assert_eq!(d.len(), 5);
        let UopKind::BranchRR { to, .. } = d.uops[3].kind else {
            panic!("expected a register branch, got {:?}", d.uops[3].kind);
        };
        assert_eq!(to.ix, 2, "loop top is the third instruction");
        assert_eq!(to.pc, prog.base_pc() + 2 * INST_BYTES);
    }
}
