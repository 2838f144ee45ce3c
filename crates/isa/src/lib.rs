#![warn(missing_docs)]

//! A tiny register ISA, program builder, sparse memory, and functional VM.
//!
//! This crate is the *workload substrate* for the Division-of-Labor
//! prefetching reproduction. The paper evaluates prefetchers on real
//! binaries under gem5; we instead execute small kernels written against
//! this ISA with a functional virtual machine, producing a retired
//! instruction trace ([`RetiredInst`]) that carries everything a hardware
//! prefetcher can observe:
//!
//! * the program counter and static instruction identity,
//! * source/destination logical registers (for P1's taint propagation),
//! * effective addresses *and loaded values* (for pointer-chain
//!   prefetching, which must dereference real data),
//! * branch direction and targets (for T2's loop detection), and
//! * call/return events (for the return-address-stack `mPC` hash).
//!
//! # Quick example
//!
//! ```
//! use dol_isa::{Cond, Operand, ProgramBuilder, Reg, Vm};
//!
//! // for (i = 0; i != 64; i++) sum += a[i];
//! let mut b = ProgramBuilder::new();
//! let (base, i, n, sum, t) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
//! b.imm(base, 0x1_0000);
//! b.imm(i, 0);
//! b.imm(n, 64);
//! b.imm(sum, 0);
//! let top = b.label();
//! b.bind(top);
//! b.load(t, base, 0);
//! b.alu_rr(dol_isa::AluOp::Add, sum, sum, t);
//! b.alu_ri(dol_isa::AluOp::Add, base, base, 8);
//! b.alu_ri(dol_isa::AluOp::Add, i, i, 1);
//! b.branch(Cond::Ne, i, Operand::Reg(n), top);
//! b.halt();
//!
//! let mut vm = Vm::new(b.build().unwrap());
//! for k in 0..64 {
//!     vm.memory_mut().write_u64(0x1_0000 + 8 * k, k);
//! }
//! let trace = vm.run(100_000).unwrap();
//! assert_eq!(vm.reg(sum), (0..64).sum::<u64>());
//! assert_eq!(trace.iter().filter(|r| r.is_load()).count(), 64);
//! ```

mod hash;
mod inst;
mod memory;
mod program;
mod reg;
mod trace;
mod uop;
mod vm;

pub use hash::{DetHashMap, DetHashSet, DetHasher, DetState};
pub use inst::{AluOp, Cond, Inst, Operand};
pub use memory::SparseMemory;
pub use program::{Label, Program, ProgramBuilder, ProgramError, DEFAULT_BASE_PC};
pub use reg::Reg;
pub use trace::{InstKind, InstSource, RetiredInst, Trace, TraceCursor};
pub use uop::UopProgram;
pub use vm::{Vm, VmError};

/// Byte distance between consecutive instruction PCs.
pub const INST_BYTES: u64 = 4;
