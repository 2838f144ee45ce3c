//! Retired-instruction traces: what the timing model and prefetchers see.

use crate::Reg;

/// The dynamic payload of one retired instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstKind {
    /// An arithmetic/logic instruction (includes immediate moves).
    Alu {
        /// Execution latency in cycles.
        latency: u8,
    },
    /// A load, with its effective address and the value it returned.
    ///
    /// Carrying the value lets pointer prefetchers (the paper's P1) observe
    /// real pointer data, exactly as hardware observes a load's writeback.
    Load {
        /// Effective byte address.
        addr: u64,
        /// The 64-bit value loaded.
        value: u64,
    },
    /// A store, with its effective address.
    Store {
        /// Effective byte address.
        addr: u64,
    },
    /// A conditional branch.
    Branch {
        /// Whether the branch was taken.
        taken: bool,
        /// The branch's static target PC.
        target: u64,
    },
    /// An unconditional jump.
    Jump {
        /// Target PC.
        target: u64,
    },
    /// A subroutine call.
    Call {
        /// Target PC.
        target: u64,
        /// The address execution resumes at after the matching return.
        return_to: u64,
    },
    /// A subroutine return.
    Ret {
        /// The PC returned to.
        target: u64,
    },
    /// Anything else (nop).
    Other,
}

/// One retired instruction as observed by the microarchitecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RetiredInst {
    /// The instruction's PC (its static identity).
    pub pc: u64,
    /// Dynamic payload.
    pub kind: InstKind,
    /// Destination logical register, if any.
    pub dst: Option<Reg>,
    /// Source logical registers (up to two).
    pub srcs: [Option<Reg>; 2],
}

impl RetiredInst {
    /// Whether this is a load.
    #[inline]
    pub fn is_load(&self) -> bool {
        matches!(self.kind, InstKind::Load { .. })
    }

    /// Whether this is a load or a store.
    #[inline]
    pub fn is_mem(&self) -> bool {
        matches!(self.kind, InstKind::Load { .. } | InstKind::Store { .. })
    }

    /// The data address accessed, for loads and stores.
    #[inline]
    pub fn mem_addr(&self) -> Option<u64> {
        match self.kind {
            InstKind::Load { addr, .. } | InstKind::Store { addr } => Some(addr),
            _ => None,
        }
    }

    /// Whether this is a control-flow instruction that was taken.
    #[inline]
    pub fn is_taken_control(&self) -> bool {
        match self.kind {
            InstKind::Branch { taken, .. } => taken,
            InstKind::Jump { .. } | InstKind::Call { .. } | InstKind::Ret { .. } => true,
            _ => false,
        }
    }

    /// For a taken branch/jump/call/ret, the next PC; otherwise `None`.
    #[inline]
    pub fn control_target(&self) -> Option<u64> {
        match self.kind {
            InstKind::Branch {
                taken: true,
                target,
            } => Some(target),
            InstKind::Jump { target }
            | InstKind::Call { target, .. }
            | InstKind::Ret { target } => Some(target),
            _ => None,
        }
    }

    /// Whether this is a taken *backward* branch (target at or before PC) —
    /// the raw signal the paper's loop hardware watches.
    #[inline]
    pub fn is_backward_branch(&self) -> bool {
        matches!(self.kind, InstKind::Branch { taken: true, target } if target <= self.pc)
    }
}

/// A pull-based stream of retired instructions: the timing model's input
/// edge.
///
/// The simulator's per-retire loop is its hottest path, so consumers
/// (notably `dol_cpu::System::run`) are generic over this trait and
/// monomorphize a direct call per source — an in-memory [`Trace`] via
/// [`TraceCursor`] and a streaming on-disk trace (`dol-trace`) compile
/// to the same devirtualized edge, with no `dyn` dispatch per
/// instruction.
///
/// A source that fails mid-stream (e.g. a corrupt trace file) ends the
/// stream by returning `None` and reports the failure through its own
/// API after the run; this trait itself is infallible by design.
pub trait InstSource {
    /// The next retired instruction, or `None` at end of stream.
    fn next_inst(&mut self) -> Option<RetiredInst>;
}

/// An [`InstSource`] over an in-memory instruction slice.
#[derive(Debug, Clone)]
pub struct TraceCursor<'a> {
    insts: &'a [RetiredInst],
    pos: usize,
}

impl<'a> TraceCursor<'a> {
    /// Creates a cursor at the start of `insts`.
    #[inline]
    pub fn new(insts: &'a [RetiredInst]) -> Self {
        TraceCursor { insts, pos: 0 }
    }
}

impl InstSource for TraceCursor<'_> {
    #[inline]
    fn next_inst(&mut self) -> Option<RetiredInst> {
        let inst = *self.insts.get(self.pos)?;
        self.pos += 1;
        Some(inst)
    }
}

/// A retired-instruction trace: the functional execution of one workload.
///
/// Traces are produced once per workload by [`crate::Vm::run`] and replayed
/// through the timing model under every prefetcher configuration, which is
/// sound because the functional path is prefetcher-independent.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    insts: Vec<RetiredInst>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one retired instruction.
    #[inline]
    pub fn push(&mut self, inst: RetiredInst) {
        self.insts.push(inst);
    }

    /// Reserves capacity for at least `additional` more instructions
    /// (capture paths that know their budget skip the growth doublings).
    pub fn reserve(&mut self, additional: usize) {
        self.insts.reserve(additional);
    }

    /// Number of retired instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    /// The instructions in retirement order.
    pub fn iter(&self) -> std::slice::Iter<'_, RetiredInst> {
        self.insts.iter()
    }

    /// The instructions as a slice.
    pub fn as_slice(&self) -> &[RetiredInst] {
        &self.insts
    }

    /// Count of loads and stores.
    pub fn mem_count(&self) -> usize {
        self.insts.iter().filter(|i| i.is_mem()).count()
    }

    /// A deterministic content hash over every retired instruction
    /// (fixed-seed [`crate::DetHasher`], stable across processes). Two
    /// traces hash equal iff their instruction streams are bit-identical
    /// — the memo key for per-capture derived artifacts such as the
    /// offline classifier.
    pub fn content_hash(&self) -> u64 {
        use std::hash::{BuildHasher, Hash, Hasher};
        let mut h = crate::DetState.build_hasher();
        self.insts.len().hash(&mut h);
        for inst in &self.insts {
            inst.hash(&mut h);
        }
        h.finish()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a RetiredInst;
    type IntoIter = std::slice::Iter<'a, RetiredInst>;

    fn into_iter(self) -> Self::IntoIter {
        self.insts.iter()
    }
}

impl FromIterator<RetiredInst> for Trace {
    fn from_iter<T: IntoIterator<Item = RetiredInst>>(iter: T) -> Self {
        Trace {
            insts: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(pc: u64, addr: u64) -> RetiredInst {
        RetiredInst {
            pc,
            kind: InstKind::Load { addr, value: 0 },
            dst: Some(Reg::R1),
            srcs: [Some(Reg::R2), None],
        }
    }

    #[test]
    fn classification_helpers() {
        let l = load(0x100, 0x8000);
        assert!(l.is_load() && l.is_mem());
        assert_eq!(l.mem_addr(), Some(0x8000));
        assert!(!l.is_taken_control());

        let b = RetiredInst {
            pc: 0x200,
            kind: InstKind::Branch {
                taken: true,
                target: 0x100,
            },
            dst: None,
            srcs: [None, None],
        };
        assert!(b.is_backward_branch());
        assert_eq!(b.control_target(), Some(0x100));

        let fwd = RetiredInst {
            pc: 0x200,
            kind: InstKind::Branch {
                taken: true,
                target: 0x300,
            },
            dst: None,
            srcs: [None, None],
        };
        assert!(!fwd.is_backward_branch());

        let not_taken = RetiredInst {
            pc: 0x200,
            kind: InstKind::Branch {
                taken: false,
                target: 0x100,
            },
            dst: None,
            srcs: [None, None],
        };
        assert!(!not_taken.is_backward_branch());
        assert_eq!(not_taken.control_target(), None);
    }

    #[test]
    fn cursor_streams_the_whole_slice() {
        let t: Trace = (0..5u64).map(|i| load(0x100 + 4 * i, 0x8000)).collect();
        let mut cur = TraceCursor::new(t.as_slice());
        let mut n = 0;
        while let Some(inst) = cur.next_inst() {
            assert_eq!(inst, t.as_slice()[n]);
            n += 1;
        }
        assert_eq!(n, t.len());
        assert_eq!(cur.next_inst(), None);
    }

    #[test]
    fn trace_collects_and_counts() {
        let t: Trace = (0..10u64)
            .map(|i| load(0x100 + 4 * i, 0x8000 + 64 * i))
            .collect();
        assert_eq!(t.len(), 10);
        assert_eq!(t.mem_count(), 10);
        assert_eq!(t.iter().count(), 10);
        assert!(!t.is_empty());
    }
}
