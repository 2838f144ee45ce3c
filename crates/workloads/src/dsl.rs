//! Shared helpers for kernel construction.

use crate::rng::Rng64;
use dol_isa::{AluOp, Cond, Operand, ProgramBuilder, Reg, Vm};

/// Base address of the first data array a kernel allocates.
pub const DATA_BASE: u64 = 0x100_0000;

/// A tiny bump allocator over the VM's address space, so kernels can lay
/// out multiple arrays without overlap.
#[derive(Debug)]
pub struct Alloc {
    next: u64,
}

impl Alloc {
    pub fn new() -> Self {
        Alloc { next: DATA_BASE }
    }

    /// Reserves `words` 8-byte words, aligned to 4 KiB, returning the
    /// base address.
    pub fn array(&mut self, words: u64) -> u64 {
        let base = self.next;
        self.next += (words * 8 + 4095) & !4095;
        base
    }
}

/// Deterministic RNG for data initialization.
pub fn rng(seed: u64) -> Rng64 {
    Rng64::seed_from_u64(seed ^ 0x5DEECE66D)
}

/// Emits `loop { body }` — an infinite outer loop (the harness cuts
/// execution at its instruction budget).
pub fn forever(b: &mut ProgramBuilder, body: impl FnOnce(&mut ProgramBuilder)) {
    let top = b.label();
    b.bind(top);
    body(b);
    b.jump(top);
}

/// Emits `for counter in 0..n { body }` using `counter` as the induction
/// register (callers must not clobber it in `body`).
pub fn counted(
    b: &mut ProgramBuilder,
    counter: Reg,
    n: i64,
    body: impl FnOnce(&mut ProgramBuilder),
) {
    b.imm(counter, 0);
    let top = b.label();
    b.bind(top);
    body(b);
    b.alu_ri(AluOp::Add, counter, counter, 1);
    b.branch(Cond::Lt, counter, Operand::Imm(n), top);
}

/// Fills `words` sequential words at `base` with RNG output.
pub fn fill_random(vm: &mut Vm, base: u64, words: u64, rng: &mut Rng64) {
    fill_with(vm, base, words, |_| rng.next_u64());
}

/// Fills `words` sequential words at `base` with `f(i)`, calling `f` in
/// index order (one page lookup per page, not per word).
pub fn fill_with(vm: &mut Vm, base: u64, words: u64, mut f: impl FnMut(u64) -> u64) {
    vm.memory_mut()
        .fill_words(base, words as usize, |i| f(i as u64));
}

/// A random permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: u64, rng: &mut Rng64) -> Vec<u64> {
    let mut p: Vec<u64> = (0..n).collect();
    for i in (1..n as usize).rev() {
        let j = rng.index(i + 1);
        p.swap(i, j);
    }
    p
}

/// Builds a scrambled singly-linked list of `nodes` nodes with
/// `node_words` words per node; `next` pointers live at offset
/// `next_off` bytes. Returns the head address.
///
/// The list is cyclic so kernels can walk it forever.
pub fn build_list(
    vm: &mut Vm,
    alloc: &mut Alloc,
    nodes: u64,
    node_words: u64,
    next_off: u64,
    rng: &mut Rng64,
) -> u64 {
    let base = alloc.array(nodes * node_words);
    let perm = permutation(nodes, rng);
    let addr_of = |k: u64| base + perm[k as usize] * node_words * 8;
    for k in 0..nodes {
        let this = addr_of(k);
        let next = addr_of((k + 1) % nodes);
        vm.memory_mut().write_u64(this + next_off, next);
        // Payload words.
        for w in 0..node_words {
            let a = this + w * 8;
            if a != this + next_off {
                vm.memory_mut().write_u64(a, k.wrapping_mul(2654435761));
            }
        }
    }
    addr_of(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_isa::Vm;

    #[test]
    fn alloc_never_overlaps() {
        let mut a = Alloc::new();
        let x = a.array(100);
        let y = a.array(100);
        assert!(y >= x + 800);
        assert_eq!(y % 4096, 0);
    }

    #[test]
    fn permutation_is_a_bijection() {
        let mut r = rng(3);
        let p = permutation(100, &mut r);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn list_is_cyclic_and_complete() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let mut vm = Vm::new(b.build().unwrap());
        let mut alloc = Alloc::new();
        let mut r = rng(5);
        let head = build_list(&mut vm, &mut alloc, 64, 4, 8, &mut r);
        let mut cur = head;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            assert!(seen.insert(cur), "node revisited early");
            cur = vm.memory().read_u64(cur + 8);
        }
        assert_eq!(cur, head, "list must be cyclic");
    }

    #[test]
    fn counted_loop_runs_n_times() {
        let mut b = ProgramBuilder::new();
        b.imm(Reg::R1, 0);
        counted(&mut b, Reg::R30, 10, |b| {
            b.alu_ri(AluOp::Add, Reg::R1, Reg::R1, 1);
        });
        b.halt();
        let mut vm = Vm::new(b.build().unwrap());
        vm.run(1000).unwrap();
        assert_eq!(vm.reg(Reg::R1), 10);
    }
}
