//! CRONO-like graph workloads over synthetic RMAT and road-grid graphs.
//!
//! Graphs are stored in CSR form: `row_ptr` holds, per vertex, the byte
//! offset of its adjacency slice in `col`; `col` holds neighbor ids as
//! *byte offsets* into the per-vertex property arrays (premultiplied by
//! 8 so kernels avoid shifts). The kernels reproduce the access skeleton
//! of the CRONO algorithms: streaming structure reads plus irregular
//! property gathers.

use crate::dsl::{counted, fill_random, forever, rng, Alloc};
use crate::rng::Rng64;
use crate::{Spec, Suite};
use dol_isa::{AluOp, Cond, Operand, ProgramBuilder, Reg, Vm};

use Reg::*;

fn spec(name: &'static str, build: fn(u64) -> Vm) -> Spec {
    Spec::new(name, Suite::Graph, build)
}

/// All five graph workloads.
pub fn all() -> Vec<Spec> {
    vec![
        spec("bfs_rmat", bfs_rmat),
        spec("pagerank_rmat", pagerank_rmat),
        spec("cc_rmat", cc_rmat),
        spec("sssp_road", sssp_road),
        spec("tc_rmat", tc_rmat),
    ]
}

/// CSR graph laid out in VM memory.
struct Csr {
    row_ptr: u64,
    n: u64,
}

/// A skewed random graph (RMAT-flavoured degree distribution).
fn build_rmat(vm: &mut Vm, alloc: &mut Alloc, n: u64, avg_degree: u64, r: &mut Rng64) -> Csr {
    let m = n * avg_degree;
    let mut adj: Vec<Vec<u64>> = vec![Vec::new(); n as usize];
    for _ in 0..m {
        // Quadratic skew: low-numbered vertices attract more edges.
        let u = (r.below(n) * r.below(n)) / n;
        let v = (r.below(n) * r.below(n)) / n;
        adj[u as usize].push(v);
    }
    let row_ptr = alloc.array(n + 1);
    let total: usize = adj.iter().map(|a| a.len()).sum();
    let col = alloc.array(total as u64);
    let mut off = 0u64;
    for u in 0..n {
        vm.memory_mut().write_u64(row_ptr + u * 8, col + off * 8);
        for &v in &adj[u as usize] {
            vm.memory_mut().write_u64(col + off * 8, v * 8);
            off += 1;
        }
    }
    vm.memory_mut().write_u64(row_ptr + n * 8, col + off * 8);
    Csr { row_ptr, n }
}

/// A 2D grid graph (road-network stand-in): 4-neighborhoods.
fn build_grid(vm: &mut Vm, alloc: &mut Alloc, width: u64, height: u64) -> Csr {
    let n = width * height;
    let row_ptr = alloc.array(n + 1);
    // ≤4 neighbors each.
    let col = alloc.array(n * 4);
    let mut off = 0u64;
    for y in 0..height {
        for x in 0..width {
            let u = y * width + x;
            vm.memory_mut().write_u64(row_ptr + u * 8, col + off * 8);
            let mut push = |v: u64| {
                vm.memory_mut().write_u64(col + off * 8, v * 8);
                off += 1;
            };
            if x > 0 {
                push(u - 1);
            }
            if x + 1 < width {
                push(u + 1);
            }
            if y > 0 {
                push(u - width);
            }
            if y + 1 < height {
                push(u + width);
            }
        }
    }
    vm.memory_mut().write_u64(row_ptr + n * 8, col + off * 8);
    Csr { row_ptr, n }
}

/// Emits the canonical CSR sweep: for each vertex, walk its adjacency
/// slice and run `per_neighbor` with the neighbor's byte offset in `R7`.
///
/// Register budget: R1 row_ptr cursor, R5/R6 slice bounds, R7 neighbor
/// offset; `per_neighbor` may use R10..R20.
fn csr_sweep(
    b: &mut ProgramBuilder,
    g: &Csr,
    per_vertex: impl Fn(&mut ProgramBuilder),
    per_neighbor: impl Fn(&mut ProgramBuilder),
) {
    b.imm(R1, g.row_ptr as i64);
    counted(b, R29, g.n as i64, |b| {
        b.load(R5, R1, 0); // slice start (byte address in col)
        b.load(R6, R1, 8); // slice end
        per_vertex(b);
        let inner = b.label();
        let done = b.label();
        b.bind(inner);
        b.branch(Cond::GeU, R5, Operand::Reg(R6), done);
        b.load(R7, R5, 0); // neighbor byte offset
        per_neighbor(b);
        b.alu_ri(AluOp::Add, R5, R5, 8);
        b.jump(inner);
        b.bind(done);
        b.alu_ri(AluOp::Add, R1, R1, 8);
    });
}

const RMAT_N: u64 = 64 * 1024;
const RMAT_DEG: u64 = 8;

/// BFS-like relaxation: gather `level[v]` over all neighbors.
fn bfs_rmat(seed: u64) -> Vm {
    let mut b = ProgramBuilder::new();
    b.nop(); // placeholder so base_pc is stable before we know the graph
    let mut vm_proto = Vm::new(b.build().expect("nop program"));
    let mut alloc = Alloc::new();
    let mut r = rng(seed);
    let g = build_rmat(&mut vm_proto, &mut alloc, RMAT_N, RMAT_DEG, &mut r);
    let level = alloc.array(g.n);
    fill_random(&mut vm_proto, level, g.n, &mut r);

    let mut b = ProgramBuilder::new();
    b.imm(R2, level as i64);
    b.imm(R4, 0);
    forever(&mut b, |b| {
        csr_sweep(
            b,
            &g,
            |_| {},
            |b| {
                b.alu_rr(AluOp::Add, R10, R2, R7);
                b.load(R11, R10, 0); // level[v]
                b.alu_rr(AluOp::Add, R4, R4, R11);
            },
        );
    });
    let mut vm = Vm::new(b.build().expect("valid kernel"));
    *vm.memory_mut() = std::mem::take(vm_proto.memory_mut());
    vm
}

/// PageRank-like: gather `rank[v]`, accumulate, store per-vertex output.
fn pagerank_rmat(seed: u64) -> Vm {
    let mut b0 = ProgramBuilder::new();
    b0.nop();
    let mut vm_proto = Vm::new(b0.build().expect("nop program"));
    let mut alloc = Alloc::new();
    let mut r = rng(seed ^ 11);
    let g = build_rmat(&mut vm_proto, &mut alloc, RMAT_N, RMAT_DEG, &mut r);
    let rank = alloc.array(g.n);
    let rank_new = alloc.array(g.n);
    fill_random(&mut vm_proto, rank, g.n, &mut r);

    // csr_sweep has no per-vertex epilogue hook, and pagerank must store
    // its accumulator after the neighbor loop — so it spells the sweep
    // out with an explicit store.
    let mut b = ProgramBuilder::new();
    b.imm(R2, rank as i64);
    forever(&mut b, |b| {
        b.imm(R1, g.row_ptr as i64);
        b.imm(R9, rank_new as i64);
        counted(b, R29, g.n as i64, |b| {
            b.load(R5, R1, 0);
            b.load(R6, R1, 8);
            b.imm(R8, 0);
            let inner = b.label();
            let done = b.label();
            b.bind(inner);
            b.branch(Cond::GeU, R5, Operand::Reg(R6), done);
            b.load(R7, R5, 0);
            b.alu_rr(AluOp::Add, R10, R2, R7);
            b.load(R11, R10, 0);
            b.alu_ri(AluOp::Shr, R11, R11, 3);
            b.alu_rr(AluOp::Add, R8, R8, R11);
            b.alu_ri(AluOp::Add, R5, R5, 8);
            b.jump(inner);
            b.bind(done);
            b.store(R8, R9, 0);
            b.alu_ri(AluOp::Add, R9, R9, 8);
            b.alu_ri(AluOp::Add, R1, R1, 8);
        });
    });
    let mut vm = Vm::new(b.build().expect("valid kernel"));
    *vm.memory_mut() = std::mem::take(vm_proto.memory_mut());
    vm
}

/// Connected-components-like label propagation with read-modify-write.
fn cc_rmat(seed: u64) -> Vm {
    let mut b0 = ProgramBuilder::new();
    b0.nop();
    let mut vm_proto = Vm::new(b0.build().expect("nop program"));
    let mut alloc = Alloc::new();
    let mut r = rng(seed ^ 22);
    let g = build_rmat(&mut vm_proto, &mut alloc, RMAT_N, RMAT_DEG, &mut r);
    let label = alloc.array(g.n);
    // Labels start as vertex ids.
    for u in 0..g.n {
        vm_proto.memory_mut().write_u64(label + u * 8, u);
    }

    let mut b = ProgramBuilder::new();
    b.imm(R2, label as i64);
    forever(&mut b, |b| {
        b.imm(R1, g.row_ptr as i64);
        b.imm(R9, label as i64);
        counted(b, R29, g.n as i64, |b| {
            b.load(R5, R1, 0);
            b.load(R6, R1, 8);
            b.load(R8, R9, 0); // label[u]
            let inner = b.label();
            let done = b.label();
            let skip = b.label();
            b.bind(inner);
            b.branch(Cond::GeU, R5, Operand::Reg(R6), done);
            b.load(R7, R5, 0);
            b.alu_rr(AluOp::Add, R10, R2, R7);
            b.load(R11, R10, 0); // label[v]
            b.branch(Cond::GeU, R11, Operand::Reg(R8), skip);
            b.alu_ri(AluOp::Add, R8, R11, 0); // min
            b.bind(skip);
            b.alu_ri(AluOp::Add, R5, R5, 8);
            b.jump(inner);
            b.bind(done);
            b.store(R8, R9, 0);
            b.alu_ri(AluOp::Add, R9, R9, 8);
            b.alu_ri(AluOp::Add, R1, R1, 8);
        });
    });
    let mut vm = Vm::new(b.build().expect("valid kernel"));
    *vm.memory_mut() = std::mem::take(vm_proto.memory_mut());
    vm
}

/// SSSP-like relaxation over a road-grid graph (local 4-neighborhoods).
fn sssp_road(seed: u64) -> Vm {
    let mut b0 = ProgramBuilder::new();
    b0.nop();
    let mut vm_proto = Vm::new(b0.build().expect("nop program"));
    let mut alloc = Alloc::new();
    let g = build_grid(&mut vm_proto, &mut alloc, 512, 256);
    let dist = alloc.array(g.n);
    let mut r = rng(seed ^ 33);
    fill_random(&mut vm_proto, dist, g.n, &mut r);

    let mut b = ProgramBuilder::new();
    b.imm(R2, dist as i64);
    forever(&mut b, |b| {
        b.imm(R1, g.row_ptr as i64);
        b.imm(R9, dist as i64);
        counted(b, R29, g.n as i64, |b| {
            b.load(R5, R1, 0);
            b.load(R6, R1, 8);
            b.load(R8, R9, 0); // dist[u]
            let inner = b.label();
            let done = b.label();
            let skip = b.label();
            b.bind(inner);
            b.branch(Cond::GeU, R5, Operand::Reg(R6), done);
            b.load(R7, R5, 0);
            b.alu_rr(AluOp::Add, R10, R2, R7);
            b.load(R11, R10, 0); // dist[v]
            b.alu_ri(AluOp::Add, R11, R11, 1); // +edge weight
            b.branch(Cond::GeU, R11, Operand::Reg(R8), skip);
            b.alu_ri(AluOp::Add, R8, R11, 0);
            b.bind(skip);
            b.alu_ri(AluOp::Add, R5, R5, 8);
            b.jump(inner);
            b.bind(done);
            b.store(R8, R9, 0);
            b.alu_ri(AluOp::Add, R9, R9, 8);
            b.alu_ri(AluOp::Add, R1, R1, 8);
        });
    });
    let mut vm = Vm::new(b.build().expect("valid kernel"));
    *vm.memory_mut() = std::mem::take(vm_proto.memory_mut());
    vm
}

/// Triangle-counting-like double indirection: for each neighbor `v`,
/// fetch the start of `v`'s own adjacency slice and its first neighbor.
fn tc_rmat(seed: u64) -> Vm {
    let mut b0 = ProgramBuilder::new();
    b0.nop();
    let mut vm_proto = Vm::new(b0.build().expect("nop program"));
    let mut alloc = Alloc::new();
    let mut r = rng(seed ^ 44);
    let g = build_rmat(&mut vm_proto, &mut alloc, RMAT_N / 2, RMAT_DEG, &mut r);

    let mut b = ProgramBuilder::new();
    b.imm(R2, g.row_ptr as i64);
    b.imm(R4, 0);
    forever(&mut b, |b| {
        csr_sweep(
            b,
            &g,
            |_| {},
            |b| {
                // row_ptr[v] — second-level indirection.
                b.alu_rr(AluOp::Add, R10, R2, R7);
                b.load(R11, R10, 0); // byte address of v's slice
                b.load(R12, R11, 0); // v's first neighbor
                b.alu_rr(AluOp::Add, R4, R4, R12);
            },
        );
    });
    let mut vm = Vm::new(b.build().expect("valid kernel"));
    *vm.memory_mut() = std::mem::take(vm_proto.memory_mut());
    vm
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rmat_graph_is_well_formed() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let mut vm = Vm::new(b.build().unwrap());
        let mut alloc = Alloc::new();
        let mut r = rng(1);
        let g = build_rmat(&mut vm, &mut alloc, 1024, 4, &mut r);
        // row_ptr is monotone and col entries are valid vertex offsets.
        let mut prev = vm.memory().read_u64(g.row_ptr);
        for u in 1..=g.n {
            let cur = vm.memory().read_u64(g.row_ptr + u * 8);
            assert!(cur >= prev, "row_ptr must be monotone");
            prev = cur;
        }
        let end = vm.memory().read_u64(g.row_ptr + g.n * 8);
        let start = vm.memory().read_u64(g.row_ptr);
        for a in (start..end).step_by(8) {
            let v_off = vm.memory().read_u64(a);
            assert!(v_off < g.n * 8, "neighbor offset in range");
            assert_eq!(v_off % 8, 0);
        }
    }

    #[test]
    fn grid_graph_has_expected_edge_count() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let mut vm = Vm::new(b.build().unwrap());
        let mut alloc = Alloc::new();
        let g = build_grid(&mut vm, &mut alloc, 16, 8);
        let start = vm.memory().read_u64(g.row_ptr);
        let end = vm.memory().read_u64(g.row_ptr + g.n * 8);
        let edges = (end - start) / 8;
        // 2*W*H - W - H horizontal+vertical edge endpoints, doubled.
        assert_eq!(edges, 2 * (2 * 16 * 8 - 16 - 8));
    }

    #[test]
    fn bfs_gathers_neighbors() {
        let spec = all().into_iter().find(|s| s.name == "bfs_rmat").unwrap();
        let mut vm = spec.build_vm(3);
        let trace = vm.run(50_000).unwrap();
        let loads = trace.iter().filter(|i| i.is_load()).count();
        assert!(loads > 5_000, "CSR sweep is load-heavy, got {loads}");
    }
}
