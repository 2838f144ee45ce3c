//! Integration tests for the timing driver against real prefetchers and
//! workload kernels.

use std::sync::Arc;

use dol_core::{NoPrefetcher, Prefetcher, Tpc};
use dol_cpu::{DestinationPolicy, System, SystemConfig, Workload};
use dol_isa::{AluOp, Cond, Operand, ProgramBuilder, Reg, Vm};
use dol_mem::{line_of, CacheLevel, LineSet, MemEvent};

fn stream_vm(n: i64) -> Vm {
    let mut b = ProgramBuilder::new();
    b.imm(Reg::R1, 0x10_0000);
    b.imm(Reg::R2, 0);
    let top = b.label();
    b.bind(top);
    b.load(Reg::R3, Reg::R1, 0);
    b.alu_ri(AluOp::Add, Reg::R1, Reg::R1, 8);
    b.alu_ri(AluOp::Add, Reg::R2, Reg::R2, 1);
    b.branch(Cond::Ne, Reg::R2, Operand::Imm(n), top);
    b.halt();
    Vm::new(b.build().unwrap())
}

#[test]
fn stratified_policy_splits_by_line_set() {
    let w = Workload::capture(stream_vm(8000), 100_000).unwrap();
    // Classify even-indexed lines as "LHF" (to L1), the rest to L2.
    let lhf: LineSet = (0..10_000u64)
        .map(|i| line_of(0x10_0000 + i * 8))
        .filter(|l| l % 2 == 0)
        .collect();
    let mut cfg = SystemConfig::isca2018(1);
    cfg.dest_policy = DestinationPolicy::StratifiedByLine(Arc::new(lhf.clone()));
    let sys = System::new(cfg);
    let mut t2 = Tpc::t2_only();
    let mut sink = dol_mem::CollectSink::new();
    sys.run_with_sink(&w, &mut t2, &mut sink);
    let mut l1_ok = true;
    let mut l2_ok = true;
    let mut both = [0u64; 2];
    for e in &sink.events {
        if let MemEvent::PrefetchIssued { line, dest, .. } = e {
            // Untranslated == translated on core 0.
            let expect_l1 = lhf.contains(*line);
            match dest {
                CacheLevel::L1 => {
                    both[0] += 1;
                    l1_ok &= expect_l1;
                }
                CacheLevel::L2 => {
                    both[1] += 1;
                    l2_ok &= !expect_l1;
                }
                CacheLevel::L3 => unreachable!(),
            }
        }
    }
    assert!(
        both[0] > 0 && both[1] > 0,
        "both destinations used: {both:?}"
    );
    assert!(l1_ok, "an L1 prefetch escaped the LHF set");
    assert!(l2_ok, "an L2 prefetch was in the LHF set");
}

#[test]
fn mpc_distinguishes_call_sites_in_real_execution() {
    // Two call sites invoking one function that loads through R10.
    let mut b = ProgramBuilder::new();
    let func = b.label();
    let main = b.label();
    b.jump(main);
    b.bind(func);
    b.load(Reg::R11, Reg::R10, 0);
    b.ret();
    b.bind(main);
    b.imm(Reg::R1, 0x10_0000);
    b.imm(Reg::R2, 0x80_0000);
    b.imm(Reg::R3, 0);
    let top = b.label();
    b.bind(top);
    b.alu_ri(AluOp::Add, Reg::R10, Reg::R1, 0);
    b.call(func);
    b.alu_ri(AluOp::Add, Reg::R10, Reg::R2, 0);
    b.call(func);
    b.alu_ri(AluOp::Add, Reg::R1, Reg::R1, 64);
    b.alu_ri(AluOp::Add, Reg::R2, Reg::R2, 64);
    b.alu_ri(AluOp::Add, Reg::R3, Reg::R3, 1);
    b.branch(Cond::Ne, Reg::R3, Operand::Imm(4000), top);
    b.halt();
    let w = Workload::capture(Vm::new(b.build().unwrap()), 200_000).unwrap();
    let sys = System::new(SystemConfig::isca2018(1));
    let base = sys.run(&w, &mut NoPrefetcher);
    let mut tpc = Tpc::t2_only();
    let mut sink = dol_mem::CollectSink::new();
    let with = sys.run_with_sink(&w, &mut tpc, &mut sink);
    // With mPC both streams are detected as stable strided entries
    // (plain-PC keying would see the deltas flip-flop between the two
    // arrays and reject the instruction).
    let stable = tpc
        .sit()
        .entries()
        .filter(|e| e.delta == 64 && e.stable_for(16))
        .count();
    assert_eq!(stable, 2, "one SIT entry per call site");
    assert!(
        with.stats.cores[0].l1_misses < base.stats.cores[0].l1_misses,
        "prefetching must remove misses ({} vs {})",
        with.stats.cores[0].l1_misses,
        base.stats.cores[0].l1_misses
    );
    // (This microkernel is dispatch-bound, not memory-bound, so the
    // cycle win is small; the suite-level `strided_calls` kernel shows
    // the 2x speedup. Here we check the mechanism, not the cycles.)
    // Prefetches must land on both arrays.
    let lines: std::collections::HashSet<u64> = sink
        .events
        .iter()
        .filter_map(|e| match e {
            MemEvent::PrefetchIssued { line, .. } => Some(*line),
            _ => None,
        })
        .collect();
    assert!(lines.iter().any(|l| *l < line_of(0x80_0000)));
    assert!(lines.iter().any(|l| *l >= line_of(0x80_0000)));
}

#[test]
fn per_core_address_spaces_do_not_alias() {
    // Two cores running the identical program must not share cache lines:
    // each core's L1 misses stay at the cold-miss count of its own copy.
    let w = Workload::capture(stream_vm(2000), 50_000).unwrap();
    let sys = System::new(SystemConfig::isca2018(2));
    let mut a = NoPrefetcher;
    let mut b = NoPrefetcher;
    let r = sys.run_multi(
        &[w.clone(), w.clone()],
        &mut [&mut a as &mut dyn Prefetcher, &mut b as &mut dyn Prefetcher],
    );
    let m0 = r.stats.cores[0].l1_misses;
    let m1 = r.stats.cores[1].l1_misses;
    assert!(m0 > 0 && m1 > 0);
    // If the address spaces aliased, the second core would hit in the
    // shared L3 everywhere; both cores must instead fetch from DRAM.
    assert!(
        r.stats.dram.demand_reads >= m0.min(m1),
        "no cross-core aliasing"
    );
}

#[test]
fn budget_truncates_trace_not_semantics() {
    let full = Workload::capture(stream_vm(100_000), 30_000).unwrap();
    assert_eq!(
        full.trace.len(),
        30_000,
        "budget cuts the infinite-ish loop"
    );
    let sys = System::new(SystemConfig::tiny(1));
    let r = sys.run(&full, &mut NoPrefetcher);
    assert_eq!(r.instructions, 30_000);
}

#[test]
fn force_policies_are_exhaustive_over_requests() {
    let w = Workload::capture(stream_vm(4000), 60_000).unwrap();
    for (policy, level) in [
        (DestinationPolicy::ForceL1, CacheLevel::L1),
        (DestinationPolicy::ForceL2, CacheLevel::L2),
    ] {
        let mut cfg = SystemConfig::isca2018(1);
        cfg.dest_policy = policy;
        let sys = System::new(cfg);
        let mut tpc = Tpc::full();
        let mut sink = dol_mem::CollectSink::new();
        sys.run_with_sink(&w, &mut tpc, &mut sink);
        for e in &sink.events {
            if let MemEvent::PrefetchIssued { dest, .. } = e {
                assert_eq!(*dest, level);
            }
        }
    }
}

#[test]
fn branch_heavy_code_is_penalized() {
    // Same work, once with predictable and once with data-dependent
    // branches: the unpredictable version must cost more cycles.
    let build = |chaotic: bool| {
        let mut b = ProgramBuilder::new();
        b.imm(Reg::R1, 0x9E3779B9);
        b.imm(Reg::R2, 0);
        let top = b.label();
        let skip = b.label();
        b.bind(top);
        b.alu_ri(AluOp::Mul, Reg::R1, Reg::R1, 6364136223846793005);
        b.alu_ri(AluOp::Add, Reg::R1, Reg::R1, 1);
        b.alu_ri(AluOp::Shr, Reg::R3, Reg::R1, 32);
        b.alu_ri(AluOp::And, Reg::R3, Reg::R3, 1);
        if chaotic {
            b.branch(Cond::Eq, Reg::R3, Operand::Imm(0), skip); // 50/50
        } else {
            b.branch(Cond::Lt, Reg::R3, Operand::Imm(99), skip); // always
        }
        b.alu_ri(AluOp::Add, Reg::R2, Reg::R2, 1);
        b.bind(skip);
        b.alu_ri(AluOp::Add, Reg::R2, Reg::R2, 1);
        b.branch(Cond::LtU, Reg::R2, Operand::Imm(100_000), top);
        b.halt();
        Workload::capture(Vm::new(b.build().unwrap()), 60_000).unwrap()
    };
    let sys = System::new(SystemConfig::isca2018(1));
    let predictable = sys.run(&build(false), &mut NoPrefetcher);
    let chaotic = sys.run(&build(true), &mut NoPrefetcher);
    assert!(
        chaotic.mispredicts > predictable.mispredicts * 5,
        "{} vs {}",
        chaotic.mispredicts,
        predictable.mispredicts
    );
    // Cycles-per-instruction must be visibly worse.
    let cpi = |r: &dol_cpu::RunResult| r.cycles as f64 / r.instructions as f64;
    assert!(cpi(&chaotic) > cpi(&predictable) * 1.2);
}
