//! Property-based tests for the ISA, builder, memory, and VM.

use dol_isa::{AluOp, Cond, Operand, ProgramBuilder, Reg, SparseMemory, Vm};
use proptest::prelude::*;

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0usize..Reg::COUNT).prop_map(|i| Reg::from_index(i).expect("index < 32"))
}

fn alu_op_strategy() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Mul),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::Shr),
        Just(AluOp::SltS),
        Just(AluOp::SltU),
    ]
}

proptest! {
    /// Memory reads return exactly what was last written, for any
    /// address set.
    #[test]
    fn memory_round_trips(writes in proptest::collection::vec((0u64..1 << 40, any::<u64>()), 1..100)) {
        let mut m = SparseMemory::new();
        let mut model = std::collections::HashMap::new();
        for (addr, val) in &writes {
            let a = addr & !7;
            m.write_u64(a, *val);
            model.insert(a, *val);
        }
        for (a, v) in &model {
            prop_assert_eq!(m.read_u64(*a), *v);
        }
    }

    /// A bulk fill leaves exactly the image a per-word `write_u64` loop
    /// leaves: same words, same touched pages, `f` called in index order
    /// — for starts inside a page or on its boundary, lengths of 0 to 3
    /// pages, and pages that already hold data.
    #[test]
    fn fill_words_matches_a_per_word_loop(
        page in 0u64..1 << 20,
        start_word in prop_oneof![Just(0usize), 1usize..SparseMemory::PAGE_WORDS],
        n in 0usize..3 * SparseMemory::PAGE_WORDS + 1,
        existing in proptest::collection::vec((0u64..4, 0usize..SparseMemory::PAGE_WORDS, any::<u64>()), 0..8),
        seed in any::<u64>(),
    ) {
        let base = page * 4096 + 8 * start_word as u64;
        let mut bulk = SparseMemory::new();
        let mut scalar = SparseMemory::new();
        for &(p, w, v) in &existing {
            let a = (page + p) * 4096 + 8 * w as u64;
            bulk.write_u64(a, v);
            scalar.write_u64(a, v);
        }
        // A stateful generator: any change of call order moves values.
        let lcg = |s: &mut u64| {
            *s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            *s
        };
        let (mut bulk_state, mut scalar_state) = (seed, seed);
        let mut calls = Vec::new();
        bulk.fill_words(base, n, |i| {
            calls.push(i);
            lcg(&mut bulk_state)
        });
        for i in 0..n {
            scalar.write_u64(base + 8 * i as u64, lcg(&mut scalar_state));
        }
        prop_assert_eq!(calls, (0..n).collect::<Vec<_>>());
        prop_assert_eq!(bulk.touched_pages(), scalar.touched_pages());
        prop_assert_eq!(bulk.pages_sorted(), scalar.pages_sorted());
    }

    /// A straight-line ALU program retires exactly its instruction count
    /// and never errors.
    #[test]
    fn straight_line_alu_always_runs(
        ops in proptest::collection::vec((alu_op_strategy(), reg_strategy(), reg_strategy(), -1000i64..1000), 1..200),
    ) {
        let mut b = ProgramBuilder::new();
        for (op, dst, a, imm) in &ops {
            b.alu_ri(*op, *dst, *a, *imm);
        }
        b.halt();
        let mut vm = Vm::new(b.build().expect("no labels, always valid"));
        let trace = vm.run(1_000_000).expect("no memory, no control flow");
        prop_assert_eq!(trace.len(), ops.len() + 1);
        prop_assert!(vm.is_halted());
    }

    /// ALU semantics match a direct model for arbitrary operands.
    #[test]
    fn alu_matches_model(op in alu_op_strategy(), a in any::<u64>(), bv in any::<u64>()) {
        let mut builder = ProgramBuilder::new();
        builder.imm(Reg::R1, a as i64);
        builder.imm(Reg::R2, bv as i64);
        builder.alu_rr(op, Reg::R3, Reg::R1, Reg::R2);
        builder.halt();
        let mut vm = Vm::new(builder.build().unwrap());
        vm.run(10).unwrap();
        prop_assert_eq!(vm.reg(Reg::R3), op.apply(a, bv));
    }

    /// Conditional branches take exactly the path the condition says.
    #[test]
    fn branches_follow_conditions(a in any::<u64>(), bv in any::<u64>()) {
        for cond in [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Ge, Cond::LtU, Cond::GeU] {
            let mut builder = ProgramBuilder::new();
            builder.imm(Reg::R1, a as i64);
            builder.imm(Reg::R2, bv as i64);
            let taken = builder.label();
            builder.branch(cond, Reg::R1, Operand::Reg(Reg::R2), taken);
            builder.imm(Reg::R3, 1); // fall-through marker
            builder.halt();
            builder.bind(taken);
            builder.imm(Reg::R3, 2); // taken marker
            builder.halt();
            let mut vm = Vm::new(builder.build().unwrap());
            vm.run(10).unwrap();
            let expect = if cond.holds(a, bv) { 2 } else { 1 };
            prop_assert_eq!(vm.reg(Reg::R3), expect, "cond {:?}", cond);
        }
    }

    /// Loads and stores agree through the VM for arbitrary aligned
    /// addresses and offsets.
    #[test]
    fn load_store_round_trip(base in 0u64..1 << 30, offset in -512i64..512, val in any::<u64>()) {
        let mut b = ProgramBuilder::new();
        b.imm(Reg::R1, base as i64);
        b.imm(Reg::R2, val as i64);
        b.store(Reg::R2, Reg::R1, offset);
        b.load(Reg::R3, Reg::R1, offset);
        b.halt();
        let mut vm = Vm::new(b.build().unwrap());
        vm.run(10).unwrap();
        prop_assert_eq!(vm.reg(Reg::R3), val);
    }

    /// Traces are replay-stable: running the same program twice yields
    /// identical traces.
    #[test]
    fn traces_are_deterministic(seed_vals in proptest::collection::vec(any::<u64>(), 4..32)) {
        let build = || {
            let mut b = ProgramBuilder::new();
            b.imm(Reg::R1, 0x10_0000);
            for (i, _) in seed_vals.iter().enumerate() {
                b.load(Reg::R2, Reg::R1, (i * 8) as i64);
                b.alu_rr(AluOp::Add, Reg::R3, Reg::R3, Reg::R2);
            }
            b.halt();
            let mut vm = Vm::new(b.build().unwrap());
            for (i, v) in seed_vals.iter().enumerate() {
                vm.memory_mut().write_u64(0x10_0000 + (i * 8) as u64, *v);
            }
            vm.run(10_000).unwrap()
        };
        let t1 = build();
        let t2 = build();
        prop_assert_eq!(t1.as_slice(), t2.as_slice());
    }
}
