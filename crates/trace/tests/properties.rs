//! Property-based tests for the `dol-trace` codec plus full
//! record→replay round-trips over every embedded workload.

use dol_isa::{InstKind, InstSource, Reg, RetiredInst, SparseMemory};
use dol_trace::{decode_workload, encode_workload, ReplaySource, TraceHeader, TraceReader};
use proptest::prelude::*;

fn reg_strategy() -> impl Strategy<Value = Option<Reg>> {
    (0usize..Reg::COUNT + 1).prop_map(Reg::from_index)
}

fn kind_strategy() -> impl Strategy<Value = InstKind> {
    prop_oneof![
        (0u8..64).prop_map(|latency| InstKind::Alu { latency }),
        (any::<u64>(), any::<u64>()).prop_map(|(addr, value)| InstKind::Load {
            addr: addr & !7,
            value
        }),
        any::<u64>().prop_map(|addr| InstKind::Store { addr: addr & !7 }),
        (any::<bool>(), any::<u64>()).prop_map(|(taken, target)| InstKind::Branch {
            taken,
            target: target & !3
        }),
        any::<u64>().prop_map(|target| InstKind::Jump {
            target: target & !3
        }),
        (any::<u64>(), any::<u64>()).prop_map(|(target, return_to)| InstKind::Call {
            target: target & !3,
            return_to: return_to & !3
        }),
        any::<u64>().prop_map(|target| InstKind::Ret {
            target: target & !3
        }),
        Just(InstKind::Other),
    ]
}

fn inst_strategy() -> impl Strategy<Value = RetiredInst> {
    (
        any::<u64>(),
        kind_strategy(),
        reg_strategy(),
        reg_strategy(),
        reg_strategy(),
    )
        .prop_map(|(pc, kind, dst, s0, s1)| RetiredInst {
            pc: pc & !3,
            kind,
            dst,
            srcs: [s0, s1],
        })
}

/// Encodes `insts` (with `memory`) and decodes them back.
fn round_trip(memory: &SparseMemory, insts: &[RetiredInst]) -> (SparseMemory, Vec<RetiredInst>) {
    let header = TraceHeader {
        name: "prop".into(),
        seed: 7,
        insts: insts.len() as u64,
    };
    let mut bytes = Vec::new();
    encode_workload(&mut bytes, &header, memory, insts).expect("encoding cannot fail in memory");
    let (h, mem, trace) = decode_workload(&bytes[..]).expect("own output decodes");
    assert_eq!(h, header);
    (mem, trace.as_slice().to_vec())
}

proptest! {
    /// Any instruction stream survives encode→decode exactly.
    #[test]
    fn arbitrary_streams_round_trip(insts in proptest::collection::vec(inst_strategy(), 0..400)) {
        let (_, decoded) = round_trip(&SparseMemory::new(), &insts);
        prop_assert_eq!(decoded, insts);
    }

    /// Any memory image survives encode→decode exactly, in page-sorted
    /// order.
    #[test]
    fn memory_images_round_trip(
        writes in proptest::collection::vec((0u64..1 << 32, any::<u64>()), 0..200),
    ) {
        let mut memory = SparseMemory::new();
        for (addr, val) in &writes {
            memory.write_u64(addr & !7, *val);
        }
        let (decoded, _) = round_trip(&memory, &[]);
        let expect: Vec<_> = memory.pages_sorted();
        let got: Vec<_> = decoded.pages_sorted();
        prop_assert_eq!(expect.len(), got.len());
        for ((ea, ew), (ga, gw)) in expect.iter().zip(&got) {
            prop_assert_eq!(ea, ga);
            prop_assert_eq!(&ew[..], &gw[..]);
        }
    }

    /// The streaming reader yields the same stream as the one-shot
    /// decoder, chunk boundaries and all.
    #[test]
    fn replay_source_equals_bulk_decode(insts in proptest::collection::vec(inst_strategy(), 1..300)) {
        let header = TraceHeader { name: "prop".into(), seed: 7, insts: insts.len() as u64 };
        let mut bytes = Vec::new();
        encode_workload(&mut bytes, &header, &SparseMemory::new(), &insts).unwrap();
        let mut reader = TraceReader::new(&bytes[..]).unwrap();
        reader.read_memory().unwrap();
        let mut source = ReplaySource::new(reader);
        let mut streamed = Vec::new();
        while let Some(inst) = source.next_inst() {
            streamed.push(inst);
        }
        prop_assert!(source.error().is_none(), "replay error: {:?}", source.error());
        prop_assert_eq!(streamed, insts);
    }
}

/// Record→replay is exact for every embedded workload: the decoded
/// stream and memory image equal the live VM capture bit for bit.
#[test]
fn every_workload_round_trips_through_the_codec() {
    const INSTS: u64 = 8_000;
    const SEED: u64 = 2018;
    for spec in dol_workloads::all_workloads() {
        let mut vm = spec.build_vm(SEED);
        let live = vm.run(INSTS).expect("workloads run");
        let memory = vm.memory().clone();
        let header = TraceHeader {
            name: spec.name.to_string(),
            seed: SEED,
            insts: live.len() as u64,
        };
        let mut bytes = Vec::new();
        encode_workload(&mut bytes, &header, &memory, live.as_slice()).expect("encodes");
        let (h, mem, trace) = decode_workload(&bytes[..]).expect("decodes");
        assert_eq!(h.name, spec.name, "{}: header name", spec.name);
        assert_eq!(
            trace.as_slice(),
            live.as_slice(),
            "{}: replayed stream must equal the live VM output",
            spec.name
        );
        let expect = memory.pages_sorted();
        let got = mem.pages_sorted();
        assert_eq!(expect.len(), got.len(), "{}: page count", spec.name);
        for ((ea, ew), (ga, gw)) in expect.iter().zip(&got) {
            assert_eq!(ea, ga, "{}: page address", spec.name);
            assert_eq!(&ew[..], &gw[..], "{}: page words", spec.name);
        }
    }
}
