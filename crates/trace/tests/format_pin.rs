//! Pins the exact `dol-trace` bytes (format version 2) of one fixed
//! workload.
//!
//! The workload is synthetic and built here from a fixed seed (not from
//! `dol-workloads`, whose kernels may change), and it exercises every
//! frame kind: two memory frames with full-width, small and zero words,
//! several instruction frames covering every instruction kind, and the
//! end frame. Any writer-side change that alters a single byte of the
//! format fails this test; a deliberate format change must bump
//! [`dol_trace::VERSION`] and re-record the pin.

use dol_isa::{InstKind, Reg, RetiredInst, SparseMemory};
use dol_trace::{decode_workload, encode_workload, TraceHeader, VERSION};

/// Length of the pinned encoding, in bytes.
const PINNED_LEN: usize = 313_125;
/// FNV-1a 64 of the pinned encoding.
const PINNED_FNV1A: u64 = 0x5bb8_6bfd_4bae_3242;

/// SplitMix64: a fixed, dependency-free generator for the workload.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

fn pinned_workload() -> (TraceHeader, SparseMemory, Vec<RetiredInst>) {
    let mut rng = SplitMix(2018);
    let mut memory = SparseMemory::new();
    // 40 pages: more than one memory frame's worth, spread over the
    // address space so page deltas take several varint widths.
    for p in 0..40u64 {
        let page = 0x10 + p * p * 37;
        for w in 0..SparseMemory::PAGE_WORDS as u64 {
            let value = match (p + w) % 4 {
                0 => rng.next(),
                1 => rng.next() >> 40,
                2 => 0,
                _ => w,
            };
            memory.write_u64(page * 4096 + w * 8, value);
        }
    }
    let reg = |r: u64| Reg::from_index((r % 33) as usize);
    let mut pc = 0x40_0000u64;
    let mut addr = 0x10_000u64;
    let insts: Vec<RetiredInst> = (0..20_000u64)
        .map(|i| {
            let r = rng.next();
            // Mostly strided accesses, with a random jump one time in 16.
            addr = if r % 16 == 0 {
                rng.next() & 0xFFFF_FFF8
            } else {
                addr.wrapping_add(8 * (r >> 60))
            };
            let target = pc.wrapping_add((r >> 8) & 0xFFC).wrapping_sub(0x800);
            let kind = match i % 9 {
                0 => InstKind::Alu {
                    latency: (r >> 16) as u8 % 8,
                },
                1 => InstKind::Load {
                    addr,
                    value: rng.next() >> (r % 64),
                },
                2 => InstKind::Store { addr },
                3 => InstKind::Branch {
                    taken: true,
                    target,
                },
                4 => InstKind::Branch {
                    taken: false,
                    target,
                },
                5 => InstKind::Jump { target },
                6 => InstKind::Call {
                    target,
                    return_to: pc + 4,
                },
                7 => InstKind::Ret { target },
                _ => InstKind::Other,
            };
            let inst = RetiredInst {
                pc,
                kind,
                dst: reg(r >> 24),
                srcs: [reg(r >> 32), reg(r >> 40)],
            };
            pc = if i % 7 == 6 { target } else { pc + 4 };
            inst
        })
        .collect();
    let header = TraceHeader {
        name: "format-pin".into(),
        seed: 2018,
        insts: insts.len() as u64,
    };
    (header, memory, insts)
}

#[test]
fn encoding_of_the_pinned_workload_is_unchanged() {
    let (header, memory, insts) = pinned_workload();
    let mut bytes = Vec::new();
    let written = encode_workload(&mut bytes, &header, &memory, &insts).expect("encodes");
    assert_eq!(written, bytes.len() as u64);
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (PINNED_LEN, PINNED_FNV1A),
        "dol-trace v{VERSION} encoding changed: got len {} fnv1a {:#018x}",
        bytes.len(),
        fnv1a(&bytes)
    );
    let (h, mem, trace) = decode_workload(&bytes[..]).expect("decodes");
    assert_eq!(h, header);
    assert_eq!(trace.as_slice(), &insts[..]);
    assert_eq!(mem.pages_sorted(), memory.pages_sorted());
}
