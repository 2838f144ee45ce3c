//! Cross-cutting baseline tests: every monolithic prefetcher against
//! every canonical pattern, checking qualitative selectivity (fires on
//! its home pattern, stays quiet — or at least restrained — elsewhere).

use dol_baselines::registry::{monolithic_by_name, monolithic_origin, MONOLITHIC_NAMES};
use dol_core::{AccessInfo, PrefetchRequest, Prefetcher, RetireInfo};
use dol_isa::{InstKind, Reg, RetiredInst};
use dol_mem::{CacheLevel, Origin};

fn feed(
    p: &mut dyn Prefetcher,
    accesses: impl IntoIterator<Item = (u64, u64, bool)>,
) -> Vec<PrefetchRequest> {
    let mut out = Vec::new();
    for (i, (pc, addr, hit)) in accesses.into_iter().enumerate() {
        let inst = RetiredInst {
            pc,
            kind: InstKind::Load { addr, value: 0 },
            dst: Some(Reg::R1),
            srcs: [Some(Reg::R2), None],
        };
        let ev = RetireInfo {
            now: i as u64 * 10,
            inst: &inst,
            mpc: pc,
            access: Some(AccessInfo {
                l1_hit: hit,
                secondary: false,
                latency: if hit { 3 } else { 200 },
                served_by_prefetch: None,
            }),
        };
        p.on_retire(&ev, &mut out);
    }
    out
}

fn unit_stride(n: u64) -> Vec<(u64, u64, bool)> {
    (0..n).map(|i| (0x100, 0x40_0000 + i * 64, false)).collect()
}

fn random_stream(n: u64) -> Vec<(u64, u64, bool)> {
    let mut x = 0x1234_5678u64;
    (0..n)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            (0x100, (0x100_0000 + (x % (1 << 26))) & !63, false)
        })
        .collect()
}

#[test]
fn every_monolithic_fires_on_a_unit_stride() {
    // 3000 accesses = ~190 regions: enough for SMS's accumulation table
    // to turn over and populate its pattern history.
    for name in MONOLITHIC_NAMES {
        let mut p = monolithic_by_name(name, Origin(16)).unwrap();
        let out = feed(p.as_mut(), unit_stride(3000));
        assert!(!out.is_empty(), "{name} must prefetch a unit-stride stream");
        // And every target must be ahead of the stream base, line-aligned.
        for r in &out {
            assert_eq!(r.addr % 64, 0, "{name} produced an unaligned target");
            assert!(r.addr >= 0x40_0000, "{name} prefetched behind the stream");
            assert_eq!(r.dest, CacheLevel::L1, "{name} prefetches into L1");
        }
    }
}

#[test]
fn confidence_driven_designs_restrain_on_random_streams() {
    // The designs with confidence/feedback machinery must issue far less
    // on a random stream than on a strided one. (BOP is excluded: per the
    // original design it prefetches at offset 1 until its first full
    // learning phase — 2600 trained accesses — completes, and only then
    // deactivates; its own unit test covers that deactivation.)
    for name in ["SPP", "VLDP", "FDP"] {
        let mut p = monolithic_by_name(name, Origin(16)).unwrap();
        let on_stride = feed(p.as_mut(), unit_stride(3000)).len();
        let mut p = monolithic_by_name(name, Origin(16)).unwrap();
        let on_random = feed(p.as_mut(), random_stream(3000)).len();
        assert!(
            on_random * 3 < on_stride,
            "{name}: random {on_random} vs strided {on_stride}"
        );
    }
}

#[test]
fn registry_set_carries_distinct_origins_into_requests() {
    for (i, name) in MONOLITHIC_NAMES.iter().enumerate() {
        let origin = monolithic_origin(i);
        let mut p = monolithic_by_name(name, origin).unwrap();
        let out = feed(p.as_mut(), unit_stride(400));
        for r in &out {
            assert_eq!(r.origin, origin, "{} must stamp its own origin", p.name());
        }
    }
}

#[test]
fn prefetchers_survive_interleaved_independent_streams() {
    // Four interleaved streams with different strides and pcs: no panics,
    // and at least half the designs keep prefetching all four.
    let mut accesses = Vec::new();
    for i in 0..500u64 {
        accesses.push((0x100, 0x10_0000 + i * 64, false));
        accesses.push((0x104, 0x20_0000 + i * 128, false));
        accesses.push((0x108, 0x30_0000 + i * 256, false));
        accesses.push((0x10C, 0x40_0000 + i * 512, false));
    }
    let mut cover_all = 0;
    for name in MONOLITHIC_NAMES {
        let mut p = monolithic_by_name(name, Origin(16)).unwrap();
        let out = feed(p.as_mut(), accesses.clone());
        let regions = [0x10_0000u64, 0x20_0000, 0x30_0000, 0x40_0000];
        let covered = regions
            .iter()
            .filter(|base| {
                out.iter()
                    .any(|r| r.addr >= **base && r.addr < *base + 0x10_0000)
            })
            .count();
        if covered == 4 {
            cover_all += 1;
        }
    }
    assert!(
        cover_all >= 4,
        "only {cover_all}/7 designs covered all four streams"
    );
}

#[test]
fn stores_train_prefetchers_too() {
    // A strided store stream (write-allocate misses) must be prefetchable
    // by the map/stream designs.
    let mut out = Vec::new();
    let mut ampm = monolithic_by_name("AMPM", Origin(16)).unwrap();
    for i in 0..100u64 {
        let inst = RetiredInst {
            pc: 0x100,
            kind: InstKind::Store {
                addr: 0x40_0000 + i * 64,
            },
            dst: None,
            srcs: [Some(Reg::R2), Some(Reg::R3)],
        };
        let ev = RetireInfo {
            now: i * 10,
            inst: &inst,
            mpc: 0x100,
            access: Some(AccessInfo {
                l1_hit: false,
                secondary: false,
                latency: 200,
                served_by_prefetch: None,
            }),
        };
        ampm.on_retire(&ev, &mut out);
    }
    assert!(
        !out.is_empty(),
        "AMPM must match the store stream's access map"
    );
}
