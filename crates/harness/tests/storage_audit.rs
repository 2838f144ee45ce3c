//! Storage-budget audit.
//!
//! `storage_bits()` models an SRAM budget, so it must be a pure
//! function of construction-time geometry: running a workload through a
//! prefetcher cannot change the number. (Before the fixed-geometry
//! table port this held only by accident — a `HashMap`-backed store
//! reported whatever it had grown to.) The TPC total must also stay
//! within the comparison band of the paper's Table II budget.

use dol_core::Prefetcher;
use dol_harness::prefetchers::{self, COMPARISON_SET, EXTRA_SET};
use dol_harness::runner::single_core;
use dol_harness::RunPlan;

/// Captures one small workload and drives it through `p`.
fn exercise(p: &mut dyn Prefetcher) {
    let plan = RunPlan::quick();
    let spec = dol_workloads::by_name("stream_sum").expect("known workload");
    let workload =
        dol_cpu::Workload::capture(spec.build_vm(plan.seed), 15_000).expect("workload capture");
    single_core().run(&workload, p);
}

#[test]
fn storage_bits_is_workload_invariant() {
    let mut names: Vec<String> = COMPARISON_SET.iter().map(|s| s.to_string()).collect();
    names.extend(
        [
            "T2",
            "P1",
            "C1",
            "T2+P1",
            "TPC-plainPC",
            "none",
            "NextLine",
            "StridePC",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    for extra in EXTRA_SET {
        names.push(format!("TPC+{extra}"));
        names.push(format!("TPC|{extra}"));
    }
    for name in names {
        let mut p = prefetchers::build(&name).unwrap_or_else(|| panic!("{name} must build"));
        let before = p.storage_bits();
        exercise(p.as_mut());
        assert_eq!(
            p.storage_bits(),
            before,
            "{name}: storage_bits must be workload-invariant"
        );
    }
}

#[test]
fn tpc_total_matches_paper_budget() {
    // Table II: T2 ≈ 2.3 KB + P1 ≈ 1.07 KB + C1 ≈ 1.2 KB ⇒ TPC ≈ 4.57 KB.
    let p = prefetchers::build("TPC").expect("TPC config");
    let kb = p.storage_bits() as f64 / 8192.0;
    assert!(
        (kb - 4.57).abs() / 4.57 < 0.25,
        "TPC storage ≈ 4.57 KB (±25%), got {kb:.2} KB"
    );
}
