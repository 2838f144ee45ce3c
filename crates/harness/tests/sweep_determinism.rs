//! Serial (`jobs = 1`) and parallel sweeps must produce bit-identical
//! results for a fixed seed — the tables a CI run prints cannot depend
//! on the worker count.

use dol_harness::experiments::{ablations, matrix};
use dol_harness::RunPlan;

fn tiny_plan(jobs: usize) -> RunPlan {
    RunPlan {
        insts: 15_000,
        mix_count: 1,
        jobs,
        max_workloads: Some(3),
        ..RunPlan::quick()
    }
}

#[test]
fn scan_is_identical_serial_vs_parallel() {
    let configs = ["T2", "TPC"];
    let serial = matrix::scan_spec21(&tiny_plan(1), &configs);
    let parallel = matrix::scan_spec21(&tiny_plan(4), &configs);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.app, b.app);
        assert_eq!(a.base_cycles, b.base_cycles);
        assert_eq!(a.mpki.to_bits(), b.mpki.to_bits());
        for (ca, cb) in a.configs.iter().zip(&b.configs) {
            assert_eq!(ca.config, cb.config);
            assert_eq!(ca.speedup.to_bits(), cb.speedup.to_bits(), "{}", a.app);
            assert_eq!(ca.traffic_ratio.to_bits(), cb.traffic_ratio.to_bits());
            assert_eq!(ca.cov_l1.to_bits(), cb.cov_l1.to_bits());
        }
    }
}

#[test]
fn report_renders_identically_serial_vs_parallel() {
    let serial = ablations::drop_policy(&tiny_plan(1));
    let parallel = ablations::drop_policy(&tiny_plan(4));
    assert_eq!(serial.table, parallel.table);
}

/// The full CI artifact, not just one driver: `dol all --smoke` must
/// print byte-identical tables for any `--jobs` value (the table
/// replacement policies are deterministic; nothing may depend on worker
/// interleaving or process-random hash seeds).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "spawns two full smoke runs; run under --release"
)]
fn dol_all_output_is_byte_identical_for_any_jobs() {
    let exe = env!("CARGO_BIN_EXE_dol");
    let run = |jobs: &str| {
        let out = std::process::Command::new(exe)
            .args(["all", "--smoke", "--jobs", jobs])
            .output()
            .expect("dol spawns");
        assert!(out.status.success(), "dol all --jobs {jobs} failed");
        out.stdout
    };
    let serial = run("1");
    let parallel = run("4");
    assert_eq!(serial, parallel, "dol all stdout must not depend on --jobs");
}

#[test]
fn smoke_plan_caps_the_scan() {
    let apps = matrix::scan_spec21(
        &RunPlan {
            insts: 15_000,
            ..RunPlan::smoke()
        },
        &["T2"],
    );
    assert_eq!(apps.len(), 3);
}
