//! End-to-end check that skipping the shadow tags changes no result.
//!
//! A sink that reads no pollution ([`NullSink`]) runs without the
//! hierarchy's shadow tags; [`StreamingMetrics`] reads pollution and runs
//! with them. Shadow state feeds the pollution events only, so every
//! workload must come out of both runs with an equal `RunResult` — cycles,
//! instructions, stalls, mispredicts and every memory-system counter —
//! under no prefetching, TPC and monolithic designs, and a 4-core co-run
//! must agree core by core.

use dol_cpu::{System, SystemConfig, Workload};
use dol_harness::prefetchers::build;
use dol_harness::runner::single_core;
use dol_mem::NullSink;
use dol_metrics::StreamingMetrics;

/// Small enough that all 36 workloads take seconds in the debug profile.
const INSTS: u64 = 10_000;
const SEED: u64 = 2018;

/// No prefetching, TPC, and two monolithic designs: FDP feeds on
/// `served_by_prefetch` outcomes, and SMS runs in the co-run test too.
const CONFIGS: [&str; 4] = ["none", "TPC", "FDP", "SMS"];

fn capture(name: &str) -> Workload {
    let spec = dol_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
    Workload::capture(spec.build_vm(SEED), INSTS)
        .unwrap_or_else(|e| panic!("workload {name} failed: {e}"))
}

#[test]
fn null_sink_runs_equal_streaming_runs_on_every_workload() {
    let sys = single_core();
    let specs = dol_workloads::all_workloads();
    assert_eq!(specs.len(), 36, "the four suites hold 36 workloads");
    for spec in &specs {
        let workload = capture(spec.name);
        for config in CONFIGS {
            let mut p = build(config).expect("known config");
            let bare = sys.run_with_sink(&workload, &mut p, &mut NullSink);
            let mut p = build(config).expect("known config");
            let mut metrics = StreamingMetrics::new();
            let shadowed = sys.run_with_sink(&workload, &mut p, &mut metrics);
            assert_eq!(bare, shadowed, "{} under {config}", spec.name);
        }
    }
}

#[test]
fn null_sink_corun_equals_streaming_corun() {
    let sys = System::new(SystemConfig::isca2018(4));
    let workloads = [
        "stream_triad",
        "listchase_payload",
        "histogram",
        "gather_window",
    ]
    .map(capture);
    let mut ps = ["SMS"; 4].map(|n| build(n).expect("known config"));
    let bare = sys.run_corun(&workloads, &mut ps, &mut NullSink);
    let mut ps = ["SMS"; 4].map(|n| build(n).expect("known config"));
    let mut metrics = StreamingMetrics::new();
    let shadowed = sys.run_corun(&workloads, &mut ps, &mut metrics);
    assert_eq!(
        bare.cores, shadowed.cores,
        "per-core cycles and instructions"
    );
    assert_eq!(bare.stalls, shadowed.stalls);
    assert_eq!(bare.mispredicts, shadowed.mispredicts);
    assert_eq!(bare.stats, shadowed.stats);
}
