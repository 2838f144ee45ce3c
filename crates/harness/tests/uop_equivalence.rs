//! Capture via the micro-op VM must be bit-identical to capture via the
//! reference interpreter for every shipped workload — traces, memory
//! images (as observed by the timing model), and the downstream
//! `RunResult`/event streams they produce.

use dol_core::NoPrefetcher;
use dol_cpu::{System, SystemConfig, Workload};
use dol_harness::prefetchers;
use dol_mem::CollectSink;

/// Budget matching the smoke plan: big enough to reach steady state in
/// every kernel, small enough to keep the all-workload sweep quick.
const INSTS: u64 = 40_000;
const SEED: u64 = 2018;

/// Every workload's micro-op capture equals its reference capture,
/// retired record for retired record.
#[test]
fn all_workload_captures_are_bit_identical() {
    for spec in dol_workloads::all_workloads() {
        let fast = Workload::capture(spec.build_vm(SEED), INSTS)
            .unwrap_or_else(|e| panic!("{}: uop capture failed: {e}", spec.name));
        let reference = Workload::capture_reference(spec.build_vm(SEED), INSTS)
            .unwrap_or_else(|e| panic!("{}: reference capture failed: {e}", spec.name));
        assert_eq!(
            fast.trace.len(),
            reference.trace.len(),
            "{}: trace lengths diverged",
            spec.name
        );
        for (i, (a, b)) in fast.trace.iter().zip(reference.trace.iter()).enumerate() {
            assert_eq!(a, b, "{}: retired record {i} diverged", spec.name);
        }
    }
}

/// The two capture paths feed the timing model identically: same
/// `RunResult` with and without a prefetcher in the loop, and the same
/// memory-event stream, event for event, under TPC.
#[test]
fn run_results_and_event_streams_match_across_capture_paths() {
    let sys = System::new(SystemConfig::isca2018(1));
    for spec in dol_workloads::all_workloads().iter().take(6) {
        let fast = Workload::capture(spec.build_vm(SEED), INSTS).expect("capture");
        let reference = Workload::capture_reference(spec.build_vm(SEED), INSTS).expect("capture");

        let base_a = sys.run(&fast, &mut NoPrefetcher);
        let base_b = sys.run(&reference, &mut NoPrefetcher);
        assert_eq!(
            format!("{base_a:?}"),
            format!("{base_b:?}"),
            "{}: baseline RunResult diverged",
            spec.name
        );

        let mut pf_a = prefetchers::build("TPC").expect("known config");
        let mut pf_b = prefetchers::build("TPC").expect("known config");
        let mut events_a = CollectSink::new();
        let mut events_b = CollectSink::new();
        let run_a = sys.run_with_sink(&fast, &mut pf_a, &mut events_a);
        let run_b = sys.run_with_sink(&reference, &mut pf_b, &mut events_b);
        assert_eq!(
            format!("{run_a:?}"),
            format!("{run_b:?}"),
            "{}: TPC RunResult diverged",
            spec.name
        );
        assert_eq!(
            events_a.events.len(),
            events_b.events.len(),
            "{}: TPC event counts diverged",
            spec.name
        );
        for (i, (a, b)) in events_a.events.iter().zip(&events_b.events).enumerate() {
            assert_eq!(a, b, "{}: TPC event {i} diverged", spec.name);
        }
    }
}
