//! `clear_run_caches` drops memoized captures: the next capture
//! re-simulates from scratch and reproduces the first one exactly.

use std::sync::Arc;

use dol_harness::runner::clear_run_caches;
use dol_harness::{BaselineRun, RunPlan};

#[test]
fn capture_after_clear_is_fresh_and_identical() {
    let plan = RunPlan {
        insts: 20_000,
        ..RunPlan::quick()
    };
    let spec = dol_workloads::by_name("stream_sum").unwrap();
    let first = BaselineRun::capture(&spec, &plan);
    let hit = BaselineRun::capture(&spec, &plan);
    assert!(Arc::ptr_eq(&first, &hit), "a repeat capture is a memo hit");

    clear_run_caches();
    let second = BaselineRun::capture(&spec, &plan);
    assert!(!Arc::ptr_eq(&first, &second), "capture memo cleared");
    assert!(
        !Arc::ptr_eq(&first.classifier, &second.classifier),
        "classifier memo cleared"
    );
    assert_eq!(first.result, second.result);
}
