//! Golden equivalence: the streaming accumulators must be bit-identical
//! to replaying a buffered event stream through the slice-based
//! functions they replaced.
//!
//! Each case runs the same workload twice — once into a [`CollectSink`]
//! buffer, once into streaming sinks ([`FootprintSink`] for the
//! baseline, [`StreamingMetrics`] for the prefetcher run) — and compares
//! every query the harness performs. Floating-point fields are compared
//! through `f64::to_bits`, so "equivalent" means *bit*-identical, not
//! approximately equal.

use dol_core::origins;
use dol_harness::analysis::{accuracy_by_category, accuracy_within, scope_by_category};
use dol_harness::runner::single_core;
use dol_harness::RunPlan;
use dol_mem::{CacheLevel, CollectSink, MemEvent, Origin};
use dol_metrics::{
    accuracy_at, classify_trace, footprint, prefetched_lines, EffectiveAccuracy, FootprintSink,
    StreamingMetrics,
};

fn assert_acc_bits(a: &EffectiveAccuracy, b: &EffectiveAccuracy, what: &str) {
    assert_eq!(a.issued, b.issued, "{what}: issued");
    assert_eq!(a.useful, b.useful, "{what}: useful");
    assert_eq!(a.unused, b.unused, "{what}: unused");
    assert_eq!(a.avoided, b.avoided, "{what}: avoided");
    assert_eq!(
        a.induced.to_bits(),
        b.induced.to_bits(),
        "{what}: induced ({} vs {})",
        a.induced,
        b.induced
    );
}

/// Runs `app` under TPC twice (buffered and streaming) and checks every
/// accumulator against its replay counterpart.
fn check_app(app: &str) {
    let plan = RunPlan::quick();
    let sys = single_core();
    let spec = dol_workloads::by_name(app).unwrap_or_else(|| panic!("unknown workload {app}"));
    let workload = dol_cpu::Workload::capture(spec.build_vm(plan.seed), plan.insts)
        .unwrap_or_else(|e| panic!("workload {app} failed: {e}"));
    let classifier = classify_trace(&workload.trace);

    // Baseline (no prefetcher): footprints come from demand misses.
    let mut sink = CollectSink::default();
    sys.run_with_sink(&workload, &mut dol_core::NoPrefetcher, &mut sink);
    for level in [CacheLevel::L1, CacheLevel::L2, CacheLevel::L3] {
        let mut fp = FootprintSink::new(level);
        sys.run_with_sink(&workload, &mut dol_core::NoPrefetcher, &mut fp);
        let replayed = footprint(&sink.events, level);
        let streamed = fp.footprint();
        assert_eq!(
            replayed.unique_lines(),
            streamed.unique_lines(),
            "{app}: footprint lines at {level:?}"
        );
        assert_eq!(
            replayed.total_weight(),
            streamed.total_weight(),
            "{app}: footprint weight at {level:?}"
        );
        for (line, w) in replayed.iter() {
            assert_eq!(streamed.weight(line), w, "{app}: weight of line {line:#x}");
        }
    }
    let fp_l1 = footprint(&sink.events, CacheLevel::L1);

    // TPC run: region = half the baseline footprint, to exercise the
    // region-restricted accounting the fig14 driver uses.
    let region: dol_metrics::LineSet = fp_l1
        .iter()
        .map(|(l, _)| l)
        .filter(|l| l % 2 == 0)
        .collect();
    let mut p1 = dol_harness::prefetchers::build("TPC").expect("TPC config");
    let mut p2 = dol_harness::prefetchers::build("TPC").expect("TPC config");
    let mut sink = CollectSink::default();
    let mut sm = StreamingMetrics::new()
        .with_classifier(std::sync::Arc::new(classifier.clone()))
        .with_region(region.clone());
    sys.run_with_sink(&workload, &mut p1, &mut sink);
    sys.run_with_sink(&workload, &mut p2, &mut sm);
    let events: &[MemEvent] = &sink.events;

    // Whole-prefetcher and single-origin accuracy at every level.
    let filters: [Option<&[Origin]>; 4] = [
        None,
        Some(&[origins::T2]),
        Some(&[origins::P1]),
        Some(&[origins::C1]),
    ];
    for level in [CacheLevel::L1, CacheLevel::L2, CacheLevel::L3] {
        for f in filters {
            assert_acc_bits(
                &accuracy_at(events, level, f),
                &sm.accuracy_at(level, f),
                &format!("{app}: accuracy_at {level:?} {f:?}"),
            );
            assert_acc_bits(
                &accuracy_within(events, level, f, Some(&region)),
                &sm.accuracy_in_region(level, f),
                &format!("{app}: region accuracy {level:?} {f:?}"),
            );
        }
    }

    // Prefetched-line sets, unfiltered and per component.
    assert_eq!(
        prefetched_lines(events, None),
        sm.prefetched_lines_all(),
        "{app}: prefetched lines (all)"
    );
    for o in [origins::T2, origins::P1, origins::C1] {
        assert_eq!(
            prefetched_lines(events, Some(&[o])),
            sm.prefetched_lines_of(&[o]),
            "{app}: prefetched lines of {o:?}"
        );
    }

    // Per-category (LHF/MHF/HHF) accounting and scope.
    for level in [CacheLevel::L1, CacheLevel::L2] {
        let replayed = accuracy_by_category(events, level, &classifier);
        let streamed = sm.accuracy_by_category(level);
        for i in 0..3 {
            assert_acc_bits(
                &replayed[i],
                &streamed[i],
                &format!("{app}: category {i} at {level:?}"),
            );
        }
    }
    let pfp = prefetched_lines(events, None);
    let replayed_scope = scope_by_category(&fp_l1, &pfp, &classifier);
    let streamed_scope = scope_by_category(&fp_l1, &sm.prefetched_lines_all(), &classifier);
    for i in 0..3 {
        assert_eq!(
            replayed_scope[i].to_bits(),
            streamed_scope[i].to_bits(),
            "{app}: category scope {i}"
        );
    }
}

#[test]
fn spec_suite_stream_matches_replay() {
    check_app("stream_sum");
}

#[test]
fn graph_suite_stream_matches_replay() {
    check_app(
        dol_workloads::graphs()
            .first()
            .map(|s| s.name)
            .expect("graph suite non-empty"),
    );
}

#[test]
fn embedded_suite_stream_matches_replay() {
    check_app(
        dol_workloads::embedded()
            .first()
            .map(|s| s.name)
            .expect("embedded suite non-empty"),
    );
}

#[test]
fn scientific_suite_stream_matches_replay() {
    check_app(
        dol_workloads::scientific()
            .first()
            .map(|s| s.name)
            .expect("scientific suite non-empty"),
    );
}
