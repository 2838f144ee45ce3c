//! Cross-crate end-to-end behaviour: workloads → timing model →
//! prefetchers → metrics.

use dol_core::{NoPrefetcher, Prefetcher, Tpc};
use dol_cpu::{System, SystemConfig, Workload};
use dol_harness::prefetchers;
use dol_mem::{CacheLevel, CollectSink, NullSink};
use dol_metrics::{scope, FootprintSink, StreamingMetrics};

const BUDGET: u64 = 120_000;

fn capture(name: &str) -> Workload {
    let spec = dol_workloads::by_name(name).unwrap_or_else(|| panic!("workload {name}"));
    Workload::capture(spec.build_vm(11), BUDGET).expect("workload runs")
}

fn sys() -> System {
    System::new(SystemConfig::isca2018(1))
}

#[test]
fn every_comparison_prefetcher_completes_every_suite_workload() {
    // Smoke over the full matrix at a small budget: no panics, sane
    // outputs, instruction counts preserved.
    let sys = sys();
    for spec in dol_workloads::all_workloads() {
        let w = Workload::capture(spec.build_vm(5), 30_000).expect("runs");
        for cfg in prefetchers::COMPARISON_SET {
            let mut p = prefetchers::build(cfg).expect("known config");
            let r = sys.run(&w, &mut p);
            assert_eq!(
                r.instructions as usize,
                w.trace.len(),
                "{cfg} on {} lost instructions",
                spec.name
            );
            assert!(r.cycles > 0);
        }
    }
}

#[test]
fn tpc_beats_baseline_on_every_stride_kernel() {
    let sys = sys();
    for name in [
        "stream_sum",
        "stream_triad",
        "unrolled_copy",
        "stencil3",
        "matrix_row",
    ] {
        let w = capture(name);
        let base = sys.run(&w, &mut NoPrefetcher);
        let mut tpc = Tpc::full();
        let with = sys.run(&w, &mut tpc);
        let speedup = base.cycles as f64 / with.cycles as f64;
        assert!(
            speedup > 1.3,
            "{name}: expected a clear win, got {speedup:.3}"
        );
    }
}

#[test]
fn tpc_never_catastrophically_hurts() {
    // The composite's high accuracy must keep the worst case mild across
    // the whole spec21 suite (the paper's robustness claim).
    let sys = sys();
    for spec in dol_workloads::spec21() {
        let w = Workload::capture(spec.build_vm(11), BUDGET).expect("runs");
        let base = sys.run(&w, &mut NoPrefetcher);
        let mut tpc = Tpc::full();
        let with = sys.run(&w, &mut tpc);
        let speedup = base.cycles as f64 / with.cycles as f64;
        assert!(
            speedup > 0.85,
            "{}: TPC must not badly hurt, got {speedup:.3}",
            spec.name
        );
    }
}

#[test]
fn runs_are_deterministic() {
    let sys = sys();
    let w = capture("gather_window");
    let mut a = Tpc::full();
    let mut b = Tpc::full();
    let mut sink_a = CollectSink::new();
    let mut sink_b = CollectSink::new();
    let ra = sys.run_with_sink(&w, &mut a, &mut sink_a);
    let rb = sys.run_with_sink(&w, &mut b, &mut sink_b);
    assert_eq!(ra.cycles, rb.cycles);
    assert_eq!(ra.stats, rb.stats);
    assert_eq!(sink_a.events, sink_b.events);
}

#[test]
fn t2_has_near_perfect_accuracy_on_canonical_streams() {
    let sys = sys();
    let w = capture("stream_sum");
    let mut base_fp = FootprintSink::new(CacheLevel::L1);
    let base = sys.run_with_sink(&w, &mut NoPrefetcher, &mut base_fp);
    assert!(base.cycles > 0);
    let mut t2 = Tpc::t2_only();
    let mut sm = StreamingMetrics::new();
    let _with = sys.run_with_sink(&w, &mut t2, &mut sm);
    let acc = sm.accuracy_at(CacheLevel::L1, None);
    assert!(
        acc.effective_accuracy() > 0.9,
        "T2 accuracy on its home pattern: {:.3}",
        acc.effective_accuracy()
    );
    let pfp = sm.prefetched_lines_all();
    assert!(
        scope(base_fp.footprint(), &pfp) > 0.9,
        "T2 scope on a pure stream"
    );
}

#[test]
fn tpc_traffic_overhead_is_small_on_streams() {
    let sys = sys();
    let w = capture("stream_triad");
    let base = sys.run(&w, &mut NoPrefetcher);
    let mut tpc = Tpc::full();
    let with = sys.run(&w, &mut tpc);
    let ratio = with.stats.dram.total_traffic_lines() as f64
        / base.stats.dram.total_traffic_lines().max(1) as f64;
    assert!(
        ratio < 1.15,
        "accurate prefetching must not inflate traffic much: {ratio:.3}"
    );
}

#[test]
fn multicore_weighted_speedup_is_positive_for_tpc() {
    let sys4 = System::new(SystemConfig::isca2018(4));
    let sys1 = sys();
    let names = ["stream_sum", "region_shuffle", "hash_probe", "spmv_csr"];
    let ws: [Workload; 4] = names.map(capture);
    let alone: Vec<f64> = ws
        .iter()
        .map(|w| sys1.run(w, &mut NoPrefetcher).ipc())
        .collect();

    let run4 = |mk: &dyn Fn() -> Box<dyn Prefetcher>| {
        let mut ps: [Box<dyn Prefetcher>; 4] = std::array::from_fn(|_| mk());
        let r = sys4.run_corun(&ws, &mut ps, &mut NullSink);
        dol_metrics::weighted_speedup(&r.ipcs(), &alone)
    };
    let ws_none = run4(&|| Box::new(NoPrefetcher));
    let ws_tpc = run4(&|| Box::new(Tpc::full()));
    assert!(
        ws_tpc > ws_none,
        "TPC must lift the mix: {ws_tpc:.3} vs {ws_none:.3}"
    );
}

#[test]
fn composite_and_shunt_configs_run_end_to_end() {
    let sys = sys();
    let w = capture("histogram");
    for cfg in ["TPC+SMS", "TPC|SMS", "TPC+VLDP", "TPC|VLDP"] {
        let mut p = prefetchers::build(cfg).expect("combinator config");
        let r = sys.run(&w, &mut p);
        assert!(r.cycles > 0);
        assert_eq!(p.name(), cfg);
    }
}
