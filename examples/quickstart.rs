//! Quickstart: simulate one workload under the paper's TPC composite
//! prefetcher and compare it with the no-prefetch baseline.
//!
//! Run with: `cargo run --release -p dol-examples --bin quickstart`

use dol_core::{NoPrefetcher, Prefetcher, Tpc};
use dol_cpu::{System, SystemConfig, Workload};
use dol_mem::CacheLevel;
use dol_metrics::{scope, FootprintSink, StreamingMetrics};

fn main() {
    // 1. Pick a workload from the suite and capture its functional trace.
    //    (Any `dol_isa::Vm` works; the suites are just convenient.)
    let spec = dol_workloads::by_name("stream_sum").expect("known workload");
    let workload = Workload::capture(spec.build_vm(42), 500_000).expect("kernel runs forever");
    println!(
        "workload `{}`: {} instructions, {} memory accesses",
        spec.name,
        workload.trace.len(),
        workload.trace.mem_count()
    );

    // 2. Build the simulated machine (the paper's Table I) and run the
    //    no-prefetch baseline, streaming its L1 miss footprint (the
    //    denominator of the scope metric) into a sink.
    let sys = System::new(SystemConfig::isca2018(1));
    let mut base_fp = FootprintSink::new(CacheLevel::L1);
    let baseline = sys.run_with_sink(&workload, &mut NoPrefetcher, &mut base_fp);
    println!(
        "baseline: {} cycles (IPC {:.2}), {} L1 misses",
        baseline.cycles,
        baseline.ipc(),
        baseline.stats.cores[0].l1_misses
    );

    // 3. Run the same trace under TPC, streaming the event metrics
    //    (`sys.run(..)` alone discards events and skips the accounting).
    let mut tpc = Tpc::full();
    let mut tpc_metrics = StreamingMetrics::new();
    let with_tpc = sys.run_with_sink(&workload, &mut tpc, &mut tpc_metrics);
    println!(
        "with TPC: {} cycles (IPC {:.2}), {} L1 misses, {} prefetches",
        with_tpc.cycles,
        with_tpc.ipc(),
        with_tpc.stats.cores[0].l1_misses,
        with_tpc.stats.cores[0].prefetches
    );
    println!(
        "speedup: {:.2}x  |  storage budget: {:.2} KB",
        baseline.cycles as f64 / with_tpc.cycles as f64,
        tpc.storage_bits() as f64 / 8192.0
    );

    // 4. The paper's metrics: scope (the share of the baseline footprint
    //    TPC attempted) and effective accuracy, accumulated online by the
    //    sinks while the runs streamed.
    let pfp = tpc_metrics.prefetched_lines_all();
    let acc = tpc_metrics.accuracy_at(CacheLevel::L1, None);
    println!(
        "scope {:.2}, effective accuracy {:.2} ({} issued, {} useful)",
        scope(base_fp.footprint(), &pfp),
        acc.effective_accuracy(),
        acc.issued,
        acc.useful
    );
}
