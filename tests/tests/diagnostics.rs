//! Development diagnostics (run with `--ignored`): detailed breakdowns
//! that helped calibrate the memory model. Kept as executable
//! documentation of the timeliness methodology.

use dol_baselines::Fdp;
use dol_core::{NoPrefetcher, Prefetcher, Tpc};
use dol_cpu::{System, SystemConfig, Workload};
use dol_mem::{CacheLevel, CollectSink, DropReason, MemEvent, Origin};

#[test]
#[ignore]
fn stream_gap() {
    let spec = dol_workloads::by_name("stream_sum").unwrap();
    let w = Workload::capture(spec.build_vm(2018), 300_000).unwrap();
    let sys = System::new(SystemConfig::isca2018(1));
    let base = sys.run(&w, &mut NoPrefetcher);
    println!(
        "base: cycles {} l1m {} avglat {:.1}",
        base.cycles,
        base.stats.cores[0].l1_misses,
        base.stats.cores[0].latency_sum as f64 / base.stats.cores[0].accesses as f64
    );
    {
        let mut t2 = Tpc::t2_only();
        let _ = sys.run(&w, &mut t2);
        println!(
            "T2 state: amat {} t_iter {:?} distance {}",
            t2.amat(),
            t2.loop_hardware().active_loop().map(|l| l.t_iter()),
            t2.distance()
        );
    }
    let runs: Vec<(&str, Box<dyn Prefetcher>)> = vec![
        ("T2", Box::new(Tpc::t2_only())),
        ("FDP", Box::new(Fdp::new(Origin(20)))),
    ];
    for (name, mut p) in runs {
        let mut sink = CollectSink::new();
        let r = sys.run_with_sink(&w, p.as_mut(), &mut sink);
        let mut issued = 0u64;
        let mut dropped = [0u64; 4];
        let mut useful = 0u64;
        for e in &sink.events {
            match e {
                MemEvent::PrefetchIssued { .. } => issued += 1,
                MemEvent::PrefetchDropped { reason, .. } => {
                    dropped[match reason {
                        DropReason::Redundant => 0,
                        DropReason::InFlight => 1,
                        DropReason::NoMshr => 2,
                        DropReason::QueueFull => 3,
                    }] += 1
                }
                MemEvent::PrefetchUseful {
                    level: CacheLevel::L1,
                    ..
                } => useful += 1,
                _ => {}
            }
        }
        println!(
            "{name}: cycles {} speedup {:.3} l1m {} avglat {:.1} issued {} useful {} dropped {:?}",
            r.cycles,
            base.cycles as f64 / r.cycles as f64,
            r.stats.cores[0].l1_misses,
            r.stats.cores[0].latency_sum as f64 / r.stats.cores[0].accesses as f64,
            issued,
            useful,
            dropped
        );
    }
}
