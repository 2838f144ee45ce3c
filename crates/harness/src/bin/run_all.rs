//! Regenerates every table and figure of the paper in one run.
//!
//! ```text
//! run_all [--smoke] [--jobs N] [--trace-dir DIR] [--bench-out PATH] [--bench-floor PATH]
//! ```
//!
//! `--smoke` switches to [`RunPlan::smoke`] (tiny budget, first few
//! workloads per suite, one mix) — the offline CI gate runs this.
//! `--jobs N` shards workloads across N worker threads (`0` = one per
//! core); output is byte-identical for any job count. `--trace-dir DIR`
//! replays workload captures from `dol-trace-v1` files recorded with
//! `dol trace record` instead of re-running the functional VM; replayed
//! captures are bit-identical, so stdout is unchanged.
//!
//! Every driver is individually timed (wall clock + simulated-instruction
//! delta). `--bench-out PATH` writes the measurements as a
//! `dol-bench-v1` JSON document (see [`dol_harness::bench`]);
//! `--bench-floor PATH` additionally compares overall simulated
//! instructions per second against a previously recorded report and exits
//! non-zero on a drop of more than 30 % — the CI throughput gate.
//! `--bench-repeat N` runs every driver N times (the run caches are
//! cleared between passes so repeats re-simulate) and keeps each
//! driver's best pass — best-of-N damps scheduler noise when recording
//! a floor. Reports are printed on the first pass only, so stdout is
//! byte-identical for any N.

use std::time::Instant;

use dol_harness::bench::{
    parse_driver_floor, parse_floor, parse_total_phases, BenchReport, DriverBench, TraceBench,
};
use dol_harness::phase::{timed, totals, Phase};
use dol_harness::{experiments, RunPlan};

const USAGE: &str = "usage: run_all [--smoke] [--jobs N] [--trace-dir DIR] [--bench-out PATH] \
                     [--bench-floor PATH] [--bench-repeat N]";

/// Largest tolerated throughput drop vs the recorded floor.
const MAX_REGRESSION: f64 = 0.30;

/// Largest tolerated absolute growth in the non-simulate share of
/// attributed phase time vs the recorded floor (0.10 = ten points).
const MAX_PHASE_SHARE_CREEP: f64 = 0.10;

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut jobs: Option<usize> = None;
    let mut trace_dir: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut bench_floor: Option<String> = None;
    let mut repeat: usize = 1;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => {
                smoke = true;
                i += 1;
            }
            "--jobs" | "-j" => {
                jobs = argv.get(i + 1).and_then(|v| v.parse().ok());
                if jobs.is_none() {
                    usage();
                }
                i += 2;
            }
            "--trace-dir" => {
                trace_dir = argv.get(i + 1).cloned();
                if trace_dir.is_none() {
                    usage();
                }
                i += 2;
            }
            "--bench-out" => {
                bench_out = argv.get(i + 1).cloned();
                if bench_out.is_none() {
                    usage();
                }
                i += 2;
            }
            "--bench-floor" => {
                bench_floor = argv.get(i + 1).cloned();
                if bench_floor.is_none() {
                    usage();
                }
                i += 2;
            }
            "--bench-repeat" => {
                match argv.get(i + 1).and_then(|v| v.parse().ok()) {
                    Some(n) if n >= 1 => repeat = n,
                    _ => usage(),
                }
                i += 2;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            _ => usage(),
        }
    }

    let mut plan = if smoke {
        RunPlan::smoke()
    } else {
        RunPlan::from_env().unwrap_or_else(|e| e.exit())
    };
    if let Some(j) = jobs {
        plan.jobs = j;
    }
    if let Some(dir) = &trace_dir {
        plan.trace_dir = Some(dir.into());
    }
    eprintln!(
        "running all experiments: {} insts/workload, {} mixes, {} jobs{} \
         (override with DOL_INSTS / DOL_MIXES / DOL_JOBS)",
        plan.insts,
        plan.mix_count,
        dol_harness::sweep::effective_jobs(plan.jobs),
        if smoke { ", smoke mode" } else { "" },
    );

    let mut bench = BenchReport {
        mode: if smoke { "smoke" } else { "full" },
        jobs: dol_harness::sweep::effective_jobs(plan.jobs),
        repeat,
        drivers: Vec::new(),
        trace: None,
    };
    let decode_before = dol_trace::telemetry::decode_totals();
    let mut deviations = 0;
    for pass in 0..repeat {
        if pass > 0 {
            // Repeats must re-simulate, not replay memoized runs.
            dol_harness::runner::clear_run_caches();
            eprintln!("bench repeat: pass {}/{repeat}", pass + 1);
        }
        let mut pass_drivers = Vec::new();
        for (id, run) in experiments::drivers() {
            let insts_before = dol_cpu::telemetry::simulated_instructions();
            let phases_before = totals();
            let t0 = Instant::now();
            let report = run(&plan);
            let wall_s = t0.elapsed().as_secs_f64();
            let sim_insts = dol_cpu::telemetry::simulated_instructions() - insts_before;
            // Reports are printed once; repeat passes only re-measure.
            // Rendering (and the terminal write) is part of the driver's
            // attributed time but deliberately outside wall_s, which
            // floors compare across runs with and without printing.
            if pass == 0 {
                let rendered = timed(Phase::Render, || report.render());
                println!("{rendered}");
                deviations += report.deviations();
            }
            pass_drivers.push(DriverBench {
                id,
                wall_s,
                sim_insts,
                // A zero instruction delta means the driver was served
                // entirely from the memoized run caches; keep it out of
                // the throughput denominator.
                cached: sim_insts == 0,
                phases: totals().since(&phases_before),
            });
        }
        if pass == 0 {
            bench.drivers = pass_drivers;
        } else {
            for (best, again) in bench.drivers.iter_mut().zip(pass_drivers) {
                assert_eq!(best.id, again.id, "driver order is fixed");
                if !again.cached && (best.cached || again.insts_per_s() > best.insts_per_s()) {
                    // Repeat passes never render; keep pass 0's render
                    // time so the phase split stays complete.
                    let render_s = best.phases.render_s;
                    *best = again;
                    best.phases.render_s = render_s;
                }
            }
        }
    }
    println!("total shape-check deviations: {deviations}");
    eprintln!(
        "simulated {} insts in {:.2}s wall — {:.2} M inst/s",
        bench.sim_insts(),
        bench.wall_s(),
        bench.insts_per_s() / 1e6
    );
    let decoded = dol_trace::telemetry::decode_totals().since(&decode_before);
    if decoded.insts > 0 {
        bench.trace = Some(TraceBench {
            bytes: decoded.bytes,
            insts: decoded.insts,
            wall_s: decoded.wall_s(),
        });
        eprintln!(
            "decoded {} trace insts ({} bytes) in {:.3}s — {:.1} MB/s, {:.2} M inst/s",
            decoded.insts,
            decoded.bytes,
            decoded.wall_s(),
            decoded.bytes_per_s() / 1e6,
            decoded.insts_per_s() / 1e6
        );
    }

    if let Some(path) = &bench_out {
        std::fs::write(path, bench.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write bench report to {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("bench report written to {path}");
    }
    if let Some(path) = &bench_floor {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read bench floor {path}: {e}");
            std::process::exit(2);
        });
        let Some(floor) = parse_floor(&text) else {
            eprintln!("bench floor {path} is not a dol-bench-v1 document");
            std::process::exit(2);
        };
        let measured = bench.insts_per_s();
        let limit = floor * (1.0 - MAX_REGRESSION);
        eprintln!(
            "throughput gate: measured {:.2} M inst/s vs floor {:.2} M inst/s \
             (fail below {:.2})",
            measured / 1e6,
            floor / 1e6,
            limit / 1e6
        );
        if measured < limit {
            eprintln!("THROUGHPUT REGRESSION: more than 30% below the recorded floor");
            std::process::exit(1);
        }
        // Phase-attribution gate: the share of attributed time spent
        // outside the simulate phase must not creep past the floor's
        // share by more than an absolute tolerance. This catches "the
        // plumbing got slow" regressions that total throughput can hide
        // when the simulate phase happens to speed up. Floors recorded
        // before phase attribution existed simply don't gate.
        let split = bench.phases();
        eprintln!(
            "phase split: capture {:.2}s, classify {:.2}s, simulate {:.2}s, \
             metrics {:.2}s, render {:.2}s (overhead share {:.1}%)",
            split.capture_s,
            split.classify_s,
            split.simulate_s,
            split.metrics_s,
            split.render_s,
            split.overhead_share() * 100.0
        );
        if let Some(floor_split) = parse_total_phases(&text) {
            let measured_share = split.overhead_share();
            let floor_share = floor_split.overhead_share();
            let limit = floor_share + MAX_PHASE_SHARE_CREEP;
            eprintln!(
                "phase gate: overhead share {:.1}% vs floor {:.1}% (fail above {:.1}%)",
                measured_share * 100.0,
                floor_share * 100.0,
                limit * 100.0
            );
            if measured_share > limit {
                eprintln!(
                    "PHASE REGRESSION: non-simulate overhead share grew more than \
                     {:.0} points past the recorded floor",
                    MAX_PHASE_SHARE_CREEP * 100.0
                );
                std::process::exit(1);
            }
        }
        // The multi-core co-run driver gets its own floor entry: its
        // shared-hierarchy hot path is disjoint enough from the
        // single-core drivers that a regression there can hide inside
        // the total. Floors recorded before the driver existed (no
        // "multicore" record) simply don't gate it.
        let mc = bench.drivers.iter().find(|d| d.id == "multicore");
        if let (Some(mc_floor), Some(d)) = (parse_driver_floor(&text, "multicore"), mc) {
            let measured = d.insts_per_s();
            let limit = mc_floor * (1.0 - MAX_REGRESSION);
            eprintln!(
                "multicore gate: measured {:.2} M inst/s vs floor {:.2} M inst/s \
                 (fail below {:.2})",
                measured / 1e6,
                mc_floor / 1e6,
                limit / 1e6
            );
            if !d.cached && measured < limit {
                eprintln!("THROUGHPUT REGRESSION: multicore driver more than 30% below its floor");
                std::process::exit(1);
            }
        }
    }
}
