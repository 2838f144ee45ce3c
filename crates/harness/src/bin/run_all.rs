//! Regenerates every table and figure of the paper in one run.
//!
//! ```text
//! run_all [--smoke] [--jobs N] [--trace-dir DIR]
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
//! Throughput is measured by the repository benchmark (`perfbench/`,
//! workload `figs` runs every driver below), not by this binary.

use dol_harness::{experiments, RunPlan};

const USAGE: &str = "usage: run_all [--smoke] [--jobs N] [--trace-dir DIR]";

fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn main() {
    let mut smoke = false;
    let mut jobs: Option<usize> = None;
    let mut trace_dir: Option<String> = None;
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

    let mut deviations = 0;
    for (_, run) in experiments::drivers() {
        let report = run(&plan);
        println!("{}", report.render());
        deviations += report.deviations();
    }
    println!("total shape-check deviations: {deviations}");
}
