//! Runs the multi-core co-run scenario matrix on its own.
//!
//! ```text
//! multicore [--smoke] [--jobs N]
//! ```
//!
//! Output is byte-identical for any `--jobs` value — the CI
//! multicore-smoke step diffs `--jobs 1` against `--jobs 0`.

use dol_harness::{experiments, RunPlan};

fn main() {
    let mut smoke = false;
    let mut jobs: Option<usize> = None;
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
                    eprintln!("usage: multicore [--smoke] [--jobs N]");
                    std::process::exit(2);
                }
                i += 2;
            }
            _ => {
                eprintln!("usage: multicore [--smoke] [--jobs N]");
                std::process::exit(2);
            }
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
    println!("{}", experiments::multicore::run(&plan).render());
}
