//! Regenerates the paper's fig01.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env().unwrap_or_else(|e| e.exit());
    println!("{}", experiments::fig01::run(&plan).render());
}
