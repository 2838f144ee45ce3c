//! Regenerates the paper's fig13.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env().unwrap_or_else(|e| e.exit());
    println!("{}", experiments::fig13::run(&plan).render());
}
