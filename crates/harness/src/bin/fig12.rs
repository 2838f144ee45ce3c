//! Regenerates the paper's fig12.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env().unwrap_or_else(|e| e.exit());
    println!("{}", experiments::fig12::run(&plan).render());
}
