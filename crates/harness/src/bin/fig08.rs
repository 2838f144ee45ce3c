//! Regenerates the paper's fig08.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env().unwrap_or_else(|e| e.exit());
    println!("{}", experiments::fig08::run(&plan).render());
}
