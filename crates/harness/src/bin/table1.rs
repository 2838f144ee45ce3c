//! Regenerates the paper's table1.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env().unwrap_or_else(|e| e.exit());
    println!("{}", experiments::table1::run(&plan).render());
}
