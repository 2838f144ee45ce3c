//! Regenerates the paper's fig12.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env_no_args();
    println!("{}", experiments::fig12::run(&plan).render());
}
