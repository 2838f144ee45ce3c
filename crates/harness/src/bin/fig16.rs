//! Regenerates the paper's fig16.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env_no_args();
    println!("{}", experiments::fig16::run(&plan).render());
}
