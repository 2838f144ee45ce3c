//! Regenerates the paper's fig15.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env_no_args();
    println!("{}", experiments::fig15::run(&plan).render());
}
