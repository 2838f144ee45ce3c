//! Regenerates the paper's fig14.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env_no_args();
    println!("{}", experiments::fig14::run(&plan).render());
}
