//! Regenerates the paper's fig10.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env_no_args();
    println!("{}", experiments::fig10::run(&plan).render());
}
