//! Regenerates the paper's fig11.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env_no_args();
    println!("{}", experiments::fig11::run(&plan).render());
}
