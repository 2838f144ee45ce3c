//! Regenerates the paper's fig09.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env_no_args();
    println!("{}", experiments::fig09::run(&plan).render());
}
