//! Regenerates the paper's fig08.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env_no_args();
    println!("{}", experiments::fig08::run(&plan).render());
}
