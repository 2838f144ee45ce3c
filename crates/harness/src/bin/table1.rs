//! Regenerates the paper's table1.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env_no_args();
    println!("{}", experiments::table1::run(&plan).render());
}
