//! Regenerates the paper's table2.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env_no_args();
    println!("{}", experiments::table2::run(&plan).render());
}
