//! The Sec. V-C memory-controller drop-policy ablation.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env_no_args();
    println!("{}", experiments::ablations::drop_policy(&plan).render());
}
