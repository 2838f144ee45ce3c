//! The Sec. V-C memory-controller drop-policy ablation.

use dol_harness::{experiments, RunPlan};

fn main() {
    let plan = RunPlan::from_env().unwrap_or_else(|e| e.exit());
    println!("{}", experiments::ablations::drop_policy(&plan).render());
}
