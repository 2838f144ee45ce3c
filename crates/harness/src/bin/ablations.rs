//! All DESIGN.md design-choice ablations.

use dol_harness::{experiments::ablations, RunPlan};

fn main() {
    let plan = RunPlan::from_env().unwrap_or_else(|e| e.exit());
    println!("{}", ablations::t2_thresholds(&plan).render());
    println!("{}", ablations::c1_density(&plan).render());
    println!("{}", ablations::mpc(&plan).render());
    println!("{}", ablations::p1_doubling(&plan).render());
    println!("{}", ablations::multi_extra(&plan).render());
}
