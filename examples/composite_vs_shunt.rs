//! Division of labor vs blind overlap: extend TPC with SMS two ways.
//!
//! *Compositing* (the paper's Sec. IV-E) puts SMS behind TPC's
//! coordinator: SMS only sees instructions TPC does not claim, and an
//! accuracy gate suppresses it when its prefetches stop earning hits.
//! *Shunting* runs both prefetchers blindly in parallel.
//!
//! Run with: `cargo run --release -p dol-examples --bin composite_vs_shunt`

use dol_baselines::Sms;
use dol_core::{origins, Composite, NoPrefetcher, Prefetcher, Shunt, Tpc};
use dol_cpu::{System, SystemConfig, Workload};
use dol_mem::Origin;

fn run(workload: &Workload, sys: &System, p: &mut dyn Prefetcher) -> u64 {
    sys.run(workload, p).cycles
}

fn main() {
    let sys = System::new(SystemConfig::isca2018(1));
    let extra_origin = Origin(origins::EXTRA_BASE);

    // Two contrasting workloads: one where an extra component can help
    // (dense regions SMS understands), one where it can only hurt
    // (random probes).
    for name in ["region_shuffle", "hash_probe"] {
        let spec = dol_workloads::by_name(name).expect("known workload");
        let workload = Workload::capture(spec.build_vm(7), 400_000).expect("runs");

        let base = run(&workload, &sys, &mut NoPrefetcher);
        let tpc = run(&workload, &sys, &mut Tpc::full());

        let mut composite = Composite::with_extra(
            Box::new(Tpc::full()),
            extra_origin,
            Box::new(Sms::new(extra_origin)),
        );
        let comp = run(&workload, &sys, &mut composite);

        let mut shunt = Shunt::new(vec![
            Box::new(Tpc::full()) as Box<dyn Prefetcher>,
            Box::new(Sms::new(extra_origin)),
        ]);
        let sh = run(&workload, &sys, &mut shunt);

        println!("== {name}");
        println!("  TPC alone:     {:.3}x", base as f64 / tpc as f64);
        println!(
            "  TPC+SMS (composite): {:.3}x   — claim filter + accuracy gate in charge",
            base as f64 / comp as f64
        );
        println!(
            "  TPC|SMS (shunt):     {:.3}x   — both fire blindly",
            base as f64 / sh as f64
        );
    }
    println!(
        "\nThe shape to notice: on the random workload the shunt lets SMS do real \n\
         damage, while the composite's coordinator contains it — the paper's central \n\
         division-of-labor argument (Figures 14 and 15)."
    );
}
