//! Bring your own component: the division-of-labor design is open.
//!
//! The paper argues that the composite approach "lowers the barrier to
//! innovation" — anyone can add a small component targeting a pattern the
//! existing ones miss. This example writes a tiny special-purpose
//! component from scratch (a *region-pair* prefetcher that, whenever a
//! 1 KiB region is entered, prefetches the same offset in the *next*
//! region) and composes it with TPC.
//!
//! Run with: `cargo run --release -p dol-examples --bin custom_component`

use dol_core::{origins, Composite, NoPrefetcher, PrefetchRequest, Prefetcher, RetireInfo, Tpc};
use dol_cpu::{System, SystemConfig, Workload};
use dol_mem::{region_of, CacheLevel, Origin, LINE_BYTES, REGION_LINES};

/// A deliberately simple demonstration component: on the first touch of
/// each region, prefetch the corresponding line of the following region.
struct NextRegion {
    origin: Origin,
    last_region: u64,
}

impl NextRegion {
    fn new(origin: Origin) -> Self {
        NextRegion {
            origin,
            last_region: u64::MAX,
        }
    }
}

impl Prefetcher for NextRegion {
    fn name(&self) -> &str {
        "NextRegion"
    }

    fn storage_bits(&self) -> u64 {
        64 // one region register
    }

    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        let Some(addr) = ev.inst.mem_addr() else {
            return;
        };
        let region = region_of(addr);
        if region != self.last_region {
            self.last_region = region;
            let next_base = (region + 1) * REGION_LINES * LINE_BYTES;
            out.push(PrefetchRequest::new(
                next_base + addr % (REGION_LINES * LINE_BYTES),
                CacheLevel::L2,
                self.origin,
                120,
            ));
        }
    }
}

fn main() {
    let spec = dol_workloads::by_name("region_shuffle").expect("known workload");
    let workload = Workload::capture(spec.build_vm(3), 400_000).expect("runs");
    let sys = System::new(SystemConfig::isca2018(1));

    let base = sys.run(&workload, &mut NoPrefetcher).cycles;
    let tpc = sys.run(&workload, &mut Tpc::full()).cycles;

    let origin = Origin(origins::EXTRA_BASE);
    let mut composite = Composite::with_extra(
        Box::new(Tpc::full()),
        origin,
        Box::new(NextRegion::new(origin)),
    );
    let comp = sys.run(&workload, &mut composite).cycles;

    println!("TPC alone:            {:.3}x", base as f64 / tpc as f64);
    println!("TPC + custom component: {:.3}x", base as f64 / comp as f64);
    println!(
        "\nThe component is 40 lines and one 64-bit register; the coordinator \n\
         (claim filtering, round-robin assignment, ownership migration, accuracy \n\
         gating) came for free from `dol_core::Composite`. If the component turns \n\
         out to be useless on a workload, the gate benches it."
    );
}
