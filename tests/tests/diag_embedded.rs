//! Ignored diagnostic: per-app embedded suite comparison.
use dol_cpu::{System, SystemConfig};
use dol_harness::runner::{AppRun, BaselineRun};
use dol_harness::RunPlan;

#[test]
#[ignore]
fn embedded_gap() {
    let plan = RunPlan {
        insts: 400_000,
        mix_count: 2,
        ..RunPlan::full()
    };
    let sys = System::new(SystemConfig::isca2018(1));
    for suite in [
        dol_workloads::embedded(),
        dol_workloads::graphs(),
        dol_workloads::scientific(),
    ] {
        for spec in suite {
            let base = BaselineRun::capture(&spec, &plan);
            let fdp = AppRun::run(&base, "FDP", &sys).speedup(&base);
            let tpc = AppRun::run(&base, "TPC", &sys).speedup(&base);
            println!("{:20} FDP {:.3} TPC {:.3}", base.name, fdp, tpc);
        }
    }
}
