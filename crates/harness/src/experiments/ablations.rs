//! Ablations beyond the paper's figures: the Sec. V-C memory-controller
//! drop policy, and DESIGN.md's design-choice sweeps (T2 thresholds, C1
//! density, mPC keying).

use dol_baselines::registry::monolithic_by_name;
use dol_core::{Composite, Prefetcher, Shunt, Tpc, TpcBuilder, TpcConfig};
use dol_cpu::{System, SystemConfig};
use dol_mem::{DropPolicy, NullSink};
use dol_metrics::{geomean, weighted_speedup, TextTable};
use dol_workloads::mixes;

use crate::bands::Expectation;
use crate::experiments::Report;
use crate::runner::{single_core, AppRun, BaselineRun};
use crate::RunPlan;

/// The Sec. V-C result: when the DRAM queue fills, dropping
/// low-probability (C1) prefetches first instead of dropping prefetches
/// indiscriminately is worth ~6% on average in a multicore environment.
pub fn drop_policy(plan: &RunPlan) -> Report {
    let mixes = mixes(plan.mix_count, plan.seed);
    let ratios: Vec<f64> = crate::sweep::map(plan.jobs, &mixes, |mix| {
        let bases: [_; 4] = std::array::from_fn(|i| BaselineRun::capture(&mix.members[i], plan));
        let members = std::array::from_fn(|i| bases[i].workload.clone());
        let alone: Vec<f64> = bases.iter().map(|b| b.result.ipc()).collect();
        let ws_with = |policy: DropPolicy| -> f64 {
            let mut cfg = SystemConfig::isca2018(4);
            cfg.hierarchy.dram.drop_policy = policy;
            // Stress the queues so the policy matters.
            cfg.hierarchy.dram.queue_capacity = 12;
            let sys = System::new(cfg);
            let mut ps: [Tpc; 4] = std::array::from_fn(|_| Tpc::full());
            let r = sys.run_corun(&members, &mut ps, &mut NullSink);
            weighted_speedup(&r.ipcs(), &alone)
        };
        let random = ws_with(DropPolicy::Random);
        let low_first = ws_with(DropPolicy::LowConfidenceFirst);
        low_first / random
    });
    let avg = geomean(&ratios);
    let mut t = TextTable::new(vec!["mix".into(), "low-conf-first / random".into()]);
    for (i, r) in ratios.iter().enumerate() {
        t.row_f64(&format!("mix{i:02}"), &[*r]);
    }
    t.row_f64("GEOMEAN", &[avg]);
    let expectations = vec![Expectation::new(
        "dropping low-confidence prefetches first helps in multicore (paper: ~6%)",
        format!("geomean gain {:.1}%", (avg - 1.0) * 100.0),
        avg >= 0.995,
    )];
    Report {
        id: "ablation_drop",
        title: "Memory-controller drop policy under congestion (paper Sec. V-C)".into(),
        table: t.render(),
        expectations,
    }
}

fn tpc_variant(cfg: TpcConfig, name: &str) -> Box<dyn Prefetcher> {
    Box::new(TpcBuilder::new().config(cfg).name(name).build())
}

fn geomean_speedup_with(
    plan: &RunPlan,
    apps: &[&str],
    build: impl Fn() -> Box<dyn Prefetcher> + Sync,
) -> f64 {
    let sys = single_core();
    let v = crate::sweep::map(plan.jobs, apps, |name| {
        let spec = dol_workloads::by_name(name).expect("known workload");
        let base = BaselineRun::capture(&spec, plan);
        let mut p = build();
        let r = sys.run(&base.workload, p.as_mut());
        base.cycles() as f64 / r.cycles as f64
    });
    geomean(&v)
}

const STRIDED_APPS: [&str; 5] = [
    "stream_sum",
    "stride8_walk",
    "matrix_row",
    "rle_scan",
    "unrolled_copy",
];

/// T2's stride-confirmation thresholds (paper defaults 16/4 with early
/// issue at 4; the paper notes the system is not sensitive).
pub fn t2_thresholds(plan: &RunPlan) -> Report {
    let variants: Vec<(&str, u32, u32)> = vec![
        ("confirm=8, early=2", 8, 2),
        ("confirm=16, early=4 (paper)", 16, 4),
        ("confirm=32, early=8", 32, 8),
    ];
    let mut t = TextTable::new(vec!["variant".into(), "geomean speedup".into()]);
    let mut results = Vec::new();
    for (name, confirm, early) in &variants {
        let g = geomean_speedup_with(plan, &STRIDED_APPS, || {
            let mut cfg = TpcConfig::default();
            cfg.sit.stride_confirm = *confirm;
            cfg.sit.early_issue = *early;
            tpc_variant(cfg, "TPC-variant")
        });
        results.push(g);
        t.row_f64(name, &[g]);
    }
    let spread = results.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        / results.iter().cloned().fold(f64::INFINITY, f64::min);
    let expectations = vec![Expectation::new(
        "T2 is not sensitive to the confirmation thresholds (paper Sec. IV-A2)",
        format!("max/min speedup ratio {spread:.3}"),
        spread < 1.10,
    )];
    Report {
        id: "ablation_t2",
        title: "T2 stride-confirmation threshold sweep".into(),
        table: t.render(),
        expectations,
    }
}

const REGION_APPS: [&str; 4] = ["region_shuffle", "gather_window", "histogram", "spmv_csr"];

/// C1's density threshold and decision probability.
pub fn c1_density(plan: &RunPlan) -> Report {
    let variants: Vec<(&str, u32, (u32, u32))> = vec![
        ("dense>4, p>1/2", 4, (1, 2)),
        ("dense>6, p>3/4 (paper)", 6, (3, 4)),
        ("dense>10, p>3/4", 10, (3, 4)),
    ];
    let mut t = TextTable::new(vec!["variant".into(), "geomean speedup".into()]);
    let mut results = Vec::new();
    for (name, dense, ratio) in &variants {
        let g = geomean_speedup_with(plan, &REGION_APPS, || {
            let mut cfg = TpcConfig::default();
            cfg.c1.dense_lines = *dense;
            cfg.c1.decision_ratio = *ratio;
            tpc_variant(cfg, "TPC-variant")
        });
        results.push(g);
        t.row_f64(name, &[g]);
    }
    let paper = results[1];
    let loosest = results[0];
    let strictest = results[2];
    let expectations = vec![Expectation::new(
        "the paper's density threshold is competitive with looser/stricter settings",
        format!("loose {loosest:.3}, paper {paper:.3}, strict {strictest:.3}"),
        paper >= loosest - 0.05 && paper >= strictest - 0.05,
    )];
    Report {
        id: "ablation_c1",
        title: "C1 region-density threshold sweep".into(),
        table: t.render(),
        expectations,
    }
}

/// The mPC (PC ^ RAS) call-site disambiguation (paper Sec. IV-A2).
pub fn mpc(plan: &RunPlan) -> Report {
    let sys = single_core();
    let spec = dol_workloads::by_name("strided_calls").expect("kernel exists");
    let base = BaselineRun::capture(&spec, plan);
    let with_mpc = AppRun::run(&base, "TPC", &sys).speedup(&base);
    let plain = AppRun::run(&base, "TPC-plainPC", &sys).speedup(&base);
    let mut t = TextTable::new(vec!["config".into(), "strided_calls speedup".into()]);
    t.row_f64("TPC (mPC)", &[with_mpc]);
    t.row_f64("TPC (plain PC)", &[plain]);
    let expectations = vec![Expectation::new(
        "mPC call-site disambiguation helps call-heavy strided code (paper Sec. IV-A2)",
        format!("mPC {with_mpc:.3} vs plain {plain:.3}"),
        with_mpc >= plain,
    )];
    Report {
        id: "ablation_mpc",
        title: "mPC (PC ^ RAS) vs plain-PC SIT keying".into(),
        table: t.render(),
        expectations,
    }
}

/// The P1 distance-doubling rule (paper Sec. IV-B1): array-of-pointers
/// producers run their stride stream twice as far ahead so that pointer
/// values arrive early enough to prefetch the targets.
pub fn p1_doubling(plan: &RunPlan) -> Report {
    let apps = ["aop_deref", "spmv_csr", "listchase_payload"];
    let with = geomean_speedup_with(plan, &apps, || Box::new(Tpc::full()));
    let without = geomean_speedup_with(plan, &apps, || {
        let cfg = TpcConfig {
            p1_double_distance: false,
            ..TpcConfig::default()
        };
        tpc_variant(cfg, "TPC-nodouble")
    });
    let mut t = TextTable::new(vec!["variant".into(), "pointer-suite geomean".into()]);
    t.row_f64("doubled distance (paper)", &[with]);
    t.row_f64("plain distance", &[without]);
    let expectations = vec![Expectation::new(
        "doubling the producer's distance does not hurt pointer workloads",
        format!("doubled {with:.3} vs plain {without:.3}"),
        with >= without - 0.02,
    )];
    Report {
        id: "ablation_p1_double",
        title: "P1 producer-distance doubling (paper Sec. IV-B1)".into(),
        table: t.render(),
        expectations,
    }
}

/// All four existing prefetchers as extra components at once — the full
/// Sec. IV-E coordinator with round-robin assignment and tag-learned
/// ownership — against the equivalent five-way shunt.
pub fn multi_extra(plan: &RunPlan) -> Report {
    use crate::prefetchers::{extra_origin, EXTRA_SET};

    let sys = single_core();
    let specs = plan.cap_suite(dol_workloads::spec21());
    let per_app: Vec<(f64, f64, f64)> = crate::sweep::map(plan.jobs, &specs, |spec| {
        let base = BaselineRun::capture(spec, plan);
        let tpc = {
            let mut p = Tpc::full();
            sys.run(&base.workload, &mut p).cycles
        };
        let comp = {
            let extras = EXTRA_SET
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let origin = extra_origin(i);
                    let p = monolithic_by_name(name, origin).expect("known extra");
                    (origin, p)
                })
                .collect();
            let mut c = Composite::new(Tpc::full(), extras);
            sys.run(&base.workload, &mut c).cycles
        };
        let sh = {
            let mut members: Vec<Box<dyn Prefetcher>> = vec![Box::new(Tpc::full())];
            for (i, name) in EXTRA_SET.iter().enumerate() {
                members.push(monolithic_by_name(name, extra_origin(i)).expect("known extra"));
            }
            let mut s = Shunt::new(members);
            sys.run(&base.workload, &mut s).cycles
        };
        let b = base.cycles() as f64;
        (b / tpc as f64, b / comp as f64, b / sh as f64)
    });
    let tpc_ratio: Vec<f64> = per_app.iter().map(|r| r.0).collect();
    let comp_ratio: Vec<f64> = per_app.iter().map(|r| r.1).collect();
    let shunt_ratio: Vec<f64> = per_app.iter().map(|r| r.2).collect();
    let (g_tpc, g_comp, g_shunt) = (
        geomean(&tpc_ratio),
        geomean(&comp_ratio),
        geomean(&shunt_ratio),
    );
    let worst = |v: &[f64], r: &[f64]| {
        v.iter()
            .zip(r)
            .map(|(x, t)| x / t)
            .fold(f64::INFINITY, f64::min)
    };
    let comp_worst = worst(&comp_ratio, &tpc_ratio);
    let shunt_worst = worst(&shunt_ratio, &tpc_ratio);
    let mut t = TextTable::new(vec!["configuration".into(), "geomean speedup".into()]);
    t.row_f64("TPC alone", &[g_tpc]);
    t.row_f64("TPC + 4 extras (composite)", &[g_comp]);
    t.row_f64("TPC | 4 extras (shunt)", &[g_shunt]);
    let expectations = vec![
        Expectation::new(
            "the four-extra composite stays close to TPC and is robust, while the \
             five-way shunt's worst case is far worse",
            format!("composite worst-vs-TPC {comp_worst:.3}, shunt worst-vs-TPC {shunt_worst:.3}"),
            comp_worst > shunt_worst && comp_worst > 0.8,
        ),
        Expectation::new(
            "the composite does not lose to the shunt on average",
            format!("composite {g_comp:.3} vs shunt {g_shunt:.3}"),
            g_comp >= g_shunt - 0.01,
        ),
    ];
    Report {
        id: "ablation_multi_extra",
        title: "TPC with all four extras: composite vs shunt (paper Sec. IV-E)".into(),
        table: t.render(),
        expectations,
    }
}
