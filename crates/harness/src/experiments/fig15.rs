//! Figure 15 — compositing vs shunting an existing prefetcher with TPC.

use dol_metrics::{geomean, TextTable};

use crate::bands::Expectation;
use crate::experiments::Report;
use crate::prefetchers::EXTRA_SET;
use crate::runner::{single_core, AppRun, BaselineRun};
use crate::RunPlan;

/// Reproduces Figure 15: performance of TPC+X (composite: X only sees
/// what TPC doesn't claim) vs TPC|X (shunt: both run blindly), both
/// normalized to TPC alone. The paper: compositing is never worse and
/// averages +3–8%; shunting averages 1–6% *worse*.
pub fn run(plan: &RunPlan) -> Report {
    let sys = single_core();
    // per extra: (composite ratios, shunt ratios) across apps.
    let mut comp: Vec<Vec<f64>> = EXTRA_SET.iter().map(|_| Vec::new()).collect();
    let mut shunt: Vec<Vec<f64>> = EXTRA_SET.iter().map(|_| Vec::new()).collect();

    let specs = plan.cap_suite(dol_workloads::spec21());
    let per_app: Vec<Vec<(f64, f64)>> = crate::sweep::map(plan.jobs, &specs, |spec| {
        let base = BaselineRun::capture(spec, plan);
        let tpc_cycles = AppRun::run(&base, "TPC", &sys).result.cycles;
        EXTRA_SET
            .iter()
            .map(|extra| {
                let c = AppRun::run(&base, &format!("TPC+{extra}"), &sys)
                    .result
                    .cycles;
                let s = AppRun::run(&base, &format!("TPC|{extra}"), &sys)
                    .result
                    .cycles;
                (tpc_cycles as f64 / c as f64, tpc_cycles as f64 / s as f64)
            })
            .collect()
    });
    for rows in per_app {
        for (i, (c, s)) in rows.into_iter().enumerate() {
            comp[i].push(c);
            shunt[i].push(s);
        }
    }

    let mut t = TextTable::new(vec![
        "extra".into(),
        "composite geomean".into(),
        "composite min".into(),
        "composite max".into(),
        "shunt geomean".into(),
        "shunt min".into(),
        "shunt max".into(),
    ]);
    let mut summary = Vec::new();
    for (i, extra) in EXTRA_SET.iter().enumerate() {
        let cg = geomean(&comp[i]);
        let sg = geomean(&shunt[i]);
        let range = |v: &[f64]| {
            (
                v.iter().cloned().fold(f64::INFINITY, f64::min),
                v.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            )
        };
        let (cmin, cmax) = range(&comp[i]);
        let (smin, smax) = range(&shunt[i]);
        summary.push((extra.to_string(), cg, sg, cmin));
        t.row(vec![
            extra.to_string(),
            format!("{cg:.3}"),
            format!("{cmin:.3}"),
            format!("{cmax:.3}"),
            format!("{sg:.3}"),
            format!("{smin:.3}"),
            format!("{smax:.3}"),
        ]);
    }

    let avg_comp = geomean(&summary.iter().map(|(_, c, _, _)| *c).collect::<Vec<_>>());
    let avg_shunt = geomean(&summary.iter().map(|(_, _, s, _)| *s).collect::<Vec<_>>());
    let worst_comp = summary
        .iter()
        .map(|(_, _, _, cmin)| *cmin)
        .fold(f64::INFINITY, f64::min);
    let worst_shunt = shunt
        .iter()
        .flat_map(|v| v.iter().cloned())
        .fold(f64::INFINITY, f64::min);
    let expectations = vec![
        Expectation::new(
            "compositing is at least as good as shunting on average (paper: +3-8% vs \
             -1-6%; our TPC covers more scope, leaving the extras less headroom)",
            format!("avg composite {avg_comp:.3} vs avg shunt {avg_shunt:.3}"),
            avg_comp >= avg_shunt - 0.005,
        ),
        Expectation::new(
            "compositing avoids shunting's pathologies: the coordinator's claim filter \
             and accuracy gate bound the worst case, while shunting can be \
             catastrophic (the paper's central division-of-labor argument)",
            format!("worst composite {worst_comp:.3} vs worst shunt {worst_shunt:.3}"),
            worst_comp > worst_shunt + 0.1 && worst_comp > 0.8,
        ),
        Expectation::new(
            "compositing never hurts TPC on average for any extra",
            format!(
                "per-extra composite geomeans: {}",
                summary
                    .iter()
                    .map(|(n, c, _, _)| format!("{n} {c:.3}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
            summary.iter().all(|(_, c, _, _)| *c >= 0.98),
        ),
    ];
    Report {
        id: "fig15",
        title: "Compositing vs shunting existing prefetchers with TPC (paper Figure 15)".into(),
        table: t.render(),
        expectations,
    }
}
