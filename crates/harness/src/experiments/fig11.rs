//! Figure 11 — speedups across benchmark suites and multicore mixes.

use std::collections::HashMap;
use std::sync::Arc;

use dol_cpu::{System, SystemConfig};
use dol_mem::NullSink;
use dol_metrics::{geomean, weighted_speedup, TextTable};
use dol_workloads::{mixes, Spec};

use crate::bands::Expectation;
use crate::experiments::Report;
use crate::prefetchers::{self, COMPARISON_SET};
use crate::runner::{single_core, AppRun, BaselineRun};
use crate::RunPlan;

fn suite_geomeans(plan: &RunPlan, specs: Vec<Spec>) -> Vec<f64> {
    let sys = single_core();
    let specs = plan.cap_suite(specs);
    let per_app: Vec<Vec<f64>> = crate::sweep::map(plan.jobs, &specs, |spec| {
        let base = BaselineRun::capture(spec, plan);
        COMPARISON_SET
            .iter()
            .map(|cfg| AppRun::run(&base, cfg, &sys).speedup(&base))
            .collect()
    });
    (0..COMPARISON_SET.len())
        .map(|i| geomean(&per_app.iter().map(|v| v[i]).collect::<Vec<_>>()))
        .collect()
}

/// Normalized weighted speedups of the mixes: for each config, the
/// average over mixes of `WS(config) / WS(none)`, where the weighted
/// speedup uses solo no-prefetch IPCs as the reference.
///
/// Two sweep stages: unique mix members are captured (and their solo
/// baselines run) in parallel once, then the mixes themselves run in
/// parallel against that shared cache.
fn mix_speedups(plan: &RunPlan) -> Vec<f64> {
    let sys4 = System::new(SystemConfig::isca2018(4));
    let mixes = mixes(plan.mix_count, plan.seed);

    // Unique members, in first-appearance order.
    let mut uniq: Vec<&Spec> = Vec::new();
    for m in mixes.iter().flat_map(|m| m.members.iter()) {
        if !uniq.iter().any(|u| u.name == m.name) {
            uniq.push(m);
        }
    }
    let captured: HashMap<String, Arc<BaselineRun>> = crate::sweep::map(plan.jobs, &uniq, |m| {
        (m.name.to_string(), BaselineRun::capture(m, plan))
    })
    .into_iter()
    .collect();

    let per_mix: Vec<Vec<f64>> = crate::sweep::map(plan.jobs, &mixes, |mix| {
        let members = std::array::from_fn(|i| captured[mix.members[i].name].workload.clone());
        let alone: Vec<f64> = mix
            .members
            .iter()
            .map(|m| captured[m.name].result.ipc())
            .collect();
        let ws_of = |cfg: &str| -> f64 {
            let mut ps: [prefetchers::Built; 4] =
                std::array::from_fn(|_| prefetchers::build(cfg).expect("known config"));
            let r = sys4.run_corun(&members, &mut ps, &mut NullSink);
            weighted_speedup(&r.ipcs(), &alone)
        };
        let ws_none = ws_of("none");
        COMPARISON_SET
            .iter()
            .map(|cfg| ws_of(cfg) / ws_none)
            .collect()
    });
    (0..COMPARISON_SET.len())
        .map(|i| geomean(&per_mix.iter().map(|v| v[i]).collect::<Vec<_>>()))
        .collect()
}

/// Reproduces Figure 11: geomean speedups per suite (graph, embedded,
/// scientific — spec21 is Figure 8's result) plus the 4-core mixes. The
/// paper's overall geomean across 68 workloads: TPC 1.39 vs 1.22–1.31.
pub fn run(plan: &RunPlan) -> Report {
    let rows: Vec<(&str, Vec<f64>)> = vec![
        ("graph", suite_geomeans(plan, dol_workloads::graphs())),
        ("embedded", suite_geomeans(plan, dol_workloads::embedded())),
        (
            "scientific",
            suite_geomeans(plan, dol_workloads::scientific()),
        ),
        ("4-core mixes", mix_speedups(plan)),
    ];
    let mut headers = vec!["suite".to_string()];
    headers.extend(COMPARISON_SET.iter().map(|s| s.to_string()));
    let mut t = TextTable::new(headers);
    for (name, vals) in &rows {
        t.row_f64(name, vals);
    }
    // Overall geomean across the four rows.
    let overall: Vec<f64> = (0..COMPARISON_SET.len())
        .map(|i| geomean(&rows.iter().map(|(_, v)| v[i]).collect::<Vec<_>>()))
        .collect();
    t.row_f64("OVERALL", &overall);

    let tpc = overall[COMPARISON_SET.len() - 1];
    let best_mono = overall[..COMPARISON_SET.len() - 1]
        .iter()
        .cloned()
        .fold(0.0f64, f64::max);
    let wins_rows = rows
        .iter()
        .filter(|(_, v)| {
            let t = v[COMPARISON_SET.len() - 1];
            v[..COMPARISON_SET.len() - 1].iter().all(|x| *x <= t + 0.01)
        })
        .count();
    let expectations = vec![
        Expectation::new(
            "TPC wins the overall geomean across suites+mixes (paper: 1.39 vs 1.22-1.31)",
            format!("TPC {tpc:.3} vs best monolithic {best_mono:.3}"),
            tpc > best_mono,
        ),
        Expectation::new(
            "TPC leads in most suite rows",
            format!("{wins_rows}/{} rows", rows.len()),
            wins_rows * 2 >= rows.len(),
        ),
    ];
    Report {
        id: "fig11",
        title: "Speedups on other suites and 4-core mixes (paper Figure 11)".into(),
        table: t.render(),
        expectations,
    }
}
