//! Multi-core co-run scenario matrix — shared-resource contention under
//! per-core prefetcher plans.
//!
//! Each scenario pins four workloads to the four cores of the paper's
//! Table I system and assigns every core its own prefetcher
//! configuration (possibly heterogeneous — the paper's Sec. VI setting
//! where each core runs whatever its workload deserves). The co-run
//! goes through [`CoRunMembers::corun`], the harness's one way to build
//! and run a per-core plan, with a [`StreamingMetrics`] sink so per-core
//! accounting cells and shared-resource counters (LLC pollution by
//! issuing core, DRAM bank conflicts, MSHR stalls) stream out of the
//! same run that produces the weighted speedups.
//!
//! Determinism: scenarios are mapped through the [`crate::sweep`] pool
//! and every run is independent of worker count, so the rendered report
//! is byte-identical for any `--jobs` (CI diffs `--jobs 1` vs `-j N`).

use std::collections::HashMap;

use dol_cpu::{System, SystemConfig};
use dol_mem::{CacheLevel, NullSink};
use dol_metrics::{geomean, weighted_speedup, StreamingMetrics, TextTable};

use crate::bands::Expectation;
use crate::experiments::Report;
use crate::runner::CoRunMembers;
use crate::RunPlan;

/// One 4-core co-run scenario: a workload mix plus a per-core
/// prefetcher plan.
struct Scenario {
    name: &'static str,
    members: [&'static str; 4],
    configs: [&'static str; 4],
}

/// Stride-heavy mix: every core streams.
const STRIDE4: [&str; 4] = ["stream_sum", "stride8_walk", "matrix_row", "stream_triad"];
/// Pointer-chasing mix: every core serializes on dependent loads.
const CHASE4: [&str; 4] = [
    "listchase",
    "listchase_payload",
    "btree_search",
    "hash_probe",
];
/// Scattered-access mix: low-locality footprints that punish pollution.
const SCATTER4: [&str; 4] = ["region_shuffle", "gather_window", "histogram", "spmv_csr"];
/// One archetype per core — the heterogeneous contention case.
const MIXED: [&str; 4] = ["stream_sum", "listchase", "region_shuffle", "stride8_walk"];

/// The scenario matrix. The two `mixed/*` scenarios share members so
/// their shared-LLC pollution is directly comparable: a disciplined
/// per-core plan vs three cores carpet-bombing the hierarchy with
/// next-line spray over the same co-runners.
fn scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "mixed/hetero",
            members: MIXED,
            configs: ["TPC", "SPP", "BOP", "none"],
        },
        Scenario {
            name: "mixed/carpet-bomb",
            members: MIXED,
            configs: ["NextLine", "NextLine", "NextLine", "none"],
        },
        Scenario {
            name: "stride-heavy/TPCx4",
            members: STRIDE4,
            configs: ["TPC", "TPC", "TPC", "TPC"],
        },
        Scenario {
            name: "chase-heavy/TPCx4",
            members: CHASE4,
            configs: ["TPC", "TPC", "TPC", "TPC"],
        },
        Scenario {
            name: "scatter/TPCx4",
            members: SCATTER4,
            configs: ["TPC", "TPC", "TPC", "TPC"],
        },
    ]
}

/// Everything one scenario contributes to the report.
struct ScenarioRow {
    name: &'static str,
    /// `WS(plan) / WS(none)` — normalized weighted speedup.
    ws_norm: f64,
    /// `WS(none) / 4` — co-run throughput without prefetching as a
    /// fraction of the four solo runs (the pure contention cost).
    contention: f64,
    /// Shared-LLC lines a prefetch displaced from *another* core.
    pollution: u64,
    /// DRAM bank conflicts under the plan.
    bank_conflicts: u64,
    /// Demand-MSHR stall cycles (private files + shared L3).
    mshr_stall_cycles: u64,
    /// Prefetches shed at the full DRAM queue.
    dropped: u64,
    /// Per-core detail lines for the second table.
    cores: Vec<Vec<String>>,
}

fn run_scenario(
    sys4: &System,
    sc: &Scenario,
    members: &CoRunMembers,
    none_ipcs: &HashMap<[&'static str; 4], Vec<f64>>,
) -> ScenarioRow {
    let alone = members.solo_ipcs(&sc.members);
    let mut metrics = StreamingMetrics::new();
    let result = members.corun(sys4, &sc.members, sc.configs, &mut metrics);
    let ws_none = weighted_speedup(&none_ipcs[&sc.members], &alone);
    let ws_plan = weighted_speedup(&result.ipcs(), &alone);

    let shared = &result.stats.shared;
    let ipcs = result.ipcs();
    let cores = (0..4)
        .map(|c| {
            let acc = metrics.core_accuracy(c, CacheLevel::L2);
            vec![
                format!("{}.c{}", sc.name, c),
                sc.members[c].to_string(),
                sc.configs[c].to_string(),
                format!("{:.3}", ipcs[c] / alone[c]),
                format!("{}", acc.issued),
                format!("{:.3}", acc.effective_accuracy()),
                format!("{}", metrics.core_demand_misses(c, CacheLevel::L2)),
                format!("{}", shared.llc_prefetch_fills[c]),
                format!("{}", shared.llc_prefetch_cross_evictions[c]),
            ]
        })
        .collect();

    ScenarioRow {
        name: sc.name,
        ws_norm: ws_plan / ws_none,
        contention: ws_none / 4.0,
        pollution: shared.total_prefetch_pollution(),
        bank_conflicts: result.stats.dram.bank_conflicts,
        mshr_stall_cycles: shared.total_mshr_stall_cycles(),
        dropped: result.stats.dram.dropped_prefetches,
        cores,
    }
}

/// Runs the co-run scenario matrix on the 4-core Table I system.
pub fn run(plan: &RunPlan) -> Report {
    let sys4 = System::new(SystemConfig::isca2018(4));
    let scenarios = scenarios();

    // The no-prefetch reference co-run depends only on the member set,
    // and scenarios share member sets on purpose (the two `mixed/*`
    // scenarios contrast plans over identical co-runners) — run each
    // distinct reference exactly once and share it. Only its IPCs are
    // read, so it streams into `NullSink`.
    let mut member_sets: Vec<[&'static str; 4]> = Vec::new();
    for sc in &scenarios {
        if !member_sets.contains(&sc.members) {
            member_sets.push(sc.members);
        }
    }
    // Unique members across the matrix, captured (with solo no-prefetch
    // baselines) once each through the sweep pool.
    let members = CoRunMembers::capture(plan, &member_sets);
    let none_ipcs: HashMap<[&'static str; 4], Vec<f64>> =
        crate::sweep::map(plan.jobs, &member_sets, |set| {
            let none = members.corun(&sys4, set, ["none"; 4], &mut NullSink);
            (*set, none.ipcs())
        })
        .into_iter()
        .collect();

    let rows: Vec<ScenarioRow> = crate::sweep::map(plan.jobs, &scenarios, |sc| {
        run_scenario(&sys4, sc, &members, &none_ipcs)
    });

    let mut t = TextTable::new(
        [
            "scenario",
            "WS/none",
            "none/solo",
            "pollutionLLC",
            "bankConf",
            "mshrStallCyc",
            "dropped",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    for r in &rows {
        t.row(vec![
            r.name.to_string(),
            format!("{:.3}", r.ws_norm),
            format!("{:.3}", r.contention),
            format!("{}", r.pollution),
            format!("{}", r.bank_conflicts),
            format!("{}", r.mshr_stall_cycles),
            format!("{}", r.dropped),
        ]);
    }

    let mut per_core = TextTable::new(
        [
            "scenario.core",
            "workload",
            "config",
            "ipc/solo",
            "pfIssuedL2",
            "effAccL2",
            "demMissL2",
            "llcPfFills",
            "llcPollution",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
    );
    for r in &rows {
        for line in &r.cores {
            per_core.row(line.clone());
        }
    }
    let table = format!(
        "scenario summary:\n{}\nper-core detail:\n{}",
        t.render(),
        per_core.render()
    );

    let ws_geomean = geomean(&rows.iter().map(|r| r.ws_norm).collect::<Vec<_>>());
    let hetero = rows.iter().find(|r| r.name == "mixed/hetero");
    let carpet = rows.iter().find(|r| r.name == "mixed/carpet-bomb");
    let contention_seen = rows.iter().filter(|r| r.contention < 1.0).count();
    // Bank conflicts show up in every co-run; MSHR-full stalls need
    // enough outstanding misses, which pure pointer chasers never
    // accumulate — require them somewhere in the matrix, not everywhere.
    let telemetry_live =
        rows.iter().all(|r| r.bank_conflicts > 0) && rows.iter().any(|r| r.mshr_stall_cycles > 0);
    let mut expectations =
        vec![
        Expectation::new(
            "prefetching helps across the co-run matrix (geomean WS/none > 1)",
            format!("geomean {ws_geomean:.3} over {} scenarios", rows.len()),
            ws_geomean > 1.0,
        ),
        Expectation::new(
            "shared resources cost throughput: co-running without prefetching is slower than solo",
            format!("{contention_seen}/{} scenarios with WS(none)/4 < 1", rows.len()),
            contention_seen * 2 >= rows.len(),
        ),
        Expectation::new(
            "contention telemetry is live (bank conflicts everywhere, MSHR stalls in the matrix)",
            rows.iter()
                .map(|r| format!("{}:{}b/{}m", r.name, r.bank_conflicts, r.mshr_stall_cycles))
                .collect::<Vec<_>>()
                .join(" "),
            telemetry_live,
        ),
    ];
    if let (Some(h), Some(c)) = (hetero, carpet) {
        expectations.push(Expectation::new(
            "carpet-bombing pollutes the shared LLC at least as much as a disciplined plan",
            format!(
                "NextLine spray {} vs hetero {} cross-core prefetch evictions",
                c.pollution, h.pollution
            ),
            c.pollution >= h.pollution,
        ));
    }

    Report {
        id: "multicore",
        title: "Co-run scenario matrix on the shared 4-core hierarchy".into(),
        table,
        expectations,
    }
}
