//! The shared (workload × prefetcher) evaluation matrix over spec21.
//!
//! Figures 1, 8, 9, 10, 12, and 13 are all views of this matrix;
//! workloads are simulated one at a time and reduced to summaries so
//! full traces/events never accumulate.

use dol_mem::CacheLevel;
use dol_metrics::{coverage, scope, EffectiveAccuracy};

use crate::analysis::scope_by_category;
use crate::prefetchers;
use crate::runner::{single_core, AppRun, BaselineRun};
use crate::RunPlan;

/// One prefetcher configuration's reduced results on one app.
#[derive(Debug, Clone)]
pub struct ConfigSummary {
    /// Configuration name.
    pub config: String,
    /// Speedup over the no-prefetch baseline.
    pub speedup: f64,
    /// DRAM traffic normalized to the baseline.
    pub traffic_ratio: f64,
    /// Prefetching scope at L1 (against the baseline footprint).
    pub scope_l1: f64,
    /// Effective accuracy accounting at L1.
    pub acc_l1: EffectiveAccuracy,
    /// Effective accuracy accounting at L2.
    pub acc_l2: EffectiveAccuracy,
    /// Effective coverage at L1 (miss reduction).
    pub cov_l1: f64,
    /// Effective coverage at L2.
    pub cov_l2: f64,
    /// Per-LHF/MHF/HHF accuracy at L1.
    pub cat_acc: [EffectiveAccuracy; 3],
    /// Per-LHF/MHF/HHF scope at L1.
    pub cat_scope: [f64; 3],
    /// For TPC-family configs: per-component (T2, P1, C1) accuracy at L1.
    pub component_acc: Option<[EffectiveAccuracy; 3]>,
}

/// One app's reduced results.
#[derive(Debug, Clone)]
pub struct AppSummary {
    /// Workload name.
    pub app: String,
    /// Baseline L1 misses per kilo-instruction (scatter weight).
    pub mpki: f64,
    /// Baseline cycles.
    pub base_cycles: u64,
    /// Per-configuration summaries, in the order requested.
    pub configs: Vec<ConfigSummary>,
}

impl AppSummary {
    /// The summary for a named config.
    pub fn config(&self, name: &str) -> &ConfigSummary {
        self.configs
            .iter()
            .find(|c| c.config == name)
            .unwrap_or_else(|| panic!("config {name} not in scan"))
    }
}

/// Scans the spec21 suite under the given configurations, sharding
/// workloads across `plan.jobs` workers (each worker captures, runs
/// every config, and reduces one app at a time, so traces never
/// accumulate regardless of parallelism).
pub fn scan_spec21(plan: &RunPlan, configs: &[&str]) -> Vec<AppSummary> {
    let sys = single_core();
    let specs = plan.cap_suite(dol_workloads::spec21());
    crate::sweep::map(plan.jobs, &specs, |spec| {
        let base = BaselineRun::capture(spec, plan);
        let base_l1 = base.result.stats.cores[0].l1_misses;
        let base_l2 = base.result.stats.cores[0].l2_misses;
        let configs = configs
            .iter()
            .map(|cfg| {
                let run = AppRun::run(&base, cfg, &sys);
                summarize(cfg, &base, &run, base_l1, base_l2)
            })
            .collect();
        AppSummary {
            app: base.name.clone(),
            mpki: base.mpki,
            base_cycles: base.cycles(),
            configs,
        }
    })
}

fn summarize(
    cfg: &str,
    base: &BaselineRun,
    run: &AppRun,
    base_l1: u64,
    base_l2: u64,
) -> ConfigSummary {
    crate::phase::timed(crate::phase::Phase::Metrics, || {
        summarize_inner(cfg, base, run, base_l1, base_l2)
    })
}

fn summarize_inner(
    cfg: &str,
    base: &BaselineRun,
    run: &AppRun,
    base_l1: u64,
    base_l2: u64,
) -> ConfigSummary {
    let sm = &run.metrics;
    let pfp = sm.prefetched_lines_all();
    let acc_l1 = sm.accuracy_at(CacheLevel::L1, None);
    let acc_l2 = sm.accuracy_at(CacheLevel::L2, None);
    let component_acc = if cfg.starts_with("TPC") || cfg == "T2" || cfg == "T2+P1" {
        Some([
            sm.accuracy_at(CacheLevel::L1, Some(&[dol_core::origins::T2])),
            sm.accuracy_at(CacheLevel::L1, Some(&[dol_core::origins::P1])),
            sm.accuracy_at(CacheLevel::L2, Some(&[dol_core::origins::C1])),
        ])
    } else {
        None
    };
    ConfigSummary {
        config: cfg.to_string(),
        speedup: run.speedup(base),
        traffic_ratio: run.traffic_ratio(base),
        scope_l1: scope(&base.fp_l1, &pfp),
        acc_l1,
        acc_l2,
        cov_l1: coverage(base_l1, run.result.stats.cores[0].l1_misses),
        cov_l2: coverage(base_l2, run.result.stats.cores[0].l2_misses),
        cat_acc: sm.accuracy_by_category(CacheLevel::L1),
        cat_scope: scope_by_category(&base.fp_l1, &pfp, &base.classifier),
        component_acc,
    }
}

/// Weighted suite-average of `(scope, accuracy)` for one config, with
/// per-app prefetch counts as weights (the paper's Figure 10 summary
/// circles).
pub fn weighted_scope_accuracy(apps: &[AppSummary], config: &str) -> (f64, f64) {
    let pts: Vec<dol_metrics::WeightedPoint> = apps
        .iter()
        .map(|a| {
            let c = a.config(config);
            dol_metrics::WeightedPoint {
                x: c.scope_l1,
                y: c.acc_l1.effective_accuracy(),
                weight: c.acc_l1.issued as f64,
            }
        })
        .collect();
    dol_metrics::WeightedPoint::weighted_average(&pts)
}

/// Geometric-mean speedup of one config across the suite.
pub fn geomean_speedup(apps: &[AppSummary], config: &str) -> f64 {
    let v: Vec<f64> = apps.iter().map(|a| a.config(config).speedup).collect();
    dol_metrics::geomean(&v)
}

/// Geomean and range of the traffic ratio of one config.
pub fn traffic_summary(apps: &[AppSummary], config: &str) -> (f64, f64, f64) {
    let v: Vec<f64> = apps
        .iter()
        .map(|a| a.config(config).traffic_ratio)
        .collect();
    let g = dol_metrics::geomean(&v);
    let min = v.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (g, min, max)
}

/// The ordering of `prefetchers::COMPARISON_SET` for convenience.
pub fn comparison_set() -> &'static [&'static str] {
    &prefetchers::COMPARISON_SET
}
