//! Shared run helpers: workload capture, baseline + per-config runs,
//! and 4-core co-runs of captured workloads.
//!
//! Metrics are accumulated *online* through event sinks — a
//! [`FootprintSink`] for the baseline, [`StreamingMetrics`] for every
//! prefetcher run — no run buffers its raw event stream.
//!
//! Each simulation builds its working set fresh and drops it when it
//! returns. Traces, baselines and per-config runs are memoized across
//! runs in the `memo` tables (see that module for the keys and the one
//! bound); [`clear_run_caches`] empties them.

use std::collections::HashMap;
use std::sync::Arc;

use dol_cpu::{MultiRunResult, RunResult, System, SystemConfig, Workload};
use dol_mem::{CacheLevel, EventSink};
use dol_metrics::{classify_trace, Classifier, Footprint, FootprintSink, StreamingMetrics};
use dol_workloads::Spec;

use crate::memo::{self, AppRunKey, CaptureKey};
use crate::plan::RunPlan;
use crate::prefetchers;

/// A workload's baseline (no-prefetch) run and offline analysis
/// artifacts; [`workload`](Self::workload) fetches its trace.
pub struct BaselineRun {
    /// Workload name.
    pub name: String,
    /// The no-prefetch run.
    pub result: RunResult,
    /// Baseline L1 miss footprint (for scope).
    pub fp_l1: Footprint,
    /// Offline LHF/MHF/HHF classification (shared with per-config runs
    /// for streaming category accounting).
    pub classifier: Arc<Classifier>,
    /// Baseline misses per kilo-instruction at L1 (the paper's scatter
    /// weights).
    pub mpki: f64,
    /// The workload and the plan it was captured under: all it takes to
    /// capture its trace again.
    spec: Spec,
    plan: RunPlan,
}

impl BaselineRun {
    /// Captures `spec` under `plan` and runs the no-prefetch baseline on
    /// the canonical [`single_core`] system, or returns the memoized,
    /// bit-identical baseline without re-simulating.
    pub fn capture(spec: &Spec, plan: &RunPlan) -> Arc<Self> {
        memo::BASELINES.get_or_compute(capture_key(spec, plan), || {
            let workload = trace(spec, plan);
            let mut fp = FootprintSink::new(CacheLevel::L1);
            let result =
                single_core().run_with_sink(&workload, &mut dol_core::NoPrefetcher, &mut fp);
            let mpki = result.stats.cores[0].l1_misses as f64 * 1000.0 / result.instructions as f64;
            BaselineRun {
                name: spec.name.to_string(),
                result,
                fp_l1: fp.into_footprint(),
                classifier: Arc::new(classify_trace(&workload.trace)),
                mpki,
                spec: spec.clone(),
                plan: plan.clone(),
            }
        })
    }

    /// The captured trace + memory image, captured again (or re-loaded)
    /// after its eviction from the memo; the baseline is never re-run.
    pub fn workload(&self) -> Arc<Workload> {
        trace(&self.spec, &self.plan)
    }

    /// Baseline cycle count.
    pub fn cycles(&self) -> u64 {
        self.result.cycles
    }

    /// Baseline DRAM traffic in lines.
    pub fn traffic(&self) -> u64 {
        self.result.stats.dram.total_traffic_lines()
    }
}

fn capture_key(spec: &Spec, plan: &RunPlan) -> CaptureKey {
    (spec.name.to_string(), plan.insts, plan.seed)
}

/// `spec`'s trace under `plan`: from the trace table, else decoded from
/// the plan's trace directory (bit-identical to a live capture) or run.
fn trace(spec: &Spec, plan: &RunPlan) -> Arc<Workload> {
    memo::TRACES.get_or_compute(capture_key(spec, plan), || match &plan.trace_dir {
        Some(dir) => crate::traces::load_workload(dir, spec.name, plan).unwrap_or_else(|e| {
            panic!(
                "failed to load trace for {} from {}: {e}",
                spec.name,
                dir.display()
            )
        }),
        None => Workload::capture(spec.build_vm(plan.seed), plan.insts)
            .unwrap_or_else(|e| panic!("workload {} failed: {e}", spec.name)),
    })
}

/// One prefetcher configuration's run on one workload.
pub struct AppRun {
    /// Configuration name.
    pub config: String,
    /// The run.
    pub result: RunResult,
    /// Metrics accumulated online during the run.
    pub metrics: StreamingMetrics,
}

impl AppRun {
    /// Runs configuration `config` on a captured baseline's workload,
    /// with streaming category accounting against the baseline's
    /// classifier.
    ///
    /// Deterministic in `(config, system, baseline key)`, so results
    /// are memoized like [`BaselineRun::capture`] and returned as the
    /// same shared artifact. Runs with caller-prepared accumulators
    /// ([`run_streaming`](Self::run_streaming)) bypass the memo.
    ///
    /// # Panics
    ///
    /// Panics on an unknown configuration name.
    pub fn run(base: &BaselineRun, config: &str, sys: &System) -> Arc<Self> {
        memo::APP_RUNS.get_or_compute(Self::key(base, config, sys), || {
            let sm = StreamingMetrics::new().with_classifier(base.classifier.clone());
            Self::run_streaming(base, config, sys, sm)
        })
    }

    /// The memo key of [`run`](Self::run).
    pub(crate) fn key(base: &BaselineRun, config: &str, sys: &System) -> AppRunKey {
        let capture = capture_key(&base.spec, &base.plan);
        (config.to_string(), format!("{sys:?}"), capture)
    }

    /// Like [`run`](Self::run) with a caller-prepared accumulator (e.g.
    /// one configured with a region restriction).
    ///
    /// # Panics
    ///
    /// Panics on an unknown configuration name.
    pub fn run_streaming(
        base: &BaselineRun,
        config: &str,
        sys: &System,
        mut metrics: StreamingMetrics,
    ) -> Self {
        let mut p = prefetchers::build(config)
            .unwrap_or_else(|| panic!("unknown prefetcher config {config}"));
        let result = sys.run_with_sink(&base.workload(), &mut p, &mut metrics);
        AppRun {
            config: config.to_string(),
            result,
            metrics,
        }
    }

    /// Speedup over the baseline.
    pub fn speedup(&self, base: &BaselineRun) -> f64 {
        base.result.cycles as f64 / self.result.cycles as f64
    }

    /// DRAM traffic normalized to the baseline.
    pub fn traffic_ratio(&self, base: &BaselineRun) -> f64 {
        let b = base.traffic().max(1);
        self.result.stats.dram.total_traffic_lines() as f64 / b as f64
    }
}

/// Empties the trace, baseline and per-config run memo tables, so
/// the next run re-simulates everything from scratch. A benchmark that
/// repeats a workload calls this between iterations, so a repeat served
/// from the memo does not measure bookkeeping instead of simulation.
pub fn clear_run_caches() {
    memo::clear();
}

/// The standard single-core system of the paper's Table I.
pub fn single_core() -> System {
    System::new(SystemConfig::isca2018(1))
}

/// Convenience: run a set of prefetchers over one prepared app.
pub fn run_configs(base: &BaselineRun, configs: &[&str], sys: &System) -> Vec<Arc<AppRun>> {
    configs.iter().map(|c| AppRun::run(base, c, sys)).collect()
}

/// The captured members of a set of 4-core co-runs, each distinct
/// workload captured once with its solo no-prefetch baseline.
pub struct CoRunMembers {
    captured: HashMap<&'static str, Arc<BaselineRun>>,
}

impl CoRunMembers {
    /// Captures every distinct workload named in `mixes`, in
    /// first-appearance order, through the plan's sweep pool.
    ///
    /// # Panics
    ///
    /// Panics on an unknown workload name.
    pub fn capture(plan: &RunPlan, mixes: &[[&'static str; 4]]) -> Self {
        let mut uniq: Vec<&'static str> = Vec::new();
        for &name in mixes.iter().flatten() {
            if !uniq.contains(&name) {
                uniq.push(name);
            }
        }
        let captured = crate::sweep::map(plan.jobs, &uniq, |&name| {
            let spec =
                dol_workloads::by_name(name).unwrap_or_else(|| panic!("unknown workload {name}"));
            (name, BaselineRun::capture(&spec, plan))
        });
        CoRunMembers {
            captured: captured.into_iter().collect(),
        }
    }

    /// The solo no-prefetch IPCs of `mix`'s members: the reference of
    /// its weighted speedups.
    pub fn solo_ipcs(&self, mix: &[&str; 4]) -> Vec<f64> {
        mix.iter().map(|&m| self.captured[m].result.ipc()).collect()
    }

    /// Co-runs `mix` on `sys`, core `i` running prefetcher configuration
    /// `configs[i]`, streaming every core's events into `sink`.
    ///
    /// # Panics
    ///
    /// Panics on a workload missing from the capture or on an unknown
    /// configuration name.
    pub fn corun<S: EventSink + ?Sized>(
        &self,
        sys: &System,
        mix: &[&str; 4],
        configs: [&str; 4],
        sink: &mut S,
    ) -> MultiRunResult {
        let workloads = mix.map(|m| self.captured[m].workload());
        let mut cores = configs.map(|c| {
            prefetchers::build(c).unwrap_or_else(|| panic!("unknown prefetcher config {c}"))
        });
        sys.run_corun(&workloads, &mut cores, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_capture_produces_artifacts() {
        let plan = RunPlan::quick();
        let spec = dol_workloads::by_name("stream_sum").unwrap();
        let base = BaselineRun::capture(&spec, &plan);
        assert!(base.cycles() > 0);
        assert!(base.fp_l1.unique_lines() > 0);
        assert!(base.mpki > 0.0);
        assert!(base.classifier.classified_lines() > 0);
    }

    #[test]
    fn t2_beats_baseline_on_stream() {
        let plan = RunPlan::quick();
        let sys = single_core();
        let spec = dol_workloads::by_name("stream_sum").unwrap();
        let base = BaselineRun::capture(&spec, &plan);
        let run = AppRun::run(&base, "T2", &sys);
        assert!(run.speedup(&base) > 1.05, "got {}", run.speedup(&base));
    }

    #[test]
    fn an_evicted_trace_costs_no_resimulation() {
        let _clearing = memo::clearing();
        // Keys no other test uses (an odd budget and seed).
        let plan = RunPlan {
            insts: 10_009,
            seed: 0x7ace,
            ..RunPlan::quick()
        };
        let sys = single_core();
        let spec = dol_workloads::by_name("stream_sum").unwrap();
        let key = capture_key(&spec, &plan);
        let base = BaselineRun::capture(&spec, &plan);
        let t2 = AppRun::run(&base, "T2", &sys);
        memo::TRACES.clear();

        let again = BaselineRun::capture(&spec, &plan);
        assert!(Arc::ptr_eq(&base, &again), "the baseline is not re-run");
        let t2_again = AppRun::run(&again, "T2", &sys);
        assert!(Arc::ptr_eq(&t2, &t2_again), "T2 is not re-run");
        assert!(!memo::TRACES.contains(&key), "nor is the trace captured");

        let tpc = AppRun::run(&again, "TPC", &sys);
        assert!(memo::TRACES.contains(&key), "a new config captures it");
        clear_run_caches();
        let fresh = BaselineRun::capture(&spec, &plan);
        assert!(!Arc::ptr_eq(&base, &fresh));
        assert_eq!(base.result, fresh.result);
        assert_eq!(tpc.result, AppRun::run(&fresh, "TPC", &sys).result);
    }
}
