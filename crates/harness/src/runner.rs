//! Shared run helpers: workload capture, baseline + per-config runs.
//!
//! Metrics are accumulated *online* through event sinks — a
//! [`FootprintSink`] for the baseline, [`StreamingMetrics`] for every
//! prefetcher run — no run buffers its raw event stream.
//!
//! Each simulation builds its working set fresh and drops it when it
//! returns. Captures, per-config runs and classifications are memoized
//! across runs in the [`memo`](crate::memo) tables (see that module for
//! the keys and bounds); [`clear_run_caches`] empties them.

use std::sync::Arc;

use dol_core::Prefetcher;
use dol_cpu::{RunResult, System, SystemConfig, Workload};
use dol_isa::Trace;
use dol_mem::CacheLevel;
use dol_metrics::{classify_trace, Classifier, Footprint, FootprintSink, StreamingMetrics};
use dol_workloads::Spec;

use crate::memo::{self, AppRunKey, CaptureKey};
use crate::phase::{timed, Phase};
use crate::plan::RunPlan;
use crate::prefetchers;

/// Classifies `trace`, reusing a memoized result when a bit-identical
/// trace was classified before. Time (including the content hash) is
/// attributed to the classify phase.
pub fn classify_cached(trace: &Trace) -> Arc<Classifier> {
    timed(Phase::Classify, || {
        let key = (trace.len(), trace.content_hash());
        memo::CLASSIFIERS.get_or_compute(key, 1, || classify_trace(trace))
    })
}

/// A captured workload with its baseline (no-prefetch) run and offline
/// analysis artifacts.
pub struct BaselineRun {
    /// Workload name.
    pub name: String,
    /// The captured trace + memory image.
    pub workload: Workload,
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
    /// Capture memo key; also identifies this baseline in per-config
    /// run keys.
    pub(crate) key: CaptureKey,
}

impl BaselineRun {
    /// Captures `spec` under `plan` and runs the no-prefetch baseline on
    /// the canonical [`single_core`] system. A memoized capture is
    /// returned as a shared, bit-identical artifact without
    /// re-simulating.
    pub fn capture(spec: &Spec, plan: &RunPlan) -> Arc<Self> {
        let key: CaptureKey = (spec.name.to_string(), plan.insts, plan.seed);
        memo::CAPTURES.get_or_compute(key.clone(), plan.insts, || {
            Self::capture_uncached(spec, plan, key)
        })
    }

    fn capture_uncached(spec: &Spec, plan: &RunPlan, key: CaptureKey) -> Self {
        let workload = timed(Phase::Capture, || match &plan.trace_dir {
            // Replay path: decode the recorded trace instead of running
            // the functional VM. The decoded workload is bit-identical
            // to a live capture, so everything downstream (including the
            // capture memo) is unchanged.
            Some(dir) => crate::traces::load_workload(dir, spec.name, plan).unwrap_or_else(|e| {
                panic!(
                    "failed to load trace for {} from {}: {e}",
                    spec.name,
                    dir.display()
                )
            }),
            None => Workload::capture(spec.build_vm(plan.seed), plan.insts)
                .unwrap_or_else(|e| panic!("workload {} failed: {e}", spec.name)),
        });
        let mut none = dol_core::NoPrefetcher;
        let mut fp = FootprintSink::new(CacheLevel::L1);
        let result = timed(Phase::Simulate, || {
            single_core().run_with_sink(&workload, &mut none, &mut fp)
        });
        let classifier = classify_cached(&workload.trace);
        let mpki = result.stats.cores[0].l1_misses as f64 * 1000.0 / result.instructions as f64;
        BaselineRun {
            name: spec.name.to_string(),
            workload,
            result,
            fp_l1: fp.into_footprint(),
            classifier,
            mpki,
            key,
        }
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

/// One prefetcher configuration's run on one workload.
#[derive(Clone)]
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
    /// are memoized like [`BaselineRun::capture`]. Runs with
    /// caller-prepared accumulators ([`run_streaming`](Self::run_streaming))
    /// bypass the memo.
    ///
    /// # Panics
    ///
    /// Panics on an unknown configuration name.
    pub fn run(base: &BaselineRun, config: &str, sys: &System) -> Self {
        let (_, insts, _) = base.key;
        let shared = memo::APP_RUNS.get_or_compute(Self::key(base, config, sys), insts, || {
            let sm = StreamingMetrics::new().with_classifier(base.classifier.clone());
            Self::run_streaming(base, config, sys, sm)
        });
        AppRun::clone(&shared)
    }

    /// The memo key of [`run`](Self::run).
    pub(crate) fn key(base: &BaselineRun, config: &str, sys: &System) -> AppRunKey {
        let (name, insts, seed) = base.key.clone();
        (config.to_string(), format!("{sys:?}"), name, insts, seed)
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
        let result = timed(Phase::Simulate, || {
            sys.run_with_sink(&base.workload, &mut p, &mut metrics)
        });
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

/// Empties the capture, per-config run and classifier memo tables, so
/// the next run re-simulates everything from scratch. Used by
/// `run_all --bench-repeat`, where a repeat pass served from the memo
/// would measure bookkeeping instead of simulation throughput.
pub fn clear_run_caches() {
    memo::clear();
}

/// The standard single-core system of the paper's Table I.
pub fn single_core() -> System {
    System::new(SystemConfig::isca2018(1))
}

/// Convenience: run a set of prefetchers over one prepared app.
pub fn run_configs(base: &BaselineRun, configs: &[&str], sys: &System) -> Vec<AppRun> {
    configs.iter().map(|c| AppRun::run(base, c, sys)).collect()
}

/// Runs one workload under one boxed prefetcher (for callers that build
/// prefetchers themselves).
pub fn run_with(base: &BaselineRun, p: &mut dyn Prefetcher, sys: &System) -> RunResult {
    timed(Phase::Simulate, || sys.run(&base.workload, p))
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
}
