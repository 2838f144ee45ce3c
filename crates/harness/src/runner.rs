//! Shared run helpers: workload capture, baseline + per-config runs.
//!
//! Metrics are accumulated *online* through [`StreamingMetrics`] sinks
//! — no run buffers its raw event stream.
//!
//! # Capture memoization
//!
//! [`BaselineRun::capture`] is deterministic in `(workload name, insts,
//! seed)` — the functional VM, the timing model, and the offline
//! analyses have no other inputs — and most figure drivers re-capture
//! the same handful of workloads. Captures are therefore memoized in a
//! process-wide FIFO cache bounded by total cached *instructions*
//! (6 M, `CAPTURE_CACHE_INSTS`), and shared as `Arc`s. A cache hit returns
//! bit-identical artifacts to a fresh capture, so reports are
//! byte-identical whether a capture is served from the cache or not.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use dol_core::Prefetcher;
use dol_cpu::{RunResult, System, SystemConfig, Workload};
use dol_isa::Trace;
use dol_metrics::{classify_trace, Classifier, Footprint, StreamingMetrics};
use dol_workloads::Spec;

use crate::phase::{timed, Phase};
use crate::plan::RunPlan;
use crate::prefetchers;

/// `(workload name, insts, seed)` — everything a capture depends on.
/// All callers use the canonical single-core system of
/// [`single_core`], so the system is not part of the key.
type CaptureKey = (String, u64, u64);

struct CaptureCache {
    held_insts: u64,
    entries: VecDeque<(CaptureKey, Arc<BaselineRun>)>,
}

static CAPTURE_CACHE: Mutex<CaptureCache> = Mutex::new(CaptureCache {
    held_insts: 0,
    entries: VecDeque::new(),
});

/// `(config, system fingerprint, workload name, insts, seed)` —
/// everything an [`AppRun::run`] depends on. The system is keyed by its
/// `Debug` rendering: drivers such as fig16 reuse one config name across
/// structurally different systems (prefetch destination sweeps).
type AppRunKey = (String, String, String, u64, u64);

struct AppRunCache {
    held_insts: u64,
    entries: VecDeque<(AppRunKey, Arc<AppRun>)>,
}

static APP_RUN_CACHE: Mutex<AppRunCache> = Mutex::new(AppRunCache {
    held_insts: 0,
    entries: VecDeque::new(),
});

/// Bounded memo of `classify_trace` results keyed by the capture's
/// content hash (plus length, belt-and-braces against collisions).
///
/// Captures themselves are memoized, but the capture cache is bounded by
/// *instructions* and the full 36-workload suite overflows it — a
/// recaptured workload used to re-run the whole three-pass
/// classification. Classifier artifacts are tiny (per-PC and per-line
/// category maps), so an entry-bounded FIFO holds the entire suite.
type ClassifierKey = (usize, u64);

const CLASSIFIER_CACHE_CAP: usize = 64;

static CLASSIFIER_CACHE: Mutex<VecDeque<(ClassifierKey, Arc<Classifier>)>> =
    Mutex::new(VecDeque::new());

/// Classifies `trace`, reusing a memoized result when a bit-identical
/// trace was classified before. Time (including the content hash) is
/// attributed to the classify phase.
pub fn classify_cached(trace: &Trace) -> Arc<Classifier> {
    timed(Phase::Classify, || {
        let key: ClassifierKey = (trace.len(), trace.content_hash());
        {
            let cache = CLASSIFIER_CACHE.lock().expect("classifier cache poisoned");
            if let Some((_, hit)) = cache.iter().find(|(k, _)| *k == key) {
                return Arc::clone(hit);
            }
        }
        let fresh = Arc::new(classify_trace(trace));
        let mut cache = CLASSIFIER_CACHE.lock().expect("classifier cache poisoned");
        if !cache.iter().any(|(k, _)| *k == key) {
            cache.push_back((key, Arc::clone(&fresh)));
            while cache.len() > CLASSIFIER_CACHE_CAP {
                cache.pop_front();
            }
        }
        fresh
    })
}

/// Instructions the capture cache holds at most (the oldest entries are
/// evicted first; the newest always stays). The per-config run cache
/// holds 4x this — its artifacts are far smaller than traces.
const CAPTURE_CACHE_INSTS: u64 = 6_000_000;

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
    /// Baseline L2 miss footprint.
    pub fp_l2: Footprint,
    /// Offline LHF/MHF/HHF classification (shared with per-config runs
    /// for streaming category accounting).
    pub classifier: Arc<Classifier>,
    /// Baseline misses per kilo-instruction at L1 (the paper's scatter
    /// weights).
    pub mpki: f64,
    /// Capture-cache key; also identifies this baseline for the
    /// per-config run cache.
    pub(crate) key: CaptureKey,
}

impl BaselineRun {
    /// Captures `spec` under `plan` and runs the no-prefetch baseline on
    /// `sys` (the canonical single-core system — see the module-level
    /// memoization notes). Hits in the process-wide capture cache return
    /// a shared, bit-identical artifact without re-simulating.
    pub fn capture(spec: &Spec, plan: &RunPlan, sys: &System) -> Arc<Self> {
        let key: CaptureKey = (spec.name.to_string(), plan.insts, plan.seed);
        {
            let cache = CAPTURE_CACHE.lock().expect("capture cache poisoned");
            if let Some((_, hit)) = cache.entries.iter().find(|(k, _)| *k == key) {
                return Arc::clone(hit);
            }
        }
        let fresh = Arc::new(Self::capture_uncached(spec, plan, sys));
        let mut cache = CAPTURE_CACHE.lock().expect("capture cache poisoned");
        // A racing worker may have inserted the same key; both values are
        // bit-identical, so keeping ours is equally correct.
        if !cache.entries.iter().any(|(k, _)| *k == key) {
            cache.held_insts += plan.insts;
            cache.entries.push_back((key, Arc::clone(&fresh)));
            while cache.held_insts > CAPTURE_CACHE_INSTS && cache.entries.len() > 1 {
                if let Some(((_, insts, _), _)) = cache.entries.pop_front() {
                    cache.held_insts -= insts;
                }
            }
        }
        fresh
    }

    fn capture_uncached(spec: &Spec, plan: &RunPlan, sys: &System) -> Self {
        let workload = timed(Phase::Capture, || match &plan.trace_dir {
            // Replay path: decode the recorded trace instead of running
            // the functional VM. The decoded workload is bit-identical
            // to a live capture, so everything downstream (including the
            // capture cache) is unchanged.
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
        let mut sm = StreamingMetrics::new();
        let result = timed(Phase::Simulate, || {
            sys.run_with_sink(&workload, &mut none, &mut sm)
        });
        let [fp_l1, fp_l2, _] = timed(Phase::Metrics, || sm.into_footprints());
        let classifier = classify_cached(&workload.trace);
        let mpki = result.stats.cores[0].l1_misses as f64 * 1000.0 / result.instructions as f64;
        BaselineRun {
            name: spec.name.to_string(),
            workload,
            result,
            fp_l1,
            fp_l2,
            classifier,
            mpki,
            key: (spec.name.to_string(), plan.insts, plan.seed),
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
    /// Deterministic in `(config, baseline key)`, so results are
    /// memoized like [`BaselineRun::capture`] (same instruction budget,
    /// 4x the allowance — per-run artifacts are far smaller than
    /// traces). Runs with caller-prepared accumulators
    /// ([`run_streaming`](Self::run_streaming)) bypass the cache.
    ///
    /// # Panics
    ///
    /// Panics on an unknown configuration name.
    pub fn run(base: &BaselineRun, config: &str, sys: &System) -> Self {
        let (name, insts, seed) = base.key.clone();
        let key: AppRunKey = (config.to_string(), format!("{sys:?}"), name, insts, seed);
        {
            let cache = APP_RUN_CACHE.lock().expect("app-run cache poisoned");
            if let Some((_, hit)) = cache.entries.iter().find(|(k, _)| *k == key) {
                return AppRun {
                    config: hit.config.clone(),
                    result: hit.result.clone(),
                    metrics: hit.metrics.clone(),
                };
            }
        }
        let sm = StreamingMetrics::new().with_classifier(base.classifier.clone());
        let fresh = Self::run_streaming(base, config, sys, sm);
        let shared = Arc::new(AppRun {
            config: fresh.config.clone(),
            result: fresh.result.clone(),
            metrics: fresh.metrics.clone(),
        });
        let mut cache = APP_RUN_CACHE.lock().expect("app-run cache poisoned");
        if !cache.entries.iter().any(|(k, _)| *k == key) {
            cache.held_insts += insts;
            cache.entries.push_back((key, shared));
            while cache.held_insts > 4 * CAPTURE_CACHE_INSTS && cache.entries.len() > 1 {
                if let Some(((_, _, _, insts, _), _)) = cache.entries.pop_front() {
                    cache.held_insts -= insts;
                }
            }
        }
        fresh
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

/// Empties the process-wide capture, per-config run, and classifier
/// caches, plus the calling thread's arena pools, so the next run
/// re-simulates everything from scratch. Used by
/// `run_all --bench-repeat`, where a repeat pass served from the caches
/// (or measuring against pre-warmed arenas) would measure bookkeeping
/// instead of simulation throughput.
pub fn clear_run_caches() {
    let mut cap = CAPTURE_CACHE.lock().expect("capture cache poisoned");
    cap.held_insts = 0;
    cap.entries.clear();
    drop(cap);
    let mut runs = APP_RUN_CACHE.lock().expect("app-run cache poisoned");
    runs.held_insts = 0;
    runs.entries.clear();
    drop(runs);
    CLASSIFIER_CACHE
        .lock()
        .expect("classifier cache poisoned")
        .clear();
    // Arena pools are thread-local; sweep workers are ephemeral, so the
    // pools that persist across passes are the calling thread's.
    dol_cpu::clear_arena_pools();
}

/// The standard single-core system of the paper's Table I.
pub fn single_core() -> System {
    System::new(SystemConfig::isca2018(1))
}

/// Captures the whole spec21 suite with baselines (the common prologue
/// of most figures), sharded across `plan.jobs` workers.
pub fn capture_spec21(plan: &RunPlan, sys: &System) -> Vec<Arc<BaselineRun>> {
    let specs = plan.cap_suite(dol_workloads::spec21());
    crate::sweep::map(plan.jobs, &specs, |s| BaselineRun::capture(s, plan, sys))
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
        let sys = single_core();
        let spec = dol_workloads::by_name("stream_sum").unwrap();
        let base = BaselineRun::capture(&spec, &plan, &sys);
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
        let base = BaselineRun::capture(&spec, &plan, &sys);
        let run = AppRun::run(&base, "T2", &sys);
        assert!(run.speedup(&base) > 1.05, "got {}", run.speedup(&base));
    }
}
