//! `figs`: every figure and table driver of the paper, in process.
//!
//! This is the user's real path, "regenerate the paper": each timed
//! iteration clears the harness's run caches and calls every driver of
//! `experiments::drivers()` on the benchmark's plan, rendering each
//! report. It is the only workload that runs the harness sweep, its memo
//! caches, classification and rendering. The traced iterations time each
//! driver from outside.

use std::time::Instant;

use dol_harness::experiments::{self, matrix};
use dol_harness::RunPlan;

use crate::common::{median, ns_since, ratio, Checks};
use crate::{Ctx, Outcome};

/// Instructions per workload: twice the CI smoke budget, so one
/// iteration takes a few seconds. The caches start cold, so warm-up
/// weighs more than in a full-budget run.
pub const INSTS: u64 = 80_000;
/// Workloads taken from each suite.
pub const MAX_WORKLOADS: usize = 2;

/// The plan every figs iteration runs: one mix, one worker thread.
pub fn plan(seed: u64) -> RunPlan {
    RunPlan {
        insts: INSTS,
        seed,
        mix_count: 1,
        jobs: 1,
        max_workloads: Some(MAX_WORKLOADS),
        trace_dir: None,
    }
}

/// Set-up: builds every kernel's VM (program and initial memory) for the
/// seed. The figure drivers capture inside the timed iterations.
fn setup(seed: u64) -> Result<(), String> {
    for spec in dol_workloads::all_workloads() {
        std::hint::black_box(spec.build_vm(seed));
    }
    Ok(())
}

struct Figs {
    plan: RunPlan,
    /// Each driver's rendered report must equal the first iteration's.
    checks: Checks,
    /// Traced seconds per driver.
    driver_s: Vec<Vec<f64>>,
    /// Failed shape checks in the first iteration.
    deviations: usize,
}

impl Figs {
    fn iterate(&mut self, ctx: &Ctx, traced: bool) -> Result<(), String> {
        // Caches start cold on every iteration, as in a fresh process.
        dol_harness::runner::clear_run_caches();
        let drivers = experiments::drivers();
        if self.driver_s.is_empty() {
            self.driver_s = vec![Vec::new(); drivers.len()];
        }
        for (i, (_, run)) in drivers.into_iter().enumerate() {
            let (report, secs) = ctx.unit(|| {
                let t = Instant::now();
                let report = run(&self.plan);
                let text = report.render();
                ((report.deviations(), text), ns_since(t) / 1e9)
            });
            if traced {
                self.driver_s[i].push(secs);
            }
            if self.checks.check("figs", i, report.1, true) {
                self.deviations += report.0;
            }
        }
        Ok(())
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (setup_s, ()) = ctx.repeat_setup(|| setup(ctx.seed))?;
    let mut figs = Figs {
        plan: plan(ctx.seed),
        checks: Checks::default(),
        driver_s: Vec::new(),
        deviations: 0,
    };
    let times = ctx.timed_loop(|traced| figs.iterate(ctx, traced))?;

    // The TPC column of Figure 8, read back from the warm run caches.
    let apps = matrix::scan_spec21(&figs.plan, &["TPC"]);
    let traffic: Vec<f64> = apps.iter().map(|a| a.config("TPC").traffic_ratio).collect();
    let useful: u64 = apps.iter().map(|a| a.config("TPC").acc_l1.useful).sum();
    let issued: u64 = apps.iter().map(|a| a.config("TPC").acc_l1.issued).sum();

    let mut layers = vec![(
        "harness.shape_deviations".to_string(),
        figs.deviations as f64,
    )];
    let ids = experiments::drivers().into_iter().map(|(id, _)| id);
    let mut timed_s = 0.0;
    for (id, secs) in ids.zip(&figs.driver_s) {
        timed_s += secs.iter().sum::<f64>();
        layers.push((format!("harness.driver_s.{id}"), median(secs)));
    }
    Ok(Outcome {
        setup_s,
        closure: ratio(timed_s * 1e9, times.traced_ns()),
        times,
        speedup: matrix::geomean_speedup(&apps, "TPC"),
        traffic: dol_metrics::geomean(&traffic),
        accuracy: ratio(useful as f64, issued as f64),
        layers,
        attempted: figs.checks.attempted,
        failed: figs.checks.failed,
        digest: figs.checks.digest(),
    })
}
