//! Request execution shared by the CLI and the server.
//!
//! `dol run` and `dol client run` (likewise `dol trace run` and
//! `dol client replay`) must print identical text for identical inputs —
//! so both go through these functions. Each returns the rendered stdout
//! block on success or a one-line message on failure; the CLI prints the
//! error to stderr and exits, the server wraps it in an `App` error
//! frame.
//!
//! The single-workload path runs through [`BaselineRun::capture`] /
//! [`AppRun::run`], so a resident server serves repeated requests from
//! the process-wide memoized caches — bit-identical results, none of the
//! simulation.

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;

use dol_cpu::System;
use dol_mem::CacheLevel;
use dol_metrics::scope;
use dol_trace::{ReplaySource, TraceReader};

use crate::plan::RunPlan;
use crate::prefetchers;
use crate::runner::{single_core, AppRun, BaselineRun};

/// Runs `workload` under `config` and renders the `dol run` report.
pub fn render_run(workload: &str, config: &str, insts: u64, seed: u64) -> Result<String, String> {
    let Some(spec) = dol_workloads::by_name(workload) else {
        return Err(format!("unknown workload `{workload}`; try `dol list`"));
    };
    if prefetchers::build(config).is_none() {
        return Err(format!("unknown prefetcher `{config}`; try `dol list`"));
    }
    let plan = RunPlan {
        insts,
        seed,
        ..RunPlan::smoke()
    };
    let sys = single_core();
    let base = BaselineRun::capture(&spec, &plan, &sys);
    let run = AppRun::run(&base, config, &sys);
    let r = &run.result;
    let b = &base.result;
    let acc = run.metrics.accuracy_at(CacheLevel::L1, None);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {workload}: {} insts, seed {seed}",
        r.instructions
    );
    let _ = writeln!(
        out,
        "baseline: {} cycles (IPC {:.2}), {} L1 misses, {} DRAM lines",
        b.cycles,
        b.ipc(),
        b.stats.cores[0].l1_misses,
        b.stats.dram.total_traffic_lines()
    );
    let _ = writeln!(
        out,
        "{config}: {} cycles (IPC {:.2}), {} L1 misses, {} DRAM lines",
        r.cycles,
        r.ipc(),
        r.stats.cores[0].l1_misses,
        r.stats.dram.total_traffic_lines()
    );
    let _ = writeln!(
        out,
        "speedup {:.3}x | traffic {:.3}x | scope {:.2} | eff. accuracy {:.2} \
         ({} issued / {} useful / {} unused)",
        b.cycles as f64 / r.cycles as f64,
        r.stats.dram.total_traffic_lines() as f64
            / b.stats.dram.total_traffic_lines().max(1) as f64,
        scope(&base.fp_l1, run.metrics.prefetched_lines_all()),
        acc.effective_accuracy(),
        acc.issued,
        acc.useful,
        acc.unused
    );
    Ok(out)
}

/// Streams the `dol-trace-v1` file at `path` through the single-core
/// timing model under `config` and renders the `dol trace run` report.
pub fn render_replay(path: &str, config: &str) -> Result<String, String> {
    let Some(mut p) = prefetchers::build(config) else {
        return Err(format!("unknown prefetcher `{config}`; try `dol list`"));
    };
    let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut reader = TraceReader::new(BufReader::new(file)).map_err(|e| format!("{path}: {e}"))?;
    let memory = reader.read_memory().map_err(|e| format!("{path}: {e}"))?;
    let header = reader.header().clone();
    let sys: System = single_core();
    let (r, source) = sys.run_source(ReplaySource::new(reader), &memory, &mut p);
    if let Some(e) = source.error() {
        return Err(format!("{path}: replay stopped early: {e}"));
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replayed {} ({} insts, seed {}) under {config}",
        header.name, r.instructions, header.seed
    );
    let _ = writeln!(
        out,
        "{} cycles (IPC {:.2}), {} L1 misses, {} DRAM lines, {} prefetches",
        r.cycles,
        r.ipc(),
        r.stats.cores[0].l1_misses,
        r.stats.dram.total_traffic_lines(),
        r.stats.cores[0].prefetches
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_run_reports_unknown_names() {
        assert!(render_run("no_such_workload", "TPC", 1000, 1).is_err());
        assert!(render_run("stream_sum", "no_such_config", 1000, 1).is_err());
    }

    #[test]
    fn render_run_produces_the_cli_report_shape() {
        let out = render_run("stream_sum", "T2", 20_000, 2018).unwrap();
        assert!(out.starts_with("workload stream_sum: "));
        assert!(out.contains("\nbaseline: "));
        assert!(out.contains("\nT2: "));
        assert!(out.contains("speedup "));
        // Warm path: a second identical request is served from the run
        // caches and renders byte-identically.
        assert_eq!(render_run("stream_sum", "T2", 20_000, 2018).unwrap(), out);
    }

    #[test]
    fn render_replay_reports_a_missing_file() {
        let err = render_replay("/nonexistent/file.dolt", "TPC").unwrap_err();
        assert!(err.contains("cannot open"), "{err}");
    }
}
