//! `dol` — run any workload under any prefetcher configuration.
//!
//! ```text
//! dol list                                     # workloads and configs
//! dol run --workload stream_sum --prefetcher TPC [--insts N] [--seed S]
//! dol compare --workload aop_deref             # all configs on one workload
//! dol trace record (--workload <name> | --all) --dir DIR [--insts N] [--seed S] [--smoke]
//! dol trace info <file.dolt>                   # header + size summary
//! dol trace verify <file.dolt>...              # full decode, checksums checked
//! dol trace run --trace <file.dolt> --prefetcher TPC   # streaming replay
//! ```

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;
use std::num::NonZeroU64;
use std::path::Path;

use dol_core::NoPrefetcher;
use dol_cpu::{System, SystemConfig, Workload};
use dol_harness::runner::single_core;
use dol_harness::{prefetchers, traces, AppRun, BaselineRun, RunPlan};
use dol_mem::{CacheLevel, NullSink};
use dol_metrics::{scope, StreamingMetrics, TextTable};
use dol_trace::{ReplaySource, TraceReader};

fn usage() -> ! {
    eprintln!(
        "usage:\n  dol list\n  dol run --workload <name> --prefetcher <config> \
         [--insts N] [--seed S]\n  dol compare --workload <name> [--insts N] [--seed S]\n  \
         dol trace record (--workload <name> | --all) --dir <dir> [--insts N] [--seed S] \
         [--smoke]\n  dol trace info <file.dolt>\n  dol trace verify <file.dolt>...\n  \
         dol trace run --trace <file.dolt> --prefetcher <config>\n\
         \nconfigs: none, TPC, T2, P1, C1, T2+P1, TPC-plainPC, {} and TPC+<mono> / TPC|<mono>",
        dol_baselines::registry::MONOLITHIC_NAMES.join(", ")
    );
    std::process::exit(2);
}

/// Reports an input that parsed but cannot be run on one stderr line and
/// exits with status 2, the status of a usage error.
fn refuse(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

struct Args {
    workload: Option<String>,
    prefetcher: Option<String>,
    /// `--insts`, when given.
    insts: Option<NonZeroU64>,
    seed: u64,
    dir: Option<String>,
    trace: Option<String>,
    all: bool,
    smoke: bool,
}

impl Args {
    /// The instruction budget: `--insts`, else the full plan's 1 M.
    fn insts(&self) -> u64 {
        self.insts.map_or(RunPlan::full().insts, NonZeroU64::get)
    }
}

fn parse(args: &[String]) -> Args {
    let mut out = Args {
        workload: None,
        prefetcher: None,
        insts: None,
        seed: 2018,
        dir: None,
        trace: None,
        all: false,
        smoke: false,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--workload" | "-w" => {
                out.workload = args.get(i + 1).cloned();
                i += 2;
            }
            "--prefetcher" | "-p" => {
                out.prefetcher = args.get(i + 1).cloned();
                i += 2;
            }
            "--insts" | "-n" => {
                let n: u64 = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                out.insts = Some(NonZeroU64::new(n).unwrap_or_else(|| {
                    refuse("invalid --insts 0: expected at least 1 instruction")
                }));
                i += 2;
            }
            "--seed" | "-s" => {
                out.seed = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                i += 2;
            }
            "--dir" | "-d" => {
                out.dir = args.get(i + 1).cloned();
                i += 2;
            }
            "--trace" | "-t" => {
                out.trace = args.get(i + 1).cloned();
                i += 2;
            }
            "--all" => {
                out.all = true;
                i += 1;
            }
            "--smoke" => {
                out.smoke = true;
                i += 1;
            }
            _ => usage(),
        }
    }
    out
}

fn capture(name: &str, insts: u64, seed: u64) -> Workload {
    let Some(spec) = dol_workloads::by_name(name) else {
        refuse(&format!("unknown workload `{name}`; try `dol list`"))
    };
    Workload::capture(spec.build_vm(seed), insts).expect("workload runs")
}

fn cmd_list() {
    println!("workloads:");
    for spec in dol_workloads::all_workloads() {
        println!("  {:20} [{}]", spec.name, spec.suite);
    }
    println!("\nprefetcher configs: none, TPC, T2, P1, C1, T2+P1, TPC-plainPC,");
    println!("  {}", dol_baselines::registry::MONOLITHIC_NAMES.join(", "));
    println!("  TPC+<monolithic> (composite), TPC|<monolithic> (shunt)");
}

fn cmd_run(a: Args) {
    let (Some(workload), Some(config)) = (a.workload.as_deref(), a.prefetcher.as_deref()) else {
        usage()
    };
    match render_run(workload, config, a.insts(), a.seed) {
        Ok(text) => print!("{text}"),
        Err(msg) => refuse(&msg),
    }
}

/// Runs `workload` under `config` and renders the `dol run` report.
fn render_run(workload: &str, config: &str, insts: u64, seed: u64) -> Result<String, String> {
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
    let base = BaselineRun::capture(&spec, &plan);
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
        scope(&base.fp_l1, &run.metrics.prefetched_lines_all()),
        acc.effective_accuracy(),
        acc.issued,
        acc.useful,
        acc.unused
    );
    Ok(out)
}

fn cmd_compare(a: Args) {
    let Some(workload) = a.workload.as_deref() else {
        usage()
    };
    let w = capture(workload, a.insts(), a.seed);
    let sys = System::new(SystemConfig::isca2018(1));
    let base = sys.run_with_sink(&w, &mut NoPrefetcher, &mut NullSink);
    let mut t = TextTable::new(vec![
        "prefetcher".into(),
        "speedup".into(),
        "traffic".into(),
        "accuracy".into(),
    ]);
    for cfg in prefetchers::COMPARISON_SET {
        let mut p = prefetchers::build(cfg).expect("known config");
        let mut sm = StreamingMetrics::new();
        let r = sys.run_with_sink(&w, &mut p, &mut sm);
        let acc = sm.accuracy_at(CacheLevel::L1, None);
        t.row(vec![
            cfg.to_string(),
            format!("{:.3}", base.cycles as f64 / r.cycles as f64),
            format!(
                "{:.3}",
                r.stats.dram.total_traffic_lines() as f64
                    / base.stats.dram.total_traffic_lines().max(1) as f64
            ),
            format!("{:.2}", acc.effective_accuracy()),
        ]);
    }
    println!(
        "{workload} ({} insts, seed {}):\n{}",
        a.insts(),
        a.seed,
        t.render()
    );
}

/// `dol trace record`: capture workloads to `dol-trace` files.
fn cmd_trace_record(a: Args) {
    let Some(dir) = a.dir.as_deref() else { usage() };
    let dir = Path::new(dir);
    let mut plan = if a.smoke {
        if a.insts.is_some() {
            refuse("--insts cannot be combined with --smoke, which records a fixed budget");
        }
        RunPlan::smoke()
    } else {
        RunPlan {
            insts: a.insts(),
            ..RunPlan::full()
        }
    };
    plan.seed = a.seed;
    plan.jobs = 0;
    match (a.workload.as_deref(), a.all) {
        (Some(name), false) => {
            let Some(spec) = dol_workloads::by_name(name) else {
                refuse(&format!("unknown workload `{name}`; try `dol list`"))
            };
            let path = traces::trace_path(dir, name);
            match traces::record(&spec, plan.insts, plan.seed, &path) {
                Ok(bytes) => println!("{}: {} bytes", path.display(), bytes),
                Err(e) => {
                    eprintln!("recording {name} failed: {e}");
                    std::process::exit(1);
                }
            }
        }
        (None, true) => match traces::record_all(&plan, dir) {
            Ok(recorded) => {
                for (name, bytes) in &recorded {
                    println!(
                        "{}: {} bytes",
                        traces::trace_path(dir, name).display(),
                        bytes
                    );
                }
                println!("recorded {} traces to {}", recorded.len(), dir.display());
            }
            Err(e) => {
                eprintln!("recording failed: {e}");
                std::process::exit(1);
            }
        },
        _ => usage(),
    }
}

/// `dol trace info`: print a file's header without decoding the body.
fn cmd_trace_info(path: &str) {
    let file = match File::open(path) {
        Ok(f) => BufReader::new(f),
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            std::process::exit(1);
        }
    };
    match TraceReader::new(file) {
        Ok(r) => {
            let h = r.header();
            let size = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            println!("{path}: dol-trace-v{}", dol_trace::VERSION);
            println!("  workload: {}", h.name);
            println!("  seed:     {}", h.seed);
            println!("  insts:    {}", h.insts);
            println!(
                "  size:     {} bytes ({:.2} bytes/inst)",
                size,
                size as f64 / h.insts.max(1) as f64
            );
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

/// `dol trace verify`: full decode of each file, validating framing,
/// checksums and instruction counts. Exits non-zero on the first bad
/// file.
fn cmd_trace_verify(paths: &[String]) {
    if paths.is_empty() {
        usage();
    }
    for path in paths {
        let file = match File::open(path) {
            Ok(f) => BufReader::new(f),
            Err(e) => {
                eprintln!("cannot open {path}: {e}");
                std::process::exit(1);
            }
        };
        match dol_trace::decode_workload(file) {
            Ok((h, _, trace)) => {
                println!("{path}: ok — {} ({} insts)", h.name, trace.len());
            }
            Err(e) => {
                eprintln!("{path}: INVALID — {e}");
                std::process::exit(1);
            }
        }
    }
}

/// `dol trace run`: stream a trace file through the timing model without
/// ever materializing the instruction stream.
fn cmd_trace_run(a: Args) {
    let (Some(path), Some(config)) = (a.trace.as_deref(), a.prefetcher.as_deref()) else {
        usage()
    };
    match render_replay(path, config) {
        Ok(text) => print!("{text}"),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg.starts_with("unknown") { 2 } else { 1 });
        }
    }
}

/// Streams the `dol-trace` file at `path` through the single-core
/// timing model under `config` and renders the `dol trace run` report.
fn render_replay(path: &str, config: &str) -> Result<String, String> {
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

fn cmd_trace(argv: &[String]) {
    match argv.first().map(String::as_str) {
        Some("record") => cmd_trace_record(parse(&argv[1..])),
        Some("info") => match argv.get(1) {
            Some(path) => cmd_trace_info(path),
            None => usage(),
        },
        Some("verify") => cmd_trace_verify(&argv[1..]),
        Some("run") => cmd_trace_run(parse(&argv[1..])),
        _ => usage(),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(parse(&argv[1..])),
        Some("compare") => cmd_compare(parse(&argv[1..])),
        Some("trace") => cmd_trace(&argv[1..]),
        _ => usage(),
    }
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
