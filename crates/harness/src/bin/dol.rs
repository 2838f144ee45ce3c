//! `dol` — the one command line of the reproduction: regenerate the
//! paper's tables and figures, or run any workload under any prefetcher
//! configuration.
//!
//! ```text
//! dol all [--smoke] [--jobs N] [--trace-dir DIR] [--insts N] [--mixes N]
//! dol fig <id>... [--smoke] [--jobs N] [--trace-dir DIR] [--insts N] [--mixes N]
//! dol list                                     # workloads and configs
//! dol run --workload stream_sum --prefetcher TPC [--insts N] [--seed S]
//! dol compare --workload aop_deref             # all configs on one workload
//! dol trace record (--workload <name> | --all) --dir DIR [--insts N] [--seed S] [--smoke]
//! dol trace info <file.dolt>                   # header + size summary
//! dol trace verify <file.dolt>...              # full decode, checksums checked
//! dol trace run --trace <file.dolt> --prefetcher TPC   # streaming replay
//! ```
//!
//! `dol all` renders every report of [`experiments::drivers`], then the
//! total count of paper-shape checks that deviate; `dol fig` renders the
//! named ones in the order given. Both run the full plan (1 M
//! instructions per workload, 8 mixes) unless told otherwise: `--smoke`
//! switches to [`RunPlan::smoke`] (tiny budget, first few workloads per
//! suite, one mix), `--insts` and `--mixes` set the budget, `--jobs N`
//! shards workloads across N worker threads (`0` = one per core) with
//! byte-identical output for any N, and `--trace-dir DIR` replays
//! captures from `dol-trace` files recorded with `dol trace record`,
//! again without changing a byte of stdout.
//!
//! Each subcommand reads only the flags listed for it; any other
//! argument is refused with exit status 2.

use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;
use std::ops::RangeBounds;
use std::path::Path;

use dol_harness::experiments::{self, Driver};
use dol_harness::runner::{run_configs, single_core};
use dol_harness::{plan, prefetchers, traces, AppRun, BaselineRun, RunPlan};
use dol_mem::CacheLevel;
use dol_metrics::{scope, TextTable};
use dol_trace::{ReplaySource, TraceReader};

fn usage() -> ! {
    eprintln!(
        "usage:\n  dol all [--smoke] [--jobs N] [--trace-dir DIR] [--insts N] [--mixes N]\n  \
         dol fig <id>... [--smoke] [--jobs N] [--trace-dir DIR] [--insts N] [--mixes N]\n  \
         dol list\n  dol run --workload <name> --prefetcher <config> [--insts N] [--seed S]\n  \
         dol compare --workload <name> [--insts N] [--seed S]\n  \
         dol trace record (--workload <name> | --all) --dir <dir> [--insts N] [--seed S] \
         [--smoke]\n  dol trace info <file.dolt>\n  dol trace verify <file.dolt>...\n  \
         dol trace run --trace <file.dolt> --prefetcher <config>\n\
         \nids: {}\n\
         configs: none, TPC, T2, P1, C1, T2+P1, TPC-plainPC, {} and TPC+<mono> / TPC|<mono>",
        figure_ids(),
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

/// Every subcommand: its name, the flags it reads (space-separated),
/// whether it takes operands (arguments that are not flags), and its
/// body.
type Command = (&'static str, &'static str, bool, fn(&Args));

/// The flags of `dol fig` and `dol all`: the run plan's.
const PLAN_FLAGS: &str = "--smoke --jobs --trace-dir --insts --mixes";

const COMMANDS: [Command; 9] = [
    ("all", PLAN_FLAGS, false, cmd_all),
    ("fig", PLAN_FLAGS, true, cmd_fig),
    ("list", "", false, cmd_list),
    (
        "run",
        "--workload --prefetcher --insts --seed",
        false,
        cmd_run,
    ),
    ("compare", "--workload --insts --seed", false, cmd_compare),
    (
        "trace record",
        "--workload --all --dir --insts --seed --smoke",
        false,
        cmd_trace_record,
    ),
    ("trace info", "", true, cmd_trace_info),
    ("trace verify", "", true, cmd_trace_verify),
    ("trace run", "--trace --prefetcher", false, cmd_trace_run),
];

/// Short spellings of flags.
const SHORT: [(&str, &str); 7] = [
    ("-w", "--workload"),
    ("-p", "--prefetcher"),
    ("-n", "--insts"),
    ("-s", "--seed"),
    ("-d", "--dir"),
    ("-t", "--trace"),
    ("-j", "--jobs"),
];

/// The flags that take no value.
const SWITCHES: [&str; 2] = ["--all", "--smoke"];

/// One subcommand's command line.
struct Args {
    /// The flags given, by long name, with their values (empty for a
    /// switch). A repeated flag's last value counts.
    flags: Vec<(&'static str, String)>,
    /// The arguments that are not flags, in order.
    operands: Vec<String>,
}

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The numeric flag `flag` in `accepted`, or `default` when it is
    /// not given. A bad value exits as [`plan::FlagError::exit`] does.
    fn number(
        &self,
        flag: &'static str,
        accepted: impl RangeBounds<u64> + std::fmt::Debug,
        default: u64,
    ) -> u64 {
        match self.value(flag) {
            Some(v) => plan::parse_flag(flag, v, accepted).unwrap_or_else(|e| e.exit()),
            None => default,
        }
    }

    /// The single-run budget: `--insts`, else the full plan's 1 M.
    fn insts(&self) -> u64 {
        self.number("--insts", 1.., RunPlan::full().insts)
    }

    fn seed(&self) -> u64 {
        self.number("--seed", .., RunPlan::full().seed)
    }

    /// Refuses each of `flags` given beside `--smoke`, whose budget is
    /// fixed.
    fn refuse_with_smoke(&self, flags: &[&str]) {
        if let Some(flag) = flags.iter().find(|f| self.has("--smoke") && self.has(f)) {
            refuse(&format!(
                "{flag} cannot be combined with --smoke, which fixes the budget"
            ));
        }
    }
}

/// Parses the arguments of subcommand `name`, which reads the flags in
/// `accepts` and, when `operands` is set, arguments that are not flags.
/// Anything else is refused on one stderr line.
fn parse(name: &str, argv: &[String], accepts: &'static str, operands: bool) -> Args {
    let mut out = Args {
        flags: Vec::new(),
        operands: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let long = SHORT
            .iter()
            .find(|(short, _)| short == arg)
            .map_or(arg.as_str(), |(_, long)| long);
        if !long.starts_with('-') {
            if !operands {
                refuse(&format!("dol {name} does not take the argument {arg:?}"));
            }
            out.operands.push(arg.clone());
            continue;
        }
        let Some(flag) = accepts.split_whitespace().find(|f| *f == long) else {
            refuse(&format!("dol {name} does not take {arg}"))
        };
        let value = if SWITCHES.contains(&flag) {
            String::new()
        } else {
            it.next()
                .cloned()
                .unwrap_or_else(|| refuse(&format!("{flag} needs a value")))
        };
        out.flags.push((flag, value));
    }
    out
}

/// The ids `dol fig` takes, comma-separated.
fn figure_ids() -> String {
    let ids: Vec<&str> = experiments::drivers().iter().map(|(id, _)| *id).collect();
    ids.join(", ")
}

/// The plan of `dol fig` and `dol all`: the smoke or the full plan, with
/// the plan flags applied.
fn run_plan(a: &Args) -> RunPlan {
    a.refuse_with_smoke(&["--insts", "--mixes"]);
    let plan = if a.has("--smoke") {
        RunPlan::smoke()
    } else {
        RunPlan::full()
    };
    plan.with_flags(|flag| a.value(flag))
        .unwrap_or_else(|e| e.exit())
}

/// `dol all`: every driver's report, then the deviation total.
fn cmd_all(a: &Args) {
    let plan = run_plan(a);
    eprintln!(
        "running all experiments: {} insts/workload, {} mixes, {} jobs{} \
         (override with --insts / --mixes / --jobs)",
        plan.insts,
        plan.mix_count,
        dol_harness::sweep::effective_jobs(plan.jobs),
        if a.has("--smoke") { ", smoke mode" } else { "" },
    );
    let mut deviations = 0;
    for (_, run) in experiments::drivers() {
        let report = run(&plan);
        println!("{}", report.render());
        deviations += report.deviations();
    }
    println!("total shape-check deviations: {deviations}");
}

/// `dol fig <id>...`: the named drivers' reports, in the order given.
fn cmd_fig(a: &Args) {
    if a.operands.is_empty() {
        refuse(&format!("dol fig needs at least one id: {}", figure_ids()));
    }
    let drivers = experiments::drivers();
    let picked: Vec<Driver> = a
        .operands
        .iter()
        .map(|id| match drivers.iter().find(|(known, _)| known == id) {
            Some(&(_, run)) => run,
            None => refuse(&format!("unknown id `{id}`; ids: {}", figure_ids())),
        })
        .collect();
    let plan = run_plan(a);
    for run in picked {
        println!("{}", run(&plan).render());
    }
}

fn cmd_list(_: &Args) {
    println!("workloads:");
    for spec in dol_workloads::all_workloads() {
        println!("  {:20} [{}]", spec.name, spec.suite);
    }
    println!("\nprefetcher configs: none, TPC, T2, P1, C1, T2+P1, TPC-plainPC,");
    println!("  {}", dol_baselines::registry::MONOLITHIC_NAMES.join(", "));
    println!("  TPC+<monolithic> (composite), TPC|<monolithic> (shunt)");
}

fn cmd_run(a: &Args) {
    let (Some(workload), Some(config)) = (a.value("--workload"), a.value("--prefetcher")) else {
        usage()
    };
    match render_run(workload, config, a.insts(), a.seed()) {
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
        run.speedup(&base),
        run.traffic_ratio(&base),
        scope(&base.fp_l1, &run.metrics.prefetched_lines_all()),
        acc.effective_accuracy(),
        acc.issued,
        acc.useful,
        acc.unused
    );
    Ok(out)
}

fn cmd_compare(a: &Args) {
    let Some(workload) = a.value("--workload") else {
        usage()
    };
    let Some(spec) = dol_workloads::by_name(workload) else {
        refuse(&format!("unknown workload `{workload}`; try `dol list`"))
    };
    let plan = RunPlan {
        insts: a.insts(),
        seed: a.seed(),
        ..RunPlan::smoke()
    };
    let base = BaselineRun::capture(&spec, &plan);
    let mut t = TextTable::new(vec![
        "prefetcher".into(),
        "speedup".into(),
        "traffic".into(),
        "accuracy".into(),
    ]);
    for run in run_configs(&base, &prefetchers::COMPARISON_SET, &single_core()) {
        let acc = run.metrics.accuracy_at(CacheLevel::L1, None);
        t.row(vec![
            run.config.clone(),
            format!("{:.3}", run.speedup(&base)),
            format!("{:.3}", run.traffic_ratio(&base)),
            format!("{:.2}", acc.effective_accuracy()),
        ]);
    }
    println!(
        "{workload} ({} insts, seed {}):\n{}",
        plan.insts,
        plan.seed,
        t.render()
    );
}

/// `dol trace record`: capture workloads to `dol-trace` files.
fn cmd_trace_record(a: &Args) {
    let Some(dir) = a.value("--dir") else { usage() };
    let dir = Path::new(dir);
    a.refuse_with_smoke(&["--insts"]);
    let mut plan = if a.has("--smoke") {
        RunPlan::smoke()
    } else {
        RunPlan {
            insts: a.insts(),
            ..RunPlan::full()
        }
    };
    plan.seed = a.seed();
    plan.jobs = 0;
    match (a.value("--workload"), a.has("--all")) {
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
fn cmd_trace_info(a: &Args) {
    let [path] = a.operands.as_slice() else {
        usage()
    };
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
fn cmd_trace_verify(a: &Args) {
    if a.operands.is_empty() {
        usage();
    }
    for path in &a.operands {
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
fn cmd_trace_run(a: &Args) {
    let (Some(path), Some(config)) = (a.value("--trace"), a.value("--prefetcher")) else {
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
    let sys = single_core();
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

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // `trace` subcommands are named by two words.
    let words = if argv.first().is_some_and(|w| w == "trace") {
        2
    } else {
        1
    };
    let Some(name) = argv.get(..words).map(|w| w.join(" ")) else {
        usage()
    };
    let Some(&(name, accepts, operands, run)) = COMMANDS.iter().find(|c| c.0 == name) else {
        usage()
    };
    run(&parse(name, &argv[words..], accepts, operands));
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
