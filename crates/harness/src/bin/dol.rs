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
//! dol bench diff <before.json> <after.json>    # compare two bench reports
//! dol serve [--socket PATH] [--jobs N] [--queue-cap N]   # resident service
//! dol client <ping|sweep|run|replay|cancel|shutdown> [--socket PATH] ...
//! ```
//!
//! `dol serve` keeps one process resident behind a Unix socket
//! (`dol-rpc-v1`); `dol client` talks to it. A client sweep streams the
//! same bytes to stdout that `run_all` with the same plan prints —
//! asserted by CI — but repeated requests are served from the resident
//! caches.

use std::fs::File;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};

use dol_core::NoPrefetcher;
use dol_cpu::{System, SystemConfig, Workload};
use dol_harness::serve::client as rpc;
use dol_harness::serve::ops;
use dol_harness::serve::protocol::{ReplayRequest, Request, RunRequest, SweepRequest};
use dol_harness::serve::server::{ServeOptions, Server, DEFAULT_QUEUE_CAP};
use dol_harness::{prefetchers, sweep, traces, RunPlan};
use dol_mem::{CacheLevel, NullSink};
use dol_metrics::{StreamingMetrics, TextTable};
use dol_trace::TraceReader;

fn usage() -> ! {
    eprintln!(
        "usage:\n  dol list\n  dol run --workload <name> --prefetcher <config> \
         [--insts N] [--seed S]\n  dol compare --workload <name> [--insts N] [--seed S]\n  \
         dol trace record (--workload <name> | --all) --dir <dir> [--insts N] [--seed S] \
         [--smoke]\n  dol trace info <file.dolt>\n  dol trace verify <file.dolt>...\n  \
         dol trace run --trace <file.dolt> --prefetcher <config>\n  \
         dol bench diff <before.json> <after.json>\n  \
         dol serve [--socket PATH] [--jobs N] [--queue-cap N]\n  \
         dol client ping|shutdown [--socket PATH]\n  \
         dol client sweep [--socket PATH] [--smoke] [--jobs N] [--bench-out PATH]\n  \
         dol client run --workload <name> --prefetcher <config> [--insts N] [--seed S]\n  \
         dol client replay --trace <file.dolt> --prefetcher <config>\n  \
         dol client cancel --job <id> [--socket PATH]\n\
         \nconfigs: none, TPC, T2, P1, C1, T2+P1, TPC-plainPC, {} and TPC+<mono> / TPC|<mono>",
        dol_baselines::registry::MONOLITHIC_NAMES.join(", ")
    );
    std::process::exit(2);
}

struct Args {
    workload: Option<String>,
    prefetcher: Option<String>,
    insts: u64,
    seed: u64,
    dir: Option<String>,
    trace: Option<String>,
    all: bool,
    smoke: bool,
    socket: Option<String>,
    jobs: Option<usize>,
    queue_cap: Option<usize>,
    job: Option<u64>,
    bench_out: Option<String>,
}

impl Args {
    /// `--socket`, else `DOL_SOCKET`, else a per-user default under the
    /// system temp dir.
    fn socket_path(&self) -> PathBuf {
        self.socket
            .clone()
            .or_else(|| std::env::var("DOL_SOCKET").ok())
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("dol-serve.sock"))
    }
}

fn parse(args: &[String]) -> Args {
    let mut out = Args {
        workload: None,
        prefetcher: None,
        insts: 1_000_000,
        seed: 2018,
        dir: None,
        trace: None,
        all: false,
        smoke: false,
        socket: None,
        jobs: None,
        queue_cap: None,
        job: None,
        bench_out: None,
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
                out.insts = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
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
            "--socket" => {
                out.socket = args.get(i + 1).cloned();
                i += 2;
            }
            "--jobs" | "-j" => {
                out.jobs = args.get(i + 1).and_then(|v| v.parse().ok());
                if out.jobs.is_none() {
                    usage();
                }
                i += 2;
            }
            "--queue-cap" => {
                out.queue_cap = args.get(i + 1).and_then(|v| v.parse().ok());
                if out.queue_cap.is_none() {
                    usage();
                }
                i += 2;
            }
            "--job" => {
                out.job = args.get(i + 1).and_then(|v| v.parse().ok());
                if out.job.is_none() {
                    usage();
                }
                i += 2;
            }
            "--bench-out" => {
                out.bench_out = args.get(i + 1).cloned();
                i += 2;
            }
            _ => usage(),
        }
    }
    out
}

fn capture(name: &str, insts: u64, seed: u64) -> Workload {
    let Some(spec) = dol_workloads::by_name(name) else {
        eprintln!("unknown workload `{name}`; try `dol list`");
        std::process::exit(2);
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
    // Shared with `dol serve`: the server renders the identical report
    // for a `dol client run` of the same workload/config/budget.
    match ops::render_run(workload, config, a.insts, a.seed) {
        Ok(text) => print!("{text}"),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

fn cmd_compare(a: Args) {
    let Some(workload) = a.workload.as_deref() else {
        usage()
    };
    let w = capture(workload, a.insts, a.seed);
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
        a.insts,
        a.seed,
        t.render()
    );
}

/// `dol trace record`: capture workloads to `dol-trace-v1` files.
fn cmd_trace_record(a: Args) {
    let Some(dir) = a.dir.as_deref() else { usage() };
    let dir = Path::new(dir);
    let mut plan = if a.smoke {
        RunPlan::smoke()
    } else {
        RunPlan::full()
    };
    if !a.smoke {
        plan.insts = a.insts;
    }
    plan.seed = a.seed;
    plan.jobs = 0;
    match (a.workload.as_deref(), a.all) {
        (Some(name), false) => {
            let Some(spec) = dol_workloads::by_name(name) else {
                eprintln!("unknown workload `{name}`; try `dol list`");
                std::process::exit(2);
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
            println!("{path}: dol-trace-v1");
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
/// ever materializing the instruction stream. Shared with `dol serve`
/// (`dol client replay` renders the identical report).
fn cmd_trace_run(a: Args) {
    let (Some(path), Some(config)) = (a.trace.as_deref(), a.prefetcher.as_deref()) else {
        usage()
    };
    match ops::render_replay(path, config) {
        Ok(text) => print!("{text}"),
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(if msg.starts_with("unknown") { 2 } else { 1 });
        }
    }
}

/// `dol serve`: bind the socket and stay resident until a client sends
/// `shutdown`.
fn cmd_serve(a: Args) {
    let socket = a.socket_path();
    let workers = sweep::resolve_jobs(a.jobs).unwrap_or_else(|e| e.exit());
    let server = match Server::start(ServeOptions {
        socket: socket.clone(),
        workers: Some(workers),
        queue_cap: a.queue_cap.unwrap_or(DEFAULT_QUEUE_CAP),
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot serve on {}: {e}", socket.display());
            std::process::exit(1);
        }
    };
    eprintln!(
        "dol serve: listening on {} ({} workers, queue {}); stop with `dol client shutdown`",
        socket.display(),
        server.workers(),
        a.queue_cap.unwrap_or(DEFAULT_QUEUE_CAP)
    );
    server.join();
    eprintln!("dol serve: drained and stopped");
}

fn rpc_fail(e: dol_harness::serve::protocol::RpcError) -> ! {
    eprintln!("dol client: {e}");
    std::process::exit(1);
}

fn cmd_client_ping(a: &Args) {
    match rpc::ping(&a.socket_path()) {
        Ok(p) => println!(
            "pong: dol-rpc-v{} — {} workers, queue {}/{} (active {}), {} jobs done",
            p.version, p.workers, p.queued, p.queue_cap, p.active, p.jobs_done
        ),
        Err(e) => rpc_fail(e),
    }
}

fn cmd_client_sweep(a: &Args) {
    let mut plan = if a.smoke {
        RunPlan::smoke()
    } else {
        RunPlan::from_env().unwrap_or_else(|e| e.exit())
    };
    if let Some(j) = a.jobs {
        plan.jobs = j;
    }
    let mut req = SweepRequest::from_plan(&plan, a.smoke);
    req.bench = a.bench_out.is_some();
    let stdout = std::io::stdout();
    let summary = match rpc::stream(&a.socket_path(), &Request::Sweep(req), |chunk| {
        let mut out = stdout.lock();
        let _ = out.write_all(chunk);
        let _ = out.flush();
    }) {
        Ok(s) => s,
        Err(e) => rpc_fail(e),
    };
    eprintln!(
        "job {}: {} deviations, {} insts simulated server-side",
        summary.job, summary.done.deviations, summary.done.sim_insts
    );
    if let Some(path) = &a.bench_out {
        let report = dol_harness::bench::BenchReport {
            mode: if a.smoke { "smoke" } else { "full" },
            jobs: dol_harness::sweep::effective_jobs(plan.jobs),
            repeat: 1,
            drivers: summary.bench.iter().map(driver_bench).collect(),
            trace: None,
            serve: None,
        };
        if let Err(e) = std::fs::write(path, report.to_json()) {
            eprintln!("cannot write bench report to {path}: {e}");
            std::process::exit(2);
        }
        eprintln!("bench report written to {path}");
    }
}

/// Reconnects a streamed bench record to its driver's static id.
fn driver_bench(r: &dol_harness::serve::protocol::BenchRecord) -> dol_harness::bench::DriverBench {
    let id = dol_harness::experiments::drivers()
        .iter()
        .map(|(id, _)| *id)
        .find(|id| *id == r.id)
        // Unknown ids can only come from a newer server; keep the record.
        .unwrap_or_else(|| Box::leak(r.id.clone().into_boxed_str()));
    dol_harness::bench::DriverBench {
        id,
        wall_s: r.wall_s,
        sim_insts: r.sim_insts,
        cached: r.cached,
        phases: r.phases,
    }
}

fn cmd_client_streamed(a: &Args, req: Request) {
    let stdout = std::io::stdout();
    match rpc::stream(&a.socket_path(), &req, |chunk| {
        let mut out = stdout.lock();
        let _ = out.write_all(chunk);
        let _ = out.flush();
    }) {
        Ok(_) => {}
        Err(e) => rpc_fail(e),
    }
}

fn cmd_client(argv: &[String]) {
    let Some(verb) = argv.first().map(String::as_str) else {
        usage()
    };
    let a = parse(&argv[1..]);
    match verb {
        "ping" => cmd_client_ping(&a),
        "shutdown" => match rpc::shutdown(&a.socket_path()) {
            Ok(()) => eprintln!("server drained and stopped"),
            Err(e) => rpc_fail(e),
        },
        "cancel" => {
            let Some(job) = a.job else { usage() };
            match rpc::cancel(&a.socket_path(), job) {
                Ok(()) => eprintln!("job {job} cancelled"),
                Err(e) => rpc_fail(e),
            }
        }
        "sweep" => cmd_client_sweep(&a),
        "run" => {
            let (Some(workload), Some(config)) = (a.workload.clone(), a.prefetcher.clone()) else {
                usage()
            };
            cmd_client_streamed(
                &a,
                Request::Run(RunRequest {
                    workload,
                    config,
                    insts: a.insts,
                    seed: a.seed,
                }),
            );
        }
        "replay" => {
            let (Some(path), Some(config)) = (a.trace.clone(), a.prefetcher.clone()) else {
                usage()
            };
            cmd_client_streamed(&a, Request::Replay(ReplayRequest { path, config }));
        }
        _ => usage(),
    }
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

/// `dol bench diff <before.json> <after.json>`: total, per-phase, and
/// per-driver wall-time deltas between two `dol-bench-v1` reports.
fn cmd_bench(argv: &[String]) {
    if argv.first().map(String::as_str) != Some("diff") {
        usage()
    }
    let (Some(before_path), Some(after_path)) = (argv.get(1), argv.get(2)) else {
        usage()
    };
    let before = read_report(before_path);
    let after = read_report(after_path);
    let pct = |b: f64, a: f64| -> String {
        if b <= 0.0 {
            format!("{:>8}", "n/a")
        } else {
            format!("{:+7.1}%", (a - b) / b * 100.0)
        }
    };
    println!(
        "bench diff: {before_path} ({}) -> {after_path} ({})",
        before.mode, after.mode
    );
    println!(
        "total: {:.3}s -> {:.3}s wall ({}), {:.2} -> {:.2} M inst/s ({})",
        before.total_wall_s,
        after.total_wall_s,
        pct(before.total_wall_s, after.total_wall_s).trim_start(),
        before.total_insts_per_s / 1e6,
        after.total_insts_per_s / 1e6,
        pct(before.total_insts_per_s, after.total_insts_per_s).trim_start()
    );
    match (&before.total_phases, &after.total_phases) {
        (Some(b), Some(a)) => {
            println!();
            println!(
                "{:<10} {:>10} {:>10} {:>8}",
                "phase", "before", "after", "delta"
            );
            for (name, bs, av) in [
                ("capture", b.capture_s, a.capture_s),
                ("classify", b.classify_s, a.classify_s),
                ("simulate", b.simulate_s, a.simulate_s),
                ("metrics", b.metrics_s, a.metrics_s),
                ("render", b.render_s, a.render_s),
            ] {
                println!("{name:<10} {bs:>9.3}s {av:>9.3}s {}", pct(bs, av));
            }
        }
        _ => println!("(phase split missing on one side; per-phase deltas skipped)"),
    }
    println!();
    println!(
        "{:<12} {:>10} {:>10} {:>8}",
        "driver", "before", "after", "delta"
    );
    for d in &after.drivers {
        match before.driver(&d.id) {
            Some(b) => println!(
                "{:<12} {:>9.3}s {:>9.3}s {}{}",
                d.id,
                b.wall_s,
                d.wall_s,
                pct(b.wall_s, d.wall_s),
                if d.cached || b.cached {
                    " (cached)"
                } else {
                    ""
                }
            ),
            None => println!("{:<12} {:>10} {:>9.3}s      new", d.id, "-", d.wall_s),
        }
    }
    for b in &before.drivers {
        if after.driver(&b.id).is_none() {
            println!("{:<12} {:>9.3}s {:>10}     gone", b.id, b.wall_s, "-");
        }
    }
}

fn read_report(path: &str) -> dol_harness::bench::ParsedReport {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    dol_harness::bench::parse_report(&text).unwrap_or_else(|| {
        eprintln!("{path} is not a dol-bench-v1 document");
        std::process::exit(2);
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("run") => cmd_run(parse(&argv[1..])),
        Some("compare") => cmd_compare(parse(&argv[1..])),
        Some("trace") => cmd_trace(&argv[1..]),
        Some("bench") => cmd_bench(&argv[1..]),
        Some("serve") => cmd_serve(parse(&argv[1..])),
        Some("client") => cmd_client(&argv[1..]),
        _ => usage(),
    }
}
