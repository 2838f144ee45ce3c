//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <figs|tpc-replay|mono-corun> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Builds its inputs from the seed, measures the workload for about `S`
//! seconds, checks the simulated outputs, and prints every metric by
//! name and unit, a digest of all simulated statistics, and as the last
//! line one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics from untraced runs;
//! `--trace 1` alternates untraced and traced iterations and reports the
//! per-layer metrics. See README.md for the workloads and metrics.

mod common;
mod corun;
mod figs;
mod layers;
mod replay;
mod speed;

use std::cell::RefCell;
use std::path::PathBuf;
use std::time::Instant;

use common::{median, peak_rss_mb};

/// The seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2018;
/// The seed kept out of all tuning: a claimed gain must also hold here.
pub const HELD_OUT_SEED: u64 = 424_242;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed iterations of each kind, however long they take.
const MIN_ITERS: usize = 3;
/// Largest tolerated gap between the traced iterations' time and the
/// time their timed calls account for.
const CLOSURE_TOLERANCE: f64 = 0.05;

const USAGE: &str = "usage: perfbench --workload <figs|tpc-replay|mono-corun> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Every paper figure and table driver.
    Figs,
    /// Single-core TPC replayed from trace files.
    TpcReplay,
    /// Four-core co-runs of the monolithic prefetchers.
    MonoCorun,
}

impl Workload {
    /// Every workload, in BENCHMARK.json order.
    pub const ALL: [Workload; 3] = [Workload::Figs, Workload::TpcReplay, Workload::MonoCorun];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Figs => "figs",
            Workload::TpcReplay => "tpc-replay",
            Workload::MonoCorun => "mono-corun",
        }
    }
}

/// Run settings shared by the workloads.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Whether to run traced iterations.
    pub trace: bool,
    /// Calibrated empty-span reading (`bench.timer_ns`).
    pub timer_ns: f64,
    /// Scratch directory for trace files, inside the working directory.
    pub work_dir: PathBuf,
    /// Time of the timed units since the last [`Ctx::take_units`].
    units: RefCell<Units>,
}

/// Accumulated unit times.
#[derive(Debug, Default)]
struct Units {
    /// The reference run that closed the previous unit, seconds.
    last_ref: f64,
    /// Measured seconds.
    raw: f64,
    /// Reference seconds.
    scaled: f64,
    /// Host speed around each unit.
    speed: Vec<f64>,
}

/// Iteration times of a timed loop.
#[derive(Debug, Clone, Default)]
pub struct Times {
    /// Untraced iterations, measured seconds.
    pub untraced: Vec<f64>,
    /// Traced iterations, measured seconds.
    pub traced: Vec<f64>,
    /// Untraced iterations, reference seconds.
    pub untraced_ref: Vec<f64>,
    /// Traced iterations, reference seconds.
    pub traced_ref: Vec<f64>,
    /// Host speed around each timed unit (see [`speed`]).
    pub speed: Vec<f64>,
    /// Peak resident memory after set-up and the first iteration, MiB.
    pub peak_rss_mb: f64,
}

impl Times {
    /// Nanoseconds of all traced iterations.
    pub fn traced_ns(&self) -> f64 {
        self.traced.iter().sum::<f64>() * 1e9
    }
}

impl Ctx {
    /// Times `f` as one unit of work and runs the speed reference after
    /// it; the unit is scaled by the references on either side. Every
    /// simulated run (or figure driver) is one unit, so the reference
    /// samples the machine's speed throughout an iteration.
    pub fn unit<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        let raw = t.elapsed().as_secs_f64();
        let after = speed::reference_s();
        let mut u = self.units.borrow_mut();
        let factor = speed::factor(u.last_ref, after);
        u.raw += raw;
        u.scaled += raw * factor;
        u.speed.push(factor);
        u.last_ref = after;
        r
    }

    /// `(measured, reference)` seconds of the units since the last call.
    fn take_units(&self) -> (f64, f64) {
        let mut u = self.units.borrow_mut();
        let t = (u.raw, u.scaled);
        u.raw = 0.0;
        u.scaled = 0.0;
        t
    }

    /// Runs `setup` [`SETUP_REPS`] times as one unit each; returns the
    /// median in reference seconds, and the last result.
    pub fn repeat_setup<T>(
        &self,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<(f64, T), String> {
        let mut secs = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPS {
            drop(last.take());
            self.take_units();
            last = Some(self.unit(&mut setup)?);
            secs.push(self.take_units().1);
        }
        Ok((median(&secs), last.expect("at least one set-up")))
    }

    /// Times iterations of `iterate(traced)` for `seconds`. Untraced, it
    /// then runs one traced iteration for the output checks. Traced, it
    /// alternates untraced and traced iterations so both see the same
    /// machine conditions. An iteration's time is the sum of its units.
    pub fn timed_loop(
        &self,
        mut iterate: impl FnMut(bool) -> Result<(), String>,
    ) -> Result<Times, String> {
        let mut times = Times::default();
        let start = Instant::now();
        let mut traced = false;
        loop {
            let enough = times.untraced.len() >= MIN_ITERS
                && (!self.trace || times.traced.len() >= MIN_ITERS);
            if enough && start.elapsed().as_secs_f64() >= self.seconds {
                break;
            }
            self.take_units();
            iterate(traced)?;
            let (raw, scaled) = self.take_units();
            if times.untraced.is_empty() {
                // Later iterations only add allocator fragmentation, which
                // varies with how many iterations fit in the run.
                times.peak_rss_mb = peak_rss_mb()?;
            }
            if traced {
                times.traced.push(raw);
                times.traced_ref.push(scaled);
            } else {
                times.untraced.push(raw);
                times.untraced_ref.push(scaled);
            }
            traced = self.trace && !traced;
        }
        if !self.trace {
            self.take_units();
            iterate(true)?;
            times.traced.push(self.take_units().0);
        }
        times.speed = self.units.borrow().speed.clone();
        Ok(times)
    }
}

/// What a workload measured.
pub struct Outcome {
    /// Median set-up seconds.
    pub setup_s: f64,
    /// Iteration times.
    pub times: Times,
    /// Share of the traced wall time that the timed calls account for.
    pub closure: f64,
    /// Geomean speedup of prefetching over none.
    pub speedup: f64,
    /// Geomean DRAM traffic of prefetching over none.
    pub traffic: f64,
    /// Useful over issued prefetches.
    pub accuracy: f64,
    /// Per-layer metrics this workload measures.
    pub layers: Vec<(String, f64)>,
    /// Simulated runs checked.
    pub attempted: u64,
    /// Checked runs whose outputs were wrong.
    pub failed: u64,
    /// Digest of every simulated statistic of one iteration.
    pub digest: u64,
}

/// End-to-end metric names and units, in report order.
const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("speedup_geomean", "x"),
    ("dram_traffic_ratio", "x"),
    ("prefetch_accuracy", "frac"),
];

/// Per-layer metric names and units, in report order. Metrics of a
/// layer the workload does not run read 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("isa.capture_ns_per_inst", "ns/inst"),
    ("trace.decode_ns_per_inst", "ns/inst"),
    ("trace.encode_ns_per_inst", "ns/inst"),
    ("trace.bytes_per_inst", "B/inst"),
    ("core.on_retire_ns_per_inst", "ns/inst"),
    ("core.t2_reqs_pki", "1/kinst"),
    ("core.p1_reqs_pki", "1/kinst"),
    ("core.c1_reqs_pki", "1/kinst"),
    ("core.t2_useful_frac", "frac"),
    ("core.p1_useful_frac", "frac"),
    ("core.c1_useful_frac", "frac"),
    ("baselines.on_retire_ns_per_inst", "ns/inst"),
    ("baselines.reqs_pki", "1/kinst"),
    ("baselines.useful_frac", "frac"),
    ("metrics.emit_ns_per_event", "ns/event"),
    ("metrics.events_pki", "1/kinst"),
    ("mem.demand_ns_per_access", "ns/access"),
    ("mem.l1_mpki", "1/kinst"),
    ("mem.l2_mpki", "1/kinst"),
    ("mem.l3_mpki", "1/kinst"),
    ("mem.dram_lines_pki", "1/kinst"),
    ("mem.dram_row_hit_frac", "frac"),
    ("mem.bank_conflicts_pki", "1/kinst"),
    ("mem.mshr_stall_cycles_pki", "1/kinst"),
    ("mem.llc_cross_evictions_pki", "1/kinst"),
    ("mem.pf_dropped_frac", "frac"),
    ("cpu.ipc", "inst/cycle"),
    ("cpu.mispredicts_pki", "1/kinst"),
    ("cpu.rob_stall_frac", "frac"),
    ("cpu.lsq_stall_frac", "frac"),
    ("cpu_mem.self_ns_per_inst", "ns/inst"),
    ("sim.ns_per_inst", "ns/inst"),
    ("harness.shape_deviations", "count"),
    ("bench.closure_frac", "frac"),
];

/// Per-layer metrics every workload reports besides [`PER_LAYER`].
const BENCH_LAYER: [(&str, &str); 3] = [
    ("bench.timer_ns", "ns"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.host_speed", "x"),
];

/// Every per-layer metric name with its unit, drivers included.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = PER_LAYER
        .iter()
        .chain(&BENCH_LAYER)
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for (id, _) in dol_harness::experiments::drivers() {
        v.push((format!("harness.driver_s.{id}"), "s"));
    }
    v
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == name)
                        .ok_or(format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\n{USAGE}\n\
                 seeds: {DEFAULT_SEED} is the default, {HELD_OUT_SEED} is held out from tuning"
            );
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let work_root = PathBuf::from(".bench_work");
    let work_dir = work_root.join(format!("{}", std::process::id()));
    // The first reference run allocates and warms the reference's state.
    speed::reference_s();
    let units = RefCell::new(Units {
        last_ref: speed::reference_s(),
        ..Units::default()
    });
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        timer_ns: layers::calibrate_timer_ns(),
        work_dir: work_dir.clone(),
        units,
    };
    let outcome = match args.workload {
        Workload::Figs => figs::run(&ctx),
        Workload::TpcReplay => replay::run(&ctx),
        Workload::MonoCorun => corun::run(&ctx),
    };
    // The scratch files go whether or not the run succeeded.
    if work_dir.exists() {
        std::fs::remove_dir_all(&work_dir)
            .map_err(|e| format!("removing {}: {e}", work_dir.display()))?;
        // Fails, harmlessly, while another run still has files there.
        let _ = std::fs::remove_dir(&work_root);
    }
    let o = outcome?;
    let closure_ok = (o.closure - 1.0).abs() <= CLOSURE_TOLERANCE;
    if !closure_ok {
        eprintln!(
            "perfbench: timed calls cover {:.3} of the traced wall time (tolerance {CLOSURE_TOLERANCE})",
            o.closure
        );
    }
    let metrics: Vec<(String, f64, &str)> = if args.trace {
        let overhead = median(&o.times.traced_ref) / median(&o.times.untraced_ref) - 1.0;
        per_layer_names()
            .into_iter()
            .map(|(name, unit)| {
                let value = match name.as_str() {
                    "bench.timer_ns" => ctx.timer_ns,
                    "bench.trace_overhead_frac" => overhead,
                    "bench.host_speed" => median(&o.times.speed),
                    "bench.closure_frac" => o.closure,
                    n => o
                        .layers
                        .iter()
                        .find(|(k, _)| k == n)
                        .map_or(0.0, |(_, v)| *v),
                };
                (name, value, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = match name {
                    "wall_s" => median(&o.times.untraced_ref),
                    "setup_s" => o.setup_s,
                    "peak_rss_mb" => o.times.peak_rss_mb,
                    "speedup_geomean" => o.speedup,
                    "dram_traffic_ratio" => o.traffic,
                    _ => o.accuracy,
                };
                (name.to_string(), value, unit)
            })
            .collect()
    };
    if let Some((name, ..)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("metric {name} is not a finite number"));
    }
    let workload = args.workload.name();
    for (name, value, unit) in &metrics {
        println!("{name:<36} {value:>16.6} {unit}");
    }
    let spread = |v: &[f64]| {
        if v.is_empty() {
            return "0".to_string();
        }
        let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = v.iter().cloned().fold(0.0, f64::max);
        format!(
            "{} (min {lo:.4} s, median {:.4} s, max {hi:.4} s)",
            v.len(),
            median(v)
        )
    };
    println!(
        "measured iterations: untraced {}; traced {}; host speed {:.3}",
        spread(&o.times.untraced),
        spread(&o.times.traced),
        median(&o.times.speed)
    );
    println!(
        "failed_run_frac {} ({} of {} runs)",
        common::ratio(o.failed as f64, o.attempted as f64),
        o.failed,
        o.attempted
    );
    println!("digest {workload} seed={} {:016x}", args.seed, o.digest);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0 && closure_ok,
        o.attempted,
        o.failed,
        body.join(", ")
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry of one list in BENCHMARK.json.
    fn listed(section: &str) -> Vec<(String, String)> {
        let doc = include_str!("../../BENCHMARK.json");
        let start = doc
            .find(&format!("\"{section}\": ["))
            .expect("section present");
        let body = &doc[start..start + doc[start..].find(']').expect("section closes")];
        let field = |entry: &str, key: &str| {
            let at = entry
                .find(&format!("\"{key}\": \""))
                .map(|i| i + key.len() + 5)?;
            Some(entry[at..at + entry[at..].find('"')?].to_string())
        };
        body.split('{')
            .skip(1)
            .map(|e| {
                (
                    field(e, "name").expect("named"),
                    field(e, "unit").unwrap_or_default(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_benchmark_reports() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer_names()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
