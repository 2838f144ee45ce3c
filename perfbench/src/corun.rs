//! `mono-corun`: four-core co-runs of the monolithic prefetchers.
//!
//! Set-up builds and captures two fixed four-kernel mixes in memory.
//! Each timed iteration co-runs every mix through `System::run_corun`
//! under no prefetcher and under each of the seven monolithic designs,
//! with `NullSink`. This loads the shared L3, DRAM and MSHR contention,
//! the stepwise multi-core loop and the baseline prefetchers, and
//! bypasses TPC, the metrics sink and trace decode.

use std::time::Instant;

use dol_baselines::registry::MONOLITHIC_NAMES;
use dol_cpu::{MultiRunResult, System, SystemConfig, Workload};
use dol_harness::prefetchers::{self, Built};
use dol_mem::NullSink;

use crate::common::{
    mem_direct_ns_per_access, multi_key, ns_since, ratio, Checks, PfLayer, Tally, MONO_ORIGINS,
};
use crate::layers::{TimedPrefetcher, TimedSink};
use crate::{Ctx, Outcome};

/// The mixes: streaming, pointer-chasing and scattered kernels side by
/// side, so the designs contend for the shared L3 and DRAM.
pub const MIXES: [[&str; 4]; 2] = [
    [
        "stream_triad",
        "listchase_payload",
        "histogram",
        "gather_window",
    ],
    ["matrix_row", "aop_deref", "binsearch", "region_shuffle"],
];

/// Instructions captured per kernel (per core).
pub const INSTS: u64 = 60_000;

fn setup(ctx: &Ctx, capture: &mut (u64, f64)) -> Result<Vec<[Workload; 4]>, String> {
    MIXES
        .iter()
        .map(|mix| {
            let ws: Vec<Workload> = mix
                .iter()
                .map(|&name| {
                    let spec = dol_workloads::by_name(name).ok_or(format!("no kernel {name}"))?;
                    let vm = spec.build_vm(ctx.seed);
                    let t = Instant::now();
                    let w = Workload::capture(vm, INSTS)
                        .map_err(|e| format!("capturing {name}: {e}"))?;
                    capture.1 += ns_since(t);
                    capture.0 += w.trace.len() as u64;
                    Ok(w)
                })
                .collect::<Result<_, String>>()?;
            Ok(ws.try_into().expect("four kernels per mix"))
        })
        .collect()
}

fn build(name: &str) -> Built {
    prefetchers::build(name).expect("known configuration")
}

/// `none` first: it is every design's reference.
fn configs() -> impl Iterator<Item = (&'static str, PfLayer)> {
    std::iter::once(("none", PfLayer::None))
        .chain(MONOLITHIC_NAMES.iter().map(|&n| (n, PfLayer::Baselines)))
}

struct Corun<'a> {
    mixes: &'a [[Workload; 4]],
    sys: System,
    checks: Checks,
    /// Results of the first iteration: per mix, in [`configs`] order.
    first: Vec<MultiRunResult>,
    tally: Tally,
    seed: u64,
}

impl Corun<'_> {
    fn iterate(&mut self, ctx: &Ctx, traced: bool) -> Result<(), String> {
        let mut i = 0;
        for mix in self.mixes {
            for (config, layer) in configs() {
                let (r, ok) = ctx.unit(|| {
                    if !traced {
                        let mut ps = [config; 4].map(build);
                        return (self.sys.run_corun(mix, &mut ps, &mut NullSink), true);
                    }
                    self.seed += 5;
                    let seed = self.seed;
                    let mut ps =
                        [0, 1, 2, 3].map(|c| TimedPrefetcher::new(build(config), seed + c));
                    let mut sink = TimedSink::new(NullSink, seed + 4);
                    let t = Instant::now();
                    let r = self.sys.run_corun(mix, &mut ps, &mut sink);
                    self.tally.run_ns += ns_since(t);
                    self.tally.add_multi(&r);
                    for (p, &(_, insts)) in ps.iter().zip(&r.cores) {
                        self.tally.add_prefetcher(layer, p.span(), &p.reqs, insts);
                    }
                    self.tally.sink.add(&sink.span());
                    self.tally.counts.add(&sink.counts);
                    (r, sink.counts.useful_within_issued())
                });
                let full = r.cores.iter().all(|&(_, insts)| insts == INSTS);
                if self
                    .checks
                    .check("mono-corun", i, multi_key(&r), ok && full)
                {
                    self.first.push(r);
                }
                i += 1;
            }
        }
        Ok(())
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut capture = (0u64, 0f64);
    let (setup_s, mixes) = ctx.repeat_setup(|| setup(ctx, &mut capture))?;
    let mut corun = Corun {
        mixes: &mixes,
        sys: System::new(SystemConfig::isca2018(4)),
        checks: Checks::default(),
        first: Vec::new(),
        tally: Tally::default(),
        seed: ctx.seed,
    };
    let times = ctx.timed_loop(|traced| corun.iterate(ctx, traced))?;

    // Weighted speedup of a design over the no-prefetch co-run: the mean
    // over cores of each core's IPC ratio.
    let mut speedups = Vec::new();
    let mut traffic = Vec::new();
    let per_mix = corun.first.chunks(configs().count());
    for runs in per_mix.clone() {
        let none = &runs[0];
        let none_lines = none.stats.dram.total_traffic_lines() as f64;
        for r in &runs[1..] {
            let per_core: f64 = r
                .ipcs()
                .iter()
                .zip(none.ipcs())
                .map(|(p, n)| ratio(*p, n))
                .sum();
            speedups.push(per_core / r.cores.len() as f64);
            traffic.push(ratio(r.stats.dram.total_traffic_lines() as f64, none_lines));
        }
    }
    let cfg = SystemConfig::isca2018(4).hierarchy;
    let mem_ns = mixes
        .iter()
        .zip(per_mix)
        .map(|(mix, runs)| {
            let traces: Vec<_> = mix.iter().map(|w| &w.trace).collect();
            let cycles: Vec<u64> = runs[0].cores.iter().map(|&(c, _)| c).collect();
            mem_direct_ns_per_access(cfg, &traces, &cycles)
        })
        .sum::<f64>()
        / mixes.len() as f64;
    let t = &corun.tally;
    let mut layers = t.layer_metrics(ctx.timer_ns);
    layers.extend([
        (
            "isa.capture_ns_per_inst".into(),
            ratio(capture.1, capture.0 as f64),
        ),
        ("mem.demand_ns_per_access".into(), mem_ns),
    ]);
    Ok(Outcome {
        setup_s,
        closure: ratio(t.run_ns, times.traced_ns()),
        times,
        speedup: dol_metrics::geomean(&speedups),
        traffic: dol_metrics::geomean(&traffic),
        accuracy: t.accuracy(MONO_ORIGINS),
        layers,
        attempted: corun.checks.attempted,
        failed: corun.checks.failed,
        digest: corun.checks.digest(),
    })
}
