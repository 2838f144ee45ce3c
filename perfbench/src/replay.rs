//! `tpc-replay`: single-core TPC runs replayed from `dol-trace-v1` files.
//!
//! Set-up builds nine kernels, captures them in memory and records them
//! to disk. Each timed iteration replays every kernel from its file
//! through `System::run_source_with_sink`, once with TPC and once with
//! no prefetcher, both into `StreamingMetrics`. This loads trace decode,
//! T2/P1/C1 and their coordinator, the metrics sink and the single-core
//! retire loop, and bypasses the monolithic designs, shared-resource
//! contention and the experiment harness.

use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::time::Instant;

use dol_core::Prefetcher;
use dol_cpu::{RunResult, System, SystemConfig, Workload};
use dol_harness::prefetchers;
use dol_mem::CacheLevel;
use dol_metrics::StreamingMetrics;
use dol_trace::{encode_workload, ReplaySource, TraceHeader, TraceReader};

use crate::common::{
    mem_direct_ns_per_access, ns_since, ratio, run_key, Checks, PfLayer, Tally, TPC_ORIGINS,
};
use crate::layers::{TimedPrefetcher, TimedSink, TimedSource};
use crate::{Ctx, Outcome};

/// Kernels replayed: strided streams (T2), pointer chases (P1) and
/// region-local scatter (C1), so every TPC component has work.
pub const KERNELS: [&str; 9] = [
    "stream_sum",
    "stride8_walk",
    "matrix_col",
    "stencil3",
    "region_shuffle",
    "spmv_csr",
    "listchase",
    "hash_probe",
    "btree_search",
];

/// Instructions captured per kernel.
pub const INSTS: u64 = 200_000;

/// The two configurations each kernel runs under.
const CONFIGS: [(&str, PfLayer); 2] = [("TPC", PfLayer::Core), ("none", PfLayer::None)];

struct Kernel {
    workload: Workload,
    path: PathBuf,
}

/// Set-up cost per instruction, as measured around each call.
#[derive(Default)]
struct SetupCost {
    insts: u64,
    capture_ns: f64,
    encode_ns: f64,
    bytes: u64,
}

fn setup(ctx: &Ctx, cost: &mut SetupCost) -> Result<Vec<Kernel>, String> {
    let dir = ctx.work_dir.join(format!("tpc-replay-{}", ctx.seed));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    KERNELS
        .iter()
        .map(|&name| {
            let spec = dol_workloads::by_name(name).ok_or(format!("no kernel {name}"))?;
            let vm = spec.build_vm(ctx.seed);
            let t = Instant::now();
            let workload =
                Workload::capture(vm, INSTS).map_err(|e| format!("capturing {name}: {e}"))?;
            cost.capture_ns += ns_since(t);
            cost.insts += workload.trace.len() as u64;
            let path = dir.join(format!("{name}.dolt"));
            let header = TraceHeader {
                name: name.to_string(),
                seed: ctx.seed,
                insts: workload.trace.len() as u64,
            };
            let t = Instant::now();
            let file = File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            cost.bytes += encode_workload(
                BufWriter::new(file),
                &header,
                &workload.memory,
                workload.trace.as_slice(),
            )
            .map_err(|e| format!("recording {name}: {e}"))?;
            cost.encode_ns += ns_since(t);
            Ok(Kernel { workload, path })
        })
        .collect()
}

/// One simulated run's results plus its sink's view.
fn observed(r: &RunResult, sink: &StreamingMetrics) -> String {
    let acc = [CacheLevel::L1, CacheLevel::L2, CacheLevel::L3].map(|l| sink.accuracy_at(l, None));
    format!("{} {:?}", run_key(r), acc)
}

struct Replay<'a> {
    kernels: &'a [Kernel],
    sys: System,
    checks: Checks,
    /// Traced-pass tally.
    tally: Tally,
    /// Results of the first iteration: per kernel, TPC then none.
    first: Vec<RunResult>,
    seed: u64,
}

impl Replay<'_> {
    fn open(
        &self,
        k: &Kernel,
    ) -> Result<(TraceReader<BufReader<File>>, dol_isa::SparseMemory), String> {
        let file = File::open(&k.path).map_err(|e| format!("{}: {e}", k.path.display()))?;
        let mut reader = TraceReader::new(BufReader::new(file)).map_err(|e| e.to_string())?;
        let memory = reader.read_memory().map_err(|e| e.to_string())?;
        Ok((reader, memory))
    }

    /// Checks run `i`: it must retire the whole budget, match the first
    /// iteration's results, and pass `ok` (the sink check).
    fn check(&mut self, i: usize, key: String, r: RunResult, ok: bool) {
        let ok = ok && r.instructions == INSTS;
        if self.checks.check("tpc-replay", i, key, ok) {
            self.first.push(r);
        }
    }

    /// One iteration over every kernel and configuration.
    fn iterate(&mut self, ctx: &Ctx, traced: bool) -> Result<(), String> {
        let mut i = 0;
        for k in self.kernels {
            for (config, layer) in CONFIGS {
                let (r, key, ok) = ctx.unit(|| {
                    let mut p = prefetchers::build(config).expect("known configuration");
                    if traced {
                        return self.traced_run(k, p, layer);
                    }
                    let (reader, memory) = self.open(k)?;
                    let mut sink = StreamingMetrics::new();
                    let source = ReplaySource::new(reader);
                    let (r, source) = self
                        .sys
                        .run_source_with_sink(source, &memory, &mut p, &mut sink);
                    if let Some(e) = source.error() {
                        return Err(format!("replaying {}: {e}", k.path.display()));
                    }
                    let key = observed(&r, &sink);
                    Ok((r, key, true))
                })?;
                self.check(i, key, r, ok);
                i += 1;
            }
        }
        Ok(())
    }

    fn traced_run<P: Prefetcher>(
        &mut self,
        k: &Kernel,
        p: P,
        layer: PfLayer,
    ) -> Result<(RunResult, String, bool), String> {
        let t = Instant::now();
        let (reader, memory) = self.open(k)?;
        self.tally.open_ns += ns_since(t);
        self.seed += 3;
        let mut p = TimedPrefetcher::new(p, self.seed);
        let mut sink = TimedSink::new(StreamingMetrics::new(), self.seed + 1);
        let source = TimedSource::new(ReplaySource::new(reader), self.seed + 2);
        let t = Instant::now();
        let (r, source) = self
            .sys
            .run_source_with_sink(source, &memory, &mut p, &mut sink);
        self.tally.run_ns += ns_since(t);
        self.tally.source.0.add(&source.span());
        self.tally.source.1 += r.instructions;
        if let Some(e) = source.into_inner().error() {
            return Err(format!("replaying {}: {e}", k.path.display()));
        }
        self.tally.add_run(&r);
        self.tally
            .add_prefetcher(layer, p.span(), &p.reqs, r.instructions);
        self.tally.sink.add(&sink.span());
        self.tally.counts.add(&sink.counts);
        let ok = sink.counts.useful_within_issued();
        let key = observed(&r, &sink.into_inner());
        Ok((r, key, ok))
    }

    /// Runs every kernel from its in-memory capture and checks the
    /// results equal the replayed ones.
    fn check_in_memory(&mut self) {
        let mut i = 0;
        for k in self.kernels {
            for (config, _) in CONFIGS {
                let mut p = prefetchers::build(config).expect("known configuration");
                let mut sink = StreamingMetrics::new();
                let r = self.sys.run_with_sink(&k.workload, &mut p, &mut sink);
                self.check(i, observed(&r, &sink), r, true);
                i += 1;
            }
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let mut cost = SetupCost::default();
    let (setup_s, kernels) = ctx.repeat_setup(|| setup(ctx, &mut cost))?;
    let mut replay = Replay {
        kernels: &kernels,
        sys: System::new(SystemConfig::isca2018(1)),
        checks: Checks::default(),
        tally: Tally::default(),
        first: Vec::new(),
        seed: ctx.seed,
    };
    let times = ctx.timed_loop(|traced| replay.iterate(ctx, traced))?;
    replay.check_in_memory();

    let lines = |r: &RunResult| r.stats.dram.total_traffic_lines() as f64;
    let pairs = replay.first.chunks(CONFIGS.len());
    let speedups: Vec<f64> = pairs
        .clone()
        .map(|p| ratio(p[1].cycles as f64, p[0].cycles as f64))
        .collect();
    let traffic: Vec<f64> = pairs
        .clone()
        .map(|p| ratio(lines(&p[0]), lines(&p[1])))
        .collect();
    let cfg = SystemConfig::isca2018(1).hierarchy;
    let mem_ns = kernels
        .iter()
        .zip(pairs)
        .map(|(k, p)| mem_direct_ns_per_access(cfg, &[&k.workload.trace], &[p[1].cycles]))
        .sum::<f64>()
        / kernels.len() as f64;
    let t = &replay.tally;
    let mut layers = t.layer_metrics(ctx.timer_ns);
    layers.extend([
        (
            "isa.capture_ns_per_inst".into(),
            ratio(cost.capture_ns, cost.insts as f64),
        ),
        (
            "trace.encode_ns_per_inst".into(),
            ratio(cost.encode_ns, cost.insts as f64),
        ),
        (
            "trace.bytes_per_inst".into(),
            ratio(cost.bytes as f64, cost.insts as f64),
        ),
        ("mem.demand_ns_per_access".into(), mem_ns),
    ]);
    let closure = ratio(t.open_ns + t.run_ns, times.traced_ns());
    Ok(Outcome {
        setup_s,
        times,
        closure,
        speedup: dol_metrics::geomean(&speedups),
        traffic: dol_metrics::geomean(&traffic),
        accuracy: t.accuracy(TPC_ORIGINS),
        layers,
        attempted: replay.checks.attempted,
        failed: replay.checks.failed,
        digest: replay.checks.digest(),
    })
}
