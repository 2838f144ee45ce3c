//! What the workloads share: per-run tallies, the metrics derived from
//! them, the mem-direct pass, and small numeric helpers.

use std::time::Instant;

use dol_core::origins;
use dol_cpu::{MultiRunResult, RunResult};
use dol_isa::{InstKind, Trace};
use dol_mem::{HierarchyConfig, MemorySystem, NullSink, SystemStats};

use crate::layers::{OriginCounts, Span, ORIGIN_SLOTS};

/// Origin slots of TPC's components (T2, P1, C1).
pub const TPC_ORIGINS: std::ops::Range<usize> = 1..4;
/// Origin slots of the monolithic designs.
pub const MONO_ORIGINS: std::ops::Range<usize> =
    origins::MONOLITHIC_BASE as usize..origins::EXTRA_BASE as usize;

/// Which crate a run's prefetcher belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfLayer {
    /// TPC (`dol-core`).
    Core,
    /// A monolithic design (`dol-baselines`).
    Baselines,
    /// The no-prefetch reference; its (empty) calls stay in `cpu_mem`.
    None,
}

/// Everything the traced pass learns about a set of runs.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Instructions retired across all cores of all runs.
    pub insts: u64,
    /// Core cycles summed over cores.
    pub cycles: u64,
    /// Dispatch stalls summed over cores: [ROB, LSQ, branch].
    pub stalls: [u64; 3],
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// L1 / L2 primary demand misses and DRAM demand fills.
    pub misses: [u64; 3],
    /// DRAM lines moved (demand, prefetch, writeback).
    pub dram_lines: u64,
    /// DRAM row-buffer hits and misses.
    pub row_hits: u64,
    /// DRAM row-buffer misses.
    pub row_misses: u64,
    /// DRAM bank conflicts.
    pub bank_conflicts: u64,
    /// Demand-MSHR stall cycles.
    pub mshr_stall_cycles: u64,
    /// Cross-core LLC evictions.
    pub llc_cross_evictions: u64,
    /// Host time inside `System::run*` calls.
    pub run_ns: f64,
    /// Host time opening trace files and decoding their memory image,
    /// outside the run call (charged to the trace layer).
    pub open_ns: f64,
    /// Prefetcher calls of TPC runs, and instructions of those runs.
    pub core: (Span, u64),
    /// Prefetcher calls of monolithic runs, and instructions of those runs.
    pub baselines: (Span, u64),
    /// Prefetcher calls of no-prefetch runs.
    pub none: Span,
    /// Sink calls (one per event).
    pub sink: Span,
    /// Source calls, and instructions replayed through wrapped sources.
    pub source: (Span, u64),
    /// Requests emitted per origin slot (grown on first use).
    pub reqs: Vec<u64>,
    /// Prefetch lifecycle events per origin.
    pub counts: OriginCounts,
}

impl Tally {
    fn add_stats(&mut self, stats: &SystemStats) {
        for c in &stats.cores {
            self.misses[0] += c.l1_misses;
            self.misses[1] += c.l2_misses;
            self.misses[2] += c.dram_fills;
        }
        self.dram_lines += stats.dram.total_traffic_lines();
        self.row_hits += stats.dram.row_hits;
        self.row_misses += stats.dram.row_misses;
        self.bank_conflicts += stats.dram.bank_conflicts;
        self.mshr_stall_cycles += stats.shared.total_mshr_stall_cycles();
        self.llc_cross_evictions += stats.shared.llc_cross_evictions.iter().sum::<u64>();
    }

    /// Adds a single-core run's simulated statistics.
    pub fn add_run(&mut self, r: &RunResult) {
        self.insts += r.instructions;
        self.cycles += r.cycles;
        for (s, v) in self.stalls.iter_mut().zip(r.stalls) {
            *s += v;
        }
        self.mispredicts += r.mispredicts;
        self.add_stats(&r.stats);
    }

    /// Adds a co-run's simulated statistics.
    pub fn add_multi(&mut self, r: &MultiRunResult) {
        for (&(cycles, insts), stalls) in r.cores.iter().zip(&r.stalls) {
            self.insts += insts;
            self.cycles += cycles;
            for (s, v) in self.stalls.iter_mut().zip(stalls) {
                *s += v;
            }
        }
        self.mispredicts += r.mispredicts.iter().sum::<u64>();
        self.add_stats(&r.stats);
    }

    /// Adds one wrapped prefetcher's calls and requests.
    pub fn add_prefetcher(&mut self, layer: PfLayer, span: Span, reqs: &[u64], insts: u64) {
        match layer {
            PfLayer::Core => {
                self.core.0.add(&span);
                self.core.1 += insts;
            }
            PfLayer::Baselines => {
                self.baselines.0.add(&span);
                self.baselines.1 += insts;
            }
            PfLayer::None => self.none.add(&span),
        }
        self.reqs.resize(ORIGIN_SLOTS, 0);
        for (t, r) in self.reqs.iter_mut().zip(reqs) {
            *t += r;
        }
    }

    /// Prefetch accuracy (useful over issued) of the origins in `range`.
    pub fn accuracy(&self, range: std::ops::Range<usize>) -> f64 {
        let (issued, useful, _) = self.counts.sum(range);
        ratio(useful as f64, issued as f64)
    }

    /// Host time inside the runs not spent in a timed seam: the core
    /// model and memory hierarchy as they run in place. Sampled calls
    /// also pay a clock read on each side of their span, which would
    /// otherwise land here.
    pub fn cpu_mem_ns(&self, timer_ns: f64) -> f64 {
        let spans = [
            self.core.0,
            self.baselines.0,
            self.none,
            self.sink,
            self.source.0,
        ];
        let sampled: u64 = spans.iter().map(|s| s.sampled).sum();
        let seams = self.core.0.estimate_ns(timer_ns)
            + self.baselines.0.estimate_ns(timer_ns)
            + self.sink.estimate_ns(timer_ns)
            + self.source.0.estimate_ns(timer_ns);
        self.run_ns - seams - 2.0 * timer_ns * sampled as f64
    }

    /// The per-layer metrics this tally supports, by name.
    pub fn layer_metrics(&self, timer_ns: f64) -> Vec<(String, f64)> {
        let per_inst = |ns: f64, insts: u64| ratio(ns, insts as f64);
        let pki = |n: u64| ratio(n as f64 * 1000.0, self.insts as f64);
        let c = &self.counts;
        let frac = |slot: usize| {
            let (issued, useful, _) = c.sum(slot..slot + 1);
            ratio(useful as f64, issued as f64)
        };
        let reqs =
            |slots: std::ops::Range<usize>| -> u64 { slots.filter_map(|s| self.reqs.get(s)).sum() };
        let core_pki =
            |slot: usize| ratio(reqs(slot..slot + 1) as f64 * 1000.0, self.core.1 as f64);
        let mono_reqs = reqs(MONO_ORIGINS);
        let (issued, _, dropped) = c.sum(0..ORIGIN_SLOTS);
        let decode_ns = self.source.0.estimate_ns(timer_ns) + self.open_ns;
        let m = [
            (
                "trace.decode_ns_per_inst",
                per_inst(decode_ns, self.source.1),
            ),
            (
                "core.on_retire_ns_per_inst",
                per_inst(self.core.0.estimate_ns(timer_ns), self.core.1),
            ),
            ("core.t2_reqs_pki", core_pki(1)),
            ("core.p1_reqs_pki", core_pki(2)),
            ("core.c1_reqs_pki", core_pki(3)),
            ("core.t2_useful_frac", frac(1)),
            ("core.p1_useful_frac", frac(2)),
            ("core.c1_useful_frac", frac(3)),
            (
                "baselines.on_retire_ns_per_inst",
                per_inst(self.baselines.0.estimate_ns(timer_ns), self.baselines.1),
            ),
            (
                "baselines.reqs_pki",
                ratio(mono_reqs as f64 * 1000.0, self.baselines.1 as f64),
            ),
            ("baselines.useful_frac", self.accuracy(MONO_ORIGINS)),
            (
                "metrics.emit_ns_per_event",
                ratio(self.sink.estimate_ns(timer_ns), self.sink.calls as f64),
            ),
            ("metrics.events_pki", pki(self.sink.calls)),
            ("mem.l1_mpki", pki(self.misses[0])),
            ("mem.l2_mpki", pki(self.misses[1])),
            ("mem.l3_mpki", pki(self.misses[2])),
            ("mem.dram_lines_pki", pki(self.dram_lines)),
            (
                "mem.dram_row_hit_frac",
                ratio(
                    self.row_hits as f64,
                    (self.row_hits + self.row_misses) as f64,
                ),
            ),
            ("mem.bank_conflicts_pki", pki(self.bank_conflicts)),
            ("mem.mshr_stall_cycles_pki", pki(self.mshr_stall_cycles)),
            ("mem.llc_cross_evictions_pki", pki(self.llc_cross_evictions)),
            (
                "mem.pf_dropped_frac",
                ratio(dropped as f64, (issued + dropped) as f64),
            ),
            ("cpu.ipc", ratio(self.insts as f64, self.cycles as f64)),
            ("cpu.mispredicts_pki", pki(self.mispredicts)),
            (
                "cpu.rob_stall_frac",
                ratio(self.stalls[0] as f64, self.cycles as f64),
            ),
            (
                "cpu.lsq_stall_frac",
                ratio(self.stalls[1] as f64, self.cycles as f64),
            ),
            (
                "cpu_mem.self_ns_per_inst",
                per_inst(self.cpu_mem_ns(timer_ns), self.insts),
            ),
            ("sim.ns_per_inst", per_inst(self.run_ns, self.insts)),
        ];
        m.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// Output checks: every simulated run against the same run of the first
/// iteration.
#[derive(Debug, Default)]
pub struct Checks {
    /// Results of each run of the first iteration.
    reference: Vec<String>,
    /// Runs checked.
    pub attempted: u64,
    /// Runs that failed.
    pub failed: u64,
}

impl Checks {
    /// Counts run `i` of an iteration, whose simulated results render as
    /// `key`: it fails unless `ok` holds and `key` equals run `i` of the
    /// first iteration. Returns whether this is that first iteration.
    pub fn check(&mut self, workload: &str, i: usize, key: String, ok: bool) -> bool {
        self.attempted += 1;
        let same = self.reference.get(i).is_none_or(|k| *k == key);
        if !(ok && same) {
            eprintln!("{workload}: run {i} failed its output check (same results: {same})");
            self.failed += 1;
        }
        let first = self.reference.len() == i;
        if first {
            self.reference.push(key);
        }
        first
    }

    /// FNV-1a digest of the first iteration's results: equal digests
    /// mean equal simulated statistics, down to the last counter.
    pub fn digest(&self) -> u64 {
        self.reference
            .iter()
            .flat_map(|k| k.bytes())
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
            })
    }
}

/// A run's simulated results, in a form that compares and digests
/// exactly (`RunResult` itself has no `PartialEq`).
pub fn run_key(r: &RunResult) -> String {
    format!(
        "{} {} {:?} {} {:?}",
        r.cycles, r.instructions, r.stalls, r.mispredicts, r.stats
    )
}

/// [`run_key`] for a co-run.
pub fn multi_key(r: &MultiRunResult) -> String {
    format!(
        "{:?} {:?} {:?} {:?}",
        r.cores, r.stalls, r.mispredicts, r.stats
    )
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The mem-direct pass: feeds each core's loads and stores straight into
/// [`MemorySystem::demand_access`] on one hierarchy, and returns
/// nanoseconds per access. Core `i`'s instructions are spread evenly over
/// `cycles[i]` cycles (its cycle count in the no-prefetch run), and cores
/// are merged in time order, so the hierarchy sees a realistic access
/// rate without the core model.
pub fn mem_direct_ns_per_access(cfg: HierarchyConfig, traces: &[&Trace], cycles: &[u64]) -> f64 {
    let mut mem = MemorySystem::new(cfg);
    let mut sink = NullSink;
    let mut next = vec![0usize; traces.len()];
    let at = |core: usize, i: usize| {
        let len = traces[core].len().max(1) as u128;
        (i as u128 * cycles[core] as u128 / len) as u64
    };
    let mut accesses = 0u64;
    let t = Instant::now();
    while let Some(core) = (0..traces.len())
        .filter(|&c| next[c] < traces[c].len())
        .min_by_key(|&c| at(c, next[c]))
    {
        let i = next[core];
        next[core] += 1;
        let inst = &traces[core].as_slice()[i];
        let (addr, write) = match inst.kind {
            InstKind::Load { addr, .. } => (addr, false),
            InstKind::Store { addr } => (addr, true),
            _ => continue,
        };
        // A private 1 TiB window per core, as the co-run driver uses.
        let addr = addr + ((core as u64) << 40);
        let out = mem.demand_access(core, addr, write, at(core, i), inst.pc, &mut sink);
        std::hint::black_box(out);
        accesses += 1;
    }
    ratio(ns_since(t), accesses as f64)
}
