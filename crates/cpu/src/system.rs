//! The trace-driven system driver.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use dol_core::{AccessInfo, CompletedPrefetch, PrefetchRequest, Prefetcher, RetireInfo};
use dol_isa::{InstKind, InstSource, RetiredInst, SparseMemory, Trace, TraceCursor, Vm, VmError};
use dol_mem::{line_of, CacheLevel, DropReason, EventSink, MemorySystem, NullSink, SystemStats};

use crate::{BranchPredictor, DestinationPolicy, SystemConfig};

/// Per-core address-space separation for multiprogrammed runs: each
/// core's addresses are offset into a private 1 TiB window before they
/// reach the shared memory system.
const CORE_SPACE_SHIFT: u32 = 40;

/// One workload: a functional trace plus the final memory image (the
/// value source for pointer prefetch callbacks).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Retired-instruction trace.
    pub trace: Trace,
    /// Memory contents after functional execution; pointer-chasing
    /// prefetchers read future pointers from here when their prefetches
    /// complete. Workloads that traverse stable data structures (the
    /// common case) are represented exactly.
    pub memory: SparseMemory,
}

impl Workload {
    /// Runs `vm` for up to `max_insts` instructions and captures the
    /// trace and memory image.
    ///
    /// Executes on the pre-decoded micro-op path ([`Vm::run_uop`],
    /// which decodes the program afresh on each call), bit-identical to
    /// the reference interpreter (pinned by the `uop_equivalence`
    /// tests); use [`Workload::capture_reference`] to capture through
    /// the interpreter itself.
    pub fn capture(mut vm: Vm, max_insts: u64) -> Result<Workload, VmError> {
        let trace = vm.run_uop(max_insts)?;
        Ok(Workload {
            trace,
            memory: std::mem::take(vm.memory_mut()),
        })
    }

    /// Like [`Workload::capture`], but executes on the reference
    /// interpreter ([`Vm::run`]). Exists so equivalence tests can
    /// compare both paths end to end.
    pub fn capture_reference(mut vm: Vm, max_insts: u64) -> Result<Workload, VmError> {
        let trace = vm.run(max_insts)?;
        Ok(Workload {
            trace,
            memory: std::mem::take(vm.memory_mut()),
        })
    }
}

/// Result of a single-core run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Total cycles (retire time of the last instruction).
    pub cycles: u64,
    /// Instructions simulated.
    pub instructions: u64,
    /// Dispatch-stall cycles by cause: [ROB-full, LSQ-full, branch].
    pub stalls: [u64; 3],
    /// Branch mispredictions.
    pub mispredicts: u64,
    /// Memory-system counters.
    pub stats: SystemStats,
}

impl RunResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// Result of a multi-core run.
#[derive(Debug, Clone)]
pub struct MultiRunResult {
    /// Per-core (cycles, instructions).
    pub cores: Vec<(u64, u64)>,
    /// Per-core dispatch-stall cycles by cause: [ROB-full, LSQ-full,
    /// branch-mispredict] (diagnostics).
    pub stalls: Vec<[u64; 3]>,
    /// Per-core branch mispredictions.
    pub mispredicts: Vec<u64>,
    /// Shared memory-system counters.
    pub stats: SystemStats,
}

impl MultiRunResult {
    /// Per-core IPC values.
    pub fn ipcs(&self) -> Vec<f64> {
        self.cores
            .iter()
            .map(|&(c, i)| if c == 0 { 0.0 } else { i as f64 / c as f64 })
            .collect()
    }

    /// Instructions retired across all cores — the denominator for
    /// throughput accounting (a 4-core run does 4× the simulation work
    /// of a single-core run of the same length, and is reported so).
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|&(_, i)| i).sum()
    }
}

/// One core's state for one run: built empty by [`CoreRt::new`] and
/// dropped when the run returns (only the drained source is handed back).
struct CoreRt<'a, S: InstSource> {
    /// The instruction stream — generic, so both the in-memory trace
    /// path and the on-disk replay path monomorphize to direct calls
    /// (no `dyn` dispatch on the per-retire edge).
    source: S,
    /// One-instruction lookahead; `None` means the stream is drained.
    next: Option<RetiredInst>,
    memory: &'a SparseMemory,
    regs: [u64; dol_isa::Reg::COUNT],
    rob: VecDeque<u64>,
    lsq: VecDeque<u64>,
    dispatch: u64,
    dispatched: u32,
    last_retire: u64,
    ras: Vec<u64>,
    bp: BranchPredictor,
    mispredicts: u64,
    insts: u64,
    /// Dispatch-stall cycles by cause: [rob, lsq, branch] (diagnostics).
    stalls: [u64; 3],
    /// `(completes_at, untranslated addr, origin)` for value callbacks.
    pending: BinaryHeap<Reverse<(u64, u64, u16)>>,
    /// Prefetches rejected for transient reasons (full prefetch queue or
    /// DRAM backpressure), retried after a backoff. Hardware prefetchers
    /// keep rejected requests in their request queues rather than
    /// silently losing coverage.
    retries: Vec<(u64, u8, PrefetchRequest)>,
    /// Reusable scratch for [`System::drain_retries`] (no per-drain
    /// allocation).
    retry_scratch: Vec<(u8, PrefetchRequest)>,
}

impl<'a, S: InstSource> CoreRt<'a, S> {
    fn new(mut source: S, memory: &'a SparseMemory, gshare_bits: u32) -> Self {
        let next = source.next_inst();
        CoreRt {
            source,
            next,
            memory,
            regs: [0; dol_isa::Reg::COUNT],
            rob: VecDeque::new(),
            lsq: VecDeque::new(),
            dispatch: 0,
            dispatched: 0,
            last_retire: 0,
            ras: Vec::new(),
            bp: BranchPredictor::new(gshare_bits),
            mispredicts: 0,
            insts: 0,
            stalls: [0; 3],
            pending: BinaryHeap::new(),
            retries: Vec::new(),
            retry_scratch: Vec::new(),
        }
    }

    fn done(&self) -> bool {
        self.next.is_none()
    }
}

/// The simulation driver: builds a memory system from its configuration
/// and replays workload traces through the timing model under a given
/// prefetcher per core.
#[derive(Debug, Clone)]
pub struct System {
    cfg: SystemConfig,
}

impl System {
    /// Creates a driver for the given configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        System { cfg }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Runs one workload on a single core with the given prefetcher,
    /// discarding metric events. Use [`run_with_sink`](Self::run_with_sink)
    /// to observe them.
    pub fn run<P: Prefetcher + ?Sized>(
        &self,
        workload: &Workload,
        prefetcher: &mut P,
    ) -> RunResult {
        self.run_with_sink(workload, prefetcher, &mut NullSink)
    }

    /// Runs one workload on a single core, streaming metric events into
    /// `sink` as the simulation progresses.
    pub fn run_with_sink<P: Prefetcher + ?Sized, S: EventSink + ?Sized>(
        &self,
        workload: &Workload,
        prefetcher: &mut P,
        sink: &mut S,
    ) -> RunResult {
        let (result, _) = self.run_source_with_sink(
            TraceCursor::new(workload.trace.as_slice()),
            &workload.memory,
            prefetcher,
            sink,
        );
        result
    }

    /// Runs an arbitrary instruction source on a single core —
    /// the trace-replay entry point. `memory` is the workload's final
    /// image, the value source for pointer-prefetch callbacks.
    ///
    /// The source is statically dispatched: a streaming on-disk replay
    /// compiles to the same devirtualized per-retire edge as the
    /// in-memory trace path. Returns the drained source so callers can
    /// inspect it (e.g. a replay source's deferred decode error).
    pub fn run_source<I: InstSource, P: Prefetcher + ?Sized>(
        &self,
        source: I,
        memory: &SparseMemory,
        prefetcher: &mut P,
    ) -> (RunResult, I) {
        self.run_source_with_sink(source, memory, prefetcher, &mut NullSink)
    }

    /// Like [`run_source`](Self::run_source), streaming metric events
    /// into `sink`.
    pub fn run_source_with_sink<I: InstSource, P: Prefetcher + ?Sized, S: EventSink + ?Sized>(
        &self,
        source: I,
        memory: &SparseMemory,
        prefetcher: &mut P,
        sink: &mut S,
    ) -> (RunResult, I) {
        let mut prefetchers: [&mut P; 1] = [prefetcher];
        let (multi, mut sources) = self.run_inner(vec![(source, memory)], &mut prefetchers, sink);
        let (cycles, instructions) = multi.cores[0];
        let result = RunResult {
            cycles,
            instructions,
            stalls: multi.stalls[0],
            mispredicts: multi.mispredicts[0],
            stats: multi.stats,
        };
        (result, sources.pop().expect("one core, one source"))
    }

    /// Runs one workload per core (sharing L3 and DRAM), one prefetcher
    /// per core, streaming metric events from all cores into `sink` —
    /// the multi-core counterpart of [`run_with_sink`](Self::run_with_sink).
    ///
    /// The array sizes tie core count to the type system. A concrete `P`
    /// (one design, or the harness's `Built` enum) keeps static dispatch
    /// on the hot per-retire edge; `[Box<dyn Prefetcher>; N]` runs
    /// heterogeneous boxed designs.
    ///
    /// # Panics
    ///
    /// Panics if `N` exceeds the configured core count.
    pub fn run_corun<const N: usize, P: Prefetcher, S: EventSink + ?Sized>(
        &self,
        workloads: &[Workload; N],
        prefetchers: &mut [P; N],
        sink: &mut S,
    ) -> MultiRunResult {
        let sources: Vec<(TraceCursor<'_>, &SparseMemory)> = workloads
            .iter()
            .map(|w| (TraceCursor::new(w.trace.as_slice()), &w.memory))
            .collect();
        let mut refs: Vec<&mut P> = prefetchers.iter_mut().collect();
        let (result, _) = self.run_inner(sources, &mut refs, sink);
        result
    }

    /// The scheduling loop, one for every core count. Core arbitration
    /// is deterministic round-robin by timestamp: each iteration retires
    /// one instruction on the non-finished core with the smallest
    /// dispatch cycle, ties broken by lowest core index (`min_by_key`
    /// keeps the first minimum). Shared-hierarchy state therefore
    /// updates in a reproducible order independent of caller threading —
    /// the byte-identity guarantee the CI determinism gate checks across
    /// `--jobs` settings. A single core takes the same loop, pulling its
    /// source one instruction per retire.
    ///
    /// The run's working set — the memory system, every core's
    /// collections and the prefetch out-buffer — is built fresh here and
    /// dropped on return, so no state carries from one run to the next.
    fn run_inner<'a, I: InstSource, P: Prefetcher + ?Sized, S: EventSink + ?Sized>(
        &self,
        sources: Vec<(I, &'a SparseMemory)>,
        prefetchers: &mut [&mut P],
        sink: &mut S,
    ) -> (MultiRunResult, Vec<I>) {
        assert_eq!(sources.len(), prefetchers.len(), "one prefetcher per core");
        assert!(
            sources.len() <= self.cfg.hierarchy.cores as usize,
            "more workloads than configured cores"
        );
        let mut mem = MemorySystem::new(self.cfg.hierarchy);
        let mut cores: Vec<CoreRt<'a, I>> = sources
            .into_iter()
            .map(|(s, m)| CoreRt::new(s, m, self.cfg.core.gshare_bits))
            .collect();
        let mut out_buf = Vec::with_capacity(32);

        loop {
            let next = cores
                .iter()
                .enumerate()
                .filter(|(_, c)| !c.done())
                .min_by_key(|(_, c)| c.dispatch)
                .map(|(i, _)| i);
            let Some(i) = next else { break };
            self.step_inst(
                i,
                &mut cores[i],
                &mut *prefetchers[i],
                &mut mem,
                &mut out_buf,
                sink,
            );
        }

        let per_core: Vec<(u64, u64)> = cores.iter().map(|c| (c.last_retire, c.insts)).collect();
        let mispredicts: Vec<u64> = cores.iter().map(|c| c.mispredicts).collect();
        let stalls: Vec<[u64; 3]> = cores.iter().map(|c| c.stalls).collect();
        let stats = mem.stats();
        let result = MultiRunResult {
            cores: per_core,
            stalls,
            mispredicts,
            stats,
        };
        (result, cores.into_iter().map(|c| c.source).collect())
    }

    #[inline]
    fn xlate(core: usize, addr: u64) -> u64 {
        addr.wrapping_add((core as u64) << CORE_SPACE_SHIFT)
    }

    fn deliver_pending<I: InstSource, P: Prefetcher + ?Sized, S: EventSink + ?Sized>(
        &self,
        core_idx: usize,
        c: &mut CoreRt<'_, I>,
        prefetcher: &mut P,
        mem: &mut MemorySystem,
        out: &mut Vec<PrefetchRequest>,
        sink: &mut S,
    ) {
        while let Some(&Reverse((t, addr, origin))) = c.pending.peek() {
            if t > c.dispatch {
                break;
            }
            c.pending.pop();
            let value = c.memory.read_u64(addr);
            let pf = CompletedPrefetch {
                now: t,
                addr,
                origin: dol_mem::Origin(origin),
                value,
            };
            out.clear();
            prefetcher.on_prefetch_complete(&pf, out);
            let requests = std::mem::take(out);
            self.issue_requests(core_idx, c, &requests, t, mem, sink);
            *out = requests;
        }
    }

    fn issue_requests<I: InstSource, S: EventSink + ?Sized>(
        &self,
        core_idx: usize,
        c: &mut CoreRt<'_, I>,
        requests: &[PrefetchRequest],
        now: u64,
        mem: &mut MemorySystem,
        sink: &mut S,
    ) {
        self.issue_requests_attempt(core_idx, c, requests, now, mem, 0, sink);
    }

    #[allow(clippy::too_many_arguments)] // internal helper threading the run context
    fn issue_requests_attempt<I: InstSource, S: EventSink + ?Sized>(
        &self,
        core_idx: usize,
        c: &mut CoreRt<'_, I>,
        requests: &[PrefetchRequest],
        now: u64,
        mem: &mut MemorySystem,
        attempt: u8,
        sink: &mut S,
    ) {
        for req in requests {
            let dest = match &self.cfg.dest_policy {
                DestinationPolicy::AsRequested => req.dest,
                DestinationPolicy::ForceL1 => CacheLevel::L1,
                DestinationPolicy::ForceL2 => CacheLevel::L2,
                DestinationPolicy::StratifiedByLine(lhf) => {
                    if lhf.contains(line_of(req.addr)) {
                        CacheLevel::L1
                    } else {
                        CacheLevel::L2
                    }
                }
            };
            let outcome = mem.prefetch(
                core_idx,
                Self::xlate(core_idx, req.addr),
                dest,
                req.origin,
                req.confidence,
                now,
                sink,
            );
            if outcome.accepted && req.want_value {
                c.pending
                    .push(Reverse((outcome.completes_at, req.addr, req.origin.0)));
            }
            // Transient rejections back off and retry (twice at most).
            if !outcome.accepted
                && attempt < 2
                && c.retries.len() < 256
                && matches!(
                    outcome.drop_reason,
                    Some(DropReason::NoMshr) | Some(DropReason::QueueFull)
                )
            {
                c.retries.push((now + 96, attempt + 1, *req));
            }
        }
    }

    fn drain_retries<I: InstSource, S: EventSink + ?Sized>(
        &self,
        core_idx: usize,
        c: &mut CoreRt<'_, I>,
        mem: &mut MemorySystem,
        sink: &mut S,
    ) {
        if c.retries.is_empty() {
            return;
        }
        let now = c.dispatch;
        let mut due = std::mem::take(&mut c.retry_scratch);
        c.retries.retain(|&(t, a, req)| {
            if t <= now {
                due.push((a, req));
                false
            } else {
                true
            }
        });
        for &(attempt, req) in &due {
            self.issue_requests_attempt(core_idx, c, &[req], now, mem, attempt, sink);
        }
        due.clear();
        c.retry_scratch = due;
    }

    /// Takes the core's next instruction (refilling the one-instruction
    /// lookahead from its source) and retires it through the timing
    /// model: value-callback delivery and retry drain at the current
    /// dispatch cycle, then width/ROB/LSQ accounting, dependence-limited
    /// issue, the per-kind completion model, and prefetcher
    /// training/issue.
    fn step_inst<I: InstSource, P: Prefetcher + ?Sized, S: EventSink + ?Sized>(
        &self,
        core_idx: usize,
        c: &mut CoreRt<'_, I>,
        prefetcher: &mut P,
        mem: &mut MemorySystem,
        out: &mut Vec<PrefetchRequest>,
        sink: &mut S,
    ) {
        let inst = c.next.take().expect("step_inst on a drained core");
        c.next = c.source.next_inst();
        c.insts += 1;
        let cfg = &self.cfg.core;
        self.deliver_pending(core_idx, c, prefetcher, mem, out, sink);
        self.drain_retries(core_idx, c, mem, sink);

        // Front-end width.
        if c.dispatched >= cfg.width {
            c.dispatch += 1;
            c.dispatched = 0;
        }
        // ROB occupancy: dispatching into a full window waits for the
        // head to retire.
        if c.rob.len() >= cfg.rob {
            let head = c.rob.pop_front().expect("rob non-empty");
            if head > c.dispatch {
                c.stalls[0] += head - c.dispatch;
                c.dispatch = head;
                c.dispatched = 0;
            }
        }
        if inst.is_mem() && c.lsq.len() >= cfg.lsq {
            let head = c.lsq.pop_front().expect("lsq non-empty");
            if head > c.dispatch {
                c.stalls[1] += head - c.dispatch;
                c.dispatch = head;
                c.dispatched = 0;
            }
        }

        // Dependence-limited issue.
        let mut issue = c.dispatch;
        for s in inst.srcs.iter().flatten() {
            issue = issue.max(c.regs[s.index()]);
        }

        let ras_top = c.ras.last().copied().unwrap_or(0);
        let mut access: Option<AccessInfo> = None;
        let complete = match inst.kind {
            InstKind::Alu { latency } => issue + latency as u64,
            InstKind::Load { addr, .. } | InstKind::Store { addr } => {
                let is_write = matches!(inst.kind, InstKind::Store { .. });
                let outcome = mem.demand_access(
                    core_idx,
                    Self::xlate(core_idx, addr),
                    is_write,
                    issue,
                    inst.pc,
                    sink,
                );
                access = Some(AccessInfo {
                    l1_hit: outcome.l1_hit,
                    secondary: outcome.l1_secondary,
                    latency: outcome.latency,
                    served_by_prefetch: outcome.served_by_prefetch,
                });
                let mem_done = issue + outcome.latency;
                c.lsq.push_back(mem_done);
                if is_write {
                    // The store buffer hides store latency from the core.
                    issue + 1
                } else {
                    mem_done
                }
            }
            InstKind::Branch { taken, .. } => {
                let resolve = issue + 1;
                if !c.bp.update(inst.pc, taken) {
                    c.mispredicts += 1;
                    let redirect = resolve + cfg.branch_penalty;
                    if redirect > c.dispatch {
                        c.stalls[2] += redirect - c.dispatch;
                        c.dispatch = redirect;
                        c.dispatched = 0;
                    }
                }
                resolve
            }
            InstKind::Call { return_to, .. } => {
                if c.ras.len() >= cfg.ras {
                    c.ras.remove(0);
                }
                c.ras.push(return_to);
                issue + 1
            }
            InstKind::Ret { .. } => {
                c.ras.pop();
                issue + 1
            }
            InstKind::Jump { .. } | InstKind::Other => issue + 1,
        };

        if let Some(dst) = inst.dst {
            c.regs[dst.index()] = complete;
        }
        let retire = complete.max(c.last_retire);
        c.last_retire = retire;
        c.rob.push_back(retire);
        c.dispatched += 1;

        // Prefetcher training and issue.
        let mpc = if inst.is_mem() {
            inst.pc ^ ras_top
        } else {
            inst.pc
        };
        let ev = RetireInfo {
            now: issue,
            inst: &inst,
            mpc,
            access,
        };
        out.clear();
        prefetcher.on_retire(&ev, out);
        if !out.is_empty() {
            let requests = std::mem::take(out);
            self.issue_requests(core_idx, c, &requests, issue, mem, sink);
            *out = requests;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_core::{NoPrefetcher, Tpc};
    use dol_isa::{AluOp, Cond, Operand, ProgramBuilder, Reg};
    use dol_mem::MemEvent;

    /// A linear streaming-sum kernel touching `n` consecutive words.
    fn stream_workload(n: i64) -> Workload {
        let mut b = ProgramBuilder::new();
        let (base, i, cnt, sum, t) = (Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5);
        b.imm(base, 0x10_0000);
        b.imm(i, 0);
        b.imm(cnt, n);
        b.imm(sum, 0);
        let top = b.label();
        b.bind(top);
        b.load(t, base, 0);
        b.alu_rr(AluOp::Add, sum, sum, t);
        b.alu_ri(AluOp::Add, base, base, 8);
        b.alu_ri(AluOp::Add, i, i, 1);
        b.branch(Cond::Ne, i, Operand::Reg(cnt), top);
        b.halt();
        let mut vm = Vm::new(b.build().unwrap());
        for k in 0..n as u64 {
            vm.memory_mut().write_u64(0x10_0000 + 8 * k, k);
        }
        Workload::capture(vm, 10_000_000).unwrap()
    }

    /// A pointer-chase kernel over a scrambled list of `n` nodes.
    fn chase_workload(n: u64) -> Workload {
        let mut b = ProgramBuilder::new();
        let (cur, cnt) = (Reg::R1, Reg::R2);
        b.imm(cur, 0x40_0000);
        b.imm(cnt, n as i64 - 1);
        let top = b.label();
        b.bind(top);
        b.load(cur, cur, 8); // cur = cur->next (offset 8)
        b.alu_ri(AluOp::Sub, cnt, cnt, 1);
        b.branch(Cond::Ne, cnt, Operand::Imm(0), top);
        b.halt();
        let mut vm = Vm::new(b.build().unwrap());
        // Scrambled node layout: node k at 0x40_0000 + perm(k) * 192.
        let addr_of = |k: u64| 0x40_0000 + ((k * 7919) % n) * 192;
        for k in 0..n {
            let this = if k == 0 { 0x40_0000 } else { addr_of(k) };
            let next = if k + 1 < n { addr_of(k + 1) } else { 0x40_0000 };
            vm.memory_mut().write_u64(this + 8, next);
        }
        Workload::capture(vm, 10_000_000).unwrap()
    }

    #[test]
    fn baseline_run_is_deterministic() {
        let w = stream_workload(2000);
        let sys = System::new(SystemConfig::tiny(1));
        let a = sys.run(&w, &mut NoPrefetcher);
        let b = sys.run(&w, &mut NoPrefetcher);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert!(a.cycles > 0);
        assert_eq!(a.instructions as usize, w.trace.len());
    }

    #[test]
    fn t2_speeds_up_a_streaming_kernel() {
        let w = stream_workload(8000);
        let sys = System::new(SystemConfig::isca2018(1));
        let base = sys.run(&w, &mut NoPrefetcher);
        let mut t2 = Tpc::t2_only();
        let with = sys.run(&w, &mut t2);
        let speedup = base.cycles as f64 / with.cycles as f64;
        assert!(
            speedup > 1.10,
            "T2 must speed up streaming: {speedup:.3} (base {} vs {})",
            base.cycles,
            with.cycles
        );
        assert!(with.stats.cores[0].prefetches > 100);
    }

    #[test]
    fn tpc_speeds_up_pointer_chasing() {
        let w = chase_workload(6000);
        let sys = System::new(SystemConfig::isca2018(1));
        let base = sys.run(&w, &mut NoPrefetcher);
        let mut tpc = Tpc::full();
        let with = sys.run(&w, &mut tpc);
        let speedup = base.cycles as f64 / with.cycles as f64;
        assert!(
            speedup > 1.02,
            "P1 chains must help: {speedup:.3} (base {} vs {})",
            base.cycles,
            with.cycles
        );
    }

    #[test]
    fn run_source_matches_run() {
        let w = chase_workload(4000);
        let sys = System::new(SystemConfig::tiny(1));
        let mut tpc = Tpc::full();
        let baseline = sys.run(&w, &mut tpc);
        let mut tpc = Tpc::full();
        let (via_source, _) =
            sys.run_source(TraceCursor::new(w.trace.as_slice()), &w.memory, &mut tpc);
        assert_eq!(baseline.cycles, via_source.cycles);
        assert_eq!(baseline.instructions, via_source.instructions);
        assert_eq!(baseline.stalls, via_source.stalls);
        assert_eq!(baseline.mispredicts, via_source.mispredicts);
    }

    #[test]
    fn prefetching_never_breaks_instruction_count() {
        let w = stream_workload(3000);
        let sys = System::new(SystemConfig::tiny(1));
        let mut tpc = Tpc::full();
        let r = sys.run(&w, &mut tpc);
        assert_eq!(r.instructions as usize, w.trace.len());
        assert!(r.ipc() > 0.0);
    }

    #[test]
    fn multicore_shares_the_hierarchy() {
        let w1 = stream_workload(3000);
        let w2 = chase_workload(2000);
        let sys = System::new(SystemConfig::tiny(2));
        let r = sys.run_corun(
            &[w1.clone(), w2.clone()],
            &mut [Tpc::full(), Tpc::full()],
            &mut NullSink,
        );
        assert_eq!(r.cores.len(), 2);
        assert_eq!(r.cores[0].1 as usize, w1.trace.len());
        assert_eq!(r.cores[1].1 as usize, w2.trace.len());
        assert!(r.ipcs().iter().all(|&ipc| ipc > 0.0));
        // Both cores miss in their own L1s.
        assert!(r.stats.cores[0].l1_misses > 0);
        assert!(r.stats.cores[1].l1_misses > 0);
    }

    #[test]
    fn run_corun_static_matches_boxed_and_counts_all_cores() {
        let w1 = stream_workload(3000);
        let w2 = chase_workload(2000);
        let sys = System::new(SystemConfig::tiny(2));
        let mut boxed: [Box<dyn Prefetcher>; 2] = [Box::new(Tpc::full()), Box::new(Tpc::full())];
        let dyn_r = sys.run_corun(&[w1.clone(), w2.clone()], &mut boxed, &mut NullSink);
        let mut ps = [Tpc::full(), Tpc::full()];
        let r = sys.run_corun(&[w1.clone(), w2.clone()], &mut ps, &mut NullSink);
        // Static dispatch must reproduce the dyn path exactly.
        assert_eq!(r.cores, dyn_r.cores);
        assert_eq!(r.stats, dyn_r.stats);
        // The total counts per-core retired instructions: both cores'
        // traces, not one "run".
        assert_eq!(
            r.total_instructions() as usize,
            w1.trace.len() + w2.trace.len()
        );
    }

    #[test]
    fn multicore_contention_slows_cores_down() {
        let w = stream_workload(6000);
        let solo = System::new(SystemConfig::isca2018(1)).run(&w, &mut NoPrefetcher);
        let sys = System::new(SystemConfig::isca2018(4));
        let ws = [w.clone(), w.clone(), w.clone(), w.clone()];
        let r = sys.run_corun(&ws, &mut [NoPrefetcher; 4], &mut NullSink);
        // Shared DRAM bandwidth: at least one core should be no faster
        // than running alone.
        let worst = r.cores.iter().map(|&(c, _)| c).max().unwrap();
        assert!(
            worst >= solo.cycles,
            "contention: worst {worst} vs solo {}",
            solo.cycles
        );
    }

    #[test]
    fn force_l2_policy_redirects_prefetches() {
        let w = stream_workload(4000);
        let mut cfg = SystemConfig::isca2018(1);
        cfg.dest_policy = DestinationPolicy::ForceL2;
        let sys = System::new(cfg);
        let mut t2 = Tpc::t2_only();
        let mut sink = dol_mem::CollectSink::new();
        sys.run_with_sink(&w, &mut t2, &mut sink);
        let issued: Vec<&MemEvent> = sink
            .events
            .iter()
            .filter(|e| matches!(e, MemEvent::PrefetchIssued { .. }))
            .collect();
        assert!(!issued.is_empty());
        assert!(issued.iter().all(|e| matches!(
            e,
            MemEvent::PrefetchIssued {
                dest: CacheLevel::L2,
                ..
            }
        )));
    }

    #[test]
    fn mispredicts_are_counted() {
        // A data-dependent unpredictable branch pattern.
        let mut b = ProgramBuilder::new();
        let (i, n, x) = (Reg::R1, Reg::R2, Reg::R3);
        b.imm(i, 0);
        b.imm(n, 2000);
        b.imm(x, 0x9E3779B9);
        let top = b.label();
        let skip = b.label();
        b.bind(top);
        // x = x * 6364136223846793005 + 1 (pseudo-random)
        b.alu_ri(AluOp::Mul, x, x, 6364136223846793005);
        b.alu_ri(AluOp::Add, x, x, 1);
        b.alu_ri(AluOp::Shr, x, x, 33);
        b.branch(Cond::Eq, x, Operand::Imm(0), skip); // rarely taken
        b.alu_ri(AluOp::And, x, x, 0xFFFF);
        b.bind(skip);
        b.alu_ri(AluOp::Add, i, i, 1);
        b.branch(Cond::Ne, i, Operand::Reg(n), top);
        b.halt();
        let vm = Vm::new(b.build().unwrap());
        let w = Workload::capture(vm, 1_000_000).unwrap();
        let sys = System::new(SystemConfig::tiny(1));
        let r = sys.run(&w, &mut NoPrefetcher);
        // The loop branch itself is predictable; total mispredicts must
        // be far below iteration count but structure is exercised.
        assert!(r.instructions > 10_000);
    }
}
