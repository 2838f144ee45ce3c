//! T2 and the TPC composite prefetcher with its hardwired coordinator.
//!
//! T2 (Sec. IV-A) only targets *canonical* strided streams — those
//! generated by the repetition of a single static instruction within the
//! inner loop — in three steps: ① the loop hardware identifies the inner
//! loop, ② the SIT detects stable per-instruction strides (activated on a
//! primary L1 miss, confirmed after 16 equal deltas, rejected after 4
//! changing ones, with early issue after 4), and ③ prefetching runs at
//! distance `d = (AMAT + margin) / T_iter`.
//!
//! The TPC coordinator (Sec. IV-D) is hardwired decision logic with no
//! storage: a memory instruction is presented to T2 first, to P1 when T2
//! does not handle it, and to C1 last. T2 and P1 prefetch to L1 (their
//! accuracy warrants it); C1 prefetches to L2. T2 also sends load streams
//! with strides of 2 KB or more to L2 and issues nothing for such store
//! streams.

use crate::c1::{C1Config, C1};
use crate::loop_hw::LoopHardware;
use crate::p1::P1;
use crate::sit::{InstLabel, Sit, SitConfig, SitUpdate};
use crate::{CompletedPrefetch, PrefetchRequest, Prefetcher, RetireInfo, CONF_T2};
use dol_isa::InstKind;
use dol_mem::CacheLevel;

/// Margin `m` in `d = (AMAT + m) / T_iter`, in cycles (Sec. IV-A3; the
/// paper leaves the value open, this is the model's).
const MARGIN: u64 = 128;

/// Lower clamp on the prefetch distance, in strides.
const MIN_DISTANCE: u32 = 2;

/// Upper clamp on the prefetch distance, in strides.
const MAX_DISTANCE: u32 = 256;

/// Most stride prefetches issued per retire (the catch-up burst).
const CATCH_UP_BURST: u32 = 8;

/// How far ahead of the demand stream T2 runs, in bytes, for L1-bound
/// streams (twice this for L2-bound ones): large-stride streams would
/// otherwise run hundreds of KB ahead and thrash the cache levels they
/// prefetch into.
const MAX_AHEAD_BYTES: u64 = 16 * 1024;

/// Consecutive changing deltas that label an instruction non-strided:
/// the paper's four (Sec. IV-A2).
const NONSTRIDE_CONFIRM: u32 = 4;

/// Stride magnitude, in bytes, from which T2 sends a load stream's
/// prefetches to L2 instead of L1 and issues none for a store stream.
const LARGE_STRIDE: u64 = 2048;

/// The settings an experiment varies; everything else in TPC is a
/// constant of the paper's design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpcConfig {
    /// SIT size and stride thresholds.
    pub sit: SitConfig,
    /// C1 density thresholds.
    pub c1: C1Config,
    /// Enable T2's stride prefetching (detection always runs; a
    /// standalone P1 needs stride *detection* to find pointer-array
    /// producers without issuing stride prefetches).
    pub issue_t2: bool,
    /// Enable the P1 component.
    pub issue_p1: bool,
    /// Enable the C1 component.
    pub issue_c1: bool,
    /// Key the SIT by `mPC = PC ^ RAS.top` (the paper's call-site
    /// disambiguation) rather than the plain PC. Ablation knob.
    pub use_mpc: bool,
    /// Double the stride prefetch distance for array-of-pointers
    /// producers (the paper's Sec. IV-B1 compensation for the
    /// back-to-back producer/consumer pair). Ablation knob.
    pub p1_double_distance: bool,
}

impl Default for TpcConfig {
    fn default() -> Self {
        TpcConfig {
            sit: SitConfig::default(),
            c1: C1Config::default(),
            issue_t2: true,
            issue_p1: true,
            issue_c1: true,
            use_mpc: true,
            p1_double_distance: true,
        }
    }
}

/// Builder for [`Tpc`] — pick components and thresholds.
#[derive(Debug, Clone)]
pub struct TpcBuilder {
    cfg: TpcConfig,
    name: Option<String>,
}

impl TpcBuilder {
    /// Starts from the paper's default configuration (all three
    /// components on).
    pub fn new() -> Self {
        TpcBuilder {
            cfg: TpcConfig::default(),
            name: None,
        }
    }

    /// Enable/disable T2 stride prefetching.
    pub fn t2(mut self, on: bool) -> Self {
        self.cfg.issue_t2 = on;
        self
    }

    /// Enable/disable the P1 pointer component.
    pub fn p1(mut self, on: bool) -> Self {
        self.cfg.issue_p1 = on;
        self
    }

    /// Enable/disable the C1 region component.
    pub fn c1(mut self, on: bool) -> Self {
        self.cfg.issue_c1 = on;
        self
    }

    /// Override the whole configuration.
    pub fn config(mut self, cfg: TpcConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Use plain PCs instead of `mPC` (ablation).
    pub fn plain_pc(mut self) -> Self {
        self.cfg.use_mpc = false;
        self
    }

    /// Override the display name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Builds the prefetcher.
    pub fn build(self) -> Tpc {
        let cfg = self.cfg;
        let name = self
            .name
            .unwrap_or_else(|| match (cfg.issue_t2, cfg.issue_p1, cfg.issue_c1) {
                (true, true, true) => "TPC".to_string(),
                (true, true, false) => "T2+P1".to_string(),
                (true, false, false) => "T2".to_string(),
                (false, true, false) => "P1".to_string(),
                (false, false, true) => "C1".to_string(),
                _ => "TPC-partial".to_string(),
            });
        Tpc {
            sit: Sit::new(cfg.sit),
            loop_hw: LoopHardware::new(),
            p1: P1::new(crate::origins::P1),
            c1: C1::new(cfg.c1, crate::origins::C1),
            amat: 150 << 4,
            name,
            cfg,
        }
    }
}

impl Default for TpcBuilder {
    fn default() -> Self {
        TpcBuilder::new()
    }
}

/// The composite prefetcher of the paper: T2 + P1 + C1 under a hardwired
/// coordinator. Partial configurations (`T2` alone, `T2+P1`, …) are built
/// with [`TpcBuilder`] and drive Figure 12's incremental analysis.
#[derive(Debug, Clone)]
pub struct Tpc {
    cfg: TpcConfig,
    sit: Sit,
    loop_hw: LoopHardware,
    p1: P1,
    c1: C1,
    /// AMAT estimate, Q4 fixed point (cycles × 16).
    amat: u64,
    name: String,
}

impl Tpc {
    /// A builder starting from the paper's defaults.
    pub fn builder() -> TpcBuilder {
        TpcBuilder::new()
    }

    /// The standalone T2 component (stride prefetching only).
    pub fn t2_only() -> Tpc {
        TpcBuilder::new().p1(false).c1(false).build()
    }

    /// The standalone P1 component: stride *detection* stays on (P1 needs
    /// it to find pointer-array producers) but only pointer prefetches
    /// are issued. Uses the small 8-entry SIT of Table II.
    pub fn p1_only() -> Tpc {
        let mut cfg = TpcConfig {
            issue_t2: false,
            issue_c1: false,
            ..TpcConfig::default()
        };
        cfg.sit.entries = 8;
        TpcBuilder::new().config(cfg).build()
    }

    /// The full three-component composite.
    pub fn full() -> Tpc {
        TpcBuilder::new().build()
    }

    /// Current AMAT estimate in cycles.
    pub fn amat(&self) -> u64 {
        self.amat >> 4
    }

    /// The loop hardware (for inspection).
    pub fn loop_hardware(&self) -> &LoopHardware {
        &self.loop_hw
    }

    /// The SIT (for inspection).
    pub fn sit(&self) -> &Sit {
        &self.sit
    }

    /// Prefetch distance from `d = (AMAT + margin) / T_iter` (Sec. IV-A3),
    /// clamped to `MIN_DISTANCE..=MAX_DISTANCE`.
    pub fn distance(&self) -> u32 {
        let t_iter_q4 = self
            .loop_hw
            .active_loop()
            .map(|l| l.t_iter_q4())
            .unwrap_or(16 << 4);
        let d = ((self.amat() + MARGIN) << 4) / t_iter_q4;
        (d as u32).clamp(MIN_DISTANCE, MAX_DISTANCE)
    }

    fn key_of(&self, ev: &RetireInfo<'_>) -> u64 {
        if self.cfg.use_mpc {
            ev.mpc
        } else {
            ev.inst.pc
        }
    }

    /// T2's label state machine + SIT update. Returns the SIT update if
    /// the instruction is tracked.
    fn t2_observe(&mut self, ev: &RetireInfo<'_>) -> Option<SitUpdate> {
        let inst = ev.inst;
        let access = ev.access?;
        let addr = inst.mem_addr()?;
        let value = match inst.kind {
            InstKind::Load { value, .. } => value,
            _ => 0,
        };
        let key = self.key_of(ev);
        let pc = inst.pc;

        match self.sit.label(pc) {
            InstLabel::Unknown => {
                // Activate tracking on the first primary L1 miss.
                if !access.l1_hit && !access.secondary {
                    self.sit.set_label(pc, InstLabel::Observation);
                    self.sit.find_or_alloc(key, pc, addr, value);
                }
                None
            }
            InstLabel::Observation => {
                let upd = self.sit.update(key, pc, addr, value);
                if let Some(u) = upd {
                    if u.same >= self.cfg.sit.stride_confirm {
                        self.sit.set_label(pc, InstLabel::Strided);
                    } else if u.diff >= NONSTRIDE_CONFIRM {
                        self.sit.set_label(pc, InstLabel::NonStrided);
                        // Keep loads in the SIT — P1 investigates them;
                        // stores are released.
                        if !inst.is_load() {
                            self.sit.release(key);
                        }
                    }
                }
                upd
            }
            InstLabel::Strided => {
                let upd = self.sit.update(key, pc, addr, value);
                if let Some(u) = upd {
                    if u.diff >= NONSTRIDE_CONFIRM {
                        // The stream broke; fall back to observation.
                        self.sit.set_label(pc, InstLabel::Observation);
                    }
                }
                upd
            }
            InstLabel::NonStrided => {
                // Loads stay tracked for P1's value-based patterns.
                if inst.is_load() {
                    self.sit.update(key, pc, addr, value)
                } else {
                    None
                }
            }
        }
    }

    /// T2's prefetch issue for a strided (or early-issue) instruction.
    fn t2_issue(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        let key = self.key_of(ev);
        let pc = ev.inst.pc;
        // Large-stride *store* streams are not worth prefetching: the
        // store buffer already hides write latency, while the write-
        // allocate fetches would burn DRAM bandwidth on lines that are
        // about to be overwritten anyway.
        if !ev.inst.is_load() {
            if let Some(e) = self.sit.entry(key) {
                if e.delta.unsigned_abs() >= LARGE_STRIDE {
                    return;
                }
            }
        }
        let label = self.sit.label(pc);
        let eligible = match label {
            InstLabel::Strided => true,
            InstLabel::Observation => self
                .sit
                .entry(key)
                .map(|e| e.same >= self.cfg.sit.early_issue)
                .unwrap_or(false),
            _ => false,
        };
        if !eligible {
            return;
        }
        let mut d = self.distance();
        let Some(e) = self.sit.entry_mut(key) else {
            return;
        };
        if e.delta == 0 {
            return;
        }
        let aop = e.aop_delta.is_some();
        if aop && self.cfg.p1_double_distance {
            // Doubled distance compensates the back-to-back producer /
            // consumer pair (Sec. IV-B1).
            d = d.saturating_mul(2).min(MAX_DISTANCE * 2);
        }
        // Large-stride streams go to L2: a stride of KBs maps onto only a
        // handful of L1 sets, so running ahead in L1 just thrashes them,
        // while L2's set count absorbs the same footprint comfortably.
        let stride_mag = e.delta.unsigned_abs().max(1);
        let (dest, max_ahead) = if stride_mag >= LARGE_STRIDE {
            (CacheLevel::L2, 2 * MAX_AHEAD_BYTES)
        } else {
            (CacheLevel::L1, MAX_AHEAD_BYTES)
        };
        // Byte-distance cap.
        d = d.min(((max_ahead / stride_mag) as u32).max(1));
        let delta = e.delta;
        let addr = e.last_addr;
        let target = addr.wrapping_add((delta as i128 * d as i128) as u64);
        let mut frontier = e.frontier;
        let mut issued = 0;
        while issued < CATCH_UP_BURST {
            let next = frontier.wrapping_add(delta as u64);
            let beyond = if delta > 0 {
                next > target
            } else {
                next < target
            };
            if beyond || next <= 4096 {
                break;
            }
            frontier = next;
            issued += 1;
            out.push(PrefetchRequest {
                addr: next,
                dest,
                origin: crate::origins::T2,
                confidence: CONF_T2,
                want_value: aop,
            });
            if aop {
                self.p1.register_future_pointer(next, key);
            }
        }
        if issued > 0 {
            if let Some(e) = self.sit.entry_mut(key) {
                e.frontier = frontier;
            }
        }
    }
}

impl Prefetcher for Tpc {
    fn name(&self) -> &str {
        &self.name
    }

    /// Storage per Table II, composed from the enabled components:
    /// T2 ≈ 2.3 KB (32-entry SIT + 2 KB of I-cache state bits + loop
    /// hardware), P1 ≈ 1.07 KB (its own small SIT share is inside P1's
    /// budget), C1 ≈ 1.2 KB; TPC ≈ 4.57 KB.
    fn storage_bits(&self) -> u64 {
        let mut bits = 0;
        if self.cfg.issue_t2 {
            bits += self.sit.storage_bits() + self.loop_hw.storage_bits();
        }
        if self.cfg.issue_p1 {
            bits += self.p1.storage_bits();
        }
        if self.cfg.issue_c1 {
            bits += self.c1.storage_bits();
        }
        bits
    }

    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        let inst = ev.inst;

        // Loop hardware watches taken backward branches.
        if inst.is_backward_branch() {
            if let InstKind::Branch { target, .. } = inst.kind {
                self.loop_hw.on_backward_branch(inst.pc, target, ev.now);
            }
        }

        // Miss-service-time estimate: the prefetch distance must cover
        // the cost of a *miss* (an EMA over all accesses would be
        // dominated by L1 hits and leave prefetches chronically late).
        if let Some(a) = ev.access {
            if !a.l1_hit && !a.secondary {
                // EMA with 1/16 weight in Q4.
                self.amat = self.amat - (self.amat >> 4) + a.latency;
            }
        }

        // T2: observe and (maybe) issue.
        let upd = self.t2_observe(ev);
        if self.cfg.issue_t2 {
            self.t2_issue(ev, out);
        }

        // P1 sees every retired instruction (taint propagation).
        if self.cfg.issue_p1 {
            self.p1.on_retire(ev, &mut self.sit, upd, out);
        }

        // C1 last: observes all accesses for region density, but only
        // admits candidates T2/P1 did not claim.
        if self.cfg.issue_c1 {
            if let (Some(access), Some(addr)) = (ev.access, inst.mem_addr()) {
                let key = self.key_of(ev);
                let claimed = matches!(self.sit.label(inst.pc), InstLabel::Strided)
                    || (self.cfg.issue_p1 && self.p1.claims(&self.sit, key));
                self.c1.observe_gated(inst.pc, addr, &access, !claimed, out);
            }
        }
    }

    fn on_prefetch_complete(&mut self, pf: &CompletedPrefetch, out: &mut Vec<PrefetchRequest>) {
        if self.cfg.issue_p1 {
            self.p1
                .on_prefetch_complete(pf.addr, pf.value, &self.sit, out);
        }
    }

    fn claims_pc(&self, mpc: u64) -> bool {
        if let Some(e) = self.sit.entry(mpc) {
            if e.stable_for(self.cfg.sit.early_issue) {
                return true;
            }
        }
        if self.cfg.issue_p1 && self.p1.claims(&self.sit, mpc) {
            return true;
        }
        self.cfg.issue_c1 && self.c1.is_dense_pc(mpc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::AccessInfo;
    use dol_isa::{Reg, RetiredInst};
    use dol_mem::Origin;

    fn load(pc: u64, addr: u64, value: u64) -> RetiredInst {
        RetiredInst {
            pc,
            kind: InstKind::Load { addr, value },
            dst: Some(Reg::R1),
            srcs: [Some(Reg::R2), None],
        }
    }

    fn branch(pc: u64, target: u64) -> RetiredInst {
        RetiredInst {
            pc,
            kind: InstKind::Branch {
                taken: true,
                target,
            },
            dst: None,
            srcs: [Some(Reg::R3), None],
        }
    }

    fn store(pc: u64, addr: u64) -> RetiredInst {
        RetiredInst {
            pc,
            kind: InstKind::Store { addr },
            dst: None,
            srcs: [Some(Reg::R1), Some(Reg::R2)],
        }
    }

    /// A loop of `n` iterations whose one load walks a `stride`-byte
    /// stream from 0x10_0000.
    fn drive_stream(tpc: &mut Tpc, n: u64, stride: u64) -> Vec<PrefetchRequest> {
        drive_insts(tpc, n, stride, |pc, addr| load(pc, addr, 0))
    }

    /// [`drive_stream`] with a store in place of the load.
    fn drive_store_stream(tpc: &mut Tpc, n: u64, stride: u64) -> Vec<PrefetchRequest> {
        drive_insts(tpc, n, stride, store)
    }

    fn drive_insts(
        tpc: &mut Tpc,
        n: u64,
        stride: u64,
        mem: impl Fn(u64, u64) -> RetiredInst,
    ) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for i in 0..n {
            let now = i * 10;
            let inst = mem(0x100, 0x10_0000 + i * stride);
            let hit = i > 0 && stride < 64; // same line keeps hitting
            let ev = RetireInfo {
                now,
                inst: &inst,
                mpc: inst.pc,
                access: Some(AccessInfo {
                    l1_hit: hit,
                    secondary: false,
                    latency: if hit { 3 } else { 200 },
                    served_by_prefetch: None,
                }),
            };
            tpc.on_retire(&ev, &mut out);
            let b = branch(0x200, 0x100);
            let ev = RetireInfo {
                now: now + 5,
                inst: &b,
                mpc: b.pc,
                access: None,
            };
            tpc.on_retire(&ev, &mut out);
        }
        out
    }

    #[test]
    fn t2_prefetches_a_strided_stream_in_order() {
        let mut tpc = Tpc::t2_only();
        let reqs = drive_stream(&mut tpc, 64, 64);
        assert!(!reqs.is_empty());
        // All T2-origin, destined L1, addresses strictly increasing along
        // the stream.
        assert!(reqs.iter().all(|r| r.origin == crate::origins::T2));
        assert!(reqs.iter().all(|r| r.dest == CacheLevel::L1));
        let addrs: Vec<u64> = reqs.iter().map(|r| r.addr).collect();
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(addrs.len(), sorted.len(), "no duplicate prefetch addresses");
        assert!(addrs.windows(2).all(|w| w[0] < w[1]));
        // Prefetches run ahead of the demand stream.
        assert!(*addrs.last().unwrap() > 0x10_0000 + 63 * 64);
    }

    #[test]
    fn t2_destination_follows_stride_and_kind() {
        // Small-stride load stream: L1.
        let reqs = drive_stream(&mut Tpc::t2_only(), 64, 64);
        assert!(!reqs.is_empty());
        assert!(reqs.iter().all(|r| r.dest == CacheLevel::L1));

        // 4 KB-stride load stream: L2, capped at 2 × 16 KiB / 4096 = 8
        // strides past the last demand access (the AMAT-based distance
        // alone would run further).
        let (n, stride) = (64, 4096);
        let mut tpc = Tpc::t2_only();
        let reqs = drive_stream(&mut tpc, n, stride);
        assert!(tpc.distance() > 8);
        assert!(!reqs.is_empty());
        assert!(reqs.iter().all(|r| r.dest == CacheLevel::L2));
        let last_demand = 0x10_0000 + (n - 1) * stride;
        let furthest = reqs.iter().map(|r| r.addr).max().unwrap();
        assert_eq!((furthest - last_demand) / stride, 8);

        // Store streams: a small stride prefetches, a stride of 2 KB or
        // more issues nothing.
        assert!(!drive_store_stream(&mut Tpc::t2_only(), 64, 64).is_empty());
        assert!(drive_store_stream(&mut Tpc::t2_only(), 64, 2048).is_empty());
        assert!(drive_store_stream(&mut Tpc::t2_only(), 64, 4096).is_empty());
    }

    #[test]
    fn t2_respects_distance_from_amat_and_t_iter() {
        let mut tpc = Tpc::t2_only();
        drive_stream(&mut tpc, 32, 64);
        let d = tpc.distance();
        // AMAT fed with a mix of ~200-cycle misses; T_iter ≈ 10.
        assert!((2..=64).contains(&d), "distance in clamp range, got {d}");
        assert!(tpc.loop_hardware().active_loop().is_some());
    }

    #[test]
    fn t2_ignores_non_strided_streams() {
        let mut tpc = Tpc::t2_only();
        let mut out = Vec::new();
        // Pseudo-random addresses: never a stable delta.
        let mut a = 0x10_0000u64;
        for i in 0..100 {
            a = a
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = (0x10_0000 + (a % (1 << 20))) & !7;
            let inst = load(0x100, addr, 0);
            let ev = RetireInfo {
                now: i * 10,
                inst: &inst,
                mpc: inst.pc,
                access: Some(AccessInfo {
                    l1_hit: false,
                    secondary: false,
                    latency: 200,
                    served_by_prefetch: None,
                }),
            };
            tpc.on_retire(&ev, &mut out);
        }
        assert!(out.is_empty(), "no prefetch for random accesses: {out:?}");
        assert_eq!(tpc.sit().label(0x100), InstLabel::NonStrided);
    }

    #[test]
    fn label_walks_unknown_observation_strided() {
        let mut tpc = Tpc::t2_only();
        // First access hits: stays Unknown.
        let inst = load(0x100, 0x10_0000, 0);
        let ev = RetireInfo {
            now: 0,
            inst: &inst,
            mpc: 0x100,
            access: Some(AccessInfo {
                l1_hit: true,
                secondary: false,
                latency: 3,
                served_by_prefetch: None,
            }),
        };
        let mut out = Vec::new();
        tpc.on_retire(&ev, &mut out);
        assert_eq!(tpc.sit().label(0x100), InstLabel::Unknown);
        // Then a missing strided stream promotes it.
        drive_stream(&mut tpc, 40, 64);
        assert_eq!(tpc.sit().label(0x100), InstLabel::Strided);
    }

    #[test]
    fn mpc_separates_call_sites_plain_pc_conflates() {
        // Two interleaved streams through the same pc but different mPCs:
        // with mPC keying both are detected; with plain PC the deltas
        // keep flip-flopping and nothing is ever prefetched.
        let run = |use_mpc: bool| -> usize {
            let mut tpc = if use_mpc {
                Tpc::t2_only()
            } else {
                TpcBuilder::new().p1(false).c1(false).plain_pc().build()
            };
            let mut out = Vec::new();
            for i in 0..80u64 {
                for (site, base) in [(0xAAAAu64, 0x10_0000u64), (0x5555, 0x80_0000)] {
                    let inst = load(0x100, base + i * 64, 0);
                    let ev = RetireInfo {
                        now: i * 20,
                        inst: &inst,
                        mpc: inst.pc ^ site,
                        access: Some(AccessInfo {
                            l1_hit: false,
                            secondary: false,
                            latency: 150,
                            served_by_prefetch: None,
                        }),
                    };
                    tpc.on_retire(&ev, &mut out);
                }
            }
            out.len()
        };
        let with_mpc = run(true);
        let plain = run(false);
        assert!(with_mpc > plain, "mPC must help: {with_mpc} vs {plain}");
        assert!(with_mpc > 0);
    }

    #[test]
    fn partial_builds_have_expected_names_and_storage() {
        assert_eq!(Tpc::t2_only().name(), "T2");
        assert_eq!(Tpc::p1_only().name(), "P1");
        assert_eq!(Tpc::full().name(), "TPC");
        let t2_kb = Tpc::t2_only().storage_bits() as f64 / 8192.0;
        let tpc_kb = Tpc::full().storage_bits() as f64 / 8192.0;
        assert!(
            (2.0..3.0).contains(&t2_kb),
            "Table II: T2 ≈ 2.3 KB, got {t2_kb:.2}"
        );
        assert!(
            (4.0..5.5).contains(&tpc_kb),
            "Table II: TPC ≈ 4.57 KB, got {tpc_kb:.2}"
        );
        assert!(tpc_kb > t2_kb);
        // Exact bit counts, so a mistyped table size cannot hide inside
        // the KB ranges above. T2 = 32-entry SIT (32 × 64) + 8192 labels
        // × 2 + NLPCT (20 × 32) + loop register and timer (128); P1 =
        // 48 + 8 × 64 + 64 + 8 Kib; C1 = IM (16 × 40) + RM (16 × 78) +
        // 8 Kib of decisions.
        let c1 = TpcBuilder::new().t2(false).p1(false).name("C1").build();
        assert_eq!(Tpc::t2_only().storage_bits(), 19_200);
        assert_eq!(Tpc::p1_only().storage_bits(), 8_816);
        assert_eq!(c1.storage_bits(), 10_080);
        assert_eq!(Tpc::full().storage_bits(), 19_200 + 8_816 + 10_080);
    }

    #[test]
    fn claims_strided_pcs() {
        let mut tpc = Tpc::full();
        drive_stream(&mut tpc, 40, 64);
        assert!(tpc.claims_pc(0x100));
        assert!(!tpc.claims_pc(0x9999));
    }

    #[test]
    fn c1_component_fires_inside_tpc_for_dense_irregular() {
        let mut tpc = Tpc::full();
        let mut out = Vec::new();
        // Irregular-within-region accesses: offsets jump around inside
        // each 1 KiB region, regions advance; deltas never stabilize.
        let offsets = [0u64, 5, 2, 7, 3, 6, 1, 4, 9, 12, 10, 15];
        for r in 0..60u64 {
            for (k, off) in offsets.iter().enumerate() {
                let addr = r * 1024 * 4 + off * 64 + 0x100_0000;
                let inst = load(0x300, addr, 0);
                let ev = RetireInfo {
                    now: r * 100 + k as u64,
                    inst: &inst,
                    mpc: 0x300,
                    access: Some(AccessInfo {
                        l1_hit: k > 0,
                        secondary: false,
                        latency: if k == 0 { 200 } else { 3 },
                        served_by_prefetch: None,
                    }),
                };
                tpc.on_retire(&ev, &mut out);
            }
        }
        let c1_reqs: Vec<_> = out
            .iter()
            .filter(|r| r.origin == crate::origins::C1)
            .collect();
        assert!(
            !c1_reqs.is_empty(),
            "C1 must fire on dense irregular regions"
        );
        assert!(
            c1_reqs.iter().all(|r| r.dest == CacheLevel::L2),
            "C1 prefetches to L2"
        );
    }

    #[test]
    fn prefetch_complete_routes_to_p1() {
        // Smoke test: completing an unknown prefetch is harmless.
        let mut tpc = Tpc::full();
        let mut out = Vec::new();
        tpc.on_prefetch_complete(
            &CompletedPrefetch {
                now: 0,
                addr: 0x1234,
                origin: Origin(9),
                value: 7,
            },
            &mut out,
        );
        assert!(out.is_empty());
    }
}
