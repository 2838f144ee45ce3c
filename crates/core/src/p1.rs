//! P1 — the pointer-pattern component (the paper's Sec. IV-B).
//!
//! P1 targets two pointer patterns that admit *timely* prefetching with
//! simple finite state machines:
//!
//! 1. **Array of pointers**: a load `j` whose address is always a strided
//!    load `i`'s *value* plus a constant offset. Detection uses a taint
//!    propagation circuit over the logical registers: starting from `i`'s
//!    destination, taint flows through dependent instructions until `i`
//!    retires again; tainted loads are candidates, confirmed when
//!    `addr(j) − value(i)` stays constant for four iterations. In steady
//!    state, every value produced by `i` (demand *or* prefetched — T2
//!    doubles `i`'s prefetch distance and asks for the values of its
//!    stride prefetches) yields a prefetch of `value + Δ`.
//! 2. **Pointer chains**: a load `i` whose address register transitively
//!    depends on its own previous destination. The chain FSM can only
//!    issue the next prefetch after the previous one returns a value, so
//!    it has a catch-up phase (serialized walks ahead of the program) and
//!    a steady state (one step per retire of `i`), plus a timeout-based
//!    correction that resets the FSM when the program leaves the
//!    predicted path.

use crate::sit::{Sit, SitUpdate};
use crate::table::{AssocTable, Geometry};
use crate::{PrefetchRequest, RetireInfo, CONF_P1};
use dol_isa::InstKind;
use dol_mem::{CacheLevel, Origin};

/// Where P1 prefetches land: L1, its accuracy warrants it (Sec. IV-D).
const DEST: CacheLevel = CacheLevel::L1;

/// Iterations of a constant value→address delta that confirm a pointer
/// pattern: the paper's four (Sec. IV-B1).
const PTR_CONFIRM: u32 = 4;

/// Instances of the investigated instruction before P1 gives up and
/// moves on to another candidate. The paper does not give the bound;
/// this is the model's choice.
const INVESTIGATION_ITERS: u32 = 24;

/// Steady-state chain prefetch depth, in nodes ahead of the program
/// (the model's choice; the paper's FSM walks "ahead", Sec. IV-B2).
const CHAIN_DEPTH: u32 = 4;

/// Consecutive unpredicted addresses before a chain FSM resets: the
/// paper's time-out correction (Sec. IV-B2), with the model's bound.
const CHAIN_TIMEOUT: u32 = 8;

/// Concurrent chain FSMs, inside P1's 1 KB of state bits (Table II).
const CHAIN_ENTRIES: usize = 8;

/// Outstanding future-pointer value requests (the model's bound).
const PENDING_VALUES: usize = 64;

#[derive(Debug, Clone)]
struct Candidate {
    pc: u64,
    delta: i64,
    count: u32,
}

#[derive(Debug, Clone)]
struct Investigation {
    /// mPC of the instruction under investigation (the PtrPC register).
    mpc: u64,
    /// Destination register index of the investigated load.
    dst: u8,
    /// Value of its most recent instance.
    last_value: u64,
    /// Whether the investigated instruction is currently strided (an
    /// array-of-pointers producer must be).
    strided: bool,
    iters: u32,
    candidates: Vec<Candidate>,
    /// Consecutive stable `addr − previous value` deltas on the
    /// instruction itself (chain confirmation).
    chain_delta: i64,
    chain_count: u32,
    /// The investigated instruction's address base was tainted by its own
    /// previous destination this iteration.
    self_dep: bool,
}

#[derive(Debug, Clone, Copy, Default)]
struct ChainFsm {
    /// Byte offset from a node's value to the next node's address.
    delta: i64,
    /// Address of the deepest prefetched node.
    frontier: u64,
    /// Prefetched nodes not yet consumed by the program.
    ahead: u32,
    /// A chained prefetch is in flight (serialization point).
    waiting: bool,
    /// Retires of the instruction since a prefetched address matched.
    misses_in_a_row: u32,
}

/// The P1 pointer component. Operates on the (shared) [`Sit`].
#[derive(Debug, Clone)]
pub struct P1 {
    origin: Origin,
    /// Taint bit per logical register.
    taint: u32,
    investigating: Option<Investigation>,
    /// Fully-associative LRU table of concurrent chain FSMs
    /// (`CHAIN_ENTRIES` ways in one set — the hardware holds a handful
    /// of serialized walkers).
    chains: AssocTable<ChainFsm>,
    /// Confirmed array-of-pointers *target* pcs (the dependent loads).
    aop_targets: Vec<u64>,
    /// `prefetch addr → producer mpc` for outstanding future-pointer
    /// value requests.
    pending: Vec<(u64, u64)>,
}

impl P1 {
    pub(crate) fn new(origin: Origin) -> Self {
        P1 {
            origin,
            taint: 0,
            investigating: None,
            chains: AssocTable::new(Geometry::assoc(1, CHAIN_ENTRIES, 48, 112)),
            aop_targets: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Table II: 1-entry PtrPC (48b) + an 8-entry SIT share (8 × 64b) +
    /// 64-bit TPU + 1 KB of state bits (chain FSMs, candidate counters)
    /// ≈ 1.07 KB.
    pub(crate) fn storage_bits(&self) -> u64 {
        48 + 8 * 64 + 64 + 8 * 1024
    }

    /// Whether P1 has claimed `mpc` as one of its targets.
    pub(crate) fn claims(&self, sit: &Sit, mpc: u64) -> bool {
        if self.chains.contains(mpc) || self.aop_targets.contains(&mpc) {
            return true;
        }
        sit.entry(mpc)
            .map(|e| e.aop_delta.is_some() || e.chain_delta.is_some())
            .unwrap_or(false)
    }

    /// Remembers a `want_value` prefetch so its completion can be routed
    /// back: T2 calls this for an array-of-pointers producer's stride
    /// prefetches, and the chain FSM for each node it walks.
    pub(crate) fn register_future_pointer(&mut self, addr: u64, producer_mpc: u64) {
        if self.pending.len() >= PENDING_VALUES {
            self.pending.remove(0);
        }
        self.pending.push((addr, producer_mpc));
    }

    /// Observe one retired instruction (all kinds — taint propagation
    /// needs ALU instructions too).
    pub(crate) fn on_retire(
        &mut self,
        ev: &RetireInfo<'_>,
        sit: &mut Sit,
        sit_update: Option<SitUpdate>,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let inst = ev.inst;

        // --- Taint propagation (the TPU at the decoder) ---
        let mut addr_base_tainted = false;
        if self.investigating.is_some() {
            if let Some(base) = inst.srcs[0] {
                addr_base_tainted = inst.is_mem() && self.taint & (1 << base.index()) != 0;
            }
            let any_src_tainted = inst
                .srcs
                .iter()
                .flatten()
                .any(|r| self.taint & (1 << r.index()) != 0);
            if let Some(dst) = inst.dst {
                if any_src_tainted {
                    self.taint |= 1 << dst.index();
                } else {
                    self.taint &= !(1 << dst.index());
                }
            }
        }

        let InstKind::Load { addr, value } = inst.kind else {
            return;
        };

        // --- Investigation bookkeeping ---
        let is_investigated = self
            .investigating
            .as_ref()
            .map(|inv| inv.mpc == ev.mpc)
            .unwrap_or(false);
        if is_investigated {
            self.step_investigation(ev.mpc, addr, value, addr_base_tainted, sit_update, sit);
        } else if let Some(inv) = &mut self.investigating {
            // A tainted load other than `i` is an array-of-pointers
            // candidate (only meaningful under a strided producer).
            if addr_base_tainted && inv.strided {
                let delta = addr.wrapping_sub(inv.last_value) as i64;
                match inv.candidates.iter_mut().find(|c| c.pc == inst.pc) {
                    Some(c) if c.delta == delta => c.count += 1,
                    Some(c) => {
                        c.delta = delta;
                        c.count = 1;
                    }
                    None => {
                        if inv.candidates.len() < 4 {
                            inv.candidates.push(Candidate {
                                pc: inst.pc,
                                delta,
                                count: 1,
                            });
                        }
                    }
                }
                if let Some(c) = inv.candidates.iter().find(|c| c.count >= PTR_CONFIRM) {
                    // Confirm: mark the producer in the SIT.
                    let (mpc, delta, target_pc) = (inv.mpc, c.delta, c.pc);
                    if let Some(e) = sit.entry_mut(mpc) {
                        e.aop_delta = Some(delta);
                    }
                    if !self.aop_targets.contains(&target_pc) {
                        if self.aop_targets.len() >= 16 {
                            self.aop_targets.remove(0);
                        }
                        self.aop_targets.push(target_pc);
                    }
                    self.investigating = None;
                }
            }
        } else {
            // No investigation running: adopt this load if the SIT knows
            // it and it is not yet classified.
            self.maybe_start_investigation(ev.mpc, inst.dst.map(|r| r.index() as u8), value, sit);
        }

        // --- Steady state ---
        let entry = sit.entry(ev.mpc).copied();
        if let Some(e) = entry {
            if let Some(delta) = e.aop_delta {
                // Every observed pointer value yields a target prefetch.
                let target = value.wrapping_add(delta as u64);
                if target > 4096 {
                    out.push(PrefetchRequest::new(target, DEST, self.origin, CONF_P1));
                }
            }
            if let Some(delta) = e.chain_delta {
                self.step_chain(ev.mpc, delta, addr, value, out);
            }
        }
    }

    fn maybe_start_investigation(&mut self, mpc: u64, dst: Option<u8>, value: u64, sit: &Sit) {
        let Some(dst) = dst else { return };
        let Some(e) = sit.entry(mpc) else { return };
        if e.aop_delta.is_some() || e.chain_delta.is_some() {
            return;
        }
        // Only investigate promising loads: stable-strided ones are
        // array-of-pointers producer candidates; loads with changing
        // deltas are pointer-chain candidates. Fresh entries are neither.
        if !e.stable_for(4) && e.diff < 2 {
            return;
        }
        self.taint = 1 << dst;
        self.investigating = Some(Investigation {
            mpc,
            dst,
            last_value: value,
            strided: e.stable_for(4),
            iters: 0,
            candidates: Vec::new(),
            chain_delta: 0,
            chain_count: 0,
            self_dep: false,
        });
    }

    fn step_investigation(
        &mut self,
        mpc: u64,
        _addr: u64,
        value: u64,
        addr_base_tainted: bool,
        sit_update: Option<SitUpdate>,
        sit: &mut Sit,
    ) {
        let Some(inv) = &mut self.investigating else {
            return;
        };
        inv.iters += 1;
        inv.self_dep = addr_base_tainted;

        // Pointer-chain check: self-dependent address with a stable
        // value→address delta.
        if let Some(u) = sit_update {
            if addr_base_tainted {
                if u.value_to_addr == inv.chain_delta && inv.chain_count > 0 {
                    inv.chain_count += 1;
                } else {
                    inv.chain_delta = u.value_to_addr;
                    inv.chain_count = 1;
                }
                if inv.chain_count >= PTR_CONFIRM {
                    let delta = inv.chain_delta;
                    if let Some(e) = sit.entry_mut(mpc) {
                        e.chain_delta = Some(delta);
                    }
                    // LRU replacement inside the fixed FSM table.
                    self.chains.get_or_insert_with(mpc, || ChainFsm {
                        delta,
                        frontier: 0,
                        ahead: 0,
                        waiting: false,
                        misses_in_a_row: 0,
                    });
                    self.investigating = None;
                    return;
                }
            }
        }

        inv.last_value = value;
        // Restart taint from i's destination each iteration (the paper's
        // "process stops when instruction i is encountered again").
        let dst = inv.dst;
        let give_up = inv.iters >= INVESTIGATION_ITERS;
        self.taint = 1 << dst;
        if give_up {
            self.investigating = None;
        }
    }

    fn step_chain(
        &mut self,
        mpc: u64,
        delta: i64,
        addr: u64,
        value: u64,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let Some(fsm) = self.chains.get_mut(mpc) else {
            self.chains.insert(
                mpc,
                ChainFsm {
                    delta,
                    frontier: 0,
                    ahead: 0,
                    waiting: false,
                    misses_in_a_row: 0,
                },
            );
            return;
        };
        // Correction: did the program land where we prefetched?
        if fsm.ahead > 0 {
            fsm.ahead -= 1; // the program consumed one node
            fsm.misses_in_a_row = 0;
        } else {
            fsm.misses_in_a_row += 1;
            if fsm.misses_in_a_row >= CHAIN_TIMEOUT {
                // Reset the FSM; re-anchor at the current position.
                fsm.ahead = 0;
                fsm.waiting = false;
                fsm.misses_in_a_row = 0;
            }
        }
        let _ = addr;
        // Catch-up / steady state: walk ahead from the current value.
        if !fsm.waiting && fsm.ahead < CHAIN_DEPTH {
            let next = value.wrapping_add(delta as u64);
            if next > 4096 {
                fsm.frontier = next;
                fsm.waiting = true;
                out.push(PrefetchRequest {
                    addr: next,
                    dest: DEST,
                    origin: self.origin,
                    confidence: CONF_P1,
                    want_value: true,
                });
                self.register_future_pointer(next, mpc);
            }
        }
    }

    /// A `want_value` prefetch completed; continue chains and
    /// array-of-pointers streams.
    pub(crate) fn on_prefetch_complete(
        &mut self,
        addr: u64,
        value: u64,
        sit: &Sit,
        out: &mut Vec<PrefetchRequest>,
    ) {
        let Some(pos) = self.pending.iter().position(|&(a, _)| a == addr) else {
            return;
        };
        let (_, mpc) = self.pending.remove(pos);

        // Chain continuation: the value is the next node pointer.
        if let Some(fsm) = self.chains.get_mut(mpc) {
            fsm.waiting = false;
            fsm.ahead += 1;
            if fsm.ahead < CHAIN_DEPTH {
                let next = value.wrapping_add(fsm.delta as u64);
                if next > 4096 && next != fsm.frontier {
                    fsm.frontier = next;
                    fsm.waiting = true;
                    let origin = self.origin;
                    out.push(PrefetchRequest {
                        addr: next,
                        dest: DEST,
                        origin,
                        confidence: CONF_P1,
                        want_value: true,
                    });
                    self.register_future_pointer(next, mpc);
                }
            }
            return;
        }

        // Array-of-pointers: the value is a future element of the pointer
        // array — prefetch what it points to.
        if let Some(e) = sit.entry(mpc) {
            if let Some(delta) = e.aop_delta {
                let target = value.wrapping_add(delta as u64);
                if target > 4096 {
                    out.push(PrefetchRequest::new(target, DEST, self.origin, CONF_P1));
                }
            }
        }
    }

    /// Number of active chain FSMs (test observability).
    #[allow(dead_code)]
    pub(crate) fn chain_count(&self) -> usize {
        self.chains.live()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::AccessInfo;
    use crate::sit::SitConfig;
    use dol_isa::{Reg, RetiredInst};

    fn load(pc: u64, addr: u64, value: u64, dst: Reg, base: Reg) -> RetiredInst {
        RetiredInst {
            pc,
            kind: InstKind::Load { addr, value },
            dst: Some(dst),
            srcs: [Some(base), None],
        }
    }

    fn alu(pc: u64, dst: Reg, src: Reg) -> RetiredInst {
        RetiredInst {
            pc,
            kind: InstKind::Alu { latency: 1 },
            dst: Some(dst),
            srcs: [Some(src), None],
        }
    }

    fn retire<'a>(inst: &'a RetiredInst, now: u64) -> RetireInfo<'a> {
        RetireInfo {
            now,
            inst,
            mpc: inst.pc,
            access: inst.mem_addr().map(|_| AccessInfo {
                l1_hit: false,
                secondary: false,
                latency: 100,
                served_by_prefetch: None,
            }),
        }
    }

    fn drive(p1: &mut P1, sit: &mut Sit, inst: &RetiredInst, now: u64) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        let upd = match inst.kind {
            InstKind::Load { addr, value } => sit.update(inst.pc, inst.pc, addr, value),
            _ => None,
        };
        p1.on_retire(&retire(inst, now), sit, upd, &mut out);
        out
    }

    /// Simulated array-of-pointers loop: `i` strides through an array of
    /// pointers; `j` dereferences `value + 16`.
    #[test]
    fn detects_array_of_pointers() {
        let mut sit = Sit::new(SitConfig::default());
        let mut p1 = P1::new(Origin(2));
        let mut reqs = Vec::new();
        for n in 0..48u64 {
            let ptr_val = 0x10_0000 + n * 0x400; // pointers in the array
            let i = load(0x100, 0x8000 + n * 8, ptr_val, Reg::R1, Reg::R2);
            reqs.extend(drive(&mut p1, &mut sit, &i, n * 20));
            // j's address = i's value + 16, address register derived from R1.
            let t = alu(0x104, Reg::R3, Reg::R1);
            reqs.extend(drive(&mut p1, &mut sit, &t, n * 20 + 1));
            let j = load(0x108, ptr_val + 16, 0xdead, Reg::R4, Reg::R3);
            reqs.extend(drive(&mut p1, &mut sit, &j, n * 20 + 2));
        }
        let e = sit.entry(0x100).expect("producer tracked");
        assert_eq!(
            e.aop_delta,
            Some(16),
            "offset between value and j's address"
        );
        // Steady state: prefetches of value+16 are being issued.
        assert!(
            reqs.iter()
                .any(|r| r.addr % 0x400 == 16 && r.addr >= 0x10_0000),
            "AoP target prefetches must fire: {reqs:?}"
        );
        assert!(p1.claims(&sit, 0x100));
        assert!(p1.claims(&sit, 0x108), "dependent load claimed too");
    }

    /// Simulated linked-list walk: `addr(n+1) = value(n) + 8`.
    #[test]
    fn detects_pointer_chain_and_walks_ahead() {
        let mut sit = Sit::new(SitConfig::default());
        let mut p1 = P1::new(Origin(2));
        // Build a deterministic node sequence.
        let node = |k: u64| 0x20_0000 + k * 0x1000;
        let mut reqs = Vec::new();
        for n in 0..20u64 {
            // load r1 = [r1 + 8]: address = node(n)+8, value = node(n+1)
            let i = RetiredInst {
                pc: 0x200,
                kind: InstKind::Load {
                    addr: node(n) + 8,
                    value: node(n + 1),
                },
                dst: Some(Reg::R1),
                srcs: [Some(Reg::R1), None],
            };
            reqs.extend(drive(&mut p1, &mut sit, &i, n * 50));
        }
        let e = sit.entry(0x200).expect("chain load tracked");
        assert_eq!(e.chain_delta, Some(8));
        assert_eq!(p1.chain_count(), 1);
        // The FSM must have issued at least one want_value prefetch of a
        // future node's next-pointer field.
        let chained: Vec<_> = reqs.iter().filter(|r| r.want_value).collect();
        assert!(!chained.is_empty(), "chain prefetches must fire");
        assert!(chained.iter().all(|r| (r.addr - 8) % 0x1000 == 0));
    }

    #[test]
    fn chain_continues_on_prefetch_completion() {
        let mut sit = Sit::new(SitConfig::default());
        let mut p1 = P1::new(Origin(2));
        let node = |k: u64| 0x20_0000 + k * 0x1000;
        let mut reqs = Vec::new();
        for n in 0..20u64 {
            let i = RetiredInst {
                pc: 0x200,
                kind: InstKind::Load {
                    addr: node(n) + 8,
                    value: node(n + 1),
                },
                dst: Some(Reg::R1),
                srcs: [Some(Reg::R1), None],
            };
            reqs.extend(drive(&mut p1, &mut sit, &i, n * 50));
        }
        let first = *reqs
            .iter()
            .rfind(|r| r.want_value)
            .expect("a chained prefetch");
        // Complete it: the memory at node(k)+8 holds node(k+1).
        let k = (first.addr - 8 - 0x20_0000) / 0x1000;
        let mut out = Vec::new();
        p1.on_prefetch_complete(first.addr, node(k + 1), &sit, &mut out);
        // The FSM must take the next serialized step.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].addr, node(k + 1) + 8);
        assert!(out[0].want_value);
    }

    #[test]
    fn chain_resets_after_timeout_on_wrong_track() {
        let mut sit = Sit::new(SitConfig::default());
        let mut p1 = P1::new(Origin(2));
        let node = |k: u64| 0x20_0000 + k * 0x1000;
        for n in 0..10u64 {
            let i = RetiredInst {
                pc: 0x200,
                kind: InstKind::Load {
                    addr: node(n) + 8,
                    value: node(n + 1),
                },
                dst: Some(Reg::R1),
                srcs: [Some(Reg::R1), None],
            };
            drive(&mut p1, &mut sit, &i, n * 50);
        }
        assert_eq!(p1.chain_count(), 1);
        // Program jumps to a totally different list; FSM must keep
        // functioning (reset and re-anchor) without panicking.
        let mut fired_after_reset = false;
        for n in 0..20u64 {
            let i = RetiredInst {
                pc: 0x200,
                kind: InstKind::Load {
                    addr: 0x90_0000 + n * 0x2000 + 8,
                    value: 0x90_0000 + (n + 1) * 0x2000,
                },
                dst: Some(Reg::R1),
                srcs: [Some(Reg::R1), None],
            };
            let out = drive(&mut p1, &mut sit, &i, 1000 + n * 50);
            fired_after_reset |= !out.is_empty();
        }
        assert!(fired_after_reset, "FSM must recover after correction");
    }

    #[test]
    fn non_pointer_streams_stay_unclaimed() {
        let mut sit = Sit::new(SitConfig::default());
        let mut p1 = P1::new(Origin(2));
        // Plain strided loads with non-pointer values.
        for n in 0..40u64 {
            let i = load(0x300, 0x8000 + n * 64, n * 3 + 1, Reg::R1, Reg::R2);
            drive(&mut p1, &mut sit, &i, n * 10);
        }
        assert!(!p1.claims(&sit, 0x300));
        let e = sit.entry(0x300).unwrap();
        assert_eq!(e.aop_delta, None);
        assert_eq!(e.chain_delta, None);
    }
}
