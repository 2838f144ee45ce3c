//! C1 — the high-spatial-locality ("carpet bombing") region component
//! (the paper's Sec. IV-C).
//!
//! Some regions show so much spatial locality that fetching the whole
//! region — effectively lengthening the cache line — beats any clever
//! pattern matching. C1 finds the *instructions* whose accesses land in
//! dense regions: a Region Monitor (RM) tracks which lines of recently
//! touched 16-line regions were accessed, an Instruction Monitor (IM)
//! counts, per candidate instruction, how many of its regions turned out
//! dense, and instructions with a high dense-region probability trigger
//! full-region prefetches (to L2 — C1's accuracy is lower than T2/P1's,
//! so the coordinator keeps its lines out of L1).

use crate::table::{DirectTable, Geometry, RecentFilter};
use crate::{AccessInfo, PrefetchRequest, Prefetcher, RetireInfo, CONF_C1};
use dol_mem::{line_of, region_of, CacheLevel, Origin, LINE_BYTES, REGION_LINES};

/// Where C1 prefetches land: L2, since its accuracy is lower than
/// T2's and P1's (Sec. IV-D).
const DEST: CacheLevel = CacheLevel::L2;

/// Region Monitor entries: the paper's 16-entry RM (Table II).
const RM_ENTRIES: usize = 16;

/// Instruction Monitor entries: the paper's 16-entry IM (Table II). An
/// RM entry's `pc_vec` has one bit per IM entry.
const IM_ENTRIES: usize = 16;

/// Regions observed before deciding about an instruction (Sec. IV-C).
const DECISION_TOTAL: u32 = 4;

/// Remembered per-instruction decisions: a direct-mapped table that
/// models C1's 1 KB of state bits (Table II).
const DECIDED_ENTRIES: usize = 4096;

/// C1 settings an experiment varies (paper defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct C1Config {
    /// A region is *dense* when more than this many of its 16 line bits
    /// are set (6).
    pub dense_lines: u32,
    /// Decide *dense* when `dense/total` strictly exceeds this ratio
    /// (numerator, denominator) — the paper's 3/4.
    pub decision_ratio: (u32, u32),
}

impl Default for C1Config {
    fn default() -> Self {
        C1Config {
            dense_lines: 6,
            decision_ratio: (3, 4),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RmEntry {
    region: u64,
    line_vec: u16,
    pc_vec: u16,
    stamp: u64,
}

#[derive(Debug, Clone, Copy)]
struct ImEntry {
    pc: u64,
    total: u32,
    dense: u32,
}

#[derive(Debug, Clone, Copy)]
struct Decision {
    dense: bool,
    last_region: u64,
}

impl Default for Decision {
    fn default() -> Self {
        Decision {
            dense: false,
            last_region: u64::MAX,
        }
    }
}

/// The C1 region prefetcher component.
#[derive(Debug, Clone)]
pub struct C1 {
    cfg: C1Config,
    origin: Origin,
    rm: Vec<RmEntry>,
    im: Vec<Option<ImEntry>>,
    /// Per-instruction dense/sparse decisions: a direct-mapped table of
    /// `DECIDED_ENTRIES` slots (the modeled 1 KB of decision state); a
    /// colliding PC deterministically displaces the old decision.
    decided: DirectTable<Decision>,
    /// Recently prefetched regions (shared across trigger instructions),
    /// so several dense instructions walking the same region do not
    /// re-issue its lines.
    recent_regions: RecentFilter,
    clock: u64,
}

impl C1 {
    /// Creates the component with the given origin tag.
    pub fn new(cfg: C1Config, origin: Origin) -> Self {
        C1 {
            rm: Vec::with_capacity(RM_ENTRIES),
            im: vec![None; IM_ENTRIES],
            decided: DirectTable::new(Geometry::direct(DECIDED_ENTRIES, 16, 2)),
            recent_regions: RecentFilter::new(16),
            clock: 0,
            cfg,
            origin,
        }
    }

    /// Creates the component with paper-default configuration.
    pub fn with_origin(origin: Origin) -> Self {
        C1::new(C1Config::default(), origin)
    }

    /// Whether `pc` has been decided to access dense regions.
    pub fn is_dense_pc(&self, pc: u64) -> bool {
        self.decided.get(pc).map(|d| d.dense).unwrap_or(false)
    }

    fn im_index_of(&self, pc: u64) -> Option<usize> {
        self.im.iter().position(|e| e.map(|e| e.pc) == Some(pc))
    }

    fn retire_rm_entry(&mut self, entry: RmEntry) {
        let dense = entry.line_vec.count_ones() > self.cfg.dense_lines;
        for k in 0..IM_ENTRIES {
            if entry.pc_vec & (1 << k) == 0 {
                continue;
            }
            let Some(im) = self.im[k] else { continue };
            let mut im = im;
            im.total += 1;
            if dense {
                im.dense += 1;
            }
            if im.total >= DECISION_TOTAL {
                let (num, den) = self.cfg.decision_ratio;
                let is_dense = im.dense * den > num * im.total;
                self.remember_decision(im.pc, is_dense);
                self.im[k] = None; // vacate for another candidate
            } else {
                self.im[k] = Some(im);
            }
        }
    }

    fn remember_decision(&mut self, pc: u64, dense: bool) {
        self.decided.insert(
            pc,
            Decision {
                dense,
                last_region: u64::MAX,
            },
        );
    }

    /// Observe one memory access; may emit a region prefetch.
    pub fn observe(
        &mut self,
        pc: u64,
        addr: u64,
        access: &AccessInfo,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.observe_gated(pc, addr, access, true, out);
    }

    /// Like [`observe`](Self::observe), but only admits `pc` as a new
    /// monitoring candidate when `allow_candidate` is true. The TPC
    /// coordinator gates admission so instructions already claimed by T2
    /// or P1 never consume IM entries (division of labor, Sec. IV-D).
    pub fn observe_gated(
        &mut self,
        pc: u64,
        addr: u64,
        access: &AccessInfo,
        allow_candidate: bool,
        out: &mut Vec<PrefetchRequest>,
    ) {
        self.clock += 1;
        let region = region_of(addr);
        let line_in_region = (line_of(addr) % REGION_LINES) as u16;

        // Region Monitor update.
        let im_idx = self.im_index_of(pc);
        match self.rm.iter_mut().find(|e| e.region == region) {
            Some(e) => {
                e.line_vec |= 1 << line_in_region;
                if let Some(k) = im_idx {
                    e.pc_vec |= 1 << k;
                }
                e.stamp = self.clock;
            }
            None => {
                let fresh = RmEntry {
                    region,
                    line_vec: 1 << line_in_region,
                    pc_vec: im_idx.map(|k| 1u16 << k).unwrap_or(0),
                    stamp: self.clock,
                };
                if self.rm.len() < RM_ENTRIES {
                    self.rm.push(fresh);
                } else {
                    let victim = self
                        .rm
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.stamp)
                        .map(|(i, _)| i)
                        .expect("RM is non-empty");
                    let old = std::mem::replace(&mut self.rm[victim], fresh);
                    self.retire_rm_entry(old);
                }
            }
        }

        // Candidate admission: undecided instructions that miss in L1.
        if allow_candidate
            && !access.l1_hit
            && !access.secondary
            && !self.decided.contains(pc)
            && self.im_index_of(pc).is_none()
        {
            if let Some(slot) = self.im.iter().position(|e| e.is_none()) {
                self.im[slot] = Some(ImEntry {
                    pc,
                    total: 0,
                    dense: 0,
                });
                // Tie the current region to the new candidate.
                if let Some(e) = self.rm.iter_mut().find(|e| e.region == region) {
                    e.pc_vec |= 1 << slot;
                }
            }
        }

        // Region prefetch for decided-dense instructions, once per region
        // globally (a shared recent-region filter keeps multiple dense
        // instructions in the same region from re-issuing its lines).
        if let Some(d) = self.decided.get_mut(pc) {
            if d.dense && d.last_region != region && !self.recent_regions.contains(region) {
                d.last_region = region;
                self.recent_regions.push(region);
                let base_line = region * REGION_LINES;
                let this_line = line_of(addr);
                for i in 0..REGION_LINES {
                    let line = base_line + i;
                    if line == this_line {
                        continue; // the demand access fetches its own line
                    }
                    out.push(PrefetchRequest::new(
                        line * LINE_BYTES,
                        DEST,
                        self.origin,
                        CONF_C1,
                    ));
                }
            }
        }
    }
}

impl Prefetcher for C1 {
    fn name(&self) -> &str {
        "C1"
    }

    /// Table II: 16-entry IM (640 bits) + 16-entry RM (1248 bits) +
    /// 1 KB of decision state ≈ 1.2 KB.
    fn storage_bits(&self) -> u64 {
        IM_ENTRIES as u64 * 40 + RM_ENTRIES as u64 * 78 + 8 * 1024
    }

    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        let Some(access) = ev.access else { return };
        let Some(addr) = ev.inst.mem_addr() else {
            return;
        };
        self.observe(ev.inst.pc, addr, &access, out);
    }

    fn claims_pc(&self, mpc: u64) -> bool {
        // C1 keys by plain PC; mPC == PC for top-level code, and for
        // called code the xor only affects claims marginally.
        self.is_dense_pc(mpc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss_access() -> AccessInfo {
        AccessInfo {
            l1_hit: false,
            secondary: false,
            latency: 200,
            served_by_prefetch: None,
        }
    }

    fn hit_access() -> AccessInfo {
        AccessInfo {
            l1_hit: true,
            secondary: false,
            latency: 3,
            served_by_prefetch: None,
        }
    }

    /// Drive `pc` through `n` regions, touching `lines_per_region`
    /// distinct lines in each.
    fn train(
        c1: &mut C1,
        pc: u64,
        regions: std::ops::Range<u64>,
        lines_per_region: u64,
    ) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for r in regions {
            for l in 0..lines_per_region {
                let addr = r * REGION_LINES * LINE_BYTES + l * LINE_BYTES;
                let acc = if l == 0 { miss_access() } else { hit_access() };
                c1.observe(pc, addr, &acc, &mut out);
            }
        }
        out
    }

    #[test]
    fn dense_instruction_gets_marked_and_prefetches() {
        let mut c1 = C1::with_origin(Origin(3));
        // 8 regions × 12 lines each: dense. RM is 16 entries so old
        // regions only retire via... RM never fills with 8 regions; force
        // eviction by touching many regions.
        let out = train(&mut c1, 0x100, 0..40, 12);
        assert!(c1.is_dense_pc(0x100), "instruction must be decided dense");
        assert!(!out.is_empty(), "region prefetches must fire");
        // All requests go to L2 with C1's confidence.
        assert!(out
            .iter()
            .all(|r| r.dest == CacheLevel::L2 && r.confidence == CONF_C1));
    }

    #[test]
    fn sparse_instruction_is_rejected() {
        let mut c1 = C1::with_origin(Origin(3));
        let out = train(&mut c1, 0x100, 0..40, 2); // only 2 lines per region
        assert!(!c1.is_dense_pc(0x100));
        assert!(out.is_empty());
    }

    #[test]
    fn one_region_prefetch_covers_15_other_lines() {
        let mut c1 = C1::with_origin(Origin(3));
        train(&mut c1, 0x100, 0..40, 12);
        // Now touch a brand-new region once.
        let mut out = Vec::new();
        let region = 1000u64;
        c1.observe(
            0x100,
            region * REGION_LINES * LINE_BYTES,
            &miss_access(),
            &mut out,
        );
        assert_eq!(out.len(), (REGION_LINES - 1) as usize);
        let lines: std::collections::BTreeSet<u64> = out.iter().map(|r| line_of(r.addr)).collect();
        assert_eq!(lines.len(), 15, "15 distinct lines");
        assert!(lines.iter().all(|l| region_of(l * LINE_BYTES) == region));
    }

    #[test]
    fn same_region_not_prefetched_twice() {
        let mut c1 = C1::with_origin(Origin(3));
        train(&mut c1, 0x100, 0..40, 12);
        let mut out = Vec::new();
        let base = 2000 * REGION_LINES * LINE_BYTES;
        c1.observe(0x100, base, &miss_access(), &mut out);
        let first = out.len();
        c1.observe(0x100, base + 64, &hit_access(), &mut out);
        c1.observe(0x100, base + 128, &hit_access(), &mut out);
        assert_eq!(out.len(), first, "no repeat prefetch inside one region");
    }

    #[test]
    fn decisions_are_per_instruction() {
        let mut c1 = C1::with_origin(Origin(3));
        train(&mut c1, 0x100, 0..40, 12);
        // A different pc in sparse regions must not ride 0x100's decision.
        let out = train(&mut c1, 0x200, 100..140, 1);
        assert!(out.is_empty());
        assert!(c1.is_dense_pc(0x100));
        assert!(!c1.is_dense_pc(0x200));
    }

    #[test]
    fn claims_decided_dense_pcs() {
        let mut c1 = C1::with_origin(Origin(3));
        train(&mut c1, 0x100, 0..40, 12);
        assert!(c1.claims_pc(0x100));
        assert!(!c1.claims_pc(0x999));
    }

    #[test]
    fn im_capacity_bounds_concurrent_candidates() {
        let mut c1 = C1::with_origin(Origin(3));
        // 40 instructions all miss once; only 16 can be monitored at a time.
        let mut out = Vec::new();
        for pc in 0..40u64 {
            c1.observe(
                0x100 + pc * 4,
                pc * REGION_LINES * LINE_BYTES,
                &miss_access(),
                &mut out,
            );
        }
        let monitored = c1.im.iter().filter(|e| e.is_some()).count();
        assert!(monitored <= 16);
        assert_eq!(monitored, 16, "IM should be full");
    }

    #[test]
    fn storage_is_about_1_2_kb() {
        let c1 = C1::with_origin(Origin(3));
        let kb = c1.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(
            (1.0..1.5).contains(&kb),
            "Table II says 1.2 KB, got {kb:.2}"
        );
    }
}
