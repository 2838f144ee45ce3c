//! Offline LHF/MHF/HHF stratification (the paper's Sec. V-C1).
//!
//! The paper divides all accesses "subjectively" into three categories
//! of increasing prefetch difficulty, computed *offline* as a
//! ground-truth approximation:
//!
//! * **LHF** (low-hanging fruit): strided accesses — those issued by
//!   static instructions whose address deltas are predominantly
//!   repeating;
//! * **MHF**: non-strided accesses that land in regions with high
//!   spatial locality (more than 6 of a region's 16 lines touched);
//! * **HHF**: everything else.

use dol_isa::{DetHashMap, InstKind, Trace};
use dol_mem::{line_of, region_of};

/// The three difficulty categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Strided accesses (low-hanging fruit).
    Lhf,
    /// Dense-region non-strided accesses (mid-hanging fruit).
    Mhf,
    /// Everything else (high-hanging fruit).
    Hhf,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::Lhf => write!(f, "LHF"),
            Category::Mhf => write!(f, "MHF"),
            Category::Hhf => write!(f, "HHF"),
        }
    }
}

/// The offline classification of one workload trace.
#[derive(Debug, Clone, Default)]
pub struct Classifier {
    pc_cat: DetHashMap<u64, Category>,
    line_cat: DetHashMap<u64, Category>,
}

impl Classifier {
    /// Category of the static instruction keyed by `mPC = PC ^ RAS.top`
    /// (equal to the plain PC outside calls). HHF when unknown.
    pub fn pc_category(&self, mpc: u64) -> Category {
        self.pc_cat.get(&mpc).copied().unwrap_or(Category::Hhf)
    }

    /// Category of a cache line (HHF when unknown) — prefetches are
    /// labelled by the category of their *target line*.
    pub fn line_category(&self, line: u64) -> Category {
        self.line_cat.get(&line).copied().unwrap_or(Category::Hhf)
    }

    /// Lines belonging to one category.
    pub fn lines_in(&self, cat: Category) -> crate::LineSet {
        self.line_cat
            .iter()
            .filter(|(_, c)| **c == cat)
            .map(|(l, _)| *l)
            .collect()
    }

    /// Number of classified lines.
    pub fn classified_lines(&self) -> usize {
        self.line_cat.len()
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct PcStats {
    last_addr: u64,
    last_delta: i64,
    seen: u64,
    repeats: u64,
}

/// Builds the offline classifier from a functional trace.
///
/// A static instruction is *strided* when at least 3/4 of its dynamic
/// deltas repeat the previous delta. A region is *dense* when more than
/// 6 of its 16 lines are ever touched. Lines are labelled by the
/// accesses they receive: LHF if any strided instruction touches them,
/// else MHF if the containing region is dense, else HHF.
pub fn classify_trace(trace: &Trace) -> Classifier {
    let mut pcs: DetHashMap<u64, PcStats> = DetHashMap::default();
    let mut region_lines: DetHashMap<u64, u16> = DetHashMap::default();
    // First pass: per-instruction stride stats and region density.
    // Instructions are keyed by `mPC = PC ^ RAS.top`, mirroring the
    // hardware's call-site disambiguation — one static load invoked from
    // two call sites over two streams is two strided streams, not one
    // unstable one.
    let mut ras: Vec<u64> = Vec::new();
    for inst in trace {
        match inst.kind {
            InstKind::Call { return_to, .. } => {
                if ras.len() >= 64 {
                    ras.remove(0);
                }
                ras.push(return_to);
            }
            InstKind::Ret { .. } => {
                ras.pop();
            }
            _ => {}
        }
        let Some(addr) = inst.mem_addr() else {
            continue;
        };
        let key = inst.pc ^ ras.last().copied().unwrap_or(0);
        let s = pcs.entry(key).or_default();
        if s.seen > 0 {
            let delta = addr.wrapping_sub(s.last_addr) as i64;
            if delta == s.last_delta && delta != 0 {
                s.repeats += 1;
            }
            s.last_delta = delta;
        }
        s.last_addr = addr;
        s.seen += 1;
        let bit = 1u16 << (line_of(addr) % dol_mem::REGION_LINES);
        *region_lines.entry(region_of(addr)).or_insert(0) |= bit;
    }
    let pc_cat: DetHashMap<u64, Category> = pcs
        .iter()
        .map(|(&pc, s)| {
            let cat = if s.seen >= 8 && s.repeats * 4 >= (s.seen - 1) * 3 {
                Category::Lhf
            } else {
                Category::Hhf // refined per-line below via density
            };
            (pc, cat)
        })
        .collect();

    // Second pass: label lines.
    let mut line_cat: DetHashMap<u64, Category> = DetHashMap::default();
    let mut ras: Vec<u64> = Vec::new();
    for inst in trace {
        match inst.kind {
            InstKind::Call { return_to, .. } => {
                if ras.len() >= 64 {
                    ras.remove(0);
                }
                ras.push(return_to);
            }
            InstKind::Ret { .. } => {
                ras.pop();
            }
            _ => {}
        }
        let Some(addr) = inst.mem_addr() else {
            continue;
        };
        let line = line_of(addr);
        let key = inst.pc ^ ras.last().copied().unwrap_or(0);
        let from_strided = pc_cat.get(&key) == Some(&Category::Lhf);
        let dense = region_lines
            .get(&region_of(addr))
            .map(|v| v.count_ones() > 6)
            .unwrap_or(false);
        let cat = if from_strided {
            Category::Lhf
        } else if dense {
            Category::Mhf
        } else {
            Category::Hhf
        };
        // LHF dominates; MHF dominates HHF.
        line_cat
            .entry(line)
            .and_modify(|c| {
                if cat == Category::Lhf || (cat == Category::Mhf && *c == Category::Hhf) {
                    *c = cat;
                }
            })
            .or_insert(cat);
    }

    // Upgrade MHF pcs: a non-strided pc whose accesses mostly land in
    // dense regions.
    let mut pc_cat = pc_cat;
    let mut pc_dense: DetHashMap<u64, (u64, u64)> = DetHashMap::default();
    let mut ras: Vec<u64> = Vec::new();
    for inst in trace {
        match inst.kind {
            InstKind::Call { return_to, .. } => {
                if ras.len() >= 64 {
                    ras.remove(0);
                }
                ras.push(return_to);
            }
            InstKind::Ret { .. } => {
                ras.pop();
            }
            _ => {}
        }
        let Some(addr) = inst.mem_addr() else {
            continue;
        };
        let key = inst.pc ^ ras.last().copied().unwrap_or(0);
        if pc_cat.get(&key) == Some(&Category::Lhf) {
            continue;
        }
        let dense = region_lines
            .get(&region_of(addr))
            .map(|v| v.count_ones() > 6)
            .unwrap_or(false);
        let e = pc_dense.entry(key).or_insert((0, 0));
        e.0 += 1;
        if dense {
            e.1 += 1;
        }
    }
    for (pc, (total, dense)) in pc_dense {
        if total > 0 && dense * 4 >= total * 3 {
            pc_cat.insert(pc, Category::Mhf);
        }
    }

    Classifier { pc_cat, line_cat }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_isa::{InstKind, Reg, RetiredInst};

    fn load(pc: u64, addr: u64) -> RetiredInst {
        RetiredInst {
            pc,
            kind: InstKind::Load { addr, value: 0 },
            dst: Some(Reg::R1),
            srcs: [Some(Reg::R2), None],
        }
    }

    #[test]
    fn strided_pc_is_lhf() {
        let trace: Trace = (0..64u64)
            .map(|i| load(0x100, 0x10_0000 + i * 64))
            .collect();
        let c = classify_trace(&trace);
        assert_eq!(c.pc_category(0x100), Category::Lhf);
        assert_eq!(c.line_category(line_of(0x10_0000)), Category::Lhf);
    }

    #[test]
    fn dense_irregular_is_mhf() {
        // 12 scrambled lines per 1 KiB region, many regions, never a
        // repeating delta.
        let offsets = [0u64, 5, 2, 11, 7, 3, 14, 9, 1, 12, 6, 10];
        let mut trace = Trace::new();
        for r in 0..32u64 {
            for off in offsets {
                trace.push(load(0x200, 0x40_0000 + r * 1024 + off * 64));
            }
        }
        let c = classify_trace(&trace);
        assert_eq!(c.pc_category(0x200), Category::Mhf);
        assert_eq!(c.line_category(line_of(0x40_0000 + 5 * 64)), Category::Mhf);
    }

    #[test]
    fn sparse_random_is_hhf() {
        let mut a = 1u64;
        let mut trace = Trace::new();
        for _ in 0..256 {
            a = a.wrapping_mul(6364136223846793005).wrapping_add(1);
            trace.push(load(0x300, (a % (1 << 30)) & !7));
        }
        let c = classify_trace(&trace);
        assert_eq!(c.pc_category(0x300), Category::Hhf);
    }

    #[test]
    fn lhf_dominates_line_labels() {
        // A strided pc and a random pc touch the same line: LHF wins.
        let mut trace = Trace::new();
        for i in 0..32u64 {
            trace.push(load(0x100, 0x10_0000 + i * 64));
        }
        trace.push(load(0x300, 0x10_0000));
        let c = classify_trace(&trace);
        assert_eq!(c.line_category(line_of(0x10_0000)), Category::Lhf);
    }

    #[test]
    fn unknown_defaults_to_hhf() {
        let c = Classifier::default();
        assert_eq!(c.pc_category(0x999), Category::Hhf);
        assert_eq!(c.line_category(42), Category::Hhf);
    }

    #[test]
    fn lines_in_partitions() {
        let mut trace = Trace::new();
        for i in 0..32u64 {
            trace.push(load(0x100, 0x10_0000 + i * 64));
        }
        let c = classify_trace(&trace);
        let lhf = c.lines_in(Category::Lhf);
        assert_eq!(lhf.len(), 32);
        assert!(c.lines_in(Category::Hhf).is_empty());
    }
}
