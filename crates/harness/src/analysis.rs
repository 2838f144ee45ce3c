//! Event-level analyses beyond the generic metrics crate: line-filtered
//! accuracy and per-category (LHF/MHF/HHF) credit assignment.

use dol_mem::{CacheLevel, MemEvent, Origin};
use dol_metrics::{Category, Classifier, EffectiveAccuracy, LineSet};

fn origin_ok(origin: Origin, filter: Option<&[Origin]>) -> bool {
    match filter {
        Some(set) => set.contains(&origin),
        None => true,
    }
}

fn line_ok(line: u64, filter: Option<&LineSet>) -> bool {
    match filter {
        Some(set) => set.contains(line),
        None => true,
    }
}

/// Effective accuracy at a level, restricted to an origin set *and* a
/// line set (the paper's Figure 14 looks at prefetcher behaviour inside
/// the region TPC does not cover).
pub fn accuracy_within(
    events: &[MemEvent],
    level: CacheLevel,
    origins: Option<&[Origin]>,
    lines: Option<&LineSet>,
) -> EffectiveAccuracy {
    let mut acc = EffectiveAccuracy::default();
    for e in events {
        match e {
            MemEvent::PrefetchIssued {
                origin, dest, line, ..
            } if origin_ok(*origin, origins) && *dest <= level && line_ok(*line, lines) => {
                acc.issued += 1;
            }
            MemEvent::PrefetchUseful {
                level: l,
                origin,
                line,
                ..
            } if *l == level && origin_ok(*origin, origins) && line_ok(*line, lines) => {
                acc.useful += 1;
            }
            MemEvent::PrefetchUnused {
                level: l,
                origin,
                line,
                ..
            } if *l == level && origin_ok(*origin, origins) && line_ok(*line, lines) => {
                acc.unused += 1;
            }
            MemEvent::AvoidedMiss {
                level: l,
                origin,
                line,
                ..
            } if *l == level && origin_ok(*origin, origins) && line_ok(*line, lines) => {
                acc.avoided += 1;
            }
            MemEvent::InducedMiss {
                level: l,
                blamed,
                line,
                ..
            } => {
                if *l != level || !line_ok(*line, lines) {
                    continue;
                }
                if blamed.is_empty() {
                    if origins.is_none() {
                        acc.induced += 1.0;
                    }
                } else {
                    let share = 1.0 / blamed.len() as f64;
                    for o in blamed {
                        if origin_ok(*o, origins) {
                            acc.induced += share;
                        }
                    }
                }
            }
            _ => {}
        }
    }
    acc
}

/// Per-category accuracy (the paper's Figure 13): every prefetch (and
/// credit/debit) is bucketed by the *target line's* offline category.
///
/// Induced-miss debits are charged to the category of the missing line
/// (the paper charges the blamed prefetched lines; their addresses are
/// not carried in blame lists, and the victim line's category is the
/// closest observable stand-in).
pub fn accuracy_by_category(
    events: &[MemEvent],
    level: CacheLevel,
    classifier: &Classifier,
) -> [EffectiveAccuracy; 3] {
    let mut out = [EffectiveAccuracy::default(); 3];
    let idx = |line: u64| match classifier.line_category(line) {
        Category::Lhf => 0usize,
        Category::Mhf => 1,
        Category::Hhf => 2,
    };
    for e in events {
        match e {
            MemEvent::PrefetchIssued { dest, line, .. } if *dest <= level => {
                out[idx(*line)].issued += 1;
            }
            MemEvent::PrefetchUseful { level: l, line, .. } if *l == level => {
                out[idx(*line)].useful += 1;
            }
            MemEvent::PrefetchUnused { level: l, line, .. } if *l == level => {
                out[idx(*line)].unused += 1;
            }
            MemEvent::AvoidedMiss { level: l, line, .. } if *l == level => {
                out[idx(*line)].avoided += 1;
            }
            MemEvent::InducedMiss {
                level: l,
                line,
                blamed,
                ..
            } if *l == level && !blamed.is_empty() => {
                out[idx(*line)].induced += 1.0;
            }
            _ => {}
        }
    }
    out
}

/// Per-category *scope*: the weighted fraction of each category's
/// baseline footprint attempted by the prefetcher.
pub fn scope_by_category(
    fp: &dol_metrics::Footprint,
    pfp: &LineSet,
    classifier: &Classifier,
) -> [f64; 3] {
    let mut total = [0u64; 3];
    let mut covered = [0u64; 3];
    for (line, w) in fp.iter() {
        let i = match classifier.line_category(line) {
            Category::Lhf => 0usize,
            Category::Mhf => 1,
            Category::Hhf => 2,
        };
        total[i] += w;
        if pfp.contains(line) {
            covered[i] += w;
        }
    }
    let mut out = [0.0; 3];
    for i in 0..3 {
        if total[i] > 0 {
            out[i] = covered[i] as f64 / total[i] as f64;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_isa::{InstKind, Reg, RetiredInst, Trace};
    use dol_metrics::classify_trace;

    #[test]
    fn line_filter_restricts_accuracy() {
        let events = vec![
            MemEvent::PrefetchIssued {
                core: 0,
                line: 1,
                origin: Origin(5),
                dest: CacheLevel::L1,
            },
            MemEvent::PrefetchIssued {
                core: 0,
                line: 2,
                origin: Origin(5),
                dest: CacheLevel::L1,
            },
            MemEvent::AvoidedMiss {
                core: 0,
                level: CacheLevel::L1,
                line: 1,
                origin: Origin(5),
            },
        ];
        let only1: LineSet = [1u64].into_iter().collect();
        let a = accuracy_within(&events, CacheLevel::L1, None, Some(&only1));
        assert_eq!(a.issued, 1);
        assert_eq!(a.effective_accuracy(), 1.0);
        let all = accuracy_within(&events, CacheLevel::L1, None, None);
        assert_eq!(all.issued, 2);
        assert_eq!(all.effective_accuracy(), 0.5);
    }

    #[test]
    fn category_buckets_split_events() {
        // Build a classifier: pc 0x100 strided over lines 0x1000.. →
        // those lines are LHF.
        let trace: Trace = (0..32u64)
            .map(|i| RetiredInst {
                pc: 0x100,
                kind: InstKind::Load {
                    addr: 0x4_0000 + i * 64,
                    value: 0,
                },
                dst: Some(Reg::R1),
                srcs: [Some(Reg::R2), None],
            })
            .collect();
        let c = classify_trace(&trace);
        let lhf_line = dol_mem::line_of(0x4_0000);
        let events = vec![
            MemEvent::PrefetchIssued {
                core: 0,
                line: lhf_line,
                origin: Origin(5),
                dest: CacheLevel::L1,
            },
            MemEvent::PrefetchIssued {
                core: 0,
                line: 0xdead_0000,
                origin: Origin(5),
                dest: CacheLevel::L1,
            },
        ];
        let buckets = accuracy_by_category(&events, CacheLevel::L1, &c);
        assert_eq!(buckets[0].issued, 1, "LHF bucket");
        assert_eq!(buckets[2].issued, 1, "HHF bucket (unknown line)");
    }
}
