//! Prefetching scope `S(P)` (the paper's Sec. III).

use dol_isa::DetHashMap;
use dol_mem::{CacheLevel, EventSink, LineSet, MemEvent, Origin};

/// The baseline miss footprint of one cache level: unique miss lines with
/// their miss counts as weights (secondary misses are already excluded by
/// the memory system).
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    weights: DetHashMap<u64, u64>,
}

impl Footprint {
    /// Number of unique lines in the footprint.
    pub fn unique_lines(&self) -> usize {
        self.weights.len()
    }

    /// Total weighted misses.
    pub fn total_weight(&self) -> u64 {
        self.weights.values().sum()
    }

    /// Weight of one line (0 if absent).
    pub fn weight(&self, line: u64) -> u64 {
        self.weights.get(&line).copied().unwrap_or(0)
    }

    /// Iterate over `(line, weight)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.weights.iter().map(|(&l, &w)| (l, w))
    }

    /// Adds one miss to the footprint.
    fn add_miss(&mut self, line: u64) {
        *self.weights.entry(line).or_insert(0u64) += 1;
    }
}

/// An [`EventSink`] that accumulates the demand-miss footprint of one
/// cache level — the streaming equivalent of [`footprint`]. Feed it a
/// baseline (no-prefetch) run. It reads only [`MemEvent::DemandMiss`], so
/// its runs skip the shadow tags.
#[derive(Debug, Clone)]
pub struct FootprintSink {
    level: CacheLevel,
    fp: Footprint,
}

impl FootprintSink {
    /// An empty footprint of `level`.
    pub fn new(level: CacheLevel) -> Self {
        FootprintSink {
            level,
            fp: Footprint::default(),
        }
    }

    /// The footprint accumulated so far.
    pub fn footprint(&self) -> &Footprint {
        &self.fp
    }

    /// Consumes the sink, returning its footprint.
    pub fn into_footprint(self) -> Footprint {
        self.fp
    }
}

impl EventSink for FootprintSink {
    #[inline]
    fn emit(&mut self, ev: MemEvent) {
        if let MemEvent::DemandMiss { level, line, .. } = ev {
            if level == self.level {
                self.fp.add_miss(line);
            }
        }
    }

    #[inline]
    fn reads_pollution(&self) -> bool {
        false
    }
}

/// Extracts the miss footprint at `level` from a *baseline* (no-prefetch)
/// run's events.
pub fn footprint(events: &[MemEvent], level: CacheLevel) -> Footprint {
    let mut fp = Footprint::default();
    for e in events {
        if let MemEvent::DemandMiss { level: l, line, .. } = e {
            if *l == level {
                fp.add_miss(*line);
            }
        }
    }
    fp
}

/// The prefetch footprint: unique lines the prefetcher *attempted*,
/// optionally restricted to a set of origins (e.g. only TPC's components,
/// or only one extra).
///
/// Attempts include prefetches the memory system dropped (redundant, no
/// queue space, …) — the paper's scope definition explicitly counts a
/// line "as long as the prefetcher has attempted to prefetch the line",
/// without regard to the outcome.
pub fn prefetched_lines(events: &[MemEvent], origins: Option<&[Origin]>) -> LineSet {
    events
        .iter()
        .filter_map(|e| match e {
            MemEvent::PrefetchIssued { line, origin, .. }
            | MemEvent::PrefetchDropped { line, origin, .. } => match origins {
                Some(set) if !set.contains(origin) => None,
                _ => Some(*line),
            },
            _ => None,
        })
        .collect()
}

/// The paper's scope metric:
/// `S(P) = Σ_{A ∈ FP ∩ PFP} W(A) / Σ_{A ∈ FP} W(A)`.
///
/// Returns 0 for an empty footprint.
pub fn scope(fp: &Footprint, pfp: &LineSet) -> f64 {
    let total = fp.total_weight();
    if total == 0 {
        return 0.0;
    }
    let covered: u64 = fp
        .iter()
        .filter(|&(l, _)| pfp.contains(l))
        .map(|(_, w)| w)
        .sum();
    covered as f64 / total as f64
}

/// Scope restricted to a sub-region of the footprint (the paper's Fig. 14
/// looks at the region TPC does *not* cover): only lines in `region`
/// participate in both numerator and denominator.
pub fn scope_within(fp: &Footprint, pfp: &LineSet, region: &LineSet) -> f64 {
    let total: u64 = fp
        .iter()
        .filter(|&(l, _)| region.contains(l))
        .map(|(_, w)| w)
        .sum();
    if total == 0 {
        return 0.0;
    }
    let covered: u64 = fp
        .iter()
        .filter(|&(l, _)| region.contains(l) && pfp.contains(l))
        .map(|(_, w)| w)
        .sum();
    covered as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn miss(line: u64) -> MemEvent {
        MemEvent::DemandMiss {
            core: 0,
            level: CacheLevel::L1,
            line,
            pc: 0x100,
        }
    }

    fn issued(line: u64, origin: u16) -> MemEvent {
        MemEvent::PrefetchIssued {
            core: 0,
            line,
            origin: Origin(origin),
            dest: CacheLevel::L1,
        }
    }

    #[test]
    fn footprint_counts_weights() {
        let events = vec![miss(1), miss(1), miss(2), miss(3)];
        let fp = footprint(&events, CacheLevel::L1);
        assert_eq!(fp.unique_lines(), 3);
        assert_eq!(fp.total_weight(), 4);
        assert_eq!(fp.weight(1), 2);
    }

    #[test]
    fn footprint_is_level_specific() {
        let events = vec![
            miss(1),
            MemEvent::DemandMiss {
                core: 0,
                level: CacheLevel::L2,
                line: 9,
                pc: 0,
            },
        ];
        let fp = footprint(&events, CacheLevel::L1);
        assert_eq!(fp.weight(9), 0);
        let fp2 = footprint(&events, CacheLevel::L2);
        assert_eq!(fp2.weight(9), 1);
    }

    #[test]
    fn scope_is_weighted() {
        // Lines 1 (weight 3) and 2 (weight 1); prefetcher attempts only 1.
        let base = vec![miss(1), miss(1), miss(1), miss(2)];
        let fp = footprint(&base, CacheLevel::L1);
        let pf = vec![issued(1, 5)];
        let pfp = prefetched_lines(&pf, None);
        assert_eq!(scope(&fp, &pfp), 0.75);
    }

    #[test]
    fn scope_ignores_usefulness() {
        // Prefetching a line that was never a miss adds nothing.
        let base = vec![miss(1)];
        let fp = footprint(&base, CacheLevel::L1);
        let pf = vec![issued(999, 5)];
        let pfp = prefetched_lines(&pf, None);
        assert_eq!(scope(&fp, &pfp), 0.0);
    }

    #[test]
    fn origin_filter_selects_components() {
        let pf = vec![issued(1, 5), issued(2, 6)];
        let only5 = prefetched_lines(&pf, Some(&[Origin(5)]));
        assert!(only5.contains(1) && !only5.contains(2));
        let all = prefetched_lines(&pf, None);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn scope_within_region_restricts_both_sides() {
        let base = vec![miss(1), miss(2), miss(3), miss(3)];
        let fp = footprint(&base, CacheLevel::L1);
        let pfp: LineSet = [2u64, 3].into_iter().collect();
        let region: LineSet = [1u64, 2].into_iter().collect();
        // Inside region {1,2}: total weight 2, covered weight 1.
        assert_eq!(scope_within(&fp, &pfp, &region), 0.5);
        // Full scope for contrast: (1 + 2) / 4.
        assert_eq!(scope(&fp, &pfp), 0.75);
    }

    #[test]
    fn empty_footprint_scope_is_zero() {
        let fp = Footprint::default();
        assert_eq!(scope(&fp, &LineSet::default()), 0.0);
    }
}
