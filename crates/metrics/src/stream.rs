//! Streaming metric accumulators: the run-time metrics of the crate,
//! computed online from the memory system's event stream.
//!
//! [`StreamingMetrics`] implements [`dol_mem::EventSink`]; hand one to
//! `System::run_with_sink` and query it afterwards. Memory grows with
//! the distinct origins and the pages their prefetches touched, never
//! with instruction count. Results are *bit-identical* to buffering the
//! events in a [`dol_mem::CollectSink`] and replaying them through the
//! slice-based functions ([`crate::accuracy_at`],
//! [`crate::prefetched_lines`], …) for the filters the harness uses (no
//! filter, or a single origin): every floating-point accumulation —
//! only the induced-miss blame shares are non-integral — happens in
//! event order per accounting cell, exactly as the replay loop would.
//!
//! Baseline miss footprints are not accumulated here: only no-prefetch
//! runs need them, and they stream into a [`crate::FootprintSink`].

use std::sync::Arc;

use dol_mem::{CacheLevel, EventSink, MemEvent, Origin};

use crate::accounting::EffectiveAccuracy;
use crate::classify::{Category, Classifier};
use crate::LineSet;

#[inline]
fn level_idx(level: CacheLevel) -> usize {
    match level {
        CacheLevel::L1 => 0,
        CacheLevel::L2 => 1,
        CacheLevel::L3 => 2,
    }
}

const LEVELS: [CacheLevel; 3] = [CacheLevel::L1, CacheLevel::L2, CacheLevel::L3];

/// Small per-origin cell store on the per-event hot path.
///
/// Origins number a handful per run (the prefetcher component ids), and
/// consecutive events overwhelmingly share an origin, so a flat vector
/// with a last-hit cursor beats an ordered map: the common case is one
/// equality check, the miss case a short linear scan. Insertion order is
/// first-seen; the only walk over every cell is the union of the
/// per-origin line sets, which does not depend on order. Each cell's f64
/// accumulation order is event order.
#[derive(Debug, Clone, Default)]
struct OriginCells<T> {
    cells: Vec<(Origin, T)>,
    /// Index of the most recently updated origin.
    last: usize,
}

impl<T: Default> OriginCells<T> {
    /// The cell for `origin`, created zeroed on first sight.
    #[inline]
    fn entry(&mut self, origin: Origin) -> &mut T {
        if self.cells.get(self.last).is_some_and(|(o, _)| *o == origin) {
            return &mut self.cells[self.last].1;
        }
        match self.cells.iter().position(|(o, _)| *o == origin) {
            Some(i) => {
                self.last = i;
                &mut self.cells[i].1
            }
            None => {
                self.last = self.cells.len();
                self.cells.push((origin, T::default()));
                &mut self.cells.last_mut().expect("just pushed").1
            }
        }
    }

    /// The cell for `origin`, if it has appeared.
    #[inline]
    fn get(&self, origin: &Origin) -> Option<&T> {
        self.cells.iter().find(|(o, _)| o == origin).map(|(_, c)| c)
    }
}

/// Per-level effective-accuracy cells for the whole prefetcher and for
/// each origin separately, updated in event order.
///
/// The "overall" cells duplicate the per-origin ones on purpose: the
/// induced-miss debit is a sum of `1/len(blamed)` shares, and f64
/// addition is not associative — an unfiltered query must see the
/// additions in exactly the order the replay loop would perform them,
/// which summing per-origin cells after the fact would not reproduce.
#[derive(Debug, Clone, Default)]
struct Accounting {
    overall: [EffectiveAccuracy; 3],
    per_origin: OriginCells<[EffectiveAccuracy; 3]>,
}

impl Accounting {
    fn observe(&mut self, ev: &MemEvent, lines: Option<&LineSet>) {
        let line_ok = |line: u64| lines.map_or(true, |s| s.contains(line));
        match ev {
            MemEvent::PrefetchIssued {
                origin, dest, line, ..
            } if line_ok(*line) => {
                for lvl in LEVELS {
                    if *dest <= lvl {
                        let i = level_idx(lvl);
                        self.overall[i].issued += 1;
                        self.per_origin.entry(*origin)[i].issued += 1;
                    }
                }
            }
            MemEvent::PrefetchUseful {
                level,
                origin,
                line,
                ..
            } if line_ok(*line) => {
                let i = level_idx(*level);
                self.overall[i].useful += 1;
                self.per_origin.entry(*origin)[i].useful += 1;
            }
            MemEvent::PrefetchUnused {
                level,
                origin,
                line,
                ..
            } if line_ok(*line) => {
                let i = level_idx(*level);
                self.overall[i].unused += 1;
                self.per_origin.entry(*origin)[i].unused += 1;
            }
            MemEvent::AvoidedMiss {
                level,
                origin,
                line,
                ..
            } if line_ok(*line) => {
                let i = level_idx(*level);
                self.overall[i].avoided += 1;
                self.per_origin.entry(*origin)[i].avoided += 1;
            }
            MemEvent::InducedMiss {
                level,
                line,
                blamed,
                ..
            } if line_ok(*line) => {
                let i = level_idx(*level);
                if blamed.is_empty() {
                    // Unattributed pollution: charged to the whole
                    // prefetcher only (filtered queries must see zero).
                    self.overall[i].induced += 1.0;
                } else {
                    let share = 1.0 / blamed.len() as f64;
                    for o in blamed {
                        self.overall[i].induced += share;
                        self.per_origin.entry(*o)[i].induced += share;
                    }
                }
            }
            _ => {}
        }
    }

    fn query(&self, level: CacheLevel, origins: Option<&[Origin]>) -> EffectiveAccuracy {
        let i = level_idx(level);
        match origins {
            None => self.overall[i],
            Some(set) => {
                let mut acc = EffectiveAccuracy::default();
                for o in set {
                    if let Some(cells) = self.per_origin.get(o) {
                        acc.issued += cells[i].issued;
                        acc.useful += cells[i].useful;
                        acc.unused += cells[i].unused;
                        acc.avoided += cells[i].avoided;
                        acc.induced += cells[i].induced;
                    }
                }
                acc
            }
        }
    }
}

/// Per-core accounting cells for multi-core runs.
///
/// Events are bucketed by the core they are charged to: demand-side
/// events (misses, avoided/induced misses, useful hits) carry the
/// accessing core, and shared-LLC `PrefetchUnused` evictions carry the
/// *issuing* core (the memory system attributes L3 victims to the core
/// that filled them). Single-core runs put everything in cell 0.
#[derive(Debug, Clone, Default)]
pub struct CoreCells {
    /// Per-level effective-accuracy cells charged to this core.
    pub acc: [EffectiveAccuracy; 3],
    /// Primary demand misses observed per level.
    pub demand_misses: [u64; 3],
}

/// A prefetcher run's metrics — effective accuracy per level, origin,
/// core and (optionally) category or region, and the lines each origin
/// attempted — accumulated online from the run's event stream.
///
/// Construct with [`new`](Self::new), opt into per-category accounting
/// with [`with_classifier`](Self::with_classifier) and region-restricted
/// accounting (the paper's Figure 14) with
/// [`with_region`](Self::with_region), then pass `&mut` to the system
/// driver as its event sink. Memory use is bounded by the number of
/// origins and the pages their prefetches touched, never by instruction
/// count.
#[derive(Debug, Clone, Default)]
pub struct StreamingMetrics {
    acc: Accounting,
    /// Region-restricted accounting: only events whose line is in the
    /// region participate (both filtered and unfiltered queries).
    region: Option<(LineSet, Accounting)>,
    /// Lines attempted (issued or dropped) per origin.
    pfp_by_origin: OriginCells<LineSet>,
    /// Per-level × per-category accounting (present with a classifier).
    classifier: Option<Arc<Classifier>>,
    by_category: [[EffectiveAccuracy; 3]; 3],
    /// Last `(line, category index)` resolved through the classifier.
    cat_memo: Option<(u64, usize)>,
    /// Per-core accounting (indexed by core id, grown on demand).
    per_core: Vec<CoreCells>,
}

impl StreamingMetrics {
    /// An empty accumulator (no category or region accounting).
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables per-LHF/MHF/HHF accounting with the given offline
    /// classifier (events bucket by their target line's category).
    pub fn with_classifier(mut self, classifier: Arc<Classifier>) -> Self {
        self.classifier = Some(classifier);
        self
    }

    /// Enables a second accounting restricted to `region` lines (the
    /// paper's Figure 14 looks inside the footprint TPC leaves
    /// uncovered).
    pub fn with_region(mut self, region: LineSet) -> Self {
        self.region = Some((region, Accounting::default()));
        self
    }

    /// Consumes one event. Equivalent to [`EventSink::emit`] but usable
    /// through a shared reference to the event.
    pub fn observe(&mut self, ev: &MemEvent) {
        self.acc.observe(ev, None);
        if let Some((region, acc)) = self.region.as_mut() {
            acc.observe(ev, Some(region));
        }
        self.observe_per_core(ev);
        if let MemEvent::PrefetchIssued { line, origin, .. }
        | MemEvent::PrefetchDropped { line, origin, .. } = ev
        {
            self.pfp_by_origin.entry(*origin).insert(*line);
        }
        if let Some(cls) = self.classifier.as_deref() {
            // One-entry memo: bursts of events (issue, useful, avoided)
            // hit the same line back to back, so most lookups skip the
            // classifier's hash probe entirely.
            let memo = &mut self.cat_memo;
            let mut cat_idx = |line: u64| {
                if let Some((l, i)) = *memo {
                    if l == line {
                        return i;
                    }
                }
                let i = match cls.line_category(line) {
                    Category::Lhf => 0usize,
                    Category::Mhf => 1,
                    Category::Hhf => 2,
                };
                *memo = Some((line, i));
                i
            };
            match ev {
                MemEvent::PrefetchIssued { dest, line, .. } => {
                    for lvl in LEVELS {
                        if *dest <= lvl {
                            self.by_category[level_idx(lvl)][cat_idx(*line)].issued += 1;
                        }
                    }
                }
                MemEvent::PrefetchUseful { level, line, .. } => {
                    self.by_category[level_idx(*level)][cat_idx(*line)].useful += 1;
                }
                MemEvent::PrefetchUnused { level, line, .. } => {
                    self.by_category[level_idx(*level)][cat_idx(*line)].unused += 1;
                }
                MemEvent::AvoidedMiss { level, line, .. } => {
                    self.by_category[level_idx(*level)][cat_idx(*line)].avoided += 1;
                }
                MemEvent::InducedMiss {
                    level,
                    line,
                    blamed,
                    ..
                } if !blamed.is_empty() => {
                    self.by_category[level_idx(*level)][cat_idx(*line)].induced += 1.0;
                }
                _ => {}
            }
        }
    }

    fn observe_per_core(&mut self, ev: &MemEvent) {
        let core = match ev {
            MemEvent::PrefetchIssued { core, .. }
            | MemEvent::PrefetchDropped { core, .. }
            | MemEvent::PrefetchUseful { core, .. }
            | MemEvent::PrefetchUnused { core, .. }
            | MemEvent::AvoidedMiss { core, .. }
            | MemEvent::InducedMiss { core, .. }
            | MemEvent::DemandMiss { core, .. } => *core as usize,
        };
        if self.per_core.len() <= core {
            self.per_core.resize_with(core + 1, CoreCells::default);
        }
        let cell = &mut self.per_core[core];
        match ev {
            MemEvent::PrefetchIssued { dest, .. } => {
                for lvl in LEVELS {
                    if *dest <= lvl {
                        cell.acc[level_idx(lvl)].issued += 1;
                    }
                }
            }
            MemEvent::PrefetchUseful { level, .. } => {
                cell.acc[level_idx(*level)].useful += 1;
            }
            MemEvent::PrefetchUnused { level, .. } => {
                cell.acc[level_idx(*level)].unused += 1;
            }
            MemEvent::AvoidedMiss { level, .. } => {
                cell.acc[level_idx(*level)].avoided += 1;
            }
            MemEvent::InducedMiss { level, .. } => {
                // Whole-event charge to the suffering core (the blame
                // split across origins stays in the origin accounting).
                cell.acc[level_idx(*level)].induced += 1.0;
            }
            MemEvent::DemandMiss { level, .. } => {
                cell.demand_misses[level_idx(*level)] += 1;
            }
            MemEvent::PrefetchDropped { .. } => {}
        }
    }

    /// Number of distinct cores that have appeared in the event stream
    /// (more precisely: one past the highest core id seen).
    pub fn cores_observed(&self) -> usize {
        self.per_core.len()
    }

    /// Per-core accounting cells, indexed by core id. Cores that never
    /// emitted an event below `cores_observed()` hold all-zero cells.
    pub fn per_core(&self) -> &[CoreCells] {
        &self.per_core
    }

    /// This core's effective-accuracy cells at `level` (all-zero for a
    /// core never seen in the stream).
    pub fn core_accuracy(&self, core: usize, level: CacheLevel) -> EffectiveAccuracy {
        self.per_core
            .get(core)
            .map(|c| c.acc[level_idx(level)])
            .unwrap_or_default()
    }

    /// This core's primary demand misses at `level`.
    pub fn core_demand_misses(&self, core: usize, level: CacheLevel) -> u64 {
        self.per_core
            .get(core)
            .map(|c| c.demand_misses[level_idx(level)])
            .unwrap_or_default()
    }

    /// Effective-accuracy accounting at `level`, optionally restricted
    /// to an origin set — the streaming equivalent of
    /// [`crate::accuracy_at`]. Bit-identical to replay for `None` and
    /// single-origin filters (the only filters the harness uses).
    pub fn accuracy_at(&self, level: CacheLevel, origins: Option<&[Origin]>) -> EffectiveAccuracy {
        self.acc.query(level, origins)
    }

    /// Accounting restricted to the region configured with
    /// [`with_region`](Self::with_region) — the streaming equivalent of
    /// the harness's line-filtered accounting.
    ///
    /// # Panics
    ///
    /// Panics if no region was configured.
    pub fn accuracy_in_region(
        &self,
        level: CacheLevel,
        origins: Option<&[Origin]>,
    ) -> EffectiveAccuracy {
        let (_, acc) = self
            .region
            .as_ref()
            .expect("StreamingMetrics::with_region was not configured");
        acc.query(level, origins)
    }

    /// Lines attempted by any origin (issued or dropped): the union of
    /// the per-origin sets — the streaming equivalent of
    /// [`crate::prefetched_lines`] with no filter.
    pub fn prefetched_lines_all(&self) -> LineSet {
        self.pfp_by_origin
            .cells
            .iter()
            .flat_map(|(_, s)| s.iter())
            .collect()
    }

    /// Lines attempted by the given origins (union).
    pub fn prefetched_lines_of(&self, origins: &[Origin]) -> LineSet {
        origins
            .iter()
            .filter_map(|o| self.pfp_by_origin.get(o))
            .flat_map(LineSet::iter)
            .collect()
    }

    /// Per-LHF/MHF/HHF accounting at `level` — the streaming equivalent
    /// of the harness's category accounting. All-zero cells when no
    /// classifier was configured.
    pub fn accuracy_by_category(&self, level: CacheLevel) -> [EffectiveAccuracy; 3] {
        self.by_category[level_idx(level)]
    }

    /// Whether a classifier was configured.
    pub fn has_classifier(&self) -> bool {
        self.classifier.is_some()
    }
}

impl EventSink for StreamingMetrics {
    #[inline]
    fn emit(&mut self, ev: MemEvent) {
        self.observe(&ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{accuracy_at, footprint, prefetched_lines, FootprintSink};

    fn issued(line: u64, origin: u16, dest: CacheLevel) -> MemEvent {
        MemEvent::PrefetchIssued {
            core: 0,
            line,
            origin: Origin(origin),
            dest,
        }
    }

    fn induced(line: u64, level: CacheLevel, blamed: Vec<Origin>) -> MemEvent {
        MemEvent::InducedMiss {
            core: 0,
            level,
            line,
            blamed,
        }
    }

    fn sample_events() -> Vec<MemEvent> {
        vec![
            issued(1, 5, CacheLevel::L1),
            issued(2, 6, CacheLevel::L2),
            MemEvent::PrefetchDropped {
                core: 0,
                line: 3,
                origin: Origin(5),
                reason: dol_mem::DropReason::Redundant,
            },
            MemEvent::AvoidedMiss {
                core: 0,
                level: CacheLevel::L1,
                line: 1,
                origin: Origin(5),
            },
            MemEvent::PrefetchUseful {
                core: 0,
                level: CacheLevel::L1,
                line: 1,
                origin: Origin(5),
            },
            induced(9, CacheLevel::L1, vec![Origin(5), Origin(6), Origin(5)]),
            induced(10, CacheLevel::L1, vec![]),
            MemEvent::PrefetchUnused {
                core: 0,
                level: CacheLevel::L2,
                line: 2,
                origin: Origin(6),
            },
            MemEvent::DemandMiss {
                core: 0,
                level: CacheLevel::L1,
                line: 7,
                pc: 0x10,
            },
            MemEvent::DemandMiss {
                core: 0,
                level: CacheLevel::L1,
                line: 7,
                pc: 0x10,
            },
            MemEvent::DemandMiss {
                core: 0,
                level: CacheLevel::L2,
                line: 8,
                pc: 0x14,
            },
        ]
    }

    fn streamed(events: &[MemEvent]) -> StreamingMetrics {
        let mut sm = StreamingMetrics::new();
        for e in events {
            sm.observe(e);
        }
        sm
    }

    #[test]
    fn matches_replay_accounting_bitwise() {
        let events = sample_events();
        let sm = streamed(&events);
        for level in LEVELS {
            for filter in [
                None,
                Some([Origin(5)]),
                Some([Origin(6)]),
                Some([Origin(9)]),
            ] {
                let f = filter.as_ref().map(|s| s.as_slice());
                let replay = accuracy_at(&events, level, f);
                let stream = sm.accuracy_at(level, f);
                assert_eq!(replay.issued, stream.issued, "{level} {filter:?}");
                assert_eq!(replay.useful, stream.useful);
                assert_eq!(replay.unused, stream.unused);
                assert_eq!(replay.avoided, stream.avoided);
                assert_eq!(
                    replay.induced.to_bits(),
                    stream.induced.to_bits(),
                    "induced must be bit-identical at {level} {filter:?}"
                );
            }
        }
    }

    #[test]
    fn matches_replay_footprint_and_pfp() {
        let events = sample_events();
        let sm = streamed(&events);
        for level in LEVELS {
            let replay = footprint(&events, level);
            let mut sink = FootprintSink::new(level);
            for e in &events {
                sink.emit(e.clone());
            }
            assert!(!sink.reads_pollution(), "a footprint needs no shadow tags");
            let stream = sink.footprint();
            assert_eq!(replay.unique_lines(), stream.unique_lines());
            assert_eq!(replay.total_weight(), stream.total_weight());
            for (line, w) in replay.iter() {
                assert_eq!(stream.weight(line), w);
            }
        }
        assert!(sm.reads_pollution());
        assert_eq!(prefetched_lines(&events, None), sm.prefetched_lines_all());
        assert_eq!(
            prefetched_lines(&events, Some(&[Origin(5)])),
            sm.prefetched_lines_of(&[Origin(5)])
        );
    }

    #[test]
    fn region_accounting_filters_lines() {
        let events = sample_events();
        let region: LineSet = [1u64, 9].into_iter().collect();
        let mut sm = StreamingMetrics::new().with_region(region.clone());
        for e in &events {
            sm.observe(e);
        }
        let r = sm.accuracy_in_region(CacheLevel::L1, None);
        // Only line 1's issue/useful/avoided and line 9's induced are in.
        assert_eq!(r.issued, 1);
        assert_eq!(r.useful, 1);
        assert_eq!(r.avoided, 1);
        assert!(
            r.induced > 0.99 && r.induced < 1.01,
            "3 thirds: {}",
            r.induced
        );
        // Unfiltered accounting is unaffected by the region.
        assert_eq!(sm.accuracy_at(CacheLevel::L1, None).issued, 1);
    }

    #[test]
    #[should_panic(expected = "with_region")]
    fn region_query_without_region_panics() {
        StreamingMetrics::new().accuracy_in_region(CacheLevel::L1, None);
    }

    #[test]
    fn sink_impl_feeds_observe() {
        let mut sm = StreamingMetrics::new();
        sm.emit(issued(1, 5, CacheLevel::L1));
        assert_eq!(sm.accuracy_at(CacheLevel::L1, None).issued, 1);
        assert!(sm.prefetched_lines_all().contains(1));
    }

    #[test]
    fn per_core_cells_bucket_by_event_core() {
        let mut sm = StreamingMetrics::new();
        sm.observe(&issued(1, 5, CacheLevel::L1));
        sm.observe(&MemEvent::PrefetchUseful {
            core: 2,
            level: CacheLevel::L2,
            line: 1,
            origin: Origin(5),
        });
        sm.observe(&MemEvent::DemandMiss {
            core: 2,
            level: CacheLevel::L1,
            line: 9,
            pc: 0x10,
        });
        sm.observe(&induced(4, CacheLevel::L1, vec![Origin(5), Origin(6)]));
        assert_eq!(sm.cores_observed(), 3);
        assert_eq!(sm.core_accuracy(0, CacheLevel::L1).issued, 1);
        assert_eq!(sm.core_accuracy(2, CacheLevel::L2).useful, 1);
        assert_eq!(sm.core_demand_misses(2, CacheLevel::L1), 1);
        // The induced miss is charged whole to the suffering core 0.
        assert!((sm.core_accuracy(0, CacheLevel::L1).induced - 1.0).abs() < 1e-12);
        // Core 1 never appeared: all-zero cells, in and out of range.
        assert_eq!(sm.core_accuracy(1, CacheLevel::L1).issued, 0);
        assert_eq!(sm.core_demand_misses(7, CacheLevel::L1), 0);
        assert_eq!(sm.per_core().len(), 3);
    }

    #[test]
    fn category_cells_without_classifier_are_zero() {
        let sm = streamed(&sample_events());
        assert!(!sm.has_classifier());
        let cells = sm.accuracy_by_category(CacheLevel::L1);
        assert!(cells.iter().all(|c| c.issued == 0));
    }
}
