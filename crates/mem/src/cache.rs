//! Set-associative cache with prefetch metadata.

use crate::{CacheConfig, Origin, ReplacementPolicy};

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    dirty: bool,
    /// Set when a demand access touches the line after its fill.
    used: bool,
    /// `Some` if the line was brought in by a prefetch (cleared never;
    /// `used` distinguishes consumed from unconsumed prefetches).
    prefetch: Option<Origin>,
    /// Cycle at which the line's data is actually present (fills in
    /// flight have a future `ready_at`).
    ready_at: u64,
    /// Replacement stamp (monotone counter).
    stamp: u64,
    /// Core on whose behalf the line was filled. Only meaningful for
    /// shared caches; private caches leave it at zero.
    owner: u8,
}

/// Result of a demand lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The line is present.
    Hit {
        /// Origin of the prefetch that brought the line in, if any
        /// (persists across uses, for avoided-miss crediting).
        prefetched_by: Option<Origin>,
        /// Whether this access is the line's first demand use since fill.
        first_use: bool,
        /// Cycle the data is available (≥ `now` when hitting a fill in
        /// flight; callers add `ready_at - now` to the latency).
        ready_at: u64,
    },
    /// The line is absent.
    Miss,
}

/// What a fill displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictInfo {
    /// Line address of the victim.
    pub line: u64,
    /// Whether it was dirty (must be written back).
    pub dirty: bool,
    /// `Some(origin)` if the victim was a prefetched line that never
    /// served a demand access.
    pub unused_prefetch: Option<Origin>,
    /// Core that filled the victim (zero unless the cache is shared and
    /// was filled through [`Cache::fill_owned`]).
    pub owner: u8,
}

/// Tag value marking an empty way in the packed tag array. Unreachable
/// as a real tag: line addresses are byte addresses shifted right by
/// [`crate::LINE_SHIFT`], so they never reach `u64::MAX`.
const NO_TAG: u64 = u64::MAX;

/// Replacement-state seed for the deterministic xorshift64* stream.
const RNG_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

/// Compares all `W` tags of a set against `line` in one pass, building a
/// hit bitmask, then extracts the matching way with `trailing_zeros`.
/// Equivalent to `iter().position(..)` because tags within a set are
/// unique (at most one way can match), but compiles to straight-line
/// compare/or code with no early-out branch per way — the common miss
/// case runs no mispredicted exits, and small `W` unrolls fully.
#[inline]
fn scan_ways<const W: usize>(tags: &[u64], line: u64) -> Option<usize> {
    let tags: &[u64; W] = tags[..W].try_into().expect("set has W ways");
    let mut mask = 0u32;
    for (i, &t) in tags.iter().enumerate() {
        mask |= ((t == line) as u32) << i;
    }
    if mask == 0 {
        None
    } else {
        Some(mask.trailing_zeros() as usize)
    }
}

/// [`scan_ways`] for a runtime way count (uncommon geometries).
#[inline]
fn scan_dyn(tags: &[u64], line: u64) -> Option<usize> {
    let mut mask = 0u32;
    for (i, &t) in tags.iter().enumerate() {
        mask |= ((t == line) as u32) << i;
    }
    if mask == 0 {
        None
    } else {
        Some(mask.trailing_zeros() as usize)
    }
}

/// A set-associative cache.
///
/// Tags store full line addresses; geometry comes from [`CacheConfig`].
/// The cache tracks, per line, whether it was filled by a prefetch and
/// whether a demand access has used it — the raw material for the paper's
/// useful/useless prefetch and pollution accounting.
///
/// Lookups scan a packed parallel tag array (`tags`) instead of the
/// 24-byte [`Line`] records: a set's tags share one cache line of host
/// memory, and the common miss case never touches line metadata at all.
/// `tags` is also the one record of validity and identity: `tags[i]` is
/// [`NO_TAG`] exactly when way `i` is invalid, and the line address it
/// holds otherwise.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    set_mask: u64,
    ways: usize,
    lines: Vec<Line>,
    /// Packed tags, parallel to `lines` ([`NO_TAG`] when invalid).
    tags: Vec<u64>,
    clock: u64,
    rng: u64,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            cfg,
            set_mask: sets - 1,
            ways: cfg.ways as usize,
            lines: vec![Line::default(); (sets * cfg.ways as u64) as usize],
            tags: vec![NO_TAG; (sets * cfg.ways as u64) as usize],
            clock: 0,
            rng: RNG_SEED,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line & self.set_mask) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    #[inline]
    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Index into `lines`/`tags` of the way holding `line`, if present.
    /// Dispatches to a const-generic branch-free scan for the standard
    /// associativities so the per-way loop fully unrolls.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let range = self.set_range(line);
        let tags = &self.tags[range.clone()];
        let hit = match self.ways {
            4 => scan_ways::<4>(tags, line),
            8 => scan_ways::<8>(tags, line),
            16 => scan_ways::<16>(tags, line),
            _ => scan_dyn(tags, line),
        };
        hit.map(|i| range.start + i)
    }

    /// Whether the line is present, without disturbing replacement state.
    #[inline]
    pub fn probe(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// A demand access to `line` at cycle `now`; updates replacement and
    /// use/dirty metadata on a hit.
    pub fn demand_access(&mut self, line: u64, now: u64, is_write: bool) -> LookupOutcome {
        let stamp = self.next_stamp();
        let Some(i) = self.find(line) else {
            return LookupOutcome::Miss;
        };
        let l = &mut self.lines[i];
        let first_use = !l.used;
        l.used = true;
        if is_write {
            l.dirty = true;
        }
        if self.cfg.replacement != ReplacementPolicy::Fifo {
            l.stamp = stamp;
        }
        LookupOutcome::Hit {
            prefetched_by: l.prefetch,
            first_use,
            ready_at: l.ready_at.max(now),
        }
    }

    /// Inserts `line` (data ready at `ready_at`), returning the victim.
    ///
    /// `origin` is `Some` for prefetch fills. Filling a line that is
    /// already present refreshes `ready_at`/`dirty` instead of
    /// duplicating it and returns `None`.
    pub fn fill(
        &mut self,
        line: u64,
        ready_at: u64,
        origin: Option<Origin>,
        dirty: bool,
    ) -> Option<EvictInfo> {
        self.fill_with_priority(line, ready_at, origin, dirty, false)
    }

    /// Like [`fill`](Self::fill); with `low_priority` the line is
    /// inserted just above the set's LRU position instead of at MRU, so
    /// a prefetch that never gets used is evicted quickly while one
    /// that does is promoted on its first demand hit (LIP-style
    /// prefetch insertion, standard for L1 prefetching).
    pub fn fill_with_priority(
        &mut self,
        line: u64,
        ready_at: u64,
        origin: Option<Origin>,
        dirty: bool,
        low_priority: bool,
    ) -> Option<EvictInfo> {
        self.fill_impl(line, ready_at, origin, dirty, low_priority, 0)
    }

    /// Like [`fill`](Self::fill), recording `owner` as the core the fill
    /// was performed for. Shared caches (the L3) use this so evictions
    /// can be attributed across cores; private caches keep the plain
    /// `fill` path and an all-zero owner.
    pub fn fill_owned(
        &mut self,
        line: u64,
        ready_at: u64,
        origin: Option<Origin>,
        dirty: bool,
        owner: u8,
    ) -> Option<EvictInfo> {
        self.fill_impl(line, ready_at, origin, dirty, false, owner)
    }

    fn fill_impl(
        &mut self,
        line: u64,
        ready_at: u64,
        origin: Option<Origin>,
        dirty: bool,
        low_priority: bool,
        owner: u8,
    ) -> Option<EvictInfo> {
        let stamp = self.next_stamp();
        // Refresh an existing copy.
        if let Some(i) = self.find(line) {
            let l = &mut self.lines[i];
            l.dirty |= dirty;
            l.ready_at = l.ready_at.min(ready_at);
            return None;
        }
        let range = self.set_range(line);
        let victim_at = self.pick_victim(range.clone());
        let stamp = if low_priority {
            // Just above the current LRU line: next-but-one victim.
            self.lines[range.clone()]
                .iter()
                .zip(&self.tags[range])
                .filter(|&(_, &t)| t != NO_TAG)
                .map(|(l, _)| l.stamp)
                .min()
                .map(|min| min + 1)
                .unwrap_or(stamp)
        } else {
            stamp
        };
        let l = &mut self.lines[victim_at];
        let victim = self.tags[victim_at];
        let evicted = if victim != NO_TAG {
            Some(EvictInfo {
                line: victim,
                dirty: l.dirty,
                unused_prefetch: if l.used { None } else { l.prefetch },
                owner: l.owner,
            })
        } else {
            None
        };
        *l = Line {
            dirty,
            used: false,
            prefetch: origin,
            ready_at,
            stamp,
            owner,
        };
        self.tags[victim_at] = line;
        evicted
    }

    fn pick_victim(&mut self, range: std::ops::Range<usize>) -> usize {
        // Invalid way first.
        if let Some(i) = self.tags[range.clone()].iter().position(|&t| t == NO_TAG) {
            return range.start + i;
        }
        match self.cfg.replacement {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                let (i, _) = self.lines[range.clone()]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.stamp)
                    .expect("non-empty set");
                range.start + i
            }
            ReplacementPolicy::Random => {
                // xorshift64*
                self.rng ^= self.rng << 13;
                self.rng ^= self.rng >> 7;
                self.rng ^= self.rng << 17;
                range.start + (self.rng % self.ways as u64) as usize
            }
        }
    }

    /// Origins of prefetched lines currently resident in `line`'s set —
    /// the blame list for an induced miss on `line`.
    pub fn prefetch_origins_in_set(&self, line: u64) -> Vec<Origin> {
        let range = self.set_range(line);
        self.lines[range.clone()]
            .iter()
            .zip(&self.tags[range])
            .filter(|&(_, &t)| t != NO_TAG)
            .filter_map(|(l, _)| l.prefetch)
            .collect()
    }

    /// Number of valid lines (for occupancy assertions in tests).
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != NO_TAG).count()
    }

    /// Removes the line if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: u64) -> Option<bool> {
        let i = self.find(line)?;
        self.tags[i] = NO_TAG;
        Some(self.lines[i].dirty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(replacement: ReplacementPolicy) -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 4 * 64, // 1 set? no: 4 lines. With 2 ways -> 2 sets.
            ways: 2,
            latency: 1,
            mshrs: 4,
            replacement,
        })
    }

    #[test]
    fn hit_after_fill_miss_before() {
        let mut c = tiny(ReplacementPolicy::Lru);
        assert_eq!(c.demand_access(10, 0, false), LookupOutcome::Miss);
        assert!(c.fill(10, 5, None, false).is_none());
        match c.demand_access(10, 6, false) {
            LookupOutcome::Hit {
                prefetched_by,
                first_use,
                ready_at,
            } => {
                assert_eq!(prefetched_by, None);
                assert!(first_use);
                assert_eq!(ready_at, 6);
            }
            LookupOutcome::Miss => panic!("expected hit"),
        }
    }

    #[test]
    fn hit_under_fill_reports_future_ready() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.fill(10, 100, None, false);
        match c.demand_access(10, 50, false) {
            LookupOutcome::Hit { ready_at, .. } => assert_eq!(ready_at, 100),
            LookupOutcome::Miss => panic!("expected hit"),
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(ReplacementPolicy::Lru);
        // Lines 0, 2, 4 map to set 0 (2 sets).
        c.fill(0, 0, None, false);
        c.fill(2, 0, None, false);
        c.demand_access(0, 1, false); // 0 now MRU
        let ev = c.fill(4, 2, None, false).expect("eviction");
        assert_eq!(ev.line, 2);
        assert!(c.probe(0) && c.probe(4) && !c.probe(2));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut c = tiny(ReplacementPolicy::Fifo);
        c.fill(0, 0, None, false);
        c.fill(2, 0, None, false);
        c.demand_access(0, 1, false); // must not save line 0
        let ev = c.fill(4, 2, None, false).expect("eviction");
        assert_eq!(ev.line, 0);
    }

    #[test]
    fn unused_prefetch_reported_on_eviction() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.fill(0, 0, Some(Origin(7)), false);
        c.fill(2, 0, None, false);
        let ev = c.fill(4, 1, None, false).expect("eviction");
        assert_eq!(ev.line, 0);
        assert_eq!(ev.unused_prefetch, Some(Origin(7)));
    }

    #[test]
    fn used_prefetch_not_reported_unused() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.fill(0, 0, Some(Origin(7)), false);
        match c.demand_access(0, 1, false) {
            LookupOutcome::Hit {
                prefetched_by,
                first_use,
                ..
            } => {
                assert_eq!(prefetched_by, Some(Origin(7)));
                assert!(first_use);
            }
            LookupOutcome::Miss => panic!(),
        }
        // Second touch is not a first use, but the origin persists.
        match c.demand_access(0, 2, false) {
            LookupOutcome::Hit {
                prefetched_by,
                first_use,
                ..
            } => {
                assert_eq!(prefetched_by, Some(Origin(7)));
                assert!(!first_use);
            }
            LookupOutcome::Miss => panic!(),
        }
        c.fill(2, 3, None, false);
        let ev = c.fill(4, 4, None, false).expect("eviction");
        assert_eq!(ev.line, 0, "line 0 is LRU after line 2's fill");
        assert_eq!(ev.unused_prefetch, None, "prefetch was consumed");
    }

    #[test]
    fn dirty_writeback_flag() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.fill(0, 0, None, false);
        c.demand_access(0, 1, true);
        c.fill(2, 2, None, false);
        c.demand_access(2, 3, false);
        let ev = c.fill(4, 4, None, false).expect("eviction");
        assert_eq!((ev.line, ev.dirty), (0, true));
    }

    #[test]
    fn refill_refreshes_instead_of_duplicating() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.fill(0, 10, None, false);
        assert!(c.fill(0, 5, None, true).is_none());
        assert_eq!(c.valid_lines(), 1);
        match c.demand_access(0, 0, false) {
            LookupOutcome::Hit { ready_at, .. } => assert_eq!(ready_at, 5, "earlier fill wins"),
            LookupOutcome::Miss => panic!(),
        }
    }

    #[test]
    fn blame_list_collects_prefetched_lines() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.fill(0, 0, Some(Origin(1)), false);
        c.fill(2, 0, Some(Origin(2)), false);
        let mut blamed = c.prefetch_origins_in_set(4);
        blamed.sort();
        assert_eq!(blamed, vec![Origin(1), Origin(2)]);
        assert!(c.prefetch_origins_in_set(1).is_empty(), "other set");
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.fill(0, 0, None, false);
        c.demand_access(0, 1, true);
        assert_eq!(c.invalidate(0), Some(true));
        assert!(!c.probe(0));
        assert_eq!(c.invalidate(0), None);
    }

    #[test]
    fn fill_owned_attributes_victims_to_their_filler() {
        let mut c = tiny(ReplacementPolicy::Lru);
        c.fill_owned(0, 0, Some(Origin(7)), false, 2);
        c.fill_owned(2, 0, None, false, 1);
        let ev = c.fill_owned(4, 1, None, false, 3).expect("eviction");
        assert_eq!((ev.line, ev.owner), (0, 2));
        assert_eq!(ev.unused_prefetch, Some(Origin(7)));
        // The plain fill path reports an all-zero owner.
        let mut p = tiny(ReplacementPolicy::Lru);
        p.fill(0, 0, None, false);
        p.fill(2, 0, None, false);
        let ev = p.fill(4, 1, None, false).expect("eviction");
        assert_eq!(ev.owner, 0);
    }

    #[test]
    fn random_replacement_is_deterministic() {
        let mut a = tiny(ReplacementPolicy::Random);
        let mut b = tiny(ReplacementPolicy::Random);
        for i in 0..100u64 {
            let line = i * 2; // all in set 0
            let ea = a.fill(line, i, None, false);
            let eb = b.fill(line, i, None, false);
            assert_eq!(ea, eb);
        }
    }
}
