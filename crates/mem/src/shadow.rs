//! Alternative-reality tag arrays for pollution accounting.

use crate::CacheConfig;

/// Sentinel marking an empty way. Unreachable as a real tag (line
/// addresses are byte addresses right-shifted by [`crate::LINE_SHIFT`]).
const NO_TAG: u64 = u64::MAX;

/// A tag-only replica of a cache, updated **only by demand accesses**.
///
/// The shadow tracks the contents the cache *would* have had if no
/// prefetch were ever issued (the paper's "additional set of cache tags
/// \[tracking\] the alternative reality", Sec. V-C). Comparing a demand
/// access's outcome in the real cache and in the shadow classifies it:
///
/// * real hit, shadow miss, line was prefetched → **avoided miss** (+1),
/// * real miss, shadow hit → **prefetch-induced miss** (−1, split among
///   the prefetched lines in the real set),
/// * both hit or both miss → prefetching changed nothing.
///
/// Storage is structure-of-arrays: a packed tag vector scanned on every
/// access (one host cache line per set) and a parallel stamp vector
/// touched only on the hit/install way. Validity is encoded in-band:
/// `NO_TAG` in `tags`, stamp 0 in `stamps` (real stamps start at 1).
#[derive(Debug, Clone)]
pub struct ShadowTags {
    set_mask: u64,
    ways: usize,
    /// Packed tags per way (`NO_TAG` when the way is empty).
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags` (0 when the way is empty).
    stamps: Vec<u64>,
    clock: u64,
}

impl ShadowTags {
    /// Builds shadow tags with the same geometry as `cfg`, replaced LRU
    /// like the real cache.
    pub fn new(cfg: &CacheConfig) -> Self {
        let sets = cfg.sets();
        ShadowTags {
            set_mask: sets - 1,
            ways: cfg.ways as usize,
            tags: vec![NO_TAG; (sets * cfg.ways as u64) as usize],
            stamps: vec![0; (sets * cfg.ways as u64) as usize],
            clock: 0,
        }
    }

    #[inline]
    fn set_range(&self, line: u64) -> std::ops::Range<usize> {
        let set = (line & self.set_mask) as usize;
        set * self.ways..(set + 1) * self.ways
    }

    /// Records a demand access and returns whether it *hit* in the
    /// no-prefetch reality. On a miss the line is installed (LRU victim).
    pub fn demand_access(&mut self, line: u64) -> bool {
        self.clock += 1;
        let stamp = self.clock;
        let range = self.set_range(line);
        let tags = &self.tags[range.clone()];
        let mut mask = 0u32;
        for (i, &t) in tags.iter().enumerate() {
            mask |= ((t == line) as u32) << i;
        }
        if mask != 0 {
            self.stamps[range.start + mask.trailing_zeros() as usize] = stamp;
            return true;
        }
        // LRU victim = first minimum stamp. Empty ways carry stamp 0 and
        // real stamps start at 1, so empties win first — exactly the old
        // `min_by_key(if valid { stamp } else { 0 })` ordering.
        let stamps = &self.stamps[range.clone()];
        let mut victim = 0usize;
        let mut best = u64::MAX;
        for (i, &s) in stamps.iter().enumerate() {
            if s < best {
                best = s;
                victim = i;
            }
        }
        let victim = range.start + victim;
        self.tags[victim] = line;
        self.stamps[victim] = stamp;
        false
    }

    /// Whether the line is resident in the no-prefetch reality (no update).
    pub fn probe(&self, line: u64) -> bool {
        self.tags[self.set_range(line)].contains(&line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> CacheConfig {
        CacheConfig {
            size_bytes: 4 * 64,
            ways: 2,
            latency: 1,
            mshrs: 4,
        }
    }

    #[test]
    fn tracks_demand_stream_like_lru_cache() {
        let mut s = ShadowTags::new(&cfg());
        assert!(!s.demand_access(0));
        assert!(!s.demand_access(2));
        assert!(s.demand_access(0), "second touch hits");
        // 0 is MRU, 2 is LRU; 4 evicts 2.
        assert!(!s.demand_access(4));
        assert!(s.probe(0));
        assert!(!s.probe(2));
        assert!(s.probe(4));
    }

    #[test]
    fn sets_are_independent() {
        let mut s = ShadowTags::new(&cfg());
        s.demand_access(0); // set 0
        s.demand_access(1); // set 1
        assert!(s.probe(0));
        assert!(s.probe(1));
    }

    #[test]
    fn matches_real_cache_without_prefetching() {
        // Property: for any demand stream, shadow outcomes == real cache
        // outcomes when no prefetch is issued.
        use crate::{Cache, LookupOutcome};
        let mut shadow = ShadowTags::new(&cfg());
        let mut real = Cache::new(cfg());
        let stream: Vec<u64> = (0..200u64).map(|i| (i * 7 + i / 3) % 16).collect();
        for (t, &line) in stream.iter().enumerate() {
            let shadow_hit = shadow.demand_access(line);
            let real_hit = matches!(
                real.demand_access(line, t as u64, false),
                LookupOutcome::Hit { .. }
            );
            if !real_hit {
                real.fill(line, t as u64, None, false);
            }
            assert_eq!(shadow_hit, real_hit, "diverged at access {t} line {line}");
        }
    }
}
