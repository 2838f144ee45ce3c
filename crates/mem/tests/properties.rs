//! Property-based tests for the memory hierarchy invariants.

use dol_mem::{
    Cache, CacheConfig, HierarchyConfig, LookupOutcome, MemorySystem, Origin, ReplacementPolicy,
    ShadowTags,
};
use proptest::prelude::*;

fn small_cache_cfg() -> CacheConfig {
    CacheConfig {
        size_bytes: 16 * 64, // 16 lines
        ways: 4,
        latency: 1,
        mshrs: 4,
        replacement: ReplacementPolicy::Lru,
    }
}

proptest! {
    /// A cache never holds more lines than its capacity, for any access
    /// pattern.
    #[test]
    fn occupancy_bounded(lines in proptest::collection::vec(0u64..64, 1..300)) {
        let mut c = Cache::new(small_cache_cfg());
        for (t, line) in lines.iter().enumerate() {
            if matches!(c.demand_access(*line, t as u64, false), LookupOutcome::Miss) {
                c.fill(*line, t as u64, None, false);
            }
        }
        prop_assert!(c.valid_lines() <= 16);
    }

    /// A line just filled is always present; a line just evicted is not.
    #[test]
    fn fill_makes_present(lines in proptest::collection::vec(0u64..64, 1..300)) {
        let mut c = Cache::new(small_cache_cfg());
        for (t, line) in lines.iter().enumerate() {
            let ev = c.fill(*line, t as u64, None, false);
            prop_assert!(c.probe(*line));
            if let Some(ev) = ev {
                prop_assert!(!c.probe(ev.line), "victim must be gone");
                prop_assert_ne!(ev.line, *line);
            }
        }
    }

    /// Shadow tags track a real LRU cache exactly when no prefetching
    /// happens — the foundation of the pollution accounting.
    #[test]
    fn shadow_matches_demand_only_cache(lines in proptest::collection::vec(0u64..128, 1..500)) {
        let cfg = small_cache_cfg();
        let mut shadow = ShadowTags::new(&cfg);
        let mut real = Cache::new(cfg);
        for (t, line) in lines.iter().enumerate() {
            let shadow_hit = shadow.demand_access(*line);
            let real_hit =
                matches!(real.demand_access(*line, t as u64, false), LookupOutcome::Hit { .. });
            if !real_hit {
                real.fill(*line, t as u64, None, false);
            }
            prop_assert_eq!(shadow_hit, real_hit, "diverged at access {}", t);
        }
    }

    /// In a demand-only system, no pollution events are ever emitted and
    /// hit/miss counters add up.
    #[test]
    fn demand_only_system_emits_no_pollution(
        addrs in proptest::collection::vec(0u64..1 << 20, 1..300),
    ) {
        let mut m = MemorySystem::new(HierarchyConfig::tiny(1));
        let mut sink = dol_mem::CollectSink::new();
        let mut t = 0;
        for a in &addrs {
            let out = m.demand_access(0, *a, false, t, 0x100, &mut sink);
            t += out.latency + 1;
        }
        let events = sink.into_events();
        for e in &events {
            prop_assert!(
                matches!(e, dol_mem::MemEvent::DemandMiss { .. }),
                "unexpected event without prefetching: {e:?}"
            );
        }
        let s = m.stats();
        prop_assert_eq!(
            s.cores[0].l1_hits + s.cores[0].l1_misses + s.cores[0].l1_secondary,
            addrs.len() as u64
        );
    }

    /// Prefetching any set of lines then demanding them never *increases*
    /// the demand miss count relative to no prefetching (with disjoint
    /// prefetch/demand interleaving and room in the cache, prefetching is
    /// monotone at the L2+ levels where the lines were installed).
    #[test]
    fn prefetch_then_demand_hits(lines in proptest::collection::vec(0u64..256, 1..24)) {
        let mut m = MemorySystem::new(HierarchyConfig::tiny(1));
        let mut sink = dol_mem::NullSink;
        let mut t = 0;
        let mut unique = lines.clone();
        unique.sort_unstable();
        unique.dedup();
        for l in &unique {
            let p = m.prefetch(0, l * 64, dol_mem::CacheLevel::L2, Origin(7), 200, t, &mut sink);
            if p.accepted {
                t = t.max(p.completes_at);
            }
            t += 1;
        }
        t += 1000;
        // All prefetched lines must now be L2 hits (L2 in the tiny config
        // holds 256 lines, enough for the whole set).
        for l in &unique {
            let out = m.demand_access(0, l * 64, false, t, 0x100, &mut sink);
            prop_assert!(out.l1_hit || out.l2_hit, "line {l} should be resident");
            t += out.latency + 1;
        }
    }

    /// The DRAM model is monotone: a request's completion time is never
    /// before its submission.
    #[test]
    fn dram_completion_after_submission(
        reqs in proptest::collection::vec((0u64..1 << 24, 0u64..10_000), 1..200),
    ) {
        let mut d = dol_mem::Dram::new(dol_mem::DramConfig::isca2018());
        let mut now = 0;
        for (line, gap) in &reqs {
            now += gap;
            if let Some(done) = d.request(*line, dol_mem::DramRequest::DemandRead, now) {
                prop_assert!(done > now);
            }
        }
    }
}
