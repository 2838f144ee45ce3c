//! Property-based tests for the memory hierarchy invariants.

use std::collections::BTreeSet;

use dol_isa::DetHashSet;
use dol_mem::{
    Cache, CacheConfig, CacheLevel, CollectSink, Dram, DramConfig, DramRequest, DramStats,
    DropPolicy, HierarchyConfig, LineSet, LookupOutcome, MemorySystem, MshrFile, MshrStats,
    NullSink, Origin, ReplacementPolicy, ShadowTags, LINE_BYTES, LOW_CONFIDENCE,
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

/// Reference MSHR file: every query sweeps every entry that has
/// completed by its `now`, with no shortcut. [`MshrFile`] must answer
/// exactly like it.
struct EagerMshr {
    capacity: usize,
    inflight: Vec<(u64, u64)>,
    stats: MshrStats,
}

impl EagerMshr {
    fn new(capacity: u32) -> Self {
        EagerMshr {
            capacity: capacity as usize,
            inflight: Vec::new(),
            stats: MshrStats::default(),
        }
    }

    fn expire(&mut self, now: u64) {
        self.inflight.retain(|&(_, t)| t > now);
    }

    fn pending(&mut self, line: u64, now: u64) -> Option<u64> {
        self.expire(now);
        self.inflight
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, t)| t)
    }

    fn has_free(&mut self, now: u64) -> bool {
        self.expire(now);
        self.inflight.len() < self.capacity
    }

    fn next_free(&mut self, now: u64) -> u64 {
        self.expire(now);
        if self.inflight.len() < self.capacity {
            return now;
        }
        let t = self.inflight.iter().map(|&(_, t)| t).min().unwrap();
        self.stats.stall_events += 1;
        self.stats.stall_cycles += t - now;
        t
    }

    fn allocate(&mut self, line: u64, now: u64, completes_at: u64) {
        self.expire(now);
        assert!(self.inflight.len() < self.capacity);
        self.inflight.push((line, completes_at));
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.inflight.len() as u32);
    }

    fn occupancy(&mut self, now: u64) -> usize {
        self.expire(now);
        self.inflight.len()
    }
}

/// Lines for the MSHR tests: a few hot lines that merge and re-allocate
/// often, or any of 4096, which share the file's 256 filter bits with the
/// live lines, so a set bit must still be confirmed by the scan.
fn mshr_line() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..8, 0u64..4096]
}

/// Reference DRAM model: the same routing, banks and timing as [`Dram`],
/// but each channel queue runs `retain` on every request and a full
/// queue finds its earliest slot with `min()`. [`Dram`] must answer
/// exactly like it.
struct EagerDram {
    cfg: DramConfig,
    /// `(ready_at, rows, lru)` per bank.
    banks: Vec<(u64, [Option<u64>; 2], usize)>,
    /// `(queue, next_issue)` per channel.
    channels: Vec<(Vec<u64>, u64)>,
    stats: DramStats,
}

impl EagerDram {
    const BURST_CYCLES: u64 = 4;

    fn new(cfg: DramConfig) -> Self {
        EagerDram {
            cfg,
            banks: vec![(0, [None; 2], 0); (cfg.channels * cfg.banks_per_channel) as usize],
            channels: vec![(Vec::new(), 0); cfg.channels as usize],
            stats: DramStats::default(),
        }
    }

    fn route(&self, line: u64) -> (usize, usize) {
        let row_idx = line / (self.cfg.row_bytes / LINE_BYTES);
        let hashed = row_idx ^ (row_idx >> 5) ^ (row_idx >> 11) ^ (row_idx >> 17);
        let ch = (hashed & (self.cfg.channels as u64 - 1)) as usize;
        let bank_local = ((hashed >> self.cfg.channels.trailing_zeros())
            & (self.cfg.banks_per_channel as u64 - 1)) as usize;
        (ch, ch * self.cfg.banks_per_channel as usize + bank_local)
    }

    fn request(&mut self, line: u64, kind: DramRequest, now: u64) -> Option<u64> {
        let (ch_idx, bank_idx) = self.route(line);
        let capacity = self.cfg.queue_capacity as usize;
        let (queue, next_issue) = &mut self.channels[ch_idx];
        queue.retain(|&t| t > now);
        let occupancy = queue.len();
        let mut start = now;
        if let DramRequest::PrefetchRead { confidence } = kind {
            let shed = occupancy >= capacity
                || (self.cfg.drop_policy == DropPolicy::LowConfidenceFirst
                    && confidence < LOW_CONFIDENCE
                    && occupancy >= capacity * 3 / 4);
            if shed {
                self.stats.dropped_prefetches += 1;
                return None;
            }
        } else if occupancy >= capacity {
            self.stats.queue_full_waits += 1;
            start = queue.iter().copied().min().unwrap();
            queue.retain(|&t| t > start);
        }
        let row = line * LINE_BYTES / self.cfg.row_bytes;
        let (ready_at, rows, lru) = &mut self.banks[bank_idx];
        let begin = start.max(*ready_at).max(*next_issue);
        let row_overhead = if let Some(slot) = rows.iter().position(|r| *r == Some(row)) {
            self.stats.row_hits += 1;
            *lru = 1 - slot;
            0
        } else {
            self.stats.row_misses += 1;
            let victim = *lru;
            let overhead = if rows[victim].is_some() {
                self.stats.bank_conflicts += 1;
                self.cfg.t_precharge + self.cfg.t_activate
            } else {
                self.cfg.t_activate
            };
            rows[victim] = Some(row);
            *lru = 1 - victim;
            overhead
        };
        *ready_at = begin + row_overhead + Self::BURST_CYCLES;
        *next_issue = begin + Self::BURST_CYCLES;
        queue.push(begin + row_overhead + Self::BURST_CYCLES);
        match kind {
            DramRequest::DemandRead => self.stats.demand_reads += 1,
            DramRequest::PrefetchRead { .. } => self.stats.prefetch_reads += 1,
            DramRequest::Writeback => self.stats.writebacks += 1,
        }
        Some(begin + row_overhead + self.cfg.t_access)
    }
}

/// First line of one run of `LineSet` inserts: a few pages near zero
/// (runs cross the 63/64 page edge), the edge of a random page, the top
/// of the address space, or anywhere.
fn run_start() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..256,
        (any::<u64>(), 56u64..64).prop_map(|(page, off)| (page << 6) | off),
        (u64::MAX - 130)..u64::MAX,
        Just(0u64),
        Just(u64::MAX),
        any::<u64>(),
    ]
}

proptest! {
    /// `LineSet` answers like a `DetHashSet<u64>` fed the same inserts:
    /// same `insert` results, `contains` on every inserted line and on
    /// near and far misses, same `len`, same lines from `iter`. Equality
    /// and `Debug` do not depend on insertion order.
    #[test]
    fn line_set_matches_hash_set_reference(
        runs in proptest::collection::vec((run_start(), 1u64..80), 1..60),
    ) {
        let mut set = LineSet::new();
        let mut reference: DetHashSet<u64> = DetHashSet::default();
        for (step, &(start, len)) in runs.iter().enumerate() {
            for k in 0..len {
                let line = start.wrapping_add(k);
                prop_assert_eq!(set.insert(line), reference.insert(line), "step {} line {:#x}", step, line);
                for probe in [line, line.wrapping_sub(1), line.wrapping_add(1), line.wrapping_add(64), line ^ (1 << 40)] {
                    prop_assert_eq!(set.contains(probe), reference.contains(&probe), "step {} probe {:#x}", step, probe);
                }
                prop_assert_eq!(set.len(), reference.len(), "step {}", step);
                prop_assert_eq!(set.is_empty(), reference.is_empty());
            }
            let lines: BTreeSet<u64> = set.iter().collect();
            prop_assert_eq!(lines.len(), set.len(), "iter yields each line once");
            prop_assert!(lines.iter().all(|l| reference.contains(l)), "step {}", step);
        }

        // The same lines in descending order: equal set, equal Debug
        // (ascending, whatever the insertion order).
        let sorted: BTreeSet<u64> = reference.iter().copied().collect();
        let reversed: LineSet = sorted.iter().rev().copied().collect();
        prop_assert_eq!(&reversed, &set);
        prop_assert_eq!(format!("{reversed:?}"), format!("{set:?}"));
        prop_assert_eq!(format!("{set:?}"), format!("{sorted:?}"));
        let extra = (0u64..).find(|l| !reference.contains(l)).expect("a free line");
        let mut bigger = set.clone();
        bigger.insert(extra);
        prop_assert_ne!(&bigger, &set);
        let swapped: LineSet = sorted.iter().skip(1).copied().chain([extra]).collect();
        prop_assert_eq!(swapped.len(), set.len());
        prop_assert_ne!(&swapped, &set);
    }

    /// `MshrFile` matches the eager reference on every return value and
    /// on its stats after every step, for random query sequences at
    /// non-monotone timestamps (a slowly advancing base plus a jitter
    /// that often steps backwards, as the hierarchy's downstream probes
    /// do). Allocation follows the hierarchy's protocol: only a line that
    /// `pending` just reported absent, either right away when `has_free`
    /// (prefetch path) or at the cycle `next_free` reports (demand path).
    #[test]
    fn mshr_file_matches_eager_reference(
        capacity in prop_oneof![1u32..6, 6u32..40],
        ops in proptest::collection::vec((0u8..6, mshr_line(), 0u64..16, 0u64..120, 0u64..200), 1..400),
    ) {
        let mut fast = MshrFile::new(capacity);
        let mut eager = EagerMshr::new(capacity);
        let mut base = 0;
        for (step, &(op, line, advance, jitter, dur)) in ops.iter().enumerate() {
            base += advance;
            let now = base + jitter;
            match op {
                0 => prop_assert_eq!(fast.pending(line, now), eager.pending(line, now), "step {}", step),
                1 => prop_assert_eq!(fast.has_free(now), eager.has_free(now), "step {}", step),
                2 => prop_assert_eq!(fast.next_free(now), eager.next_free(now), "step {}", step),
                3 => prop_assert_eq!(fast.occupancy(now), eager.occupancy(now), "step {}", step),
                4 => {
                    let absent = fast.pending(line, now);
                    prop_assert_eq!(absent, eager.pending(line, now), "step {}", step);
                    let free = fast.has_free(now);
                    prop_assert_eq!(free, eager.has_free(now), "step {}", step);
                    if absent.is_none() && free {
                        fast.allocate(line, now, now + dur);
                        eager.allocate(line, now, now + dur);
                    }
                }
                _ => {
                    let absent = fast.pending(line, now);
                    prop_assert_eq!(absent, eager.pending(line, now), "step {}", step);
                    if absent.is_none() {
                        let at = fast.next_free(now);
                        prop_assert_eq!(at, eager.next_free(now), "step {}", step);
                        fast.allocate(line, at, at + dur);
                        eager.allocate(line, at, at + dur);
                    }
                }
            }
            prop_assert_eq!(fast.stats(), eager.stats, "stats after step {}", step);
        }
    }

    /// `Dram` answers every request like the eager reference queue and
    /// ends each step with the same stats. A small queue fills often;
    /// the stream mixes demands, writebacks and prefetches of any
    /// confidence under both drop policies, at equal, increasing and
    /// non-monotone timestamps, over few and many rows.
    #[test]
    fn dram_matches_eager_reference(
        queue_capacity in 1u32..8,
        low_confidence_first in any::<bool>(),
        reqs in proptest::collection::vec(
            (
                0u8..4,
                prop_oneof![0u64..512, 0u64..1 << 20],
                prop_oneof![Just(0u64), 0u64..40],
                prop_oneof![Just(0u64), 0u64..300],
                any::<u8>(),
            ),
            1..400,
        ),
    ) {
        let mut cfg = DramConfig::isca2018();
        cfg.queue_capacity = queue_capacity;
        cfg.drop_policy = if low_confidence_first {
            DropPolicy::LowConfidenceFirst
        } else {
            DropPolicy::Random
        };
        let mut fast = Dram::new(cfg);
        let mut eager = EagerDram::new(cfg);
        let mut base = 0;
        for (step, &(kind, line, advance, jitter, confidence)) in reqs.iter().enumerate() {
            base += advance;
            let now = base + jitter;
            let kind = match kind {
                0 => DramRequest::DemandRead,
                1 => DramRequest::Writeback,
                _ => DramRequest::PrefetchRead { confidence },
            };
            prop_assert_eq!(
                fast.request(line, kind, now),
                eager.request(line, kind, now),
                "step {}", step
            );
            prop_assert_eq!(fast.stats(), &eager.stats, "stats after step {}", step);
        }
    }

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

    /// The shadow tags feed the pollution events only. A system driven
    /// through `NullSink`, which reads no pollution and so skips both
    /// shadows, answers every demand and prefetch exactly like one driven
    /// through `CollectSink`, which runs them, and ends with the same
    /// stats. The stream mixes loads, stores and L1/L2 prefetches from
    /// several origins on one or two cores, over more lines than the tiny
    /// L2 holds, at non-monotone timestamps.
    #[test]
    fn null_sink_skips_shadows_and_changes_no_outcome(
        cores in 1u32..3,
        ops in proptest::collection::vec((0u8..4, 0usize..2, 0u64..1024, 0u64..16, 0u64..200), 1..400),
    ) {
        let cfg = HierarchyConfig::tiny(cores);
        let mut bare = MemorySystem::new(cfg);
        let mut shadowed = MemorySystem::new(cfg);
        let mut events = CollectSink::new();
        let mut base = 0;
        for (step, &(op, core, line, advance, jitter)) in ops.iter().enumerate() {
            base += advance;
            let now = base + jitter;
            let core = core % cores as usize;
            let addr = line * 64;
            match op {
                0 | 1 => {
                    let is_write = op == 1;
                    prop_assert_eq!(
                        bare.demand_access(core, addr, is_write, now, 0x100, &mut NullSink),
                        shadowed.demand_access(core, addr, is_write, now, 0x100, &mut events),
                        "demand at step {}", step
                    );
                }
                _ => {
                    let dest = if op == 2 { CacheLevel::L1 } else { CacheLevel::L2 };
                    let origin = Origin((line % 3) as u16);
                    let confidence = (line * 37) as u8;
                    prop_assert_eq!(
                        bare.prefetch(core, addr, dest, origin, confidence, now, &mut NullSink),
                        shadowed.prefetch(core, addr, dest, origin, confidence, now, &mut events),
                        "prefetch at step {}", step
                    );
                }
            }
        }
        prop_assert_eq!(bare.stats(), shadowed.stats());
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

/// Shadow state must describe one reality: a system that ran demands
/// without shadow tags cannot later serve a sink that reads pollution.
#[cfg(debug_assertions)]
#[test]
#[should_panic(expected = "one MemorySystem serves one kind of sink")]
fn switching_sink_kind_panics() {
    let mut m = MemorySystem::new(HierarchyConfig::tiny(1));
    let out = m.demand_access(0, 0, false, 0, 0x100, &mut NullSink);
    m.demand_access(
        0,
        64,
        false,
        out.latency + 1,
        0x100,
        &mut CollectSink::new(),
    );
}
