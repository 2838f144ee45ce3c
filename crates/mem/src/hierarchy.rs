//! The three-level memory system with prefetch entry points.

use crate::cache::LookupOutcome;
use crate::dram::DramRequest;
use crate::{
    line_of, Cache, CacheLevel, Dram, DramStats, DropReason, EventSink, HierarchyConfig, MemEvent,
    MshrFile, MshrStats, Origin, ShadowTags,
};

/// Outcome of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandOutcome {
    /// Cycles from issue until the data is available.
    pub latency: u64,
    /// Hit in L1 (including hits on fills still in flight).
    pub l1_hit: bool,
    /// The access merged into an in-flight L1 fill (secondary miss).
    pub l1_secondary: bool,
    /// On an L1 primary miss, whether L2 had the line.
    pub l2_hit: bool,
    /// If the access hit a line that a prefetch brought in (at L1 or
    /// L2), the origin of that prefetch — drives FDP's feedback and the
    /// composite coordinator's ownership learning.
    pub served_by_prefetch: Option<Origin>,
}

/// Outcome of a prefetch request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchOutcome {
    /// Whether the prefetch entered the hierarchy (false ⇒ dropped; a
    /// [`MemEvent::PrefetchDropped`] records why).
    pub accepted: bool,
    /// Why the request was dropped, when it was.
    pub drop_reason: Option<DropReason>,
    /// Cycle the prefetched data reaches its destination (meaningful only
    /// when accepted). Pointer-chain prefetchers use this to serialize
    /// dependent prefetches.
    pub completes_at: u64,
}

/// Per-core demand counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Demand accesses issued.
    pub accesses: u64,
    /// L1 hits (including in-flight hits).
    pub l1_hits: u64,
    /// L1 primary misses.
    pub l1_misses: u64,
    /// L1 secondary (merged) misses.
    pub l1_secondary: u64,
    /// L2 hits among L1 primary misses.
    pub l2_hits: u64,
    /// L2 primary misses.
    pub l2_misses: u64,
    /// L3 hits among L2 misses.
    pub l3_hits: u64,
    /// Accesses that went to DRAM.
    pub dram_fills: u64,
    /// Prefetches accepted into the hierarchy on behalf of this core.
    pub prefetches: u64,
    /// Sum of demand-access latencies (for average-latency diagnostics).
    pub latency_sum: u64,
}

/// Shared-resource contention counters for a (possibly multi-core) run.
///
/// Per-core vectors are indexed by core id. All LLC attribution relies on
/// the owner tag the shared L3 records at fill time; on a single-core
/// system every fill and victim share owner 0, so the cross-eviction
/// counters stay at zero and single-core results are unaffected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SharedStats {
    /// Per issuing core: prefetched lines inserted into the shared LLC.
    pub llc_prefetch_fills: Vec<u64>,
    /// Per filling core: LLC victims that another core had filled —
    /// cross-core displacement in the shared cache.
    pub llc_cross_evictions: Vec<u64>,
    /// Subset of `llc_cross_evictions` where the incoming fill was a
    /// prefetch: shared-LLC pollution charged to the issuing core.
    pub llc_prefetch_cross_evictions: Vec<u64>,
    /// Per-core private L1 demand-MSHR contention.
    pub core_l1_mshr: Vec<MshrStats>,
    /// Per-core private L2 demand-MSHR contention.
    pub core_l2_mshr: Vec<MshrStats>,
    /// Shared L3 demand-MSHR contention (all cores compete here).
    pub l3_mshr: MshrStats,
    /// Shared L3 prefetch-queue contention.
    pub pf_l3: MshrStats,
}

impl SharedStats {
    /// Total cross-core LLC displacements caused by prefetches, summed
    /// over issuing cores — the headline shared-LLC pollution figure.
    pub fn total_prefetch_pollution(&self) -> u64 {
        self.llc_prefetch_cross_evictions.iter().sum()
    }

    /// Total demand-MSHR stall cycles across private files plus the
    /// shared L3 file.
    pub fn total_mshr_stall_cycles(&self) -> u64 {
        self.core_l1_mshr
            .iter()
            .chain(self.core_l2_mshr.iter())
            .map(|m| m.stall_cycles)
            .sum::<u64>()
            + self.l3_mshr.stall_cycles
    }
}

/// Aggregate statistics for the whole memory system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemStats {
    /// Per-core demand counters.
    pub cores: Vec<CoreStats>,
    /// DRAM counters (shared).
    pub dram: DramStats,
    /// Shared-resource contention counters.
    pub shared: SharedStats,
}

/// Private L1D and L2 per core, shared L3 and DRAM.
///
/// All latencies are in core cycles and all timestamps are absolute
/// cycles supplied by the caller (the timing core). Callers must present
/// accesses in non-decreasing time order per the whole system — the
/// multicore driver interleaves cores in cycle lockstep.
///
/// Metric events stream out through the [`EventSink`] each entry point
/// takes; pass [`crate::NullSink`] to discard them or
/// [`crate::CollectSink`] to buffer them (the pre-streaming behaviour).
///
/// One instance serves one kind of sink: the shadow tags track the
/// no-prefetch reality only while the sink
/// [reads pollution](EventSink::reads_pollution), so mixing kinds would
/// leave them describing no reality. Build a fresh system per run, as the
/// timing driver does; debug builds assert this.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: HierarchyConfig,
    l1: Vec<Cache>,
    l1_mshr: Vec<MshrFile>,
    /// Per-core shadow tags, built by the first demand from a sink that
    /// reads pollution (empty until then, and for other sinks).
    l1_shadow: Vec<ShadowTags>,
    l2: Vec<Cache>,
    l2_mshr: Vec<MshrFile>,
    /// Built together with `l1_shadow`.
    l2_shadow: Vec<ShadowTags>,
    l3: Cache,
    l3_mshr: MshrFile,
    /// Separate prefetch queues (per-core L1/L2, shared L3): prefetches
    /// never occupy demand MSHRs, so they cannot starve demand misses.
    pf_l1: Vec<MshrFile>,
    pf_l2: Vec<MshrFile>,
    pf_l3: MshrFile,
    dram: Dram,
    stats: Vec<CoreStats>,
    /// Per issuing core: prefetched lines inserted into the shared L3.
    llc_prefetch_fills: Vec<u64>,
    /// Per filling core: L3 victims owned by a different core.
    llc_cross_evictions: Vec<u64>,
    /// Subset of the above where the incoming fill was a prefetch.
    llc_prefetch_cross_evictions: Vec<u64>,
    /// The first demand sink's [`EventSink::reads_pollution`]; recorded
    /// and checked by debug builds only.
    sink_reads_pollution: Option<bool>,
}

impl MemorySystem {
    /// Builds the system from its configuration.
    pub fn new(cfg: HierarchyConfig) -> Self {
        let n = cfg.cores as usize;
        MemorySystem {
            l1: (0..n).map(|_| Cache::new(cfg.l1d)).collect(),
            l1_mshr: (0..n).map(|_| MshrFile::new(cfg.l1d.mshrs)).collect(),
            l1_shadow: Vec::new(),
            l2: (0..n).map(|_| Cache::new(cfg.l2)).collect(),
            l2_mshr: (0..n).map(|_| MshrFile::new(cfg.l2.mshrs)).collect(),
            l2_shadow: Vec::new(),
            l3: Cache::new(cfg.l3),
            l3_mshr: MshrFile::new(cfg.l3.mshrs),
            pf_l1: (0..n).map(|_| MshrFile::new(cfg.l1d.mshrs)).collect(),
            pf_l2: (0..n).map(|_| MshrFile::new(cfg.l2.mshrs)).collect(),
            pf_l3: MshrFile::new(cfg.l3.mshrs),
            dram: Dram::new(cfg.dram),
            stats: vec![CoreStats::default(); n],
            llc_prefetch_fills: vec![0; n],
            llc_cross_evictions: vec![0; n],
            llc_prefetch_cross_evictions: vec![0; n],
            sink_reads_pollution: None,
            cfg,
        }
    }

    /// Builds both shadow tag arrays of every core. Only a sink that
    /// reads pollution uses them, so they cost nothing to other runs.
    fn build_shadows(&mut self) {
        let n = self.cfg.cores as usize;
        self.l1_shadow = (0..n).map(|_| ShadowTags::new(&self.cfg.l1d)).collect();
        self.l2_shadow = (0..n).map(|_| ShadowTags::new(&self.cfg.l2)).collect();
    }

    /// The configuration in use.
    pub fn config(&self) -> &HierarchyConfig {
        &self.cfg
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> SystemStats {
        SystemStats {
            cores: self.stats.clone(),
            dram: *self.dram.stats(),
            shared: SharedStats {
                llc_prefetch_fills: self.llc_prefetch_fills.clone(),
                llc_cross_evictions: self.llc_cross_evictions.clone(),
                llc_prefetch_cross_evictions: self.llc_prefetch_cross_evictions.clone(),
                core_l1_mshr: self.l1_mshr.iter().map(|m| m.stats()).collect(),
                core_l2_mshr: self.l2_mshr.iter().map(|m| m.stats()).collect(),
                l3_mshr: self.l3_mshr.stats(),
                pf_l3: self.pf_l3.stats(),
            },
        }
    }

    /// A demand load or store from `core` to byte address `addr` at cycle
    /// `now`; `pc` identifies the instruction for miss events.
    pub fn demand_access<S: EventSink + ?Sized>(
        &mut self,
        core: usize,
        addr: u64,
        is_write: bool,
        now: u64,
        pc: u64,
        sink: &mut S,
    ) -> DemandOutcome {
        let out = self.demand_access_inner(core, addr, is_write, now, pc, sink);
        self.stats[core].latency_sum += out.latency;
        out
    }

    fn demand_access_inner<S: EventSink + ?Sized>(
        &mut self,
        core: usize,
        addr: u64,
        is_write: bool,
        now: u64,
        pc: u64,
        sink: &mut S,
    ) -> DemandOutcome {
        let line = line_of(addr);
        self.stats[core].accesses += 1;

        // Alternative-reality bookkeeping: the shadow L2 sees exactly the
        // accesses that miss in the shadow L1 (the no-prefetch reality's
        // L2 stream). Shadow hits feed the pollution events only, so a
        // sink that does not read them skips both shadows (`None`) and
        // never builds them.
        let reads_pollution = sink.reads_pollution();
        debug_assert_eq!(
            *self.sink_reads_pollution.get_or_insert(reads_pollution),
            reads_pollution,
            "one MemorySystem serves one kind of sink: shadow state must describe one reality"
        );
        let (shadow_l1_hit, shadow_l2_hit) = if reads_pollution {
            if self.l1_shadow.is_empty() {
                self.build_shadows();
            }
            let l1_hit = self.l1_shadow[core].demand_access(line);
            let l2_hit = (!l1_hit).then(|| self.l2_shadow[core].demand_access(line));
            (Some(l1_hit), l2_hit)
        } else {
            (None, None)
        };

        // --- L1 ---
        match self.l1[core].demand_access(line, now, is_write) {
            LookupOutcome::Hit {
                prefetched_by,
                first_use,
                ready_at,
            } => {
                self.stats[core].l1_hits += 1;
                if first_use {
                    if let Some(origin) = prefetched_by {
                        sink.emit(MemEvent::PrefetchUseful {
                            core: core as u32,
                            level: CacheLevel::L1,
                            line,
                            origin,
                        });
                    }
                }
                if let Some(false) = shadow_l1_hit {
                    if let Some(origin) = prefetched_by {
                        sink.emit(MemEvent::AvoidedMiss {
                            core: core as u32,
                            level: CacheLevel::L1,
                            line,
                            origin,
                        });
                    }
                }
                let latency = self.cfg.l1d.latency + ready_at.saturating_sub(now);
                return DemandOutcome {
                    latency,
                    l1_hit: true,
                    l1_secondary: false,
                    l2_hit: false,
                    // Only the line's first use is "served by" the
                    // prefetch — later hits would have hit anyway.
                    served_by_prefetch: if first_use { prefetched_by } else { None },
                };
            }
            LookupOutcome::Miss => {}
        }

        if let Some(true) = shadow_l1_hit {
            let blamed = self.l1[core].prefetch_origins_in_set(line);
            sink.emit(MemEvent::InducedMiss {
                core: core as u32,
                level: CacheLevel::L1,
                line,
                blamed,
            });
        }

        // Secondary miss: merge into the in-flight fill.
        let mut t = now + self.cfg.l1d.latency;
        if let Some(done) = self.l1_mshr[core].pending(line, now) {
            self.stats[core].l1_secondary += 1;
            let latency = done.max(t) - now;
            return DemandOutcome {
                latency,
                l1_hit: false,
                l1_secondary: true,
                l2_hit: false,
                served_by_prefetch: None,
            };
        }

        self.stats[core].l1_misses += 1;
        sink.emit(MemEvent::DemandMiss {
            core: core as u32,
            level: CacheLevel::L1,
            line,
            pc,
        });
        t = self.l1_mshr[core].next_free(t);
        let l1_alloc_at = t;

        // --- L2 ---
        t += self.cfg.l2.latency;
        let mut l2_hit = false;
        let mut served_by = None;
        let data_ready;
        match self.l2[core].demand_access(line, t, false) {
            LookupOutcome::Hit {
                prefetched_by,
                first_use,
                ready_at,
            } => {
                l2_hit = true;
                served_by = if first_use { prefetched_by } else { None };
                self.stats[core].l2_hits += 1;
                if first_use {
                    if let Some(origin) = prefetched_by {
                        sink.emit(MemEvent::PrefetchUseful {
                            core: core as u32,
                            level: CacheLevel::L2,
                            line,
                            origin,
                        });
                    }
                }
                if let Some(false) = shadow_l2_hit {
                    if let Some(origin) = prefetched_by {
                        sink.emit(MemEvent::AvoidedMiss {
                            core: core as u32,
                            level: CacheLevel::L2,
                            line,
                            origin,
                        });
                    }
                }
                data_ready = ready_at.max(t);
            }
            LookupOutcome::Miss => {
                if let Some(true) = shadow_l2_hit {
                    let blamed = self.l2[core].prefetch_origins_in_set(line);
                    sink.emit(MemEvent::InducedMiss {
                        core: core as u32,
                        level: CacheLevel::L2,
                        line,
                        blamed,
                    });
                }
                if let Some(done) = self.l2_mshr[core].pending(line, t) {
                    data_ready = done.max(t);
                } else {
                    self.stats[core].l2_misses += 1;
                    sink.emit(MemEvent::DemandMiss {
                        core: core as u32,
                        level: CacheLevel::L2,
                        line,
                        pc,
                    });
                    let t2 = self.l2_mshr[core].next_free(t);
                    data_ready = self.fetch_from_l3(core, line, t2, false, 255, None, sink);
                    self.l2_mshr[core].allocate(line, t2, data_ready);
                    self.fill_level(core, CacheLevel::L2, line, data_ready, None, sink);
                }
            }
        }

        // Fill L1 and hold the MSHR until the data arrives.
        self.l1_mshr[core].allocate(line, l1_alloc_at, data_ready);
        self.fill_level(core, CacheLevel::L1, line, data_ready, None, sink);
        if is_write {
            // Mark the freshly-filled line dirty.
            self.l1[core].demand_access(line, now, true);
        }

        DemandOutcome {
            latency: data_ready - now,
            l1_hit: false,
            l1_secondary: false,
            l2_hit,
            served_by_prefetch: served_by,
        }
    }

    /// Looks up L3 (then DRAM) starting at cycle `t`; returns data-ready
    /// time and fills L3 on a DRAM fetch. Prefetch requests pass their
    /// `origin` so the L3 copy is tagged as prefetched — the basis for
    /// shared-LLC pollution attribution; demands pass `None`.
    #[allow(clippy::too_many_arguments)] // mirrors the request fields
    fn fetch_from_l3<S: EventSink + ?Sized>(
        &mut self,
        core: usize,
        line: u64,
        t: u64,
        is_prefetch: bool,
        confidence: u8,
        origin: Option<Origin>,
        sink: &mut S,
    ) -> u64 {
        let t = t + self.cfg.l3.latency;
        match self.l3.demand_access(line, t, false) {
            LookupOutcome::Hit {
                prefetched_by,
                first_use,
                ready_at,
            } => {
                if !is_prefetch {
                    self.stats[core].l3_hits += 1;
                    if first_use {
                        if let Some(origin) = prefetched_by {
                            sink.emit(MemEvent::PrefetchUseful {
                                core: core as u32,
                                level: CacheLevel::L3,
                                line,
                                origin,
                            });
                        }
                    }
                }
                ready_at.max(t)
            }
            LookupOutcome::Miss => {
                if let Some(done) = self.l3_mshr.pending(line, t) {
                    return done.max(t);
                }
                if let Some(done) = self.pf_l3.pending(line, t) {
                    return done.max(t);
                }
                if is_prefetch {
                    if !self.pf_l3.has_free(t) {
                        return u64::MAX;
                    }
                    let done =
                        match self
                            .dram
                            .request(line, DramRequest::PrefetchRead { confidence }, t)
                        {
                            Some(done) => done,
                            // Shed by the DRAM drop policy.
                            None => return u64::MAX,
                        };
                    self.pf_l3.allocate(line, t, done);
                    self.fill_level(core, CacheLevel::L3, line, done, origin, sink);
                    return done;
                }
                let t = self.l3_mshr.next_free(t);
                let done = self
                    .dram
                    .request(line, DramRequest::DemandRead, t)
                    .expect("demands are never dropped");
                self.stats[core].dram_fills += 1;
                self.l3_mshr.allocate(line, t, done);
                self.fill_level(core, CacheLevel::L3, line, done, None, sink);
                done
            }
        }
    }

    /// Fills `line` into one cache level, handling the victim.
    fn fill_level<S: EventSink + ?Sized>(
        &mut self,
        core: usize,
        level: CacheLevel,
        line: u64,
        ready_at: u64,
        origin: Option<Origin>,
        sink: &mut S,
    ) {
        let evicted = match level {
            CacheLevel::L1 => {
                // Prefetch fills enter L1 near the LRU position so
                // useless prefetches age out fast (LIP-style insertion).
                let low = origin.is_some();
                self.l1[core].fill_with_priority(line, ready_at, origin, false, low)
            }
            CacheLevel::L2 => self.l2[core].fill(line, ready_at, origin, false),
            CacheLevel::L3 => self.fill_l3_shared(core, line, ready_at, origin, false),
        };
        let Some(ev) = evicted else { return };
        if let Some(origin) = ev.unused_prefetch {
            sink.emit(MemEvent::PrefetchUnused {
                // The shared L3 charges the eviction to the core that
                // filled the victim (the prefetch's issuer); private
                // levels belong to the accessing core anyway.
                core: if level == CacheLevel::L3 {
                    ev.owner as u32
                } else {
                    core as u32
                },
                level,
                line: ev.line,
                origin,
            });
        }
        if ev.dirty {
            match level {
                CacheLevel::L1 => {
                    // Write the victim down into L2 (allocate on writeback).
                    if self.l2[core].probe(ev.line) {
                        self.l2[core].demand_access(ev.line, ready_at, true);
                    } else if let Some(ev2) = self.l2[core].fill(ev.line, ready_at, None, true) {
                        self.handle_l2_victim(core, ev2, ready_at, sink);
                    }
                }
                CacheLevel::L2 => {
                    self.handle_l2_victim_writeback(core, ev.line, ready_at, sink);
                }
                CacheLevel::L3 => {
                    self.dram.request(ev.line, DramRequest::Writeback, ready_at);
                }
            }
        }
    }

    /// Fills the shared L3 on behalf of `core`, recording ownership and
    /// cross-core displacement. All L3 insertions funnel through here so
    /// the shared-LLC attribution counters see every fill.
    fn fill_l3_shared(
        &mut self,
        core: usize,
        line: u64,
        ready_at: u64,
        origin: Option<Origin>,
        dirty: bool,
    ) -> Option<crate::EvictInfo> {
        if origin.is_some() {
            self.llc_prefetch_fills[core] += 1;
        }
        let evicted = self
            .l3
            .fill_owned(line, ready_at, origin, dirty, core as u8);
        if let Some(ev) = evicted {
            if ev.owner as usize != core {
                self.llc_cross_evictions[core] += 1;
                if origin.is_some() {
                    self.llc_prefetch_cross_evictions[core] += 1;
                }
            }
        }
        evicted
    }

    fn handle_l2_victim<S: EventSink + ?Sized>(
        &mut self,
        core: usize,
        ev: crate::EvictInfo,
        now: u64,
        sink: &mut S,
    ) {
        if let Some(origin) = ev.unused_prefetch {
            sink.emit(MemEvent::PrefetchUnused {
                core: core as u32,
                level: CacheLevel::L2,
                line: ev.line,
                origin,
            });
        }
        if ev.dirty {
            self.handle_l2_victim_writeback(core, ev.line, now, sink);
        }
    }

    fn handle_l2_victim_writeback<S: EventSink + ?Sized>(
        &mut self,
        core: usize,
        line: u64,
        now: u64,
        sink: &mut S,
    ) {
        if self.l3.probe(line) {
            self.l3.demand_access(line, now, true);
        } else if let Some(ev3) = self.fill_l3_shared(core, line, now, None, true) {
            if let Some(origin) = ev3.unused_prefetch {
                sink.emit(MemEvent::PrefetchUnused {
                    core: ev3.owner as u32,
                    level: CacheLevel::L3,
                    line: ev3.line,
                    origin,
                });
            }
            if ev3.dirty {
                self.dram.request(ev3.line, DramRequest::Writeback, now);
            }
        }
    }

    /// Issues a prefetch of the line containing `addr` on behalf of
    /// `core`, destined for `dest` (L1 or L2), at cycle `now`.
    ///
    /// `confidence` (0–255) rides with the request to DRAM, where the
    /// [`crate::DropPolicy`] may shed low-confidence prefetches under
    /// congestion.
    #[allow(clippy::too_many_arguments)] // mirrors the hardware request fields
    pub fn prefetch<S: EventSink + ?Sized>(
        &mut self,
        core: usize,
        addr: u64,
        dest: CacheLevel,
        origin: Origin,
        confidence: u8,
        now: u64,
        sink: &mut S,
    ) -> PrefetchOutcome {
        assert!(dest != CacheLevel::L3, "prefetch destinations are L1 or L2");
        let line = line_of(addr);
        let rejected = |sink: &mut S, reason: DropReason| {
            sink.emit(MemEvent::PrefetchDropped {
                core: core as u32,
                line,
                origin,
                reason,
            });
            PrefetchOutcome {
                accepted: false,
                drop_reason: Some(reason),
                completes_at: 0,
            }
        };

        let present = match dest {
            CacheLevel::L1 => self.l1[core].probe(line),
            CacheLevel::L2 => self.l2[core].probe(line),
            CacheLevel::L3 => unreachable!(),
        };
        if present {
            return rejected(sink, DropReason::Redundant);
        }
        let (pf, demand) = match dest {
            CacheLevel::L1 => (&mut self.pf_l1[core], &mut self.l1_mshr[core]),
            CacheLevel::L2 => (&mut self.pf_l2[core], &mut self.l2_mshr[core]),
            CacheLevel::L3 => unreachable!(),
        };
        if pf.pending(line, now).is_some() || demand.pending(line, now).is_some() {
            return rejected(sink, DropReason::InFlight);
        }
        if !pf.has_free(now) {
            return rejected(sink, DropReason::NoMshr);
        }

        // Locate the data below the destination.
        let data_ready = match dest {
            CacheLevel::L1 => {
                let t = now + self.cfg.l2.latency;
                match self.l2[core].demand_access(line, t, false) {
                    LookupOutcome::Hit { ready_at, .. } => ready_at.max(t),
                    LookupOutcome::Miss => {
                        if let Some(done) = self.l2_mshr[core].pending(line, t) {
                            done.max(t)
                        } else if let Some(done) = self.pf_l2[core].pending(line, t) {
                            done.max(t)
                        } else if !self.pf_l2[core].has_free(t) {
                            return rejected(sink, DropReason::NoMshr);
                        } else {
                            let done = self.fetch_from_l3(
                                core,
                                line,
                                t,
                                true,
                                confidence,
                                Some(origin),
                                sink,
                            );
                            if done == u64::MAX {
                                return rejected(sink, DropReason::QueueFull);
                            }
                            self.pf_l2[core].allocate(line, t, done);
                            self.fill_level(core, CacheLevel::L2, line, done, Some(origin), sink);
                            done
                        }
                    }
                }
            }
            CacheLevel::L2 => {
                let done =
                    self.fetch_from_l3(core, line, now, true, confidence, Some(origin), sink);
                if done == u64::MAX {
                    return rejected(sink, DropReason::QueueFull);
                }
                done
            }
            CacheLevel::L3 => unreachable!(),
        };

        match dest {
            CacheLevel::L1 => {
                self.pf_l1[core].allocate(line, now, data_ready);
            }
            CacheLevel::L2 => {
                self.pf_l2[core].allocate(line, now, data_ready);
            }
            CacheLevel::L3 => unreachable!(),
        }
        self.fill_level(core, dest, line, data_ready, Some(origin), sink);
        self.stats[core].prefetches += 1;
        sink.emit(MemEvent::PrefetchIssued {
            core: core as u32,
            line,
            origin,
            dest,
        });
        PrefetchOutcome {
            accepted: true,
            drop_reason: None,
            completes_at: data_ready,
        }
    }

    /// Whether the line containing `addr` is present in `core`'s L1.
    #[inline]
    pub fn l1_contains(&self, core: usize, addr: u64) -> bool {
        self.l1[core].probe(line_of(addr))
    }

    /// Whether the line containing `addr` is present in `core`'s L2.
    #[inline]
    pub fn l2_contains(&self, core: usize, addr: u64) -> bool {
        self.l2[core].probe(line_of(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollectSink, LINE_BYTES};

    fn system() -> MemorySystem {
        MemorySystem::new(HierarchyConfig::tiny(1))
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits() {
        let mut m = system();
        let mut sink = CollectSink::new();
        let out = m.demand_access(0, 0x10000, false, 0, 0x400, &mut sink);
        assert!(!out.l1_hit);
        assert!(out.latency > 100, "DRAM latency, got {}", out.latency);
        let out2 = m.demand_access(0, 0x10000, false, out.latency + 1, 0x400, &mut sink);
        assert!(out2.l1_hit);
        assert_eq!(out2.latency, 3);
        let s = m.stats();
        assert_eq!(s.cores[0].l1_misses, 1);
        assert_eq!(s.cores[0].l1_hits, 1);
        assert_eq!(s.cores[0].dram_fills, 1);
    }

    #[test]
    fn secondary_miss_merges_and_is_cheaper() {
        let mut m = system();
        let mut sink = CollectSink::new();
        let first = m.demand_access(0, 0x10000, false, 0, 0x400, &mut sink);
        // Same line, 10 cycles later, while the fill is still in flight.
        let second = m.demand_access(0, 0x10008, false, 10, 0x404, &mut sink);
        assert!(second.l1_hit, "fill already landed in the cache array");
        assert!(second.latency <= first.latency);
    }

    #[test]
    fn prefetch_then_demand_is_avoided_miss() {
        let mut m = system();
        let mut sink = CollectSink::new();
        let origin = Origin(3);
        let p = m.prefetch(0, 0x20000, CacheLevel::L1, origin, 255, 0, &mut sink);
        assert!(p.accepted);
        let out = m.demand_access(0, 0x20000, false, p.completes_at + 1, 0x400, &mut sink);
        assert!(out.l1_hit);
        assert_eq!(out.latency, 3);
        let events = std::mem::take(&mut sink.events);
        assert!(events.iter().any(|e| matches!(e,
            MemEvent::PrefetchIssued { origin: o, .. } if *o == origin)));
        assert!(events.iter().any(|e| matches!(e,
            MemEvent::PrefetchUseful { level: CacheLevel::L1, origin: o, .. } if *o == origin)));
        assert!(events.iter().any(|e| matches!(e,
            MemEvent::AvoidedMiss { level: CacheLevel::L1, origin: o, .. } if *o == origin)));
    }

    #[test]
    fn redundant_prefetch_is_dropped() {
        let mut m = system();
        let mut sink = CollectSink::new();
        let out = m.demand_access(0, 0x20000, false, 0, 0x400, &mut sink);
        let p = m.prefetch(
            0,
            0x20000,
            CacheLevel::L1,
            Origin(1),
            255,
            out.latency + 1,
            &mut sink,
        );
        assert!(!p.accepted);
        let events = std::mem::take(&mut sink.events);
        assert!(events.iter().any(|e| matches!(
            e,
            MemEvent::PrefetchDropped {
                reason: DropReason::Redundant,
                ..
            }
        )));
    }

    #[test]
    fn in_flight_prefetch_is_dropped() {
        let mut m = system();
        let mut sink = CollectSink::new();
        let p1 = m.prefetch(0, 0x20000, CacheLevel::L1, Origin(1), 255, 0, &mut sink);
        assert!(p1.accepted);
        // While in flight the line is in the cache array (future ready),
        // so a repeat is redundant or in-flight — either way not issued.
        let p2 = m.prefetch(0, 0x20000, CacheLevel::L1, Origin(1), 255, 1, &mut sink);
        assert!(!p2.accepted);
    }

    #[test]
    fn prefetch_to_l2_fills_l2_not_l1() {
        let mut m = system();
        let mut sink = CollectSink::new();
        let p = m.prefetch(0, 0x30000, CacheLevel::L2, Origin(2), 100, 0, &mut sink);
        assert!(p.accepted);
        assert!(!m.l1_contains(0, 0x30000));
        assert!(m.l2_contains(0, 0x30000));
        // Demand later: L1 misses, L2 hits.
        let out = m.demand_access(0, 0x30000, false, p.completes_at + 1, 0x400, &mut sink);
        assert!(!out.l1_hit);
        assert!(out.l2_hit);
        let events = std::mem::take(&mut sink.events);
        assert!(events.iter().any(|e| matches!(
            e,
            MemEvent::AvoidedMiss {
                level: CacheLevel::L2,
                ..
            }
        )));
    }

    #[test]
    fn pollution_produces_induced_miss_with_blame() {
        // Tiny L1: 4 KiB 4-way = 16 sets. Fill one set with demands, then
        // push prefetches into the same set until a demand line is evicted.
        let mut m = system();
        let mut sink = CollectSink::new();
        let set_stride = 16 * LINE_BYTES; // lines mapping to the same set
        let mut t = 0;
        // 4 demand lines fill set 0.
        for i in 0..4u64 {
            let out = m.demand_access(0, i * set_stride, false, t, 0x400, &mut sink);
            t += out.latency + 1;
        }
        // 4 prefetched lines evict them.
        for i in 4..8u64 {
            let p = m.prefetch(
                0,
                i * set_stride,
                CacheLevel::L1,
                Origin(9),
                255,
                t,
                &mut sink,
            );
            t = t.max(p.completes_at) + 1;
        }
        sink.events.clear();
        // Re-demand line 0: real miss; shadow (no prefetches) still holds it.
        let out = m.demand_access(0, 0, false, t + 10_000, 0x404, &mut sink);
        assert!(!out.l1_hit);
        let events = std::mem::take(&mut sink.events);
        let induced = events.iter().find_map(|e| match e {
            MemEvent::InducedMiss {
                level: CacheLevel::L1,
                blamed,
                ..
            } => Some(blamed.clone()),
            _ => None,
        });
        let blamed = induced.expect("induced miss must be charged");
        assert!(blamed.iter().all(|o| *o == Origin(9)));
        assert!(!blamed.is_empty());
    }

    #[test]
    fn unused_prefetch_eviction_is_reported() {
        let mut m = system();
        let mut sink = CollectSink::new();
        let set_stride = 16 * LINE_BYTES;
        let mut t = 0;
        let p = m.prefetch(0, 0, CacheLevel::L1, Origin(5), 255, t, &mut sink);
        t = p.completes_at + 1;
        // Evict it with 4 demand fills to the same set.
        for i in 1..=4u64 {
            let out = m.demand_access(0, i * set_stride, false, t, 0x400, &mut sink);
            t += out.latency + 1;
        }
        let events = std::mem::take(&mut sink.events);
        assert!(events.iter().any(|e| matches!(
            e,
            MemEvent::PrefetchUnused {
                level: CacheLevel::L1,
                origin: Origin(5),
                ..
            }
        )));
    }

    #[test]
    fn shared_stats_attribute_llc_evictions_across_cores() {
        let mut m = MemorySystem::new(HierarchyConfig::tiny(2));
        let mut sink = CollectSink::new();
        let mut t = 0;
        // Core 0 fills the tiny L3 (64 KiB = 1024 lines) with its lines.
        for i in 0..2048u64 {
            let out = m.demand_access(0, i * LINE_BYTES, false, t, 0x400, &mut sink);
            t += out.latency + 1;
        }
        // Core 1 then streams a disjoint region, displacing core 0.
        for i in 0..2048u64 {
            let out = m.demand_access(1, (1 << 30) + i * LINE_BYTES, false, t, 0x400, &mut sink);
            t += out.latency + 1;
        }
        let s = m.stats();
        assert!(
            s.shared.llc_cross_evictions[1] > 0,
            "core 1 must displace core 0's LLC lines"
        );
        assert_eq!(
            s.shared.llc_cross_evictions[0], 0,
            "core 0 only ever evicted its own lines"
        );
        assert_eq!(s.shared.core_l1_mshr.len(), 2);
        assert_eq!(s.shared.core_l2_mshr.len(), 2);
        assert!(s.shared.l3_mshr.peak_occupancy >= 1);
    }

    #[test]
    fn l3_prefetch_fills_carry_origin_and_issuer() {
        let mut m = MemorySystem::new(HierarchyConfig::tiny(2));
        let mut sink = CollectSink::new();
        // Core 0 prefetches one line into L2 (and thus L3), never uses it.
        let p = m.prefetch(0, 0x4_0000, CacheLevel::L2, Origin(6), 255, 0, &mut sink);
        assert!(p.accepted);
        let mut t = p.completes_at + 1;
        // Core 1 floods the L3 until core 0's prefetched line is evicted.
        for i in 0..4096u64 {
            let out = m.demand_access(1, (1 << 30) + i * LINE_BYTES, false, t, 0x400, &mut sink);
            t += out.latency + 1;
        }
        let s = m.stats();
        assert_eq!(s.shared.llc_prefetch_fills[0], 1);
        assert!(s.shared.llc_cross_evictions[1] > 0);
        assert!(s.shared.total_prefetch_pollution() <= s.shared.llc_cross_evictions[1]);
        // The L3 eviction is charged to the issuing core (0), not the
        // core whose fill displaced it (1).
        let events = sink.into_events();
        assert!(events.iter().any(|e| matches!(
            e,
            MemEvent::PrefetchUnused {
                core: 0,
                level: CacheLevel::L3,
                origin: Origin(6),
                ..
            }
        )));
    }

    #[test]
    fn writeback_traffic_counted() {
        let mut m = system();
        let mut sink = CollectSink::new();
        let mut t = 0;
        // Dirty many distinct lines so evictions cascade to DRAM.
        for i in 0..4096u64 {
            let out = m.demand_access(0, i * LINE_BYTES, true, t, 0x400, &mut sink);
            t += out.latency + 1;
        }
        let s = m.stats();
        assert!(s.dram.writebacks > 0, "dirty evictions must reach DRAM");
        assert!(s.dram.demand_reads >= 4096);
    }

    #[test]
    fn stats_accumulate_consistently() {
        let mut m = system();
        let mut sink = CollectSink::new();
        let mut t = 0;
        for i in 0..100u64 {
            let out = m.demand_access(0, (i % 10) * LINE_BYTES, false, t, 0x400, &mut sink);
            t += out.latency + 1;
        }
        let s = m.stats();
        let c = &s.cores[0];
        assert_eq!(c.accesses, 100);
        assert_eq!(c.l1_hits + c.l1_misses + c.l1_secondary, 100);
        assert_eq!(c.l1_misses, 10, "10 distinct lines, all fit in L1");
    }
}
