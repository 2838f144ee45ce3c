//! Layer clocks, timed from outside the simulator.
//!
//! The simulator exposes three trait seams on its per-instruction edge:
//! [`Prefetcher`] (the `dol-core` and `dol-baselines` crates),
//! [`EventSink`] (`dol-metrics`) and [`InstSource`] (`dol-trace`). The
//! wrappers here implement those traits around the real component,
//! forward every call unchanged, count what crosses the seam, and time a
//! random sample of the calls.
//!
//! An `Instant` pair costs tens of nanoseconds, as much as a whole
//! prefetcher call, so timing every call would drown the layers in timer
//! cost. Each wrapper times about one call in [`SAMPLE_MEAN`], picked
//! with random gaps (a fixed stride would alias with kernel loops), and
//! subtracts the calibrated cost of an empty span ([`calibrate_timer_ns`]).

use std::time::Instant;

use dol_core::{CompletedPrefetch, PrefetchRequest, Prefetcher, RetireInfo};
use dol_isa::{InstSource, RetiredInst};
use dol_mem::{CacheLevel, EventSink, MemEvent, Origin};

/// Mean number of calls between two timed calls.
pub const SAMPLE_MEAN: u32 = 32;

/// Origins are small integers (TPC components 1-3, monolithic designs
/// from 16, composite extras from 32); larger ones share the last slot.
pub const ORIGIN_SLOTS: usize = 64;

/// The mean duration an empty span reads, in nanoseconds: what a timed
/// call reports on top of the work inside it. A mean, because the span
/// estimates scale mean sampled durations; reads over eight times the
/// median are interrupts, not timer cost, and are left out.
pub fn calibrate_timer_ns() -> f64 {
    let mut reads: Vec<u128> = (0..100_000)
        .map(|_| {
            let t = Instant::now();
            t.elapsed().as_nanos()
        })
        .collect();
    reads.sort_unstable();
    let cap = reads[reads.len() / 2] * 8;
    let kept: Vec<u128> = reads.into_iter().filter(|&r| r <= cap).collect();
    kept.iter().sum::<u128>() as f64 / kept.len() as f64
}

/// Picks which calls get timed: gaps uniform in `1..2 * SAMPLE_MEAN`.
#[derive(Debug, Clone)]
struct Sampler {
    state: u64,
    left: u32,
}

impl Sampler {
    fn new(seed: u64) -> Self {
        Sampler {
            state: seed | 1,
            left: 0,
        }
    }

    #[inline]
    fn tick(&mut self) -> bool {
        if self.left > 0 {
            self.left -= 1;
            return false;
        }
        // xorshift64: timing noise only, never simulated state.
        self.state ^= self.state << 13;
        self.state ^= self.state >> 7;
        self.state ^= self.state << 17;
        self.left = (self.state % (2 * SAMPLE_MEAN as u64 - 1)) as u32;
        true
    }
}

/// Calls through one seam and the sampled time spent inside them.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    /// Calls forwarded.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Summed raw durations of the timed calls.
    pub sampled_ns: u64,
}

impl Span {
    /// Estimated time inside the seam over all calls, timer cost removed.
    pub fn estimate_ns(&self, timer_ns: f64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let per_call = self.sampled_ns as f64 / self.sampled as f64 - timer_ns;
        per_call.max(0.0) * self.calls as f64
    }

    /// Adds another span's counts.
    pub fn add(&mut self, other: &Span) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }
}

/// One sampled clock: a [`Span`] plus the sampler that feeds it.
#[derive(Debug, Clone)]
pub struct Clock {
    span: Span,
    sampler: Sampler,
}

impl Clock {
    /// A clock whose sampling gaps derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Clock {
            span: Span::default(),
            sampler: Sampler::new(seed),
        }
    }

    /// Runs `f`, timing it if this call is sampled.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.span.calls += 1;
        if !self.sampler.tick() {
            return f();
        }
        let t = Instant::now();
        let r = f();
        self.span.sampled_ns += t.elapsed().as_nanos() as u64;
        self.span.sampled += 1;
        r
    }

    /// What this clock measured.
    pub fn span(&self) -> Span {
        self.span
    }
}

fn slot(origin: Origin) -> usize {
    (origin.0 as usize).min(ORIGIN_SLOTS - 1)
}

/// A [`Prefetcher`] wrapper: times `on_retire`/`on_prefetch_complete`
/// and counts emitted requests by origin.
pub struct TimedPrefetcher<P> {
    inner: P,
    clock: Clock,
    /// Requests emitted, per origin slot.
    pub reqs: [u64; ORIGIN_SLOTS],
}

impl<P: Prefetcher> TimedPrefetcher<P> {
    /// Wraps `inner`.
    pub fn new(inner: P, seed: u64) -> Self {
        TimedPrefetcher {
            inner,
            clock: Clock::new(seed),
            reqs: [0; ORIGIN_SLOTS],
        }
    }

    /// Time spent in the wrapped prefetcher.
    pub fn span(&self) -> Span {
        self.clock.span()
    }

    fn count(&mut self, out: &[PrefetchRequest]) {
        for r in out {
            self.reqs[slot(r.origin)] += 1;
        }
    }
}

impl<P: Prefetcher> Prefetcher for TimedPrefetcher<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    #[inline]
    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        let before = out.len();
        let inner = &mut self.inner;
        self.clock.time(|| inner.on_retire(ev, out));
        self.count(&out[before..]);
    }

    #[inline]
    fn on_prefetch_complete(&mut self, pf: &CompletedPrefetch, out: &mut Vec<PrefetchRequest>) {
        let before = out.len();
        let inner = &mut self.inner;
        self.clock.time(|| inner.on_prefetch_complete(pf, out));
        self.count(&out[before..]);
    }

    fn claims_pc(&self, mpc: u64) -> bool {
        self.inner.claims_pc(mpc)
    }
}

/// Prefetch lifecycle counts per cache level and origin slot, as seen by
/// the sink.
///
/// "Useful" is a first demand use *at a level*: a prefetch into L1 also
/// fills L2 and L3 with its origin tag, so one issued prefetch can earn a
/// first use at each level it sits in. Counts are therefore compared
/// level by level, never summed across levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OriginCounts {
    /// `PrefetchIssued` events, by destination level.
    pub issued: [[u64; ORIGIN_SLOTS]; 3],
    /// `PrefetchUseful` events, by the level of the hit.
    pub useful: [[u64; ORIGIN_SLOTS]; 3],
    /// `PrefetchDropped` events.
    pub dropped: [u64; ORIGIN_SLOTS],
}

impl Default for OriginCounts {
    fn default() -> Self {
        OriginCounts {
            issued: [[0; ORIGIN_SLOTS]; 3],
            useful: [[0; ORIGIN_SLOTS]; 3],
            dropped: [0; ORIGIN_SLOTS],
        }
    }
}

fn level(l: CacheLevel) -> usize {
    match l {
        CacheLevel::L1 => 0,
        CacheLevel::L2 => 1,
        CacheLevel::L3 => 2,
    }
}

impl OriginCounts {
    /// Adds another run's counts.
    pub fn add(&mut self, other: &OriginCounts) {
        for l in 0..3 {
            for s in 0..ORIGIN_SLOTS {
                self.issued[l][s] += other.issued[l][s];
                self.useful[l][s] += other.useful[l][s];
            }
        }
        for s in 0..ORIGIN_SLOTS {
            self.dropped[s] += other.dropped[s];
        }
    }

    /// Sums `(issued, useful, dropped)` over the origin slots in `range`,
    /// where a prefetch is useful if it served a demand at the level it
    /// was issued to.
    pub fn sum(&self, range: std::ops::Range<usize>) -> (u64, u64, u64) {
        let mut t = (0, 0, 0);
        for s in range {
            for l in 0..3 {
                t.0 += self.issued[l][s];
                if self.issued[l][s] > 0 {
                    t.1 += self.useful[l][s];
                }
            }
            t.2 += self.dropped[s];
        }
        t
    }

    /// Whether, for every origin and level, first uses at that level do
    /// not outnumber the origin's issued prefetches.
    pub fn useful_within_issued(&self) -> bool {
        (0..ORIGIN_SLOTS).all(|s| {
            let issued: u64 = (0..3).map(|l| self.issued[l][s]).sum();
            (0..3).all(|l| self.useful[l][s] <= issued)
        })
    }
}

/// An [`EventSink`] wrapper: times `emit` and counts prefetch lifecycle
/// events by origin.
pub struct TimedSink<S> {
    inner: S,
    clock: Clock,
    /// Prefetch events per origin.
    pub counts: OriginCounts,
}

impl<S: EventSink> TimedSink<S> {
    /// Wraps `inner`.
    pub fn new(inner: S, seed: u64) -> Self {
        TimedSink {
            inner,
            clock: Clock::new(seed),
            counts: OriginCounts::default(),
        }
    }

    /// Time spent in the wrapped sink; `calls` is the event count.
    pub fn span(&self) -> Span {
        self.clock.span()
    }

    /// The wrapped sink.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: EventSink> EventSink for TimedSink<S> {
    #[inline]
    fn emit(&mut self, ev: MemEvent) {
        match &ev {
            MemEvent::PrefetchIssued { origin, dest, .. } => {
                self.counts.issued[level(*dest)][slot(*origin)] += 1
            }
            MemEvent::PrefetchUseful {
                origin, level: l, ..
            } => self.counts.useful[level(*l)][slot(*origin)] += 1,
            MemEvent::PrefetchDropped { origin, .. } => self.counts.dropped[slot(*origin)] += 1,
            _ => {}
        }
        let inner = &mut self.inner;
        self.clock.time(|| inner.emit(ev));
    }
}

/// An [`InstSource`] wrapper: times `next_inst`.
///
/// It implements only `next_inst`, so a wrapped source is pulled one
/// instruction at a time even where the bare source would be read in
/// blocks; the traced pass's overhead figure includes that difference.
pub struct TimedSource<I> {
    inner: I,
    clock: Clock,
}

impl<I: InstSource> TimedSource<I> {
    /// Wraps `inner`.
    pub fn new(inner: I, seed: u64) -> Self {
        TimedSource {
            inner,
            clock: Clock::new(seed),
        }
    }

    /// Time spent in the wrapped source.
    pub fn span(&self) -> Span {
        self.clock.span()
    }

    /// The wrapped source.
    pub fn into_inner(self) -> I {
        self.inner
    }
}

impl<I: InstSource> InstSource for TimedSource<I> {
    #[inline]
    fn next_inst(&mut self) -> Option<RetiredInst> {
        let inner = &mut self.inner;
        self.clock.time(|| inner.next_inst())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dol_cpu::{RunResult, System, SystemConfig, Workload};
    use dol_harness::prefetchers;
    use dol_isa::TraceCursor;
    use dol_metrics::StreamingMetrics;

    fn capture(name: &str, insts: u64) -> Workload {
        let spec = dol_workloads::by_name(name).expect("kernel exists");
        Workload::capture(spec.build_vm(7), insts).expect("kernel captures")
    }

    fn assert_same(a: &RunResult, b: &RunResult) {
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.instructions, b.instructions);
        assert_eq!(a.stalls, b.stalls);
        assert_eq!(a.mispredicts, b.mispredicts);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn wrapped_single_core_run_equals_bare_run() {
        let sys = System::new(SystemConfig::isca2018(1));
        for kernel in ["listchase", "stream_sum", "region_shuffle"] {
            let w = capture(kernel, 30_000);
            for config in ["TPC", "SPP", "none"] {
                let mut bare_p = prefetchers::build(config).expect("known config");
                let mut bare_sink = StreamingMetrics::new();
                let (bare, _) = sys.run_source_with_sink(
                    TraceCursor::new(w.trace.as_slice()),
                    &w.memory,
                    &mut bare_p,
                    &mut bare_sink,
                );
                let mut p = TimedPrefetcher::new(prefetchers::build(config).unwrap(), 1);
                let mut sink = TimedSink::new(StreamingMetrics::new(), 2);
                let source = TimedSource::new(TraceCursor::new(w.trace.as_slice()), 3);
                let (wrapped, source) =
                    sys.run_source_with_sink(source, &w.memory, &mut p, &mut sink);
                assert_same(&bare, &wrapped);
                // Every instruction, plus the end-of-stream probes.
                assert!(source.span().calls > w.trace.len() as u64);
                assert!(p.span().sampled > 0 && sink.counts.useful_within_issued());
                let issued: u64 = sink.counts.issued.iter().flatten().sum();
                assert_eq!(issued, wrapped.stats.cores[0].prefetches);
                let wrapped_sink = sink.into_inner();
                assert_eq!(
                    format!("{:?}", bare_sink.accuracy_at(dol_mem::CacheLevel::L1, None)),
                    format!(
                        "{:?}",
                        wrapped_sink.accuracy_at(dol_mem::CacheLevel::L1, None)
                    )
                );
            }
        }
    }

    #[test]
    fn wrapped_corun_equals_bare_corun() {
        let sys = System::new(SystemConfig::isca2018(4));
        let ws =
            ["stream_triad", "listchase", "histogram", "matrix_col"].map(|k| capture(k, 20_000));
        let build = |name| prefetchers::build(name).expect("known config");
        let bare = sys.run_corun(&ws, &mut ["SMS"; 4].map(build), &mut dol_mem::NullSink);
        let mut wrapped_p = ["SMS"; 4].map(|n| TimedPrefetcher::new(build(n), 5));
        let mut sink = TimedSink::new(dol_mem::NullSink, 6);
        let wrapped = sys.run_corun(&ws, &mut wrapped_p, &mut sink);
        assert_eq!(bare.cores, wrapped.cores);
        assert_eq!(bare.stalls, wrapped.stalls);
        assert_eq!(bare.mispredicts, wrapped.mispredicts);
        assert_eq!(bare.stats, wrapped.stats);
        assert!(sink.span().calls > 0);
    }

    #[test]
    fn span_estimate_scales_sampled_mean_to_all_calls() {
        let span = Span {
            calls: 100,
            sampled: 4,
            sampled_ns: 400,
        };
        assert_eq!(span.estimate_ns(20.0), 8000.0);
        assert_eq!(span.estimate_ns(500.0), 0.0);
        assert_eq!(Span::default().estimate_ns(1.0), 0.0);
    }

    #[test]
    fn sampler_gaps_average_the_sample_mean() {
        let mut s = Sampler::new(42);
        let n = 320_000;
        let hits = (0..n).filter(|_| s.tick()).count() as f64;
        let mean_gap = n as f64 / hits;
        assert!((mean_gap - SAMPLE_MEAN as f64).abs() < 1.0, "{mean_gap}");
    }
}
