//! Metric events emitted by the memory system.

use crate::CacheLevel;

/// Opaque identity of the agent that issued a prefetch.
///
/// The memory system tags prefetched lines with their origin and reports it
/// back in every metric event, but never interprets it. The prefetching
/// layer encodes component identity (T2, P1, C1, a monolithic design, …) in
/// the value; the metrics layer maps origins to accounting buckets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Origin(pub u16);

/// Why a prefetch request was not serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The line was already present at (or above) the destination level.
    Redundant,
    /// The line already had a fetch in flight.
    InFlight,
    /// The destination cache's MSHRs were exhausted.
    NoMshr,
    /// A full DRAM queue dropped it under the active [`crate::DropPolicy`].
    QueueFull,
}

/// One metric-relevant event from the memory system.
///
/// Events carry *line* addresses (not byte addresses). Cores are numbered
/// from zero; the shared L3 reports the requesting core.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemEvent {
    /// A prefetch entered the hierarchy.
    PrefetchIssued {
        /// Requesting core.
        core: u32,
        /// Target line.
        line: u64,
        /// Issuing agent.
        origin: Origin,
        /// Destination level.
        dest: CacheLevel,
    },
    /// A prefetch request was discarded.
    PrefetchDropped {
        /// Requesting core.
        core: u32,
        /// Target line.
        line: u64,
        /// Issuing agent.
        origin: Origin,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A demand access hit a prefetched line for the first time.
    PrefetchUseful {
        /// Requesting core.
        core: u32,
        /// Cache level where the hit occurred.
        level: CacheLevel,
        /// The line.
        line: u64,
        /// Agent that prefetched it.
        origin: Origin,
    },
    /// A prefetched line was evicted without ever serving a demand access.
    PrefetchUnused {
        /// Core that owns the cache (requesting core for L3).
        core: u32,
        /// Level it was evicted from.
        level: CacheLevel,
        /// The line.
        line: u64,
        /// Agent that prefetched it.
        origin: Origin,
    },
    /// A demand access that would have missed without prefetching hit
    /// because a prefetched line was present: one positive credit.
    AvoidedMiss {
        /// Requesting core.
        core: u32,
        /// Level of the avoided miss.
        level: CacheLevel,
        /// The line.
        line: u64,
        /// Agent whose prefetch earned the credit.
        origin: Origin,
    },
    /// A demand access missed although it would have hit without
    /// prefetching: one negative credit, split equally among the
    /// prefetched lines currently in the set (the paper's Sec. V-C rule).
    InducedMiss {
        /// Requesting core.
        core: u32,
        /// Level of the induced miss.
        level: CacheLevel,
        /// The missing line.
        line: u64,
        /// Origins of the prefetched lines sharing the blame (may be empty
        /// if no prefetched line remains in the set; the event still
        /// records that pollution displaced the line earlier).
        blamed: Vec<Origin>,
    },
    /// A primary demand miss (secondary misses are merged and not
    /// reported, per the paper's footnote 2).
    DemandMiss {
        /// Requesting core.
        core: u32,
        /// Level that missed.
        level: CacheLevel,
        /// The line.
        line: u64,
        /// PC of the instruction, when known (prefetch-triggered fills
        /// report 0).
        pc: u64,
    },
}

/// Consumer of the memory system's metric event stream.
///
/// The hierarchy emits every [`MemEvent`] through a sink the caller
/// supplies, instead of accumulating an unbounded `Vec` internally —
/// metrics are computed online in O(1) memory (see `dol_metrics`'
/// streaming accumulators) and long runs no longer pay for event
/// storage. [`CollectSink`] restores the old buffer-everything
/// behaviour for tests, debugging, and ad-hoc event analysis;
/// [`NullSink`] discards events for runs that only need timing and
/// counters.
///
/// The hierarchy's shadow tags, which replay every demand access in the
/// no-prefetch reality, are built and run only for sinks that read
/// pollution ([`reads_pollution`](Self::reads_pollution)): their state
/// reaches the [`MemEvent::AvoidedMiss`] and [`MemEvent::InducedMiss`]
/// events only, never a [`crate::DemandOutcome`], a timing or a counter.
pub trait EventSink {
    /// Receives one event, in emission order.
    fn emit(&mut self, ev: MemEvent);

    /// Whether this sink reads [`MemEvent::AvoidedMiss`] and
    /// [`MemEvent::InducedMiss`]; a sink that answers `false` never
    /// receives them. The answer must not change over a run.
    fn reads_pollution(&self) -> bool {
        true
    }
}

/// A sink that discards every event (timing/counter-only runs); it reads
/// no pollution, so its runs skip the shadow tags.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    #[inline]
    fn emit(&mut self, _ev: MemEvent) {}

    #[inline]
    fn reads_pollution(&self) -> bool {
        false
    }
}

/// A sink that buffers every event — the pre-streaming behaviour,
/// preserved for tests and raw event capture.
#[derive(Debug, Clone, Default)]
pub struct CollectSink {
    /// The buffered events, in emission order.
    pub events: Vec<MemEvent>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the sink, returning the buffered events.
    pub fn into_events(self) -> Vec<MemEvent> {
        self.events
    }
}

impl EventSink for CollectSink {
    #[inline]
    fn emit(&mut self, ev: MemEvent) {
        self.events.push(ev);
    }
}

impl MemEvent {
    /// The line address the event concerns.
    pub fn line(&self) -> u64 {
        match *self {
            MemEvent::PrefetchIssued { line, .. }
            | MemEvent::PrefetchDropped { line, .. }
            | MemEvent::PrefetchUseful { line, .. }
            | MemEvent::PrefetchUnused { line, .. }
            | MemEvent::AvoidedMiss { line, .. }
            | MemEvent::InducedMiss { line, .. }
            | MemEvent::DemandMiss { line, .. } => line,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_line_extraction() {
        let e = MemEvent::DemandMiss {
            core: 0,
            level: CacheLevel::L1,
            line: 42,
            pc: 0x100,
        };
        assert_eq!(e.line(), 42);
        let e = MemEvent::InducedMiss {
            core: 1,
            level: CacheLevel::L2,
            line: 7,
            blamed: vec![Origin(3)],
        };
        assert_eq!(e.line(), 7);
    }

    #[test]
    fn sinks_collect_or_discard() {
        let ev = MemEvent::DemandMiss {
            core: 0,
            level: CacheLevel::L1,
            line: 42,
            pc: 0x100,
        };
        let mut c = CollectSink::new();
        c.emit(ev.clone());
        c.emit(ev.clone());
        assert_eq!(c.events.len(), 2);
        assert_eq!(c.into_events()[0].line(), 42);
        NullSink.emit(ev);
        assert!(!NullSink.reads_pollution());
        assert!(CollectSink::new().reads_pollution());
    }
}
