#![warn(missing_docs)]

//! Memory-hierarchy substrate for the Division-of-Labor prefetching study.
//!
//! The paper evaluates prefetchers inside gem5's memory system; this crate
//! is a from-scratch replacement providing every interface the study needs:
//!
//! * [`Cache`] — set-associative caches with LRU/FIFO/random replacement and
//!   per-line prefetch metadata (which component brought the line in, and
//!   whether a demand access has used it yet),
//! * [`MshrFile`] — miss-status holding registers with secondary-miss
//!   merging (secondary misses are excluded from all metrics, matching the
//!   paper's footnote 2),
//! * [`ShadowTags`] — an "alternative reality" tag array updated only by
//!   the demand stream, used to charge prefetch-induced misses and credit
//!   avoided misses exactly as Sec. V-C of the paper describes,
//! * [`Dram`] — a banked DDR3-like model with finite per-channel queues and
//!   a configurable [`DropPolicy`] for prefetches under congestion (the
//!   paper's Sec. V-C multicore ablation), and
//! * [`MemorySystem`] — private L1D/L2 per core, a shared L3, and the DRAM
//!   model, with demand-access and prefetch entry points and a metric event
//!   stream ([`MemEvent`]).
//!
//! [`LineSet`], a set of line addresses kept as per-page bitmaps, is the
//! one line-set type of the workspace (footprints, prefetched lines,
//! regions, the stratified-destination oracle).
//!
//! Latency modeling is *calculator style*: each access is resolved to a
//! completion latency immediately, with contention captured through bank
//! ready times, MSHR occupancy, and in-flight fill windows. This keeps the
//! simulator fast enough to sweep ~40 workloads × ~12 prefetcher
//! configurations while preserving the relative behaviour the paper's
//! figures depend on (hit/miss outcomes, pollution, bandwidth pressure).

mod cache;
mod config;
mod dram;
mod events;
mod hierarchy;
mod inflight;
mod line_set;
mod mshr;
mod shadow;

pub use cache::{Cache, EvictInfo, LookupOutcome};
pub use config::{CacheConfig, DramConfig, HierarchyConfig, ReplacementPolicy};
pub use dram::{Dram, DramRequest, DramStats, DropPolicy, LOW_CONFIDENCE};
pub use events::{CollectSink, DropReason, EventSink, MemEvent, NullSink, Origin};
pub use hierarchy::{DemandOutcome, MemorySystem, PrefetchOutcome, SharedStats, SystemStats};
pub use line_set::LineSet;
pub use mshr::{MshrFile, MshrStats};
pub use shadow::ShadowTags;

/// Bytes per cache line throughout the study.
pub const LINE_BYTES: u64 = 64;

/// Log2 of [`LINE_BYTES`].
pub const LINE_SHIFT: u32 = 6;

/// Cache lines per spatial region for the C1 prefetcher (a region is a
/// "super cache line" of 16 lines = 1 KiB).
pub const REGION_LINES: u64 = 16;

/// The cache level a prefetch is destined for, or an access observed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CacheLevel {
    /// Private first-level data cache.
    L1,
    /// Private second-level cache.
    L2,
    /// Shared last-level cache.
    L3,
}

impl std::fmt::Display for CacheLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheLevel::L1 => write!(f, "L1"),
            CacheLevel::L2 => write!(f, "L2"),
            CacheLevel::L3 => write!(f, "L3"),
        }
    }
}

/// Converts a byte address to its cache-line address (line index, not bytes).
#[inline]
pub fn line_of(addr: u64) -> u64 {
    addr >> LINE_SHIFT
}

/// Converts a byte address to its region index (16-line regions).
#[inline]
pub fn region_of(addr: u64) -> u64 {
    line_of(addr) / REGION_LINES
}

/// First byte address of a cache line given its line index.
#[inline]
pub fn line_base(line: u64) -> u64 {
    line << LINE_SHIFT
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_and_region_math() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 1);
        assert_eq!(line_base(line_of(0x12345)), 0x12345 & !63);
        assert_eq!(region_of(0), 0);
        assert_eq!(region_of(16 * 64 - 1), 0);
        assert_eq!(region_of(16 * 64), 1);
    }

    #[test]
    fn cache_level_displays() {
        assert_eq!(CacheLevel::L1.to_string(), "L1");
        assert_eq!(CacheLevel::L3.to_string(), "L3");
    }
}
