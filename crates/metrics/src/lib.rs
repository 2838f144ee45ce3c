#![warn(missing_docs)]

//! Prefetcher evaluation metrics from the paper's Sec. III and V.
//!
//! * [`mod@scope`] — the paper's *prefetching scope* `S(P)`: the fraction of
//!   the baseline miss footprint (weighted by per-line miss counts) that
//!   the prefetcher *attempted*, regardless of usefulness. A
//!   [`FootprintSink`] streams a baseline run's footprint.
//! * [`accounting`] — *effective accuracy* (misses avoided per prefetch
//!   issued, with pollution debited through the alternative-reality
//!   shadow tags) and *effective coverage* (percent reduction of
//!   misses).
//! * [`classify`] — the offline low-/mid-/high-hanging-fruit (LHF / MHF /
//!   HHF) stratification of Sec. V-C1: strided accesses, non-strided
//!   accesses with high spatial locality, and everything else.
//! * [`stats`] — geometric means, weighted speedup, and scatter
//!   summaries.
//! * [`stream`] — [`StreamingMetrics`], an [`dol_mem::EventSink`] that
//!   computes a prefetcher run's accuracy accounting and attempted-line
//!   sets online, bit-identical to replaying a buffered event vector
//!   through the slice-based functions.
//! * [`table`] — plain-text table rendering for the figure/table
//!   binaries.

pub mod accounting;
pub mod classify;
pub mod scatter;
pub mod scope;
pub mod stats;
pub mod stream;
pub mod table;

pub use accounting::{accuracy_at, coverage, EffectiveAccuracy};
pub use classify::{classify_trace, Category, Classifier};
pub use dol_mem::LineSet;
pub use scatter::{accuracy_scope_plot, ScatterPoint};
pub use scope::{footprint, prefetched_lines, scope, Footprint, FootprintSink};
pub use stats::{geomean, weighted_speedup, WeightedPoint};
pub use stream::{CoreCells, StreamingMetrics};
pub use table::TextTable;
