#![warn(missing_docs)]

//! Trace-driven timing simulation: an out-of-order-approximate core model
//! and single-/multi-core system drivers.
//!
//! The paper evaluates on gem5 (Table I: 4-wide OoO, 192-entry ROB,
//! 96-entry LSQ, 15-cycle branch-miss penalty). This crate replaces that
//! with a fast *trace-driven* model that preserves what prefetching
//! studies need:
//!
//! * memory-level parallelism bounded by the ROB/LSQ windows and MSHRs,
//! * dependence-limited issue via a register ready-time scoreboard,
//! * front-end stalls from branch mispredictions (gshare + loop
//!   predictor),
//! * per-access latencies from the [`dol_mem::MemorySystem`], and
//! * full prefetcher integration: retire-stream training with `mPC`
//!   (PC ^ RAS.top), request issue with destination-policy overrides
//!   (Figure 16), and value callbacks for pointer-chain prefetchers.
//!
//! Functional execution is prefetcher-independent, so one
//! [`dol_isa::Trace`] per workload is replayed through the timing model
//! under every prefetcher configuration.

mod branch;
mod config;
mod system;

pub use branch::BranchPredictor;
pub use config::{CoreConfig, DestinationPolicy, SystemConfig};
pub use system::{MultiRunResult, RunResult, System, Workload};
