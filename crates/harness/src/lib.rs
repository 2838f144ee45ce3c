#![warn(missing_docs)]

//! Experiment harness: regenerates every table and figure of
//! *Division of Labor: A More Effective Approach to Prefetching*
//! (ISCA 2018).
//!
//! Each experiment lives in [`experiments`] as a `run(&RunPlan)` function
//! returning a typed report with a rendered text table; the binaries in
//! `src/bin/` are thin wrappers. `run_all` regenerates everything and is
//! what `EXPERIMENTS.md` is produced from.
//!
//! Reproduction targets the paper's *shape* — who wins, by roughly what
//! factor, where the crossovers fall — not gem5's absolute numbers; see
//! `DESIGN.md` for the substitutions. Each report carries soft
//! band-checks ([`bands::Expectation`]) that compare our measurements
//! against the paper's headline claims and print `ok`/`DEVIATES` lines.
//!
//! # Budgets
//!
//! The default plan simulates 1 M instructions per workload (the paper
//! uses 5 × 10 M-instruction SimPoints). Override with the `DOL_INSTS`
//! environment variable; benches use [`RunPlan::quick`].

pub mod analysis;
pub mod bands;
pub mod bench;
pub mod experiments;
pub mod phase;
pub mod plan;
pub mod prefetchers;
pub mod runner;
pub mod sweep;
pub mod traces;

pub use bands::Expectation;
pub use plan::{EnvError, RunPlan};
pub use runner::{AppRun, BaselineRun};
