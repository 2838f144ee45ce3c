#![warn(missing_docs)]

//! Composite prefetching through division of labor — the primary
//! contribution of *Division of Labor: A More Effective Approach to
//! Prefetching* (Kondguli & Huang, ISCA 2018).
//!
//! The paper argues that rather than stretching one monolithic heuristic
//! over many access patterns (trading accuracy for scope), a prefetcher
//! should be a *composite* of small components, each specialized for one
//! pattern and highly accurate inside it. This crate implements:
//!
//! * [`Prefetcher`] — the component interface. Components observe the
//!   retired instruction stream (with per-access hit/miss/latency
//!   information and the `mPC = PC ^ RAS.top` call-site hash), emit
//!   [`PrefetchRequest`]s, and may ask to be called back with the value a
//!   prefetch returned (pointer chasing needs the data, not just the
//!   fill).
//! * [`Tpc`] — the paper's proof-of-concept composite with three
//!   components and a hardwired coordinator:
//!   - **T2** (Sec. IV-A): canonical strided streams from a single static
//!     instruction in an inner loop — loop-branch detection with a
//!     non-loop-PC table, a stride identifier table, 4-state instruction
//!     labels, and prefetch distance `(AMAT + margin) / T_iter`;
//!   - **P1** (Sec. IV-B): array-of-pointers and pointer-chain patterns
//!     found by taint propagation over the logical registers, prefetched
//!     by a serialized FSM with catch-up and steady states;
//!   - **C1** (Sec. IV-C): high-spatial-locality region prefetching with
//!     a Region Monitor and Instruction Monitor.
//!
//!   The coordinator tries T2, then P1, then C1, and routes T2/P1
//!   prefetches to L1 but C1's lower-confidence ones to L2.
//! * [`Composite`] (Sec. IV-E) — extends a TPC with existing monolithic
//!   prefetchers as *additional* components: extras only see instructions
//!   the specialized components do not claim, are assigned round-robin,
//!   and ownership migrates to whichever component's prefetched line
//!   serves a demand hit.
//! * [`Shunt`] — the contrast case: multiple prefetchers running
//!   concurrently, unaware of each other (Sec. V-C3 shows this is
//!   consistently *worse* than compositing).
//!
//! # Quick example
//!
//! ```
//! use dol_core::{Prefetcher, RetireInfo, Tpc, AccessInfo};
//! use dol_isa::{InstKind, RetiredInst, Reg};
//!
//! let mut tpc = Tpc::builder().build();
//! let mut out = Vec::new();
//! // Feed a strided load stream; after warm-up T2 starts prefetching.
//! for i in 0..64u64 {
//!     let inst = RetiredInst {
//!         pc: 0x1000,
//!         kind: InstKind::Load { addr: 0x8000 + i * 64, value: 0 },
//!         dst: Some(Reg::R1),
//!         srcs: [Some(Reg::R2), None],
//!     };
//!     let ev = RetireInfo {
//!         now: i * 10,
//!         inst: &inst,
//!         mpc: 0x1000,
//!         access: Some(AccessInfo {
//!             l1_hit: i > 0,
//!             secondary: false,
//!             latency: 3,
//!             served_by_prefetch: None,
//!         }),
//!     };
//!     tpc.on_retire(&ev, &mut out);
//! }
//! assert!(!out.is_empty(), "T2 must have begun prefetching the stream");
//! ```

mod api;
mod c1;
mod composite;
mod loop_hw;
mod p1;
mod shunt;
mod sit;
pub mod table;
mod tpc;

pub use api::{
    AccessInfo, CompletedPrefetch, NoPrefetcher, PrefetchRequest, Prefetcher, RetireInfo,
};
pub use c1::{C1Config, C1};
pub use composite::Composite;
pub use loop_hw::LoopHardware;
pub use shunt::Shunt;
pub use sit::{InstLabel, Sit, SitConfig};
pub use tpc::{Tpc, TpcBuilder, TpcConfig};

/// Well-known origin identifiers for metric attribution.
pub mod origins {
    use dol_mem::Origin;

    /// The T2 strided-stream component.
    pub const T2: Origin = Origin(1);
    /// The P1 pointer component.
    pub const P1: Origin = Origin(2);
    /// The C1 region component.
    pub const C1: Origin = Origin(3);
    /// First origin id for standalone monolithic prefetchers.
    pub const MONOLITHIC_BASE: u16 = 16;
    /// First origin id for extra components inside a [`crate::Composite`].
    pub const EXTRA_BASE: u16 = 32;
}

/// Default confidence (0–255) of T2 prefetches — high; they go to L1.
pub const CONF_T2: u8 = 230;
/// Default confidence of P1 prefetches — high; they go to L1.
pub const CONF_P1: u8 = 210;
/// Default confidence of C1 prefetches — low; they go to L2 and are shed
/// first under DRAM congestion (the paper's Sec. V-C drop ablation).
pub const CONF_C1: u8 = 90;
/// Default confidence assigned to monolithic prefetchers' requests.
pub const CONF_MONOLITHIC: u8 = 160;
