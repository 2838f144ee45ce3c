#![warn(missing_docs)]

//! Monolithic baseline prefetchers for the Division-of-Labor study.
//!
//! The paper compares its composite TPC against seven state-of-the-art
//! monolithic designs (Table II): GHB-PC/DC, SPP, VLDP, BOP, FDP, SMS and
//! AMPM. This crate implements all of them from scratch against the
//! [`dol_core::Prefetcher`] interface, plus two classics (next-line and a
//! PC-stride table) used as reference points in tests and ablations.
//!
//! All implementations follow the published algorithms at the Table II
//! configuration sizes. Known simplifications (documented per module and
//! in `DESIGN.md`):
//!
//! * FDP's pollution feedback uses prefetch-accuracy estimates from
//!   served-by-prefetch hits rather than a bloom filter over evicted
//!   lines, because evictions are not visible through the component
//!   interface.
//! * SPP's global history register handles page-boundary bootstrapping
//!   with the signature of the previous page rather than full cross-page
//!   delta stitching.
//!
//! Every design prefetches into L1 ([`DEST`]). Build one by name with
//! [`registry::monolithic_by_name`], or construct it directly:
//!
//! ```
//! use dol_baselines::Bop;
//! use dol_core::Prefetcher;
//! use dol_mem::Origin;
//!
//! let bop = Bop::new(Origin(17));
//! assert_eq!(bop.name(), "BOP");
//! assert_eq!(bop.storage_bits(), 4 * 8 * 1024);
//! ```

mod ampm;
mod bop;
mod fdp;
mod ghb;
mod next_line;
pub mod registry;
mod sms;
mod spp;
mod stride_pc;
mod vldp;

pub use ampm::Ampm;
pub use bop::Bop;
pub use fdp::Fdp;
pub use ghb::GhbPcDc;
pub use next_line::NextLine;
pub use sms::Sms;
pub use spp::Spp;
pub use stride_pc::StridePc;
pub use vldp::Vldp;

use dol_mem::CacheLevel;

/// Where every monolithic design prefetches: L1, as in the paper's
/// evaluation (footnote 5). Figure 16 moves prefetches elsewhere through
/// the system-level destination policy, not here.
pub const DEST: CacheLevel = CacheLevel::L1;

#[cfg(test)]
pub(crate) mod testutil {
    use dol_core::{AccessInfo, PrefetchRequest, Prefetcher, RetireInfo};
    use dol_isa::{InstKind, Reg, RetiredInst};

    /// Feed a sequence of `(pc, addr, l1_hit)` loads to a prefetcher and
    /// collect everything it issues.
    pub fn feed(
        p: &mut dyn Prefetcher,
        accesses: impl IntoIterator<Item = (u64, u64, bool)>,
    ) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for (i, (pc, addr, hit)) in accesses.into_iter().enumerate() {
            let inst = RetiredInst {
                pc,
                kind: InstKind::Load { addr, value: 0 },
                dst: Some(Reg::R1),
                srcs: [Some(Reg::R2), None],
            };
            let ev = RetireInfo {
                now: i as u64 * 10,
                inst: &inst,
                mpc: pc,
                access: Some(AccessInfo {
                    l1_hit: hit,
                    secondary: false,
                    latency: if hit { 3 } else { 200 },
                    served_by_prefetch: None,
                }),
            };
            p.on_retire(&ev, &mut out);
        }
        out
    }

    /// A strided miss stream from one pc.
    pub fn strided(pc: u64, base: u64, stride: u64, n: u64) -> Vec<(u64, u64, bool)> {
        (0..n).map(|i| (pc, base + i * stride, false)).collect()
    }
}
