//! Named prefetcher configurations for the experiments.

use dol_baselines::registry::{monolithic_by_name, monolithic_origin, MONOLITHIC_NAMES};
use dol_core::{
    origins, CompletedPrefetch, Composite, NoPrefetcher, PrefetchRequest, Prefetcher, RetireInfo,
    Shunt, Tpc, TpcBuilder,
};
use dol_mem::Origin;

/// The comparison set of the paper's Figure 8: seven monolithic designs
/// plus TPC (all monolithics prefetch into L1, per the paper's
/// footnote 5).
pub const COMPARISON_SET: [&str; 8] = [
    "GHB-PC/DC",
    "FDP",
    "VLDP",
    "SPP",
    "BOP",
    "AMPM",
    "SMS",
    "TPC",
];

/// The four existing prefetchers the paper composites/shunts with TPC
/// (Sec. V-C2/3).
pub const EXTRA_SET: [&str; 4] = ["VLDP", "SPP", "FDP", "SMS"];

/// Origin used for an extra component inside a composite or shunt.
pub fn extra_origin(i: usize) -> Origin {
    Origin(origins::EXTRA_BASE + i as u16)
}

/// A built prefetcher configuration, dispatched statically for the
/// built-in component arrangements.
///
/// The per-retire call into the prefetcher is the simulator's hottest
/// edge; routing the three built-in shapes (bare TPC, TPC compositing
/// one extra, no-prefetch) through an enum lets the compiler
/// monomorphize `System::run` with direct calls into `Tpc`, keeping
/// `Box<dyn Prefetcher>` only for the open-ended monolithic registry
/// and the shunt contrast case.
///
/// The variant sizes differ by design: boxing the large variants would
/// reintroduce the pointer chase this enum removes from the hot loop,
/// and at most a handful of `Built`s exist at a time (one per simulated
/// core), so the footprint delta is irrelevant.
#[allow(clippy::large_enum_variant)]
pub enum Built {
    /// The no-prefetch baseline.
    None(NoPrefetcher),
    /// A (possibly partial) TPC composite — statically dispatched.
    Tpc(Tpc),
    /// TPC plus one extra component under the coordinator — the base's
    /// per-retire path is static; the extra stays behind `dyn`.
    Composite(Composite<Tpc>),
    /// TPC shunted with an extra (the negative-contrast case; stays
    /// fully dynamic on purpose — it is not a perf-critical config).
    Shunt(Shunt),
    /// A monolithic prefetcher from the registry.
    Mono(Box<dyn Prefetcher>),
}

impl Prefetcher for Built {
    fn name(&self) -> &str {
        match self {
            Built::None(p) => p.name(),
            Built::Tpc(p) => p.name(),
            Built::Composite(p) => p.name(),
            Built::Shunt(p) => p.name(),
            Built::Mono(p) => p.name(),
        }
    }

    fn storage_bits(&self) -> u64 {
        match self {
            Built::None(p) => p.storage_bits(),
            Built::Tpc(p) => p.storage_bits(),
            Built::Composite(p) => p.storage_bits(),
            Built::Shunt(p) => p.storage_bits(),
            Built::Mono(p) => p.storage_bits(),
        }
    }

    #[inline]
    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        match self {
            Built::None(p) => p.on_retire(ev, out),
            Built::Tpc(p) => p.on_retire(ev, out),
            Built::Composite(p) => p.on_retire(ev, out),
            Built::Shunt(p) => p.on_retire(ev, out),
            Built::Mono(p) => p.on_retire(ev, out),
        }
    }

    #[inline]
    fn on_prefetch_complete(&mut self, pf: &CompletedPrefetch, out: &mut Vec<PrefetchRequest>) {
        match self {
            Built::None(p) => p.on_prefetch_complete(pf, out),
            Built::Tpc(p) => p.on_prefetch_complete(pf, out),
            Built::Composite(p) => p.on_prefetch_complete(pf, out),
            Built::Shunt(p) => p.on_prefetch_complete(pf, out),
            Built::Mono(p) => p.on_prefetch_complete(pf, out),
        }
    }

    fn claims_pc(&self, mpc: u64) -> bool {
        match self {
            Built::None(p) => p.claims_pc(mpc),
            Built::Tpc(p) => p.claims_pc(mpc),
            Built::Composite(p) => p.claims_pc(mpc),
            Built::Shunt(p) => p.claims_pc(mpc),
            Built::Mono(p) => p.claims_pc(mpc),
        }
    }
}

/// Builds a prefetcher configuration by name.
///
/// Recognized names:
/// * `"none"` — the no-prefetch baseline,
/// * `"TPC"`, `"T2"`, `"P1"`, `"C1"`, `"T2+P1"` — the composite and its
///   partial configurations,
/// * `"TPC-plainPC"` — TPC without the `mPC` call-site hash (ablation),
/// * any of [`dol_baselines::registry::MONOLITHIC_NAMES`] (plus
///   `"NextLine"`, `"StridePC"`),
/// * `"TPC+<mono>"` — TPC compositing an extra component,
/// * `"TPC|<mono>"` — TPC shunting with the same prefetcher.
pub fn build(name: &str) -> Option<Built> {
    match name {
        "none" => Some(Built::None(NoPrefetcher)),
        "TPC" => Some(Built::Tpc(Tpc::full())),
        "T2" => Some(Built::Tpc(Tpc::t2_only())),
        "P1" => Some(Built::Tpc(Tpc::p1_only())),
        "C1" => Some(Built::Tpc(
            TpcBuilder::new().t2(false).p1(false).name("C1").build(),
        )),
        "T2+P1" => Some(Built::Tpc(TpcBuilder::new().c1(false).build())),
        "TPC-plainPC" => Some(Built::Tpc(
            TpcBuilder::new().plain_pc().name("TPC-plainPC").build(),
        )),
        _ => {
            if let Some(rest) = name.strip_prefix("TPC+") {
                let extra = monolithic_by_name(rest, extra_origin(0))?;
                return Some(Built::Composite(Composite::with_extra(
                    Tpc::full(),
                    extra_origin(0),
                    extra,
                )));
            }
            if let Some(rest) = name.strip_prefix("TPC|") {
                let extra = monolithic_by_name(rest, extra_origin(0))?;
                return Some(Built::Shunt(Shunt::new(vec![Box::new(Tpc::full()), extra])));
            }
            let idx = MONOLITHIC_NAMES.iter().position(|n| *n == name);
            let origin = idx
                .map(monolithic_origin)
                .unwrap_or(Origin(origins::MONOLITHIC_BASE));
            monolithic_by_name(name, origin).map(Built::Mono)
        }
    }
}

/// Origins that belong to TPC's own components.
pub fn tpc_origins() -> Vec<Origin> {
    vec![origins::T2, origins::P1, origins::C1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_set_builds() {
        for name in COMPARISON_SET {
            let p = build(name).unwrap_or_else(|| panic!("{name} must build"));
            assert_eq!(p.name(), name);
        }
    }

    #[test]
    fn composites_and_shunts_build() {
        for extra in EXTRA_SET {
            let c = build(&format!("TPC+{extra}")).unwrap();
            assert_eq!(c.name(), format!("TPC+{extra}"));
            let s = build(&format!("TPC|{extra}")).unwrap();
            assert_eq!(s.name(), format!("TPC|{extra}"));
        }
    }

    #[test]
    fn partials_and_unknown() {
        assert!(build("T2").is_some());
        assert!(build("P1").is_some());
        assert!(build("C1").is_some());
        assert!(build("none").is_some());
        assert!(build("TPC-plainPC").is_some());
        assert!(build("definitely-not-a-prefetcher").is_none());
        assert!(build("TPC+nope").is_none());
    }
}
