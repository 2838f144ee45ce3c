//! Named prefetcher configurations for the experiments.

use dol_baselines::registry::{monolithic_by_name, monolithic_origin, MONOLITHIC_NAMES};
use dol_core::{origins, Composite, NoPrefetcher, Prefetcher, Shunt, Tpc, TpcBuilder};
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

/// A built configuration. Every one, from the bare TPC to a shunt, is a
/// boxed [`Prefetcher`].
pub type Built = Box<dyn Prefetcher>;

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
pub fn build(name: &str) -> Option<Box<dyn Prefetcher>> {
    match name {
        "none" => Some(Box::new(NoPrefetcher)),
        "TPC" => Some(Box::new(Tpc::full())),
        "T2" => Some(Box::new(Tpc::t2_only())),
        "P1" => Some(Box::new(Tpc::p1_only())),
        "C1" => Some(Box::new(
            TpcBuilder::new().t2(false).p1(false).name("C1").build(),
        )),
        "T2+P1" => Some(Box::new(TpcBuilder::new().c1(false).build())),
        "TPC-plainPC" => Some(Box::new(
            TpcBuilder::new().plain_pc().name("TPC-plainPC").build(),
        )),
        _ => {
            if let Some(rest) = name.strip_prefix("TPC+") {
                let extra = monolithic_by_name(rest, extra_origin(0))?;
                return Some(Box::new(Composite::with_extra(
                    Box::new(Tpc::full()),
                    extra_origin(0),
                    extra,
                )));
            }
            if let Some(rest) = name.strip_prefix("TPC|") {
                let extra = monolithic_by_name(rest, extra_origin(0))?;
                return Some(Box::new(Shunt::new(vec![Box::new(Tpc::full()), extra])));
            }
            let idx = MONOLITHIC_NAMES.iter().position(|n| *n == name);
            let origin = idx
                .map(monolithic_origin)
                .unwrap_or(Origin(origins::MONOLITHIC_BASE));
            monolithic_by_name(name, origin)
        }
    }
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
