//! Construction of the paper's comparison set.

use crate::{Ampm, Bop, Fdp, GhbPcDc, NextLine, Sms, Spp, StridePc, Vldp};
use dol_core::{origins, Prefetcher};
use dol_mem::Origin;

/// Names of the seven monolithic prefetchers of the paper's evaluation,
/// in Table II order.
pub const MONOLITHIC_NAMES: [&str; 7] = ["GHB-PC/DC", "SPP", "VLDP", "BOP", "FDP", "SMS", "AMPM"];

/// Builds one monolithic prefetcher by name with the given origin.
/// Returns `None` for unknown names.
pub fn monolithic_by_name(name: &str, origin: Origin) -> Option<Box<dyn Prefetcher>> {
    Some(match name {
        "GHB-PC/DC" => Box::new(GhbPcDc::new(origin)),
        "SPP" => Box::new(Spp::new(origin)),
        "VLDP" => Box::new(Vldp::new(origin)),
        "BOP" => Box::new(Bop::new(origin)),
        "FDP" => Box::new(Fdp::new(origin)),
        "SMS" => Box::new(Sms::new(origin)),
        "AMPM" => Box::new(Ampm::new(origin)),
        "NextLine" => Box::new(NextLine::new(origin)),
        "StridePC" => Box::new(StridePc::new(origin)),
        _ => return None,
    })
}

/// The origin assigned to monolithic prefetcher `i` of
/// [`MONOLITHIC_NAMES`].
pub fn monolithic_origin(i: usize) -> Origin {
    Origin(origins::MONOLITHIC_BASE + i as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_seven_build_with_distinct_origins_and_names() {
        let mut origins: Vec<u16> = (0..MONOLITHIC_NAMES.len())
            .map(|i| monolithic_origin(i).0)
            .collect();
        origins.sort_unstable();
        origins.dedup();
        assert_eq!(origins.len(), 7);
        for (i, name) in MONOLITHIC_NAMES.iter().enumerate() {
            let p = monolithic_by_name(name, monolithic_origin(i)).expect("known name");
            assert_eq!(p.name(), *name);
        }
    }

    #[test]
    fn storage_budgets_match_table_ii() {
        let kb = |name: &str| {
            monolithic_by_name(name, Origin(16)).unwrap().storage_bits() as f64 / 8192.0
        };
        assert_eq!(kb("GHB-PC/DC"), 4.0);
        assert_eq!(kb("SPP"), 5.0);
        assert!((kb("VLDP") - 3.25).abs() < 0.01);
        assert_eq!(kb("BOP"), 4.0);
        assert!((kb("FDP") - 2.5).abs() < 0.01);
        assert_eq!(kb("SMS"), 12.0);
        assert_eq!(kb("AMPM"), 4.0);
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(monolithic_by_name("nope", Origin(16)).is_none());
    }
}
