//! Core and system configuration.

use std::sync::Arc;

use dol_mem::{HierarchyConfig, LineSet};

/// Out-of-order core parameters (the paper's Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Dispatch/retire width.
    pub width: u32,
    /// Reorder-buffer entries.
    pub rob: usize,
    /// Load/store-queue entries.
    pub lsq: usize,
    /// Branch misprediction penalty in cycles.
    pub branch_penalty: u64,
    /// Return-address-stack depth.
    pub ras: usize,
    /// log2 of the gshare table size.
    pub gshare_bits: u32,
}

impl CoreConfig {
    /// The paper's Table I core: 4-wide, 192 ROB, 96 LSQ, 15-cycle
    /// branch-miss penalty, 32-entry RAS.
    pub fn isca2018() -> Self {
        CoreConfig {
            width: 4,
            rob: 192,
            lsq: 96,
            branch_penalty: 15,
            ras: 32,
            gshare_bits: 12,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::isca2018()
    }
}

/// Where prefetch requests actually go (the Figure 16 experiment).
///
/// The paper shows that prefetching everything to L1 beats everything to
/// L2 on average, but *stratified* placement — accurate categories to L1,
/// speculative ones to L2 — is best. TPC stratifies naturally (by
/// component); for monolithic prefetchers stratification requires the
/// offline oracle category map.
#[derive(Debug, Clone, Default)]
pub enum DestinationPolicy {
    /// Honor each request's own destination (TPC's natural behaviour).
    #[default]
    AsRequested,
    /// Force every prefetch into L1.
    ForceL1,
    /// Force every prefetch into L2.
    ForceL2,
    /// Oracle stratification: requests whose target line is in the set
    /// (the offline LHF lines) go to L1, everything else to L2. Line
    /// addresses are in the workload's own (untranslated) address space.
    /// Probed once per issued prefetch request.
    StratifiedByLine(Arc<LineSet>),
}

/// Full system configuration.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Per-core parameters.
    pub core: CoreConfig,
    /// Cache and DRAM parameters.
    pub hierarchy: HierarchyConfig,
    /// Prefetch destination override.
    pub dest_policy: DestinationPolicy,
}

impl SystemConfig {
    /// The paper's Table I configuration for `cores` cores.
    pub fn isca2018(cores: u32) -> Self {
        SystemConfig {
            core: CoreConfig::isca2018(),
            hierarchy: HierarchyConfig::isca2018(cores),
            dest_policy: DestinationPolicy::AsRequested,
        }
    }

    /// A scaled-down configuration for fast tests.
    pub fn tiny(cores: u32) -> Self {
        SystemConfig {
            core: CoreConfig::isca2018(),
            hierarchy: HierarchyConfig::tiny(cores),
            dest_policy: DestinationPolicy::AsRequested,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values() {
        let c = CoreConfig::isca2018();
        assert_eq!((c.width, c.rob, c.lsq, c.branch_penalty), (4, 192, 96, 15));
        let s = SystemConfig::isca2018(4);
        assert_eq!(s.hierarchy.cores, 4);
    }

    #[test]
    fn default_policy_is_as_requested() {
        assert!(matches!(
            DestinationPolicy::default(),
            DestinationPolicy::AsRequested
        ));
    }
}
