//! Configuration of caches, DRAM, and the whole hierarchy.

use crate::dram::DropPolicy;
use crate::LINE_BYTES;

/// Geometry and timing of one cache. Every cache uses LRU replacement,
/// the paper's configuration for all levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Access latency in core cycles.
    pub latency: u64,
    /// Number of miss-status holding registers.
    pub mshrs: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways, or capacity not a
    /// multiple of `ways * LINE_BYTES`, or a non-power-of-two set count).
    pub fn sets(&self) -> u64 {
        assert!(self.ways > 0, "cache must have at least one way");
        let per_way = self.size_bytes / (self.ways as u64 * LINE_BYTES);
        assert!(
            per_way * self.ways as u64 * LINE_BYTES == self.size_bytes,
            "capacity must be ways * sets * 64B"
        );
        assert!(
            per_way.is_power_of_two(),
            "set count must be a power of two"
        );
        per_way
    }

    /// The paper's 64 KiB 4-way L1D (1 ns at 3 GHz ≈ 3 cycles), 32 MSHRs.
    pub fn isca2018_l1d() -> Self {
        CacheConfig {
            size_bytes: 64 * 1024,
            ways: 4,
            latency: 3,
            mshrs: 32,
        }
    }

    /// The paper's 256 KiB 8-way private L2 (3 ns ≈ 9 cycles), 32 MSHRs.
    pub fn isca2018_l2() -> Self {
        CacheConfig {
            size_bytes: 256 * 1024,
            ways: 8,
            latency: 9,
            mshrs: 32,
        }
    }

    /// The paper's shared L3: 2 MiB per core, 16-way (12 ns ≈ 36 cycles).
    pub fn isca2018_l3(cores: u32) -> Self {
        CacheConfig {
            size_bytes: 2 * 1024 * 1024 * cores as u64,
            ways: 16,
            latency: 36,
            mshrs: 64,
        }
    }
}

/// DDR3-like memory configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent channels.
    pub channels: u32,
    /// Banks per channel (ranks × banks folded together).
    pub banks_per_channel: u32,
    /// Row-activate latency (tRCD) in core cycles.
    pub t_activate: u64,
    /// Column access + burst for a row-buffer hit, in core cycles.
    pub t_access: u64,
    /// Precharge latency (tRP) in core cycles for a row conflict.
    pub t_precharge: u64,
    /// Row-buffer capacity in bytes (addresses in the same row hit open rows).
    pub row_bytes: u64,
    /// Maximum outstanding requests per channel before the queue is full.
    pub queue_capacity: u32,
    /// What to do with prefetches when a channel queue is full.
    pub drop_policy: DropPolicy,
}

impl DramConfig {
    /// The paper's DDR3-1600, 2 channels, 2 ranks × 8 banks, at a 3 GHz
    /// core clock: tRCD = 13.75 ns ≈ 41 cycles, tRP ≈ 41 cycles; a
    /// row-buffer hit (CL + burst) ≈ 60 cycles.
    pub fn isca2018() -> Self {
        DramConfig {
            channels: 2,
            banks_per_channel: 16,
            t_activate: 41,
            t_access: 60,
            t_precharge: 41,
            row_bytes: 8 * 1024,
            queue_capacity: 32,
            drop_policy: DropPolicy::Random,
        }
    }
}

/// Configuration of the full memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of cores (private L1D + L2 each).
    pub cores: u32,
    /// Per-core L1 data cache.
    pub l1d: CacheConfig,
    /// Per-core L2.
    pub l2: CacheConfig,
    /// Shared L3.
    pub l3: CacheConfig,
    /// Shared DRAM.
    pub dram: DramConfig,
}

impl HierarchyConfig {
    /// The paper's Table I configuration for `cores` cores.
    pub fn isca2018(cores: u32) -> Self {
        assert!(cores >= 1, "need at least one core");
        HierarchyConfig {
            cores,
            l1d: CacheConfig::isca2018_l1d(),
            l2: CacheConfig::isca2018_l2(),
            l3: CacheConfig::isca2018_l3(cores),
            dram: DramConfig::isca2018(),
        }
    }

    /// A scaled-down configuration for fast unit tests: 4 KiB L1,
    /// 16 KiB L2, 64 KiB L3, same latencies.
    pub fn tiny(cores: u32) -> Self {
        HierarchyConfig {
            cores,
            l1d: CacheConfig {
                size_bytes: 4 * 1024,
                ways: 4,
                latency: 3,
                mshrs: 8,
            },
            l2: CacheConfig {
                size_bytes: 16 * 1024,
                ways: 8,
                latency: 9,
                mshrs: 8,
            },
            l3: CacheConfig {
                size_bytes: 64 * 1024,
                ways: 16,
                latency: 36,
                mshrs: 16,
            },
            dram: DramConfig::isca2018(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isca_geometries_are_consistent() {
        assert_eq!(CacheConfig::isca2018_l1d().sets(), 256);
        assert_eq!(CacheConfig::isca2018_l2().sets(), 512);
        assert_eq!(CacheConfig::isca2018_l3(1).sets(), 2048);
        assert_eq!(CacheConfig::isca2018_l3(4).sets(), 8192);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_panics() {
        CacheConfig {
            size_bytes: 3 * 1024,
            ways: 4,
            latency: 1,
            mshrs: 4,
        }
        .sets();
    }

    #[test]
    fn hierarchy_defaults() {
        let h = HierarchyConfig::isca2018(4);
        assert_eq!(h.cores, 4);
        assert_eq!(h.l3.size_bytes, 8 * 1024 * 1024);
        assert_eq!(h.dram.channels, 2);
    }
}
