//! AMPM — Access Map Pattern Matching (Ishii et al., JILP 2011).
//!
//! Keeps per-4 KiB-zone access maps (one 2-state entry per line:
//! accessed / not) and, on each access at line `t`, tests candidate
//! strides `k`: if lines `t−k` and `t−2k` were accessed but `t+k` was
//! not, `t+k` is prefetched. The pattern match is stateless over the map,
//! so it picks up strided streams regardless of which instructions
//! generate them.

use dol_core::table::FullAssoc;
use dol_core::{PrefetchRequest, Prefetcher, RetireInfo, CONF_MONOLITHIC};
use dol_mem::{Origin, LINE_BYTES};

const ZONE_BYTES: u64 = 4096;
const LINES_PER_ZONE: i64 = (ZONE_BYTES / LINE_BYTES) as i64; // 64
const MAPS: usize = 128;
/// Candidate strides tested per access.
const MAX_STRIDE: i64 = 16;
/// Prefetches issued per access.
const DEGREE: usize = 4;

#[derive(Debug, Clone, Copy, Default)]
struct Zone {
    accessed: u64,
    prefetched: u64,
}

/// The AMPM prefetcher (Table II: 4 KB — 128 access maps × 256 bits).
///
/// The maps live in a [`FullAssoc`] keyed by zone number: the per-access
/// probe is a branch-free pass over the packed key vector (zones are
/// unique among live maps; `zone_index` stamps exactly one map per call,
/// so LRU victims are unchanged).
#[derive(Debug, Clone)]
pub struct Ampm {
    origin: Origin,
    zones: FullAssoc<Zone>,
    clock: u64,
}

impl Ampm {
    /// Builds the Table II configuration.
    pub fn new(origin: Origin) -> Self {
        Ampm {
            origin,
            zones: FullAssoc::new(MAPS),
            clock: 0,
        }
    }

    fn zone_index(&mut self, zone: u64) -> usize {
        self.clock += 1;
        if let Some(i) = self.zones.find(zone) {
            self.zones.touch(i, self.clock);
            return i;
        }
        let victim = self.zones.victim();
        self.zones.put(victim, zone, self.clock, Zone::default());
        victim
    }

    /// Whether line offset `o` in the zone pair `(cur, neighbor)` is
    /// accessed; offsets outside `0..64` consult the neighbor map.
    fn is_accessed(&self, cur: usize, off: i64) -> bool {
        if (0..LINES_PER_ZONE).contains(&off) {
            let z = self.zones.value(cur);
            (z.accessed | z.prefetched) & (1 << off) != 0
        } else {
            false
        }
    }
}

impl Prefetcher for Ampm {
    fn name(&self) -> &str {
        "AMPM"
    }

    fn storage_bits(&self) -> u64 {
        4 * 8 * 1024
    }

    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        if ev.access.is_none() {
            return;
        }
        let Some(addr) = ev.inst.mem_addr() else {
            return;
        };
        let zone = addr / ZONE_BYTES;
        let t = ((addr % ZONE_BYTES) / LINE_BYTES) as i64;
        let idx = self.zone_index(zone);
        self.zones.value_mut(idx).accessed |= 1 << t;

        // Pattern match: forward and backward strides.
        let mut issued = 0;
        for k in 1..=MAX_STRIDE {
            for dir in [1i64, -1] {
                if issued >= DEGREE {
                    return;
                }
                let stride = k * dir;
                let target = t + stride;
                if !(0..LINES_PER_ZONE).contains(&target) {
                    continue;
                }
                if self.is_accessed(idx, target) {
                    continue;
                }
                if self.is_accessed(idx, t - stride) && self.is_accessed(idx, t - 2 * stride) {
                    self.zones.value_mut(idx).prefetched |= 1 << target;
                    issued += 1;
                    out.push(PrefetchRequest::new(
                        zone * ZONE_BYTES + target as u64 * LINE_BYTES,
                        crate::DEST,
                        self.origin,
                        CONF_MONOLITHIC,
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{feed, strided};

    #[test]
    fn forward_stride_is_matched() {
        let mut p = Ampm::new(Origin(22));
        let out = feed(&mut p, strided(0x100, 0x40_0000, 64, 10));
        assert!(!out.is_empty());
        // The first prefetch fires at the third access (t−1, t−2 set).
        assert_eq!(out[0].addr, 0x40_0000 + 3 * 64);
    }

    #[test]
    fn backward_stride_is_matched() {
        let mut p = Ampm::new(Origin(22));
        let base = 0x40_0000 + 32 * 64;
        let accesses: Vec<_> = (0..10u64)
            .map(|i| (0x100u64, base - i * 64, false))
            .collect();
        let out = feed(&mut p, accesses);
        assert!(!out.is_empty());
        assert!(out[0].addr < base - 2 * 64);
    }

    #[test]
    fn instruction_agnostic_matching() {
        // The same stream issued from alternating pcs still matches —
        // AMPM looks only at the map.
        let mut p = Ampm::new(Origin(22));
        let accesses: Vec<_> = (0..10u64)
            .map(|i| (0x100 + (i % 2) * 4, 0x40_0000 + i * 64, false))
            .collect();
        let out = feed(&mut p, accesses);
        assert!(!out.is_empty());
    }

    #[test]
    fn strides_wider_than_one_line_match() {
        let mut p = Ampm::new(Origin(22));
        let out = feed(&mut p, strided(0x100, 0x40_0000, 4 * 64, 8));
        assert!(!out.is_empty());
        assert!(out.iter().all(|r| (r.addr - 0x40_0000) % (4 * 64) == 0));
    }

    #[test]
    fn prefetched_lines_are_not_reissued() {
        let mut p = Ampm::new(Origin(22));
        let out = feed(&mut p, strided(0x100, 0x40_0000, 64, 30));
        let mut addrs: Vec<u64> = out.iter().map(|r| r.addr).collect();
        let n = addrs.len();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), n, "no duplicates within a zone");
    }

    #[test]
    fn stays_inside_the_zone() {
        let mut p = Ampm::new(Origin(22));
        let out = feed(&mut p, strided(0x100, 0x40_0000, 64, 100));
        for r in &out {
            assert!(r.addr >= 0x40_0000 && r.addr < 0x40_0000 + 2 * ZONE_BYTES);
        }
    }
}
