//! SMS — Spatial Memory Streaming (Somogyi et al., ISCA 2006).
//!
//! Records, per spatial region generation, the bit pattern of lines
//! touched, keyed by the (PC, region offset) of the *trigger* access. On
//! the next trigger with the same key, the recorded pattern is replayed
//! over the new region. Active generations accumulate in the Accumulation
//! Table; single-access regions wait in the Filter Table; ended
//! generations store their pattern in the Pattern History Table.

use dol_core::table::{DirectTable, FullAssoc, Geometry};
use dol_core::{PrefetchRequest, Prefetcher, RetireInfo, CONF_MONOLITHIC};
use dol_mem::{line_of, region_of, Origin, LINE_BYTES, REGION_LINES};

const AT_ENTRIES: usize = 64;
const FT_ENTRIES: usize = 32;
const PHT_ENTRIES: usize = 512;

#[derive(Debug, Clone, Copy, Default)]
struct AtEntry {
    /// Trigger key: pc ^ (offset within region).
    key: u64,
    pattern: u16,
}

#[derive(Debug, Clone, Copy, Default)]
struct FtEntry {
    key: u64,
    trigger_offset: u16,
}

/// The SMS prefetcher (Table II: 12 KB — 64-entry AT, 32-entry FT,
/// 512-entry PHT).
///
/// The AT and FT live in [`FullAssoc`] tables keyed by region, so the
/// per-retire probes are branch-free passes over packed key vectors
/// instead of record scans (regions are unique within each table, and
/// the shared clock stamps at most one entry per table per retire, so
/// lookup and LRU-victim results are unchanged).
#[derive(Debug, Clone)]
pub struct Sms {
    origin: Origin,
    at: FullAssoc<AtEntry>,
    ft: FullAssoc<FtEntry>,
    /// Pattern history: direct-mapped by `key % PHT_ENTRIES`, tagged by
    /// the full trigger key.
    pht: DirectTable<u16>,
    clock: u64,
}

impl Sms {
    /// Builds the Table II configuration.
    pub fn new(origin: Origin) -> Self {
        Sms {
            origin,
            at: FullAssoc::new(AT_ENTRIES),
            ft: FullAssoc::new(FT_ENTRIES),
            pht: DirectTable::new(Geometry::direct(PHT_ENTRIES, 30, 16)),
            clock: 0,
        }
    }

    fn key(pc: u64, offset: u64) -> u64 {
        // PC-only keying (the SMS paper evaluates PC, PC+offset and
        // address triggers; PC-only generalizes the most, which is what
        // gives SMS the broadest scope in the ISCA-2018 comparison).
        let _ = offset;
        pc >> 2
    }

    fn pht_store(&mut self, key: u64, pattern: u16) {
        // Only patterns with more than the trigger line are worth keeping.
        if pattern.count_ones() <= 1 {
            return;
        }
        self.pht.insert(key, pattern);
    }

    fn pht_lookup(&self, key: u64) -> Option<u16> {
        self.pht.get(key).copied()
    }
}

impl Prefetcher for Sms {
    fn name(&self) -> &str {
        "SMS"
    }

    fn storage_bits(&self) -> u64 {
        12 * 8 * 1024
    }

    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        if ev.access.is_none() {
            return;
        }
        let Some(addr) = ev.inst.mem_addr() else {
            return;
        };
        self.clock += 1;
        let region = region_of(addr);
        let offset = line_of(addr) % REGION_LINES;
        let pc = ev.inst.pc;

        // Already accumulating?
        if let Some(i) = self.at.find(region) {
            self.at.value_mut(i).pattern |= 1 << offset;
            self.at.touch(i, self.clock);
            return;
        }
        // Second access to a filtered region promotes it to the AT.
        if let Some(i) = self.ft.find(region) {
            let f = *self.ft.value(i);
            if u64::from(f.trigger_offset) == offset {
                // Same line again; stay in the filter.
                return;
            }
            self.ft.invalidate(i);
            let victim = self.at.victim();
            let displaced = self.at.put(
                victim,
                region,
                self.clock,
                AtEntry {
                    key: f.key,
                    pattern: (1 << f.trigger_offset) | (1 << offset),
                },
            );
            // An evicted generation's pattern is worth remembering.
            if let Some(old) = displaced {
                self.pht_store(old.key, old.pattern);
            }
            return;
        }

        // A trigger access: new spatial region generation.
        let key = Self::key(pc, offset);
        // Predict from history.
        if let Some(pattern) = self.pht_lookup(key) {
            let base_line = region * REGION_LINES;
            for k in 0..REGION_LINES {
                if k == offset {
                    continue;
                }
                if pattern & (1 << k) != 0 {
                    out.push(PrefetchRequest::new(
                        (base_line + k) * LINE_BYTES,
                        crate::DEST,
                        self.origin,
                        CONF_MONOLITHIC,
                    ));
                }
            }
        }
        // Start filtering the new generation.
        let victim = self.ft.victim();
        self.ft.put(
            victim,
            region,
            self.clock,
            FtEntry {
                key,
                trigger_offset: offset as u16,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::feed;

    /// A pc touching offsets {0, 3, 7, 9} of each region it visits.
    fn pattern_walk(pc: u64, regions: std::ops::Range<u64>) -> Vec<(u64, u64, bool)> {
        let mut v = Vec::new();
        for r in regions {
            for off in [0u64, 3, 7, 9] {
                v.push((
                    pc,
                    r * REGION_LINES * LINE_BYTES + off * LINE_BYTES,
                    off != 0,
                ));
            }
        }
        v
    }

    #[test]
    fn replays_the_recorded_pattern() {
        let mut p = Sms::new(Origin(21));
        // Train over many regions (AT evictions store patterns in PHT).
        feed(&mut p, pattern_walk(0x100, 0..80));
        // Fresh region, same trigger (pc, offset 0): predict {3, 7, 9}.
        let out = feed(
            &mut p,
            vec![(0x100, 500 * REGION_LINES * LINE_BYTES, false)],
        );
        let offsets: std::collections::BTreeSet<u64> =
            out.iter().map(|r| line_of(r.addr) % REGION_LINES).collect();
        assert_eq!(offsets, [3u64, 7, 9].into_iter().collect());
    }

    #[test]
    fn pc_keying_generalizes_across_trigger_offsets() {
        let mut p = Sms::new(Origin(21));
        feed(&mut p, pattern_walk(0x100, 0..80));
        // Trigger at a fresh offset still predicts this pc's pattern
        // (PC-only keying maximizes scope, matching the paper's SMS
        // characterization).
        let out = feed(
            &mut p,
            vec![(
                0x100,
                600 * REGION_LINES * LINE_BYTES + 5 * LINE_BYTES,
                false,
            )],
        );
        assert!(!out.is_empty());
    }

    #[test]
    fn single_access_regions_never_pollute_the_pht() {
        let mut p = Sms::new(Origin(21));
        // Touch many regions exactly once.
        let singles: Vec<_> = (0..200u64)
            .map(|r| (0x300u64, r * REGION_LINES * LINE_BYTES, false))
            .collect();
        feed(&mut p, singles);
        let out = feed(
            &mut p,
            vec![(0x300, 999 * REGION_LINES * LINE_BYTES, false)],
        );
        assert!(out.is_empty(), "one-line patterns are not stored");
    }

    #[test]
    fn patterns_are_per_pc() {
        let mut p = Sms::new(Origin(21));
        feed(&mut p, pattern_walk(0x100, 0..80));
        let out = feed(
            &mut p,
            vec![(0x500, 700 * REGION_LINES * LINE_BYTES, false)],
        );
        assert!(out.is_empty(), "another pc must not inherit the pattern");
    }
}
