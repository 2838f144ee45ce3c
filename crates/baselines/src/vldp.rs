//! VLDP — Variable Length Delta Prefetcher (Shevgoor et al., MICRO 2015).
//!
//! Per-page delta histories feed three Delta Prediction Tables keyed by
//! the most recent one, two, and three deltas; the longest-history table
//! that hits wins. An Offset Prediction Table predicts the first delta of
//! a freshly touched page from its first-access offset.

use dol_core::table::{DirectTable, FullAssoc, Geometry};
use dol_core::{PrefetchRequest, Prefetcher, RetireInfo, CONF_MONOLITHIC};
use dol_mem::{Origin, LINE_BYTES};

const PAGE_BYTES: u64 = 4096;
const LINES_PER_PAGE: i64 = (PAGE_BYTES / LINE_BYTES) as i64;
const DHB_ENTRIES: usize = 64;
const DPT_ENTRIES: usize = 128;
const OPT_ENTRIES: usize = 64;
const DEGREE: usize = 4;

#[derive(Debug, Clone, Copy, Default)]
struct DhbEntry {
    last_offset: i64,
    /// Most recent deltas, newest first; 0 = empty slot.
    deltas: [i64; 3],
    num_deltas: u8,
}

#[derive(Debug, Clone, Copy, Default)]
struct DptEntry {
    prediction: i64,
    /// 2-bit accuracy counter.
    accuracy: u8,
}

/// The VLDP prefetcher (Table II: 3.25 KB — 64-entry DHB, 128-entry DPT
/// per level, 64-entry OPT).
#[derive(Debug, Clone)]
pub struct Vldp {
    origin: Origin,
    /// Delta history buffer, a [`FullAssoc`] keyed by page (pages are
    /// unique among live entries; one stamp per retire keeps LRU exact).
    dhb: FullAssoc<DhbEntry>,
    /// DPT-1, DPT-2, DPT-3: direct-mapped by the folded delta-history
    /// key, tagged by the full key (keyed by 1, 2, 3 most recent
    /// deltas).
    dpt: [DirectTable<DptEntry>; 3],
    /// OPT: direct-mapped and tagged by the first-access offset.
    opt: DirectTable<i64>,
    clock: u64,
}

fn key_of(deltas: &[i64]) -> u64 {
    let mut k = 0xcbf29ce484222325u64;
    for d in deltas {
        k ^= *d as u64;
        k = k.wrapping_mul(0x100000001b3);
    }
    k
}

impl Vldp {
    /// Builds the Table II configuration.
    pub fn new(origin: Origin) -> Self {
        Vldp {
            origin,
            dhb: FullAssoc::new(DHB_ENTRIES),
            dpt: [
                DirectTable::new(Geometry::direct(DPT_ENTRIES, 12, 9)),
                DirectTable::new(Geometry::direct(DPT_ENTRIES, 12, 9)),
                DirectTable::new(Geometry::direct(DPT_ENTRIES, 12, 9)),
            ],
            opt: DirectTable::new(Geometry::direct(OPT_ENTRIES, 6, 7)),
            clock: 0,
        }
    }

    fn train_dpt(&mut self, level: usize, history: &[i64], actual: i64) {
        let key = key_of(history);
        if let Some(e) = self.dpt[level].get_mut(key) {
            if e.prediction == actual {
                e.accuracy = (e.accuracy + 1).min(3);
            } else {
                e.accuracy = e.accuracy.saturating_sub(1);
                if e.accuracy == 0 {
                    e.prediction = actual;
                }
            }
        } else {
            self.dpt[level].insert(
                key,
                DptEntry {
                    prediction: actual,
                    accuracy: 1,
                },
            );
        }
    }

    fn predict_dpt(&self, history: &[i64], num: usize) -> Option<i64> {
        // Longest usable history first. The single-delta table demands a
        // repeat (accuracy ≥ 2) before predicting — otherwise every
        // random delta would fire a degree-4 garbage burst.
        for level in (0..num.min(3)).rev() {
            let key = key_of(&history[..=level]);
            let needed = if level == 0 { 2 } else { 1 };
            if let Some(e) = self.dpt[level].get(key) {
                if e.accuracy >= needed {
                    return Some(e.prediction);
                }
            }
        }
        None
    }
}

impl Prefetcher for Vldp {
    fn name(&self) -> &str {
        "VLDP"
    }

    fn storage_bits(&self) -> u64 {
        (3.25 * 8.0 * 1024.0) as u64
    }

    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        if ev.access.is_none() {
            return;
        }
        let Some(addr) = ev.inst.mem_addr() else {
            return;
        };
        let page = addr / PAGE_BYTES;
        let offset = ((addr % PAGE_BYTES) / LINE_BYTES) as i64;
        self.clock += 1;

        let idx = match self.dhb.find(page) {
            Some(i) => i,
            None => {
                // Allocate (LRU) and consult the OPT for the first delta.
                let victim = self.dhb.victim();
                self.dhb.put(
                    victim,
                    page,
                    self.clock,
                    DhbEntry {
                        last_offset: offset,
                        deltas: [0; 3],
                        num_deltas: 0,
                    },
                );
                if let Some(&prediction) = self.opt.get(offset as u64) {
                    let target_off = offset + prediction;
                    if (0..LINES_PER_PAGE).contains(&target_off) {
                        let target = page * PAGE_BYTES + target_off as u64 * LINE_BYTES;
                        out.push(PrefetchRequest::new(
                            target,
                            crate::DEST,
                            self.origin,
                            CONF_MONOLITHIC,
                        ));
                    }
                }
                return;
            }
        };

        // A same-line re-access leaves the entry (and its stamp) alone.
        let delta = offset - self.dhb.value(idx).last_offset;
        if delta == 0 {
            return;
        }
        let old = *self.dhb.value(idx);

        // Train the OPT on the page's first delta.
        if old.num_deltas == 0 {
            self.opt.insert(old.last_offset as u64, delta);
        }

        // Train each DPT with the history that preceded this delta.
        for level in 0..old.num_deltas.min(3) as usize {
            let hist = &old.deltas[..=level];
            self.train_dpt(level, hist, delta);
        }

        // Shift the new delta in.
        let e = self.dhb.value_mut(idx);
        e.deltas = [delta, old.deltas[0], old.deltas[1]];
        e.num_deltas = (old.num_deltas + 1).min(3);
        e.last_offset = offset;
        let hist0 = e.deltas;
        let num0 = e.num_deltas as usize;
        self.dhb.touch(idx, self.clock);

        // Predict up to DEGREE steps ahead by chaining predictions.
        let mut hist = hist0;
        let mut num = num0;
        let mut look_offset = offset;
        for _ in 0..DEGREE {
            let Some(d) = self.predict_dpt(&hist, num) else {
                break;
            };
            look_offset += d;
            if !(0..LINES_PER_PAGE).contains(&look_offset) {
                break;
            }
            let target = page * PAGE_BYTES + look_offset as u64 * LINE_BYTES;
            out.push(PrefetchRequest::new(
                target,
                crate::DEST,
                self.origin,
                CONF_MONOLITHIC,
            ));
            hist = [d, hist[0], hist[1]];
            num = (num + 1).min(3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{feed, strided};

    #[test]
    fn constant_stride_chains_to_full_degree() {
        let mut p = Vldp::new(Origin(18));
        let out = feed(&mut p, strided(0x100, 0x40_0000, 64, 30));
        assert!(!out.is_empty());
        let demand_last = 0x40_0000 + 29 * 64;
        let deepest = out.iter().map(|r| r.addr).max().unwrap();
        assert!(deepest >= demand_last + 2 * 64, "chained lookahead");
    }

    #[test]
    fn variable_length_pattern_uses_longer_history() {
        // Delta sequence per page: +1 +1 +2 | +1 +1 +2 | ... A 1-delta
        // table alone can't disambiguate after "+1"; the 2-delta table
        // can.
        let mut p = Vldp::new(Origin(18));
        let mut accesses = Vec::new();
        for page in 0..30u64 {
            let base = 0x40_0000 + page * PAGE_BYTES;
            let mut off = 0i64;
            for d in [1i64, 1, 2, 1, 1, 2, 1, 1, 2] {
                accesses.push((0x100u64, base + off as u64 * 64, false));
                off += d;
            }
        }
        let out = feed(&mut p, accesses);
        assert!(!out.is_empty());
        // At least one prefetch must land on a +2 step (offset divisible
        // patterns: offsets hit 0,1,2,4,5,6,8,... so the +2 targets are
        // offsets ≡ 0 mod 4).
        let hits_plus2 = out.iter().any(|r| ((r.addr % PAGE_BYTES) / 64) % 4 == 0);
        assert!(hits_plus2, "two-delta history must drive +2 predictions");
    }

    #[test]
    fn opt_predicts_first_delta_of_new_pages() {
        let mut p = Vldp::new(Origin(18));
        // Several pages all starting at offset 0 with first delta +3.
        let mut accesses = Vec::new();
        for page in 0..10u64 {
            let base = 0x40_0000 + page * PAGE_BYTES;
            accesses.push((0x100u64, base, false));
            accesses.push((0x100u64, base + 3 * 64, false));
            accesses.push((0x100u64, base + 6 * 64, false));
        }
        let out = feed(&mut p, accesses);
        // On later pages, the very first access must trigger an OPT
        // prefetch of offset 3.
        let opt_hits = out
            .iter()
            .filter(|r| (r.addr % PAGE_BYTES) / 64 == 3)
            .count();
        assert!(opt_hits > 0, "OPT must fire on fresh pages");
    }

    #[test]
    fn stays_inside_the_page() {
        let mut p = Vldp::new(Origin(18));
        let out = feed(&mut p, strided(0x100, 0x40_0000, 64, 200));
        for r in &out {
            assert_eq!(r.addr % 64, 0);
        }
    }
}
