//! GHB PC/DC — the Global History Buffer with per-PC delta correlation
//! (Nesbit & Smith, HPCA 2004).
//!
//! A 256-entry FIFO of miss addresses; an index table maps PCs to their
//! most recent GHB entry; entries are linked backwards per PC. On each
//! training access the per-PC address history is reconstructed, turned
//! into deltas, and the most recent delta *pair* is searched backwards in
//! the history (delta correlation); the deltas that followed the previous
//! occurrence of the pair are replayed from the current address.

use dol_core::table::{DirectTable, Geometry, IndexKind};
use dol_core::{PrefetchRequest, Prefetcher, RetireInfo, CONF_MONOLITHIC};
use dol_mem::Origin;

const GHB_ENTRIES: usize = 256;
const INDEX_ENTRIES: usize = 256;
/// Maximum per-PC history walked for correlation.
const WALK_DEPTH: usize = 64;
/// Deltas replayed after a pair match (prefetch degree).
const DEGREE: usize = 4;

#[derive(Debug, Clone, Copy, Default)]
struct GhbEntry {
    addr: u64,
    /// Absolute sequence number of the previous entry by the same PC
    /// (u64::MAX = none).
    prev: u64,
}

/// The GHB PC/DC prefetcher (Table II: 4 KB — 256-entry GHB + 256-entry
/// index table).
#[derive(Debug, Clone)]
pub struct GhbPcDc {
    origin: Origin,
    ghb: Vec<GhbEntry>,
    /// Index table: direct-mapped by `(pc >> 2) % INDEX_ENTRIES`, tagged
    /// by the full PC; the payload is the absolute sequence number of
    /// the PC's most recent GHB entry.
    index: DirectTable<u64>,
    /// Monotone count of pushes; `seq - GHB_ENTRIES` is the oldest live.
    seq: u64,
}

impl GhbPcDc {
    /// Builds the Table II configuration.
    pub fn new(origin: Origin) -> Self {
        GhbPcDc {
            origin,
            ghb: vec![GhbEntry::default(); GHB_ENTRIES],
            index: DirectTable::new(Geometry {
                sets: INDEX_ENTRIES,
                ways: 1,
                tag_bits: 30,
                value_bits: 8,
                index: IndexKind::LowBits { shift: 2 },
            }),
            seq: 0,
        }
    }

    fn live(&self, seq: u64) -> bool {
        seq != u64::MAX && seq < self.seq && self.seq - seq <= GHB_ENTRIES as u64
    }

    fn push(&mut self, pc: u64, addr: u64) {
        let prev = self.index.get(pc).copied().unwrap_or(u64::MAX);
        self.ghb[(self.seq % GHB_ENTRIES as u64) as usize] = GhbEntry { addr, prev };
        self.index.insert(pc, self.seq);
        self.seq += 1;
    }

    /// Reconstructs this PC's recent addresses, newest first.
    fn history(&self, pc: u64) -> Vec<u64> {
        let Some(&head) = self.index.get(pc) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(WALK_DEPTH);
        let mut cur = head;
        while self.live(cur) && out.len() < WALK_DEPTH {
            let e = self.ghb[(cur % GHB_ENTRIES as u64) as usize];
            out.push(e.addr);
            cur = e.prev;
        }
        out
    }
}

impl Prefetcher for GhbPcDc {
    fn name(&self) -> &str {
        "GHB-PC/DC"
    }

    fn storage_bits(&self) -> u64 {
        4 * 8 * 1024
    }

    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        let Some(access) = ev.access else { return };
        let Some(addr) = ev.inst.mem_addr() else {
            return;
        };
        // GHB trains on the L2 access stream: misses plus prefetch-served
        // hits (the miss stream alone disappears once prefetching works).
        if access.secondary || (access.l1_hit && access.served_by_prefetch.is_none()) {
            return;
        }
        let pc = ev.inst.pc;
        self.push(pc, addr);

        let hist = self.history(pc); // newest first, includes `addr`
        if hist.len() < 4 {
            return;
        }
        // Deltas, newest first: d[i] = hist[i] - hist[i+1].
        let deltas: Vec<i64> = hist
            .windows(2)
            .map(|w| w[0].wrapping_sub(w[1]) as i64)
            .collect();
        let key = (deltas[0], deltas[1]);
        // Search for the previous occurrence of the pair, skipping the
        // current position.
        let mut matched = None;
        for i in 1..deltas.len().saturating_sub(1) {
            if (deltas[i], deltas[i + 1]) == key {
                matched = Some(i);
                break;
            }
        }
        let Some(i) = matched else { return };
        // Replay the deltas that followed that occurrence (they precede
        // index i in newest-first order), oldest-to-newest.
        let mut target = addr;
        for k in (i.saturating_sub(DEGREE)..i).rev() {
            target = target.wrapping_add(deltas[k] as u64);
            if target > 4096 {
                out.push(PrefetchRequest::new(
                    target,
                    crate::DEST,
                    self.origin,
                    CONF_MONOLITHIC,
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{feed, strided};

    #[test]
    fn constant_stride_is_a_degenerate_delta_pair() {
        let mut p = GhbPcDc::new(Origin(16));
        let out = feed(&mut p, strided(0x100, 0x10_0000, 256, 30));
        assert!(!out.is_empty());
        // Replayed deltas are all 256.
        let last = out.last().unwrap().addr;
        let demand = 0x10_0000 + 29 * 256;
        assert!(last > demand);
        assert_eq!((last - demand) % 256, 0);
    }

    #[test]
    fn repeating_delta_pattern_is_replayed() {
        // Pattern of deltas: +64, +64, +4096, repeating.
        let mut p = GhbPcDc::new(Origin(16));
        let mut addr = 0x10_0000u64;
        let mut accesses = Vec::new();
        for _ in 0..12 {
            for d in [64u64, 64, 4096] {
                accesses.push((0x100u64, addr, false));
                addr += d;
            }
        }
        let out = feed(&mut p, accesses);
        assert!(!out.is_empty());
        // The replay must include the +4096 jump somewhere (a pattern,
        // not just a constant stride): two consecutive replayed targets
        // that differ by thousands of bytes.
        let any_jump = out
            .windows(2)
            .any(|w| w[1].addr > w[0].addr && w[1].addr - w[0].addr >= 4096 - 128);
        assert!(any_jump, "delta correlation must reproduce the big jump");
    }

    #[test]
    fn no_history_no_prefetch() {
        let mut p = GhbPcDc::new(Origin(16));
        let out = feed(&mut p, vec![(0x100, 0x8000, false), (0x100, 0x9000, false)]);
        assert!(out.is_empty(), "needs at least 4 accesses for a pair match");
    }

    #[test]
    fn history_reconstruction_survives_wraparound() {
        let mut p = GhbPcDc::new(Origin(16));
        // Two pcs interleaved, enough to wrap the 256-entry GHB multiple
        // times; per-PC links must never cross streams.
        let mut accesses = Vec::new();
        for i in 0..400u64 {
            accesses.push((0x100, 0x10_0000 + i * 64, false));
            accesses.push((0x200, 0x90_0000 + i * 128, false));
        }
        feed(&mut p, accesses);
        let h100 = p.history(0x100);
        assert!(h100.len() > 8);
        assert!(h100.windows(2).all(|w| w[0].wrapping_sub(w[1]) == 64));
        let h200 = p.history(0x200);
        assert!(h200.windows(2).all(|w| w[0].wrapping_sub(w[1]) == 128));
    }
}
