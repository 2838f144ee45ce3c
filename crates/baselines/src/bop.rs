//! BOP — Best-Offset Prefetching (Michaud, HPCA 2016).
//!
//! Learns one global best prefetch offset per program phase: a recent-
//! requests (RR) table remembers lines whose fetch recently completed;
//! during a learning phase, candidate offsets are scored round-robin by
//! testing whether `X − o` sits in the RR table when `X` is accessed. The
//! winner prefetches `X + best_offset` on every trained access until the
//! next phase.

use dol_core::table::{DirectTable, Geometry};
use dol_core::{PrefetchRequest, Prefetcher, RetireInfo, CONF_MONOLITHIC};
use dol_mem::{line_base, line_of, Origin};

/// The candidate offsets of the original design: integers in 1..=256
/// whose prime factorization uses only 2, 3, and 5 (a subset keeps the
/// learning phase short).
pub const OFFSET_LIST: [i64; 26] = [
    1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32, 36, 40, 45, 48, 50, 54, 60,
];

const RR_ENTRIES: usize = 256;
const SCORE_MAX: u32 = 31;
const ROUND_MAX: u32 = 100;
const BAD_SCORE: u32 = 5;

/// The BOP prefetcher (Table II: 4 KB — 1 K-entry RR table and prefetch
/// bits).
#[derive(Debug, Clone)]
pub struct Bop {
    origin: Origin,
    /// Recent-requests table: direct-mapped by `line % RR_ENTRIES`,
    /// tagged by the full line; collisions displace.
    rr: DirectTable<()>,
    scores: [u32; OFFSET_LIST.len()],
    test_index: usize,
    round: u32,
    best_offset: i64,
    /// Whether the current best offset scored well enough to prefetch at
    /// all (BOP turns itself off rather than issue bad prefetches).
    active: bool,
}

impl Bop {
    /// Builds the Table II configuration.
    pub fn new(origin: Origin) -> Self {
        Bop {
            origin,
            rr: DirectTable::new(Geometry::direct(RR_ENTRIES, 12, 0)),
            scores: [0; OFFSET_LIST.len()],
            test_index: 0,
            round: 0,
            best_offset: 1,
            active: true,
        }
    }

    /// The offset currently being used for prefetching.
    pub fn best_offset(&self) -> i64 {
        self.best_offset
    }

    fn rr_insert(&mut self, line: u64) {
        self.rr.insert(line, ());
    }

    fn rr_contains(&self, line: u64) -> bool {
        self.rr.contains(line)
    }

    fn end_phase(&mut self) {
        let (best_i, best_score) = self
            .scores
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| **s)
            .map(|(i, s)| (i, *s))
            .expect("non-empty offset list");
        self.best_offset = OFFSET_LIST[best_i];
        self.active = best_score > BAD_SCORE;
        self.scores = [0; OFFSET_LIST.len()];
        self.round = 0;
        self.test_index = 0;
    }
}

impl Prefetcher for Bop {
    fn name(&self) -> &str {
        "BOP"
    }

    fn storage_bits(&self) -> u64 {
        4 * 8 * 1024
    }

    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        let Some(access) = ev.access else { return };
        let Some(addr) = ev.inst.mem_addr() else {
            return;
        };
        // BOP trains on the L2 access stream: L1 misses and prefetch hits.
        if access.secondary || (access.l1_hit && access.served_by_prefetch.is_none()) {
            return;
        }
        let line = line_of(addr);

        // Learning: test the next candidate offset against this access.
        let o = OFFSET_LIST[self.test_index];
        let tested = line.wrapping_sub(o as u64);
        if self.rr_contains(tested) {
            self.scores[self.test_index] += 1;
            if self.scores[self.test_index] >= SCORE_MAX {
                self.end_phase();
            }
        }
        self.test_index += 1;
        if self.test_index == OFFSET_LIST.len() {
            self.test_index = 0;
            self.round += 1;
            if self.round >= ROUND_MAX {
                self.end_phase();
            }
        }

        // The RR table models "requests whose fetch completed": insert
        // the base line of this access (X − best offset arrives when X's
        // prefetch completes; inserting the demand line is the standard
        // single-core simplification from the paper).
        self.rr_insert(line);

        if self.active {
            let target = line.wrapping_add(self.best_offset as u64);
            out.push(PrefetchRequest::new(
                line_base(target),
                crate::DEST,
                self.origin,
                CONF_MONOLITHIC,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::feed;

    fn misses(stride_lines: u64, n: u64) -> Vec<(u64, u64, bool)> {
        (0..n)
            .map(|i| (0x100u64, 0x40_0000 + i * stride_lines * 64, false))
            .collect()
    }

    #[test]
    fn learns_the_dominant_offset() {
        let mut p = Bop::new(Origin(19));
        // Stride of 4 lines; after learning, best offset should be 4 (or
        // a multiple that also scores, but 4 scores every access).
        feed(&mut p, misses(4, 4000));
        assert_eq!(p.best_offset() % 4, 0, "got {}", p.best_offset());
        assert!(p.active);
    }

    #[test]
    fn prefetches_at_best_offset() {
        let mut p = Bop::new(Origin(19));
        feed(&mut p, misses(4, 4000));
        let best = p.best_offset();
        let out = feed(&mut p, vec![(0x100, 0x80_0000, false)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].addr, 0x80_0000 + best as u64 * 64);
    }

    #[test]
    fn hits_on_own_prefetches_count_as_training() {
        let mut p = Bop::new(Origin(19));
        // A hit served by a prefetch participates (L2 access stream).
        use dol_core::{AccessInfo, RetireInfo};
        use dol_isa::{InstKind, Reg, RetiredInst};
        let inst = RetiredInst {
            pc: 0x100,
            kind: InstKind::Load {
                addr: 0x40_0000,
                value: 0,
            },
            dst: Some(Reg::R1),
            srcs: [Some(Reg::R2), None],
        };
        let ev = RetireInfo {
            now: 0,
            inst: &inst,
            mpc: 0x100,
            access: Some(AccessInfo {
                l1_hit: true,
                secondary: false,
                latency: 3,
                served_by_prefetch: Some(Origin(19)),
            }),
        };
        let mut out = Vec::new();
        p.on_retire(&ev, &mut out);
        assert_eq!(out.len(), 1, "prefetch-served hits keep training BOP");
    }

    #[test]
    fn plain_l1_hits_are_ignored() {
        let mut p = Bop::new(Origin(19));
        let out = feed(&mut p, vec![(0x100, 0x40_0000, true)]);
        assert!(out.is_empty());
    }

    #[test]
    fn deactivates_on_unpredictable_streams() {
        let mut p = Bop::new(Origin(19));
        // Random lines: no offset ever scores; after a full learning
        // phase BOP must deactivate.
        let mut a = 7u64;
        let accesses: Vec<_> = (0..OFFSET_LIST.len() as u64 * 120)
            .map(|_| {
                a = a.wrapping_mul(6364136223846793005).wrapping_add(99);
                (0x100u64, (a % (1 << 30)) & !63, false)
            })
            .collect();
        feed(&mut p, accesses);
        assert!(!p.active, "BOP must turn itself off on random streams");
        let out = feed(&mut p, vec![(0x100, 0x40_0000, false)]);
        assert!(out.is_empty());
    }
}
