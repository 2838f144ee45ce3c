//! Classic per-PC stride prefetching (reference point).

use dol_core::table::{DirectTable, Geometry, IndexKind};
use dol_core::{PrefetchRequest, Prefetcher, RetireInfo, CONF_MONOLITHIC};
use dol_mem::Origin;

#[derive(Debug, Clone, Copy, Default)]
struct Entry {
    last_addr: u64,
    stride: i64,
    confidence: u8,
}

/// Prefetches issued per confident access.
const DEGREE: i64 = 2;

/// A reference-prediction-table stride prefetcher keyed by PC
/// (Chen/Baer style), with 2-bit confidence and degree 2.
/// The RPT is a direct-mapped [`DirectTable`] indexed by `pc >> 2`,
/// exactly the historical `(pc >> 2) % 256` layout.
#[derive(Debug, Clone)]
pub struct StridePc {
    origin: Origin,
    table: DirectTable<Entry>,
}

impl StridePc {
    /// 256-entry table, degree 2.
    pub fn new(origin: Origin) -> Self {
        StridePc {
            origin,
            table: DirectTable::new(Geometry {
                sets: 256,
                ways: 1,
                tag_bits: 16,
                value_bits: 66,
                index: IndexKind::LowBits { shift: 2 },
            }),
        }
    }
}

impl Prefetcher for StridePc {
    fn name(&self) -> &str {
        "StridePC"
    }

    fn storage_bits(&self) -> u64 {
        // Partial-PC tag (16b) + last address (48b) + stride (16b) +
        // 2-bit confidence per entry.
        self.table.capacity() as u64 * (16 + 48 + 16 + 2)
    }

    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        if ev.access.is_none() {
            return;
        }
        let Some(addr) = ev.inst.mem_addr() else {
            return;
        };
        let pc = ev.inst.pc;
        let Some(e) = self.table.get_mut(pc) else {
            // Miss (or aliasing PC): the slot is reallocated to `pc`.
            self.table.insert(
                pc,
                Entry {
                    last_addr: addr,
                    stride: 0,
                    confidence: 0,
                },
            );
            return;
        };
        let stride = addr.wrapping_sub(e.last_addr) as i64;
        if stride == e.stride && stride != 0 {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.confidence = e.confidence.saturating_sub(1);
            if e.confidence == 0 {
                e.stride = stride;
            }
        }
        e.last_addr = addr;
        if e.confidence >= 2 {
            let stride = e.stride;
            for k in 1..=DEGREE {
                let target = addr.wrapping_add((stride * k) as u64);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{feed, strided};

    #[test]
    fn locks_onto_a_stride() {
        let mut p = StridePc::new(Origin(16));
        let out = feed(&mut p, strided(0x100, 0x8000, 64, 20));
        assert!(!out.is_empty());
        // After confirmation, each access yields degree-2 prefetches.
        let last_two: Vec<u64> = out[out.len() - 2..].iter().map(|r| r.addr).collect();
        let last_access = 0x8000 + 19 * 64;
        assert_eq!(last_two, vec![last_access + 64, last_access + 128]);
    }

    #[test]
    fn random_stream_is_quiet() {
        let mut p = StridePc::new(Origin(16));
        let mut a = 1u64;
        let accesses: Vec<_> = (0..100)
            .map(|_| {
                a = a.wrapping_mul(6364136223846793005).wrapping_add(1);
                (0x100u64, (a % (1 << 24)) & !7, false)
            })
            .collect();
        let out = feed(&mut p, accesses);
        assert!(
            out.len() < 5,
            "nearly silent on random accesses: {}",
            out.len()
        );
    }

    #[test]
    fn interfering_pcs_alias_gracefully() {
        let mut p = StridePc::new(Origin(16));
        // Two pcs, same table slot region, interleaved strided streams.
        let mut accesses = Vec::new();
        for i in 0..40u64 {
            accesses.push((0x100, 0x10_0000 + i * 64, false));
            accesses.push((0x104, 0x80_0000 + i * 128, false));
        }
        let out = feed(&mut p, accesses);
        assert!(!out.is_empty(), "distinct slots keep both streams alive");
    }
}
