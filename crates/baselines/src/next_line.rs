//! Next-line prefetching (Jouppi-style), the simplest reference point.

use dol_core::{PrefetchRequest, Prefetcher, RetireInfo, CONF_MONOLITHIC};
use dol_mem::{line_base, line_of, Origin};

/// Prefetches the line following every L1 miss (degree 1).
#[derive(Debug, Clone, Copy)]
pub struct NextLine {
    origin: Origin,
}

impl NextLine {
    /// Degree-1 next-line prefetcher.
    pub fn new(origin: Origin) -> Self {
        NextLine { origin }
    }
}

impl Prefetcher for NextLine {
    fn name(&self) -> &str {
        "NextLine"
    }

    fn storage_bits(&self) -> u64 {
        0
    }

    fn on_retire(&mut self, ev: &RetireInfo<'_>, out: &mut Vec<PrefetchRequest>) {
        let Some(access) = ev.access else { return };
        let Some(addr) = ev.inst.mem_addr() else {
            return;
        };
        if access.l1_hit || access.secondary {
            return;
        }
        out.push(PrefetchRequest::new(
            line_base(line_of(addr) + 1),
            crate::DEST,
            self.origin,
            CONF_MONOLITHIC,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::feed;

    #[test]
    fn prefetches_next_line_on_misses_only() {
        let mut p = NextLine::new(Origin(16));
        let out = feed(&mut p, vec![(0x100, 0x8000, false), (0x100, 0x8008, true)]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].addr, 0x8040);
        assert_eq!(out[0].dest, dol_mem::CacheLevel::L1);
    }
}
