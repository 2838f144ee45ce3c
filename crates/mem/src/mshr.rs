//! Miss-status holding registers.

/// Contention counters for one MSHR file.
///
/// Stalls are counted at [`MshrFile::next_free`]: each query that finds
/// every register busy is one stall event, and the cycles until the
/// earliest completion are the wait it reported. Peak occupancy is
/// sampled at allocation time, so `peak_occupancy == capacity` means the
/// file actually filled up at least once during the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MshrStats {
    /// Queries that found every register busy and had to report a wait.
    pub stall_events: u64,
    /// Total cycles of waiting reported by those queries.
    pub stall_cycles: u64,
    /// Highest occupancy observed immediately after an allocation.
    pub peak_occupancy: u32,
}

/// A file of miss-status holding registers for one cache.
///
/// Tracks lines with fetches in flight. A request for a line already in
/// flight is a *secondary* miss: it merges with the pending fetch and is
/// excluded from prefetcher metrics (the paper's footnote 2). When all
/// registers are busy, the next request must wait until the earliest
/// in-flight fetch completes.
///
/// Every query expires completed entries at its own `now` before
/// answering. This eagerness is observable, not just a cleanup policy:
/// the hierarchy interrogates a file at non-monotone timestamps (a miss
/// probes downstream levels at `now + latency`, then the next access
/// starts earlier), so an entry dropped at a late timestamp must stay
/// gone even for a later query with an earlier `now`. Expiry uses
/// unordered `swap_remove` compaction instead of `retain` (no element
/// shifting), and [`pending`](Self::pending) fuses the expiry sweep with
/// the line search in a single pass; entry order is therefore
/// unspecified, which is safe because at most one live entry per line
/// exists at any time.
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// `(line, completes_at)` for in-flight fetches.
    inflight: Vec<(u64, u64)>,
    stats: MshrStats,
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "need at least one MSHR");
        MshrFile {
            capacity: capacity as usize,
            inflight: Vec::with_capacity(capacity as usize),
            stats: MshrStats::default(),
        }
    }

    /// Number of registers in the file.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Contention counters so far.
    pub fn stats(&self) -> MshrStats {
        self.stats
    }

    /// Drops entries that have completed by `now`.
    pub fn expire(&mut self, now: u64) {
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].1 <= now {
                self.inflight.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// If `line` has a fetch in flight at `now`, returns its completion
    /// cycle (a secondary miss). Expires completed entries as it scans.
    pub fn pending(&mut self, line: u64, now: u64) -> Option<u64> {
        let mut found = None;
        let mut i = 0;
        while i < self.inflight.len() {
            let (l, t) = self.inflight[i];
            if t <= now {
                self.inflight.swap_remove(i);
            } else {
                if l == line {
                    found = Some(t);
                }
                i += 1;
            }
        }
        found
    }

    /// Whether a register is free at `now` without waiting.
    pub fn has_free(&mut self, now: u64) -> bool {
        self.expire(now);
        self.inflight.len() < self.capacity
    }

    /// Earliest cycle ≥ `now` at which a register is available.
    pub fn next_free(&mut self, now: u64) -> u64 {
        self.expire(now);
        if self.inflight.len() < self.capacity {
            now
        } else {
            let t = self
                .inflight
                .iter()
                .map(|&(_, t)| t)
                .min()
                .expect("file is full");
            self.stats.stall_events += 1;
            self.stats.stall_cycles += t - now;
            t
        }
    }

    /// Allocates a register for `line`, completing at `completes_at`.
    ///
    /// # Panics
    ///
    /// Panics if no register is free — call [`next_free`](Self::next_free)
    /// and retry at that cycle instead.
    pub fn allocate(&mut self, line: u64, now: u64, completes_at: u64) {
        self.expire(now);
        assert!(self.inflight.len() < self.capacity, "MSHR file full");
        self.inflight.push((line, completes_at));
        self.stats.peak_occupancy = self.stats.peak_occupancy.max(self.inflight.len() as u32);
    }

    /// Number of in-flight fetches at `now`.
    pub fn occupancy(&mut self, now: u64) -> usize {
        self.expire(now);
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secondary_miss_merges() {
        let mut m = MshrFile::new(4);
        m.allocate(10, 0, 100);
        assert_eq!(m.pending(10, 50), Some(100));
        assert_eq!(m.pending(11, 50), None);
        assert_eq!(m.pending(10, 100), None, "expired at completion");
    }

    #[test]
    fn full_file_reports_next_free() {
        let mut m = MshrFile::new(2);
        m.allocate(1, 0, 30);
        m.allocate(2, 0, 20);
        assert!(!m.has_free(5));
        assert_eq!(m.next_free(5), 20);
        assert!(m.has_free(20));
        m.allocate(3, 20, 99);
        assert_eq!(m.occupancy(20), 2);
        assert_eq!(m.occupancy(30), 1);
    }

    #[test]
    fn stall_counters_track_full_file_waits_and_peak() {
        let mut m = MshrFile::new(2);
        assert_eq!(m.capacity(), 2);
        m.allocate(1, 0, 30);
        assert_eq!(m.stats().peak_occupancy, 1);
        m.allocate(2, 0, 20);
        assert_eq!(m.stats().peak_occupancy, 2);
        // Free registers: next_free is not a stall.
        assert_eq!(m.next_free(25), 25);
        assert_eq!(m.stats().stall_events, 0);
        m.allocate(3, 25, 99);
        // Two full-file queries at t=26: each waits until t=30.
        assert_eq!(m.next_free(26), 30);
        assert_eq!(m.next_free(26), 30);
        let s = m.stats();
        assert_eq!(s.stall_events, 2);
        assert_eq!(s.stall_cycles, 8);
        assert_eq!(s.peak_occupancy, 2);
    }

    #[test]
    #[should_panic(expected = "MSHR file full")]
    fn over_allocation_panics() {
        let mut m = MshrFile::new(1);
        m.allocate(1, 0, 100);
        m.allocate(2, 0, 100);
    }

    #[test]
    fn out_of_order_completions_keep_merge_and_alloc_semantics() {
        // Completion times deliberately not in allocation order; the
        // swap_remove compaction must behave exactly like ordered retain.
        let mut m = MshrFile::new(3);
        m.allocate(1, 0, 300);
        m.allocate(2, 0, 100);
        m.allocate(3, 0, 200);
        // All three merge while live.
        assert_eq!(m.pending(1, 50), Some(300));
        assert_eq!(m.pending(2, 50), Some(100));
        assert_eq!(m.pending(3, 50), Some(200));
        assert!(!m.has_free(50));
        assert_eq!(m.next_free(50), 100, "earliest completion wins");
        // At t=150 the middle allocation (line 2) has completed: a slot is
        // free, line 2 no longer merges, the others still do.
        assert!(m.has_free(150));
        assert_eq!(m.pending(2, 150), None);
        assert_eq!(m.pending(1, 150), Some(300));
        assert_eq!(m.pending(3, 150), Some(200));
        assert_eq!(m.occupancy(150), 2);
        // Reallocate line 2 with a *later* completion; it merges again.
        m.allocate(2, 150, 500);
        assert!(!m.has_free(150));
        assert_eq!(m.pending(2, 150), Some(500));
        // Expiry of the remaining out-of-order entries, one by one: at
        // t=201 line 3 (completes 200) has freed its register.
        assert_eq!(m.next_free(201), 201);
        assert_eq!(m.occupancy(201), 2);
        assert_eq!(m.occupancy(350), 1);
        assert_eq!(m.pending(2, 350), Some(500));
        assert_eq!(m.occupancy(500), 0);
        assert_eq!(m.next_free(500), 500);
    }

    #[test]
    fn allocate_reclaims_expired_registers_when_full() {
        let mut m = MshrFile::new(2);
        m.allocate(1, 0, 10);
        m.allocate(2, 0, 20);
        // The file is full of entries but entry 1 has expired by t=15.
        m.allocate(3, 15, 40);
        assert_eq!(m.occupancy(15), 2);
        assert_eq!(m.pending(1, 15), None);
        assert_eq!(m.pending(3, 15), Some(40));
    }

    #[test]
    fn expiry_is_eager_at_each_query_timestamp() {
        // A late-timestamped query must drop entries even if a later call
        // uses an earlier `now` — the hierarchy probes downstream levels
        // ahead of the current cycle, so this ordering really happens.
        let mut m = MshrFile::new(2);
        m.allocate(7, 0, 100);
        assert_eq!(m.occupancy(150), 0, "expired at t=150");
        // The earlier-timestamped query must NOT resurrect the entry.
        assert_eq!(m.pending(7, 50), None, "entry is gone for good");
    }
}
