//! Miss-status holding registers.

use crate::inflight::Inflight;

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

/// A 256-bit presence filter over line addresses: a clear bit proves the
/// line absent, a set bit means "maybe present".
#[derive(Debug, Clone, Copy, Default)]
struct LineFilter([u64; 4]);

impl LineFilter {
    /// Bit of `line`: the top 8 bits of a multiplicative (Fibonacci) hash,
    /// so neighbouring and power-of-two-strided lines spread out.
    #[inline]
    fn slot(line: u64) -> (usize, u64) {
        let h = line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 56;
        ((h >> 6) as usize, 1 << (h & 63))
    }

    #[inline]
    fn insert(&mut self, line: u64) {
        let (word, bit) = Self::slot(line);
        self.0[word] |= bit;
    }

    #[inline]
    fn may_contain(&self, line: u64) -> bool {
        let (word, bit) = Self::slot(line);
        self.0[word] & bit != 0
    }
}

/// A file of miss-status holding registers for one cache.
///
/// Tracks lines with fetches in flight. A request for a line already in
/// flight is a *secondary* miss: it merges with the pending fetch and is
/// excluded from prefetcher metrics (the paper's footnote 2). When all
/// registers are busy, the next request must wait until the earliest
/// in-flight fetch completes.
///
/// Every query first expires completed entries at its own `now`, under
/// the rule the DRAM channel queues share (`Inflight`: eager at each
/// query's timestamp, with the sweep skipped before the cached earliest
/// completion). The live set and the stats after every query are
/// therefore exactly what an eager sweep gives.
///
/// [`pending`](Self::pending), the hierarchy's most frequent query, almost
/// always finds nothing. A 256-bit filter over the live lines answers
/// those queries without scanning: [`allocate`](Self::allocate) sets the
/// line's bit, and each expiry sweep, which already visits every
/// survivor, rebuilds the filter from them. The filter thus always covers
/// the live lines, so a clear bit proves the line absent; a set bit falls
/// back to the scan. At most one live entry per line exists at any time
/// (the hierarchy allocates only a line that `pending` just reported
/// absent, and `allocate` checks this in debug builds).
#[derive(Debug, Clone)]
pub struct MshrFile {
    capacity: usize,
    /// `(line, completes_at)` for in-flight fetches.
    inflight: Inflight<u64>,
    /// Covers every line in `inflight` (and possibly a few more).
    filter: LineFilter,
    stats: MshrStats,
}

impl MshrFile {
    /// Creates a file with `capacity` registers.
    pub fn new(capacity: u32) -> Self {
        assert!(capacity > 0, "need at least one MSHR");
        MshrFile {
            capacity: capacity as usize,
            inflight: Inflight::with_capacity(capacity as usize),
            filter: LineFilter::default(),
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

    /// Drops entries that have completed by `now`; a sweep that ran
    /// leaves the filter holding exactly the survivors' bits.
    #[inline]
    fn expire(&mut self, now: u64) {
        let mut live = LineFilter::default();
        if self.inflight.expire(now, |line| live.insert(line)) {
            self.filter = live;
        }
    }

    /// If `line` has a fetch in flight at `now`, returns its completion
    /// cycle (a secondary miss).
    pub fn pending(&mut self, line: u64, now: u64) -> Option<u64> {
        self.expire(now);
        if !self.filter.may_contain(line) {
            return None;
        }
        self.inflight
            .entries()
            .iter()
            .find(|&&(l, _)| l == line)
            .map(|&(_, t)| t)
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
            let earliest = self.inflight.earliest();
            self.stats.stall_events += 1;
            self.stats.stall_cycles += earliest - now;
            earliest
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
        debug_assert!(
            self.inflight.entries().iter().all(|&(l, _)| l != line),
            "line {line:#x} already has a live MSHR entry"
        );
        self.inflight.push(line, completes_at);
        self.filter.insert(line);
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

    #[test]
    fn filter_collisions_fall_back_to_the_scan() {
        let a = 1;
        let b = (2..)
            .find(|&l| LineFilter::slot(l) == LineFilter::slot(a))
            .expect("a line sharing a's filter bit");
        let mut m = MshrFile::new(4);
        m.allocate(a, 0, 100);
        assert!(m.filter.may_contain(b), "b shares a's bit");
        assert_eq!(m.pending(b, 10), None, "a set bit is only a maybe");
        assert_eq!(m.pending(a, 10), Some(100));
        m.allocate(b, 10, 200);
        assert_eq!(m.pending(b, 10), Some(200));
        // The sweep at t=100 drops a and rebuilds the filter from b alone,
        // which keeps the shared bit set.
        assert_eq!(m.pending(a, 100), None);
        assert_eq!(m.pending(b, 100), Some(200));
        // Once the file empties, the sweep clears the filter.
        assert_eq!(m.occupancy(200), 0);
        assert!(!m.filter.may_contain(a));
        assert!(!m.filter.may_contain(b));
    }
}
