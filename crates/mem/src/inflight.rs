//! The expiry rule shared by the MSHR files and the DRAM channel queues.

/// Entries in flight, each a payload (an MSHR's line; nothing for a DRAM
/// queue slot) and a completion cycle, dropped by the first query whose
/// `now` has reached that cycle.
///
/// Expiry is eager at every query's `now`, and that eagerness is
/// observable: both tables are queried at non-monotone timestamps (a
/// miss probes downstream levels at `now + latency`, then the next access
/// starts earlier), so an entry dropped at a late timestamp stays gone
/// even for a later query with an earlier `now`.
///
/// The table caches `earliest`, the minimum completion cycle of its live
/// entries, exactly (not as a bound). A query whose `now` is before it has
/// nothing to expire and skips the sweep; otherwise the sweep drops
/// completed entries with unordered `swap_remove` compaction and
/// recomputes `earliest` in the same pass. The live set after every query
/// is therefore exactly what an eager `retain` leaves; only the entry
/// order differs, which neither table's answers depend on.
#[derive(Debug, Clone)]
pub(crate) struct Inflight<P> {
    /// `(payload, completes_at)`.
    entries: Vec<(P, u64)>,
    /// Minimum completion cycle over `entries`; `u64::MAX` when empty.
    earliest: u64,
}

impl<P: Copy> Inflight<P> {
    /// An empty table with room for `capacity` entries.
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        Inflight {
            entries: Vec::with_capacity(capacity),
            earliest: u64::MAX,
        }
    }

    /// Live entries, in unspecified order.
    #[inline]
    pub(crate) fn entries(&self) -> &[(P, u64)] {
        &self.entries
    }

    /// Number of live entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// The earliest completion cycle among live entries (`u64::MAX` when
    /// empty).
    #[inline]
    pub(crate) fn earliest(&self) -> u64 {
        self.earliest
    }

    /// Adds an entry that completes at `completes_at`.
    #[inline]
    pub(crate) fn push(&mut self, payload: P, completes_at: u64) {
        self.earliest = self.earliest.min(completes_at);
        self.entries.push((payload, completes_at));
    }

    /// Drops the entries that have completed by `now` and passes each
    /// survivor's payload to `survivor`. Returns `false`, visiting
    /// nothing, when nothing can have completed yet (`now` before
    /// `earliest`).
    #[inline]
    pub(crate) fn expire(&mut self, now: u64, survivor: impl FnMut(P)) -> bool {
        if now < self.earliest {
            return false;
        }
        self.sweep(now, survivor);
        true
    }

    fn sweep(&mut self, now: u64, mut survivor: impl FnMut(P)) {
        let mut earliest = u64::MAX;
        let mut i = 0;
        while i < self.entries.len() {
            let (payload, t) = self.entries[i];
            if t <= now {
                self.entries.swap_remove(i);
            } else {
                earliest = earliest.min(t);
                survivor(payload);
                i += 1;
            }
        }
        self.earliest = earliest;
    }
}
