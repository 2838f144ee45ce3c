//! A banked DDR3-like main-memory model with finite queues.

use crate::inflight::Inflight;
use crate::{DramConfig, LINE_BYTES};

/// What a full channel queue does with an arriving prefetch.
///
/// The paper's Sec. V-C ablation: letting the memory controller drop
/// *low-probability* prefetches first (in TPC's case, those from the C1
/// component) instead of dropping prefetches indiscriminately is worth an
/// average 6% in a multicore environment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DropPolicy {
    /// Under congestion all prefetches are treated alike: any prefetch
    /// arriving at a full queue is dropped, regardless of confidence.
    #[default]
    Random,
    /// Low-confidence prefetches are shed early (at 3/4 occupancy),
    /// keeping queue room for demands and high-confidence prefetches.
    LowConfidenceFirst,
}

/// Confidence below which [`DropPolicy::LowConfidenceFirst`] sheds a
/// prefetch at 3/4 queue occupancy. Confidence is a 0–255 scale.
pub const LOW_CONFIDENCE: u8 = 128;

/// The class of a DRAM request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramRequest {
    /// A demand fill (never dropped; waits when the queue is full).
    DemandRead,
    /// A prefetch fill, carrying its issuer's confidence (0–255).
    PrefetchRead {
        /// Issuer confidence, 0–255.
        confidence: u8,
    },
    /// A dirty writeback (never dropped).
    Writeback,
}

/// Aggregate DRAM counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Lines read for demand fills.
    pub demand_reads: u64,
    /// Lines read for prefetch fills.
    pub prefetch_reads: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Prefetches shed by the drop policy.
    pub dropped_prefetches: u64,
    /// Row-buffer hits.
    pub row_hits: u64,
    /// Row-buffer misses (activations).
    pub row_misses: u64,
    /// Row misses that also had to precharge an occupied row buffer —
    /// the bank-conflict subset of `row_misses`, the paper's multicore
    /// contention signal.
    pub bank_conflicts: u64,
    /// Demands or writebacks that arrived at a full channel queue and
    /// had to wait for a slot (prefetches are shed instead, counted in
    /// `dropped_prefetches`).
    pub queue_full_waits: u64,
}

impl DramStats {
    /// Total lines moved over the memory bus (the paper's Figure 9
    /// "memory traffic" metric).
    pub fn total_traffic_lines(&self) -> u64 {
        self.demand_reads + self.prefetch_reads + self.writebacks
    }

    /// Total bytes moved.
    pub fn total_traffic_bytes(&self) -> u64 {
        self.total_traffic_lines() * LINE_BYTES
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    ready_at: u64,
    /// Two row buffers per modeled bank: a first-order stand-in for
    /// FR-FCFS reordering and bank-group parallelism, so a demand stream
    /// interleaved with a prefetch stream running ahead does not thrash
    /// a single open row.
    rows: [Option<u64>; 2],
    /// LRU pointer into `rows`.
    lru: usize,
}

#[derive(Debug, Clone)]
struct Channel {
    /// Bus-issue completion times of requests still waiting in the
    /// scheduler queue. An entry leaves the queue once its command has
    /// been issued to the bank (data return is tracked by the caller);
    /// the queue therefore fills only when bandwidth saturates.
    queue: Inflight<()>,
    /// Command/data-bus serialization point.
    next_issue: u64,
}

/// The DRAM model.
///
/// Requests are routed by line address to a channel and bank; each bank
/// keeps an open-row register and a ready time. Contention appears as
/// waiting for the bank and for the channel's data bus (4 cycles per
/// transfer). Each channel has a finite queue; when it is full, demands
/// and writebacks wait while prefetches are subject to the
/// [`DropPolicy`].
///
/// A request first expires the queue entries issued by its `now`, under
/// the rule the MSHR files share (`Inflight`: eager at each request's
/// timestamp, which need not be monotone, so occupancy is exactly what a
/// `retain` on every request leaves). The queue caches its earliest
/// issue time: a request before it skips the sweep, and a demand or
/// writeback at a full queue waits until that cycle without scanning.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    banks: Vec<Bank>,
    channels: Vec<Channel>,
    stats: DramStats,
}

/// Data-bus occupancy per transfer, in core cycles.
const BURST_CYCLES: u64 = 4;

impl Dram {
    /// Creates the model from its configuration.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(
            cfg.channels.is_power_of_two(),
            "channel count must be a power of two"
        );
        assert!(
            cfg.banks_per_channel.is_power_of_two(),
            "bank count must be a power of two"
        );
        assert!(cfg.queue_capacity > 0, "need at least one DRAM queue slot");
        Dram {
            cfg,
            banks: vec![Bank::default(); (cfg.channels * cfg.banks_per_channel) as usize],
            channels: vec![
                Channel {
                    queue: Inflight::with_capacity(cfg.queue_capacity as usize),
                    next_issue: 0,
                };
                cfg.channels as usize
            ],
            stats: DramStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    #[inline]
    fn route(&self, line: u64) -> (usize, usize) {
        // Channel/bank bits come from *above* the row offset (so one row
        // lives in one bank and keeps its locality), permuted with
        // higher row bits so power-of-two strides still spread across
        // banks instead of serializing on one (XOR-based interleaving,
        // as in real controllers).
        let row_idx = line / (self.cfg.row_bytes / LINE_BYTES);
        let hashed = row_idx ^ (row_idx >> 5) ^ (row_idx >> 11) ^ (row_idx >> 17);
        let ch = (hashed & (self.cfg.channels as u64 - 1)) as usize;
        let bank_local = ((hashed >> self.cfg.channels.trailing_zeros())
            & (self.cfg.banks_per_channel as u64 - 1)) as usize;
        (ch, ch * self.cfg.banks_per_channel as usize + bank_local)
    }

    #[inline]
    fn row_of(&self, line: u64) -> u64 {
        (line * LINE_BYTES) / self.cfg.row_bytes
    }

    /// Submits a request at cycle `now`. Returns the completion cycle, or
    /// `None` if the request was a prefetch shed by the drop policy.
    pub fn request(&mut self, line: u64, kind: DramRequest, now: u64) -> Option<u64> {
        let (ch_idx, bank_idx) = self.route(line);
        self.channels[ch_idx].queue.expire(now, |_| {});
        let occupancy = self.channels[ch_idx].queue.len();
        let capacity = self.cfg.queue_capacity as usize;

        let mut start = now;
        if let DramRequest::PrefetchRead { confidence } = kind {
            let shed = match self.cfg.drop_policy {
                DropPolicy::Random => occupancy >= capacity,
                DropPolicy::LowConfidenceFirst => {
                    occupancy >= capacity
                        || (confidence < LOW_CONFIDENCE && occupancy >= capacity * 3 / 4)
                }
            };
            if shed {
                self.stats.dropped_prefetches += 1;
                return None;
            }
        } else if occupancy >= capacity {
            // Demands and writebacks wait for a queue slot.
            self.stats.queue_full_waits += 1;
            let queue = &mut self.channels[ch_idx].queue;
            start = start.max(queue.earliest());
            queue.expire(start, |_| {});
        }

        let row = self.row_of(line);
        let bank = &mut self.banks[bank_idx];
        let ch = &mut self.channels[ch_idx];
        let begin = start.max(bank.ready_at).max(ch.next_issue);
        let row_overhead = if let Some(slot) = bank.rows.iter().position(|r| *r == Some(row)) {
            self.stats.row_hits += 1;
            bank.lru = 1 - slot;
            0
        } else {
            self.stats.row_misses += 1;
            let victim = bank.lru;
            let overhead = if bank.rows[victim].is_some() {
                self.stats.bank_conflicts += 1;
                self.cfg.t_precharge + self.cfg.t_activate
            } else {
                self.cfg.t_activate
            };
            bank.rows[victim] = Some(row);
            bank.lru = 1 - victim;
            overhead
        };
        // Data returns after the full access latency, but the bank
        // pipelines column accesses: it can take the next command a
        // burst after the row is open (CAS latency overlaps).
        let finish = begin + row_overhead + self.cfg.t_access;
        bank.ready_at = begin + row_overhead + BURST_CYCLES;
        ch.next_issue = begin + BURST_CYCLES;
        ch.queue.push((), begin + row_overhead + BURST_CYCLES);

        match kind {
            DramRequest::DemandRead => self.stats.demand_reads += 1,
            DramRequest::PrefetchRead { .. } => self.stats.prefetch_reads += 1,
            DramRequest::Writeback => self.stats.writebacks += 1,
        }
        Some(finish)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram(policy: DropPolicy) -> Dram {
        let mut cfg = DramConfig::isca2018();
        cfg.drop_policy = policy;
        Dram::new(cfg)
    }

    #[test]
    fn first_access_pays_activation_second_hits_row() {
        let mut d = dram(DropPolicy::Random);
        let t1 = d.request(0, DramRequest::DemandRead, 0).unwrap();
        assert_eq!(t1, 41 + 60);
        // Same row: pipelined behind the first request by one burst.
        let t2 = d.request(0, DramRequest::DemandRead, 0).unwrap();
        assert_eq!(t2, 41 + 4 + 60, "row hits pipeline at burst rate");
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    /// Finds lines in distinct rows that all route to bank 0 of
    /// channel 0.
    fn same_bank_lines(d: &Dram, n: usize) -> Vec<u64> {
        let rows_per_line = DramConfig::isca2018().row_bytes / LINE_BYTES;
        (0..10_000u64)
            .map(|k| k * rows_per_line) // one candidate per row
            .filter(|&l| d.route(l) == (0, 0))
            .take(n)
            .collect()
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut d = dram(DropPolicy::Random);
        let lines = same_bank_lines(&d, 3);
        assert_eq!(lines.len(), 3, "bank-0 lines in distinct rows exist");
        d.request(lines[0], DramRequest::DemandRead, 0).unwrap();
        // Second distinct row opens the second row buffer (activate only).
        let t = d
            .request(lines[1], DramRequest::DemandRead, 10_000)
            .unwrap();
        assert_eq!(t, 10_000 + 41 + 60, "second row buffer: activation only");
        // Both buffers stay open: re-touching the first row is a hit.
        let t = d
            .request(lines[0], DramRequest::DemandRead, 20_000)
            .unwrap();
        assert_eq!(t, 20_000 + 60, "first row still open");
        // A third distinct row evicts the LRU open row: full conflict.
        let t = d
            .request(lines[2], DramRequest::DemandRead, 30_000)
            .unwrap();
        assert_eq!(
            t,
            30_000 + 41 + 41 + 60,
            "conflict pays precharge + activate"
        );
        assert_eq!(d.stats().bank_conflicts, 1, "only the precharge counts");
        assert_eq!(d.stats().row_misses, 3);
    }

    /// Lines that all route to channel 0 (any bank), distinct.
    fn channel0_lines(d: &Dram, n: usize) -> Vec<u64> {
        (0..100_000u64)
            .filter(|&l| d.route(l).0 == 0)
            .take(n)
            .collect()
    }

    #[test]
    fn channels_serve_in_parallel() {
        let mut d = dram(DropPolicy::Random);
        let a = (0..1000u64).find(|&l| d.route(l).0 == 0).unwrap();
        let b = (0..1000u64).find(|&l| d.route(l).0 == 1).unwrap();
        let t1 = d.request(a, DramRequest::DemandRead, 0).unwrap();
        let t2 = d.request(b, DramRequest::DemandRead, 0).unwrap();
        assert_eq!(t1, t2, "independent channels do not serialize");
    }

    #[test]
    fn bus_serializes_same_channel_different_banks() {
        let mut d = dram(DropPolicy::Random);
        let a = (0..1000u64).find(|&l| d.route(l) == (0, 0)).unwrap();
        let b = (0..1000u64)
            .find(|&l| d.route(l).0 == 0 && d.route(l).1 == 1)
            .unwrap();
        let t1 = d.request(a, DramRequest::DemandRead, 0).unwrap();
        let t2 = d.request(b, DramRequest::DemandRead, 0).unwrap();
        assert_eq!(t2, t1 + BURST_CYCLES, "burst-separated on the shared bus");
    }

    #[test]
    fn full_queue_drops_prefetches_randomly_policy() {
        let mut d = dram(DropPolicy::Random);
        let cap = d.config().queue_capacity as usize;
        let lines = channel0_lines(&d, cap + 2);
        for &l in &lines[..cap] {
            assert!(d
                .request(l, DramRequest::PrefetchRead { confidence: 255 }, 0)
                .is_some());
        }
        assert!(d
            .request(lines[cap], DramRequest::PrefetchRead { confidence: 255 }, 0)
            .is_none());
        assert_eq!(d.stats().dropped_prefetches, 1);
        // Demands still get in (by waiting) — and the wait is counted.
        assert!(d
            .request(lines[cap + 1], DramRequest::DemandRead, 0)
            .is_some());
        assert_eq!(d.stats().queue_full_waits, 1);
    }

    #[test]
    fn low_confidence_shed_early_under_policy() {
        let mut d = dram(DropPolicy::LowConfidenceFirst);
        let cap = d.config().queue_capacity as usize;
        let lines = channel0_lines(&d, cap);
        // Fill to 3/4.
        for &l in &lines[..cap * 3 / 4] {
            assert!(d
                .request(l, DramRequest::PrefetchRead { confidence: 255 }, 0)
                .is_some());
        }
        // Low-confidence prefetch is shed, high-confidence accepted.
        assert!(d
            .request(
                lines[cap - 1],
                DramRequest::PrefetchRead { confidence: 10 },
                0
            )
            .is_none());
        assert!(d
            .request(
                lines[cap - 2],
                DramRequest::PrefetchRead { confidence: 200 },
                0
            )
            .is_some());
    }

    #[test]
    fn random_policy_ignores_confidence_below_full() {
        let mut d = dram(DropPolicy::Random);
        let cap = d.config().queue_capacity as usize;
        let lines = channel0_lines(&d, cap);
        for &l in &lines[..cap * 3 / 4] {
            d.request(l, DramRequest::PrefetchRead { confidence: 255 }, 0)
                .unwrap();
        }
        assert!(d
            .request(
                lines[cap - 1],
                DramRequest::PrefetchRead { confidence: 10 },
                0
            )
            .is_some());
    }

    #[test]
    fn traffic_counters_accumulate() {
        let mut d = dram(DropPolicy::Random);
        d.request(0, DramRequest::DemandRead, 0);
        d.request(2, DramRequest::PrefetchRead { confidence: 200 }, 0);
        d.request(4, DramRequest::Writeback, 0);
        let s = d.stats();
        assert_eq!((s.demand_reads, s.prefetch_reads, s.writebacks), (1, 1, 1));
        assert_eq!(s.total_traffic_lines(), 3);
        assert_eq!(s.total_traffic_bytes(), 3 * LINE_BYTES);
    }
}
