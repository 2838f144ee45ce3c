//! The Stride Identifier Table (SIT) and per-instruction state labels.
//!
//! T2 labels every memory instruction with one of four states held in
//! I-cache state bits (Sec. IV-A2): *unknown* until it triggers a primary
//! L1 miss, then *observation* while the SIT watches its address deltas,
//! and finally *strided* or *non-strided*. The SIT is keyed by the
//! modified PC (`mPC = PC ^ RAS.top`) so that streams accessed through
//! different call sites are disambiguated.
//!
//! P1 expands SIT entries with pointer metadata: a confirmed
//! array-of-pointers target offset (`aop_delta`, the constant between the
//! strided load's *value* and the dependent load's address) and a
//! confirmed pointer-chain offset (`chain_delta`, the constant between
//! one iteration's value and the next iteration's address).

use crate::table::{DirectTable, FullAssoc, Geometry};

/// The four-state label a memory instruction carries in the I-cache
/// state bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InstLabel {
    /// State 0: not yet seen a primary L1 miss; ignored.
    #[default]
    Unknown,
    /// State 1: being watched in the SIT.
    Observation,
    /// State 2: confirmed canonical strided.
    Strided,
    /// State 3: confirmed non-strided (freed from the SIT).
    NonStrided,
}

/// Instructions the label store can track: it models the I-cache state
/// bits, 2 bits per instruction in the paper's 2 KB budget (Table II).
const LABEL_ENTRIES: usize = 8192;

/// SIT settings an experiment varies (the paper's Sec. IV-A2 values as
/// defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SitConfig {
    /// Table entries (32 for T2, 8 for a standalone P1 per Table II).
    pub entries: usize,
    /// Consecutive equal deltas to label an instruction strided (16).
    pub stride_confirm: u32,
    /// Equal deltas after which prefetching may begin while still in
    /// observation (4).
    pub early_issue: u32,
}

impl Default for SitConfig {
    fn default() -> Self {
        SitConfig {
            entries: 32,
            stride_confirm: 16,
            early_issue: 4,
        }
    }
}

/// One SIT entry (Figure 3-b, with P1's pointer extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SitEntry {
    /// The modified PC this entry tracks.
    pub mpc: u64,
    /// Plain PC (for label updates).
    pub pc: u64,
    /// Address of the last execution instance.
    pub last_addr: u64,
    /// Value of the last execution instance (loads; 0 for stores).
    pub last_value: u64,
    /// Delta between the last two consecutive addresses.
    pub delta: i64,
    /// Consecutive instances with the same delta.
    pub same: u32,
    /// Consecutive instances with a changing delta.
    pub diff: u32,
    /// Confirmed array-of-pointers offset: the dependent load's address is
    /// always `value + aop_delta`.
    pub aop_delta: Option<i64>,
    /// Confirmed pointer-chain offset: the next instance's address is
    /// always `last value + chain_delta`.
    pub chain_delta: Option<i64>,
    /// Furthest address already prefetched for the stride stream.
    pub frontier: u64,
}

impl SitEntry {
    fn new(mpc: u64, pc: u64, addr: u64, value: u64) -> Self {
        SitEntry {
            mpc,
            pc,
            last_addr: addr,
            last_value: value,
            delta: 0,
            same: 0,
            diff: 0,
            aop_delta: None,
            chain_delta: None,
            frontier: addr,
        }
    }

    /// Whether the entry has seen `n` consecutive instances of one delta.
    pub fn stable_for(&self, n: u32) -> bool {
        self.same >= n && self.delta != 0
    }
}

/// What a SIT update observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SitUpdate {
    /// The delta between this and the previous address.
    pub new_delta: i64,
    /// Consecutive same-delta count after the update.
    pub same: u32,
    /// Consecutive changing-delta count after the update.
    pub diff: u32,
    /// The chain check: `addr - previous value` (P1's pointer-chain
    /// delta candidate).
    pub value_to_addr: i64,
}

/// The Stride Identifier Table plus the instruction-label store.
///
/// Entries live in a [`FullAssoc`] keyed by mPC: the per-retire probe is
/// one branch-free pass over the packed key vector instead of a scan of
/// full records, and the LRU victim comes from the packed stamp vector.
/// (The per-entry `stamp` field is gone; recency is the table's.)
#[derive(Debug, Clone)]
pub struct Sit {
    entries: FullAssoc<SitEntry>,
    labels: DirectTable<InstLabel>,
    clock: u64,
}

impl Sit {
    /// Creates an empty table of `cfg.entries` entries.
    pub fn new(cfg: SitConfig) -> Self {
        // The label store models the I-cache state bits: direct-mapped
        // on the low PC bits, 2 bits of label per instruction. A
        // colliding PC displaces the old instruction, whose state bits
        // reset to Unknown — like an I-cache line replacement. The tag
        // keeps aliasing PCs from reading each other's label; its cost
        // is the I-cache's own tag, so `storage_bits` stays 2b/entry.
        let label_geom = Geometry::direct(LABEL_ENTRIES, 16, 2);
        Sit {
            entries: FullAssoc::new(cfg.entries),
            labels: DirectTable::new(label_geom),
            clock: 0,
        }
    }

    /// Storage bits, matching the paper's Table II budget: each entry
    /// holds a partial mPC tag (16b), truncated last address (24b), delta
    /// (16b), and confirmation counters (8b) — 64 bits — plus 2 bits of
    /// I-cache state per labelled instruction (the paper's "2 KB state
    /// bits"). P1's value/pointer extensions are budgeted to P1.
    pub fn storage_bits(&self) -> u64 {
        self.entries.capacity() as u64 * 64 + LABEL_ENTRIES as u64 * 2
    }

    /// The label of instruction `pc`.
    pub fn label(&self, pc: u64) -> InstLabel {
        self.labels.get(pc).copied().unwrap_or(InstLabel::Unknown)
    }

    /// Sets the label of instruction `pc`. The store is direct-mapped,
    /// so a colliding instruction's state bits reset to Unknown — the
    /// finite-I-cache-state behavior, now with deterministic victims.
    pub fn set_label(&mut self, pc: u64, label: InstLabel) {
        self.labels.insert(pc, label);
    }

    /// Shared access to an entry.
    pub fn entry(&self, mpc: u64) -> Option<&SitEntry> {
        self.entries.find(mpc).map(|i| self.entries.value(i))
    }

    /// Mutable access to an entry.
    pub fn entry_mut(&mut self, mpc: u64) -> Option<&mut SitEntry> {
        self.entries.find(mpc).map(|i| self.entries.value_mut(i))
    }

    /// Finds the entry for `mpc`, allocating (LRU victim) if absent.
    pub fn find_or_alloc(&mut self, mpc: u64, pc: u64, addr: u64, value: u64) -> &mut SitEntry {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(i) = self.entries.find(mpc) {
            self.entries.touch(i, stamp);
            return self.entries.value_mut(i);
        }
        let victim = self.entries.victim();
        self.entries
            .put(victim, mpc, stamp, SitEntry::new(mpc, pc, addr, value));
        self.entries.value_mut(victim)
    }

    /// Removes the entry for `mpc` (instruction became non-strided and
    /// holds no pointer pattern).
    pub fn release(&mut self, mpc: u64) {
        if let Some(i) = self.entries.find(mpc) {
            self.entries.invalidate(i);
        }
    }

    /// Records a new execution instance of `mpc`, updating stride
    /// statistics. Allocates the entry if needed. Returns the update
    /// summary, or `None` for the very first instance (no delta yet).
    pub fn update(&mut self, mpc: u64, pc: u64, addr: u64, value: u64) -> Option<SitUpdate> {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(i) = self.entries.find(mpc) {
            self.entries.touch(i, stamp);
            let e = self.entries.value_mut(i);
            let new_delta = addr.wrapping_sub(e.last_addr) as i64;
            let value_to_addr = addr.wrapping_sub(e.last_value) as i64;
            if new_delta == e.delta && new_delta != 0 {
                e.same = e.same.saturating_add(1);
                e.diff = 0;
            } else {
                e.delta = new_delta;
                e.same = 1;
                e.diff = e.diff.saturating_add(1);
            }
            e.last_addr = addr;
            e.last_value = value;
            if (e.frontier < addr && e.delta > 0) || (e.frontier > addr && e.delta < 0) {
                e.frontier = addr;
            }
            Some(SitUpdate {
                new_delta,
                same: e.same,
                diff: e.diff,
                value_to_addr,
            })
        } else {
            self.find_or_alloc(mpc, pc, addr, value);
            None
        }
    }

    /// All live entries (for inspection and tests).
    pub fn entries(&self) -> impl Iterator<Item = &SitEntry> {
        self.entries.iter().map(|(_, e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sit() -> Sit {
        Sit::new(SitConfig::default())
    }

    #[test]
    fn first_instance_allocates_without_delta() {
        let mut s = sit();
        assert!(s.update(0x100, 0x100, 0x8000, 0).is_none());
        assert_eq!(s.entries().count(), 1);
    }

    #[test]
    fn stable_stride_counts_up() {
        let mut s = sit();
        s.update(0x100, 0x100, 0x8000, 0);
        for i in 1..=20u64 {
            let u = s.update(0x100, 0x100, 0x8000 + i * 64, 0).unwrap();
            assert_eq!(u.new_delta, 64);
            if i >= 2 {
                assert_eq!(u.same, i as u32);
            }
        }
        let e = s.entry(0x100).unwrap();
        assert!(e.stable_for(16));
        assert_eq!(e.frontier, 0x8000 + 20 * 64);
    }

    #[test]
    fn changing_deltas_count_diff() {
        let mut s = sit();
        let addrs = [0x8000u64, 0x8040, 0x9000, 0x9010, 0xa000];
        s.update(0x100, 0x100, addrs[0], 0);
        let mut last_diff = 0;
        for a in &addrs[1..] {
            last_diff = s.update(0x100, 0x100, *a, 0).unwrap().diff;
        }
        assert!(last_diff >= 3, "deltas kept changing, diff = {last_diff}");
    }

    #[test]
    fn same_delta_resets_diff() {
        let mut s = sit();
        s.update(0x100, 0x100, 0x8000, 0);
        s.update(0x100, 0x100, 0x9000, 0); // delta 0x1000
        s.update(0x100, 0x100, 0x9040, 0); // delta 0x40 (diff 2)
        let u = s.update(0x100, 0x100, 0x9080, 0).unwrap(); // delta 0x40 again
        assert_eq!(u.diff, 0);
        assert_eq!(u.same, 2);
    }

    #[test]
    fn negative_strides_track() {
        let mut s = sit();
        s.update(0x100, 0x100, 0x9000, 0);
        for i in 1..=8u64 {
            s.update(0x100, 0x100, 0x9000 - i * 64, 0);
        }
        let e = s.entry(0x100).unwrap();
        assert_eq!(e.delta, -64);
        assert!(e.stable_for(4));
        assert_eq!(e.frontier, 0x9000 - 8 * 64);
    }

    #[test]
    fn value_to_addr_feeds_chain_detection() {
        let mut s = sit();
        // A list walk: value of one instance is (addr - 8) of the next.
        s.update(0x100, 0x100, 0x1000, 0x2000);
        let u = s.update(0x100, 0x100, 0x2008, 0x3000).unwrap();
        assert_eq!(u.value_to_addr, 8);
        let u = s.update(0x100, 0x100, 0x3008, 0x4000).unwrap();
        assert_eq!(u.value_to_addr, 8);
    }

    #[test]
    fn lru_replacement_evicts_oldest() {
        let mut s = Sit::new(SitConfig {
            entries: 2,
            ..SitConfig::default()
        });
        s.update(0x100, 0x100, 1, 0);
        s.update(0x200, 0x200, 2, 0);
        s.update(0x100, 0x100, 3, 0); // refresh 0x100
        s.update(0x300, 0x300, 4, 0); // evicts 0x200
        assert!(s.entry(0x100).is_some());
        assert!(s.entry(0x200).is_none());
        assert!(s.entry(0x300).is_some());
    }

    #[test]
    fn labels_default_unknown_and_update() {
        let mut s = sit();
        assert_eq!(s.label(0x400), InstLabel::Unknown);
        s.set_label(0x400, InstLabel::Observation);
        assert_eq!(s.label(0x400), InstLabel::Observation);
        s.set_label(0x400, InstLabel::Strided);
        assert_eq!(s.label(0x400), InstLabel::Strided);
    }

    #[test]
    fn label_store_is_bounded() {
        let mut s = sit();
        let pcs = 0..2 * LABEL_ENTRIES as u64;
        for pc in pcs.clone() {
            s.set_label(pc, InstLabel::Strided);
        }
        let tracked = pcs.filter(|pc| s.label(*pc) != InstLabel::Unknown).count();
        assert!(tracked <= LABEL_ENTRIES);
    }

    #[test]
    fn release_frees_entry() {
        let mut s = sit();
        s.update(0x100, 0x100, 1, 0);
        s.release(0x100);
        assert!(s.entry(0x100).is_none());
    }

    #[test]
    fn different_call_sites_get_distinct_entries() {
        let mut s = sit();
        // Same pc, two mPCs (different RAS tops).
        s.update(0x100 ^ 0xAAAA, 0x100, 0x8000, 0);
        s.update(0x100 ^ 0xBBBB, 0x100, 0xF000, 0);
        assert_eq!(s.entries().count(), 2);
    }
}
