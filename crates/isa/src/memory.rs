//! Sparse, paged data memory for the functional VM.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::hash::DetHashMap;

const PAGE_BYTES: u64 = 4096;
const WORDS_PER_PAGE: usize = (PAGE_BYTES / 8) as usize;

/// Sentinel slot for an empty last-page cache. Unreachable as a real
/// slot: slot numbers fit in `u32`.
const NO_SLOT: u64 = u64::MAX;

/// Sparse byte-addressable memory backed by 4 KiB pages of 64-bit words.
///
/// All accesses are 64-bit and must be 8-byte aligned; unaligned addresses
/// are truncated down to the containing word (the toy ISA never generates
/// unaligned accesses, but workload setup code is forgiven for it).
/// Reads of untouched memory return zero.
///
/// Page storage is a flat `Vec` indexed through a `page → slot` map, with
/// a one-entry last-page cache in front: the VM's load/store stream has
/// strong page locality, so most accesses skip the hash entirely, and a
/// write to an existing page hashes at most once (the old `entry()` path
/// hashed the key twice). The cache stores only the *slot* (relaxed
/// atomic, so shared `&self` reads stay `Sync`) and validates it against
/// the slot's recorded page number, so a stale value can never alias a
/// different page.
#[derive(Debug)]
pub struct SparseMemory {
    /// Page payloads, in allocation order (slots are never freed).
    pages: Vec<Box<[u64; WORDS_PER_PAGE]>>,
    /// Page number of each slot (parallel to `pages`).
    page_nums: Vec<u64>,
    /// Page number → slot in `pages` (deterministic fast hasher — the
    /// VM's load/store stream hits this on every page-cache miss).
    index: DetHashMap<u64, u32>,
    /// Slot of the last page touched, [`NO_SLOT`] when empty.
    last: AtomicU64,
}

impl Default for SparseMemory {
    fn default() -> Self {
        SparseMemory {
            pages: Vec::new(),
            page_nums: Vec::new(),
            index: DetHashMap::default(),
            last: AtomicU64::new(NO_SLOT),
        }
    }
}

impl Clone for SparseMemory {
    fn clone(&self) -> Self {
        SparseMemory {
            pages: self.pages.clone(),
            page_nums: self.page_nums.clone(),
            index: self.index.clone(),
            last: AtomicU64::new(self.last.load(Ordering::Relaxed)),
        }
    }
}

impl SparseMemory {
    /// 64-bit words per page (pages are 4 KiB).
    pub const PAGE_WORDS: usize = WORDS_PER_PAGE;

    /// Creates an empty memory image.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn split(addr: u64) -> (u64, usize) {
        let page = addr / PAGE_BYTES;
        let word = ((addr % PAGE_BYTES) / 8) as usize;
        (page, word)
    }

    /// Slot of `page` if it exists, refreshing the last-page cache.
    #[inline]
    fn find(&self, page: u64) -> Option<u32> {
        let s = self.last.load(Ordering::Relaxed);
        if s != NO_SLOT && self.page_nums[s as usize] == page {
            return Some(s as u32);
        }
        let slot = *self.index.get(&page)?;
        self.last.store(slot as u64, Ordering::Relaxed);
        Some(slot)
    }

    /// Reads the 64-bit word containing `addr`.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        let (page, word) = Self::split(addr);
        match self.find(page) {
            Some(slot) => self.pages[slot as usize][word],
            None => 0,
        }
    }

    /// Slot of `page`, allocating it zero-filled if absent.
    #[inline]
    fn ensure_page(&mut self, page: u64) -> u32 {
        match self.find(page) {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.pages.len()).expect("page count fits u32");
                self.pages.push(Box::new([0u64; WORDS_PER_PAGE]));
                self.page_nums.push(page);
                self.index.insert(page, slot);
                self.last.store(slot as u64, Ordering::Relaxed);
                slot
            }
        }
    }

    /// Writes the 64-bit word containing `addr`.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let (page, word) = Self::split(addr);
        let slot = self.ensure_page(page);
        self.pages[slot as usize][word] = value;
    }

    /// Writes a contiguous slice of words starting at `addr`.
    pub fn write_words(&mut self, addr: u64, values: &[u64]) {
        for (i, v) in values.iter().enumerate() {
            self.write_u64(addr + 8 * i as u64, *v);
        }
    }

    /// The words of the page containing `addr`, allocated zero-filled if
    /// absent, for bulk loaders (the trace memory-image decoder) that
    /// fill a whole page in place.
    pub fn page_mut(&mut self, addr: u64) -> &mut [u64; Self::PAGE_WORDS] {
        let (page, _) = Self::split(addr);
        let slot = self.ensure_page(page);
        &mut self.pages[slot as usize]
    }

    /// Reads `n` contiguous words starting at `addr`.
    pub fn read_words(&self, addr: u64, n: usize) -> Vec<u64> {
        (0..n).map(|i| self.read_u64(addr + 8 * i as u64)).collect()
    }

    /// Number of distinct 4 KiB pages that have been written.
    pub fn touched_pages(&self) -> usize {
        self.pages.len()
    }

    /// Every touched page as `(first byte address, words)`, sorted by
    /// address — the deterministic order trace serialization relies on
    /// (slot allocation order depends on access history; address order
    /// does not).
    pub fn pages_sorted(&self) -> Vec<(u64, &[u64; Self::PAGE_WORDS])> {
        let mut out: Vec<(u64, &[u64; Self::PAGE_WORDS])> = self
            .page_nums
            .iter()
            .zip(&self.pages)
            .map(|(&num, page)| (num * PAGE_BYTES, &**page))
            .collect();
        out.sort_unstable_by_key(|&(addr, _)| addr);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_write() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u64(0xdead_beef_0000), 0);
    }

    #[test]
    fn read_back_what_was_written() {
        let mut m = SparseMemory::new();
        m.write_u64(0x1000, 42);
        m.write_u64(0x1008, 43);
        assert_eq!(m.read_u64(0x1000), 42);
        assert_eq!(m.read_u64(0x1008), 43);
        assert_eq!(m.read_u64(0x1010), 0);
    }

    #[test]
    fn unaligned_addresses_truncate_to_word() {
        let mut m = SparseMemory::new();
        m.write_u64(0x2000, 7);
        for off in 1..8 {
            assert_eq!(m.read_u64(0x2000 + off), 7);
        }
    }

    #[test]
    fn bulk_words_round_trip_across_page_boundary() {
        let mut m = SparseMemory::new();
        let base = PAGE_BYTES - 16;
        let vals: Vec<u64> = (0..8).collect();
        m.write_words(base, &vals);
        assert_eq!(m.read_words(base, 8), vals);
        assert_eq!(m.touched_pages(), 2);
    }

    #[test]
    fn page_mut_fills_a_page_in_place() {
        let mut m = SparseMemory::new();
        m.write_u64(3 * PAGE_BYTES + 8, 5);
        let page = m.page_mut(3 * PAGE_BYTES + 100);
        assert_eq!(page[1], 5, "an existing page is returned, not replaced");
        page[WORDS_PER_PAGE - 1] = 9;
        assert!(m.page_mut(7 * PAGE_BYTES).iter().all(|&w| w == 0));
        assert_eq!(m.read_u64(4 * PAGE_BYTES - 8), 9);
        assert_eq!(m.touched_pages(), 2);
    }

    #[test]
    fn page_cache_survives_interleaved_pages() {
        // Alternate between two pages so the one-entry cache keeps
        // missing and refilling; values must stay correct throughout.
        let mut m = SparseMemory::new();
        for i in 0..64u64 {
            m.write_u64(i * 8, i);
            m.write_u64(PAGE_BYTES + i * 8, 1000 + i);
        }
        for i in 0..64u64 {
            assert_eq!(m.read_u64(i * 8), i);
            assert_eq!(m.read_u64(PAGE_BYTES + i * 8), 1000 + i);
        }
        assert_eq!(m.touched_pages(), 2);
        // A clone is independent of the original's subsequent writes.
        let c = m.clone();
        m.write_u64(0, 999);
        assert_eq!(c.read_u64(0), 0);
        assert_eq!(m.read_u64(0), 999);
    }

    #[test]
    fn pages_sorted_is_address_ordered_regardless_of_write_order() {
        let mut m = SparseMemory::new();
        // Touch pages out of address order.
        m.write_u64(5 * PAGE_BYTES, 50);
        m.write_u64(PAGE_BYTES, 10);
        m.write_u64(3 * PAGE_BYTES + 8, 30);
        let pages = m.pages_sorted();
        let addrs: Vec<u64> = pages.iter().map(|&(a, _)| a).collect();
        assert_eq!(addrs, vec![PAGE_BYTES, 3 * PAGE_BYTES, 5 * PAGE_BYTES]);
        assert_eq!(pages[0].1[0], 10);
        assert_eq!(pages[1].1[1], 30);
        assert_eq!(pages[2].1[0], 50);
    }

    #[test]
    fn memory_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<SparseMemory>();
    }
}
