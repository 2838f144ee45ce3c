//! A set of cache-line addresses stored as per-page bitmaps.

use std::fmt;

use dol_isa::DetHashMap;

/// Log2 of the lines per bitmap page (64 lines = 4 KiB).
const PAGE_SHIFT: u32 = 6;

/// A set of cache-line addresses (miss footprints, prefetch footprints,
/// regions, the offline LHF lines).
///
/// Lines are grouped by 4 KiB page (`line >> 6`): each page the set has
/// touched owns one `(page, bitmap)` slot, in first-touch order, and a
/// `page → slot` index finds it. A cursor on the last page inserted is
/// checked before the index, as in `dol_isa::SparseMemory`, so a run of
/// inserts within one page — a prefetcher streaming through memory —
/// costs one compare and one bit-or each, with no hashing.
///
/// Equality is set equality and [`Debug`](fmt::Debug) prints the lines
/// in ascending order, so neither depends on the order the lines went
/// in. [`iter`](Self::iter) yields the lines page by page, in
/// first-touch order.
#[derive(Clone, Default)]
pub struct LineSet {
    /// `(page, bitmap)` per touched page; bit `i` is line `page << 6 | i`.
    /// Every bitmap is non-zero.
    slots: Vec<(u64, u64)>,
    /// Page → index into `slots`.
    index: DetHashMap<u64, usize>,
    /// Slot of the last page inserted into.
    last: usize,
    /// Number of lines in the set.
    len: usize,
}

impl LineSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn split(line: u64) -> (u64, u64) {
        (line >> PAGE_SHIFT, 1 << (line & ((1 << PAGE_SHIFT) - 1)))
    }

    /// Slot of `page`, if the set has touched it.
    #[inline]
    fn slot(&self, page: u64) -> Option<usize> {
        match self.slots.get(self.last) {
            Some(&(p, _)) if p == page => Some(self.last),
            _ => self.index.get(&page).copied(),
        }
    }

    /// Adds `line`; returns whether it was absent.
    #[inline]
    pub fn insert(&mut self, line: u64) -> bool {
        let (page, bit) = Self::split(line);
        let slot = match self.slots.get(self.last) {
            Some(&(p, _)) if p == page => self.last,
            _ => {
                let slots = &mut self.slots;
                *self.index.entry(page).or_insert_with(|| {
                    slots.push((page, 0));
                    slots.len() - 1
                })
            }
        };
        self.last = slot;
        let bits = &mut self.slots[slot].1;
        let added = *bits & bit == 0;
        *bits |= bit;
        self.len += added as usize;
        added
    }

    /// Whether `line` is in the set.
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        let (page, bit) = Self::split(line);
        self.slot(page).is_some_and(|s| self.slots[s].1 & bit != 0)
    }

    /// Number of lines in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The lines, page by page in first-touch order, ascending within a
    /// page.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().flat_map(|&(page, bits)| {
            let mut rest = bits;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let i = rest.trailing_zeros() as u64;
                rest &= rest - 1;
                Some(page << PAGE_SHIFT | i)
            })
        })
    }
}

impl PartialEq for LineSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self
                .slots
                .iter()
                .all(|&(page, bits)| other.slot(page).is_some_and(|s| other.slots[s].1 == bits))
    }
}

impl Eq for LineSet {}

impl fmt::Debug for LineSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut lines: Vec<u64> = self.iter().collect();
        lines.sort_unstable();
        f.debug_set().entries(lines).finish()
    }
}

impl Extend<u64> for LineSet {
    fn extend<I: IntoIterator<Item = u64>>(&mut self, lines: I) {
        for line in lines {
            self.insert(line);
        }
    }
}

impl FromIterator<u64> for LineSet {
    fn from_iter<I: IntoIterator<Item = u64>>(lines: I) -> Self {
        let mut set = LineSet::new();
        set.extend(lines);
        set
    }
}
