//! Host speed reference.
//!
//! The benchmark runs on shared machines whose speed drifts by tens of
//! percent over minutes as neighbours load the host — more than any bound
//! worth gating on, and more than longer runs or medians remove. So a
//! short fixed reference workload, which uses none of the repository's
//! code, runs between all timed units of work (each simulated run, each
//! figure driver, each set-up), and host times are reported in
//! *reference seconds*: each unit's measured seconds times [`factor`],
//! the nominal reference time over the mean of the two reference runs
//! around it. A change to the simulator cannot move the
//! reference; a change in machine speed moves both.

use std::cell::RefCell;
use std::time::Instant;

/// The reference's typical time on a 2.1 GHz Xeon vCPU: the machine on
/// which reported host times read as plain seconds.
pub const REFERENCE_NOMINAL_S: f64 = 0.016;

/// Host speed relative to the nominal machine, from the reference runs
/// before and after a timed stretch: above 1 means faster.
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    2.0 * REFERENCE_NOMINAL_S / (before_s + after_s)
}

thread_local! {
    /// The reference's state, allocated once so that its runs neither
    /// fault pages in nor move the peak resident set.
    static MODELS: RefCell<Vec<Box<dyn Model>>> = RefCell::new(models());
}

/// Seconds one run of the reference takes now.
pub fn reference_s() -> f64 {
    let t = Instant::now();
    std::hint::black_box(reference_work());
    t.elapsed().as_secs_f64()
}

/// Set-associative LRU cache models of many shapes, fed pseudo-random
/// lines through dynamic dispatch: integer work, data-dependent and
/// indirect branches, a code footprint beyond the L1 instruction cache
/// and data from L2- to LLC-sized, like the simulator's hot loop, so host
/// contention slows both alike.
fn reference_work() -> u64 {
    MODELS.with_borrow_mut(|models| {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut hits = 0u64;
        for _ in 0..200_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let m = (state >> 59) as usize % models.len();
            hits += models[m].access(state) as u64;
        }
        hits
    })
}

fn models() -> Vec<Box<dyn Model>> {
    vec![
        Box::new(Lru::<2, 1>::new(1 << 13)),
        Box::new(Lru::<4, 2>::new(1 << 14)),
        Box::new(Lru::<8, 3>::new(1 << 15)),
        Box::new(Lru::<16, 4>::new(1 << 16)),
        Box::new(Lru::<2, 5>::new(1 << 17)),
        Box::new(Lru::<4, 6>::new(1 << 12)),
        Box::new(Lru::<8, 7>::new(1 << 13)),
        Box::new(Lru::<16, 8>::new(1 << 12)),
        Box::new(Lru::<3, 9>::new(1 << 14)),
        Box::new(Lru::<5, 10>::new(1 << 15)),
        Box::new(Lru::<6, 11>::new(1 << 13)),
        Box::new(Lru::<12, 12>::new(1 << 14)),
    ]
}

trait Model {
    fn access(&mut self, key: u64) -> bool;
}

/// A `WAYS`-way LRU array whose line hash depends on `SALT`, so each
/// shape compiles to its own code.
struct Lru<const WAYS: usize, const SALT: u32> {
    tags: Vec<u64>,
    sets: usize,
}

impl<const WAYS: usize, const SALT: u32> Lru<WAYS, SALT> {
    fn new(sets: usize) -> Self {
        Lru {
            tags: vec![0; sets * WAYS],
            sets,
        }
    }
}

impl<const WAYS: usize, const SALT: u32> Model for Lru<WAYS, SALT> {
    fn access(&mut self, key: u64) -> bool {
        let line = (key.rotate_left(SALT) % (self.sets as u64 * 4 * WAYS as u64)) | 1;
        let set = (line.wrapping_mul(0x9E37_79B9) >> SALT) as usize % self.sets;
        let ways = &mut self.tags[set * WAYS..(set + 1) * WAYS];
        match ways.iter().position(|&t| t == line) {
            Some(w) => {
                ways[..=w].rotate_right(1);
                true
            }
            None => {
                ways.rotate_right(1);
                ways[0] = line;
                false
            }
        }
    }
}
