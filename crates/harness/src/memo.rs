//! Cross-run memoization: the one place where simulation state outlives
//! a run.
//!
//! A capture, a per-config run and a classification are each
//! deterministic in their key — the functional VM, the timing model and
//! the offline analyses have no other inputs — and most figure drivers
//! repeat the same handful. Each kind is held in one bounded FIFO
//! [`Memo`] table and shared as an `Arc`. A hit is bit-identical to a
//! fresh computation, so reports are byte-identical whether a value is
//! served from a table or not.
//!
//! The tables have separate bounds because their artifacts differ in
//! size by orders of magnitude: captures hold whole traces, per-config
//! runs hold only counters, and classifiers are tiny category maps that
//! must survive the capture table's churn on a full-budget suite. A
//! single instruction-weighted bound would evict the classifiers along
//! with the captures.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use dol_metrics::Classifier;

use crate::runner::{AppRun, BaselineRun};

/// `(workload name, insts, seed)` — everything a capture depends on.
/// Every capture runs on the canonical single-core system of
/// [`crate::runner::single_core`], so the system is not part of the key.
/// A capture's offline classification depends on nothing else either,
/// so the classifier table shares this key.
pub(crate) type CaptureKey = (String, u64, u64);

/// `(config, system fingerprint, workload name, insts, seed)` —
/// everything an [`AppRun::run`] depends on. The system is keyed by its
/// `Debug` rendering: drivers such as fig16 reuse one config name across
/// structurally different systems (prefetch destination sweeps). Its
/// oracle-stratified runs bypass the table, since their system's
/// rendering would carry the whole LHF line set.
pub(crate) type AppRunKey = (String, String, String, u64, u64);

/// Instructions the capture table holds at most.
const CAPTURE_INSTS: u64 = 6_000_000;

/// Captured workloads with their baselines, weighted by instructions.
pub(crate) static CAPTURES: Memo<CaptureKey, BaselineRun> = Memo::new(CAPTURE_INSTS);

/// Per-config runs, weighted by instructions. Their artifacts are far
/// smaller than traces, so the table holds 4x the capture table's
/// instructions.
pub(crate) static APP_RUNS: Memo<AppRunKey, AppRun> = Memo::new(4 * CAPTURE_INSTS);

/// Offline classifications, one unit of weight each; 64 entries hold the
/// whole workload suite.
pub(crate) static CLASSIFIERS: Memo<CaptureKey, Classifier> = Memo::new(64);

/// Empties every table, so the next run re-simulates everything.
pub(crate) fn clear() {
    CAPTURES.clear();
    APP_RUNS.clear();
    CLASSIFIERS.clear();
}

/// A bounded FIFO memo table from `K` to shared `V`s.
///
/// Each entry carries a caller-given weight. Inserting evicts the oldest
/// entries while the held weight exceeds the capacity and more than one
/// entry remains, so the newest entry always stays.
pub(crate) struct Memo<K, V> {
    capacity: u64,
    table: Mutex<Table<K, V>>,
}

struct Table<K, V> {
    held: u64,
    entries: VecDeque<(K, u64, Arc<V>)>,
}

impl<K: PartialEq, V> Table<K, V> {
    fn find(&self, key: &K) -> Option<Arc<V>> {
        self.entries
            .iter()
            .find(|(k, _, _)| k == key)
            .map(|(_, _, v)| Arc::clone(v))
    }
}

impl<K: PartialEq, V> Memo<K, V> {
    /// An empty table holding at most `capacity` weight (beyond its
    /// newest entry).
    pub(crate) const fn new(capacity: u64) -> Self {
        Memo {
            capacity,
            table: Mutex::new(Table {
                held: 0,
                entries: VecDeque::new(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Table<K, V>> {
        self.table.lock().expect("memo table poisoned")
    }

    /// The value memoized under `key`, computing it with `f` on a miss.
    ///
    /// `f` runs without the lock held, so workers computing different
    /// keys proceed in parallel. When two workers race on one key, the
    /// first value stored wins and both get it; the values are
    /// bit-identical, so either would do.
    pub(crate) fn get_or_compute(&self, key: K, weight: u64, f: impl FnOnce() -> V) -> Arc<V> {
        if let Some(hit) = self.lock().find(&key) {
            return hit;
        }
        let fresh = Arc::new(f());
        let mut t = self.lock();
        if let Some(first) = t.find(&key) {
            return first;
        }
        t.held += weight;
        t.entries.push_back((key, weight, Arc::clone(&fresh)));
        while t.held > self.capacity && t.entries.len() > 1 {
            if let Some((_, w, _)) = t.entries.pop_front() {
                t.held -= w;
            }
        }
        fresh
    }

    /// Drops every entry.
    pub(crate) fn clear(&self) {
        let mut t = self.lock();
        t.held = 0;
        t.entries.clear();
    }

    #[cfg(test)]
    fn contains(&self, key: &K) -> bool {
        self.lock().find(key).is_some()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.lock().entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::Barrier;

    #[test]
    fn hit_returns_the_stored_arc() {
        let m: Memo<u32, String> = Memo::new(10);
        let a = m.get_or_compute(1, 1, || "one".to_string());
        let b = m.get_or_compute(1, 1, || unreachable!("a hit must not recompute"));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn evicts_oldest_first_and_keeps_the_newest() {
        let m: Memo<u32, u32> = Memo::new(10);
        m.get_or_compute(1, 4, || 1);
        m.get_or_compute(2, 4, || 2);
        m.get_or_compute(3, 4, || 3);
        assert!(
            !m.contains(&1),
            "oldest entry evicted once weight exceeds 10"
        );
        assert!(m.contains(&2) && m.contains(&3));
        // An entry heavier than the whole capacity evicts everything else
        // but is itself kept.
        m.get_or_compute(4, 50, || 4);
        assert_eq!(m.len(), 1);
        assert!(m.contains(&4));
        let again = m.get_or_compute(4, 50, || unreachable!("newest entry must stay"));
        assert_eq!(*again, 4);
    }

    #[test]
    fn racing_insert_keeps_one_entry() {
        let m: Memo<u32, u64> = Memo::new(10);
        let barrier = Barrier::new(2);
        let values: Vec<Arc<u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2u64)
                .map(|i| {
                    let (m, barrier) = (&m, &barrier);
                    s.spawn(move || {
                        m.get_or_compute(7, 1, || {
                            // Both workers miss before either inserts.
                            barrier.wait();
                            i
                        })
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(m.len(), 1);
        assert!(
            Arc::ptr_eq(&values[0], &values[1]),
            "first stored value wins"
        );
    }

    #[test]
    fn clear_empties_every_table() {
        // Keys no other test uses (an odd budget and seed), so tests
        // filling the tables concurrently cannot disturb the checks.
        let plan = crate::RunPlan {
            insts: 10_007,
            seed: 0x3e30,
            ..crate::RunPlan::quick()
        };
        let spec = dol_workloads::by_name("stream_sum").unwrap();
        let base = BaselineRun::capture(&spec, &plan);
        let sys = crate::runner::single_core();
        AppRun::run(&base, "T2", &sys);
        let capture_key = base.key.clone();
        let run_key = AppRun::key(&base, "T2", &sys);
        assert!(CAPTURES.contains(&capture_key));
        assert!(APP_RUNS.contains(&run_key));
        assert!(CLASSIFIERS.contains(&capture_key));

        clear();
        assert!(!CAPTURES.contains(&capture_key));
        assert!(!APP_RUNS.contains(&run_key));
        assert!(!CLASSIFIERS.contains(&capture_key));
    }
}
