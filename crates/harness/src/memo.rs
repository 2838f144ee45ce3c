//! Cross-run memoization: the one place where simulation state outlives
//! a run.
//!
//! A capture, a baseline run and a per-config run are each
//! deterministic in their key — the functional VM, the timing model and
//! the offline analyses have no other inputs — and the figure drivers
//! re-read the same runs. Each kind is held in one [`Memo`] table and
//! shared as an `Arc`; a hit is bit-identical to a fresh computation.
//!
//! Only traces are bounded: each holds every retired instruction and a
//! memory image, and keeping all 36 of a full-budget run raised its peak
//! RSS by half. Baselines and per-config runs, counters and line sets,
//! stay for the process's life, so no run is simulated twice; an evicted
//! trace is captured again on its next use ([`BaselineRun::workload`]).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};

use dol_cpu::Workload;

use crate::runner::{AppRun, BaselineRun};

/// `(workload name, insts, seed)` — everything a capture depends on.
/// Every baseline runs on the canonical single-core system of
/// [`crate::runner::single_core`], so the system is not part of the key.
pub(crate) type CaptureKey = (String, u64, u64);

/// `(config, system fingerprint, capture key)` — everything an
/// [`AppRun::run`] depends on. The system is keyed by its
/// `Debug` rendering: drivers such as fig16 reuse one config name across
/// structurally different systems (prefetch destination sweeps). Its
/// oracle-stratified runs bypass the table, since their system's
/// rendering would carry the whole LHF line set.
pub(crate) type AppRunKey = (String, String, CaptureKey);

/// Instructions the trace table holds at most.
const CAPTURE_INSTS: u64 = 6_000_000;

/// Captured traces, weighted by instructions.
pub(crate) static TRACES: Memo<CaptureKey, Workload> =
    Memo::new(Some((CAPTURE_INSTS, |w| w.trace.len() as u64)));

/// No-prefetch baselines with their offline classifications.
pub(crate) static BASELINES: Memo<CaptureKey, BaselineRun> = Memo::new(None);

/// Per-config runs.
pub(crate) static APP_RUNS: Memo<AppRunKey, AppRun> = Memo::new(None);

/// Empties every table, so the next run re-simulates everything.
pub(crate) fn clear() {
    TRACES.clear();
    BASELINES.clear();
    APP_RUNS.clear();
}

/// A FIFO memo table from `K` to shared `V`s. A bounded table evicts the
/// oldest entries while the held weight exceeds the capacity and more
/// than one entry remains, so the newest entry always stays.
pub(crate) struct Memo<K, V> {
    bound: Bound<V>,
    table: Mutex<Table<K, V>>,
}

/// `(capacity, weight)`: the weight a table holds at most beyond its
/// newest entry, and each value's weight. `None` keeps every entry.
type Bound<V> = Option<(u64, fn(&V) -> u64)>;

struct Table<K, V> {
    held: u64,
    entries: VecDeque<(K, Arc<V>)>,
}

impl<K: PartialEq, V> Table<K, V> {
    fn find(&self, key: &K) -> Option<Arc<V>> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| Arc::clone(v))
    }
}

impl<K: PartialEq, V> Memo<K, V> {
    /// An empty table.
    pub(crate) const fn new(bound: Bound<V>) -> Self {
        Memo {
            bound,
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
    pub(crate) fn get_or_compute(&self, key: K, f: impl FnOnce() -> V) -> Arc<V> {
        if let Some(hit) = self.lock().find(&key) {
            return hit;
        }
        let fresh = Arc::new(f());
        let mut t = self.lock();
        if let Some(first) = t.find(&key) {
            return first;
        }
        t.entries.push_back((key, Arc::clone(&fresh)));
        if let Some((capacity, weight)) = self.bound {
            t.held += weight(&fresh);
            while t.held > capacity && t.entries.len() > 1 {
                if let Some((_, v)) = t.entries.pop_front() {
                    t.held -= weight(&v);
                }
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
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.lock().find(key).is_some()
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.lock().entries.len()
    }
}

/// Held by every test that empties the process-wide tables, so none of
/// them empties a table under another's checks.
#[cfg(test)]
pub(crate) fn clearing() -> MutexGuard<'static, ()> {
    static CLEARING: Mutex<()> = Mutex::new(());
    CLEARING.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::Barrier;

    #[test]
    fn hit_returns_the_stored_arc() {
        let m: Memo<u32, String> = Memo::new(None);
        let a = m.get_or_compute(1, || "one".to_string());
        let b = m.get_or_compute(1, || unreachable!("a hit must not recompute"));
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn evicts_oldest_first_and_keeps_the_newest() {
        // Each value is its own weight.
        let m: Memo<u32, u64> = Memo::new(Some((10, |&w| w)));
        m.get_or_compute(1, || 4);
        m.get_or_compute(2, || 4);
        m.get_or_compute(3, || 4);
        assert!(
            !m.contains(&1),
            "oldest entry evicted once weight exceeds 10"
        );
        assert!(m.contains(&2) && m.contains(&3));
        // An entry heavier than the whole capacity evicts everything else
        // but is itself kept.
        m.get_or_compute(4, || 50);
        assert_eq!(m.len(), 1);
        assert!(m.contains(&4));
        let again = m.get_or_compute(4, || unreachable!("newest entry must stay"));
        assert_eq!(*again, 50);
    }

    #[test]
    fn unbounded_table_never_evicts() {
        let m: Memo<u32, u64> = Memo::new(None);
        for k in 0..1000 {
            m.get_or_compute(k, || u64::MAX);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000).all(|k| m.contains(&k)));
    }

    #[test]
    fn racing_insert_keeps_one_entry() {
        let m: Memo<u32, u64> = Memo::new(None);
        let barrier = Barrier::new(2);
        let values: Vec<Arc<u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2u64)
                .map(|i| {
                    let (m, barrier) = (&m, &barrier);
                    s.spawn(move || {
                        m.get_or_compute(7, || {
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
        let _clearing = clearing();
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
        let capture_key = ("stream_sum".to_string(), plan.insts, plan.seed);
        let run_key = AppRun::key(&base, "T2", &sys);
        assert!(TRACES.contains(&capture_key));
        assert!(BASELINES.contains(&capture_key));
        assert!(APP_RUNS.contains(&run_key));

        clear();
        assert!(!TRACES.contains(&capture_key));
        assert!(!BASELINES.contains(&capture_key));
        assert!(!APP_RUNS.contains(&run_key));
    }
}
