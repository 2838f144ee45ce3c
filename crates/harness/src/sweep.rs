//! Parallel sweep runner: shards independent per-workload simulations
//! across a `std::thread` worker pool.
//!
//! Every figure/table driver reduces to "map an expensive, pure function
//! over a list of workloads (or mixes) and merge the results". [`map`]
//! does exactly that with scoped threads pulling indices from a shared
//! atomic counter (work stealing — long-running workloads don't leave
//! idle cores behind a static partition), and returns results **in item
//! order**, so serial and parallel runs produce byte-identical tables
//! for a fixed seed.
//!
//! With `jobs <= 1` the closure runs inline on the caller's thread — no
//! pool, no atomics — which is the reference behaviour the determinism
//! tests compare against.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a job count: `0` means auto-detect from
/// [`std::thread::available_parallelism`].
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Applies `f` to every item, sharding across `jobs` worker threads
/// (`0` = auto), and returns the results in item order.
///
/// Workers steal the next unclaimed index from a shared counter, so an
/// expensive item never serialises the rest of the sweep. Panics in `f`
/// are propagated to the caller.
pub fn map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = effective_jobs(jobs).min(items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    tagged.sort_unstable_by_key(|(i, _)| *i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..257).collect();
        let f = |x: &u64| x.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(17);
        let serial = map(1, &items, f);
        for jobs in [2, 3, 4, 8] {
            assert_eq!(serial, map(jobs, &items, f), "jobs={jobs}");
        }
    }

    #[test]
    fn results_are_in_item_order() {
        // Make early indices slow so a naive completion-order merge
        // would scramble the output.
        let items: Vec<usize> = (0..64).collect();
        let out = map(4, &items, |i| {
            if *i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            *i
        });
        assert_eq!(out, items);
    }

    #[test]
    fn handles_empty_and_singleton() {
        let empty: Vec<u32> = Vec::new();
        assert!(map(4, &empty, |x| *x).is_empty());
        assert_eq!(map(4, &[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(map(64, &items, |x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn auto_jobs_resolves_to_at_least_one() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(5), 5);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..16).collect();
        map(4, &items, |i| {
            if *i == 9 {
                panic!("boom");
            }
            *i
        });
    }
}
