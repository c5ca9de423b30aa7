//! A minimal scoped work-stealing pool: the fan-out primitive behind
//! the sweep harness (`rev-bench`), chaos campaigns (`rev-chaos`) and
//! the profile linter (`rev-lint --jobs`).
//!
//! It lives in this dependency-leaf crate so that every layer of the
//! workspace can share one pool implementation: `rev-bench` depends on
//! `rev-lint` (the `--preflight` gate), so `rev-lint` could not reuse a
//! pool defined up in `rev-bench` without a dependency cycle.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Locks `mutex`, recovering the guard if a thread panicked while holding
/// it. Only for data every update leaves valid at every step — a memo
/// slot that goes from empty to a finished value in one assignment, a
/// counter, a queue push — so a panic elsewhere (a supervised job, a
/// build) cannot wedge every later caller on a poisoned lock.
pub fn lock_unpoisoned<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Maps `f` over `items` on a scoped pool of `jobs` worker threads,
/// returning results in **input order** regardless of which worker ran
/// which item or in what order items finished. Workers pull items off a
/// shared atomic cursor (work stealing by index), so long and short items
/// mix freely. `f` receives `(worker_id, item)`.
///
/// With `jobs <= 1` (or a single item) the map runs inline on the calling
/// thread — the serial path used by `--jobs 1`, byte-for-byte equivalent.
pub fn parallel_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().map(|item| f(0, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for worker in 0..jobs {
            let cursor = &cursor;
            let collected = &collected;
            let f = &f;
            scope.spawn(move || {
                let mut local: Vec<(usize, R)> = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(worker, &items[i])));
                }
                // A worker that panics does so inside `f`, never while
                // holding the lock, so the mutex cannot be poisoned.
                collected
                    .lock()
                    .expect("invariant: no worker panics while holding the results lock")
                    .extend(local);
            });
        }
    });
    let mut merged =
        collected.into_inner().expect("invariant: no worker panics while holding the results lock");
    merged.sort_by_key(|&(i, _)| i);
    merged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 4, 13] {
            let got = parallel_map(jobs, &items, |_w, &x| x * 3 + 1);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn a_poisoned_lock_still_hands_out_its_data() {
        let m = Mutex::new(5);
        let _ = std::panic::catch_unwind(|| {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        });
        assert!(m.is_poisoned());
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 6);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let got: Vec<u32> = parallel_map(8, &[] as &[u32], |_w, &x| x);
        assert!(got.is_empty());
    }
}
