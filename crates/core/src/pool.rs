//! A generic work-stealing thread pool primitive.
//!
//! [`pool_map`] is the one fan-out shape the whole workspace shares: the
//! experiment runner, the conformance fuzzer's iteration blocks, and the
//! MPC cluster's per-round worker step all claim indices from a shared
//! atomic counter and hand back results **in index order**, so every
//! artifact built on top is byte-identical across `--jobs` values by
//! construction. It lives in `st-core` (std-only, no machine state) so
//! both `st-bench` and `st-mpc` can use it without a dependency cycle.
//! [`lock`] is the one way the workspace takes a shared `Mutex`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};

/// Lock `m`, ignoring poisoning. The experiment runner catches a
/// panicking experiment and goes on with the rest, so the tracers and
/// memory meters shared with it must stay usable after a holder
/// panicked.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Generic work-stealing fan-out: `jobs` scoped worker threads claim
/// indices `0..work` from a shared atomic counter in `schedule` order and
/// run `f` on each; the results come back **in index order** regardless
/// of which worker finished when. `schedule` permutes the *claim* order
/// only (pass `None` for first-to-last); it never affects the output
/// order. This is the pool under `st_bench::runner::run_experiments`,
/// under the conformance fuzzer's iteration blocks, and under the
/// `st-mpc` superstep engine.
///
/// # Panics
///
/// Propagates a panic from `f` when the scope joins; callers that must
/// survive panics wrap `f` in `catch_unwind` themselves.
pub fn pool_map<T, F>(work: usize, jobs: usize, schedule: Option<&[usize]>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if work == 0 {
        return Vec::new();
    }
    let identity: Vec<usize>;
    let schedule = match schedule {
        Some(s) => {
            assert_eq!(s.len(), work, "schedule must cover the work list");
            s
        }
        None => {
            identity = (0..work).collect();
            &identity
        }
    };
    let jobs = jobs.clamp(1, work);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let claim = next.fetch_add(1, Ordering::Relaxed);
                let Some(&i) = schedule.get(claim) else { break };
                if tx.send((i, f(i))).is_err() {
                    break;
                }
            });
        }
    });
    drop(tx);
    // Collect out-of-order completions back into index order. Every index
    // is claimed exactly once and the scope joins every worker, so each
    // slot fills exactly once.
    let mut slots: Vec<Option<T>> = (0..work).map(|_| None).collect();
    for (i, value) in rx {
        slots[i] = Some(value);
    }
    slots
        .into_iter()
        .map(|s| s.expect("worker pool lost a work item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_map_returns_results_in_index_order_for_any_schedule() {
        let squares = pool_map(10, 4, None, |i| i * i);
        assert_eq!(squares, (0..10).map(|i| i * i).collect::<Vec<_>>());
        let reversed: Vec<usize> = (0..10).rev().collect();
        let again = pool_map(10, 3, Some(&reversed), |i| i * i);
        assert_eq!(again, squares);
        assert!(pool_map(0, 4, None, |i| i).is_empty());
    }

    #[test]
    fn pool_map_single_job_is_the_serial_reference() {
        let serial = pool_map(17, 1, None, |i| i + 100);
        let parallel = pool_map(17, 8, None, |i| i + 100);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn lock_survives_a_panicking_holder() {
        let m = std::sync::Arc::new(Mutex::new(0u32));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = lock(&m2);
            panic!("poison the mutex");
        })
        .join();
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 1);
    }

    #[test]
    #[should_panic(expected = "schedule must cover the work list")]
    fn pool_map_rejects_a_short_schedule() {
        let short = [0usize, 1];
        let _ = pool_map(3, 2, Some(&short), |i| i);
    }
}
