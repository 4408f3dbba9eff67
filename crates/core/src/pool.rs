//! A generic work-stealing thread pool primitive.
//!
//! [`pool_map`] is the one fan-out the whole workspace shares: the
//! experiment runner, the conformance fuzzer's iteration blocks, the soak
//! campaign and its concurrent sessions, the serve script's execution
//! phase, the TM acceptance sampler and the MPC cluster's per-round
//! worker step all claim indices from a shared atomic counter and hand
//! back results **in index order**, so every artifact built on top is
//! byte-identical across `--jobs` values by construction. It alone
//! resolves `jobs == 0` to the available parallelism, and at one
//! effective job it runs on the calling thread and spawns nothing. It
//! lives in `st-core` (std-only, no machine state) so both `st-bench`
//! and `st-mpc` can use it without a dependency cycle. [`lock`] is the
//! one way the workspace takes a shared `Mutex`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};

/// Lock `m`, ignoring poisoning. The experiment runner catches a
/// panicking experiment and goes on with the rest, so the tracers and
/// memory meters shared with it must stay usable after a holder
/// panicked.
pub fn lock<T: ?Sized>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The worker count for `work` items: `jobs`, or the available
/// parallelism when `jobs == 0`, never more than `work` (an idle thread
/// is pointless) and never less than 1.
fn effective_jobs(jobs: usize, work: usize) -> usize {
    let requested = if jobs == 0 {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        jobs
    };
    requested.clamp(1, work.max(1))
}

/// Generic work-stealing fan-out: `jobs` workers (`0` = available
/// parallelism, clamped to `1..=work`) claim indices `0..work` from a
/// shared atomic counter in `schedule` order and run `f` on each; the
/// results come back **in index order** regardless of which worker
/// finished when. `schedule` permutes the pool threads' *claim* order
/// only (pass `None` for first-to-last); it never affects the output
/// order.
///
/// At one effective job `f` runs in index order on the calling thread:
/// no thread, no channel, no slot vector, and no use for a schedule.
/// Otherwise it runs on scoped threads spawned for this call. So `f`
/// takes what it needs, a tracer included, from its captures, never
/// from a thread-local, or its output would depend on `jobs`.
///
/// # Panics
///
/// Panics if `schedule` does not have `work` entries. Propagates a
/// panic from `f` (at once at one job, when the scope joins otherwise);
/// callers that must survive panics wrap `f` in `catch_unwind`
/// themselves.
pub fn pool_map<T, F>(work: usize, jobs: usize, schedule: Option<&[usize]>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if let Some(s) = schedule {
        assert_eq!(s.len(), work, "schedule must cover the work list");
    }
    if work == 0 {
        return Vec::new();
    }
    let jobs = effective_jobs(jobs, work);
    if jobs == 1 {
        return (0..work).map(f).collect();
    }
    let identity: Vec<usize>;
    let schedule = match schedule {
        Some(s) => s,
        None => {
            identity = (0..work).collect();
            &identity
        }
    };
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
        let auto = pool_map(17, 0, None, |i| i + 100);
        assert_eq!(serial, auto);
    }

    #[test]
    fn one_effective_job_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        for (work, jobs) in [(5, 1), (1, 4), (1, 0)] {
            let threads = pool_map(work, jobs, None, |_| std::thread::current().id());
            assert!(
                threads.iter().all(|&t| t == caller),
                "work={work} jobs={jobs}"
            );
        }
    }

    #[test]
    fn effective_jobs_clamps_to_work_and_floor_of_one() {
        assert_eq!(effective_jobs(8, 3), 3);
        assert_eq!(effective_jobs(8, 0), 1);
        assert_eq!(effective_jobs(2, 64), 2);
        let auto = effective_jobs(0, 64);
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(auto, cores.min(64));
        assert_eq!(effective_jobs(0, 1), 1);
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
        // One job: the check must hold before the inline path, which
        // has no use for the schedule.
        let short = [0usize, 1];
        let _ = pool_map(3, 1, Some(&short), |i| i);
    }
}
