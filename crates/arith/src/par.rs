//! Tiny scoped-thread work queue shared by every parallel site of the
//! workspace: the Step-3 pair translation, the solvers' restarts and
//! chunked evaluation, certificate checking and batch requests.
//!
//! They all need the same shape of parallelism: run `count` independent, CPU-bound closures and collect
//! their results **in index order** so that downstream selection stays
//! deterministic. [`parallel_indexed_until_bounded`] provides exactly that
//! on `std::thread::scope` (no external dependency): `workers − 1` spawned
//! threads and the calling thread take indices from one atomic counter, so
//! each worker starts the next index as soon as it is free. With a `stop`
//! predicate the results are cut after the smallest index that meets it,
//! and every larger index gets a [`Cancel`] token that says so, letting a
//! closure whose result can no longer be returned end early.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The machine-wide thread budget: `POLYINV_THREADS` when set to a positive
/// integer, otherwise the runtime's available parallelism.
///
/// Every parallel site (pair translation, restart fan-out, chunked
/// evaluation) derives its worker count from this single knob so the layers
/// compose instead of multiplying.
pub fn configured_threads() -> usize {
    match std::env::var("POLYINV_THREADS") {
        Ok(raw) => match raw.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => available_threads(),
        },
        Err(_) => available_threads(),
    }
}

fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(1)
}

/// The cancellation token [`parallel_indexed_until_bounded`] hands to the
/// closure of each index. It is set once a smaller index has met `stop`:
/// from then on the closure's result is cut from the returned list, so the
/// closure may end early and return any value.
#[derive(Debug, Clone, Copy)]
pub struct Cancel<'a> {
    index: usize,
    stopped_at: &'a AtomicUsize,
}

impl Cancel<'_> {
    /// Whether a smaller index has met `stop`.
    pub fn is_set(&self) -> bool {
        self.stopped_at.load(Ordering::Relaxed) < self.index
    }
}

/// Runs `f(0..count)` on worker threads and returns the results in index
/// order.
///
/// # Panics
///
/// Propagates a panic from any worker closure.
pub fn parallel_indexed<R, F>(count: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    parallel_indexed_until(count, f, |_| false)
}

/// Like [`parallel_indexed`], but stops once a result satisfies `stop`: the
/// results come back in index order, cut after the smallest index whose
/// result meets it — exactly the list the sequential "first success wins"
/// loop would produce, on [`configured_threads`] workers.
///
/// # Panics
///
/// Propagates a panic from any worker closure.
pub fn parallel_indexed_until<R, F, S>(count: usize, f: F, stop: S) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    S: Fn(&R) -> bool + Sync,
{
    parallel_indexed_until_bounded(count, configured_threads(), |index, _| f(index), stop)
}

/// The work queue behind [`parallel_indexed_until`], with an explicit cap on
/// concurrent workers — the hook `polyinv_qcqp::ThreadBudget` uses to keep
/// restart-level fan-out from multiplying with intra-iteration workers —
/// and a [`Cancel`] token for each closure.
///
/// `workers − 1` scoped threads are spawned and the calling thread works as
/// the last worker; all of them take indices from one atomic counter, and
/// none takes an index beyond one that has met `stop`. The results are
/// returned in index order, cut after the smallest index whose result meets
/// `stop`. Every returned result ran to completion with its token unset,
/// exactly as in the sequential loop, so the list is the same at any worker
/// count; a closure that ran past the cut (it was started beside the
/// winner) sees its token set and may return early. Nothing is sized by
/// `count`, so a huge count that `stop` cuts short costs only the indices
/// that ran.
///
/// # Panics
///
/// Propagates a panic from any worker closure.
pub fn parallel_indexed_until_bounded<R, F, S>(
    count: usize,
    workers: usize,
    f: F,
    stop: S,
) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Cancel<'_>) -> R + Sync,
    S: Fn(&R) -> bool + Sync,
{
    // The smallest index whose result met `stop` so far (`usize::MAX`:
    // none). Neither atomic publishes data (results travel through the
    // joins), so relaxed accesses suffice: `stopped_at` only decreases, an
    // index below its final value never sees it below itself, and a stale
    // read costs at most a closure that runs longer than it had to.
    let stopped_at = AtomicUsize::new(usize::MAX);
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            if index >= count || index > stopped_at.load(Ordering::Relaxed) {
                return done;
            }
            let cancel = Cancel {
                index,
                stopped_at: &stopped_at,
            };
            let result = f(index, cancel);
            let met = stop(&result);
            if met {
                stopped_at.fetch_min(index, Ordering::Relaxed);
            }
            done.push((index, met, result));
        }
    };
    let workers = workers.clamp(1, count.max(1));
    let mut done = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in handles {
            done.extend(handle.join().expect("worker thread panicked"));
        }
        done
    });
    done.sort_unstable_by_key(|&(index, _, _)| index);
    if let Some(first) = done.iter().position(|&(_, met, _)| met) {
        done.truncate(first + 1);
    }
    done.into_iter().map(|(_, _, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let results = parallel_indexed(37, |i| i * i);
        assert_eq!(results, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn early_exit_skips_later_waves() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let results = parallel_indexed_until(
            100,
            |i| {
                calls.fetch_add(1, Ordering::SeqCst);
                i
            },
            |&i| i == 0,
        );
        // Index 0 satisfies the stop predicate, so the list is cut after it
        // and far fewer than 100 closures run.
        assert!(results.contains(&0));
        assert_eq!(results, vec![0]);
        assert!(calls.load(Ordering::SeqCst) < 100);
    }

    #[test]
    fn zero_and_one_item_shortcuts_work() {
        assert_eq!(parallel_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_indexed(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn a_huge_count_stopped_early_allocates_only_its_waves() {
        // Sizing anything by `count` would abort on allocation here.
        let results = parallel_indexed_until_bounded(usize::MAX, 4, |i, _| i, |&i| i == 1);
        assert_eq!(results, vec![0, 1]);
        let serial = parallel_indexed_until_bounded(usize::MAX, 1, |i, _| i, |&i| i == 2);
        assert_eq!(serial, vec![0, 1, 2]);
    }

    #[test]
    fn bounded_fan_out_respects_an_explicit_worker_cap() {
        let results = parallel_indexed_until_bounded(23, 3, |i, _| i * 2, |_| false);
        assert_eq!(results, (0..23).map(|i| i * 2).collect::<Vec<_>>());
        // A zero cap is clamped to the serial path, not a hang.
        let serial = parallel_indexed_until_bounded(5, 0, |i, _| i, |_| false);
        assert_eq!(serial, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn a_closure_started_beside_the_winner_sees_its_token_and_returns() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        use std::time::{Duration, Instant};
        // Index 1 meets `stop` only once index 2 is running, so index 2
        // starts beside the winner; it returns only through its token (the
        // time guard turns a missing token into a failure, not a hang).
        let both_running = Barrier::new(2);
        let saw_token = AtomicBool::new(false);
        let results = parallel_indexed_until_bounded(
            4,
            3,
            |i, cancel| {
                if i == 1 {
                    both_running.wait();
                } else if i == 2 {
                    assert!(!cancel.is_set());
                    both_running.wait();
                    let guard = Instant::now() + Duration::from_secs(60);
                    while !cancel.is_set() && Instant::now() < guard {
                        std::thread::yield_now();
                    }
                    saw_token.store(cancel.is_set(), Ordering::SeqCst);
                }
                i * 10
            },
            |&result| result == 10,
        );
        assert_eq!(results, vec![0, 10]);
        assert!(saw_token.load(Ordering::SeqCst));
    }

    #[test]
    fn the_returned_list_is_the_same_at_any_worker_count() {
        // Index `i` yields `3i + 1`; `stops` lists the indices whose result
        // meets `stop`. The list is cut after the smallest of them.
        let count = 9;
        let last = count - 1;
        for stops in [vec![], vec![0], vec![1], vec![last], vec![1, 5, last]] {
            let kept = stops.iter().min().map_or(count, |&first| first + 1);
            let expected: Vec<usize> = (0..kept).map(|i| 3 * i + 1).collect();
            for workers in [1, 2, 8] {
                let results = parallel_indexed_until_bounded(
                    count,
                    workers,
                    |i, _| 3 * i + 1,
                    |&result| stops.contains(&((result - 1) / 3)),
                );
                assert_eq!(results, expected, "stops {stops:?} on {workers} workers");
            }
        }
    }

    #[test]
    fn configured_threads_reads_the_env_knob() {
        // Env mutation is process-global: keep every case inside this one
        // test so no parallel test observes a half-set variable.
        let saved = std::env::var("POLYINV_THREADS").ok();
        std::env::set_var("POLYINV_THREADS", "6");
        assert_eq!(configured_threads(), 6);
        std::env::set_var("POLYINV_THREADS", "0");
        assert!(configured_threads() >= 1);
        std::env::set_var("POLYINV_THREADS", "nonsense");
        assert!(configured_threads() >= 1);
        match saved {
            Some(value) => std::env::set_var("POLYINV_THREADS", value),
            None => std::env::remove_var("POLYINV_THREADS"),
        }
    }
}
