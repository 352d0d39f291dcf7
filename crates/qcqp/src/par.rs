//! Tiny scoped-thread fan-out used by the multi-start machinery.
//!
//! The solvers and the synthesis pipeline repeatedly need the same shape of
//! parallelism: run `count` independent, CPU-bound closures and collect
//! their results **in index order** so that downstream selection stays
//! deterministic. This helper provides exactly that on `std::thread::scope`
//! (no external dependency), bounding live threads by the machine's
//! available parallelism.

/// Residual-row count above which a single solve is large enough that the
/// thread budget is better spent *inside* one iteration (chunked residual
/// evaluation) than across restarts.
pub const PAR_ROW_THRESHOLD: usize = 2048;

/// The machine-wide thread budget: `POLYINV_THREADS` when set to a positive
/// integer, otherwise the runtime's available parallelism.
///
/// Every parallel site in the solver (restart fan-out, chunked evaluation)
/// derives its worker count from this single knob so the layers compose
/// instead of multiplying.
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

/// How a solve splits the global thread budget between restart-level and
/// intra-iteration parallelism.
///
/// The two axes multiply (`restarts × eval workers` live threads), so the
/// arbiter always gives the whole budget to exactly one axis: big systems
/// (≥ [`PAR_ROW_THRESHOLD`] residual rows) run restarts sequentially and
/// spend every thread inside the iteration; small systems keep PR 1's
/// restart fan-out and run each iteration serially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadBudget {
    /// Concurrent restarts (1 = sequential restarts).
    pub restart_threads: usize,
    /// Worker threads per iteration for residual evaluation and numeric
    /// factorization (1 = serial iteration core).
    pub eval_threads: usize,
}

impl ThreadBudget {
    /// Splits the global budget ([`configured_threads`]) for a problem with
    /// `rows` residual rows.
    pub fn for_rows(rows: usize) -> Self {
        Self::split(configured_threads(), rows)
    }

    /// Splits an explicit `budget` for a problem with `rows` residual rows.
    pub fn split(budget: usize, rows: usize) -> Self {
        let budget = budget.max(1);
        if rows >= PAR_ROW_THRESHOLD {
            ThreadBudget {
                restart_threads: 1,
                eval_threads: budget,
            }
        } else {
            ThreadBudget {
                restart_threads: budget,
                eval_threads: 1,
            }
        }
    }
}

/// Runs `f(0..count)` on worker threads and returns the results in index
/// order. Falls back to a plain loop when `count <= 1`.
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

/// Like [`parallel_indexed`], but stops scheduling further work once any
/// completed result satisfies `stop` (results computed so far are still
/// returned, in index order, possibly fewer than `count`).
///
/// This restores the sequential "first success wins" economy of multi-start
/// loops: a wave of up to `available_parallelism` closures runs at a time,
/// and later waves are skipped when an earlier one already produced a
/// satisfying result.
///
/// # Panics
///
/// Propagates a panic from any worker closure.
pub fn parallel_indexed_until<R, F, S>(count: usize, f: F, stop: S) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    S: Fn(&R) -> bool,
{
    parallel_indexed_until_bounded(count, configured_threads(), f, stop)
}

/// Like [`parallel_indexed_until`], but with an explicit cap on concurrent
/// workers — the hook the [`ThreadBudget`] arbiter uses to keep restart-level
/// fan-out from multiplying with intra-iteration workers.
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
    F: Fn(usize) -> R + Sync,
    S: Fn(&R) -> bool,
{
    let workers = workers.max(1);
    if count <= 1 || workers == 1 {
        let mut results = Vec::with_capacity(count);
        for index in 0..count {
            let result = f(index);
            let done = stop(&result);
            results.push(result);
            if done {
                break;
            }
        }
        return results;
    }
    std::thread::scope(|scope| {
        let mut results: Vec<R> = Vec::with_capacity(count);
        let indices: Vec<usize> = (0..count).collect();
        for chunk in indices.chunks(workers) {
            let handles: Vec<_> = chunk
                .iter()
                .map(|&index| {
                    scope.spawn({
                        let f = &f;
                        move || f(index)
                    })
                })
                .collect();
            for handle in handles {
                results.push(handle.join().expect("worker thread panicked"));
            }
            if results.iter().any(&stop) {
                break;
            }
        }
        results
    })
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
        // The first wave contains index 0, which satisfies the stop
        // predicate, so far fewer than 100 closures run.
        assert!(results.contains(&0));
        assert!(calls.load(Ordering::SeqCst) < 100);
    }

    #[test]
    fn zero_and_one_item_shortcuts_work() {
        assert_eq!(parallel_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_indexed(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn bounded_fan_out_respects_an_explicit_worker_cap() {
        let results = parallel_indexed_until_bounded(23, 3, |i| i * 2, |_| false);
        assert_eq!(results, (0..23).map(|i| i * 2).collect::<Vec<_>>());
        // A zero cap is clamped to the serial path, not a hang.
        let serial = parallel_indexed_until_bounded(5, 0, |i| i, |_| false);
        assert_eq!(serial, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn the_arbiter_gives_the_budget_to_exactly_one_axis() {
        let big = ThreadBudget::split(8, PAR_ROW_THRESHOLD);
        assert_eq!(
            big,
            ThreadBudget {
                restart_threads: 1,
                eval_threads: 8
            }
        );
        let small = ThreadBudget::split(8, PAR_ROW_THRESHOLD - 1);
        assert_eq!(
            small,
            ThreadBudget {
                restart_threads: 8,
                eval_threads: 1
            }
        );
        // A degenerate budget still yields at least one worker per axis.
        let one = ThreadBudget::split(0, 10);
        assert_eq!(one.restart_threads, 1);
        assert_eq!(one.eval_threads, 1);
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
