//! The solvers' split of the thread budget, over the work queue of
//! [`polyinv_arith::par`].
//!
//! The queue itself (`configured_threads`, [`Cancel`],
//! `parallel_indexed*`) lives in `polyinv-arith` so that constraint
//! generation can reach it too; it is re-exported here, so
//! `polyinv_qcqp::par::*` names every piece. What stays here is
//! solver-specific: [`PAR_ROW_THRESHOLD`] and the [`ThreadBudget`] arbiter
//! between restart-level and intra-iteration parallelism.

pub use polyinv_arith::par::{
    configured_threads, parallel_indexed, parallel_indexed_until, parallel_indexed_until_bounded,
    Cancel,
};

/// Residual-row count from which a single solve is large enough that the
/// thread budget is better spent *inside* one iteration (chunked residual
/// evaluation) than across restarts. The LM evaluator's switch from the
/// plain serial pass to the chunked one depends **only** on this row
/// count — never on the thread budget — so a given problem always takes the
/// same numerical path regardless of `POLYINV_THREADS`.
pub const PAR_ROW_THRESHOLD: usize = 2048;

/// How a solve splits the global thread budget between restart-level and
/// intra-iteration parallelism.
///
/// The two axes multiply (`restarts × eval workers` live threads), so the
/// arbiter always gives the whole budget to exactly one axis: big systems
/// (≥ [`PAR_ROW_THRESHOLD`] residual rows) run restarts sequentially and
/// spend every thread on the work queue of one iteration's evaluation
/// chunks; small systems run restarts on the work queue, each iteration
/// serially.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadBudget {
    /// Workers of the restart queue (1 = sequential restarts).
    pub restart_threads: usize,
    /// Workers of the queue over one iteration's residual and `JᵀJ`
    /// evaluation chunks (1 = serial evaluation). The numeric factorization
    /// and the triangular solves are serial at any budget.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
