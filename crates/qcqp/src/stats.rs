//! Solve outcomes, their statistics, and the one ranking rule both solvers
//! use to pick a winner.
//!
//! Every [`SolveOutcome`] carries a [`SolverStats`] describing *how* the
//! point was found: iteration and restart counts, the final least-squares
//! residual, the sparsity of the Jacobian and of the factor, and the
//! wall-clock split between numeric factorization and triangular solves.
//! `SynthesisReport`s carry this type as their `solver` block, field for
//! field, and the benchmark snapshots copy it into each row, so the
//! solve-stage cost is visible (and regressable) per row.
//!
//! Candidates are ranked by [`outranks`]: a feasible candidate beats an
//! infeasible one, then the smaller violation wins (non-finite violations
//! count as +∞), and on a tie the earlier candidate stays. Both solvers
//! replay their restarts in order under that rule and stop at the first
//! feasible one, and the orchestrator's choice between its two lanes uses
//! it too.

/// Whether a solve attempt reached feasibility.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// The returned point satisfies every constraint within the tolerance.
    Feasible,
    /// The solver stopped with the best point found, which still violates
    /// some constraint by more than the tolerance.
    Infeasible,
}

/// The result of a solve attempt.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// The best assignment found.
    pub assignment: Vec<f64>,
    /// The worst constraint violation at that assignment.
    pub violation: f64,
    /// Feasibility status.
    pub status: SolveStatus,
    /// Execution statistics aggregated over all restarts.
    pub stats: SolverStats,
}

impl SolveOutcome {
    /// The `(feasible, violation)` pair [`outranks`] compares.
    fn rank(&self) -> (bool, f64) {
        (self.status == SolveStatus::Feasible, self.violation)
    }
}

/// A score for best-candidate comparisons: non-finite values (NaN from an
/// overflowing residual) compare as +∞, since every `<` against NaN is false
/// and would freeze the first candidate forever.
pub(crate) fn finite_or_inf(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        f64::INFINITY
    }
}

/// Whether a candidate `(feasible, violation)` outranks the incumbent
/// `(feasible, violation)`: a feasible candidate beats an infeasible one,
/// otherwise the strictly smaller violation wins, non-finite violations
/// counting as +∞. On a tie the incumbent — the earlier candidate — stays.
pub fn outranks(candidate: (bool, f64), incumbent: (bool, f64)) -> bool {
    let (feasible, violation) = candidate;
    let (incumbent_feasible, incumbent_violation) = incumbent;
    (feasible && !incumbent_feasible)
        || (feasible == incumbent_feasible
            && finite_or_inf(violation) < finite_or_inf(incumbent_violation))
}

/// Replays restart outcomes in restart order, as the sequential
/// first-feasible-wins loop would: keeps the candidate [`outranks`] ranks
/// best, adds the counters of every restart it visits to `stats`, and stops
/// at the first feasible one. The work queue of [`crate::par`] already cuts
/// the restarts that ran beside or after it (their tokens stop them early);
/// a replay that neither chooses nor counts past it keeps the result
/// independent of `POLYINV_THREADS` for any list it is given.
///
/// The winner carries `stats`, with its own final residual.
///
/// # Panics
///
/// Panics if `outcomes` is empty.
pub(crate) fn replay_restarts(
    outcomes: impl IntoIterator<Item = SolveOutcome>,
    mut stats: SolverStats,
) -> SolveOutcome {
    let mut best: Option<SolveOutcome> = None;
    for outcome in outcomes {
        stats.absorb_restart(&outcome.stats);
        let feasible = outcome.status == SolveStatus::Feasible;
        let better = match &best {
            None => true,
            Some(current) => outranks(outcome.rank(), current.rank()),
        };
        if better {
            best = Some(outcome);
        }
        if feasible {
            break;
        }
    }
    let mut best = best.expect("at least one restart runs");
    stats.final_residual = best.stats.final_residual;
    best.stats = stats;
    best
}

/// Statistics of one solver run (aggregated over its restarts).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SolverStats {
    /// Total inner iterations across all restarts.
    pub iterations: usize,
    /// Number of restarts actually run (early exit may skip some).
    pub restarts: usize,
    /// Sum-of-squares residual `‖r(x)‖²` at the returned point.
    pub final_residual: f64,
    /// Stored entries of the (sparse) Jacobian pattern — 0 for solvers that
    /// never form one.
    pub nnz_jacobian: usize,
    /// Entries of the LDLᵀ factor `L` (unit diagonal included).
    pub nnz_factor: usize,
    /// Number of numeric factorizations performed.
    pub factorizations: usize,
    /// Wall-clock seconds spent in numeric factorization.
    pub factor_seconds: f64,
    /// Wall-clock seconds spent in triangular solves.
    pub solve_seconds: f64,
    /// Wall-clock seconds spent evaluating residuals and scattering the
    /// normal equations (the chunk-parallel part of an iteration).
    pub eval_seconds: f64,
    /// Worker threads used for residual evaluation / factorization (1 =
    /// fully serial iteration core).
    pub threads: usize,
}

impl SolverStats {
    /// Folds the per-restart counters of `other` into `self` (sparsity
    /// fields describe the shared pattern and are left untouched).
    pub fn absorb_restart(&mut self, other: &SolverStats) {
        self.iterations += other.iterations;
        self.restarts += other.restarts;
        self.factorizations += other.factorizations;
        self.factor_seconds += other.factor_seconds;
        self.solve_seconds += other.solve_seconds;
        self.eval_seconds += other.eval_seconds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_ranking_rule_and_an_in_order_replay() {
        for (candidate, incumbent, wins) in [
            ((true, 1e-8), (false, 1e-9), true), // feasible beats a smaller infeasible
            ((false, 1e-9), (true, 1e-8), false),
            ((false, 0.5), (false, 0.7), true), // then the smaller violation wins
            ((true, 1e-9), (true, 1e-8), true),
            ((false, 0.5), (false, 0.5), false), // an exact tie keeps the earlier
            ((false, f64::NAN), (false, 1e9), false), // NaN counts as +∞
            ((false, 1e9), (false, f64::NAN), true),
            ((false, f64::NAN), (false, f64::INFINITY), false),
        ] {
            assert_eq!(
                outranks(candidate, incumbent),
                wins,
                "{candidate:?} {incumbent:?}"
            );
        }

        // Restart `k` is `(feasible, violation)` with `k + 1` iterations;
        // `None` is one skipped for the deadline, which ends ALM's replay
        // through `map_while`. Expected: the winner's index and the
        // restarts and iterations counted.
        for (restarts, winner, counted, iterations) in [
            (vec![Some((false, 0.3)), Some((false, 0.3))], 0, 2, 3), // a tie keeps the earlier
            (vec![Some((false, f64::NAN)), Some((false, 2.0))], 1, 2, 3), // NaN never stays ahead
            // The first feasible restart ends the replay: the better third
            // one is neither chosen nor counted.
            (
                vec![Some((false, 0.3)), Some((true, 1e-8)), Some((true, 0.0))],
                1,
                2,
                3,
            ),
            (vec![Some((false, 0.9)), None, Some((true, 0.0))], 0, 1, 1),
        ] {
            let outcomes = restarts.into_iter().enumerate().map(|(k, restart)| {
                restart.map(|(feasible, violation)| SolveOutcome {
                    assignment: vec![k as f64],
                    violation,
                    status: if feasible {
                        SolveStatus::Feasible
                    } else {
                        SolveStatus::Infeasible
                    },
                    stats: SolverStats {
                        iterations: k + 1,
                        restarts: 1,
                        final_residual: k as f64,
                        ..SolverStats::default()
                    },
                })
            });
            let stats = SolverStats {
                threads: 2,
                ..SolverStats::default()
            };
            let best = replay_restarts(outcomes.map_while(|outcome| outcome), stats);
            let expected = (vec![winner as f64], winner as f64, counted, iterations, 2);
            let stats = &best.stats;
            let got = (
                best.assignment.clone(),
                stats.final_residual,
                stats.restarts,
                stats.iterations,
                stats.threads,
            );
            assert_eq!(got, expected);
        }
    }
}
