//! Solver execution statistics.
//!
//! Every [`SolveOutcome`](crate::SolveOutcome) carries a [`SolverStats`]
//! describing *how* the point was found: iteration and restart counts, the
//! final least-squares residual, the sparsity of the Jacobian and of the
//! factor, and the wall-clock split between numeric factorization and
//! triangular solves. `SynthesisReport`s carry this type as their `solver`
//! block, field for field, and the benchmark snapshots copy it into each
//! row, so the solve-stage cost is visible (and regressable) per row.

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
