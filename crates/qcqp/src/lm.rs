//! A projected Levenberg–Marquardt solver for quadratic constraint systems.
//!
//! The quadratic systems produced by the paper's Cholesky encoding have a
//! convenient shape: all hard constraints are quadratic *equalities*, and the
//! only inequalities are simple lower bounds on individual variables
//! (diagonal Cholesky entries and positivity witnesses). Finding a feasible
//! point is therefore a nonlinear least-squares problem
//! `min ‖r(x)‖²` (with `r` the vector of equality residuals and inequality
//! hinges) over a box — exactly the setting in which Levenberg–Marquardt
//! with projection onto the box excels.
//!
//! The systems are also >99% sparse (each residual touches a handful of the
//! thousands of unknowns), so the whole inner loop runs on the sparse
//! substrate of `polyinv-arith`: the normal matrix `JᵀJ` is accumulated
//! directly from sparse Jacobian rows into a fixed [`JtjPattern`] (no dense
//! `m×n` Jacobian, no dense transpose, no dense product is ever formed), and
//! the damped system is solved by a sparse LDLᵀ whose fill-reducing ordering
//! and symbolic analysis are computed **once per problem** and shared by all
//! restarts — only the numeric factorization runs per iteration. Solver
//! memory is `O(nnz)` instead of the former `O(m·n)`.

use std::time::Instant;

use polyinv_arith::sparse::{JtjPattern, JtjScratch, SymbolicLdl};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::par::PAR_ROW_THRESHOLD;
use crate::problem::{Problem, ProblemStructure, QuadraticForm, BOUND};
use crate::stats::{finite_or_inf, replay_restarts, SolveOutcome, SolveStatus, SolverStats};

/// Feasibility tolerance declaring an LM solve successful: the maximum
/// constraint violation of a feasible point.
pub const LM_TOLERANCE: f64 = 1e-7;

/// Configuration of the Levenberg–Marquardt solver.
#[derive(Debug, Clone)]
pub struct LmOptions {
    /// Maximum number of LM iterations per restart.
    pub max_iterations: usize,
    /// Number of random restarts.
    pub restarts: usize,
    /// Random seed.
    pub seed: u64,
    /// Weight given to the objective (if any) relative to the constraint
    /// residuals; the objective is treated as a soft residual
    /// `objective_weight · objective(x)` so that among near-feasible points
    /// lower objectives are preferred.
    pub objective_weight: f64,
    /// Whether the restarts may run on the work queue's worker threads.
    /// Callers that already run *inside* a parallel region (the certificate
    /// checker's per-pair fan-out, strong synthesis' per-attempt fan-out)
    /// set this to `false` to avoid oversubscribing the CPU with a queue
    /// inside a queue.
    pub parallel_restarts: bool,
    /// Number of consecutive iterations without a meaningful improvement of
    /// the best violation (relative decrease below 0.1%) after which a
    /// restart bails out with its best-so-far point. `0` disables stall
    /// detection. Only the default is used in production, but the deadline
    /// tests switch detection off to build solves that run to their cap.
    pub stall_iterations: usize,
    /// Wall-clock budget in seconds for the whole solve, shared across all
    /// restarts; any restart past the deadline stops at the next iteration
    /// boundary and returns its best-so-far point. `0` disables the
    /// deadline.
    pub max_seconds: f64,
}

impl Default for LmOptions {
    fn default() -> Self {
        LmOptions {
            max_iterations: 250,
            restarts: 3,
            seed: 0x1a2b3c,
            objective_weight: 0.0,
            parallel_restarts: true,
            stall_iterations: 40,
            max_seconds: 0.0,
        }
    }
}

/// Initial damping factor λ.
const INITIAL_LAMBDA: f64 = 1e-3;
/// Factor by which λ grows after a rejected step.
const LAMBDA_UP: f64 = 7.0;
/// Factor by which λ shrinks after an accepted step.
const LAMBDA_DOWN: f64 = 0.35;
/// Half-width of the box `[-s, s]` that random restarts start from.
const INIT_SCALE: f64 = 0.3;

/// Relative violation decrease below which an iteration counts as stalled:
/// the kind of 1e-6-per-iteration trickle that burned minutes on a single
/// ϒ rung without ever reaching feasibility.
const STALL_RELATIVE_IMPROVEMENT: f64 = 1e-3;

/// The per-problem sparse workspace: the symbolic side of the solve,
/// computed once and shared (immutably) by every restart. The Jacobian's
/// sparsity pattern is fixed by the [`Problem`], so the `JᵀJ` pattern, the
/// fill-reducing ordering and the symbolic factorization never change —
/// only values do.
///
/// [`LmSolver::solve`] builds one per call; callers that solve a sequence
/// of structurally identical problems (the orchestrator's polish rounds
/// within one rung) build it once with [`LmWorkspace::build`], check
/// [`matches`](LmWorkspace::matches), and pass it to
/// [`LmSolver::solve_with_workspace`] to skip the symbolic analysis.
#[derive(Debug)]
pub struct LmWorkspace {
    /// The problem's sparsity metadata, analyzed once by [`Self::build`].
    structure: ProblemStructure,
    /// Symbolic `JᵀJ`: pattern plus per-row scatter positions.
    pattern: JtjPattern,
    /// Symbolic LDLᵀ of the (damped) normal matrix.
    symbolic: SymbolicLdl,
    /// Whether the objective contributes a soft residual row.
    objective_row: bool,
}

impl LmWorkspace {
    /// Runs the symbolic analysis for `problem`: `JᵀJ` pattern (chunked
    /// when the evaluation will be), ordering, elimination tree.
    pub fn build(problem: &Problem, objective_weight: f64) -> Self {
        let structure = ProblemStructure::analyze(problem);
        let objective_row = problem.objective.is_some() && objective_weight > 0.0;
        let rows = row_patterns(&structure, objective_row);
        let pattern = if rows.len() >= PAR_ROW_THRESHOLD {
            let chunks = chunk_ranges(rows.len());
            JtjPattern::chunked(problem.num_vars, rows, chunks)
        } else {
            JtjPattern::new(problem.num_vars, rows)
        };
        let (row_ptr, col_idx) = pattern.pattern();
        let symbolic = SymbolicLdl::analyze(problem.num_vars, row_ptr, col_idx);
        LmWorkspace {
            structure,
            pattern,
            symbolic,
            objective_row,
        }
    }

    /// Whether this workspace was built for a problem with exactly the same
    /// sparsity structure (and objective-row decision) as `problem` — the
    /// reuse precondition of [`LmSolver::solve_with_workspace`]. Compares
    /// the row patterns with the problem's forms row by row and returns at
    /// the first mismatch, so a miss costs no full analysis.
    pub fn matches(&self, problem: &Problem, objective_weight: f64) -> bool {
        let objective_row = problem.objective.is_some() && objective_weight > 0.0;
        let same_rows = |patterns: &[Vec<usize>], forms: &[QuadraticForm]| {
            patterns.len() == forms.len()
                && patterns
                    .iter()
                    .zip(forms)
                    .all(|(pattern, form)| *pattern == form.touched_vars())
        };
        self.objective_row == objective_row
            && self.pattern.dimension() == problem.num_vars
            && same_rows(&self.structure.equality_vars, &problem.equalities)
            && same_rows(&self.structure.inequality_vars, &problem.inequalities)
            && (!objective_row
                || problem.objective.as_ref().is_some_and(|objective| {
                    self.structure.objective_vars == objective.touched_vars()
                }))
    }

    /// The symbolic `JᵀJ` pattern.
    pub fn pattern(&self) -> &JtjPattern {
        &self.pattern
    }

    /// The symbolic LDLᵀ analysis.
    pub fn symbolic(&self) -> &SymbolicLdl {
        &self.symbolic
    }

    /// The sparsity statistics of this workspace.
    fn stats_skeleton(&self) -> SolverStats {
        SolverStats {
            nnz_jacobian: self.pattern.jacobian_nnz(),
            nnz_factor: self.symbolic.nnz_factor(),
            ..SolverStats::default()
        }
    }
}

/// The variable patterns of the Jacobian rows: equalities, then
/// inequalities, then the soft objective row when it is present.
fn row_patterns(structure: &ProblemStructure, objective_row: bool) -> Vec<Vec<usize>> {
    let mut rows: Vec<Vec<usize>> =
        Vec::with_capacity(structure.equality_vars.len() + structure.inequality_vars.len() + 1);
    rows.extend(structure.equality_vars.iter().cloned());
    rows.extend(structure.inequality_vars.iter().cloned());
    if objective_row {
        rows.push(structure.objective_vars.clone());
    }
    rows
}

/// The projected Levenberg–Marquardt solver.
#[derive(Debug, Clone, Default)]
pub struct LmSolver {
    options: LmOptions,
}

impl LmSolver {
    /// Creates a solver with the given options.
    pub fn new(options: LmOptions) -> Self {
        LmSolver { options }
    }

    /// Solves the problem, optionally starting from a warm-start point.
    ///
    /// The multi-start restarts are independent (restart `k` seeds its own
    /// generator with `seed + k`) and run **in parallel** on the work queue
    /// of [`crate::par`]; a restart started beside an earlier feasible one
    /// stops at its next iteration boundary. The winner is chosen by
    /// replaying the restarts in restart order under the ranking rule of
    /// [`crate::stats`], so the result is identical to the sequential
    /// first-feasible-wins policy. The sparse workspace (pattern,
    /// ordering, symbolic factorization) is computed once here and shared by
    /// all restarts.
    pub fn solve(&self, problem: &Problem, warm_start: Option<&[f64]>) -> SolveOutcome {
        let workspace = LmWorkspace::build(problem, self.options.objective_weight);
        self.solve_with_workspace(problem, &workspace, warm_start)
    }

    /// Like [`solve`](Self::solve), but reusing a prebuilt symbolic
    /// workspace. The caller must ensure
    /// [`workspace.matches(problem, …)`](LmWorkspace::matches): the
    /// orchestrator uses this to hoist the `JᵀJ` pattern and LDLᵀ analysis
    /// out of repeated solves over structurally identical systems.
    pub fn solve_with_workspace(
        &self,
        problem: &Problem,
        workspace: &LmWorkspace,
        warm_start: Option<&[f64]>,
    ) -> SolveOutcome {
        debug_assert!(
            workspace.matches(problem, self.options.objective_weight),
            "workspace reused across structurally different problems"
        );
        // The thread-budget arbiter: restart-level and intra-iteration
        // parallelism multiply, so the global budget goes to exactly one
        // axis — inside the iteration for big systems, across restarts for
        // small ones.
        let rows = problem.equalities.len() + problem.inequalities.len();
        let budget = crate::par::ThreadBudget::for_rows(rows);
        self.solve_on(problem, workspace, warm_start, budget)
    }

    /// [`solve_with_workspace`](Self::solve_with_workspace) under the given
    /// thread budget. The evaluation worker count never changes *what* is
    /// computed — chunk boundaries and merge order are functions of the row
    /// count alone — so outputs are byte-identical at any budget.
    fn solve_on(
        &self,
        problem: &Problem,
        workspace: &LmWorkspace,
        warm_start: Option<&[f64]>,
        budget: crate::par::ThreadBudget,
    ) -> SolveOutcome {
        let restarts = self.options.restarts.max(1);
        let eval_threads = budget.eval_threads;
        let restart_workers = if self.options.parallel_restarts {
            budget.restart_threads
        } else {
            1
        };
        // The wall-clock budget covers the whole solve: every restart —
        // parallel or sequential — checks its deadline against this one
        // start instant, so serial fallback cannot multiply the budget by
        // the restart count. A restart also stops once an earlier one is
        // feasible: the queue's token says its outcome can no longer be
        // chosen. `restart_workers == 1` degrades to the classic sequential
        // first-feasible-wins loop.
        let started = Instant::now();
        let max_seconds = self.options.max_seconds;
        let outcomes = crate::par::parallel_indexed_until_bounded(
            restarts,
            restart_workers,
            |restart, cancel| {
                let halt = || {
                    cancel.is_set()
                        || (max_seconds > 0.0 && started.elapsed().as_secs_f64() >= max_seconds)
                };
                self.run_restart(problem, workspace, warm_start, restart, &halt, eval_threads)
            },
            |outcome| outcome.status == SolveStatus::Feasible,
        );
        let stats = SolverStats {
            threads: eval_threads.max(restart_workers.min(restarts)).max(1),
            ..workspace.stats_skeleton()
        };
        replay_restarts(outcomes, stats)
    }

    /// Runs one independent restart: restart 0 consumes the warm start, all
    /// others draw a fresh random initialization from their own generator.
    /// The restart ends at the first iteration boundary where `halt()`
    /// holds (the solve's deadline, or the queue's cancellation token).
    fn run_restart(
        &self,
        problem: &Problem,
        workspace: &LmWorkspace,
        warm_start: Option<&[f64]>,
        restart: usize,
        halt: &(dyn Fn() -> bool + Sync),
        eval_threads: usize,
    ) -> SolveOutcome {
        let mut rng = StdRng::seed_from_u64(self.options.seed.wrapping_add(restart as u64));
        let mut x: Vec<f64> = match (restart, warm_start) {
            (0, Some(start)) if start.len() == problem.num_vars => start.to_vec(),
            _ => (0..problem.num_vars)
                .map(|_| rng.random_range(-INIT_SCALE..INIT_SCALE))
                .collect(),
        };
        problem.clamp(&mut x);
        self.solve_from(problem, workspace, &mut x, halt, eval_threads)
    }

    fn solve_from(
        &self,
        problem: &Problem,
        ws: &LmWorkspace,
        x: &mut Vec<f64>,
        halt: &(dyn Fn() -> bool + Sync),
        eval_threads: usize,
    ) -> SolveOutcome {
        let opts = &self.options;
        let n = problem.num_vars;
        let mut lambda = INITIAL_LAMBDA;
        let mut stats = SolverStats {
            restarts: 1,
            ..SolverStats::default()
        };

        let objective_at = |point: &[f64]| {
            problem
                .objective
                .as_ref()
                .map(|o| o.eval(point))
                .unwrap_or(0.0)
        };
        let minimizing = problem.objective.is_some() && opts.objective_weight > 0.0;

        // Per-restart numeric buffers; the symbolic side lives in `ws`.
        let mut eval = Evaluator::new(problem, ws, opts.objective_weight, eval_threads);
        let mut numeric = ws.symbolic.numeric();
        let mut step = vec![0.0; n];
        let mut diag_add = vec![0.0; n];
        let mut candidate = vec![0.0; n];

        let mut best_x = x.clone();
        let mut best_violation = {
            let eval_start = Instant::now();
            let (_, constraint_violation) = eval.residuals_only(x);
            stats.eval_seconds += eval_start.elapsed().as_secs_f64();
            finite_or_inf(full_violation(problem, x, constraint_violation))
        };
        let mut best_objective = finite_or_inf(objective_at(x));

        let mut stalled = 0usize;
        for _ in 0..opts.max_iterations {
            if halt() {
                break;
            }
            stats.iterations += 1;
            // One pass evaluates the residuals and scatters the sparse
            // Jacobian rows straight into `JᵀJ` and `Jᵀr`.
            let eval_start = Instant::now();
            let (cost, constraint_violation) = eval.residuals_and_normal(x);
            stats.eval_seconds += eval_start.elapsed().as_secs_f64();
            let mut current_violation = full_violation(problem, x, constraint_violation);
            if !minimizing && current_violation <= LM_TOLERANCE {
                best_x = x.clone();
                best_violation = current_violation;
                break;
            }
            if eval.rows == 0 {
                break;
            }

            // Try steps with increasing damping until one reduces the cost.
            let mut accepted = false;
            for _ in 0..8 {
                let diag = ws.pattern.diag_positions();
                for i in 0..n {
                    diag_add[i] = lambda * (1.0 + eval.jtj_values[diag[i]]);
                }
                stats.factorizations += 1;
                let factor_start = Instant::now();
                let factored = ws
                    .symbolic
                    .factor(&eval.jtj_values, &diag_add, &mut numeric);
                stats.factor_seconds += factor_start.elapsed().as_secs_f64();
                if !factored {
                    lambda *= LAMBDA_UP;
                    continue;
                }
                step.copy_from_slice(&eval.jtr);
                let solve_start = Instant::now();
                ws.symbolic.solve(&mut numeric, &mut step);
                stats.solve_seconds += solve_start.elapsed().as_secs_f64();

                candidate.copy_from_slice(x);
                for i in 0..n {
                    candidate[i] -= step[i];
                }
                problem.clamp(&mut candidate);
                // Residuals-only evaluation: the Jacobian is not needed to
                // score a candidate, and its constraint violation falls out
                // of the same pass (no separate `max_violation` sweep).
                let eval_start = Instant::now();
                let (candidate_cost, candidate_constraint_violation) =
                    eval.residuals_only(&candidate);
                stats.eval_seconds += eval_start.elapsed().as_secs_f64();
                // Skip non-finite candidate costs outright: accepting a
                // NaN/inf point would derail every later comparison.
                if candidate_cost.is_finite() && candidate_cost < cost {
                    std::mem::swap(x, &mut candidate);
                    current_violation = full_violation(problem, x, candidate_constraint_violation);
                    lambda = (lambda * LAMBDA_DOWN).max(1e-12);
                    accepted = true;
                    break;
                }
                lambda *= LAMBDA_UP;
            }
            let violation = finite_or_inf(current_violation);
            let objective = finite_or_inf(objective_at(x));
            let better = if violation <= LM_TOLERANCE && best_violation <= LM_TOLERANCE {
                objective < best_objective
            } else {
                violation < best_violation
            };
            // Stall detection: an iteration makes progress only when it
            // shaves a meaningful relative slice off the best violation (or,
            // in minimizing mode, improves the objective among feasible
            // points). Accepted steps whose cost decreases while the
            // violation flatlines used to spin for the full iteration
            // budget.
            let progressed = violation < best_violation * (1.0 - STALL_RELATIVE_IMPROVEMENT)
                || (minimizing
                    && violation <= LM_TOLERANCE
                    && best_violation <= LM_TOLERANCE
                    && objective < best_objective);
            if better {
                best_violation = violation;
                best_objective = objective;
                best_x = x.clone();
            }
            if progressed {
                stalled = 0;
            } else {
                stalled += 1;
            }
            if !accepted {
                break;
            }
            if opts.stall_iterations > 0 && stalled >= opts.stall_iterations {
                break;
            }
        }

        stats.final_residual = eval.residuals_only(&best_x).0;
        let violation = best_violation;
        SolveOutcome {
            assignment: best_x,
            violation,
            status: if violation <= LM_TOLERANCE {
                SolveStatus::Feasible
            } else {
                SolveStatus::Infeasible
            },
            stats,
        }
    }
}

/// The worst violation over the constraints and the box bound, given the
/// worst equality/inequality violation already measured by a residual pass.
/// Matches [`Problem::max_violation`] without re-evaluating every form,
/// NaN counting as +∞ there too.
fn full_violation(problem: &Problem, x: &[f64], constraint_violation: f64) -> f64 {
    if constraint_violation.is_nan() {
        return f64::INFINITY;
    }
    let mut worst = constraint_violation.max(0.0);
    for &value in &x[..problem.num_vars] {
        if value.is_nan() {
            return f64::INFINITY;
        }
        worst = worst.max(-BOUND - value).max(value - BOUND);
    }
    worst
}

/// Folds one row's violation into the running worst. A NaN row counts as
/// +∞: `f64::max` would drop it and let the point pass as feasible.
fn worse_violation(worst: f64, violation: f64) -> f64 {
    if violation.is_nan() {
        f64::INFINITY
    } else {
        worst.max(violation)
    }
}

/// Fixed number of chunks in the chunked evaluation. Chunk boundaries and
/// the merge order are functions of this constant and the row count alone,
/// which is what keeps the accumulated sums byte-identical across worker
/// counts.
const EVAL_CHUNKS: usize = 16;

/// The [`EVAL_CHUNKS`] fixed row ranges of a chunked evaluation over `rows`
/// residual rows (trailing ranges may be empty).
fn chunk_ranges(rows: usize) -> Vec<std::ops::Range<usize>> {
    let size = rows.div_ceil(EVAL_CHUNKS);
    (0..EVAL_CHUNKS)
        .map(|c| (c * size).min(rows)..((c + 1) * size).min(rows))
        .collect()
}

/// The scatter scratch of one accumulation pass over a row range.
struct RowScratch {
    /// Dense gradient scatter buffer (only touched entries are written and
    /// cleared).
    grad: Vec<f64>,
    /// The current row's sparse gradient entries.
    entries: Vec<(usize, f64)>,
    jtj: JtjScratch,
}

impl RowScratch {
    fn new(num_vars: usize) -> Self {
        RowScratch {
            grad: vec![0.0; num_vars],
            entries: Vec::new(),
            jtj: JtjScratch::default(),
        }
    }
}

/// One chunk's private accumulation: merged into the shared buffers in
/// chunk-index order after every pass (and cleared by the merge). `jtj`
/// holds only the entries the chunk's rows touch, in the chunk-local
/// numbering of its [`JtjChunk`](polyinv_arith::JtjChunk). The chunk owns
/// its scratch, so whichever worker takes it allocates nothing.
struct ChunkBuf {
    jtj: Vec<f64>,
    jtr: Vec<f64>,
    cost: f64,
    violation: f64,
    scratch: RowScratch,
}

/// Per-restart residual/Jacobian evaluator: owns the numeric buffers and
/// scatters sparse gradient rows directly into the `JᵀJ` values and `Jᵀr`.
///
/// Systems with at least [`PAR_ROW_THRESHOLD`] residual rows are
/// evaluated in the [`EVAL_CHUNKS`] fixed row ranges of the workspace's
/// chunked pattern, which the work queue of [`crate::par`] hands to its
/// workers (the calling thread among them). Each chunk
/// accumulates into a private buffer sized to the `JᵀJ` entries its rows
/// touch (about 7% of the pattern on the chunked ϒ = 2 Table 2 systems), and the
/// buffers are merged in chunk-index order, so the result does not depend
/// on the worker count (including 1) and equals, bit for bit, a merge of
/// full-size buffers (see [`JtjChunk::merge_into`](polyinv_arith::JtjChunk::merge_into)).
/// Smaller systems keep the original serial pass untouched.
pub struct Evaluator<'a> {
    problem: &'a Problem,
    ws: &'a LmWorkspace,
    objective_weight: f64,
    /// Number of Jacobian rows (equalities + inequalities + soft objective).
    rows: usize,
    /// Workers of the chunked pass's queue (1 = fill chunks sequentially
    /// on the calling thread).
    eval_threads: usize,
    /// Per-chunk private accumulation buffers, one per chunk of
    /// `ws.pattern`; empty = serial mode. The mutexes are uncontended (each
    /// chunk is claimed by exactly one worker per pass); they exist to hand
    /// distinct `Vec` elements to distinct threads safely.
    chunk_bufs: Vec<std::sync::Mutex<ChunkBuf>>,
    /// Accumulated lower-triangle `JᵀJ` values (layout: `ws.pattern`).
    jtj_values: Vec<f64>,
    /// Accumulated `Jᵀr`.
    jtr: Vec<f64>,
    /// The serial pass's scratch (unused in chunked mode).
    scratch: RowScratch,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator. `eval_threads` caps the workers of the chunked
    /// pass; it has no influence on *what* is computed.
    pub fn new(
        problem: &'a Problem,
        ws: &'a LmWorkspace,
        objective_weight: f64,
        eval_threads: usize,
    ) -> Self {
        let rows =
            problem.equalities.len() + problem.inequalities.len() + usize::from(ws.objective_row);
        let chunk_bufs = ws
            .pattern
            .chunks()
            .iter()
            .map(|chunk| {
                std::sync::Mutex::new(ChunkBuf {
                    jtj: chunk.values_buffer(),
                    jtr: vec![0.0; problem.num_vars],
                    cost: 0.0,
                    violation: 0.0,
                    scratch: RowScratch::new(problem.num_vars),
                })
            })
            .collect();
        Evaluator {
            problem,
            ws,
            objective_weight,
            rows,
            eval_threads: eval_threads.max(1),
            chunk_bufs,
            jtj_values: ws.pattern.values_buffer(),
            jtr: vec![0.0; problem.num_vars],
            scratch: RowScratch::new(problem.num_vars),
        }
    }

    /// The accumulated lower-triangle `JᵀJ` values of the last
    /// [`residuals_and_normal`](Self::residuals_and_normal) pass.
    pub fn jtj_values(&self) -> &[f64] {
        &self.jtj_values
    }

    /// The accumulated `Jᵀr` of the last pass.
    pub fn jtr(&self) -> &[f64] {
        &self.jtr
    }

    /// Evaluates the residual vector at `x` while accumulating `JᵀJ` and
    /// `Jᵀr` from the sparse rows. Returns the sum-of-squares cost and the
    /// worst equality/inequality violation (a by-product of the same pass).
    pub fn residuals_and_normal(&mut self, x: &[f64]) -> (f64, f64) {
        self.jtj_values.fill(0.0);
        self.jtr.fill(0.0);
        // Borrowed through the workspace reference, not `self`, which stays
        // free for the scatter calls.
        let ws = self.ws;
        let structure = &ws.structure;
        let pattern = &ws.pattern;
        let chunks = pattern.chunks();
        if chunks.is_empty() {
            return accumulate_rows(
                self.problem,
                structure,
                pattern,
                self.objective_weight,
                0..self.rows,
                x,
                &mut self.jtj_values,
                &mut self.jtr,
                &mut self.scratch,
            );
        }
        let (problem, objective_weight) = (self.problem, self.objective_weight);
        let chunk_bufs = &self.chunk_bufs;
        crate::par::parallel_indexed_until_bounded(
            chunks.len(),
            self.eval_threads,
            |c, _| {
                let mut buf = chunk_bufs[c].lock().expect("chunk mutex poisoned");
                let buf = &mut *buf;
                (buf.cost, buf.violation) = accumulate_rows(
                    problem,
                    structure,
                    pattern,
                    objective_weight,
                    chunks[c].rows(),
                    x,
                    &mut buf.jtj,
                    &mut buf.jtr,
                    &mut buf.scratch,
                );
            },
            |_| false,
        );
        // Deterministic reduction: merge in chunk-index order, clearing each
        // partial for the next pass (cheaper than a separate zeroing sweep,
        // and the cleared buffer is what the next iteration expects). Each
        // chunk adds only the entries its rows touch.
        let mut cost = 0.0;
        let mut violation = 0.0f64;
        for (chunk, slot) in chunks.iter().zip(&mut self.chunk_bufs) {
            let buf = slot.get_mut().expect("chunk mutex poisoned");
            chunk.merge_into(&mut self.jtj_values, &mut buf.jtj);
            for (t, p) in self.jtr.iter_mut().zip(buf.jtr.iter_mut()) {
                *t += *p;
                *p = 0.0;
            }
            cost += buf.cost;
            violation = violation.max(buf.violation);
        }
        (cost, violation)
    }

    /// Evaluates only the residuals at `x` (no Jacobian work): the
    /// sum-of-squares cost plus the worst equality/inequality violation.
    /// Used to score step candidates, where the former implementation
    /// computed and discarded full Jacobian rows.
    pub fn residuals_only(&self, x: &[f64]) -> (f64, f64) {
        let chunks = self.ws.pattern.chunks();
        if chunks.is_empty() {
            return residual_rows(
                self.problem,
                self.ws,
                self.objective_weight,
                0..self.rows,
                x,
            );
        }
        let per_chunk = crate::par::parallel_indexed_until_bounded(
            chunks.len(),
            self.eval_threads,
            |c, _| {
                residual_rows(
                    self.problem,
                    self.ws,
                    self.objective_weight,
                    chunks[c].rows(),
                    x,
                )
            },
            |_| false,
        );
        // Fold in chunk-index order: same sum sequence for any worker count.
        let mut cost = 0.0;
        let mut violation = 0.0f64;
        for (chunk_cost, chunk_violation) in per_chunk {
            cost += chunk_cost;
            violation = violation.max(chunk_violation);
        }
        (cost, violation)
    }
}

/// Collects the sparse gradient of `scale · form` at `x` into `entries`,
/// using only the form's touched variables.
fn gradient_entries(
    form: &QuadraticForm,
    vars: &[usize],
    x: &[f64],
    scale: f64,
    grad: &mut [f64],
    entries: &mut Vec<(usize, f64)>,
) {
    for &v in vars {
        grad[v] = 0.0;
    }
    form.add_gradient(x, grad, scale);
    entries.clear();
    for &v in vars {
        let g = grad[v];
        if g != 0.0 {
            entries.push((v, g));
        }
    }
}

/// Evaluates the residual rows of `range` (global row indices: equalities,
/// then inequalities, then the soft objective row) at `x`, accumulating
/// `JᵀJ` and `Jᵀr` into the given buffers. Returns the range's
/// sum-of-squares cost and worst violation.
///
/// Both the serial pass (one range covering every row) and each chunk of the
/// parallel pass run exactly this code, so the two modes differ only in how
/// partial sums are grouped. `jtj` is the values buffer the rows' scatter
/// positions in `pattern` index: the full one, or their chunk's.
#[allow(clippy::too_many_arguments)]
fn accumulate_rows(
    problem: &Problem,
    structure: &ProblemStructure,
    pattern: &JtjPattern,
    objective_weight: f64,
    range: std::ops::Range<usize>,
    x: &[f64],
    jtj: &mut [f64],
    jtr: &mut [f64],
    scratch: &mut RowScratch,
) -> (f64, f64) {
    let RowScratch {
        grad,
        entries,
        jtj: jtj_scratch,
    } = scratch;
    let num_eq = problem.equalities.len();
    let num_ineq = problem.inequalities.len();
    let mut cost = 0.0;
    let mut violation = 0.0f64;
    for row in range {
        if row < num_eq {
            let eq = &problem.equalities[row];
            let vars = &structure.equality_vars[row];
            let r = eq.eval(x);
            cost += r * r;
            violation = worse_violation(violation, r.abs());
            gradient_entries(eq, vars, x, 1.0, grad, entries);
            pattern.accumulate_row(row, entries, jtj, jtj_scratch);
            for &(i, g) in entries.iter() {
                jtr[i] += g * r;
            }
        } else if row < num_eq + num_ineq {
            let k = row - num_eq;
            let ineq = &problem.inequalities[k];
            let value = ineq.eval(x);
            if value < 0.0 {
                let r = -value;
                cost += r * r;
                violation = violation.max(r);
                gradient_entries(ineq, &structure.inequality_vars[k], x, -1.0, grad, entries);
                pattern.accumulate_row(row, entries, jtj, jtj_scratch);
                for &(i, g) in entries.iter() {
                    jtr[i] += g * r;
                }
            } else if value.is_nan() {
                violation = f64::INFINITY;
            }
        } else {
            let objective = problem.objective.as_ref().expect("objective row");
            let value = objective.eval(x);
            // A non-finite objective value would poison the whole
            // least-squares cost (NaN cost rejects every step); drop the
            // soft residual and let the constraints drive the solve.
            if value.is_finite() {
                let r = objective_weight * value;
                cost += r * r;
                gradient_entries(
                    objective,
                    &structure.objective_vars,
                    x,
                    objective_weight,
                    grad,
                    entries,
                );
                pattern.accumulate_row(row, entries, jtj, jtj_scratch);
                for &(i, g) in entries.iter() {
                    jtr[i] += g * r;
                }
            }
        }
    }
    (cost, violation)
}

/// Residual-only twin of [`accumulate_rows`]: cost and worst violation of
/// the rows in `range`, no Jacobian work.
fn residual_rows(
    problem: &Problem,
    ws: &LmWorkspace,
    objective_weight: f64,
    range: std::ops::Range<usize>,
    x: &[f64],
) -> (f64, f64) {
    let num_eq = problem.equalities.len();
    let num_ineq = problem.inequalities.len();
    let mut cost = 0.0;
    let mut violation = 0.0f64;
    for row in range {
        if row < num_eq {
            let r = problem.equalities[row].eval(x);
            cost += r * r;
            violation = worse_violation(violation, r.abs());
        } else if row < num_eq + num_ineq {
            let value = problem.inequalities[row - num_eq].eval(x);
            if value < 0.0 {
                cost += value * value;
                violation = violation.max(-value);
            } else if value.is_nan() {
                violation = f64::INFINITY;
            }
        } else {
            debug_assert!(ws.objective_row);
            let value = problem.objective.as_ref().expect("objective row").eval(x);
            if value.is_finite() {
                let r = objective_weight * value;
                cost += r * r;
            }
        }
    }
    (cost, violation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::QuadraticForm;

    #[test]
    fn solves_bilinear_systems_quickly() {
        // x·y = 6, x − y = 1, x ≥ 0 → (3, 2).
        let mut problem = Problem::new(2);
        problem.equalities.push(QuadraticForm {
            constant: -6.0,
            linear: Vec::new(),
            quadratic: vec![(0, 1, 1.0)],
        });
        problem.equalities.push(QuadraticForm {
            constant: -1.0,
            linear: vec![(0, 1.0), (1, -1.0)],
            quadratic: Vec::new(),
        });
        problem.inequalities.push(QuadraticForm::variable(0));
        let outcome = LmSolver::default().solve(&problem, None);
        assert_eq!(outcome.status, SolveStatus::Feasible);
        assert!((outcome.assignment[0] - 3.0).abs() < 1e-4);
        assert!((outcome.assignment[1] - 2.0).abs() < 1e-4);
        assert!(outcome.stats.iterations < 100);
        // The solver reports the sparse shapes it worked with.
        assert_eq!(outcome.stats.nnz_jacobian, 5);
        assert!(outcome.stats.nnz_factor >= 2);
        assert!(outcome.stats.factorizations > 0);
        assert!(outcome.stats.factor_seconds >= 0.0);
        assert!(outcome.stats.restarts >= 1);
    }

    #[test]
    fn solves_sum_of_squares_style_systems_on_the_boundary() {
        // t = l², with t forced to 0: boundary solution l = 0, plus an
        // unrelated equality u = 5.
        let mut problem = Problem::new(3);
        problem.equalities.push(QuadraticForm {
            constant: 0.0,
            linear: vec![(0, 1.0)],
            quadratic: vec![(1, 1, -1.0)],
        });
        problem.equalities.push(QuadraticForm {
            constant: 0.0,
            linear: vec![(0, 1.0)],
            quadratic: Vec::new(),
        });
        problem.equalities.push(QuadraticForm {
            constant: -5.0,
            linear: vec![(2, 1.0)],
            quadratic: Vec::new(),
        });
        problem.inequalities.push(QuadraticForm::variable(1));
        let outcome = LmSolver::default().solve(&problem, None);
        assert_eq!(outcome.status, SolveStatus::Feasible);
        assert!(outcome.assignment[0].abs() < 1e-5);
        assert!((outcome.assignment[2] - 5.0).abs() < 1e-5);
    }

    #[test]
    fn reports_infeasibility() {
        // x = 0 and x = 1.
        let mut problem = Problem::new(1);
        problem.equalities.push(QuadraticForm::variable(0));
        problem.equalities.push(QuadraticForm {
            constant: -1.0,
            linear: vec![(0, 1.0)],
            quadratic: Vec::new(),
        });
        let outcome = LmSolver::default().solve(&problem, None);
        assert_eq!(outcome.status, SolveStatus::Infeasible);
        // The residual of x = 0 ∧ x = 1 cannot drop below 1/2.
        assert!(outcome.stats.final_residual > 0.4);
    }

    #[test]
    fn zero_restarts_are_clamped_to_one_instead_of_panicking() {
        // restarts == 0 used to leave `pick_best` with no outcomes, hitting
        // the `expect("at least one restart runs")`.
        let mut problem = Problem::new(1);
        problem.equalities.push(QuadraticForm {
            constant: -2.0,
            linear: vec![(0, 1.0)],
            quadratic: Vec::new(),
        });
        let solver = LmSolver::new(LmOptions {
            restarts: 0,
            ..LmOptions::default()
        });
        let outcome = solver.solve(&problem, None);
        assert_eq!(outcome.status, SolveStatus::Feasible);
        assert!((outcome.assignment[0] - 2.0).abs() < 1e-6);
        assert_eq!(outcome.stats.restarts, 1);
        // Restart 0 is feasible, so three restarts count it alone, serial
        // or not: restarts the queue started beside it are cut from the
        // replay.
        for parallel_restarts in [false, true] {
            let options = LmOptions {
                restarts: 3,
                parallel_restarts,
                ..LmOptions::default()
            };
            let stats = LmSolver::new(options).solve(&problem, None).stats;
            assert_eq!(stats.restarts, 1);
            assert_eq!(stats.iterations, outcome.stats.iterations);
        }
    }

    #[test]
    fn the_restart_queue_matches_the_sequential_loop_at_any_worker_count() {
        // x² = 4 from the warm start 0: the gradient vanishes there, so
        // restart 0 cannot move and ends infeasible; restart 1 starts at a
        // random point and reaches ±2. Restarts 2 and 3 run only beside
        // restart 1 and must neither win nor count.
        let mut problem = Problem::new(1);
        problem.equalities.push(QuadraticForm {
            constant: -4.0,
            linear: Vec::new(),
            quadratic: vec![(0, 0, 1.0)],
        });
        let solver = LmSolver::new(LmOptions {
            restarts: 4,
            ..LmOptions::default()
        });
        let workspace = LmWorkspace::build(&problem, 0.0);
        let solve = |restart_threads: usize| {
            let budget = crate::par::ThreadBudget {
                restart_threads,
                eval_threads: 1,
            };
            let outcome = solver.solve_on(&problem, &workspace, Some(&[0.0]), budget);
            let stats = SolverStats {
                factor_seconds: 0.0,
                solve_seconds: 0.0,
                eval_seconds: 0.0,
                threads: 0,
                ..outcome.stats.clone()
            };
            (outcome.status, bits(&outcome.assignment), stats)
        };
        let serial = solve(1);
        assert_eq!(serial.0, SolveStatus::Feasible);
        assert_eq!(serial.2.restarts, 2);
        for restart_threads in [2, 8] {
            assert_eq!(solve(restart_threads), serial, "{restart_threads} workers");
        }
    }

    #[test]
    fn nan_objective_does_not_poison_best_candidate_selection() {
        // An objective that evaluates to NaN everywhere must not block the
        // violation-driven candidate updates: the solver should still find
        // the feasible point of the constraints.
        let mut problem = Problem::new(1);
        problem.equalities.push(QuadraticForm {
            constant: -3.0,
            linear: vec![(0, 1.0)],
            quadratic: Vec::new(),
        });
        problem.objective = Some(QuadraticForm {
            constant: f64::NAN,
            linear: Vec::new(),
            quadratic: Vec::new(),
        });
        let solver = LmSolver::new(LmOptions {
            objective_weight: 0.05,
            restarts: 2,
            ..LmOptions::default()
        });
        let outcome = solver.solve(&problem, Some(&[0.0]));
        assert!(outcome.assignment[0].is_finite());
        assert!(
            (outcome.assignment[0] - 3.0).abs() < 1e-4,
            "assignment {} violation {}",
            outcome.assignment[0],
            outcome.violation
        );
    }

    #[test]
    fn soft_objective_prefers_smaller_values_among_feasible_points() {
        // x ≥ 3 (no equalities), minimize x via the soft objective.
        let mut problem = Problem::new(1);
        problem.inequalities.push(QuadraticForm {
            constant: -3.0,
            linear: vec![(0, 1.0)],
            quadratic: Vec::new(),
        });
        problem.objective = Some(QuadraticForm::variable(0));
        let solver = LmSolver::new(LmOptions {
            objective_weight: 0.05,
            ..LmOptions::default()
        });
        let outcome = solver.solve(&problem, Some(&[50.0]));
        assert_eq!(outcome.status, SolveStatus::Feasible);
        assert!(outcome.assignment[0] < 10.0);
    }

    #[test]
    fn stalled_restarts_bail_out_with_their_best_point() {
        // x² + 1 = 0 is infeasible: from a far warm start the residual
        // (x²+1)² keeps shrinking by ever-smaller amounts as x → 0, so
        // every step is accepted and the pre-stall solver burned the whole
        // iteration budget. Stall detection must cut the run short while
        // still returning the best (violation ≈ 1) point.
        let mut problem = Problem::new(1);
        problem.equalities.push(QuadraticForm {
            constant: 1.0,
            linear: Vec::new(),
            quadratic: vec![(0, 0, 1.0)],
        });
        let solver = LmSolver::new(LmOptions {
            max_iterations: 10_000,
            restarts: 1,
            stall_iterations: 10,
            ..LmOptions::default()
        });
        let outcome = solver.solve(&problem, Some(&[5.0]));
        assert_eq!(outcome.status, SolveStatus::Infeasible);
        assert!(
            outcome.stats.iterations < 500,
            "stall detection did not bail: {} iterations",
            outcome.stats.iterations
        );
        assert!(
            (outcome.violation - 1.0).abs() < 0.05,
            "best-so-far point was not kept: violation {}",
            outcome.violation
        );
    }

    #[test]
    fn the_wall_clock_deadline_stops_the_solve() {
        let mut problem = Problem::new(1);
        problem.equalities.push(QuadraticForm {
            constant: -2.0,
            linear: vec![(0, 1.0)],
            quadratic: Vec::new(),
        });
        let solver = LmSolver::new(LmOptions {
            restarts: 1,
            max_seconds: 1e-9,
            ..LmOptions::default()
        });
        // The deadline fires before the first iteration; the warm start is
        // returned untouched as the best-so-far point.
        let outcome = solver.solve(&problem, Some(&[0.5]));
        assert_eq!(outcome.stats.iterations, 0);
        assert!((outcome.assignment[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sparse_normal_step_matches_the_dense_oracle() {
        // One LM normal-equations solve, sparse vs dense, on a seeded
        // random quadratic system: (JᵀJ + λ(1 + diag(JᵀJ))) s = Jᵀr must
        // agree with the dense computation built from the same rows.
        use polyinv_arith::{Matrix, Vector};
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 6 + (seed as usize % 5);
            let m = n + 3;
            let mut problem = Problem::new(n);
            for _ in 0..m {
                let a = rng.random_range(0..n as u64) as usize;
                let b = rng.random_range(0..n as u64) as usize;
                let (lo, hi) = (a.min(b), a.max(b));
                problem.equalities.push(QuadraticForm {
                    constant: rng.random_range(-1.0..1.0),
                    linear: vec![(a, rng.random_range(-2.0..2.0))],
                    quadratic: vec![(lo, hi, rng.random_range(-2.0..2.0))],
                });
            }
            let x: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();
            let lambda = 1e-3;

            // Sparse path.
            let ws = LmWorkspace::build(&problem, 0.0);
            let mut eval = Evaluator::new(&problem, &ws, 0.0, 1);
            let _ = eval.residuals_and_normal(&x);
            let mut numeric = ws.symbolic.numeric();
            let diag = ws.pattern.diag_positions();
            let diag_add: Vec<f64> = (0..n)
                .map(|i| lambda * (1.0 + eval.jtj_values[diag[i]]))
                .collect();
            assert!(ws
                .symbolic
                .factor(&eval.jtj_values, &diag_add, &mut numeric));
            let mut sparse_step = eval.jtr.clone();
            ws.symbolic.solve(&mut numeric, &mut sparse_step);

            // Dense oracle built from the same residual rows.
            let mut jacobian = Matrix::zeros(m, n);
            let mut residuals = vec![0.0; m];
            let mut grad = vec![0.0; n];
            for (row, eq) in problem.equalities.iter().enumerate() {
                residuals[row] = eq.eval(&x);
                grad.fill(0.0);
                eq.add_gradient(&x, &mut grad, 1.0);
                for (col, &g) in grad.iter().enumerate() {
                    jacobian.set(row, col, g);
                }
            }
            let jt = jacobian.transpose();
            let mut jtj = &jt * &jacobian;
            for i in 0..n {
                let d = jtj.get(i, i);
                jtj.add_to(i, i, lambda * (1.0 + d));
            }
            let jtr = jt.mul_vec(&Vector::from_slice(&residuals));
            let dense_step = jtj.solve(&jtr).expect("damped system is PD");
            for i in 0..n {
                assert!(
                    (sparse_step[i] - dense_step[i]).abs() < 1e-7 * (1.0 + dense_step[i].abs()),
                    "seed {seed}: step mismatch at {i}: {} vs {}",
                    sparse_step[i],
                    dense_step[i]
                );
            }
        }
    }

    /// Builds a sparse random system large enough to cross the chunked
    /// evaluation threshold (`rows ≥ 2048`).
    fn big_random_problem(rows: usize, n: usize, seed: u64) -> Problem {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut problem = Problem::new(n);
        for _ in 0..rows {
            let a = rng.random_range(0..n as u64) as usize;
            let b = rng.random_range(0..n as u64) as usize;
            let (lo, hi) = (a.min(b), a.max(b));
            problem.equalities.push(QuadraticForm {
                constant: rng.random_range(-0.5..0.5),
                linear: vec![(a, rng.random_range(-2.0..2.0))],
                quadratic: vec![(lo, hi, rng.random_range(-2.0..2.0))],
            });
        }
        problem
    }

    #[test]
    fn a_reused_workspace_cannot_change_the_result() {
        // The orchestrator's polish passes reuse a workspace for every
        // problem it matches; that is sound only if the workspace depends
        // on the row patterns alone. B has A's patterns, not its
        // coefficients.
        let mut a = big_random_problem(64, 12, 3);
        a.inequalities.push(QuadraticForm::variable(4));
        let mut b = a.clone();
        for (k, form) in b
            .equalities
            .iter_mut()
            .chain(&mut b.inequalities)
            .enumerate()
        {
            form.constant += 0.25;
            form.linear.iter_mut().for_each(|term| term.1 *= -1.5);
            form.quadratic
                .iter_mut()
                .for_each(|term| term.2 *= 0.5 + k as f64 / 64.0);
        }
        let workspace = LmWorkspace::build(&a, 0.0);
        assert!(workspace.matches(&b, 0.0));
        let solver = LmSolver::default();
        let reused = solver.solve_with_workspace(&b, &workspace, Some(&[0.05; 12]));
        let fresh = solver.solve(&b, Some(&[0.05; 12]));
        assert_eq!(bits(&reused.assignment), bits(&fresh.assignment));
        assert_eq!(reused.violation.to_bits(), fresh.violation.to_bits());
        let untimed = |stats: SolverStats| SolverStats {
            factor_seconds: 0.0,
            solve_seconds: 0.0,
            eval_seconds: 0.0,
            ..stats
        };
        assert_eq!(untimed(reused.stats), untimed(fresh.stats));
        // A row touching another variable is a different structure.
        b.equalities[5].linear.push((11, 1.0));
        assert!(!workspace.matches(&b, 0.0));
    }

    #[test]
    fn chunked_solves_are_byte_identical_across_eval_thread_counts() {
        let problem = big_random_problem(2100, 40, 7);
        let solver = LmSolver::new(LmOptions {
            max_iterations: 6,
            restarts: 1,
            ..LmOptions::default()
        });
        let workspace = LmWorkspace::build(&problem, 0.0);
        let solve = |eval_threads: usize| {
            let budget = crate::par::ThreadBudget {
                restart_threads: 1,
                eval_threads,
            };
            solver.solve_on(&problem, &workspace, None, budget)
        };
        let serial = solve(1);
        for threads in [4, 8] {
            let parallel = solve(threads);
            assert_eq!(serial.status, parallel.status);
            assert_eq!(
                serial
                    .assignment
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                parallel
                    .assignment
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                "eval_threads={threads} diverged from the serial chunked pass"
            );
            assert_eq!(serial.stats.iterations, parallel.stats.iterations);
            assert_eq!(serial.stats.factorizations, parallel.stats.factorizations);
            assert_eq!(
                serial.stats.final_residual.to_bits(),
                parallel.stats.final_residual.to_bits()
            );
        }
        assert_eq!(serial.stats.threads, 1);
    }

    /// A random system past the chunked threshold with every kind of
    /// residual row: `equalities` sparse quadratic equalities,
    /// `inequalities` linear lower bounds (about half of them active at
    /// points drawn from `[-1, 1]`), and a soft objective.
    fn mixed_problem(equalities: usize, inequalities: usize, n: usize, seed: u64) -> Problem {
        let mut problem = big_random_problem(equalities, n, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        for _ in 0..inequalities {
            let a = rng.random_range(0..n as u64) as usize;
            problem.inequalities.push(QuadraticForm {
                constant: rng.random_range(-0.5..0.5),
                linear: vec![(a, rng.random_range(-2.0..2.0))],
                quadratic: Vec::new(),
            });
        }
        problem.objective = Some(QuadraticForm {
            constant: 0.25,
            linear: vec![(0, 1.0), (n - 1, -0.5)],
            quadratic: vec![(0, n / 2, 0.75)],
        });
        problem
    }

    /// The full-buffer merge the chunk-local one replaces:
    /// `target[p] += partial[p]` over every position.
    fn merge_partial(target: &mut [f64], partial: &[f64]) {
        for (t, p) in target.iter_mut().zip(partial) {
            *t += p;
        }
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(6))]

        /// The chunk-local buffers give, at every worker count, exactly the
        /// bits of the former scheme: each chunk accumulated into a
        /// full-size `JᵀJ` buffer, the buffers merged in chunk order.
        #[test]
        fn chunk_local_normal_matches_the_full_buffer_chunk_merge(
            seed in 0u32..1_000_000,
            equalities in 1800usize..2400,
            inequalities in 250usize..400,
            n in 24usize..96,
        ) {
            let seed = u64::from(seed);
            let problem = mixed_problem(equalities, inequalities, n, seed);
            let weight = 0.05;
            let ws = LmWorkspace::build(&problem, weight);
            proptest::prop_assert_eq!(ws.pattern.chunks().len(), EVAL_CHUNKS);
            let mut rng = StdRng::seed_from_u64(seed);
            let x: Vec<f64> = (0..n).map(|_| rng.random_range(-1.0..1.0)).collect();

            let full = JtjPattern::new(n, row_patterns(&ws.structure, ws.objective_row));
            let mut jtj = full.values_buffer();
            let mut jtr = vec![0.0; n];
            let (mut cost, mut violation) = (0.0, 0.0f64);
            let mut scratch = RowScratch::new(n);
            for chunk in ws.pattern.chunks() {
                let mut partial = full.values_buffer();
                let mut partial_jtr = vec![0.0; n];
                let (chunk_cost, chunk_violation) = accumulate_rows(
                    &problem,
                    &ws.structure,
                    &full,
                    weight,
                    chunk.rows(),
                    &x,
                    &mut partial,
                    &mut partial_jtr,
                    &mut scratch,
                );
                merge_partial(&mut jtj, &partial);
                merge_partial(&mut jtr, &partial_jtr);
                cost += chunk_cost;
                violation = violation.max(chunk_violation);
            }

            for threads in [1, 2, 8] {
                let mut eval = Evaluator::new(&problem, &ws, weight, threads);
                // The second pass runs on the buffers the first one's merge
                // cleared.
                for _ in 0..2 {
                    let (eval_cost, eval_violation) = eval.residuals_and_normal(&x);
                    proptest::prop_assert_eq!(bits(eval.jtj_values()), bits(&jtj));
                    proptest::prop_assert_eq!(bits(eval.jtr()), bits(&jtr));
                    proptest::prop_assert_eq!(eval_cost.to_bits(), cost.to_bits());
                    proptest::prop_assert_eq!(eval_violation.to_bits(), violation.to_bits());
                }
            }
        }
    }

    #[test]
    fn nan_residuals_count_as_infinite_violations() {
        // `x = 0` and `y ≥ 0`: a NaN in either row must not vanish in the
        // `f64::max` fold of the residual passes or of `full_violation`.
        let mut problem = Problem::new(2);
        problem.equalities.push(QuadraticForm::variable(0));
        problem.inequalities.push(QuadraticForm::variable(1));
        let ws = LmWorkspace::build(&problem, 0.0);
        let mut eval = Evaluator::new(&problem, &ws, 0.0, 1);
        for x in [[f64::NAN, 1.0], [0.0, f64::NAN]] {
            assert_eq!(eval.residuals_only(&x).1, f64::INFINITY);
            assert_eq!(eval.residuals_and_normal(&x).1, f64::INFINITY);
            assert_eq!(full_violation(&problem, &x, 0.0), f64::INFINITY);
        }
        assert_eq!(
            full_violation(&problem, &[0.0, 1.0], f64::NAN),
            f64::INFINITY
        );
        assert_eq!(eval.residuals_only(&[0.0, 1.0]).1, 0.0);
        assert_eq!(full_violation(&problem, &[0.0, 1.0], 0.0), 0.0);
        // A NaN warm start is therefore never returned as feasible.
        let outcome = LmSolver::new(LmOptions {
            restarts: 1,
            ..LmOptions::default()
        })
        .solve(&problem, Some(&[f64::NAN, 1.0]));
        assert_ne!(outcome.status, SolveStatus::Feasible);
    }

    /// Below the threshold the evaluator must keep the original fully-serial
    /// accumulation — byte-for-byte — so that every existing golden stays
    /// valid. The chunked path groups partial sums differently and would
    /// drift in the last bits.
    #[test]
    fn small_systems_keep_the_legacy_serial_accumulation() {
        let problem = big_random_problem(64, 12, 11);
        let ws = LmWorkspace::build(&problem, 0.0);
        let mut eval = Evaluator::new(&problem, &ws, 0.0, 8);
        assert!(eval.chunk_bufs.is_empty(), "64 rows must stay serial");
        let x: Vec<f64> = (0..12).map(|i| 0.1 * i as f64 - 0.5).collect();
        let (cost, violation) = eval.residuals_and_normal(&x);
        let (cost2, violation2) = eval.residuals_only(&x);
        assert_eq!(cost.to_bits(), cost2.to_bits());
        assert_eq!(violation.to_bits(), violation2.to_bits());
    }
}
