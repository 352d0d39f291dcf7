//! Measurement probes for the Step-4 solve stage, shared by the criterion
//! `solver` bench and the `solver_comparison` example so both measure the
//! same algorithm.
//!
//! [`SparseProbe::iteration`] runs one *sparse* LM inner-loop iteration
//! through the solver's own public pieces — [`LmWorkspace`] for the
//! symbolic side, [`LmEvaluator`] for the residual pass scattering the
//! sparse Jacobian rows into `JᵀJ`/`Jᵀr`, then a damped LDLᵀ factor-solve
//! on the shared symbolic analysis. Because the probe delegates to the
//! shipped evaluator instead of duplicating its loop, the benches cannot
//! silently measure a different algorithm than the solver ships, and the
//! probe picks up solver-side changes (like the chunked parallel
//! evaluation) for free. [`dense_iteration`] reproduces the dense
//! pre-rewrite computation (dense `m×n` Jacobian, dense transpose and
//! `JᵀJ`, `O(n³)` solve) as the comparison oracle.

use polyinv_arith::{LdlNumeric, Matrix, Vector};
use polyinv_lang::Precondition;
use polyinv_qcqp::{LmEvaluator, LmWorkspace, Problem};

use crate::options_for;

/// Builds the numeric Step-4 problem of a Table 2/3 row (all unknowns
/// free).
///
/// # Panics
///
/// Panics on unknown benchmark names.
pub fn table_problem(name: &str) -> Problem {
    let benchmark = polyinv_benchmarks::by_name(name).unwrap();
    let program = benchmark.program().unwrap();
    let pre = Precondition::from_program(&program);
    let generated =
        polyinv_constraints::generate(&program, &pre, &options_for(&benchmark)).unwrap();
    polyinv::bridge::system_to_problem(&generated.system)
}

/// Like [`table_problem`], but with the affine presolve applied first —
/// the system Step 4 actually receives in the pipeline. This is the scale
/// the large-system bench group measures.
///
/// # Panics
///
/// Panics on unknown benchmark names.
pub fn presolved_table_problem(name: &str) -> Problem {
    presolved_problem_at(name, 2)
}

/// Like [`presolved_table_problem`], but on the ϒ = `upsilon` rung of the
/// row's ladder: `0` gives the system the default plan certifies most
/// rows on.
///
/// # Panics
///
/// Panics on unknown benchmark names.
pub fn presolved_problem_at(name: &str, upsilon: u32) -> Problem {
    let benchmark = polyinv_benchmarks::by_name(name).unwrap();
    let program = benchmark.program().unwrap();
    let pre = Precondition::from_program(&program);
    let options = options_for(&benchmark).with_upsilon(upsilon);
    let generated = polyinv_constraints::generate(&program, &pre, &options).unwrap();
    let presolved = polyinv_constraints::presolve(
        &generated.system,
        &std::collections::HashMap::new(),
        &polyinv_constraints::PresolveOptions::default(),
    );
    polyinv::bridge::system_to_problem(&presolved.system)
}

/// The damped normal matrix of one LM iteration, captured by
/// [`SparseProbe::damped_normal`] so the numeric factorization can be
/// timed alone.
#[derive(Debug, Clone)]
pub struct DampedNormal {
    values: Vec<f64>,
    diag_add: Vec<f64>,
}

/// One sparse solve workspace plus its numeric factor buffer: what
/// `LmSolver` builds once per solve (symbolic side) and once per restart
/// (numeric side), exposed for per-iteration measurement.
#[derive(Debug)]
pub struct SparseProbe {
    problem: Problem,
    ws: LmWorkspace,
    numeric: LdlNumeric,
    eval_threads: usize,
}

impl SparseProbe {
    /// Analyzes the problem with a serial evaluator: `JᵀJ` pattern,
    /// minimum-degree ordering and symbolic LDLᵀ, plus zeroed numeric
    /// buffers.
    pub fn new(problem: Problem) -> Self {
        SparseProbe::with_threads(problem, 1)
    }

    /// [`SparseProbe::new`] with an explicit evaluation worker count (the
    /// solver takes its own from [`ThreadBudget`](polyinv_qcqp::ThreadBudget));
    /// chunked parallel evaluation engages at the same row threshold as the
    /// shipping solver.
    pub fn with_threads(problem: Problem, eval_threads: usize) -> Self {
        let ws = LmWorkspace::build(&problem, 0.0);
        let numeric = ws.symbolic().numeric();
        SparseProbe {
            problem,
            ws,
            numeric,
            eval_threads: eval_threads.max(1),
        }
    }

    /// The problem under measurement.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Stored entries of the Jacobian pattern.
    pub fn nnz_jacobian(&self) -> usize {
        self.ws.pattern().jacobian_nnz()
    }

    /// Stored entries of the `JᵀJ` lower triangle.
    pub fn nnz_jtj(&self) -> usize {
        self.ws.pattern().nnz()
    }

    /// Entries of the LDLᵀ factor (unit diagonal included).
    pub fn nnz_factor(&self) -> usize {
        self.ws.symbolic().nnz_factor()
    }

    /// Supernodes of the factor's supernodal layout (`0` when the
    /// symbolic analysis chose the simplicial one).
    pub fn supernodes(&self) -> usize {
        self.ws.symbolic().supernodes()
    }

    /// Values held by the chunked evaluation's per-chunk `JᵀJ` buffers,
    /// summed over the chunks (`0` below the chunked row threshold).
    pub fn chunk_entries(&self) -> usize {
        self.ws.pattern().chunks().iter().map(|c| c.entries()).sum()
    }

    /// The solver's own residual/`JᵀJ` evaluator on this problem, with the
    /// probe's evaluation worker count.
    pub fn evaluator(&self) -> LmEvaluator<'_> {
        LmEvaluator::new(&self.problem, &self.ws, 0.0, self.eval_threads)
    }

    /// The damped normal matrix of one LM iteration at `x`: the `JᵀJ`
    /// values from the solver's own evaluator plus the damping `lambda`
    /// puts on the diagonal. [`SparseProbe::factor`] factors it.
    pub fn damped_normal(&self, x: &[f64], lambda: f64) -> DampedNormal {
        let mut eval = self.evaluator();
        eval.residuals_and_normal(x);
        let values = eval.jtj_values().to_vec();
        let diag_add = self.damping(&values, lambda);
        DampedNormal { values, diag_add }
    }

    /// The numeric LDLᵀ factorization alone, of a captured damped normal
    /// matrix. Returns `false` when a pivot is rejected.
    pub fn factor(&mut self, system: &DampedNormal) -> bool {
        self.ws
            .symbolic()
            .factor(&system.values, &system.diag_add, &mut self.numeric)
    }

    /// The LM damping `lambda · (1 + diag(JᵀJ))`.
    fn damping(&self, values: &[f64], lambda: f64) -> Vec<f64> {
        let diag = self.ws.pattern().diag_positions();
        (0..self.problem.num_vars)
            .map(|i| lambda * (1.0 + values[diag[i]]))
            .collect()
    }

    /// One sparse LM iteration at `x` with damping `lambda`: residual pass
    /// scattering into `JᵀJ`/`Jᵀr` (through the solver's own evaluator,
    /// chunked across `eval_threads` workers at scale), damped numeric
    /// factor, triangular solves. Returns a checksum of the step so the
    /// work cannot be optimized away.
    pub fn iteration(&mut self, x: &[f64], lambda: f64) -> f64 {
        let mut eval = LmEvaluator::new(&self.problem, &self.ws, 0.0, self.eval_threads);
        eval.residuals_and_normal(x);
        let values = eval.jtj_values();
        let diag_add = self.damping(values, lambda);
        assert!(self
            .ws
            .symbolic()
            .factor(values, &diag_add, &mut self.numeric));
        let mut step = eval.jtr().to_vec();
        self.ws.symbolic().solve(&mut self.numeric, &mut step);
        step.iter().sum()
    }
}

/// One dense LM iteration the way the pre-sparse back-end computed it:
/// dense `m×n` Jacobian, dense transpose, dense `JᵀJ`, `O(n³)` solve.
/// Returns a checksum of the step.
///
/// # Panics
///
/// Panics if the damped normal system is singular (it never is for
/// `λ > 0`).
pub fn dense_iteration(problem: &Problem, x: &[f64], lambda: f64) -> f64 {
    let n = problem.num_vars;
    let m = problem.equalities.len() + problem.inequalities.len();
    let mut jacobian = Matrix::zeros(m, n);
    let mut residuals = vec![0.0; m];
    let mut grad = vec![0.0; n];
    let mut row = 0;
    for eq in &problem.equalities {
        residuals[row] = eq.eval(x);
        grad.fill(0.0);
        eq.add_gradient(x, &mut grad, 1.0);
        for (col, &g) in grad.iter().enumerate() {
            if g != 0.0 {
                jacobian.set(row, col, g);
            }
        }
        row += 1;
    }
    for ineq in &problem.inequalities {
        let value = ineq.eval(x);
        if value < 0.0 {
            residuals[row] = -value;
            grad.fill(0.0);
            ineq.add_gradient(x, &mut grad, -1.0);
            for (col, &g) in grad.iter().enumerate() {
                if g != 0.0 {
                    jacobian.set(row, col, g);
                }
            }
        }
        row += 1;
    }
    let jt = jacobian.transpose();
    let mut jtj = &jt * &jacobian;
    for i in 0..n {
        let d = jtj.get(i, i);
        jtj.add_to(i, i, lambda * (1.0 + d));
    }
    let jtr = jt.mul_vec(&Vector::from_slice(&residuals));
    let step = jtj.solve(&jtr).expect("damped system is PD");
    (0..n).map(|i| step[i]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparse_and_dense_probes_compute_the_same_step() {
        use polyinv_qcqp::QuadraticForm;
        // A small synthetic system keeps this fast in debug mode; the
        // at-scale equivalence is covered by the lm/arith property tests.
        let mut problem = Problem::new(6);
        for i in 0..5 {
            problem.equalities.push(QuadraticForm {
                constant: -1.0 - i as f64,
                linear: vec![(i, 2.0)],
                quadratic: vec![(i, i + 1, 0.5)],
            });
        }
        problem.inequalities.push(QuadraticForm {
            constant: -10.0,
            linear: vec![(3, 1.0)],
            quadratic: Vec::new(),
        });
        let x = vec![0.05; 6];
        let mut probe = SparseProbe::new(problem);
        let sparse = probe.iteration(&x, 1e-3);
        let dense = dense_iteration(probe.problem(), &x, 1e-3);
        assert!(
            (sparse - dense).abs() < 1e-6 * (1.0 + dense.abs()),
            "checksum mismatch: sparse {sparse} vs dense {dense}"
        );
        assert!(probe.nnz_jacobian() > 0);
        assert!(probe.nnz_factor() >= 6);
    }

    #[test]
    fn the_layout_switch_picks_supernodal_only_for_fill_heavy_factors() {
        // The ϒ = 2 system of a recursive row fills in densely; the ϒ = 0
        // system a Table 2 row is certified on keeps the simplicial layout
        // and its arithmetic.
        let heavy = SparseProbe::new(presolved_table_problem("recursive-square-sum"));
        assert!(
            heavy.supernodes() > 0,
            "recursive-square-sum stays simplicial"
        );
        let light = SparseProbe::new(presolved_problem_at("cohendiv", 0));
        assert_eq!(light.supernodes(), 0, "cohendiv went supernodal");
    }

    #[test]
    fn chunk_buffers_hold_little_more_than_the_normal_matrix() {
        // Each chunk stores only the JᵀJ entries its rows touch: on the
        // presolved ϒ = 2 prodbin system, 16 full-size buffers would hold
        // 16 × nnz(JᵀJ).
        let probe = SparseProbe::new(presolved_table_problem("prodbin"));
        let (entries, nnz) = (probe.chunk_entries(), probe.nnz_jtj());
        assert!(entries > 0, "prodbin is not evaluated in chunks");
        assert!(
            10 * entries <= 11 * nnz,
            "chunk buffers hold {entries} values for nnz(JᵀJ) = {nnz}"
        );
    }

    #[test]
    fn probe_iterations_are_identical_across_thread_counts() {
        // The probe delegates to the shipping evaluator, so its chunked
        // parallel path must agree bitwise with the serial one.
        let problem = table_problem("pw2");
        let x: Vec<f64> = (0..problem.num_vars)
            .map(|i| 0.05 + 1e-4 * (i % 7) as f64)
            .collect();
        let serial = SparseProbe::new(problem.clone()).iteration(&x, 1e-3);
        let parallel = SparseProbe::with_threads(problem, 4).iteration(&x, 1e-3);
        assert_eq!(serial.to_bits(), parallel.to_bits());
    }
}
