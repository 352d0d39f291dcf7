//! Problem representation for quadratically-constrained programs.

/// A sparse quadratic form `c + Σ aᵢ·xᵢ + Σ bᵢⱼ·xᵢ·xⱼ`.
#[derive(Debug, Clone, Default)]
pub struct QuadraticForm {
    /// The constant term.
    pub constant: f64,
    /// Linear terms `(variable, coefficient)`.
    pub linear: Vec<(usize, f64)>,
    /// Quadratic terms `(i, j, coefficient)` with `i ≤ j`; the coefficient
    /// multiplies `xᵢ·xⱼ` exactly once (no symmetrization).
    pub quadratic: Vec<(usize, usize, f64)>,
}

impl QuadraticForm {
    /// A constant form.
    pub fn constant(value: f64) -> Self {
        QuadraticForm {
            constant: value,
            ..QuadraticForm::default()
        }
    }

    /// A form consisting of a single variable.
    pub fn variable(index: usize) -> Self {
        QuadraticForm {
            constant: 0.0,
            linear: vec![(index, 1.0)],
            quadratic: Vec::new(),
        }
    }

    /// Evaluates the form at `x`.
    pub fn eval(&self, x: &[f64]) -> f64 {
        let mut value = self.constant;
        for &(i, c) in &self.linear {
            value += c * x[i];
        }
        for &(i, j, c) in &self.quadratic {
            value += c * x[i] * x[j];
        }
        value
    }

    /// Accumulates `scale · ∇form(x)` into `grad`.
    pub fn add_gradient(&self, x: &[f64], grad: &mut [f64], scale: f64) {
        for &(i, c) in &self.linear {
            grad[i] += scale * c;
        }
        for &(i, j, c) in &self.quadratic {
            if i == j {
                grad[i] += scale * 2.0 * c * x[i];
            } else {
                grad[i] += scale * c * x[j];
                grad[j] += scale * c * x[i];
            }
        }
    }

    /// The sorted, deduplicated list of variables this form mentions — the
    /// sparsity pattern of both its value and its gradient.
    pub fn touched_vars(&self) -> Vec<usize> {
        let mut vars: Vec<usize> = self
            .linear
            .iter()
            .map(|&(i, _)| i)
            .chain(self.quadratic.iter().flat_map(|&(i, j, _)| [i, j]))
            .collect();
        vars.sort_unstable();
        vars.dedup();
        vars
    }
}

/// Per-constraint sparsity metadata of a [`Problem`]: the touched-variable
/// set of every constraint (and the objective) and the union of active
/// variables. Both solver back-ends analyze a problem once per solve and
/// share the result with their restarts instead of rediscovering structure
/// every iteration; the sparse LM back-end derives its `JᵀJ` pattern and
/// symbolic factorization from it.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemStructure {
    /// Sorted touched-variable set of each equality constraint.
    pub equality_vars: Vec<Vec<usize>>,
    /// Sorted touched-variable set of each inequality constraint.
    pub inequality_vars: Vec<Vec<usize>>,
    /// Sorted touched-variable set of the objective (empty when absent).
    pub objective_vars: Vec<usize>,
    /// Sorted union of every variable any constraint or the objective
    /// mentions. Variables outside this set never receive a gradient.
    pub active_vars: Vec<usize>,
}

impl ProblemStructure {
    /// Analyzes `problem`'s sparsity.
    pub fn analyze(problem: &Problem) -> Self {
        let equality_vars: Vec<Vec<usize>> = problem
            .equalities
            .iter()
            .map(QuadraticForm::touched_vars)
            .collect();
        let inequality_vars: Vec<Vec<usize>> = problem
            .inequalities
            .iter()
            .map(QuadraticForm::touched_vars)
            .collect();
        let objective_vars = problem
            .objective
            .as_ref()
            .map(QuadraticForm::touched_vars)
            .unwrap_or_default();
        let mut active_vars: Vec<usize> = equality_vars
            .iter()
            .chain(&inequality_vars)
            .flatten()
            .copied()
            .chain(objective_vars.iter().copied())
            .collect();
        active_vars.sort_unstable();
        active_vars.dedup();
        ProblemStructure {
            equality_vars,
            inequality_vars,
            objective_vars,
            active_vars,
        }
    }
}

/// A quadratically-constrained program
/// `min objective(x)  s.t.  eqᵢ(x) = 0,  ineqⱼ(x) ≥ 0,  lo ≤ x ≤ hi`.
#[derive(Debug, Clone)]
pub struct Problem {
    /// The number of variables.
    pub num_vars: usize,
    /// Equality constraints `form = 0`.
    pub equalities: Vec<QuadraticForm>,
    /// Inequality constraints `form ≥ 0`.
    pub inequalities: Vec<QuadraticForm>,
    /// The objective to *minimize* (`None` for pure feasibility problems).
    /// Only [`LmSolver`](crate::LmSolver) reads it, as a soft residual;
    /// [`AlmSolver`](crate::AlmSolver) solves feasibility problems only.
    pub objective: Option<QuadraticForm>,
    /// Per-variable box bounds (defaults to `(-1e4, 1e4)`).
    pub bounds: Vec<(f64, f64)>,
}

/// Default symmetric box bound applied to every variable; it keeps the
/// first-order solver from diverging and matches the bounded-reals model.
const DEFAULT_BOUND: f64 = 1.0e4;

impl Problem {
    /// Creates an unconstrained problem with `num_vars` variables.
    pub fn new(num_vars: usize) -> Self {
        Problem {
            num_vars,
            equalities: Vec::new(),
            inequalities: Vec::new(),
            objective: None,
            bounds: vec![(-DEFAULT_BOUND, DEFAULT_BOUND); num_vars],
        }
    }

    /// Sets the box bound of one variable.
    pub fn set_bound(&mut self, var: usize, lower: f64, upper: f64) {
        self.bounds[var] = (lower, upper);
    }

    /// The worst constraint violation at `x` (equalities, inequalities and
    /// box bounds). A NaN constraint value or coordinate counts as +∞:
    /// `f64::max` would drop it and let the point pass as feasible.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst: f64 = 0.0;
        for eq in &self.equalities {
            let value = eq.eval(x);
            if value.is_nan() {
                return f64::INFINITY;
            }
            worst = worst.max(value.abs());
        }
        for ineq in &self.inequalities {
            let value = ineq.eval(x);
            if value.is_nan() {
                return f64::INFINITY;
            }
            worst = worst.max((-value).max(0.0));
        }
        for (i, &(lo, hi)) in self.bounds.iter().enumerate() {
            if x[i].is_nan() {
                return f64::INFINITY;
            }
            worst = worst.max(lo - x[i]).max(x[i] - hi);
        }
        worst
    }

    /// Clamps an assignment into the box bounds in place.
    pub fn clamp(&self, x: &mut [f64]) {
        for (value, &(lo, hi)) in x.iter_mut().zip(&self.bounds) {
            *value = value.clamp(lo, hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quadratic_form_evaluation_and_gradient() {
        // f(x, y) = 1 + 2x + 3xy + y²
        let form = QuadraticForm {
            constant: 1.0,
            linear: vec![(0, 2.0)],
            quadratic: vec![(0, 1, 3.0), (1, 1, 1.0)],
        };
        let x = [2.0, -1.0];
        assert_eq!(form.eval(&x), 1.0 + 4.0 - 6.0 + 1.0);
        let mut grad = vec![0.0; 2];
        form.add_gradient(&x, &mut grad, 1.0);
        // df/dx = 2 + 3y = -1, df/dy = 3x + 2y = 4.
        assert_eq!(grad, vec![-1.0, 4.0]);
    }

    #[test]
    fn gradient_scaling_accumulates() {
        let form = QuadraticForm::variable(1);
        let mut grad = vec![0.0; 3];
        form.add_gradient(&[0.0; 3], &mut grad, 2.5);
        form.add_gradient(&[0.0; 3], &mut grad, -0.5);
        assert_eq!(grad, vec![0.0, 2.0, 0.0]);
    }

    #[test]
    fn structure_reports_per_constraint_sparsity() {
        let mut problem = Problem::new(5);
        problem.equalities.push(QuadraticForm {
            constant: 1.0,
            linear: vec![(3, 2.0)],
            quadratic: vec![(0, 3, 1.0)],
        });
        problem.inequalities.push(QuadraticForm::variable(1));
        problem.objective = Some(QuadraticForm::variable(4));
        let structure = ProblemStructure::analyze(&problem);
        assert_eq!(structure.equality_vars, vec![vec![0, 3]]);
        assert_eq!(structure.inequality_vars, vec![vec![1]]);
        assert_eq!(structure.objective_vars, vec![4]);
        assert_eq!(structure.active_vars, vec![0, 1, 3, 4]);
        // The analysis is of the problem as it stands: a constraint added
        // later shows in the next one.
        problem.inequalities.push(QuadraticForm::variable(2));
        let refreshed = ProblemStructure::analyze(&problem);
        assert_eq!(refreshed.inequality_vars.len(), 2);
        assert_eq!(refreshed.active_vars, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn problem_violation_includes_all_constraint_classes() {
        let mut problem = Problem::new(2);
        problem.equalities.push(QuadraticForm {
            constant: -1.0,
            linear: vec![(0, 1.0)],
            quadratic: Vec::new(),
        });
        problem.inequalities.push(QuadraticForm::variable(1));
        problem.set_bound(1, -2.0, 2.0);
        assert!(problem.max_violation(&[1.0, 0.5]) <= 1e-9);
        assert!(problem.max_violation(&[0.0, 0.5]) > 1e-9);
        assert!(problem.max_violation(&[1.0, -0.5]) > 1e-9);
        assert!((problem.max_violation(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        let mut x = vec![5.0, -7.0];
        problem.clamp(&mut x);
        assert_eq!(x, vec![5.0, -2.0]);
    }

    #[test]
    fn a_nan_residual_is_never_feasible() {
        // `x = 0` at x = NaN: `f64::max` used to drop the NaN residual and
        // report violation 0.
        let mut problem = Problem::new(1);
        problem.equalities.push(QuadraticForm::variable(0));
        assert_eq!(problem.max_violation(&[f64::NAN]), f64::INFINITY);
        assert!(problem.max_violation(&[f64::NAN]) > 1e-7);
        // A NaN inequality value and a NaN coordinate under box bounds
        // alone count as +∞ too.
        let mut problem = Problem::new(2);
        problem.inequalities.push(QuadraticForm {
            constant: 0.0,
            linear: vec![(0, f64::INFINITY)],
            quadratic: Vec::new(),
        });
        assert_eq!(problem.max_violation(&[0.0, 1.0]), f64::INFINITY);
        let problem = Problem::new(1);
        assert_eq!(problem.max_violation(&[f64::NAN]), f64::INFINITY);
        assert_eq!(problem.max_violation(&[0.5]), 0.0);
    }
}
