//! An augmented-Lagrangian solver with an Adam first-order inner loop.
//!
//! This is the general-purpose back-end for the non-convex quadratic systems
//! produced by the Cholesky encoding (the paper's QCLP form). It makes no
//! global-optimality claim — neither does any practical QCLP solver,
//! including the one used by the paper — but any feasible point it returns
//! satisfies the generated system and therefore yields a sound inductive
//! invariant (Lemma 3.6), which is re-checked downstream.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::problem::Problem;
use crate::stats::SolverStats;

/// Configuration of the augmented-Lagrangian solver.
#[derive(Debug, Clone)]
pub struct AlmOptions {
    /// Number of outer (multiplier-update) iterations.
    pub outer_iterations: usize,
    /// Number of Adam steps per outer iteration.
    pub inner_iterations: usize,
    /// Initial penalty coefficient ρ.
    pub initial_penalty: f64,
    /// Multiplicative growth of ρ after every outer iteration.
    pub penalty_growth: f64,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Feasibility tolerance declaring success.
    pub tolerance: f64,
    /// Number of random restarts (the best run is returned).
    pub restarts: usize,
    /// Random seed (restart `k` uses `seed + k`).
    pub seed: u64,
    /// Standard deviation of the random initialization noise.
    pub init_scale: f64,
    /// Wall-clock budget in seconds over all restarts; once exceeded, the
    /// current restart stops at the next outer-iteration boundary and no
    /// further restarts launch. `0` disables the deadline.
    pub max_seconds: f64,
}

impl Default for AlmOptions {
    fn default() -> Self {
        AlmOptions {
            outer_iterations: 25,
            inner_iterations: 400,
            initial_penalty: 10.0,
            penalty_growth: 1.6,
            learning_rate: 0.05,
            tolerance: 1e-6,
            restarts: 3,
            seed: 0x5eed,
            init_scale: 0.1,
            max_seconds: 0.0,
        }
    }
}

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
    /// The objective value at that assignment (0 if no objective).
    pub objective: f64,
    /// Feasibility status.
    pub status: SolveStatus,
    /// Inner iterations of the winning restart.
    pub iterations: usize,
    /// Execution statistics aggregated over all restarts.
    pub stats: SolverStats,
}

/// The augmented-Lagrangian solver.
#[derive(Debug, Clone, Default)]
pub struct AlmSolver {
    options: AlmOptions,
}

impl AlmSolver {
    /// Creates a solver with the given options.
    pub fn new(options: AlmOptions) -> Self {
        AlmSolver { options }
    }

    /// Solves the problem starting from random initial points (plus an
    /// optional warm start) and returns the best outcome.
    pub fn solve(&self, problem: &Problem, warm_start: Option<&[f64]>) -> SolveOutcome {
        let mut best: Option<SolveOutcome> = None;
        let mut stats = SolverStats::default();
        let restarts = self.options.restarts.max(1);
        let started = std::time::Instant::now();
        let deadline = (self.options.max_seconds > 0.0).then_some(self.options.max_seconds);
        for restart in 0..restarts {
            if restart > 0
                && deadline.is_some_and(|budget| started.elapsed().as_secs_f64() >= budget)
            {
                break;
            }
            let mut rng = StdRng::seed_from_u64(self.options.seed.wrapping_add(restart as u64));
            let mut x = match (restart, warm_start) {
                (0, Some(start)) if start.len() == problem.num_vars => start.to_vec(),
                _ => (0..problem.num_vars)
                    .map(|_| rng.random_range(-self.options.init_scale..self.options.init_scale))
                    .collect(),
            };
            let remaining = deadline.map(|budget| budget - started.elapsed().as_secs_f64());
            let outcome = self.solve_from(problem, &mut x, &mut rng, remaining);
            stats.absorb_restart(&outcome.stats);
            let better = match &best {
                None => true,
                Some(current) => {
                    outcome.violation < current.violation
                        || (outcome.status == SolveStatus::Feasible
                            && current.status == SolveStatus::Feasible
                            && outcome.objective < current.objective)
                }
            };
            if better {
                best = Some(outcome);
            }
            if let Some(current) = &best {
                if current.status == SolveStatus::Feasible && problem.objective.is_none() {
                    // Pure feasibility problem: stop at the first success.
                    break;
                }
            }
        }
        let mut best = best.expect("at least one restart runs");
        stats.final_residual = best.stats.final_residual;
        // The ALM loop is sequential with serial evaluation throughout.
        stats.threads = 1;
        best.stats = stats;
        best
    }

    fn solve_from(
        &self,
        problem: &Problem,
        x: &mut [f64],
        rng: &mut StdRng,
        max_seconds: Option<f64>,
    ) -> SolveOutcome {
        let n = problem.num_vars;
        let opts = &self.options;
        let started = std::time::Instant::now();
        let mut rho = opts.initial_penalty;
        // Multiplier estimates.
        let mut lambda_eq = vec![0.0; problem.equalities.len()];
        let mut lambda_ineq = vec![0.0; problem.inequalities.len()];
        // Adam state.
        let mut m = vec![0.0; n];
        let mut v = vec![0.0; n];
        let beta1 = 0.9;
        let beta2 = 0.999;
        let eps = 1e-8;
        let mut total_iterations = 0usize;
        // Variables no constraint or objective mentions never receive a
        // gradient, so their Adam state stays zero and their value never
        // moves: the update loop can skip them outright. The gradient
        // buffer is likewise allocated once and re-zeroed per step instead
        // of reallocated `outer × inner` times.
        let structure = problem.structure();
        let active = &structure.active_vars;
        let mut grad = vec![0.0; n];

        let objective_at = |point: &[f64]| {
            problem
                .objective
                .as_ref()
                .map(|o| o.eval(point))
                .unwrap_or(0.0)
        };
        let mut best_x = x.to_vec();
        let mut best_violation = problem.max_violation(x);
        let mut best_objective = objective_at(x);

        for outer in 0..opts.outer_iterations {
            if max_seconds.is_some_and(|budget| started.elapsed().as_secs_f64() >= budget) {
                break;
            }
            let mut step_count = 0.0f64;
            for _ in 0..opts.inner_iterations {
                total_iterations += 1;
                step_count += 1.0;
                for &i in active {
                    grad[i] = 0.0;
                }
                // Objective gradient.
                if let Some(objective) = &problem.objective {
                    objective.add_gradient(x, &mut grad, 1.0);
                }
                // Equalities: λ·c(x) + ρ/2·c(x)² → gradient (λ + ρ·c)·∇c.
                for (eq, &lambda) in problem.equalities.iter().zip(&lambda_eq) {
                    let value = eq.eval(x);
                    eq.add_gradient(x, &mut grad, lambda + rho * value);
                }
                // Inequalities g(x) ≥ 0 handled as max(0, λ − ρ·g)-style
                // augmented terms: gradient −(λ − ρ·g)⁺·∇g.
                for (ineq, &lambda) in problem.inequalities.iter().zip(&lambda_ineq) {
                    let value = ineq.eval(x);
                    let slack = lambda - rho * value;
                    if slack > 0.0 {
                        ineq.add_gradient(x, &mut grad, -slack);
                    }
                }
                // Adam update over the active variables only.
                let t = step_count;
                for &i in active {
                    m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i];
                    v[i] = beta2 * v[i] + (1.0 - beta2) * grad[i] * grad[i];
                    let m_hat = m[i] / (1.0 - beta1.powf(t));
                    let v_hat = v[i] / (1.0 - beta2.powf(t));
                    x[i] -= opts.learning_rate * m_hat / (v_hat.sqrt() + eps);
                }
                problem.clamp(x);
            }
            // Multiplier updates.
            for (eq, lambda) in problem.equalities.iter().zip(lambda_eq.iter_mut()) {
                *lambda += rho * eq.eval(x);
                *lambda = lambda.clamp(-1e6, 1e6);
            }
            for (ineq, lambda) in problem.inequalities.iter().zip(lambda_ineq.iter_mut()) {
                *lambda = (*lambda - rho * ineq.eval(x)).clamp(0.0, 1e6);
            }
            rho *= opts.penalty_growth;

            let violation = problem.max_violation(x);
            let objective = objective_at(x);
            // Among feasible points prefer the better objective; otherwise
            // prefer the smaller violation.
            let better = if violation <= opts.tolerance && best_violation <= opts.tolerance {
                objective < best_objective
            } else {
                violation < best_violation
            };
            if better {
                best_violation = violation;
                best_objective = objective;
                best_x = x.to_vec();
            }
            if violation <= opts.tolerance && problem.objective.is_none() {
                break;
            }
            // Mild perturbation if progress stalls in later outer rounds.
            if outer > 0 && outer % 8 == 0 && violation > 1e3 * opts.tolerance {
                for value in x.iter_mut() {
                    *value += rng.random_range(-0.01..0.01);
                }
            }
        }

        let violation = best_violation;
        // Sum-of-squares residual at the returned point (equality residuals
        // plus inequality hinges), for parity with the LM statistics.
        let final_residual: f64 = problem
            .equalities
            .iter()
            .map(|eq| {
                let r = eq.eval(&best_x);
                r * r
            })
            .chain(problem.inequalities.iter().map(|ineq| {
                let r = (-ineq.eval(&best_x)).max(0.0);
                r * r
            }))
            .sum();
        SolveOutcome {
            assignment: best_x,
            violation,
            objective: best_objective,
            status: if violation <= opts.tolerance {
                SolveStatus::Feasible
            } else {
                SolveStatus::Infeasible
            },
            iterations: total_iterations,
            stats: SolverStats {
                iterations: total_iterations,
                restarts: 1,
                final_residual,
                ..SolverStats::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::QuadraticForm;

    fn options_fast() -> AlmOptions {
        AlmOptions {
            outer_iterations: 30,
            inner_iterations: 300,
            restarts: 2,
            ..AlmOptions::default()
        }
    }

    #[test]
    fn solves_a_simple_equality_system() {
        // x + y = 2, x - y = 0  →  x = y = 1.
        let mut problem = Problem::new(2);
        problem.equalities.push(QuadraticForm {
            constant: -2.0,
            linear: vec![(0, 1.0), (1, 1.0)],
            quadratic: Vec::new(),
        });
        problem.equalities.push(QuadraticForm {
            constant: 0.0,
            linear: vec![(0, 1.0), (1, -1.0)],
            quadratic: Vec::new(),
        });
        let outcome = AlmSolver::new(options_fast()).solve(&problem, None);
        assert_eq!(outcome.status, SolveStatus::Feasible);
        assert!((outcome.assignment[0] - 1.0).abs() < 1e-3);
        assert!((outcome.assignment[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn solves_a_bilinear_system() {
        // x·y = 6, x - y = 1, x ≥ 0  →  x = 3, y = 2.
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
        let outcome = AlmSolver::new(options_fast()).solve(&problem, None);
        assert_eq!(outcome.status, SolveStatus::Feasible);
        assert!((outcome.assignment[0] - 3.0).abs() < 1e-2);
        assert!((outcome.assignment[1] - 2.0).abs() < 1e-2);
    }

    #[test]
    fn warm_start_is_used() {
        // x² = 4 has the two solutions ±2; a warm start near −2 should stay
        // in that basin.
        let mut problem = Problem::new(1);
        problem.equalities.push(QuadraticForm {
            constant: -4.0,
            linear: Vec::new(),
            quadratic: vec![(0, 0, 1.0)],
        });
        let outcome = AlmSolver::new(options_fast()).solve(&problem, Some(&[-1.8]));
        assert_eq!(outcome.status, SolveStatus::Feasible);
        assert!(outcome.assignment[0] < 0.0);
    }

    #[test]
    fn minimizes_the_objective_subject_to_constraints() {
        // min x subject to x ≥ 3.
        let mut problem = Problem::new(1);
        problem.inequalities.push(QuadraticForm {
            constant: -3.0,
            linear: vec![(0, 1.0)],
            quadratic: Vec::new(),
        });
        problem.objective = Some(QuadraticForm::variable(0));
        let outcome = AlmSolver::new(AlmOptions {
            outer_iterations: 60,
            inner_iterations: 400,
            restarts: 1,
            ..AlmOptions::default()
        })
        .solve(&problem, Some(&[10.0]));
        assert_eq!(outcome.status, SolveStatus::Feasible);
        assert!((outcome.assignment[0] - 3.0).abs() < 0.05);
    }

    #[test]
    fn reports_infeasibility_for_contradictory_systems() {
        // x = 0 and x = 1 simultaneously.
        let mut problem = Problem::new(1);
        problem.equalities.push(QuadraticForm::variable(0));
        problem.equalities.push(QuadraticForm {
            constant: -1.0,
            linear: vec![(0, 1.0)],
            quadratic: Vec::new(),
        });
        let outcome = AlmSolver::new(options_fast()).solve(&problem, None);
        assert_eq!(outcome.status, SolveStatus::Infeasible);
        assert!(outcome.violation > 0.1);
    }
}
