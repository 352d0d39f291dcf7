//! An augmented-Lagrangian feasibility solver with an Adam first-order
//! inner loop.
//!
//! This is the general-purpose back-end for the non-convex quadratic systems
//! produced by the Cholesky encoding (the paper's QCLP form). Like the
//! paper's Step 4 it looks for a feasible point only: it has no objective,
//! and it ranks its restarts by the rule of [`crate::stats`]. It makes no
//! global-optimality claim — neither does any practical QCLP solver,
//! including the one used by the paper — but any feasible point it returns
//! satisfies the generated system and therefore yields a sound inductive
//! invariant (Lemma 3.6), which is re-checked downstream.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::par::{parallel_indexed_until_bounded, ThreadBudget};
use crate::problem::{Problem, ProblemStructure};
use crate::stats::{finite_or_inf, replay_restarts, SolveOutcome, SolveStatus, SolverStats};

/// Initial penalty coefficient ρ.
const INITIAL_PENALTY: f64 = 10.0;
/// Multiplicative growth of ρ after every outer iteration.
const PENALTY_GROWTH: f64 = 1.6;
/// Adam learning rate.
const LEARNING_RATE: f64 = 0.05;
/// Feasibility tolerance declaring success.
const TOLERANCE: f64 = 1e-6;
/// Random seed: restart `k` uses `SEED + k`.
const SEED: u64 = 0x5eed;
/// Half-width of the box `[-s, s]` that random restarts start from.
const INIT_SCALE: f64 = 0.1;

/// Configuration of the augmented-Lagrangian solver.
#[derive(Debug, Clone)]
pub struct AlmOptions {
    /// Number of outer (multiplier-update) iterations. Only the default is
    /// used in production, but the fallback and deadline tests shrink or
    /// stretch the lane with it.
    pub outer_iterations: usize,
    /// Number of Adam steps per outer iteration (kept settable for the same
    /// tests as `outer_iterations`).
    pub inner_iterations: usize,
    /// Number of random restarts (the best run is returned).
    pub restarts: usize,
    /// Wall-clock budget in seconds over all restarts; once exceeded, every
    /// running restart stops at its next outer-iteration boundary and no
    /// further restarts launch. `0` disables the deadline.
    pub max_seconds: f64,
}

impl Default for AlmOptions {
    fn default() -> Self {
        AlmOptions {
            outer_iterations: 25,
            inner_iterations: 400,
            restarts: 3,
            max_seconds: 0.0,
        }
    }
}

/// The augmented-Lagrangian solver. It solves feasibility problems only:
/// it ignores `problem.objective`, which every rung problem leaves `None`.
#[derive(Debug, Clone, Default)]
pub struct AlmSolver {
    options: AlmOptions,
}

impl AlmSolver {
    /// Creates a solver with the given options.
    pub fn new(options: AlmOptions) -> Self {
        AlmSolver { options }
    }

    /// Searches for a feasible point from random initial points (plus an
    /// optional warm start) and returns the best outcome.
    ///
    /// The restarts are independent (restart `k` seeds its own generator
    /// with `seed + k`; restart 0 takes the warm start) and run on the work
    /// queue of [`crate::par`] with the [`ThreadBudget`]'s restart workers,
    /// as [`LmSolver`](crate::LmSolver)'s do; a restart started beside an
    /// earlier feasible one stops at its next outer-iteration boundary. The
    /// winner is then chosen by replaying the restarts in order under the
    /// ranking rule of [`crate::stats`], so the outcome is the same at any
    /// worker count.
    pub fn solve(&self, problem: &Problem, warm_start: Option<&[f64]>) -> SolveOutcome {
        let rows = problem.equalities.len() + problem.inequalities.len();
        let workers = ThreadBudget::for_rows(rows).restart_threads;
        self.solve_on(problem, warm_start, workers)
    }

    /// [`solve`](Self::solve) on at most `workers` concurrent restarts.
    fn solve_on(
        &self,
        problem: &Problem,
        warm_start: Option<&[f64]>,
        workers: usize,
    ) -> SolveOutcome {
        debug_assert!(
            problem.objective.is_none(),
            "the penalty solver solves feasibility problems only"
        );
        let restarts = self.options.restarts.max(1);
        let started = std::time::Instant::now();
        let deadline = (self.options.max_seconds > 0.0).then_some(self.options.max_seconds);
        let structure = ProblemStructure::analyze(problem);
        let past_deadline =
            || deadline.is_some_and(|budget| started.elapsed().as_secs_f64() >= budget);
        // A restart after the deadline does not start (`None`); restart 0
        // always runs. A running restart stops at the deadline, and once an
        // earlier restart is feasible (the queue's token).
        let outcomes = parallel_indexed_until_bounded(
            restarts,
            workers,
            |restart, cancel| {
                if restart > 0 && past_deadline() {
                    return None;
                }
                let mut rng = StdRng::seed_from_u64(SEED.wrapping_add(restart as u64));
                let mut x = match (restart, warm_start) {
                    (0, Some(start)) if start.len() == problem.num_vars => start.to_vec(),
                    _ => (0..problem.num_vars)
                        .map(|_| rng.random_range(-INIT_SCALE..INIT_SCALE))
                        .collect(),
                };
                let halt = || cancel.is_set() || past_deadline();
                Some(self.solve_from(problem, &structure, &mut x, &mut rng, &halt))
            },
            |outcome| match outcome {
                None => true,
                Some(outcome) => outcome.status == SolveStatus::Feasible,
            },
        );
        // The replay ends at the first skipped restart. Evaluation is serial
        // inside each restart; the restarts share the workers.
        let stats = SolverStats {
            threads: workers.clamp(1, restarts),
            ..SolverStats::default()
        };
        replay_restarts(outcomes.into_iter().map_while(|outcome| outcome), stats)
    }

    fn solve_from(
        &self,
        problem: &Problem,
        structure: &ProblemStructure,
        x: &mut [f64],
        rng: &mut StdRng,
        halt: &dyn Fn() -> bool,
    ) -> SolveOutcome {
        let n = problem.num_vars;
        let opts = &self.options;
        let mut rho = INITIAL_PENALTY;
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
        // Variables no constraint mentions never receive a gradient, so
        // their Adam state stays zero and their value never moves: the
        // update loop can skip them outright. The gradient buffer is
        // likewise allocated once and re-zeroed per step instead of
        // reallocated `outer × inner` times.
        let active = &structure.active_vars;
        let mut grad = vec![0.0; n];

        let mut best_x = x.to_vec();
        let mut best_violation = finite_or_inf(problem.max_violation(x));

        for outer in 0..opts.outer_iterations {
            if halt() {
                break;
            }
            let mut step_count = 0.0f64;
            for _ in 0..opts.inner_iterations {
                total_iterations += 1;
                step_count += 1.0;
                for &i in active {
                    grad[i] = 0.0;
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
                    x[i] -= LEARNING_RATE * m_hat / (v_hat.sqrt() + eps);
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
            rho *= PENALTY_GROWTH;

            let violation = finite_or_inf(problem.max_violation(x));
            // A feasible best point is never replaced; otherwise the
            // smaller violation wins.
            if best_violation > TOLERANCE && violation < best_violation {
                best_violation = violation;
                best_x = x.to_vec();
            }
            if violation <= TOLERANCE {
                break;
            }
            // Mild perturbation if progress stalls in later outer rounds.
            if outer > 0 && outer % 8 == 0 && violation > 1e3 * TOLERANCE {
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
            status: if violation <= TOLERANCE {
                SolveStatus::Feasible
            } else {
                SolveStatus::Infeasible
            },
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

    /// Everything of an outcome but the worker count, as comparable bits.
    fn outcome_bits(outcome: &SolveOutcome) -> (Vec<u64>, u64, SolverStats) {
        let stats = SolverStats {
            threads: 0,
            ..outcome.stats.clone()
        };
        (
            outcome.assignment.iter().map(|v| v.to_bits()).collect(),
            outcome.violation.to_bits(),
            stats,
        )
    }

    #[test]
    fn parallel_restarts_match_the_sequential_loop() {
        // Contradictory (x = 0 and x = 1): no restart is feasible, so both
        // run and count.
        let mut contradictory = Problem::new(1);
        contradictory.equalities.push(QuadraticForm::variable(0));
        contradictory.equalities.push(QuadraticForm {
            constant: -1.0,
            linear: vec![(0, 1.0)],
            quadratic: Vec::new(),
        });
        // x + y = 2: restart 0 is feasible, so the sequential loop stops
        // there and restart 1, though it ran beside it, is not counted.
        let mut easy = Problem::new(2);
        easy.equalities.push(QuadraticForm {
            constant: -2.0,
            linear: vec![(0, 1.0), (1, 1.0)],
            quadratic: Vec::new(),
        });
        let solver = AlmSolver::new(options_fast());
        for (problem, restarts_counted) in [(&contradictory, 2), (&easy, 1)] {
            let serial = solver.solve_on(problem, None, 1);
            let parallel = solver.solve_on(problem, None, 2);
            assert_eq!(serial.status, parallel.status);
            assert_eq!(outcome_bits(&serial), outcome_bits(&parallel));
            assert_eq!(serial.stats.restarts, restarts_counted);
            assert_eq!(serial.stats.threads, 1);
            assert_eq!(parallel.stats.threads, 2);
        }
    }

    #[test]
    fn the_restart_queue_matches_the_sequential_loop_at_any_worker_count() {
        // A NaN warm start keeps restart 0 infeasible; restart 1 solves
        // x + y = 2. Restarts 2 and 3 run only beside restart 1 and must
        // neither win nor count.
        let mut problem = Problem::new(2);
        problem.equalities.push(QuadraticForm {
            constant: -2.0,
            linear: vec![(0, 1.0), (1, 1.0)],
            quadratic: Vec::new(),
        });
        let solver = AlmSolver::new(AlmOptions {
            restarts: 4,
            ..options_fast()
        });
        let warm = [f64::NAN, f64::NAN];
        let serial = solver.solve_on(&problem, Some(&warm), 1);
        assert_eq!(serial.status, SolveStatus::Feasible);
        assert_eq!(serial.stats.restarts, 2);
        for workers in [2, 8] {
            let queued = solver.solve_on(&problem, Some(&warm), workers);
            assert_eq!(queued.status, serial.status);
            assert_eq!(
                outcome_bits(&queued),
                outcome_bits(&serial),
                "{workers} workers"
            );
        }
    }

    #[test]
    fn a_nan_restart_never_passes_as_feasible() {
        // A NaN warm start keeps restart 0 at NaN. `max_violation` used to
        // score it 0 — feasible — and stop there; now it scores +∞ and
        // restart 1 wins with a real solution of x = 0.
        let mut problem = Problem::new(1);
        problem.equalities.push(QuadraticForm::variable(0));
        let outcome = AlmSolver::new(options_fast()).solve(&problem, Some(&[f64::NAN]));
        assert_eq!(outcome.status, SolveStatus::Feasible);
        assert!(outcome.assignment[0].abs() < 1e-3);
        assert_eq!(outcome.stats.restarts, 2);
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
