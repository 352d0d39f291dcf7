//! Strong invariant synthesis (`StrongInvSynth` / `RecStrongInvSynth`).
//!
//! The strong variant asks for a *representative set* of inductive
//! invariants. The paper's theoretical algorithm obtains one solution per
//! connected component of the solution variety via Grigor'ev–Vorobjov, but
//! explicitly notes (Remark 8) that the procedure is impractical and never
//! runs it. This module provides the practical substitute documented in
//! DESIGN.md §4: the quadratic system produced by the pipeline's generation
//! stages is solved repeatedly from different random seeds and with
//! diversified regularization objectives; distinct feasible solutions
//! (measured by the distance between their template coefficient vectors)
//! form the returned representative set.
//!
//! The solve attempts are independent, so they run **in parallel**; the
//! deduplication that builds the representative set scans the outcomes in
//! attempt order, keeping the result identical to the sequential algorithm.

use polyinv_constraints::{ConstraintError, SynthesisOptions};
use polyinv_lang::{InvariantMap, Postcondition, Precondition, Program};
use polyinv_qcqp::par::parallel_indexed;
use polyinv_qcqp::{LmOptions, LmSolver, QuadraticForm, SolveStatus};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::bridge::system_to_problem;
use crate::pipeline::{instantiate_solution, Pipeline};

/// Options of the multi-start enumeration.
#[derive(Debug, Clone)]
pub struct StrongOptions {
    /// Reduction options (degree, size, ϒ, encoding, …).
    pub synthesis: SynthesisOptions,
    /// Solver options used for each start.
    pub solver: LmOptions,
    /// Number of solve attempts.
    pub attempts: usize,
    /// Two solutions whose template-coefficient vectors differ by less than
    /// this (Euclidean) distance are considered the same invariant.
    pub distinctness_threshold: f64,
}

impl Default for StrongOptions {
    fn default() -> Self {
        StrongOptions {
            synthesis: SynthesisOptions::default(),
            solver: LmOptions {
                restarts: 1,
                objective_weight: 0.02,
                ..LmOptions::default()
            },
            attempts: 8,
            distinctness_threshold: 0.5,
        }
    }
}

/// A member of the representative set returned by [`StrongSynthesis`].
#[derive(Debug, Clone)]
pub struct StrongSolution {
    /// The invariant map.
    pub invariant: InvariantMap,
    /// The post-conditions (recursive programs).
    pub postconditions: Postcondition,
    /// The template-coefficient vector of the solution (used for
    /// distinctness).
    pub coefficients: Vec<f64>,
}

/// The strong-synthesis driver.
///
/// Deprecated as a public entry point: the stable surface is
/// `polyinv_api::Engine` with `Mode::Strong`. The driver remains as the
/// Engine's internal implementation.
#[deprecated(
    since = "0.2.0",
    note = "use `polyinv_api::Engine` with a strong-mode `SynthesisRequest`"
)]
#[derive(Debug, Clone, Default)]
pub struct StrongSynthesis {
    options: StrongOptions,
}

#[allow(deprecated)]
impl StrongSynthesis {
    /// Creates a driver with the given options.
    pub fn new(options: StrongOptions) -> Self {
        StrongSynthesis { options }
    }

    /// Enumerates a representative set of inductive invariants of the
    /// requested shape.
    ///
    /// Like the solve orchestrator, enumeration climbs the multiplier-degree
    /// ladder: the much smaller ϒ = 0 system (constant multipliers) is
    /// attempted first, and the full-ϒ reduction only when the cheap rung
    /// finds nothing. Soundness is unaffected — every accepted solution
    /// satisfies the system it was solved against.
    ///
    /// # Errors
    ///
    /// Returns a [`ConstraintError`] when the generation stages reject the
    /// program.
    pub fn enumerate(
        &self,
        program: &Program,
        pre: &Precondition,
    ) -> Result<Vec<StrongSolution>, ConstraintError> {
        let ladder = self.options.synthesis.upsilon_ladder();
        for (step, &upsilon) in ladder.iter().enumerate() {
            let options = self.options.synthesis.clone().with_upsilon(upsilon);
            let solutions = self.enumerate_with(program, pre, &options)?;
            if !solutions.is_empty() || step + 1 == ladder.len() {
                return Ok(solutions);
            }
        }
        unreachable!("the ladder is never empty")
    }

    fn enumerate_with(
        &self,
        program: &Program,
        pre: &Precondition,
        synthesis: &SynthesisOptions,
    ) -> Result<Vec<StrongSolution>, ConstraintError> {
        let pipeline = Pipeline::new(synthesis.clone());
        let mut ctx = pipeline.context(program, pre);
        let generated = pipeline.generate(&mut ctx)?;
        let template_ids = generated.system.registry.template_unknowns();
        let base_problem = system_to_problem(&generated.system);

        // Independent diversified attempts, fanned out over worker threads.
        // Each attempt starts from its own slightly-positive warm start:
        // centered near 0.05 (keeping the Cholesky diagonals in the interior
        // of their bounds, like the orchestrator's cold start) but jittered
        // deterministically per attempt, so the attempts explore different
        // basins even when the solver runs a single restart.
        let attempts = self.options.attempts.max(1);
        let outcomes = parallel_indexed(attempts, |attempt| {
            // Attempt 0 keeps the uniform interior point the orchestrator
            // cold-starts from (the most reliable start); later attempts jitter it with
            // a per-attempt seeded generator, staying in `[0.01, 0.09)` so
            // Cholesky diagonals and witnesses start inside their bounds.
            let warm: Vec<f64> = if attempt == 0 {
                vec![0.05; base_problem.num_vars]
            } else {
                let mut rng =
                    StdRng::seed_from_u64(self.options.solver.seed.wrapping_add(attempt as u64));
                (0..base_problem.num_vars)
                    .map(|_| rng.random_range(0.01..0.09))
                    .collect()
            };
            let mut problem = base_problem.clone();
            // Diversify: alternate between pushing the template coefficients
            // towards and away from zero along directions derived from the
            // attempt index.
            let mut objective = QuadraticForm::constant(0.0);
            for (k, id) in template_ids.iter().enumerate() {
                let direction = if (attempt + k) % 2 == 0 { 1.0 } else { -1.0 };
                let weight = 0.01 * direction * ((attempt + 1) as f64);
                objective.linear.push((id.index(), weight));
            }
            problem.objective = Some(objective);

            let solver = LmSolver::new(LmOptions {
                seed: self.options.solver.seed.wrapping_add(attempt as u64 * 7919),
                // The attempt loop is already the parallel level.
                parallel_restarts: false,
                ..self.options.solver.clone()
            });
            solver.solve(&problem, Some(&warm))
        });

        // Deterministic dedup in attempt order.
        let mut solutions: Vec<StrongSolution> = Vec::new();
        for outcome in outcomes {
            if outcome.status != SolveStatus::Feasible {
                continue;
            }
            let coefficients: Vec<f64> = template_ids
                .iter()
                .map(|id| outcome.assignment[id.index()])
                .collect();
            let is_new = solutions.iter().all(|existing| {
                let distance: f64 = existing
                    .coefficients
                    .iter()
                    .zip(&coefficients)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>()
                    .sqrt();
                distance > self.options.distinctness_threshold
            });
            if is_new {
                let (invariant, postconditions) =
                    instantiate_solution(program, &generated, &outcome.assignment);
                solutions.push(StrongSolution {
                    invariant,
                    postconditions,
                    coefficients,
                });
            }
        }
        Ok(solutions)
    }
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use polyinv_constraints::SosEncoding;
    use polyinv_lang::parse_program;

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with `cargo test --release`"
    )]
    fn enumeration_finds_multiple_distinct_invariants_for_a_tiny_program() {
        // x := x + 1 in a bounded loop admits many linear invariants.
        let source = r#"
            inc(x) {
                @pre(x >= 0);
                while x <= 5 do
                    x := x + 1
                od;
                return x
            }
        "#;
        let program = parse_program(source).unwrap();
        let pre = Precondition::from_program(&program);
        let options = StrongOptions {
            synthesis: SynthesisOptions::with_degree_and_size(1, 1)
                .with_upsilon(2)
                .with_encoding(SosEncoding::Cholesky),
            solver: LmOptions {
                restarts: 1,
                objective_weight: 0.02,
                tolerance: 1e-6,
                ..LmOptions::default()
            },
            attempts: 4,
            distinctness_threshold: 0.25,
        };
        let solutions = StrongSynthesis::new(options)
            .enumerate(&program, &pre)
            .unwrap();
        assert!(
            !solutions.is_empty(),
            "at least one inductive invariant should be found"
        );
        // Every returned solution is a *distinct* coefficient vector.
        for (i, a) in solutions.iter().enumerate() {
            for b in solutions.iter().skip(i + 1) {
                let distance: f64 = a
                    .coefficients
                    .iter()
                    .zip(&b.coefficients)
                    .map(|(x, y)| (x - y) * (x - y))
                    .sum::<f64>()
                    .sqrt();
                assert!(distance > 0.25);
            }
        }
    }
}
