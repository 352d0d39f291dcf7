//! The synthesis pipeline (DESIGN.md §2).
//!
//! The paper's algorithms are four sequential steps. [`Pipeline::generate`]
//! runs Steps 1–3 (templates, constraint pairs, Putinar reduction) and
//! records one timing entry and one diagnostic line per step in a
//! [`SynthesisContext`]. Step 4 has one path, the [`Orchestrator`]: on
//! every rung of the ϒ ladder it presolves, then runs weak synthesis
//! ([`Orchestrator::solve`]) or strong enumeration
//! ([`Orchestrator::enumerate`]).

pub mod context;
pub mod orchestrator;

use std::time::Instant;

use polyinv_constraints::pairs::{generate_pairs, PairOptions};
use polyinv_constraints::template::TemplateSet;
use polyinv_constraints::{ConstraintError, GeneratedSystem, SynthesisOptions, UnknownRegistry};
use polyinv_lang::{Precondition, Program};
use polyinv_poly::MonomialTable;

pub use context::{stage_names, StageTimings, SynthesisContext};
pub use orchestrator::{
    EnumeratedInvariant, Enumeration, Orchestrator, OrchestratorOutcome, OrchestratorStats,
    SolveAttempt, SolvePlan,
};

/// The generation pipeline (Steps 1–3) under fixed reduction options.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    options: SynthesisOptions,
}

impl Pipeline {
    /// A pipeline with the given reduction options.
    pub fn new(options: SynthesisOptions) -> Self {
        Pipeline { options }
    }

    /// The reduction options in use.
    pub fn options(&self) -> &SynthesisOptions {
        &self.options
    }

    /// Builds the per-run context for `program` under `pre`.
    pub fn context<'p>(&self, program: &'p Program, pre: &Precondition) -> SynthesisContext<'p> {
        SynthesisContext::new(program, pre, self.options.clone())
    }

    /// Runs Steps 1–3, producing the quadratic system and recording one
    /// timing entry and one diagnostic line per step in `ctx`.
    ///
    /// The output is identical to `polyinv_constraints::generate` (the
    /// single-call form used by code that does not need the timings).
    ///
    /// # Errors
    ///
    /// Returns a [`ConstraintError`] when pair generation rejects the
    /// program (function calls with recursive treatment disabled), or when
    /// the program's or the options' constants overflow the exact
    /// arithmetic.
    pub fn generate(
        &self,
        ctx: &mut SynthesisContext<'_>,
    ) -> Result<GeneratedSystem, ConstraintError> {
        if let Some(error) = &ctx.prepare_error {
            return Err(error.clone());
        }
        // Step 1: one template per label (and, for recursive programs, one
        // post-condition template per function).
        let start = Instant::now();
        let mut registry = UnknownRegistry::new();
        let templates = TemplateSet::build(
            ctx.program,
            &mut registry,
            ctx.options.degree,
            ctx.options.size,
            ctx.recursive,
            &mut ctx.mono_table,
        );
        ctx.note(format!(
            "templates: {} label template(s), {} post-condition template(s), {} unknown(s)",
            templates.invariants.len(),
            templates.postconditions.len(),
            registry.len(),
        ));
        ctx.record(stage_names::TEMPLATES, start.elapsed());

        // Step 2: the constraint pairs `(Γ, g)` of every transition,
        // initiation point, call and return.
        let start = Instant::now();
        let pairs = generate_pairs(
            ctx.program,
            &ctx.cfg,
            &ctx.precondition,
            &templates,
            PairOptions {
                recursive: ctx.recursive,
            },
            &mut ctx.mono_table,
        )?;
        ctx.note(format!("pairs: {} constraint pair(s)", pairs.len()));
        ctx.record(stage_names::PAIRS, start.elapsed());

        // Step 3: the Putinar translation, shared with
        // `polyinv_constraints::generate` so the two entry points cannot
        // diverge. The run's monomial arena moves into the system here (a
        // re-used context starts a new arena).
        let start = Instant::now();
        let mono_table = std::mem::replace(&mut ctx.mono_table, MonomialTable::new());
        let generated = polyinv_constraints::reduce_pairs(
            templates,
            registry,
            pairs,
            &ctx.options,
            ctx.recursive,
            ctx.precondition.clone(),
            mono_table,
        );
        ctx.note(format!(
            "reduction: |S| = {}, {} unknown(s)",
            generated.size(),
            generated.system.num_unknowns(),
        ));
        ctx.record(stage_names::REDUCTION, start.elapsed());
        Ok(generated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_lang::program::RUNNING_EXAMPLE_SOURCE;
    use polyinv_lang::{parse_program, Precondition};

    #[test]
    fn staged_generation_matches_the_single_call_reduction() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let options = SynthesisOptions::default();

        let pipeline = Pipeline::new(options.clone());
        let mut ctx = pipeline.context(&program, &pre);
        let staged = pipeline.generate(&mut ctx).unwrap();
        let reference = polyinv_constraints::generate(&program, &pre, &options).unwrap();

        assert_eq!(staged.size(), reference.size());
        assert_eq!(
            staged.system.num_unknowns(),
            reference.system.num_unknowns()
        );
        assert_eq!(staged.pairs.len(), reference.pairs.len());
        assert_eq!(staged.recursive, reference.recursive);
    }

    #[test]
    fn every_generation_stage_records_a_timing_and_a_diagnostic() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let pipeline = Pipeline::default();
        let mut ctx = pipeline.context(&program, &pre);
        let _ = pipeline.generate(&mut ctx).unwrap();

        let stages: Vec<&str> = ctx.timings().iter().map(|(name, _)| name).collect();
        assert_eq!(
            stages,
            vec![
                stage_names::TEMPLATES,
                stage_names::PAIRS,
                stage_names::REDUCTION
            ]
        );
        assert_eq!(ctx.diagnostics().len(), 3);
        assert!(ctx.timings().generation() > std::time::Duration::ZERO);
    }
}
