//! The staged synthesis pipeline (DESIGN.md §2).
//!
//! The paper's algorithms are four sequential steps. Steps 1–3 are explicit,
//! named [`Stage`]s with typed artifacts:
//!
//! ```text
//! TemplateStage   ()                          → TemplateArtifact   (Step 1)
//! PairStage       &TemplateArtifact           → ConstraintPairs    (Step 2)
//! ReductionStage  (TemplateArtifact, Pairs)   → GeneratedSystem    (Step 3)
//! ```
//!
//! Step 4 has one path: the [`Orchestrator`], which runs the affine presolve
//! (unless `SynthesisOptions::presolve` is off), the LM/penalty portfolio,
//! the polish rounds and the exact certificate on every rung of the ϒ
//! ladder.
//!
//! A [`SynthesisContext`] threads the options, diagnostics and per-stage
//! wall-clock timings through the run; [`Pipeline`] wires the generation
//! stages together. The orchestrator, `StrongSynthesis`, the Engine's
//! generate-only mode and the benchmark harness all generate through it.

pub mod artifacts;
pub mod context;
pub mod orchestrator;
pub mod stages;

use polyinv_constraints::{ConstraintError, GeneratedSystem, SynthesisOptions};
use polyinv_lang::{Precondition, Program};

pub use artifacts::{instantiate_solution, ConstraintPairs, TemplateArtifact};
pub use context::{stage_names, StageTimings, SynthesisContext};
pub use orchestrator::{
    Orchestrator, OrchestratorOutcome, OrchestratorStats, SolveAttempt, SolvePlan,
};
pub use stages::{run_stage, PairStage, ReductionStage, Stage, TemplateStage};

/// The staged generation pipeline (Steps 1–3) under fixed reduction
/// options.
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
    /// timing entry per stage in `ctx`.
    ///
    /// The output is identical to `polyinv_constraints::generate` (the
    /// single-call form used by code that does not need staging).
    ///
    /// # Errors
    ///
    /// Returns a [`ConstraintError`] when pair generation rejects the
    /// program (function calls with recursive treatment disabled).
    pub fn generate(
        &self,
        ctx: &mut SynthesisContext<'_>,
    ) -> Result<GeneratedSystem, ConstraintError> {
        let templates = run_stage(ctx, &TemplateStage, ());
        let pairs = run_stage(ctx, &PairStage, &templates)?;
        Ok(run_stage(ctx, &ReductionStage, (templates, pairs)))
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
