//! The named stages of the synthesis pipeline.
//!
//! Each stage implements [`Stage`]: a pure function from its typed input to
//! its typed artifact, parameterized by the shared [`SynthesisContext`].
//! [`run_stage`] drives one stage and records its wall-clock time under the
//! stage's name, which is how per-stage breakdowns reach the benchmark
//! tables.

use std::time::Instant;

use polyinv_constraints::pairs::{generate_pairs, PairOptions};
use polyinv_constraints::template::TemplateSet;
use polyinv_constraints::{ConstraintError, GeneratedSystem, UnknownRegistry};

use super::artifacts::{ConstraintPairs, TemplateArtifact};
use super::context::{stage_names, SynthesisContext};

/// A named pipeline stage transforming `Input` into `Self::Output`.
pub trait Stage<Input> {
    /// The artifact this stage produces.
    type Output;

    /// The stable stage name used for timing entries and reports.
    fn name(&self) -> &'static str;

    /// Runs the stage.
    fn run(&self, ctx: &mut SynthesisContext<'_>, input: Input) -> Self::Output;
}

/// Runs one stage, recording its wall-clock time in the context.
pub fn run_stage<Input, S: Stage<Input>>(
    ctx: &mut SynthesisContext<'_>,
    stage: &S,
    input: Input,
) -> S::Output {
    let start = Instant::now();
    let output = stage.run(ctx, input);
    ctx.record(stage.name(), start.elapsed());
    output
}

/// Step 1: instantiate one invariant template per label (and, for recursive
/// programs, one post-condition template per function).
#[derive(Debug, Clone, Copy, Default)]
pub struct TemplateStage;

impl Stage<()> for TemplateStage {
    type Output = TemplateArtifact;

    fn name(&self) -> &'static str {
        stage_names::TEMPLATES
    }

    fn run(&self, ctx: &mut SynthesisContext<'_>, _input: ()) -> TemplateArtifact {
        let mut registry = UnknownRegistry::new();
        let templates = TemplateSet::build(
            ctx.program,
            &mut registry,
            ctx.options.degree,
            ctx.options.size,
            ctx.recursive,
        );
        let artifact = TemplateArtifact {
            templates,
            registry,
        };
        ctx.note(format!(
            "templates: {} label template(s), {} post-condition template(s), {} unknown(s)",
            artifact.num_invariant_templates(),
            artifact.num_postcondition_templates(),
            artifact.num_unknowns(),
        ));
        artifact
    }
}

/// Step 2: generate the constraint pairs `(Γ, g)` for every CFG transition,
/// initiation point, call and return.
#[derive(Debug, Clone, Copy, Default)]
pub struct PairStage;

impl<'a> Stage<&'a TemplateArtifact> for PairStage {
    type Output = Result<ConstraintPairs, ConstraintError>;

    fn name(&self) -> &'static str {
        stage_names::PAIRS
    }

    fn run(
        &self,
        ctx: &mut SynthesisContext<'_>,
        input: &'a TemplateArtifact,
    ) -> Result<ConstraintPairs, ConstraintError> {
        let pairs = generate_pairs(
            ctx.program,
            &ctx.cfg,
            &ctx.precondition,
            &input.templates,
            PairOptions {
                recursive: ctx.recursive,
            },
            &mut ctx.mono_table,
        )?;
        ctx.note(format!("pairs: {} constraint pair(s)", pairs.len()));
        Ok(ConstraintPairs { pairs })
    }
}

/// Step 3: translate every pair through Putinar's positivstellensatz into
/// quadratic equalities and inequalities over the unknowns.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReductionStage;

impl Stage<(TemplateArtifact, ConstraintPairs)> for ReductionStage {
    type Output = GeneratedSystem;

    fn name(&self) -> &'static str {
        stage_names::REDUCTION
    }

    fn run(
        &self,
        ctx: &mut SynthesisContext<'_>,
        (templates, pairs): (TemplateArtifact, ConstraintPairs),
    ) -> GeneratedSystem {
        // Step 3 itself is shared with `polyinv_constraints::generate`, so
        // the staged and single-call entry points cannot diverge. The run's
        // monomial arena moves into the generated system here.
        let mono_table = ctx.take_mono_table();
        let generated = polyinv_constraints::reduce_pairs(
            templates.templates,
            templates.registry,
            pairs.pairs,
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
        generated
    }
}
