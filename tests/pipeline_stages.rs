//! End-to-end integration test of the generation pipeline: Steps 1–3 run
//! on the running example (Figure 2), the generated system is non-trivial,
//! and the recorded timings cover every step.

use std::time::Duration;

use polyinv::pipeline::stage_names;
use polyinv::prelude::*;
use polyinv_api::{Engine, SynthesisRequest};
use polyinv_bench::options_for;
use polyinv_lang::program::RUNNING_EXAMPLE_SOURCE;

#[test]
fn staged_artifacts_on_the_running_example_are_non_trivial() {
    let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
    let pre = Precondition::from_program(&program);
    let pipeline = Pipeline::default();
    let mut ctx = pipeline.context(&program, &pre);
    let generated = pipeline.generate(&mut ctx).unwrap();

    // Step 1: one template per label, 21 monomials each (Example 6).
    assert!(!generated.templates.invariants.is_empty());
    assert_eq!(generated.templates.invariants.len(), 9);
    assert!(generated.system.registry.template_unknowns().len() >= 9 * 21);

    // Step 2: 11 constraint pairs (10 transitions + initiation).
    assert_eq!(generated.pairs.len(), 11);

    // Step 3: a quadratic system of the paper's order of magnitude.
    assert!(generated.size() > 1_000);
    assert!(generated.size() < 50_000);

    // Every step left a timing entry, in execution order.
    let stages: Vec<&str> = ctx.timings().iter().map(|(name, _)| name).collect();
    assert_eq!(
        stages,
        vec![
            stage_names::TEMPLATES,
            stage_names::PAIRS,
            stage_names::REDUCTION
        ]
    );
    assert!(ctx.timings().generation() > Duration::ZERO);
    // And a diagnostic line per step.
    assert_eq!(ctx.diagnostics().len(), 3);
}

#[test]
fn recursive_sum_system_size_is_within_2x_of_the_paper() {
    // The paper reports |S| = 1700 for recursive-sum (Table 3).
    let benchmark = polyinv_benchmarks::by_name("recursive-sum").unwrap();
    let program = benchmark.program().unwrap();
    let pre = benchmark.precondition().unwrap();
    let pipeline = Pipeline::new(options_for(&benchmark));
    let mut ctx = pipeline.context(&program, &pre);
    let generated = pipeline.generate(&mut ctx).unwrap();
    assert!(
        generated.recursive,
        "recursive-sum uses the recursive algorithm"
    );
    let paper_size = benchmark.paper.system_size;
    assert_eq!(paper_size, 1700);
    assert!(
        generated.size() >= paper_size / 2 && generated.size() <= paper_size * 2,
        "|S| = {} vs paper {paper_size}",
        generated.size()
    );
}

#[test]
fn engine_generation_reports_the_stage_breakdown() {
    let benchmark = polyinv_benchmarks::by_name("recursive-sum").unwrap();
    let engine = Engine::new();
    let report = engine
        .run(
            &SynthesisRequest::generate_only(benchmark.source)
                .with_options(options_for(&benchmark)),
        )
        .unwrap();
    assert!(report.system_size > 0);
    for stage in [
        stage_names::TEMPLATES,
        stage_names::PAIRS,
        stage_names::REDUCTION,
    ] {
        assert!(
            report.stage_seconds(stage) > 0.0,
            "stage {stage} not recorded"
        );
    }
    assert_eq!(report.stage_seconds(stage_names::SOLVE), 0.0);
}
