//! Integration tests running the reduction over the benchmark suite and the
//! baseline, checking the "shape" properties reported in the paper's tables.

use polyinv::prelude::*;
use polyinv::{fix_targets, TargetAssertion};
use polyinv_api::engine::{escalate_degree, resolve_weak_targets};
use polyinv_benchmarks::{by_name, table2, table3, Benchmark, Category};
use polyinv_constraints::{instantiate_exact, presolve, PresolveOptions, PresolvedSystem};
use polyinv_farkas::{FarkasBaseline, Inapplicability};
use polyinv_validate::{falsify_traces, TraceCheckConfig};

#[test]
fn small_table2_benchmarks_generate_systems_of_paper_scale() {
    // Generation (Steps 1-3) for a representative subset; the full sweep is
    // done by the `reproduce` binary and the Criterion benches.
    for name in ["sqrt", "freire1", "petter", "cohendiv", "mannadiv"] {
        let benchmark = by_name(name).unwrap();
        let program = benchmark.program().unwrap();
        let pre = benchmark.precondition().unwrap();
        let options = SynthesisOptions::with_degree_and_size(benchmark.paper.d, benchmark.paper.n);
        let generated = polyinv_constraints::generate(&program, &pre, &options).unwrap();
        // Same order of magnitude as the paper's |S| (our encoding counts a
        // few more variables per benchmark — shadow parameters, return
        // variables and sequentialization temporaries — which inflates the
        // monomial bases; see EXPERIMENTS.md).
        assert!(
            generated.size() >= benchmark.paper.system_size / 20
                && generated.size() <= benchmark.paper.system_size * 20,
            "{name}: |S| = {} vs paper {}",
            generated.size(),
            benchmark.paper.system_size
        );
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; run with `cargo test --release`"
)]
fn benchmark_difficulty_ordering_is_preserved() {
    // The paper's largest Table 2 system (euclidex3) must also be our
    // largest among a sample, and the smallest (cohendiv, d=1) our smallest.
    let sizes: Vec<(String, usize)> = ["cohendiv", "sqrt", "euclidex3"]
        .iter()
        .map(|name| {
            let benchmark = by_name(name).unwrap();
            let program = benchmark.program().unwrap();
            let pre = benchmark.precondition().unwrap();
            let options =
                SynthesisOptions::with_degree_and_size(benchmark.paper.d, benchmark.paper.n);
            (
                name.to_string(),
                polyinv_constraints::generate(&program, &pre, &options)
                    .unwrap()
                    .size(),
            )
        })
        .collect();
    assert!(sizes[0].1 < sizes[2].1, "{sizes:?}");
    assert!(sizes[1].1 < sizes[2].1, "{sizes:?}");
}

#[test]
fn every_benchmark_has_consistent_metadata() {
    for benchmark in table2().iter().chain(table3().iter()) {
        let program = benchmark.program().unwrap();
        if benchmark.category == Category::Recursive {
            // The recursive block contains recursive programs (except the
            // RL block which is single-loop by construction).
        } else if benchmark.category == Category::NonRecursive {
            assert!(program.is_simple(), "{} should be simple", benchmark.name);
        }
        // Targets must be representable within the configured degree.
        if let Some(target) = benchmark.target_polynomial(&program).unwrap() {
            assert!(
                target.degree() <= benchmark.paper.d.max(2) + 2,
                "{}: target degree {}",
                benchmark.name,
                target.degree()
            );
        }
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; run with `cargo test --release`"
)]
fn weak_synthesis_closes_a_small_linear_benchmark() {
    // End-to-end Steps 1-4 on a small bounded-counter program: the local
    // solver reliably closes lower-bound style targets of this size.
    let source = r#"
        clamp(x) {
            @pre(x >= 0 && 10 >= x);
            y := 0;
            while y < x do
                y := y + 1
            od;
            return y
        }
    "#;
    let program = parse_program(source).unwrap();
    let pre = Precondition::from_program(&program);
    let exit = program.main().exit_label();
    let (target, _) = parse_assertion(&program, "clamp", "y + 1 - ret > 0").unwrap();
    let plan = SolvePlan::new(SynthesisOptions::default().with_degree(1));
    let outcome = Orchestrator::new(plan)
        .solve(&program, &pre, &[TargetAssertion::new(exit, target)])
        .unwrap();
    assert!(
        outcome.certified,
        "violation {:.3e}, exact {:.3e}",
        outcome.violation, outcome.stats.certificate_violation
    );
    // Any synthesized invariant must survive falsification.
    let config = TraceCheckConfig {
        runs: 200,
        seed: 23,
        ..TraceCheckConfig::default()
    };
    let report = falsify_traces(
        &program,
        &pre,
        &outcome.invariant,
        &outcome.postconditions,
        &config,
    );
    assert!(report.passed(), "{:?}", report.violations);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; run with `cargo test --release`"
)]
fn synthesized_reports_carry_a_passing_exact_certificate() {
    // The orchestrator's acceptance criterion end-to-end: a report may only
    // say `synthesized` when the snapped candidate passed the
    // exact-rational inductiveness re-check, and the validation record's
    // exact block is that same certificate.
    let benchmark = by_name("pw2").unwrap();
    let mut request = polyinv_api::SynthesisRequest::weak(benchmark.source)
        .with_id("pw2/e2e-certificate")
        .with_options(polyinv_bench::options_for(&benchmark));
    if let Some(target) = benchmark.target {
        request = request.with_target(target);
    }
    let report =
        polyinv_validate::run_validated(&request, &polyinv_validate::ValidationConfig::default())
            .unwrap();
    assert_eq!(
        report.status,
        polyinv_api::ReportStatus::Synthesized,
        "diagnostics: {:?}",
        report.diagnostics
    );
    let orchestrator = report
        .orchestrator
        .as_ref()
        .expect("weak reports carry the ladder record");
    assert!(
        orchestrator.certified,
        "synthesized without a certificate: {orchestrator:?}"
    );
    assert!(!orchestrator.history.is_empty());
    let validate = report.validate.as_ref().expect("validation ran");
    let exact = validate
        .exact
        .as_ref()
        .expect("synthesized rows carry the exact re-check");
    assert!(exact.passed, "certificate did not pass: {exact:?}");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; run with `cargo test --release`"
)]
fn reported_invariants_are_the_certified_point() {
    // freire1 certifies at ϒ = 0 with template coefficients no k/64 grid
    // point is near. The report must print the invariant instantiated at
    // the rational point the certificate checked, whose denominators are
    // powers of two.
    let benchmark = by_name("freire1").unwrap();
    let request = polyinv_bench::solve_request(&benchmark);
    let report = polyinv_api::Engine::new().run(&request).unwrap();
    assert_eq!(
        report.status,
        polyinv_api::ReportStatus::Synthesized,
        "diagnostics: {:?}",
        report.diagnostics
    );

    // The same solve the Engine runs, kept for its certificate.
    let program = benchmark.program().unwrap();
    let targets = resolve_weak_targets(&program, &request).unwrap();
    let (options, _) = escalate_degree(&request.options, &targets);
    let plan = SolvePlan::new(options).with_solve_budget(request.solve_budget_seconds);
    let pre = Precondition::from_program(&program);
    let outcome = Orchestrator::new(plan)
        .solve(&program, &pre, &targets)
        .unwrap();
    assert!(outcome.exact.passed());
    let (invariant, _) = instantiate_exact(&program, &outcome.generated, &outcome.exact.values);
    let rendered: Vec<String> = invariant
        .render(&program)
        .lines()
        .map(str::to_string)
        .collect();
    assert!(!rendered.is_empty());
    assert_eq!(report.invariants, rendered);

    for line in &report.invariants {
        for part in line.split('/').skip(1) {
            let digits: String = part.chars().take_while(char::is_ascii_digit).collect();
            let denominator: u128 = digits.parse().unwrap();
            assert!(
                denominator.is_power_of_two(),
                "non-dyadic coefficient in `{line}`"
            );
        }
    }
}

#[test]
fn farkas_baseline_rejects_polynomial_benchmarks_but_handles_linear_ones() {
    // The Table-1 comparison: Colón et al. 2003 cannot handle the polynomial
    // benchmarks the paper targets.
    let cohencu = by_name("cohencu").unwrap();
    let program = cohencu.program().unwrap();
    // cohencu is linear in its updates, so pick one that is genuinely
    // polynomial: prod4br multiplies variables.
    let prod4br = by_name("prod4br").unwrap();
    let poly_program = prod4br.program().unwrap();
    assert!(matches!(
        FarkasBaseline::default().check_applicable(&poly_program),
        Err(Inapplicability::NonLinearAssignment { .. })
    ));
    // The linear ones are accepted and produce smaller systems than Putinar.
    let pre = Precondition::from_program(&program);
    if FarkasBaseline::default().check_applicable(&program).is_ok() {
        let farkas = FarkasBaseline::default().generate(&program, &pre).unwrap();
        let putinar =
            polyinv_constraints::generate(&program, &pre, &SynthesisOptions::default()).unwrap();
        assert!(farkas.size() < putinar.size());
    }
}

/// Generates a benchmark's ϒ = 0 system (the ladder rung Step 4 attempts
/// first), pins its exit target when it has one, and presolves it — the
/// exact input the orchestrator's presolve sees.
fn presolve_first_rung(benchmark: &Benchmark) -> PresolvedSystem {
    let program = benchmark.program().unwrap();
    let pre = benchmark.precondition().unwrap();
    let mut options = SynthesisOptions::with_degree_and_size(benchmark.paper.d, benchmark.paper.n);
    let targets = match benchmark.target_polynomial(&program).unwrap() {
        Some(target) => {
            options.degree = options.degree.max(target.degree());
            vec![TargetAssertion::new(program.main().exit_label(), target)]
        }
        None => Vec::new(),
    };
    let generated =
        polyinv_constraints::generate(&program, &pre, &options.with_upsilon(0)).unwrap();
    let pins = fix_targets(&generated, &targets);
    presolve(&generated.system, &pins, &PresolveOptions::default())
}

#[test]
fn presolve_shrinks_cohendiv_by_at_least_forty_percent() {
    // The headline acceptance bar of the presolve engine: the paper solves
    // cohendiv with |S| = 512; our ϒ = 0 generated system has 860 rows
    // before presolve and must land at or under 60% of that.
    let result = presolve_first_rung(&by_name("cohendiv").unwrap());
    let stats = &result.stats;
    assert!(
        stats.size_reduction() >= 0.40,
        "cohendiv presolve reduction regressed: |S| {} -> {} ({:.1}%)",
        stats.size_before,
        stats.size_after,
        100.0 * stats.size_reduction()
    );
    assert!(
        stats.unknowns_after < stats.unknowns_before,
        "cohendiv presolve eliminated no unknowns"
    );
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "slow without optimizations; run with `cargo test --release`"
)]
fn presolve_never_grows_any_benchmark_system() {
    // Every Table 2/3 row: presolve is monotone in |S| and unknown count,
    // and its bookkeeping is consistent with the surviving system.
    for benchmark in table2().iter().chain(table3().iter()) {
        let result = presolve_first_rung(benchmark);
        let stats = &result.stats;
        assert!(
            stats.size_after <= stats.size_before,
            "{}: presolve grew |S| {} -> {}",
            benchmark.name,
            stats.size_before,
            stats.size_after
        );
        assert!(
            stats.unknowns_after <= stats.unknowns_before,
            "{}: presolve grew unknowns {} -> {}",
            benchmark.name,
            stats.unknowns_before,
            stats.unknowns_after
        );
        assert_eq!(
            stats.size_after,
            result.system.size(),
            "{}: stats disagree with the presolved system",
            benchmark.name
        );
    }
}

#[test]
fn recursive_benchmarks_are_treated_recursively() {
    for name in ["recursive-sum", "pw2"] {
        let benchmark = by_name(name).unwrap();
        let program = benchmark.program().unwrap();
        let pre = benchmark.precondition().unwrap();
        let options = SynthesisOptions::with_degree_and_size(benchmark.paper.d, benchmark.paper.n);
        let generated = polyinv_constraints::generate(&program, &pre, &options).unwrap();
        assert!(
            generated.recursive,
            "{name} must use the recursive algorithm"
        );
        assert!(
            generated
                .templates
                .postcondition(program.main().name())
                .is_some(),
            "{name} must get a post-condition template"
        );
    }
}
