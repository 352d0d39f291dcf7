//! End-to-end integration test on the paper's running example (Figure 2):
//! front-end → CFG → reduction → certificate checking → falsification.

use polyinv::prelude::*;
use polyinv_lang::cfg::Cfg;
use polyinv_lang::program::RUNNING_EXAMPLE_SOURCE;
use polyinv_lang::Program;
use polyinv_validate::{falsify_traces, TraceCheckConfig, TraceReport};

/// Trace-falsifies `invariant` on `runs` valid seeded runs.
fn trace_check(
    program: &Program,
    pre: &Precondition,
    invariant: &InvariantMap,
    runs: usize,
    seed: u64,
) -> TraceReport {
    let config = TraceCheckConfig {
        runs,
        seed,
        ..TraceCheckConfig::default()
    };
    falsify_traces(program, pre, invariant, &Postcondition::new(), &config)
}

fn margin_aware_invariant(program: &Program) -> InvariantMap {
    let labels = program.main().labels().to_vec();
    let parse = |text: &str| parse_assertion(program, "sum", text).unwrap().0;
    let mut invariant = InvariantMap::new();
    invariant.add(labels[0], parse("n > 0"));
    for (index, (i_term, combined)) in [
        ("8*i - 7", "4*i + 4*s - 3"),
        ("4*i - 3", "4*i + 4*s + 1"),
        ("4*i - 2", "4*i + 4*s + 2"),
        ("4*i - 1", "4*i + 4*s + 3"),
        ("4*i - 1", "4*i + 4*s + 3"),
        ("4*i - 0", "4*i + 4*s + 4"),
        ("4*i - 2", "4*i + 4*s + 2"),
        ("4*i - 1", "4*i + 4*s + 3"),
    ]
    .iter()
    .enumerate()
    {
        invariant.add(labels[index + 1], parse(&format!("{i_term} > 0")));
        invariant.add(labels[index + 1], parse(&format!("{combined} > 0")));
    }
    invariant
}

#[test]
fn figure_2_program_has_the_paper_structure() {
    let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
    // 9 labels (Figure 2) and 10 CFG transitions (Figure 3).
    assert_eq!(program.main().labels().len(), 9);
    assert_eq!(Cfg::build(&program).len(), 10);
    // V^sum = {n, n̄, i, s, ret_sum} (Example 6).
    assert_eq!(program.main().vars().len(), 5);
}

#[test]
fn reduction_matches_example_6_template_counts() {
    let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
    let pre = Precondition::from_program(&program);
    let generated =
        polyinv_constraints::generate(&program, &pre, &SynthesisOptions::default()).unwrap();
    // Example 6: 21 monomials of degree ≤ 2 per label template.
    let entry = program.main().entry_label();
    assert_eq!(generated.templates.invariant(entry).basis.len(), 21);
    // 11 constraint pairs: one per transition plus initiation.
    assert_eq!(generated.pairs.len(), 11);
    // The quadratic system is non-trivial and within the paper's order of
    // magnitude for similarly-sized benchmarks.
    assert!(generated.size() > 1_000);
    assert!(generated.size() < 50_000);
}

#[test]
fn hand_written_strengthening_is_certified_and_not_falsified() {
    let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
    let pre = Precondition::from_program(&program);
    let invariant = margin_aware_invariant(&program);
    let report = check_inductive(
        &program,
        &pre,
        &invariant,
        &Postcondition::new(),
        &SynthesisOptions::default(),
    )
    .unwrap();
    assert!(report.all_certified(), "failures: {:?}", report.failures());
    assert!(trace_check(&program, &pre, &invariant, 150, 3).passed());
}

#[test]
fn the_papers_endpoint_assertion_survives_extensive_falsification() {
    // Appendix B.1 target: ret_sum < 0.5·n̄² + 0.5·n̄ + 1 at label 9.
    let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
    let pre = Precondition::from_program(&program);
    let exit = program.main().exit_label();
    let (goal, _) =
        parse_assertion(&program, "sum", "0.5*n_in*n_in + 0.5*n_in + 1 - ret > 0").unwrap();
    let mut claimed = InvariantMap::new();
    claimed.add(exit, goal);
    assert!(trace_check(&program, &pre, &claimed, 400, 17).passed());
}

#[test]
fn corrupted_strengthenings_are_rejected() {
    let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
    let pre = Precondition::from_program(&program);
    let labels = program.main().labels().to_vec();
    // Claim that s stays below 1 at the return statement: wrong.
    let (wrong, _) = parse_assertion(&program, "sum", "1 - s > 0").unwrap();
    let mut invariant = margin_aware_invariant(&program);
    invariant.add(labels[7], wrong);
    let report = check_inductive(
        &program,
        &pre,
        &invariant,
        &Postcondition::new(),
        &SynthesisOptions::default(),
    )
    .unwrap();
    assert!(!report.all_certified());
    assert!(!trace_check(&program, &pre, &invariant, 300, 5)
        .violations
        .is_empty());
}
