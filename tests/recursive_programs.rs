//! Integration tests for the recursive fragment: abstract-path constraint
//! pairs, post-condition templates and the interpreter on recursive
//! programs.

use polyinv::prelude::*;
use polyinv_arith::Rational;
use polyinv_constraints::pairs::PairKind;
use polyinv_lang::interp::{Interpreter, NondetOracle, SeededOracle};
use polyinv_lang::program::RECURSIVE_EXAMPLE_SOURCE;
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

struct AlwaysAdd;
impl NondetOracle for AlwaysAdd {
    fn choose(&mut self) -> bool {
        true
    }
    fn havoc(&mut self) -> Rational {
        Rational::zero()
    }
}

#[test]
fn figure_4_reduction_produces_call_and_post_condition_pairs() {
    let program = parse_program(RECURSIVE_EXAMPLE_SOURCE).unwrap();
    let pre = Precondition::from_program(&program);
    let generated =
        polyinv_constraints::generate(&program, &pre, &SynthesisOptions::default()).unwrap();
    assert!(generated.recursive);
    let call_pairs = generated
        .pairs
        .iter()
        .filter(|p| p.kind == PairKind::CallConsecution)
        .count();
    let post_pairs = generated
        .pairs
        .iter()
        .filter(|p| p.kind == PairKind::PostConsecution)
        .count();
    assert_eq!(call_pairs, 1, "one recursive call site");
    assert_eq!(post_pairs, 2, "two return statements");
    // The µ(rsum) template of Example 11 has 6 monomials.
    assert_eq!(
        generated
            .templates
            .postcondition("rsum")
            .unwrap()
            .basis
            .len(),
        6
    );
}

#[test]
fn recursive_interpreter_matches_the_closed_form() {
    let program = parse_program(RECURSIVE_EXAMPLE_SOURCE).unwrap();
    let interpreter = Interpreter::new(&program, 100_000);
    for n in 0..10i64 {
        let trace = interpreter.run(&[Rational::from_int(n)], &mut AlwaysAdd);
        assert_eq!(
            trace.return_value,
            Some(Rational::from_int(n * (n + 1) / 2)),
            "rsum({n})"
        );
    }
}

#[test]
fn paper_target_for_recursive_sum_is_never_falsified() {
    let benchmark = polyinv_benchmarks::by_name("recursive-sum").unwrap();
    let program = benchmark.program().unwrap();
    let pre = benchmark.precondition().unwrap();
    let target = benchmark.target_polynomial(&program).unwrap().unwrap();
    let mut claimed = InvariantMap::new();
    claimed.add(program.main().exit_label(), target);
    assert!(trace_check(&program, &pre, &claimed, 300, 29).passed());
}

#[test]
fn merge_sort_inversion_bound_holds_on_sampled_runs() {
    // The Appendix B.2 merge-sort returns the number of inversions, bounded
    // by C(k, 2) for a range of length k; our havoc-based floor model must
    // preserve that bound on valid runs.
    let benchmark = polyinv_benchmarks::by_name("merge-sort").unwrap();
    let program = benchmark.program().unwrap();
    let pre = benchmark.precondition().unwrap();
    let target = benchmark.target_polynomial(&program).unwrap().unwrap();
    let mut claimed = InvariantMap::new();
    claimed.add(program.main().exit_label(), target);
    assert!(trace_check(&program, &pre, &claimed, 120, 31).passed());
}

#[test]
fn pw2_supports_multiple_conjuncts_per_label() {
    // The pw2 row of Table 3 uses n = 2 assertions per label.
    let benchmark = polyinv_benchmarks::by_name("pw2").unwrap();
    let program = benchmark.program().unwrap();
    let pre = benchmark.precondition().unwrap();
    let options = SynthesisOptions::with_degree_and_size(1, 2);
    let generated = polyinv_constraints::generate(&program, &pre, &options).unwrap();
    let entry = program.main().entry_label();
    assert_eq!(generated.templates.invariant(entry).conjuncts.len(), 2);
    // Interpreter sanity: pw2 returns the largest power of two ≤ x.
    let interpreter = Interpreter::new(&program, 100_000);
    let mut oracle = SeededOracle::new(1, 1);
    for (input, expected) in [(1i64, 1i64), (2, 2), (3, 2), (9, 8), (16, 16), (31, 16)] {
        let trace = interpreter.run(&[Rational::from_int(input)], &mut oracle);
        assert_eq!(trace.return_value, Some(Rational::from_int(expected)));
    }
}
