//! The paper's running example (Figures 2 and 3, Appendix B.1): the
//! non-deterministic summation program.
//!
//! This example demonstrates the *checking* direction through the Engine:
//! a hand-written inductive strengthening is certified by searching for the
//! sum-of-squares certificate of every constraint pair (Lemma 3.6), and a
//! deliberately wrong assertion is both refuted by the checker and falsified
//! by the interpreter.
//!
//! ```text
//! cargo run --release --example nondet_summation
//! ```

use polyinv::prelude::{parse_assertion, InvariantMap, Postcondition, Precondition};
use polyinv_api::{Engine, ReportStatus, SynthesisRequest};
use polyinv_lang::program::RUNNING_EXAMPLE_SOURCE;
use polyinv_validate::{falsify_traces, TraceCheckConfig};

fn main() -> Result<(), polyinv_api::ApiError> {
    let engine = Engine::new();
    println!("{}", RUNNING_EXAMPLE_SOURCE.trim());
    println!();

    // The paper's goal (Example 1 / Appendix B.1): at the endpoint label,
    // ret_sum < 0.5·n̄² + 0.5·n̄ + 1.
    println!("target at the endpoint: 0.5*n_in*n_in + 0.5*n_in + 1 - ret > 0");

    // A margin-aware inductive strengthening of the linear facts
    // (i ≥ 1, s ≥ 0, n ≥ 1) that every reachable state satisfies. Because
    // consecution constraints relax the antecedent to ≥ 0 but require the
    // consequent with a positivity witness, the constant terms stagger
    // along the control flow. Conjuncts attach to labels by index into the
    // main function's label list.
    let mut check = SynthesisRequest::check(RUNNING_EXAMPLE_SOURCE).with_target_at(0, "n > 0");
    for (index, (i_term, combined)) in [
        ("8*i - 7", "4*i + 4*s - 3"), // label 2
        ("4*i - 3", "4*i + 4*s + 1"), // label 3 (loop head)
        ("4*i - 2", "4*i + 4*s + 2"), // label 4 (if ⋆)
        ("4*i - 1", "4*i + 4*s + 3"), // label 5 (s := s + i)
        ("4*i - 1", "4*i + 4*s + 3"), // label 6 (skip)
        ("4*i - 0", "4*i + 4*s + 4"), // label 7 (i := i + 1)
        ("4*i - 2", "4*i + 4*s + 2"), // label 8 (return)
        ("4*i - 1", "4*i + 4*s + 3"), // label 9 (endpoint)
    ]
    .iter()
    .enumerate()
    {
        check = check
            .with_target_at(index + 1, format!("{i_term} > 0"))
            .with_target_at(index + 1, format!("{combined} > 0"));
    }
    let report = engine.run(&check)?;
    println!(
        "certificate check of the strengthening: {}/{} constraint pairs certified",
        report.pairs_certified, report.pairs_total
    );
    assert_eq!(report.status, ReportStatus::Certified);

    // Cross-check with the interpreter: no sampled valid run violates it.
    // (Falsification works on the parsed program, shared via the Engine's
    // cache.)
    let program = engine.parse_program(RUNNING_EXAMPLE_SOURCE)?;
    let pre = Precondition::from_program(&program);
    let labels = program.main().labels().to_vec();
    let mut invariant = InvariantMap::new();
    let parse = |text: &str| parse_assertion(&program, "sum", text).map(|(p, _)| p);
    invariant.add(labels[0], parse("n > 0")?);
    let traces = TraceCheckConfig {
        runs: 200,
        seed: 7,
        ..TraceCheckConfig::default()
    };
    let post = Postcondition::new();
    assert!(falsify_traces(&program, &pre, &invariant, &post, &traces).passed());
    println!("falsification: no violation in 200 sampled runs");

    // A wrong assertion (s stays below 1) is rejected by both directions.
    let wrong = SynthesisRequest::check(RUNNING_EXAMPLE_SOURCE).with_target_at(7, "1 - s > 0");
    let report = engine.run(&wrong)?;
    let mut claimed = InvariantMap::new();
    claimed.add(labels[7], parse("1 - s > 0")?);
    let falsified = !falsify_traces(&program, &pre, &claimed, &post, &traces)
        .violations
        .is_empty();
    println!(
        "wrong assertion: certified = {}, falsified = {falsified}",
        report.status == ReportStatus::Certified,
    );
    assert_eq!(report.status, ReportStatus::NotCertified);
    assert!(falsified);
    Ok(())
}
