//! The recursive summation program of Figure 4: recursive invariant
//! generation with post-condition templates (Section 4 of the paper),
//! through the Engine.
//!
//! ```text
//! cargo run --release --example recursive_sum            # generation + falsification
//! cargo run --release --example recursive_sum -- --solve # full Step-4 attempt (minutes)
//! ```

use polyinv::prelude::{parse_assertion, InvariantMap, Postcondition, Precondition};
use polyinv_api::{Engine, ReportStatus, SynthesisRequest};
use polyinv_lang::program::RECURSIVE_EXAMPLE_SOURCE;
use polyinv_validate::{falsify_traces, TraceCheckConfig};

const TARGET: &str = "0.5*n_in*n_in + 0.5*n_in + 1 - ret > 0";

fn main() -> Result<(), polyinv_api::ApiError> {
    let engine = Engine::new();
    println!("{}", RECURSIVE_EXAMPLE_SOURCE.trim());
    println!();

    // Steps 1-3 of RecWeakInvSynth: the recursive reduction instantiates a
    // post-condition template µ(rsum) over {n̄, ret} next to the per-label
    // invariant templates (Example 11 of the paper).
    let generated = engine.run(&SynthesisRequest::generate_only(RECURSIVE_EXAMPLE_SOURCE))?;
    println!(
        "recursive reduction: |S| = {}, unknowns = {}",
        generated.system_size, generated.num_unknowns
    );
    for note in &generated.diagnostics {
        println!("  {note}");
    }
    println!("paper target at the endpoint: {TARGET}");

    if std::env::args().any(|a| a == "--solve") {
        // Step 4: pin the target and hand the full quadratic system to the
        // local solver. This is the expensive path (the paper used a
        // commercial interior-point solver); expect minutes, and possibly a
        // `failed` report — the reproduce harness records the outcomes.
        let request = SynthesisRequest::weak(RECURSIVE_EXAMPLE_SOURCE).with_target(TARGET);
        let report = engine.run(&request)?;
        println!(
            "RecWeakInvSynth: {} (|S| = {}, unknowns = {}, violation = {:.2e}, {:.2}s)",
            report.status,
            report.system_size,
            report.num_unknowns,
            report.violation,
            report.stage_seconds("solve")
        );
        if report.status == ReportStatus::Synthesized {
            println!("synthesized post-condition(s):");
            for line in &report.postconditions {
                println!("  {line}");
            }
        }
    } else {
        // Fast path: cross-check the target with the concrete interpreter —
        // no sampled valid run may violate it. (Pass `--solve` for the full
        // Step-4 synthesis attempt.)
        let program = engine.parse_program(RECURSIVE_EXAMPLE_SOURCE)?;
        let pre = Precondition::from_program(&program);
        let mut claimed = InvariantMap::new();
        let (goal, _) = parse_assertion(&program, "rsum", TARGET)?;
        claimed.add(program.main().exit_label(), goal);
        let traces = TraceCheckConfig {
            runs: 300,
            seed: 11,
            ..TraceCheckConfig::default()
        };
        let report = falsify_traces(&program, &pre, &claimed, &Postcondition::new(), &traces);
        println!(
            "falsification of the target over 300 sampled runs: {}",
            if report.violations.is_empty() {
                "no counterexample (consistent with the paper's result)"
            } else {
                "counterexample found"
            }
        );
        assert!(report.passed());
    }
    Ok(())
}
