//! # polyinv-validate — the soundness validation subsystem
//!
//! The paper's guarantee is *soundness*: a feasible solution of the
//! generated quadratic system instantiates to an inductive invariant. This
//! crate adversarially checks that guarantee, independently of the
//! machinery that produced the solution:
//!
//! * [`generate`] — a seeded, grammar-based `.poly` program generator
//!   (recursion- and nondet-aware, size-bounded, always emitting well-formed
//!   `@pre` specs), opening an unbounded workload beyond the 27 embedded
//!   Table 2/3 programs;
//! * [`trace`] — a falsification harness running every synthesized
//!   invariant against thousands of seeded [`Interpreter`] traces
//!   (per-label obligations, post-conditions at endpoints, minimized
//!   counterexamples);
//! * [`fuzz`] — the driver combining both with the orchestrator's exact
//!   certificate: generate, synthesize, validate, and report any soundness
//!   violation with its counterexample.
//!
//! [`Interpreter`]: polyinv_lang::interp::Interpreter

pub mod driver;

pub mod fuzz;
pub mod generate;
pub mod trace;

use polyinv::{Orchestrator, OrchestratorOutcome, SolvePlan, TargetAssertion};
use polyinv_api::report::{ExactRecord, ValidationRecord};
use polyinv_constraints::ConstraintError;
use polyinv_lang::{Precondition, Program};

pub use driver::run_validated;
pub use fuzz::{run_fuzz, CaseStatus, FuzzCase, FuzzConfig, FuzzSummary};
pub use generate::{generate_program, GenConfig, GeneratedProgram};
pub use polyinv_constraints::exact::{
    exact_assignment, instantiate_exact, ExactCheckConfig, ExactReport,
};
pub use trace::{falsify_traces, TraceCheckConfig, TraceReport, TraceViolation};

/// Configuration of a validation pass. Only trace falsification is
/// configurable: the exact block of a validation is the orchestrator's
/// certificate under the plan's `SolvePlan::certificate`.
#[derive(Debug, Clone, Default)]
pub struct ValidationConfig {
    /// Trace-falsification settings (defaults to 1000 valid runs).
    pub trace: TraceCheckConfig,
}

/// The outcome of validating one synthesized invariant.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    /// The trace-falsification outcome.
    pub trace: TraceReport,
    /// The orchestrator's exact certificate of the attacked invariant.
    pub exact: ExactReport,
}

impl ValidationReport {
    /// `true` when the invariant survived both checks.
    pub fn sound(&self) -> bool {
        self.trace.passed() && self.exact.passed()
    }

    /// The serializable summary attached to API reports.
    pub fn to_record(&self) -> ValidationRecord {
        let exact = &self.exact;
        ValidationRecord {
            trace_runs: self.trace.valid_runs,
            trace_states: self.trace.states_checked,
            trace_violations: self.trace.violations.len(),
            exact: Some(ExactRecord {
                constraints: exact.constraints,
                worst_violation: format!(
                    "{}/{}",
                    exact.worst_violation.numer(),
                    exact.worst_violation.denom()
                ),
                worst_violation_f64: exact.worst_violation.to_f64(),
                tolerance: format!("{}/{}", exact.tolerance.numer(), exact.tolerance.denom()),
                passed: exact.passed(),
            }),
            passed: self.sound(),
        }
    }

    /// Serializes the full report — including counterexample traces — as a
    /// JSON object (the artifact format the fuzz driver writes for CI).
    pub fn to_json(&self) -> polyinv_api::Json {
        use polyinv_api::Json;
        let rational = |value: &polyinv_arith::Rational| Json::string(value.to_string());
        let exact = &self.exact;
        let violations: Vec<Json> = self
            .trace
            .violations
            .iter()
            .map(|violation| {
                Json::object(vec![
                    ("label", Json::string(violation.label.to_string())),
                    ("atom", Json::string(violation.atom.clone())),
                    ("run_seed", Json::string(violation.run_seed.to_string())),
                    (
                        "inputs",
                        Json::Array(violation.inputs.iter().map(rational).collect()),
                    ),
                    (
                        "minimized_inputs",
                        Json::Array(violation.minimized_inputs.iter().map(rational).collect()),
                    ),
                    (
                        "valuation",
                        Json::Object(
                            violation
                                .valuation
                                .iter()
                                .map(|(name, value)| (name.clone(), rational(value)))
                                .collect(),
                        ),
                    ),
                    ("trace_prefix", Json::Number(violation.trace_prefix as f64)),
                ])
            })
            .collect();
        Json::object(vec![
            (
                "trace",
                Json::object(vec![
                    ("valid_runs", Json::Number(self.trace.valid_runs as f64)),
                    (
                        "attempted_runs",
                        Json::Number(self.trace.attempted_runs as f64),
                    ),
                    (
                        "states_checked",
                        Json::Number(self.trace.states_checked as f64),
                    ),
                    ("violations", Json::Array(violations)),
                ]),
            ),
            (
                "exact",
                Json::object(vec![
                    ("constraints", Json::Number(exact.constraints as f64)),
                    ("worst_violation", rational(&exact.worst_violation)),
                    (
                        "worst_constraint",
                        Json::string(exact.worst_constraint.clone()),
                    ),
                    ("tolerance", rational(&exact.tolerance)),
                    ("overflowed", Json::Bool(exact.overflowed)),
                    ("passed", Json::Bool(exact.passed())),
                ]),
            ),
            ("sound", Json::Bool(self.sound())),
        ])
    }
}

/// Weak synthesis with validation: runs the solve orchestrator (ϒ ladder,
/// portfolio race, polish, snap-and-certify) and — when a candidate is
/// float-feasible or certified — trace-falsifies the outcome's invariant
/// and post-conditions as they are. The exact re-check of the validation
/// report *is* the orchestrator's certificate, and the outcome's invariant
/// is instantiated at the point it checked, so trace falsification, the
/// certificate and the report attack one rational point. Returns the
/// orchestrated outcome and, when it was float-feasible or certified, its
/// validation report.
///
/// # Errors
///
/// Returns a [`ConstraintError`] when the generation stages reject the
/// program.
///
/// # Panics
///
/// Panics if a target mentions a monomial outside the template basis at its
/// label (same contract as [`polyinv::fix_targets`]).
pub fn synthesize_and_validate(
    program: &Program,
    pre: &Precondition,
    targets: &[TargetAssertion],
    plan: &SolvePlan,
    config: &ValidationConfig,
) -> Result<(OrchestratorOutcome, Option<ValidationReport>), ConstraintError> {
    let outcome = Orchestrator::new(plan.clone()).solve(program, pre, targets)?;
    let validation = (outcome.feasible || outcome.certified).then(|| ValidationReport {
        trace: falsify_traces(
            program,
            pre,
            &outcome.invariant,
            &outcome.postconditions,
            &config.trace,
        ),
        exact: outcome.exact.clone(),
    });
    Ok((outcome, validation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_constraints::exact::exact_recheck_ladder;
    use polyinv_constraints::{QuadraticSystem, SynthesisOptions, UnknownRegistry};
    use polyinv_lang::{parse_assertion, parse_program, InvariantMap, Postcondition};
    use std::collections::HashMap;

    const INC: &str = r#"
        inc(x) {
            @pre(x >= 0);
            while x <= 10 do
                x := x + 1
            od;
            return x
        }
    "#;

    #[test]
    fn candidate_validation_refutes_a_wrong_invariant() {
        // A refuting trace makes the validation unsound even when the exact
        // certificate (here of an empty system) passes.
        let program = parse_program(INC).unwrap();
        let pre = Precondition::from_program(&program);
        let mut invariant = InvariantMap::new();
        let (poly, _) = parse_assertion(&program, "inc", "5 - x > 0").unwrap();
        invariant.add(program.main().exit_label(), poly);
        let report = ValidationReport {
            trace: falsify_traces(
                &program,
                &pre,
                &invariant,
                &Postcondition::new(),
                &ValidationConfig::default().trace,
            ),
            exact: exact_recheck_ladder(
                &QuadraticSystem::new(UnknownRegistry::new()),
                &[],
                &HashMap::new(),
                &ExactCheckConfig::default(),
            ),
        };
        assert!(report.exact.passed());
        assert!(!report.sound());
        let record = report.to_record();
        assert!(!record.passed);
        assert!(record.trace_violations > 0);
        assert!(record.exact.expect("the certificate is recorded").passed);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with `cargo test --release`"
    )]
    fn synthesized_invariants_validate_end_to_end() {
        let program = parse_program(INC).unwrap();
        let pre = Precondition::from_program(&program);
        let (target, _) = parse_assertion(&program, "inc", "x + 1 > 0").unwrap();
        let options = SynthesisOptions::with_degree_and_size(1, 1).with_upsilon(2);
        let plan = SolvePlan::new(options);
        let (outcome, validation) = synthesize_and_validate(
            &program,
            &pre,
            &[TargetAssertion::new(program.main().exit_label(), target)],
            &plan,
            &ValidationConfig::default(),
        )
        .unwrap();
        assert!(outcome.feasible, "violation {}", outcome.violation);
        assert!(outcome.certified, "exact {:?}", outcome.stats);
        let validation = validation.expect("feasible runs validate");
        assert!(
            validation.sound(),
            "trace: {:?}, exact: {:?}",
            validation.trace.violations,
            validation.exact
        );
        assert_eq!(validation.trace.valid_runs, 1000);
        let record = validation.to_record();
        assert!(record.passed);
        let exact = record.exact.expect("pipeline runs re-check exactly");
        assert!(exact.passed);
        assert!(exact.constraints > 0);
    }
}
