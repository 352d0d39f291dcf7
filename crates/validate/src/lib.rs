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
//!   violation with its counterexample;
//! * [`driver`] — [`run_validated`]: a weak request served by
//!   `Engine::run_weak`, its outcome attacked by trace falsification, the
//!   report carrying the `validate` record.
//!
//! [`Interpreter`]: polyinv_lang::interp::Interpreter

pub mod driver;

pub mod fuzz;
pub mod generate;
pub mod trace;

use polyinv_api::report::{ExactRecord, ValidationRecord};

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

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_constraints::exact::exact_recheck_ladder;
    use polyinv_constraints::{QuadraticSystem, UnknownRegistry};
    use polyinv_lang::{parse_assertion, parse_program, InvariantMap, Postcondition, Precondition};
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
                &ExactCheckConfig {
                    tolerance: polyinv_arith::Rational::new(1, 100),
                },
            ),
        };
        assert!(report.exact.passed());
        assert!(!report.sound());
        let record = report.to_record();
        assert!(!record.passed);
        assert!(record.trace_violations > 0);
        assert!(record.exact.expect("the certificate is recorded").passed);
    }
}
