//! The independent oracle: the exact-rational interpreter's trace
//! falsification, run on the invariant instantiated at the snapped
//! assignment the certificate covers.

use polyinv_constraints::exact::ExactCheckConfig;
use polyinv_constraints::GeneratedSystem;
use polyinv_lang::{Precondition, Program};
use polyinv_validate::{
    exact_assignment, falsify_traces, instantiate_exact, TraceCheckConfig, TraceReport,
};

/// The oracle's finding on one invariant (the default: nothing checked).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Oracle {
    /// Valid traces run.
    pub trace_runs: usize,
    /// States checked on those traces.
    pub trace_states: usize,
    /// Reachable states violating the invariant.
    pub violations: usize,
    /// The first violation, rendered (`label: atom on inputs`).
    pub first_violation: Option<String>,
}

impl Oracle {
    fn from_report(report: &TraceReport, requested: usize) -> Self {
        Oracle {
            trace_runs: report.valid_runs.min(requested),
            trace_states: report.states_checked,
            violations: report.violations.len(),
            first_violation: report.violations.first().map(|v| {
                format!(
                    "{}: {} on inputs {:?}",
                    v.label,
                    v.atom,
                    v.minimized_inputs
                        .iter()
                        .map(ToString::to_string)
                        .collect::<Vec<_>>()
                )
            }),
        }
    }

    /// A reachable state violates the invariant.
    pub fn refuted(&self) -> bool {
        self.violations > 0
    }

    /// No violation, and the requested number of valid traces ran.
    pub fn survived(&self, requested: usize) -> bool {
        !self.refuted() && self.trace_runs >= requested
    }

    pub fn label(&self, requested: usize) -> &'static str {
        if self.refuted() {
            "refuted"
        } else if self.survived(requested) {
            "survived"
        } else {
            "uncovered"
        }
    }
}

/// Trace-falsifies the invariant (and post-conditions) instantiated at the
/// snapped `assignment` of `generated`.
pub fn check(
    program: &Program,
    pre: &Precondition,
    generated: &GeneratedSystem,
    assignment: &[f64],
    certificate: &ExactCheckConfig,
    trace: &TraceCheckConfig,
) -> Oracle {
    let values = exact_assignment(&generated.system, assignment, certificate);
    let (invariant, post) = instantiate_exact(program, generated, &values);
    Oracle::from_report(
        &falsify_traces(program, pre, &invariant, &post, trace),
        trace.runs,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_lang::{InvariantMap, Postcondition};

    /// Trace-falsifies a hand-written invariant (`text` at the main function's
    /// exit label); the oracle's self-test entry point.
    fn check_text(program: &Program, text: &str, trace: &TraceCheckConfig) -> Oracle {
        let pre = Precondition::from_program(program);
        let (poly, _) = polyinv_lang::parse_assertion(program, program.main().name(), text)
            .expect("the assertion parses");
        let mut invariant = InvariantMap::new();
        invariant.add(program.main().exit_label(), poly);
        Oracle::from_report(
            &falsify_traces(program, &pre, &invariant, &Postcondition::new(), trace),
            trace.runs,
        )
    }

    const INC: &str = include_str!("../../programs/inc.poly");

    #[test]
    fn the_oracle_flags_a_known_false_invariant() {
        let program = polyinv_lang::parse_program(INC).unwrap();
        let config = polyinv_bench::validation_for_tables().trace;
        let oracle = check_text(&program, "5 - x > 0", &config);
        assert!(oracle.refuted(), "{oracle:?}");
        assert_eq!(oracle.label(config.runs), "refuted");
        assert!(oracle.first_violation.is_some());
    }

    #[test]
    fn the_oracle_passes_a_true_invariant() {
        let program = polyinv_lang::parse_program(INC).unwrap();
        let config = polyinv_bench::validation_for_tables().trace;
        let oracle = check_text(&program, "x + 1 > 0", &config);
        assert!(oracle.survived(config.runs), "{oracle:?}");
        assert_eq!(oracle.trace_runs, 1000);
    }
}
