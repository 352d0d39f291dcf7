//! Request-level driver: serves a weak-mode [`SynthesisRequest`] through
//! [`synthesize_and_validate`](crate::synthesize_and_validate) and returns
//! an API [`SynthesisReport`] with the [`ValidationRecord`] block filled.
//!
//! This is the engine the `polyinv validate` subcommand and the
//! `reproduce --validate` harness run on. It deliberately shares the
//! Engine's label/assertion resolution helpers and weak report assembly, so
//! a label index or target text means exactly the same thing, and the
//! report reads the same, as in a plain `synth` request.

use polyinv::SolvePlan;
use polyinv_api::engine::{check_backend, escalate_degree, resolve_weak_targets, weak_report};
use polyinv_api::{ApiError, Mode, SynthesisReport, SynthesisRequest};
use polyinv_lang::Precondition;

use crate::{synthesize_and_validate, ValidationConfig};

/// Serves a weak-mode request with validation: synthesize through the
/// orchestrator, then attack the result with trace falsification and the
/// exact-rational re-check.
///
/// The returned report is the Engine's weak-mode report
/// ([`weak_report`]) plus the validation's diagnostics and `validate`
/// record, filled when the solve produced a candidate. A certified solve
/// that fails trace validation keeps
/// [`ReportStatus::Synthesized`](polyinv_api::ReportStatus::Synthesized)
/// (the solver's claim) — callers decide how hard to fail on
/// `validate.passed == false` (the CLI exits non-zero).
///
/// # Errors
///
/// Returns the same [`ApiError`]s as an Engine weak request: parse errors
/// with spans, unknown back-ends/labels, over-degree targets.
pub fn run_validated(
    request: &SynthesisRequest,
    config: &ValidationConfig,
) -> Result<SynthesisReport, ApiError> {
    if request.mode != Mode::Weak {
        return Err(ApiError::InvalidRequest {
            message: "validated synthesis serves weak-mode requests only".to_string(),
        });
    }
    if let Some(name) = &request.backend {
        // Same rejection the Engine applies: an unknown back-end name is a
        // request error, not a silently ignored preference.
        check_backend(name)?;
    }
    let program = polyinv_lang::parse_program(&request.source)?;
    // The exact request validation and plan the Engine's weak mode uses:
    // both entry points accept, reject and solve the same requests.
    let targets = resolve_weak_targets(&program, request)?;
    let (options, escalation) = escalate_degree(&request.options, &targets);
    let mut plan = SolvePlan::new(options).with_solve_budget(request.solve_budget_seconds);
    if let Some(name) = &request.backend {
        plan = plan.with_backend_preference(name);
    }

    let pre = Precondition::from_program(&program);
    let (outcome, validation) = synthesize_and_validate(&program, &pre, &targets, &plan, config)?;
    let mut report = weak_report(request, &program, &outcome, escalation);
    if let Some(validation) = &validation {
        for violation in &validation.trace.violations {
            report.diagnostics.push(format!(
                "trace violation at {}: `{}` fails on inputs {:?} (seed {})",
                violation.label, violation.atom, violation.minimized_inputs, violation.run_seed
            ));
        }
        let exact = &validation.exact;
        if !exact.passed() {
            report.diagnostics.push(format!(
                "exact re-check failed: {} violated by {} (tolerance {})",
                exact.worst_constraint, exact.worst_violation, exact.tolerance
            ));
        }
        report.validate = Some(validation.to_record());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_api::ReportStatus;

    #[test]
    fn non_weak_requests_are_rejected() {
        let request = SynthesisRequest::check("f(x) { return x }");
        let error = run_validated(&request, &ValidationConfig::default()).unwrap_err();
        assert!(matches!(error, ApiError::InvalidRequest { .. }));
    }

    #[test]
    fn request_validation_matches_the_engine() {
        let request = SynthesisRequest::weak("f(x) { return x }").with_backend("loqo");
        assert!(matches!(
            run_validated(&request, &ValidationConfig::default()),
            Err(ApiError::UnknownBackend { .. })
        ));
        let request = SynthesisRequest::weak("f(x) { return x }").with_target_at(99, "x > 0");
        assert!(matches!(
            run_validated(&request, &ValidationConfig::default()),
            Err(ApiError::UnknownLabel { index: 99, .. })
        ));
        // An over-degree target no longer rejects the request: like the
        // Engine, the driver escalates the template degree to fit it.
        let request = SynthesisRequest::weak("f(x) { return x }").with_target("x*x*x + 1 > 0");
        let program = polyinv_lang::parse_program(&request.source).unwrap();
        let targets = resolve_weak_targets(&program, &request).unwrap();
        let (options, note) = escalate_degree(&request.options, &targets);
        assert_eq!(options.degree, 3);
        assert!(note.expect("escalation is diagnosed").contains("escalated"));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with `cargo test --release`"
    )]
    fn validated_weak_requests_fill_the_record() {
        let request = SynthesisRequest::weak(
            r#"
            inc(x) {
                @pre(x >= 0);
                while x <= 10 do
                    x := x + 1
                od;
                return x
            }
            "#,
        )
        .with_id("inc/validate")
        .with_degree(1)
        .with_target("x + 1 > 0");
        let report = run_validated(&request, &ValidationConfig::default()).unwrap();
        assert_eq!(report.status, ReportStatus::Synthesized);
        let record = report
            .validate
            .clone()
            .expect("feasible runs carry a record");
        assert!(record.passed, "diagnostics: {:?}", report.diagnostics);
        assert_eq!(record.trace_runs, 1000);
        assert!(record.exact.expect("exact re-check ran").passed);
        // The record survives the JSON round trip.
        let text = report.to_json_string();
        let reparsed = SynthesisReport::from_json_str(&text).unwrap();
        assert_eq!(reparsed, report);
    }
}
