//! Request-level driver: serves a weak-mode [`SynthesisRequest`] through
//! [`Engine::run_weak`] and returns its report with the
//! [`ValidationRecord`](polyinv_api::ValidationRecord) block filled.
//!
//! This is the engine the `polyinv validate` subcommand and the
//! `reproduce --validate` harness run on. The parse, request validation,
//! degree escalation, solve plan and report are the Engine's own, so a
//! validated request is accepted, solved and reported exactly as a plain
//! `synth` request; the driver only adds the trace falsification.

use polyinv_api::{ApiError, Engine, SynthesisReport, SynthesisRequest};
use polyinv_lang::Precondition;

use crate::{falsify_traces, ValidationConfig, ValidationReport};

/// Serves a weak-mode request with validation: synthesize through
/// [`Engine::run_weak`], then attack a float-feasible or certified outcome
/// with trace falsification. The exact block of the validation is the
/// orchestrator's certificate, and the outcome's invariant is instantiated
/// at the point it checked, so trace falsification, the certificate and the
/// report attack one rational point.
///
/// The returned report is the Engine's weak-mode report plus the
/// validation's diagnostics and `validate` record. A certified solve
/// that fails trace validation keeps
/// [`ReportStatus::Synthesized`](polyinv_api::ReportStatus::Synthesized)
/// (the solver's claim) — callers decide how hard to fail on
/// `validate.passed == false` (the CLI exits non-zero).
///
/// # Errors
///
/// Returns the errors of [`Engine::run_weak`].
pub fn run_validated(
    engine: &Engine,
    request: &SynthesisRequest,
    config: &ValidationConfig,
) -> Result<SynthesisReport, ApiError> {
    let (program, outcome, mut report) = engine.run_weak(request)?;
    if !(outcome.feasible || outcome.certified) {
        return Ok(report);
    }
    let validation = ValidationReport {
        trace: falsify_traces(
            &program,
            &Precondition::from_program(&program),
            &outcome.invariant,
            &outcome.postconditions,
            &config.trace,
        ),
        exact: *outcome.exact,
    };
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
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_api::engine::{escalate_degree, resolve_weak_targets};
    use polyinv_api::ReportStatus;

    #[test]
    fn non_weak_requests_are_rejected() {
        let request = SynthesisRequest::check("f(x) { return x }");
        let error =
            run_validated(&Engine::new(), &request, &ValidationConfig::default()).unwrap_err();
        assert!(matches!(error, ApiError::InvalidRequest { .. }));
    }

    #[test]
    fn request_validation_matches_the_engine() {
        let engine = Engine::new();
        let request = SynthesisRequest::weak("f(x) { return x }").with_backend("loqo");
        assert!(matches!(
            run_validated(&engine, &request, &ValidationConfig::default()),
            Err(ApiError::UnknownBackend { .. })
        ));
        let request = SynthesisRequest::weak("f(x) { return x }").with_target_at(99, "x > 0");
        assert!(matches!(
            run_validated(&engine, &request, &ValidationConfig::default()),
            Err(ApiError::UnknownLabel { index: 99, .. })
        ));
        // An over-degree target no longer rejects the request: like the
        // Engine, the driver escalates the template degree to fit it.
        let request = SynthesisRequest::weak("f(x) { return x }").with_target("x*x*x + 1 > 0");
        let program = engine.parse_program(&request.source).unwrap();
        let targets = resolve_weak_targets(&program, &request).unwrap();
        let (options, note) = escalate_degree(&request.options, &targets);
        assert_eq!(options.degree, 3);
        assert!(note.expect("escalation is diagnosed").contains("escalated"));
    }

    #[test]
    fn validated_runs_parse_through_the_engine_cache() {
        let engine = Engine::new();
        let request = SynthesisRequest::weak("f(x) { @pre(x >= 0); return x }")
            .with_degree(1)
            .with_target("x + 1 > 0");
        let mut config = ValidationConfig::default();
        config.trace.runs = 10;
        run_validated(&engine, &request, &config).unwrap();
        run_validated(&engine, &request, &config).unwrap();
        assert_eq!(engine.cached_programs(), 1);
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
        let report = run_validated(&Engine::new(), &request, &ValidationConfig::default()).unwrap();
        assert_eq!(report.status, ReportStatus::Synthesized);
        let record = report
            .validate
            .clone()
            .expect("feasible runs carry a record");
        assert!(record.passed, "diagnostics: {:?}", report.diagnostics);
        assert_eq!(record.trace_runs, 1000);
        let exact = record.exact.expect("exact re-check ran");
        assert!(exact.passed);
        assert!(exact.constraints > 0);
        // The record survives the JSON round trip.
        let text = report.to_json_string();
        let reparsed = SynthesisReport::from_json_str(&text).unwrap();
        assert_eq!(reparsed, report);
    }
}
