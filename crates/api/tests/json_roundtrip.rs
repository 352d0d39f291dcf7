//! Property tests: arbitrary reports and requests survive a JSON
//! write→parse round trip bit-for-bit.

use polyinv_api::{
    AssertionSpec, Json, Mode, ReportStatus, SynthesisOptions, SynthesisReport, SynthesisRequest,
};
use proptest::prelude::*;

/// Strings over a deliberately nasty alphabet: quotes, backslashes, control
/// characters, multi-byte UTF-8 and astral-plane symbols.
fn arb_string() -> impl Strategy<Value = String> {
    prop::collection::vec(0usize..12, 0..10).prop_map(|picks| {
        const ALPHABET: [&str; 12] = [
            "a", "Z", "0", " ", "\"", "\\", "\n", "\t", "ℓ₅", "ϒ", "😀", "∧",
        ];
        picks.iter().map(|&i| ALPHABET[i]).collect()
    })
}

fn arb_mode() -> impl Strategy<Value = Mode> {
    (0usize..4).prop_map(|i| [Mode::Weak, Mode::Strong, Mode::Check, Mode::GenerateOnly][i])
}

fn arb_status() -> impl Strategy<Value = ReportStatus> {
    (0usize..5).prop_map(|i| {
        [
            ReportStatus::Synthesized,
            ReportStatus::Failed,
            ReportStatus::Certified,
            ReportStatus::NotCertified,
            ReportStatus::Generated,
        ][i]
    })
}

fn arb_report() -> impl Strategy<Value = SynthesisReport> {
    (
        (arb_string(), arb_mode(), arb_status(), arb_string()),
        (
            (0usize..100_000, 0usize..100_000, -1.0e9..1.0e9),
            (0usize..50, 0usize..50),
            prop::collection::vec(arb_string(), 0..6),
            prop::collection::vec((arb_string(), 0.0..3600.0), 0..5),
        ),
    )
        .prop_map(
            |(
                (id, mode, status, backend),
                (
                    (system_size, num_unknowns, violation),
                    (pairs_total, pairs_certified),
                    lines,
                    timings,
                ),
            )| {
                let orchestrator = if pairs_certified % 3 == 0 {
                    None
                } else {
                    Some(polyinv::OrchestratorStats {
                        attempts: pairs_total,
                        rungs_tried: pairs_certified.max(1),
                        rung_reached: (pairs_certified % 5) as u32,
                        winning_backend: backend.clone(),
                        certified: pairs_certified % 2 == 0,
                        certificate_violation: violation.abs() * 1e-7,
                        history: vec![polyinv::SolveAttempt {
                            upsilon: (pairs_total % 3) as u32,
                            backend: backend.clone(),
                            feasible: pairs_total % 2 == 0,
                            violation: violation.abs() * 1e-5,
                            seconds: violation.abs() * 1e-9,
                        }],
                    })
                };
                SynthesisReport {
                    id,
                    mode,
                    status,
                    backend,
                    system_size,
                    num_unknowns,
                    violation,
                    pairs_total,
                    pairs_certified,
                    invariants: lines.clone(),
                    postconditions: lines.clone(),
                    timings,
                    diagnostics: lines,
                    validate: if pairs_total % 3 == 0 {
                        None
                    } else {
                        Some(polyinv_api::ValidationRecord {
                            trace_runs: pairs_total,
                            trace_states: num_unknowns,
                            trace_violations: pairs_certified,
                            exact: (pairs_total % 3 == 1).then(|| polyinv_api::ExactRecord {
                                constraints: system_size,
                                worst_violation: format!("{}/1000000", pairs_certified),
                                worst_violation_f64: pairs_certified as f64 * 1e-6,
                                tolerance: "1/1000".to_string(),
                                passed: pairs_certified == 0,
                            }),
                            passed: pairs_certified == 0,
                        })
                    },
                    solver: if pairs_certified % 2 == 0 {
                        None
                    } else {
                        Some(polyinv_qcqp::SolverStats {
                            iterations: pairs_total,
                            restarts: pairs_certified,
                            final_residual: violation * violation,
                            nnz_jacobian: system_size,
                            nnz_factor: num_unknowns,
                            factorizations: pairs_total + pairs_certified,
                            factor_seconds: violation.abs() * 1e-9,
                            solve_seconds: violation.abs() * 1e-10,
                            eval_seconds: violation.abs() * 1e-11,
                            threads: pairs_total % 9,
                        })
                    },
                    orchestrator,
                    presolve: if pairs_total % 2 == 0 {
                        None
                    } else {
                        Some(polyinv_constraints::PresolveStats {
                            size_before: system_size,
                            size_after: system_size / 2,
                            unknowns_before: num_unknowns,
                            unknowns_after: num_unknowns / 2,
                            rounds: pairs_total,
                            pinned: pairs_certified,
                            fixed: pairs_total,
                            affine: pairs_certified,
                            solved: pairs_total / 2,
                            freed: pairs_certified / 2,
                            rectified: pairs_total / 3,
                            dropped: system_size.saturating_sub(system_size / 2),
                            duplicates: pairs_certified / 3,
                            seconds: violation.abs() * 1e-8,
                        })
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn reports_round_trip_through_json(report in arb_report()) {
        let text = report.to_json_string();
        let reparsed = SynthesisReport::from_json_str(&text).unwrap();
        prop_assert_eq!(&reparsed, &report);
        // Serialization is deterministic: the same report gives the same
        // bytes, and re-serializing the reparsed report changes nothing.
        prop_assert_eq!(reparsed.to_json_string(), text);
    }

    #[test]
    fn json_documents_round_trip_through_the_writer(
        strings in prop::collection::vec(arb_string(), 1..5),
        number in -1.0e12..1.0e12,
    ) {
        let doc = Json::Object(
            strings
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    (format!("k{i}"), match i % 3 {
                        0 => Json::Str(s.clone()),
                        1 => Json::Number(number + i as f64),
                        _ => Json::Array(vec![Json::Str(s.clone()), Json::Bool(i % 2 == 0)]),
                    })
                })
                .collect(),
        );
        let reparsed = Json::parse(&doc.to_string()).unwrap();
        prop_assert_eq!(reparsed, doc);
    }
}

#[test]
fn requests_round_trip_including_options() {
    let request = SynthesisRequest::weak("sum(n) {\n    @pre(n >= 1);\n    return n\n}")
        .with_id("table-2/row-3")
        .with_options(SynthesisOptions::with_degree_and_size(2, 2).with_upsilon(4))
        .with_target("0.5*n_in*n_in + 0.5*n_in + 1 - ret > 0")
        .with_assertion(AssertionSpec::at(3, "n > 0"))
        .with_backend("penalty")
        .with_attempts(9);
    let json = request.to_json().to_string();
    let reparsed = SynthesisRequest::from_json_str(&json).unwrap();
    assert_eq!(reparsed.id, request.id);
    assert_eq!(reparsed.source, request.source);
    assert_eq!(reparsed.mode, request.mode);
    assert_eq!(reparsed.assertions, request.assertions);
    assert_eq!(reparsed.backend, request.backend);
    assert_eq!(reparsed.attempts, request.attempts);
    assert_eq!(reparsed.options.degree, 2);
    assert_eq!(reparsed.options.size, 2);
    assert_eq!(reparsed.options.upsilon, 4);
    // And the serialized form itself is stable.
    assert_eq!(reparsed.to_json().to_string(), json);
}
