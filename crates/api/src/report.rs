//! The serializable response side of the API.
//!
//! A report's `solver`, `presolve` and `orchestrator` blocks are the
//! algorithm crates' own statistics types ([`SolverStats`],
//! [`PresolveStats`], [`OrchestratorStats`]); their JSON forms are the free
//! functions at the end of this module.

use std::fmt;

use polyinv::{OrchestratorStats, SolveAttempt};
use polyinv_constraints::PresolveStats;
use polyinv_qcqp::SolverStats;

use crate::error::ApiError;
use crate::json::Json;
use crate::request::Mode;

/// The outcome of serving a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportStatus {
    /// Weak/strong synthesis found (at least) one inductive invariant.
    Synthesized,
    /// The solver ran but did not reach feasibility; the report's invariants
    /// are the best attempt and must not be trusted.
    Failed,
    /// Every constraint pair of the candidate was certified: the candidate
    /// is a proven inductive invariant.
    Certified,
    /// At least one pair could not be certified (inconclusive; see the
    /// report diagnostics).
    NotCertified,
    /// Generation-only run completed (Steps 1–3, no solve attempt).
    Generated,
}

impl ReportStatus {
    /// The stable string form used in JSON and on the CLI.
    pub fn as_str(&self) -> &'static str {
        match self {
            ReportStatus::Synthesized => "synthesized",
            ReportStatus::Failed => "failed",
            ReportStatus::Certified => "certified",
            ReportStatus::NotCertified => "not-certified",
            ReportStatus::Generated => "generated",
        }
    }

    /// `true` for the statuses that mean "the request succeeded".
    pub fn is_success(&self) -> bool {
        matches!(
            self,
            ReportStatus::Synthesized | ReportStatus::Certified | ReportStatus::Generated
        )
    }
}

impl std::str::FromStr for ReportStatus {
    type Err = ApiError;

    fn from_str(text: &str) -> Result<ReportStatus, ApiError> {
        match text {
            "synthesized" => Ok(ReportStatus::Synthesized),
            "failed" => Ok(ReportStatus::Failed),
            "certified" => Ok(ReportStatus::Certified),
            "not-certified" => Ok(ReportStatus::NotCertified),
            "generated" => Ok(ReportStatus::Generated),
            other => Err(ApiError::InvalidRequest {
                message: format!("unknown report status `{other}`"),
            }),
        }
    }
}

impl fmt::Display for ReportStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The exact-rational inductiveness re-check part of a validation record:
/// the rounded invariant coefficients substituted back into the quadratic
/// system, every constraint evaluated with `Rational` arithmetic.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactRecord {
    /// Number of (in)equalities evaluated exactly.
    pub constraints: usize,
    /// The worst exact violation, as a `numer/denom` rational string.
    pub worst_violation: String,
    /// The worst exact violation as a float (for quick reading).
    pub worst_violation_f64: f64,
    /// The tolerance of the re-check, as a `numer/denom` rational string.
    pub tolerance: String,
    /// Whether the re-check passed (worst violation within tolerance and no
    /// arithmetic overflow).
    pub passed: bool,
}

/// The serializable summary of a soundness validation run attached to a
/// report: trace falsification against seeded interpreter runs plus the
/// exact-rational inductiveness re-check. The rich, non-serializable form
/// (with counterexample traces) lives in the `polyinv-validate` crate; this
/// record is what travels in report JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationRecord {
    /// Number of valid seeded traces checked against the invariant.
    pub trace_runs: usize,
    /// Number of recorded states checked (per-label obligations).
    pub trace_states: usize,
    /// Number of reachable states that violated the invariant.
    pub trace_violations: usize,
    /// The exact re-check outcome (absent when no solution was available to
    /// re-check, e.g. the solver failed).
    pub exact: Option<ExactRecord>,
    /// `true` when the invariant survived both checks.
    pub passed: bool,
}

impl ValidationRecord {
    /// Serializes the record as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("trace_runs", Json::Number(self.trace_runs as f64)),
            ("trace_states", Json::Number(self.trace_states as f64)),
            (
                "trace_violations",
                Json::Number(self.trace_violations as f64),
            ),
            (
                "exact",
                match &self.exact {
                    None => Json::Null,
                    Some(exact) => Json::object(vec![
                        ("constraints", Json::Number(exact.constraints as f64)),
                        (
                            "worst_violation",
                            Json::string(exact.worst_violation.clone()),
                        ),
                        (
                            "worst_violation_f64",
                            Json::Number(exact.worst_violation_f64),
                        ),
                        ("tolerance", Json::string(exact.tolerance.clone())),
                        ("passed", Json::Bool(exact.passed)),
                    ]),
                },
            ),
            ("passed", Json::Bool(self.passed)),
        ])
    }

    /// Reads a record back from its JSON object form.
    pub fn from_json(json: &Json) -> Result<Self, ApiError> {
        let number = |name: &str| -> Result<usize, ApiError> {
            json.get(name)
                .and_then(Json::as_usize)
                .ok_or_else(|| ApiError::InvalidRequest {
                    message: format!("validation field `{name}` must be a number"),
                })
        };
        let exact = match json.get("exact") {
            None | Some(Json::Null) => None,
            Some(inner) => {
                let text = |name: &str| -> Result<String, ApiError> {
                    inner
                        .get(name)
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| ApiError::InvalidRequest {
                            message: format!("validation field `exact.{name}` must be a string"),
                        })
                };
                Some(ExactRecord {
                    constraints: inner
                        .get("constraints")
                        .and_then(Json::as_usize)
                        .unwrap_or(0),
                    worst_violation: text("worst_violation")?,
                    worst_violation_f64: inner
                        .get("worst_violation_f64")
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0),
                    tolerance: text("tolerance")?,
                    passed: inner.get("passed").and_then(Json::as_bool).unwrap_or(false),
                })
            }
        };
        Ok(ValidationRecord {
            trace_runs: number("trace_runs")?,
            trace_states: number("trace_states")?,
            trace_violations: number("trace_violations")?,
            exact,
            passed: json.get("passed").and_then(Json::as_bool).unwrap_or(false),
        })
    }
}

/// The full, serializable result of one Engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthesisReport {
    /// The request id, echoed back.
    pub id: String,
    /// The request mode.
    pub mode: Mode,
    /// The outcome.
    pub status: ReportStatus,
    /// The stable name of the back-end that served the request (empty for
    /// generation-only runs that never solve).
    pub backend: String,
    /// `|S|`: the number of quadratic (in)equalities generated (the paper's
    /// Tables 2/3 metric). For checks: the largest per-pair certificate
    /// problem.
    pub system_size: usize,
    /// The number of unknowns of the quadratic system.
    pub num_unknowns: usize,
    /// The worst constraint violation of the final assignment (0 when not
    /// applicable).
    pub violation: f64,
    /// Check mode: total number of constraint pairs of the candidate.
    pub pairs_total: usize,
    /// Check mode: number of pairs with a sum-of-squares certificate.
    pub pairs_certified: usize,
    /// Pretty-printed invariants, one `label: conjuncts` line per label
    /// (strong synthesis prefixes each line with the solution index).
    pub invariants: Vec<String>,
    /// Pretty-printed post-conditions (recursive programs only).
    pub postconditions: Vec<String>,
    /// Per-stage wall-clock timings in seconds, in execution order.
    pub timings: Vec<(String, f64)>,
    /// Human-readable diagnostics accumulated during the run.
    pub diagnostics: Vec<String>,
    /// The soundness validation summary, when a validation pass ran (the
    /// `polyinv validate` / `fuzz` drivers and `reproduce --validate` fill
    /// this; plain Engine runs leave it empty).
    pub validate: Option<ValidationRecord>,
    /// Solver statistics, when the request's mode ran the Step-4 solver
    /// (weak synthesis). Generation-only, strong and check runs leave it
    /// `None`.
    pub solver: Option<SolverStats>,
    /// Affine presolve statistics, when the request's mode ran the solver
    /// with presolve enabled. `--no-presolve` runs and generation-only,
    /// strong and check runs leave it `None`.
    pub presolve: Option<PresolveStats>,
    /// Orchestration summary, when the request's solve went through the
    /// adaptive orchestrator (weak synthesis): attempts, rung reached,
    /// winning back-end and certificate status. Generation-only, strong
    /// and check runs leave it `None`.
    pub orchestrator: Option<OrchestratorStats>,
}

impl SynthesisReport {
    /// An empty report skeleton for `id`/`mode` (the Engine fills the rest).
    pub(crate) fn skeleton(id: &str, mode: Mode, status: ReportStatus) -> Self {
        SynthesisReport {
            id: id.to_string(),
            mode,
            status,
            backend: String::new(),
            system_size: 0,
            num_unknowns: 0,
            violation: 0.0,
            pairs_total: 0,
            pairs_certified: 0,
            invariants: Vec::new(),
            postconditions: Vec::new(),
            timings: Vec::new(),
            diagnostics: Vec::new(),
            validate: None,
            solver: None,
            presolve: None,
            orchestrator: None,
        }
    }

    /// Seconds spent in one named stage (0 when it never ran).
    pub fn stage_seconds(&self, stage: &str) -> f64 {
        self.timings
            .iter()
            .find(|(name, _)| name == stage)
            .map(|(_, secs)| *secs)
            .unwrap_or(0.0)
    }

    /// Total seconds across all stages.
    pub fn total_seconds(&self) -> f64 {
        self.timings.iter().map(|(_, secs)| secs).sum()
    }

    /// The report with its timings zeroed: the canonical form compared by
    /// the batch-determinism guarantee (wall-clock is the one field two
    /// identical runs legitimately disagree on). The solver block's
    /// wall-clock split is zeroed too; its counters and sparsity fields are
    /// deterministic and stay.
    pub fn canonical(mut self) -> SynthesisReport {
        for (_, secs) in &mut self.timings {
            *secs = 0.0;
        }
        if let Some(solver) = &mut self.solver {
            solver.factor_seconds = 0.0;
            solver.solve_seconds = 0.0;
            solver.eval_seconds = 0.0;
            // The worker count is an environment fact, not a result: byte
            // identity across `POLYINV_THREADS` settings requires dropping
            // it from the canonical form.
            solver.threads = 0;
        }
        if let Some(presolve) = &mut self.presolve {
            presolve.seconds = 0.0;
        }
        if let Some(orchestrator) = &mut self.orchestrator {
            for attempt in &mut orchestrator.history {
                attempt.seconds = 0.0;
            }
        }
        self
    }

    /// Serializes the report as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("id", Json::string(self.id.clone())),
            ("mode", Json::string(self.mode.as_str())),
            ("status", Json::string(self.status.as_str())),
            ("backend", Json::string(self.backend.clone())),
            ("system_size", Json::Number(self.system_size as f64)),
            ("num_unknowns", Json::Number(self.num_unknowns as f64)),
            ("violation", Json::Number(self.violation)),
            ("pairs_total", Json::Number(self.pairs_total as f64)),
            ("pairs_certified", Json::Number(self.pairs_certified as f64)),
            (
                "invariants",
                Json::Array(self.invariants.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "postconditions",
                Json::Array(self.postconditions.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "timings",
                Json::Object(
                    self.timings
                        .iter()
                        .map(|(stage, secs)| (stage.clone(), Json::Number(*secs)))
                        .collect(),
                ),
            ),
            (
                "diagnostics",
                Json::Array(self.diagnostics.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "validate",
                self.validate
                    .as_ref()
                    .map_or(Json::Null, ValidationRecord::to_json),
            ),
            (
                "solver",
                self.solver.as_ref().map_or(Json::Null, solver_to_json),
            ),
            (
                "presolve",
                self.presolve.as_ref().map_or(Json::Null, presolve_to_json),
            ),
            (
                "orchestrator",
                self.orchestrator
                    .as_ref()
                    .map_or(Json::Null, orchestrator_to_json),
            ),
        ])
    }

    /// Serializes the report as compact JSON text.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_string()
    }

    /// Reads a report back from its JSON object form.
    pub fn from_json(json: &Json) -> Result<Self, ApiError> {
        let field = |name: &str| -> Result<&Json, ApiError> {
            json.get(name).ok_or_else(|| ApiError::InvalidRequest {
                message: format!("missing report field `{name}`"),
            })
        };
        let strings = |name: &str| -> Result<Vec<String>, ApiError> {
            field(name)?
                .as_array()
                .ok_or_else(|| ApiError::InvalidRequest {
                    message: format!("report field `{name}` must be an array"),
                })?
                .iter()
                .map(|item| {
                    item.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| ApiError::InvalidRequest {
                            message: format!("report field `{name}` must contain strings"),
                        })
                })
                .collect()
        };
        let number = |name: &str| -> Result<f64, ApiError> {
            field(name)?
                .as_f64()
                .ok_or_else(|| ApiError::InvalidRequest {
                    message: format!("report field `{name}` must be a number"),
                })
        };
        let timings = field("timings")?
            .as_object()
            .ok_or_else(|| ApiError::InvalidRequest {
                message: "report field `timings` must be an object".to_string(),
            })?
            .iter()
            .map(|(stage, secs)| {
                secs.as_f64()
                    .map(|s| (stage.clone(), s))
                    .ok_or_else(|| ApiError::InvalidRequest {
                        message: "report timings must be numbers".to_string(),
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SynthesisReport {
            id: field("id")?
                .as_str()
                .ok_or_else(|| ApiError::InvalidRequest {
                    message: "report field `id` must be a string".to_string(),
                })?
                .to_string(),
            mode: field("mode")?.as_str().unwrap_or_default().parse()?,
            status: field("status")?.as_str().unwrap_or_default().parse()?,
            backend: field("backend")?.as_str().unwrap_or_default().to_string(),
            system_size: number("system_size")? as usize,
            num_unknowns: number("num_unknowns")? as usize,
            violation: number("violation")?,
            pairs_total: number("pairs_total")? as usize,
            pairs_certified: number("pairs_certified")? as usize,
            invariants: strings("invariants")?,
            postconditions: strings("postconditions")?,
            timings,
            diagnostics: strings("diagnostics")?,
            validate: optional_block(json, "validate", ValidationRecord::from_json)?,
            solver: optional_block(json, "solver", solver_from_json)?,
            presolve: optional_block(json, "presolve", presolve_from_json)?,
            orchestrator: optional_block(json, "orchestrator", orchestrator_from_json)?,
        })
    }

    /// Parses a report from JSON text.
    pub fn from_json_str(text: &str) -> Result<Self, ApiError> {
        SynthesisReport::from_json(&Json::parse(text)?)
    }
}

/// Reads the optional block `name` of a report; absent and `null` blocks
/// read as `None` (older snapshots lack the newer blocks).
fn optional_block<T>(
    json: &Json,
    name: &str,
    read: impl Fn(&Json) -> Result<T, ApiError>,
) -> Result<Option<T>, ApiError> {
    match json.get(name) {
        None | Some(Json::Null) => Ok(None),
        Some(block) => read(block).map(Some),
    }
}

/// The required number field `name` of a report's `block` object.
fn block_number(json: &Json, block: &str, name: &str) -> Result<f64, ApiError> {
    json.get(name)
        .and_then(Json::as_f64)
        .ok_or_else(|| ApiError::InvalidRequest {
            message: format!("{block} field `{name}` must be a number"),
        })
}

/// Serializes [`SolverStats`] as the report's `solver` block.
fn solver_to_json(stats: &SolverStats) -> Json {
    Json::object(vec![
        ("iterations", Json::Number(stats.iterations as f64)),
        ("restarts", Json::Number(stats.restarts as f64)),
        ("final_residual", Json::Number(stats.final_residual)),
        ("nnz_jacobian", Json::Number(stats.nnz_jacobian as f64)),
        ("nnz_factor", Json::Number(stats.nnz_factor as f64)),
        ("factorizations", Json::Number(stats.factorizations as f64)),
        ("factor_seconds", Json::Number(stats.factor_seconds)),
        ("solve_seconds", Json::Number(stats.solve_seconds)),
        ("eval_seconds", Json::Number(stats.eval_seconds)),
        ("threads", Json::Number(stats.threads as f64)),
    ])
}

/// Reads a `solver` block back into [`SolverStats`].
fn solver_from_json(json: &Json) -> Result<SolverStats, ApiError> {
    let number = |name: &str| block_number(json, "solver", name);
    Ok(SolverStats {
        iterations: number("iterations")? as usize,
        restarts: number("restarts")? as usize,
        final_residual: number("final_residual")?,
        nnz_jacobian: number("nnz_jacobian")? as usize,
        nnz_factor: number("nnz_factor")? as usize,
        factorizations: number("factorizations")? as usize,
        factor_seconds: number("factor_seconds")?,
        solve_seconds: number("solve_seconds")?,
        // Absent in pre-parallelism snapshots: default rather than fail.
        eval_seconds: json
            .get("eval_seconds")
            .and_then(Json::as_f64)
            .unwrap_or(0.0),
        threads: json.get("threads").and_then(Json::as_usize).unwrap_or(1),
    })
}

/// Serializes [`PresolveStats`] as the report's `presolve` block (also the
/// per-row `presolve` block of the benchmark snapshot).
pub fn presolve_to_json(stats: &PresolveStats) -> Json {
    Json::object(vec![
        ("size_before", Json::Number(stats.size_before as f64)),
        ("size_after", Json::Number(stats.size_after as f64)),
        (
            "unknowns_before",
            Json::Number(stats.unknowns_before as f64),
        ),
        ("unknowns_after", Json::Number(stats.unknowns_after as f64)),
        ("rounds", Json::Number(stats.rounds as f64)),
        ("pinned", Json::Number(stats.pinned as f64)),
        ("fixed", Json::Number(stats.fixed as f64)),
        ("affine", Json::Number(stats.affine as f64)),
        ("solved", Json::Number(stats.solved as f64)),
        ("freed", Json::Number(stats.freed as f64)),
        ("rectified", Json::Number(stats.rectified as f64)),
        ("dropped", Json::Number(stats.dropped as f64)),
        ("duplicates", Json::Number(stats.duplicates as f64)),
        ("seconds", Json::Number(stats.seconds)),
    ])
}

/// Reads a `presolve` block back into [`PresolveStats`].
fn presolve_from_json(json: &Json) -> Result<PresolveStats, ApiError> {
    let count = |name: &str| block_number(json, "presolve", name).map(|n| n as usize);
    Ok(PresolveStats {
        size_before: count("size_before")?,
        size_after: count("size_after")?,
        unknowns_before: count("unknowns_before")?,
        unknowns_after: count("unknowns_after")?,
        rounds: count("rounds")?,
        pinned: count("pinned")?,
        fixed: count("fixed")?,
        affine: count("affine")?,
        solved: count("solved")?,
        freed: count("freed")?,
        rectified: count("rectified")?,
        dropped: count("dropped")?,
        duplicates: count("duplicates")?,
        seconds: block_number(json, "presolve", "seconds")?,
    })
}

/// Serializes [`OrchestratorStats`] as the report's `orchestrator` block
/// (also the per-row `orchestrator` block of the benchmark snapshot).
pub fn orchestrator_to_json(stats: &OrchestratorStats) -> Json {
    let history = stats
        .history
        .iter()
        .map(|attempt| {
            Json::object(vec![
                ("upsilon", Json::Number(attempt.upsilon as f64)),
                ("backend", Json::string(attempt.backend.clone())),
                ("feasible", Json::Bool(attempt.feasible)),
                ("violation", Json::Number(attempt.violation)),
                ("seconds", Json::Number(attempt.seconds)),
            ])
        })
        .collect();
    Json::object(vec![
        ("attempts", Json::Number(stats.attempts as f64)),
        ("rungs_tried", Json::Number(stats.rungs_tried as f64)),
        ("rung_reached", Json::Number(stats.rung_reached as f64)),
        (
            "winning_backend",
            Json::string(stats.winning_backend.clone()),
        ),
        ("certified", Json::Bool(stats.certified)),
        (
            "certificate_violation",
            Json::Number(stats.certificate_violation),
        ),
        ("history", Json::Array(history)),
    ])
}

/// Reads an `orchestrator` block back into [`OrchestratorStats`]; missing
/// attempt fields read as zero, empty or `false`.
fn orchestrator_from_json(json: &Json) -> Result<OrchestratorStats, ApiError> {
    let number = |name: &str| block_number(json, "orchestrator", name);
    let text = |item: &Json, name: &str| {
        item.get(name)
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let flag = |item: &Json, name: &str| item.get(name).and_then(Json::as_bool).unwrap_or(false);
    let float = |item: &Json, name: &str| item.get(name).and_then(Json::as_f64).unwrap_or(0.0);
    let history = match json.get("history") {
        None | Some(Json::Null) => Vec::new(),
        Some(items) => items
            .as_array()
            .ok_or_else(|| ApiError::InvalidRequest {
                message: "orchestrator field `history` must be an array".to_string(),
            })?
            .iter()
            .map(|item| SolveAttempt {
                upsilon: item.get("upsilon").and_then(Json::as_usize).unwrap_or(0) as u32,
                backend: text(item, "backend"),
                feasible: flag(item, "feasible"),
                violation: float(item, "violation"),
                seconds: float(item, "seconds"),
            })
            .collect(),
    };
    Ok(OrchestratorStats {
        attempts: number("attempts")? as usize,
        rungs_tried: number("rungs_tried")? as usize,
        rung_reached: number("rung_reached")? as u32,
        winning_backend: text(json, "winning_backend"),
        certified: flag(json, "certified"),
        certificate_violation: number("certificate_violation")?,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SynthesisReport {
        SynthesisReport {
            id: "r7".to_string(),
            mode: Mode::Weak,
            status: ReportStatus::Synthesized,
            backend: "lm".to_string(),
            system_size: 2348,
            num_unknowns: 1923,
            violation: 4.2e-9,
            pairs_total: 0,
            pairs_certified: 0,
            invariants: vec!["ℓ5: 4*i + 4*s + 3 > 0".to_string()],
            postconditions: vec![],
            timings: vec![("templates".to_string(), 0.012), ("solve".to_string(), 1.5)],
            diagnostics: vec!["ladder rung ϒ=0 solved".to_string()],
            validate: None,
            solver: None,
            presolve: None,
            orchestrator: None,
        }
    }

    fn sample_solver() -> SolverStats {
        SolverStats {
            iterations: 96,
            restarts: 2,
            final_residual: 3.4e-15,
            nnz_jacobian: 17790,
            nnz_factor: 48211,
            factorizations: 101,
            factor_seconds: 0.82,
            solve_seconds: 0.07,
            eval_seconds: 0.41,
            threads: 8,
        }
    }

    #[test]
    fn reports_round_trip_through_json() {
        let report = sample();
        let reparsed = SynthesisReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(reparsed, report);
    }

    #[test]
    fn validation_records_round_trip_through_json() {
        let mut report = sample();
        report.validate = Some(ValidationRecord {
            trace_runs: 1000,
            trace_states: 48211,
            trace_violations: 0,
            exact: Some(ExactRecord {
                constraints: 812,
                worst_violation: "3/1000000".to_string(),
                worst_violation_f64: 3e-6,
                tolerance: "1/1000".to_string(),
                passed: true,
            }),
            passed: true,
        });
        let reparsed = SynthesisReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(reparsed, report);
        // Reports without a record serialize `validate` as null and read
        // back as None (forward compatibility for old snapshots).
        let bare = sample();
        assert!(bare.to_json_string().contains("\"validate\":null"));
        assert_eq!(
            SynthesisReport::from_json_str(&bare.to_json_string())
                .unwrap()
                .validate,
            None
        );
    }

    #[test]
    fn canonical_zeroes_only_timings() {
        let canonical = sample().canonical();
        assert_eq!(canonical.total_seconds(), 0.0);
        assert_eq!(canonical.timings.len(), 2);
        assert_eq!(canonical.system_size, 2348);
    }

    #[test]
    fn solver_records_round_trip_and_canonicalize() {
        let mut report = sample();
        report.solver = Some(sample_solver());
        let reparsed = SynthesisReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(reparsed, report);
        // Canonical form zeroes the wall-clock split but keeps the
        // deterministic counters and sparsity fields.
        let canonical = report.canonical();
        let solver = canonical.solver.as_ref().unwrap();
        assert_eq!(solver.factor_seconds, 0.0);
        assert_eq!(solver.solve_seconds, 0.0);
        assert_eq!(solver.eval_seconds, 0.0);
        assert_eq!(solver.threads, 0, "thread count is not canonical");
        assert_eq!(solver.iterations, 96);
        assert_eq!(solver.nnz_factor, 48211);
        // Reports without a record serialize `solver` as null and read
        // back as None (forward compatibility for old snapshots).
        let bare = sample();
        assert!(bare.to_json_string().contains("\"solver\":null"));
        assert_eq!(
            SynthesisReport::from_json_str(&bare.to_json_string())
                .unwrap()
                .solver,
            None
        );
    }

    fn sample_presolve() -> PresolveStats {
        PresolveStats {
            size_before: 860,
            size_after: 512,
            unknowns_before: 750,
            unknowns_after: 461,
            rounds: 9,
            pinned: 55,
            fixed: 189,
            affine: 9,
            solved: 16,
            freed: 20,
            rectified: 63,
            dropped: 348,
            duplicates: 0,
            seconds: 0.031,
        }
    }

    #[test]
    fn presolve_records_round_trip_and_canonicalize() {
        let mut report = sample();
        report.presolve = Some(sample_presolve());
        let reparsed = SynthesisReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(reparsed, report);
        // Canonical form zeroes the wall-clock but keeps the deterministic
        // size and rule counters.
        let canonical = report.canonical();
        let presolve = canonical.presolve.as_ref().unwrap();
        assert_eq!(presolve.seconds, 0.0);
        assert_eq!(presolve.size_after, 512);
        assert!((presolve.size_reduction() - (1.0 - 512.0 / 860.0)).abs() < 1e-12);
        // Reports without a record serialize `presolve` as null and read
        // back as None (forward compatibility for old snapshots).
        let bare = sample();
        assert!(bare.to_json_string().contains("\"presolve\":null"));
        assert_eq!(
            SynthesisReport::from_json_str(&bare.to_json_string())
                .unwrap()
                .presolve,
            None
        );
    }

    fn sample_orchestrator() -> OrchestratorStats {
        OrchestratorStats {
            attempts: 4,
            rungs_tried: 2,
            rung_reached: 2,
            winning_backend: "lm".to_string(),
            certified: true,
            certificate_violation: 5.1e-4,
            history: vec![
                SolveAttempt {
                    upsilon: 0,
                    backend: "lm".to_string(),
                    feasible: false,
                    violation: 3.4e-3,
                    seconds: 0.12,
                },
                SolveAttempt {
                    upsilon: 2,
                    backend: "certificate".to_string(),
                    feasible: true,
                    violation: 5.1e-4,
                    seconds: 0.01,
                },
            ],
        }
    }

    #[test]
    fn orchestrator_records_round_trip_and_canonicalize() {
        let mut report = sample();
        report.orchestrator = Some(sample_orchestrator());
        let reparsed = SynthesisReport::from_json_str(&report.to_json_string()).unwrap();
        assert_eq!(reparsed, report);
        // Canonical form zeroes the per-attempt wall-clock but keeps the
        // deterministic attempt structure and certificate fields.
        let canonical = report.canonical();
        let orchestrator = canonical.orchestrator.as_ref().unwrap();
        assert!(orchestrator.history.iter().all(|a| a.seconds == 0.0));
        assert_eq!(orchestrator.attempts, 4);
        assert_eq!(orchestrator.rung_reached, 2);
        assert!(orchestrator.certified);
        // Reports without a record serialize `orchestrator` as null and read
        // back as None (forward compatibility for old snapshots).
        let bare = sample();
        assert!(bare.to_json_string().contains("\"orchestrator\":null"));
        assert_eq!(
            SynthesisReport::from_json_str(&bare.to_json_string())
                .unwrap()
                .orchestrator,
            None
        );
    }

    #[test]
    fn stage_accessors_sum_correctly() {
        let report = sample();
        assert_eq!(report.stage_seconds("solve"), 1.5);
        assert_eq!(report.stage_seconds("missing"), 0.0);
        assert!((report.total_seconds() - 1.512).abs() < 1e-12);
    }
}
