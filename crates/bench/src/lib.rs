//! Shared harness code for regenerating the paper's evaluation tables.
//!
//! The `reproduce` binary prints the rows of Tables 2 and 3 (and the
//! ablations); the Criterion benches in `benches/` measure the individual
//! pipeline stages. Both are thin wrappers around [`run_row`], which itself
//! sits on the stable [`Engine`] API of `polyinv-api`: each table row is two
//! [`SynthesisRequest`]s (a generation-only run for `|S|` and the per-stage
//! breakdown, plus — with `--solve` — a weak-synthesis run for the solve
//! columns), and the per-stage wall-clock timings of the reports flow
//! directly into the printed tables.

pub mod probe;

use std::time::Duration;

use polyinv::pipeline::stage_names;
use polyinv_api::{
    ApiError, Engine, Json, OrchestratorRecord, PresolveRecord, ReportStatus, SolverRecord,
    SynthesisRequest, ValidationRecord,
};
use polyinv_benchmarks::Benchmark;
use polyinv_constraints::SynthesisOptions;
use polyinv_lang::{InvariantMap, Postcondition, Precondition};
use polyinv_validate::{falsify_traces, TraceCheckConfig, ValidationConfig};

/// The measurements taken for one benchmark row.
#[derive(Debug, Clone)]
pub struct RowResult {
    /// Benchmark name (paper row name).
    pub name: String,
    /// Template size `n` (from the paper's configuration).
    pub n: usize,
    /// Template degree `d` (from the paper's configuration).
    pub d: u32,
    /// Paper-reported number of program variables.
    pub paper_vars: usize,
    /// Our number of program variables (`|V^f|` of the main function,
    /// including shadow parameters and the return variable).
    pub our_vars: usize,
    /// Paper-reported system size `|S|`.
    pub paper_size: usize,
    /// Our system size `|S|`.
    pub our_size: usize,
    /// The number of unknowns of our generated quadratic system.
    pub unknowns: usize,
    /// Paper-reported runtime in seconds.
    pub paper_runtime: f64,
    /// Per-stage wall-clock breakdown in seconds, in execution order (the
    /// generation stages; plus the solve stage when a solve was attempted).
    pub timings: Vec<(String, f64)>,
    /// Outcome of the solve attempt, if one was made.
    pub solve: Option<SolveRow>,
    /// Affine presolve statistics of the solve attempt's accepted rung
    /// (`None` for generation-only rows or when presolve was disabled).
    pub presolve: Option<PresolveRecord>,
    /// Soundness validation of the row (`reproduce --validate`).
    pub validate: Option<RowValidation>,
}

/// The trace check of one row's paper target assertion.
#[derive(Debug, Clone)]
pub struct TargetCheck {
    /// Valid traces the target was checked on.
    pub runs: usize,
    /// Reachable states violating the target.
    pub violations: usize,
    /// Whether the check passed (no violations *and* the requested trace
    /// coverage was reached — a vacuous zero-trace pass fails).
    pub passed: bool,
}

/// The validation outcome of one benchmark row.
#[derive(Debug, Clone)]
pub struct RowValidation {
    /// The target-assertion trace check (`None` when the row has no target
    /// assertion — distinct from a passing check).
    pub target: Option<TargetCheck>,
    /// Validation record of the synthesized invariant (rows with a solve):
    /// trace falsification plus the exact-rational re-check.
    pub invariant: Option<ValidationRecord>,
}

impl RowValidation {
    /// `true` when the target (if any) held with full coverage and the
    /// synthesized invariant (if any) survived both checks.
    pub fn passed(&self) -> bool {
        self.target.as_ref().map(|t| t.passed).unwrap_or(true)
            && self.invariant.as_ref().map(|r| r.passed).unwrap_or(true)
    }

    /// The table cell: target outcome plus invariant outcome.
    pub fn cell(&self) -> String {
        let target = match &self.target {
            None => "no-target".to_string(),
            Some(t) if t.passed => format!("target-ok({})", t.runs),
            Some(t) if t.violations > 0 => format!("TARGET-VIOLATION({})", t.violations),
            Some(t) => format!("TARGET-COVERAGE({} runs)", t.runs),
        };
        let invariant = match &self.invariant {
            None => "-".to_string(),
            Some(record) if record.passed => format!(
                "inv-ok({}tr{})",
                record.trace_runs,
                record
                    .exact
                    .as_ref()
                    .map(|e| format!(", {:.0e}", e.worst_violation_f64))
                    .unwrap_or_default()
            ),
            Some(record) => format!("INV-VIOLATION({})", record.trace_violations),
        };
        format!("{target} {invariant}")
    }
}

impl RowResult {
    /// Seconds spent in one named stage (0 when it never ran).
    pub fn stage_seconds(&self, stage: &str) -> f64 {
        self.timings
            .iter()
            .find(|(name, _)| name == stage)
            .map(|(_, secs)| *secs)
            .unwrap_or(0.0)
    }

    /// Combined time of the generation stages (Steps 1–3).
    pub fn generation_time(&self) -> Duration {
        Duration::from_secs_f64(
            self.stage_seconds(stage_names::TEMPLATES)
                + self.stage_seconds(stage_names::PAIRS)
                + self.stage_seconds(stage_names::REDUCTION),
        )
    }
}

/// The outcome class of a row's solve block. Every `--solve` row carries
/// one of these explicitly — absent data can no longer masquerade as "not
/// attempted".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// The orchestrator produced a candidate that passed the exact-rational
    /// inductiveness certificate.
    Synthesized,
    /// A solve was attempted (or errored) but no certified candidate came
    /// out; `reason` says why in machine-readable form.
    Failed,
}

impl SolveStatus {
    /// Stable snapshot label (`"synthesized"` / `"failed"`).
    pub fn label(self) -> &'static str {
        match self {
            SolveStatus::Synthesized => "synthesized",
            SolveStatus::Failed => "failed",
        }
    }
}

/// What to do about Step 4 for one row.
#[derive(Debug, Clone)]
pub enum SolvePolicy {
    /// Generation-only run: the row carries no solve block (`solve: null`).
    None,
    /// Run the weak-synthesis solve through the orchestrator under a
    /// wall-clock budget (`0.0` = unbudgeted: run the full ladder).
    Attempt {
        /// Per-row solve budget in seconds. The first ladder rung always
        /// runs, so even a tight budget yields a real verdict.
        budget_seconds: f64,
    },
}

/// Default per-row wall-clock solve budget of `reproduce --solve`, in
/// seconds: every row is attempted, and rows the budget cannot certify come
/// back as `failed` with real solver statistics. Override per run with
/// `--solve-cap SECONDS`.
pub const DEFAULT_SOLVE_BUDGET_SECONDS: f64 = 120.0;

/// The solve policy `reproduce` applies to every row: attempt it under the
/// default wall-clock budget ([`DEFAULT_SOLVE_BUDGET_SECONDS`]).
pub fn solve_policy_for(solve: bool) -> SolvePolicy {
    solve_policy_with_budget(solve, DEFAULT_SOLVE_BUDGET_SECONDS)
}

/// [`solve_policy_for`] with an explicit wall-clock budget.
pub fn solve_policy_with_budget(solve: bool, budget_seconds: f64) -> SolvePolicy {
    if solve {
        SolvePolicy::Attempt { budget_seconds }
    } else {
        SolvePolicy::None
    }
}

/// The solve part of a row.
#[derive(Debug, Clone)]
pub struct SolveRow {
    /// What happened to the solve attempt.
    pub status: SolveStatus,
    /// Time spent solving.
    pub solve_time: Duration,
    /// Final constraint violation of the best assignment.
    pub violation: f64,
    /// The back-end that produced the attempt (empty when the request
    /// errored).
    pub backend: String,
    /// Machine-readable reason for failed rows (`None` on success).
    pub reason: Option<String>,
    /// Solver statistics of the attempt (iterations/restarts, nnz(J),
    /// nnz(L), factor/solve split), when the report carried them.
    pub stats: Option<SolverRecord>,
    /// Orchestrator ladder statistics of the attempt: rungs tried, the
    /// winning back-end, the certificate outcome and the full attempt
    /// history.
    pub orchestrator: Option<OrchestratorRecord>,
}

impl SolveRow {
    /// `true` when the row's solve produced a certified invariant.
    pub fn synthesized(&self) -> bool {
        self.status == SolveStatus::Synthesized
    }
}

/// The reduction options matching a benchmark's paper configuration.
pub fn options_for(benchmark: &Benchmark) -> SynthesisOptions {
    SynthesisOptions::with_degree_and_size(benchmark.paper.d, benchmark.paper.n).with_upsilon(2)
}

/// An Engine configured like the paper's evaluation runs (shared across
/// rows so that programs parse once). Solve attempts run the default
/// orchestrator portfolio — the LM and penalty lanes race on every ϒ rung.
pub fn engine_for_tables() -> Engine {
    Engine::new()
}

/// The generation-only request of a row.
pub fn generation_request(benchmark: &Benchmark) -> SynthesisRequest {
    SynthesisRequest::generate_only(benchmark.source)
        .with_id(format!("{}/generate", benchmark.name))
        .with_options(options_for(benchmark))
}

/// The weak-synthesis request of a row (target pinned when the paper row
/// has one).
pub fn solve_request(benchmark: &Benchmark) -> SynthesisRequest {
    let mut request = SynthesisRequest::weak(benchmark.source)
        .with_id(format!("{}/solve", benchmark.name))
        .with_options(options_for(benchmark));
    if let Some(target) = benchmark.target {
        request = request.with_target(target);
    }
    request
}

/// The validation settings of `reproduce --validate`: ≥ 1000 valid traces
/// per program (more attempts than default, so tightly pre-conditioned
/// programs like the RL controllers still reach 1000 valid runs).
pub fn validation_for_tables() -> ValidationConfig {
    ValidationConfig {
        trace: TraceCheckConfig {
            runs: 1000,
            seed: 2020,
            max_attempts: 200_000,
            ..TraceCheckConfig::default()
        },
    }
}

/// Runs Steps 1–3 (and optionally Step 4) for one benchmark row on a shared
/// Engine.
///
/// # Panics
///
/// Panics if the embedded benchmark program fails to parse (guarded by the
/// benchmark crate's tests).
pub fn run_row_on(engine: &Engine, benchmark: &Benchmark, solve: bool) -> RowResult {
    let policy = solve_policy_for(solve);
    run_row_full(engine, benchmark, policy, false)
}

/// Like [`run_row_on`], optionally validating the row: the paper's target
/// assertion is checked against ≥ 1000 seeded traces, and — when a solve is
/// attempted — the synthesized invariant goes through trace falsification
/// plus the exact-rational inductiveness re-check.
///
/// # Panics
///
/// Panics if the embedded benchmark program fails to parse.
pub fn run_row_full(
    engine: &Engine,
    benchmark: &Benchmark,
    solve: SolvePolicy,
    validate: bool,
) -> RowResult {
    let program = engine
        .parse_program(benchmark.source)
        .expect("benchmark parses");

    // Steps 1–3 through the Engine; the row's |S| and per-stage generation
    // breakdown come from this run (with the configured ϒ, not the
    // ladder's cheapest rung).
    let generated = engine
        .run(&generation_request(benchmark))
        .expect("generation requests are valid");
    let mut timings = generated.timings.clone();

    let config = validation_for_tables();
    let mut row_validation = if validate {
        let pre = Precondition::from_program(&program);
        let target_check = benchmark
            .target_polynomial(&program)
            .expect("benchmark targets resolve")
            .map(|target| {
                let mut invariant = InvariantMap::new();
                invariant.add(program.main().exit_label(), target);
                let report = falsify_traces(
                    &program,
                    &pre,
                    &invariant,
                    &Postcondition::new(),
                    &config.trace,
                );
                TargetCheck {
                    runs: report.valid_runs,
                    violations: report.violations.len(),
                    passed: report.passed(),
                }
            });
        Some(RowValidation {
            target: target_check,
            invariant: None,
        })
    } else {
        None
    };

    // Row-level size/unknowns: generation-only rows report the paper-config
    // run above; solved rows are overridden below with the system the
    // orchestrator's accepted rung actually generated (post-ladder,
    // pre-presolve), so the row and its presolve block describe the same
    // system.
    let mut our_size = generated.system_size;
    let mut unknowns = generated.num_unknowns;

    let mut presolve = None;
    let solve_row = match solve {
        SolvePolicy::None => None,
        SolvePolicy::Attempt { budget_seconds } => {
            // The weak request runs the full orchestrator ladder with its own
            // per-rung systems: the ϒ-ladder deliberately attempts the much
            // smaller ϒ = 0 reduction before the full one above, so the
            // generated system cannot simply be reused here. With `--validate`
            // the validation driver serves the request under the same plan,
            // so the solution's assignment goes through trace falsification
            // on top of the orchestrator's certificate.
            let request = solve_request(benchmark).with_solve_budget(budget_seconds);
            let outcome = if validate {
                polyinv_validate::run_validated(&request, &config)
            } else {
                engine.run(&request)
            };
            match outcome {
                Ok(report) => {
                    let solve_secs = report.stage_seconds(stage_names::SOLVE);
                    timings.push((stage_names::SOLVE.to_string(), solve_secs));
                    if let (Some(validation), Some(record)) =
                        (&mut row_validation, &report.validate)
                    {
                        validation.invariant = Some(record.clone());
                    }
                    presolve = report.presolve.clone();
                    our_size = report.system_size;
                    unknowns = report.num_unknowns;
                    let synthesized = report.status == ReportStatus::Synthesized;
                    Some(SolveRow {
                        status: if synthesized {
                            SolveStatus::Synthesized
                        } else {
                            SolveStatus::Failed
                        },
                        solve_time: Duration::from_secs_f64(solve_secs),
                        violation: report.violation,
                        backend: report.backend,
                        reason: (!synthesized)
                            .then(|| format!("uncertified:violation={:.3e}", report.violation)),
                        stats: report.solver,
                        orchestrator: report.orchestrator,
                    })
                }
                Err(error) => Some(SolveRow {
                    status: SolveStatus::Failed,
                    solve_time: Duration::ZERO,
                    violation: f64::INFINITY,
                    backend: String::new(),
                    reason: Some(format!("error:{}", error.kind())),
                    stats: None,
                    orchestrator: None,
                }),
            }
        }
    };

    RowResult {
        name: benchmark.name.to_string(),
        n: benchmark.paper.n,
        d: benchmark.paper.d,
        paper_vars: benchmark.paper.vars,
        our_vars: program.main().vars().len(),
        paper_size: benchmark.paper.system_size,
        our_size,
        unknowns,
        paper_runtime: benchmark.paper.runtime_secs,
        timings,
        solve: solve_row,
        presolve,
        validate: row_validation,
    }
}

/// Formats the validation section printed under a table by
/// `reproduce --validate`.
pub fn format_validation(title: &str, rows: &[RowResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## Validation — {title}\n"));
    out.push_str(&format!(
        "{:<26} {:>10} {:<40}\n",
        "benchmark", "synthesized", "validation"
    ));
    for row in rows {
        let Some(validation) = &row.validate else {
            continue;
        };
        let synthesized = match &row.solve {
            None => "-".to_string(),
            Some(s) => match s.status {
                SolveStatus::Synthesized => "yes".to_string(),
                SolveStatus::Failed => "no".to_string(),
            },
        };
        out.push_str(&format!(
            "{:<26} {:>10} {:<40}\n",
            row.name,
            synthesized,
            validation.cell()
        ));
    }
    out
}

/// Like [`run_row_on`], with a throwaway Engine (the benches and tests use
/// this; the `reproduce` binary shares one Engine across all rows).
pub fn run_row(benchmark: &Benchmark, solve: bool) -> RowResult {
    run_row_on(&engine_for_tables(), benchmark, solve)
}

/// Converts a baseline outcome into the short status cell printed by the
/// comparison table ([`ApiError`] is the unified error story end-to-end).
pub fn baseline_status(outcome: Result<usize, ApiError>) -> String {
    match outcome {
        Ok(size) => format!("applicable (|S| = {size})"),
        Err(error) => format!("{error}"),
    }
}

/// Serializes benchmark rows into the machine-readable `BENCH_<n>.json`
/// snapshot format: a schema marker plus one entry per row with the
/// benchmark's configuration, `|S|`, unknown count, the per-stage
/// generation timings (`templates`, `pairs`, `reduction`; plus `solve` in
/// `timings` when a solve was attempted) and — always — a `solve` block:
/// `null` for generation-only rows, otherwise the solve outcome with its
/// wall-clock and solver statistics (iterations, restarts, nnz(J), nnz(L),
/// factor/solve split). The solve-time trajectory across PRs lives in this
/// block.
pub fn rows_to_json(tables: &[(&str, &[RowResult])]) -> Json {
    let rows: Vec<Json> = tables
        .iter()
        .flat_map(|(table, rows)| {
            rows.iter().map(move |row| {
                let timings = Json::Object(
                    row.timings
                        .iter()
                        .map(|(stage, secs)| (stage.clone(), Json::Number(*secs)))
                        .collect(),
                );
                Json::object(vec![
                    ("name", Json::string(row.name.clone())),
                    ("table", Json::string(*table)),
                    ("n", Json::Number(row.n as f64)),
                    ("d", Json::Number(f64::from(row.d))),
                    ("vars", Json::Number(row.our_vars as f64)),
                    ("paper_size", Json::Number(row.paper_size as f64)),
                    ("size", Json::Number(row.our_size as f64)),
                    ("unknowns", Json::Number(row.unknowns as f64)),
                    (
                        "generation_seconds",
                        Json::Number(row.generation_time().as_secs_f64()),
                    ),
                    ("timings", timings),
                    ("solve", solve_row_json(row.solve.as_ref())),
                    ("presolve", presolve_row_json(row.presolve.as_ref())),
                ])
            })
        })
        .collect();
    Json::object(vec![
        ("schema", Json::string("polyinv-bench/v1")),
        ("rows", Json::Array(rows)),
    ])
}

/// The `solve` block of one snapshot row (`null` only for generation-only
/// rows; every `--solve` row serializes an explicit block with its
/// `status` and, for failed rows, a machine-readable `reason`).
fn solve_row_json(solve: Option<&SolveRow>) -> Json {
    let Some(solve) = solve else {
        return Json::Null;
    };
    let mut fields = vec![
        ("status", Json::string(solve.status.label())),
        ("synthesized", Json::Bool(solve.synthesized())),
        (
            "reason",
            match &solve.reason {
                Some(reason) => Json::string(reason.clone()),
                None => Json::Null,
            },
        ),
    ];
    fields.extend([
        ("backend", Json::string(solve.backend.clone())),
        (
            "solve_seconds",
            Json::Number(solve.solve_time.as_secs_f64()),
        ),
        ("violation", Json::Number(solve.violation)),
    ]);
    if let Some(stats) = &solve.stats {
        fields.extend([
            ("iterations", Json::Number(stats.iterations as f64)),
            ("restarts", Json::Number(stats.restarts as f64)),
            ("final_residual", Json::Number(stats.final_residual)),
            ("nnz_jacobian", Json::Number(stats.nnz_jacobian as f64)),
            ("nnz_factor", Json::Number(stats.nnz_factor as f64)),
            ("factorizations", Json::Number(stats.factorizations as f64)),
            ("factor_seconds", Json::Number(stats.factor_seconds)),
            (
                "solve_triangular_seconds",
                Json::Number(stats.solve_seconds),
            ),
            ("eval_seconds", Json::Number(stats.eval_seconds)),
            ("threads", Json::Number(stats.threads as f64)),
        ]);
    }
    fields.push((
        "orchestrator",
        match &solve.orchestrator {
            Some(record) => record.to_json(),
            None => Json::Null,
        },
    ));
    Json::object(fields)
}

/// The `presolve` block of one snapshot row (`null` for generation-only
/// rows or when presolve was disabled). Reuses the API record's JSON shape
/// so the snapshot and report blocks stay byte-compatible.
fn presolve_row_json(presolve: Option<&PresolveRecord>) -> Json {
    match presolve {
        Some(record) => record.to_json(),
        None => Json::Null,
    }
}

/// Writes the benchmark snapshot to `path` (pretty-printed, trailing
/// newline), returning an [`ApiError::Io`] on failure.
///
/// When `path` already holds a snapshot with a top-level `"throughput"`
/// block (written by `polyinv-loadgen --bench-out`), that block is carried
/// over: regenerating the tables must not erase the serving measurements.
pub fn write_bench_json(
    path: &std::path::Path,
    tables: &[(&str, &[RowResult])],
) -> Result<(), ApiError> {
    let mut doc = rows_to_json(tables);
    if let Some(throughput) = read_existing_throughput(path) {
        if let Json::Object(fields) = &mut doc {
            fields.push(("throughput".to_string(), throughput));
        }
    }
    let mut text = doc.pretty();
    text.push('\n');
    std::fs::write(path, text).map_err(|error| ApiError::Io {
        path: path.display().to_string(),
        message: error.to_string(),
    })
}

/// The `"throughput"` block of an existing snapshot file, if any. Unreadable
/// or unparseable files yield `None` — the rewrite then proceeds as a fresh
/// snapshot.
fn read_existing_throughput(path: &std::path::Path) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = Json::parse(&text).ok()?;
    doc.get("throughput").cloned()
}

/// Formats a collection of rows as the table printed by the `reproduce`
/// binary, with one column per pipeline stage.
pub fn format_table(title: &str, rows: &[RowResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    out.push_str(&format!(
        "{:<26} {:>2} {:>2} {:>8} {:>8} {:>10} {:>10} {:>9} {:>9} {:>9} {:>10} {:>11} {:>12}\n",
        "benchmark",
        "n",
        "d",
        "|V|paper",
        "|V|ours",
        "|S|paper",
        "|S|ours",
        "tmpl",
        "pairs",
        "reduce",
        "gen-time",
        "paper-time",
        "solve"
    ));
    for row in rows {
        let solve = match &row.solve {
            None => "-".to_string(),
            Some(s) => match s.status {
                SolveStatus::Synthesized => {
                    format!("{}({:.1}s)", s.backend, s.solve_time.as_secs_f64())
                }
                SolveStatus::Failed => format!("fail({:.0e})", s.violation),
            },
        };
        let stage = |name: &str| format!("{:.3}s", row.stage_seconds(name));
        out.push_str(&format!(
            "{:<26} {:>2} {:>2} {:>8} {:>8} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9.2}s {:>10.1}s {:>12}\n",
            row.name,
            row.n,
            row.d,
            row.paper_vars,
            row.our_vars,
            row.paper_size,
            row.our_size,
            stage(stage_names::TEMPLATES),
            stage(stage_names::PAIRS),
            stage(stage_names::REDUCTION),
            row.generation_time().as_secs_f64(),
            row.paper_runtime,
            solve
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rewriting_a_snapshot_preserves_the_throughput_block() {
        let path = std::env::temp_dir().join(format!(
            "polyinv-bench-throughput-{}.json",
            std::process::id()
        ));
        // Seed the file with a snapshot carrying a loadgen throughput block.
        let seeded = Json::object(vec![
            ("schema", Json::string("polyinv-bench/v1")),
            ("rows", Json::Array(vec![])),
            (
                "throughput",
                Json::object(vec![("programs", Json::Number(200.0))]),
            ),
        ]);
        std::fs::write(&path, seeded.pretty()).unwrap();

        // A regeneration with fresh tables must carry the block over…
        write_bench_json(&path, &[("table3", &[])]).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("polyinv-bench/v1")
        );
        assert_eq!(
            doc.get("throughput")
                .and_then(|block| block.get("programs"))
                .and_then(Json::as_usize),
            Some(200)
        );

        // …and a snapshot without one stays without one.
        std::fs::remove_file(&path).unwrap();
        write_bench_json(&path, &[("table3", &[])]).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(doc.get("throughput").is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn run_row_reports_generation_metrics_for_a_small_benchmark() {
        let benchmark = polyinv_benchmarks::by_name("recursive-sum").unwrap();
        let row = run_row(&benchmark, false);
        assert_eq!(row.paper_size, 1700);
        assert!(row.our_size > 100);
        assert!(row.solve.is_none());
        // The Engine recorded every generation stage.
        for stage in [
            stage_names::TEMPLATES,
            stage_names::PAIRS,
            stage_names::REDUCTION,
        ] {
            assert!(
                row.stage_seconds(stage) > 0.0,
                "missing stage timing: {stage}"
            );
        }
        let table = format_table("Table 3 (excerpt)", &[row]);
        assert!(table.contains("recursive-sum"));
        assert!(table.contains("|S|ours"));
        assert!(table.contains("reduce"));
    }

    #[test]
    fn bench_snapshot_json_covers_rows_with_stage_timings() {
        let benchmark = polyinv_benchmarks::by_name("recursive-sum").unwrap();
        let row = run_row(&benchmark, false);
        let json = rows_to_json(&[("table3", std::slice::from_ref(&row))]);
        assert_eq!(
            json.get("schema").unwrap().as_str(),
            Some("polyinv-bench/v1")
        );
        let rows = json.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows.len(), 1);
        let entry = &rows[0];
        assert_eq!(entry.get("name").unwrap().as_str(), Some("recursive-sum"));
        assert_eq!(entry.get("table").unwrap().as_str(), Some("table3"));
        assert!(entry.get("size").unwrap().as_usize().unwrap() > 100);
        assert!(entry.get("unknowns").unwrap().as_usize().unwrap() > 100);
        let timings = entry.get("timings").unwrap();
        for stage in [
            stage_names::TEMPLATES,
            stage_names::PAIRS,
            stage_names::REDUCTION,
        ] {
            assert!(
                timings.get(stage).unwrap().as_f64().unwrap() > 0.0,
                "missing {stage} timing in the snapshot"
            );
        }
        // Generation-only rows carry explicit null solve/presolve blocks.
        assert_eq!(entry.get("solve"), Some(&Json::Null));
        assert_eq!(entry.get("presolve"), Some(&Json::Null));
        // The document parses back (the CI coverage check relies on this).
        let reparsed = Json::parse(&json.pretty()).unwrap();
        assert_eq!(reparsed, json);
    }

    #[test]
    fn solve_blocks_serialize_their_statistics() {
        let row = RowResult {
            name: "tiny".to_string(),
            n: 1,
            d: 1,
            paper_vars: 2,
            our_vars: 2,
            paper_size: 10,
            our_size: 12,
            unknowns: 9,
            paper_runtime: 0.1,
            timings: vec![("solve".to_string(), 0.25)],
            solve: Some(SolveRow {
                status: SolveStatus::Synthesized,
                solve_time: Duration::from_millis(250),
                violation: 1e-9,
                backend: "lm".to_string(),
                reason: None,
                orchestrator: None,
                stats: Some(SolverRecord {
                    iterations: 40,
                    restarts: 2,
                    final_residual: 1e-17,
                    nnz_jacobian: 60,
                    nnz_factor: 33,
                    factorizations: 44,
                    factor_seconds: 0.2,
                    solve_seconds: 0.01,
                    eval_seconds: 0.05,
                    threads: 4,
                }),
            }),
            presolve: Some(PresolveRecord {
                size_before: 12,
                size_after: 7,
                unknowns_before: 9,
                unknowns_after: 6,
                rounds: 2,
                pinned: 1,
                fixed: 2,
                affine: 1,
                solved: 0,
                freed: 0,
                rectified: 0,
                dropped: 5,
                duplicates: 0,
                seconds: 0.001,
            }),
            validate: None,
        };
        let json = rows_to_json(&[("table2", std::slice::from_ref(&row))]);
        let entry = &json.get("rows").unwrap().as_array().unwrap()[0];
        let presolve = entry.get("presolve").unwrap();
        assert_eq!(presolve.get("size_before").unwrap().as_usize(), Some(12));
        assert_eq!(presolve.get("size_after").unwrap().as_usize(), Some(7));
        assert_eq!(presolve.get("rounds").unwrap().as_usize(), Some(2));
        let solve = entry.get("solve").unwrap();
        assert_eq!(solve.get("status").unwrap().as_str(), Some("synthesized"));
        assert_eq!(solve.get("synthesized"), Some(&Json::Bool(true)));
        assert_eq!(solve.get("reason"), Some(&Json::Null));
        assert_eq!(solve.get("backend").unwrap().as_str(), Some("lm"));
        assert_eq!(solve.get("iterations").unwrap().as_usize(), Some(40));
        assert_eq!(solve.get("restarts").unwrap().as_usize(), Some(2));
        assert_eq!(solve.get("nnz_jacobian").unwrap().as_usize(), Some(60));
        assert_eq!(solve.get("nnz_factor").unwrap().as_usize(), Some(33));
        assert!(solve.get("factor_seconds").unwrap().as_f64().unwrap() > 0.0);
        assert!(
            solve
                .get("solve_triangular_seconds")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        assert_eq!(solve.get("eval_seconds").unwrap().as_f64(), Some(0.05));
        assert_eq!(solve.get("threads").unwrap().as_usize(), Some(4));
        let reparsed = Json::parse(&json.pretty()).unwrap();
        assert_eq!(reparsed, json);
    }

    #[test]
    fn solve_policies_attempt_every_row_under_a_wall_clock_budget() {
        // There is no size cap: every `--solve` row is attempted under the
        // default wall-clock budget, or under an explicit one.
        fn attempt_budget(policy: SolvePolicy) -> Option<f64> {
            match policy {
                SolvePolicy::Attempt { budget_seconds } => Some(budget_seconds),
                SolvePolicy::None => None,
            }
        }
        assert_eq!(
            attempt_budget(solve_policy_for(true)),
            Some(DEFAULT_SOLVE_BUDGET_SECONDS)
        );
        assert!(matches!(solve_policy_for(false), SolvePolicy::None));
        assert_eq!(
            attempt_budget(solve_policy_with_budget(true, 30.0)),
            Some(30.0)
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with `cargo test --release`"
    )]
    fn solved_rows_describe_the_accepted_rungs_system() {
        // Regression test for the size-mismatch bug: a solved row's
        // `size`/`unknowns` and its presolve block must describe the same
        // (post-ladder, pre-presolve) system — the one the orchestrator's
        // accepted rung generated — not the generation-only paper-config
        // run.
        let engine = engine_for_tables();
        let benchmark = polyinv_benchmarks::by_name("pw2").unwrap();
        let row = run_row_full(
            &engine,
            &benchmark,
            SolvePolicy::Attempt {
                budget_seconds: 0.0,
            },
            false,
        );
        let solve = row.solve.as_ref().expect("the solve was attempted");
        let orchestrator = solve
            .orchestrator
            .as_ref()
            .expect("attempted rows carry the ladder statistics");
        assert!(orchestrator.attempts >= 1);
        if solve.synthesized() {
            assert!(orchestrator.certified, "synthesized rows are certified");
        }
        let presolve = row
            .presolve
            .as_ref()
            .expect("the accepted rung ran presolve");
        assert_eq!(
            row.our_size, presolve.size_before,
            "row size and presolve must describe the same system"
        );
        assert_eq!(
            row.unknowns, presolve.unknowns_before,
            "row unknowns and presolve must describe the same system"
        );
    }

    #[test]
    fn a_shared_engine_parses_each_benchmark_once() {
        let engine = engine_for_tables();
        let benchmark = polyinv_benchmarks::by_name("recursive-sum").unwrap();
        let _ = run_row_on(&engine, &benchmark, false);
        let _ = run_row_on(&engine, &benchmark, false);
        assert_eq!(engine.cached_programs(), 1);
    }
}
