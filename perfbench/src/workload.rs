//! The workloads, their inputs, and the request each input makes.
//!
//! A table request takes the same public steps as the weak path of
//! `Engine::run`: the Engine's parse cache, target resolution, degree
//! escalation, one `Orchestrator::solve`, and rendering of a synthesized
//! invariant. It calls them itself rather than `Engine::run` because the
//! report `Engine::run` returns drops the snapped assignment the oracle
//! needs. A fuzz request is one case of the `polyinv fuzz` loop: generate,
//! parse/print round trip, orchestrated solve, trace falsification.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use polyinv::pipeline::Pipeline;
use polyinv::{Orchestrator, OrchestratorOutcome, SolvePlan, TargetAssertion};
use polyinv_api::engine::{escalate_degree, resolve_weak_targets};
use polyinv_api::{ApiError, Engine, SynthesisRequest};
use polyinv_bench::{solve_request, validation_for_tables, DEFAULT_SOLVE_BUDGET_SECONDS};
use polyinv_constraints::{Elimination, PresolveOptions, SynthesisOptions};
use polyinv_lang::{Precondition, Program};
use polyinv_qcqp::LmWorkspace;
use polyinv_validate::{generate_program, FuzzConfig, GenConfig};

use crate::oracle::{self, Oracle};
use crate::stats::fnv1a;

/// Table 2/3 rows the default plan certifies on the ϒ = 0 rung within its
/// iteration caps, and whose invariants survive the oracle at the seed
/// commit. Rows whose invariant the oracle refutes are left out of the
/// measured workload (a refuted verdict is a failed operation) and kept in
/// `tables-rung0-full`.
pub const RUNG0_ROWS: &[&str] = &[
    "cohendiv",
    "divbin",
    "wensely",
    "z3sqrt",
    "freire1",
    "freire2",
    "euclidex2",
    "petter",
];

/// All 18 rows the default plan certifies on the ϒ = 0 rung, refuted or
/// not: the honest baseline of verdicts and refutations.
pub const RUNG0_ALL_ROWS: &[&str] = &[
    "cohendiv",
    "divbin",
    "hard",
    "mannadiv",
    "wensely",
    "sqrt",
    "dijkstra",
    "z3sqrt",
    "freire1",
    "freire2",
    "euclidex1",
    "euclidex2",
    "euclidex3",
    "cohencu",
    "petter",
    "oscillator",
    "pw2",
    "strict-inverted-pendulum",
];

/// Large ϒ = 2 rows solved under the fixed-work plan.
pub const RUNG2_ROWS: &[&str] = &["recursive-sum", "recursive-square-sum", "prodbin"];

/// Fixed-work caps of `tables-rung2-fixed` (every wall-clock cap is off).
pub const RUNG2_LM_ITERATIONS: usize = 12;
/// LM restarts of the fixed-work plan.
pub const RUNG2_LM_RESTARTS: usize = 1;
/// Polish rounds of the fixed-work plan.
pub const RUNG2_POLISH_ROUNDS: usize = 1;
/// LM iterations of one polish sub-solve in the fixed-work plan.
pub const RUNG2_POLISH_ITERATIONS: usize = 6;

/// Generated programs served per pass of `fuzz-seeded` (seeds 0, 1, …).
pub const FUZZ_PROGRAMS: usize = 40;

/// The workloads `--workload` accepts.
pub const WORKLOADS: &[&str] = &[
    "tables-rung0",
    "tables-rung2-fixed",
    "fuzz-seeded",
    "tables-rung0-full",
];

/// How a table row's `SolvePlan` is made from its degree-escalated options.
type PlanFn = fn(SynthesisOptions) -> SolvePlan;

/// The `reproduce --solve` plan: the default portfolio under the default
/// whole-solve budget.
fn default_plan(options: SynthesisOptions) -> SolvePlan {
    SolvePlan::new(options).with_solve_budget(DEFAULT_SOLVE_BUDGET_SECONDS)
}

/// The fixed-work plan: LM lane only, every wall-clock cap off, fixed LM
/// and polish iteration caps, so a faster kernel shows as less time
/// instead of more iterations.
pub fn fixed_work_plan(options: SynthesisOptions) -> SolvePlan {
    let mut plan = SolvePlan::new(options).with_backend_preference("lm");
    plan.solve_budget_seconds = 0.0;
    plan.lm.max_iterations = RUNG2_LM_ITERATIONS;
    plan.lm.restarts = RUNG2_LM_RESTARTS;
    plan.lm.max_seconds = 0.0;
    plan.polish_rounds = RUNG2_POLISH_ROUNDS;
    plan.polish_lm.max_iterations = RUNG2_POLISH_ITERATIONS;
    plan.polish_lm.max_seconds = 0.0;
    plan
}

/// The orchestrator plan of one fuzz case, as `polyinv fuzz` builds it.
fn fuzz_plan(config: &FuzzConfig) -> SolvePlan {
    let mut plan = SolvePlan::new(config.options.clone());
    plan.lm = config.solver.clone();
    plan.penalty = None;
    plan.polish_rounds = 0;
    plan
}

/// One input of a workload.
pub struct Input {
    /// Row name, or `fuzz-<seed>` for a generated program.
    pub name: String,
    request: Request,
}

enum Request {
    Table {
        request: Box<SynthesisRequest>,
        plan: PlanFn,
    },
    Fuzz {
        seed: u64,
    },
}

/// A workload made ready to serve: its inputs in serving order and, for the
/// table workloads, an Engine whose parse cache holds every input.
pub struct Prepared {
    pub inputs: Vec<Input>,
    engine: Engine,
}

/// The inputs of `workload`, in canonical order. Every workload serves a
/// fixed set of inputs — table rows, or the generated programs
/// `generate_program(k)` for `k < FUZZ_PROGRAMS` — and the seed shuffles
/// their serving order ([`prepare`]). Fixing the set keeps the work of a
/// pass equal across seeds: generated programs differ in cost by up to
/// 40×, so a seed-chosen set of 40 would move `suite_s` by more than any
/// bound.
///
/// # Errors
///
/// Unknown workload names.
pub fn inputs(workload: &str) -> Result<Vec<Input>, String> {
    let table = |rows: &[&str], plan: PlanFn| -> Vec<Input> {
        rows.iter()
            .map(|&name| {
                let benchmark = polyinv_benchmarks::by_name(name).expect("row names are valid");
                Input {
                    name: name.to_string(),
                    request: Request::Table {
                        request: Box::new(solve_request(&benchmark)),
                        plan,
                    },
                }
            })
            .collect()
    };
    Ok(match workload {
        "tables-rung0" => table(RUNG0_ROWS, default_plan),
        "tables-rung0-full" => table(RUNG0_ALL_ROWS, default_plan),
        "tables-rung2-fixed" => table(RUNG2_ROWS, fixed_work_plan),
        "fuzz-seeded" => (0..FUZZ_PROGRAMS as u64)
            .map(|k| Input {
                name: format!("fuzz-{k}"),
                request: Request::Fuzz { seed: k },
            })
            .collect(),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// A seeded Fisher–Yates shuffle (splitmix64), so the serving order
/// depends on the seed only.
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
}

/// Set-up: a fresh Engine whose parse cache holds every table input, each
/// input's request resolved once, and one constraint generation per input
/// at its largest ϒ to warm the allocator. Fuzz inputs are generated and
/// parsed once. Set-up walks the inputs in canonical order, so its work
/// and allocation pattern do not depend on the seed; then the seed
/// shuffles the serving order.
///
/// # Errors
///
/// Any input that does not parse or generate.
pub fn prepare(mut inputs: Vec<Input>, seed: u64) -> Result<Prepared, String> {
    let engine = Engine::new();
    for input in &inputs {
        let (program, options) = match &input.request {
            Request::Table { request, .. } => {
                let program = engine
                    .parse_program(&request.source)
                    .map_err(|e| format!("{}: {e}", input.name))?;
                let targets = resolve_weak_targets(&program, request).map_err(|e| e.to_string())?;
                let (options, _) = escalate_degree(&request.options, &targets);
                (program, options)
            }
            Request::Fuzz { seed } => {
                let source = generate_program(*seed, &GenConfig::default()).source;
                let program = polyinv_lang::parse_program(&source)
                    .map_err(|e| format!("{}: {e}", input.name))?;
                (Arc::new(program), FuzzConfig::default().options)
            }
        };
        let pre = Precondition::from_program(&program);
        let pipeline = Pipeline::new(options);
        let mut ctx = pipeline.context(&program, &pre);
        pipeline
            .generate(&mut ctx)
            .map_err(|e| format!("{}: {e}", input.name))?;
    }
    shuffle(&mut inputs, seed);
    Ok(Prepared { inputs, engine })
}

/// The verdict of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The orchestrator certified the invariant.
    Synthesized,
    /// No certified invariant (a legitimate answer, not a failure).
    Failed,
    /// The request returned an error or panicked.
    Error,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Synthesized => "synthesized",
            Verdict::Failed => "failed",
            Verdict::Error => "error",
        }
    }
}

/// Raw timings of one request, taken only when tracing: the spans the
/// benchmark records around its own calls plus the per-stage seconds the
/// crates return (`StageTimings`, `OrchestratorStats.history`,
/// `SolverStats`).
#[derive(Debug, Clone, Default)]
pub struct Raw {
    /// Served through the Engine's steps (the table workloads).
    pub via_engine: bool,
    /// Engine parse-cache call that missed (a hit counts as Engine time).
    pub parse_miss_s: f64,
    /// Parse and print round trip of a fuzz case.
    pub lang_s: f64,
    /// `generate_program` of a fuzz case.
    pub fuzz_generate_s: f64,
    /// Snapped instantiation plus `falsify_traces` of a fuzz case.
    pub trace_s: f64,
    /// The `Orchestrator::solve` call.
    pub orchestrate_s: f64,
    /// Steps 1–3 over all rungs.
    pub generate_s: f64,
    pub presolve_s: f64,
    /// LM lane, all rungs (runs on the calling thread).
    pub lm_s: f64,
    /// Penalty lane, all rungs (its own thread).
    pub penalty_s: f64,
    /// Time the calling thread waited for the penalty lane after its LM
    /// lane finished, per rung.
    pub penalty_wait_s: f64,
    pub polish_s: f64,
    pub certificate_s: f64,
    /// `SolverStats` of the reported lane when it is an LM lane (the
    /// crates return no LM stats when the penalty lane wins).
    pub lm_reported: bool,
    pub factor_s: f64,
    pub trisolve_s: f64,
    pub eval_s: f64,
    /// The reported rung, for the symbolic-analysis probe.
    pub rung: u32,
}

/// The counts of one request. Every field is work, never time, so it must
/// repeat exactly across passes and runs of one commit.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub rows: usize,
    pub unknowns: usize,
    pub presolve_before: usize,
    pub presolve_after: usize,
    pub certificate_attempts: usize,
    pub certificate_passes: usize,
    pub nnz_factor: usize,
    pub lm_iterations: usize,
    pub factorizations: usize,
    pub penalty_wins: usize,
    pub rungs_tried: usize,
    pub attempts: usize,
    pub trace_states: usize,
    pub cache_hits: usize,
    /// Worst violation after / before each polish pass.
    pub polish_gains: Vec<f64>,
}

/// What one request produced.
pub struct Served {
    pub verdict: Verdict,
    pub counts: Counts,
    /// Digest of everything that must repeat exactly: verdict, counts and
    /// the bits of the solver's violations.
    pub fingerprint: u64,
    pub raw: Option<Raw>,
    /// The oracle's finding on a synthesized verdict (fuzz: always, as part
    /// of the request; tables: filled by [`check_claim`] after the request).
    pub oracle: Option<Oracle>,
    /// What the deferred table oracle needs (only kept when asked for).
    pub claim: Option<Claim>,
    /// Error or panic message.
    pub error: Option<String>,
}

/// A synthesized table verdict waiting for the oracle.
pub struct Claim {
    program: Arc<Program>,
    outcome: OrchestratorOutcome,
    plan: SolvePlan,
}

impl Served {
    fn error(message: String) -> Self {
        Served {
            verdict: Verdict::Error,
            counts: Counts::default(),
            fingerprint: fnv1a(&message),
            raw: None,
            oracle: None,
            claim: None,
            error: Some(message),
        }
    }
}

impl Prepared {
    /// Serves input `index` once. Panics inside the crates are caught and
    /// reported as an `Error` verdict.
    pub fn serve(&self, index: usize, trace: bool, keep_claim: bool) -> Served {
        let input = &self.inputs[index];
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match &input.request {
                Request::Table { request, plan } => {
                    serve_table(&self.engine, request, *plan, trace, keep_claim)
                }
                Request::Fuzz { seed } => serve_fuzz(*seed, trace),
            }));
        match result {
            Ok(Ok(served)) => served,
            Ok(Err(error)) => Served::error(error.to_string()),
            Err(panic) => Served::error(format!(
                "panic: {}",
                panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            )),
        }
    }

    /// Seconds of one `LmWorkspace::build` (symbolic analysis) on the LM
    /// problem of input `index` at ϒ = `rung`: the median of three builds.
    /// The orchestrator builds this workspace once in the rung's LM lane
    /// and returns no timing for it, so the traced run measures it apart.
    pub fn symbolic_probe(&self, index: usize, rung: u32) -> Result<f64, String> {
        let Request::Table { request, plan } = &self.inputs[index].request else {
            return Ok(0.0);
        };
        let program = self
            .engine
            .parse_program(&request.source)
            .map_err(|e| e.to_string())?;
        let targets = resolve_weak_targets(&program, request).map_err(|e| e.to_string())?;
        let (options, _) = escalate_degree(&request.options, &targets);
        let plan = plan(options);
        let pre = Precondition::from_program(&program);
        let weight = plan.lm.objective_weight;
        let problem = lm_problem(&program, &pre, &targets, plan.options.with_upsilon(rung))?;
        let mut seconds: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(LmWorkspace::build(&problem, weight));
                start.elapsed().as_secs_f64()
            })
            .collect();
        seconds.sort_by(f64::total_cmp);
        Ok(seconds[1])
    }
}

/// The problem the orchestrator's LM lane solves on one rung: generated
/// system, target pins, affine presolve, eliminated unknowns pinned out.
fn lm_problem(
    program: &Program,
    pre: &Precondition,
    targets: &[TargetAssertion],
    options: SynthesisOptions,
) -> Result<polyinv_qcqp::Problem, String> {
    let pipeline = Pipeline::new(options.clone());
    let mut ctx = pipeline.context(program, pre);
    let generated = pipeline.generate(&mut ctx).map_err(|e| e.to_string())?;
    let fixed = polyinv::fix_targets(&generated, targets);
    if !options.presolve {
        return Ok(polyinv::system_to_problem_with_fixed(&generated.system, &fixed).0);
    }
    let presolved =
        polyinv_constraints::presolve(&generated.system, &fixed, &PresolveOptions::default());
    let mut pins = fixed;
    for elim in presolved.map.iter().filter(|elim| elim.eliminates()) {
        let value = match elim {
            Elimination::Fixed { value, .. } => *value,
            _ => polyinv::arith::Rational::zero(),
        };
        pins.insert(elim.unknown(), value);
    }
    Ok(polyinv::system_to_problem_with_fixed(&presolved.system, &pins).0)
}

fn seconds_since(start: Option<Instant>) -> f64 {
    start.map(|s| s.elapsed().as_secs_f64()).unwrap_or(0.0)
}

fn now(trace: bool) -> Option<Instant> {
    trace.then(Instant::now)
}

fn serve_table(
    engine: &Engine,
    request: &SynthesisRequest,
    make_plan: PlanFn,
    trace: bool,
    keep_claim: bool,
) -> Result<Served, ApiError> {
    let cached = engine.cached_programs();
    let parse_start = now(trace);
    let program = engine.parse_program(&request.source)?;
    let parse_s = seconds_since(parse_start);
    let hit = engine.cached_programs() == cached;
    let targets = resolve_weak_targets(&program, request)?;
    let (options, _) = escalate_degree(&request.options, &targets);
    let plan = make_plan(options);
    let pre = Precondition::from_program(&program);
    let solve_start = now(trace);
    let outcome = Orchestrator::new(plan.clone()).solve(&program, &pre, &targets)?;
    let orchestrate_s = seconds_since(solve_start);
    let verdict = if outcome.certified {
        // The Engine renders a synthesized invariant into its report.
        std::hint::black_box(outcome.invariant.render(&program));
        Verdict::Synthesized
    } else {
        Verdict::Failed
    };
    let mut counts = solve_counts(&outcome);
    counts.cache_hits = usize::from(hit);
    let raw = trace.then(|| {
        let mut raw = solve_raw(&outcome, orchestrate_s);
        raw.via_engine = true;
        if !hit {
            raw.parse_miss_s = parse_s;
        }
        raw
    });
    let fingerprint = fingerprint(verdict, &counts, &outcome, None);
    let claim = (keep_claim && verdict == Verdict::Synthesized).then_some(Claim {
        program,
        outcome,
        plan,
    });
    Ok(Served {
        verdict,
        counts,
        fingerprint,
        raw,
        oracle: None,
        claim,
        error: None,
    })
}

/// Runs the oracle on a table claim, with `validation_for_tables()`
/// settings, outside the timed region.
pub fn check_claim(claim: &Claim) -> Oracle {
    let pre = Precondition::from_program(&claim.program);
    oracle::check(
        &claim.program,
        &pre,
        &claim.outcome.generated,
        &claim.outcome.assignment,
        &claim.plan.certificate,
        &validation_for_tables().trace,
    )
}

fn serve_fuzz(seed: u64, trace: bool) -> Result<Served, ApiError> {
    let config = FuzzConfig::default();
    let generate_start = now(trace);
    let source = generate_program(seed, &config.gen).source;
    let fuzz_generate_s = seconds_since(generate_start);

    // Parse, then the printer/parser round trip of the fuzz loop.
    let lang_start = now(trace);
    let program = polyinv_lang::parse_program(&source)?;
    let printed = program.to_string();
    let reprinted = polyinv_lang::parse_program(&printed)?.to_string();
    let lang_s = seconds_since(lang_start);
    if printed != reprinted {
        return Err(ApiError::InvalidRequest {
            message: format!("round-trip mismatch for fuzz seed {seed}"),
        });
    }

    let pre = Precondition::from_program(&program);
    let plan = fuzz_plan(&config);
    let solve_start = now(trace);
    let outcome = Orchestrator::new(plan.clone()).solve(&program, &pre, &[])?;
    let orchestrate_s = seconds_since(solve_start);
    let verdict = if outcome.certified {
        Verdict::Synthesized
    } else {
        Verdict::Failed
    };

    // As in the fuzz loop, every feasible or certified claim is attacked.
    let trace_start = now(trace);
    let oracle = (outcome.feasible || outcome.certified).then(|| {
        oracle::check(
            &program,
            &pre,
            &outcome.generated,
            &outcome.assignment,
            &plan.certificate,
            &config.validation.trace,
        )
    });
    let trace_s = seconds_since(trace_start);

    let mut counts = solve_counts(&outcome);
    counts.trace_states = oracle.as_ref().map_or(0, |o| o.trace_states);
    let raw = trace.then(|| Raw {
        fuzz_generate_s,
        lang_s,
        trace_s,
        ..solve_raw(&outcome, orchestrate_s)
    });
    let fingerprint = fingerprint(verdict, &counts, &outcome, oracle.as_ref());
    Ok(Served {
        verdict,
        counts,
        fingerprint,
        raw,
        oracle,
        claim: None,
        error: None,
    })
}

fn solve_counts(outcome: &OrchestratorOutcome) -> Counts {
    let history = &outcome.stats.history;
    let certificates = history.iter().filter(|a| a.backend == "certificate");
    let mut polish_gains = Vec::new();
    let mut best_lane: HashMap<u32, f64> = HashMap::new();
    for attempt in history {
        match attempt.backend.as_str() {
            "lm" | "penalty" => {
                let best = best_lane.entry(attempt.upsilon).or_insert(f64::INFINITY);
                *best = best.min(attempt.violation);
            }
            "polish" => {
                if let Some(before) = best_lane.get(&attempt.upsilon).filter(|v| **v > 0.0) {
                    polish_gains.push(attempt.violation / before);
                }
            }
            _ => {}
        }
    }
    let presolve = outcome.presolve.as_ref();
    Counts {
        rows: outcome.system_size,
        unknowns: outcome.num_unknowns,
        presolve_before: presolve.map_or(0, |p| p.size_before),
        presolve_after: presolve.map_or(0, |p| p.size_after),
        certificate_attempts: certificates.clone().count(),
        certificate_passes: certificates.filter(|a| a.feasible).count(),
        nnz_factor: outcome.solver.nnz_factor,
        lm_iterations: outcome.solver.iterations,
        factorizations: outcome.solver.factorizations,
        penalty_wins: usize::from(outcome.stats.winning_backend == "penalty"),
        rungs_tried: outcome.stats.rungs_tried,
        attempts: outcome.stats.attempts,
        trace_states: 0,
        cache_hits: 0,
        polish_gains,
    }
}

fn solve_raw(outcome: &OrchestratorOutcome, orchestrate_s: f64) -> Raw {
    let history = &outcome.stats.history;
    let total = |backend: &str| -> f64 {
        history
            .iter()
            .filter(|a| a.backend == backend)
            .map(|a| a.seconds)
            .sum()
    };
    // The rung's lanes join before polish: the calling thread waits for the
    // penalty lane whenever it outlasts the LM lane.
    let mut penalty_wait_s = 0.0;
    for lm in history.iter().filter(|a| a.backend == "lm") {
        if let Some(penalty) = history
            .iter()
            .find(|a| a.backend == "penalty" && a.upsilon == lm.upsilon)
        {
            penalty_wait_s += (penalty.seconds - lm.seconds).max(0.0);
        }
    }
    let lm_reported = outcome.stats.winning_backend == "lm";
    let stats = &outcome.solver;
    Raw {
        orchestrate_s,
        generate_s: outcome.timings.generation().as_secs_f64(),
        presolve_s: outcome.timings.presolve().as_secs_f64(),
        lm_s: total("lm"),
        penalty_s: total("penalty"),
        penalty_wait_s,
        polish_s: total("polish"),
        certificate_s: total("certificate"),
        lm_reported,
        factor_s: if lm_reported {
            stats.factor_seconds
        } else {
            0.0
        },
        trisolve_s: if lm_reported {
            stats.solve_seconds
        } else {
            0.0
        },
        eval_s: if lm_reported { stats.eval_seconds } else { 0.0 },
        rung: outcome.stats.rung_reached,
        ..Raw::default()
    }
}

/// Digest of everything about a request that must repeat exactly.
fn fingerprint(
    verdict: Verdict,
    counts: &Counts,
    outcome: &OrchestratorOutcome,
    oracle: Option<&Oracle>,
) -> u64 {
    let history: Vec<String> = outcome
        .stats
        .history
        .iter()
        .map(|a| format!("{}:{}:{:x}", a.upsilon, a.backend, a.violation.to_bits()))
        .collect();
    fnv1a(&format!(
        "{}|{counts:?}|{:x}|{}|{}",
        verdict.label(),
        outcome.violation.to_bits(),
        history.join(","),
        oracle.map_or(String::new(), |o| format!("{o:?}")),
    ))
}
