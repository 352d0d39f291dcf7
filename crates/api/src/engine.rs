//! The Engine: one front door for every synthesis workload.
//!
//! An [`Engine`] owns a parsed-program cache keyed by program source,
//! consumes [`SynthesisRequest`]s and produces [`SynthesisReport`]s. It is
//! `Sync`, so one Engine instance can serve many threads;
//! [`Engine::run_batch`] fans a slice of requests out over scoped worker
//! threads and returns the results in request order, making batch output
//! deterministic.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use polyinv::pipeline::{stage_names, Pipeline, StageTimings};
use polyinv::{check_inductive, OrchestratorOutcome, SolvePlan, TargetAssertion};
use polyinv_lang::{InvariantMap, Label, Postcondition, Precondition, Program};
use polyinv_poly::Polynomial;
use polyinv_qcqp::par::parallel_indexed;

use crate::cache::Lru;
use crate::error::ApiError;
use crate::report::{ReportStatus, SynthesisReport};
use crate::request::{Mode, SynthesisRequest};

/// Capacity of the parse cache (distinct programs).
const PARSE_CACHE_CAPACITY: usize = 64;

/// Multi-start attempts of a strong request that names no attempt count.
const DEFAULT_STRONG_ATTEMPTS: usize = 8;

/// Parsed programs keyed by their source, capacity-capped with
/// least-recently-used eviction so a long-running service does not
/// accumulate every source it ever saw.
type ProgramCache = Lru<Arc<Program>>;

/// The stable front door: parses (and caches) programs, dispatches the four
/// modes, and serializes everything that comes back.
///
/// ```
/// use polyinv_api::{Engine, SynthesisRequest};
///
/// let engine = Engine::new();
/// let request = SynthesisRequest::generate_only(
///     polyinv_lang::program::RUNNING_EXAMPLE_SOURCE,
/// );
/// let report = engine.run(&request)?;
/// assert!(report.system_size > 0);
/// # Ok::<(), polyinv_api::ApiError>(())
/// ```
#[derive(Debug)]
pub struct Engine {
    /// One lock serves the whole cache: a parse costs microseconds next to
    /// solves of seconds, and parsing itself runs outside the lock.
    cache: Mutex<ProgramCache>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An Engine with an empty parse cache.
    pub fn new() -> Self {
        Engine {
            cache: Mutex::new(ProgramCache::new(PARSE_CACHE_CAPACITY)),
        }
    }

    /// The stable name of the lane a request without a back-end preference
    /// reports first (`"lm"`).
    pub fn backend_name(&self) -> &'static str {
        "lm"
    }

    /// Parses a program, consulting the parse cache first.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::Parse`] (with the front-end's source span) when
    /// the source does not lex, parse or resolve.
    pub fn parse_program(&self, source: &str) -> Result<Arc<Program>, ApiError> {
        if let Some(program) = self.cache.lock().expect("cache lock").get(source) {
            return Ok(program);
        }
        let program = Arc::new(polyinv_lang::parse_program(source)?);
        let mut cache = self.cache.lock().expect("cache lock");
        // Re-check under the lock: a concurrent batch worker may have parsed
        // the same source while this thread was parsing (check-then-act).
        if let Some(cached) = cache.get(source) {
            return Ok(cached);
        }
        cache.insert(source, Arc::clone(&program));
        Ok(program)
    }

    /// Number of distinct programs currently cached.
    pub fn cached_programs(&self) -> usize {
        self.cache.lock().expect("cache lock").len()
    }

    /// Serves one request.
    ///
    /// Request-level problems (unparseable source, unknown back-end, bad
    /// assertion, out-of-range label) come back as `Err`; a solver that runs
    /// but does not converge or certify is a *report* with
    /// [`ReportStatus::Failed`] or [`ReportStatus::NotCertified`]. Weak
    /// requests are served by [`Engine::run_weak`].
    pub fn run(&self, request: &SynthesisRequest) -> Result<SynthesisReport, ApiError> {
        if request.mode == Mode::Weak {
            return Ok(self.run_weak(request)?.2);
        }
        let program = self.parse_program(&request.source)?;
        if let Some(name) = &request.backend {
            // Strong enumeration runs fixed LM attempts and certificate
            // checking its own LM searches; neither can honor an arbitrary
            // back-end, and rejecting beats silently ignoring.
            if matches!(request.mode, Mode::Strong | Mode::Check) {
                return Err(ApiError::InvalidRequest {
                    message: format!(
                        "back-end selection applies to weak and generate-only requests; \
                         {} requests use the built-in LM substrate",
                        request.mode.as_str()
                    ),
                });
            }
            check_backend(name)?;
        }
        let pre = Precondition::from_program(&program);
        match request.mode {
            Mode::GenerateOnly => self.run_generate(request, &program, &pre),
            Mode::Strong => self.run_strong(request, &program, &pre),
            Mode::Check => self.run_check(request, &program, &pre),
            Mode::Weak => unreachable!("weak requests are served by run_weak"),
        }
    }

    /// Serves a weak-mode request: parses (through the cache), checks the
    /// back-end, resolves the targets, escalates the template degree to fit
    /// them and runs the solve orchestrator. Returns the parsed program and
    /// the orchestrated outcome along with the report built from them, so a
    /// caller can attack the outcome's invariant (the validation subsystem
    /// does) without solving again.
    ///
    /// # Errors
    ///
    /// Returns [`ApiError::InvalidRequest`] for any other mode, and the
    /// request-level errors of [`Engine::run`].
    pub fn run_weak(
        &self,
        request: &SynthesisRequest,
    ) -> Result<(Arc<Program>, OrchestratorOutcome, SynthesisReport), ApiError> {
        if request.mode != Mode::Weak {
            return Err(ApiError::InvalidRequest {
                message: "run_weak serves weak-mode requests only".to_string(),
            });
        }
        let program = self.parse_program(&request.source)?;
        if let Some(name) = &request.backend {
            check_backend(name)?;
        }
        let pre = Precondition::from_program(&program);
        let targets = resolve_weak_targets(&program, request)?;
        let (options, escalation) = escalate_degree(&request.options, &targets);
        // The orchestrator builds its own lanes; a request-level back-end
        // choice narrows them to that lane.
        let mut plan = SolvePlan::new(options).with_solve_budget(request.solve_budget_seconds);
        if let Some(name) = &request.backend {
            plan = plan.with_backend_preference(name);
        }
        let outcome = polyinv::Orchestrator::new(plan).solve(&program, &pre, &targets)?;
        let report = weak_report(request, &program, &outcome, escalation);
        Ok((program, outcome, report))
    }

    /// Serves a slice of requests in parallel on scoped worker threads.
    ///
    /// The result vector is index-aligned with `requests` regardless of
    /// completion order, so batch output is deterministic and
    /// request-ordered. The program cache is shared across the batch:
    /// requests with identical sources parse once.
    pub fn run_batch(
        &self,
        requests: &[SynthesisRequest],
    ) -> Vec<Result<SynthesisReport, ApiError>> {
        parallel_indexed(requests.len(), |index| self.run(&requests[index]))
    }

    fn run_generate(
        &self,
        request: &SynthesisRequest,
        program: &Program,
        pre: &Precondition,
    ) -> Result<SynthesisReport, ApiError> {
        if !request.assertions.is_empty() {
            return Err(ApiError::InvalidRequest {
                message: "generate-only requests take no assertions".to_string(),
            });
        }
        let pipeline = Pipeline::new(request.options.clone());
        let mut ctx = pipeline.context(program, pre);
        let generated = pipeline.generate(&mut ctx)?;
        let mut report =
            SynthesisReport::skeleton(&request.id, request.mode, ReportStatus::Generated);
        report.system_size = generated.size();
        report.num_unknowns = generated.system.num_unknowns();
        report.timings = timings_to_seconds(ctx.timings());
        report.diagnostics = ctx.diagnostics().to_vec();
        Ok(report)
    }

    fn run_strong(
        &self,
        request: &SynthesisRequest,
        program: &Program,
        pre: &Precondition,
    ) -> Result<SynthesisReport, ApiError> {
        if !request.assertions.is_empty() {
            return Err(ApiError::InvalidRequest {
                message: "strong requests take no assertions (they enumerate, not prove)"
                    .to_string(),
            });
        }
        let plan =
            SolvePlan::new(request.options.clone()).with_solve_budget(request.solve_budget_seconds);
        let attempts = request.attempts.unwrap_or(DEFAULT_STRONG_ATTEMPTS);
        let enumeration = polyinv::Orchestrator::new(plan).enumerate(program, pre, attempts)?;
        let status = if enumeration.members.is_empty() {
            ReportStatus::Failed
        } else {
            ReportStatus::Synthesized
        };
        let mut report = SynthesisReport::skeleton(&request.id, request.mode, status);
        report.backend = "lm".to_string();
        report.system_size = enumeration.generated.size();
        report.num_unknowns = enumeration.generated.system.num_unknowns();
        report.timings = timings_to_seconds(&enumeration.timings);
        report.diagnostics.push(format!(
            "{} distinct certified invariant(s) at ϒ = {} after {} attempt(s) over {} rung(s)",
            enumeration.members.len(),
            enumeration.stats.rung_reached,
            enumeration.stats.attempts,
            enumeration.stats.rungs_tried
        ));
        for (index, member) in enumeration.members.iter().enumerate() {
            for line in render_lines(&member.invariant.render(program)) {
                report.invariants.push(format!("[{index}] {line}"));
            }
            for line in render_postconditions(program, &member.postconditions) {
                report.postconditions.push(format!("[{index}] {line}"));
            }
        }
        Ok(report)
    }

    fn run_check(
        &self,
        request: &SynthesisRequest,
        program: &Program,
        pre: &Precondition,
    ) -> Result<SynthesisReport, ApiError> {
        if request.assertions.is_empty() {
            return Err(ApiError::InvalidRequest {
                message: "check requests need at least one invariant assertion".to_string(),
            });
        }
        let mut invariant = InvariantMap::new();
        let mut post = Postcondition::new();
        for spec in &request.assertions {
            let poly = parse_assertion(program, &spec.text)?;
            match &spec.function {
                Some(function) => post.add(function, poly),
                None => invariant.add(resolve_label(program, spec.label)?, poly),
            }
        }
        let start = Instant::now();
        let check = check_inductive(program, pre, &invariant, &post, &request.options)?;
        let elapsed = start.elapsed().as_secs_f64();
        let status = if check.all_certified() {
            ReportStatus::Certified
        } else {
            ReportStatus::NotCertified
        };
        let mut report = SynthesisReport::skeleton(&request.id, request.mode, status);
        report.backend = "lm".to_string();
        report.pairs_total = check.certificates.len();
        report.pairs_certified = check.num_certified();
        report.system_size = check
            .certificates
            .iter()
            .map(|c| c.problem_size)
            .max()
            .unwrap_or(0);
        report.timings = vec![(stage_names::SOLVE.to_string(), elapsed)];
        report.invariants = render_lines(&invariant.render(program));
        report.postconditions = render_postconditions(program, &post);
        for failure in check.failures() {
            report.diagnostics.push(format!("uncertified: {failure}"));
        }
        Ok(report)
    }
}

/// The report of a weak request from its orchestrated outcome: status
/// `synthesized` exactly when the outcome is certified, the accepted (or
/// last) rung's metrics and solver, presolve and orchestrator blocks, the
/// degree-escalation note when there is one, and a verdict diagnostic.
fn weak_report(
    request: &SynthesisRequest,
    program: &Program,
    outcome: &OrchestratorOutcome,
    escalation: Option<String>,
) -> SynthesisReport {
    let status = if outcome.certified {
        ReportStatus::Synthesized
    } else {
        ReportStatus::Failed
    };
    let mut report = SynthesisReport::skeleton(&request.id, request.mode, status);
    report.backend = outcome.backend.to_string();
    report.system_size = outcome.system_size;
    report.num_unknowns = outcome.num_unknowns;
    report.violation = outcome.violation;
    report.timings = timings_to_seconds(&outcome.timings);
    report.solver = Some((*outcome.solver).clone());
    report.presolve = outcome.presolve.as_deref().cloned();
    report.orchestrator = Some((*outcome.stats).clone());
    report.diagnostics.extend(escalation);
    if outcome.certified {
        report.invariants = render_lines(&outcome.invariant.render(program));
        report.postconditions = render_postconditions(program, &outcome.postconditions);
        report.diagnostics.push(format!(
            "certified at ϒ = {} after {} attempt(s); exact worst violation {:.3e}",
            outcome.stats.rung_reached, outcome.stats.attempts, outcome.stats.certificate_violation
        ));
    } else {
        report.diagnostics.push(format!(
            "uncertified after {} attempt(s) over {} rung(s); solver `{}` stopped at \
             violation {:.3e}, exact re-check at {:.3e}",
            outcome.stats.attempts,
            outcome.stats.rungs_tried,
            outcome.backend,
            outcome.violation,
            outcome.stats.certificate_violation
        ));
    }
    report
}

/// Rejects a request-level back-end name the solve plan does not act on
/// ([`SolvePlan::knows_backend`]) with [`ApiError::UnknownBackend`].
fn check_backend(name: &str) -> Result<(), ApiError> {
    if SolvePlan::knows_backend(name) {
        Ok(())
    } else {
        Err(ApiError::UnknownBackend {
            name: name.to_string(),
        })
    }
}

/// Resolves and validates the target assertions of a weak-mode request:
/// post-condition specs are rejected, labels resolve against the main
/// function, and no label may receive more targets than the template has
/// conjuncts. Targets whose degree exceeds the requested template degree
/// are *not* rejected here — [`escalate_degree`] raises the degree to fit
/// them. Public so that harnesses can size a weak request's targets and
/// options exactly as [`Engine::run_weak`] does without solving it.
///
/// # Errors
///
/// Returns [`ApiError::InvalidRequest`] / [`ApiError::UnknownLabel`] /
/// [`ApiError::Assertion`] exactly as an Engine weak run would.
pub fn resolve_weak_targets(
    program: &Program,
    request: &SynthesisRequest,
) -> Result<Vec<TargetAssertion>, ApiError> {
    let targets: Vec<TargetAssertion> = request
        .assertions
        .iter()
        .map(|spec| {
            if spec.function.is_some() {
                return Err(ApiError::InvalidRequest {
                    message: "post-condition assertions only apply to check requests".to_string(),
                });
            }
            let label = resolve_label(program, spec.label)?;
            let poly = parse_assertion(program, &spec.text)?;
            Ok(TargetAssertion::new(label, poly))
        })
        .collect::<Result<_, _>>()?;
    let mut per_label: HashMap<Label, usize> = HashMap::new();
    for target in &targets {
        let count = per_label.entry(target.label).or_insert(0);
        *count += 1;
        if *count > request.options.size {
            return Err(ApiError::InvalidRequest {
                message: format!(
                    "more than {} target(s) at label {}; raise `options.size`",
                    request.options.size, target.label
                ),
            });
        }
    }
    Ok(targets)
}

/// Raises the template degree to cover the targets: a degree-`k` target
/// cannot be pinned into a degree-`d` template for `d < k` (its monomials
/// fall outside the template basis), so rather than reject the request the
/// degree is escalated to the highest target degree and the run carries a
/// diagnostic saying so. Returns the options to run with and the diagnostic
/// (`None` when the requested degree already fits). Public for the same
/// harnesses as [`resolve_weak_targets`].
pub fn escalate_degree(
    options: &polyinv_constraints::SynthesisOptions,
    targets: &[TargetAssertion],
) -> (polyinv_constraints::SynthesisOptions, Option<String>) {
    let needed = targets
        .iter()
        .map(|target| target.poly.degree())
        .max()
        .unwrap_or(0);
    if needed <= options.degree {
        return (options.clone(), None);
    }
    let note = format!(
        "template degree escalated {} -> {} to fit the degree-{} target",
        options.degree, needed, needed
    );
    (options.clone().with_degree(needed), Some(note))
}

/// Resolves an assertion label index against the main function (`None`
/// means the exit label), with [`ApiError::UnknownLabel`] when the index is
/// out of range.
fn resolve_label(program: &Program, index: Option<usize>) -> Result<Label, ApiError> {
    let labels = program.main().labels();
    match index {
        None => Ok(program.main().exit_label()),
        Some(index) if index < labels.len() => Ok(labels[index]),
        Some(index) => Err(ApiError::UnknownLabel {
            index,
            available: labels.len(),
        }),
    }
}

/// Parses one assertion in the scope of the main function, mapping the
/// front-end error (with its span) to [`ApiError::Assertion`].
fn parse_assertion(program: &Program, text: &str) -> Result<Polynomial, ApiError> {
    polyinv_lang::parse_assertion(program, program.main().name(), text)
        .map(|(poly, _)| poly)
        .map_err(|error| ApiError::Assertion {
            text: text.to_string(),
            line: error.line(),
            column: error.column(),
            message: error.message().to_string(),
        })
}

fn timings_to_seconds(timings: &StageTimings) -> Vec<(String, f64)> {
    timings
        .iter()
        .map(|(stage, duration)| (stage.to_string(), duration.as_secs_f64()))
        .collect()
}

fn render_lines(rendered: &str) -> Vec<String> {
    rendered.lines().map(str::to_string).collect()
}

fn render_postconditions(program: &Program, post: &Postcondition) -> Vec<String> {
    let mut lines = Vec::new();
    for (function, atoms) in post.iter() {
        for atom in atoms {
            lines.push(format!(
                "{function}: {} {} 0",
                program.render_poly(&atom.poly),
                if atom.strict { ">" } else { ">=" }
            ));
        }
    }
    lines.sort();
    lines
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_lang::program::RUNNING_EXAMPLE_SOURCE;

    /// The Engine must stay shareable across server workers: one
    /// `Arc<Engine>` is driven from many threads.
    #[allow(dead_code)]
    fn engine_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Engine>();
    }

    #[test]
    fn generate_only_reports_paper_scale_metrics() {
        let engine = Engine::new();
        let report = engine
            .run(&SynthesisRequest::generate_only(RUNNING_EXAMPLE_SOURCE).with_id("gen"))
            .unwrap();
        assert_eq!(report.id, "gen");
        assert_eq!(report.status, ReportStatus::Generated);
        assert!(report.system_size > 500);
        assert!(report.num_unknowns > 0);
        assert!(report.stage_seconds(stage_names::TEMPLATES) > 0.0);
        assert!(report.stage_seconds(stage_names::REDUCTION) > 0.0);
    }

    #[test]
    fn programs_parse_once_per_source() {
        let engine = Engine::new();
        let a = engine.parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let b = engine.parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(engine.cached_programs(), 1);
        engine.parse_program("f(x) { return x }").unwrap();
        assert_eq!(engine.cached_programs(), 2);
    }

    #[test]
    fn parse_errors_carry_spans() {
        let engine = Engine::new();
        let error = engine.parse_program("f(x) { x : 1 }").unwrap_err();
        match error {
            ApiError::Parse { line, column, .. } => {
                assert_eq!(line, Some(1));
                assert!(column.is_some());
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_backends_and_labels_are_rejected() {
        let engine = Engine::new();
        // The penalty lane is LM's fallback, not a back-end to pick.
        for name in ["loqo", "penalty", "alm"] {
            for request in [
                SynthesisRequest::generate_only("f(x) { return x }"),
                SynthesisRequest::weak("f(x) { return x }").with_target("x + 1 > 0"),
            ] {
                assert!(matches!(
                    engine.run(&request.with_backend(name)),
                    Err(ApiError::UnknownBackend { .. })
                ));
            }
        }
        let request = SynthesisRequest::weak("f(x) { return x }").with_target_at(99, "x + 1 > 0");
        assert!(matches!(
            engine.run(&request),
            Err(ApiError::UnknownLabel { index: 99, .. })
        ));
    }

    #[test]
    fn a_multiplier_that_overflows_generation_is_an_invalid_request() {
        // The degree-2 template's x² coefficient becomes 10⁴⁴ under
        // x := x·10²², beyond i128.
        let source = "big(x) { @pre(x >= 0); x := x * 10000000000000000000000; return x }";
        let request = SynthesisRequest::weak(source).with_target("x + 1 > 0");
        match Engine::new().run(&request) {
            Err(ApiError::InvalidRequest { message }) => {
                assert!(message.contains("overflow"), "{message}")
            }
            other => panic!("expected an invalid request, got {other:?}"),
        }
    }

    #[test]
    fn a_bounded_reals_bound_that_overflows_is_an_invalid_request() {
        // The compactness witness c²·|V| is 10⁴⁶·|V| for c = 10²³.
        let options = polyinv_constraints::SynthesisOptions::default()
            .with_bounded_reals(polyinv_arith::Rational::new(10i128.pow(23), 1));
        let request = SynthesisRequest::generate_only(RUNNING_EXAMPLE_SOURCE).with_options(options);
        assert!(matches!(
            Engine::new().run(&request),
            Err(ApiError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn run_weak_rejects_other_modes() {
        let engine = Engine::new();
        let request = SynthesisRequest::check("f(x) { return x }").with_target("x + 1 > 0");
        assert!(matches!(
            engine.run_weak(&request),
            Err(ApiError::InvalidRequest { .. })
        ));
    }

    #[test]
    fn over_degree_targets_escalate_the_template_degree() {
        // A cubic target against the default degree-2 template used to come
        // back as `error:invalid-request`; request validation now raises the
        // degree to fit the target and says so in a diagnostic.
        let engine = Engine::new();
        let program = engine.parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let request = SynthesisRequest::weak(RUNNING_EXAMPLE_SOURCE).with_target("n*n*n + 1 > 0");
        let targets = resolve_weak_targets(&program, &request).unwrap();
        let (options, note) = escalate_degree(&request.options, &targets);
        assert_eq!(request.options.degree, 2);
        assert_eq!(options.degree, 3);
        assert!(note.unwrap().contains("escalated 2 -> 3"));
        // A target that already fits leaves the options untouched.
        let fitting = SynthesisRequest::weak(RUNNING_EXAMPLE_SOURCE).with_target("n + 1 > 0");
        let targets = resolve_weak_targets(&program, &fitting).unwrap();
        let (options, note) = escalate_degree(&fitting.options, &targets);
        assert_eq!(options.degree, 2);
        assert!(note.is_none());
    }

    #[test]
    fn check_mode_certifies_the_trivial_invariant() {
        let engine = Engine::new();
        // 1 > 0 at every label of the running example.
        let mut request = SynthesisRequest::check(RUNNING_EXAMPLE_SOURCE).with_id("trivial");
        for index in 0..9 {
            request = request.with_target_at(index, "1 > 0");
        }
        let report = engine.run(&request).unwrap();
        assert_eq!(report.status, ReportStatus::Certified);
        assert_eq!(report.pairs_certified, report.pairs_total);
        assert!(report.pairs_total > 0);
    }

    #[test]
    fn check_mode_rejects_a_wrong_invariant() {
        let engine = Engine::new();
        let report = engine
            .run(&SynthesisRequest::check(RUNNING_EXAMPLE_SOURCE).with_target_at(7, "1 - s > 0"))
            .unwrap();
        assert_eq!(report.status, ReportStatus::NotCertified);
        assert!(report.pairs_certified < report.pairs_total);
    }

    /// `y := x * x` under `x ≥ 0`: `y + 1 > 0` at l1 needs `x²` from a
    /// degree-2 multiplier, so ϒ = 0 cannot certify the update into l1.
    const SQ: &str = "sq(x) { @pre(x >= 0); y := x * x; return y }";

    fn sq_check(at_exit: &str) -> SynthesisRequest {
        SynthesisRequest::check(SQ)
            .with_target_at(1, "y + 1 > 0")
            .with_target(at_exit)
    }

    #[test]
    fn check_mode_runs_on_the_requests_upsilon() {
        let engine = Engine::new();
        let report = engine.run(&sq_check("y + 2 > 0")).unwrap();
        assert_eq!(report.status, ReportStatus::Certified);
        assert_eq!((report.pairs_certified, report.pairs_total), (2, 2));

        let report = engine.run(&sq_check("y + 2 > 0").with_upsilon(0)).unwrap();
        assert_eq!(report.status, ReportStatus::NotCertified);
        assert_eq!((report.pairs_certified, report.pairs_total), (1, 2));
        assert_eq!(report.diagnostics, vec!["uncertified: update l0 -> l1"]);
    }

    #[test]
    fn check_mode_does_not_certify_a_pair_that_needs_a_zero_witness() {
        // `y + 1 > 0` at l1 and at the exit: the update l1 -> l2 holds only
        // with ε = 0, below the request's ε bound. LM gets within a few
        // 1e-7 of it, so this pins check mode to LM's float tolerance.
        let engine = Engine::new();
        let report = engine.run(&sq_check("y + 1 > 0")).unwrap();
        assert_eq!(report.status, ReportStatus::NotCertified);
        assert_eq!(report.diagnostics, vec!["uncertified: update l1 -> l2"]);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with `cargo test --release`"
    )]
    fn weak_mode_synthesizes_on_a_tiny_loop() {
        let engine = Engine::new();
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
        .with_degree(1)
        .with_target("x + 1 > 0");
        let report = engine.run(&request).unwrap();
        assert_eq!(report.status, ReportStatus::Synthesized);
        // Either lane may produce the candidate; both are legitimate.
        assert!(matches!(report.backend.as_str(), "lm" | "penalty"));
        assert!(!report.invariants.is_empty());
        assert!(report.stage_seconds(stage_names::SOLVE) > 0.0);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with `cargo test --release`"
    )]
    fn strong_mode_reports_system_metrics_and_stage_timings() {
        let engine = Engine::new();
        let request = SynthesisRequest::strong(
            r#"
            counter(x) {
                @pre(x >= 0);
                while x <= 5 do
                    x := x + 1
                od;
                return x
            }
            "#,
        )
        .with_degree(1)
        .with_attempts(4);
        let report = engine.run(&request).unwrap();
        assert_eq!(report.status, ReportStatus::Synthesized);
        assert!(report.system_size > 0);
        assert!(report.num_unknowns > 0);
        assert!(report.stage_seconds(stage_names::TEMPLATES) > 0.0);
        assert!(report.stage_seconds(stage_names::SOLVE) > 0.0);
        assert!(report.invariants.iter().all(|line| line.starts_with('[')));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with `cargo test --release`"
    )]
    fn strong_reports_describe_the_rung_that_produced_the_members() {
        let source = r#"
            counter(x) {
                @pre(x >= 0);
                while x <= 5 do
                    x := x + 1
                od;
                return x
            }
        "#;
        let request = SynthesisRequest::strong(source)
            .with_degree(1)
            .with_attempts(4);
        let report = Engine::new().run(&request).unwrap();
        assert_eq!(report.status, ReportStatus::Synthesized);
        // The ϒ = 0 rung produced the members, so the report describes its
        // system, not the larger full-ϒ reduction.
        let program = polyinv_lang::parse_program(source).unwrap();
        let pre = Precondition::from_program(&program);
        let rung_options = request.options.clone().with_upsilon(0);
        let rung = polyinv_constraints::generate(&program, &pre, &rung_options).unwrap();
        assert_eq!(report.system_size, rung.size());
        assert_eq!(report.num_unknowns, rung.system.num_unknowns());
        let full = polyinv_constraints::generate(&program, &pre, &request.options).unwrap();
        assert!(report.system_size < full.size());
        assert!(
            report.diagnostics[0].contains("at ϒ = 0"),
            "{:?}",
            report.diagnostics
        );
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with `cargo test --release`"
    )]
    fn strong_requests_honour_the_solve_budget() {
        // Two uncapped LM attempts on cohendiv take about 20 s on a 2-core
        // x86-64 box; under a 2 s budget every attempt is clamped to the
        // deadline.
        let benchmark = polyinv_benchmarks::by_name("cohendiv").unwrap();
        let budget = 2.0;
        let request = SynthesisRequest::strong(benchmark.source)
            .with_attempts(2)
            .with_solve_budget(budget);
        let started = Instant::now();
        let report = Engine::new().run(&request).unwrap();
        let elapsed = started.elapsed().as_secs_f64();
        // The margin covers generation, presolve, one LM iteration past the
        // deadline and the certificate checks.
        assert!(
            elapsed < budget + 2.0,
            "strong request took {elapsed:.2} s against a {budget} s budget: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn a_huge_strong_attempt_count_stops_at_the_solve_budget() {
        // Nothing may be sized by the attempt count, which would abort the
        // process on allocation: the first attempt skipped for the deadline
        // ends the enumeration.
        let source = r#"
            inc(x) {
                @pre(x >= 0);
                while x <= 10 do
                    x := x + 1
                od;
                return x
            }
        "#;
        let budget = 1.0;
        let request = SynthesisRequest::strong(source)
            .with_degree(1)
            .with_attempts(1_000_000_000_000)
            .with_solve_budget(budget);
        let started = Instant::now();
        let report = Engine::new().run(&request).unwrap();
        let elapsed = started.elapsed().as_secs_f64();
        assert!(
            elapsed < budget + 2.0,
            "strong request took {elapsed:.2} s against a {budget} s budget"
        );
        assert!(
            matches!(
                report.status,
                ReportStatus::Synthesized | ReportStatus::Failed
            ),
            "{:?}",
            report.status
        );
        assert_eq!(
            SynthesisReport::from_json_str(&report.to_json_string()).unwrap(),
            report
        );
    }
}
