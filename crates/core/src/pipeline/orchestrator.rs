//! The adaptive solve orchestrator (DESIGN.md §12).
//!
//! One request, a ladder of attempts. Each rung of the ϒ ladder generates
//! its quadratic system, solves it with the LM back-end under wall-clock and
//! iteration budgets, refines the candidate with a block-coordinate polish
//! that exploits the bilinear structure of the Putinar translation, and
//! finally snaps the coefficients (`k/64` for template unknowns, dyadic for
//! the rest) and re-checks the system in exact
//! [`Rational`](polyinv_arith::Rational) arithmetic. Only when that re-check
//! fails does the penalty back-end run, as a fallback lane. A rung
//! is accepted — and the ladder stops — only when that exact re-check
//! passes; otherwise the orchestrator escalates to the next rung and, when
//! the ladder is exhausted, returns the best uncertified attempt with its
//! full attempt history. Either way the returned invariant is the templates
//! instantiated at the rational point the re-check evaluated
//! ([`ExactReport::values`]), so a "synthesized" invariant is exactly the
//! one its certificate covers.
//!
//! The polish stage is where most certificates are won. The Step-3 system
//! is bilinear across the unknown families: with the template (s-) and
//! Cholesky (l-) blocks pinned, every remaining constraint is *linear* in
//! the multiplier (t-) and witness (ε-) unknowns, so a final least-squares
//! pass lands the globally best residual compatible with the snapped
//! coefficients. The alternation (free the SOS side, then the template
//! side, then the linear tail) walks the candidate out of the plateau the
//! joint solve stalls on.
//!
//! Strong synthesis climbs the same rungs ([`Orchestrator::enumerate`]):
//! rung preparation, the ladder and the deadline are shared, and only
//! Step 4 differs — diversified multi-start LM attempts instead of the
//! two lanes, with every distinct feasible point certified before it joins
//! the representative set.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use polyinv_arith::Rational;
use polyinv_constraints::exact::{
    dyadic, exact_recheck_ladder, instantiate_exact, ExactCheckConfig, ExactReport, DYADIC_BITS,
};
use polyinv_constraints::{
    ConstraintError, Elimination, GeneratedSystem, PresolveOptions, PresolveStats, PresolvedSystem,
    QuadraticSystem, SynthesisOptions, UnknownKind,
};
use polyinv_lang::{InvariantMap, Postcondition, Precondition, Program};
use polyinv_poly::UnknownId;
use polyinv_qcqp::par::parallel_indexed_until;
use polyinv_qcqp::{
    outranks, AlmOptions, AlmSolver, LmOptions, LmSolver, LmWorkspace, Problem, QuadraticForm,
    SolveOutcome, SolveStatus, SolverStats, LM_TOLERANCE,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::bridge::system_to_problem_with_fixed;
use crate::pipeline::{stage_names, Pipeline, StageTimings};
use crate::weak::TargetAssertion;

/// Two members of a strong rung whose template-coefficient vectors lie
/// within this Euclidean distance are the same invariant.
const DISTINCTNESS_THRESHOLD: f64 = 0.5;

/// LM restarts of one strong attempt: the attempts themselves are the
/// multi-start.
const ENUMERATION_RESTARTS: usize = 1;

/// Weight of a strong attempt's diversifying objective.
const ENUMERATION_OBJECTIVE_WEIGHT: f64 = 0.02;

/// The budgets and acceptance policy of an orchestrated solve: how hard
/// each rung may try, which back-ends run, and what the certificate must
/// establish.
#[derive(Debug, Clone)]
pub struct SolvePlan {
    /// Reduction options of the *last* rung; earlier rungs run the cheaper
    /// ϒ values of [`SynthesisOptions::upsilon_ladder`]. Degree escalation
    /// (PR 6) happens before the plan is built, so `options.degree` already
    /// fits the targets.
    pub options: SynthesisOptions,
    /// The LM lane: iteration/restart/wall-clock budget of one rung
    /// attempt. Every rung runs it first.
    pub lm: LmOptions,
    /// The penalty (augmented-Lagrangian) lane, run on a rung only when the
    /// LM lane's certificate fails; `None` disables it and the rung runs LM
    /// alone.
    pub penalty: Option<AlmOptions>,
    /// Number of block-coordinate polish rounds applied to a lane's point
    /// (each round: free the SOS block, then the template block).
    pub polish_rounds: usize,
    /// LM budget of one polish sub-solve.
    pub polish_lm: LmOptions,
    /// The exact-rational tolerance a certificate must meet.
    pub certificate: ExactCheckConfig,
    /// Wall-clock budget in seconds for the whole orchestrated solve (all
    /// rungs, lanes, polish rounds and strong attempts together). Per-lane,
    /// per-polish and per-attempt budgets are clamped to the time
    /// remaining; when the deadline passes, polish stops, no further strong
    /// attempt or rung starts — so arbitrarily large
    /// systems get a bounded, best-effort attempt instead of being skipped
    /// outright. `0` disables the budget.
    pub solve_budget_seconds: f64,
}

impl SolvePlan {
    /// The default plan for the given (degree-escalated) options: a
    /// budgeted LM lane that every rung runs first, a short penalty lane
    /// that runs only as its fallback, when the LM lane's polished point
    /// fails its certificate, three polish rounds and the acceptance
    /// certificate tolerance.
    ///
    /// The certificate tolerance is `1/100`, the same number as the
    /// `epsilon_lower` strictness margin of the Putinar translation. A
    /// passing certificate establishes only that every equality and
    /// inequality of the Step-3 system holds to within `1/100` in exact
    /// arithmetic at the snapped point. That is not a proof of
    /// inductiveness: a residual left in a Putinar identity is not offset
    /// by the ε margin, and a false target can pass (DESIGN.md §12). The
    /// exact per-pair certificate and the non-strict encoding of ROADMAP
    /// items 1–2 are what would make acceptance a proof.
    pub fn new(options: SynthesisOptions) -> Self {
        SolvePlan {
            options,
            lm: LmOptions {
                max_iterations: 400,
                restarts: 3,
                max_seconds: 60.0,
                ..LmOptions::default()
            },
            penalty: Some(default_penalty_lane()),
            polish_rounds: 3,
            polish_lm: LmOptions {
                max_iterations: 150,
                restarts: 1,
                max_seconds: 20.0,
                ..LmOptions::default()
            },
            certificate: ExactCheckConfig {
                tolerance: Rational::new(1, 100),
            },
            solve_budget_seconds: 0.0,
        }
    }

    /// Sets the whole-solve wall-clock budget (`0` disables it).
    pub fn with_solve_budget(mut self, seconds: f64) -> Self {
        self.solve_budget_seconds = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            0.0
        };
        self
    }

    /// Whether `name` is a back-end [`SolvePlan::with_backend_preference`]
    /// acts on: only `"lm"`. Request front doors reject every other name;
    /// the penalty lane is a fallback, not a back-end a request picks.
    pub fn knows_backend(name: &str) -> bool {
        name == "lm"
    }

    /// Restricts the plan to the named back-end: `"lm"` drops the penalty
    /// fallback, so every rung runs the LM lane alone. Other names leave the
    /// plan as it is.
    pub fn with_backend_preference(mut self, name: &str) -> Self {
        if name == "lm" {
            self.penalty = None;
        }
        self
    }
}

/// The penalty lane of the default plan: two restarts under a 20 s cap.
fn default_penalty_lane() -> AlmOptions {
    AlmOptions {
        restarts: 2,
        max_seconds: 20.0,
        ..AlmOptions::default()
    }
}

/// One attempt in the orchestrator's history: a lane, a polish pass or a
/// certificate check on some rung.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveAttempt {
    /// The ϒ value of the rung the attempt ran on.
    pub upsilon: u32,
    /// `"lm"`, `"penalty"`, `"polish"` or `"certificate"`.
    pub backend: String,
    /// Whether the attempt's point satisfied its system within the solver
    /// tolerance (for `"certificate"`: whether the exact re-check passed).
    pub feasible: bool,
    /// Float-side worst violation of the attempt's point (for
    /// `"certificate"`: the exact worst violation rounded to f64).
    pub violation: f64,
    /// Wall-clock seconds the attempt took.
    pub seconds: f64,
}

/// The orchestrator's summary, threaded through `SolveOutcome` →
/// `SynthesisReport` → the CLI and the per-row `orchestrator` block of the
/// benchmark snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct OrchestratorStats {
    /// Total attempts recorded (lanes + polish passes + certificate checks
    /// over all rungs).
    pub attempts: usize,
    /// Number of ladder rungs tried.
    pub rungs_tried: usize,
    /// The ϒ value of the accepted (or last) rung.
    pub rung_reached: u32,
    /// The lane that produced the returned candidate (`"lm"` or
    /// `"penalty"`; polish refines but does not rename).
    pub winning_backend: String,
    /// Whether the returned candidate carries a passing exact-rational
    /// certificate.
    pub certified: bool,
    /// The exact worst violation of the certificate check (f64 view;
    /// meaningful whether or not it passed).
    pub certificate_violation: f64,
    /// The attempt history, in execution order.
    pub history: Vec<SolveAttempt>,
}

/// The result of an orchestrated solve: the best candidate over all rungs,
/// its certificate, and everything downstream consumers (engine, validate,
/// bench) need to report it.
///
/// The members of 80 bytes and more are boxed, which keeps the outcome at
/// about 230 bytes instead of 1 KB for callers that hold one per request.
#[derive(Debug, Clone)]
pub struct OrchestratorOutcome {
    /// `true` when the candidate passed the exact-rational certificate —
    /// the orchestrator's definition of "synthesized".
    pub certified: bool,
    /// Whether the float-side solver reached its own tolerance (a weaker
    /// property than `certified`, kept for diagnostics).
    pub feasible: bool,
    /// The invariant map instantiated at the certificate's point
    /// (`exact.values`).
    pub invariant: InvariantMap,
    /// The synthesized post-conditions (recursive programs only), at the
    /// same point.
    pub postconditions: Postcondition,
    /// The candidate assignment over the final rung's unknown space.
    pub assignment: Vec<f64>,
    /// The final rung's generated system (post-ladder, pre-presolve): the
    /// single source of truth for `system_size`/`num_unknowns` and the
    /// system the certificate was checked against.
    pub generated: Box<GeneratedSystem>,
    /// `|S|` of `generated` (post-ladder, pre-presolve).
    pub system_size: usize,
    /// Unknowns of `generated`.
    pub num_unknowns: usize,
    /// Float-side worst violation of the candidate on `generated`.
    pub violation: f64,
    /// Per-stage wall-clock accumulated over all rungs.
    pub timings: StageTimings,
    /// The winning lane's stable name.
    pub backend: &'static str,
    /// Solver statistics of the winning lane on the accepted (or last)
    /// rung.
    pub solver: Box<SolverStats>,
    /// Presolve statistics of the accepted (or last) rung.
    pub presolve: Option<Box<PresolveStats>>,
    /// The exact re-check report of the returned candidate: the passing
    /// rounding, else the closest one, with the rational point it checked.
    pub exact: Box<ExactReport>,
    /// The orchestration summary.
    pub stats: Box<OrchestratorStats>,
}

/// A member of a strong enumeration: a distinct invariant whose snapped
/// coefficients passed the exact certificate.
#[derive(Debug, Clone)]
pub struct EnumeratedInvariant {
    /// The invariant map, instantiated at the certificate's point
    /// (`exact.values`).
    pub invariant: InvariantMap,
    /// The post-conditions (recursive programs only), at the same point.
    pub postconditions: Postcondition,
    /// The member's assignment over its rung's unknown space.
    pub assignment: Vec<f64>,
    /// The member's passing certificate.
    pub exact: ExactReport,
}

/// The result of [`Orchestrator::enumerate`].
#[derive(Debug, Clone)]
pub struct Enumeration {
    /// The representative set, in attempt order (empty when no rung
    /// yielded a certified member).
    pub members: Vec<EnumeratedInvariant>,
    /// The system of the rung that yielded the members (else the last
    /// rung tried): the source of a strong report's `|S|`.
    pub generated: GeneratedSystem,
    /// Per-stage wall-clock accumulated over all rungs.
    pub timings: StageTimings,
    /// The summary; `certificate_violation` is the members' worst exact
    /// violation (0 without members).
    pub stats: OrchestratorStats,
}

/// A rung's system ready for Step 4: generated at the rung's ϒ, targets
/// pinned, presolved and built into the solver-space problem.
struct Rung {
    /// The rung's ϒ.
    upsilon: u32,
    /// The rung's generated system (pre-presolve).
    generated: GeneratedSystem,
    /// The target pins.
    fixed: HashMap<UnknownId, Rational>,
    /// The presolve result (`None` when presolve is off).
    presolved: Option<PresolvedSystem>,
    /// The target pins plus every unknown presolve eliminated: the
    /// coordinates outside the solver's variable space.
    pins: HashMap<UnknownId, Rational>,
    /// The problem the solvers see.
    problem: Problem,
    /// The unknown behind each solver variable.
    mapping: Vec<UnknownId>,
}

impl Rung {
    /// Reassembles a solver-space point onto the full unknown space (pins,
    /// solver values, then presolve back-substitution) and scores it on the
    /// *original* system, so scores mean the same with and without presolve.
    fn reassemble(&self, point: &[f64]) -> (Vec<f64>, f64) {
        let mut assignment = vec![0.0; self.generated.system.num_unknowns()];
        for (id, value) in &self.pins {
            assignment[id.index()] = value.to_f64();
        }
        for (slot, id) in self.mapping.iter().enumerate() {
            assignment[id.index()] = point[slot];
        }
        if let Some(result) = &self.presolved {
            result.map.back_substitute(&mut assignment);
        }
        let violation = self.generated.system.max_violation(&assignment);
        (assignment, violation)
    }

    /// A history entry for an attempt on this rung.
    fn attempt(&self, backend: &str, feasible: bool, violation: f64, seconds: f64) -> SolveAttempt {
        SolveAttempt {
            upsilon: self.upsilon,
            backend: backend.to_string(),
            feasible,
            violation,
            seconds,
        }
    }

    /// A lane's outcome, reassembled and scored on the original system;
    /// `seconds` is the lane's solve time.
    fn lane(&self, backend: &'static str, outcome: SolveOutcome, seconds: f64) -> LaneResult {
        let (assignment, violation) = self.reassemble(&outcome.assignment);
        LaneResult {
            backend,
            assignment,
            violation,
            feasible: outcome.status == SolveStatus::Feasible,
            stats: outcome.stats,
            seconds,
        }
    }
}

/// One lane's raw result on a rung.
struct LaneResult {
    backend: &'static str,
    assignment: Vec<f64>,
    violation: f64,
    feasible: bool,
    stats: SolverStats,
    seconds: f64,
}

/// A lane's point after polish, with its certificate.
struct Settled {
    assignment: Vec<f64>,
    violation: f64,
    exact: ExactReport,
}

/// The per-rung candidate after lanes + polish + certificate.
struct RungResult {
    assignment: Vec<f64>,
    violation: f64,
    feasible: bool,
    certified: bool,
    backend: &'static str,
    solver: SolverStats,
    presolve: Option<PresolveStats>,
    exact: ExactReport,
    generated: GeneratedSystem,
}

/// The adaptive solve orchestrator.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    plan: SolvePlan,
}

impl Orchestrator {
    /// Creates an orchestrator with the given plan.
    pub fn new(plan: SolvePlan) -> Self {
        Orchestrator { plan }
    }

    /// The plan in use.
    pub fn plan(&self) -> &SolvePlan {
        &self.plan
    }

    /// The solver-space problem the lanes of [`Orchestrator::solve`] get on
    /// the ϒ = `upsilon` rung: the generated system with the targets pinned,
    /// presolved, with every eliminated unknown pinned out. Benches measure
    /// Step 4 on it.
    ///
    /// # Errors
    ///
    /// Returns a [`ConstraintError`] when the generation stages reject the
    /// program.
    pub fn rung_problem(
        &self,
        program: &Program,
        pre: &Precondition,
        targets: &[TargetAssertion],
        upsilon: u32,
    ) -> Result<Problem, ConstraintError> {
        let rung = self.prepare_rung(program, pre, targets, upsilon, &mut StageTimings::new())?;
        Ok(rung.problem)
    }

    /// Runs the ladder of attempts for one weak-synthesis request.
    ///
    /// # Errors
    ///
    /// Returns a [`ConstraintError`] when the generation stages reject the
    /// program.
    ///
    /// # Panics
    ///
    /// Panics if a target mentions a monomial outside the template basis at
    /// its label (same contract as [`crate::fix_targets`]).
    pub fn solve(
        &self,
        program: &Program,
        pre: &Precondition,
        targets: &[TargetAssertion],
    ) -> Result<OrchestratorOutcome, ConstraintError> {
        let mut timings = StageTimings::new();
        let mut history: Vec<SolveAttempt> = Vec::new();
        // The only state that crosses rungs: the previous rung's settled
        // assignment, keyed by unknown provenance (see `solve_rung`).
        let mut warm = HashMap::new();
        let mut best: Option<RungResult> = None;
        let (rungs_tried, rung_reached) = self.climb(|upsilon, deadline| {
            let rung = self.prepare_rung(program, pre, targets, upsilon, &mut timings)?;
            let rung = self.solve_rung(rung, deadline, &mut warm, &mut timings, &mut history);
            let accept = rung.certified;
            let better = match &best {
                None => true,
                Some(current) => {
                    let cert_gain = rung.certified && !current.certified;
                    let feas_gain = rung.feasible && !current.feasible;
                    let viol_gain =
                        rung.feasible == current.feasible && rung.violation < current.violation;
                    cert_gain || (rung.certified == current.certified && (feas_gain || viol_gain))
                }
            };
            if better {
                best = Some(rung);
            }
            Ok(accept)
        })?;

        let best = best.expect("the ϒ ladder is never empty");
        let (invariant, postconditions) =
            instantiate_exact(program, &best.generated, &best.exact.values);
        Ok(OrchestratorOutcome {
            certified: best.certified,
            feasible: best.feasible,
            invariant,
            postconditions,
            system_size: best.generated.size(),
            num_unknowns: best.generated.system.num_unknowns(),
            violation: best.violation,
            timings,
            backend: best.backend,
            solver: Box::new(best.solver),
            presolve: best.presolve.map(Box::new),
            stats: Box::new(OrchestratorStats {
                attempts: history.len(),
                rungs_tried,
                rung_reached,
                winning_backend: best.backend.to_string(),
                certified: best.certified,
                certificate_violation: best.exact.worst_violation.to_f64(),
                history,
            }),
            exact: Box::new(best.exact),
            assignment: best.assignment,
            generated: Box::new(best.generated),
        })
    }

    /// Enumerates a representative set of inductive invariants (strong
    /// synthesis, `StrongInvSynth`/`RecStrongInvSynth`).
    ///
    /// The paper's enumeration (one solution per connected component of the
    /// solution variety) is impractical, its Remark 8 says, so each rung
    /// runs `attempts` diversified LM solves instead and keeps the distinct
    /// certified points ([`Self::enumerate_rung`]). The rungs are those
    /// [`Orchestrator::solve`] climbs (same generation, presolve and
    /// whole-solve deadline); the ladder stops at the first rung that
    /// yields a member.
    ///
    /// # Errors
    ///
    /// Returns a [`ConstraintError`] when the generation stages reject the
    /// program.
    pub fn enumerate(
        &self,
        program: &Program,
        pre: &Precondition,
        attempts: usize,
    ) -> Result<Enumeration, ConstraintError> {
        let mut timings = StageTimings::new();
        let mut history: Vec<SolveAttempt> = Vec::new();
        let mut last: Option<(GeneratedSystem, Vec<EnumeratedInvariant>)> = None;
        let (rungs_tried, rung_reached) = self.climb(|upsilon, deadline| {
            let rung = self.prepare_rung(program, pre, &[], upsilon, &mut timings)?;
            let solve_start = Instant::now();
            let members = self.enumerate_rung(program, &rung, attempts, deadline, &mut history);
            timings.record(stage_names::SOLVE, solve_start.elapsed());
            let found = !members.is_empty();
            last = Some((rung.generated, members));
            Ok(found)
        })?;
        let (generated, members) = last.expect("the ϒ ladder is never empty");
        Ok(Enumeration {
            stats: OrchestratorStats {
                attempts: history.len(),
                rungs_tried,
                rung_reached,
                winning_backend: "lm".to_string(),
                certified: !members.is_empty(),
                certificate_violation: members
                    .iter()
                    .map(|member| member.exact.worst_violation.to_f64())
                    .fold(0.0, f64::max),
                history,
            },
            members,
            generated,
            timings,
        })
    }

    /// The ϒ ladder of both modes: runs `run_rung(upsilon, deadline)` per
    /// rung until it returns `true`. The first rung always runs (a
    /// best-effort attempt is the point of the budget); later rungs only
    /// start before the whole-solve deadline. Returns the rungs tried and
    /// the last ϒ.
    fn climb(
        &self,
        mut run_rung: impl FnMut(u32, Option<Instant>) -> Result<bool, ConstraintError>,
    ) -> Result<(usize, u32), ConstraintError> {
        let budget = self.plan.solve_budget_seconds;
        let deadline = if budget > 0.0 {
            Duration::try_from_secs_f64(budget)
                .ok()
                .and_then(|budget| Instant::now().checked_add(budget))
        } else {
            None
        };
        let mut rungs_tried = 0;
        let mut rung_reached = 0;
        for upsilon in self.plan.options.upsilon_ladder() {
            if rungs_tried > 0 && deadline.is_some_and(|deadline| Instant::now() >= deadline) {
                break;
            }
            rungs_tried += 1;
            rung_reached = upsilon;
            if run_rung(upsilon, deadline)? {
                break;
            }
        }
        Ok((rungs_tried, rung_reached))
    }

    /// Rung preparation, shared by both modes: Steps 1–3 at ϒ = `upsilon`
    /// (one timing entry each), the target pins, the affine presolve seeded
    /// with them, and the solver-space problem with every eliminated unknown
    /// pinned out (its build counts as solve time).
    fn prepare_rung(
        &self,
        program: &Program,
        pre: &Precondition,
        targets: &[TargetAssertion],
        upsilon: u32,
        timings: &mut StageTimings,
    ) -> Result<Rung, ConstraintError> {
        let pipeline = Pipeline::new(self.plan.options.clone().with_upsilon(upsilon));
        let mut ctx = pipeline.context(program, pre);
        let generated = pipeline.generate(&mut ctx)?;
        timings.absorb(ctx.timings());
        let fixed = crate::fix_targets(&generated, targets);

        let presolve_start = Instant::now();
        let presolved = pipeline.options().presolve.then(|| {
            polyinv_constraints::presolve(&generated.system, &fixed, &PresolveOptions::default())
        });
        timings.record(stage_names::PRESOLVE, presolve_start.elapsed());

        let build_start = Instant::now();
        let mut pins = fixed.clone();
        if let Some(result) = &presolved {
            for elim in result.map.iter().filter(|elim| elim.eliminates()) {
                let value = match elim {
                    Elimination::Fixed { value, .. } => *value,
                    _ => Rational::zero(),
                };
                pins.insert(elim.unknown(), value);
            }
        }
        let system = presolved
            .as_ref()
            .map_or(&generated.system, |result| &result.system);
        let (problem, mapping) = system_to_problem_with_fixed(system, &pins);
        timings.record(stage_names::SOLVE, build_start.elapsed());
        Ok(Rung {
            upsilon,
            generated,
            fixed,
            presolved,
            pins,
            problem,
            mapping,
        })
    }

    /// Step 4 of a weak rung: the LM lane, polished and certified, then
    /// the penalty lane as a fallback when that certificate fails.
    ///
    /// When the fallback ran, [`pick_winner`] chooses between the two raw
    /// points: an LM winner keeps its settled candidate, and a penalty
    /// winner is polished and certified in turn. On a budget-bound rung
    /// both lanes run before any polish, as in a race of the two.
    ///
    /// The polish passes of the rung's one or two settlements share a list
    /// of symbolic LM workspaces, dropped when the rung ends; only the
    /// settled point crosses to the next rung, as `warm`.
    fn solve_rung(
        &self,
        rung: Rung,
        deadline: Option<Instant>,
        warm: &mut HashMap<UnknownKind, f64>,
        timings: &mut StageTimings,
        history: &mut Vec<SolveAttempt>,
    ) -> RungResult {
        // Both lanes start from the previous rung's settled point, carried
        // across the re-indexed unknown space by provenance ([`UnknownKind`],
        // not index); unknowns new to this rung start at the cold `0.05`.
        let registry = &rung.generated.system.registry;
        let warm_start: Vec<f64> = rung
            .mapping
            .iter()
            .map(|&id| {
                let value = warm.get(registry.kind(id)).copied();
                value.filter(|v| v.is_finite()).unwrap_or(0.05)
            })
            .collect();
        let mut workspaces: Vec<LmWorkspace> = Vec::new();
        let mut options = self.plan.lm.clone();
        options.max_seconds =
            lane_cap(options.max_seconds, deadline, true).expect("a rung's LM lane always runs");
        let cap = options.max_seconds;
        let start = Instant::now();
        let outcome = LmSolver::new(options).solve(&rung.problem, Some(&warm_start));
        let lm = rung.lane("lm", outcome, start.elapsed().as_secs_f64());
        timings.record(stage_names::SOLVE, start.elapsed());
        history.push(rung.attempt("lm", lm.feasible, lm.violation, lm.seconds));
        // An LM lane that ran out its wall-clock cap marks a budget-bound
        // rung: the fallback runs before any polish, so the time left goes
        // to polishing the lane `pick_winner` chooses.
        let lm_settled = (cap == 0.0 || lm.seconds < cap)
            .then(|| self.settle(&rung, &lm, deadline, &mut workspaces, timings, history));
        // The fallback's cap is clamped to the time left when it starts, not
        // when the rung started; it does not start once the deadline has
        // passed.
        let lm_certified = lm_settled.as_ref().is_some_and(|lm| lm.exact.passed());
        let fallback = self
            .plan
            .penalty
            .as_ref()
            .filter(|_| !lm_certified)
            .and_then(|alm| {
                let max_seconds = lane_cap(alm.max_seconds, deadline, false)?;
                let solver = AlmSolver::new(AlmOptions {
                    max_seconds,
                    ..alm.clone()
                });
                let start = Instant::now();
                let outcome = solver.solve(&rung.problem, Some(&warm_start));
                let lane = rung.lane("penalty", outcome, start.elapsed().as_secs_f64());
                timings.record(stage_names::SOLVE, start.elapsed());
                history.push(rung.attempt("penalty", lane.feasible, lane.violation, lane.seconds));
                Some(lane)
            });
        let winner = pick_winner(lm, fallback);
        let settled = match lm_settled {
            Some(settled) if winner.backend == "lm" => settled,
            _ => self.settle(&rung, &winner, deadline, &mut workspaces, timings, history),
        };

        // The rung's candidate becomes the next rung's warm start, carried
        // by unknown provenance across the re-indexed registry.
        *warm = registry
            .iter()
            .map(|(id, kind)| (kind.clone(), settled.assignment[id.index()]))
            .collect();

        let feasible = settled.violation <= LM_TOLERANCE || winner.feasible;
        RungResult {
            certified: settled.exact.passed(),
            assignment: settled.assignment,
            violation: settled.violation,
            feasible,
            backend: winner.backend,
            solver: winner.stats,
            presolve: rung.presolved.map(|result| result.stats),
            exact: settled.exact,
            generated: rung.generated,
        }
    }

    /// Polishes a lane's point on the original system and certifies the
    /// result, recording both attempts; the polish counts as solve time.
    ///
    /// The certificate snaps the point and re-checks every constraint in
    /// rational arithmetic: the target pins enter exactly, the rest walks
    /// the coarse-to-fine snap ladder (`k/64` → `k/256` → pure dyadic at
    /// 2^24 and 2^32), and the first rounding whose certificate passes wins.
    fn settle(
        &self,
        rung: &Rung,
        lane: &LaneResult,
        deadline: Option<Instant>,
        workspaces: &mut Vec<LmWorkspace>,
        timings: &mut StageTimings,
        history: &mut Vec<SolveAttempt>,
    ) -> Settled {
        let polish_start = Instant::now();
        let (assignment, violation) = self.polish(rung, lane, deadline, workspaces, history);
        timings.record(stage_names::SOLVE, polish_start.elapsed());
        let cert_start = Instant::now();
        let exact = exact_recheck_ladder(
            &rung.generated.system,
            &assignment,
            &rung.fixed,
            &self.plan.certificate,
        );
        history.push(rung.attempt(
            "certificate",
            exact.passed(),
            exact.worst_violation.to_f64(),
            cert_start.elapsed().as_secs_f64(),
        ));
        Settled {
            assignment,
            violation,
            exact,
        }
    }

    /// Step 4 of a strong rung: `attempts` parallel LM solves, attempt 0
    /// from the weak lanes' cold point `0.05`, later ones from a seeded
    /// jitter of it in `[0.01, 0.09)`, each pulling the template
    /// coefficients along its own linear objective. Under a deadline each
    /// attempt's cap is clamped to the time left (at least one second) and
    /// attempts after it are skipped, attempt 0 excepted. Scanning in
    /// attempt order (so the members do not depend on the thread count),
    /// an LM-feasible point farther than [`DISTINCTNESS_THRESHOLD`] from
    /// every earlier member that passes the exact certificate joins.
    fn enumerate_rung(
        &self,
        program: &Program,
        rung: &Rung,
        attempts: usize,
        deadline: Option<Instant>,
        history: &mut Vec<SolveAttempt>,
    ) -> Vec<EnumeratedInvariant> {
        let template_ids = rung.generated.system.registry.template_unknowns();
        // Template unknowns eliminated by presolve have no solver slot.
        let slots: HashMap<UnknownId, usize> = rung
            .mapping
            .iter()
            .enumerate()
            .map(|(slot, &id)| (id, slot))
            .collect();
        let num_vars = rung.problem.num_vars;
        let seed = LmOptions::default().seed;
        let attempt_once = |attempt: usize| {
            let max_seconds = lane_cap(0.0, deadline, attempt == 0)?;
            let warm: Vec<f64> = if attempt == 0 {
                vec![0.05; num_vars]
            } else {
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(attempt as u64));
                (0..num_vars)
                    .map(|_| rng.random_range(0.01..0.09))
                    .collect()
            };
            let mut objective = QuadraticForm::constant(0.0);
            for (k, id) in template_ids.iter().enumerate() {
                if let Some(&slot) = slots.get(id) {
                    let direction = if (attempt + k) % 2 == 0 { 1.0 } else { -1.0 };
                    let weight = 0.01 * direction * (attempt + 1) as f64;
                    objective.linear.push((slot, weight));
                }
            }
            let mut problem = rung.problem.clone();
            problem.objective = Some(objective);
            let solver = LmSolver::new(LmOptions {
                restarts: ENUMERATION_RESTARTS,
                objective_weight: ENUMERATION_OBJECTIVE_WEIGHT,
                seed: seed.wrapping_add(attempt as u64 * 7919),
                max_seconds,
                ..LmOptions::default()
            });
            let start = Instant::now();
            let outcome = solver.solve(&problem, Some(&warm));
            Some((outcome, start.elapsed().as_secs_f64()))
        };
        // The first attempt skipped for the deadline ends scheduling: every
        // later one would be skipped too.
        let outcomes = parallel_indexed_until(attempts.max(1), attempt_once, Option::is_none);

        let distance = |a: &[f64], b: &[f64]| {
            template_ids
                .iter()
                .map(|id| (a[id.index()] - b[id.index()]).powi(2))
                .sum::<f64>()
                .sqrt()
        };
        let mut members: Vec<EnumeratedInvariant> = Vec::new();
        for (outcome, seconds) in outcomes.into_iter().flatten() {
            let (assignment, violation) = rung.reassemble(&outcome.assignment);
            let feasible = outcome.status == SolveStatus::Feasible;
            history.push(rung.attempt("lm", feasible, violation, seconds));
            let known = members
                .iter()
                .any(|member| distance(&member.assignment, &assignment) <= DISTINCTNESS_THRESHOLD);
            if !feasible || known {
                continue;
            }
            let cert_start = Instant::now();
            let exact = exact_recheck_ladder(
                &rung.generated.system,
                &assignment,
                &HashMap::new(),
                &self.plan.certificate,
            );
            history.push(rung.attempt(
                "certificate",
                exact.passed(),
                exact.worst_violation.to_f64(),
                cert_start.elapsed().as_secs_f64(),
            ));
            if exact.passed() {
                let (invariant, postconditions) =
                    instantiate_exact(program, &rung.generated, &exact.values);
                members.push(EnumeratedInvariant {
                    invariant,
                    postconditions,
                    assignment,
                    exact,
                });
            }
        }
        members
    }

    /// Block-coordinate polish of a lane's point: alternately frees the SOS
    /// side (multiplier, Cholesky and witness unknowns) and the template
    /// side, then runs a final pass over the *linear* tail (multiplier +
    /// witness unknowns with both the template and Cholesky blocks pinned —
    /// a least-squares problem whose optimum is the best residual
    /// compatible with the snapped coefficients). Keeps the best point
    /// seen, and stops early once the whole-solve `deadline` has passed.
    ///
    /// A round that accepts no candidate leaves the best point where it
    /// was, so every later round would start from it and repeat its two
    /// block passes exactly; the polish then runs the final round's
    /// linear-tail pass alone and stops.
    ///
    /// Records a `"polish"` attempt when it runs; with no rounds, or when
    /// the point already meets the LM tolerance, it returns the lane's
    /// point as it is.
    fn polish(
        &self,
        rung: &Rung,
        lane: &LaneResult,
        deadline: Option<Instant>,
        workspaces: &mut Vec<LmWorkspace>,
        history: &mut Vec<SolveAttempt>,
    ) -> (Vec<f64>, f64) {
        if self.plan.polish_rounds == 0 || lane.violation <= LM_TOLERANCE {
            return (lane.assignment.clone(), lane.violation);
        }
        let start = Instant::now();
        let system = &rung.generated.system;
        let block = |wanted: fn(&UnknownKind) -> bool| -> Vec<UnknownId> {
            system
                .registry
                .iter()
                .filter(|(_, kind)| wanted(kind))
                .map(|(id, _)| id)
                .collect()
        };
        let template_block = block(|kind| {
            matches!(
                kind,
                UnknownKind::Template { .. } | UnknownKind::PostTemplate { .. }
            )
        });
        let sos_block = block(|kind| matches!(kind, UnknownKind::Cholesky { .. }));
        let both_blocks: Vec<UnknownId> = template_block
            .iter()
            .chain(sos_block.iter())
            .copied()
            .collect();

        let mut best = lane.assignment.clone();
        let mut best_violation = lane.violation;
        let mut stalled = false;
        'rounds: for round in 0..self.plan.polish_rounds {
            // Pass 1 pins the template block and frees {t, l, ε}. Pass 2
            // pins the Cholesky block and frees {s, t, ε} (the remaining
            // system is bilinear in s·t, LM's sweet spot). The final round
            // adds a pass pinning both: the tail {t, ε} is linear, so one LM
            // sub-solve reaches the least-squares optimum. After a stalled
            // round only that tail pass is left.
            let last = stalled || round + 1 == self.plan.polish_rounds;
            let passes = [
                (!stalled).then_some(&template_block),
                (!stalled).then_some(&sos_block),
                last.then_some(&both_blocks),
            ];
            let mut moved = false;
            for pinned in passes.into_iter().flatten() {
                let pass =
                    self.polish_pass(system, &rung.fixed, &best, pinned, deadline, workspaces);
                let Some((candidate, candidate_violation)) = pass else {
                    break 'rounds;
                };
                if candidate_violation < best_violation {
                    best = candidate;
                    best_violation = candidate_violation;
                    moved = true;
                }
            }
            if best_violation <= LM_TOLERANCE || stalled {
                break;
            }
            stalled = !moved;
        }
        history.push(rung.attempt(
            "polish",
            best_violation <= LM_TOLERANCE,
            best_violation,
            start.elapsed().as_secs_f64(),
        ));
        (best, best_violation)
    }

    /// One polish sub-solve: pin `block` at the certificate's dyadic
    /// roundings of the current values (so the polish optimizes the residual
    /// at essentially the certified point), solve the rest warm-started from the current point,
    /// and score the merged assignment on the full system. The sub-solve's
    /// wall-clock cap is clamped to the time left before `deadline`;
    /// returns `None` without solving once the deadline has passed.
    ///
    /// The sub-solve reuses the rung's symbolic workspace for the pinned
    /// problem's structure from `workspaces`, building and adding it on a
    /// miss: the polish alternation re-solves the same three structures
    /// round after round.
    fn polish_pass(
        &self,
        system: &QuadraticSystem,
        fixed: &HashMap<UnknownId, Rational>,
        current: &[f64],
        block: &[UnknownId],
        deadline: Option<Instant>,
        workspaces: &mut Vec<LmWorkspace>,
    ) -> Option<(Vec<f64>, f64)> {
        let mut options = self.plan.polish_lm.clone();
        if let Some(deadline) = deadline {
            options.max_seconds = clamp_budget(options.max_seconds, seconds_left(deadline)?);
        }
        let mut pins = fixed.clone();
        for &id in block {
            pins.entry(id)
                .or_insert_with(|| dyadic(current[id.index()], DYADIC_BITS));
        }
        let (problem, mapping) = system_to_problem_with_fixed(system, &pins);
        if mapping.is_empty() {
            return Some((current.to_vec(), system.max_violation(current)));
        }
        let warm: Vec<f64> = mapping.iter().map(|id| current[id.index()]).collect();
        let weight = options.objective_weight;
        let slot = match workspaces
            .iter()
            .position(|ws| ws.matches(&problem, weight))
        {
            Some(slot) => slot,
            None => {
                workspaces.push(LmWorkspace::build(&problem, weight));
                workspaces.len() - 1
            }
        };
        let outcome =
            LmSolver::new(options).solve_with_workspace(&problem, &workspaces[slot], Some(&warm));
        let mut assignment = current.to_vec();
        for (id, value) in &pins {
            assignment[id.index()] = value.to_f64();
        }
        for (slot, id) in mapping.iter().enumerate() {
            assignment[id.index()] = outcome.assignment[slot];
        }
        let violation = system.max_violation(&assignment);
        Some((assignment, violation))
    }
}

/// Seconds left before `deadline`, or `None` once it has passed.
fn seconds_left(deadline: Instant) -> Option<f64> {
    let left = deadline
        .saturating_duration_since(Instant::now())
        .as_secs_f64();
    (left > 0.0).then_some(left)
}

/// The wall-clock cap of a lane or strong attempt that starts now under a
/// whole-solve `deadline`: its own `cap` clamped to the time left, but at
/// least one best-effort second. `None` once the deadline has passed,
/// except for a rung's `first` lane or attempt, which always runs.
fn lane_cap(cap: f64, deadline: Option<Instant>, first: bool) -> Option<f64> {
    let Some(deadline) = deadline else {
        return Some(cap);
    };
    let left = seconds_left(deadline);
    if left.is_none() && !first {
        return None;
    }
    Some(clamp_budget(cap, left.unwrap_or(0.0).max(1.0)))
}

/// Clamps a per-lane wall-clock cap to the whole-solve time remaining
/// (`0` means "uncapped" on the lane side, so the remaining time becomes
/// the cap).
fn clamp_budget(lane_cap: f64, remaining: f64) -> f64 {
    if lane_cap > 0.0 {
        lane_cap.min(remaining)
    } else {
        remaining
    }
}

/// Deterministic choice between the LM lane and the fallback lane, when
/// it ran, by the solvers' own ranking rule ([`outranks`]): a feasible lane
/// beats an infeasible one; among equals the smaller violation wins; on
/// exact ties the LM lane, the earlier one, wins. Non-finite violations
/// compare as +∞.
fn pick_winner(lm: LaneResult, fallback: Option<LaneResult>) -> LaneResult {
    match fallback {
        Some(fallback)
            if outranks(
                (fallback.feasible, fallback.violation),
                (lm.feasible, lm.violation),
            ) =>
        {
            fallback
        }
        _ => lm,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_lang::parse_program;

    fn lane(backend: &'static str, feasible: bool, violation: f64) -> LaneResult {
        LaneResult {
            backend,
            assignment: vec![0.0],
            seconds: 0.0,
            violation,
            feasible,
            stats: SolverStats::default(),
        }
    }

    #[test]
    fn portfolio_tie_breaking_is_deterministic() {
        // A feasible lane beats a lower-violation infeasible one; among
        // infeasible lanes the smaller violation wins; on an exact tie the
        // LM lane wins; NaN violations never displace a finite candidate.
        for (lm, fallback, winner) in [
            ((false, 1e-9), (true, 1e-8), "penalty"),
            ((false, 0.5), (false, 0.2), "penalty"),
            ((false, 0.3), (false, 0.3), "lm"),
            ((false, f64::NAN), (false, 9.0), "penalty"),
        ] {
            let lm = lane("lm", lm.0, lm.1);
            let fallback = lane("penalty", fallback.0, fallback.1);
            assert_eq!(pick_winner(lm, Some(fallback)).backend, winner);
        }
        // Without a fallback the LM lane wins, however it did.
        assert_eq!(pick_winner(lane("lm", false, f64::NAN), None).backend, "lm");
    }

    #[test]
    fn backend_preference_shapes_the_portfolio() {
        let plan = SolvePlan::new(SynthesisOptions::default()).with_backend_preference("lm");
        assert!(plan.penalty.is_none());
        // The retired names are unknown: they leave the default plan alone.
        for name in ["penalty", "alm"] {
            let plan = SolvePlan::new(SynthesisOptions::default()).with_backend_preference(name);
            assert!(plan.penalty.is_some());
            assert_eq!(plan.lm.max_iterations, 400);
        }
    }

    #[test]
    fn unknown_backend_names_are_rejected() {
        // Front doors reject every name the preference does not act on,
        // the retired penalty-lane names included.
        assert!(SolvePlan::knows_backend("lm"));
        for name in ["penalty", "alm", "loqo"] {
            assert!(!SolvePlan::knows_backend(name), "{name}");
        }
    }

    /// `inc` (x counts up to 11 from x ≥ 0) solved on the ϒ ladder up to
    /// `upsilon`, under the default plan as `tune` changes it.
    fn solve_inc(
        target: &str,
        upsilon: u32,
        tune: impl FnOnce(&mut SolvePlan),
    ) -> (Program, OrchestratorOutcome) {
        let program =
            parse_program("inc(x) { @pre(x >= 0); while x <= 10 do x := x + 1 od; return x }")
                .unwrap();
        let pre = Precondition::from_program(&program);
        let exit = program.main().exit_label();
        let (target, _) = polyinv_lang::parse_assertion(&program, "inc", target).unwrap();
        let options = SynthesisOptions::with_degree_and_size(1, 1).with_upsilon(upsilon);
        let mut plan = SolvePlan::new(options);
        tune(&mut plan);
        let outcome = Orchestrator::new(plan)
            .solve(&program, &pre, &[TargetAssertion::new(exit, target)])
            .unwrap();
        (program, outcome)
    }

    fn backends(outcome: &OrchestratorOutcome) -> Vec<&str> {
        let history = &outcome.stats.history;
        history.iter().map(|a| a.backend.as_str()).collect()
    }

    #[test]
    fn a_certifiable_program_stops_at_the_first_rung() {
        let (program, outcome) = solve_inc("x + 1 > 0", 2, |_| {});
        assert!(outcome.certified, "violation {}", outcome.violation);
        assert!(outcome.feasible);
        assert_eq!(outcome.stats.rung_reached, 0, "ϒ = 0 suffices here");
        assert_eq!(outcome.stats.rungs_tried, 1);
        assert!(outcome.stats.certified);
        assert!(!outcome
            .invariant
            .get(program.main().exit_label())
            .is_empty());
        assert!(outcome.exact.passed());
        // Every attempt in the history belongs to the single rung tried,
        // and the certified LM point never starts the penalty lane.
        assert!(outcome.stats.history.iter().all(|a| a.upsilon == 0));
        assert_eq!(outcome.backend, "lm");
        assert!(!backends(&outcome).contains(&"penalty"));
    }

    #[test]
    fn a_failed_lm_certificate_starts_the_penalty_lane_and_pick_winner_decides() {
        // x never exceeds 11, so no point certifies x - 1000 > 0. One LM
        // iteration loses to the penalty lane, which is then certified in
        // turn; a full LM lane beats a penalty lane of one Adam step, and
        // keeps its own certificate. An LM lane out of time marks the rung
        // budget-bound: the penalty lane runs before any certificate.
        let check = |tune: &dyn Fn(&mut SolvePlan), winner: &str, history: &[&'static str]| {
            let (_, outcome) = solve_inc("x - 1000 > 0", 0, |plan| {
                plan.polish_rounds = 0;
                tune(plan);
            });
            assert!(!outcome.certified);
            assert_eq!(backends(&outcome), history);
            let attempts = &outcome.stats.history;
            let raw = |k: usize| lane(history[k], attempts[k].feasible, attempts[k].violation);
            let penalty = history.iter().position(|b| *b == "penalty").unwrap();
            assert_eq!(pick_winner(raw(0), Some(raw(penalty))).backend, winner);
            assert_eq!(outcome.backend, winner);
            let certificate = attempts.iter().rfind(|a| a.backend == "certificate");
            assert_eq!(
                outcome.stats.certificate_violation,
                certificate.unwrap().violation
            );
        };
        let both_ran = ["lm", "certificate", "penalty", "certificate"];
        check(&|plan| plan.lm.max_iterations = 1, "penalty", &both_ran);
        let one_adam_step = |plan: &mut SolvePlan| {
            let alm = plan.penalty.as_mut().unwrap();
            (alm.outer_iterations, alm.inner_iterations) = (1, 1);
        };
        check(&one_adam_step, "lm", &both_ran[..3]);
        let budget_bound = ["lm", "penalty", "certificate"];
        check(&|plan| plan.lm.max_seconds = 1e-9, "penalty", &budget_bound);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with `cargo test --release`"
    )]
    fn enumeration_finds_multiple_distinct_invariants_for_a_tiny_program() {
        // x := x + 1 in a bounded loop admits many linear invariants.
        let program = parse_program(
            r#"
            inc(x) {
                @pre(x >= 0);
                while x <= 5 do
                    x := x + 1
                od;
                return x
            }
            "#,
        )
        .unwrap();
        let pre = Precondition::from_program(&program);
        let options = SynthesisOptions::with_degree_and_size(1, 1).with_upsilon(2);
        let plan = SolvePlan::new(options);
        let enumeration = Orchestrator::new(plan.clone())
            .enumerate(&program, &pre, 4)
            .unwrap();
        let members = &enumeration.members;
        assert!(
            !members.is_empty(),
            "at least one inductive invariant should be found: {:?}",
            enumeration.stats.history
        );
        assert!(enumeration.stats.certified);
        // Every member is certified: its snapped point passes the exact
        // re-check against the system of the rung that produced it, and its
        // invariant is the one instantiated at that certified point.
        for member in members {
            assert!(member.exact.passed());
            let recheck = exact_recheck_ladder(
                &enumeration.generated.system,
                &member.assignment,
                &HashMap::new(),
                &plan.certificate,
            );
            assert!(recheck.passed(), "{recheck:?}");
            assert_eq!(recheck.values, member.exact.values);
            let (invariant, _) =
                instantiate_exact(&program, &enumeration.generated, &member.exact.values);
            assert_eq!(
                member.invariant.render(&program),
                invariant.render(&program)
            );
        }
        // Members are pairwise distinct template-coefficient vectors.
        let template_ids = enumeration.generated.system.registry.template_unknowns();
        for (i, a) in members.iter().enumerate() {
            for b in members.iter().skip(i + 1) {
                let distance = template_ids
                    .iter()
                    .map(|id| (a.assignment[id.index()] - b.assignment[id.index()]).powi(2))
                    .sum::<f64>()
                    .sqrt();
                assert!(distance > DISTINCTNESS_THRESHOLD);
            }
        }
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with `cargo test --release`"
    )]
    fn an_unprovable_target_escalates_through_every_rung() {
        // x never exceeds 11, so x - 1000 > 0 at the exit is unprovable:
        // no rung can certify and the ladder must be exhausted. Tiny
        // budgets and no polish keep the test fast.
        let (_, outcome) = solve_inc("x - 1000 > 0", 2, |plan| {
            plan.lm.max_iterations = 40;
            plan.lm.restarts = 1;
            plan.penalty = None;
            plan.polish_rounds = 0;
        });
        assert!(!outcome.certified);
        assert_eq!(outcome.stats.rungs_tried, 2, "ladder [0, 2] is exhausted");
        assert_eq!(outcome.stats.rung_reached, 2);
        // Both rungs left their attempts in the history.
        assert!(outcome.stats.history.iter().any(|a| a.upsilon == 0));
        assert!(outcome.stats.history.iter().any(|a| a.upsilon == 2));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with `cargo test --release`"
    )]
    fn polish_stops_at_the_whole_solve_deadline() {
        // The running example with an unprovable target, stall detection
        // off and a large polish iteration cap: every polish sub-solve runs
        // to its cap, about 15 s of polish on the ϒ = 2 rung on a 2-core
        // x86-64 box. Under a 2 s whole-solve budget the polish rounds must
        // stop at the deadline instead.
        let program = parse_program(polyinv_lang::program::RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let exit = program.main().exit_label();
        let (target, _) = polyinv_lang::parse_assertion(&program, "sum", "-1 - s > 0").unwrap();
        let budget = 2.0;
        let mut plan = SolvePlan::new(SynthesisOptions::default()).with_solve_budget(budget);
        plan.penalty = None;
        plan.lm.max_iterations = 5;
        plan.polish_lm.stall_iterations = 0;
        plan.polish_lm.max_iterations = 1000;
        let started = Instant::now();
        let outcome = Orchestrator::new(plan)
            .solve(&program, &pre, &[TargetAssertion::new(exit, target)])
            .unwrap();
        let elapsed = started.elapsed().as_secs_f64();
        // The margin covers one LM iteration past the deadline, the
        // certificate and generation; it is far below one polish pass.
        assert!(
            elapsed < budget + 1.0,
            "solve took {elapsed:.2} s against a {budget} s budget: {:?}",
            outcome.stats.history
        );
        assert!(outcome.stats.history.iter().any(|a| a.backend == "polish"));
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "slow without optimizations; run with `cargo test --release`"
    )]
    fn the_fallback_lane_is_capped_at_the_time_left_when_it_starts() {
        // The LM point's polish (stall detection off, passes of up to
        // 1.2 s) spends part of a 2 s budget and its certificate fails; the
        // penalty lane would then run for its own 20 s. It must stop at the
        // time left when it starts (or after the one best-effort second),
        // not at the time left when the rung started.
        let budget = 2.0;
        let started = Instant::now();
        let (_, outcome) = solve_inc("x - 1000 > 0", 0, |plan| {
            plan.solve_budget_seconds = budget;
            plan.polish_rounds = 1;
            plan.polish_lm.stall_iterations = 0;
            plan.polish_lm.max_iterations = 1_000_000_000;
            plan.polish_lm.max_seconds = 1.2;
            let alm = plan.penalty.as_mut().unwrap();
            alm.outer_iterations = 1_000_000_000;
            alm.max_seconds = 20.0;
        });
        let elapsed = started.elapsed().as_secs_f64();
        let history = &outcome.stats.history;
        assert_eq!(
            backends(&outcome)[..4],
            ["lm", "polish", "certificate", "penalty"],
            "{history:?}"
        );
        let left = budget - history[..3].iter().map(|a| a.seconds).sum::<f64>();
        assert!(
            history[3].seconds < left.max(1.0) + 0.25,
            "the penalty lane ran {:.2} s with {left:.2} s left: {history:?}",
            history[3].seconds
        );
        assert!(
            elapsed < budget + 1.0,
            "solve took {elapsed:.2} s against a {budget} s budget: {history:?}"
        );
    }
}
