//! Digests of Step-4 outcomes: one line per solved request with its
//! verdict, rung and an FNV-1a digest over the bits of everything the
//! orchestrator decided — status flags, the winning lane, the candidate's
//! violation, the attempt history (ϒ, lane, feasibility and violation of
//! every attempt, not its seconds), the winning lane's `SolverStats`
//! counts and final residual, and the assignment — compared against
//! `tests/golden/solve_digests.txt`.
//!
//! The canonical reports pin only what a report prints; these lines pin
//! the solver's floating-point bits, so a kernel change that moves a
//! single bit of the LM iterates shows up here. Three requests cover both
//! factor layouts: freire1 and petter under the default `SolvePlan` (their
//! rung-0 systems factor simplicially, and polish and the certificate run
//! as they do for a user), and recursive-sum under a fixed-work plan (LM
//! lane only, 12 iterations, 1 restart, one polish round of 6-iteration
//! sub-solves, no wall-clock cap: the settings of perfbench's
//! `tables-rung2-fixed`), whose ϒ = 2 system factors supernodally and is
//! evaluated in chunks. The outcome must not depend on the thread count,
//! so run this test at several `POLYINV_THREADS` values (each in its own
//! process; the environment is process-global):
//!
//! ```text
//! POLYINV_THREADS=1 cargo test --release -p polyinv-bench --test solve_digests
//! POLYINV_THREADS=8 cargo test --release -p polyinv-bench --test solve_digests
//! ```
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! POLYINV_REGEN_GOLDEN=1 cargo test --release -p polyinv-bench --test solve_digests
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use polyinv::{Orchestrator, OrchestratorOutcome, SolvePlan};
use polyinv_api::engine::{escalate_degree, resolve_weak_targets};
use polyinv_bench::solve_request;
use polyinv_constraints::SynthesisOptions;
use polyinv_lang::{parse_program, Precondition};

/// A 64-bit FNV-1a hasher over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn text(&mut self, text: &str) {
        self.word(text.len() as u64);
        for byte in text.bytes() {
            self.word(u64::from(byte));
        }
    }
}

/// How a request's `SolvePlan` is made from its degree-escalated options.
type PlanFn = fn(SynthesisOptions) -> SolvePlan;

/// The fixed-work plan of the large ϒ = 2 rows: LM lane only, fixed
/// iteration caps, no wall-clock cap anywhere.
fn fixed_work_plan(options: SynthesisOptions) -> SolvePlan {
    let mut plan = SolvePlan::new(options).with_backend_preference("lm");
    plan.solve_budget_seconds = 0.0;
    plan.lm.max_iterations = 12;
    plan.lm.restarts = 1;
    plan.lm.max_seconds = 0.0;
    plan.polish_rounds = 1;
    plan.polish_lm.max_iterations = 6;
    plan.polish_lm.max_seconds = 0.0;
    plan
}

/// The digest of every bit of `outcome` that Step 4 decides.
fn outcome_digest(outcome: &OrchestratorOutcome) -> u64 {
    let mut fnv = Fnv::new();
    fnv.word(u64::from(outcome.certified));
    fnv.word(u64::from(outcome.feasible));
    fnv.text(outcome.backend);
    fnv.word(outcome.violation.to_bits());
    fnv.word(outcome.stats.certificate_violation.to_bits());
    for attempt in &outcome.stats.history {
        fnv.word(u64::from(attempt.upsilon));
        fnv.text(&attempt.backend);
        fnv.word(u64::from(attempt.feasible));
        fnv.word(attempt.violation.to_bits());
    }
    let solver = &outcome.solver;
    for count in [
        solver.iterations,
        solver.restarts,
        solver.nnz_jacobian,
        solver.nnz_factor,
        solver.factorizations,
    ] {
        fnv.word(count as u64);
    }
    fnv.word(solver.final_residual.to_bits());
    fnv.word(outcome.assignment.len() as u64);
    for value in &outcome.assignment {
        fnv.word(value.to_bits());
    }
    fnv.0
}

fn digest_lines() -> String {
    let requests: [(&str, PlanFn); 3] = [
        ("freire1", SolvePlan::new),
        ("petter", SolvePlan::new),
        ("recursive-sum", fixed_work_plan),
    ];
    let mut lines = String::new();
    for (name, make_plan) in requests {
        let benchmark = polyinv_benchmarks::by_name(name).expect("row names are valid");
        let request = solve_request(&benchmark);
        let program = parse_program(&request.source).expect("row parses");
        let targets = resolve_weak_targets(&program, &request).expect("row targets resolve");
        let (options, _) = escalate_degree(&request.options, &targets);
        let pre = Precondition::from_program(&program);
        let outcome = Orchestrator::new(make_plan(options))
            .solve(&program, &pre, &targets)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        writeln!(
            lines,
            "{name} certified={} rung={} attempts={} nnz_factor={} digest={:016x}",
            outcome.certified,
            outcome.stats.rung_reached,
            outcome.stats.attempts,
            outcome.solver.nnz_factor,
            outcome_digest(&outcome)
        )
        .expect("writing to a String never fails");
    }
    lines
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "three full solves are slow unoptimized; run with `cargo test --release`"
)]
fn solve_outcomes_match_their_digests() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("tests/golden/solve_digests.txt");
    let actual = digest_lines();
    if std::env::var("POLYINV_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with POLYINV_REGEN_GOLDEN=1",
            path.display()
        )
    });
    assert!(
        actual == expected,
        "Step-4 outcomes changed:\n{actual}expected:\n{expected}if intentional, regenerate with \
         POLYINV_REGEN_GOLDEN=1 cargo test --release -p polyinv-bench --test solve_digests"
    );
}
