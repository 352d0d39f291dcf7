//! # polyinv — Polynomial Invariant Generation for Non-deterministic Recursive Programs
//!
//! A Rust implementation of the sound and semi-complete invariant generation
//! method of Chatterjee, Fu, Goharshady and Goharshady (PLDI 2020): templates
//! of polynomial inequalities are made inductive by translating every
//! initiation / consecution requirement through Putinar's positivstellensatz
//! into a system of quadratic constraints, which is then handed to a
//! quadratically-constrained solver.
//!
//! The crate re-exports the front-end (`polyinv-lang`), the reduction
//! (`polyinv-constraints`) and the solving substrate (`polyinv-qcqp`), and
//! adds the paper's algorithms on top of the [`pipeline`]:
//!
//! * [`pipeline::Pipeline`] — the paper's Steps 1–3 run in sequence
//!   (templates, constraint pairs, Putinar reduction), with a
//!   [`pipeline::SynthesisContext`] carrying options, diagnostics and
//!   per-step timings;
//! * [`Orchestrator`] — Step 4, the one path from a generated system to a
//!   solution. It climbs a ϒ ladder of rungs, each presolved; weak
//!   synthesis ([`Orchestrator::solve`], `WeakInvSynth`/`RecWeakInvSynth`,
//!   targets pinned by [`fix_targets`]) runs the LM lane, polishes and
//!   certifies in exact rationals, falls back to the penalty lane when
//!   that certificate fails, and strong synthesis
//!   ([`Orchestrator::enumerate`], `StrongInvSynth`/`RecStrongInvSynth`)
//!   runs diversified multi-start LM attempts and keeps the distinct
//!   certified points;
//! * [`check::check_inductive`] — a float certificate search: given a
//!   concrete invariant map (and post-conditions for recursive programs) it
//!   looks for the sum-of-squares certificate of every constraint pair with
//!   LM, on the same [`SynthesisOptions`](constraints::SynthesisOptions)
//!   (ϒ ladder, ε bound, bounded reals, recursion) synthesis runs on, and
//!   without an exact re-check of what it finds.
//!
//! # Quick start
//!
//! The front door is the `polyinv-api` Engine: describe what you want as a
//! [`SynthesisRequest`](../polyinv_api/struct.SynthesisRequest.html) and get
//! a serializable report back.
//!
//! ```
//! use polyinv_api::{Engine, Mode, ReportStatus, SynthesisRequest};
//!
//! let engine = Engine::new();
//!
//! // The paper's running example (Figure 2): inspect the reduction.
//! let request = SynthesisRequest::generate_only(
//!     polyinv_lang::program::RUNNING_EXAMPLE_SOURCE,
//! );
//! let report = engine.run(&request)?;
//! assert_eq!(report.status, ReportStatus::Generated);
//! assert!(report.system_size > 500); // |S|, the paper's Table 2/3 metric
//! assert!(report.stage_seconds("templates") > 0.0);
//!
//! // Certify a candidate invariant of a bounded counter (check mode), then
//! // serialize the report as JSON.
//! let source = "inc(x) { @pre(x >= 0); while x <= 3 do x := x + 1 od; return x }";
//! let check = SynthesisRequest::check(source).with_target("1 > 0");
//! let report = engine.run(&check)?;
//! assert_eq!(report.status, ReportStatus::Certified);
//! assert!(report.to_json_string().contains("\"certified\""));
//! # Ok::<(), polyinv_api::ApiError>(())
//! ```
//!
//! The pipeline remains available for callers that need the generated
//! system itself (see [`pipeline`]), and `polyinv-cli` ships the same surface
//! as the `polyinv` binary (`polyinv synth <file> --target "..." --json`).

pub mod bridge;
pub mod check;
pub mod pipeline;
pub mod weak;

pub use bridge::{system_to_problem, system_to_problem_with_fixed};
pub use check::{check_inductive, CheckReport, PairCertificate};
pub use pipeline::{
    EnumeratedInvariant, Enumeration, Orchestrator, OrchestratorOutcome, OrchestratorStats,
    Pipeline, SolveAttempt, SolvePlan, StageTimings, SynthesisContext,
};
pub use weak::{fix_targets, TargetAssertion};

/// Convenient glob-import for downstream users and examples.
pub mod prelude {
    pub use crate::check::check_inductive;
    pub use crate::pipeline::{Orchestrator, Pipeline, SolvePlan, StageTimings, SynthesisContext};
    pub use crate::weak::TargetAssertion;
    pub use polyinv_constraints::SynthesisOptions;
    pub use polyinv_lang::{
        parse_assertion, parse_program, InvariantMap, Postcondition, Precondition,
    };
}

// Re-export the component crates so that downstream users only need one
// dependency.
pub use polyinv_arith as arith;
pub use polyinv_constraints as constraints;
pub use polyinv_lang as lang;
pub use polyinv_poly as poly;
pub use polyinv_qcqp as qcqp;
