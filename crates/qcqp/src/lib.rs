//! Quadratically-constrained programming and sum-of-squares feasibility.
//!
//! The paper solves its weak invariant-synthesis problems by handing a QCLP
//! (quadratically-constrained linear program) to the commercial interior
//! point solver LOQO. This crate is the open substitute used by the
//! reproduction (see DESIGN.md §4): the reduction that produces the systems
//! is identical to the paper's, only the numerical solver differs.
//!
//! Two solvers are provided, both called directly by the solve orchestrator
//! of the `polyinv` crate (its only Step-4 path):
//!
//! * [`LmSolver`] (`"lm"`) — projected Levenberg–Marquardt on the equality
//!   residuals with **parallel multi-start restarts**; the main lane, the
//!   polish sub-solver and the certificate checker's pair solver.
//! * [`AlmSolver`] (`"penalty"`) — an augmented-Lagrangian method with an
//!   Adam-style first-order inner loop for general (non-convex) quadratic
//!   systems, whose restarts also run in parallel; the orchestrator's
//!   second portfolio lane.

pub mod lm;
pub mod par;
pub mod penalty;
pub mod problem;
pub mod stats;

pub use lm::{Evaluator as LmEvaluator, LmOptions, LmSolver, LmWorkspace};
pub use par::{configured_threads, ThreadBudget, PAR_ROW_THRESHOLD};
pub use penalty::{AlmOptions, AlmSolver, SolveOutcome, SolveStatus};
pub use problem::{Problem, ProblemStructure, QuadraticForm};
pub use stats::SolverStats;
