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
//!   feasibility systems, whose restarts also run in parallel; the
//!   orchestrator's fallback lane when the LM lane's point fails its
//!   certificate. It has no objective.
//!
//! Both pick their winner by one ranking rule ([`outranks`], in
//! [`stats`]): a feasible point beats an infeasible one, then the smaller
//! violation wins, and on a tie the earlier restart stays. Neither keeps
//! state between calls: a [`Problem`] carries no cached analysis, and an
//! [`LmWorkspace`] lives as long as its caller keeps it (the orchestrator
//! keeps its polish workspaces for one rung).

pub mod lm;
pub mod par;
pub mod penalty;
pub mod problem;
pub mod stats;

pub use lm::{Evaluator as LmEvaluator, LmOptions, LmSolver, LmWorkspace, LM_TOLERANCE};
pub use par::{configured_threads, ThreadBudget, PAR_ROW_THRESHOLD};
pub use penalty::{AlmOptions, AlmSolver};
pub use problem::{Problem, ProblemStructure, QuadraticForm};
pub use stats::{outranks, SolveOutcome, SolveStatus, SolverStats};
