//! # polyinv-api — the stable request/response surface of the reproduction
//!
//! The algorithm crates expose precise but heterogeneous entry points
//! (pipelines, per-algorithm drivers, checkers). This crate is the single
//! front door on top of them, shaped like a service API:
//!
//! * [`SynthesisRequest`] — program source + [`Mode`] (weak / strong / check
//!   / generate-only) + [`SynthesisOptions`](polyinv_constraints::SynthesisOptions)
//!   + assertions as text;
//! * [`Engine`] — owns the solver back-end, caches parsed programs keyed by
//!   source hash, and serves requests one at a time ([`Engine::run`]) or in
//!   parallel with deterministic request-ordered output
//!   ([`Engine::run_batch`]);
//! * [`SynthesisReport`] — status, pretty-printed invariants, per-stage
//!   timings, `|S|`/unknown counts and diagnostics;
//! * [`ApiError`] — the one exhaustive error enum of the surface, with
//!   source spans where the front-end provides them;
//! * [`json`] — a hand-rolled JSON writer/reader (the workspace builds
//!   offline), through which requests and reports round-trip byte-for-byte.
//!
//! ```
//! use polyinv_api::{Engine, Mode, SynthesisRequest, SynthesisReport};
//!
//! let engine = Engine::new();
//! let requests: Vec<SynthesisRequest> = (0..4)
//!     .map(|k| {
//!         SynthesisRequest::generate_only(polyinv_lang::program::RUNNING_EXAMPLE_SOURCE)
//!             .with_id(format!("req-{k}"))
//!     })
//!     .collect();
//! let reports = engine.run_batch(&requests);
//! assert_eq!(reports.len(), 4);
//! for (k, report) in reports.into_iter().enumerate() {
//!     let report = report?;
//!     assert_eq!(report.id, format!("req-{k}")); // request-ordered
//!     assert_eq!(report.mode, Mode::GenerateOnly);
//!     // Reports round-trip through the hand-rolled JSON module.
//!     let json = report.to_json_string();
//!     assert_eq!(SynthesisReport::from_json_str(&json)?, report);
//! }
//! # Ok::<(), polyinv_api::ApiError>(())
//! ```

pub mod cache;
pub mod engine;
pub mod error;
pub mod json;
pub mod report;
pub mod request;

pub use cache::{CacheStats, RequestFingerprint, ResultCache};
pub use engine::Engine;
pub use error::ApiError;
pub use json::{Json, JsonError};
pub use report::{
    AttemptRecord, ExactRecord, OrchestratorRecord, PresolveRecord, ReportStatus, SolverRecord,
    SynthesisReport, ValidationRecord,
};
pub use request::{AssertionSpec, Mode, SynthesisRequest};

// Re-export the options type that travels inside requests, so callers of
// the API need only this crate.
pub use polyinv_constraints::SynthesisOptions;
