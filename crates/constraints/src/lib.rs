//! Constraint generation: Steps 1–3 of the paper's algorithms.
//!
//! Given a resolved program, a pre-condition and the synthesis options
//! (template degree `d`, template size `n`, technical parameter `ϒ`), this
//! crate produces the system of quadratic equalities and inequalities whose
//! solutions are exactly the inductive invariants of the requested shape
//! (Lemma 3.6 / Lemma 3.7):
//!
//! 1. **Templates** ([`template`]): an invariant template `η(ℓ)` at every
//!    label and — for recursive programs — a post-condition template `µ(f)`
//!    per function (Steps 1 and 1.a).
//! 2. **Constraint pairs** ([`pairs`]): for every CFG transition, initiation
//!    point, function call and return, a pair `(Γ, g)` encoding
//!    `∀ν. Γ(ν) ⇒ g(ν) > 0` (Steps 2, 2.a and 2.b).
//! 3. **Putinar translation** ([`putinar`]): each constraint pair is
//!    replaced by the polynomial identity `g = ε + h₀ + Σ hᵢ·gᵢ` with
//!    sum-of-squares multipliers `hᵢ` of degree at most `ϒ`, turning the
//!    pair into quadratic equations over the template coefficients
//!    (s-variables), multiplier coefficients (t-variables), SOS certificate
//!    entries (l-variables) and positivity witnesses (ε).
//!
//! The output is a [`QuadraticSystem`], which the `polyinv-qcqp` crate can
//! solve and the `polyinv` crate interprets back into invariants.

pub mod error;
pub mod exact;
pub mod options;
pub mod pairs;
pub mod presolve;
pub mod putinar;
pub mod system;
pub mod template;
pub mod unknowns;

pub use error::ConstraintError;
pub use exact::{
    exact_assignment, exact_recheck_ladder, instantiate_exact, ExactCheckConfig, ExactReport,
};
pub use options::{generate, prepare, reduce_pairs, GeneratedSystem, SynthesisOptions};
pub use pairs::{ConstraintPair, PairKind};
pub use presolve::{
    presolve, Elimination, PresolveMap, PresolveOptions, PresolveStats, PresolvedSystem,
};
pub use system::QuadraticSystem;
pub use template::{LabelTemplate, TemplateSet};
pub use unknowns::{UnknownKind, UnknownRegistry};
