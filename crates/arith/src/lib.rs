//! Exact rational arithmetic and dense linear algebra.
//!
//! This crate provides the numeric substrate used throughout the `polyinv`
//! workspace:
//!
//! * [`Rational`] — arbitrary-precision-free, `i128`-backed normalized
//!   rationals with checked arithmetic, used for all *symbolic* computation
//!   (polynomial coefficients, constraint generation) where exactness
//!   matters.
//! * [`Matrix`] and [`Vector`] — dense, row-major `f64` linear algebra
//!   (products, transposes and Gaussian-elimination solves): the dense LM
//!   probe of `polyinv-bench` and the oracle the sparse routines are
//!   property-tested against.
//! * [`sparse`] — the sparse substrate of the Step-4 solve path: the
//!   symbolic normal matrix [`JtjPattern`] (JᵀJ accumulated directly from
//!   sparse Jacobian rows) and the sparse LDLᵀ factorization
//!   [`SymbolicLdl`] with a fill-reducing minimum-degree ordering whose
//!   symbolic analysis is computed once and reused across solver
//!   iterations.
//! * [`par`] — the scoped-thread work queue every parallel site of the
//!   workspace runs on (results in index order, so outputs do not depend on
//!   the thread count).
//!
//! # Example
//!
//! ```
//! use polyinv_arith::{Matrix, Rational, Vector};
//!
//! let half = Rational::new(1, 2);
//! assert_eq!(half + half, Rational::one());
//!
//! let mut m = Matrix::zeros(2, 2);
//! m.set(0, 0, 2.0);
//! m.set(0, 1, 1.0);
//! m.set(1, 0, 1.0);
//! m.set(1, 1, 2.0);
//! let x = m.solve(&Vector::from_slice(&[3.0, 3.0])).expect("non-singular");
//! assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
//! ```

pub mod linalg;
pub mod par;
pub mod rational;
pub mod sparse;

pub use linalg::{Matrix, Vector};
pub use rational::{ParseRationalError, Rational, RationalError};
pub use sparse::{JtjChunk, JtjPattern, LdlNumeric, SymbolicLdl};
