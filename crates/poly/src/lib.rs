//! Multivariate polynomial and symbolic-template algebra.
//!
//! This crate implements the polynomial machinery needed by the invariant
//! generator:
//!
//! * [`Monomial`] and [`Polynomial`] — sparse multivariate polynomials over
//!   exact [`polyinv_arith::Rational`] coefficients (program expressions,
//!   guards, update functions), with substitution/composition, evaluation and
//!   monomial-basis enumeration.
//! * [`LinExpr`] and [`QuadExpr`] — affine and quadratic expressions over
//!   *unknowns* (the template coefficients called s-, t-, l- and ε-variables
//!   in the paper).
//! * [`MonomialTable`] and the interned representations ([`IntPoly`],
//!   [`IntTemplate`], [`interned::QuadAccumulator`]) — the hash-consed core
//!   used by constraint generation: monomials become dense [`MonoId`]s,
//!   products are memoized, and accumulation merges coefficients in place.
//!   [`IntTemplate`] is the one template representation: a polynomial whose
//!   coefficients are [`LinExpr`]s. Multiplying two templates (as done in
//!   the Putinar identity `g = ε + h₀ + Σ hᵢ·gᵢ`) accumulates [`QuadExpr`]
//!   coefficients, whose coefficient-matching yields exactly the quadratic
//!   constraints the paper hands to a QCLP solver.
//!
//! # Example
//!
//! ```
//! use polyinv_poly::{Monomial, Polynomial, VarId};
//! use polyinv_arith::Rational;
//!
//! let x = VarId::new(0);
//! let y = VarId::new(1);
//! // p = (x + y)^2
//! let p = (Polynomial::variable(x) + Polynomial::variable(y)).pow(2);
//! assert_eq!(p.degree(), 2);
//! assert_eq!(
//!     p.coefficient(&Monomial::from_powers(&[(x, 1), (y, 1)])),
//!     Rational::from_int(2)
//! );
//! ```

pub mod interned;
pub mod monomial;
pub mod polynomial;
pub mod symbolic;
pub mod table;

pub use interned::{IntPoly, IntTemplate};
pub use monomial::{Monomial, VarId};
pub use polynomial::Polynomial;
pub use symbolic::{LinExpr, QuadExpr, UnknownId};
pub use table::{MonoId, MonomialTable};
