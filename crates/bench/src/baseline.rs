//! The linear-invariant baseline of Colón, Sankaranarayanan and Sipma
//! (CAV 2003), reconstructed on top of the same pipeline.
//!
//! The CAV 2003 method generates *linear* templates and discharges every
//! initiation/consecution implication with **Farkas' lemma**: an implication
//! `⋀ gᵢ ≥ 0 ⇒ g > 0` between affine forms holds (over a satisfiable
//! antecedent) iff `g = λ₀ + Σ λᵢ·gᵢ` for non-negative multipliers `λᵢ` and a
//! positive `λ₀`. This is exactly the degenerate case of the paper's Putinar
//! translation in which the multiplier polynomials are constants (ϒ = 0) and
//! the templates have degree 1 — so the baseline reuses the constraint
//! generation of `polyinv-constraints` with that configuration, which also
//! mirrors the paper's observation (Table 1) that Colón et al. produce the
//! same kind of quadratic system but for a strictly smaller program class.
//!
//! The baseline deliberately *rejects* programs with non-linear assignments
//! or guards: that inapplicability to the polynomial benchmarks is precisely
//! the comparison the paper draws (Remark 11). Its only users are the
//! `reproduce baseline` table and the `baseline_comparison` Criterion group.

use polyinv_arith::Rational;
use polyinv_constraints::{GeneratedSystem, SynthesisOptions};
use polyinv_lang::cfg::TransitionKind;
use polyinv_lang::{Cfg, Precondition, Program};

/// Why the baseline refuses to handle a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Inapplicability {
    /// An assignment right-hand side has degree greater than one.
    NonLinearAssignment {
        /// Rendered polynomial of the offending assignment.
        expression: String,
    },
    /// A guard atom has degree greater than one.
    NonLinearGuard {
        /// Rendered polynomial of the offending guard atom.
        expression: String,
    },
    /// The program is recursive; CAV 2003 does not handle recursion
    /// (Table 1 of the paper).
    Recursive,
    /// The shared constraint generator rejected the program (defensive:
    /// unreachable after `check_applicable` passes, which already rules out
    /// the recursive programs the generator can reject).
    Constraint {
        /// The generator's message.
        message: String,
    },
}

impl std::fmt::Display for Inapplicability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Inapplicability::NonLinearAssignment { expression } => {
                write!(f, "non-linear assignment `{expression}`")
            }
            Inapplicability::NonLinearGuard { expression } => {
                write!(f, "non-linear guard `{expression}`")
            }
            Inapplicability::Recursive => write!(f, "recursive program"),
            Inapplicability::Constraint { message } => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for Inapplicability {}

/// Checks whether the baseline applies to `program` at all.
///
/// # Errors
///
/// Returns the first [`Inapplicability`] reason found (non-linear
/// assignment or guard, or recursion).
pub fn check_applicable(program: &Program) -> Result<(), Inapplicability> {
    if !program.is_simple() {
        return Err(Inapplicability::Recursive);
    }
    let cfg = Cfg::build(program);
    for transition in cfg.transitions() {
        match &transition.kind {
            TransitionKind::Update(updates) => {
                for (_, poly) in updates {
                    if poly.degree() > 1 {
                        return Err(Inapplicability::NonLinearAssignment {
                            expression: program.render_poly(poly),
                        });
                    }
                }
            }
            TransitionKind::Guard(formula) => {
                for atom in formula.atoms() {
                    if atom.poly.degree() > 1 {
                        return Err(Inapplicability::NonLinearGuard {
                            expression: program.render_poly(&atom.poly),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Runs the Farkas-lemma reduction: one linear template conjunct per
/// label, constant multipliers, and a strict-implication witness λ₀ of at
/// least 1/100. The result is a system of (bilinear) quadratic constraints
/// over the template coefficients and the Farkas multipliers, exactly as in
/// CAV 2003.
///
/// # Errors
///
/// Returns an [`Inapplicability`] error if the program is not linear or
/// is recursive.
pub fn generate(program: &Program, pre: &Precondition) -> Result<GeneratedSystem, Inapplicability> {
    check_applicable(program)?;
    let options = SynthesisOptions {
        degree: 1,
        size: 1,
        upsilon: 0,
        bounded_reals: None,
        epsilon_lower: Rational::new(1, 100),
        force_recursive: false,
        presolve: true,
    };
    polyinv_constraints::generate(program, pre, &options).map_err(|error| {
        Inapplicability::Constraint {
            message: error.to_string(),
        }
    })
}
