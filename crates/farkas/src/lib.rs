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
//! the comparison the paper draws (Remark 11).

use polyinv_arith::Rational;
use polyinv_constraints::{generate, GeneratedSystem, SynthesisOptions};
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

/// Configuration of the baseline.
#[derive(Debug, Clone)]
pub struct FarkasBaseline {
    /// Number of linear conjuncts per label.
    pub size: usize,
    /// Lower bound on the strict-implication witness λ₀.
    pub epsilon_lower: Rational,
}

impl Default for FarkasBaseline {
    fn default() -> Self {
        FarkasBaseline {
            size: 1,
            epsilon_lower: Rational::new(1, 100),
        }
    }
}

impl FarkasBaseline {
    /// Creates a baseline instance with `size` linear conjuncts per label.
    pub fn new(size: usize) -> Self {
        FarkasBaseline {
            size,
            ..FarkasBaseline::default()
        }
    }

    /// Checks whether the baseline applies to `program` at all.
    ///
    /// # Errors
    ///
    /// Returns the first [`Inapplicability`] reason found (non-linear
    /// assignment or guard, or recursion).
    pub fn check_applicable(&self, program: &Program) -> Result<(), Inapplicability> {
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

    /// Runs the Farkas-lemma reduction: linear templates, constant
    /// multipliers. The result is a system of (bilinear) quadratic
    /// constraints over the template coefficients and the Farkas
    /// multipliers, exactly as in CAV 2003.
    ///
    /// # Errors
    ///
    /// Returns an [`Inapplicability`] error if the program is not linear or
    /// is recursive.
    pub fn generate(
        &self,
        program: &Program,
        pre: &Precondition,
    ) -> Result<GeneratedSystem, Inapplicability> {
        self.check_applicable(program)?;
        let options = SynthesisOptions {
            degree: 1,
            size: self.size,
            upsilon: 0,
            bounded_reals: None,
            epsilon_lower: self.epsilon_lower,
            force_recursive: false,
            presolve: true,
        };
        generate(program, pre, &options).map_err(|error| Inapplicability::Constraint {
            message: error.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_lang::parse_program;
    use polyinv_lang::program::{RECURSIVE_EXAMPLE_SOURCE, RUNNING_EXAMPLE_SOURCE};

    #[test]
    fn applies_to_linear_programs_and_produces_a_bilinear_system() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let baseline = FarkasBaseline::default();
        let generated = baseline.generate(&program, &pre).unwrap();
        // Linear templates over 5 variables: 6 coefficients per label.
        assert_eq!(
            generated
                .templates
                .invariant(program.main().entry_label())
                .basis
                .len(),
            6
        );
        assert!(generated.size() > 0);
        // The Farkas system is much smaller than the Putinar system of the
        // same program at degree 2.
        let full = generate(&program, &pre, &SynthesisOptions::default()).unwrap();
        assert!(generated.size() < full.size());
    }

    #[test]
    fn rejects_nonlinear_assignments() {
        let source = r#"
            f(x) {
                @pre(x >= 0);
                while x <= 10 do
                    x := x * x + 1
                od;
                return x
            }
        "#;
        let program = parse_program(source).unwrap();
        let baseline = FarkasBaseline::default();
        assert!(matches!(
            baseline.check_applicable(&program),
            Err(Inapplicability::NonLinearAssignment { .. })
        ));
    }

    #[test]
    fn rejects_nonlinear_guards_and_recursion() {
        let source = r#"
            f(x) {
                while x * x <= 100 do
                    x := x + 1
                od;
                return x
            }
        "#;
        let program = parse_program(source).unwrap();
        assert!(matches!(
            FarkasBaseline::default().check_applicable(&program),
            Err(Inapplicability::NonLinearGuard { .. })
        ));
        let recursive = parse_program(RECURSIVE_EXAMPLE_SOURCE).unwrap();
        assert_eq!(
            FarkasBaseline::default().check_applicable(&recursive),
            Err(Inapplicability::Recursive)
        );
    }

    #[test]
    fn inapplicability_reasons_render_for_the_comparison_table() {
        let reason = Inapplicability::NonLinearAssignment {
            expression: "x^2 + 1".to_string(),
        };
        assert!(reason.to_string().contains("non-linear assignment"));
    }
}
