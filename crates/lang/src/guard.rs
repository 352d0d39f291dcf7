//! Propositional polynomial predicates.
//!
//! Guards of conditionals and while loops are propositional formulas over
//! atomic assertions `p ≥ 0` / `p > 0`. Step 2 of the paper's algorithm
//! requires the guard (and its negation) in disjunctive normal form, each
//! disjunct being a conjunction of atomic assertions that can be placed in
//! the left-hand side `Γ` of a constraint pair.

use polyinv_arith::Rational;
use polyinv_poly::{Polynomial, VarId};

/// An atomic polynomial assertion `poly ≥ 0` (non-strict) or `poly > 0`
/// (strict).
#[derive(Debug, Clone, PartialEq)]
pub struct Atom {
    /// The polynomial compared against zero.
    pub poly: Polynomial,
    /// `true` for `poly > 0`, `false` for `poly ≥ 0`.
    pub strict: bool,
}

impl Atom {
    /// Creates a non-strict atom `poly ≥ 0`.
    pub fn non_strict(poly: Polynomial) -> Self {
        Atom {
            poly,
            strict: false,
        }
    }

    /// Creates a strict atom `poly > 0`.
    pub fn strict(poly: Polynomial) -> Self {
        Atom { poly, strict: true }
    }

    /// The logical negation of the atom.
    pub fn negate(&self) -> Atom {
        Atom {
            poly: -&self.poly,
            strict: !self.strict,
        }
    }

    /// Evaluates the atom at a rational valuation, returning `None` on
    /// `i128` rational overflow (overflow-safe interpretation).
    pub fn checked_eval<F>(&self, valuation: F) -> Option<bool>
    where
        F: FnMut(VarId) -> Rational,
    {
        let value = self.poly.checked_eval(valuation)?;
        Some(if self.strict {
            value.is_positive()
        } else {
            !value.is_negative()
        })
    }

    /// Relaxes a strict atom to its non-strict counterpart (identity for
    /// non-strict atoms). Used when placing guard atoms into the `gᵢ ≥ 0`
    /// side of a constraint pair.
    pub fn relaxed(&self) -> Atom {
        Atom {
            poly: self.poly.clone(),
            strict: false,
        }
    }
}

/// A conjunction of atomic assertions.
pub type Conjunction = Vec<Atom>;

/// A propositional polynomial predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum BoolFormula {
    /// An atomic assertion.
    Atom(Atom),
    /// Conjunction of sub-formulas (empty conjunction is `true`).
    And(Vec<BoolFormula>),
    /// Disjunction of sub-formulas (empty disjunction is `false`).
    Or(Vec<BoolFormula>),
    /// Negation of a sub-formula.
    Not(Box<BoolFormula>),
}

impl BoolFormula {
    /// The formula `true`.
    pub fn top() -> Self {
        BoolFormula::And(Vec::new())
    }

    /// The formula `false`.
    pub fn bottom() -> Self {
        BoolFormula::Or(Vec::new())
    }

    /// Creates a conjunction of atoms.
    pub fn conjunction(atoms: Vec<Atom>) -> Self {
        BoolFormula::And(atoms.into_iter().map(BoolFormula::Atom).collect())
    }

    /// The logical negation, with negation pushed to the atoms (so the
    /// result contains no [`BoolFormula::Not`] nodes).
    pub fn negate(&self) -> BoolFormula {
        match self {
            BoolFormula::Atom(atom) => BoolFormula::Atom(atom.negate()),
            BoolFormula::And(parts) => {
                BoolFormula::Or(parts.iter().map(BoolFormula::negate).collect())
            }
            BoolFormula::Or(parts) => {
                BoolFormula::And(parts.iter().map(BoolFormula::negate).collect())
            }
            BoolFormula::Not(inner) => inner.to_nnf(),
        }
    }

    /// Negation normal form: negations are pushed down to the atoms.
    pub fn to_nnf(&self) -> BoolFormula {
        match self {
            BoolFormula::Atom(atom) => BoolFormula::Atom(atom.clone()),
            BoolFormula::And(parts) => {
                BoolFormula::And(parts.iter().map(BoolFormula::to_nnf).collect())
            }
            BoolFormula::Or(parts) => {
                BoolFormula::Or(parts.iter().map(BoolFormula::to_nnf).collect())
            }
            BoolFormula::Not(inner) => inner.negate(),
        }
    }

    /// Disjunctive normal form: a list of conjunctions of atoms whose
    /// disjunction is equivalent to the formula.
    pub fn to_dnf(&self) -> Vec<Conjunction> {
        match self.to_nnf() {
            BoolFormula::Atom(atom) => vec![vec![atom]],
            BoolFormula::And(parts) => {
                let mut result: Vec<Conjunction> = vec![Vec::new()];
                for part in parts {
                    let part_dnf = part.to_dnf();
                    let mut next = Vec::with_capacity(result.len() * part_dnf.len());
                    for existing in &result {
                        for disjunct in &part_dnf {
                            let mut combined = existing.clone();
                            combined.extend(disjunct.iter().cloned());
                            next.push(combined);
                        }
                    }
                    result = next;
                }
                result
            }
            BoolFormula::Or(parts) => parts.iter().flat_map(|p| p.to_dnf()).collect(),
            BoolFormula::Not(_) => unreachable!("to_nnf removes negations"),
        }
    }

    /// Evaluates the formula at a rational valuation, returning `None` on
    /// `i128` rational overflow in any atom that had to be evaluated.
    pub fn checked_eval<F>(&self, valuation: &mut F) -> Option<bool>
    where
        F: FnMut(VarId) -> Rational,
    {
        match self {
            BoolFormula::Atom(atom) => atom.checked_eval(&mut *valuation),
            BoolFormula::And(parts) => {
                for part in parts {
                    if !part.checked_eval(valuation)? {
                        return Some(false);
                    }
                }
                Some(true)
            }
            BoolFormula::Or(parts) => {
                for part in parts {
                    if part.checked_eval(valuation)? {
                        return Some(true);
                    }
                }
                Some(false)
            }
            BoolFormula::Not(inner) => Some(!inner.checked_eval(valuation)?),
        }
    }

    /// All atoms occurring in the formula.
    pub fn atoms(&self) -> Vec<&Atom> {
        match self {
            BoolFormula::Atom(atom) => vec![atom],
            BoolFormula::And(parts) | BoolFormula::Or(parts) => {
                parts.iter().flat_map(|p| p.atoms()).collect()
            }
            BoolFormula::Not(inner) => inner.atoms(),
        }
    }

    /// The maximum degree of any atom's polynomial.
    pub fn degree(&self) -> u32 {
        self.atoms()
            .iter()
            .map(|a| a.poly.degree())
            .max()
            .unwrap_or(0)
    }

    /// Renders the formula with a variable-name resolver.
    pub fn display_with<F>(&self, name: &mut F) -> String
    where
        F: FnMut(VarId) -> String,
    {
        match self {
            BoolFormula::Atom(atom) => format!(
                "{} {} 0",
                atom.poly.display_with(&mut *name),
                if atom.strict { ">" } else { ">=" }
            ),
            BoolFormula::And(parts) if parts.is_empty() => "true".to_string(),
            BoolFormula::And(parts) => parts
                .iter()
                .map(|p| format!("({})", p.display_with(name)))
                .collect::<Vec<_>>()
                .join(" && "),
            BoolFormula::Or(parts) if parts.is_empty() => "false".to_string(),
            BoolFormula::Or(parts) => parts
                .iter()
                .map(|p| format!("({})", p.display_with(name)))
                .collect::<Vec<_>>()
                .join(" || "),
            BoolFormula::Not(inner) => format!("!({})", inner.display_with(name)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_poly::Polynomial;

    fn x() -> VarId {
        VarId::new(0)
    }
    fn y() -> VarId {
        VarId::new(1)
    }

    fn atom_x_ge_0() -> Atom {
        Atom::non_strict(Polynomial::variable(x()))
    }

    fn atom_y_gt_0() -> Atom {
        Atom::strict(Polynomial::variable(y()))
    }

    #[test]
    fn atom_negation_flips_strictness_and_sign() {
        let a = atom_x_ge_0();
        let n = a.negate();
        assert!(n.strict);
        assert_eq!(n.poly, -Polynomial::variable(x()));
        assert_eq!(n.negate(), a);
    }

    #[test]
    fn atom_evaluation_respects_strictness() {
        let zero = |_: VarId| Rational::zero();
        assert_eq!(atom_x_ge_0().checked_eval(zero), Some(true));
        assert_eq!(atom_y_gt_0().checked_eval(zero), Some(false));
    }

    #[test]
    fn dnf_of_conjunction_of_disjunctions() {
        // (x ≥ 0 || y > 0) && (y > 0 || x ≥ 0) -> 4 disjuncts.
        let formula = BoolFormula::And(vec![
            BoolFormula::Or(vec![
                BoolFormula::Atom(atom_x_ge_0()),
                BoolFormula::Atom(atom_y_gt_0()),
            ]),
            BoolFormula::Or(vec![
                BoolFormula::Atom(atom_y_gt_0()),
                BoolFormula::Atom(atom_x_ge_0()),
            ]),
        ]);
        let dnf = formula.to_dnf();
        assert_eq!(dnf.len(), 4);
        assert!(dnf.iter().all(|conj| conj.len() == 2));
    }

    #[test]
    fn dnf_preserves_semantics_on_sample_points() {
        // !(x >= 0 && y > 0) || (x >= 0)
        let formula = BoolFormula::Or(vec![
            BoolFormula::Not(Box::new(BoolFormula::And(vec![
                BoolFormula::Atom(atom_x_ge_0()),
                BoolFormula::Atom(atom_y_gt_0()),
            ]))),
            BoolFormula::Atom(atom_x_ge_0()),
        ]);
        let dnf = formula.to_dnf();
        for xv in -2..3 {
            for yv in -2..3 {
                let mut valuation = |v: VarId| {
                    if v == x() {
                        Rational::from_int(xv)
                    } else {
                        Rational::from_int(yv)
                    }
                };
                let direct = formula.checked_eval(&mut valuation).unwrap();
                let via_dnf = dnf.iter().any(|conj| {
                    conj.iter()
                        .all(|atom| atom.checked_eval(&mut valuation).unwrap())
                });
                assert_eq!(direct, via_dnf, "mismatch at ({xv},{yv})");
            }
        }
    }

    #[test]
    fn negation_of_negation_is_identity_on_atoms() {
        let formula = BoolFormula::Not(Box::new(BoolFormula::Not(Box::new(BoolFormula::Atom(
            atom_y_gt_0(),
        )))));
        assert_eq!(formula.to_nnf(), BoolFormula::Atom(atom_y_gt_0()));
    }

    #[test]
    fn top_and_bottom() {
        let mut valuation = |_: VarId| Rational::zero();
        assert_eq!(BoolFormula::top().checked_eval(&mut valuation), Some(true));
        assert_eq!(
            BoolFormula::bottom().checked_eval(&mut valuation),
            Some(false)
        );
        assert_eq!(BoolFormula::top().to_dnf(), vec![Vec::<Atom>::new()]);
        assert!(BoolFormula::bottom().to_dnf().is_empty());
    }

    #[test]
    fn display_is_readable() {
        let formula = BoolFormula::And(vec![
            BoolFormula::Atom(atom_x_ge_0()),
            BoolFormula::Atom(atom_y_gt_0()),
        ]);
        let text = formula.display_with(&mut |v: VarId| {
            if v == x() {
                "x".to_string()
            } else {
                "y".to_string()
            }
        });
        assert_eq!(text, "(x >= 0) && (y > 0)");
    }
}
