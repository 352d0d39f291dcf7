//! Monomials: products of program variables raised to non-negative powers.

use std::cmp::Ordering;
use std::fmt;

use polyinv_arith::Rational;

/// An opaque identifier for a program variable.
///
/// Variable names are owned by the language front-end; polynomial code only
/// needs a stable, cheap identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(usize);

impl VarId {
    /// Creates a variable id from a raw index.
    pub fn new(index: usize) -> Self {
        VarId(index)
    }

    /// The raw index of the variable.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A monomial `∏ vᵢ^eᵢ`, stored as a sorted list of `(variable, exponent)`
/// pairs with strictly positive exponents. The empty monomial is the
/// constant `1`.
///
/// # Example
///
/// ```
/// use polyinv_poly::{Monomial, VarId};
///
/// let x = VarId::new(0);
/// let y = VarId::new(1);
/// let m = Monomial::from_powers(&[(x, 2), (y, 1)]);
/// assert_eq!(m.degree(), 3);
/// assert_eq!(m.exponent(x), 2);
/// assert_eq!(m.exponent(VarId::new(7)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Monomial {
    /// Sorted by variable id; exponents are strictly positive.
    powers: Vec<(VarId, u32)>,
}

impl Monomial {
    /// The constant monomial `1`.
    pub fn one() -> Self {
        Monomial { powers: Vec::new() }
    }

    /// The monomial consisting of a single variable.
    pub fn variable(var: VarId) -> Self {
        Monomial {
            powers: vec![(var, 1)],
        }
    }

    /// Builds a monomial from `(variable, exponent)` pairs; zero exponents
    /// are dropped and duplicate variables are combined.
    pub fn from_powers(powers: &[(VarId, u32)]) -> Self {
        let mut sorted: Vec<(VarId, u32)> = Vec::with_capacity(powers.len());
        for &(var, exp) in powers {
            if exp == 0 {
                continue;
            }
            match sorted.binary_search_by_key(&var, |&(v, _)| v) {
                Ok(pos) => sorted[pos].1 += exp,
                Err(pos) => sorted.insert(pos, (var, exp)),
            }
        }
        Monomial { powers: sorted }
    }

    /// Returns `true` if this is the constant monomial `1`.
    pub fn is_one(&self) -> bool {
        self.powers.is_empty()
    }

    /// The total degree of the monomial.
    pub fn degree(&self) -> u32 {
        self.powers.iter().map(|&(_, e)| e).sum()
    }

    /// The exponent of `var` in this monomial (zero if absent).
    pub fn exponent(&self, var: VarId) -> u32 {
        self.powers
            .binary_search_by_key(&var, |&(v, _)| v)
            .map(|pos| self.powers[pos].1)
            .unwrap_or(0)
    }

    /// Iterates over the `(variable, exponent)` pairs with positive exponent.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, u32)> + '_ {
        self.powers.iter().copied()
    }

    /// The set of variables occurring in the monomial.
    pub fn variables(&self) -> impl Iterator<Item = VarId> + '_ {
        self.powers.iter().map(|&(v, _)| v)
    }

    /// The product of two monomials.
    pub fn mul(&self, other: &Monomial) -> Monomial {
        let mut result = Vec::with_capacity(self.powers.len() + other.powers.len());
        let mut i = 0;
        let mut j = 0;
        while i < self.powers.len() && j < other.powers.len() {
            let (va, ea) = self.powers[i];
            let (vb, eb) = other.powers[j];
            match va.cmp(&vb) {
                Ordering::Less => {
                    result.push((va, ea));
                    i += 1;
                }
                Ordering::Greater => {
                    result.push((vb, eb));
                    j += 1;
                }
                Ordering::Equal => {
                    result.push((va, ea + eb));
                    i += 1;
                    j += 1;
                }
            }
        }
        result.extend_from_slice(&self.powers[i..]);
        result.extend_from_slice(&other.powers[j..]);
        Monomial { powers: result }
    }

    /// Evaluates the monomial at a valuation, returning `None` on `i128`
    /// rational overflow (the interpreter's overflow-safe path).
    pub fn checked_eval<F>(&self, mut valuation: F) -> Option<Rational>
    where
        F: FnMut(VarId) -> Rational,
    {
        let mut result = Rational::one();
        for &(var, exp) in &self.powers {
            let power = valuation(var).checked_pow(exp).ok()?;
            result = result.checked_mul(&power).ok()?;
        }
        Some(result)
    }

    /// Renders the monomial using a variable-name resolver.
    pub fn display_with<F>(&self, mut name: F) -> String
    where
        F: FnMut(VarId) -> String,
    {
        if self.is_one() {
            return "1".to_string();
        }
        let mut parts = Vec::new();
        for &(var, exp) in &self.powers {
            if exp == 1 {
                parts.push(name(var));
            } else {
                parts.push(format!("{}^{}", name(var), exp));
            }
        }
        parts.join("*")
    }

    /// Enumerates all monomials of total degree at most `max_degree` over the
    /// given variables, in a deterministic (graded-lexicographic) order.
    ///
    /// This is the basis `M_d` used for the invariant templates (Step 1) and
    /// the basis `M_ϒ` used for the Putinar multipliers (Step 3).
    pub fn all_up_to_degree(vars: &[VarId], max_degree: u32) -> Vec<Monomial> {
        let mut result = Vec::new();
        let mut current: Vec<(VarId, u32)> = Vec::new();
        fn recurse(
            vars: &[VarId],
            index: usize,
            remaining: u32,
            current: &mut Vec<(VarId, u32)>,
            out: &mut Vec<Monomial>,
        ) {
            if index == vars.len() {
                out.push(Monomial::from_powers(current));
                return;
            }
            for exp in 0..=remaining {
                if exp > 0 {
                    current.push((vars[index], exp));
                }
                recurse(vars, index + 1, remaining - exp, current, out);
                if exp > 0 {
                    current.pop();
                }
            }
        }
        recurse(vars, 0, max_degree, &mut current, &mut result);
        // Sort by (degree, powers) for a stable, readable order.
        result.sort_by(|a, b| {
            a.degree()
                .cmp(&b.degree())
                .then_with(|| a.powers.cmp(&b.powers))
        });
        result.dedup();
        result
    }
}

impl PartialOrd for Monomial {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Monomial {
    /// The tie-break of the graded order between monomials of equal degree:
    /// the exponent vectors compared lexicographically.
    pub(crate) fn lex_cmp(&self, other: &Self) -> Ordering {
        self.powers.cmp(&other.powers)
    }
}

impl Ord for Monomial {
    /// Graded lexicographic order: compare total degree first, then the
    /// exponent vectors.
    fn cmp(&self, other: &Self) -> Ordering {
        self.degree()
            .cmp(&other.degree())
            .then_with(|| self.lex_cmp(other))
    }
}

impl fmt::Display for Monomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(|v| v.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::new(i)
    }

    #[test]
    fn construction_drops_zero_exponents() {
        let m = Monomial::from_powers(&[(v(0), 0), (v(1), 2)]);
        assert_eq!(m.exponent(v(0)), 0);
        assert_eq!(m.exponent(v(1)), 2);
        assert_eq!(m.degree(), 2);
    }

    #[test]
    fn construction_merges_duplicates() {
        let m = Monomial::from_powers(&[(v(1), 1), (v(0), 2), (v(1), 3)]);
        assert_eq!(m.exponent(v(1)), 4);
        assert_eq!(m.exponent(v(0)), 2);
        assert_eq!(m.degree(), 6);
    }

    #[test]
    fn multiplication_merges_exponents() {
        let a = Monomial::from_powers(&[(v(0), 1), (v(2), 2)]);
        let b = Monomial::from_powers(&[(v(1), 1), (v(2), 1)]);
        let product = a.mul(&b);
        assert_eq!(product.exponent(v(0)), 1);
        assert_eq!(product.exponent(v(1)), 1);
        assert_eq!(product.exponent(v(2)), 3);
        assert_eq!(a.mul(&Monomial::one()), a);
    }

    #[test]
    fn evaluation() {
        let m = Monomial::from_powers(&[(v(0), 2), (v(1), 1)]);
        let value = m.checked_eval(|var| {
            if var == v(0) {
                Rational::from_int(3)
            } else {
                Rational::from_int(-2)
            }
        });
        assert_eq!(value, Some(Rational::from_int(-18)));
    }

    #[test]
    fn monomial_basis_count_matches_binomial() {
        // Number of monomials of degree <= d in k variables is C(k+d, d).
        let vars = [v(0), v(1), v(2)];
        let basis = Monomial::all_up_to_degree(&vars, 2);
        assert_eq!(basis.len(), 10); // C(5,2)
        let basis3 = Monomial::all_up_to_degree(&vars, 3);
        assert_eq!(basis3.len(), 20); // C(6,3)
                                      // The basis starts with the constant monomial.
        assert!(basis[0].is_one());
        // All entries are distinct and within degree bound.
        for m in &basis3 {
            assert!(m.degree() <= 3);
        }
    }

    #[test]
    fn ordering_is_graded() {
        let low = Monomial::variable(v(5));
        let high = Monomial::from_powers(&[(v(0), 2)]);
        assert!(low < high);
    }

    #[test]
    fn display_uses_resolver() {
        let m = Monomial::from_powers(&[(v(0), 2), (v(1), 1)]);
        let text = m.display_with(|var| if var == v(0) { "n".into() } else { "i".into() });
        assert_eq!(text, "n^2*i");
        assert_eq!(Monomial::one().to_string(), "1");
    }
}
