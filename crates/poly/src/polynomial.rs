//! Sparse multivariate polynomials with exact rational coefficients.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

use polyinv_arith::Rational;

use crate::monomial::{Monomial, VarId};

/// A sparse multivariate polynomial `Σ cᵢ·mᵢ` over [`Rational`]
/// coefficients, keyed by [`Monomial`] in graded-lexicographic order.
///
/// Zero coefficients are never stored, so structural equality coincides with
/// mathematical equality.
///
/// # Example
///
/// ```
/// use polyinv_poly::{Polynomial, VarId};
/// use polyinv_arith::Rational;
///
/// let x = VarId::new(0);
/// // p(x) = x^2 - 1
/// let p = Polynomial::variable(x).pow(2) - Polynomial::constant(Rational::one());
/// let at_three = p.checked_eval(|_| Rational::from_int(3));
/// assert_eq!(at_three, Some(Rational::from_int(8)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Polynomial {
    terms: BTreeMap<Monomial, Rational>,
}

impl Polynomial {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Polynomial {
            terms: BTreeMap::new(),
        }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Polynomial::constant(Rational::one())
    }

    /// A constant polynomial.
    pub fn constant(value: Rational) -> Self {
        let mut terms = BTreeMap::new();
        if !value.is_zero() {
            terms.insert(Monomial::one(), value);
        }
        Polynomial { terms }
    }

    /// The polynomial consisting of a single variable.
    pub fn variable(var: VarId) -> Self {
        let mut terms = BTreeMap::new();
        terms.insert(Monomial::variable(var), Rational::one());
        Polynomial { terms }
    }

    /// A polynomial consisting of a single term `coefficient · monomial`.
    pub fn term(coefficient: Rational, monomial: Monomial) -> Self {
        let mut terms = BTreeMap::new();
        if !coefficient.is_zero() {
            terms.insert(monomial, coefficient);
        }
        Polynomial { terms }
    }

    /// Builds a polynomial from `(coefficient, monomial)` pairs.
    pub fn from_terms<I>(terms: I) -> Self
    where
        I: IntoIterator<Item = (Rational, Monomial)>,
    {
        let mut poly = Polynomial::zero();
        for (coeff, mono) in terms {
            poly.add_term(coeff, mono);
        }
        poly
    }

    /// Returns `true` if this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// Returns `true` if the polynomial is a constant (possibly zero).
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
            || (self.terms.len() == 1 && self.terms.contains_key(&Monomial::one()))
    }

    /// Returns the constant value if the polynomial is constant.
    pub fn as_constant(&self) -> Option<Rational> {
        if self.terms.is_empty() {
            return Some(Rational::zero());
        }
        if self.terms.len() == 1 {
            if let Some(value) = self.terms.get(&Monomial::one()) {
                return Some(*value);
            }
        }
        None
    }

    /// The total degree of the polynomial (zero for the zero polynomial).
    pub fn degree(&self) -> u32 {
        self.terms.keys().map(Monomial::degree).max().unwrap_or(0)
    }

    /// The number of (non-zero) terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The coefficient of a monomial (zero if absent).
    pub fn coefficient(&self, monomial: &Monomial) -> Rational {
        self.terms.get(monomial).copied().unwrap_or_default()
    }

    /// Iterates over the `(monomial, coefficient)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Monomial, &Rational)> {
        self.terms.iter()
    }

    /// The set of variables occurring in the polynomial, deduplicated and
    /// sorted.
    pub fn variables(&self) -> Vec<VarId> {
        let mut vars: Vec<VarId> = self
            .terms
            .keys()
            .flat_map(|m| m.variables().collect::<Vec<_>>())
            .collect();
        vars.sort();
        vars.dedup();
        vars
    }

    /// Adds `coefficient · monomial` to the polynomial.
    pub fn add_term(&mut self, coefficient: Rational, monomial: Monomial) {
        if coefficient.is_zero() {
            return;
        }
        let entry = self.terms.entry(monomial.clone()).or_default();
        *entry += coefficient;
        if entry.is_zero() {
            self.terms.remove(&monomial);
        }
    }

    /// Multiplies the polynomial by a scalar.
    pub fn scale(&self, factor: Rational) -> Polynomial {
        if factor.is_zero() {
            return Polynomial::zero();
        }
        Polynomial {
            terms: self
                .terms
                .iter()
                .map(|(m, c)| (m.clone(), *c * factor))
                .collect(),
        }
    }

    /// Raises the polynomial to a non-negative integer power.
    pub fn pow(&self, exponent: u32) -> Polynomial {
        let mut result = Polynomial::one();
        for _ in 0..exponent {
            result = &result * self;
        }
        result
    }

    /// Evaluates the polynomial at a rational valuation, returning `None`
    /// on `i128` rational overflow. Programs iterating rational dynamics
    /// (e.g. the reinforcement-learning benchmarks) square their
    /// denominators every loop iteration, so concrete execution must be
    /// able to stop gracefully instead of panicking.
    pub fn checked_eval<F>(&self, mut valuation: F) -> Option<Rational>
    where
        F: FnMut(VarId) -> Rational,
    {
        let mut total = Rational::zero();
        for (monomial, coeff) in &self.terms {
            let value = monomial.checked_eval(&mut valuation)?;
            let term = coeff.checked_mul(&value).ok()?;
            total = total.checked_add(&term).ok()?;
        }
        Some(total)
    }

    /// Substitutes each variable by the polynomial returned by `mapping`
    /// (variables for which `mapping` returns `None` are left untouched).
    ///
    /// This implements composition `p ∘ α` for polynomial update functions
    /// `α`, which is the core symbolic operation of Step 2.
    pub fn substitute<F>(&self, mut mapping: F) -> Polynomial
    where
        F: FnMut(VarId) -> Option<Polynomial>,
    {
        let mut result = Polynomial::zero();
        for (monomial, coeff) in &self.terms {
            let mut term_value = Polynomial::constant(*coeff);
            for (var, exp) in monomial.iter() {
                let replacement = mapping(var).unwrap_or_else(|| Polynomial::variable(var));
                term_value = &term_value * &replacement.pow(exp);
            }
            result += term_value;
        }
        result
    }

    /// Renames variables according to `mapping` (identity where `None`).
    pub fn rename<F>(&self, mut mapping: F) -> Polynomial
    where
        F: FnMut(VarId) -> Option<VarId>,
    {
        self.substitute(|v| mapping(v).map(Polynomial::variable))
    }

    /// Renders the polynomial using a variable-name resolver.
    pub fn display_with<F>(&self, mut name: F) -> String
    where
        F: FnMut(VarId) -> String,
    {
        if self.terms.is_empty() {
            return "0".to_string();
        }
        let mut out = String::new();
        for (index, (monomial, coeff)) in self.terms.iter().enumerate() {
            let coeff_abs = coeff.abs();
            if index == 0 {
                if coeff.is_negative() {
                    out.push('-');
                }
            } else if coeff.is_negative() {
                out.push_str(" - ");
            } else {
                out.push_str(" + ");
            }
            if monomial.is_one() {
                out.push_str(&coeff_abs.to_string());
            } else if coeff_abs.is_one() {
                out.push_str(&monomial.display_with(&mut name));
            } else {
                out.push_str(&format!(
                    "{}*{}",
                    coeff_abs,
                    monomial.display_with(&mut name)
                ));
            }
        }
        out
    }
}

impl fmt::Display for Polynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(|v| v.to_string()))
    }
}

impl Add for Polynomial {
    type Output = Polynomial;
    fn add(mut self, rhs: Polynomial) -> Polynomial {
        for (monomial, coeff) in rhs.terms {
            self.add_term(coeff, monomial);
        }
        self
    }
}

impl Add for &Polynomial {
    type Output = Polynomial;
    fn add(self, rhs: &Polynomial) -> Polynomial {
        self.clone() + rhs.clone()
    }
}

impl AddAssign for Polynomial {
    fn add_assign(&mut self, rhs: Polynomial) {
        for (monomial, coeff) in rhs.terms {
            self.add_term(coeff, monomial);
        }
    }
}

impl Sub for Polynomial {
    type Output = Polynomial;
    fn sub(mut self, rhs: Polynomial) -> Polynomial {
        for (monomial, coeff) in rhs.terms {
            self.add_term(-coeff, monomial);
        }
        self
    }
}

impl Sub for &Polynomial {
    type Output = Polynomial;
    fn sub(self, rhs: &Polynomial) -> Polynomial {
        self.clone() - rhs.clone()
    }
}

impl Neg for Polynomial {
    type Output = Polynomial;
    fn neg(self) -> Polynomial {
        Polynomial {
            terms: self.terms.into_iter().map(|(m, c)| (m, -c)).collect(),
        }
    }
}

impl Neg for &Polynomial {
    type Output = Polynomial;
    fn neg(self) -> Polynomial {
        -self.clone()
    }
}

impl Mul for &Polynomial {
    type Output = Polynomial;
    fn mul(self, rhs: &Polynomial) -> Polynomial {
        let mut result = Polynomial::zero();
        for (ma, ca) in &self.terms {
            for (mb, cb) in &rhs.terms {
                result.add_term(*ca * *cb, ma.mul(mb));
            }
        }
        result
    }
}

impl Mul for Polynomial {
    type Output = Polynomial;
    fn mul(self, rhs: Polynomial) -> Polynomial {
        &self * &rhs
    }
}

impl Mul<Rational> for &Polynomial {
    type Output = Polynomial;
    fn mul(self, rhs: Rational) -> Polynomial {
        self.scale(rhs)
    }
}

impl std::iter::Sum for Polynomial {
    fn sum<I: Iterator<Item = Polynomial>>(iter: I) -> Self {
        iter.fold(Polynomial::zero(), |acc, p| acc + p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x() -> VarId {
        VarId::new(0)
    }
    fn y() -> VarId {
        VarId::new(1)
    }

    fn int(v: i64) -> Rational {
        Rational::from_int(v)
    }

    #[test]
    fn zero_coefficients_are_not_stored() {
        let mut p = Polynomial::variable(x());
        p.add_term(int(-1), Monomial::variable(x()));
        assert!(p.is_zero());
        assert_eq!(p.num_terms(), 0);
    }

    #[test]
    fn arithmetic_identities() {
        let p = Polynomial::variable(x()) + Polynomial::constant(int(2));
        let q = Polynomial::variable(y()) - Polynomial::constant(int(1));
        let sum = &p + &q;
        assert_eq!(sum.coefficient(&Monomial::one()), int(1));
        let product = &p * &q;
        // (x+2)(y-1) = xy - x + 2y - 2
        assert_eq!(
            product.coefficient(&Monomial::from_powers(&[(x(), 1), (y(), 1)])),
            int(1)
        );
        assert_eq!(product.coefficient(&Monomial::variable(x())), int(-1));
        assert_eq!(product.coefficient(&Monomial::variable(y())), int(2));
        assert_eq!(product.coefficient(&Monomial::one()), int(-2));
    }

    #[test]
    fn pow_expands_binomial() {
        let p = (Polynomial::variable(x()) + Polynomial::constant(int(1))).pow(3);
        // (x+1)^3 = x^3 + 3x^2 + 3x + 1
        assert_eq!(p.coefficient(&Monomial::from_powers(&[(x(), 3)])), int(1));
        assert_eq!(p.coefficient(&Monomial::from_powers(&[(x(), 2)])), int(3));
        assert_eq!(p.coefficient(&Monomial::variable(x())), int(3));
        assert_eq!(p.coefficient(&Monomial::one()), int(1));
        assert_eq!(p.degree(), 3);
    }

    #[test]
    fn evaluation_matches_expansion() {
        let p = (Polynomial::variable(x()) - Polynomial::variable(y())).pow(2);
        let value = p.checked_eval(|v| if v == x() { int(5) } else { int(2) });
        assert_eq!(value, Some(int(9)));
    }

    #[test]
    fn substitution_composes() {
        // p = x^2 + y, substitute x := y + 1 -> (y+1)^2 + y = y^2 + 3y + 1
        let p = Polynomial::variable(x()).pow(2) + Polynomial::variable(y());
        let substituted = p.substitute(|v| {
            if v == x() {
                Some(Polynomial::variable(y()) + Polynomial::constant(int(1)))
            } else {
                None
            }
        });
        assert_eq!(
            substituted.coefficient(&Monomial::from_powers(&[(y(), 2)])),
            int(1)
        );
        assert_eq!(substituted.coefficient(&Monomial::variable(y())), int(3));
        assert_eq!(substituted.coefficient(&Monomial::one()), int(1));
    }

    #[test]
    fn rename_swaps_variables() {
        let p = Polynomial::variable(x()) + Polynomial::variable(y()).pow(2);
        let renamed = p.rename(|v| if v == y() { Some(x()) } else { Some(y()) });
        assert_eq!(renamed.coefficient(&Monomial::variable(y())), int(1));
        assert_eq!(
            renamed.coefficient(&Monomial::from_powers(&[(x(), 2)])),
            int(1)
        );
    }

    #[test]
    fn constant_detection() {
        assert!(Polynomial::zero().is_constant());
        assert_eq!(Polynomial::zero().as_constant(), Some(Rational::zero()));
        assert_eq!(Polynomial::constant(int(4)).as_constant(), Some(int(4)));
        assert_eq!(Polynomial::variable(x()).as_constant(), None);
    }

    #[test]
    fn display_is_readable() {
        let p = Polynomial::variable(x()).pow(2).scale(int(-2))
            + Polynomial::variable(y())
            + Polynomial::constant(int(1));
        let text = p.display_with(|v| if v == x() { "a".into() } else { "b".into() });
        assert_eq!(text, "1 + b - 2*a^2");
        assert_eq!(Polynomial::zero().to_string(), "0");
    }

    #[test]
    fn variables_are_collected() {
        let p = Polynomial::variable(x()) * Polynomial::variable(y())
            + Polynomial::variable(VarId::new(4));
        assert_eq!(p.variables(), vec![x(), y(), VarId::new(4)]);
    }
}
