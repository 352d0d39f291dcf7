//! Affine and quadratic expressions over *unknowns*: the coefficients of
//! template polynomials.
//!
//! The paper's algorithms introduce several families of unknown real
//! variables: the template coefficients `s_{ℓ,i,j}` (Step 1), the multiplier
//! coefficients `t_{i,j}` and the positivity witnesses `ε` (Step 3), and the
//! Cholesky entries `l_{i,j}` of the sum-of-squares encoding (Section 3.1).
//! During constraint generation we manipulate polynomials *in the program
//! variables* ([`IntTemplate`](crate::IntTemplate)) whose coefficients are
//! affine ([`LinExpr`]) expressions *in those unknowns*; products of two
//! templates have quadratic ([`QuadExpr`]) coefficients. Matching
//! coefficients of the Putinar identity `g = ε + h₀ + Σ hᵢ·gᵢ` then directly
//! yields the quadratic constraints over the unknowns that form the QCLP.

use std::fmt;
use std::ops::{Add, Neg, Sub};

use polyinv_arith::{Rational, RationalError};

const OVERFLOW: &str = "rational arithmetic overflow";

/// Adds `coeff` at `key` of a key-sorted term list with checked arithmetic,
/// dropping an entry that cancels to zero. `Overflow` leaves the list
/// unchanged. Every term list in this module merges through here.
fn merge_sorted<K: Ord + Copy>(
    terms: &mut Vec<(K, Rational)>,
    key: K,
    coeff: Rational,
) -> Result<(), RationalError> {
    if coeff.is_zero() {
        return Ok(());
    }
    match terms.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(pos) => {
            let sum = terms[pos].1.checked_add(&coeff)?;
            if sum.is_zero() {
                terms.remove(pos);
            } else {
                terms[pos].1 = sum;
            }
        }
        Err(pos) => terms.insert(pos, (key, coeff)),
    }
    Ok(())
}

/// An opaque identifier for an unknown (template coefficient, multiplier
/// coefficient, Cholesky entry or positivity witness).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnknownId(usize);

impl UnknownId {
    /// Creates an unknown id from a raw index.
    pub fn new(index: usize) -> Self {
        UnknownId(index)
    }

    /// The raw index of the unknown.
    pub fn index(&self) -> usize {
        self.0
    }
}

impl fmt::Display for UnknownId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// An affine expression `c + Σ aᵢ·uᵢ` over unknowns `uᵢ`.
///
/// # Example
///
/// ```
/// use polyinv_poly::{LinExpr, UnknownId};
/// use polyinv_arith::Rational;
///
/// let u = UnknownId::new(0);
/// let e = LinExpr::unknown(u).scale(Rational::from_int(2)) + LinExpr::constant(Rational::one());
/// assert_eq!(e.eval(|_| 3.0), 7.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinExpr {
    constant: Rational,
    /// Sorted by unknown id, non-zero coefficients only.
    terms: Vec<(UnknownId, Rational)>,
}

impl LinExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        LinExpr::default()
    }

    /// A constant expression.
    pub fn constant(value: Rational) -> Self {
        LinExpr {
            constant: value,
            terms: Vec::new(),
        }
    }

    /// The expression consisting of a single unknown with coefficient one.
    pub fn unknown(id: UnknownId) -> Self {
        LinExpr {
            constant: Rational::zero(),
            terms: vec![(id, Rational::one())],
        }
    }

    /// Returns `true` if the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.constant.is_zero() && self.terms.is_empty()
    }

    /// Returns `true` if the expression has no unknowns.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// The constant part of the expression.
    pub fn constant_part(&self) -> Rational {
        self.constant
    }

    /// The linear terms `(unknown, coefficient)`, sorted by unknown.
    pub fn terms(&self) -> &[(UnknownId, Rational)] {
        &self.terms
    }

    fn add_term(&mut self, id: UnknownId, coeff: Rational) -> Result<(), RationalError> {
        merge_sorted(&mut self.terms, id, coeff)
    }

    /// Adds another expression in place (no allocation when the unknown
    /// sets already overlap).
    pub fn add_expr(&mut self, other: &LinExpr) {
        self.constant += other.constant;
        for &(u, c) in &other.terms {
            self.add_term(u, c).expect(OVERFLOW);
        }
    }

    /// Adds `factor · other` in place, or `Overflow` when a coefficient
    /// leaves `i128` (the expression is then unspecified).
    pub fn add_scaled(&mut self, other: &LinExpr, factor: Rational) -> Result<(), RationalError> {
        if factor.is_zero() {
            return Ok(());
        }
        self.constant = self
            .constant
            .checked_add(&other.constant.checked_mul(&factor)?)?;
        for &(u, c) in &other.terms {
            self.add_term(u, c.checked_mul(&factor)?)?;
        }
        Ok(())
    }

    /// Multiplies the expression by a rational constant.
    ///
    /// # Panics
    ///
    /// Panics on overflow; [`LinExpr::checked_scale`] is the fallible form.
    pub fn scale(&self, factor: Rational) -> LinExpr {
        self.checked_scale(factor).expect(OVERFLOW)
    }

    /// Multiplies the expression by a rational constant, or `Overflow` when
    /// a coefficient leaves `i128`.
    pub fn checked_scale(&self, factor: Rational) -> Result<LinExpr, RationalError> {
        if factor.is_zero() {
            return Ok(LinExpr::zero());
        }
        Ok(LinExpr {
            constant: self.constant.checked_mul(&factor)?,
            terms: self
                .terms
                .iter()
                .map(|&(u, c)| Ok((u, c.checked_mul(&factor)?)))
                .collect::<Result<_, RationalError>>()?,
        })
    }

    /// Multiplies two affine expressions, producing a quadratic expression,
    /// or `Overflow` when a coefficient leaves `i128`.
    pub fn mul(&self, other: &LinExpr) -> Result<QuadExpr, RationalError> {
        let mut result = QuadExpr::zero();
        result.add_product(self, other)?;
        Ok(result)
    }

    /// Evaluates the expression under an `f64` assignment of the unknowns.
    pub fn eval<F>(&self, mut assignment: F) -> f64
    where
        F: FnMut(UnknownId) -> f64,
    {
        let mut total = self.constant.to_f64();
        for &(u, c) in &self.terms {
            total += c.to_f64() * assignment(u);
        }
        total
    }

    /// Evaluates the expression under an exact rational assignment.
    pub fn eval_rational<F>(&self, mut assignment: F) -> Rational
    where
        F: FnMut(UnknownId) -> Rational,
    {
        let mut total = self.constant;
        for &(u, c) in &self.terms {
            total += c * assignment(u);
        }
        total
    }

    /// Renders the expression with an unknown-name resolver.
    pub fn display_with<F>(&self, mut name: F) -> String
    where
        F: FnMut(UnknownId) -> String,
    {
        let mut parts = Vec::new();
        if !self.constant.is_zero() || self.terms.is_empty() {
            parts.push(self.constant.to_string());
        }
        for &(u, c) in &self.terms {
            if c.is_one() {
                parts.push(name(u));
            } else {
                parts.push(format!("{}*{}", c, name(u)));
            }
        }
        parts.join(" + ")
    }
}

impl fmt::Display for LinExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(|u| u.to_string()))
    }
}

impl Add for LinExpr {
    type Output = LinExpr;
    fn add(mut self, rhs: LinExpr) -> LinExpr {
        self.constant += rhs.constant;
        for (u, c) in rhs.terms {
            self.add_term(u, c).expect(OVERFLOW);
        }
        self
    }
}

impl Sub for LinExpr {
    type Output = LinExpr;
    fn sub(self, rhs: LinExpr) -> LinExpr {
        self + (-rhs)
    }
}

impl Neg for LinExpr {
    type Output = LinExpr;
    fn neg(self) -> LinExpr {
        LinExpr {
            constant: -self.constant,
            terms: self.terms.into_iter().map(|(u, c)| (u, -c)).collect(),
        }
    }
}

/// A quadratic expression `c + Σ aᵢ·uᵢ + Σ bᵢⱼ·uᵢ·uⱼ` over unknowns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct QuadExpr {
    constant: Rational,
    /// Sorted by unknown id.
    linear: Vec<(UnknownId, Rational)>,
    /// Sorted by the (ordered) pair of unknown ids; the pair always satisfies
    /// `first <= second`.
    quadratic: Vec<((UnknownId, UnknownId), Rational)>,
}

impl QuadExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        QuadExpr::default()
    }

    /// A constant expression.
    pub fn constant(value: Rational) -> Self {
        QuadExpr {
            constant: value,
            linear: Vec::new(),
            quadratic: Vec::new(),
        }
    }

    /// Returns `true` if the expression is identically zero.
    pub fn is_zero(&self) -> bool {
        self.constant.is_zero() && self.linear.is_empty() && self.quadratic.is_empty()
    }

    /// The constant part.
    pub fn constant_part(&self) -> Rational {
        self.constant
    }

    /// The linear terms `(unknown, coefficient)`.
    pub fn linear_terms(&self) -> &[(UnknownId, Rational)] {
        &self.linear
    }

    /// The quadratic terms `((unknown, unknown), coefficient)` with ordered
    /// pairs.
    pub fn quadratic_terms(&self) -> &[((UnknownId, UnknownId), Rational)] {
        &self.quadratic
    }

    /// All unknowns referenced by the expression (unsorted, may repeat).
    pub fn unknowns(&self) -> impl Iterator<Item = UnknownId> + '_ {
        self.linear
            .iter()
            .map(|&(u, _)| u)
            .chain(self.quadratic.iter().flat_map(|&((a, b), _)| [a, b]))
    }

    /// Adds `coeff · u` to the expression, or `Overflow` (leaving the
    /// expression unchanged) when the merged coefficient leaves `i128`.
    pub fn add_linear(&mut self, u: UnknownId, coeff: Rational) -> Result<(), RationalError> {
        merge_sorted(&mut self.linear, u, coeff)
    }

    /// Adds `coeff · a·b` to the expression, or `Overflow` (leaving the
    /// expression unchanged) when the merged coefficient leaves `i128`.
    pub fn add_quadratic(
        &mut self,
        a: UnknownId,
        b: UnknownId,
        coeff: Rational,
    ) -> Result<(), RationalError> {
        let key = if a <= b { (a, b) } else { (b, a) };
        merge_sorted(&mut self.quadratic, key, coeff)
    }

    /// Adds a constant to the expression, or `Overflow` (leaving the
    /// expression unchanged) when the sum leaves `i128`.
    pub fn add_constant(&mut self, value: Rational) -> Result<(), RationalError> {
        self.constant = self.constant.checked_add(&value)?;
        Ok(())
    }

    /// Adds another expression in place. Unlike `self + other` this neither
    /// consumes nor clones the operands — the merge the hot accumulation
    /// loops of the Putinar translation rely on. `Overflow` when a
    /// coefficient leaves `i128` (the expression is then unspecified).
    pub fn add_expr(&mut self, other: &QuadExpr) -> Result<(), RationalError> {
        self.add_constant(other.constant)?;
        for &(u, c) in &other.linear {
            self.add_linear(u, c)?;
        }
        for &((a, b), c) in &other.quadratic {
            self.add_quadratic(a, b, c)?;
        }
        Ok(())
    }

    /// Adds `factor · other` in place, or `Overflow` when a coefficient
    /// leaves `i128` (the expression is then unspecified).
    pub fn add_scaled(&mut self, other: &QuadExpr, factor: Rational) -> Result<(), RationalError> {
        if factor.is_zero() {
            return Ok(());
        }
        self.add_constant(other.constant.checked_mul(&factor)?)?;
        for &(u, c) in &other.linear {
            self.add_linear(u, c.checked_mul(&factor)?)?;
        }
        for &((a, b), c) in &other.quadratic {
            self.add_quadratic(a, b, c.checked_mul(&factor)?)?;
        }
        Ok(())
    }

    /// Subtracts another expression in place, or `Overflow` when a
    /// coefficient leaves `i128` (the expression is then unspecified).
    pub fn sub_expr(&mut self, other: &QuadExpr) -> Result<(), RationalError> {
        self.add_scaled(other, Rational::from_int(-1))
    }

    /// Adds the product `a · b` of two affine expressions in place, term by
    /// term: the fused form of `self.add_expr(&a.mul(b)?)`, with no
    /// intermediate expression. `Overflow` when a coefficient leaves `i128`
    /// (the expression is then unspecified).
    pub fn add_product(&mut self, a: &LinExpr, b: &LinExpr) -> Result<(), RationalError> {
        let (ca, cb) = (a.constant, b.constant);
        self.add_constant(ca.checked_mul(&cb)?)?;
        if !ca.is_zero() {
            for &(u, c) in &b.terms {
                self.add_linear(u, ca.checked_mul(&c)?)?;
            }
        }
        if !cb.is_zero() {
            for &(u, c) in &a.terms {
                self.add_linear(u, cb.checked_mul(&c)?)?;
            }
        }
        for &(ua, ka) in &a.terms {
            for &(ub, kb) in &b.terms {
                self.add_quadratic(ua, ub, ka.checked_mul(&kb)?)?;
            }
        }
        Ok(())
    }

    /// Adds `by` to every unknown id at or above `from`. Every shifted id
    /// stays above every unshifted one, so the id-sorted term order is kept.
    pub fn shift_unknowns(&mut self, from: usize, by: usize) {
        let shift = |u: &mut UnknownId| {
            if u.0 >= from {
                u.0 += by;
            }
        };
        for (u, _) in &mut self.linear {
            shift(u);
        }
        for ((a, b), _) in &mut self.quadratic {
            shift(a);
            shift(b);
        }
    }

    /// Negates the expression in place (no allocation).
    pub fn negate_in_place(&mut self) {
        self.constant = -self.constant;
        for (_, c) in &mut self.linear {
            *c = -*c;
        }
        for (_, c) in &mut self.quadratic {
            *c = -*c;
        }
    }

    /// Adds an affine expression in place, or `Overflow` when a coefficient
    /// leaves `i128` (the expression is then unspecified).
    pub fn add_lin(&mut self, lin: &LinExpr) -> Result<(), RationalError> {
        self.add_constant(lin.constant)?;
        for &(u, c) in &lin.terms {
            self.add_linear(u, c)?;
        }
        Ok(())
    }

    /// Multiplies the expression by a rational constant.
    pub fn scale(&self, factor: Rational) -> QuadExpr {
        if factor.is_zero() {
            return QuadExpr::zero();
        }
        QuadExpr {
            constant: self.constant * factor,
            linear: self.linear.iter().map(|&(u, c)| (u, c * factor)).collect(),
            quadratic: self
                .quadratic
                .iter()
                .map(|&(k, c)| (k, c * factor))
                .collect(),
        }
    }

    /// Evaluates the expression under an `f64` assignment of the unknowns.
    pub fn eval<F>(&self, mut assignment: F) -> f64
    where
        F: FnMut(UnknownId) -> f64,
    {
        let mut total = self.constant.to_f64();
        for &(u, c) in &self.linear {
            total += c.to_f64() * assignment(u);
        }
        for &((a, b), c) in &self.quadratic {
            total += c.to_f64() * assignment(a) * assignment(b);
        }
        total
    }

    /// Evaluates the expression under an exact rational assignment with
    /// checked arithmetic, returning `None` on `i128` rational overflow. The
    /// terms are summed in order: the constant, the linear terms, then the
    /// quadratic terms, each as `c·(a·b)`.
    pub fn checked_eval_rational<F>(&self, mut assignment: F) -> Option<Rational>
    where
        F: FnMut(UnknownId) -> Rational,
    {
        let mut total = self.constant;
        for &(u, c) in &self.linear {
            let term = c.checked_mul(&assignment(u)).ok()?;
            total = total.checked_add(&term).ok()?;
        }
        for &((a, b), c) in &self.quadratic {
            let product = assignment(a).checked_mul(&assignment(b)).ok()?;
            let term = c.checked_mul(&product).ok()?;
            total = total.checked_add(&term).ok()?;
        }
        Some(total)
    }

    /// Renders the expression with an unknown-name resolver.
    pub fn display_with<F>(&self, mut name: F) -> String
    where
        F: FnMut(UnknownId) -> String,
    {
        let mut parts = Vec::new();
        if !self.constant.is_zero() {
            parts.push(self.constant.to_string());
        }
        for &(u, c) in &self.linear {
            if c.is_one() {
                parts.push(name(u));
            } else {
                parts.push(format!("{}*{}", c, name(u)));
            }
        }
        for &((a, b), c) in &self.quadratic {
            let pair = if a == b {
                format!("{}^2", name(a))
            } else {
                format!("{}*{}", name(a), name(b))
            };
            if c.is_one() {
                parts.push(pair);
            } else {
                parts.push(format!("{c}*{pair}"));
            }
        }
        if parts.is_empty() {
            "0".to_string()
        } else {
            parts.join(" + ")
        }
    }
}

impl fmt::Display for QuadExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_with(|u| u.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interned::{IntPoly, IntTemplate, QuadAccumulator};
    use crate::monomial::{Monomial, VarId};
    use crate::polynomial::Polynomial;
    use crate::table::{MonoId, MonomialTable};

    fn u(i: usize) -> UnknownId {
        UnknownId::new(i)
    }
    fn v(i: usize) -> VarId {
        VarId::new(i)
    }
    fn int(x: i64) -> Rational {
        Rational::from_int(x)
    }

    #[test]
    fn linexpr_arithmetic() {
        let a = LinExpr::unknown(u(0)).scale(int(2)) + LinExpr::constant(int(3));
        let b = LinExpr::unknown(u(1)) - LinExpr::constant(int(1));
        let sum = a.clone() + b.clone();
        assert_eq!(sum.constant_part(), int(2));
        assert_eq!(sum.terms().len(), 2);
        let cancelled = a.clone() - a.clone();
        assert!(cancelled.is_zero());
        assert_eq!(b.eval(|_| 4.0), 3.0);
    }

    #[test]
    fn linexpr_product_is_quadratic() {
        // (2u0 + 3)(u1 - 1) = 2 u0 u1 - 2 u0 + 3 u1 - 3
        let a = LinExpr::unknown(u(0)).scale(int(2)) + LinExpr::constant(int(3));
        let b = LinExpr::unknown(u(1)) - LinExpr::constant(int(1));
        let q = a.mul(&b).unwrap();
        assert_eq!(q.constant_part(), int(-3));
        assert_eq!(q.linear_terms(), &[(u(0), int(-2)), (u(1), int(3))]);
        assert_eq!(q.quadratic_terms(), &[((u(0), u(1)), int(2))]);
        // Evaluation agrees with direct computation.
        let value = q.eval(|x| if x == u(0) { 2.0 } else { 5.0 });
        assert_eq!(value, (2.0 * 2.0 + 3.0) * (5.0 - 1.0));
    }

    #[test]
    fn quadexpr_square_terms_merge() {
        let a = LinExpr::unknown(u(0)) + LinExpr::unknown(u(1));
        let square = a.mul(&a).unwrap();
        // (u0+u1)^2 = u0^2 + 2 u0 u1 + u1^2
        assert_eq!(square.quadratic_terms().len(), 3);
        assert_eq!(
            square
                .quadratic_terms()
                .iter()
                .find(|&&(k, _)| k == (u(0), u(1)))
                .unwrap()
                .1,
            int(2)
        );
    }

    #[test]
    fn quadratic_poly_subtraction_cancels() {
        let mut q = LinExpr::unknown(u(0))
            .mul(&(LinExpr::unknown(u(1)) + LinExpr::constant(int(2))))
            .unwrap();
        let copy = q.clone();
        q.sub_expr(&copy).unwrap();
        assert!(q.is_zero());
    }

    #[test]
    fn fused_products_match_the_two_step_product() {
        let a = LinExpr::unknown(u(0)).scale(int(2)) + LinExpr::constant(int(3));
        let b = LinExpr::unknown(u(1)) + LinExpr::unknown(u(0)) - LinExpr::constant(int(1));
        let mut fused = QuadExpr::constant(int(5));
        fused.add_linear(u(1), int(-3)).unwrap();
        let mut two_step = fused.clone();
        fused.add_product(&a, &b).unwrap();
        two_step.add_expr(&a.mul(&b).unwrap()).unwrap();
        assert_eq!(fused, two_step);
    }

    /// `2^k` as a rational.
    fn pow2(k: u32) -> Rational {
        Rational::new(1i128 << k, 1)
    }

    #[test]
    fn accumulation_overflow_is_an_error_and_leaves_the_term() {
        // 2¹²⁶ fits in i128; 2¹²⁷ does not.
        let big = pow2(126);
        let mut q = QuadExpr::zero();
        q.add_linear(u(0), big).unwrap();
        q.add_quadratic(u(1), u(0), big).unwrap();
        q.add_constant(big).unwrap();
        let copy = q.clone();
        assert_eq!(q.add_linear(u(0), big), Err(RationalError::Overflow));
        assert_eq!(
            q.add_quadratic(u(0), u(1), big),
            Err(RationalError::Overflow)
        );
        assert_eq!(q.add_constant(big), Err(RationalError::Overflow));
        assert_eq!(q, copy, "a failed merge leaves the expression unchanged");
        assert_eq!(q.add_expr(&copy), Err(RationalError::Overflow));
        assert_eq!(
            QuadExpr::zero().add_scaled(&copy, int(2)),
            Err(RationalError::Overflow)
        );
        assert_eq!(
            QuadExpr::constant(-big).add_lin(&LinExpr::constant(-big)),
            Err(RationalError::Overflow)
        );
        // Subtracting cancels exactly instead.
        let mut cancelled = copy.clone();
        cancelled.sub_expr(&copy).unwrap();
        assert!(cancelled.is_zero());
    }

    #[test]
    fn product_overflow_is_an_error() {
        // (2⁶² u0 + 2⁶²)² has coefficients 2¹²⁴ and 2¹²⁵; (2⁶⁴ u0)² has 2¹²⁸.
        let fits = LinExpr::unknown(u(0)).scale(pow2(62)) + LinExpr::constant(pow2(62));
        assert!(fits.mul(&fits).is_ok());
        let wide = LinExpr::unknown(u(0)).scale(pow2(64));
        assert_eq!(wide.mul(&wide), Err(RationalError::Overflow));
        // Each fused product fits; their merge does not.
        let half = LinExpr::unknown(u(0)).scale(pow2(126));
        let one = LinExpr::constant(int(1));
        let mut acc = QuadExpr::zero();
        acc.add_product(&half, &one).unwrap();
        assert_eq!(acc.add_product(&half, &one), Err(RationalError::Overflow));
    }

    #[test]
    fn shifting_unknowns_keeps_the_term_order() {
        // u1 stays below the shift point; u2 and u3 move up by 10.
        let mut q = QuadExpr::zero();
        q.add_linear(u(1), int(1)).unwrap();
        q.add_linear(u(3), int(2)).unwrap();
        q.add_quadratic(u(1), u(2), int(3)).unwrap();
        q.add_quadratic(u(2), u(3), int(4)).unwrap();
        q.shift_unknowns(2, 10);
        assert_eq!(q.linear_terms(), &[(u(1), int(1)), (u(13), int(2))]);
        assert_eq!(
            q.quadratic_terms(),
            &[((u(1), u(12)), int(3)), ((u(12), u(13)), int(4))]
        );
    }

    #[test]
    fn display_is_informative() {
        let name = |x: UnknownId| {
            if x == u(0) {
                "s".to_string()
            } else {
                "t".to_string()
            }
        };
        let a = LinExpr::unknown(u(0)).scale(int(2)) + LinExpr::constant(int(3));
        assert_eq!(a.display_with(name), "3 + 2*s");
        let q = a.mul(&LinExpr::unknown(u(1))).unwrap();
        assert_eq!(q.display_with(name), "3*t + 2*s*t");
        assert_eq!(
            LinExpr::unknown(u(0))
                .mul(&LinExpr::unknown(u(0)))
                .unwrap()
                .display_with(name),
            "s^2"
        );
    }

    #[test]
    fn template_substitution_expands_monomials() {
        // template: s * x^2; substitute x := y + 1.
        let mut table = MonomialTable::new();
        let mut template = IntTemplate::zero();
        template.add_term(
            table.intern(Monomial::from_powers(&[(v(0), 2)])),
            LinExpr::unknown(u(0)),
        );
        let replacement = IntPoly::from_polynomial(
            &(Polynomial::variable(v(1)) + Polynomial::constant(int(1))),
            &mut table,
        );
        let substituted = template
            .substitute(|var| (var == v(0)).then_some(&replacement), &mut table)
            .unwrap();
        // Result: s*y^2 + 2s*y + s.
        assert_eq!(substituted.num_terms(), 3);
        let y = table.var(v(1));
        let (_, coeff_y) = substituted.terms().iter().find(|(m, _)| *m == y).unwrap();
        assert_eq!(coeff_y.terms(), &[(u(0), int(2))]);
    }

    #[test]
    fn template_product_matches_numeric_evaluation() {
        // h = t0 + t1*x, g = s0 + s1*x. The accumulated product's quadratic
        // coefficients must agree with the numeric product of the
        // instantiated polynomials for arbitrary assignments.
        let mut table = MonomialTable::new();
        let x = table.var(v(0));
        let linear = |c0: usize, c1: usize| {
            let mut template = IntTemplate::zero();
            template.add_term(MonoId::ONE, LinExpr::unknown(u(c0)));
            template.add_term(x, LinExpr::unknown(u(c1)));
            template
        };
        let (h, g) = (linear(0, 1), linear(2, 3));
        let mut product = QuadAccumulator::new();
        product.add_mul_template(&h, &g, &mut table).unwrap();
        let exact = |x: UnknownId| int(x.index() as i64 + 1);
        let direct = &h.instantiate(&table, exact) * &g.instantiate(&table, exact);
        let terms = product.into_terms();
        assert_eq!(terms.len(), 3);
        for (monomial, coeff) in terms {
            let value = coeff.eval(|x| (x.index() + 1) as f64);
            let expected = direct.coefficient(table.monomial(monomial)).to_f64();
            assert!((expected - value).abs() < 1e-9);
        }
    }

    #[test]
    fn instantiation_produces_concrete_polynomial() {
        let mut table = MonomialTable::new();
        let x = table.var(v(0));
        let mut template = IntTemplate::zero();
        template.add_term(x, LinExpr::unknown(u(0)));
        template.add_term(MonoId::ONE, LinExpr::constant(int(1)));
        let poly = template.instantiate(&table, |_| int(7));
        assert_eq!(poly.coefficient(&Monomial::variable(v(0))), int(7));
        assert_eq!(poly.coefficient(&Monomial::one()), int(1));
    }
}
