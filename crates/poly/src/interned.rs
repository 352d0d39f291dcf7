//! Interned sparse polynomials: the representation constraint generation
//! runs on.
//!
//! [`IntPoly`] is the interned counterpart of [`Polynomial`] (concrete
//! program expressions), [`IntTemplate`] is the one template representation
//! (Step 1 templates and the Step 2 pair polynomials, with [`LinExpr`]
//! coefficients), and [`QuadAccumulator`] collects template products with
//! [`QuadExpr`] coefficients (Step 3). Term lists are keyed by [`MonoId`]
//! instead of owned [`Monomial`](crate::Monomial) keys and sorted by raw id.
//! All products go through the memoizing [`MonomialTable`], all
//! accumulation is in place (binary-search insert + coefficient merge) — no
//! `BTreeMap` rebuilds, no monomial clones, no whole-coefficient clones per
//! insertion. [`Polynomial`] stays the reference algebra: the property tests
//! compare every interned operation against it.
//!
//! Raw-id order is *not* the graded-lexicographic term order of the public
//! API; conversions back to [`Polynomial`] restore the canonical order, so
//! display strings and downstream consumers are unaffected.

use polyinv_arith::{Rational, RationalError};

use crate::monomial::VarId;
use crate::polynomial::Polynomial;
use crate::symbolic::{LinExpr, QuadExpr, UnknownId};
use crate::table::{FxHashMap, MonoId, MonomialTable};

/// Merges an owned `coefficient` into the sorted term list at `id`, dropping
/// entries that end up zero. Both term-list types in this module funnel
/// through here so the merge semantics cannot diverge.
fn merge_term<C, Z, M>(terms: &mut Vec<(MonoId, C)>, id: MonoId, coefficient: C, is_zero: Z, add: M)
where
    Z: Fn(&C) -> bool,
    M: FnOnce(&mut C, C),
{
    if is_zero(&coefficient) {
        return;
    }
    match terms.binary_search_by_key(&id, |&(m, _)| m) {
        Ok(pos) => {
            add(&mut terms[pos].1, coefficient);
            if is_zero(&terms[pos].1) {
                terms.remove(pos);
            }
        }
        Err(pos) => terms.insert(pos, (id, coefficient)),
    }
}

/// A concrete polynomial with interned monomials: `Σ cᵢ·mᵢ` over
/// [`Rational`] coefficients, keyed by [`MonoId`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntPoly {
    terms: Vec<(MonoId, Rational)>,
}

impl IntPoly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        IntPoly::default()
    }

    /// The polynomial of a single variable.
    pub fn variable(var: VarId, table: &mut MonomialTable) -> Self {
        IntPoly {
            terms: vec![(table.var(var), Rational::one())],
        }
    }

    /// Interns a [`Polynomial`].
    pub fn from_polynomial(poly: &Polynomial, table: &mut MonomialTable) -> Self {
        let mut terms: Vec<(MonoId, Rational)> = poly
            .iter()
            .map(|(m, c)| (table.intern(m.clone()), *c))
            .collect();
        terms.sort_by_key(|&(m, _)| m);
        IntPoly { terms }
    }

    /// Converts back to the `Monomial`-keyed representation.
    pub fn to_polynomial(&self, table: &MonomialTable) -> Polynomial {
        Polynomial::from_terms(
            self.terms
                .iter()
                .map(|&(m, c)| (c, table.monomial(m).clone())),
        )
    }

    /// `true` for the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// The `(monomial, coefficient)` terms in raw-id order.
    pub fn terms(&self) -> &[(MonoId, Rational)] {
        &self.terms
    }

    /// Adds `coefficient · monomial` in place, or `Overflow` (leaving the
    /// polynomial unchanged) when the merged coefficient leaves `i128`.
    pub fn add_term(&mut self, id: MonoId, coefficient: Rational) -> Result<(), RationalError> {
        let mut result = Ok(());
        merge_term(
            &mut self.terms,
            id,
            coefficient,
            Rational::is_zero,
            |entry, c| match entry.checked_add(&c) {
                Ok(sum) => *entry = sum,
                Err(error) => result = Err(error),
            },
        );
        result
    }

    /// The product of two interned polynomials, or `Overflow` when a
    /// coefficient leaves `i128`.
    pub fn mul(
        &self,
        other: &IntPoly,
        table: &mut MonomialTable,
    ) -> Result<IntPoly, RationalError> {
        let mut result = IntPoly::zero();
        for &(ma, ca) in &self.terms {
            for &(mb, cb) in &other.terms {
                result.add_term(table.mul(ma, mb), ca.checked_mul(&cb)?)?;
            }
        }
        Ok(result)
    }

    /// The polynomial raised to a non-negative power, or `Overflow` when a
    /// coefficient leaves `i128`.
    pub fn pow(&self, exponent: u32, table: &mut MonomialTable) -> Result<IntPoly, RationalError> {
        let mut result = IntPoly {
            terms: vec![(MonoId::ONE, Rational::one())],
        };
        for _ in 0..exponent {
            result = result.mul(self, table)?;
        }
        Ok(result)
    }
}

/// Expands one interned monomial under a substitution `v ↦ pᵥ` into a
/// concrete interned polynomial. Variables for which `subst` returns `None`
/// are left untouched. `Overflow` when a coefficient leaves `i128`.
pub fn substitute_monomial<'a, F>(
    id: MonoId,
    mut subst: F,
    table: &mut MonomialTable,
) -> Result<IntPoly, RationalError>
where
    F: FnMut(VarId) -> Option<&'a IntPoly>,
{
    let powers: Vec<(VarId, u32)> = table.monomial(id).iter().collect();
    let mut result = IntPoly {
        terms: vec![(MonoId::ONE, Rational::one())],
    };
    for (var, exp) in powers {
        match subst(var) {
            Some(replacement) => {
                let factor = replacement.pow(exp, table)?;
                result = result.mul(&factor, table)?;
            }
            None => {
                let var_id = table.var(var);
                let mut factor = var_id;
                for _ in 1..exp {
                    factor = table.mul(factor, var_id);
                }
                let mono = IntPoly {
                    terms: vec![(factor, Rational::one())],
                };
                result = result.mul(&mono, table)?;
            }
        }
    }
    Ok(result)
}

/// A template polynomial with interned monomials: coefficients are affine
/// [`LinExpr`]s over the unknowns, keys are [`MonoId`]s. The one template
/// representation: Step 1 templates, Step 2 pair polynomials and the
/// Putinar multipliers of Step 3.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IntTemplate {
    terms: Vec<(MonoId, LinExpr)>,
}

impl IntTemplate {
    /// The zero template.
    pub fn zero() -> Self {
        IntTemplate::default()
    }

    /// Lifts a concrete polynomial (constant coefficients).
    pub fn from_polynomial(poly: &Polynomial, table: &mut MonomialTable) -> Self {
        let mut terms: Vec<(MonoId, LinExpr)> = poly
            .iter()
            .map(|(m, c)| (table.intern(m.clone()), LinExpr::constant(*c)))
            .collect();
        terms.sort_by_key(|&(m, _)| m);
        IntTemplate { terms }
    }

    /// Instantiates the template by assigning rational values to the
    /// unknowns, giving a concrete polynomial in canonical term order.
    ///
    /// # Example
    ///
    /// ```
    /// use polyinv_arith::Rational;
    /// use polyinv_poly::{IntTemplate, LinExpr, MonoId, MonomialTable, UnknownId, VarId};
    ///
    /// let mut table = MonomialTable::new();
    /// let x = table.var(VarId::new(0));
    /// let s = UnknownId::new(0);
    /// // template: s * x + 1
    /// let mut t = IntTemplate::zero();
    /// t.add_term(x, LinExpr::unknown(s));
    /// t.add_term(MonoId::ONE, LinExpr::constant(Rational::one()));
    /// let instantiated = t.instantiate(&table, |_| Rational::from_int(5));
    /// let at_two = instantiated.checked_eval(|_| Rational::from_int(2));
    /// assert_eq!(at_two, Some(Rational::from_int(11)));
    /// ```
    pub fn instantiate<F>(&self, table: &MonomialTable, mut assignment: F) -> Polynomial
    where
        F: FnMut(UnknownId) -> Rational,
    {
        Polynomial::from_terms(self.terms.iter().map(|&(m, ref coeff)| {
            (
                coeff.eval_rational(&mut assignment),
                table.monomial(m).clone(),
            )
        }))
    }

    /// `true` when the template has no terms.
    pub fn is_zero(&self) -> bool {
        self.terms.is_empty()
    }

    /// The number of terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The `(monomial, coefficient)` terms in raw-id order.
    pub fn terms(&self) -> &[(MonoId, LinExpr)] {
        &self.terms
    }

    /// `true` when every coefficient is a rational constant (no unknowns).
    pub fn is_concrete(&self) -> bool {
        self.terms.iter().all(|(_, coeff)| coeff.is_constant())
    }

    /// The program variables occurring in the template, sorted and
    /// deduplicated.
    pub fn variables(&self, table: &MonomialTable) -> Vec<VarId> {
        let mut vars: Vec<VarId> = self
            .terms
            .iter()
            .flat_map(|&(m, _)| table.monomial(m).variables().collect::<Vec<_>>())
            .collect();
        vars.sort();
        vars.dedup();
        vars
    }

    /// Adds `coefficient · monomial` in place (merging into an existing
    /// term without cloning it).
    pub fn add_term(&mut self, id: MonoId, coefficient: LinExpr) {
        merge_term(
            &mut self.terms,
            id,
            coefficient,
            LinExpr::is_zero,
            |entry, c| entry.add_expr(&c),
        );
    }

    /// Adds `factor · coefficient · monomial` in place, or `Overflow` when a
    /// coefficient leaves `i128` (the template is then unspecified).
    pub fn add_scaled_term(
        &mut self,
        id: MonoId,
        coefficient: &LinExpr,
        factor: Rational,
    ) -> Result<(), RationalError> {
        if factor.is_zero() || coefficient.is_zero() {
            return Ok(());
        }
        match self.terms.binary_search_by_key(&id, |&(m, _)| m) {
            Ok(pos) => {
                self.terms[pos].1.add_scaled(coefficient, factor)?;
                if self.terms[pos].1.is_zero() {
                    self.terms.remove(pos);
                }
            }
            Err(pos) => self
                .terms
                .insert(pos, (id, coefficient.checked_scale(factor)?)),
        }
        Ok(())
    }

    /// Substitutes program variables by interned polynomials (identity where
    /// `None`), keeping the symbolic coefficients — `η(ℓ′) ∘ α` of Step 2.
    /// `Overflow` when a coefficient leaves `i128`.
    pub fn substitute<'a, F>(
        &self,
        mut subst: F,
        table: &mut MonomialTable,
    ) -> Result<IntTemplate, RationalError>
    where
        F: FnMut(VarId) -> Option<&'a IntPoly>,
    {
        let mut result = IntTemplate::zero();
        for &(monomial, ref coeff) in &self.terms {
            let expansion = substitute_monomial(monomial, &mut subst, table)?;
            for &(mono, scalar) in expansion.terms() {
                result.add_scaled_term(mono, coeff, scalar)?;
            }
        }
        Ok(result)
    }
}

/// A hash-indexed accumulator for polynomials with quadratic coefficients
/// (sums of template products).
///
/// A sorted term list would cost an `O(n)` shift per fresh monomial; the
/// accumulator instead appends and finds slots through an `FxHashMap`,
/// making every merge amortized `O(1)`. The Putinar translation
/// accumulates each pair's entire right-hand side through one of these and
/// only sorts once at the end (into the canonical graded-lexicographic
/// emission order).
#[derive(Debug, Clone, Default)]
pub struct QuadAccumulator {
    terms: Vec<(MonoId, QuadExpr)>,
    index: FxHashMap<MonoId, usize>,
}

impl QuadAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        QuadAccumulator::default()
    }

    /// The accumulated `(monomial, coefficient)` terms in discovery order
    /// (zero coefficients possible until [`QuadAccumulator::into_terms`]).
    pub fn terms(&self) -> &[(MonoId, QuadExpr)] {
        &self.terms
    }

    /// The accumulated coefficient of a monomial, if the slot exists.
    pub fn get(&self, id: MonoId) -> Option<&QuadExpr> {
        self.index.get(&id).map(|&pos| &self.terms[pos].1)
    }

    /// The coefficient slot of a monomial, created on first use.
    pub fn slot(&mut self, id: MonoId) -> &mut QuadExpr {
        let pos = match self.index.get(&id) {
            Some(&pos) => pos,
            None => {
                self.terms.push((id, QuadExpr::zero()));
                let pos = self.terms.len() - 1;
                self.index.insert(id, pos);
                pos
            }
        };
        &mut self.terms[pos].1
    }

    /// Adds `factor · coefficient · monomial`, or `Overflow` when a
    /// coefficient leaves `i128` (the accumulator is then unspecified).
    pub fn add_scaled_term(
        &mut self,
        id: MonoId,
        coefficient: &QuadExpr,
        factor: Rational,
    ) -> Result<(), RationalError> {
        if factor.is_zero() || coefficient.is_zero() {
            return Ok(());
        }
        self.slot(id).add_scaled(coefficient, factor)
    }

    /// Adds `coefficient · monomial`, or `Overflow` when a coefficient
    /// leaves `i128` (the accumulator is then unspecified).
    pub fn add_term(&mut self, id: MonoId, coefficient: &QuadExpr) -> Result<(), RationalError> {
        if coefficient.is_zero() {
            return Ok(());
        }
        self.slot(id).add_expr(coefficient)
    }

    /// Accumulates the product of two templates (`hᵢ·gᵢ`), each coefficient
    /// product added in place ([`QuadExpr::add_product`]). `Overflow` when a
    /// coefficient leaves `i128` (the accumulator is then unspecified).
    pub fn add_mul_template(
        &mut self,
        a: &IntTemplate,
        b: &IntTemplate,
        table: &mut MonomialTable,
    ) -> Result<(), RationalError> {
        for &(ma, ref ca) in a.terms() {
            for &(mb, ref cb) in b.terms() {
                self.slot(table.mul(ma, mb)).add_product(ca, cb)?;
            }
        }
        Ok(())
    }

    /// Negates every accumulated coefficient in place, then adds the
    /// template's affine coefficients — turning an accumulated right-hand
    /// side `Σ hᵢ·gᵢ + ε` into the coefficient difference `goal − rhs`
    /// without copying the (much larger) accumulated side. `Overflow` when a
    /// coefficient leaves `i128` (the accumulator is then unspecified).
    pub fn negate_then_add_template(
        &mut self,
        template: &IntTemplate,
    ) -> Result<(), RationalError> {
        for (_, coeff) in &mut self.terms {
            coeff.negate_in_place();
        }
        for &(m, ref lin) in template.terms() {
            self.slot(m).add_lin(lin)?;
        }
        Ok(())
    }

    /// Consumes the accumulator, returning the non-zero terms (unsorted —
    /// use [`MonomialTable::sort_terms`] for the canonical order).
    pub fn into_terms(self) -> Vec<(MonoId, QuadExpr)> {
        self.terms
            .into_iter()
            .filter(|(_, c)| !c.is_zero())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monomial::Monomial;

    fn v(i: usize) -> VarId {
        VarId::new(i)
    }
    fn int(x: i64) -> Rational {
        Rational::from_int(x)
    }

    #[test]
    fn int_poly_round_trips_and_multiplies() {
        let mut table = MonomialTable::new();
        let p = Polynomial::variable(v(0)) + Polynomial::constant(int(2));
        let q = Polynomial::variable(v(1)) - Polynomial::constant(int(1));
        let ip = IntPoly::from_polynomial(&p, &mut table);
        let iq = IntPoly::from_polynomial(&q, &mut table);
        assert_eq!(ip.to_polynomial(&table), p);
        let product = ip.mul(&iq, &mut table).unwrap();
        assert_eq!(product.to_polynomial(&table), &p * &q);
    }

    #[test]
    fn int_poly_pow_matches_reference() {
        let mut table = MonomialTable::new();
        let p = Polynomial::variable(v(0)) + Polynomial::constant(int(1));
        let ip = IntPoly::from_polynomial(&p, &mut table);
        assert_eq!(
            ip.pow(3, &mut table).unwrap().to_polynomial(&table),
            p.pow(3)
        );
        assert_eq!(
            ip.pow(0, &mut table).unwrap().to_polynomial(&table),
            Polynomial::one()
        );
    }

    /// `s0·x0² + s1·x1` interned into `table`.
    fn sample_template(table: &mut MonomialTable) -> IntTemplate {
        let mut template = IntTemplate::zero();
        template.add_term(
            table.intern(Monomial::from_powers(&[(v(0), 2)])),
            LinExpr::unknown(UnknownId::new(0)),
        );
        template.add_term(table.var(v(1)), LinExpr::unknown(UnknownId::new(1)));
        template
    }

    fn assignment(u: UnknownId) -> Rational {
        int(u.index() as i64 + 2)
    }

    #[test]
    fn template_substitution_matches_reference() {
        let mut table = MonomialTable::new();
        let template = sample_template(&mut table);
        let replacement = Polynomial::variable(v(1)) + Polynomial::constant(int(1));
        let expected = template
            .instantiate(&table, assignment)
            .substitute(|var| (var == v(0)).then(|| replacement.clone()));

        let ir = IntPoly::from_polynomial(&replacement, &mut table);
        let substituted = template
            .substitute(|var| (var == v(0)).then_some(&ir), &mut table)
            .unwrap();
        assert_eq!(substituted.instantiate(&table, assignment), expected);
    }

    #[test]
    fn substitution_overflow_is_an_error() {
        let mut table = MonomialTable::new();
        let template = sample_template(&mut table);
        // x0 ↦ 10²² · x0: the x0² coefficient 10⁴⁴ leaves i128.
        let big = Rational::new(10i128.pow(22), 1);
        let mut scaled = IntPoly::zero();
        scaled.add_term(table.var(v(0)), big).unwrap();
        assert_eq!(
            template.substitute(|var| (var == v(0)).then_some(&scaled), &mut table),
            Err(RationalError::Overflow)
        );
        assert!(scaled.pow(1, &mut table).is_ok());
        assert_eq!(scaled.pow(2, &mut table), Err(RationalError::Overflow));
    }

    #[test]
    fn template_product_matches_reference() {
        let mut table = MonomialTable::new();
        let a = sample_template(&mut table);
        let mut b = IntTemplate::zero();
        b.add_term(MonoId::ONE, LinExpr::unknown(UnknownId::new(2)));
        b.add_term(table.var(v(0)), LinExpr::unknown(UnknownId::new(3)));
        let expected = &a.instantiate(&table, assignment) * &b.instantiate(&table, assignment);

        let mut acc = QuadAccumulator::new();
        acc.add_mul_template(&a, &b, &mut table).unwrap();
        let product = Polynomial::from_terms(acc.into_terms().into_iter().map(|(m, coeff)| {
            let value = coeff.checked_eval_rational(assignment).unwrap();
            (value, table.monomial(m).clone())
        }));
        assert_eq!(product, expected);
    }

    #[test]
    fn quad_accumulation_cancels_in_place() {
        let mut table = MonomialTable::new();
        let x = table.var(v(0));
        let mut acc = QuadAccumulator::new();
        let mut coeff = QuadExpr::zero();
        coeff.add_linear(UnknownId::new(0), int(3)).unwrap();
        acc.add_term(x, &coeff).unwrap();
        acc.add_scaled_term(x, &coeff, int(-1)).unwrap();
        assert!(acc.into_terms().is_empty());
    }

    #[test]
    fn concrete_detection_and_variables() {
        let mut table = MonomialTable::new();
        let p = Polynomial::variable(v(2)) + Polynomial::variable(v(0));
        let it = IntTemplate::from_polynomial(&p, &mut table);
        assert!(it.is_concrete());
        assert_eq!(it.variables(&table), vec![v(0), v(2)]);
        let mut with_unknown = it.clone();
        with_unknown.add_term(table.var(v(0)), LinExpr::unknown(UnknownId::new(7)));
        assert!(!with_unknown.is_concrete());
    }
}
