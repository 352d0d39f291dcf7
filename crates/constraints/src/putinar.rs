//! Step 3: the Putinar translation of constraint pairs into quadratic
//! constraints.
//!
//! For a constraint pair `(Γ = {g₁ ≥ 0, …, g_m ≥ 0}, g > 0)` the paper
//! writes the identity
//!
//! ```text
//!     g  =  ε + h₀ + Σᵢ hᵢ·gᵢ                                   (†)
//! ```
//!
//! where `ε > 0` is a fresh positivity witness and every `hᵢ` is a
//! sum-of-squares polynomial of degree at most `ϒ` over the pair's program
//! variables. Matching the coefficients of the two sides monomial by
//! monomial yields quadratic *equalities* over the unknowns; the
//! sum-of-squares side conditions become quadratic equalities and diagonal
//! inequalities via the Cholesky factorization `Q = L·Lᵀ` (Theorem 3.5 —
//! the paper's QCLP encoding): `hᵢ = yᵀ·L·Lᵀ·y` with a fresh
//! lower-triangular matrix of l-variables and a non-negative diagonal.
//!
//! The translation runs entirely on the interned representation: monomial
//! products are memoized [`MonoId`] lookups, the multiplier bases come from
//! the table's per-`(scope, degree)` cache, and the right-hand side of (†)
//! accumulates into a hash-indexed [`QuadAccumulator`] whose coefficient
//! merges are in place — no `BTreeMap` rebuilds or cloned coefficient
//! expressions on the hot path; each template product's terms go straight
//! into their slot ([`QuadExpr::add_product`]). Every coefficient operation
//! is checked, so constants that leave `i128` surface as
//! [`ConstraintError::ArithmeticOverflow`], never as a panic.
//!
//! A pair reads nothing of the others: its unknowns are fresh, numbered
//! from the registry's current length, and its rows come out in
//! graded-lexicographic order of the monomials, whatever `MonoId`s the
//! arena gave them. [`crate::reduce_pairs`] relies on both to translate
//! large systems' pairs in parallel, each into a fragment on its own copy
//! of the arena, and merge them into the system the serial loop builds.

use polyinv_arith::{Rational, RationalError};
use polyinv_poly::interned::QuadAccumulator;
use polyinv_poly::{IntTemplate, LinExpr, MonoId, MonomialTable, QuadExpr, UnknownId};

use crate::error::ConstraintError;
use crate::options::SynthesisOptions;
use crate::pairs::ConstraintPair;
use crate::system::QuadraticSystem;
use crate::unknowns::UnknownKind;

/// Translates one constraint pair and appends the resulting constraints to
/// `system`. Returns the number of constraints added.
///
/// Reads two fields of `options`: `upsilon`, the technical parameter `ϒ`
/// bounding the degree of the multipliers `hᵢ` (Remark 3), and
/// `epsilon_lower`, the lower bound enforced on the positivity witness `ε`
/// (the paper's `ε` is strictly positive; a concrete lower bound keeps the
/// numeric solver away from the degenerate `ε = 0` solutions). A
/// sum-of-squares multiplier has even degree, so an odd `ϒ` rounds down.
///
/// The pair's fresh unknowns are numbered from `system.registry.len()` on,
/// and the only other state it reads is the monomial arena. So a pair can
/// be translated into a fragment of its own — a system over a copy of the
/// template registry — and spliced in later by shifting those fresh ids;
/// [`crate::reduce_pairs`] does that to translate pairs in parallel.
///
/// # Errors
///
/// [`ConstraintError::ArithmeticOverflow`] when a coefficient of the
/// identity leaves the `i128` range; `system` then holds a partial
/// translation of the pair.
pub fn translate_pair(
    pair: &ConstraintPair,
    pair_index: usize,
    options: &SynthesisOptions,
    system: &mut QuadraticSystem,
    table: &mut MonomialTable,
) -> Result<usize, ConstraintError> {
    let before = system.size();
    translate(pair, pair_index, options, system, table).map_err(|_| {
        ConstraintError::ArithmeticOverflow {
            context: format!(
                "the Putinar identity of pair {pair_index} ({})",
                pair.description
            ),
        }
    })?;
    Ok(system.size() - before)
}

fn translate(
    pair: &ConstraintPair,
    pair_index: usize,
    options: &SynthesisOptions,
    system: &mut QuadraticSystem,
    table: &mut MonomialTable,
) -> Result<(), RationalError> {
    let upsilon = options.upsilon;
    let half_degree = upsilon / 2;

    // Monomial bases over the pair's scope (memoized per scope/degree).
    let multiplier_basis = table.basis_up_to_degree(&pair.scope_vars, upsilon);
    let gram_basis = table.basis_up_to_degree(&pair.scope_vars, half_degree);

    // Right-hand side of (†): ε + h₀ + Σ hᵢ·gᵢ, hash-indexed so every
    // coefficient merge is amortized O(1).
    let mut rhs = QuadAccumulator::new();

    // Positivity witness ε.
    let eps = system
        .registry
        .fresh(UnknownKind::Witness { pair: pair_index });
    let mut eps_term = QuadExpr::zero();
    eps_term.add_linear(eps, Rational::one())?;
    rhs.add_term(MonoId::ONE, &eps_term)?;
    // ε ≥ ε_lower.
    let mut eps_bound = QuadExpr::constant(-options.epsilon_lower);
    eps_bound.add_linear(eps, Rational::one())?;
    system.inequalities.push(eps_bound);

    // Multipliers: h₀ (multiplied by the constant 1) plus one per context
    // entry.
    let mut one = IntTemplate::zero();
    one.add_term(MonoId::ONE, LinExpr::constant(Rational::one()));
    let context_polys: Vec<&IntTemplate> =
        std::iter::once(&one).chain(pair.context.iter()).collect();
    for (multiplier_index, g_i) in context_polys.iter().enumerate() {
        let expansion =
            build_cholesky_expansion(pair_index, multiplier_index, &gram_basis, system, table)?;
        if g_i.is_concrete() {
            // `gᵢ` has no template unknowns (the constant 1, guard atoms,
            // pre-condition polynomials), so `hᵢ·gᵢ` stays quadratic even
            // with hᵢ's coefficients expressed directly as the `(L·Lᵀ)`
            // entries. Skipping the t-variable aliases removes one unknown
            // and one equality per multiplier monomial — a significant
            // reduction of `|S|` (DESIGN.md §3).
            for &(mono_h, ref contribution) in expansion.terms() {
                for &(mono_g, ref coeff) in g_i.terms() {
                    rhs.add_scaled_term(
                        table.mul(mono_h, mono_g),
                        contribution,
                        coeff.constant_part(),
                    )?;
                }
            }
        } else {
            // `gᵢ` mentions template unknowns (source-label template
            // conjuncts): alias hᵢ's coefficients through fresh t-variables
            // so the product stays quadratic.
            let h_i = alias_through_multiplier_unknowns(
                pair_index,
                multiplier_index,
                &multiplier_basis,
                &expansion,
                system,
            )?;
            rhs.add_mul_template(&h_i, g_i, table)?;
        }
    }

    // Coefficient matching: every monomial of lhs − rhs must vanish, where
    // the left-hand side is the goal polynomial. The accumulated rhs is
    // negated in place (it is the large side) and the goal added on top.
    rhs.negate_then_add_template(&pair.goal)?;
    let mut terms = rhs.into_terms();
    // Emit in graded-lexicographic monomial order: deterministic, and
    // independent of the arena's `MonoId` numbering (the order compares the
    // monomials themselves), so any copy of the arena emits the same rows.
    table.sort_terms(&mut terms);
    for (_, coeff) in terms {
        system.equalities.push(coeff);
    }
    Ok(())
}

/// Allocates the Cholesky factor of one multiplier `hᵢ` — fresh l-variables
/// for the lower triangle with `l_{r,r} ≥ 0` inequalities — and returns the
/// symbolic expansion of `yᵀ·L·Lᵀ·y` as a hash-indexed accumulator: for each
/// monomial µ, the quadratic expression
/// `Σ_{(j,k) : y_j·y_k = µ} Σ_c l_{j,c}·l_{k,c}`.
fn build_cholesky_expansion(
    pair: usize,
    multiplier: usize,
    gram_basis: &[MonoId],
    system: &mut QuadraticSystem,
    table: &mut MonomialTable,
) -> Result<QuadAccumulator, RationalError> {
    // l-variables: lower triangle (row ≥ col) of the Cholesky factor.
    let dim = gram_basis.len();
    let mut l = vec![vec![None::<UnknownId>; dim]; dim];
    for (row, l_row) in l.iter_mut().enumerate() {
        for (col, entry) in l_row.iter_mut().enumerate().take(row + 1) {
            let id = system.registry.fresh(UnknownKind::Cholesky {
                pair,
                multiplier,
                row,
                col,
            });
            *entry = Some(id);
            if row == col {
                // Diagonal entries are non-negative.
                let mut diag = QuadExpr::zero();
                diag.add_linear(id, Rational::one())?;
                system.inequalities.push(diag);
            }
        }
    }

    // Expand yᵀ·L·Lᵀ·y symbolically; the accumulator's hash index turns the
    // previous linear scans into O(1) lookups, and the symmetry of L·Lᵀ lets
    // the loop cover only j ≤ k (the (k, j) entry contributes the same
    // products, so off-diagonal contributions count twice).
    let mut expansion = QuadAccumulator::new();
    let two = Rational::from_int(2);
    for j in 0..dim {
        for k in j..dim {
            let product = table.mul(gram_basis[j], gram_basis[k]);
            let factor = if j == k { Rational::one() } else { two };
            let contribution = expansion.slot(product);
            for c in 0..=j {
                let (Some(a), Some(b)) = (l[j][c], l[k][c]) else {
                    continue;
                };
                contribution.add_quadratic(a, b, factor)?;
            }
        }
    }
    Ok(expansion)
}

/// Aliases a Cholesky expansion through fresh t-variables, producing the
/// multiplier `hᵢ` as a template polynomial: one t-variable per monomial of
/// the multiplier basis and one quadratic equality `t_µ = (L·Lᵀ)_µ` each.
///
/// This is required exactly when `hᵢ` multiplies a context polynomial with
/// template unknowns — substituting the quadratic expansion directly would
/// produce cubic terms. Coefficients not present in the expansion force the
/// corresponding t to zero, and expansion monomials outside the t-basis
/// force that part of `L·Lᵀ` to vanish — both are captured by matching over
/// the union.
fn alias_through_multiplier_unknowns(
    pair: usize,
    multiplier: usize,
    multiplier_basis: &[MonoId],
    expansion: &QuadAccumulator,
    system: &mut QuadraticSystem,
) -> Result<IntTemplate, RationalError> {
    let mut h = IntTemplate::zero();
    let mut t_vars: Vec<(MonoId, UnknownId)> = Vec::with_capacity(multiplier_basis.len());
    for (monomial_index, &monomial) in multiplier_basis.iter().enumerate() {
        let t = system.registry.fresh(UnknownKind::Multiplier {
            pair,
            multiplier,
            monomial: monomial_index,
        });
        t_vars.push((monomial, t));
        h.add_term(monomial, LinExpr::unknown(t));
    }
    for &(monomial, t) in &t_vars {
        let mut eq = QuadExpr::zero();
        eq.add_linear(t, Rational::one())?;
        if let Some(contribution) = expansion.get(monomial) {
            eq.sub_expr(contribution)?;
        }
        system.equalities.push(eq);
    }
    for &(monomial, ref contribution) in expansion.terms() {
        if !t_vars.iter().any(|&(m, _)| m == monomial) {
            // Should not happen: the Gram basis squares stay within the
            // multiplier basis. Kept as a defensive equality.
            let mut eq = QuadExpr::zero();
            eq.sub_expr(contribution)?;
            system.equalities.push(eq);
        }
    }
    Ok(h)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::pairs::{ConstraintPair, PairKind};
    use crate::unknowns::UnknownRegistry;
    use polyinv_poly::{Polynomial, VarId};

    /// A tiny hand-built pair: context {x ≥ 0}, goal x + 1 > 0.
    fn simple_pair(table: &mut MonomialTable) -> ConstraintPair {
        let x = VarId::new(0);
        let context = vec![IntTemplate::from_polynomial(
            &Polynomial::variable(x),
            table,
        )];
        let goal = IntTemplate::from_polynomial(
            &(Polynomial::variable(x) + Polynomial::constant(Rational::one())),
            table,
        );
        ConstraintPair {
            context,
            goal,
            kind: PairKind::Consecution,
            description: "test".to_string(),
            scope_vars: vec![x],
        }
    }

    #[test]
    fn cholesky_translation_produces_expected_constraint_counts() {
        let mut table = MonomialTable::new();
        let pair = simple_pair(&mut table);
        let mut system = QuadraticSystem::new(UnknownRegistry::new());
        let options = SynthesisOptions::default();
        translate_pair(&pair, 0, &options, &mut system, &mut table).unwrap();
        // One variable x, ϒ = 2: Gram basis {1, x} (2 monomials). Both
        // context polynomials (1 and x) are concrete, so the t-variable
        // aliases are eliminated and hᵢ's coefficients are the (L·Lᵀ)
        // entries directly.
        // Unknowns: ε + 2 multipliers × 3 l = 7.
        assert_eq!(system.num_unknowns(), 7);
        // Inequalities: ε bound + 2 diagonals per multiplier = 5.
        assert_eq!(system.inequalities.len(), 5);
        // Equalities: coefficient matching over monomials of degree ≤ 3
        // (1, x, x², x³) = 4.
        assert_eq!(system.equalities.len(), 4);
    }

    #[test]
    fn template_contexts_still_alias_through_t_variables() {
        // A context polynomial mentioning a template unknown cannot be
        // multiplied by the quadratic (L·Lᵀ) expansion directly (the product
        // would be cubic); it must keep the t-variable aliases.
        let mut table = MonomialTable::new();
        let mut registry = UnknownRegistry::new();
        let s = registry.fresh(UnknownKind::Witness { pair: 999 });
        let mut system = QuadraticSystem::new(registry);
        let x = VarId::new(0);
        let mut context_poly = IntTemplate::zero();
        let x_mono = table.var(x);
        context_poly.add_term(x_mono, LinExpr::unknown(s));
        let goal = IntTemplate::from_polynomial(
            &(Polynomial::variable(x) + Polynomial::constant(Rational::one())),
            &mut table,
        );
        let pair = ConstraintPair {
            context: vec![context_poly],
            goal,
            kind: PairKind::Consecution,
            description: "template context".to_string(),
            scope_vars: vec![x],
        };
        translate_pair(
            &pair,
            0,
            &SynthesisOptions::default(),
            &mut system,
            &mut table,
        )
        .unwrap();
        // Unknowns: s + ε + 3 l (h₀, eliminated) + 3 t + 3 l (h₁) = 11.
        assert_eq!(system.num_unknowns(), 11);
        // Equalities: 3 t-aliases for h₁ + matching over {1, x, x², x³} = 7.
        assert_eq!(system.equalities.len(), 7);
    }

    /// The Putinar identity must hold *symbolically*: for any assignment of
    /// the unknowns that satisfies the generated equalities, the polynomial
    /// identity (†) holds. We check the contrapositive numerically: evaluate
    /// both sides of the coefficient-matching at a random assignment and
    /// confirm that the residual of the equalities equals the coefficient
    /// difference.
    #[test]
    fn coefficient_matching_is_consistent_with_direct_expansion() {
        let mut table = MonomialTable::new();
        let pair = simple_pair(&mut table);
        let mut system = QuadraticSystem::new(UnknownRegistry::new());
        translate_pair(
            &pair,
            0,
            &SynthesisOptions::default(),
            &mut system,
            &mut table,
        )
        .unwrap();
        // Assignment: ε = 1, L₀ = identity (so h₀ = yᵀ·L₀·L₀ᵀ·y = 1 + x²
        // over y = {1, x}), L₁ = 0. Then rhs = 1 + (1 + x²) and
        // lhs = x + 1, so the difference has coefficients
        // {1: -1, x: 1, x²: -1} and the equalities must have residuals with
        // exactly these magnitudes.
        let mut assignment = vec![0.0; system.num_unknowns()];
        for (id, kind) in system.registry.iter() {
            let value = match *kind {
                UnknownKind::Witness { .. } => 1.0,
                UnknownKind::Cholesky {
                    multiplier: 0,
                    row,
                    col,
                    ..
                } if row == col => 1.0,
                _ => 0.0,
            };
            assignment[id.index()] = value;
        }
        assert_eq!(assignment.iter().filter(|&&v| v == 1.0).count(), 3);
        let residuals: Vec<f64> = system
            .equalities
            .iter()
            .map(|eq| eq.eval(|u| assignment[u.index()]))
            .collect();
        let mut sorted: Vec<f64> = residuals.iter().map(|r| r.abs()).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(residuals.len(), 4);
        assert_eq!(sorted, vec![0.0, 1.0, 1.0, 1.0]);
    }

    /// `{c·x ≥ 0} ⇒ x + 1 > 0` over one variable.
    pub(crate) fn scaled_context_pair(c: Rational, table: &mut MonomialTable) -> ConstraintPair {
        let x = VarId::new(0);
        let mut pair = simple_pair(table);
        pair.context = vec![IntTemplate::from_polynomial(
            &Polynomial::variable(x).scale(c),
            table,
        )];
        pair
    }

    #[test]
    fn coefficients_past_i128_are_an_overflow_error_not_a_panic() {
        // At ϒ = 2 the off-diagonal Cholesky products count twice: a context
        // coefficient c puts 2c into the identity. 2·2¹²⁵ fits i128;
        // 2·2¹²⁶ = 2¹²⁷ is one past i128::MAX. At ϒ = 0 nothing doubles.
        let translate = |exponent: u32, upsilon: u32| {
            let mut table = MonomialTable::new();
            let pair = scaled_context_pair(Rational::new(1i128 << exponent, 1), &mut table);
            let mut system = QuadraticSystem::new(UnknownRegistry::new());
            let options = SynthesisOptions::default().with_upsilon(upsilon);
            translate_pair(&pair, 3, &options, &mut system, &mut table)
        };
        assert!(translate(125, 2).is_ok());
        assert!(translate(126, 0).is_ok());
        match translate(126, 2) {
            Err(ConstraintError::ArithmeticOverflow { context }) => {
                assert_eq!(context, "the Putinar identity of pair 3 (test)")
            }
            other => panic!("expected an overflow error, got {other:?}"),
        }
    }

    #[test]
    fn upsilon_zero_still_produces_constant_multipliers() {
        let mut table = MonomialTable::new();
        let pair = simple_pair(&mut table);
        let mut system = QuadraticSystem::new(UnknownRegistry::new());
        let options = SynthesisOptions::default().with_upsilon(0);
        let added = translate_pair(&pair, 0, &options, &mut system, &mut table).unwrap();
        assert!(added > 0);
        // Multiplier basis = {1}: each hᵢ is a single non-negative constant
        // (l², with the t-alias eliminated for the concrete contexts).
        // Coefficient matching over monomials {1, x}.
        assert_eq!(system.equalities.len(), 2);
    }
}
