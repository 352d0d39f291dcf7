//! Property-based tests for polynomial and template algebra: the interned
//! (`MonomialTable`-backed) representation that constraint generation runs
//! on is checked against the reference `Polynomial` arithmetic.

use polyinv_arith::Rational;
use polyinv_poly::interned::QuadAccumulator;
use polyinv_poly::{
    IntPoly, IntTemplate, LinExpr, Monomial, MonomialTable, Polynomial, UnknownId, VarId,
};
use proptest::prelude::*;

const NUM_VARS: usize = 3;

fn arb_poly() -> impl Strategy<Value = Polynomial> {
    // Up to 6 terms, degree <= 3, small integer coefficients.
    prop::collection::vec((-5i64..6, prop::collection::vec(0u32..3, NUM_VARS)), 0..6).prop_map(
        |terms| {
            let mut poly = Polynomial::zero();
            for (coeff, exps) in terms {
                let powers: Vec<(VarId, u32)> = exps
                    .iter()
                    .enumerate()
                    .map(|(i, &e)| (VarId::new(i), e))
                    .collect();
                poly.add_term(Rational::from_int(coeff), Monomial::from_powers(&powers));
            }
            poly
        },
    )
}

fn arb_valuation() -> impl Strategy<Value = Vec<Rational>> {
    prop::collection::vec((-4i64..5).prop_map(Rational::from_int), NUM_VARS)
}

fn eval(poly: &Polynomial, valuation: &[Rational]) -> Rational {
    poly.checked_eval(|v| valuation[v.index()])
        .expect("small values do not overflow")
}

proptest! {
    #[test]
    fn addition_is_homomorphic_under_evaluation(
        p in arb_poly(), q in arb_poly(), val in arb_valuation()
    ) {
        let sum = &p + &q;
        prop_assert_eq!(eval(&sum, &val), eval(&p, &val) + eval(&q, &val));
    }

    #[test]
    fn multiplication_is_homomorphic_under_evaluation(
        p in arb_poly(), q in arb_poly(), val in arb_valuation()
    ) {
        let product = &p * &q;
        prop_assert_eq!(eval(&product, &val), eval(&p, &val) * eval(&q, &val));
    }

    #[test]
    fn multiplication_is_commutative(p in arb_poly(), q in arb_poly()) {
        prop_assert_eq!(&p * &q, &q * &p);
    }

    #[test]
    fn multiplication_distributes(p in arb_poly(), q in arb_poly(), r in arb_poly()) {
        let lhs = &p * &(&q + &r);
        let rhs = &(&p * &q) + &(&p * &r);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn subtraction_is_inverse_of_addition(p in arb_poly(), q in arb_poly()) {
        let restored = &(&p + &q) - &q;
        prop_assert_eq!(restored, p);
    }

    #[test]
    fn substitution_commutes_with_evaluation(
        p in arb_poly(), q in arb_poly(), val in arb_valuation()
    ) {
        // Substitute x0 := q, then evaluate; must equal evaluating p at
        // (q(val), val[1], val[2]).
        let substituted = p.substitute(|v| if v.index() == 0 { Some(q.clone()) } else { None });
        let q_value = eval(&q, &val);
        let mut shifted = val.clone();
        shifted[0] = q_value;
        prop_assert_eq!(eval(&substituted, &val), eval(&p, &shifted));
    }

    #[test]
    fn degree_of_product_is_sum_of_degrees(p in arb_poly(), q in arb_poly()) {
        prop_assume!(!p.is_zero() && !q.is_zero());
        let product = &p * &q;
        // Over an integral domain the degree is exactly additive.
        prop_assert_eq!(product.degree(), p.degree() + q.degree());
    }

    #[test]
    fn monomial_basis_is_complete(degree in 0u32..4) {
        let vars: Vec<VarId> = (0..NUM_VARS).map(VarId::new).collect();
        let basis = Monomial::all_up_to_degree(&vars, degree);
        // Every monomial in the basis respects the bound and all are distinct.
        for m in &basis {
            prop_assert!(m.degree() <= degree);
        }
        let mut sorted = basis.clone();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), basis.len());
        // Binomial-coefficient count: C(NUM_VARS + degree, degree).
        let expected = {
            let mut num = 1usize;
            let mut den = 1usize;
            for i in 0..degree as usize {
                num *= NUM_VARS + degree as usize - i;
                den *= i + 1;
            }
            num / den
        };
        prop_assert_eq!(basis.len(), expected);
    }
}

/// A random template `Σ s_k·m_k`: unknowns `0..4`, monomials of degree
/// at most 2 per variable. Interned with [`template`].
fn arb_template() -> impl Strategy<Value = Vec<(usize, Vec<u32>)>> {
    prop::collection::vec((0usize..4, prop::collection::vec(0u32..3, NUM_VARS)), 1..5)
}

fn template(terms: &[(usize, Vec<u32>)], table: &mut MonomialTable) -> IntTemplate {
    let mut template = IntTemplate::zero();
    for (unknown, exps) in terms {
        let powers: Vec<(VarId, u32)> = exps
            .iter()
            .enumerate()
            .map(|(i, &e)| (VarId::new(i), e))
            .collect();
        template.add_term(
            table.intern(Monomial::from_powers(&powers)),
            LinExpr::unknown(UnknownId::new(*unknown)),
        );
    }
    template
}

proptest! {
    #[test]
    fn template_product_agrees_with_instantiated_product(
        a in arb_template(), b in arb_template(),
        assignment in prop::collection::vec(-3i64..4, 4)
    ) {
        // The `hᵢ·gᵢ` products of the Putinar translation.
        let assign = |u: UnknownId| Rational::from_int(assignment[u.index()]);
        let mut table = MonomialTable::new();
        let (a, b) = (template(&a, &mut table), template(&b, &mut table));
        let mut acc = QuadAccumulator::new();
        acc.add_mul_template(&a, &b, &mut table).unwrap();
        let product = Polynomial::from_terms(acc.into_terms().into_iter().map(|(m, coeff)| {
            let value = coeff.checked_eval_rational(assign).unwrap();
            (value, table.monomial(m).clone())
        }));
        let concrete = &a.instantiate(&table, assign) * &b.instantiate(&table, assign);
        prop_assert_eq!(product, concrete);
    }

    #[test]
    fn template_substitution_agrees_with_instantiated_substitution(
        a in arb_template(), q in arb_poly(),
        assignment in prop::collection::vec(-3i64..4, 4)
    ) {
        let assign = |u: UnknownId| Rational::from_int(assignment[u.index()]);
        let mut table = MonomialTable::new();
        let a = template(&a, &mut table);
        let iq = IntPoly::from_polynomial(&q, &mut table);
        let substituted_then_instantiated = a
            .substitute(|v| if v.index() == 0 { Some(&iq) } else { None }, &mut table)
            .unwrap()
            .instantiate(&table, assign);
        let instantiated_then_substituted = a
            .instantiate(&table, assign)
            .substitute(|v| if v.index() == 0 { Some(q.clone()) } else { None });
        prop_assert_eq!(substituted_then_instantiated, instantiated_then_substituted);
    }
}

// ---------------------------------------------------------------------------
// Interned representation vs the reference `Polynomial` arithmetic.
//
// The hot path of constraint generation runs on `MonomialTable`-interned
// term lists; these properties pin the ring laws (addition, multiplication,
// substitution) and the canonical display order to the reference
// implementation on random inputs.
// ---------------------------------------------------------------------------

proptest! {
    #[test]
    fn interned_addition_matches_reference(p in arb_poly(), q in arb_poly()) {
        let mut table = MonomialTable::new();
        let mut ip = IntPoly::from_polynomial(&p, &mut table);
        let iq = IntPoly::from_polynomial(&q, &mut table);
        for &(m, c) in iq.terms() {
            ip.add_term(m, c).unwrap();
        }
        prop_assert_eq!(ip.to_polynomial(&table), &p + &q);
    }

    #[test]
    fn interned_multiplication_matches_reference(p in arb_poly(), q in arb_poly()) {
        let mut table = MonomialTable::new();
        let ip = IntPoly::from_polynomial(&p, &mut table);
        let iq = IntPoly::from_polynomial(&q, &mut table);
        prop_assert_eq!(ip.mul(&iq, &mut table).unwrap().to_polynomial(&table), &p * &q);
    }

    #[test]
    fn interned_multiplication_is_commutative_and_distributive(
        p in arb_poly(), q in arb_poly(), r in arb_poly()
    ) {
        let mut table = MonomialTable::new();
        let ip = IntPoly::from_polynomial(&p, &mut table);
        let iq = IntPoly::from_polynomial(&q, &mut table);
        let ir = IntPoly::from_polynomial(&r, &mut table);
        prop_assert_eq!(ip.mul(&iq, &mut table), iq.mul(&ip, &mut table));
        // p·(q + r) = p·q + p·r, computed entirely in the interned domain.
        let mut q_plus_r = iq.clone();
        for &(m, c) in ir.terms() {
            q_plus_r.add_term(m, c).unwrap();
        }
        let lhs = ip.mul(&q_plus_r, &mut table).unwrap();
        let mut rhs = ip.mul(&iq, &mut table).unwrap();
        for &(m, c) in ip.mul(&ir, &mut table).unwrap().terms() {
            rhs.add_term(m, c).unwrap();
        }
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn interned_substitution_matches_reference(p in arb_poly(), q in arb_poly()) {
        let mut table = MonomialTable::new();
        let it = IntTemplate::from_polynomial(&p, &mut table);
        let iq = IntPoly::from_polynomial(&q, &mut table);
        let substituted = it
            .substitute(|v| if v.index() == 0 { Some(&iq) } else { None }, &mut table)
            .unwrap();
        let expected = p.substitute(|v| if v.index() == 0 { Some(q.clone()) } else { None });
        prop_assert_eq!(substituted.instantiate(&table, |_| Rational::zero()), expected);
    }

    #[test]
    fn interned_round_trip_preserves_canonical_display_order(p in arb_poly()) {
        let mut table = MonomialTable::new();
        // Intern some unrelated monomials first so raw-id order and
        // graded-lexicographic order genuinely disagree.
        table.basis_up_to_degree(&[VarId::new(2), VarId::new(1)], 3);
        let ip = IntPoly::from_polynomial(&p, &mut table);
        let round_tripped = ip.to_polynomial(&table);
        prop_assert_eq!(&round_tripped, &p);
        // Identical canonical rendering, term order included.
        prop_assert_eq!(round_tripped.to_string(), p.to_string());
        // And sort_terms reproduces the reference iteration order.
        let mut terms: Vec<_> = ip.terms().to_vec();
        table.sort_terms(&mut terms);
        let reference: Vec<Monomial> = p.iter().map(|(m, _)| m.clone()).collect();
        let sorted: Vec<Monomial> = terms
            .iter()
            .map(|&(m, _)| table.monomial(m).clone())
            .collect();
        prop_assert_eq!(sorted, reference);
    }
}
