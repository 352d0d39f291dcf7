//! Property suite for the affine presolve engine: presolve is
//! solution-preserving in both directions.
//!
//! Systems are generated *around* a known rational witness `x*`: every
//! equality is built to vanish at `x*` and every inequality to be
//! non-negative there, so the generated system is feasible by construction
//! and the witness is available for exact-rational checks. The properties:
//!
//! * **forward** — the witness (restricted to surviving unknowns) satisfies
//!   the presolved system exactly: presolve never cuts a solution away;
//! * **backward** — back-substituting the surviving part of the witness
//!   yields a full assignment that satisfies the *original* system exactly
//!   (this exercises Fixed/Affine/Solved reconstruction, the FreeSquare
//!   rational repair and the Rectified sign normalization), in rational and
//!   in f64 arithmetic;
//! * **monotone** — presolve never grows `|S|` or the unknown count, and
//!   its stats agree with the surviving system;
//! * **idempotent** — presolve reaches a fixpoint: a second pass finds
//!   nothing left to do.

use std::collections::HashMap;

use polyinv_arith::Rational;
use polyinv_constraints::{
    presolve, PresolveOptions, QuadraticSystem, UnknownKind, UnknownRegistry,
};
use polyinv_poly::{QuadExpr, UnknownId};
use proptest::prelude::*;

/// One generated row: terms plus how to anchor it at the witness. Unknown
/// indices are raw draws reduced modulo the system's unknown count when the
/// plan is materialized.
#[derive(Debug, Clone)]
enum RowPlan {
    /// `expr - expr(x*) = 0` — an equality satisfied at the witness.
    Equality {
        linear: Vec<(usize, i64)>,
        quad: Vec<(usize, usize, i64)>,
    },
    /// `expr - expr(x*) + slack ≥ 0` with `slack ≥ 0`.
    Inequality {
        linear: Vec<(usize, i64)>,
        quad: Vec<(usize, usize, i64)>,
        slack: i64,
    },
    /// `c·u - c·u* + slack ≥ 0` — a one-sided sign bound (fodder for the
    /// rectification rule).
    SignBound {
        unknown: usize,
        coeff: i64,
        slack: i64,
    },
    /// `u² - (u*)² = 0` — a square row (fodder for zero-sum-of-squares and
    /// the difference-of-squares pairing).
    Square { unknown: usize },
}

#[derive(Debug, Clone)]
struct SystemPlan {
    /// Witness values, as (numerator, denominator ∈ {1, 2}).
    witness: Vec<(i64, i64)>,
    rows: Vec<RowPlan>,
    /// Pin unknown 0 to its witness value (exercises the pin seeding).
    pin_first: bool,
}

fn arb_row() -> impl Strategy<Value = RowPlan> {
    (
        0i64..9,
        prop::collection::vec((0usize..16, -3i64..4), 1..4),
        prop::collection::vec((0usize..16, 0usize..16, -2i64..3), 0..3),
        0i64..3,
    )
        .prop_map(|(kind, linear, quad, slack)| {
            let (anchor, coeff) = linear[0];
            match kind {
                0..=2 => RowPlan::Equality { linear, quad },
                3..=5 => RowPlan::Inequality {
                    linear,
                    quad,
                    slack,
                },
                6..=7 => RowPlan::SignBound {
                    unknown: anchor,
                    coeff: if coeff == 0 { 1 } else { coeff },
                    slack,
                },
                _ => RowPlan::Square { unknown: anchor },
            }
        })
}

fn arb_plan() -> impl Strategy<Value = SystemPlan> {
    (
        prop::collection::vec((-3i64..4, 0i64..2), 2..7),
        prop::collection::vec(arb_row(), 2..11),
        0i64..2,
    )
        .prop_map(|(witness, rows, pin)| SystemPlan {
            witness: witness
                .into_iter()
                .map(|(numer, denom_tag)| (numer, denom_tag + 1))
                .collect(),
            rows,
            pin_first: pin == 1,
        })
}

/// Materializes a plan: the system, the witness, and the pins.
fn build(plan: &SystemPlan) -> (QuadraticSystem, Vec<Rational>, HashMap<UnknownId, Rational>) {
    let n = plan.witness.len();
    let mut registry = UnknownRegistry::new();
    let ids: Vec<UnknownId> = (0..n)
        .map(|pair| registry.fresh(UnknownKind::Witness { pair }))
        .collect();
    let witness: Vec<Rational> = plan
        .witness
        .iter()
        .map(|&(numer, denom)| Rational::new(i128::from(numer), i128::from(denom)))
        .collect();
    let at_witness = |expr: &QuadExpr| {
        expr.checked_eval_rational(|u: UnknownId| witness[u.index()])
            .expect("witness rows stay within i128")
    };

    let mut system = QuadraticSystem::new(registry);
    for row in &plan.rows {
        match row {
            RowPlan::Equality { linear, quad } | RowPlan::Inequality { linear, quad, .. } => {
                let mut expr = QuadExpr::zero();
                for &(u, c) in linear {
                    expr.add_linear(ids[u % n], Rational::from_int(c)).unwrap();
                }
                for &(a, b, c) in quad {
                    expr.add_quadratic(ids[a % n], ids[b % n], Rational::from_int(c))
                        .unwrap();
                }
                expr.add_constant(-at_witness(&expr)).unwrap();
                match row {
                    RowPlan::Equality { .. } => system.equalities.push(expr),
                    RowPlan::Inequality { slack, .. } => {
                        expr.add_constant(Rational::from_int(*slack)).unwrap();
                        system.inequalities.push(expr);
                    }
                    _ => unreachable!(),
                }
            }
            RowPlan::SignBound {
                unknown,
                coeff,
                slack,
            } => {
                let mut expr = QuadExpr::zero();
                expr.add_linear(ids[unknown % n], Rational::from_int(*coeff))
                    .unwrap();
                let anchor = at_witness(&expr);
                expr.add_constant(Rational::from_int(*slack) - anchor)
                    .unwrap();
                system.inequalities.push(expr);
            }
            RowPlan::Square { unknown } => {
                let mut expr = QuadExpr::zero();
                let id = ids[unknown % n];
                expr.add_quadratic(id, id, Rational::one()).unwrap();
                expr.add_constant(-at_witness(&expr)).unwrap();
                system.equalities.push(expr);
            }
        }
    }
    let mut pins = HashMap::new();
    if plan.pin_first {
        pins.insert(ids[0], witness[0]);
    }
    (system, witness, pins)
}

/// Exact satisfaction check: equalities vanish, inequalities non-negative.
fn check_exactly(label: &str, system: &QuadraticSystem, values: &[Rational]) {
    let lookup = |u: UnknownId| values[u.index()];
    for (index, row) in system.equalities.iter().enumerate() {
        let value = row.checked_eval_rational(lookup).expect("no overflow");
        assert!(
            value.is_zero(),
            "{label}: equality {index} evaluates to {value}"
        );
    }
    for (index, row) in system.inequalities.iter().enumerate() {
        let value = row.checked_eval_rational(lookup).expect("no overflow");
        assert!(
            !value.is_negative(),
            "{label}: inequality {index} evaluates to {value}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn presolve_preserves_solutions_in_both_directions(plan in arb_plan()) {
        let (system, witness, pins) = build(&plan);
        let result = presolve(&system, &pins, &PresolveOptions::default());

        // Monotone, and the stats agree with the surviving system.
        prop_assert!(result.stats.size_after <= result.stats.size_before);
        prop_assert!(result.stats.unknowns_after <= result.stats.unknowns_before);
        prop_assert_eq!(result.stats.size_after, result.system.size());

        // Forward: the witness satisfies the presolved system exactly
        // (presolved rows reference surviving unknowns only, so the full
        // witness vector can be used as-is).
        check_exactly("witness lost by presolve", &result.system, &witness);

        // Backward (rational): wipe the eliminated entries, back-substitute
        // from the surviving part of the witness, and re-check the ORIGINAL
        // system exactly.
        let mask = result.map.eliminated_mask(witness.len());
        let mut reconstructed = witness.clone();
        for (index, eliminated) in mask.iter().enumerate() {
            if *eliminated {
                reconstructed[index] = Rational::from_int(91); // poison
            }
        }
        prop_assert!(
            result.map.back_substitute_rational(&mut reconstructed),
            "rational back-substitution overflowed"
        );
        check_exactly(
            "back-substituted assignment violates the original system",
            &system,
            &reconstructed,
        );

        // Backward (f64): the pipeline's actual path. Witness coordinates
        // are halves, so the arithmetic is exact in doubles too.
        let mut floats: Vec<f64> = witness.iter().map(Rational::to_f64).collect();
        for (index, eliminated) in mask.iter().enumerate() {
            if *eliminated {
                floats[index] = 91.0;
            }
        }
        result.map.back_substitute(&mut floats);
        let violation = system.max_violation(&floats);
        prop_assert!(
            violation <= 1e-9,
            "f64 back-substitution violates the original system by {violation:.3e}"
        );

        // Near-idempotent: a second pass eliminates no unknowns and finds
        // no duplicates. (It may still *rectify* — the first pass
        // conservatively refuses to sign-normalize unknowns referenced by
        // recorded elimination right-hand sides, and a fresh pass on the
        // reduced system has no such references to respect.)
        let again = presolve(&result.system, &HashMap::new(), &PresolveOptions::default());
        prop_assert!(
            again.map.iter().all(|entry| !entry.eliminates()),
            "second presolve pass still eliminated unknowns: {:?}",
            again.stats
        );
        prop_assert_eq!(again.stats.duplicates, 0);
    }
}
