//! Exact-rational re-check of a solved quadratic system.
//!
//! The LM back-end works in floating point. This module closes the loop:
//! the solver's assignment is rounded to rationals, substituted back into
//! the Step-3 constraints (the quadratic (in)equalities the Putinar
//! translation derived from the Step-2 pairs), and every constraint is
//! evaluated with [`Rational`] arithmetic — no floats, no solver, and
//! therefore independent of the path that produced the solution.
//!
//! Rounding policy (DESIGN.md §8): [`exact_recheck_ladder`] takes the
//! exact values of pinned unknowns (weak synthesis's target coefficients)
//! as given and tries the coarse-to-fine rungs of a fixed snap ladder for
//! the rest. On a rung with a snap grid,
//! template (s-) unknowns within `1e-4` of a `k/grid` point snap to it;
//! every other value (including multiplier, Cholesky and witness
//! variables) is rounded to a dyadic rational ([`dyadic`]). All
//! denominators are powers of two bounded by `2^32`, so exact evaluation
//! over `i128` rationals cannot blow up; arithmetic overflow (only
//! reachable through extreme program coefficients) is still reported as a
//! failure, never ignored. The report keeps the rational point it checked
//! ([`ExactReport::values`]), and [`instantiate_exact`] instantiates the
//! invariant templates at that point, so the reported invariant, trace
//! falsification and the certificate attack one object.

use std::collections::HashMap;

use crate::{GeneratedSystem, QuadraticSystem, UnknownKind};
use polyinv_arith::Rational;
use polyinv_lang::{InvariantMap, Postcondition, Program};
use polyinv_poly::UnknownId;

/// Denominator exponent of the certificate's default dyadic rounding
/// (`2^24`); polish pins use the same grid.
pub const DYADIC_BITS: u32 = 24;

/// Template coefficients within this distance of a snap-grid point snap to
/// it; farther values round dyadically.
const SNAP_THRESHOLD: f64 = 1e-4;

/// Configuration of the exact re-check.
#[derive(Debug, Clone)]
pub struct ExactCheckConfig {
    /// Maximum exact violation accepted (equalities: `|residual|`;
    /// inequalities: `max(0, -value)`).
    pub tolerance: Rational,
}

/// One rung of the certification snap ladder: which grid the template
/// coefficients snap to (when close enough), and the dyadic denominator for
/// everything else.
///
/// A float candidate sits *near* an exactly-feasible rational point; which
/// rounding reaches that point depends on the candidate. Coarse `k/64`
/// coefficients make the prettiest invariants but move each value by up to
/// [`SNAP_THRESHOLD`]; when the system's constraints are too tight for that
/// perturbation, a finer grid — or no snapping at all, at a higher dyadic
/// resolution — can still land inside the feasible region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SnapPolicy {
    /// Template unknowns within [`SNAP_THRESHOLD`] of a `k/grid` point snap
    /// to it; `None` disables snapping (templates round dyadically too).
    snap_grid: Option<i128>,
    /// Denominator exponent of the dyadic rounding (`2^bits`).
    dyadic_bits: u32,
}

impl SnapPolicy {
    /// A stable human-readable name (`"snap/64+dyadic24"`, `"dyadic32"`, …)
    /// recorded in the report.
    fn describe(&self) -> String {
        match self.snap_grid {
            Some(grid) => format!("snap/{grid}+dyadic{}", self.dyadic_bits),
            None => format!("dyadic{}", self.dyadic_bits),
        }
    }
}

/// The coarse-to-fine rounding ladder of [`exact_recheck_ladder`]:
/// presentation-friendly `k/64` snapping first, then a 4× finer snap grid,
/// then pure dyadic rounding at 24 and at 32 bits.
const SNAP_LADDER: [SnapPolicy; 4] = [
    SnapPolicy {
        snap_grid: Some(64),
        dyadic_bits: DYADIC_BITS,
    },
    SnapPolicy {
        snap_grid: Some(256),
        dyadic_bits: DYADIC_BITS,
    },
    SnapPolicy {
        snap_grid: None,
        dyadic_bits: DYADIC_BITS,
    },
    SnapPolicy {
        snap_grid: None,
        dyadic_bits: 32,
    },
];

/// The outcome of an exact re-check.
#[derive(Debug, Clone)]
pub struct ExactReport {
    /// Number of equalities and inequalities evaluated.
    pub constraints: usize,
    /// The worst exact violation over all constraints.
    pub worst_violation: Rational,
    /// Which constraint attained the worst violation.
    pub worst_constraint: String,
    /// The tolerance the check ran with.
    pub tolerance: Rational,
    /// `true` if any evaluation overflowed `i128` rational arithmetic
    /// (reported as a failure: the check could not prove the bound).
    pub overflowed: bool,
    /// The rounding policy that produced this report (`"snap/64+dyadic24"`,
    /// `"dyadic32"`, …).
    pub rounding: String,
    /// The exact assignment of every unknown the check evaluated: the
    /// certified point when the check passed. Reported invariants are the
    /// templates instantiated here ([`instantiate_exact`]).
    pub values: Vec<Rational>,
}

impl ExactReport {
    /// `true` when every constraint is exactly within tolerance.
    pub fn passed(&self) -> bool {
        !self.overflowed && self.worst_violation <= self.tolerance
    }
}

/// Rounds a float to the dyadic rational `round(value · 2^bits) / 2^bits`
/// (non-finite values round to 0).
pub fn dyadic(value: f64, bits: u32) -> Rational {
    if !value.is_finite() {
        return Rational::zero();
    }
    let scale = 1i128 << bits.min(60);
    let scaled = (value * scale as f64).round();
    if scaled.abs() >= 1e27 {
        // Out of the comfortable i128 range: fall back to the bounded
        // continued-fraction approximation.
        return Rational::approximate(value);
    }
    Rational::new(scaled as i128, scale)
}

/// The exact-rational assignment of the snap ladder's first rung: `k/64`
/// snapping for template unknowns near a grid point, dyadic rounding at
/// `2^`[`DYADIC_BITS`] for everything else. The rounding takes nothing
/// from `_config`. Certified outcomes carry the point their certificate
/// actually checked in [`ExactReport::values`], which may come from a
/// finer rung.
pub fn exact_assignment(
    system: &QuadraticSystem,
    assignment: &[f64],
    _config: &ExactCheckConfig,
) -> Vec<Rational> {
    round_with(system, assignment, &HashMap::new(), SNAP_LADDER[0])
}

/// The exact-rational assignment of one rung of the snap ladder: pinned
/// unknowns keep their exact value, the rest round from `assignment`.
fn round_with(
    system: &QuadraticSystem,
    assignment: &[f64],
    pins: &HashMap<UnknownId, Rational>,
    policy: SnapPolicy,
) -> Vec<Rational> {
    system
        .registry
        .iter()
        .map(|(id, kind)| {
            if let Some(&pinned) = pins.get(&id) {
                return pinned;
            }
            let value = assignment.get(id.index()).copied().unwrap_or(0.0);
            let is_template = matches!(
                kind,
                UnknownKind::Template { .. } | UnknownKind::PostTemplate { .. }
            );
            if is_template {
                if let Some(grid) = policy.snap_grid {
                    let grid_f = grid as f64;
                    let snapped = Rational::approximate((value * grid_f).round() / grid_f);
                    if (snapped.to_f64() - value).abs() < SNAP_THRESHOLD {
                        return snapped;
                    }
                }
            }
            dyadic(value, policy.dyadic_bits)
        })
        .collect()
}

/// Instantiates the invariant (and post-condition) templates of a generated
/// system at an exact assignment (normally a certificate's
/// [`ExactReport::values`]), dropping conjuncts that instantiate to zero.
pub fn instantiate_exact(
    program: &Program,
    generated: &GeneratedSystem,
    values: &[Rational],
) -> (InvariantMap, Postcondition) {
    let lookup = |u: UnknownId| values.get(u.index()).copied().unwrap_or_default();
    let mut invariant = InvariantMap::new();
    for function in program.functions() {
        for &label in function.labels() {
            let template = generated.templates.invariant(label);
            for poly in template.instantiate(&generated.mono_table, lookup) {
                if !poly.is_zero() {
                    invariant.add(label, poly);
                }
            }
        }
    }
    let mut postconditions = Postcondition::new();
    for (name, template) in &generated.templates.postconditions {
        for poly in template.instantiate(&generated.mono_table, lookup) {
            if !poly.is_zero() {
                postconditions.add(name, poly);
            }
        }
    }
    (invariant, postconditions)
}

/// Re-checks a solved system exactly, down the coarse-to-fine snap ladder:
/// the first rounding whose assignment passes wins (its report, with the
/// checked point in [`ExactReport::values`], is returned). Unknowns in
/// `pins` enter that point with their exact pinned value, unrounded.
/// When none passes, the report of the policy with the smallest exact
/// violation is returned — non-overflowing reports always beat overflowing
/// ones — so "how close was the best rounding" survives into diagnostics.
pub fn exact_recheck_ladder(
    system: &QuadraticSystem,
    assignment: &[f64],
    pins: &HashMap<UnknownId, Rational>,
    config: &ExactCheckConfig,
) -> ExactReport {
    let mut best: Option<ExactReport> = None;
    for policy in SNAP_LADDER {
        let report = exact_recheck_with(system, assignment, pins, config, policy);
        if report.passed() {
            return report;
        }
        let better = match &best {
            None => true,
            Some(current) => {
                (!report.overflowed && current.overflowed)
                    || (report.overflowed == current.overflowed
                        && report.worst_violation < current.worst_violation)
            }
        };
        if better {
            best = Some(report);
        }
    }
    best.expect("the snap ladder is never empty")
}

/// Substitutes one rung's rounding of `assignment` into every equality and
/// inequality and measures the worst violation in exact rational
/// arithmetic.
fn exact_recheck_with(
    system: &QuadraticSystem,
    assignment: &[f64],
    pins: &HashMap<UnknownId, Rational>,
    config: &ExactCheckConfig,
    policy: SnapPolicy,
) -> ExactReport {
    let values = round_with(system, assignment, pins, policy);
    let mut worst_violation = Rational::zero();
    let mut worst_constraint = String::new();
    let mut overflowed = false;
    // The description is formatted only when a row becomes the new worst,
    // not once per constraint.
    let mut consider = |violation: Option<Rational>, kind: &str, index: usize| match violation {
        None => overflowed = true,
        Some(violation) => {
            if violation > worst_violation {
                worst_violation = violation;
                worst_constraint = format!("{kind} #{index}");
            }
        }
    };
    let value_of = |u: UnknownId| values.get(u.index()).copied().unwrap_or_default();
    for (index, eq) in system.equalities.iter().enumerate() {
        let violation = eq.checked_eval_rational(value_of).map(|v| v.abs());
        consider(violation, "equality", index);
    }
    for (index, ineq) in system.inequalities.iter().enumerate() {
        let violation = ineq.checked_eval_rational(value_of).map(|v| {
            if v.is_negative() {
                -v
            } else {
                Rational::zero()
            }
        });
        consider(violation, "inequality", index);
    }
    ExactReport {
        constraints: system.size(),
        worst_violation,
        worst_constraint,
        tolerance: config.tolerance,
        overflowed,
        rounding: policy.describe(),
        values,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::UnknownRegistry;
    use polyinv_poly::LinExpr;

    fn no_pins() -> HashMap<UnknownId, Rational> {
        HashMap::new()
    }

    /// A certificate that accepts exact violations up to `numer/denom`.
    fn tolerance(numer: i128, denom: i128) -> ExactCheckConfig {
        ExactCheckConfig {
            tolerance: Rational::new(numer, denom),
        }
    }

    fn tiny_system() -> QuadraticSystem {
        let mut registry = UnknownRegistry::new();
        let u = registry.fresh(UnknownKind::Witness { pair: 0 });
        let v = registry.fresh(UnknownKind::Witness { pair: 1 });
        let mut system = QuadraticSystem::new(registry);
        // u·v - 1 = 0 and u ≥ 0.
        let mut eq = LinExpr::unknown(u).mul(&LinExpr::unknown(v)).unwrap();
        eq.add_constant(Rational::from_int(-1)).unwrap();
        system.equalities.push(eq);
        system.inequalities.push(
            LinExpr::unknown(u)
                .mul(&LinExpr::constant(Rational::one()))
                .unwrap(),
        );
        system
    }

    #[test]
    fn exact_satisfaction_passes_with_zero_violation() {
        let system = tiny_system();
        let report = exact_recheck_ladder(&system, &[2.0, 0.5], &no_pins(), &tolerance(1, 1000));
        assert!(report.passed());
        assert_eq!(report.worst_violation, Rational::zero());
        assert_eq!(report.constraints, 2);
        // The report carries the point it checked.
        assert_eq!(
            report.values,
            vec![Rational::from_int(2), Rational::new(1, 2)]
        );
    }

    #[test]
    fn near_satisfaction_is_measured_exactly_and_tolerated() {
        let system = tiny_system();
        // u·v = 1 + ~2e-7: within a 1/1000 tolerance, measured exactly.
        let report =
            exact_recheck_ladder(&system, &[2.0, 0.5 + 1e-7], &no_pins(), &tolerance(1, 1000));
        assert!(report.passed());
        assert!(report.worst_violation > Rational::zero());
        assert!(report.worst_violation < Rational::new(1, 1_000_000));
    }

    #[test]
    fn gross_violations_fail_and_name_the_constraint() {
        let system = tiny_system();
        let report = exact_recheck_ladder(&system, &[-1.0, 1.0], &no_pins(), &tolerance(1, 1000));
        assert!(!report.passed());
        assert_eq!(report.worst_violation, Rational::from_int(2));
        assert_eq!(report.worst_constraint, "equality #0");
        // The inequality u >= 0 is also violated, by 1.
        let tight = exact_recheck_ladder(&system, &[-1.0, -1.0], &no_pins(), &tolerance(0, 1));
        assert!(!tight.passed());
    }

    #[test]
    fn the_snap_ladder_escalates_to_a_finer_snap_grid() {
        // t = 1/256 exactly; the float candidate is 1e-5 off. The k/64 rung
        // cannot snap (no grid point within the threshold) so it rounds
        // dyadically and keeps the 1e-5 error, which the 1024× coefficient
        // amplifies past the tolerance; the k/256 rung snaps to the exact
        // point and certifies.
        let mut registry = UnknownRegistry::new();
        let t = registry.fresh(UnknownKind::PostTemplate {
            function: "f".to_string(),
            conjunct: 0,
            monomial: 0,
        });
        let mut system = QuadraticSystem::new(registry);
        let mut eq = LinExpr::unknown(t)
            .mul(&LinExpr::constant(Rational::from_int(1024)))
            .unwrap();
        eq.add_constant(Rational::from_int(-4)).unwrap();
        system.equalities.push(eq);
        let candidate = [1.0 / 256.0 + 1e-5];
        let config = tolerance(1, 1000);
        let coarse = exact_recheck_with(&system, &candidate, &no_pins(), &config, SNAP_LADDER[0]);
        assert!(!coarse.passed(), "the k/64 policy alone must fail here");
        let report = exact_recheck_ladder(&system, &candidate, &no_pins(), &config);
        assert!(report.passed());
        assert_eq!(report.rounding, "snap/256+dyadic24");
        // The passing rung's point is the one reported, not the first rung's.
        assert_eq!(report.values, vec![Rational::new(1, 256)]);
        assert_ne!(
            report.values,
            exact_assignment(&system, &candidate, &config)
        );
    }

    #[test]
    fn the_snap_ladder_raises_the_dyadic_resolution_when_needed() {
        // u = 2^-28 needs more than 24 bits of denominator: the 2^24 dyadic
        // rounding collapses it to 0 and the 2^28 coefficient turns that
        // into a violation of 1; the final 2^32 rung represents it exactly.
        let mut registry = UnknownRegistry::new();
        let u = registry.fresh(UnknownKind::Witness { pair: 0 });
        let mut system = QuadraticSystem::new(registry);
        let mut eq = LinExpr::unknown(u)
            .mul(&LinExpr::constant(Rational::from_int(1i64 << 28)))
            .unwrap();
        eq.add_constant(Rational::from_int(-1)).unwrap();
        system.equalities.push(eq);
        let candidate = [1.0 / (1u64 << 28) as f64];
        let config = tolerance(1, 1000);
        assert!(
            !exact_recheck_with(&system, &candidate, &no_pins(), &config, SNAP_LADDER[0]).passed()
        );
        let report = exact_recheck_ladder(&system, &candidate, &no_pins(), &config);
        assert!(report.passed());
        assert_eq!(report.rounding, "dyadic32");
    }

    #[test]
    fn an_uncertifiable_point_reports_its_best_rung() {
        // No rounding can fix a gross violation; the ladder returns the
        // rung with the smallest exact violation for diagnostics.
        let system = tiny_system();
        let report = exact_recheck_ladder(&system, &[-1.0, 1.0], &no_pins(), &tolerance(1, 1000));
        assert!(!report.passed());
        assert_eq!(report.worst_violation, Rational::from_int(2));
        assert!(!report.rounding.is_empty());
    }

    #[test]
    fn pinned_unknowns_enter_the_certificate_exactly() {
        // A target coefficient pinned to 17/50: its float value 0.34 is on
        // no snap grid, so rounding it would certify a dyadic neighbour
        // (5704253/2^24, violating 50·t − 17 = 0 by 22/2^24). The pin is
        // taken as given instead.
        let mut registry = UnknownRegistry::new();
        let t = registry.fresh(UnknownKind::Template {
            label: polyinv_lang::Label::new(0),
            conjunct: 0,
            monomial: 0,
        });
        let mut system = QuadraticSystem::new(registry);
        let mut eq = LinExpr::unknown(t)
            .mul(&LinExpr::constant(Rational::from_int(50)))
            .unwrap();
        eq.add_constant(Rational::from_int(-17)).unwrap();
        system.equalities.push(eq);
        let pins = HashMap::from([(t, Rational::new(17, 50))]);
        let report = exact_recheck_ladder(&system, &[0.34], &pins, &tolerance(1, 1000));
        assert_eq!(report.values[t.index()], Rational::new(17, 50));
        assert_eq!(report.worst_violation, Rational::zero());
        assert!(report.passed());
    }

    #[test]
    fn dyadic_rounding_is_exact_on_dyadic_floats() {
        assert_eq!(dyadic(0.5, 24), Rational::new(1, 2));
        assert_eq!(dyadic(-0.25, 24), Rational::new(-1, 4));
        assert_eq!(dyadic(3.0, 24), Rational::from_int(3));
        assert_eq!(dyadic(f64::NAN, 24), Rational::zero());
        // Error is bounded by 2^-25.
        let approx = dyadic(0.1, 24);
        assert!((approx.to_f64() - 0.1).abs() < 1.0 / (1u64 << 24) as f64);
    }
}
