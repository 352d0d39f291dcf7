//! The quadratic system produced by the Putinar translation.

use polyinv_poly::{QuadExpr, UnknownId};

use crate::unknowns::UnknownRegistry;

/// A system of quadratic equalities and inequalities over the unknowns
/// introduced by the reduction — the object handed to the QCLP solver in
/// Step 4.
#[derive(Debug, Clone)]
pub struct QuadraticSystem {
    /// The registry describing every unknown.
    pub registry: UnknownRegistry,
    /// Equality constraints `expr = 0`.
    pub equalities: Vec<QuadExpr>,
    /// Inequality constraints `expr ≥ 0`.
    pub inequalities: Vec<QuadExpr>,
    /// The number of constraint pairs the system was generated from.
    pub num_pairs: usize,
}

impl QuadraticSystem {
    /// Creates an empty system.
    pub fn new(registry: UnknownRegistry) -> Self {
        QuadraticSystem {
            registry,
            equalities: Vec::new(),
            inequalities: Vec::new(),
            num_pairs: 0,
        }
    }

    /// The number of unknowns.
    pub fn num_unknowns(&self) -> usize {
        self.registry.len()
    }

    /// The size `|S|` of the system: the number of quadratic equalities and
    /// inequalities (the quantity reported in Tables 2 and 3 of the paper).
    pub fn size(&self) -> usize {
        self.equalities.len() + self.inequalities.len()
    }

    /// Evaluates the worst violation of the system under an assignment:
    /// the maximum of `|equality|` and `max(0, -inequality)` over all
    /// constraints. The sum-of-squares conditions are part of these rows:
    /// the Cholesky encoding writes each multiplier as `yᵀ·L·Lᵀ·y`, PSD by
    /// construction, so nothing outside the rows remains to check. A NaN
    /// row value counts as +∞: `f64::max` would drop it and pass the row.
    pub fn max_violation(&self, assignment: &[f64]) -> f64 {
        let lookup = |u: UnknownId| assignment.get(u.index()).copied().unwrap_or(0.0);
        let mut worst: f64 = 0.0;
        for eq in &self.equalities {
            let value = eq.eval(lookup);
            if value.is_nan() {
                return f64::INFINITY;
            }
            worst = worst.max(value.abs());
        }
        for ineq in &self.inequalities {
            let value = ineq.eval(lookup);
            if value.is_nan() {
                return f64::INFINITY;
            }
            worst = worst.max((-value).max(0.0));
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unknowns::UnknownKind;
    use polyinv_arith::Rational;
    use polyinv_poly::LinExpr;

    #[test]
    fn violation_measurement() {
        let mut registry = UnknownRegistry::new();
        let u = registry.fresh(UnknownKind::Witness { pair: 0 });
        let mut system = QuadraticSystem::new(registry);
        // u - 2 = 0 and u >= 0.
        let mut shifted = LinExpr::unknown(u)
            .mul(&LinExpr::constant(Rational::one()))
            .unwrap();
        shifted.add_constant(Rational::from_int(-2)).unwrap();
        system.equalities.push(shifted);
        system.inequalities.push(
            LinExpr::unknown(u)
                .mul(&LinExpr::constant(Rational::one()))
                .unwrap(),
        );
        assert_eq!(system.max_violation(&[2.0]), 0.0);
        assert!((system.max_violation(&[0.0]) - 2.0).abs() < 1e-12);
        assert!((system.max_violation(&[3.0]) - 1.0).abs() < 1e-12);
        assert!((system.max_violation(&[-1.0]) - 3.0).abs() < 1e-12);
        assert_eq!(system.size(), 2);
        // A NaN unknown makes both rows NaN; neither may pass as satisfied.
        assert_eq!(system.max_violation(&[f64::NAN]), f64::INFINITY);
    }

    #[test]
    fn a_nan_inequality_alone_is_a_violation() {
        let mut registry = UnknownRegistry::new();
        let u = registry.fresh(UnknownKind::Witness { pair: 0 });
        let mut system = QuadraticSystem::new(registry);
        system.inequalities.push(
            LinExpr::unknown(u)
                .mul(&LinExpr::constant(Rational::one()))
                .unwrap(),
        );
        assert_eq!(system.max_violation(&[1.0]), 0.0);
        assert_eq!(system.max_violation(&[f64::NAN]), f64::INFINITY);
    }
}
