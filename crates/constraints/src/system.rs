//! The quadratic system produced by the Putinar translation.

use polyinv_poly::{QuadExpr, UnknownId};

use crate::unknowns::UnknownRegistry;

/// A symmetric positive-semidefinite block constraint over a set of
/// unknowns: the matrix whose `(i, j)` entry is the unknown
/// `entries[upper_index(i, j)]` must be PSD.
///
/// PSD blocks only appear in the Gram encoding
/// ([`crate::SosEncoding::Gram`]); the Cholesky encoding expresses the same
/// requirement through quadratic equalities and diagonal inequalities, as in
/// the paper.
#[derive(Debug, Clone)]
pub struct PsdBlock {
    /// The constraint pair this block belongs to.
    pub pair: usize,
    /// The multiplier index within the pair (`0` is `h₀`).
    pub multiplier: usize,
    /// The dimension of the Gram matrix.
    pub dim: usize,
    /// Upper-triangle entries in row-major order
    /// (`(0,0), (0,1) … (0,dim-1), (1,1), …`).
    pub entries: Vec<UnknownId>,
}

impl PsdBlock {
    /// The unknown at position `(row, col)` of the symmetric matrix.
    pub fn unknown(&self, row: usize, col: usize) -> UnknownId {
        let (r, c) = if row <= col { (row, col) } else { (col, row) };
        // Index of (r, c) with r <= c in the row-major upper triangle.
        let offset = r * self.dim + c - r * (r + 1) / 2;
        self.entries[offset]
    }

    /// The number of stored (upper-triangle) entries.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }
}

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
    /// PSD block constraints (Gram encoding only).
    pub psd_blocks: Vec<PsdBlock>,
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
            psd_blocks: Vec::new(),
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
    /// constraints. PSD blocks are not included (they are checked by the
    /// solver through eigenvalue computations).
    pub fn max_violation(&self, assignment: &[f64]) -> f64 {
        let lookup = |u: UnknownId| assignment.get(u.index()).copied().unwrap_or(0.0);
        let mut worst: f64 = 0.0;
        for eq in &self.equalities {
            worst = worst.max(eq.eval(lookup).abs());
        }
        for ineq in &self.inequalities {
            worst = worst.max((-ineq.eval(lookup)).max(0.0));
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
    fn psd_block_indexing_is_symmetric() {
        let mut registry = UnknownRegistry::new();
        let dim = 3;
        let mut entries = Vec::new();
        for row in 0..dim {
            for col in row..dim {
                entries.push(registry.fresh(UnknownKind::Gram {
                    pair: 0,
                    multiplier: 0,
                    row,
                    col,
                }));
            }
        }
        let block = PsdBlock {
            pair: 0,
            multiplier: 0,
            dim,
            entries,
        };
        assert_eq!(block.num_entries(), 6);
        assert_eq!(block.unknown(1, 2), block.unknown(2, 1));
        assert_eq!(block.unknown(0, 0).index(), 0);
        assert_eq!(block.unknown(2, 2).index(), 5);
    }

    #[test]
    fn violation_measurement() {
        let mut registry = UnknownRegistry::new();
        let u = registry.fresh(UnknownKind::Witness { pair: 0 });
        let mut system = QuadraticSystem::new(registry);
        // u - 2 = 0 and u >= 0.
        system.equalities.push(
            LinExpr::unknown(u).mul(&LinExpr::constant(Rational::one()))
                + QuadExpr::constant(Rational::from_int(-2)),
        );
        system
            .inequalities
            .push(LinExpr::unknown(u).mul(&LinExpr::constant(Rational::one())));
        assert_eq!(system.max_violation(&[2.0]), 0.0);
        assert!((system.max_violation(&[0.0]) - 2.0).abs() < 1e-12);
        assert!((system.max_violation(&[3.0]) - 1.0).abs() < 1e-12);
        assert!((system.max_violation(&[-1.0]) - 3.0).abs() < 1e-12);
        assert_eq!(system.size(), 2);
    }
}
