//! Registry of the unknown real variables introduced by the reduction.
//!
//! The paper's reduction introduces four families of unknowns:
//!
//! * **s-variables** — coefficients of the invariant templates `η(ℓ)` and of
//!   the post-condition templates `µ(f)` (Step 1 / 1.a);
//! * **t-variables** — coefficients of the Putinar multipliers `hᵢ`
//!   (Step 3);
//! * **l-variables** — entries of the lower-triangular Cholesky factor
//!   certifying that each `hᵢ` is a sum of squares (Section 3.1), so
//!   that `hᵢ = yᵀ·L·Lᵀ·y` is PSD by construction;
//! * **ε-variables** — the positivity witnesses of Corollary 3.2.
//!
//! The registry assigns a dense index space to all of them, keeps their
//! provenance for debugging and reporting, and provides readable names.

use polyinv_lang::Label;
use polyinv_poly::UnknownId;

/// The provenance of an unknown.
///
/// Kinds are `Eq + Hash` so a solution found at one ϒ-rung can be keyed by
/// provenance and replayed as a warm start at the next rung, where the same
/// unknown generally has a different dense index.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum UnknownKind {
    /// A template coefficient `s_{ℓ,i,j}`: conjunct `i`, monomial index `j`
    /// of the invariant template at label `ℓ`.
    Template {
        /// The label the template belongs to.
        label: Label,
        /// The conjunct index (`0 ≤ i < n`).
        conjunct: usize,
        /// The index of the monomial within the template basis.
        monomial: usize,
    },
    /// A post-condition template coefficient `s_{f,i,j}`.
    PostTemplate {
        /// The function the post-condition belongs to.
        function: String,
        /// The conjunct index.
        conjunct: usize,
        /// The index of the monomial within the template basis.
        monomial: usize,
    },
    /// A multiplier coefficient `t_{i,j}` of constraint pair `pair`,
    /// multiplier `multiplier`, monomial index `monomial`.
    Multiplier {
        /// The constraint-pair index.
        pair: usize,
        /// The multiplier index (`0` is `h₀`).
        multiplier: usize,
        /// The index of the monomial within `M_ϒ`.
        monomial: usize,
    },
    /// An entry `l_{r,c}` (row ≥ col) of the Cholesky factor of multiplier
    /// `multiplier` of constraint pair `pair`.
    Cholesky {
        /// The constraint-pair index.
        pair: usize,
        /// The multiplier index.
        multiplier: usize,
        /// Row of the entry.
        row: usize,
        /// Column of the entry (`col ≤ row`).
        col: usize,
    },
    /// The positivity witness `ε` of constraint pair `pair`.
    Witness {
        /// The constraint-pair index.
        pair: usize,
    },
}

/// A registry assigning dense [`UnknownId`]s to unknowns.
#[derive(Debug, Clone, Default)]
pub struct UnknownRegistry {
    kinds: Vec<UnknownKind>,
}

impl UnknownRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        UnknownRegistry { kinds: Vec::new() }
    }

    /// Registers a new unknown and returns its id.
    pub fn fresh(&mut self, kind: UnknownKind) -> UnknownId {
        let id = UnknownId::new(self.kinds.len());
        self.kinds.push(kind);
        id
    }

    /// The number of registered unknowns.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Returns `true` if no unknowns have been registered.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The provenance of an unknown.
    pub fn kind(&self, id: UnknownId) -> &UnknownKind {
        &self.kinds[id.index()]
    }

    /// Iterates over all `(id, kind)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (UnknownId, &UnknownKind)> {
        self.kinds
            .iter()
            .enumerate()
            .map(|(i, k)| (UnknownId::new(i), k))
    }

    /// All ids of template (s-variable) unknowns, including post-condition
    /// templates.
    pub fn template_unknowns(&self) -> Vec<UnknownId> {
        self.iter()
            .filter(|(_, kind)| {
                matches!(
                    kind,
                    UnknownKind::Template { .. } | UnknownKind::PostTemplate { .. }
                )
            })
            .map(|(id, _)| id)
            .collect()
    }

    /// A readable name for an unknown (`s[l3,0,2]`, `t[5,1,0]`, …).
    pub fn name(&self, id: UnknownId) -> String {
        match &self.kinds[id.index()] {
            UnknownKind::Template {
                label,
                conjunct,
                monomial,
            } => format!("s[{label},{conjunct},{monomial}]"),
            UnknownKind::PostTemplate {
                function,
                conjunct,
                monomial,
            } => format!("s[{function},{conjunct},{monomial}]"),
            UnknownKind::Multiplier {
                pair,
                multiplier,
                monomial,
            } => format!("t[{pair},{multiplier},{monomial}]"),
            UnknownKind::Cholesky {
                pair,
                multiplier,
                row,
                col,
            } => format!("l[{pair},{multiplier},{row},{col}]"),
            UnknownKind::Witness { pair } => format!("eps[{pair}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_assigns_dense_ids() {
        let mut registry = UnknownRegistry::new();
        let a = registry.fresh(UnknownKind::Witness { pair: 0 });
        let b = registry.fresh(UnknownKind::Multiplier {
            pair: 0,
            multiplier: 1,
            monomial: 2,
        });
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.name(a), "eps[0]");
        assert_eq!(registry.name(b), "t[0,1,2]");
    }

    #[test]
    fn template_unknowns_are_filtered() {
        let mut registry = UnknownRegistry::new();
        let s = registry.fresh(UnknownKind::Template {
            label: Label::new(3),
            conjunct: 0,
            monomial: 1,
        });
        registry.fresh(UnknownKind::Witness { pair: 0 });
        let p = registry.fresh(UnknownKind::PostTemplate {
            function: "f".to_string(),
            conjunct: 0,
            monomial: 0,
        });
        assert_eq!(registry.template_unknowns(), vec![s, p]);
        assert_eq!(registry.name(s), "s[l3,0,1]");
    }
}
