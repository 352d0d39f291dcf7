//! The typed artifacts passed between pipeline stages.
//!
//! Each of the paper's steps produces one artifact:
//!
//! 1. templates   → [`TemplateArtifact`]
//! 2. pairs       → [`ConstraintPairs`]
//! 3. reduction   → [`GeneratedSystem`] (re-exported from
//!    `polyinv-constraints`; it owns the quadratic system plus everything
//!    needed to interpret its solutions)
//!
//! Step 4 is the solve orchestrator ([`super::Orchestrator`]); it returns an
//! [`super::OrchestratorOutcome`] built with [`instantiate_solution`].

use polyinv_constraints::pairs::PairKind;
use polyinv_constraints::template::TemplateSet;
use polyinv_constraints::{ConstraintPair, UnknownRegistry};
use polyinv_lang::{InvariantMap, Postcondition, Program};
use polyinv_poly::UnknownId;

pub use polyinv_constraints::GeneratedSystem;

use crate::bridge::round_assignment;

/// Step 1 output: the invariant (and post-condition) templates together
/// with the unknown registry that owns their coefficient unknowns.
#[derive(Debug, Clone)]
pub struct TemplateArtifact {
    /// The templates: `η(ℓ)` per label, `µ(f)` per function when recursive.
    pub templates: TemplateSet,
    /// The registry of unknowns allocated so far (the s-variables). The
    /// reduction stage keeps allocating into it (t-, l- and ε-variables).
    pub registry: UnknownRegistry,
}

impl TemplateArtifact {
    /// Number of label templates instantiated (one per label of every
    /// function).
    pub fn num_invariant_templates(&self) -> usize {
        self.templates.invariants.len()
    }

    /// Number of post-condition templates (recursive programs only).
    pub fn num_postcondition_templates(&self) -> usize {
        self.templates.postconditions.len()
    }

    /// Number of template-coefficient unknowns allocated by Step 1.
    pub fn num_unknowns(&self) -> usize {
        self.registry.len()
    }
}

/// Step 2 output: the constraint pairs `(Γ, g)` encoding every initiation
/// and consecution requirement.
#[derive(Debug, Clone)]
pub struct ConstraintPairs {
    /// The pairs, in translation order (unknown names reference this order).
    pub pairs: Vec<ConstraintPair>,
}

impl ConstraintPairs {
    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// `true` when no pairs were generated.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Number of pairs of one kind (initiation, consecution, …).
    pub fn count_kind(&self, kind: PairKind) -> usize {
        self.pairs.iter().filter(|p| p.kind == kind).count()
    }
}

/// Instantiates the templates of a generated system under a numeric
/// assignment of the unknowns, returning the invariant map and
/// post-conditions. Conjuncts that instantiate to the zero polynomial are
/// dropped.
pub fn instantiate_solution(
    program: &Program,
    generated: &GeneratedSystem,
    assignment: &[f64],
) -> (InvariantMap, Postcondition) {
    let rounded = round_assignment(assignment);
    let lookup = |u: UnknownId| rounded[u.index()];
    let mut invariant = InvariantMap::new();
    for function in program.functions() {
        for &label in function.labels() {
            let template = generated.templates.invariant(label);
            for poly in template.instantiate(lookup) {
                if !poly.is_zero() {
                    invariant.add(label, poly);
                }
            }
        }
    }
    let mut postconditions = Postcondition::new();
    for (name, template) in &generated.templates.postconditions {
        for poly in template.instantiate(lookup) {
            if !poly.is_zero() {
                postconditions.add(name, poly);
            }
        }
    }
    (invariant, postconditions)
}
