//! Step 1 / Step 1.a: invariant and post-condition templates.

use std::collections::HashMap;

use polyinv_arith::Rational;
use polyinv_lang::{Label, Program};
use polyinv_poly::{IntTemplate, LinExpr, MonoId, MonomialTable, Polynomial, UnknownId, VarId};

use crate::unknowns::{UnknownKind, UnknownRegistry};

/// The template attached to one label (or one function post-condition):
/// a conjunction of `n` strict inequalities, each a polynomial of degree at
/// most `d` with unknown coefficients.
#[derive(Debug, Clone)]
pub struct LabelTemplate {
    /// The conjuncts `φ_{ℓ,1} … φ_{ℓ,n}`; each template polynomial is
    /// required to be `> 0`. Interned in the run's [`MonomialTable`].
    pub conjuncts: Vec<IntTemplate>,
    /// The monomial basis the template ranges over (shared by all
    /// conjuncts), in the same order as the `monomial` index of the
    /// corresponding s-variables (graded-lexicographic).
    pub basis: Vec<MonoId>,
}

impl LabelTemplate {
    /// The s-variable holding the coefficient of `monomial` in conjunct
    /// `conjunct`, if it exists.
    pub fn coefficient_unknown(&self, conjunct: usize, monomial: MonoId) -> Option<UnknownId> {
        let terms = self.conjuncts.get(conjunct)?.terms();
        let pos = terms.binary_search_by_key(&monomial, |&(m, _)| m).ok()?;
        let coeff = &terms[pos].1;
        match coeff.terms() {
            &[(unknown, _)] if coeff.constant_part().is_zero() => Some(unknown),
            _ => None,
        }
    }

    /// Instantiates every conjunct with a concrete assignment of the
    /// unknowns.
    pub fn instantiate<F>(&self, table: &MonomialTable, mut assignment: F) -> Vec<Polynomial>
    where
        F: FnMut(UnknownId) -> Rational,
    {
        self.conjuncts
            .iter()
            .map(|c| c.instantiate(table, &mut assignment))
            .collect()
    }
}

/// The full template set of a synthesis problem: one [`LabelTemplate`] per
/// label and (for recursive synthesis) one per function post-condition.
#[derive(Debug, Clone, Default)]
pub struct TemplateSet {
    /// Invariant templates `η(ℓ)`.
    pub invariants: HashMap<Label, LabelTemplate>,
    /// Post-condition templates `µ(f)`, keyed by function name.
    pub postconditions: HashMap<String, LabelTemplate>,
}

impl TemplateSet {
    /// Builds the invariant templates of Step 1 (and, when `recursive` is
    /// set, the post-condition templates of Step 1.a) into the run's
    /// monomial table.
    ///
    /// * `degree` — the maximum degree `d` of the invariant polynomials;
    /// * `size` — the number `n` of conjuncts per label;
    /// * `recursive` — whether post-condition templates are needed.
    pub fn build(
        program: &Program,
        registry: &mut UnknownRegistry,
        degree: u32,
        size: usize,
        recursive: bool,
        table: &mut MonomialTable,
    ) -> TemplateSet {
        let mut set = TemplateSet::default();
        for function in program.functions() {
            let basis = table.basis_up_to_degree(function.vars(), degree);
            for &label in function.labels() {
                let template = build_label_template(&basis, size, |conjunct, monomial| {
                    registry.fresh(UnknownKind::Template {
                        label,
                        conjunct,
                        monomial,
                    })
                });
                set.invariants.insert(label, template);
            }
            if recursive {
                // Post-conditions range over {ret_f, v̄₁ … v̄ₙ} only.
                let mut post_vars: Vec<VarId> = vec![function.ret_var()];
                post_vars.extend_from_slice(function.shadow_params());
                post_vars.sort();
                let post_basis = table.basis_up_to_degree(&post_vars, degree);
                let name = function.name().to_string();
                let template = build_label_template(&post_basis, size, |conjunct, monomial| {
                    registry.fresh(UnknownKind::PostTemplate {
                        function: name.clone(),
                        conjunct,
                        monomial,
                    })
                });
                set.postconditions.insert(name, template);
            }
        }
        set
    }

    /// The invariant template at a label.
    ///
    /// # Panics
    ///
    /// Panics if the label has no template (i.e. it does not belong to the
    /// program the set was built for).
    pub fn invariant(&self, label: Label) -> &LabelTemplate {
        self.invariants
            .get(&label)
            .expect("label has an invariant template")
    }

    /// The post-condition template of a function, if one was generated.
    pub fn postcondition(&self, function: &str) -> Option<&LabelTemplate> {
        self.postconditions.get(function)
    }
}

fn build_label_template<F>(basis: &[MonoId], size: usize, mut fresh: F) -> LabelTemplate
where
    F: FnMut(usize, usize) -> UnknownId,
{
    let mut conjuncts = Vec::with_capacity(size);
    for conjunct in 0..size {
        let mut poly = IntTemplate::zero();
        for (index, &monomial) in basis.iter().enumerate() {
            poly.add_term(monomial, LinExpr::unknown(fresh(conjunct, index)));
        }
        conjuncts.push(poly);
    }
    LabelTemplate {
        conjuncts,
        basis: basis.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_lang::parse_program;
    use polyinv_lang::program::{RECURSIVE_EXAMPLE_SOURCE, RUNNING_EXAMPLE_SOURCE};
    use polyinv_poly::Monomial;

    #[test]
    fn running_example_template_counts_match_example_6() {
        // Example 6 of the paper: a single quadratic template over
        // V^sum = {n, n̄, i, s, ret} has 21 monomials at each of the 9 labels.
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let mut registry = UnknownRegistry::new();
        let mut table = MonomialTable::new();
        let set = TemplateSet::build(&program, &mut registry, 2, 1, false, &mut table);
        assert_eq!(set.invariants.len(), 9);
        for template in set.invariants.values() {
            assert_eq!(template.conjuncts.len(), 1);
            assert_eq!(template.basis.len(), 21);
            assert_eq!(template.conjuncts[0].num_terms(), 21);
        }
        assert_eq!(registry.len(), 9 * 21);
        assert!(set.postconditions.is_empty());
    }

    #[test]
    fn recursive_example_gets_postcondition_template_of_example_11() {
        // Example 11: µ(rsum) is a quadratic template over {n̄, ret}, i.e. 6
        // monomials.
        let program = parse_program(RECURSIVE_EXAMPLE_SOURCE).unwrap();
        let mut registry = UnknownRegistry::new();
        let mut table = MonomialTable::new();
        let set = TemplateSet::build(&program, &mut registry, 2, 1, true, &mut table);
        let post = set.postcondition("rsum").expect("post-condition template");
        assert_eq!(post.basis.len(), 6);
        assert_eq!(post.conjuncts.len(), 1);
    }

    #[test]
    fn template_size_controls_number_of_conjuncts() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let mut registry = UnknownRegistry::new();
        let mut table = MonomialTable::new();
        let set = TemplateSet::build(&program, &mut registry, 1, 3, false, &mut table);
        for template in set.invariants.values() {
            assert_eq!(template.conjuncts.len(), 3);
            // Degree 1 over 5 variables: 6 monomials.
            assert_eq!(template.basis.len(), 6);
        }
    }

    #[test]
    fn coefficient_unknown_lookup_and_instantiation() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let mut registry = UnknownRegistry::new();
        let mut table = MonomialTable::new();
        let set = TemplateSet::build(&program, &mut registry, 1, 1, false, &mut table);
        let entry = program.main().entry_label();
        let template = set.invariant(entry);
        let constant_unknown = template
            .coefficient_unknown(0, MonoId::ONE)
            .expect("constant coefficient exists");
        // Instantiating with 1 for that unknown and 0 elsewhere gives the
        // constant polynomial 1.
        let polys = template.instantiate(&table, |u| {
            if u == constant_unknown {
                Rational::one()
            } else {
                Rational::zero()
            }
        });
        assert_eq!(polys.len(), 1);
        assert_eq!(polys[0], Polynomial::constant(Rational::one()));
    }

    #[test]
    fn unknown_numbering_follows_labels_conjuncts_and_the_grlex_basis() {
        // The s-unknowns are numbered label by label (program order), then
        // conjunct by conjunct, then along the graded-lexicographic basis
        // `Monomial::all_up_to_degree`; warm starts, reports and goldens
        // depend on this numbering.
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let mut registry = UnknownRegistry::new();
        let mut table = MonomialTable::new();
        let set = TemplateSet::build(&program, &mut registry, 2, 2, false, &mut table);
        let function = program.main();
        let reference = Monomial::all_up_to_degree(function.vars(), 2);
        let mut expected = Vec::new();
        for &label in function.labels() {
            let template = set.invariant(label);
            let basis: Vec<&Monomial> = template.basis.iter().map(|&m| table.monomial(m)).collect();
            assert_eq!(basis, reference.iter().collect::<Vec<_>>());
            for conjunct in 0..2 {
                for (monomial, &id) in template.basis.iter().enumerate() {
                    let unknown = template.coefficient_unknown(conjunct, id).unwrap();
                    assert_eq!(unknown.index(), expected.len());
                    expected.push(UnknownKind::Template {
                        label,
                        conjunct,
                        monomial,
                    });
                }
            }
        }
        let kinds: Vec<UnknownKind> = registry.iter().map(|(_, kind)| kind.clone()).collect();
        assert_eq!(kinds.len(), 9 * 2 * 21);
        assert_eq!(kinds, expected);
    }
}
