//! Target assertions of weak invariant synthesis (`WeakInvSynth` /
//! `RecWeakInvSynth`).
//!
//! The weak variant of the synthesis problem fixes an objective over the
//! template coefficients and asks for one invariant optimizing it. As in the
//! paper's evaluation, the objective used here is "prove the given target
//! assertion(s)": the template coefficients at the target labels are pinned
//! to the target's coefficients (the optimum of the paper's distance
//! objective), and the remaining quadratic system — whose solutions are the
//! inductive strengthenings — is handed to Step 4, the
//! [`Orchestrator`](crate::Orchestrator).

use std::collections::HashMap;

use polyinv_arith::Rational;
use polyinv_constraints::GeneratedSystem;
use polyinv_lang::Label;
use polyinv_poly::{Polynomial, UnknownId};

/// A target assertion `poly > 0` that the synthesized invariant must contain
/// at `label`.
#[derive(Debug, Clone)]
pub struct TargetAssertion {
    /// The label at which the assertion is required.
    pub label: Label,
    /// The polynomial `p` of the assertion `p > 0`.
    pub poly: Polynomial,
}

impl TargetAssertion {
    /// Creates a target assertion.
    pub fn new(label: Label, poly: Polynomial) -> Self {
        TargetAssertion { label, poly }
    }
}

/// Builds the map of s-variables pinned by the target assertions: for every
/// target, conjunct 0 (or the next free conjunct) of the template at the
/// target label is forced to equal the target polynomial coefficient-wise.
///
/// The orchestrator pins every rung this way; the map is public so that
/// other drivers (the presolve benches and tests) pin targets identically.
///
/// # Panics
///
/// Panics if a label receives more targets than the template has conjuncts,
/// or if a target mentions a monomial outside the template basis at its
/// label (e.g. a cubic target with a quadratic template).
pub fn fix_targets(
    generated: &GeneratedSystem,
    targets: &[TargetAssertion],
) -> HashMap<UnknownId, Rational> {
    let mut fixed = HashMap::new();
    let mut used_conjuncts: HashMap<Label, usize> = HashMap::new();
    let table = &generated.mono_table;
    for target in targets {
        let template = generated.templates.invariant(target.label);
        let conjunct = *used_conjuncts.entry(target.label).or_insert(0);
        used_conjuncts.insert(target.label, conjunct + 1);
        assert!(
            conjunct < template.conjuncts.len(),
            "more targets at {} than template conjuncts",
            target.label
        );
        for &monomial in &template.basis {
            let unknown = template
                .coefficient_unknown(conjunct, monomial)
                .expect("template coefficients are single unknowns");
            fixed.insert(unknown, target.poly.coefficient(table.monomial(monomial)));
        }
        // Every monomial of the target must be representable.
        for (monomial, _) in target.poly.iter() {
            assert!(
                template
                    .basis
                    .iter()
                    .any(|&m| table.monomial(m) == monomial),
                "target at {} uses monomial {} outside the degree-{} template",
                target.label,
                monomial,
                template
                    .basis
                    .iter()
                    .map(|&m| table.degree(m))
                    .max()
                    .unwrap_or(0)
            );
        }
    }
    fixed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use polyinv_constraints::{generate, SynthesisOptions};
    use polyinv_lang::program::RUNNING_EXAMPLE_SOURCE;
    use polyinv_lang::{parse_assertion, parse_program, Precondition};

    #[test]
    fn generate_only_reports_paper_scale_metrics() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let pipeline = Pipeline::default();
        let generated = pipeline
            .generate(&mut pipeline.context(&program, &pre))
            .unwrap();
        // |V^sum| = 5, matching the running example.
        assert_eq!(program.main().vars().len(), 5);
        assert!(generated.size() > 500);
    }

    #[test]
    fn fixing_targets_pins_whole_template_rows() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let generated = generate(&program, &pre, &SynthesisOptions::default()).unwrap();
        let exit = program.main().exit_label();
        let (poly, _) =
            parse_assertion(&program, "sum", "0.5*n_in*n_in + 0.5*n_in + 1 - ret > 0").unwrap();
        let fixed = fix_targets(&generated, &[TargetAssertion::new(exit, poly.clone())]);
        // All 21 coefficients of the exit template are pinned.
        assert_eq!(fixed.len(), 21);
        // The pinned values reproduce the target polynomial.
        let template = generated.templates.invariant(exit);
        let instantiated = template.instantiate(&generated.mono_table, |u| {
            fixed.get(&u).copied().unwrap_or_default()
        });
        assert_eq!(instantiated[0], poly);
    }

    #[test]
    #[should_panic(expected = "outside the degree")]
    fn cubic_target_with_quadratic_template_is_rejected() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let generated = generate(&program, &pre, &SynthesisOptions::default()).unwrap();
        let exit = program.main().exit_label();
        let (poly, _) = parse_assertion(&program, "sum", "n*n*n + 1 > 0").unwrap();
        fix_targets(&generated, &[TargetAssertion::new(exit, poly)]);
    }
}
