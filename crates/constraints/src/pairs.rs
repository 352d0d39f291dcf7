//! Step 2 / 2.a / 2.b: generation of constraint pairs.
//!
//! A constraint pair `(Γ, g)` encodes the requirement
//! `∀ν. (⋀_{gᵢ ∈ Γ} gᵢ(ν) ≥ 0) ⇒ g(ν) > 0`, where the polynomials have
//! coefficients that are affine in the template unknowns. The paper builds
//! one set of pairs per CFG transition (consecution), one for each function
//! entry (initiation), one per function-call transition (call consecution,
//! Step 2.a) and one per return transition (post-condition consecution,
//! Step 2.b).
//!
//! Pair polynomials are [`IntTemplate`]s over
//! [`MonoId`](polyinv_poly::MonoId)s of the run's [`MonomialTable`], the
//! table the Step 1 templates were built into: substitutions, products and
//! accumulations all happen on dense ids, and the pre-condition atoms are
//! interned once per label instead of cloned per transition.

use std::collections::{HashMap, HashSet};

use polyinv_lang::cfg::{Cfg, Transition, TransitionKind};
use polyinv_lang::guard::Atom;
use polyinv_lang::{Label, Precondition, Program};
use polyinv_poly::{IntPoly, IntTemplate, MonomialTable, VarId};

use crate::error::ConstraintError;
use crate::template::TemplateSet;

/// The provenance of a constraint pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairKind {
    /// Initiation at a function entry label.
    Initiation,
    /// Consecution along an ordinary CFG transition.
    Consecution,
    /// Consecution across an abstracted function call (Step 2.a).
    CallConsecution,
    /// Post-condition consecution at a return transition (Step 2.b).
    PostConsecution,
}

/// A constraint pair `(Γ, g)` over interned template polynomials.
#[derive(Debug, Clone)]
pub struct ConstraintPair {
    /// The antecedent `Γ`: each entry is required to be `≥ 0`.
    pub context: Vec<IntTemplate>,
    /// The consequent `g`, required to be `> 0`.
    pub goal: IntTemplate,
    /// Provenance.
    pub kind: PairKind,
    /// Human-readable description (source/target label, transition kind).
    pub description: String,
    /// The program variables over which the Putinar multipliers range.
    pub scope_vars: Vec<VarId>,
}

impl ConstraintPair {
    /// Assembles a pair, computing the multiplier scope from the variables
    /// of the context and goal.
    pub fn new(
        context: Vec<IntTemplate>,
        goal: IntTemplate,
        kind: PairKind,
        description: String,
        table: &MonomialTable,
    ) -> Self {
        let mut scope: HashSet<VarId> = HashSet::new();
        for entry in &context {
            scope.extend(entry.variables(table));
        }
        scope.extend(goal.variables(table));
        let mut scope_vars: Vec<VarId> = scope.into_iter().collect();
        scope_vars.sort();
        ConstraintPair {
            context,
            goal,
            kind,
            description,
            scope_vars,
        }
    }
}

/// Options controlling pair generation.
#[derive(Debug, Clone, Copy)]
pub struct PairOptions {
    /// Generate the recursive variants (Steps 1.a, 2.a and 2.b). Required
    /// whenever the program contains function-call statements.
    pub recursive: bool,
}

/// Generates all constraint pairs of the program into `table`'s id space.
///
/// This corresponds to Step 2 of `StrongInvSynth` plus, when
/// `options.recursive` is set, Steps 2.a and 2.b of `RecStrongInvSynth`.
///
/// # Errors
///
/// Returns [`ConstraintError::CallsRequireRecursiveMode`] if the program
/// contains function calls but `options.recursive` is not set, and
/// [`ConstraintError::MissingPostcondition`] /
/// [`ConstraintError::UnknownCallee`] if a call's callee cannot be resolved
/// against the template set.
pub fn generate_pairs(
    program: &Program,
    cfg: &Cfg,
    pre: &Precondition,
    templates: &TemplateSet,
    options: PairOptions,
    table: &mut MonomialTable,
) -> Result<Vec<ConstraintPair>, ConstraintError> {
    let mut generator = PairGenerator {
        program,
        pre,
        templates,
        options,
        next_fresh_var: program.var_table().len(),
        pairs: Vec::new(),
        pre_cache: HashMap::new(),
        table,
    };
    // Initiation pairs (for fmain in the non-recursive case; for every
    // function in the recursive case — a non-recursive program has a single
    // function, so generating them for all functions is uniform).
    for function in program.functions() {
        generator.initiation(function.entry_label());
    }
    // Consecution pairs along every CFG transition.
    for transition in cfg.transitions() {
        generator.transition(transition)?;
    }
    Ok(generator.pairs)
}

struct PairGenerator<'a> {
    program: &'a Program,
    pre: &'a Precondition,
    templates: &'a TemplateSet,
    options: PairOptions,
    next_fresh_var: usize,
    pairs: Vec<ConstraintPair>,
    /// Interned (relaxed) pre-condition atoms per label.
    pre_cache: HashMap<Label, Vec<IntTemplate>>,
    table: &'a mut MonomialTable,
}

impl PairGenerator<'_> {
    fn fresh_var(&mut self) -> VarId {
        let id = VarId::new(self.next_fresh_var);
        self.next_fresh_var += 1;
        id
    }

    fn push_pair(
        &mut self,
        context: Vec<IntTemplate>,
        goal: IntTemplate,
        kind: PairKind,
        description: String,
    ) {
        self.pairs.push(ConstraintPair::new(
            context,
            goal,
            kind,
            description,
            self.table,
        ));
    }

    /// The pre-condition of a label, lifted to (constant-coefficient)
    /// interned template polynomials with strict atoms relaxed. Interned
    /// once per label.
    fn pre_templates(&mut self, label: Label) -> Vec<IntTemplate> {
        if let Some(cached) = self.pre_cache.get(&label) {
            return cached.clone();
        }
        let atoms: Vec<IntTemplate> = self
            .pre
            .get(label)
            .iter()
            .map(|atom| IntTemplate::from_polynomial(&atom.relaxed().poly, self.table))
            .collect();
        self.pre_cache.insert(label, atoms.clone());
        atoms
    }

    /// The pre-condition of a label with a substitution applied.
    fn pre_templates_substituted(
        &mut self,
        label: Label,
        subst: &[(VarId, IntPoly)],
    ) -> Vec<IntTemplate> {
        let atoms = self.pre_templates(label);
        atoms
            .iter()
            .map(|atom| substitute(atom, subst, self.table))
            .collect()
    }

    /// The invariant template conjuncts at a label (cloned; the conjunct
    /// lists are short and cloning unties them from `self`).
    fn invariant_conjuncts(&self, label: Label) -> Vec<IntTemplate> {
        self.templates
            .invariants
            .get(&label)
            .map(|template| template.conjuncts.clone())
            .unwrap_or_default()
    }

    fn initiation(&mut self, entry: Label) {
        let context = self.pre_templates(entry);
        for goal in self.invariant_conjuncts(entry) {
            self.push_pair(
                context.clone(),
                goal,
                PairKind::Initiation,
                format!("initiation at {entry}"),
            );
        }
    }

    fn transition(&mut self, transition: &Transition) -> Result<(), ConstraintError> {
        let from = transition.from;
        let to = transition.to;
        match &transition.kind {
            TransitionKind::Update(updates) => {
                self.update_transition(from, to, updates);
            }
            TransitionKind::Guard(formula) => {
                // The guard is rewritten in DNF; each disjunct contributes a
                // separate family of constraint pairs.
                for (index, disjunct) in formula.to_dnf().into_iter().enumerate() {
                    self.guard_transition(from, to, &disjunct, index);
                }
            }
            TransitionKind::Nondet => {
                let mut context = self.pre_templates(from);
                context.extend(self.invariant_conjuncts(from));
                context.extend(self.pre_templates(to));
                for goal in self.invariant_conjuncts(to) {
                    self.push_pair(
                        context.clone(),
                        goal,
                        PairKind::Consecution,
                        format!("nondet {from} -> {to}"),
                    );
                }
            }
            TransitionKind::Havoc(var) => {
                // The havoced variable takes an arbitrary value after the
                // transition; model it with a fresh variable v*.
                let fresh = self.fresh_var();
                let subst = vec![(*var, IntPoly::variable(fresh, self.table))];
                let mut context = self.pre_templates(from);
                context.extend(self.invariant_conjuncts(from));
                context.extend(self.pre_templates_substituted(to, &subst));
                for goal in self.invariant_conjuncts(to) {
                    let goal = substitute(&goal, &subst, self.table);
                    self.push_pair(
                        context.clone(),
                        goal,
                        PairKind::Consecution,
                        format!("havoc {from} -> {to}"),
                    );
                }
            }
            TransitionKind::Call { dest, callee, args } => {
                if !self.options.recursive {
                    return Err(ConstraintError::CallsRequireRecursiveMode {
                        label: from,
                        callee: callee.clone(),
                        line: self.program.line_of_label(from),
                    });
                }
                self.call_transition(from, to, *dest, callee, args)?;
            }
        }
        Ok(())
    }

    fn update_transition(
        &mut self,
        from: Label,
        to: Label,
        updates: &[(VarId, polyinv_poly::Polynomial)],
    ) {
        let subst: Vec<(VarId, IntPoly)> = updates
            .iter()
            .map(|(var, poly)| (*var, IntPoly::from_polynomial(poly, self.table)))
            .collect();
        let mut context = self.pre_templates(from);
        context.extend(self.invariant_conjuncts(from));
        context.extend(self.pre_templates_substituted(to, &subst));
        // Ordinary consecution into the invariant template of the target.
        for goal in self.invariant_conjuncts(to) {
            let goal = substitute(&goal, &subst, self.table);
            self.push_pair(
                context.clone(),
                goal,
                PairKind::Consecution,
                format!("update {from} -> {to}"),
            );
        }
        // Post-condition consecution (Step 2.b): return transitions target
        // the endpoint label of their function.
        if self.options.recursive {
            let function = self.program.label_function(from);
            if to == function.exit_label() {
                let templates = self.templates;
                if let Some(post) = templates.postcondition(function.name()) {
                    let name = function.name().to_string();
                    for goal in &post.conjuncts {
                        let goal = substitute(goal, &subst, self.table);
                        self.push_pair(
                            context.clone(),
                            goal,
                            PairKind::PostConsecution,
                            format!("post-condition of {name} via {from}"),
                        );
                    }
                }
            }
        }
    }

    fn guard_transition(&mut self, from: Label, to: Label, disjunct: &[Atom], index: usize) {
        let mut context = self.pre_templates(from);
        context.extend(self.invariant_conjuncts(from));
        context.extend(self.pre_templates(to));
        context.extend(
            disjunct
                .iter()
                .map(|atom| IntTemplate::from_polynomial(&atom.relaxed().poly, self.table)),
        );
        for goal in self.invariant_conjuncts(to) {
            self.push_pair(
                context.clone(),
                goal,
                PairKind::Consecution,
                format!("guard {from} -> {to} (disjunct {index})"),
            );
        }
    }

    fn call_transition(
        &mut self,
        from: Label,
        to: Label,
        dest: VarId,
        callee: &str,
        args: &[VarId],
    ) -> Result<(), ConstraintError> {
        let callee_fn =
            self.program
                .function(callee)
                .ok_or_else(|| ConstraintError::UnknownCallee {
                    label: from,
                    callee: callee.to_string(),
                })?;
        let templates = self.templates;
        let post = templates.postcondition(callee).ok_or_else(|| {
            ConstraintError::MissingPostcondition {
                label: from,
                callee: callee.to_string(),
            }
        })?;

        // v₀* models the value of `dest` after the call.
        let fresh = self.fresh_var();

        // Substitution for the callee's entry pre-condition:
        // parameters and shadow parameters are replaced by the caller's
        // argument variables.
        let params = callee_fn.params().to_vec();
        let shadows = callee_fn.shadow_params().to_vec();
        let mut entry_subst: Vec<(VarId, IntPoly)> = Vec::new();
        for (list, arg) in [(&params, args), (&shadows, args)] {
            for (pos, &param) in list.iter().enumerate() {
                entry_subst.push((param, IntPoly::variable(arg[pos], self.table)));
            }
        }
        // Atoms of the callee's entry pre-condition that only constrain the
        // values being passed in, i.e. whose variables are all parameters or
        // shadow parameters (the substitution domain). Atoms about the
        // callee's other variables describe the *callee frame* (locals and
        // `ret_g` are zero on entry) and say nothing about the caller's
        // state — importing them is unsound for self-recursive calls, where
        // the callee's locals are the caller's own variables. (Found by the
        // `polyinv-validate` fuzzer: the leaked `m = 0 ∧ ret = 0` facts let
        // the solver synthesize invariants that real runs falsify.)
        let subst_domain: HashSet<VarId> = params.iter().chain(shadows.iter()).copied().collect();
        let mut entry_pre: Vec<IntTemplate> = Vec::new();
        for poly in self.pre_templates(callee_fn.entry_label()) {
            let in_domain = poly
                .variables(self.table)
                .iter()
                .all(|v| subst_domain.contains(v));
            if in_domain {
                entry_pre.push(substitute(&poly, &entry_subst, self.table));
            }
        }

        // Substitution for the callee's post-condition template:
        // ret_f' ↦ v₀*, v̄'ᵢ ↦ argᵢ.
        let mut post_subst: Vec<(VarId, IntPoly)> =
            vec![(callee_fn.ret_var(), IntPoly::variable(fresh, self.table))];
        for (pos, &shadow) in shadows.iter().enumerate() {
            post_subst.push((shadow, IntPoly::variable(args[pos], self.table)));
        }
        let post_templates: Vec<IntTemplate> = post
            .conjuncts
            .iter()
            .map(|c| substitute(c, &post_subst, self.table))
            .collect();

        // Substitution replacing the destination variable by v₀* in the
        // target label's pre-condition and invariant template.
        let dest_subst = vec![(dest, IntPoly::variable(fresh, self.table))];

        let mut context = self.pre_templates(from);
        context.extend(self.invariant_conjuncts(from));
        context.extend(entry_pre);
        context.extend(post_templates);
        context.extend(self.pre_templates_substituted(to, &dest_subst));

        for goal in self.invariant_conjuncts(to) {
            let goal = substitute(&goal, &dest_subst, self.table);
            self.push_pair(
                context.clone(),
                goal,
                PairKind::CallConsecution,
                format!("call {callee} at {from} -> {to}"),
            );
        }
        Ok(())
    }
}

/// Applies a `variable ↦ polynomial` substitution to an interned template.
fn substitute(
    template: &IntTemplate,
    subst: &[(VarId, IntPoly)],
    table: &mut MonomialTable,
) -> IntTemplate {
    template.substitute(
        |v| subst.iter().find(|(var, _)| *var == v).map(|(_, p)| p),
        table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unknowns::UnknownRegistry;
    use polyinv_lang::parse_program;
    use polyinv_lang::program::{RECURSIVE_EXAMPLE_SOURCE, RUNNING_EXAMPLE_SOURCE};

    fn setup(
        source: &str,
        recursive: bool,
    ) -> (
        Program,
        Result<Vec<ConstraintPair>, ConstraintError>,
        MonomialTable,
    ) {
        let program = parse_program(source).unwrap();
        let cfg = Cfg::build(&program);
        let pre = Precondition::from_program(&program);
        let mut registry = UnknownRegistry::new();
        let mut table = MonomialTable::new();
        let templates = TemplateSet::build(&program, &mut registry, 2, 1, recursive, &mut table);
        let pairs = generate_pairs(
            &program,
            &cfg,
            &pre,
            &templates,
            PairOptions { recursive },
            &mut table,
        );
        (program, pairs, table)
    }

    fn setup_ok(source: &str, recursive: bool) -> (Program, Vec<ConstraintPair>, MonomialTable) {
        let (program, pairs, table) = setup(source, recursive);
        (program, pairs.expect("pair generation succeeds"), table)
    }

    #[test]
    fn running_example_produces_one_pair_per_transition_plus_initiation() {
        let (_, pairs, _) = setup_ok(RUNNING_EXAMPLE_SOURCE, false);
        // 10 CFG transitions (all guards are atomic, so one disjunct each)
        // + 1 initiation pair, with n = 1 conjunct per label.
        assert_eq!(pairs.len(), 11);
        assert_eq!(
            pairs
                .iter()
                .filter(|p| p.kind == PairKind::Initiation)
                .count(),
            1
        );
        // Every pair's scope contains at most |V^sum| + 1 variables.
        for pair in &pairs {
            assert!(pair.scope_vars.len() <= 6);
            assert!(!pair.goal.is_zero());
        }
    }

    #[test]
    fn initiation_pair_context_is_the_entry_precondition() {
        let (program, pairs, _) = setup_ok(RUNNING_EXAMPLE_SOURCE, false);
        let initiation = pairs
            .iter()
            .find(|p| p.kind == PairKind::Initiation)
            .unwrap();
        let pre = Precondition::from_program(&program);
        let entry = program.main().entry_label();
        assert_eq!(initiation.context.len(), pre.get(entry).len());
    }

    #[test]
    fn recursive_example_has_call_and_post_pairs() {
        let (_, pairs, _) = setup_ok(RECURSIVE_EXAMPLE_SOURCE, true);
        let call_pairs = pairs
            .iter()
            .filter(|p| p.kind == PairKind::CallConsecution)
            .count();
        let post_pairs = pairs
            .iter()
            .filter(|p| p.kind == PairKind::PostConsecution)
            .count();
        // One call statement, one conjunct -> one call-consecution pair.
        assert_eq!(call_pairs, 1);
        // Two return statements -> two post-condition consecution pairs.
        assert_eq!(post_pairs, 2);
    }

    #[test]
    fn call_pair_scope_contains_the_fresh_variable() {
        let (program, pairs, _) = setup_ok(RECURSIVE_EXAMPLE_SOURCE, true);
        let call_pair = pairs
            .iter()
            .find(|p| p.kind == PairKind::CallConsecution)
            .unwrap();
        let max_program_var = program.var_table().len();
        assert!(call_pair
            .scope_vars
            .iter()
            .any(|v| v.index() >= max_program_var));
    }

    #[test]
    fn update_pairs_substitute_the_assignment() {
        // For the transition `i := 1` (entry of the running example), the
        // goal polynomial must not contain the variable i.
        let (program, pairs, table) = setup_ok(RUNNING_EXAMPLE_SOURCE, false);
        let i = program.var_table().id_of("sum", "i").unwrap();
        let entry = program.main().entry_label();
        let pair = pairs
            .iter()
            .find(|p| {
                p.kind == PairKind::Consecution
                    && p.description.contains(&format!("update {entry}"))
            })
            .unwrap();
        assert!(!pair.goal.variables(&table).contains(&i));
    }

    #[test]
    fn calls_without_recursive_mode_are_a_typed_error_with_a_span() {
        let (program, outcome, _) = setup(RECURSIVE_EXAMPLE_SOURCE, false);
        let error = outcome.expect_err("call transitions need recursive mode");
        match &error {
            ConstraintError::CallsRequireRecursiveMode {
                label,
                callee,
                line,
            } => {
                assert_eq!(callee, "rsum");
                // The span points at the call statement in the source.
                assert_eq!(*line, program.line_of_label(*label));
                assert!(line.is_some());
            }
            other => panic!("expected CallsRequireRecursiveMode, got {other:?}"),
        }
        assert!(error.to_string().contains("recursive"));
        assert!(error.to_string().contains("rsum"));
    }

    #[test]
    fn guard_with_disjunction_produces_multiple_pairs() {
        let source = r#"
            f(x) {
                while x >= 0 || x <= 0 - 10 do
                    x := x - 1
                od;
                return x
            }
        "#;
        let (_, pairs, _) = setup_ok(source, false);
        // The loop guard has 2 disjuncts; its negation (a conjunction) has 1.
        // Transitions: guard-true (2 disjuncts), guard-false (1), body
        // update, return, plus initiation = 2 + 1 + 1 + 1 + 1 = 6.
        assert_eq!(pairs.len(), 6);
    }
}
