//! Pre-conditions, post-conditions and invariant maps (Section 2.3).

use std::collections::HashMap;

use polyinv_arith::{Rational, RationalError};
use polyinv_poly::Polynomial;

use crate::guard::Atom;
use crate::program::{Label, Program, StmtKind, VarKind};

/// A pre-condition: a conjunction of non-strict polynomial inequalities
/// `eᵢ ≥ 0` at every label.
///
/// Following the paper, pre-conditions at the entry label of a function `f`
/// implicitly contain `v = 0` for every non-parameter variable and
/// `v = v̄` for every parameter (footnote to Section 2.3); these are added by
/// [`Precondition::from_program`]. The *bounded-reals* augmentation of
/// Remark 5 is available through [`Precondition::add_bounded_reals`].
#[derive(Debug, Clone, Default)]
pub struct Precondition {
    atoms: HashMap<Label, Vec<Atom>>,
}

impl Precondition {
    /// An empty pre-condition (`true` everywhere).
    pub fn new() -> Self {
        Precondition::default()
    }

    /// Builds the pre-condition of a program from its `@pre(...)`
    /// annotations plus the implicit entry-label assertions required by the
    /// paper's semantics:
    ///
    /// * `v ≥ 0 ∧ −v ≥ 0` for every local variable `v` at `ℓ_in^f`;
    /// * `v − v̄ ≥ 0 ∧ v̄ − v ≥ 0` for every parameter `v` at `ℓ_in^f`.
    ///
    /// Pre-conditions constrain *every* visit to a label (run validity,
    /// Section 2.3), so the implicit entry facts are only sound when the
    /// entry label cannot be revisited. When a function body *starts* with
    /// a `while` loop, the entry label is the loop head and is re-entered
    /// with updated variables on every iteration — the implicit facts are
    /// therefore omitted for such functions (only the explicit `@pre`
    /// annotations remain). The paper's benchmarks all begin with
    /// assignments, where the facts are sound and kept. This corner was
    /// found by the trace-falsification harness of `polyinv-validate`.
    pub fn from_program(program: &Program) -> Self {
        let mut pre = Precondition::new();
        for function in program.functions() {
            // User annotations anywhere in the function.
            for (&label, atoms) in function.pre_annotations() {
                for atom in atoms {
                    // Pre-conditions are non-strict by definition; strict
                    // annotation atoms are relaxed.
                    pre.add_atom(label, atom.relaxed());
                }
            }
            // A while statement revisits its own label on every iteration;
            // entry-only facts would be assumed (and enforced) at every
            // visit, which is unsound for the synthesis direction and
            // declares every multi-iteration run invalid for the
            // falsification direction.
            let entry_revisited = matches!(
                function.body().first().map(|stmt| &stmt.kind),
                Some(StmtKind::While { .. })
            );
            if entry_revisited {
                continue;
            }
            let entry = function.entry_label();
            // Parameters equal their shadow copies on entry.
            for (&param, &shadow) in function.params().iter().zip(function.shadow_params()) {
                let diff = Polynomial::variable(param) - Polynomial::variable(shadow);
                pre.add_atom(entry, Atom::non_strict(diff.clone()));
                pre.add_atom(entry, Atom::non_strict(-diff));
            }
            // Locals and the return variable are zero on entry.
            for &var in function.vars() {
                let kind = program.var_table().info(var).kind;
                if kind == VarKind::Local || kind == VarKind::Return {
                    let poly = Polynomial::variable(var);
                    pre.add_atom(entry, Atom::non_strict(poly.clone()));
                    pre.add_atom(entry, Atom::non_strict(-poly));
                }
            }
        }
        pre
    }

    /// Adds a non-strict atom `poly ≥ 0` at `label`.
    pub fn add(&mut self, label: Label, poly: Polynomial) {
        self.add_atom(label, Atom::non_strict(poly));
    }

    /// Adds an atom at `label` (strict atoms are stored as given; they are
    /// relaxed when used in constraint generation).
    pub fn add_atom(&mut self, label: Label, atom: Atom) {
        self.atoms.entry(label).or_default().push(atom);
    }

    /// The atoms attached to a label (empty slice if none).
    pub fn get(&self, label: Label) -> &[Atom] {
        self.atoms.get(&label).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over all `(label, atoms)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Label, &Vec<Atom>)> {
        self.atoms.iter()
    }

    /// Adds the bounded-reals model of computation (Remark 5): at every
    /// label of every function, for every variable `v ∈ V^f`,
    /// `c − v ≥ 0` and `v + c ≥ 0`, together with the compactness witness
    /// `c²·|V^f| − Σ v² ≥ 0`.
    ///
    /// The compactness witness is what makes Putinar's positivstellensatz
    /// (and hence the semi-completeness result, Lemma 3.7) applicable.
    ///
    /// # Errors
    ///
    /// `Overflow` when `c²·|V^f|` leaves the `i128` range.
    pub fn add_bounded_reals(
        &mut self,
        program: &Program,
        bound: Rational,
    ) -> Result<(), RationalError> {
        let squared = bound.checked_mul(&bound)?;
        for function in program.functions() {
            let vars = function.vars().to_vec();
            let radius = squared.checked_mul(&Rational::from_int(vars.len() as i64))?;
            for &label in function.labels() {
                for &var in &vars {
                    let v = Polynomial::variable(var);
                    self.add(label, Polynomial::constant(bound) - v.clone());
                    self.add(label, v + Polynomial::constant(bound));
                }
                // c²·|V^f| − Σ v² ≥ 0.
                let mut norm = Polynomial::constant(radius);
                for &var in &vars {
                    norm = norm - Polynomial::variable(var).pow(2);
                }
                self.add(label, norm);
            }
        }
        Ok(())
    }

    /// The total number of atoms across all labels.
    pub fn num_atoms(&self) -> usize {
        self.atoms.values().map(Vec::len).sum()
    }
}

/// A post-condition: for every function `f`, a conjunction of strict
/// polynomial inequalities over `{ret_f, v̄₁ … v̄ₙ}` characterizing the return
/// value.
#[derive(Debug, Clone, Default)]
pub struct Postcondition {
    atoms: HashMap<String, Vec<Atom>>,
}

impl Postcondition {
    /// An empty post-condition (`true` for every function).
    pub fn new() -> Self {
        Postcondition::default()
    }

    /// Adds a strict atom `poly > 0` to the post-condition of `function`.
    pub fn add(&mut self, function: &str, poly: Polynomial) {
        self.atoms
            .entry(function.to_string())
            .or_default()
            .push(Atom::strict(poly));
    }

    /// The atoms of a function's post-condition.
    pub fn get(&self, function: &str) -> &[Atom] {
        self.atoms.get(function).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over all `(function, atoms)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Vec<Atom>)> {
        self.atoms.iter()
    }
}

/// An invariant map: for every label, a conjunction of strict polynomial
/// inequalities. This is both the output format of the synthesis algorithms
/// and the input format of the invariant checker.
#[derive(Debug, Clone, Default)]
pub struct InvariantMap {
    atoms: HashMap<Label, Vec<Atom>>,
}

impl InvariantMap {
    /// An empty invariant map (`true` at every label).
    pub fn new() -> Self {
        InvariantMap::default()
    }

    /// Adds a strict atom `poly > 0` at `label`.
    pub fn add(&mut self, label: Label, poly: Polynomial) {
        self.add_atom(label, Atom::strict(poly));
    }

    /// Adds an atom at `label`.
    pub fn add_atom(&mut self, label: Label, atom: Atom) {
        self.atoms.entry(label).or_default().push(atom);
    }

    /// The atoms at a label.
    pub fn get(&self, label: Label) -> &[Atom] {
        self.atoms.get(&label).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over all `(label, atoms)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Label, &Vec<Atom>)> {
        self.atoms.iter()
    }

    /// Renders the invariant map with the program's variable names, in
    /// label order.
    pub fn render(&self, program: &Program) -> String {
        let mut labels: Vec<Label> = self.atoms.keys().copied().collect();
        labels.sort();
        let mut out = String::new();
        for label in labels {
            let atoms = &self.atoms[&label];
            let rendered: Vec<String> = atoms
                .iter()
                .map(|a| {
                    format!(
                        "{} {} 0",
                        program.render_poly(&a.poly),
                        if a.strict { ">" } else { ">=" }
                    )
                })
                .collect();
            out.push_str(&format!("{label}: {}\n", rendered.join("  &&  ")));
        }
        out
    }

    /// The total number of atoms across all labels.
    pub fn num_atoms(&self) -> usize {
        self.atoms.values().map(Vec::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_program;
    use crate::program::RUNNING_EXAMPLE_SOURCE;

    #[test]
    fn from_program_adds_entry_assertions() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let entry = program.main().entry_label();
        // n >= 1 (annotation), n = n_in (2 atoms), i = s = ret = 0 (6 atoms).
        assert_eq!(pre.get(entry).len(), 9);
        // No atoms elsewhere.
        let other = program.main().labels()[3];
        assert!(pre.get(other).is_empty());
    }

    #[test]
    fn while_at_entry_functions_get_no_implicit_entry_facts() {
        // The entry label of this function is the loop head, revisited with
        // updated variables on every iteration: the implicit `x = x_in` /
        // `ret = 0` facts would be wrong there.
        let source = r#"
            inc(x) {
                @pre(x >= 0);
                while x <= 10 do
                    x := x + 1
                od;
                return x
            }
        "#;
        let program = parse_program(source).unwrap();
        let pre = Precondition::from_program(&program);
        let entry = program.main().entry_label();
        // Only the user annotation survives.
        assert_eq!(pre.get(entry).len(), 1);
    }

    #[test]
    fn bounded_reals_adds_norm_constraint_at_every_label() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let mut pre = Precondition::from_program(&program);
        let before = pre.num_atoms();
        pre.add_bounded_reals(&program, Rational::from_int(1000))
            .unwrap();
        let func = program.main();
        let per_label = 2 * func.vars().len() + 1;
        assert_eq!(pre.num_atoms(), before + per_label * func.labels().len());
    }

    #[test]
    fn invariant_map_evaluation() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let func = program.main();
        let n = program.var_table().id_of("sum", "n").unwrap();
        let mut inv = InvariantMap::new();
        // n + 1 > 0 at the entry label.
        inv.add(
            func.entry_label(),
            Polynomial::variable(n) + Polynomial::constant(Rational::one()),
        );
        let atoms = inv.get(func.entry_label());
        assert_eq!(atoms.len(), 1);
        assert_eq!(atoms[0].checked_eval(|_| Rational::zero()), Some(true));
        assert_eq!(
            atoms[0].checked_eval(|_| Rational::from_int(-5)),
            Some(false)
        );
        assert!(inv.get(func.exit_label()).is_empty());
        let text = inv.render(&program);
        assert!(text.contains("1 + n > 0"));
    }

    #[test]
    fn postcondition_round_trip() {
        let mut post = Postcondition::new();
        post.add("sum", Polynomial::constant(Rational::one()));
        assert_eq!(post.get("sum").len(), 1);
        assert!(post.get("other").is_empty());
        assert!(post.get("sum")[0].strict);
    }
}
