//! Top-level assembly: from a program and pre-condition to the quadratic
//! system (Steps 1–3 in one call).

use polyinv_arith::Rational;
use polyinv_lang::{Cfg, Precondition, Program};
use polyinv_poly::MonomialTable;

use crate::error::ConstraintError;
use crate::pairs::{generate_pairs, ConstraintPair, PairOptions};
use crate::putinar::translate_pair;
use crate::system::QuadraticSystem;
use crate::template::TemplateSet;
use crate::unknowns::UnknownRegistry;

/// All knobs of the reduction.
#[derive(Debug, Clone)]
pub struct SynthesisOptions {
    /// Maximum degree `d` of the invariant polynomials (Step 1).
    pub degree: u32,
    /// Number `n` of conjuncts per label (Step 1).
    pub size: usize,
    /// The technical parameter `ϒ` bounding the multiplier degrees (Step 3,
    /// Remark 3).
    pub upsilon: u32,
    /// When set, adds the bounded-reals pre-condition of Remark 5 with this
    /// bound `c` at every label, which guarantees the compactness condition
    /// of Putinar's positivstellensatz.
    pub bounded_reals: Option<Rational>,
    /// Lower bound enforced on positivity witnesses.
    pub epsilon_lower: Rational,
    /// Force recursive treatment (post-condition templates and Steps 2.a /
    /// 2.b) even for call-free programs. Programs containing calls are
    /// always treated recursively regardless of this flag.
    pub force_recursive: bool,
    /// Run the affine presolve fixpoint ([`crate::presolve`]) between the
    /// reduction and the solve. On by default; the `--no-presolve` escape
    /// hatch disables it to solve the raw Step-3 system.
    pub presolve: bool,
}

impl Default for SynthesisOptions {
    fn default() -> Self {
        SynthesisOptions {
            degree: 2,
            size: 1,
            upsilon: 2,
            bounded_reals: None,
            epsilon_lower: Rational::new(1, 100),
            force_recursive: false,
            presolve: true,
        }
    }
}

impl SynthesisOptions {
    /// Convenience constructor setting the template degree and size.
    pub fn with_degree_and_size(degree: u32, size: usize) -> Self {
        SynthesisOptions::default()
            .with_degree(degree)
            .with_size(size)
    }

    /// Sets the template degree `d` (builder style).
    pub fn with_degree(mut self, degree: u32) -> Self {
        self.degree = degree;
        self
    }

    /// Sets the number `n` of conjuncts per label (builder style).
    pub fn with_size(mut self, size: usize) -> Self {
        self.size = size;
        self
    }

    /// Sets the technical parameter `ϒ` (builder style).
    pub fn with_upsilon(mut self, upsilon: u32) -> Self {
        self.upsilon = upsilon;
        self
    }

    /// Enables the bounded-reals augmentation of Remark 5 with bound `c`
    /// (builder style).
    pub fn with_bounded_reals(mut self, bound: Rational) -> Self {
        self.bounded_reals = Some(bound);
        self
    }

    /// Sets the lower bound enforced on positivity witnesses (builder
    /// style).
    pub fn with_epsilon_lower(mut self, epsilon: Rational) -> Self {
        self.epsilon_lower = epsilon;
        self
    }

    /// Forces recursive treatment even for call-free programs (builder
    /// style).
    pub fn with_force_recursive(mut self, force: bool) -> Self {
        self.force_recursive = force;
        self
    }

    /// Enables or disables the affine presolve between reduction and solve
    /// (builder style). On by default.
    pub fn with_presolve(mut self, presolve: bool) -> Self {
        self.presolve = presolve;
        self
    }

    /// The multiplier-degree ladder the solve drivers climb: the much
    /// smaller ϒ = 0 reduction (constant multipliers) first, then — when
    /// the cheap rung finds nothing and ϒ > 0 was requested — the full
    /// reduction. One definition so the weak, strong and validated drivers
    /// cannot drift apart. Never empty.
    pub fn upsilon_ladder(&self) -> Vec<u32> {
        let mut ladder = vec![0];
        if self.upsilon > 0 {
            ladder.push(self.upsilon);
        }
        ladder
    }
}

/// The full output of the reduction: the quadratic system plus everything
/// needed to interpret its solutions (templates and constraint pairs).
#[derive(Debug, Clone)]
pub struct GeneratedSystem {
    /// The quadratic system over the unknowns (Step 3 output).
    pub system: QuadraticSystem,
    /// The invariant / post-condition templates (Step 1 output).
    pub templates: TemplateSet,
    /// The constraint pairs (Step 2 output), in the order in which they were
    /// translated (the `pair` index of unknowns refers to this order).
    pub pairs: Vec<ConstraintPair>,
    /// Whether the recursive variants of the algorithm were used.
    pub recursive: bool,
    /// The pre-condition actually used (including the bounded-reals
    /// augmentation if requested).
    pub precondition: Precondition,
    /// The monomial arena the templates' and pairs' interned polynomials
    /// live in: one table serves the whole run, and their `MonoId`s are
    /// meaningful only relative to it.
    pub mono_table: MonomialTable,
}

impl GeneratedSystem {
    /// The size `|S|` of the generated quadratic system.
    pub fn size(&self) -> usize {
        self.system.size()
    }
}

/// Decides the run parameters shared by every Steps-1–3 entry point:
/// extends the pre-condition with the bounded-reals assertions of Remark 5
/// when requested, and decides recursive treatment.
///
/// Both [`generate`] and the staged pipeline of the `polyinv` crate start
/// from this, so the two entry points cannot diverge.
///
/// # Errors
///
/// [`ConstraintError::ArithmeticOverflow`] when the bounded-reals witness
/// `c²·|V^f|` leaves the `i128` range.
pub fn prepare(
    program: &Program,
    precondition: &Precondition,
    options: &SynthesisOptions,
) -> Result<(Precondition, bool), ConstraintError> {
    let mut pre = precondition.clone();
    if let Some(bound) = options.bounded_reals {
        pre.add_bounded_reals(program, bound)
            .map_err(|_| ConstraintError::ArithmeticOverflow {
                context: format!("the bounded-reals assertions for c = {bound}"),
            })?;
    }
    let recursive = options.force_recursive || !program.is_simple();
    Ok((pre, recursive))
}

/// Runs Step 3 on already-built templates and pairs, assembling the final
/// [`GeneratedSystem`]. Shared by [`generate`] and the staged pipeline's
/// reduction stage. Takes ownership of the monomial table the templates and
/// pairs were built into; it travels with the system.
pub fn reduce_pairs(
    templates: TemplateSet,
    registry: UnknownRegistry,
    pairs: Vec<ConstraintPair>,
    options: &SynthesisOptions,
    recursive: bool,
    precondition: Precondition,
    mut mono_table: MonomialTable,
) -> GeneratedSystem {
    let mut system = QuadraticSystem::new(registry);
    for (index, pair) in pairs.iter().enumerate() {
        translate_pair(pair, index, options, &mut system, &mut mono_table);
    }
    system.num_pairs = pairs.len();

    GeneratedSystem {
        system,
        templates,
        pairs,
        recursive,
        precondition,
        mono_table,
    }
}

/// Runs Steps 1–3 of `StrongInvSynth` / `RecStrongInvSynth`.
///
/// The pre-condition passed in is extended with the implicit entry
/// assertions already (callers usually obtain it from
/// [`Precondition::from_program`]) and, if `options.bounded_reals` is set,
/// with the bounded-reals assertions of Remark 5.
///
/// # Errors
///
/// Returns a [`ConstraintError`] when pair generation rejects the program
/// (function calls with recursive treatment disabled; the default options
/// enable recursive treatment automatically for programs with calls), or
/// when the program's or the options' constants overflow the exact
/// arithmetic.
pub fn generate(
    program: &Program,
    precondition: &Precondition,
    options: &SynthesisOptions,
) -> Result<GeneratedSystem, ConstraintError> {
    let (pre, recursive) = prepare(program, precondition, options)?;
    let cfg = Cfg::build(program);
    let mut registry = UnknownRegistry::new();
    let mut mono_table = MonomialTable::new();
    let templates = TemplateSet::build(
        program,
        &mut registry,
        options.degree,
        options.size,
        recursive,
        &mut mono_table,
    );
    let pairs = generate_pairs(
        program,
        &cfg,
        &pre,
        &templates,
        PairOptions { recursive },
        &mut mono_table,
    )?;
    Ok(reduce_pairs(
        templates, registry, pairs, options, recursive, pre, mono_table,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_lang::parse_program;
    use polyinv_lang::program::{RECURSIVE_EXAMPLE_SOURCE, RUNNING_EXAMPLE_SOURCE};

    #[test]
    fn running_example_generates_a_system_of_plausible_size() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let generated = generate(&program, &pre, &SynthesisOptions::default()).unwrap();
        assert!(!generated.recursive);
        assert_eq!(generated.pairs.len(), 11);
        // The system must be quadratic, non-trivial and reference the
        // template unknowns.
        assert!(generated.size() > 100);
        assert!(generated.system.num_unknowns() > 9 * 21);
        assert_eq!(generated.system.num_pairs, 11);
    }

    #[test]
    fn recursive_example_is_detected_and_gets_postconditions() {
        let program = parse_program(RECURSIVE_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let generated = generate(&program, &pre, &SynthesisOptions::default()).unwrap();
        assert!(generated.recursive);
        assert!(generated.templates.postcondition("rsum").is_some());
    }

    #[test]
    fn bounded_reals_increases_system_size() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let plain = generate(&program, &pre, &SynthesisOptions::default()).unwrap();
        let bounded = generate(
            &program,
            &pre,
            &SynthesisOptions::default().with_bounded_reals(Rational::from_int(1000)),
        )
        .unwrap();
        assert!(bounded.size() > plain.size());
    }

    #[test]
    fn degree_one_templates_shrink_the_system() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let degree_two = generate(&program, &pre, &SynthesisOptions::default()).unwrap();
        let degree_one = generate(
            &program,
            &pre,
            &SynthesisOptions::with_degree_and_size(1, 1),
        )
        .unwrap();
        assert!(degree_one.size() < degree_two.size());
    }
}
