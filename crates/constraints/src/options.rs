//! Top-level assembly: from a program and pre-condition to the quadratic
//! system (Steps 1–3 in one call).
//!
//! Step 3 ([`reduce_pairs`]) translates the constraint pairs independently:
//! each pair's Putinar identity has its own ε, multipliers and Cholesky
//! unknowns and shares only the template coefficients. Large reductions
//! run one pair per task on the work queue of [`polyinv_arith::par`], each
//! into a fragment whose fresh unknowns are numbered from the template
//! registry's length; the fragments are merged in pair order, their fresh
//! ids shifted past the earlier fragments', into exactly the system the
//! serial loop builds. Small reductions stay on that loop.

use std::sync::{Mutex, PoisonError};

use polyinv_arith::par::{configured_threads, parallel_indexed_until_bounded};
use polyinv_arith::Rational;
use polyinv_lang::{Cfg, Precondition, Program};
use polyinv_poly::{IntTemplate, MonomialTable, QuadExpr};

use crate::error::ConstraintError;
use crate::pairs::{generate_pairs, ConstraintPair, PairOptions};
use crate::putinar::translate_pair;
use crate::system::QuadraticSystem;
use crate::template::TemplateSet;
use crate::unknowns::{UnknownKind, UnknownRegistry};

/// Estimated Step-3 work (see [`translation_work`]) from which
/// [`reduce_pairs`] translates the pairs on the work queue instead of in one
/// loop. Below it, spawning workers and copying the monomial arena cost
/// more than they save: every ϒ = 0 reduction of the Table 2/3 rows (at
/// most 8,216, strict-inverted-pendulum) and of the seeded fuzz programs
/// (at most 584) stays serial, as do the ϒ = 2 rows up to mannadiv
/// (29,025); recursive-cube-sum (34,097) is the smallest parallel one. The
/// measured figures are in DESIGN.md §2.
const PARALLEL_WORK: usize = 32_768;

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
///
/// Reductions of at least `PARALLEL_WORK` estimated work translate their
/// pairs on [`configured_threads`] workers; the system is byte-identical
/// at any thread count. The table then holds only what the pairs and their
/// multiplier bases interned: the product monomials stay in the workers'
/// copies (nothing downstream reads them).
///
/// # Errors
///
/// [`ConstraintError::ArithmeticOverflow`] when a coefficient of a pair's
/// Putinar identity leaves the `i128` range — from the first such pair in
/// pair order, at any thread count.
pub fn reduce_pairs(
    templates: TemplateSet,
    registry: UnknownRegistry,
    pairs: Vec<ConstraintPair>,
    options: &SynthesisOptions,
    recursive: bool,
    precondition: Precondition,
    mut mono_table: MonomialTable,
) -> Result<GeneratedSystem, ConstraintError> {
    let workers = if translation_work(&pairs, options, &mut mono_table) >= PARALLEL_WORK {
        configured_threads()
    } else {
        1
    };
    let system = translate_pairs(registry, &pairs, options, &mut mono_table, workers)?;
    Ok(GeneratedSystem {
        system,
        templates,
        pairs,
        recursive,
        precondition,
        mono_table,
    })
}

/// Interns every pair's multiplier and Gram bases in pair order and returns
/// the estimated translation work: per pair, the multiplier basis size
/// times one plus the number of context terms, the coefficient products of
/// `Σ hᵢ·gᵢ`.
///
/// Interning the bases up front gives them the same ids in the table and in
/// every copy of it, so the multipliers' term order — and with it the order
/// in which each coefficient is accumulated — is the same on both paths of
/// [`translate_pairs`].
fn translation_work(
    pairs: &[ConstraintPair],
    options: &SynthesisOptions,
    table: &mut MonomialTable,
) -> usize {
    pairs
        .iter()
        .map(|pair| {
            let basis = table.basis_up_to_degree(&pair.scope_vars, options.upsilon);
            table.basis_up_to_degree(&pair.scope_vars, options.upsilon / 2);
            let context_terms: usize = pair.context.iter().map(IntTemplate::num_terms).sum();
            basis.len() * (1 + context_terms)
        })
        .sum()
}

/// One pair's translation on the parallel path: its rows, and the kinds of
/// its fresh unknowns, whose ids start at the template registry's length.
struct Fragment {
    kinds: Vec<UnknownKind>,
    equalities: Vec<QuadExpr>,
    inequalities: Vec<QuadExpr>,
}

/// Translates `pairs` into one system over `registry`: serially for one
/// worker, otherwise one pair per task on `workers` threads, each worker
/// with its own copy of `table`, merged in pair order.
fn translate_pairs(
    registry: UnknownRegistry,
    pairs: &[ConstraintPair],
    options: &SynthesisOptions,
    table: &mut MonomialTable,
    workers: usize,
) -> Result<QuadraticSystem, ConstraintError> {
    let mut system = QuadraticSystem::new(registry);
    system.num_pairs = pairs.len();
    if workers <= 1 {
        for (index, pair) in pairs.iter().enumerate() {
            translate_pair(pair, index, options, &mut system, table)?;
        }
        return Ok(system);
    }

    // The output never depends on `MonoId` values (rows are emitted in
    // graded-lexicographic order of the monomials themselves), so a worker
    // may translate on any copy of the arena. Copies are handed back after
    // each pair and reused, so each worker copies it about once. The lock
    // guards only a push or a pop, which leave the list valid at every
    // step, so a poisoned lock is recovered rather than passed on.
    let base = system.registry.len();
    let spare_tables = Mutex::new(Vec::new());
    let template_registry = &system.registry;
    let table: &MonomialTable = table;
    let fragments = parallel_indexed_until_bounded(
        pairs.len(),
        workers,
        |index, _| {
            let spare = spare_tables
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop();
            let mut local = spare.unwrap_or_else(|| table.clone());
            let mut fragment = QuadraticSystem::new(template_registry.clone());
            let translated =
                translate_pair(&pairs[index], index, options, &mut fragment, &mut local);
            spare_tables
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(local);
            translated.map(|_| Fragment {
                kinds: fragment
                    .registry
                    .iter()
                    .skip(base)
                    .map(|(_, kind)| kind.clone())
                    .collect(),
                equalities: fragment.equalities,
                inequalities: fragment.inequalities,
            })
        },
        Result::is_err,
    );
    // The queue cuts the list after the first failing pair, so this returns
    // the error of the first failing pair in pair order.
    let fragments = fragments.into_iter().collect::<Result<Vec<_>, _>>()?;

    system
        .equalities
        .reserve(fragments.iter().map(|f| f.equalities.len()).sum());
    system
        .inequalities
        .reserve(fragments.iter().map(|f| f.inequalities.len()).sum());
    for fragment in fragments {
        let shift = system.registry.len() - base;
        for (rows, fragment_rows) in [
            (&mut system.equalities, fragment.equalities),
            (&mut system.inequalities, fragment.inequalities),
        ] {
            rows.extend(fragment_rows.into_iter().map(|mut row| {
                row.shift_unknowns(base, shift);
                row
            }));
        }
        for kind in fragment.kinds {
            system.registry.fresh(kind);
        }
    }
    Ok(system)
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
    reduce_pairs(
        templates, registry, pairs, options, recursive, pre, mono_table,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_lang::parse_program;
    use polyinv_lang::program::{RECURSIVE_EXAMPLE_SOURCE, RUNNING_EXAMPLE_SOURCE};

    /// Steps 1–2 of `source` at `options`, as [`reduce_pairs`] receives them,
    /// with the bases interned.
    fn template_registry_and_pairs(
        source: &str,
        options: &SynthesisOptions,
    ) -> (UnknownRegistry, Vec<ConstraintPair>, MonomialTable) {
        let program = parse_program(source).unwrap();
        let pre = Precondition::from_program(&program);
        let (pre, recursive) = prepare(&program, &pre, options).unwrap();
        let mut registry = UnknownRegistry::new();
        let mut table = MonomialTable::new();
        let templates = TemplateSet::build(
            &program,
            &mut registry,
            options.degree,
            options.size,
            recursive,
            &mut table,
        );
        let pairs = generate_pairs(
            &program,
            &Cfg::build(&program),
            &pre,
            &templates,
            PairOptions { recursive },
            &mut table,
        )
        .unwrap();
        translation_work(&pairs, options, &mut table);
        (registry, pairs, table)
    }

    #[test]
    fn parallel_translation_merges_into_the_serial_system() {
        // Both examples have template contexts (the t-variable path) and
        // concrete ones; the recursive one has post-condition unknowns too.
        for source in [RUNNING_EXAMPLE_SOURCE, RECURSIVE_EXAMPLE_SOURCE] {
            let options = SynthesisOptions::default();
            let (registry, pairs, table) = template_registry_and_pairs(source, &options);
            let translate = |workers| {
                translate_pairs(
                    registry.clone(),
                    &pairs,
                    &options,
                    &mut table.clone(),
                    workers,
                )
                .unwrap()
            };
            let serial = translate(1);
            assert!(serial.num_unknowns() > registry.len());
            for workers in [2, 3, 8] {
                let parallel = translate(workers);
                assert_eq!(parallel.equalities, serial.equalities, "{workers} workers");
                assert_eq!(parallel.inequalities, serial.inequalities);
                assert!(parallel.registry.iter().eq(serial.registry.iter()));
                assert_eq!(parallel.num_pairs, pairs.len());
            }
        }
    }

    #[test]
    fn overflow_names_the_first_failing_pair_at_any_worker_count() {
        // Pairs 1 and 3 overflow at ϒ = 2 (2·2¹²⁶ leaves i128); 0 and 2 fit.
        let mut table = MonomialTable::new();
        let big = Rational::new(1i128 << 126, 1);
        let pairs: Vec<ConstraintPair> = [Rational::one(), big, Rational::one(), big]
            .into_iter()
            .map(|c| crate::putinar::tests::scaled_context_pair(c, &mut table))
            .collect();
        let options = SynthesisOptions::default();
        translation_work(&pairs, &options, &mut table);
        for workers in [1, 2, 8] {
            let result = translate_pairs(
                UnknownRegistry::new(),
                &pairs,
                &options,
                &mut table.clone(),
                workers,
            );
            match result {
                Err(ConstraintError::ArithmeticOverflow { context }) => {
                    assert_eq!(context, "the Putinar identity of pair 1 (test)")
                }
                other => panic!("expected an overflow error, got {other:?}"),
            }
        }
    }

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
