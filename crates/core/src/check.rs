//! Certificate-based checking of candidate invariants.
//!
//! [`check_inductive`] instantiates the paper's constraint pairs with a
//! *given* invariant map (and post-condition) and searches for the
//! sum-of-squares certificate of every pair in floating point, on the same
//! [`SynthesisOptions`] synthesis runs on. A pair counts as certified when LM
//! drives its certificate problem within the solver tolerance (`1e-7`);
//! nothing re-checks the found certificate in exact arithmetic, so
//! `certified` is float evidence, not a proof. The refutation direction is
//! trace falsification (`polyinv_validate::falsify_traces`).

use polyinv_constraints::pairs::{generate_pairs, PairKind, PairOptions};
use polyinv_constraints::putinar::translate_pair;
use polyinv_constraints::template::{LabelTemplate, TemplateSet};
use polyinv_constraints::{
    prepare, ConstraintError, QuadraticSystem, SynthesisOptions, UnknownRegistry,
};
use polyinv_lang::{Cfg, InvariantMap, Postcondition, Precondition, Program};
use polyinv_poly::{IntTemplate, MonomialTable};
use polyinv_qcqp::par::parallel_indexed;
use polyinv_qcqp::{LmOptions, LmSolver, SolveStatus};

use crate::bridge::system_to_problem;

/// LM iterations per certificate attempt. Tolerance (`1e-7`) and restarts
/// (3) are the [`LmOptions`] defaults.
const CERTIFICATE_ITERATIONS: usize = 300;

/// The result of attempting to certify one constraint pair.
#[derive(Debug, Clone)]
pub struct PairCertificate {
    /// Description of the pair (transition or initiation point).
    pub description: String,
    /// The kind of requirement the pair encodes.
    pub kind: PairKind,
    /// Whether a sum-of-squares certificate was found.
    pub certified: bool,
    /// The size of the per-pair certificate problem (constraints).
    pub problem_size: usize,
}

/// The report of a full inductiveness check.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// One certificate attempt per constraint pair.
    pub certificates: Vec<PairCertificate>,
}

impl CheckReport {
    /// `true` if every constraint pair was certified, i.e. the candidate is
    /// proven to be an inductive invariant.
    pub fn all_certified(&self) -> bool {
        self.certificates.iter().all(|c| c.certified)
    }

    /// The number of certified pairs.
    pub fn num_certified(&self) -> usize {
        self.certificates.iter().filter(|c| c.certified).count()
    }

    /// The descriptions of the pairs that could not be certified.
    pub fn failures(&self) -> Vec<&str> {
        self.certificates
            .iter()
            .filter(|c| !c.certified)
            .map(|c| c.description.as_str())
            .collect()
    }
}

/// Builds a constant (unknown-free) template set from a concrete invariant
/// map and post-condition, interned into `table`.
fn concrete_templates(
    program: &Program,
    invariant: &InvariantMap,
    post: &Postcondition,
    table: &mut MonomialTable,
) -> TemplateSet {
    let mut set = TemplateSet::default();
    for function in program.functions() {
        for &label in function.labels() {
            let conjuncts: Vec<IntTemplate> = invariant
                .get(label)
                .iter()
                .map(|atom| IntTemplate::from_polynomial(&atom.poly, table))
                .collect();
            set.invariants.insert(
                label,
                LabelTemplate {
                    conjuncts,
                    basis: Vec::new(),
                },
            );
        }
        let post_conjuncts: Vec<IntTemplate> = post
            .get(function.name())
            .iter()
            .map(|atom| IntTemplate::from_polynomial(&atom.poly, table))
            .collect();
        set.postconditions.insert(
            function.name().to_string(),
            LabelTemplate {
                conjuncts: post_conjuncts,
                basis: Vec::new(),
            },
        );
    }
    set
}

/// Checks whether `(post, invariant)` is a (recursive) inductive invariant
/// of `program` under `pre`, by searching for the sum-of-squares
/// certificates of every constraint pair.
///
/// `options` are the request's: [`prepare`] applies `bounded_reals` and
/// `force_recursive` (implied by any post-condition), and each pair climbs
/// the ϒ ladder with its witness bounded below by `epsilon_lower`.
///
/// A report with [`CheckReport::all_certified`] `== true` means LM found a
/// float certificate for every pair within its tolerance. That is strong
/// numerical evidence of inductiveness (Lemma 3.6), not an exact proof: the
/// certificates are not re-checked in rational arithmetic. A failed pair is
/// inconclusive: the certificate may simply require a larger `ϒ`
/// (semi-completeness, Lemma 3.7).
///
/// # Errors
///
/// Returns a [`ConstraintError`] when the program's or the options'
/// constants overflow the exact arithmetic of generation (pair generation
/// rejects no resolver-accepted program through this entry point:
/// recursive treatment is enabled automatically whenever calls are present).
pub fn check_inductive(
    program: &Program,
    pre: &Precondition,
    invariant: &InvariantMap,
    post: &Postcondition,
    options: &SynthesisOptions,
) -> Result<CheckReport, ConstraintError> {
    let options = options
        .clone()
        .with_force_recursive(options.force_recursive || post.iter().next().is_some());
    let (pre, recursive) = prepare(program, pre, &options)?;
    let cfg = Cfg::build(program);
    let mut mono_table = MonomialTable::new();
    let templates = concrete_templates(program, invariant, post, &mut mono_table);
    let pairs = generate_pairs(
        program,
        &cfg,
        &pre,
        &templates,
        PairOptions { recursive },
        &mut mono_table,
    )?;

    // Restarts stay sequential: the pair loop below is the parallel level.
    let solver = LmSolver::new(LmOptions {
        max_iterations: CERTIFICATE_ITERATIONS,
        parallel_restarts: false,
        ..LmOptions::default()
    });
    // Degree ladder: constant multipliers (Handelman-style certificates,
    // cheap and very robust) first, then the full degree-ϒ multipliers.
    let rungs: Vec<SynthesisOptions> = options
        .upsilon_ladder()
        .into_iter()
        .map(|upsilon| options.clone().with_upsilon(upsilon))
        .collect();

    // Pre-warm the arena with every pair's multiplier bases so the per-pair
    // clones below are essentially complete and the workers rarely intern
    // (their additions are limited to fresh product monomials).
    for pair in &pairs {
        for rung in &rungs {
            mono_table.basis_up_to_degree(&pair.scope_vars, rung.upsilon);
            mono_table.basis_up_to_degree(&pair.scope_vars, rung.upsilon / 2);
        }
    }

    // Each pair gets its own small, independent certificate problem: with
    // the template coefficients fixed, only the multiplier and Cholesky
    // unknowns remain. The Cholesky encoding turns the search into quadratic
    // equalities with simple variable bounds, which the projected
    // Levenberg–Marquardt solver handles robustly. Independence also means
    // the pairs certify in parallel.
    let certificates = parallel_indexed(pairs.len(), |index| {
        let pair = &pairs[index];
        let mut certified = false;
        let mut problem_size = 0;
        // Each worker gets its own copy of the (small, concrete-template)
        // arena: translation interns new product monomials, and the pair
        // problems are independent.
        let mut table = mono_table.clone();
        for rung in &rungs {
            let mut system = QuadraticSystem::new(UnknownRegistry::new());
            translate_pair(pair, index, rung, &mut system, &mut table);
            let problem = system_to_problem(&system);
            problem_size = problem_size.max(problem.equalities.len() + problem.inequalities.len());
            // A slightly positive warm start keeps the Cholesky diagonals and
            // the witness in the interior of their bounds.
            let warm = vec![0.05; problem.num_vars];
            if solver.solve(&problem, Some(&warm)).status == SolveStatus::Feasible {
                certified = true;
                break;
            }
        }
        PairCertificate {
            description: pair.description.clone(),
            kind: pair.kind,
            certified,
            problem_size,
        }
    });
    Ok(CheckReport { certificates })
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_arith::Rational;
    use polyinv_lang::program::RUNNING_EXAMPLE_SOURCE;
    use polyinv_lang::{parse_assertion, parse_program};
    use polyinv_poly::Polynomial;
    use polyinv_validate::{falsify_traces, TraceCheckConfig, TraceReport};

    /// Trace-falsifies `invariant` on `runs` valid runs from `seed`.
    fn falsify(
        program: &Program,
        pre: &Precondition,
        invariant: &InvariantMap,
        runs: usize,
        seed: u64,
    ) -> TraceReport {
        let config = TraceCheckConfig {
            runs,
            seed,
            ..TraceCheckConfig::default()
        };
        falsify_traces(program, pre, invariant, &Postcondition::new(), &config)
    }

    fn running_example() -> (Program, Precondition) {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        (program, pre)
    }

    /// A hand-written inductive invariant of the running example in the
    /// spirit of Example 3 of the paper. Because consecution constraints
    /// relax the antecedent to `≥ 0` but require the consequent with a
    /// positivity witness, every conjunct must be implied with a strict
    /// margin; the margins are provided by staggering the constant terms
    /// along the control flow and recovering slack from `i := i + 1`.
    fn margin_aware_invariant(program: &Program) -> InvariantMap {
        let labels = program.main().labels().to_vec();
        let mut invariant = InvariantMap::new();
        let parse = |text: &str| parse_assertion(program, "sum", text).unwrap().0;
        // Label 1 in the paper's numbering is labels[0], etc.
        invariant.add(labels[0], parse("n > 0"));
        for (index, (i_term, combined)) in [
            ("8*i - 7", "4*i + 4*s - 3"), // label 2
            ("4*i - 3", "4*i + 4*s + 1"), // label 3 (loop head)
            ("4*i - 2", "4*i + 4*s + 2"), // label 4 (if ⋆)
            ("4*i - 1", "4*i + 4*s + 3"), // label 5 (s := s + i)
            ("4*i - 1", "4*i + 4*s + 3"), // label 6 (skip)
            ("4*i - 0", "4*i + 4*s + 4"), // label 7 (i := i + 1)
            ("4*i - 2", "4*i + 4*s + 2"), // label 8 (return)
            ("4*i - 1", "4*i + 4*s + 3"), // label 9 (endpoint)
        ]
        .iter()
        .enumerate()
        {
            invariant.add(labels[index + 1], parse(&format!("{i_term} > 0")));
            invariant.add(labels[index + 1], parse(&format!("{combined} > 0")));
        }
        invariant
    }

    #[test]
    fn margin_aware_invariant_is_certified() {
        let (program, pre) = running_example();
        let invariant = margin_aware_invariant(&program);
        let report = check_inductive(
            &program,
            &pre,
            &invariant,
            &Postcondition::new(),
            &SynthesisOptions::default(),
        )
        .unwrap();
        assert!(report.all_certified(), "failures: {:?}", report.failures());
    }

    #[test]
    fn a_wrong_invariant_is_not_certified_and_is_falsified() {
        let (program, pre) = running_example();
        let mut invariant = InvariantMap::new();
        // Claim s < 1 at the return label — false as soon as the loop adds
        // i = 1 and n ≥ 2.
        let (poly, _) = parse_assertion(&program, "sum", "1 - s > 0").unwrap();
        let return_label = program.main().labels()[7];
        invariant.add(return_label, poly);
        let report = check_inductive(
            &program,
            &pre,
            &invariant,
            &Postcondition::new(),
            &SynthesisOptions::default(),
        )
        .unwrap();
        assert!(!report.all_certified());
        let report = falsify(&program, &pre, &invariant, 200, 1);
        assert!(!report.violations.is_empty());
        assert_eq!(report.violations[0].label, return_label);
    }

    #[test]
    fn falsification_accepts_true_invariants() {
        let (program, pre) = running_example();
        let invariant = margin_aware_invariant(&program);
        assert!(falsify(&program, &pre, &invariant, 100, 7).passed());
    }

    #[test]
    fn trivial_invariant_is_certified_everywhere() {
        let (program, pre) = running_example();
        // 1 > 0 at every label.
        let mut invariant = InvariantMap::new();
        for &label in program.main().labels() {
            invariant.add(label, Polynomial::constant(Rational::one()));
        }
        let report = check_inductive(
            &program,
            &pre,
            &invariant,
            &Postcondition::new(),
            &SynthesisOptions::default(),
        )
        .unwrap();
        assert!(report.all_certified());
        assert_eq!(report.num_certified(), report.certificates.len());
    }
}
