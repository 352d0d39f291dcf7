//! Bridging the exact quadratic systems of the reduction to the numeric
//! problems consumed by the QCQP substrate.

use std::collections::HashMap;

use polyinv_arith::Rational;
use polyinv_constraints::QuadraticSystem;
use polyinv_poly::{QuadExpr, UnknownId};
use polyinv_qcqp::{Problem, QuadraticForm};

/// Converts a quadratic system into a numeric [`Problem`] over all of its
/// unknowns (unknown `i` becomes problem variable `i`).
pub fn system_to_problem(system: &QuadraticSystem) -> Problem {
    let (problem, _mapping) = system_to_problem_with_fixed(system, &HashMap::new());
    problem
}

/// Converts a quadratic system into a numeric [`Problem`] while *fixing*
/// some unknowns to the given rational values (partial evaluation).
///
/// Returns the problem together with the mapping from problem-variable index
/// to the original [`UnknownId`]. Fixed unknowns do not appear as problem
/// variables; constraints that become trivially satisfied are dropped.
///
/// Fixing all template (s-) variables turns the Cholesky-encoded system into
/// the certificate-search problem used by the invariant checker: quadratic
/// in the l-variables (through the `L·Lᵀ` entries) and linear in ε, but not
/// convex.
pub fn system_to_problem_with_fixed(
    system: &QuadraticSystem,
    fixed: &HashMap<UnknownId, Rational>,
) -> (Problem, Vec<UnknownId>) {
    // Build the index mapping for free unknowns.
    let total = system.num_unknowns();
    let mut to_problem_index: Vec<Option<usize>> = vec![None; total];
    let mut mapping: Vec<UnknownId> = Vec::new();
    for index in 0..total {
        let id = UnknownId::new(index);
        if !fixed.contains_key(&id) {
            to_problem_index[index] = Some(mapping.len());
            mapping.push(id);
        }
    }

    let mut problem = Problem::new(mapping.len());
    let convert =
        |expr: &QuadExpr| -> QuadraticForm { convert_expr(expr, fixed, &to_problem_index) };

    for eq in &system.equalities {
        let form = convert(eq);
        if form.linear.is_empty() && form.quadratic.is_empty() {
            // Fully fixed. A constant equality is either trivially true and
            // can be dropped, or trivially false and must be kept so that the
            // problem is reported infeasible — silently dropping it would be
            // unsound (the certificate would not exist).
            if form.constant.abs() <= 1e-12 {
                continue;
            }
        }
        problem.equalities.push(form);
    }
    for ineq in &system.inequalities {
        let form = convert(ineq);
        if form.linear.is_empty() && form.quadratic.is_empty() && form.constant >= -1e-12 {
            continue;
        }
        problem.inequalities.push(form);
    }
    (problem, mapping)
}

fn convert_expr(
    expr: &QuadExpr,
    fixed: &HashMap<UnknownId, Rational>,
    to_problem_index: &[Option<usize>],
) -> QuadraticForm {
    let mut form = QuadraticForm::constant(expr.constant_part().to_f64());
    let mut linear_acc: HashMap<usize, f64> = HashMap::new();
    let mut quad_acc: HashMap<(usize, usize), f64> = HashMap::new();

    for &(u, c) in expr.linear_terms() {
        match fixed.get(&u) {
            Some(value) => form.constant += c.to_f64() * value.to_f64(),
            None => {
                let index = to_problem_index[u.index()].expect("free unknown has an index");
                *linear_acc.entry(index).or_default() += c.to_f64();
            }
        }
    }
    for &((a, b), c) in expr.quadratic_terms() {
        let coeff = c.to_f64();
        match (fixed.get(&a), fixed.get(&b)) {
            (Some(va), Some(vb)) => form.constant += coeff * va.to_f64() * vb.to_f64(),
            (Some(va), None) => {
                let index = to_problem_index[b.index()].expect("free unknown has an index");
                *linear_acc.entry(index).or_default() += coeff * va.to_f64();
            }
            (None, Some(vb)) => {
                let index = to_problem_index[a.index()].expect("free unknown has an index");
                *linear_acc.entry(index).or_default() += coeff * vb.to_f64();
            }
            (None, None) => {
                let ia = to_problem_index[a.index()].expect("free unknown has an index");
                let ib = to_problem_index[b.index()].expect("free unknown has an index");
                let key = if ia <= ib { (ia, ib) } else { (ib, ia) };
                *quad_acc.entry(key).or_default() += coeff;
            }
        }
    }

    let mut linear: Vec<(usize, f64)> = linear_acc.into_iter().filter(|&(_, c)| c != 0.0).collect();
    linear.sort_by_key(|&(i, _)| i);
    form.linear = linear;
    let mut quadratic: Vec<(usize, usize, f64)> = quad_acc
        .into_iter()
        .filter(|&(_, c)| c != 0.0)
        .map(|((i, j), c)| (i, j, c))
        .collect();
    quadratic.sort_by_key(|&(i, j, _)| (i, j));
    form.quadratic = quadratic;
    form
}

#[cfg(test)]
mod tests {
    use super::*;
    use polyinv_constraints::{generate, SynthesisOptions};
    use polyinv_lang::program::RUNNING_EXAMPLE_SOURCE;
    use polyinv_lang::{parse_program, Precondition};

    #[test]
    fn conversion_preserves_dimensions_and_constraint_counts() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let generated = generate(&program, &pre, &SynthesisOptions::default()).unwrap();
        let problem = system_to_problem(&generated.system);
        assert_eq!(problem.num_vars, generated.system.num_unknowns());
        assert_eq!(problem.equalities.len(), generated.system.equalities.len());
        assert_eq!(
            problem.inequalities.len(),
            generated.system.inequalities.len()
        );
    }

    #[test]
    fn violations_agree_between_exact_and_numeric_forms() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let generated = generate(&program, &pre, &SynthesisOptions::default()).unwrap();
        let problem = system_to_problem(&generated.system);
        let assignment = vec![0.25; problem.num_vars];
        let exact = generated.system.max_violation(&assignment);
        // The numeric problem additionally checks box bounds, which are not
        // violated at 0.25, so the two measures must agree.
        let numeric = problem.max_violation(&assignment);
        assert!((exact - numeric).abs() < 1e-9);
    }

    #[test]
    fn fixing_unknowns_removes_them_from_the_problem() {
        let program = parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = Precondition::from_program(&program);
        let generated = generate(&program, &pre, &SynthesisOptions::default()).unwrap();
        let template_ids = generated.system.registry.template_unknowns();
        let fixed: HashMap<_, _> = template_ids
            .iter()
            .map(|&id| (id, Rational::zero()))
            .collect();
        let (problem, mapping) = system_to_problem_with_fixed(&generated.system, &fixed);
        assert_eq!(
            problem.num_vars,
            generated.system.num_unknowns() - template_ids.len()
        );
        assert_eq!(mapping.len(), problem.num_vars);
        // No mapped unknown is a template unknown.
        assert!(mapping.iter().all(|id| !template_ids.contains(id)));
    }
}
