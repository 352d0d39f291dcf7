//! Affine presolve over quadratic systems (DESIGN.md §10).
//!
//! The Putinar translation hands Step 4 systems roughly 7× the size the
//! paper reports: the mass of the surplus is bookkeeping — rows that pin
//! one unknown outright (`a·x + b = 0`), tie two unknowns affinely
//! (`a·x + b·y + c = 0`), or *define* an unknown that occurs nowhere else
//! in a quadratic position (`a·w + rest = 0` with `rest` quadratic in the
//! surviving unknowns), plus rows that become trivial or duplicated once
//! those unknowns are substituted away. This module runs the standard
//! presolve fixpoint over a [`QuadraticSystem`]:
//!
//! 1. **Pin seeding** — externally fixed unknowns (weak synthesis pins the
//!    template rows of its target assertions) enter the substitution map
//!    first, generalizing the partial evaluation the solver bridge used to
//!    perform.
//! 2. **Elimination** — every *equality* row with a linear occurrence of an
//!    eliminable unknown `w` solves for it: `w := -(rest)/a`. When `rest`
//!    is affine this is the powdr-style affine propagation; when `rest` is
//!    quadratic the rule additionally requires that `w` occurs in no
//!    quadratic term anywhere (so substitution keeps every row quadratic)
//!    and that `rest` stays under a fill-in cap. A zero sum of squares
//!    (`Σ cᵢ·uᵢ² = 0`, all `cᵢ` of one sign) fixes each `uᵢ := 0`.
//! 3. **Simplification** — substituted rows that become `0 = 0` or `c ≥ 0`
//!    (with `c ≥ 0`) are dropped; rows that become constant *false* are
//!    kept, so an infeasible system stays visibly infeasible. Remaining
//!    rows are normalized to leading coefficient `1` (equalities) or
//!    leading magnitude `1` (inequalities, positive scaling only) and
//!    deduplicated by hashing the canonical [`QuadExpr`]s.
//! 4. **Fixpoint** — substitution exposes new eliminable rows, so the
//!    passes repeat until a round changes nothing. Every productive round
//!    removes at least one unknown or one row, so termination needs no
//!    fuel; a round cap is kept as a safety net.
//!
//! The [`PresolveMap`] records every elimination in *canonical* form — the
//! right-hand side of each elimination references only surviving unknowns —
//! so a solver assignment over the reduced system back-substitutes to the
//! original unknown space in a single order-independent pass. Templates,
//! invariant extraction and the exact-rational re-check all keep seeing the
//! original registry.
//!
//! All derived coefficients are computed with checked rational arithmetic;
//! a round that would overflow (or would push a row past degree two) is
//! rolled back and its candidate unknowns are left free — presolve degrades
//! gracefully to a weaker reduction, never to a wrong one.

use std::collections::{HashMap, HashSet};
use std::time::Instant;

use polyinv_arith::Rational;
use polyinv_poly::{QuadExpr, UnknownId};

use crate::system::QuadraticSystem;

/// Safety cap on fixpoint rounds. The fixpoint terminates on its own (each
/// productive round removes an unknown or a row); the cap only bounds the
/// work if that argument is ever violated by a future rule.
const MAX_ROUNDS: usize = 64;

/// Maximum number of terms a solved right-hand side may carry. Substituting
/// an `m`-term definition into `k` occurrences costs `m·k` fill-in terms;
/// the cap keeps the reduced system sparse.
const MAX_FILL_TERMS: usize = 8;

/// Options of [`presolve`]. None are left to set; the type stays because
/// callers, the benchmark harness among them, pass
/// `&PresolveOptions::default()`.
#[derive(Debug, Clone, Default)]
pub struct PresolveOptions {}

/// One recorded elimination. Right-hand sides reference only unknowns that
/// survive presolve (canonical form), so back-substitution is a single pass
/// in any order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Elimination {
    /// `unknown := value`.
    Fixed {
        /// The eliminated unknown.
        unknown: UnknownId,
        /// Its exact value.
        value: Rational,
    },
    /// `unknown := coeff · other + offset` with `other` surviving.
    Affine {
        /// The eliminated unknown.
        unknown: UnknownId,
        /// The coefficient of `other`.
        coeff: Rational,
        /// The surviving unknown the elimination references.
        other: UnknownId,
        /// The constant offset.
        offset: Rational,
    },
    /// `unknown := expr` for a general (at most quadratic) right-hand side
    /// over surviving unknowns.
    Solved {
        /// The eliminated unknown.
        unknown: UnknownId,
        /// Its defining expression.
        expr: QuadExpr,
    },
    /// One half of a difference-of-squares pair `c·a² − c·b²` whose row
    /// became vacuous: `a² − b² = v` has the rational solution
    /// `a = (v+1)/2`, `b = (v−1)/2`, and because the pair occurs nowhere
    /// else the signs are free, so `unknown := |(value ± 1)/2|` (the
    /// absolute value also satisfies any dropped `unknown ≥ 0` bound).
    FreeSquare {
        /// The eliminated unknown.
        unknown: UnknownId,
        /// The expression whose value is `v = a² − b²`, over surviving
        /// unknowns.
        value: QuadExpr,
        /// `true` for the `a = (v+1)/2` half, `false` for `b = (v−1)/2`.
        plus: bool,
    },
    /// Sign normalization of a *surviving* unknown whose one-sided sign
    /// bound was dropped because every other occurrence is a square:
    /// `unknown := |unknown|` (or `−|unknown|` when `negative`). Not an
    /// elimination — the unknown stays a solver variable.
    Rectified {
        /// The normalized unknown.
        unknown: UnknownId,
        /// `true` when the dropped bound forced the unknown non-positive.
        negative: bool,
    },
}

impl Elimination {
    /// The unknown this elimination removes (or, for
    /// [`Elimination::Rectified`], normalizes).
    pub fn unknown(&self) -> UnknownId {
        match *self {
            Elimination::Fixed { unknown, .. }
            | Elimination::Affine { unknown, .. }
            | Elimination::Solved { unknown, .. }
            | Elimination::FreeSquare { unknown, .. }
            | Elimination::Rectified { unknown, .. } => unknown,
        }
    }

    /// `true` when the entry removes the unknown from the solver's search
    /// space (everything except [`Elimination::Rectified`]).
    pub fn eliminates(&self) -> bool {
        !matches!(self, Elimination::Rectified { .. })
    }
}

/// The record of every elimination performed by [`presolve`], in canonical
/// form (right-hand sides reference surviving unknowns only).
#[derive(Debug, Clone, Default)]
pub struct PresolveMap {
    eliminations: Vec<Elimination>,
}

impl PresolveMap {
    /// Number of eliminated unknowns.
    pub fn len(&self) -> usize {
        self.eliminations.len()
    }

    /// `true` when nothing was eliminated.
    pub fn is_empty(&self) -> bool {
        self.eliminations.is_empty()
    }

    /// Iterates over the recorded eliminations (ordered by unknown index).
    pub fn iter(&self) -> impl Iterator<Item = &Elimination> {
        self.eliminations.iter()
    }

    /// `mask[i] == true` iff unknown `i` was eliminated (rectified unknowns
    /// survive and stay unmasked).
    pub fn eliminated_mask(&self, num_unknowns: usize) -> Vec<bool> {
        let mut mask = vec![false; num_unknowns];
        for elim in &self.eliminations {
            let index = elim.unknown().index();
            if elim.eliminates() && index < num_unknowns {
                mask[index] = true;
            }
        }
        mask
    }

    /// Rewrites the eliminated entries of a full-length assignment from the
    /// surviving entries. Because the map is canonical, one pass suffices.
    pub fn back_substitute(&self, assignment: &mut [f64]) {
        for elim in &self.eliminations {
            let value = match elim {
                Elimination::Fixed { value, .. } => value.to_f64(),
                Elimination::Affine {
                    coeff,
                    other,
                    offset,
                    ..
                } => {
                    let base = assignment.get(other.index()).copied().unwrap_or(0.0);
                    coeff.to_f64() * base + offset.to_f64()
                }
                Elimination::Solved { expr, .. } => {
                    expr.eval(|u| assignment.get(u.index()).copied().unwrap_or(0.0))
                }
                Elimination::FreeSquare { value, plus, .. } => {
                    let v = value.eval(|u| assignment.get(u.index()).copied().unwrap_or(0.0));
                    let shift = if *plus { 1.0 } else { -1.0 };
                    ((v + shift) / 2.0).abs()
                }
                Elimination::Rectified { unknown, negative } => {
                    let current = assignment.get(unknown.index()).copied().unwrap_or(0.0);
                    if *negative {
                        -current.abs()
                    } else {
                        current.abs()
                    }
                }
            };
            if let Some(slot) = assignment.get_mut(elim.unknown().index()) {
                *slot = value;
            }
        }
    }

    /// Exact-rational counterpart of [`back_substitute`](Self::back_substitute).
    /// Returns `false` if checked arithmetic overflowed (the assignment is
    /// left partially rewritten and must not be trusted).
    pub fn back_substitute_rational(&self, values: &mut [Rational]) -> bool {
        for elim in &self.eliminations {
            let value_of =
                |u: UnknownId| -> Rational { values.get(u.index()).copied().unwrap_or_default() };
            let value = match elim {
                Elimination::Fixed { value, .. } => *value,
                Elimination::Affine {
                    coeff,
                    other,
                    offset,
                    ..
                } => {
                    let Ok(product) = coeff.checked_mul(&value_of(*other)) else {
                        return false;
                    };
                    let Ok(value) = product.checked_add(offset) else {
                        return false;
                    };
                    value
                }
                Elimination::Solved { expr, .. } => {
                    let Some(acc) = expr.checked_eval_rational(&value_of) else {
                        return false;
                    };
                    acc
                }
                Elimination::FreeSquare { value, plus, .. } => {
                    let Some(v) = value.checked_eval_rational(&value_of) else {
                        return false;
                    };
                    let shift = if *plus {
                        Rational::one()
                    } else {
                        -Rational::one()
                    };
                    let Ok(sum) = v.checked_add(&shift) else {
                        return false;
                    };
                    let Ok(half) = sum.checked_mul(&Rational::new(1, 2)) else {
                        return false;
                    };
                    half.abs()
                }
                Elimination::Rectified { unknown, negative } => {
                    let current = value_of(*unknown).abs();
                    if *negative {
                        -current
                    } else {
                        current
                    }
                }
            };
            if let Some(slot) = values.get_mut(elim.unknown().index()) {
                *slot = value;
            }
        }
        true
    }
}

/// Size and composition statistics of one presolve run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PresolveStats {
    /// `|S|` of the input system.
    pub size_before: usize,
    /// `|S|` of the presolved system.
    pub size_after: usize,
    /// Unknowns of the input system (the full registry).
    pub unknowns_before: usize,
    /// Unknowns left free after elimination.
    pub unknowns_after: usize,
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Unknowns eliminated by externally supplied pins.
    pub pinned: usize,
    /// Unknowns fixed to a constant by rows.
    pub fixed: usize,
    /// Unknowns eliminated in favor of one other unknown
    /// (`x := a·y + b`).
    pub affine: usize,
    /// Unknowns eliminated with a general quadratic definition.
    pub solved: usize,
    /// Unknowns eliminated as halves of free difference-of-squares pairs.
    pub freed: usize,
    /// Surviving unknowns whose one-sided sign bound was dropped in favor
    /// of a `|·|` normalization in the back-substitution map.
    pub rectified: usize,
    /// Rows dropped as trivially satisfied.
    pub dropped: usize,
    /// Rows dropped as syntactic duplicates (after normalization).
    pub duplicates: usize,
    /// Wall-clock seconds spent in the fixpoint.
    pub seconds: f64,
}

impl PresolveStats {
    /// Fraction of rows removed, in `[0, 1]`.
    pub fn size_reduction(&self) -> f64 {
        if self.size_before == 0 {
            0.0
        } else {
            1.0 - self.size_after as f64 / self.size_before as f64
        }
    }
}

/// The output of [`presolve`]: the reduced system (same registry, reduced
/// rows), the elimination record, and the run statistics.
#[derive(Debug, Clone)]
pub struct PresolvedSystem {
    /// The reduced system. Its registry is the *original* registry — the
    /// eliminated unknowns simply no longer occur in any row.
    pub system: QuadraticSystem,
    /// Every elimination, in canonical back-substitutable form.
    pub map: PresolveMap,
    /// Run statistics.
    pub stats: PresolveStats,
}

/// Runs the presolve fixpoint. `pinned` maps externally fixed unknowns to
/// their exact values; the pins are honored unconditionally (short of
/// checked-arithmetic overflow — see [`PresolvedSystem`]) and recorded in
/// the returned map like any other elimination. Callers must re-apply any
/// pin that does *not* appear in the returned map (the overflow fallback).
pub fn presolve(
    system: &QuadraticSystem,
    pinned: &HashMap<UnknownId, Rational>,
    _options: &PresolveOptions,
) -> PresolvedSystem {
    let start = Instant::now();
    let mut stats = PresolveStats {
        size_before: system.size(),
        unknowns_before: system.num_unknowns(),
        ..PresolveStats::default()
    };

    // Unknowns whose elimination was rolled back (overflow / degree guard)
    // must survive.
    let mut blocked: HashSet<UnknownId> = HashSet::new();

    let mut eqs = system.equalities.clone();
    let mut ineqs = system.inequalities.clone();
    // The substitution map: eliminated unknown → its definition. Kept
    // canonical (definitions reference live unknowns only) by the
    // substitution pass, which rewrites definitions like rows.
    let mut subs: HashMap<UnknownId, QuadExpr> = HashMap::new();
    // Unknowns eliminated since the last substitution pass.
    let mut dirty: HashSet<UnknownId> = HashSet::new();
    // Halves of free difference-of-squares pairs: (unknown, v, plus) with
    // the pair value `v = a² − b²` over surviving unknowns (rewritten like
    // the substitution map to stay canonical).
    let mut free_squares: Vec<(UnknownId, QuadExpr, bool)> = Vec::new();
    // Sign-normalized surviving unknowns: (unknown, negative).
    let mut rectified: Vec<(UnknownId, bool)> = Vec::new();

    for (&unknown, &value) in pinned {
        subs.insert(unknown, QuadExpr::constant(value));
        dirty.insert(unknown);
    }

    loop {
        // (a) Substitute pending eliminations through every row and every
        // stored definition, to a local fixpoint, with rollback: if checked
        // arithmetic overflows or a product would exceed degree two, the
        // round's candidates stay free instead of producing wrong rows.
        if !dirty.is_empty() {
            let snapshot_eqs = eqs.clone();
            let snapshot_ineqs = ineqs.clone();
            let snapshot_subs = subs.clone();
            let snapshot_free = free_squares.clone();
            if substitute_to_fixpoint(&mut eqs, &mut ineqs, &mut subs, &mut free_squares).is_none()
            {
                eqs = snapshot_eqs;
                ineqs = snapshot_ineqs;
                subs = snapshot_subs;
                free_squares = snapshot_free;
                for unknown in dirty.drain() {
                    subs.remove(&unknown);
                    blocked.insert(unknown);
                }
                continue;
            }
            dirty.clear();
        }

        // (b) Drop trivial rows, normalize scaling, dedup.
        simplify_rows(&mut eqs, true, &mut stats);
        simplify_rows(&mut ineqs, false, &mut stats);

        if stats.rounds >= MAX_ROUNDS {
            break;
        }
        stats.rounds += 1;

        // (c0) Known products: a row `α·u·v + γ = 0` pins the *monomial*
        // `u·v` to a constant. Substituting that value through every other
        // row adds a multiple of the (kept) defining row — a solution-set-
        // preserving rewrite that strips quadratic occurrences of `u` and
        // `v`, often unlocking solved-variable eliminations below.
        let mut found = propagate_known_products(&mut eqs, &mut ineqs);

        // (c1) WLOG rules on square-only unknowns: drop one-sided sign
        // bounds in favor of a `|·|` normalization, and collapse rows made
        // vacuous by an exclusive difference-of-squares pair.
        found |= rectify_and_free_squares(
            &mut eqs,
            &mut ineqs,
            &subs,
            &mut free_squares,
            &mut rectified,
            &blocked,
        );

        // (c) Harvest new eliminations from equality rows. Rows that
        // mention an unknown eliminated earlier in this same scan are
        // skipped; the next round sees them substituted.
        let mut quad_occurring = quadratically_occurring(&eqs, &ineqs, &subs, &free_squares);
        for expr in &eqs {
            if expr.unknowns().any(|u| dirty.contains(&u)) {
                continue;
            }
            for (unknown, rhs) in candidate_eliminations(expr, &blocked, &subs, &quad_occurring) {
                if subs.contains_key(&unknown) || dirty.contains(&unknown) {
                    continue;
                }
                for (a, b) in rhs.quadratic_terms().iter().map(|&(pair, _)| pair) {
                    quad_occurring.insert(a);
                    quad_occurring.insert(b);
                }
                subs.insert(unknown, rhs);
                dirty.insert(unknown);
                found = true;
            }
        }
        if !found && dirty.is_empty() {
            break;
        }
    }

    let eliminated = subs.len() + free_squares.len();
    let mut eliminations: Vec<Elimination> = subs
        .iter()
        .map(|(&unknown, rhs)| classify(unknown, rhs))
        .collect();
    for (unknown, value, plus) in free_squares {
        eliminations.push(Elimination::FreeSquare {
            unknown,
            value,
            plus,
        });
    }
    eliminations.sort_by_key(|e| e.unknown().index());
    for elim in &eliminations {
        if pinned.contains_key(&elim.unknown()) {
            stats.pinned += 1;
        } else {
            match elim {
                Elimination::Fixed { .. } => stats.fixed += 1,
                Elimination::Affine { .. } => stats.affine += 1,
                Elimination::Solved { .. } => stats.solved += 1,
                Elimination::FreeSquare { .. } => stats.freed += 1,
                Elimination::Rectified { .. } => {}
            }
        }
    }
    // Rectifications act on surviving unknowns; apply them after every
    // value-producing entry so the `|·|` sees the final values.
    rectified.sort_by_key(|&(unknown, _)| unknown.index());
    stats.rectified = rectified.len();
    for (unknown, negative) in rectified {
        eliminations.push(Elimination::Rectified { unknown, negative });
    }

    let mut reduced = QuadraticSystem::new(system.registry.clone());
    reduced.equalities = eqs;
    reduced.inequalities = ineqs;
    reduced.num_pairs = system.num_pairs;

    stats.size_after = reduced.size();
    stats.unknowns_after = stats.unknowns_before - eliminated;
    stats.seconds = start.elapsed().as_secs_f64();

    PresolvedSystem {
        system: reduced,
        map: PresolveMap { eliminations },
        stats,
    }
}

/// Presents a definition as the most specific [`Elimination`] variant.
fn classify(unknown: UnknownId, rhs: &QuadExpr) -> Elimination {
    if rhs.linear_terms().is_empty() && rhs.quadratic_terms().is_empty() {
        return Elimination::Fixed {
            unknown,
            value: rhs.constant_part(),
        };
    }
    if rhs.quadratic_terms().is_empty() && rhs.linear_terms().len() == 1 {
        let (other, coeff) = rhs.linear_terms()[0];
        return Elimination::Affine {
            unknown,
            coeff,
            other,
            offset: rhs.constant_part(),
        };
    }
    Elimination::Solved {
        unknown,
        expr: rhs.clone(),
    }
}

/// Finds every equality of the shape `α·u·v + γ = 0` (one quadratic term,
/// no linear terms) and replaces the monomial `u·v` by its implied constant
/// value `-γ/α` in every *other* row. The defining row is kept, so the
/// rewrite is exactly "add a multiple of an equality" and preserves the
/// solution set. Returns `true` if any row changed.
fn propagate_known_products(eqs: &mut [QuadExpr], ineqs: &mut [QuadExpr]) -> bool {
    let mut products: HashMap<(UnknownId, UnknownId), (usize, Rational)> = HashMap::new();
    for (index, expr) in eqs.iter().enumerate() {
        if !expr.linear_terms().is_empty() || expr.quadratic_terms().len() != 1 {
            continue;
        }
        let (pair, coeff) = expr.quadratic_terms()[0];
        let Ok(value) = expr.constant_part().checked_div(&-coeff) else {
            continue;
        };
        products.entry(pair).or_insert((index, value));
    }
    if products.is_empty() {
        return false;
    }
    let mut changed = false;
    for (index, row) in eqs.iter_mut().enumerate() {
        if let Some(rewritten) = apply_known_products(row, &products, Some(index)) {
            *row = rewritten;
            changed = true;
        }
    }
    for row in ineqs.iter_mut() {
        if let Some(rewritten) = apply_known_products(row, &products, None) {
            *row = rewritten;
            changed = true;
        }
    }
    changed
}

/// Rewrites one row against the known-product table; `defining` is the
/// row's own index among the equalities (its own definition is skipped).
/// Returns `None` when nothing applies. Terms whose rewrite would overflow
/// are left in place.
fn apply_known_products(
    expr: &QuadExpr,
    products: &HashMap<(UnknownId, UnknownId), (usize, Rational)>,
    defining: Option<usize>,
) -> Option<QuadExpr> {
    let applies = |pair: &(UnknownId, UnknownId)| {
        products
            .get(pair)
            .is_some_and(|&(index, _)| defining != Some(index))
    };
    if !expr.quadratic_terms().iter().any(|(pair, _)| applies(pair)) {
        return None;
    }
    let mut out = QuadExpr::constant(expr.constant_part());
    for &(u, c) in expr.linear_terms() {
        out.add_linear(u, c).ok()?;
    }
    let mut changed = false;
    for &((a, b), c) in expr.quadratic_terms() {
        match products.get(&(a, b)) {
            Some(&(index, value)) if defining != Some(index) => {
                match c
                    .checked_mul(&value)
                    .and_then(|term| out.add_constant(term))
                {
                    Ok(()) => changed = true,
                    Err(_) => out.add_quadratic(a, b, c).ok()?,
                }
            }
            _ => out.add_quadratic(a, b, c).ok()?,
        }
    }
    changed.then_some(out)
}

/// Applies the two WLOG rules for unknowns that occur only in squares:
///
/// * **Rectification**: an inequality `c·u + d ≥ 0` with `d ≥ 0` whose `u`
///   occurs nowhere else linearly and in no mixed product is only a sign
///   normalization — every other constraint is invariant under `u → −u`.
///   The row is dropped and the map records `u := ±|u|`.
/// * **Free pairs**: an equality containing `c·a² − c·b²` where `a` and
///   `b` occur nowhere else imposes no constraint at all (`a² − b² = v`
///   has the rational solution `a = (v+1)/2`, `b = (v−1)/2` for every
///   `v`), so the row is dropped and both unknowns are eliminated.
///
/// Fired rows are zeroed in place; the next simplification pass drops and
/// counts them. Returns `true` if anything fired.
fn rectify_and_free_squares(
    eqs: &mut [QuadExpr],
    ineqs: &mut [QuadExpr],
    subs: &HashMap<UnknownId, QuadExpr>,
    free_squares: &mut Vec<(UnknownId, QuadExpr, bool)>,
    rectified: &mut Vec<(UnknownId, bool)>,
    blocked: &HashSet<UnknownId>,
) -> bool {
    let mut linear_occ: HashMap<UnknownId, usize> = HashMap::new();
    let mut square_occ: HashMap<UnknownId, usize> = HashMap::new();
    let mut mixed: HashSet<UnknownId> = HashSet::new();
    for expr in eqs
        .iter()
        .chain(ineqs.iter())
        .chain(subs.values())
        .chain(free_squares.iter().map(|(_, value, _)| value))
    {
        for &(u, _) in expr.linear_terms() {
            *linear_occ.entry(u).or_default() += 1;
        }
        for &((a, b), _) in expr.quadratic_terms() {
            if a == b {
                *square_occ.entry(a).or_default() += 1;
            } else {
                mixed.insert(a);
                mixed.insert(b);
            }
        }
    }
    let already: HashSet<UnknownId> = rectified.iter().map(|&(u, _)| u).collect();
    let mut changed = false;

    for row in ineqs.iter_mut() {
        if !row.quadratic_terms().is_empty() || row.linear_terms().len() != 1 {
            continue;
        }
        if row.constant_part().is_negative() {
            continue;
        }
        let (unknown, coeff) = row.linear_terms()[0];
        if blocked.contains(&unknown)
            || subs.contains_key(&unknown)
            || already.contains(&unknown)
            || linear_occ.get(&unknown) != Some(&1)
            || mixed.contains(&unknown)
        {
            continue;
        }
        rectified.push((unknown, coeff.is_negative()));
        *row = QuadExpr::zero();
        changed = true;
    }

    for row in eqs.iter_mut() {
        let eligible = |u: UnknownId| {
            !blocked.contains(&u)
                && !subs.contains_key(&u)
                && square_occ.get(&u) == Some(&1)
                && !linear_occ.contains_key(&u)
                && !mixed.contains(&u)
        };
        let squares: Vec<(UnknownId, Rational)> = row
            .quadratic_terms()
            .iter()
            .filter(|&&((a, b), _)| a == b)
            .map(|&((a, _), c)| (a, c))
            .collect();
        let mut pair = None;
        'search: for (i, &(a, ca)) in squares.iter().enumerate() {
            if !eligible(a) {
                continue;
            }
            for &(b, cb) in &squares[i + 1..] {
                if cb == -ca && eligible(b) {
                    pair = Some((a, b, ca));
                    break 'search;
                }
            }
        }
        let Some((plus, minus, coeff)) = pair else {
            continue;
        };
        let Some(value) = free_pair_value(row, plus, minus, coeff) else {
            continue;
        };
        free_squares.push((plus, value.clone(), true));
        free_squares.push((minus, value, false));
        *row = QuadExpr::zero();
        changed = true;
        // The occurrence tables are now stale for the unknowns of the
        // dropped row's remaining terms; stale counts only ever overcount,
        // so the rest of this pass is merely conservative.
    }
    changed
}

/// `row = coeff·plus² − coeff·minus² + rest = 0` ⇒ the pair value
/// `v = plus² − minus² = rest / (−coeff)`. `None` on overflow.
fn free_pair_value(
    row: &QuadExpr,
    plus: UnknownId,
    minus: UnknownId,
    coeff: Rational,
) -> Option<QuadExpr> {
    let divisor = -coeff;
    let mut value = QuadExpr::constant(row.constant_part().checked_div(&divisor).ok()?);
    for &(u, c) in row.linear_terms() {
        value.add_linear(u, c.checked_div(&divisor).ok()?).ok()?;
    }
    for &((x, y), c) in row.quadratic_terms() {
        if (x, y) == (plus, plus) || (x, y) == (minus, minus) {
            continue;
        }
        value
            .add_quadratic(x, y, c.checked_div(&divisor).ok()?)
            .ok()?;
    }
    Some(value)
}

/// All unknowns occurring in a quadratic term of any row or any stored
/// definition. Eliminating such an unknown with a *quadratic* definition
/// would push a product past degree two.
fn quadratically_occurring(
    eqs: &[QuadExpr],
    ineqs: &[QuadExpr],
    subs: &HashMap<UnknownId, QuadExpr>,
    free_squares: &[(UnknownId, QuadExpr, bool)],
) -> HashSet<UnknownId> {
    let mut set = HashSet::new();
    for expr in eqs
        .iter()
        .chain(ineqs)
        .chain(subs.values())
        .chain(free_squares.iter().map(|(_, value, _)| value))
    {
        for &((a, b), _) in expr.quadratic_terms() {
            set.insert(a);
            set.insert(b);
        }
    }
    set
}

/// The eliminations one equality row yields: either a zero sum of squares
/// (fixing every square's unknown to zero) or a single solved variable.
fn candidate_eliminations(
    expr: &QuadExpr,
    blocked: &HashSet<UnknownId>,
    subs: &HashMap<UnknownId, QuadExpr>,
    quad_occurring: &HashSet<UnknownId>,
) -> Vec<(UnknownId, QuadExpr)> {
    // Zero sum of squares: Σ cᵢ·uᵢ² = 0 with every cᵢ of one sign forces
    // every uᵢ to zero (blocked unknowns simply stay; fixing the others is
    // still implied).
    if expr.linear_terms().is_empty()
        && expr.constant_part().is_zero()
        && !expr.quadratic_terms().is_empty()
        && expr.quadratic_terms().iter().all(|&((a, b), _)| a == b)
    {
        let positive = expr.quadratic_terms().iter().all(|(_, c)| !c.is_negative());
        let negative = expr.quadratic_terms().iter().all(|(_, c)| c.is_negative());
        if positive || negative {
            return expr
                .quadratic_terms()
                .iter()
                .filter(|&&((a, _), _)| !blocked.contains(&a) && !subs.contains_key(&a))
                .map(|&((a, _), _)| (a, QuadExpr::zero()))
                .collect();
        }
    }

    // Solved variable: pick one linear occurrence `a·w` and define
    // `w := -(expr - a·w)/a`. Prefer the later-allocated unknown
    // (multiplier/certificate variables) so the template coefficients stay
    // the surviving representatives.
    let quadratic_rhs = !expr.quadratic_terms().is_empty();
    let mut candidates: Vec<(UnknownId, Rational)> = expr
        .linear_terms()
        .iter()
        .copied()
        .filter(|(u, _)| !blocked.contains(u) && !subs.contains_key(u))
        .filter(|(u, _)| !quadratic_rhs || !quad_occurring.contains(u))
        .collect();
    candidates.sort_by_key(|&(u, _)| std::cmp::Reverse(u.index()));
    for (unknown, coeff) in candidates {
        let Some(rhs) = solved_rhs(expr, unknown, coeff) else {
            continue;
        };
        if rhs.linear_terms().len() + rhs.quadratic_terms().len() > MAX_FILL_TERMS {
            continue;
        }
        return vec![(unknown, rhs)];
    }
    Vec::new()
}

/// `expr = a·unknown + rest = 0  ⇒  unknown := rest / (-a)`.
/// `None` on overflow.
fn solved_rhs(expr: &QuadExpr, unknown: UnknownId, coeff: Rational) -> Option<QuadExpr> {
    let divisor = -coeff;
    let mut rhs = QuadExpr::constant(expr.constant_part().checked_div(&divisor).ok()?);
    for &(u, c) in expr.linear_terms() {
        if u == unknown {
            continue;
        }
        rhs.add_linear(u, c.checked_div(&divisor).ok()?).ok()?;
    }
    for &((a, b), c) in expr.quadratic_terms() {
        rhs.add_quadratic(a, b, c.checked_div(&divisor).ok()?)
            .ok()?;
    }
    Some(rhs)
}

/// Substitutes the map through rows and stored definitions until nothing
/// mentions an eliminated unknown. Terminates because same-round
/// definitions only reference later-eliminated unknowns (the reference
/// relation is acyclic). `None` on overflow or a degree-two violation; the
/// structures may then be partially rewritten and must be discarded.
fn substitute_to_fixpoint(
    eqs: &mut [QuadExpr],
    ineqs: &mut [QuadExpr],
    subs: &mut HashMap<UnknownId, QuadExpr>,
    free_squares: &mut [(UnknownId, QuadExpr, bool)],
) -> Option<()> {
    loop {
        let mut changed = false;
        for row in eqs.iter_mut().chain(ineqs.iter_mut()) {
            if row.unknowns().any(|u| subs.contains_key(&u)) {
                *row = substitute_expr(row, subs)?;
                changed = true;
            }
        }
        for (_, value, _) in free_squares.iter_mut() {
            if value.unknowns().any(|u| subs.contains_key(&u)) {
                *value = substitute_expr(value, subs)?;
                changed = true;
            }
        }
        let stale: Vec<UnknownId> = subs
            .iter()
            .filter(|(_, rhs)| rhs.unknowns().any(|u| subs.contains_key(&u)))
            .map(|(&u, _)| u)
            .collect();
        for unknown in stale {
            let rhs = subs.get(&unknown).expect("present").clone();
            let rewritten = substitute_expr(&rhs, subs)?;
            subs.insert(unknown, rewritten);
            changed = true;
        }
        if !changed {
            return Some(());
        }
    }
}

/// Applies the substitution map to one expression. `None` on overflow or
/// when a product of definitions would exceed degree two.
fn substitute_expr(expr: &QuadExpr, subs: &HashMap<UnknownId, QuadExpr>) -> Option<QuadExpr> {
    let mut out = QuadExpr::constant(expr.constant_part());
    for &(u, c) in expr.linear_terms() {
        match subs.get(&u) {
            None => out.add_linear(u, c).ok()?,
            Some(rhs) => out.add_scaled(rhs, c).ok()?,
        }
    }
    for &((a, b), c) in expr.quadratic_terms() {
        add_product_checked(&mut out, c, subs.get(&a), a, subs.get(&b), b)?;
    }
    Some(out)
}

/// `out += c · A · B` where each factor is either a live unknown or its
/// definition. `None` on overflow or when the product would exceed degree
/// two.
fn add_product_checked(
    out: &mut QuadExpr,
    c: Rational,
    ra: Option<&QuadExpr>,
    a: UnknownId,
    rb: Option<&QuadExpr>,
    b: UnknownId,
) -> Option<()> {
    let degree = |rhs: &QuadExpr| {
        if !rhs.quadratic_terms().is_empty() {
            2
        } else if !rhs.linear_terms().is_empty() {
            1
        } else {
            0
        }
    };
    match (ra, rb) {
        (None, None) => {
            out.add_quadratic(a, b, c).ok()?;
        }
        (Some(ra), None) | (None, Some(ra)) => {
            // The free factor contributes degree one.
            if degree(ra) > 1 {
                return None;
            }
            let free = if rb.is_none() { b } else { a };
            out.add_linear(free, c.checked_mul(&ra.constant_part()).ok()?)
                .ok()?;
            for &(x, k) in ra.linear_terms() {
                out.add_quadratic(x, free, c.checked_mul(&k).ok()?).ok()?;
            }
        }
        (Some(ra), Some(rb)) => {
            if degree(ra) + degree(rb) > 2 {
                return None;
            }
            let (ca, cb) = (ra.constant_part(), rb.constant_part());
            out.add_constant(c.checked_mul(&ca).ok()?.checked_mul(&cb).ok()?)
                .ok()?;
            for &(x, k) in ra.linear_terms() {
                out.add_linear(x, c.checked_mul(&k).ok()?.checked_mul(&cb).ok()?)
                    .ok()?;
            }
            for &(y, k) in rb.linear_terms() {
                out.add_linear(y, c.checked_mul(&k).ok()?.checked_mul(&ca).ok()?)
                    .ok()?;
            }
            for &(x, kx) in ra.linear_terms() {
                for &(y, ky) in rb.linear_terms() {
                    out.add_quadratic(x, y, c.checked_mul(&kx).ok()?.checked_mul(&ky).ok()?)
                        .ok()?;
                }
            }
            for &((x, y), k) in ra.quadratic_terms() {
                out.add_quadratic(x, y, c.checked_mul(&k).ok()?.checked_mul(&cb).ok()?)
                    .ok()?;
            }
            for &((x, y), k) in rb.quadratic_terms() {
                out.add_quadratic(x, y, c.checked_mul(&k).ok()?.checked_mul(&ca).ok()?)
                    .ok()?;
            }
        }
    }
    Some(())
}

/// Drops trivially satisfied rows, normalizes scaling and removes
/// syntactic duplicates. Constant-*false* rows are kept untouched so an
/// infeasible system remains visibly infeasible (mirroring the solver
/// bridge's partial evaluation).
fn simplify_rows(rows: &mut Vec<QuadExpr>, equality: bool, stats: &mut PresolveStats) {
    let mut seen: HashSet<QuadExpr> = HashSet::with_capacity(rows.len());
    let mut kept: Vec<QuadExpr> = Vec::with_capacity(rows.len());
    for expr in rows.drain(..) {
        if expr.linear_terms().is_empty() && expr.quadratic_terms().is_empty() {
            let constant = expr.constant_part();
            let satisfied = if equality {
                constant.is_zero()
            } else {
                !constant.is_negative()
            };
            if satisfied {
                stats.dropped += 1;
            } else {
                kept.push(expr);
            }
            continue;
        }
        let normalized = normalize_row(expr, equality);
        if seen.insert(normalized.clone()) {
            kept.push(normalized);
        } else {
            stats.duplicates += 1;
        }
    }
    *rows = kept;
}

/// Scales a non-constant row to leading coefficient `1` (the coefficient of
/// the smallest linear term, else the smallest quadratic term). Equalities
/// may flip sign; inequalities only admit positive scaling, so the leading
/// coefficient becomes `±1`. Rows whose scaling would overflow are kept
/// unscaled (dedup is merely weaker for them).
fn normalize_row(expr: QuadExpr, equality: bool) -> QuadExpr {
    let leading = expr
        .linear_terms()
        .first()
        .map(|&(_, c)| c)
        .or_else(|| expr.quadratic_terms().first().map(|&(_, c)| c));
    let Some(leading) = leading else {
        return expr;
    };
    let factor = if equality { leading } else { leading.abs() };
    if factor == Rational::one() {
        return expr;
    }
    match checked_unscale(&expr, factor) {
        Some(scaled) => scaled,
        None => expr,
    }
}

/// `expr / factor` with checked arithmetic; `None` on overflow.
fn checked_unscale(expr: &QuadExpr, factor: Rational) -> Option<QuadExpr> {
    let mut out = QuadExpr::constant(expr.constant_part().checked_div(&factor).ok()?);
    for &(u, c) in expr.linear_terms() {
        out.add_linear(u, c.checked_div(&factor).ok()?).ok()?;
    }
    for &((a, b), c) in expr.quadratic_terms() {
        out.add_quadratic(a, b, c.checked_div(&factor).ok()?).ok()?;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unknowns::{UnknownKind, UnknownRegistry};

    fn affine(terms: &[(UnknownId, i64)], constant: i64) -> QuadExpr {
        let mut expr = QuadExpr::constant(Rational::from_int(constant));
        for &(u, c) in terms {
            expr.add_linear(u, Rational::from_int(c)).unwrap();
        }
        expr
    }

    fn fresh_system(num_witnesses: usize) -> (QuadraticSystem, Vec<UnknownId>) {
        let mut registry = UnknownRegistry::new();
        let ids: Vec<UnknownId> = (0..num_witnesses)
            .map(|pair| registry.fresh(UnknownKind::Witness { pair }))
            .collect();
        (QuadraticSystem::new(registry), ids)
    }

    #[test]
    fn single_unknown_rows_fix_and_propagate() {
        let (mut system, ids) = fresh_system(3);
        let [x, y, z] = [ids[0], ids[1], ids[2]];
        // 2x - 4 = 0, x + y - 5 = 0, x·z + y - z - 5 = 0.
        system.equalities.push(affine(&[(x, 2)], -4));
        system.equalities.push(affine(&[(x, 1), (y, 1)], -5));
        let mut quad = affine(&[(y, 1), (z, -1)], -5);
        quad.add_quadratic(x, z, Rational::one()).unwrap();
        system.equalities.push(quad);

        let result = presolve(&system, &HashMap::new(), &PresolveOptions::default());
        // x := 2, then y := 3, then the quadratic row becomes 2z + 3 - z - 5
        // = z - 2 = 0, so z := 2 and everything collapses.
        assert_eq!(
            result.stats.fixed + result.stats.affine + result.stats.solved,
            3
        );
        assert_eq!(result.system.size(), 0);
        assert_eq!(result.stats.unknowns_after, 0);

        let mut assignment = vec![0.0; 3];
        result.map.back_substitute(&mut assignment);
        assert_eq!(assignment, vec![2.0, 3.0, 2.0]);
        assert_eq!(system.max_violation(&assignment), 0.0);
    }

    #[test]
    fn two_unknown_rows_eliminate_the_later_unknown() {
        let (mut system, ids) = fresh_system(2);
        let [x, y] = [ids[0], ids[1]];
        // 2y - 4x + 6 = 0  ⇒  y := 2x - 3; plus an inequality over y.
        system.equalities.push(affine(&[(x, -4), (y, 2)], 6));
        system.inequalities.push(affine(&[(y, 1)], -1));

        let result = presolve(&system, &HashMap::new(), &PresolveOptions::default());
        assert_eq!(result.stats.affine, 1);
        assert_eq!(result.system.equalities.len(), 0);
        // The inequality y - 1 ≥ 0 became 2x - 4 ≥ 0, normalized to x - 2.
        assert_eq!(result.system.inequalities.len(), 1);
        let ineq = &result.system.inequalities[0];
        assert_eq!(ineq.linear_terms(), &[(x, Rational::one())]);
        assert_eq!(ineq.constant_part(), Rational::from_int(-2));

        let mut assignment = vec![0.0; 2];
        assignment[x.index()] = 5.0;
        result.map.back_substitute(&mut assignment);
        assert_eq!(assignment[y.index()], 7.0);
        assert_eq!(system.max_violation(&assignment), 0.0);
    }

    #[test]
    fn pins_seed_the_fixpoint() {
        let (mut system, ids) = fresh_system(2);
        let [s, t] = [ids[0], ids[1]];
        // s·t - 6 = 0 is quadratic until the pin s := 2 arrives.
        let mut row = QuadExpr::constant(Rational::from_int(-6));
        row.add_quadratic(s, t, Rational::one()).unwrap();
        system.equalities.push(row);

        let pins: HashMap<UnknownId, Rational> = [(s, Rational::from_int(2))].into_iter().collect();
        let result = presolve(&system, &pins, &PresolveOptions::default());
        assert_eq!(result.stats.pinned, 1);
        assert_eq!(result.stats.fixed, 1);
        assert_eq!(result.system.size(), 0);
        let mut assignment = vec![0.0; 2];
        result.map.back_substitute(&mut assignment);
        assert_eq!(assignment, vec![2.0, 3.0]);
    }

    #[test]
    fn solved_variables_substitute_quadratic_definitions() {
        let (mut system, ids) = fresh_system(3);
        let [x, y, w] = [ids[0], ids[1], ids[2]];
        // x·y - 2w + 6 = 0 defines w := (x·y + 6)/2 (w occurs nowhere
        // quadratically); 3w + x - 3 = 0 then becomes quadratic in x, y.
        let mut def = affine(&[(w, -2)], 6);
        def.add_quadratic(x, y, Rational::one()).unwrap();
        system.equalities.push(def);
        system.equalities.push(affine(&[(w, 3), (x, 1)], -3));

        let result = presolve(&system, &HashMap::new(), &PresolveOptions::default());
        assert_eq!(result.stats.solved, 1);
        assert_eq!(result.system.equalities.len(), 1);
        // The surviving row is (3/2)·x·y + x + 9 - 3 = 0 normalized to
        // leading coefficient one: x + (3/2)·x·y + 6 = 0 → x + ... /1.
        let row = &result.system.equalities[0];
        assert!(!row.quadratic_terms().is_empty());

        // Back-substitution: pick x = 2, y = -4 ⇒ w = (−8 + 6)/2 = −1.
        let mut assignment = vec![0.0; 3];
        assignment[x.index()] = 2.0;
        assignment[y.index()] = -4.0;
        result.map.back_substitute(&mut assignment);
        assert_eq!(assignment[w.index()], -1.0);
        // The defining row of the original system is exactly satisfied.
        let lookup = |u: UnknownId| assignment[u.index()];
        assert_eq!(system.equalities[0].eval(lookup), 0.0);
    }

    #[test]
    fn zero_sum_of_squares_fixes_all_unknowns() {
        let (mut system, ids) = fresh_system(3);
        let [x, y, z] = [ids[0], ids[1], ids[2]];
        // x² + 2y² = 0 forces x = y = 0; z² - 4 = 0 stays (two roots).
        let mut squares = QuadExpr::zero();
        squares.add_quadratic(x, x, Rational::one()).unwrap();
        squares.add_quadratic(y, y, Rational::from_int(2)).unwrap();
        system.equalities.push(squares);
        let mut two_roots = QuadExpr::constant(Rational::from_int(-4));
        two_roots.add_quadratic(z, z, Rational::one()).unwrap();
        system.equalities.push(two_roots);

        let result = presolve(&system, &HashMap::new(), &PresolveOptions::default());
        assert_eq!(result.stats.fixed, 2);
        assert_eq!(result.system.equalities.len(), 1);
        let mut assignment = vec![7.0; 3];
        result.map.back_substitute(&mut assignment);
        assert_eq!(assignment[x.index()], 0.0);
        assert_eq!(assignment[y.index()], 0.0);
        assert_eq!(assignment[z.index()], 7.0);
    }

    #[test]
    fn trivial_rows_drop_but_infeasible_markers_stay() {
        let (mut system, ids) = fresh_system(1);
        let x = ids[0];
        system.equalities.push(affine(&[(x, 1)], -1)); // x := 1
        system.equalities.push(affine(&[(x, 2)], -2)); // becomes 0 = 0
        system.equalities.push(affine(&[(x, 1)], 1)); // becomes 2 = 0: false
        system.inequalities.push(affine(&[(x, 1)], 0)); // becomes 1 ≥ 0
        system.inequalities.push(affine(&[(x, -1)], 0)); // becomes -1 ≥ 0: false

        let result = presolve(&system, &HashMap::new(), &PresolveOptions::default());
        let is_constant =
            |e: &QuadExpr| e.linear_terms().is_empty() && e.quadratic_terms().is_empty();
        assert_eq!(result.system.equalities.len(), 1);
        assert!(is_constant(&result.system.equalities[0]));
        assert_eq!(result.system.inequalities.len(), 1);
        assert!(is_constant(&result.system.inequalities[0]));
        assert!(result.stats.dropped >= 2);
    }

    #[test]
    fn duplicate_rows_merge_up_to_scaling() {
        let (mut system, ids) = fresh_system(2);
        let [x, y] = [ids[0], ids[1]];
        let mut quad = QuadExpr::zero();
        quad.add_quadratic(x, x, Rational::one()).unwrap();
        quad.add_quadratic(y, y, Rational::from_int(-3)).unwrap();
        quad.add_linear(y, Rational::from_int(2)).unwrap();
        quad.add_linear(x, Rational::from_int(5)).unwrap();
        system.equalities.push(quad.clone());
        system.equalities.push(quad.scale(Rational::from_int(-3)));
        system.inequalities.push(quad.clone());
        system.inequalities.push(quad.scale(Rational::from_int(5)));
        // Negative scaling must NOT merge inequalities.
        system.inequalities.push(quad.scale(Rational::from_int(-1)));

        let result = presolve(&system, &HashMap::new(), &PresolveOptions::default());
        assert_eq!(result.system.equalities.len(), 1);
        assert_eq!(result.system.inequalities.len(), 2);
        assert_eq!(result.stats.duplicates, 2);
    }

    #[test]
    fn back_substitution_is_exact_in_rationals() {
        let (mut system, ids) = fresh_system(3);
        let [x, y, z] = [ids[0], ids[1], ids[2]];
        // 3x - y = 0 and 2y - z - 1 = 0: the earliest unknown x survives,
        // y := 3x and z := 6x - 1.
        system.equalities.push(affine(&[(x, 3), (y, -1)], 0));
        system.equalities.push(affine(&[(y, 2), (z, -1)], -1));
        let result = presolve(&system, &HashMap::new(), &PresolveOptions::default());
        assert_eq!(result.map.len(), 2);
        assert_eq!(result.system.size(), 0);

        let mut values = vec![Rational::zero(); 3];
        values[x.index()] = Rational::new(1, 3);
        assert!(result.map.back_substitute_rational(&mut values));
        assert_eq!(values[y.index()], Rational::one());
        assert_eq!(values[z.index()], Rational::one());
        for eq in &system.equalities {
            let residual = eq.checked_eval_rational(|u| values[u.index()]);
            assert_eq!(residual, Some(Rational::zero()));
        }
    }

    #[test]
    fn chained_eliminations_stay_canonical() {
        let (mut system, ids) = fresh_system(4);
        let [a, b, c, d] = [ids[0], ids[1], ids[2], ids[3]];
        // d = c + 1, c = b + 1, b = a + 1: the map must express b, c and d
        // directly in terms of the surviving a.
        system.equalities.push(affine(&[(d, 1), (c, -1)], -1));
        system.equalities.push(affine(&[(c, 1), (b, -1)], -1));
        system.equalities.push(affine(&[(b, 1), (a, -1)], -1));
        let result = presolve(&system, &HashMap::new(), &PresolveOptions::default());
        assert_eq!(result.map.len(), 3);
        for elim in result.map.iter() {
            match elim {
                Elimination::Affine { other, .. } => assert_eq!(*other, a),
                _ => panic!("expected affine chains, got {elim:?}"),
            }
        }
        let mut assignment = vec![0.0; 4];
        assignment[a.index()] = 10.0;
        result.map.back_substitute(&mut assignment);
        assert_eq!(assignment, vec![10.0, 11.0, 12.0, 13.0]);
    }

    #[test]
    fn normalization_produces_leading_one_rows() {
        let (mut system, ids) = fresh_system(2);
        let [x, y] = [ids[0], ids[1]];
        // A row whose unknowns cannot be eliminated (both occur
        // quadratically): -2x + 4y + 8x·y + 4x² + 4y² + 6 = 0.
        let mut row = affine(&[(x, -2), (y, 4)], 6);
        row.add_quadratic(x, y, Rational::from_int(8)).unwrap();
        row.add_quadratic(x, x, Rational::from_int(4)).unwrap();
        row.add_quadratic(y, y, Rational::from_int(4)).unwrap();
        system.equalities.push(row);
        let result = presolve(&system, &HashMap::new(), &PresolveOptions::default());
        let eq = &result.system.equalities[0];
        assert_eq!(eq.linear_terms()[0], (x, Rational::one()));
        assert_eq!(eq.linear_terms()[1], (y, Rational::from_int(-2)));
        assert_eq!(eq.constant_part(), Rational::from_int(-3));
        assert_eq!(eq.quadratic_terms()[0], ((x, x), Rational::from_int(-2)));
    }

    #[test]
    fn sign_bounds_over_square_only_unknowns_rectify() {
        let (mut system, ids) = fresh_system(2);
        let [u, v] = [ids[0], ids[1]];
        // u occurs squared in an equality and linearly only in the bound
        // 2u + 3 ≥ 0, so the bound drops and u is rectified non-negative;
        // v's bound −3v + 6 ≥ 0 rectifies it non-positive the same way.
        let mut eq = QuadExpr::constant(Rational::from_int(-4));
        eq.add_quadratic(u, u, Rational::one()).unwrap();
        eq.add_quadratic(v, v, Rational::one()).unwrap();
        system.equalities.push(eq);
        system.inequalities.push(affine(&[(u, 2)], 3));
        system.inequalities.push(affine(&[(v, -3)], 6));

        let result = presolve(&system, &HashMap::new(), &PresolveOptions::default());
        assert_eq!(result.stats.rectified, 2);
        assert!(result.system.inequalities.is_empty());
        assert_eq!(result.system.equalities.len(), 1);
        // Rectified unknowns stay solver variables.
        assert_eq!(result.stats.unknowns_after, 2);
        let mask = result.map.eliminated_mask(2);
        assert_eq!(mask, vec![false, false]);

        // A solution of the reduced system with the "wrong" signs is folded
        // onto the dropped bounds exactly: squares are sign-invariant.
        let mut assignment = vec![0.0; 2];
        assignment[u.index()] = -2.0;
        assignment[v.index()] = 0.0;
        result.map.back_substitute(&mut assignment);
        assert_eq!(assignment, vec![2.0, 0.0]);
        assert_eq!(system.max_violation(&assignment), 0.0);

        let mut values = vec![Rational::zero(); 2];
        values[u.index()] = Rational::from_int(-2);
        assert!(result.map.back_substitute_rational(&mut values));
        assert_eq!(values[u.index()], Rational::from_int(2));
        assert!(!values[v.index()].is_negative());
    }

    #[test]
    fn exclusive_difference_of_squares_pairs_are_freed() {
        let (mut system, ids) = fresh_system(3);
        let [a, b, x] = [ids[0], ids[1], ids[2]];
        // a² − b² − x + 1 = 0 with a, b occurring nowhere else: the pair is
        // freely solvable as a = |(v+1)/2|, b = |(v−1)/2| for v = x − 1, so
        // the row drops and both unknowns leave the search space. x survives
        // because it also occurs squared in x² − 9 = 0.
        let mut pair_row = affine(&[(x, -1)], 1);
        pair_row.add_quadratic(a, a, Rational::one()).unwrap();
        pair_row.add_quadratic(b, b, -Rational::one()).unwrap();
        system.equalities.push(pair_row);
        let mut keep_x = QuadExpr::constant(Rational::from_int(-9));
        keep_x.add_quadratic(x, x, Rational::one()).unwrap();
        system.equalities.push(keep_x);

        let result = presolve(&system, &HashMap::new(), &PresolveOptions::default());
        assert_eq!(result.stats.freed, 2);
        assert_eq!(result.system.equalities.len(), 1);
        assert_eq!(result.stats.unknowns_after, 1);
        let mask = result.map.eliminated_mask(3);
        assert_eq!(mask, vec![true, true, false]);

        // x = 3 ⇒ v = 2 ⇒ a = 3/2, b = 1/2; the original row is exact.
        let mut assignment = vec![0.0; 3];
        assignment[x.index()] = 3.0;
        result.map.back_substitute(&mut assignment);
        assert_eq!(assignment[a.index()], 1.5);
        assert_eq!(assignment[b.index()], 0.5);
        assert_eq!(system.max_violation(&assignment), 0.0);

        // Exact in rationals too, including for v < 0 (x = −3 ⇒ v = −4 ⇒
        // a = |−3/2| = 3/2, b = |−5/2| = 5/2, and a² − b² = 9/4 − 25/4 = −4).
        let mut values = vec![Rational::zero(); 3];
        values[x.index()] = Rational::from_int(-3);
        assert!(result.map.back_substitute_rational(&mut values));
        assert_eq!(values[a.index()], Rational::new(3, 2));
        assert_eq!(values[b.index()], Rational::new(5, 2));
        let diff = values[a.index()] * values[a.index()] - values[b.index()] * values[b.index()];
        assert_eq!(diff, values[x.index()] - Rational::one());
    }

    #[test]
    fn running_example_presolve_round_trips() {
        use polyinv_lang::program::RUNNING_EXAMPLE_SOURCE;
        let program = polyinv_lang::parse_program(RUNNING_EXAMPLE_SOURCE).unwrap();
        let pre = polyinv_lang::Precondition::from_program(&program);
        let generated =
            crate::generate(&program, &pre, &crate::SynthesisOptions::default()).unwrap();
        let result = presolve(
            &generated.system,
            &HashMap::new(),
            &PresolveOptions::default(),
        );
        assert!(result.stats.size_after <= result.stats.size_before);
        assert!(result.stats.unknowns_after <= result.stats.unknowns_before);
        assert!(result.stats.rounds >= 1);

        // Any assignment extended through the map satisfies the surviving
        // reduced rows exactly as it satisfies their original counterparts;
        // the defining rows are exactly satisfied by construction.
        let mut assignment = vec![0.37; generated.system.num_unknowns()];
        result.map.back_substitute(&mut assignment);
        let reduced_violation = result.system.max_violation(&assignment);
        let original_violation = generated.system.max_violation(&assignment);
        assert!(
            original_violation <= 1e4 * reduced_violation + 1e-6,
            "original {original_violation} vs reduced {reduced_violation}"
        );
    }
}
