//! Hash-consed monomials: the [`MonomialTable`] arena and [`MonoId`]
//! handles.
//!
//! Constraint generation (Steps 1–3 of the paper) spends almost all of its
//! time in symbolic polynomial arithmetic, and the dominant costs of the
//! original representation were (a) cloning owned [`Monomial`] keys on every
//! map insertion and (b) comparing full exponent vectors on every lookup.
//! The table removes both: each distinct monomial is stored once and handed
//! out as a dense `u32` id, products of ids are memoized, and the monomial
//! bases `M_d` / `M_ϒ` used by the templates and the Putinar multipliers are
//! computed once per `(variables, degree)` pair and cached.
//!
//! One table serves one synthesis run (it is owned by the run's
//! `SynthesisContext` and travels into the `GeneratedSystem`), so ids are
//! meaningful only relative to their table. Raw id order is allocation
//! order; the canonical graded-lexicographic order of the public
//! [`Polynomial`](crate::Polynomial) API is recovered through
//! [`MonomialTable::grlex_cmp`] when interned data is converted back.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::monomial::{Monomial, VarId};

/// A fast multiply-xor hasher (FxHash) for the table's internal maps. The
/// keys are small ids or short exponent vectors, where SipHash's
/// flooding resistance buys nothing and its per-byte cost dominates the
/// memoized lookups on the reduction hot path.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.add(u64::from(value));
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.add(value as u64);
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type BuildFxHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with the fast [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildFxHasher>;

/// A dense handle for a monomial interned in a [`MonomialTable`].
///
/// Ids are only comparable within the table that produced them; the derived
/// `Ord` is allocation order, not the graded-lexicographic term order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MonoId(u32);

impl MonoId {
    /// The id of the constant monomial `1` (pre-interned in every table).
    pub const ONE: MonoId = MonoId(0);

    /// The raw index of the id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A hash-consing arena for monomials with memoized products and degree
/// bases.
#[derive(Debug, Clone, Default)]
pub struct MonomialTable {
    /// id → monomial, in allocation order.
    monos: Vec<Monomial>,
    /// id → total degree (cached; read on every basis/degree query).
    degrees: Vec<u32>,
    /// monomial → id (the hash-consing index).
    index: FxHashMap<Monomial, u32>,
    /// Memoized products, keyed by the ordered id pair.
    products: FxHashMap<(u32, u32), u32>,
    /// Memoized bases `M_d` keyed by `(variables, degree)`.
    bases: HashMap<(Vec<VarId>, u32), Vec<MonoId>>,
}

impl MonomialTable {
    /// An empty table with the constant monomial pre-interned as
    /// [`MonoId::ONE`].
    pub fn new() -> Self {
        let mut table = MonomialTable::default();
        let one = table.intern(Monomial::one());
        debug_assert_eq!(one, MonoId::ONE);
        table
    }

    /// The number of distinct monomials interned so far.
    pub fn len(&self) -> usize {
        self.monos.len()
    }

    /// `true` when nothing beyond the constant monomial was interned.
    pub fn is_empty(&self) -> bool {
        self.monos.len() <= 1
    }

    /// Interns a monomial, returning its stable id.
    pub fn intern(&mut self, monomial: Monomial) -> MonoId {
        if let Some(&id) = self.index.get(&monomial) {
            return MonoId(id);
        }
        let id = self.monos.len() as u32;
        self.degrees.push(monomial.degree());
        self.index.insert(monomial.clone(), id);
        self.monos.push(monomial);
        MonoId(id)
    }

    /// Interns the monomial of a single variable.
    pub fn var(&mut self, var: VarId) -> MonoId {
        self.intern(Monomial::variable(var))
    }

    /// The monomial behind an id.
    pub fn monomial(&self, id: MonoId) -> &Monomial {
        &self.monos[id.index()]
    }

    /// The total degree of an interned monomial (cached).
    pub fn degree(&self, id: MonoId) -> u32 {
        self.degrees[id.index()]
    }

    /// The memoized product of two interned monomials.
    pub fn mul(&mut self, a: MonoId, b: MonoId) -> MonoId {
        if a == MonoId::ONE {
            return b;
        }
        if b == MonoId::ONE {
            return a;
        }
        let key = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
        if let Some(&id) = self.products.get(&key) {
            return MonoId(id);
        }
        let product = self.monos[a.index()].mul(&self.monos[b.index()]);
        let id = self.intern(product);
        self.products.insert(key, id.0);
        id
    }

    /// Graded-lexicographic comparison of two interned monomials — the term
    /// order of the public [`Polynomial`](crate::Polynomial) API.
    pub fn grlex_cmp(&self, a: MonoId, b: MonoId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        self.degrees[a.index()]
            .cmp(&self.degrees[b.index()])
            .then_with(|| self.monos[a.index()].lex_cmp(&self.monos[b.index()]))
    }

    /// Sorts a term list with distinct monomials into canonical
    /// graded-lexicographic order. Distinct monomials make the order total,
    /// so the unstable sort (fewer moves of the possibly large terms) gives
    /// the list a stable one would.
    pub fn sort_terms<C>(&self, terms: &mut [(MonoId, C)]) {
        terms.sort_unstable_by(|(a, _), (b, _)| self.grlex_cmp(*a, *b));
    }

    /// The basis `M_d` of all monomials of total degree at most `degree`
    /// over `vars`, interned and in graded-lexicographic order. Memoized per
    /// `(vars, degree)` pair, which is what makes the per-pair multiplier
    /// bases of Step 3 cheap: most constraint pairs of a program share their
    /// variable scope.
    pub fn basis_up_to_degree(&mut self, vars: &[VarId], degree: u32) -> Vec<MonoId> {
        let key = (vars.to_vec(), degree);
        if let Some(basis) = self.bases.get(&key) {
            return basis.clone();
        }
        let basis: Vec<MonoId> = Monomial::all_up_to_degree(vars, degree)
            .into_iter()
            .map(|m| self.intern(m))
            .collect();
        self.bases.insert(key, basis.clone());
        basis
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: usize) -> VarId {
        VarId::new(i)
    }

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut table = MonomialTable::new();
        let x = table.var(v(0));
        let y = table.var(v(1));
        assert_eq!(table.var(v(0)), x);
        assert_ne!(x, y);
        assert_eq!(table.len(), 3); // 1, x, y
        assert_eq!(table.intern(Monomial::one()), MonoId::ONE);
        assert_eq!(table.degree(MonoId::ONE), 0);
        assert_eq!(table.degree(x), 1);
    }

    #[test]
    fn products_are_memoized_and_commutative() {
        let mut table = MonomialTable::new();
        let x = table.var(v(0));
        let y = table.var(v(1));
        let xy = table.mul(x, y);
        assert_eq!(table.mul(y, x), xy);
        assert_eq!(table.monomial(xy).degree(), 2);
        assert_eq!(table.mul(xy, MonoId::ONE), xy);
        let before = table.len();
        let _ = table.mul(x, y);
        assert_eq!(table.len(), before);
    }

    #[test]
    fn bases_are_cached_and_grlex_sorted() {
        let mut table = MonomialTable::new();
        let vars = [v(0), v(1), v(2)];
        let basis = table.basis_up_to_degree(&vars, 2);
        assert_eq!(basis.len(), 10); // C(5, 2)
        assert_eq!(basis[0], MonoId::ONE);
        for pair in basis.windows(2) {
            assert_eq!(table.grlex_cmp(pair[0], pair[1]), Ordering::Less);
        }
        // Second call hits the memo and returns the same ids.
        assert_eq!(table.basis_up_to_degree(&vars, 2), basis);
    }

    #[test]
    fn grlex_cmp_matches_monomial_ordering() {
        let mut table = MonomialTable::new();
        let low = table.var(v(5));
        let high = table.intern(Monomial::from_powers(&[(v(0), 2)]));
        assert_eq!(table.grlex_cmp(low, high), Ordering::Less);
        assert_eq!(table.grlex_cmp(high, low), Ordering::Greater);
        assert_eq!(table.grlex_cmp(low, low), Ordering::Equal);
    }
}
