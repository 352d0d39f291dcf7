//! Sparse `f64` linear algebra for the Step-4 solve path.
//!
//! The quadratic systems produced by the Putinar reduction are huge but
//! extremely sparse: on the Table 2/3 rows each residual touches only a
//! handful of the thousands of unknowns, so the Jacobian of the
//! least-squares reformulation is >99% zeros and its normal matrix `JᵀJ`
//! inherits that sparsity. This module provides the sparse substrate: the
//! Levenberg–Marquardt back-end runs on [`JtjPattern`] + [`SymbolicLdl`],
//! and [`CsrMatrix`] is the general-purpose building block for sparse
//! consumers that want an explicit matrix (it is not on the LM hot path):
//!
//! * [`CsrMatrix`] — a compressed-sparse-row matrix built from (sorted)
//!   triplets, with allocation-free mat-vec;
//! * [`JtjPattern`] — the *symbolic* normal matrix: given the fixed sparsity
//!   pattern of the Jacobian rows (which the `Problem` determines once), it
//!   precomputes the pattern of `JᵀJ` plus, per Jacobian row, the flat list
//!   of value positions its outer product scatters into. Accumulating `JᵀJ`
//!   then consumes sparse rows directly — neither `J` nor `Jᵀ` is ever
//!   materialized, densely or otherwise;
//! * [`SymbolicLdl`] / [`LdlNumeric`] — a sparse LDLᵀ factorization with a
//!   fill-reducing minimum-degree ordering. The ordering, elimination tree
//!   and column counts are computed **once** per pattern ([`SymbolicLdl::
//!   analyze`]); every LM iteration then only runs the numeric factorization
//!   and the triangular solves on preallocated buffers.
//!
//! Everything is deterministic: the ordering breaks ties by index, and the
//! numeric phases perform the same operations in the same order for a fixed
//! pattern. The dense [`Matrix`](crate::Matrix) routines remain the oracle
//! the property tests pin this module against.

use crate::linalg::Matrix;

/// Sentinel for "no parent" in the elimination tree.
const NONE: usize = usize::MAX;

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from triplets `(row, col, value)`. Triplets may
    /// arrive in any order; duplicates are summed.
    ///
    /// # Panics
    ///
    /// Panics if a triplet lies outside the `rows × cols` shape.
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Self {
        let mut sorted: Vec<(usize, usize, f64)> = triplets.into_iter().collect();
        for &(r, c, _) in &sorted {
            assert!(r < rows && c < cols, "triplet ({r}, {c}) outside shape");
        }
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_idx = Vec::with_capacity(sorted.len());
        let mut values = Vec::with_capacity(sorted.len());
        let mut previous = None;
        for (r, c, v) in sorted {
            if previous == Some((r, c)) {
                // Same (row, col) as the previous triplet: merge.
                *values.last_mut().unwrap() += v;
            } else {
                col_idx.push(c);
                values.push(v);
                previous = Some((r, c));
            }
            row_ptr[r + 1] = col_idx.len();
        }
        // Rows without entries inherit the running offset.
        for r in 1..=rows {
            if row_ptr[r] < row_ptr[r - 1] {
                row_ptr[r] = row_ptr[r - 1];
            }
        }
        CsrMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// The number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The column indices and values of one row.
    pub fn row(&self, row: usize) -> (&[usize], &[f64]) {
        let span = self.row_ptr[row]..self.row_ptr[row + 1];
        (&self.col_idx[span.clone()], &self.values[span])
    }

    /// Matrix–vector product into a fresh vector.
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.mul_vec_into(x, &mut out);
        out
    }

    /// Matrix–vector product into a caller-supplied buffer (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` have the wrong dimension.
    pub fn mul_vec_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.cols, "dimension mismatch in sparse mat-vec");
        assert_eq!(out.len(), self.rows, "output dimension mismatch");
        for r in 0..self.rows {
            let mut acc = 0.0;
            for p in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[p] * x[self.col_idx[p]];
            }
            out[r] = acc;
        }
    }

    /// Densifies the matrix (test oracle).
    pub fn to_dense(&self) -> Matrix {
        let mut m = Matrix::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            for p in self.row_ptr[r]..self.row_ptr[r + 1] {
                m.add_to(r, self.col_idx[p], self.values[p]);
            }
        }
        m
    }
}

/// Flat index of the unordered pair `(a, b)` with `a ≤ b` in a triangular
/// enumeration.
#[inline]
fn tri_index(a: usize, b: usize) -> usize {
    debug_assert!(a <= b);
    b * (b + 1) / 2 + a
}

/// The symbolic normal matrix `JᵀJ` of a Jacobian with fixed row sparsity.
///
/// Built once from the per-row variable patterns (a superset of the columns
/// each Jacobian row can touch), it stores the **lower triangle** of `JᵀJ`
/// in CSR (row `j` holds columns `i ≤ j`, sorted) — which is exactly the
/// upper triangle in column-major order, the layout the LDLᵀ factorization
/// consumes — plus, for every Jacobian row, the flat list of value positions
/// its outer product scatters into. Accumulating `JᵀJ` at a new point is
/// then a pure scatter over a values buffer: no dense `J`, no dense `Jᵀ`,
/// no index searches in the hot loop.
#[derive(Debug, Clone)]
pub struct JtjPattern {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    diag_pos: Vec<usize>,
    /// Per Jacobian row: the sorted variable pattern.
    row_vars: Vec<Vec<usize>>,
    /// Per Jacobian row: positions of all `(a ≤ b)` pattern pairs in the
    /// values buffer, triangular-indexed by local pattern indices.
    pair_pos: Vec<Vec<u32>>,
    jacobian_nnz: usize,
}

/// Per-call scratch for [`JtjPattern::accumulate_row`]: the row's entries
/// mapped to local pattern indices.
#[derive(Debug, Clone, Default)]
pub struct JtjScratch {
    local: Vec<(u32, f64)>,
}

impl JtjPattern {
    /// Analyzes the pattern: `n` variables, one sorted variable list per
    /// Jacobian row.
    ///
    /// # Panics
    ///
    /// Panics if a pattern mentions a variable `≥ n` or is not strictly
    /// sorted.
    pub fn new(n: usize, rows: Vec<Vec<usize>>) -> Self {
        let mut jacobian_nnz = 0;
        for vars in &rows {
            jacobian_nnz += vars.len();
            for pair in vars.windows(2) {
                assert!(pair[0] < pair[1], "row patterns must be strictly sorted");
            }
            if let Some(&last) = vars.last() {
                assert!(last < n, "row pattern mentions variable {last} >= {n}");
            }
        }
        // Union of all (min, max) pairs, plus the full diagonal (damping is
        // added to every diagonal entry, touched or not).
        let mut pairs: Vec<(usize, usize)> = (0..n).map(|j| (j, j)).collect();
        for vars in &rows {
            for (k, &a) in vars.iter().enumerate() {
                for &b in &vars[k..] {
                    pairs.push((b, a)); // stored at (row = max, col = min)
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx = Vec::with_capacity(pairs.len());
        for &(r, c) in &pairs {
            col_idx.push(c);
            row_ptr[r + 1] += 1;
        }
        for r in 0..n {
            row_ptr[r + 1] += row_ptr[r];
        }
        let find = |r: usize, c: usize| -> usize {
            let span = &col_idx[row_ptr[r]..row_ptr[r + 1]];
            row_ptr[r] + span.binary_search(&c).expect("pair in pattern")
        };
        let diag_pos: Vec<usize> = (0..n).map(|j| find(j, j)).collect();
        let pair_pos: Vec<Vec<u32>> = rows
            .iter()
            .map(|vars| {
                let p = vars.len();
                let mut positions = vec![0u32; p * (p + 1) / 2];
                for ib in 0..p {
                    for ia in 0..=ib {
                        let pos = find(vars[ib], vars[ia]);
                        positions[tri_index(ia, ib)] =
                            u32::try_from(pos).expect("pattern fits u32");
                    }
                }
                positions
            })
            .collect();
        JtjPattern {
            n,
            row_ptr,
            col_idx,
            diag_pos,
            row_vars: rows,
            pair_pos,
            jacobian_nnz,
        }
    }

    /// The matrix dimension.
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Stored entries of the lower triangle (diagonal included).
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Total entries of the Jacobian row patterns (the `nnz(J)` statistic).
    pub fn jacobian_nnz(&self) -> usize {
        self.jacobian_nnz
    }

    /// The lower-triangle CSR pattern (row pointers, column indices).
    pub fn pattern(&self) -> (&[usize], &[usize]) {
        (&self.row_ptr, &self.col_idx)
    }

    /// Position of each diagonal entry in a values buffer.
    pub fn diag_positions(&self) -> &[usize] {
        &self.diag_pos
    }

    /// A zeroed values buffer of the right size.
    pub fn values_buffer(&self) -> Vec<f64> {
        vec![0.0; self.nnz()]
    }

    /// Scatters the outer product of one Jacobian row into `values`
    /// (`values[pos(i, j)] += rowᵢ · rowⱼ`). The entries must be a subset of
    /// the row's declared pattern, sorted by column.
    pub fn accumulate_row(
        &self,
        row: usize,
        entries: &[(usize, f64)],
        values: &mut [f64],
        scratch: &mut JtjScratch,
    ) {
        let vars = &self.row_vars[row];
        let positions = &self.pair_pos[row];
        scratch.local.clear();
        for &(col, value) in entries {
            let local = vars
                .binary_search(&col)
                .expect("row entry inside the declared pattern");
            scratch.local.push((local as u32, value));
        }
        for (k, &(ia, va)) in scratch.local.iter().enumerate() {
            for &(ib, vb) in &scratch.local[k..] {
                values[positions[tri_index(ia as usize, ib as usize)] as usize] += va * vb;
            }
        }
    }

    /// Folds one per-chunk partial accumulation into `target`
    /// (`target[p] += partial[p]`).
    ///
    /// The chunk-parallel evaluator accumulates disjoint row ranges into
    /// private buffers and merges them **in chunk-index order**: because
    /// chunk boundaries are fixed by the row count (never by the worker
    /// count), the floating-point sum sequence — and therefore every bit of
    /// the result — is identical whether the chunks were filled by 1 thread
    /// or 16.
    pub fn merge_partial(&self, target: &mut [f64], partial: &[f64]) {
        debug_assert_eq!(target.len(), self.nnz());
        debug_assert_eq!(partial.len(), self.nnz());
        for (t, p) in target.iter_mut().zip(partial) {
            *t += p;
        }
    }

    /// Densifies a values buffer into the full symmetric matrix (oracle).
    pub fn to_dense(&self, values: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for r in 0..self.n {
            for p in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[p];
                m.set(r, c, values[p]);
                m.set(c, r, values[p]);
            }
        }
        m
    }
}

/// A fill-reducing ordering of a symmetric pattern, computed by quotient-
/// graph minimum degree (approximate external degrees, deterministic
/// smallest-index tie break). Any permutation is *correct* — the ordering
/// only controls fill in the factor — so the property tests exercise the
/// factorization under whatever this produces.
fn minimum_degree(n: usize, row_ptr: &[usize], col_idx: &[usize]) -> Vec<usize> {
    // Full (symmetric) adjacency, diagonal excluded.
    let mut adj_vars: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in 0..n {
        for p in row_ptr[r]..row_ptr[r + 1] {
            let c = col_idx[p];
            if c != r {
                adj_vars[r].push(c);
                adj_vars[c].push(r);
            }
        }
    }
    for list in &mut adj_vars {
        list.sort_unstable();
        list.dedup();
    }
    let mut adj_elems: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut elements: Vec<Vec<usize>> = Vec::new();
    let mut elem_alive: Vec<bool> = Vec::new();
    let mut degree: Vec<usize> = adj_vars.iter().map(Vec::len).collect();
    let mut eliminated = vec![false; n];
    let mut perm = Vec::with_capacity(n);
    let mut in_front = vec![false; n];

    for _ in 0..n {
        // Deterministic pick: smallest approximate degree, then smallest
        // index.
        let mut pivot = NONE;
        for v in 0..n {
            if !eliminated[v] && (pivot == NONE || degree[v] < degree[pivot]) {
                pivot = v;
            }
        }
        eliminated[pivot] = true;
        perm.push(pivot);

        // The pivot's elimination front: its live variable neighbours plus
        // the variables of its adjacent elements.
        let mut front: Vec<usize> = Vec::new();
        for &v in &adj_vars[pivot] {
            if !eliminated[v] && !in_front[v] {
                in_front[v] = true;
                front.push(v);
            }
        }
        for &e in &adj_elems[pivot] {
            if elem_alive[e] {
                for &v in &elements[e] {
                    if !eliminated[v] && !in_front[v] {
                        in_front[v] = true;
                        front.push(v);
                    }
                }
            }
        }
        front.sort_unstable();
        for &v in &front {
            in_front[v] = false;
        }
        // Absorb the pivot's elements into the new one and free their
        // storage.
        for &e in &adj_elems[pivot] {
            if elem_alive[e] {
                elem_alive[e] = false;
                elements[e] = Vec::new();
            }
        }
        let eid = elements.len();
        elements.push(front.clone());
        elem_alive.push(true);

        // Update the front variables: drop edges now covered by the new
        // element, attach the element, refresh approximate degrees.
        for &v in &front {
            let f = &front;
            adj_vars[v].retain(|&u| !eliminated[u] && f.binary_search(&u).is_err());
            adj_elems[v].retain(|&e| elem_alive[e]);
            adj_elems[v].push(eid);
            let mut d = adj_vars[v].len();
            for &e in &adj_elems[v] {
                d += elements[e].len().saturating_sub(1);
            }
            degree[v] = d;
        }
        adj_vars[pivot] = Vec::new();
        adj_elems[pivot] = Vec::new();
    }
    perm
}

/// The symbolic phase of a sparse LDLᵀ factorization: fill-reducing
/// permutation, permuted pattern with value-position links, elimination tree
/// and per-column factor counts. Computed **once** per pattern and reused by
/// every numeric factorization (only the matrix *values* change between LM
/// iterations).
#[derive(Debug, Clone)]
pub struct SymbolicLdl {
    n: usize,
    /// `perm[new] = old`.
    perm: Vec<usize>,
    /// Permuted upper triangle in column-major order: column `k` holds the
    /// rows `i < k` (new indices, unsorted) and, in parallel, the position
    /// of the corresponding entry in the caller's values buffer.
    a_col_ptr: Vec<usize>,
    a_row: Vec<usize>,
    a_val_pos: Vec<usize>,
    /// Position of the diagonal entry of each permuted column in the
    /// caller's values buffer.
    a_diag_pos: Vec<usize>,
    /// Elimination-tree parent (or `NONE`).
    parent: Vec<usize>,
    /// Column pointers of the factor `L` (strictly-lower CSC).
    l_col_ptr: Vec<usize>,
}

/// Preallocated numeric buffers of a sparse LDLᵀ: the factor itself plus the
/// working arrays of the up-looking factorization and the solves. One of
/// these per concurrent solver; the shared [`SymbolicLdl`] stays immutable.
#[derive(Debug, Clone)]
pub struct LdlNumeric {
    l_row: Vec<usize>,
    l_values: Vec<f64>,
    d: Vec<f64>,
    y: Vec<f64>,
    pattern: Vec<usize>,
    flag: Vec<usize>,
    next_slot: Vec<usize>,
    work: Vec<f64>,
}

impl LdlNumeric {
    /// The pivots `D` of the last successful factorization (test oracle for
    /// the bitwise serial/parallel equivalence).
    pub fn pivots(&self) -> &[f64] {
        &self.d
    }

    /// The strictly-lower factor values of the last successful factorization
    /// (test oracle for the bitwise serial/parallel equivalence).
    pub fn factor_values(&self) -> &[f64] {
        &self.l_values
    }
}

/// Raw views into an [`LdlNumeric`]'s buffers, shared across the subtree
/// workers of [`SymbolicLdl::factor_parallel`]. Columns of disjoint
/// elimination-tree subtrees touch disjoint indices of every one of these
/// arrays, which is what makes the aliasing sound.
struct ColumnBuffers {
    y: *mut f64,
    flag: *mut usize,
    next_slot: *mut usize,
    d: *mut f64,
    l_row: *mut usize,
    l_values: *mut f64,
}

// SAFETY: the pointers are only dereferenced under the subtree-disjointness
// protocol documented on `factor_column`. This is the workspace's one
// audited unsafe island: the deny(unsafe_code) default stays in force
// everywhere else.
#[allow(unsafe_code)]
unsafe impl Sync for ColumnBuffers {}

impl ColumnBuffers {
    fn from_numeric(num: &mut LdlNumeric) -> Self {
        ColumnBuffers {
            y: num.y.as_mut_ptr(),
            flag: num.flag.as_mut_ptr(),
            next_slot: num.next_slot.as_mut_ptr(),
            d: num.d.as_mut_ptr(),
            l_row: num.l_row.as_mut_ptr(),
            l_values: num.l_values.as_mut_ptr(),
        }
    }
}

/// The column partition [`SymbolicLdl::subtree_schedule`] hands to the
/// parallel factorization: independent subtrees (safe to factor
/// concurrently) plus the serial top-of-tree columns.
#[derive(Debug, Clone)]
pub struct SubtreeSchedule {
    subtrees: Vec<Vec<usize>>,
    top: Vec<usize>,
}

impl SubtreeSchedule {
    /// The independent subtrees, each listing its columns in ascending
    /// order.
    pub fn subtrees(&self) -> &[Vec<usize>] {
        &self.subtrees
    }

    /// The serial top-of-tree columns, ascending.
    pub fn top(&self) -> &[usize] {
        &self.top
    }
}

impl SymbolicLdl {
    /// Analyzes a symmetric pattern given as its **lower triangle in CSR**
    /// (row `j` holds the sorted columns `i ≤ j`, diagonal present in every
    /// row): computes the minimum-degree permutation, the permuted pattern
    /// and the elimination tree with its column counts.
    ///
    /// # Panics
    ///
    /// Panics if a diagonal entry is missing or the pattern is not lower
    /// triangular.
    pub fn analyze(n: usize, row_ptr: &[usize], col_idx: &[usize]) -> Self {
        let perm = minimum_degree(n, row_ptr, col_idx);
        let mut inv_perm = vec![0usize; n];
        for (new, &old) in perm.iter().enumerate() {
            inv_perm[old] = new;
        }

        // Permuted upper columns: entry (old r, old c ≤ r) lands in column
        // max(inv r, inv c) at row min(inv r, inv c).
        let mut a_col_ptr = vec![0usize; n + 1];
        let mut a_diag_pos = vec![NONE; n];
        for r in 0..n {
            for p in row_ptr[r]..row_ptr[r + 1] {
                let c = col_idx[p];
                assert!(c <= r, "pattern must be lower triangular");
                if c == r {
                    a_diag_pos[inv_perm[r]] = p;
                } else {
                    a_col_ptr[inv_perm[r].max(inv_perm[c]) + 1] += 1;
                }
            }
        }
        for (k, &pos) in a_diag_pos.iter().enumerate() {
            assert!(pos != NONE, "missing diagonal entry in column {k}");
        }
        for k in 0..n {
            a_col_ptr[k + 1] += a_col_ptr[k];
        }
        let nnz_off = a_col_ptr[n];
        let mut a_row = vec![0usize; nnz_off];
        let mut a_val_pos = vec![0usize; nnz_off];
        let mut cursor = a_col_ptr.clone();
        for r in 0..n {
            for p in row_ptr[r]..row_ptr[r + 1] {
                let c = col_idx[p];
                if c != r {
                    let (i, k) = {
                        let (a, b) = (inv_perm[r], inv_perm[c]);
                        (a.min(b), a.max(b))
                    };
                    a_row[cursor[k]] = i;
                    a_val_pos[cursor[k]] = p;
                    cursor[k] += 1;
                }
            }
        }

        // Elimination tree and column counts (Davis, `ldl_symbolic`).
        let mut parent = vec![NONE; n];
        let mut flag = vec![NONE; n];
        let mut counts = vec![0usize; n];
        for k in 0..n {
            flag[k] = k;
            for p in a_col_ptr[k]..a_col_ptr[k + 1] {
                let mut j = a_row[p];
                while flag[j] != k {
                    if parent[j] == NONE {
                        parent[j] = k;
                    }
                    counts[j] += 1;
                    flag[j] = k;
                    j = parent[j];
                }
            }
        }
        let mut l_col_ptr = vec![0usize; n + 1];
        for k in 0..n {
            l_col_ptr[k + 1] = l_col_ptr[k] + counts[k];
        }
        SymbolicLdl {
            n,
            perm,
            a_col_ptr,
            a_row,
            a_val_pos,
            a_diag_pos,
            parent,
            l_col_ptr,
        }
    }

    /// The matrix dimension.
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Entries of the factor `L` including the (unit) diagonal — the
    /// `nnz(L)` statistic.
    pub fn nnz_factor(&self) -> usize {
        self.l_col_ptr[self.n] + self.n
    }

    /// The fill-reducing permutation (`perm[new] = old`).
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Allocates the numeric buffers matching this symbolic analysis.
    pub fn numeric(&self) -> LdlNumeric {
        let nnz = self.l_col_ptr[self.n];
        LdlNumeric {
            l_row: vec![0; nnz],
            l_values: vec![0.0; nnz],
            d: vec![0.0; self.n],
            y: vec![0.0; self.n],
            pattern: vec![0; self.n],
            flag: vec![NONE; self.n],
            next_slot: vec![0; self.n],
            work: vec![0.0; self.n],
        }
    }

    /// Numeric up-looking LDLᵀ of `A + diag(diag_add)`, where `values` is
    /// the buffer the lower-triangle pattern of [`SymbolicLdl::analyze`]
    /// indexes into (e.g. a [`JtjPattern`] accumulation) and `diag_add` is
    /// the per-variable damping. Returns `false` when a pivot is not
    /// strictly positive (the matrix is not numerically positive definite at
    /// this damping) — the factor is then unusable and the caller should
    /// increase the damping.
    #[allow(unsafe_code)]
    pub fn factor(&self, values: &[f64], diag_add: &[f64], num: &mut LdlNumeric) -> bool {
        let n = self.n;
        num.next_slot.copy_from_slice(&self.l_col_ptr[..n]);
        let buffers = ColumnBuffers::from_numeric(num);
        let pattern = num.pattern.as_mut_ptr();
        for k in 0..n {
            // SAFETY: exclusive `&mut num` — no other access is live.
            if !unsafe { self.factor_column(k, values, diag_add, &buffers, pattern) } {
                return false;
            }
        }
        true
    }

    /// One column of the up-looking factorization, operating through raw
    /// pointers so independent elimination-tree subtrees can run on worker
    /// threads over the *same* numeric buffers.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that no concurrent `factor_column` call
    /// touches an overlapping index set. Column `k` reads and writes only
    /// `y`/`flag`/`next_slot`/`d` at `k` and its elimination-tree
    /// descendants, and the `l_row`/`l_values` spans of those descendant
    /// columns — so columns in **disjoint subtrees** never alias (the basis
    /// of [`factor_parallel`](Self::factor_parallel)). `pattern` is a
    /// caller-private stack of length ≥ `n`.
    #[allow(unsafe_code)]
    unsafe fn factor_column(
        &self,
        k: usize,
        values: &[f64],
        diag_add: &[f64],
        buf: &ColumnBuffers,
        pattern: *mut usize,
    ) -> bool {
        let n = self.n;
        // Pattern of row k of L: nodes reachable from the column's
        // entries through the elimination tree, in topological order.
        let mut top = n;
        *buf.flag.add(k) = k;
        *buf.y.add(k) = 0.0;
        for p in self.a_col_ptr[k]..self.a_col_ptr[k + 1] {
            let i = self.a_row[p];
            *buf.y.add(i) += values[self.a_val_pos[p]];
            let mut len = 0;
            let mut j = i;
            while *buf.flag.add(j) != k {
                *pattern.add(len) = j;
                len += 1;
                *buf.flag.add(j) = k;
                j = self.parent[j];
            }
            while len > 0 {
                len -= 1;
                top -= 1;
                *pattern.add(top) = *pattern.add(len);
            }
        }
        let mut dk = values[self.a_diag_pos[k]] + diag_add[self.perm[k]];
        for t in top..n {
            let j = *pattern.add(t);
            let yj = *buf.y.add(j);
            *buf.y.add(j) = 0.0;
            let slot = *buf.next_slot.add(j);
            for p in self.l_col_ptr[j]..slot {
                *buf.y.add(*buf.l_row.add(p)) -= *buf.l_values.add(p) * yj;
            }
            let dj = *buf.d.add(j);
            let lkj = yj / dj;
            dk -= lkj * yj;
            *buf.l_row.add(slot) = k;
            *buf.l_values.add(slot) = lkj;
            *buf.next_slot.add(j) = slot + 1;
        }
        // A NaN pivot fails both comparisons, so non-finite values are
        // rejected along with non-positive ones.
        if dk <= 0.0 || !dk.is_finite() {
            return false;
        }
        *buf.d.add(k) = dk;
        true
    }

    /// Partitions the columns for parallel factorization: maximal
    /// elimination-tree subtrees small enough to balance across `threads`
    /// workers, plus the serial top-of-tree remainder.
    ///
    /// Columns inside a subtree stay in ascending order and the top columns
    /// run last, also ascending — exactly the visit order of the serial
    /// factorization, so the arithmetic (and the factor's bit pattern) is
    /// unchanged no matter how subtrees are spread over workers.
    pub fn subtree_schedule(&self, threads: usize) -> SubtreeSchedule {
        let n = self.n;
        // Subtree sizes: children precede parents (parent[k] > k), so one
        // ascending pass suffices.
        let mut size = vec![1usize; n];
        for k in 0..n {
            if self.parent[k] != NONE {
                size[self.parent[k]] += size[k];
            }
        }
        // A column is "top" when its subtree is too big to hand to one
        // worker. Subtree size is monotone up the tree, so the top set is
        // upward-closed and everything below it splits into independent
        // subtrees.
        let cutoff = (n / threads.max(1).saturating_mul(4)).max(32);
        let is_top: Vec<bool> = size.iter().map(|&s| s > cutoff).collect();
        // Assign each non-top column to the root of its maximal non-top
        // subtree. Parents have larger indices, so a descending pass sees
        // the parent's assignment first.
        let mut root = vec![NONE; n];
        for k in (0..n).rev() {
            if is_top[k] {
                continue;
            }
            let p = self.parent[k];
            root[k] = if p == NONE || is_top[p] { k } else { root[p] };
        }
        let mut subtrees_by_root: Vec<Vec<usize>> = Vec::new();
        let mut root_slot = vec![NONE; n];
        let mut top = Vec::new();
        for k in 0..n {
            if is_top[k] {
                top.push(k);
            } else {
                let r = root[k];
                if root_slot[r] == NONE {
                    root_slot[r] = subtrees_by_root.len();
                    subtrees_by_root.push(Vec::new());
                }
                subtrees_by_root[root_slot[r]].push(k);
            }
        }
        SubtreeSchedule {
            subtrees: subtrees_by_root,
            top,
        }
    }

    /// Like [`factor`](Self::factor), but with the independent
    /// elimination-tree subtrees of [`subtree_schedule`](Self::
    /// subtree_schedule) factored on up to `threads` worker threads before
    /// the serial top-of-tree pass. Falls back to the serial path when the
    /// budget or the schedule offers no parallelism.
    ///
    /// The result — factor values, pivots, and the success verdict — is
    /// bitwise identical to the serial factorization: every column performs
    /// the same operations in the same order, only *which thread* runs a
    /// subtree changes.
    #[allow(unsafe_code)]
    pub fn factor_parallel(
        &self,
        values: &[f64],
        diag_add: &[f64],
        num: &mut LdlNumeric,
        threads: usize,
    ) -> bool {
        if threads <= 1 || self.n < 64 {
            return self.factor(values, diag_add, num);
        }
        let schedule = self.subtree_schedule(threads);
        if schedule.subtrees.len() <= 1 {
            return self.factor(values, diag_add, num);
        }
        let n = self.n;
        num.next_slot.copy_from_slice(&self.l_col_ptr[..n]);
        let buffers = ColumnBuffers::from_numeric(num);
        let ok = std::sync::atomic::AtomicBool::new(true);
        let next = std::sync::atomic::AtomicUsize::new(0);
        let workers = threads.min(schedule.subtrees.len());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let buffers = &buffers;
                let schedule = &schedule;
                let ok = &ok;
                let next = &next;
                scope.spawn(move || {
                    // Worker-private pattern stack; every other buffer is
                    // shared but touched at subtree-disjoint indices.
                    let mut pattern = vec![0usize; n];
                    loop {
                        let s = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if s >= schedule.subtrees.len()
                            || !ok.load(std::sync::atomic::Ordering::Relaxed)
                        {
                            return;
                        }
                        for &k in &schedule.subtrees[s] {
                            // SAFETY: columns of distinct subtrees touch
                            // disjoint indices (see `factor_column`), and a
                            // subtree is processed by exactly one worker.
                            let fine = unsafe {
                                self.factor_column(
                                    k,
                                    values,
                                    diag_add,
                                    buffers,
                                    pattern.as_mut_ptr(),
                                )
                            };
                            if !fine {
                                ok.store(false, std::sync::atomic::Ordering::Relaxed);
                                return;
                            }
                        }
                    }
                });
            }
        });
        if !ok.load(std::sync::atomic::Ordering::Relaxed) {
            return false;
        }
        // Top-of-tree columns depend on multiple subtrees: serial, ascending.
        let pattern = num.pattern.as_mut_ptr();
        for &k in &schedule.top {
            // SAFETY: the worker scope has joined; access is exclusive again.
            if !unsafe { self.factor_column(k, values, diag_add, &buffers, pattern) } {
                return false;
            }
        }
        true
    }

    /// Solves `(A + diag) x = b` in place using the factor produced by the
    /// last successful [`factor`](Self::factor) call on `num`.
    pub fn solve(&self, num: &mut LdlNumeric, b: &mut [f64]) {
        let n = self.n;
        for k in 0..n {
            num.work[k] = b[self.perm[k]];
        }
        for k in 0..n {
            let xk = num.work[k];
            if xk != 0.0 {
                for p in self.l_col_ptr[k]..self.l_col_ptr[k + 1] {
                    num.work[num.l_row[p]] -= num.l_values[p] * xk;
                }
            }
        }
        for k in 0..n {
            num.work[k] /= num.d[k];
        }
        for k in (0..n).rev() {
            let mut xk = num.work[k];
            for p in self.l_col_ptr[k]..self.l_col_ptr[k + 1] {
                xk -= num.l_values[p] * num.work[num.l_row[p]];
            }
            num.work[k] = xk;
        }
        for k in 0..n {
            b[self.perm[k]] = num.work[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Vector;

    #[test]
    fn csr_from_triplets_merges_duplicates_and_multiplies() {
        let m = CsrMatrix::from_triplets(
            3,
            4,
            vec![(2, 1, 1.0), (0, 0, 2.0), (0, 0, 0.5), (1, 3, -1.0)],
        );
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0), (&[0usize][..], &[2.5][..]));
        let y = m.mul_vec(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(y, vec![2.5, -4.0, 2.0]);
        let dense = m.to_dense();
        assert_eq!(dense.get(0, 0), 2.5);
        assert_eq!(dense.get(1, 3), -1.0);
    }

    #[test]
    fn jtj_accumulation_matches_the_dense_normal_matrix() {
        // Rows of a 4-column Jacobian with fixed sparsity.
        let patterns = vec![vec![0, 2], vec![1, 2, 3], vec![0], vec![1, 3]];
        let pattern = JtjPattern::new(4, patterns.clone());
        assert_eq!(pattern.jacobian_nnz(), 8);
        let rows: Vec<Vec<(usize, f64)>> = vec![
            vec![(0, 1.0), (2, -2.0)],
            vec![(1, 3.0), (2, 0.5), (3, 1.0)],
            vec![(0, -1.0)],
            vec![(1, 2.0)], // subset of the declared pattern
        ];
        let mut values = pattern.values_buffer();
        let mut scratch = JtjScratch::default();
        for (k, entries) in rows.iter().enumerate() {
            pattern.accumulate_row(k, entries, &mut values, &mut scratch);
        }
        // Dense oracle.
        let mut j = Matrix::zeros(4, 4);
        for (r, entries) in rows.iter().enumerate() {
            for &(c, v) in entries {
                j.set(r, c, v);
            }
        }
        let jtj = &j.transpose() * &j;
        let dense = pattern.to_dense(&values);
        for r in 0..4 {
            for c in 0..4 {
                assert!(
                    (dense.get(r, c) - jtj.get(r, c)).abs() < 1e-12,
                    "mismatch at ({r}, {c})"
                );
            }
        }
    }

    #[test]
    fn minimum_degree_produces_a_permutation() {
        // Arrowhead pattern: dense first row/column.
        let patterns: Vec<Vec<usize>> = (1..6).map(|i| vec![0, i]).collect();
        let jtj = JtjPattern::new(6, patterns);
        let (row_ptr, col_idx) = jtj.pattern();
        let perm = minimum_degree(6, row_ptr, col_idx);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        // The hub (variable 0) must not be eliminated early: doing so first
        // fills the remaining graph in completely. Once only one spoke is
        // left the hub ties with it, so it may come second-to-last.
        assert!(
            perm[4] == 0 || perm[5] == 0,
            "hub eliminated early: {perm:?}"
        );
    }

    #[test]
    fn sparse_ldlt_solves_against_the_dense_oracle() {
        // J with a mix of coupled and independent columns.
        let patterns = vec![
            vec![0, 1],
            vec![1, 2],
            vec![2, 3],
            vec![3, 4],
            vec![0, 4],
            vec![2],
        ];
        let jtj = JtjPattern::new(5, patterns.clone());
        let rows: Vec<Vec<(usize, f64)>> = vec![
            vec![(0, 2.0), (1, -1.0)],
            vec![(1, 1.5), (2, 0.5)],
            vec![(2, -1.0), (3, 2.0)],
            vec![(3, 1.0), (4, 1.0)],
            vec![(0, 0.5), (4, -2.0)],
            vec![(2, 3.0)],
        ];
        let mut values = jtj.values_buffer();
        let mut scratch = JtjScratch::default();
        for (k, entries) in rows.iter().enumerate() {
            jtj.accumulate_row(k, entries, &mut values, &mut scratch);
        }
        let (row_ptr, col_idx) = jtj.pattern();
        let symbolic = SymbolicLdl::analyze(5, row_ptr, col_idx);
        assert!(symbolic.nnz_factor() >= 5);
        let mut numeric = symbolic.numeric();
        let damping = vec![0.1; 5];
        assert!(symbolic.factor(&values, &damping, &mut numeric));
        let mut x = vec![1.0, -2.0, 3.0, 0.5, 4.0];
        symbolic.solve(&mut numeric, &mut x);
        // Dense oracle: (JᵀJ + 0.1 I) x = b.
        let mut dense = jtj.to_dense(&values);
        for i in 0..5 {
            dense.add_to(i, i, 0.1);
        }
        let oracle = dense
            .solve(&Vector::from_slice(&[1.0, -2.0, 3.0, 0.5, 4.0]))
            .expect("positive definite");
        for i in 0..5 {
            assert!(
                (x[i] - oracle[i]).abs() < 1e-9,
                "solution mismatch at {i}: {} vs {}",
                x[i],
                oracle[i]
            );
        }
    }

    #[test]
    fn factorization_rejects_indefinite_matrices() {
        // A = [[0, 1], [1, 0]] is indefinite: with no damping the first
        // pivot is zero.
        let jtj = JtjPattern::new(2, vec![vec![0, 1]]);
        let mut values = jtj.values_buffer();
        let mut scratch = JtjScratch::default();
        // Outer product [1, 1] gives [[1,1],[1,1]] (singular): pivot two is
        // exactly zero.
        jtj.accumulate_row(0, &[(0, 1.0), (1, 1.0)], &mut values, &mut scratch);
        let (row_ptr, col_idx) = jtj.pattern();
        let symbolic = SymbolicLdl::analyze(2, row_ptr, col_idx);
        let mut numeric = symbolic.numeric();
        assert!(!symbolic.factor(&values, &[0.0, 0.0], &mut numeric));
        // Damping restores positive definiteness.
        assert!(symbolic.factor(&values, &[1e-3, 1e-3], &mut numeric));
    }

    #[test]
    fn the_subtree_schedule_partitions_every_column_exactly_once() {
        // Four 25-column chains coupled only through their last columns: the
        // elimination tree is four branches meeting below a small top — the
        // shape subtree parallelism exploits. (A single band would give a
        // path etree and, correctly, a single subtree.)
        let mut patterns: Vec<Vec<usize>> = Vec::new();
        for g in 0..4 {
            for i in 0..24 {
                patterns.push(vec![25 * g + i, 25 * g + i + 1]);
            }
        }
        patterns.push(vec![24, 49, 74, 99]);
        let jtj = JtjPattern::new(100, patterns);
        let (row_ptr, col_idx) = jtj.pattern();
        let symbolic = SymbolicLdl::analyze(100, row_ptr, col_idx);
        let schedule = symbolic.subtree_schedule(4);
        let mut seen = vec![0usize; 100];
        for subtree in schedule.subtrees() {
            assert!(!subtree.is_empty());
            for w in subtree.windows(2) {
                assert!(w[0] < w[1], "subtree columns must ascend");
            }
            for &k in subtree {
                seen[k] += 1;
            }
        }
        for w in schedule.top().windows(2) {
            assert!(w[0] < w[1], "top columns must ascend");
        }
        for &k in schedule.top() {
            seen[k] += 1;
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "every column appears exactly once: {seen:?}"
        );
        assert!(
            schedule.subtrees().len() > 1,
            "a banded etree must split into multiple subtrees"
        );
    }

    #[test]
    fn parallel_factorization_rejects_what_the_serial_one_rejects() {
        // 80 decoupled 2×2 indefinite blocks: the failing pivot sits inside
        // a worker subtree, not the serial top.
        let patterns: Vec<Vec<usize>> = (0..40).map(|i| vec![2 * i, 2 * i + 1]).collect();
        let jtj = JtjPattern::new(80, patterns);
        let mut values = jtj.values_buffer();
        let mut scratch = JtjScratch::default();
        for i in 0..40 {
            // Outer product [1, 1]: singular, so the second pivot of each
            // block is exactly zero without damping.
            jtj.accumulate_row(
                i,
                &[(2 * i, 1.0), (2 * i + 1, 1.0)],
                &mut values,
                &mut scratch,
            );
        }
        let (row_ptr, col_idx) = jtj.pattern();
        let symbolic = SymbolicLdl::analyze(80, row_ptr, col_idx);
        let mut numeric = symbolic.numeric();
        let zero = vec![0.0; 80];
        assert!(!symbolic.factor_parallel(&values, &zero, &mut numeric, 4));
        // Damping restores positive definiteness — including after the
        // failed attempt (no stale state may leak between factor calls).
        let damp = vec![1e-3; 80];
        assert!(symbolic.factor_parallel(&values, &damp, &mut numeric, 4));
        let mut serial = symbolic.numeric();
        assert!(symbolic.factor(&values, &damp, &mut serial));
        assert_eq!(serial.pivots(), numeric.pivots());
        assert_eq!(serial.factor_values(), numeric.factor_values());
    }

    #[test]
    fn repeated_factorizations_reuse_the_symbolic_analysis() {
        let jtj = JtjPattern::new(3, vec![vec![0, 1], vec![1, 2]]);
        let (row_ptr, col_idx) = jtj.pattern();
        let symbolic = SymbolicLdl::analyze(3, row_ptr, col_idx);
        let mut numeric = symbolic.numeric();
        let mut scratch = JtjScratch::default();
        for scale in [1.0, 2.0, 0.5] {
            let mut values = jtj.values_buffer();
            jtj.accumulate_row(0, &[(0, scale), (1, -scale)], &mut values, &mut scratch);
            jtj.accumulate_row(1, &[(1, scale), (2, scale)], &mut values, &mut scratch);
            assert!(symbolic.factor(&values, &[0.5, 0.5, 0.5], &mut numeric));
            let mut x = vec![1.0, 1.0, 1.0];
            symbolic.solve(&mut numeric, &mut x);
            let mut dense = jtj.to_dense(&values);
            for i in 0..3 {
                dense.add_to(i, i, 0.5);
            }
            let oracle = dense
                .solve(&Vector::from_slice(&[1.0, 1.0, 1.0]))
                .expect("positive definite");
            for i in 0..3 {
                assert!((x[i] - oracle[i]).abs() < 1e-9);
            }
        }
    }
}
