//! Sparse `f64` linear algebra for the Step-4 solve path.
//!
//! The quadratic systems produced by the Putinar reduction are huge but
//! extremely sparse: on the Table 2/3 rows each residual touches only a
//! handful of the thousands of unknowns, so the Jacobian of the
//! least-squares reformulation is >99% zeros and its normal matrix `JᵀJ`
//! inherits that sparsity. This module provides the sparse substrate the
//! Levenberg–Marquardt back-end runs on:
//!
//! * [`JtjPattern`] — the *symbolic* normal matrix: given the fixed sparsity
//!   pattern of the Jacobian rows (which the `Problem` determines once), it
//!   precomputes the pattern of `JᵀJ` plus, per Jacobian row, the flat list
//!   of value positions its outer product scatters into. Accumulating `JᵀJ`
//!   then consumes sparse rows directly — neither `J` nor `Jᵀ` is ever
//!   materialized, densely or otherwise. A chunked pattern also gives each
//!   fixed row range ([`JtjChunk`]) its own numbering of the entries it
//!   touches, so chunk-parallel accumulation needs no full-size buffers;
//! * [`SymbolicLdl`] / [`LdlNumeric`] — a sparse LDLᵀ factorization with a
//!   fill-reducing minimum-degree ordering. The ordering, elimination tree
//!   and column counts are computed **once** per pattern ([`SymbolicLdl::
//!   analyze`]); every LM iteration then only runs the numeric factorization
//!   and the triangular solves on preallocated buffers. The analysis picks
//!   one of two factor layouts from the fill: sparse factors stay
//!   *simplicial* (one column per pivot, scalar up-looking kernel), while
//!   fill-heavy ones go *supernodal* (runs of columns sharing a row
//!   structure, stored as dense panels and factored with block kernels).
//!
//! Everything is deterministic and serial: the ordering breaks ties by
//! index, and the numeric phases perform the same operations in the same
//! order for a fixed pattern, whatever the caller's thread count. The dense
//! [`Matrix`](crate::Matrix) routines remain the oracle the property tests
//! pin this module against.

use crate::linalg::Matrix;

/// Sentinel for "no parent" in the elimination tree.
const NONE: usize = usize::MAX;

/// A pattern-sized index (a variable, a Jacobian row, a values or panel
/// position) as the `u32` the symbolic structures store. Every such index
/// is bounded by the length of a buffer the solver allocates, so an index
/// past `u32::MAX` would first need a values or panel buffer of more than
/// 2³² `f64`s (32 GiB): overflow is a broken invariant, not an input
/// error, and panics instead of truncating.
#[inline]
fn index32(index: usize) -> u32 {
    u32::try_from(index).expect("sparse pattern index fits u32")
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
/// no index searches in the hot loop. The caller names each row entry by
/// its index in the row's pattern, so the pattern keeps no copy of the
/// row patterns themselves.
///
/// A pattern built by [`JtjPattern::chunked`] also splits the Jacobian rows
/// into fixed ranges ([`JtjChunk`]s) for chunk-parallel accumulation. Each
/// chunk numbers only the positions its own rows touch, and its rows'
/// scatter positions index that local numbering, so a chunk's private
/// values buffer holds [`JtjChunk::entries`] values instead of
/// [`nnz`](Self::nnz).
#[derive(Debug, Clone)]
pub struct JtjPattern {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    diag_pos: Vec<usize>,
    /// Per Jacobian row: positions of all `(a ≤ b)` pattern pairs,
    /// triangular-indexed by local pattern indices — in the values buffer
    /// of the row's chunk when the pattern is chunked, in the full values
    /// buffer otherwise.
    pair_pos: Vec<Vec<u32>>,
    /// The row chunks, in row order; empty when the pattern is not chunked.
    chunks: Vec<JtjChunk>,
    jacobian_nnz: usize,
}

/// One fixed range of Jacobian rows of a chunked [`JtjPattern`], with the
/// positions of the full values buffer its rows touch.
#[derive(Debug, Clone)]
pub struct JtjChunk {
    rows: std::ops::Range<usize>,
    /// Sorted full-buffer positions: local position `k` of the chunk's
    /// values buffer is full position `touched[k]`.
    touched: Vec<u32>,
}

impl JtjChunk {
    /// The Jacobian rows of this chunk.
    pub fn rows(&self) -> std::ops::Range<usize> {
        self.rows.clone()
    }

    /// The number of `JᵀJ` entries the chunk's rows touch: the length of
    /// its values buffer.
    pub fn entries(&self) -> usize {
        self.touched.len()
    }

    /// A zeroed chunk-local values buffer.
    pub fn values_buffer(&self) -> Vec<f64> {
        vec![0.0; self.touched.len()]
    }

    /// Adds a chunk-local accumulation into the full values buffer
    /// (`target[touched[k]] += partial[k]`) and clears it for the next
    /// pass.
    ///
    /// Merging every chunk in chunk-index order gives, bit for bit, what
    /// merging full-size partial buffers in that order gives. Each position
    /// still receives the partials of the chunks touching it in ascending
    /// chunk order, and a skipped chunk would only have added `+0.0`.
    /// Adding `+0.0` changes no bit unless the other operand is `−0.0`, and
    /// neither side ever is: a partial starts at `+0.0` and only has
    /// products added to it, the target starts at `+0.0` and only has
    /// partials added to it, and in round-to-nearest a sum is `−0.0` only
    /// when both operands are (`+0.0 + −0.0` and exact cancellations give
    /// `+0.0`).
    pub fn merge_into(&self, target: &mut [f64], partial: &mut [f64]) {
        debug_assert_eq!(partial.len(), self.touched.len());
        for (&pos, p) in self.touched.iter().zip(partial.iter_mut()) {
            target[pos as usize] += *p;
            *p = 0.0;
        }
    }
}

impl JtjPattern {
    /// Analyzes the pattern: `n` variables, one sorted variable list per
    /// Jacobian row. The row patterns are only read.
    ///
    /// # Panics
    ///
    /// Panics if a pattern mentions a variable `≥ n` or is not strictly
    /// sorted.
    pub fn new<R: AsRef<[usize]>>(n: usize, rows: &[R]) -> Self {
        let mut jacobian_nnz = 0;
        for vars in rows {
            let vars = vars.as_ref();
            jacobian_nnz += vars.len();
            for pair in vars.windows(2) {
                assert!(pair[0] < pair[1], "row patterns must be strictly sorted");
            }
            if let Some(&last) = vars.last() {
                assert!(last < n, "row pattern mentions variable {last} >= {n}");
            }
        }
        // The Jacobian rows mentioning each variable, with its index in
        // their patterns.
        let mut incidence_ptr = vec![0usize; n + 1];
        for vars in rows {
            for &v in vars.as_ref() {
                incidence_ptr[v + 1] += 1;
            }
        }
        for v in 0..n {
            incidence_ptr[v + 1] += incidence_ptr[v];
        }
        let mut incidence = vec![(0u32, 0u32); jacobian_nnz];
        let mut cursor = incidence_ptr.clone();
        for (r, vars) in rows.iter().enumerate() {
            for (i, &v) in vars.as_ref().iter().enumerate() {
                incidence[cursor[v]] = (index32(r), index32(i));
                cursor[v] += 1;
            }
        }
        // Row b of the lower triangle holds b itself (damping is added to
        // every diagonal entry, touched or not) and every a < b sharing a
        // Jacobian row with b; a marker per variable drops repeats. Once
        // the row is sorted, `slot` maps its columns to positions, and
        // every Jacobian row through b records its pairs (a ≤ b).
        let mut marker = vec![NONE; n];
        let mut slot = vec![0usize; n];
        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx: Vec<u32> = Vec::new();
        let mut diag_pos = vec![0usize; n];
        let mut pair_pos: Vec<Vec<u32>> = rows
            .iter()
            .map(|vars| {
                let p = vars.as_ref().len();
                vec![0u32; p * (p + 1) / 2]
            })
            .collect();
        for b in 0..n {
            let start = col_idx.len();
            let through_b = &incidence[incidence_ptr[b]..incidence_ptr[b + 1]];
            marker[b] = b;
            col_idx.push(index32(b));
            for &(r, ib) in through_b {
                for &a in &rows[r as usize].as_ref()[..ib as usize] {
                    if marker[a] != b {
                        marker[a] = b;
                        col_idx.push(index32(a));
                    }
                }
            }
            col_idx[start..].sort_unstable();
            row_ptr[b + 1] = col_idx.len();
            for (pos, &a) in (start..).zip(&col_idx[start..]) {
                slot[a as usize] = pos;
            }
            diag_pos[b] = slot[b];
            for &(r, ib) in through_b {
                let (r, ib) = (r as usize, ib as usize);
                for (ia, &a) in rows[r].as_ref()[..=ib].iter().enumerate() {
                    pair_pos[r][tri_index(ia, ib)] = index32(slot[a]);
                }
            }
        }
        JtjPattern {
            n,
            row_ptr,
            col_idx,
            diag_pos,
            pair_pos,
            chunks: Vec::new(),
            jacobian_nnz,
        }
    }

    /// [`JtjPattern::new`] with the Jacobian rows split into the given
    /// chunks for chunk-parallel accumulation: each chunk records the
    /// sorted positions its rows touch, and its rows' scatter positions
    /// are renumbered into that chunk-local numbering.
    ///
    /// # Panics
    ///
    /// Panics if the chunks do not cover the rows in order, each starting
    /// where the previous one ends.
    pub fn chunked<R: AsRef<[usize]>>(
        n: usize,
        rows: &[R],
        chunks: Vec<std::ops::Range<usize>>,
    ) -> Self {
        let mut pattern = JtjPattern::new(n, rows);
        let mut end = 0;
        for range in &chunks {
            assert!(
                range.start == end && range.start <= range.end,
                "chunks must cover the rows in order"
            );
            end = range.end;
        }
        assert_eq!(end, pattern.pair_pos.len(), "chunks must cover every row");
        // Local index of each full position in the chunk being built;
        // `u32::MAX` outside it.
        let mut local = vec![u32::MAX; pattern.nnz()];
        pattern.chunks = chunks
            .into_iter()
            .map(|rows| {
                let positions = &mut pattern.pair_pos[rows.clone()];
                let mut touched = Vec::new();
                for &pos in positions.iter().flatten() {
                    if local[pos as usize] == u32::MAX {
                        local[pos as usize] = 0;
                        touched.push(pos);
                    }
                }
                touched.sort_unstable();
                for (k, &pos) in touched.iter().enumerate() {
                    local[pos as usize] = index32(k);
                }
                for pos in positions.iter_mut().flatten() {
                    *pos = local[*pos as usize];
                }
                for &pos in &touched {
                    local[pos as usize] = u32::MAX;
                }
                JtjChunk { rows, touched }
            })
            .collect();
        pattern
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
    pub fn pattern(&self) -> (&[usize], &[u32]) {
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

    /// The row chunks of a [`chunked`](Self::chunked) pattern, in row
    /// order; empty otherwise.
    pub fn chunks(&self) -> &[JtjChunk] {
        &self.chunks
    }

    /// Scatters the outer product of one Jacobian row into `values`
    /// (`values[pos(i, j)] += rowᵢ · rowⱼ`). Each entry names its column by
    /// its index in the row's declared pattern (entry `(i, v)` is the value
    /// at column `pattern[i]`); the entries must be a subset of the pattern,
    /// in increasing index order. `values` is the full values buffer, or —
    /// when the pattern is chunked — the values buffer of the row's chunk.
    ///
    /// # Panics
    ///
    /// Panics if an index lies outside the row's pattern.
    pub fn accumulate_row(&self, row: usize, entries: &[(u32, f64)], values: &mut [f64]) {
        let positions = &self.pair_pos[row];
        for (k, &(ia, va)) in entries.iter().enumerate() {
            for &(ib, vb) in &entries[k..] {
                values[positions[tri_index(ia as usize, ib as usize)] as usize] += va * vb;
            }
        }
    }

    /// Densifies a values buffer into the full symmetric matrix (oracle).
    pub fn to_dense(&self, values: &[f64]) -> Matrix {
        let mut m = Matrix::zeros(self.n, self.n);
        for r in 0..self.n {
            for p in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[p] as usize;
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
///
/// Variables and elements are stored as `u32`, and the adjacency lists are
/// allocated at their exact lengths, since they are the bulk of the
/// analysis's scratch.
fn minimum_degree(n: usize, row_ptr: &[usize], col_idx: &[u32]) -> Vec<usize> {
    // Full (symmetric) adjacency, diagonal excluded.
    let mut degree = vec![0usize; n];
    for r in 0..n {
        for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
            if c as usize != r {
                degree[r] += 1;
                degree[c as usize] += 1;
            }
        }
    }
    let mut adj_vars: Vec<Vec<u32>> = degree.iter().map(|&d| Vec::with_capacity(d)).collect();
    for r in 0..n {
        for &c in &col_idx[row_ptr[r]..row_ptr[r + 1]] {
            if c as usize != r {
                adj_vars[r].push(c);
                adj_vars[c as usize].push(index32(r));
            }
        }
    }
    for (list, d) in adj_vars.iter_mut().zip(&mut degree) {
        list.sort_unstable();
        list.dedup();
        *d = list.len();
    }
    let mut adj_elems: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut elements: Vec<Vec<u32>> = Vec::new();
    let mut elem_alive: Vec<bool> = Vec::new();
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
        let mut front: Vec<u32> = Vec::new();
        for &v in &adj_vars[pivot] {
            let v = v as usize;
            if !eliminated[v] && !in_front[v] {
                in_front[v] = true;
                front.push(index32(v));
            }
        }
        for &e in &adj_elems[pivot] {
            if elem_alive[e as usize] {
                for &v in &elements[e as usize] {
                    let v = v as usize;
                    if !eliminated[v] && !in_front[v] {
                        in_front[v] = true;
                        front.push(index32(v));
                    }
                }
            }
        }
        front.sort_unstable();
        // Absorb the pivot's elements into the new one and free their
        // storage.
        for &e in &adj_elems[pivot] {
            let e = e as usize;
            if elem_alive[e] {
                elem_alive[e] = false;
                elements[e] = Vec::new();
            }
        }
        let eid = elements.len();
        elements.push(front);
        elem_alive.push(true);

        // Update the front variables: drop edges now covered by the new
        // element (the `in_front` marks are still set), attach the element,
        // refresh approximate degrees.
        for &v in &elements[eid] {
            let v = v as usize;
            adj_vars[v].retain(|&u| !eliminated[u as usize] && !in_front[u as usize]);
            adj_elems[v].retain(|&e| elem_alive[e as usize]);
            adj_elems[v].push(index32(eid));
            let mut d = adj_vars[v].len();
            for &e in &adj_elems[v] {
                d += elements[e as usize].len().saturating_sub(1);
            }
            degree[v] = d;
        }
        for &v in &elements[eid] {
            in_front[v as usize] = false;
        }
        adj_vars[pivot] = Vec::new();
        adj_elems[pivot] = Vec::new();
    }
    perm
}

/// Multiply-adds per factor entry at and above which [`SymbolicLdl::analyze`]
/// picks the supernodal layout (after CHOLMOD's simplicial/supernodal
/// switch). Every system the certified Table 2/3 rows factor at ϒ = 0 sits
/// at or below 4.6 and stays simplicial; the ϒ = 2 systems of
/// recursive-sum, recursive-square-sum and prodbin that cross it sit at
/// 43–150.
const SUPERNODAL_RATIO: usize = 40;

/// Column block of the dense kernels: panels factor 4 columns at a time,
/// and descendant supernodes at least this wide update through the dense
/// block product (narrower ones scatter directly).
const BLOCK: usize = 4;

/// The symbolic phase of a sparse LDLᵀ factorization: fill-reducing
/// permutation, elimination tree, per-column factor counts and the factor
/// layout they select. Computed **once** per pattern and reused by every
/// numeric factorization (only the matrix *values* change between LM
/// iterations).
#[derive(Debug, Clone)]
pub struct SymbolicLdl {
    n: usize,
    /// `perm[new] = old`.
    perm: Vec<usize>,
    /// Entries of `L`, unit diagonal included.
    nnz_factor: usize,
    layout: Layout,
}

/// How the factor is stored and computed; fixed by the pattern alone.
#[derive(Debug, Clone)]
enum Layout {
    Simplicial(Simplicial),
    Supernodal(Supernodal),
}

/// One sparse column per pivot, filled by the up-looking kernel.
#[derive(Debug, Clone)]
struct Simplicial {
    /// Permuted upper triangle in column-major order: column `k` holds the
    /// rows `i < k` (new indices, unsorted) and, in parallel, the position
    /// of the corresponding entry in the caller's values buffer.
    a_col_ptr: Vec<usize>,
    a_row: Vec<u32>,
    a_val_pos: Vec<u32>,
    /// Position of the diagonal entry of each permuted column in the
    /// caller's values buffer.
    a_diag_pos: Vec<usize>,
    /// Column pointers of the factor `L` (strictly-lower CSC).
    l_col_ptr: Vec<usize>,
    /// The columns of row `k` of `L` in
    /// `row_cols[row_ptr[k]..row_ptr[k + 1]]`, in the topological order of
    /// [`ereach`] that the up-looking kernel eliminates them in.
    row_ptr: Vec<usize>,
    row_cols: Vec<u32>,
}

/// Runs of consecutive columns that share one row structure (fundamental
/// supernodes), each stored as a dense column-major panel and filled by
/// the left-looking block kernel.
#[derive(Debug, Clone)]
struct Supernodal {
    /// First column of each supernode, then `n`.
    start: Vec<usize>,
    /// Sorted rows of supernode `s` in `rows[row_ptr[s]..row_ptr[s + 1]]`:
    /// its own columns first, then the rows below them. They index the
    /// panel's rows.
    row_ptr: Vec<usize>,
    rows: Vec<u32>,
    /// Offset of each supernode's panel in the numeric panel buffer, then
    /// the buffer's length.
    panel_ptr: Vec<usize>,
    /// Panel index and values position of each off-diagonal entry of the
    /// permuted `A`, in parallel.
    a_panel: Vec<u32>,
    a_val_pos: Vec<u32>,
    /// Panel index and values position of each permuted column's diagonal
    /// entry.
    diag_panel: Vec<usize>,
    a_diag_pos: Vec<usize>,
    /// Updates into supernode `s`, by ascending source, in
    /// `updates[update_ptr[s]..update_ptr[s + 1]]`.
    update_ptr: Vec<usize>,
    updates: Vec<Update>,
    /// Entries of the largest [`BLOCK`]-column slice of a dense update: the
    /// update buffer's length.
    max_update: usize,
}

/// One descendant supernode's contribution to a later supernode.
#[derive(Debug, Clone, Copy)]
struct Update {
    /// The descendant supernode.
    source: usize,
    /// Position in the source's rows of its first row inside the target's
    /// columns; every row from here on receives the update.
    first: usize,
    /// How many of the source's rows fall inside the target's columns.
    count: usize,
}

/// Preallocated numeric buffers of a sparse LDLᵀ: the factor itself plus
/// the working arrays of the factorization and the solves, for the layout
/// the symbolic analysis chose. One of these per concurrent solver; the
/// shared [`SymbolicLdl`] stays immutable.
#[derive(Debug, Clone)]
pub struct LdlNumeric {
    /// The pivots `D`.
    d: Vec<f64>,
    /// Permuted right-hand side of the solves.
    work: Vec<f64>,
    factor: Factor,
}

#[derive(Debug, Clone)]
enum Factor {
    Simplicial(SimplicialFactor),
    Supernodal(SupernodalFactor),
}

#[derive(Debug, Clone)]
struct SimplicialFactor {
    l_row: Vec<usize>,
    l_values: Vec<f64>,
    y: Vec<f64>,
    next_slot: Vec<usize>,
}

#[derive(Debug, Clone)]
struct SupernodalFactor {
    panels: Vec<f64>,
    /// Dense `m × BLOCK` slice of one wide descendant update.
    update: Vec<f64>,
    /// Row → panel row of the supernode being factored.
    local: Vec<usize>,
}

impl SymbolicLdl {
    /// Analyzes a symmetric pattern given as its **lower triangle in CSR**
    /// (row `j` holds the sorted columns `i ≤ j`, diagonal present in every
    /// row): computes the minimum-degree permutation, the permuted pattern
    /// and the elimination tree with its column counts, and picks the
    /// factor layout.
    ///
    /// Factors whose multiply-adds `Σ c(c+1)/2` over the columns'
    /// off-diagonal counts `c` reach 40 per entry of `L` go supernodal; the
    /// rest keep the simplicial up-looking kernel.
    ///
    /// # Panics
    ///
    /// Panics if a diagonal entry is missing or the pattern is not lower
    /// triangular.
    pub fn analyze(n: usize, row_ptr: &[usize], col_idx: &[u32]) -> Self {
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
                let c = col_idx[p] as usize;
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
        let mut a_row = vec![0u32; nnz_off];
        let mut a_val_pos = vec![0u32; nnz_off];
        let mut cursor = a_col_ptr.clone();
        for r in 0..n {
            for p in row_ptr[r]..row_ptr[r + 1] {
                let c = col_idx[p] as usize;
                if c != r {
                    let (i, k) = {
                        let (a, b) = (inv_perm[r], inv_perm[c]);
                        (a.min(b), a.max(b))
                    };
                    a_row[cursor[k]] = index32(i);
                    a_val_pos[cursor[k]] = index32(p);
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
                let mut j = a_row[p] as usize;
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
        let nnz_factor = l_col_ptr[n] + n;
        let multiply_adds: usize = counts.iter().map(|&c| c * (c + 1) / 2).sum();
        let layout = if n > 0 && multiply_adds >= SUPERNODAL_RATIO * nnz_factor {
            Layout::Supernodal(Supernodal::new(
                a_col_ptr, a_row, a_val_pos, a_diag_pos, parent, &counts,
            ))
        } else {
            Layout::Simplicial(Simplicial::new(
                a_col_ptr, a_row, a_val_pos, a_diag_pos, parent, l_col_ptr,
            ))
        };
        SymbolicLdl {
            n,
            perm,
            nnz_factor,
            layout,
        }
    }

    /// The matrix dimension.
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Entries of the factor `L` including the (unit) diagonal — the
    /// `nnz(L)` statistic.
    pub fn nnz_factor(&self) -> usize {
        self.nnz_factor
    }

    /// The number of supernodes of the supernodal layout; `0` when the
    /// factor is simplicial.
    pub fn supernodes(&self) -> usize {
        match &self.layout {
            Layout::Simplicial(_) => 0,
            Layout::Supernodal(s) => s.start.len() - 1,
        }
    }

    /// The fill-reducing permutation (`perm[new] = old`).
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Allocates the numeric buffers of this analysis's layout.
    pub fn numeric(&self) -> LdlNumeric {
        let n = self.n;
        let factor = match &self.layout {
            Layout::Simplicial(s) => {
                let nnz = s.l_col_ptr[n];
                Factor::Simplicial(SimplicialFactor {
                    l_row: vec![0; nnz],
                    l_values: vec![0.0; nnz],
                    y: vec![0.0; n],
                    next_slot: vec![0; n],
                })
            }
            Layout::Supernodal(s) => Factor::Supernodal(SupernodalFactor {
                panels: vec![0.0; s.panel_ptr[s.panel_ptr.len() - 1]],
                update: vec![0.0; s.max_update],
                local: vec![0; n],
            }),
        };
        LdlNumeric {
            d: vec![0.0; n],
            work: vec![0.0; n],
            factor,
        }
    }

    /// Numeric LDLᵀ of `A + diag(diag_add)`, where `values` is the buffer
    /// the lower-triangle pattern of [`SymbolicLdl::analyze`] indexes into
    /// (e.g. a [`JtjPattern`] accumulation) and `diag_add` is the
    /// per-variable damping. Returns `false` when a pivot is not strictly
    /// positive and finite (the matrix is not numerically positive definite
    /// at this damping) — the factor is then unusable and the caller should
    /// increase the damping.
    ///
    /// The operation order depends on the pattern alone, so the factor's
    /// bits do not depend on the caller's thread count.
    ///
    /// # Panics
    ///
    /// Panics if `num` was allocated by another analysis's layout.
    pub fn factor(&self, values: &[f64], diag_add: &[f64], num: &mut LdlNumeric) -> bool {
        match (&self.layout, &mut num.factor) {
            (Layout::Simplicial(s), Factor::Simplicial(f)) => {
                s.factor(&self.perm, values, diag_add, &mut num.d, f)
            }
            (Layout::Supernodal(s), Factor::Supernodal(f)) => {
                s.factor(&self.perm, values, diag_add, &mut num.d, f)
            }
            _ => panic!("numeric buffers of another symbolic analysis"),
        }
    }

    /// Solves `(A + diag) x = b` in place using the factor produced by the
    /// last successful [`factor`](Self::factor) call on `num`.
    ///
    /// # Panics
    ///
    /// Panics if `num` was allocated by another analysis's layout.
    pub fn solve(&self, num: &mut LdlNumeric, b: &mut [f64]) {
        let work = &mut num.work;
        for (k, &old) in self.perm.iter().enumerate() {
            work[k] = b[old];
        }
        let divide = |work: &mut [f64]| {
            for (x, d) in work.iter_mut().zip(&num.d) {
                *x /= d;
            }
        };
        match (&self.layout, &num.factor) {
            (Layout::Simplicial(s), Factor::Simplicial(f)) => {
                s.forward(f, work);
                divide(work);
                s.backward(f, work);
            }
            (Layout::Supernodal(s), Factor::Supernodal(f)) => {
                s.forward(f, work);
                divide(work);
                s.backward(f, work);
            }
            _ => panic!("numeric buffers of another symbolic analysis"),
        }
        for (k, &old) in self.perm.iter().enumerate() {
            b[old] = work[k];
        }
    }
}

/// Row `k` of `L`: the nodes reachable from the entries of column `k` of
/// the permuted upper triangle through the elimination tree, in
/// topological order — each entry's path up to the first node already
/// reached, the later entries' paths first. Writes the row into
/// `stack[top..]` and returns `top`; `flag` must not hold `k` on entry, and
/// `stack` has length `n`.
fn ereach(
    k: usize,
    a_col_ptr: &[usize],
    a_row: &[u32],
    parent: &[usize],
    flag: &mut [usize],
    stack: &mut [u32],
) -> usize {
    let mut top = stack.len();
    flag[k] = k;
    for &i in &a_row[a_col_ptr[k]..a_col_ptr[k + 1]] {
        let mut len = 0;
        let mut j = i as usize;
        while flag[j] != k {
            stack[len] = index32(j);
            len += 1;
            flag[j] = k;
            j = parent[j];
        }
        while len > 0 {
            len -= 1;
            top -= 1;
            stack[top] = stack[len];
        }
    }
    top
}

impl Simplicial {
    /// The simplicial layout of the permuted pattern: records every row of
    /// `L` once, so the numeric phase never walks the elimination tree.
    fn new(
        a_col_ptr: Vec<usize>,
        a_row: Vec<u32>,
        a_val_pos: Vec<u32>,
        a_diag_pos: Vec<usize>,
        parent: Vec<usize>,
        l_col_ptr: Vec<usize>,
    ) -> Self {
        let n = a_diag_pos.len();
        let mut row_ptr = vec![0usize; n + 1];
        let mut row_cols = Vec::with_capacity(l_col_ptr[n]);
        let mut flag = vec![NONE; n];
        let mut stack = vec![0u32; n];
        for k in 0..n {
            let top = ereach(k, &a_col_ptr, &a_row, &parent, &mut flag, &mut stack);
            row_cols.extend_from_slice(&stack[top..]);
            row_ptr[k + 1] = row_cols.len();
        }
        Simplicial {
            a_col_ptr,
            a_row,
            a_val_pos,
            a_diag_pos,
            l_col_ptr,
            row_ptr,
            row_cols,
        }
    }

    /// Up-looking LDLᵀ, one row of `L` per pivot.
    fn factor(
        &self,
        perm: &[usize],
        values: &[f64],
        diag_add: &[f64],
        d: &mut [f64],
        f: &mut SimplicialFactor,
    ) -> bool {
        let n = d.len();
        f.next_slot.copy_from_slice(&self.l_col_ptr[..n]);
        for k in 0..n {
            f.y[k] = 0.0;
            for p in self.a_col_ptr[k]..self.a_col_ptr[k + 1] {
                f.y[self.a_row[p] as usize] += values[self.a_val_pos[p] as usize];
            }
            let mut dk = values[self.a_diag_pos[k]] + diag_add[perm[k]];
            for &j in &self.row_cols[self.row_ptr[k]..self.row_ptr[k + 1]] {
                let j = j as usize;
                let yj = f.y[j];
                f.y[j] = 0.0;
                let slot = f.next_slot[j];
                for p in self.l_col_ptr[j]..slot {
                    f.y[f.l_row[p]] -= f.l_values[p] * yj;
                }
                let lkj = yj / d[j];
                dk -= lkj * yj;
                f.l_row[slot] = k;
                f.l_values[slot] = lkj;
                f.next_slot[j] = slot + 1;
            }
            // A NaN pivot fails both comparisons, so non-finite values are
            // rejected along with non-positive ones.
            if dk <= 0.0 || !dk.is_finite() {
                return false;
            }
            d[k] = dk;
        }
        true
    }

    /// `work ← L⁻¹ work`.
    fn forward(&self, f: &SimplicialFactor, work: &mut [f64]) {
        for k in 0..work.len() {
            let xk = work[k];
            if xk != 0.0 {
                for p in self.l_col_ptr[k]..self.l_col_ptr[k + 1] {
                    work[f.l_row[p]] -= f.l_values[p] * xk;
                }
            }
        }
    }

    /// `work ← L⁻ᵀ work`.
    fn backward(&self, f: &SimplicialFactor, work: &mut [f64]) {
        for k in (0..work.len()).rev() {
            let mut xk = work[k];
            for p in self.l_col_ptr[k]..self.l_col_ptr[k + 1] {
                xk -= f.l_values[p] * work[f.l_row[p]];
            }
            work[k] = xk;
        }
    }
}

impl Supernodal {
    /// Builds the supernodal layout from the permuted pattern, its
    /// elimination tree and the factor's column counts.
    fn new(
        a_col_ptr: Vec<usize>,
        a_row: Vec<u32>,
        a_val_pos: Vec<u32>,
        a_diag_pos: Vec<usize>,
        parent: Vec<usize>,
        counts: &[usize],
    ) -> Self {
        let n = counts.len();
        // Fundamental chains: column j joins j - 1's supernode when it is
        // j - 1's parent and has exactly one off-diagonal entry fewer, so
        // both share every row below j.
        let mut start = vec![0];
        for j in 1..n {
            if parent[j - 1] != j || counts[j - 1] != counts[j] + 1 {
                start.push(j);
            }
        }
        start.push(n);
        let supernodes = start.len() - 1;
        let mut of_column = vec![0usize; n];
        let mut row_ptr = vec![0usize; supernodes + 1];
        let mut panel_ptr = vec![0usize; supernodes + 1];
        for s in 0..supernodes {
            let (first, end) = (start[s], start[s + 1]);
            of_column[first..end].fill(s);
            let height = 1 + counts[first];
            row_ptr[s + 1] = row_ptr[s] + height;
            panel_ptr[s + 1] = panel_ptr[s] + height * (end - first);
        }

        // A supernode's rows are its first column's: the column itself,
        // then the rows of L reaching it. Row k of L is the elimination-tree
        // reach of A's column k, so visiting k in ascending order appends
        // every row in sorted position.
        let mut rows = vec![0u32; row_ptr[supernodes]];
        let mut cursor = row_ptr[..supernodes].to_vec();
        for s in 0..supernodes {
            rows[cursor[s]] = index32(start[s]);
            cursor[s] += 1;
        }
        let mut flag = vec![NONE; n];
        let mut stack = vec![0u32; n];
        for k in 0..n {
            let top = ereach(k, &a_col_ptr, &a_row, &parent, &mut flag, &mut stack);
            for &j in &stack[top..] {
                let j = j as usize;
                let s = of_column[j];
                if start[s] == j {
                    rows[cursor[s]] = index32(k);
                    cursor[s] += 1;
                }
            }
        }

        // Where each entry of A lands: L(row, column) sits in the panel of
        // the column's supernode.
        let panel_index = |row: usize, column: usize| -> u32 {
            let s = of_column[column];
            let span = &rows[row_ptr[s]..row_ptr[s + 1]];
            let local = span
                .binary_search(&index32(row))
                .expect("row in the supernode");
            index32(panel_ptr[s] + (column - start[s]) * span.len() + local)
        };
        let diag_panel: Vec<usize> = (0..n).map(|k| panel_index(k, k) as usize).collect();
        // The row indices are not needed past this point: overwrite them.
        let mut a_panel = a_row;
        for k in 0..n {
            for p in a_col_ptr[k]..a_col_ptr[k + 1] {
                a_panel[p] = panel_index(k, a_panel[p] as usize);
            }
        }

        // Each supernode's rows below its own columns split into runs by
        // the supernode owning them; each run is one update. A stable sort
        // by target keeps the sources ascending.
        let mut targeted: Vec<(usize, Update)> = Vec::new();
        let mut max_update = 0;
        for s in 0..supernodes {
            let span = &rows[row_ptr[s]..row_ptr[s + 1]];
            let width = start[s + 1] - start[s];
            let mut first = width;
            while first < span.len() {
                let target = of_column[span[first] as usize];
                let count = span[first..]
                    .iter()
                    .take_while(|&&r| (r as usize) < start[target + 1])
                    .count();
                if width >= BLOCK {
                    max_update = max_update.max((span.len() - first) * count.min(BLOCK));
                }
                targeted.push((
                    target,
                    Update {
                        source: s,
                        first,
                        count,
                    },
                ));
                first += count;
            }
        }
        targeted.sort_by_key(|&(target, _)| target);
        let mut update_ptr = vec![0usize; supernodes + 1];
        for &(target, _) in &targeted {
            update_ptr[target + 1] += 1;
        }
        for s in 0..supernodes {
            update_ptr[s + 1] += update_ptr[s];
        }
        let updates = targeted.into_iter().map(|(_, u)| u).collect();
        Supernodal {
            start,
            row_ptr,
            rows,
            panel_ptr,
            a_panel,
            a_val_pos,
            diag_panel,
            a_diag_pos,
            update_ptr,
            updates,
            max_update,
        }
    }

    /// Left-looking supernodal LDLᵀ: each supernode assembles its columns
    /// of `A`, applies every descendant's update in ascending order, then
    /// factors its panel densely.
    fn factor(
        &self,
        perm: &[usize],
        values: &[f64],
        diag_add: &[f64],
        d: &mut [f64],
        f: &mut SupernodalFactor,
    ) -> bool {
        f.panels.fill(0.0);
        for (&at, &pos) in self.a_panel.iter().zip(&self.a_val_pos) {
            f.panels[at as usize] = values[pos as usize];
        }
        for (k, &at) in self.diag_panel.iter().enumerate() {
            f.panels[at] = values[self.a_diag_pos[k]] + diag_add[perm[k]];
        }
        for s in 0..self.start.len() - 1 {
            let first = self.start[s];
            let width = self.start[s + 1] - first;
            let rows = &self.rows[self.row_ptr[s]..self.row_ptr[s + 1]];
            let height = rows.len();
            for (i, &r) in rows.iter().enumerate() {
                f.local[r as usize] = i;
            }
            let (done, rest) = f.panels.split_at_mut(self.panel_ptr[s]);
            let panel = &mut rest[..height * width];
            for u in &self.updates[self.update_ptr[s]..self.update_ptr[s + 1]] {
                let src = u.source;
                let src_rows = &self.rows[self.row_ptr[src]..self.row_ptr[src + 1]];
                let src_height = src_rows.len();
                let src_panel = &done[self.panel_ptr[src] + u.first..self.panel_ptr[src + 1]];
                let src_d = &d[self.start[src]..self.start[src + 1]];
                let below = &src_rows[u.first..];
                let m = below.len();
                if src_d.len() >= BLOCK {
                    // The dense product, BLOCK columns at a time.
                    for b0 in (0..u.count).step_by(BLOCK) {
                        let columns = (u.count - b0).min(BLOCK);
                        let product = &mut f.update[..m * columns];
                        product.fill(0.0);
                        ldl_update(src_panel, src_height, src_d, b0, columns, m, product, m);
                        for (b, column) in (b0..).zip(product.chunks_exact(m)) {
                            let target = &mut panel[(below[b] as usize - first) * height..];
                            for a in b..m {
                                target[f.local[below[a] as usize]] += column[a];
                            }
                        }
                    }
                } else {
                    for b in 0..u.count {
                        let mut w = [0.0; BLOCK];
                        for (k, wk) in w.iter_mut().enumerate().take(src_d.len()) {
                            *wk = src_d[k] * src_panel[b + k * src_height];
                        }
                        let target = &mut panel[(below[b] as usize - first) * height..];
                        for a in b..m {
                            let mut sum = 0.0;
                            for k in 0..src_d.len() {
                                sum += src_panel[a + k * src_height] * w[k];
                            }
                            target[f.local[below[a] as usize]] -= sum;
                        }
                    }
                }
            }
            if !dense_ldl(panel, height, &mut d[first..first + width]) {
                return false;
            }
        }
        true
    }

    /// `work ← L⁻¹ work`.
    fn forward(&self, f: &SupernodalFactor, work: &mut [f64]) {
        for s in 0..self.start.len() - 1 {
            let first = self.start[s];
            let rows = &self.rows[self.row_ptr[s]..self.row_ptr[s + 1]];
            let panel = &f.panels[self.panel_ptr[s]..self.panel_ptr[s + 1]];
            for (j, column) in panel.chunks_exact(rows.len()).enumerate() {
                let xj = work[first + j];
                if xj != 0.0 {
                    for (&r, &l) in rows[j + 1..].iter().zip(&column[j + 1..]) {
                        work[r as usize] -= l * xj;
                    }
                }
            }
        }
    }

    /// `work ← L⁻ᵀ work`.
    fn backward(&self, f: &SupernodalFactor, work: &mut [f64]) {
        for s in (0..self.start.len() - 1).rev() {
            let first = self.start[s];
            let rows = &self.rows[self.row_ptr[s]..self.row_ptr[s + 1]];
            let panel = &f.panels[self.panel_ptr[s]..self.panel_ptr[s + 1]];
            for (j, column) in panel.chunks_exact(rows.len()).enumerate().rev() {
                let mut xj = work[first + j];
                for (&r, &l) in rows[j + 1..].iter().zip(&column[j + 1..]) {
                    xj -= l * work[r as usize];
                }
                work[first + j] = xj;
            }
        }
    }
}

/// Dense LDLᵀ of a column-major `height × d.len()` panel whose leading
/// rows are its own columns, pivots into `d`, in blocks of [`BLOCK`]
/// columns: each block is factored column by column, then subtracted from
/// the trailing columns in one block product. Returns `false` on a pivot
/// that is not strictly positive and finite.
fn dense_ldl(panel: &mut [f64], height: usize, d: &mut [f64]) -> bool {
    let width = d.len();
    for c0 in (0..width).step_by(BLOCK) {
        let c1 = (c0 + BLOCK).min(width);
        for j in c0..c1 {
            let dj = panel[j * height + j];
            if dj <= 0.0 || !dj.is_finite() {
                return false;
            }
            d[j] = dj;
            let (left, right) = panel.split_at_mut((j + 1) * height);
            let column = &mut left[j * height..];
            for (t, target) in (j + 1..c1).zip(right.chunks_exact_mut(height)) {
                let ltj = column[t] / dj;
                for i in t..height {
                    target[i] -= column[i] * ltj;
                }
            }
            for v in &mut column[j + 1..] {
                *v /= dj;
            }
        }
        let (left, right) = panel.split_at_mut(c1 * height);
        let block = &left[c0 * height + c1..];
        for b0 in (0..width - c1).step_by(BLOCK) {
            let columns = (width - c1 - b0).min(BLOCK);
            let out = &mut right[b0 * height + c1..];
            ldl_update(
                block,
                height,
                &d[c0..c1],
                b0,
                columns,
                height - c1,
                out,
                height,
            );
        }
    }
    true
}

/// One [`BLOCK`]-column slice of the block product of the supernodal
/// kernels: with `x` column-major (leading dimension `ldx`, one column per
/// entry of `d`), `out[a + u·ldo] -= Σₖ x[a + k·ldx] · d[k] · x[b0 + u + k·ldx]`
/// for `u < columns` and `b0 ≤ a < m`. The entries above the diagonal
/// (`a < b0 + u`) are computed too; no caller reads them.
#[allow(clippy::too_many_arguments)]
fn ldl_update(
    x: &[f64],
    ldx: usize,
    d: &[f64],
    b0: usize,
    columns: usize,
    m: usize,
    out: &mut [f64],
    ldo: usize,
) {
    let mut k0 = 0;
    while k0 + BLOCK <= d.len() {
        update_block::<BLOCK>(x, ldx, d, k0, b0, columns, m, out, ldo);
        k0 += BLOCK;
    }
    for k in k0..d.len() {
        update_block::<1>(x, ldx, d, k, b0, columns, m, out, ldo);
    }
}

/// `K` terms of [`ldl_update`] on `columns` output columns from `b0`.
#[allow(clippy::too_many_arguments)]
fn update_block<const K: usize>(
    x: &[f64],
    ldx: usize,
    d: &[f64],
    k0: usize,
    b0: usize,
    columns: usize,
    m: usize,
    out: &mut [f64],
    ldo: usize,
) {
    match columns {
        4 => update_tile::<K, 4>(x, ldx, d, k0, b0, m, out, ldo),
        3 => update_tile::<K, 3>(x, ldx, d, k0, b0, m, out, ldo),
        2 => update_tile::<K, 2>(x, ldx, d, k0, b0, m, out, ldo),
        _ => update_tile::<K, 1>(x, ldx, d, k0, b0, m, out, ldo),
    }
}

/// The register-blocked inner kernel: `K` columns of `x` against `B`
/// output columns, each output entry loaded and stored once.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn update_tile<const K: usize, const B: usize>(
    x: &[f64],
    ldx: usize,
    d: &[f64],
    k0: usize,
    b0: usize,
    m: usize,
    out: &mut [f64],
    ldo: usize,
) {
    let xs: [&[f64]; K] = std::array::from_fn(|t| &x[(k0 + t) * ldx + b0..(k0 + t) * ldx + m]);
    let w: [[f64; B]; K] = std::array::from_fn(|t| std::array::from_fn(|u| d[k0 + t] * xs[t][u]));
    let mut chunks = out.chunks_mut(ldo);
    let cs: [&mut [f64]; B] = std::array::from_fn(|_| {
        let column = chunks.next().expect("output column in range");
        &mut column[b0..m]
    });
    for a in 0..m - b0 {
        let xa: [f64; K] = std::array::from_fn(|t| xs[t][a]);
        for u in 0..B {
            let mut s = cs[u][a];
            for t in 0..K {
                s -= xa[t] * w[t][u];
            }
            cs[u][a] = s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::Vector;
    use proptest::prelude::*;

    /// The previous `JtjPattern::new`: every pair of every row in one list,
    /// sorted and deduplicated, positions found by binary search. Kept as
    /// the oracle of the per-row marker construction. Returns the row
    /// pointers, column indices, diagonal and pair positions.
    #[allow(clippy::type_complexity)]
    fn legacy_pattern(
        n: usize,
        rows: &[Vec<usize>],
    ) -> (Vec<usize>, Vec<usize>, Vec<usize>, Vec<Vec<u32>>) {
        let mut pairs: Vec<(usize, usize)> = (0..n).map(|j| (j, j)).collect();
        for vars in rows {
            for (k, &a) in vars.iter().enumerate() {
                for &b in &vars[k..] {
                    pairs.push((b, a));
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
                        positions[tri_index(ia, ib)] = find(vars[ib], vars[ia]) as u32;
                    }
                }
                positions
            })
            .collect();
        (row_ptr, col_idx, diag_pos, pair_pos)
    }

    /// The previous `minimum_degree`, which cleared the front marks before
    /// the update loop and binary-searched the sorted front instead. Kept
    /// as the oracle of the current one.
    fn legacy_minimum_degree(n: usize, row_ptr: &[usize], col_idx: &[usize]) -> Vec<usize> {
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
            let mut pivot = NONE;
            for v in 0..n {
                if !eliminated[v] && (pivot == NONE || degree[v] < degree[pivot]) {
                    pivot = v;
                }
            }
            eliminated[pivot] = true;
            perm.push(pivot);
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
            for &e in &adj_elems[pivot] {
                if elem_alive[e] {
                    elem_alive[e] = false;
                    elements[e] = Vec::new();
                }
            }
            let eid = elements.len();
            elements.push(front.clone());
            elem_alive.push(true);
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

    /// Folds raw proptest material into strictly sorted row patterns over
    /// `n` variables.
    fn fold_patterns(n: usize, raw: Vec<Vec<usize>>) -> Vec<Vec<usize>> {
        raw.into_iter()
            .map(|row| {
                let mut vars: Vec<usize> = row.into_iter().map(|v| v % n).collect();
                vars.sort_unstable();
                vars.dedup();
                vars
            })
            .collect()
    }

    proptest! {
        #[test]
        fn pattern_and_ordering_match_the_legacy_constructions(
            n in 1usize..48,
            raw in prop::collection::vec(prop::collection::vec(0usize..64, 0..8), 0..40),
        ) {
            let rows = fold_patterns(n, raw);
            let pattern = JtjPattern::new(n, &rows);
            let (row_ptr, col_idx, diag_pos, pair_pos) = legacy_pattern(n, &rows);
            let col_idx32: Vec<u32> = col_idx
                .iter()
                .map(|&c| u32::try_from(c).expect("column fits u32"))
                .collect();
            prop_assert_eq!(&pattern.row_ptr, &row_ptr);
            prop_assert_eq!(&pattern.col_idx, &col_idx32);
            prop_assert_eq!(&pattern.diag_pos, &diag_pos);
            prop_assert_eq!(&pattern.pair_pos, &pair_pos);
            // The `u32` ordering on the `u32` pattern picks the pivots the
            // `usize` one picked on the legacy pattern.
            prop_assert_eq!(
                minimum_degree(n, &row_ptr, &pattern.col_idx),
                legacy_minimum_degree(n, &row_ptr, &col_idx)
            );
        }

        #[test]
        fn chunked_patterns_renumber_each_chunk_onto_the_entries_it_touches(
            n in 1usize..48,
            raw in prop::collection::vec(prop::collection::vec(0usize..64, 0..8), 1..40),
            chunks in 1usize..6,
        ) {
            let rows = fold_patterns(n, raw);
            let size = rows.len().div_ceil(chunks);
            let ranges: Vec<std::ops::Range<usize>> = (0..chunks)
                .map(|c| (c * size).min(rows.len())..((c + 1) * size).min(rows.len()))
                .collect();
            let full = JtjPattern::new(n, &rows);
            let chunked = JtjPattern::chunked(n, &rows, ranges.clone());
            prop_assert_eq!(chunked.pattern(), full.pattern());
            for (chunk, range) in chunked.chunks().iter().zip(&ranges) {
                prop_assert_eq!(chunk.rows(), range.clone());
                // Exactly the positions the chunk's rows scatter into,
                // sorted, and every local position maps back to its own.
                let mut touched: Vec<u32> =
                    full.pair_pos[range.clone()].iter().flatten().copied().collect();
                touched.sort_unstable();
                touched.dedup();
                prop_assert_eq!(&chunk.touched, &touched);
                for r in range.clone() {
                    for (&local, &global) in chunked.pair_pos[r].iter().zip(&full.pair_pos[r]) {
                        prop_assert_eq!(chunk.touched[local as usize], global);
                    }
                }
            }
        }
    }

    /// A row's `(column, value)` entries as the `(index in the row's
    /// pattern, value)` entries [`JtjPattern::accumulate_row`] takes.
    fn local_entries(vars: &[usize], entries: &[(usize, f64)]) -> Vec<(u32, f64)> {
        entries
            .iter()
            .map(|&(col, value)| {
                let local = vars.binary_search(&col).expect("entry inside the pattern");
                (u32::try_from(local).expect("index fits u32"), value)
            })
            .collect()
    }

    #[test]
    fn jtj_accumulation_matches_the_dense_normal_matrix() {
        // Rows of a 4-column Jacobian with fixed sparsity.
        let patterns = vec![vec![0, 2], vec![1, 2, 3], vec![0], vec![1, 3]];
        let pattern = JtjPattern::new(4, &patterns);
        assert_eq!(pattern.jacobian_nnz(), 8);
        let rows: Vec<Vec<(usize, f64)>> = vec![
            vec![(0, 1.0), (2, -2.0)],
            vec![(1, 3.0), (2, 0.5), (3, 1.0)],
            vec![(0, -1.0)],
            vec![(1, 2.0)], // subset of the declared pattern
        ];
        let mut values = pattern.values_buffer();
        for (k, entries) in rows.iter().enumerate() {
            pattern.accumulate_row(k, &local_entries(&patterns[k], entries), &mut values);
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
    fn pattern_indices_convert_to_u32_without_truncating() {
        let max = u32::MAX as usize;
        assert_eq!(index32(max), u32::MAX);
        let past = std::panic::catch_unwind(|| index32(max + 1));
        assert!(past.is_err(), "an index past u32::MAX must panic, not wrap");
    }

    #[test]
    fn minimum_degree_produces_a_permutation() {
        // Arrowhead pattern: dense first row/column.
        let patterns: Vec<Vec<usize>> = (1..6).map(|i| vec![0, i]).collect();
        let jtj = JtjPattern::new(6, &patterns);
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
        let jtj = JtjPattern::new(5, &patterns);
        let rows: Vec<Vec<(usize, f64)>> = vec![
            vec![(0, 2.0), (1, -1.0)],
            vec![(1, 1.5), (2, 0.5)],
            vec![(2, -1.0), (3, 2.0)],
            vec![(3, 1.0), (4, 1.0)],
            vec![(0, 0.5), (4, -2.0)],
            vec![(2, 3.0)],
        ];
        let mut values = jtj.values_buffer();
        for (k, entries) in rows.iter().enumerate() {
            jtj.accumulate_row(k, &local_entries(&patterns[k], entries), &mut values);
        }
        let (row_ptr, col_idx) = jtj.pattern();
        let symbolic = SymbolicLdl::analyze(5, row_ptr, col_idx);
        assert_eq!(symbolic.supernodes(), 0, "a sparse factor stays simplicial");
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
        let jtj = JtjPattern::new(2, &[[0, 1]]);
        let mut values = jtj.values_buffer();
        // Outer product [1, 1] gives [[1,1],[1,1]] (singular): pivot two is
        // exactly zero.
        jtj.accumulate_row(0, &[(0, 1.0), (1, 1.0)], &mut values);
        let (row_ptr, col_idx) = jtj.pattern();
        let symbolic = SymbolicLdl::analyze(2, row_ptr, col_idx);
        let mut numeric = symbolic.numeric();
        assert!(!symbolic.factor(&values, &[0.0, 0.0], &mut numeric));
        // Damping restores positive definiteness.
        assert!(symbolic.factor(&values, &[1e-3, 1e-3], &mut numeric));
    }

    /// A dense `n × n` normal-matrix pattern (one Jacobian row over every
    /// variable) with diagonally dominant values. Its factor does
    /// `(n - 1) / 3` multiply-adds per entry, so `n ≥ 121` goes supernodal:
    /// one supernode, `n` columns wide.
    fn dominant_dense(n: usize) -> (JtjPattern, Vec<f64>) {
        let jtj = JtjPattern::new(n, &[(0..n).collect::<Vec<_>>()]);
        let mut values = jtj.values_buffer();
        let (row_ptr, col_idx) = jtj.pattern();
        for r in 0..n {
            for p in row_ptr[r]..row_ptr[r + 1] {
                let c = col_idx[p] as usize;
                values[p] = if c == r {
                    2.0
                } else {
                    0.01 / (1 + r + c) as f64
                };
            }
        }
        (jtj, values)
    }

    fn position(jtj: &JtjPattern, r: usize, c: usize) -> usize {
        let (row_ptr, col_idx) = jtj.pattern();
        row_ptr[r]
            + col_idx[row_ptr[r]..row_ptr[r + 1]]
                .binary_search(&u32::try_from(c).unwrap())
                .unwrap()
    }

    #[test]
    fn supernodal_layout_solves_against_the_dense_oracle() {
        let n = 124;
        let (jtj, values) = dominant_dense(n);
        let (row_ptr, col_idx) = jtj.pattern();
        let symbolic = SymbolicLdl::analyze(n, row_ptr, col_idx);
        assert_eq!(symbolic.supernodes(), 1);
        assert_eq!(symbolic.nnz_factor(), n * (n + 1) / 2);
        let mut numeric = symbolic.numeric();
        let damping = vec![0.5; n];
        assert!(symbolic.factor(&values, &damping, &mut numeric));
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let mut x = b.clone();
        symbolic.solve(&mut numeric, &mut x);
        let mut dense = jtj.to_dense(&values);
        for i in 0..n {
            dense.add_to(i, i, 0.5);
        }
        let oracle = dense
            .solve(&Vector::from_slice(&b))
            .expect("positive definite");
        for i in 0..n {
            assert!((x[i] - oracle[i]).abs() < 1e-12 * (1.0 + oracle[i].abs()));
        }
    }

    #[test]
    fn supernodal_factorization_rejects_a_negative_pivot() {
        let n = 124;
        let (jtj, mut values) = dominant_dense(n);
        let (row_ptr, col_idx) = jtj.pattern();
        let symbolic = SymbolicLdl::analyze(n, row_ptr, col_idx);
        assert!(symbolic.supernodes() > 0);
        // Updates only lower a pivot, so a negative diagonal entry of A
        // yields a negative pivot wherever its column sits in the panel.
        values[jtj.diag_positions()[70]] = -1.0;
        let mut numeric = symbolic.numeric();
        assert!(!symbolic.factor(&values, &vec![0.0; n], &mut numeric));
        // Damping restores positive definiteness, with no stale state
        // left over from the failed attempt.
        assert!(symbolic.factor(&values, &vec![2.0; n], &mut numeric));
    }

    #[test]
    fn supernodal_factorization_rejects_a_nan_inside_a_wide_panel() {
        let n = 124;
        let (jtj, mut values) = dominant_dense(n);
        let (row_ptr, col_idx) = jtj.pattern();
        let symbolic = SymbolicLdl::analyze(n, row_ptr, col_idx);
        assert!(symbolic.supernodes() > 0);
        let nan_at = position(&jtj, 50, 20);
        values[nan_at] = f64::NAN;
        let mut numeric = symbolic.numeric();
        assert!(!symbolic.factor(&values, &vec![0.5; n], &mut numeric));
        values[nan_at] = 0.0;
        assert!(symbolic.factor(&values, &vec![0.5; n], &mut numeric));
    }

    #[test]
    fn repeated_factorizations_reuse_the_symbolic_analysis() {
        let jtj = JtjPattern::new(3, &[[0, 1], [1, 2]]);
        let (row_ptr, col_idx) = jtj.pattern();
        let symbolic = SymbolicLdl::analyze(3, row_ptr, col_idx);
        let mut numeric = symbolic.numeric();
        for scale in [1.0, 2.0, 0.5] {
            let mut values = jtj.values_buffer();
            jtj.accumulate_row(0, &[(0, scale), (1, -scale)], &mut values);
            jtj.accumulate_row(1, &[(0, scale), (1, scale)], &mut values);
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
