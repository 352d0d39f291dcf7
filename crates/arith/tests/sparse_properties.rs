//! Property tests pinning the sparse substrate against the dense oracle:
//! JᵀJ accumulation from sparse rows and the minimum-degree LDLᵀ
//! factor-solve must agree with the corresponding dense
//! [`Matrix`](polyinv_arith::Matrix) computations on random sparse systems.

use polyinv_arith::sparse::{JtjChunk, JtjPattern, SymbolicLdl};
use polyinv_arith::{Matrix, Vector};
use proptest::prelude::*;

/// A random sparse system derived from raw proptest material: `rows × cols`
/// shape plus one short `(col, value)` list per row with strictly
/// increasing columns.
#[derive(Debug, Clone)]
struct SparseSystem {
    rows: usize,
    cols: usize,
    entries: Vec<Vec<(usize, f64)>>,
}

/// Raw material for one system: the vendored proptest stand-in has no
/// `prop_flat_map`, so shapes and entries are drawn independently and the
/// entry columns are folded into range (sorted, deduplicated) here.
fn build_system(rows: usize, cols: usize, raw: Vec<Vec<(usize, f64)>>) -> SparseSystem {
    let entries = raw
        .into_iter()
        .take(rows)
        .chain(std::iter::repeat(Vec::new()))
        .take(rows)
        .map(|row| {
            let mut folded: Vec<(usize, f64)> = Vec::new();
            for (c, v) in row {
                let col = c % cols;
                match folded.binary_search_by_key(&col, |&(c, _)| c) {
                    Ok(at) => folded[at].1 += v,
                    Err(at) => folded.insert(at, (col, v)),
                }
            }
            folded
        })
        .collect();
    SparseSystem {
        rows,
        cols,
        entries,
    }
}

fn raw_entries() -> impl Strategy<Value = Vec<Vec<(usize, f64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..64, -4.0f64..4.0), 0..5),
        8,
    )
}

fn dense_of(system: &SparseSystem) -> Matrix {
    let mut m = Matrix::zeros(system.rows, system.cols);
    for (r, row) in system.entries.iter().enumerate() {
        for &(c, v) in row {
            m.add_to(r, c, v);
        }
    }
    m
}

fn patterns_of(system: &SparseSystem) -> Vec<Vec<usize>> {
    system
        .entries
        .iter()
        .map(|row| row.iter().map(|&(c, _)| c).collect())
        .collect()
}

/// A row's `(column, value)` entries as the `(index in the declared
/// pattern, value)` entries `JtjPattern::accumulate_row` takes.
fn local_entries(pattern: &[usize], row: &[(usize, f64)]) -> Vec<(u32, f64)> {
    row.iter()
        .map(|&(c, v)| {
            let local = pattern.binary_search(&c).expect("entry inside the pattern");
            (u32::try_from(local).expect("index fits u32"), v)
        })
        .collect()
}

/// Accumulates every row of `system` into a fresh values buffer of
/// `pattern`, whose declared row patterns are `patterns`.
fn accumulate(pattern: &JtjPattern, patterns: &[Vec<usize>], system: &SparseSystem) -> Vec<f64> {
    let mut values = pattern.values_buffer();
    for (r, row) in system.entries.iter().enumerate() {
        pattern.accumulate_row(r, &local_entries(&patterns[r], row), &mut values);
    }
    values
}

proptest! {
    #[test]
    fn jtj_accumulation_matches_dense_normal_matrix(
        rows in 1usize..8,
        cols in 1usize..8,
        raw in raw_entries(),
    ) {
        let system = build_system(rows, cols, raw);
        let patterns = patterns_of(&system);
        let pattern = JtjPattern::new(system.cols, &patterns);
        let values = accumulate(&pattern, &patterns, &system);
        let dense = dense_of(&system);
        let jtj = &dense.transpose() * &dense;
        let sparse_jtj = pattern.to_dense(&values);
        for i in 0..system.cols {
            for j in 0..system.cols {
                prop_assert!(
                    (sparse_jtj.get(i, j) - jtj.get(i, j)).abs() < 1e-9,
                    "JtJ mismatch at ({}, {}): {} vs {}",
                    i, j, sparse_jtj.get(i, j), jtj.get(i, j)
                );
            }
        }
    }

    #[test]
    fn local_index_accumulation_over_wider_patterns_matches_dense_normal_matrix(
        rows in 1usize..8,
        cols in 1usize..8,
        raw in raw_entries(),
        extra in proptest::collection::vec(proptest::collection::vec(0usize..64, 0..4), 8),
    ) {
        // Each row declares its entries' columns plus a few more, so an
        // entry's index in the pattern is not its position in the row.
        let system = build_system(rows, cols, raw);
        let patterns: Vec<Vec<usize>> = patterns_of(&system)
            .into_iter()
            .zip(&extra)
            .map(|(mut vars, more)| {
                vars.extend(more.iter().map(|&c| c % system.cols));
                vars.sort_unstable();
                vars.dedup();
                vars
            })
            .collect();
        let pattern = JtjPattern::new(system.cols, &patterns);
        let values = accumulate(&pattern, &patterns, &system);
        let dense = dense_of(&system);
        let jtj = &dense.transpose() * &dense;
        let sparse_jtj = pattern.to_dense(&values);
        for i in 0..system.cols {
            for j in 0..system.cols {
                prop_assert!(
                    (sparse_jtj.get(i, j) - jtj.get(i, j)).abs() < 1e-9,
                    "JtJ mismatch at ({}, {}): {} vs {}",
                    i, j, sparse_jtj.get(i, j), jtj.get(i, j)
                );
            }
        }
    }

    #[test]
    fn sparse_ldlt_factor_solve_matches_dense_solve(
        rows in 1usize..8,
        cols in 1usize..8,
        raw in raw_entries(),
        b in proptest::collection::vec(-3.0f64..3.0, 8),
        damping in 0.01f64..2.0,
    ) {
        let system = build_system(rows, cols, raw);
        let n = system.cols;
        let patterns = patterns_of(&system);
        let pattern = JtjPattern::new(n, &patterns);
        let values = accumulate(&pattern, &patterns, &system);
        let (row_ptr, col_idx) = pattern.pattern();
        let symbolic = SymbolicLdl::analyze(n, row_ptr, col_idx);
        let mut numeric = symbolic.numeric();
        // JᵀJ + damping·I is positive definite for any J, so the
        // factorization must succeed.
        let diag_add = vec![damping; n];
        prop_assert!(symbolic.factor(&values, &diag_add, &mut numeric));
        let mut x: Vec<f64> = b[..n].to_vec();
        symbolic.solve(&mut numeric, &mut x);

        let mut dense = pattern.to_dense(&values);
        for i in 0..n {
            dense.add_to(i, i, damping);
        }
        let oracle = dense.solve(&Vector::from_slice(&b[..n])).expect("PD system");
        for i in 0..n {
            prop_assert!(
                (x[i] - oracle[i]).abs() < 1e-6 * (1.0 + oracle[i].abs()),
                "solve mismatch at {}: {} vs {}", i, x[i], oracle[i]
            );
        }
    }

    #[test]
    fn symbolic_analysis_is_sane_for_arbitrary_patterns(
        rows in 1usize..8,
        cols in 1usize..8,
        raw in raw_entries(),
    ) {
        let system = build_system(rows, cols, raw);
        let n = system.cols;
        let pattern = JtjPattern::new(n, &patterns_of(&system));
        let (row_ptr, col_idx) = pattern.pattern();
        let symbolic = SymbolicLdl::analyze(n, row_ptr, col_idx);
        prop_assert!(symbolic.nnz_factor() >= n);
        prop_assert!(symbolic.nnz_factor() <= n * (n + 1) / 2);
        let mut perm = symbolic.permutation().to_vec();
        perm.sort_unstable();
        prop_assert_eq!(perm, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn chunked_jtj_merge_matches_dense_and_is_chunk_order_invariant(
        rows in 1usize..8,
        cols in 1usize..8,
        raw in raw_entries(),
        chunks in 1usize..5,
    ) {
        let system = build_system(rows, cols, raw);
        // Fixed chunk boundaries over the row range (never a function of the
        // worker count).
        let chunk_size = system.rows.div_ceil(chunks);
        let ranges: Vec<std::ops::Range<usize>> = (0..chunks)
            .map(|c| (c * chunk_size).min(system.rows)..((c + 1) * chunk_size).min(system.rows))
            .collect();
        let patterns = patterns_of(&system);
        let pattern = JtjPattern::new(system.cols, &patterns);
        let chunked = JtjPattern::chunked(system.cols, &patterns, ranges.clone());
        let local: Vec<Vec<(u32, f64)>> = system
            .entries
            .iter()
            .zip(&patterns)
            .map(|(row, vars)| local_entries(vars, row))
            .collect();
        let fill = |chunk: &JtjChunk| {
            let mut partial = chunk.values_buffer();
            for r in chunk.rows() {
                chunked.accumulate_row(r, &local[r], &mut partial);
            }
            partial
        };
        // "Thread schedule A": fill chunks first-to-last; "schedule B":
        // last-to-first. The merge itself always runs in chunk-index order.
        let mut partials_fwd: Vec<Vec<f64>> = chunked.chunks().iter().map(&fill).collect();
        let mut partials_rev: Vec<Vec<f64>> = chunked.chunks().iter().rev().map(&fill).collect();
        partials_rev.reverse();
        let mut merged_fwd = pattern.values_buffer();
        let mut merged_rev = pattern.values_buffer();
        for (c, chunk) in chunked.chunks().iter().enumerate() {
            chunk.merge_into(&mut merged_fwd, &mut partials_fwd[c]);
            chunk.merge_into(&mut merged_rev, &mut partials_rev[c]);
            // The merge leaves the chunk's buffer cleared for the next pass.
            prop_assert!(partials_fwd[c].iter().all(|v| v.to_bits() == 0));
        }
        // Bitwise invariance across fill orders: the worker count never
        // shows in the output.
        prop_assert_eq!(
            merged_fwd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            merged_rev.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // Bitwise equal to merging full-size partial buffers in chunk
        // order.
        let mut oracle = pattern.values_buffer();
        for range in &ranges {
            let mut partial = pattern.values_buffer();
            for r in range.clone() {
                pattern.accumulate_row(r, &local[r], &mut partial);
            }
            for (t, p) in oracle.iter_mut().zip(&partial) {
                *t += p;
            }
        }
        prop_assert_eq!(
            merged_fwd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            oracle.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // And the merged accumulation is still the normal matrix.
        let serial = accumulate(&pattern, &patterns, &system);
        for (m, s) in merged_fwd.iter().zip(&serial) {
            prop_assert!((m - s).abs() < 1e-9);
        }
    }

    #[test]
    fn supernodal_factor_solve_matches_dense_solve(
        raw in proptest::collection::vec(
            proptest::collection::vec((0usize..256, -4.0f64..4.0), 8..13),
            128,
        ),
        b in proptest::collection::vec(-3.0f64..3.0, 256),
        damping in 0.01f64..2.0,
    ) {
        // 128 rows of 8–12 entries over 256 variables: the normal matrix
        // fills in enough to cross the supernodal switch (a dense factor
        // of order n does (n - 1) / 3 multiply-adds per entry, so the
        // switch at 40 needs n ≥ 121).
        let n = 256;
        let system = build_system(128, n, raw);
        let patterns = patterns_of(&system);
        let pattern = JtjPattern::new(n, &patterns);
        let values = accumulate(&pattern, &patterns, &system);
        let (row_ptr, col_idx) = pattern.pattern();
        let symbolic = SymbolicLdl::analyze(n, row_ptr, col_idx);
        prop_assert!(symbolic.supernodes() > 0);
        let mut numeric = symbolic.numeric();
        let diag_add = vec![damping; n];
        prop_assert!(symbolic.factor(&values, &diag_add, &mut numeric));
        let mut x = b.clone();
        symbolic.solve(&mut numeric, &mut x);

        let mut dense = pattern.to_dense(&values);
        for i in 0..n {
            dense.add_to(i, i, damping);
        }
        let oracle = dense.solve(&Vector::from_slice(&b)).expect("PD system");
        for i in 0..n {
            prop_assert!(
                (x[i] - oracle[i]).abs() < 1e-6 * (1.0 + oracle[i].abs()),
                "solve mismatch at {}: {} vs {}", i, x[i], oracle[i]
            );
        }
    }

    #[test]
    fn dense_into_buffer_variants_match_the_allocating_forms(
        rows in 1usize..8,
        cols in 1usize..8,
        raw in raw_entries(),
        x in proptest::collection::vec(-3.0f64..3.0, 8),
    ) {
        let system = build_system(rows, cols, raw);
        let dense = dense_of(&system);
        let mut transposed = Matrix::zeros(system.cols, system.rows);
        dense.transpose_into(&mut transposed);
        assert_eq!(transposed, dense.transpose());
        let mut product = Matrix::zeros(system.cols, system.cols);
        transposed.mul_into(&dense, &mut product);
        assert_eq!(product, &transposed * &dense);
        let v = Vector::from_slice(&x[..system.cols]);
        let mut out = Vector::zeros(system.rows);
        dense.mul_vec_into(&v, &mut out);
        assert_eq!(out, dense.mul_vec(&v));
    }
}
