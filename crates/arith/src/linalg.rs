//! Dense `f64` linear algebra: products, transposes and a
//! Gaussian-elimination solve. The dense LM probe uses them, and they are
//! the oracle the sparse JᵀJ and LDLᵀ routines are tested against.
//!
//! Everything here is dense and written for clarity over raw speed; the
//! matrices involved are small (tens to a few hundreds of rows).

use std::ops::{Index, IndexMut, Mul};

/// A dense column vector of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Vector {
    data: Vec<f64>,
}

impl Vector {
    /// Creates a zero vector of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        Vector { data: vec![0.0; n] }
    }

    /// Creates a vector from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Vector {
            data: values.to_vec(),
        }
    }

    /// The dimension of the vector.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` if the vector has dimension zero.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Index<usize> for Vector {
    type Output = f64;
    fn index(&self, index: usize) -> &f64 {
        &self.data[index]
    }
}

impl IndexMut<usize> for Vector {
    fn index_mut(&mut self, index: usize) -> &mut f64 {
        &mut self.data[index]
    }
}

/// A dense row-major matrix of `f64` values.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero matrix with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Reads the entry at `(row, col)`.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        self.data[row * self.cols + col]
    }

    /// Writes the entry at `(row, col)`.
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.cols + col] = value;
    }

    /// Adds `value` to the entry at `(row, col)`.
    pub fn add_to(&mut self, row: usize, col: usize, value: f64) {
        self.data[row * self.cols + col] += value;
    }

    /// The transpose of the matrix.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut t);
        t
    }

    /// Writes the transpose into a caller-supplied matrix (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have the transposed shape.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(out.rows, self.cols, "transpose_into shape mismatch");
        assert_eq!(out.cols, self.rows, "transpose_into shape mismatch");
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.set(j, i, self.get(i, j));
            }
        }
    }

    /// Matrix–vector product.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are incompatible.
    pub fn mul_vec(&self, v: &Vector) -> Vector {
        let mut result = Vector::zeros(self.rows);
        self.mul_vec_into(v, &mut result);
        result
    }

    /// Matrix–vector product into a caller-supplied vector (no allocation).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are incompatible.
    pub fn mul_vec_into(&self, v: &Vector, out: &mut Vector) {
        assert_eq!(
            self.cols,
            v.len(),
            "dimension mismatch in matrix-vector product"
        );
        assert_eq!(self.rows, out.len(), "output dimension mismatch");
        for i in 0..self.rows {
            let mut acc = 0.0;
            for j in 0..self.cols {
                acc += self.get(i, j) * v[j];
            }
            out[i] = acc;
        }
    }

    /// Matrix product into a caller-supplied matrix (no allocation). `out`
    /// is overwritten, not accumulated into.
    ///
    /// # Panics
    ///
    /// Panics if the dimensions are incompatible or `out` aliases an input
    /// shape-wise incorrectly.
    pub fn mul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix product");
        assert_eq!(out.rows, self.rows, "output shape mismatch");
        assert_eq!(out.cols, rhs.cols, "output shape mismatch");
        out.data.fill(0.0);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self.get(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..rhs.cols {
                    out.add_to(i, j, aik * rhs.get(k, j));
                }
            }
        }
    }

    /// Solves `A·x = b` by Gaussian elimination with partial pivoting.
    ///
    /// Returns `None` if the matrix is singular to working precision.
    pub fn solve(&self, b: &Vector) -> Option<Vector> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(self.rows, b.len(), "dimension mismatch in solve");
        let n = self.rows;
        let mut a = self.clone();
        let mut x = b.clone();
        for col in 0..n {
            // Partial pivoting.
            let mut pivot_row = col;
            let mut pivot_val = a.get(col, col).abs();
            for row in (col + 1)..n {
                let v = a.get(row, col).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = row;
                }
            }
            if pivot_val < 1e-12 {
                return None;
            }
            if pivot_row != col {
                for j in 0..n {
                    let tmp = a.get(col, j);
                    a.set(col, j, a.get(pivot_row, j));
                    a.set(pivot_row, j, tmp);
                }
                let tmp = x[col];
                x[col] = x[pivot_row];
                x[pivot_row] = tmp;
            }
            let pivot = a.get(col, col);
            for row in (col + 1)..n {
                let factor = a.get(row, col) / pivot;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    let v = a.get(row, j) - factor * a.get(col, j);
                    a.set(row, j, v);
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        let mut result = Vector::zeros(n);
        for row in (0..n).rev() {
            let mut acc = x[row];
            for j in (row + 1)..n {
                acc -= a.get(row, j) * result[j];
            }
            result[row] = acc / a.get(row, row);
        }
        Some(result)
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix product");
        let mut result = Matrix::zeros(self.rows, rhs.cols);
        self.mul_into(rhs, &mut result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    fn matrix<const C: usize>(rows: &[[f64; C]]) -> Matrix {
        let mut m = Matrix::zeros(rows.len(), C);
        for (i, row) in rows.iter().enumerate() {
            for (j, &value) in row.iter().enumerate() {
                m.set(i, j, value);
            }
        }
        m
    }

    #[test]
    fn vector_basics() {
        let mut v = Vector::from_slice(&[3.0, 4.0]);
        assert_eq!(v.len(), 2);
        assert!(!v.is_empty());
        assert!(Vector::zeros(0).is_empty());
        v[1] += 1.0;
        assert_eq!(v, Vector::from_slice(&[3.0, 5.0]));
    }

    #[test]
    fn matrix_multiplication() {
        let a = matrix(&[[1.0, 2.0], [3.0, 4.0]]);
        let b = matrix(&[[5.0, 6.0], [7.0, 8.0]]);
        let c = &a * &b;
        assert_eq!(c.get(0, 0), 19.0);
        assert_eq!(c.get(0, 1), 22.0);
        assert_eq!(c.get(1, 0), 43.0);
        assert_eq!(c.get(1, 1), 50.0);
    }

    #[test]
    fn transpose_and_symmetry() {
        let a = matrix(&[[1.0, 2.0], [3.0, 4.0]]);
        let at = a.transpose();
        assert_eq!(at.get(0, 1), 3.0);
        assert_eq!(at.transpose(), a);
        // AᵀA is symmetric.
        let gram = &at * &a;
        assert_eq!(gram.get(0, 1), gram.get(1, 0));
        assert!(approx_eq(gram.get(0, 1), 14.0));
    }

    #[test]
    fn solve_linear_system() {
        let a = matrix(&[[2.0, 1.0], [1.0, 3.0]]);
        let b = Vector::from_slice(&[3.0, 5.0]);
        let x = a.solve(&b).expect("non-singular");
        assert!(approx_eq(x[0], 0.8));
        assert!(approx_eq(x[1], 1.4));
        let singular = matrix(&[[1.0, 2.0], [2.0, 4.0]]);
        assert!(singular.solve(&b).is_none());
    }
}
