//! Row-major dense `f64` matrices.

use std::fmt;
use std::ops::{Add, Mul, Sub};

/// A dense row-major matrix of `f64` values.
///
/// This is the raw numeric workhorse under the autograd layer; it carries no
/// gradient information itself.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    pub fn from_rows(rows: &[&[f64]]) -> Matrix {
        assert!(!rows.is_empty(), "matrix must have at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a 1×n row vector.
    pub fn row_vector(values: &[f64]) -> Matrix {
        Matrix::from_vec(1, values.len(), values.to_vec())
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix holds zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw row-major data slice.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow of one row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of one row.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_into(other, &mut out);
        out
    }

    /// Matrix product `self · other` written into `out`, which must already
    /// have the product's shape (its previous contents are discarded). The
    /// allocation-free form of [`Matrix::matmul`]: every output row depends
    /// on the matching row of `self` only, and each element accumulates its
    /// terms in ascending inner-index order, skipping zero left operands.
    ///
    /// Skipping is exact for finite operands: the skipped term is a signed
    /// zero, and a round-to-nearest sum that starts at `+0.0` never becomes
    /// `−0.0`, so adding a zero never changes its bits.
    pub fn matmul_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, other.rows,
            "matmul shape mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        assert_eq!(
            out.shape(),
            (self.rows, other.cols),
            "matmul output shape mismatch"
        );
        // `chunks_exact` takes no zero width. With no inner terms or no
        // output columns, the product is all zeros (or nothing).
        if self.cols == 0 || other.cols == 0 {
            out.data.fill(0.0);
            return;
        }
        let other_rows = || other.data.chunks_exact(other.cols);
        for (a_row, out_row) in self
            .data
            .chunks_exact(self.cols)
            .zip(out.data.chunks_exact_mut(other.cols))
        {
            let mut col = 0;
            while other.cols - col >= 8 {
                row_block::<8>(a_row, other_rows(), col, out_row);
                col += 8;
            }
            if other.cols - col >= 4 {
                row_block::<4>(a_row, other_rows(), col, out_row);
                col += 4;
            }
            while col < other.cols {
                row_block::<1>(a_row, other_rows(), col, out_row);
                col += 1;
            }
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose written into `out`, which must already be `cols × rows`.
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose output shape mismatch"
        );
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
    }

    /// Element-wise map in place.
    pub fn map_in_place(&mut self, f: impl Fn(f64) -> f64) {
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Element-wise combination with a same-shaped matrix in place:
    /// `self[i] = f(self[i], other[i])`.
    pub fn zip_in_place(&mut self, other: &Matrix, f: impl Fn(f64, f64) -> f64) {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a = f(*a, b);
        }
    }

    /// Element-wise map.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Element-wise combination of two same-shaped matrices.
    pub fn zip(&self, other: &Matrix, f: impl Fn(f64, f64) -> f64) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// Element-wise (Hadamard) product.
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip(other, |a, b| a * b)
    }

    /// Scales every element by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        self.map(|v| v * s)
    }

    /// Adds a 1×cols row vector to every row (bias broadcast).
    pub fn add_row_broadcast(&self, row: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_row_broadcast_in_place(row);
        out
    }

    /// Adds a 1×cols row vector to every row, in place.
    pub fn add_row_broadcast_in_place(&mut self, row: &Matrix) {
        assert_eq!(row.rows, 1, "broadcast operand must be a row vector");
        assert_eq!(row.cols, self.cols, "broadcast width mismatch");
        for r in 0..self.rows {
            for c in 0..self.cols {
                self.data[r * self.cols + c] += row.data[c];
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Column-wise sum collapsed to a 1×cols row vector.
    pub fn sum_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c] += self.get(r, c);
            }
        }
        out
    }

    /// Maximum absolute element (0 for an empty matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |acc, &v| acc.max(v.abs()))
    }

    /// Row-wise softmax: each row is exponentiated (shifted by its maximum for
    /// numerical stability) and normalised to sum to one.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = self.clone();
        out.softmax_rows_in_place();
        out
    }

    /// Row-wise softmax in place (see [`Matrix::softmax_rows`]).
    pub fn softmax_rows_in_place(&mut self) {
        for r in 0..self.rows {
            let row = self.row_mut(r);
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            if sum > 0.0 {
                for v in row.iter_mut() {
                    *v /= sum;
                }
            }
        }
    }

    /// Horizontal concatenation `[self | other]`.
    pub fn concat_cols(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "concat_cols row mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        for r in 0..self.rows {
            out.row_mut(r)[..self.cols].copy_from_slice(self.row(r));
            out.row_mut(r)[self.cols..].copy_from_slice(other.row(r));
        }
        out
    }

    /// Copy of a contiguous block of rows `[start, start+len)`.
    pub fn rows_slice(&self, start: usize, len: usize) -> Matrix {
        assert!(start + len <= self.rows, "rows_slice out of range");
        Matrix::from_vec(
            len,
            self.cols,
            self.data[start * self.cols..(start + len) * self.cols].to_vec(),
        )
    }

    /// Whether every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }
}

/// Columns `col .. col + W` of one row of a matrix product: `W` sums kept in
/// registers over the whole inner loop, each taking its terms in ascending
/// inner-index order from `+0.0` and skipping zero left operands. Each sum
/// is a chain of dependent adds, so a block of `W` runs `W` chains at once.
#[inline(always)]
fn row_block<const W: usize>(
    a_row: &[f64],
    b_rows: std::slice::ChunksExact<'_, f64>,
    col: usize,
    out_row: &mut [f64],
) {
    let mut sums = [0.0; W];
    for (&a, b_row) in a_row.iter().zip(b_rows) {
        if a == 0.0 {
            continue;
        }
        for (sum, &b) in sums.iter_mut().zip(&b_row[col..col + W]) {
            *sum += a * b;
        }
    }
    out_row[col..col + W].copy_from_slice(&sums);
}

/// The logistic sigmoid `1 / (1 + e^-v)` — the one definition shared by the
/// autograd op and the inference-only forward passes, so both round alike.
#[inline]
pub fn sigmoid(v: f64) -> f64 {
    1.0 / (1.0 + (-v).exp())
}

impl Add for &Matrix {
    type Output = Matrix;
    fn add(self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a + b)
    }
}

impl Sub for &Matrix {
    type Output = Matrix;
    fn sub(self, rhs: &Matrix) -> Matrix {
        self.zip(rhs, |a, b| a - b)
    }
}

impl Mul for &Matrix {
    type Output = Matrix;
    fn mul(self, rhs: &Matrix) -> Matrix {
        self.matmul(rhs)
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  [")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:8.4} ", self.get(r, c))?;
            }
            writeln!(f, "{}]", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn identity_is_neutral_for_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
        assert_eq!(Matrix::identity(2).matmul(&a), a);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), 6.0);
    }

    #[test]
    fn broadcast_adds_bias_to_every_row() {
        let a = Matrix::zeros(3, 2);
        let b = Matrix::row_vector(&[1.0, -1.0]);
        let c = a.add_row_broadcast(&b);
        for r in 0..3 {
            assert_eq!(c.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn softmax_rows_are_stochastic() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1000.0, 1000.0]]);
        let s = a.softmax_rows();
        for r in 0..2 {
            let sum: f64 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(s.row(r).iter().all(|&v| v >= 0.0));
        }
        // Uniform row stays uniform (and does not overflow).
        assert!((s.get(1, 0) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn sum_and_max_abs() {
        let a = Matrix::from_rows(&[&[3.0, -4.0]]);
        assert_eq!(a.sum(), -1.0);
        assert_eq!(a.max_abs(), 4.0);
    }

    #[test]
    fn concat_and_slice() {
        let a = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let b = Matrix::from_rows(&[&[4.0], &[5.0], &[6.0]]);
        let c = a.concat_cols(&b);
        assert_eq!(c.shape(), (3, 2));
        assert_eq!(c.row(1), &[2.0, 5.0]);
        let s = c.rows_slice(1, 2);
        assert_eq!(s.row(0), &[2.0, 5.0]);
    }

    #[test]
    fn sum_rows_collapses_columns() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.sum_rows(), Matrix::row_vector(&[4.0, 6.0]));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
