//! Owned, row-major dense matrices.

use std::fmt;
use std::ops::{Index, IndexMut};

/// An owned dense matrix in row-major order.
///
/// Indexing is zero-based `(row, col)`. The GEP literature uses one-based
/// indices `1..=n`; every algorithm crate in this workspace translates to
/// zero-based internally and documents the shift where it matters.
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Copy> Matrix<T> {
    /// Creates a `rows x cols` matrix with every element set to `fill`.
    pub fn filled(rows: usize, cols: usize, fill: T) -> Self {
        Self {
            rows,
            cols,
            data: vec![fill; rows * cols],
        }
    }

    /// Creates an `n x n` matrix filled with `fill`.
    pub fn square(n: usize, fill: T) -> Self {
        Self::filled(n, n, fill)
    }

    /// Creates a matrix from a generator function `f(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from nested rows. All rows must have equal length.
    ///
    /// # Panics
    /// Panics if row lengths differ.
    pub fn from_rows(rows: &[Vec<T>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Builds a matrix that embeds `self` into an `n x n` matrix with
    /// `n = fit_side(max(rows, cols), base)`, padding with `pad`.
    ///
    /// The result is a side the I-GEP engines run with leaves of side
    /// `<= base` (see [`crate::fit_side`]).
    pub fn padded(&self, pad: T, base: usize) -> Matrix<T> {
        let n = crate::fit_side(self.rows.max(self.cols), base);
        let mut out = Matrix::square(n, pad);
        for i in 0..self.rows {
            out.data[i * n..i * n + self.cols]
                .copy_from_slice(&self.data[i * self.cols..(i + 1) * self.cols]);
        }
        out
    }

    /// Returns the top-left `rows x cols` corner as a new matrix
    /// (inverse of [`Matrix::padded`]).
    pub fn shrunk(&self, rows: usize, cols: usize) -> Matrix<T> {
        assert!(rows <= self.rows && cols <= self.cols);
        Matrix::from_fn(rows, cols, |i, j| self[(i, j)])
    }

    /// Element at `(i, j)` (copy).
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize) -> T {
        self.data[i * self.cols + j]
    }

    /// Sets element `(i, j)`.
    #[inline(always)]
    pub fn set(&mut self, i: usize, j: usize, v: T) {
        self.data[i * self.cols + j] = v;
    }

    /// Fills the whole matrix with `v`.
    pub fn fill(&mut self, v: T) {
        self.data.fill(v);
    }

    /// Copies the contents of `other` into `self`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn copy_from(&mut self, other: &Matrix<T>) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data.copy_from_slice(&other.data);
    }

    /// Out-of-place transpose.
    pub fn transposed(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |i, j| self[(j, i)])
    }
}

impl<T> Matrix<T> {
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

    /// Side length of a square matrix.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    #[inline]
    pub fn n(&self) -> usize {
        assert_eq!(self.rows, self.cols, "matrix is not square");
        self.rows
    }

    /// True if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Underlying row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Underlying mutable row-major slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterator over `(row, col, &value)`.
    pub fn iter_indexed(&self) -> impl Iterator<Item = (usize, usize, &T)> {
        let cols = self.cols;
        self.data
            .iter()
            .enumerate()
            .map(move |(k, v)| (k / cols, k % cols, v))
    }
}

impl Matrix<f64> {
    /// Identity matrix of side `n`.
    pub fn identity(n: usize) -> Self {
        Matrix::from_fn(n, n, |i, j| if i == j { 1.0 } else { 0.0 })
    }

    /// Maximum absolute elementwise difference against `other`.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn max_abs_diff(&self, other: &Matrix<f64>) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// True if all elements differ by at most `tol`.
    pub fn approx_eq(&self, other: &Matrix<f64>, tol: f64) -> bool {
        self.max_abs_diff(other) <= tol
    }
}

impl<T> Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &T {
        &self.data[i * self.cols + j]
    }
}

impl<T> IndexMut<(usize, usize)> for Matrix<T> {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut T {
        &mut self.data[i * self.cols + j]
    }
}

impl<T: fmt::Debug> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(16) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(16) {
                write!(f, "{:?} ", self.data[i * self.cols + j])?;
            }
            writeln!(f, "{}", if self.cols > 16 { "..." } else { "" })?;
        }
        if self.rows > 16 {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let mut m = Matrix::filled(2, 3, 0i32);
        m[(0, 0)] = 1;
        m[(1, 2)] = 7;
        assert_eq!(m.get(0, 0), 1);
        assert_eq!(m.get(1, 2), 7);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert!(!m.is_square());
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 10 + j) as i64);
        assert_eq!(m.as_slice()[0], 0);
        assert_eq!(m.as_slice()[4], 10);
        assert_eq!(m.as_slice()[11], 23);
        assert_eq!(m.row(2), &[20, 21, 22, 23]);
    }

    #[test]
    fn from_rows_matches_from_fn() {
        let a = Matrix::from_rows(&[vec![1, 2], vec![3, 4]]);
        let b = Matrix::from_fn(2, 2, |i, j| (2 * i + j + 1) as i32);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[vec![1, 2], vec![3]]);
    }

    #[test]
    fn padding_roundtrip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as i32);
        let p = m.padded(-1, 64);
        assert_eq!(p.n(), 8);
        assert_eq!(p[(2, 4)], 14);
        assert_eq!(p[(3, 0)], -1);
        assert_eq!(p[(0, 5)], -1);
        let back = p.shrunk(3, 5);
        assert_eq!(back, m);
    }

    #[test]
    fn transpose() {
        let m = Matrix::from_fn(2, 3, |i, j| (i, j));
        let t = m.transposed();
        assert_eq!(t.rows(), 3);
        assert_eq!(t[(2, 1)], (1, 2));
    }

    #[test]
    fn identity_and_approx() {
        let i4 = Matrix::identity(4);
        assert_eq!(i4[(2, 2)], 1.0);
        assert_eq!(i4[(2, 3)], 0.0);
        let mut j4 = i4.clone();
        j4[(0, 0)] = 1.0 + 1e-12;
        assert!(i4.approx_eq(&j4, 1e-9));
        assert!(!i4.approx_eq(&j4, 1e-15));
        assert!(i4.max_abs_diff(&j4) > 0.0);
    }

    #[test]
    fn iter_indexed_covers_all() {
        let m = Matrix::from_fn(3, 3, |i, j| i * 3 + j);
        let mut seen = vec![];
        for (i, j, &v) in m.iter_indexed() {
            assert_eq!(v, i * 3 + j);
            seen.push((i, j));
        }
        assert_eq!(seen.len(), 9);
        assert_eq!(seen[0], (0, 0));
        assert_eq!(seen[8], (2, 2));
    }

    #[test]
    fn copy_from_and_fill() {
        let src = Matrix::from_fn(2, 2, |i, j| (i + j) as u8);
        let mut dst = Matrix::filled(2, 2, 0u8);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        dst.fill(9);
        assert_eq!(dst.as_slice(), &[9, 9, 9, 9]);
    }
}
