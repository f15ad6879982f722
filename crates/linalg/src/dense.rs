//! Row-major dense matrices over `f64`.
//!
//! Used for the paper's *local* matrices `Mx(λ)`, `Nx(λ)`, `Ox(λ)` (Section
//! 4, Figs. 1–3), which are small (a handful of activation blocks per
//! vertex), and for exhaustive cross-checks of the sparse code.

use crate::vector;

/// A dense `rows × cols` matrix stored row-major.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a generator function on `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Builds from nested rows; every inner slice must have equal length.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            data.extend_from_slice(row);
        }
        Self {
            rows: r,
            cols: c,
            data,
        }
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

    /// Borrow of the underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// A single row as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix–matrix product `self · rhs`.
    pub fn matmul(&self, rhs: &Self) -> Self {
        assert_eq!(self.cols, rhs.rows, "inner dimensions must agree");
        let mut out = Self::zeros(self.rows, rhs.cols);
        // i-k-j loop order: streams through `rhs` rows, good locality.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let rrow = rhs.row(k);
                let orow = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                vector::axpy(a, rrow, orow);
            }
        }
        out
    }

    /// Matrix–vector product.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(self.cols, x.len());
        (0..self.rows)
            .map(|i| vector::dot(self.row(i), x))
            .collect()
    }

    /// `self + rhs`.
    pub fn add(&self, rhs: &Self) -> Self {
        assert_eq!((self.rows, self.cols), (rhs.rows, rhs.cols));
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// `a · self`.
    pub fn scale(&self, a: f64) -> Self {
        Self {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|v| a * v).collect(),
        }
    }

    /// `true` if every entry is `≥ 0`.
    pub fn is_nonnegative(&self) -> bool {
        self.data.iter().all(|&v| v >= 0.0)
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }

    /// Permutes rows by `perm` (row `i` of the result is row `perm[i]` of
    /// `self`). Used to test norm property 7 (permutation invariance).
    pub fn permute_rows(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.rows);
        Self::from_fn(self.rows, self.cols, |i, j| self[(perm[i], j)])
    }

    /// Permutes columns by `perm` (column `j` of the result is column
    /// `perm[j]` of `self`).
    pub fn permute_cols(&self, perm: &[usize]) -> Self {
        assert_eq!(perm.len(), self.cols);
        Self::from_fn(self.rows, self.cols, |i, j| self[(i, perm[j])])
    }

    /// Places `blocks` on the diagonal of an otherwise-zero matrix
    /// (norm property 8: `‖diag(M₁,…,M_k)‖ = maxᵢ ‖Mᵢ‖`).
    pub fn block_diag(blocks: &[DenseMatrix]) -> Self {
        let rows = blocks.iter().map(|b| b.rows).sum();
        let cols = blocks.iter().map(|b| b.cols).sum();
        let mut out = Self::zeros(rows, cols);
        let (mut r0, mut c0) = (0, 0);
        for b in blocks {
            for i in 0..b.rows {
                for j in 0..b.cols {
                    out[(r0 + i, c0 + j)] = b[(i, j)];
                }
            }
            r0 += b.rows;
            c0 += b.cols;
        }
        out
    }

    /// Pretty multi-line rendering with a fixed precision, for the
    /// figure-reproduction binaries.
    pub fn render(&self, precision: usize) -> String {
        let mut s = String::new();
        for i in 0..self.rows {
            s.push_str("[ ");
            for j in 0..self.cols {
                let v = self[(i, j)];
                if v == 0.0 {
                    s.push_str(&format!("{:>w$} ", ".", w = precision + 3));
                } else {
                    s.push_str(&format!("{:>w$.p$} ", v, w = precision + 3, p = precision));
                }
            }
            s.push_str("]\n");
        }
        s
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DenseMatrix {
        DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])
    }

    #[test]
    fn index_and_row() {
        let m = sample();
        assert_eq!(m[(0, 1)], 2.0);
        assert_eq!(m.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose()[(0, 1)], 3.0);
    }

    #[test]
    fn matmul_identity() {
        let m = sample();
        let id = DenseMatrix::identity(2);
        assert_eq!(m.matmul(&id), m);
        assert_eq!(id.matmul(&m), m);
    }

    #[test]
    fn matmul_known_product() {
        let a = sample();
        let b = DenseMatrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(
            c,
            DenseMatrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]])
        );
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = sample();
        let x = vec![1.0, -1.0];
        assert_eq!(a.matvec(&x), vec![-1.0, -1.0]);
    }

    #[test]
    fn add_scale() {
        let a = sample();
        let s = a.add(&a);
        assert_eq!(s, a.scale(2.0));
    }

    #[test]
    fn max_abs_is_the_largest_entry() {
        assert_eq!(sample().max_abs(), 4.0);
        assert_eq!(sample().scale(-1.0).max_abs(), 4.0);
    }

    #[test]
    fn block_diag_layout() {
        let a = DenseMatrix::from_rows(&[vec![1.0]]);
        let b = DenseMatrix::from_rows(&[vec![2.0, 3.0], vec![4.0, 5.0]]);
        let d = DenseMatrix::block_diag(&[a, b]);
        assert_eq!(d.rows(), 3);
        assert_eq!(d.cols(), 3);
        assert_eq!(d[(0, 0)], 1.0);
        assert_eq!(d[(1, 1)], 2.0);
        assert_eq!(d[(2, 2)], 5.0);
        assert_eq!(d[(0, 1)], 0.0);
        assert_eq!(d[(2, 0)], 0.0);
    }

    #[test]
    fn permutations_preserve_multiset() {
        let m = sample();
        let p = m.permute_rows(&[1, 0]).permute_cols(&[1, 0]);
        assert_eq!(p[(0, 0)], 4.0);
        assert_eq!(p[(1, 1)], 1.0);
    }

    #[test]
    fn render_marks_zeros() {
        let m = DenseMatrix::zeros(1, 2);
        let r = m.render(2);
        assert!(r.contains('.'));
    }
}
