//! Compressed sparse row (CSR) matrices over `f64`.
//!
//! The delay matrix `M(λ)` of a gossip protocol (Definition 3.4) has one row
//! and column per *activation* `(x, y, i)` and a nonzero only when two
//! activations are consecutive around a common vertex within a systolic
//! period — typically a handful of nonzeros per row regardless of the
//! network size. CSR with a transpose kept alongside makes the
//! `x ↦ Mᵀ(Mx)` product of power iteration cheap.

use crate::dense::DenseMatrix;

/// Triplet accumulator used to build a [`CsrMatrix`].
///
/// Duplicate `(row, col)` entries are *summed*, matching the usual COO→CSR
/// convention.
#[derive(Debug, Clone, Default)]
pub struct CooBuilder {
    rows: usize,
    cols: usize,
    entries: Vec<(u32, u32, f64)>,
}

impl CooBuilder {
    /// New builder for a `rows × cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Records `m[row, col] += val`.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, val: f64) {
        debug_assert!(row < self.rows && col < self.cols);
        self.entries.push((row as u32, col as u32, val));
    }

    /// Number of recorded (pre-deduplication) entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no entries have been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finalizes into CSR form, summing duplicates and dropping exact zeros.
    pub fn build(mut self) -> CsrMatrix {
        self.entries.sort_unstable_by_key(|a| (a.0, a.1));
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        let mut col_idx: Vec<u32> = Vec::with_capacity(self.entries.len());
        let mut vals: Vec<f64> = Vec::with_capacity(self.entries.len());
        row_ptr.push(0u32);
        let mut cur_row = 0usize;
        let mut i = 0usize;
        while i < self.entries.len() {
            let (r, c, _) = self.entries[i];
            while cur_row < r as usize {
                row_ptr.push(col_idx.len() as u32);
                cur_row += 1;
            }
            // Merge the run of identical (r, c).
            let mut sum = 0.0;
            while i < self.entries.len() && self.entries[i].0 == r && self.entries[i].1 == c {
                sum += self.entries[i].2;
                i += 1;
            }
            if sum != 0.0 {
                col_idx.push(c);
                vals.push(sum);
            }
        }
        while cur_row < self.rows {
            row_ptr.push(col_idx.len() as u32);
            cur_row += 1;
        }
        CsrMatrix {
            rows: self.rows,
            cols: self.cols,
            row_ptr,
            col_idx,
            vals,
        }
    }
}

/// An immutable CSR sparse matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    vals: Vec<f64>,
}

impl CsrMatrix {
    /// The `rows × cols` zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CooBuilder::new(rows, cols).build()
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

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Iterator over the `(col, val)` pairs of row `i`.
    #[inline]
    pub fn row_entries(&self, i: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let lo = self.row_ptr[i] as usize;
        let hi = self.row_ptr[i + 1] as usize;
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.vals[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Value at `(i, j)` (zero when not stored).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.row_entries(i)
            .find(|&(c, _)| c == j)
            .map_or(0.0, |(_, v)| v)
    }

    /// `y ← A·x`.
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.cols);
        assert_eq!(y.len(), self.rows);
        for (i, yi) in y.iter_mut().enumerate() {
            let lo = self.row_ptr[i] as usize;
            let hi = self.row_ptr[i + 1] as usize;
            let mut acc = 0.0;
            for k in lo..hi {
                acc += self.vals[k] * x[self.col_idx[k] as usize];
            }
            *yi = acc;
        }
    }

    /// `y ← Aᵀ·x` without materializing the transpose.
    pub fn matvec_transpose(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.rows);
        assert_eq!(y.len(), self.cols);
        y.fill(0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            let lo = self.row_ptr[i] as usize;
            let hi = self.row_ptr[i + 1] as usize;
            for k in lo..hi {
                y[self.col_idx[k] as usize] += self.vals[k] * xi;
            }
        }
    }

    /// Materialized transpose.
    pub fn transpose(&self) -> CsrMatrix {
        let mut b = CooBuilder::new(self.cols, self.rows);
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                b.push(j, i, v);
            }
        }
        b.build()
    }

    /// Dense copy (small matrices / tests only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.rows, self.cols);
        for i in 0..self.rows {
            for (j, v) in self.row_entries(i) {
                d[(i, j)] = v;
            }
        }
        d
    }

    /// Builds from a dense matrix, keeping nonzero entries.
    pub fn from_dense(d: &DenseMatrix) -> Self {
        let mut b = CooBuilder::new(d.rows(), d.cols());
        for i in 0..d.rows() {
            for j in 0..d.cols() {
                let v = d[(i, j)];
                if v != 0.0 {
                    b.push(i, j, v);
                }
            }
        }
        b.build()
    }

    /// `true` if every stored value is `≥ 0`.
    pub fn is_nonnegative(&self) -> bool {
        self.vals.iter().all(|&v| v >= 0.0)
    }

    /// Largest stored absolute value.
    pub fn max_abs(&self) -> f64 {
        self.vals.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CsrMatrix {
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 1, 2.0);
        b.push(1, 2, 3.0);
        b.push(2, 0, 4.0);
        b.push(0, 1, 1.0); // duplicate, should sum to 3.0
        b.build()
    }

    #[test]
    fn duplicates_are_summed() {
        let m = sample();
        assert_eq!(m.get(0, 1), 3.0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    fn exact_zero_sums_are_dropped() {
        let mut b = CooBuilder::new(1, 1);
        b.push(0, 0, 5.0);
        b.push(0, 0, -5.0);
        let m = b.build();
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.get(0, 0), 0.0);
    }

    #[test]
    fn matvec_known() {
        let m = sample();
        let mut y = vec![0.0; 3];
        m.matvec(&[1.0, 1.0, 1.0], &mut y);
        assert_eq!(y, vec![3.0, 3.0, 4.0]);
    }

    #[test]
    fn matvec_transpose_matches_materialized() {
        let m = sample();
        let t = m.transpose();
        let x = vec![1.0, 2.0, 3.0];
        let mut y1 = vec![0.0; 3];
        let mut y2 = vec![0.0; 3];
        m.matvec_transpose(&x, &mut y1);
        t.matvec(&x, &mut y2);
        assert_eq!(y1, y2);
    }

    #[test]
    fn dense_roundtrip() {
        let m = sample();
        let d = m.to_dense();
        let back = CsrMatrix::from_dense(&d);
        assert_eq!(m, back);
    }

    #[test]
    fn empty_rows_have_valid_pointers() {
        let mut b = CooBuilder::new(4, 4);
        b.push(3, 3, 1.0);
        let m = b.build();
        assert_eq!(m.row_entries(0).count(), 0);
        assert_eq!(m.row_entries(2).count(), 0);
        assert_eq!(m.get(3, 3), 1.0);
    }

    #[test]
    fn norms_bounds() {
        let m = sample();
        assert_eq!(m.max_abs(), 4.0);
        assert!(m.is_nonnegative());
    }

    #[test]
    fn zero_matrix() {
        let z = CsrMatrix::zeros(2, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 5);
        let mut y = vec![1.0; 2];
        z.matvec(&[1.0; 5], &mut y);
        assert_eq!(y, vec![0.0, 0.0]);
    }
}
