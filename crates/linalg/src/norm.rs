//! Euclidean matrix norms of nonnegative matrices: a certified bracket
//! for the λ-searches, and plain power-iteration estimates.
//!
//! `‖A‖₂² = ρ(AᵀA)` (Section 2). For a nonnegative `A` the Gram matrix
//! `B = AᵀA` is nonnegative, symmetric and positive semidefinite, and any
//! vector `x` bounds `ρ(B)` from both sides:
//!
//! * the Rayleigh quotient `xᵀBx / xᵀx ≤ ρ(B)` for every `x ≠ 0`;
//! * the Collatz–Wielandt quotient `maxᵢ (Bx)ᵢ / xᵢ ≥ ρ(B)` for every
//!   `x > 0`. This is the semi-eigenvector argument of Definition 2.2 /
//!   Lemma 2.1: `Bx ≤ e·x` with `x > 0` implies `ρ(B) ≤ e`.
//!
//! [`gram_bracket`] runs power iteration on `B` from a caller-owned warm
//! vector and keeps both quotients as a [`NormSqBracket`], each end moved
//! outward by a rounding margin `γ_k` whose `k` counts the floating-point
//! operations behind it. The bracket therefore contains `‖A‖²` of the
//! stored matrix, not an estimate of it; a Rayleigh value alone only ever
//! approaches the norm from below. The warm vector is re-floored after
//! every normalisation so that it stays strictly positive and the upper
//! end stays finite.
//!
//! [`spectral_norm_sparse`] and [`spectral_radius_sparse`] are the plain
//! estimators: a Rayleigh quotient iterated until it stops moving, with
//! no certificate. They serve demos and tests that compare against known
//! values; every bound the workspace reports goes through the bracket.

use crate::dense::DenseMatrix;
use crate::rng::XorShift64;
use crate::sparse::CsrMatrix;
use crate::vector;

/// Options for power iteration.
#[derive(Debug, Clone, Copy)]
pub struct PowerIterOpts {
    /// Maximum number of iterations before giving up and returning the
    /// current Rayleigh estimate.
    pub max_iters: usize,
    /// Relative tolerance on the eigenvalue estimate between iterations.
    pub tol: f64,
    /// Seed for the deterministic start-vector perturbation.
    pub seed: u64,
}

impl Default for PowerIterOpts {
    fn default() -> Self {
        Self {
            max_iters: 20_000,
            tol: 1e-13,
            seed: 0x5EED,
        }
    }
}

fn start_vector(n: usize, seed: u64) -> Vec<f64> {
    // Strictly positive start: all-ones plus a small deterministic jitter.
    // Positivity guarantees a nonzero Perron component for nonnegative
    // matrices; the jitter avoids symmetric cancellation in signed tests.
    let mut rng = XorShift64::new(seed);
    (0..n).map(|_| 1.0 + 0.01 * rng.next_f64()).collect()
}

/// Spectral norm `‖A‖₂` of a sparse matrix via power iteration on `AᵀA`.
///
/// Returns `0.0` for a matrix with no nonzeros.
pub fn spectral_norm_sparse(a: &CsrMatrix, opts: PowerIterOpts) -> f64 {
    if a.nnz() == 0 {
        return 0.0;
    }
    let n = a.cols();
    let m = a.rows();
    let mut x = start_vector(n, opts.seed);
    vector::normalize(&mut x);
    let mut ax = vec![0.0; m];
    let mut atax = vec![0.0; n];
    let mut prev = 0.0_f64;
    for _ in 0..opts.max_iters {
        a.matvec(&x, &mut ax);
        a.matvec_transpose(&ax, &mut atax);
        // Rayleigh quotient of AᵀA at unit x is ‖Ax‖² = xᵀ(AᵀA)x.
        let lam = vector::dot(&x, &atax);
        let nrm = vector::normalize(&mut atax);
        if nrm == 0.0 {
            // x is in the null space of AᵀA; for nonnegative A with a
            // positive start this means A = 0 numerically.
            return 0.0;
        }
        std::mem::swap(&mut x, &mut atax);
        if (lam - prev).abs() <= opts.tol * lam.max(1e-300) {
            return lam.max(0.0).sqrt();
        }
        prev = lam;
    }
    prev.max(0.0).sqrt()
}

/// Spectral norm of a dense matrix (converts to CSR; dense matrices in this
/// workspace are tiny local matrices, so the conversion cost is irrelevant).
pub fn spectral_norm_dense(a: &DenseMatrix, opts: PowerIterOpts) -> f64 {
    spectral_norm_sparse(&CsrMatrix::from_dense(a), opts)
}

/// Spectral radius `ρ(A)` of a *nonnegative* square matrix via power
/// iteration. For nonnegative matrices the Perron–Frobenius theorem
/// guarantees `ρ(A)` is an eigenvalue with a nonnegative eigenvector, and a
/// positive start vector has a component along it.
///
/// Internally iterates on the shifted operator `A + I`: for nonnegative `A`
/// the shift satisfies `ρ(A + I) = ρ(A) + 1` and destroys the spectral
/// periodicity that would otherwise make the Rayleigh quotient oscillate on
/// imprimitive matrices (e.g. permutation cycles). Accuracy caveat: for
/// *defective* dominant eigenvalues (nilpotent blocks) convergence degrades
/// to `O(1/k)`, so exact zeros may come back as `~1e-4`; the matrices this
/// workspace actually cares about (`MᵀM`, `Ox·Nx`, both with positive
/// diagonals in the relevant regime) converge geometrically.
///
/// # Panics
/// Panics if `a` is not square or has a negative entry.
pub fn spectral_radius_sparse(a: &CsrMatrix, opts: PowerIterOpts) -> f64 {
    assert_eq!(a.rows(), a.cols(), "spectral radius needs a square matrix");
    assert!(a.is_nonnegative(), "power iteration for rho needs A >= 0");
    if a.nnz() == 0 {
        return 0.0;
    }
    let n = a.rows();
    let mut x = start_vector(n, opts.seed);
    vector::normalize(&mut x);
    let mut ax = vec![0.0; n];
    let mut prev = 0.0_f64;
    for _ in 0..opts.max_iters {
        a.matvec(&x, &mut ax);
        // Shifted operator (A + I)x = Ax + x.
        vector::axpy(1.0, &x, &mut ax);
        let lam = vector::dot(&x, &ax); // Rayleigh quotient of A + I
        let nrm = vector::normalize(&mut ax);
        if nrm == 0.0 {
            return 0.0;
        }
        std::mem::swap(&mut x, &mut ax);
        if (lam - prev).abs() <= opts.tol * lam.abs().max(1e-300) {
            return (lam - 1.0).max(0.0);
        }
        prev = lam;
    }
    (prev - 1.0).max(0.0)
}

/// Dense wrapper over [`spectral_radius_sparse`].
pub fn spectral_radius_dense(a: &DenseMatrix, opts: PowerIterOpts) -> f64 {
    spectral_radius_sparse(&CsrMatrix::from_dense(a), opts)
}

/// `γ_k = k·u / (1 − k·u)` with `u = 2⁻⁵³`: the relative error bound of
/// `k` rounded floating-point operations on nonnegative data (Higham,
/// *Accuracy and Stability of Numerical Algorithms*, Lemma 3.1).
fn gamma(k: usize) -> f64 {
    let ku = k as f64 * (f64::EPSILON / 2.0);
    ku / (1.0 - ku)
}

/// A certified bracket `lower ≤ ‖A‖₂² ≤ upper` on the squared spectral
/// norm of a nonnegative matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NormSqBracket {
    /// A Rayleigh quotient of `AᵀA`, less its rounding margin.
    pub lower: f64,
    /// A Collatz–Wielandt quotient of `AᵀA`, plus its rounding margin.
    pub upper: f64,
}

impl NormSqBracket {
    /// Compares `‖A‖²` with `t`: `Some(true)` when `‖A‖² ≤ t` is
    /// certified, `Some(false)` when `‖A‖² > t` is, `None` while the
    /// bracket straddles `t`.
    pub fn compare(self, t: f64) -> Option<bool> {
        if self.upper <= t {
            Some(true)
        } else if self.lower > t {
            Some(false)
        } else {
            None
        }
    }

    /// The bracket for a matrix whose entries are each within `k`
    /// roundings of the stored ones (relative error `γ_k`). The squared
    /// norm then moves by at most a factor `(1 ± γ_k)² ⊂ 1 ± γ_{2k}`;
    /// four more roundings cover evaluating and applying the factor.
    pub fn widen(self, k: usize) -> Self {
        let g = gamma(2 * k + 4);
        Self {
            lower: self.lower * (1.0 - g),
            upper: self.upper * (1.0 + g),
        }
    }
}

/// Every component of the warm vector is kept at or above `2⁻⁵⁰⁰`. The
/// floor sits far above the subnormal range, so the quotients keep their
/// relative accuracy, and far below any component that moves a bracket
/// end at `f64` precision.
const FLOOR: f64 = f64::from_bits((1023 - 500) << 52);

/// Normalises `x` to unit length and floors every component at
/// [`FLOOR`]. A vector with no usable direction (zero, infinite or NaN
/// norm) restarts from all ones.
fn floor_normalize(x: &mut [f64]) {
    let nrm = vector::normalize(x);
    if !(nrm > 0.0 && nrm.is_finite()) {
        x.fill(1.0);
        vector::normalize(x);
    }
    for v in x.iter_mut() {
        // `f64::max` also maps a NaN component to the floor.
        *v = v.max(FLOOR);
    }
}

/// Certified bracket on `‖A‖₂²` for a nonnegative sparse `A`, by power
/// iteration on `AᵀA` from the caller-owned warm vector `x`.
///
/// Each iteration computes `Bx = Aᵀ(Ax)` once and tightens both ends: the
/// Rayleigh quotient `xᵀBx / xᵀx` for `lower` and the Collatz–Wielandt
/// quotient `maxᵢ (Bx)ᵢ / xᵢ` for `upper`, valid because `x` is kept
/// strictly positive. Returns as soon as `decided(bracket)` holds, or the
/// bracket reached after `max_iters` iterations (at least one). On return
/// `x` holds the last iterate, ready to warm-start a nearby matrix.
///
/// Margins, with `R`/`C` the largest row/column nonzero counts of `A` and
/// `n = cols(A)`: every `(Bx)ᵢ` is a sum of nonnegative products with
/// relative error at most `γ_{R+C}`. Eight more roundings cover the
/// quotient and evaluating and applying the margin (inverting `1 ± γ`,
/// `γ` itself, its sum with 1, the product and the underflow term), so
/// `upper` is widened by `γ_{R+C+8}`. The Rayleigh quotient also carries
/// the two length-`n` dot products, so `lower` is narrowed by
/// `γ_{R+C+2n+8}`. Gradual underflow adds an absolute error below
/// `2⁻¹⁰⁷⁴` per operation; scaled by the largest entry and divided by the
/// floor, it is added to `upper` and taken off `lower`.
///
/// # Panics
/// Panics if `x.len() != cols(A)` or `A` has a negative entry (the
/// Collatz–Wielandt quotient needs `AᵀA ≥ 0`).
pub fn gram_bracket(
    a: &CsrMatrix,
    x: &mut [f64],
    max_iters: usize,
    decided: impl Fn(NormSqBracket) -> bool,
) -> NormSqBracket {
    let n = a.cols();
    assert_eq!(x.len(), n, "warm vector length must equal cols(A)");
    assert!(a.is_nonnegative(), "the certified norm needs A >= 0");
    if a.nnz() == 0 {
        return NormSqBracket {
            lower: 0.0,
            upper: 0.0,
        };
    }
    let row_max = (0..a.rows())
        .map(|i| a.row_entries(i).count())
        .max()
        .unwrap_or(0);
    let mut col_counts = vec![0usize; n];
    for i in 0..a.rows() {
        for (j, _) in a.row_entries(i) {
            col_counts[j] += 1;
        }
    }
    let col_max = col_counts.into_iter().max().unwrap_or(0);
    let upper_margin = gamma(row_max + col_max + 8);
    let lower_margin = gamma(row_max + col_max + 2 * n + 8);
    let underflow = ((row_max + 1) * (col_max + 1) + n) as f64
        * (1.0 + a.max_abs()).powi(2)
        * f64::from_bits(1)
        / FLOOR;

    floor_normalize(x);
    let mut ax = vec![0.0; a.rows()];
    let mut bx = vec![0.0; n];
    let mut bracket = NormSqBracket {
        lower: 0.0,
        upper: f64::INFINITY,
    };
    for _ in 0..max_iters.max(1) {
        a.matvec(x, &mut ax);
        a.matvec_transpose(&ax, &mut bx);
        let rayleigh = vector::dot(x, &bx) / vector::dot(x, x);
        // A NaN quotient poisons this iteration's upper end, which
        // `f64::min` then ignores, rather than dropping one component.
        let collatz = bx
            .iter()
            .zip(x.iter())
            .map(|(b, xi)| b / xi)
            .fold(0.0_f64, |m, q| if q > m || q.is_nan() { q } else { m });
        bracket.lower = bracket
            .lower
            .max(rayleigh * (1.0 - lower_margin) - underflow);
        bracket.upper = bracket
            .upper
            .min(collatz * (1.0 + upper_margin) + underflow);
        if decided(bracket) {
            break;
        }
        x.copy_from_slice(&bx);
        floor_normalize(x);
    }
    bracket
}

/// Verifies the semi-eigenvector relation of Definition 2.2 / Lemma 2.1:
/// `x > 0`, `Mx ≤ e·x` component-wise. Returns `true` when the relation
/// holds within `tol` per component, where the tolerance is applied
/// relative to the component magnitude (semi-eigenvector components can
/// span many orders of magnitude — e.g. the Lemma 4.2 vector
/// `e_j = λ^{Σ(r_c − l_{c+1})}` for unbalanced patterns — so an absolute
/// tolerance would be meaningless).
pub fn is_semi_eigenvector(m: &DenseMatrix, x: &[f64], e: f64, tol: f64) -> bool {
    if x.iter().any(|&v| v <= 0.0) {
        return false;
    }
    let mx = m.matvec(x);
    mx.iter()
        .zip(x)
        .all(|(lhs, xi)| *lhs <= e * xi + tol * (e * xi).abs().max(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use crate::sparse::CooBuilder;

    const OPTS: PowerIterOpts = PowerIterOpts {
        max_iters: 50_000,
        tol: 1e-14,
        seed: 0xABCD,
    };

    #[test]
    fn norm_of_diagonal() {
        let d = DenseMatrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 2.0]]);
        assert!(approx_eq(spectral_norm_dense(&d, OPTS), 3.0, 1e-10));
    }

    #[test]
    fn norm_of_rank_one() {
        // ‖u vᵀ‖ = ‖u‖·‖v‖.
        let u = [1.0, 2.0];
        let v = [3.0, 4.0, 12.0];
        let m = DenseMatrix::from_fn(2, 3, |i, j| u[i] * v[j]);
        let expect = (5.0_f64).sqrt() * (169.0_f64).sqrt();
        assert!(approx_eq(spectral_norm_dense(&m, OPTS), expect, 1e-10));
    }

    #[test]
    fn norm_known_2x2() {
        // M = [[1,1],[0,1]]: singular values are golden-ratio related;
        // sigma_max = (1+sqrt(5))/2.
        let m = DenseMatrix::from_rows(&[vec![1.0, 1.0], vec![0.0, 1.0]]);
        let phi = (1.0 + 5.0_f64.sqrt()) / 2.0;
        assert!(approx_eq(spectral_norm_dense(&m, OPTS), phi, 1e-10));
    }

    #[test]
    fn radius_of_permutation_is_one() {
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 1, 1.0);
        b.push(1, 2, 1.0);
        b.push(2, 0, 1.0);
        let p = b.build();
        assert!(approx_eq(spectral_radius_sparse(&p, OPTS), 1.0, 1e-9));
        // A permutation is orthogonal, so its spectral norm is 1 as well.
        assert!(approx_eq(spectral_norm_sparse(&p, OPTS), 1.0, 1e-9));
    }

    #[test]
    fn radius_of_nilpotent_is_zero() {
        let mut b = CooBuilder::new(3, 3);
        b.push(0, 1, 5.0);
        b.push(1, 2, 7.0);
        let m = b.build();
        // Defective (nilpotent) case: convergence is only O(1/k), so allow
        // a loose tolerance; the true radius is 0.
        assert!(spectral_radius_sparse(&m, OPTS) < 1e-3);
    }

    #[test]
    fn radius_positive_matrix() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let m = DenseMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]);
        assert!(approx_eq(spectral_radius_dense(&m, OPTS), 3.0, 1e-10));
        // Symmetric: spectral norm equals spectral radius (Section 2).
        assert!(approx_eq(spectral_norm_dense(&m, OPTS), 3.0, 1e-10));
    }

    #[test]
    fn zero_matrix_norms() {
        let z = CsrMatrix::zeros(4, 4);
        assert_eq!(spectral_norm_sparse(&z, OPTS), 0.0);
        assert_eq!(spectral_radius_sparse(&z, OPTS), 0.0);
    }

    #[test]
    fn norm_equals_sqrt_radius_of_gram() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0, 0.0], vec![0.0, 1.0, 3.0]]);
        let mt = m.transpose();
        let gram = mt.matmul(&m);
        let direct = spectral_norm_dense(&m, OPTS);
        let via_gram = spectral_radius_dense(&gram, OPTS).sqrt();
        assert!(approx_eq(direct, via_gram, 1e-9));
    }

    #[test]
    fn semi_eigenvector_detection() {
        // Row-stochastic-ish: ones vector is an exact eigenvector of the
        // all-(1/2) 2x2 matrix with eigenvalue 1.
        let m = DenseMatrix::from_rows(&[vec![0.5, 0.5], vec![0.5, 0.5]]);
        assert!(is_semi_eigenvector(&m, &[1.0, 1.0], 1.0, 1e-12));
        // e smaller than the true value must fail.
        assert!(!is_semi_eigenvector(&m, &[1.0, 1.0], 0.9, 1e-12));
        // Nonpositive vectors are rejected.
        assert!(!is_semi_eigenvector(&m, &[1.0, 0.0], 1.0, 1e-12));
    }

    #[test]
    fn norm_properties_on_samples() {
        // Triangle inequality and submultiplicativity spot checks
        // (norm properties 5 and 6 of Section 2).
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![0.5, 0.0]]);
        let b = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![2.0, 0.25]]);
        let na = spectral_norm_dense(&a, OPTS);
        let nb = spectral_norm_dense(&b, OPTS);
        let nsum = spectral_norm_dense(&a.add(&b), OPTS);
        let nprod = spectral_norm_dense(&a.matmul(&b), OPTS);
        assert!(nsum <= na + nb + 1e-9);
        assert!(nprod <= na * nb + 1e-9);
    }

    #[test]
    fn block_diag_norm_is_max() {
        // Norm property 8.
        let a = DenseMatrix::from_rows(&[vec![2.0]]);
        let b = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let d = DenseMatrix::block_diag(&[a.clone(), b.clone()]);
        let na = spectral_norm_dense(&a, OPTS);
        let nb = spectral_norm_dense(&b, OPTS);
        let nd = spectral_norm_dense(&d, OPTS);
        assert!(approx_eq(nd, na.max(nb), 1e-9));
    }

    #[test]
    fn permutation_invariance() {
        // Norm property 7.
        let m = DenseMatrix::from_rows(&[vec![1.0, 3.0], vec![2.0, 4.0]]);
        let p = m.permute_rows(&[1, 0]).permute_cols(&[1, 0]);
        assert!(approx_eq(
            spectral_norm_dense(&m, OPTS),
            spectral_norm_dense(&p, OPTS),
            1e-10
        ));
    }

    /// Runs [`gram_bracket`] from all ones until the bracket is
    /// `1e-12`-tight, and checks it holds `expect` (the known `‖A‖²`).
    fn assert_bracket_holds(a: &DenseMatrix, expect: f64) {
        let a = CsrMatrix::from_dense(a);
        let mut x = vec![1.0; a.cols()];
        let b = gram_bracket(&a, &mut x, 10_000, |b| b.upper - b.lower <= 1e-12 * b.upper);
        assert!(
            b.lower <= expect && expect <= b.upper,
            "{expect} outside [{}, {}]",
            b.lower,
            b.upper
        );
        assert!(b.upper - b.lower <= 1e-12 * b.upper, "undecided: {b:?}");
    }

    #[test]
    fn bracket_holds_known_norms() {
        // Diagonal: ‖A‖² = 9.
        assert_bracket_holds(
            &DenseMatrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 2.0]]),
            9.0,
        );
        // Rank one: ‖u vᵀ‖² = ‖u‖²·‖v‖² = 5·169.
        let (u, v) = ([1.0, 2.0], [3.0, 4.0, 12.0]);
        assert_bracket_holds(&DenseMatrix::from_fn(2, 3, |i, j| u[i] * v[j]), 845.0);
        // [[1,1],[0,1]]: σ_max = φ, so ‖A‖² = φ² = φ + 1.
        let phi = (1.0 + 5.0_f64.sqrt()) / 2.0;
        assert_bracket_holds(
            &DenseMatrix::from_rows(&[vec![1.0, 1.0], vec![0.0, 1.0]]),
            phi + 1.0,
        );
        // A permutation is orthogonal: ‖P‖² = 1.
        let mut p = CooBuilder::new(3, 3);
        p.push(0, 1, 1.0);
        p.push(1, 2, 1.0);
        p.push(2, 0, 1.0);
        assert_bracket_holds(&p.build().to_dense(), 1.0);
        // Equal blocks make AᵀA reducible with a repeated Perron value:
        // [[1,2],[0,1]] has ‖·‖² = 3 + 2√2 = (1 + √2)².
        let blk = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![0.0, 1.0]]);
        let expect = (1.0 + 2.0_f64.sqrt()).powi(2);
        assert_bracket_holds(&DenseMatrix::block_diag(&[blk.clone(), blk]), expect);
        // Unequal blocks: the weaker block's components decay to the floor.
        let a = DenseMatrix::from_rows(&[vec![2.0]]);
        let b = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert_bracket_holds(&DenseMatrix::block_diag(&[a, b]), 4.0);
    }

    #[test]
    fn bracket_decides_from_degenerate_warm_vectors() {
        // J/3 on three coordinates: ‖A‖² = 1.
        let a = CsrMatrix::from_dense(&DenseMatrix::from_fn(3, 3, |_, _| 1.0 / 3.0));
        for start in [
            vec![0.0, f64::from_bits(1), 1.0],
            vec![0.0, 0.0, 0.0],
            vec![f64::NAN, -1.0, f64::MIN_POSITIVE / 4.0],
        ] {
            for (t, want) in [(0.99, false), (1.01, true)] {
                let mut x = start.clone();
                let b = gram_bracket(&a, &mut x, 100, |b| b.compare(t).is_some());
                assert_eq!(b.compare(t), Some(want), "start {start:?}, t {t}: {b:?}");
                assert!(x.iter().all(|&v| v > 0.0), "warm vector left positive");
            }
        }
    }

    #[test]
    fn bracket_stays_finite_through_a_long_undecided_run() {
        // The second block's share of x decays as (1/4)^k and would
        // underflow to 0 after ~500 iterations without the floor; the
        // upper end must stay a finite certificate throughout.
        let a = CsrMatrix::from_dense(&DenseMatrix::block_diag(&[
            DenseMatrix::from_rows(&[vec![2.0]]),
            DenseMatrix::from_rows(&[vec![1.0]]),
        ]));
        let mut x = vec![1.0, 1.0];
        let b = gram_bracket(&a, &mut x, 3_000, |_| false);
        assert!(b.lower <= 4.0 && 4.0 <= b.upper && b.upper.is_finite());
        assert_eq!(x[1], FLOOR);
        // And the warm vector decides the next, nearby question at once.
        let b = gram_bracket(&a, &mut x, 1, |b| b.compare(4.0 + 1e-9).is_some());
        assert_eq!(b.compare(4.0 + 1e-9), Some(true));
    }

    #[test]
    fn widen_moves_both_ends_outward() {
        let b = NormSqBracket {
            lower: 1.0,
            upper: 1.0,
        }
        .widen(3);
        assert!(b.lower < 1.0 && b.upper > 1.0);
        assert_eq!(b.compare(1.0), None);
        assert!(gamma(7) > 7.0 * f64::EPSILON / 2.0);
    }

    #[test]
    fn monotonicity_for_nonnegative() {
        // Norm property 4: M <= N entrywise (nonneg) implies ‖M‖ <= ‖N‖.
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.5], vec![0.0, 1.0]]);
        let n = m.scale(1.5);
        assert!(spectral_norm_dense(&m, OPTS) <= spectral_norm_dense(&n, OPTS) + 1e-12);
    }
}
